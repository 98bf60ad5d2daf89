"""Intra-community skill-to-skill links weighted by BM25 name similarity.

Each skill's document is its own name tokens; the query is the other skill's
tokens. Corpus statistics (N, document frequencies, average length) are
computed per community, so identical names in different communities never
link. Kept links are the per-source top-k positive scores, renormalized to
sum to 1.

Scoring goes through an inverted index (Robertson & Zaragoza, "The
Probabilistic Relevance Framework: BM25 and Beyond", 2009): each community
maps a token to the members whose names hold it, and a source is scored only
against the members that share a token with it. Skipping the rest changes
nothing: BM25 adds a term only for a query token the document holds, so a
pair that shares no token scores exactly 0, and a zero score is never kept.
Every idf is positive, so each pair that shares a token scores above 0.
Each community's ``CorpusStats`` computes every token's idf once, and
``bm25`` reads it for each pair it scores.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from .errors import GraphError, csv_lines, write_lines
from .graph import HeteroGraph, NodeKind, Relation
from .ingest import tokenize

DEFAULT_TOP_K = 10


@dataclass(frozen=True)
class SkillDocument:
    skill: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise GraphError(f"skill {self.skill!r} has no tokens")

    @cached_property
    def length(self) -> int:
        return len(self.tokens)

    @cached_property
    def term_counts(self) -> Counter[str]:
        return Counter(self.tokens)


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.k1 < math.inf:
            raise GraphError(f"k1 must be finite and >= 0, got {self.k1!r}")
        if not 0.0 <= self.b <= 1.0:
            raise GraphError(f"b must be in [0, 1], got {self.b!r}")


def _idf(n_docs: int, df: int) -> float:
    """The +1-inside-log idf, so it is never negative."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


@dataclass(frozen=True)
class CorpusStats:
    n_docs: int
    df: Mapping[str, int]
    avgdl: float

    @classmethod
    def from_documents(cls, docs: Sequence[SkillDocument]) -> "CorpusStats":
        df: Counter[str] = Counter()
        for doc in docs:
            df.update(set(doc.tokens))
        avgdl = sum(d.length for d in docs) / len(docs)
        return cls(n_docs=len(docs), df=dict(df), avgdl=avgdl)

    @cached_property
    def idf(self) -> dict[str, float]:
        """Each corpus token's idf, computed once for every pair scored."""
        return {token: _idf(self.n_docs, df) for token, df in self.df.items()}


def bm25(query: Sequence[str], doc: SkillDocument, stats: CorpusStats,
         params: Bm25Params = Bm25Params()) -> float:
    """Okapi score with the +1-inside-log idf, so results are never negative.

    A token outside the corpus takes the idf of ``df = 0``."""
    tf = doc.term_counts
    idfs = stats.idf
    norm = params.k1 * (1.0 - params.b + params.b * doc.length / stats.avgdl)
    score = 0.0
    for token in query:
        f = tf.get(token, 0)
        if f == 0:
            continue
        idf = idfs.get(token)
        if idf is None:
            idf = _idf(stats.n_docs, 0)
        score += idf * (f * (params.k1 + 1.0)) / (f + norm)
    return score


@dataclass(frozen=True)
class LinkRecord:
    source: str
    target: str
    raw_score: float
    weight: float


def _skill_tokens(g: HeteroGraph, skill_id: str) -> tuple[str, ...]:
    # tokenize splits on '_', so identity-key names from snapshots work too
    return tuple(tokenize(g.node_name(skill_id)))


def link_skills(g: HeteroGraph, communities: Mapping[str, int],
                params: Bm25Params = Bm25Params(), top_k: int = DEFAULT_TOP_K,
                ) -> tuple[HeteroGraph, list[LinkRecord]]:
    """Return a copy of ``g`` with linked edges added, plus the kept links.

    Self-links are forbidden, and only same-community pairs that share a
    token are scored.
    """
    if top_k < 1:
        raise GraphError(f"top_k must be >= 1, got {top_k!r}")
    skills = g.node_ids(NodeKind.SKILL)
    missing = [s for s in skills if s not in communities]
    if missing:
        raise GraphError(f"skill {missing[0]!r} has no community label")
    by_community: dict[int, list[str]] = {}
    for sid in skills:
        by_community.setdefault(communities[sid], []).append(sid)
    records: list[LinkRecord] = []
    rows: list[tuple[str, Relation, dict[str, float]]] = []
    for community in sorted(by_community):
        members = by_community[community]
        if len(members) < 2:
            continue
        docs = {sid: SkillDocument(sid, _skill_tokens(g, sid)) for sid in members}
        stats = CorpusStats.from_documents([docs[sid] for sid in members])
        postings: dict[str, list[str]] = {}
        for sid in members:
            for token in docs[sid].term_counts:
                postings.setdefault(token, []).append(sid)
        for source in members:
            query = docs[source].tokens
            targets = {t for token in docs[source].term_counts for t in postings[token]}
            targets.discard(source)
            scored = []
            for target in targets:
                raw = bm25(query, docs[target], stats, params)
                if raw > 0.0:
                    scored.append((-raw, target))
            scored.sort()
            kept = scored[:top_k]
            total = math.fsum(-neg for neg, _ in kept)
            row = {}
            for neg, target in kept:
                raw = -neg
                weight = raw / total
                row[target] = weight
                records.append(LinkRecord(source, target, raw, weight))
            rows.append((source, Relation.LINKED, row))
    linked = g.copy()
    linked._add_rows(rows)
    linked.validate()
    return linked, records


def write_link_dump(path: str | Path, records: Sequence[LinkRecord]) -> None:
    write_lines(path, csv_lines(("source", "target", "raw_bm25", "weight"),
                                ((r.source, r.target, f"{r.raw_score:.12g}", f"{r.weight:.12g}")
                                 for r in records)))
