"""Intra-community skill-to-skill links weighted by BM25 name similarity.

Each skill's document is its own name tokens; the query is the other skill's
tokens. Corpus statistics (N, document frequencies, average length) are
computed per community, so identical names in different communities never
link. Kept links are the per-source top-k positive scores, renormalized to
sum to 1.

Links are evaluated term at a time over term postings (Robertson &
Zaragoza, "The Probabilistic Relevance Framework: BM25 and Beyond", 2009).
A BM25 term ``idf(t) * (f * (k1 + 1)) / (f + norm(d))`` depends on the token
and the document, never on the query. So each community computes its
postings once: each token maps to the members whose names hold it, each with
its term for that token. ``bm25`` is called once per source, and adds the
postings of the source's tokens in query order, duplicates included, into
one score per member. Each score is the same float sum, in the same order,
as a per-pair evaluation that skips the query tokens its document lacks. A
member that shares no token with the source gets no score (BM25 adds a term
only for a query token the document holds), and is never kept. Every idf is
positive, so each member that shares a token scores above 0.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import GraphError, csv_lines, write_lines
from .graph import HeteroGraph, NodeKind, Relation
from .ingest import tokenize

DEFAULT_TOP_K = 10

Postings = dict[str, list[tuple[str, float]]]
# a kept link as (source, target, raw_score, weight): a plain tuple, which
# the collector stops tracking, as it holds only strings and floats
Link = tuple[str, str, float, float]


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.k1 < math.inf:
            raise GraphError(f"k1 must be finite and >= 0, got {self.k1!r}")
        if not 0.0 <= self.b <= 1.0:
            raise GraphError(f"b must be in [0, 1], got {self.b!r}")


def term_postings(docs: Mapping[str, Sequence[str]],
                  params: Bm25Params = Bm25Params()) -> Postings:
    """Each token's ``(member, term)`` pairs over one community's documents,
    members in ``docs`` order.

    A member's term for a token it holds ``f`` times is the BM25 term with
    the +1-inside-log idf, so it is never negative."""
    n_docs = len(docs)
    df: Counter[str] = Counter()
    for tokens in docs.values():
        df.update(set(tokens))
    avgdl = sum(len(tokens) for tokens in docs.values()) / n_docs
    idf = {token: math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5)) for token, n in df.items()}
    k1, b = params.k1, params.b
    postings: Postings = {}
    for member, tokens in docs.items():
        norm = k1 * (1.0 - b + b * len(tokens) / avgdl)
        for token, f in Counter(tokens).items():
            term = idf[token] * (f * (k1 + 1.0)) / (f + norm)
            postings.setdefault(token, []).append((member, term))
    return postings


def bm25(query: Sequence[str], postings: Postings) -> dict[str, float]:
    """Each member's BM25 score for ``query``, for the members that hold one
    of its tokens: their terms added in query order, duplicates included."""
    scores: dict[str, float] = {}
    get = scores.get
    for token in query:
        for member, term in postings.get(token, ()):
            scores[member] = get(member, 0.0) + term
    return scores


def _skill_tokens(g: HeteroGraph, skill_id: str) -> tuple[str, ...]:
    # tokenize splits on '_', so identity-key names from snapshots work too
    tokens = tuple(tokenize(g.node_name(skill_id)))
    if not tokens:
        raise GraphError(f"skill {skill_id!r} has no tokens")
    return tokens


def link_skills(g: HeteroGraph, communities: Mapping[str, int],
                params: Bm25Params = Bm25Params(), top_k: int = DEFAULT_TOP_K,
                ) -> tuple[HeteroGraph, list[Link]]:
    """Return a copy of ``g`` with linked edges added, plus the kept links:
    communities in label order, sources in id order, each source's links
    best first.

    Self-links are forbidden. ``bm25`` runs once per skill of each community
    of at least two, and scores the same-community skills that share a token
    with it.
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
    links: list[Link] = []
    rows: list[tuple[str, Relation, dict[str, float]]] = []
    for community in sorted(by_community):
        members = by_community[community]
        if len(members) < 2:
            continue
        docs = {sid: _skill_tokens(g, sid) for sid in members}
        postings = term_postings(docs, params)
        for source, query in docs.items():
            scores = bm25(query, postings)
            del scores[source]
            kept = sorted([(-raw, target) for target, raw in scores.items()])[:top_k]
            total = math.fsum(-neg for neg, _ in kept)
            row = {}
            for neg, target in kept:
                row[target] = weight = -neg / total
                links.append((source, target, -neg, weight))
            rows.append((source, Relation.LINKED, row))
    linked = g.copy()
    linked._add_rows(rows)
    linked.validate()
    return linked, links


def write_link_dump(path: str | Path, links: Sequence[Link]) -> None:
    write_lines(path, csv_lines(("source", "target", "raw_bm25", "weight"),
                                ((source, target, f"{raw:.12g}", f"{weight:.12g}")
                                 for source, target, raw, weight in links)))
