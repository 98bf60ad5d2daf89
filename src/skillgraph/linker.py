"""Intra-community skill-to-skill links weighted by BM25 name similarity.

Each skill's document is its own name tokens; the query is the other skill's
tokens. Corpus statistics (N, document frequencies, average length) are
computed per community, so identical names in different communities never
link. Kept links are the per-source top-k positive scores, renormalized to
sum to 1.

Links are evaluated term at a time over term postings (Robertson &
Zaragoza, "The Probabilistic Relevance Framework: BM25 and Beyond", 2009),
in arrays, one community at a time. A BM25 term
``idf(t) * (f * (k1 + 1)) / (f + norm(d))`` depends on the token and the
document, never on the query. So each community computes its postings once
(``term_postings``): each token's members, ascending, each with its term for
that token. Every idf comes from ``math.log``, and every term and ``norm``
takes the scalar formula's operations in its order, so each is the float a
per-pair evaluation computes. ``bm25`` scores a chunk of sources at once: it
expands each query's tokens, in query order and duplicates included, into
one ``(source, member, term)`` entry per posting, stably sorts the entries
by ``(source, member)`` key, and adds each key's terms with one
``np.bincount``. The stable sort keeps each key's terms in query order and
``bincount`` adds in input order, so each score is the same float sum, in
the same order, as a per-pair evaluation that skips the query tokens its
document lacks. A member that shares no token with the source gets no score
(BM25 adds a term only for a query token the document holds), and is never
kept. Every idf is positive, so each member that shares a token scores
above 0.

``link_skills`` drops each source's own score and ranks the rest with a
stable ``np.lexsort`` on ``(-score, source)``, which keeps ``bm25``'s member
order, members in id order, among tied scores. It keeps each source's first
``top_k``, adds them with ``math.fsum`` and divides in arrays. A chunk is a
run of whole sources whose expanded postings fit ``_BATCH_PAIRS`` (a source
that alone expands more is a chunk of its own), so the memory a call needs
is bounded by the budget, not by the community's size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import GraphError, csv_lines, write_lines
from .graph import HeteroGraph, NodeKind, Relation
from .ingest import tokenize

DEFAULT_TOP_K = 10

# the postings one ``bm25`` call expands, at most, unless one source alone
# expands more: a few MB of arrays. The largest community expands 14,156
# postings on the build-mid benchmark and 47,800 on a 20000/3000/4000 synth
# corpus, so neither is split
_BATCH_PAIRS = 1 << 16

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


@dataclass(frozen=True)
class Postings:
    """One community's term postings over ``n_docs`` documents: the token
    numbered ``vocab[token]`` (``t``) is held by the documents at positions
    ``members[start[t]:start[t + 1]]``, ascending, each with its BM25 term
    for the token at the same place in ``terms``."""
    n_docs: int
    vocab: dict[str, int]
    start: np.ndarray
    members: np.ndarray
    terms: np.ndarray


def term_postings(docs: Sequence[Sequence[str]],
                  params: Bm25Params = Bm25Params()) -> Postings:
    """The postings of one community's documents, each a member's tokens,
    members numbered by their place in ``docs``.

    A member's term for a token it holds ``f`` times is the BM25 term with
    the +1-inside-log idf, so it is never negative."""
    n_docs = len(docs)
    vocab: dict[str, int] = {}
    ids = [vocab.setdefault(token, len(vocab)) for tokens in docs for token in tokens]
    lengths = np.array([len(tokens) for tokens in docs], dtype=np.int64)
    # each distinct (token, member) once, by token then member, with its count
    pairs, f = np.unique(np.array(ids, dtype=np.int64) * n_docs
                         + np.repeat(np.arange(n_docs), lengths), return_counts=True)
    token, member = np.divmod(pairs, n_docs)
    df = np.bincount(token, minlength=len(vocab))
    idf = np.array([math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5)) for n in df.tolist()])
    avgdl = int(lengths.sum()) / n_docs
    k1, b = params.k1, params.b
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        norm = k1 * ((1.0 - b) + (b * lengths) / avgdl)
        terms = (idf[token] * (f * (k1 + 1.0))) / (f + norm[member])
    # every idf is positive, so only a k1 too large for floats makes a term
    # infinite, NaN or 0.0
    if not np.all((terms > 0.0) & (terms < math.inf)):
        raise GraphError(f"k1 {k1!r} is too large: a BM25 term overflows")
    return Postings(n_docs, vocab, np.concatenate(([0], np.cumsum(df))), member, terms)


def bm25(queries: Sequence[Sequence[str]],
         postings: Postings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each BM25 score of a query and a member that holds one of its tokens,
    as ``(query, member, score)`` arrays, by query position then member:
    the member's terms added in query order, duplicates included."""
    vocab, start, n_docs = postings.vocab, postings.start, postings.n_docs
    token = np.array([vocab.get(t, -1) for query in queries for t in query], dtype=np.int64)
    owner = np.repeat(np.arange(len(queries)), [len(query) for query in queries])
    held = token >= 0
    owner, token = owner[held], token[held]
    first = start[token]
    counts = start[token + 1] - first
    ends = np.cumsum(counts)
    # each held token's postings in turn, the tokens in query order
    at = np.arange(counts.sum()) + np.repeat(first - (ends - counts), counts)
    key = np.repeat(owner, counts) * n_docs + postings.members[at]
    # a stable sort keeps each key's terms in query order, the order
    # bincount adds them in
    order = np.argsort(key, kind="stable")
    key, at = key[order], at[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    query, member = np.divmod(key[new], n_docs)
    return query, member, np.bincount(np.cumsum(new) - 1, weights=postings.terms[at],
                                      minlength=len(query))


def _skill_tokens(g: HeteroGraph, skill_id: str) -> tuple[str, ...]:
    # tokenize splits on '_', so identity-key names from snapshots work too
    tokens = tuple(tokenize(g.node_name(skill_id)))
    if not tokens:
        raise GraphError(f"skill {skill_id!r} has no tokens")
    return tokens


def _chunks(queries: Sequence[Sequence[str]], postings: Postings) -> list[tuple[int, int]]:
    """Runs ``[lo, hi)`` of whole queries, in order, each expanding at most
    ``_BATCH_PAIRS`` postings unless it is one query."""
    vocab = postings.vocab
    expanded = np.diff(postings.start)[[vocab[token] for query in queries for token in query]]
    ends = np.cumsum(expanded)[np.cumsum([len(query) for query in queries]) - 1]
    bounds, lo = [], 0
    while lo < len(queries):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(base + _BATCH_PAIRS, side="right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def link_skills(g: HeteroGraph, communities: Mapping[str, int],
                params: Bm25Params = Bm25Params(), top_k: int = DEFAULT_TOP_K,
                ) -> tuple[HeteroGraph, list[Link]]:
    """Return a copy of ``g`` with linked edges added, plus the kept links:
    communities in label order, sources in id order, each source's links
    best first, ties in target id order.

    Self-links are forbidden. Each community of at least two skills builds
    its postings once, then calls ``bm25`` once per chunk of its skills
    (one chunk unless they expand more than ``_BATCH_PAIRS`` postings), which
    scores the same-community skills that share a token with each source.
    """
    if top_k < 1:
        raise GraphError(f"top_k must be >= 1, got {top_k!r}")
    skills = g.node_ids(NodeKind.SKILL)
    # no source has more candidates than there are skills, and the cap keeps
    # top_k inside int64 for the array work below
    top_k = min(top_k, len(skills))
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
        queries = [_skill_tokens(g, sid) for sid in members]
        names = np.array(members, dtype=object)
        postings = term_postings(queries, params)
        for lo, hi in _chunks(queries, postings):
            source, target, raw = bm25(queries[lo:hi], postings)
            other = np.flatnonzero(source + lo != target)
            by_source = source[other]
            # stable, so tied scores keep bm25's member order
            ranked = other[np.lexsort((-raw[other], by_source))]
            # each source's first top_k, best first
            counts = np.bincount(by_source, minlength=hi - lo)
            kept = ranked[np.arange(len(ranked)) - np.repeat(np.cumsum(counts) - counts, counts)
                          < top_k]
            source, target, raw = source[kept], target[kept], raw[kept]
            counts = np.minimum(counts, top_k).tolist()
            raws = raw.tolist()
            each = iter(raws)
            totals = [math.fsum(islice(each, n)) for n in counts]
            weights = (raw / np.repeat(totals, counts)).tolist()
            targets = names[target].tolist()
            links.extend(zip(names[source + lo].tolist(), targets, raws, weights))
            each = zip(targets, weights)
            rows.extend((s, Relation.LINKED, dict(islice(each, n)))
                        for s, n in zip(members[lo:hi], counts))
    linked = g.copy()
    linked._add_rows(rows)
    linked.validate()
    return linked, links


def write_link_dump(path: str | Path, links: Sequence[Link]) -> None:
    write_lines(path, csv_lines(("source", "target", "raw_bm25", "weight"),
                                ((source, target, f"{raw:.12g}", f"{weight:.12g}")
                                 for source, target, raw, weight in links)))
