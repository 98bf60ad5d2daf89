"""Ranked-retrieval metrics, judgment files, and the vector-space baseline.

Conventions, pinned so every number is unambiguous:

* AP sums precision at each relevant rank; the denominator is the total
  number of relevant items in the judgments, or ``min(total, k)`` for the
  @k variants.
* Uncut Precision is relevant-retrieved over retrieved, across the whole
  returned list; Precision@k divides by k.
* A ranked id without a judgment is an error unless the caller opts into
  treating missing judgments as not relevant.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EvalError, csv_lines, csv_rows, parse_number, read_through, write_lines
from .ingest import Course, Job, Skill, tokenize
from .ranker import RankedList, TitleIndex, match_titles, title_index, to_ranked_list


@dataclass(frozen=True)
class JudgedRun:
    query: str
    ranking: tuple[str, ...]
    judgments: Mapping[str, bool]

    def relevance(self, node_id: str) -> bool:
        try:
            return self.judgments[node_id]
        except KeyError:
            raise EvalError(f"query {self.query!r}: ranked id {node_id!r} has no judgment") from None


@dataclass(frozen=True)
class MetricReport:
    precision: float
    map: float
    map_at_5: float
    precision_at_10: float
    map_at_10: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def render_table(self) -> str:
        header = f"{'Precision':>10} {'MAP':>8} {'MAP@5':>8} {'P@10':>8} {'MAP@10':>8}"
        row = (f"{self.precision:>10.4f} {self.map:>8.4f} {self.map_at_5:>8.4f} "
               f"{self.precision_at_10:>8.4f} {self.map_at_10:>8.4f}")
        note = "Precision is uncut (relevant retrieved / retrieved over the full list)."
        return "\n".join([header, row, note])


def average_precision(run: JudgedRun, cutoff: int | None = None) -> float:
    total_relevant = sum(1 for rel in run.judgments.values() if rel)
    denom = min(total_relevant, cutoff) if cutoff is not None else total_relevant
    if denom == 0:
        return 0.0
    limit = len(run.ranking) if cutoff is None else min(cutoff, len(run.ranking))
    hits = 0
    acc = 0.0
    for rank in range(1, limit + 1):
        if run.relevance(run.ranking[rank - 1]):
            hits += 1
            acc += hits / rank
    return acc / denom


def precision(run: JudgedRun) -> float:
    if not run.ranking:
        return 0.0
    hits = sum(1 for node_id in run.ranking if run.relevance(node_id))
    return hits / len(run.ranking)


def precision_at(run: JudgedRun, k: int) -> float:
    hits = sum(1 for node_id in run.ranking[:k] if run.relevance(node_id))
    return hits / k


def metric_report(runs: Sequence[JudgedRun]) -> MetricReport:
    if not runs:
        raise EvalError("no judged runs to report on")
    mean = lambda values: math.fsum(values) / len(values)  # noqa: E731
    return MetricReport(
        precision=mean([precision(r) for r in runs]),
        map=mean([average_precision(r) for r in runs]),
        map_at_5=mean([average_precision(r, 5) for r in runs]),
        precision_at_10=mean([precision_at(r, 10) for r in runs]),
        map_at_10=mean([average_precision(r, 10) for r in runs]),
    )


# ---------------------------------------------------------------------------
# judgment / run files
# ---------------------------------------------------------------------------

_JUDGMENT_HEADER = ("query_id", "node_id", "relevant")


def load_judgments(path: str | Path) -> dict[str, dict[str, bool]]:
    """CSV ``query_id,node_id,relevant`` with relevant in {0,1}."""
    out: dict[str, dict[str, bool]] = {}
    with read_through(csv_rows(path, _JUDGMENT_HEADER, EvalError)) as rows:
        for i, row in enumerate(rows, start=1):
            if row[2] not in ("0", "1"):
                raise EvalError(f"{path}: row {i}: expected query_id,node_id,relevant(0|1)")
            judged = out.setdefault(row[0], {})
            if row[1] in judged:
                raise EvalError(
                    f"{path}: row {i}: node {row[1]!r} is judged twice for query {row[0]!r}")
            judged[row[1]] = row[2] == "1"
    return out


def write_judgments(path: str | Path, judgments: Mapping[str, Mapping[str, bool]]) -> None:
    write_lines(path, csv_lines(_JUDGMENT_HEADER,
                                ((query, node_id, int(judgments[query][node_id]))
                                 for query in sorted(judgments)
                                 for node_id in sorted(judgments[query]))))


def load_runs(path: str | Path) -> dict[str, list[str]]:
    """Combined run file: CSV ``query_id,rank,node_id,score``, ranks 1-based.

    Scores must be finite numbers that never rise as the rank gets worse
    within a query (ties are allowed).
    """
    staged: dict[str, list[tuple[int, str, float, int]]] = {}
    seen: set[tuple[str, str]] = set()
    with read_through(csv_rows(path, ("query_id", "rank", "node_id", "score"), EvalError)) as rows:
        for i, row in enumerate(rows, start=1):
            rank, score = parse_number(row[1], int), parse_number(row[3], float)
            if rank is None:
                raise EvalError(f"{path}: row {i}: bad rank {row[1]!r}")
            if score is None:
                raise EvalError(f"{path}: row {i}: bad score {row[3]!r}")
            if not math.isfinite(score):
                raise EvalError(f"{path}: row {i}: score {row[3]!r} is not finite")
            if (row[0], row[2]) in seen:
                raise EvalError(
                    f"{path}: row {i}: node {row[2]!r} is ranked twice for query {row[0]!r}")
            seen.add((row[0], row[2]))
            staged.setdefault(row[0], []).append((rank, row[2], score, i))
    out: dict[str, list[str]] = {}
    for query, entries in staged.items():
        entries.sort()
        if [rank for rank, *_ in entries] != list(range(1, len(entries) + 1)):
            raise EvalError(f"{path}: run for query {query!r} has gaps or duplicate ranks")
        for (_, _, above, _), (rank, _, score, row) in zip(entries, entries[1:]):
            if score > above:
                raise EvalError(f"{path}: row {row}: score {score!r} at rank {rank} of query "
                                f"{query!r} rises above {above!r} at rank {rank - 1}")
        out[query] = [node_id for _, node_id, _, _ in entries]
    return out


def judged_runs(rankings: Mapping[str, Sequence[str]],
                judgments: Mapping[str, Mapping[str, bool]],
                missing: str = "error") -> list[JudgedRun]:
    """Pair rankings with judgments; ``missing`` is 'error' or 'irrelevant'."""
    if missing not in ("error", "irrelevant"):
        raise EvalError(f"missing policy {missing!r} not in ('error', 'irrelevant')")
    runs = []
    for query in sorted(rankings):
        if query not in judgments:
            raise EvalError(f"no judgments for query {query!r}")
        judged = dict(judgments[query])
        if missing == "irrelevant":
            for node_id in rankings[query]:
                judged.setdefault(node_id, False)
        runs.append(JudgedRun(query=query, ranking=tuple(rankings[query]), judgments=judged))
    return runs


# ---------------------------------------------------------------------------
# vector-space baseline
# ---------------------------------------------------------------------------

def _tfidf_vector(tokens: Sequence[str], idf: Mapping[str, float]) -> dict[str, float]:
    vec = {}
    for token, count in Counter(tokens).items():
        if token in idf:
            vec[token] = (1.0 + math.log(count)) * idf[token]
    return vec


def _norm(vec: Mapping[str, float]) -> float:
    return math.sqrt(math.fsum(v * v for v in vec.values()))


def _cosine(a: Mapping[str, float], na: float, b: Mapping[str, float], nb: float) -> float:
    """Cosine of ``a`` and ``b``, whose norms are ``na`` and ``nb``."""
    if not a or not b:
        return 0.0
    dot = math.fsum(v * b[t] for t, v in a.items() if t in b)
    return dot / (na * nb) if dot else 0.0


def course_text_tokens(course: Course, skill_names: Mapping[str, str]) -> list[str]:
    tokens = tokenize(course.name) + tokenize(course.description)
    for sid in sorted(course.skills):
        tokens += tokenize(skill_names.get(sid, sid))
    return tokens


@dataclass(frozen=True)
class _BaselineCorpus:
    """What the baseline derives from its corpora alone: the idf, each
    course's vector and norm in id order, and the job title index."""

    idf: dict[str, float]
    ids: list[str]
    vectors: list[dict[str, float]]
    norms: list[float]
    titles: TitleIndex


# the last call's three corpora and what was built from them
_baseline_last: tuple[tuple, _BaselineCorpus] | None = None


def _baseline_corpus(jobs: tuple[Job, ...], courses: tuple[Course, ...],
                     catalog: tuple[Skill, ...]) -> _BaselineCorpus:
    """The baseline's corpus-wide parts, built once per distinct value of
    the three corpora and kept until another value comes. The corpora are
    compared with the last call's by tuple ``==``, which tests identity
    first, so a repeated call hashes no record."""
    global _baseline_last
    key = (jobs, courses, catalog)
    if _baseline_last is None or _baseline_last[0] != key:
        _baseline_last = (key, _build_baseline_corpus(*key))
    return _baseline_last[1]


def _build_baseline_corpus(jobs: tuple[Job, ...], courses: tuple[Course, ...],
                           catalog: tuple[Skill, ...]) -> _BaselineCorpus:
    skill_names = {s.id: s.name for s in catalog}
    docs = {c.id: course_text_tokens(c, skill_names) for c in courses}
    df: Counter[str] = Counter()
    for tokens in docs.values():
        df.update(set(tokens))
    n = len(courses)
    idf = {t: math.log(n / d) for t, d in df.items()}
    ids = sorted(docs)
    vectors = [_tfidf_vector(docs[cid], idf) for cid in ids]
    # the ranker's matcher, keyed by input position to keep the input order
    titles = title_index((i, job.title) for i, job in enumerate(jobs))
    return _BaselineCorpus(idf, ids, vectors, [_norm(v) for v in vectors], titles)


def baseline_vector_space(jobs: Sequence[Job], courses: Sequence[Course], query: str,
                          cutoff: int | None = None,
                          catalog: Sequence[Skill] | None = None) -> RankedList:
    """TF-IDF cosine between matched-job text and each course's text.

    Log-scaled term frequency, idf = ln(N/df) over the course corpus; courses
    sharing no token with the query score 0 and are excluded.
    """
    if not jobs or not courses:
        raise EvalError("baseline needs non-empty corpora")
    title_tokens = tokenize(query)
    if not title_tokens:
        raise EvalError("empty job query")
    corpus = _baseline_corpus(tuple(jobs), tuple(courses), tuple(catalog or ()))
    matched = match_titles(corpus.titles, title_tokens)
    if not len(matched):
        raise EvalError(f"no job title matches {query!r}")
    query_tokens: list[str] = []
    for job in (jobs[i] for i in matched.tolist()):
        query_tokens += tokenize(job.title)
        for sid in sorted(job.skills):
            query_tokens += tokenize(sid)
    qvec = _tfidf_vector(query_tokens, corpus.idf)
    qnorm = _norm(qvec)
    scores = [_cosine(qvec, qnorm, vec, norm) for vec, norm in zip(corpus.vectors, corpus.norms)]
    return to_ranked_list(corpus.ids, scores, query, "baseline-vector-space", cutoff)
