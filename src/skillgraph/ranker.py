"""Meta-path random-walk scoring of candidate nodes, with community gates.

A candidate's score is the sum over all tours from a seed to it along the
declared step sequence of the product of traversed edge weights; reverse
steps traverse stored edges target-to-source with the stored forward weight.
Steps flagged as community-restricted only land on nodes carrying the query
community's merged label. Scoring is layered sparse propagation, one weighted
scatter per step, which equals explicit tour enumeration. A restricted step
scatters only the edges whose landing node is in the query community: each
relation's edges are stably ordered by that node's community once per graph
state and labels (``CommunityEdges``), so the step reads one contiguous slice
and every node still sums its pushes in the order a full scatter would.

Three course-recommendation scenarios are wired on top:

1. career goal -> job seeds -> required/linked/covered walk inside the job's
   community, then one unrestricted hop to each candidate's prerequisites;
2. scenario 1 plus covered-skill walks seeded by already-taken courses
   (taken courses excluded from the output);
3. current job -> same three community-restricted hops, then one reverse
   pre-required hop so foundation courses walk to the advanced courses that
   list them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import kernels
from .community import Labels
from .errors import QueryError, csv_text
from .graph import RELATION_SIGNATURE, GraphIndex, HeteroGraph, NodeKind, Relation
from .ingest import tokenize

DEFAULT_PREREQ_DEPTH = 1


@dataclass(frozen=True)
class MetaPathStep:
    relation: Relation
    reverse: bool = False
    community_restricted: bool = False

    @property
    def source_kind(self) -> NodeKind:
        src, dst = RELATION_SIGNATURE[self.relation]
        return dst if self.reverse else src

    @property
    def target_kind(self) -> NodeKind:
        src, dst = RELATION_SIGNATURE[self.relation]
        return src if self.reverse else dst

    def edges(self, index: GraphIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``index``'s edges of this step's relation as (from, to, weight)."""
        src, dst, wgt = index.rel_edges[self.relation]
        return (dst, src, wgt) if self.reverse else (src, dst, wgt)


@dataclass(frozen=True)
class MetaPath:
    steps: tuple[MetaPathStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise QueryError("meta-path needs at least one step")
        for a, b in zip(self.steps, self.steps[1:]):
            if a.target_kind is not b.source_kind:
                raise QueryError(
                    f"meta-path breaks: step ends at {a.target_kind.value}, "
                    f"next starts at {b.source_kind.value}")

    @property
    def source_kind(self) -> NodeKind:
        return self.steps[0].source_kind

    @property
    def target_kind(self) -> NodeKind:
        return self.steps[-1].target_kind


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, float], ...]
    query: str
    scenario: str
    # how ``recommend`` reached the entries; equality and repr ignore it
    provenance: Provenance | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if any(score <= 0.0 for _n, score in self.entries):
            raise QueryError("ranked list contains a non-positive score")
        if len({n for n, _s in self.entries}) != len(self.entries):
            raise QueryError("ranked list contains a duplicate node")
        for (na, sa), (nb, sb) in zip(self.entries, self.entries[1:]):
            if sa < sb or (sa == sb and na >= nb):
                raise QueryError("ranked list out of order")


@dataclass(frozen=True)
class ScenarioInput:
    scenario: int
    career_goal: str | None = None
    taken_courses: tuple[str, ...] = ()
    current_job: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in (1, 2, 3):
            raise QueryError(f"unknown scenario {self.scenario!r}")
        if self.scenario in (1, 2) and not self.career_goal:
            raise QueryError(f"scenario {self.scenario} needs a career goal")
        if self.scenario == 2 and not self.taken_courses:
            raise QueryError("scenario 2 needs the already-taken courses")
        if self.scenario == 3 and not self.current_job:
            raise QueryError("scenario 3 needs the current job")
        # an input the scenario does not read would answer a different question
        if self.scenario != 2 and self.taken_courses:
            raise QueryError(f"scenario {self.scenario} takes no taken courses; scenario 2 does")
        if self.scenario != 3 and self.current_job:
            raise QueryError(f"scenario {self.scenario} takes no current job; scenario 3 does")
        if self.scenario == 3 and self.career_goal:
            raise QueryError("scenario 3 takes no career goal; it starts from the current job")
        for i, course in enumerate(self.taken_courses):
            if course in self.taken_courses[:i]:
                raise QueryError(f"taken course {course!r} is listed more than once")

    @property
    def query_text(self) -> str:
        return self.current_job if self.scenario == 3 else self.career_goal  # type: ignore[return-value]


def title_contains(title_tokens: list[str], query_tokens: list[str]) -> bool:
    """True when the query tokens appear as a contiguous run in the title tokens."""
    k = len(query_tokens)
    return any(title_tokens[i:i + k] == query_tokens
               for i in range(len(title_tokens) - k + 1))


@dataclass(frozen=True)
class TitleIndex:
    """Job titles as token tuples: ``titles`` maps each distinct one to the
    ids of its jobs and ``postings`` each token to the titles holding it, so a
    query checks only its rarest token's titles instead of every job."""

    titles: dict[tuple[str, ...], list]
    postings: dict[str, list[tuple[str, ...]]]


def title_index(jobs: Iterable[tuple[object, str]]) -> TitleIndex:
    """Index ``(job id, title)`` pairs, tokenizing each distinct title once."""
    by_raw: dict[str, list] = {}
    for job_id, title in jobs:
        by_raw.setdefault(title, []).append(job_id)
    titles: dict[tuple[str, ...], list] = {}
    for raw, job_ids in by_raw.items():
        titles.setdefault(tuple(tokenize(raw)), []).extend(job_ids)
    postings: dict[str, list[tuple[str, ...]]] = {}
    for title in titles:
        for token in dict.fromkeys(title):
            postings.setdefault(token, []).append(title)
    return TitleIndex(titles, postings)


def job_titles(g: HeteroGraph) -> TitleIndex:
    """The title index of ``g``'s job nodes; read it as ``g.cached(job_titles)``."""
    return title_index((job_id, g.node_name(job_id)) for job_id in g.node_ids(NodeKind.JOB))


def match_titles(index: TitleIndex, query: list[str]) -> list:
    """Sorted ids of the jobs whose title holds the ``query`` tokens as a run."""
    # a matching title holds every query token, so the rarest one's postings
    # hold every match; a token in no title leaves nothing to check
    candidates = min((index.postings.get(token, []) for token in query), key=len)
    return sorted(job_id for title in candidates if title_contains(list(title), query)
                  for job_id in index.titles[title])


def resolve_job_query(g: HeteroGraph, text: str) -> dict[str, float]:
    """Jobs whose title contains the query as a contiguous token run.

    Matches share uniform weight. With no match, raises and names up to five
    nearest distinct titles by shared-token count, then by title.
    """
    query = tokenize(text)
    if not query:
        raise QueryError("empty job query")
    index = g.cached(job_titles)
    matches = match_titles(index, query)
    if not matches:
        qset = set(query)
        scored = sorted({(-len(qset.intersection(title)), g.node_name(job_id))
                         for title, job_ids in index.titles.items() for job_id in job_ids})
        nearest = [name for _neg, name in scored[:5]]
        raise QueryError(
            f"no job title matches {text!r}; nearest titles: {nearest}")
    weight = 1.0 / len(matches)
    return {job_id: weight for job_id in matches}


class CommunityEdges:
    """Per (relation, direction), the edges stably ordered by the community
    of the node they land on, with each community's bounds; an edge landing
    on an unlabelled node is in no community's slice. Community ids map to
    slice numbers through a dict, so any hashable label works. Read it as
    ``labels.cached(index, CommunityEdges)``; slices are built on first use."""

    def __init__(self, index: GraphIndex, labels: Labels) -> None:
        self.index = index
        self.slot: dict[int, int] = {}
        node_slot = [-1 if c is None else self.slot.setdefault(c, len(self.slot))
                     for c in map(labels.get, index.ids)]
        self.node_slot = np.asarray(node_slot, dtype=np.int64)
        self._ordered: dict[tuple[Relation, bool], tuple] = {}

    def edges(self, step: MetaPathStep,
              community: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``step``'s edges that land in ``community``, as (from, to, weight)."""
        key = (step.relation, step.reverse)
        if key not in self._ordered:
            src, dst, wgt = step.edges(self.index)
            landing = self.node_slot[dst]
            # stable, so each landing node keeps its edges' order and its sum
            order = np.argsort(landing, kind="stable")
            bounds = np.searchsorted(landing[order], np.arange(len(self.slot) + 1))
            self._ordered[key] = (src[order], dst[order], wgt[order], bounds.tolist())
        src, dst, wgt, bounds = self._ordered[key]
        k = self.slot.get(community)
        lo, hi = (0, 0) if k is None else (bounds[k], bounds[k + 1])
        return src[lo:hi], dst[lo:hi], wgt[lo:hi]


def _walk(index: GraphIndex, path: MetaPath, scores: np.ndarray,
          gate: CommunityEdges | None = None, community: int | None = None) -> np.ndarray:
    """Push ``scores`` along ``path``, one kernel call per step. With a
    ``gate``, a restricted step scatters only the edges that land in
    ``community``, which equals a full scatter with every node outside it
    (or unlabelled) zeroed, to the bit."""
    for step in path.steps:
        if step.community_restricted and gate is not None:
            src, dst, wgt = gate.edges(step, community)
        else:
            src, dst, wgt = step.edges(index)
        scores = kernels.propagate_step(scores, src, dst, wgt, index.n)
    return scores


def _positive(index: GraphIndex, scores: np.ndarray) -> dict[str, float]:
    hits = np.flatnonzero(scores > 0.0)
    return dict(zip([index.ids[i] for i in hits.tolist()], scores[hits].tolist()))


def _as_labels(labels: Mapping[str, int]) -> Labels:
    """``labels`` itself when it is ``Labels``; else a copy, read now."""
    return labels if isinstance(labels, Labels) else Labels(labels)


def score_metapath(g: HeteroGraph, path: MetaPath, seeds: Mapping[str, float],
                   labels: Mapping[str, int] | None = None,
                   community: int | None = None) -> dict[str, float]:
    """Sum-of-tour-products scores for every node reachable along ``path``."""
    if community is not None and labels is None:
        raise QueryError("community gate requested without node labels")
    index = g.cached(GraphIndex)
    gate = None if community is None else _as_labels(labels).cached(index, CommunityEdges)
    scores = np.zeros(index.n, dtype=np.float64)
    source_kind = path.source_kind
    for node_id, weight in seeds.items():
        if node_id not in index.pos:
            raise QueryError(f"seed {node_id!r} is not in the graph")
        if g.node_kind(node_id) is not source_kind:
            raise QueryError(
                f"seed {node_id!r} is a {g.node_kind(node_id).value}, "
                f"path starts at a {source_kind.value}")
        scores[index.pos[node_id]] = weight
    return _positive(index, _walk(index, path, scores, gate, community))


BASE_PATH = MetaPath((
    MetaPathStep(Relation.REQUIRED, community_restricted=True),
    MetaPathStep(Relation.LINKED, community_restricted=True),
    MetaPathStep(Relation.COVERED, reverse=True, community_restricted=True),
))

TAKEN_PATH = MetaPath((
    MetaPathStep(Relation.COVERED, community_restricted=True),
    MetaPathStep(Relation.COVERED, reverse=True, community_restricted=True),
))

UPSKILL_PATH = MetaPath((
    MetaPathStep(Relation.REQUIRED, community_restricted=True),
    MetaPathStep(Relation.LINKED, community_restricted=True),
    MetaPathStep(Relation.COVERED, reverse=True, community_restricted=True),
    MetaPathStep(Relation.PRE_REQUIRED, reverse=True),
))

_PREREQ_HOP = MetaPath((MetaPathStep(Relation.PRE_REQUIRED),))


def prerequisite_expansion(g: HeteroGraph, base_scores: Mapping[str, float],
                           depth: int = DEFAULT_PREREQ_DEPTH) -> dict[str, float]:
    """Push candidate scores one (or ``depth``) hops down stored prereq edges.

    Every level's pushes add up; ids that are not in the graph push nothing.
    """
    if depth < 0:
        raise QueryError(f"prerequisite depth {depth!r} must be >= 0")
    index = g.cached(GraphIndex)
    level = np.zeros(index.n, dtype=np.float64)
    for node_id, score in base_scores.items():
        if node_id in index.pos:
            level[index.pos[node_id]] = score
    extra = np.zeros(index.n, dtype=np.float64)
    for _ in range(depth):
        level = _walk(index, _PREREQ_HOP, level)
        extra += level
    return _positive(index, extra)


@dataclass
class Provenance:
    """Per-route score shares of one query, as ``recommend`` attaches them.

    ``seeds`` and ``base`` are keyed by the community each group ran in;
    ``prereq`` is a single map because that route ignores community gates.
    """

    seeds: dict[int, dict[str, float]] = field(default_factory=dict)
    base: dict[int, dict[str, float]] = field(default_factory=dict)
    prereq: dict[str, float] = field(default_factory=dict)


def _merge_into(total: dict[str, float], part: Mapping[str, float]) -> None:
    for node, score in part.items():
        total[node] = total.get(node, 0.0) + score


def scenario_scores(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
                    seeds: Mapping[str, float], prereq_depth: int = DEFAULT_PREREQ_DEPTH,
                    ) -> tuple[dict[str, float], Provenance]:
    """Scenario score map before sorting/cutoff; seeds come from job resolution.

    Seeds are grouped by merged community; each group runs with its own
    community gate and the score maps add: base, then the prerequisite hop of
    a non-empty scenario 1/2 base, then the scenario 2 taken-course walk.
    """
    # checked here too: a scenario 3 query or an empty base never expands
    if prereq_depth < 0:
        raise QueryError(f"prerequisite depth {prereq_depth!r} must be >= 0")
    labels = _as_labels(labels)
    prov = Provenance()
    for job_id, weight in seeds.items():
        community = labels.get(job_id)
        if community is None:
            raise QueryError(f"job {job_id!r} carries no community label")
        prov.seeds.setdefault(community, {})[job_id] = weight
    for course in inp.taken_courses:
        if course not in g or g.node_kind(course) is not NodeKind.COURSE:
            raise QueryError(f"taken course {course!r} is not in the graph")
    taken_seeds = {c: 1.0 / len(inp.taken_courses) for c in inp.taken_courses}
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    total: dict[str, float] = {}
    for community, group in sorted(prov.seeds.items()):
        base = prov.base[community] = score_metapath(g, path, group, labels, community)
        _merge_into(total, base)
        if inp.scenario != 3 and base:
            extra = prerequisite_expansion(g, base, prereq_depth)
            _merge_into(total, extra)
            _merge_into(prov.prereq, extra)
        if taken_seeds:
            _merge_into(total, score_metapath(g, TAKEN_PATH, taken_seeds, labels, community))
    for course in taken_seeds:
        total.pop(course, None)
    return total, prov


def to_ranked_list(scores: Mapping[str, float], query: str, scenario: str,
                   cutoff: int | None = None, provenance: Provenance | None = None,
                   ) -> RankedList:
    if cutoff is not None and cutoff < 0:
        raise QueryError(f"list cutoff {cutoff} is negative")
    entries = sorted(((n, s) for n, s in scores.items() if s > 0.0),
                     key=lambda item: (-item[1], item[0]))
    if cutoff is not None:
        entries = entries[:cutoff]
    return RankedList(tuple(entries), query, scenario, provenance)


def recommend(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
              cutoff: int = 10, prereq_depth: int = DEFAULT_PREREQ_DEPTH) -> RankedList:
    """Rank candidate courses for one scenario input, with per-route ``provenance``."""
    seeds = resolve_job_query(g, inp.query_text)
    scores, prov = scenario_scores(g, labels, inp, seeds, prereq_depth)
    return to_ranked_list(scores, inp.query_text, f"scenario-{inp.scenario}", cutoff, prov)


def format_ranked_list(ranked: RankedList) -> str:
    return csv_text(("rank", "node_id", "score"),
                    ((rank, node_id, f"{score:.12g}")
                     for rank, (node_id, score) in enumerate(ranked.entries, start=1)))
