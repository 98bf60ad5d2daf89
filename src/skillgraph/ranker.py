"""Meta-path random-walk scoring of candidate nodes, with community gates.

A candidate's score is the sum over all tours from a seed to it along the
declared step sequence of the product of traversed edge weights; reverse
steps traverse stored edges target-to-source with the stored forward weight.
Steps flagged as community-restricted only land on nodes carrying the query
community's merged label. Scoring is layered sparse propagation (one masked
weighted scatter per step), which equals explicit tour enumeration.

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

import csv
import io
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Mapping

import numpy as np

from . import kernels
from .errors import QueryError
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

    @property
    def query_text(self) -> str:
        return self.current_job if self.scenario == 3 else self.career_goal  # type: ignore[return-value]


def title_contains(title_tokens: list[str], query_tokens: list[str]) -> bool:
    """True when the query tokens appear as a contiguous run in the title tokens."""
    k = len(query_tokens)
    return any(title_tokens[i:i + k] == query_tokens
               for i in range(len(title_tokens) - k + 1))


@dataclass(frozen=True)
class _GraphView:
    """What queries read of one graph state, built once per state.

    ``jobs`` pairs each job id, in sorted order, with its title tokens.
    """

    index: GraphIndex
    jobs: list[tuple[str, list[str]]]


def _graph_view(g: HeteroGraph) -> _GraphView:
    index = GraphIndex(g)
    jobs = [(job_id, tokenize(g.node_name(job_id))) for job_id in g.node_ids(NodeKind.JOB)]
    return _GraphView(index, jobs)


def resolve_job_query(g: HeteroGraph, text: str) -> dict[str, float]:
    """Jobs whose title contains the query as a contiguous token run.

    Matches share uniform weight. With no match, raises and names the five
    nearest titles by shared-token count.
    """
    query = tokenize(text)
    if not query:
        raise QueryError("empty job query")
    jobs = g.cached(_graph_view).jobs
    matches = [job_id for job_id, tokens in jobs if title_contains(tokens, query)]
    if not matches:
        qset = set(query)
        scored = sorted((-len(qset & set(tokens)), g.node_name(j), j) for j, tokens in jobs)
        nearest = [title for _neg, title, _j in scored[:5]]
        raise QueryError(
            f"no job title matches {text!r}; nearest titles: {nearest}")
    weight = 1.0 / len(matches)
    return {job_id: weight for job_id in matches}


def _mask_for(index: GraphIndex, labels: Mapping[str, int] | None,
              community: int | None) -> np.ndarray:
    if community is None or labels is None:
        return np.ones(index.n, dtype=np.float64)
    node_labels = np.fromiter(map(labels.get, index.ids, repeat(np.nan)),
                              dtype=np.float64, count=index.n)
    return (node_labels == community).astype(np.float64)


def score_metapath(g: HeteroGraph, path: MetaPath, seeds: Mapping[str, float],
                   labels: Mapping[str, int] | None = None,
                   community: int | None = None) -> dict[str, float]:
    """Sum-of-tour-products scores for every node reachable along ``path``."""
    if community is not None and labels is None:
        raise QueryError("community gate requested without node labels")
    index = g.cached(_graph_view).index
    scores = np.zeros(index.n, dtype=np.float64)
    for node_id, weight in seeds.items():
        if node_id not in index.pos:
            raise QueryError(f"seed {node_id!r} is not in the graph")
        if g.node_kind(node_id) is not path.source_kind:
            raise QueryError(
                f"seed {node_id!r} is a {g.node_kind(node_id).value}, "
                f"path starts at a {path.source_kind.value}")
        scores[index.pos[node_id]] = weight
    ones = np.ones(index.n, dtype=np.float64)
    restricted_mask = _mask_for(index, labels, community)
    for step in path.steps:
        src, dst, wgt = index.rel_edges[step.relation]
        if step.reverse:
            src, dst = dst, src
        mask = restricted_mask if step.community_restricted else ones
        scores = kernels.propagate_step(scores, src, dst, wgt, mask, index.n)
    hits = np.flatnonzero(scores > 0.0)
    return dict(zip([index.ids[i] for i in hits.tolist()], scores[hits].tolist()))


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


def prerequisite_expansion(g: HeteroGraph, base_scores: Mapping[str, float],
                           depth: int = DEFAULT_PREREQ_DEPTH) -> dict[str, float]:
    """Push candidate scores one (or ``depth``) hops down stored prereq edges."""
    extra: dict[str, float] = {}
    frontier = dict(base_scores)
    for _ in range(depth):
        nxt: dict[str, float] = {}
        for course, score in frontier.items():
            for prereq, weight in g.out_edges(course, Relation.PRE_REQUIRED):
                nxt[prereq] = nxt.get(prereq, 0.0) + score * weight
        for node, score in nxt.items():
            extra[node] = extra.get(node, 0.0) + score
        frontier = nxt
        if not frontier:
            break
    return extra


@dataclass
class Provenance:
    """Per-route score shares, for the restriction audit in debug mode.

    ``base`` and ``taken`` are keyed by the community each group ran in;
    ``prereq`` is a single map because that route ignores community gates.
    """

    seeds: dict[int, dict[str, float]] = field(default_factory=dict)
    base: dict[int, dict[str, float]] = field(default_factory=dict)
    taken: dict[int, dict[str, float]] = field(default_factory=dict)
    prereq: dict[str, float] = field(default_factory=dict)


def _merge_into(total: dict[str, float], part: Mapping[str, float]) -> None:
    for node, score in part.items():
        total[node] = total.get(node, 0.0) + score


def scenario_scores(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
                    seeds: Mapping[str, float], prereq_depth: int = DEFAULT_PREREQ_DEPTH,
                    ) -> tuple[dict[str, float], Provenance]:
    """Scenario score map before sorting/cutoff; seeds come from job resolution.

    Seeds are grouped by merged community; each group runs with its own
    community gate and the score maps add.
    """
    prov = Provenance()
    groups: dict[int, dict[str, float]] = {}
    for job_id, weight in seeds.items():
        if job_id not in labels:
            raise QueryError(f"job {job_id!r} carries no community label")
        groups.setdefault(labels[job_id], {})[job_id] = weight
    total: dict[str, float] = {}
    for community in sorted(groups):
        group = groups[community]
        prov.seeds[community] = dict(group)
        if inp.scenario in (1, 2):
            base = score_metapath(g, BASE_PATH, group, labels, community)
            extra = prerequisite_expansion(g, base, prereq_depth)
            _merge_into(total, base)
            _merge_into(total, extra)
            prov.base[community] = base
            _merge_into(prov.prereq, extra)
            if inp.scenario == 2:
                taken_seeds = {c: 1.0 / len(inp.taken_courses) for c in inp.taken_courses}
                for course in inp.taken_courses:
                    if course not in g or g.node_kind(course) is not NodeKind.COURSE:
                        raise QueryError(f"taken course {course!r} is not in the graph")
                taken = score_metapath(g, TAKEN_PATH, taken_seeds, labels, community)
                _merge_into(total, taken)
                prov.taken[community] = taken
        else:
            base = score_metapath(g, UPSKILL_PATH, group, labels, community)
            _merge_into(total, base)
            prov.base[community] = base
    if inp.scenario == 2:
        for course in inp.taken_courses:
            total.pop(course, None)
    return total, prov


def to_ranked_list(scores: Mapping[str, float], query: str, scenario: str,
                   cutoff: int | None = None) -> RankedList:
    entries = sorted(((n, s) for n, s in scores.items() if s > 0.0),
                     key=lambda item: (-item[1], item[0]))
    if cutoff is not None:
        entries = entries[:cutoff]
    return RankedList(entries=tuple(entries), query=query, scenario=scenario)


def recommend(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
              cutoff: int = 10, prereq_depth: int = DEFAULT_PREREQ_DEPTH,
              debug: bool = False) -> RankedList | tuple[RankedList, Provenance]:
    """Rank candidate courses for one scenario input."""
    seeds = resolve_job_query(g, inp.query_text)
    scores, prov = scenario_scores(g, labels, inp, seeds, prereq_depth)
    ranked = to_ranked_list(scores, inp.query_text, f"scenario-{inp.scenario}", cutoff)
    if debug:
        return ranked, prov
    return ranked


def write_ranked_list(path: str | Path, ranked: RankedList) -> None:
    Path(path).write_text(format_ranked_list(ranked), encoding="utf-8", newline="")


def format_ranked_list(ranked: RankedList) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "node_id", "score"])
    for rank, (node_id, score) in enumerate(ranked.entries, start=1):
        writer.writerow([rank, node_id, f"{score:.12g}"])
    return buf.getvalue()
