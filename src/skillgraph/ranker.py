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

After a restricted step every node outside the query community holds exactly
0.0, so the unrestricted step that follows one (the reverse prerequisite step
of upskilling) and the first prerequisite hop from such a base scatter only
the edges that leave the community: a second stable order of each relation,
by the community of the node each edge leaves. Each dropped edge would push
``w * 0.0 = +0.0``, which leaves every sum's bits, and the kept edges reach
each node in the order a full scatter would. Deeper prerequisite levels
start from nodes anywhere and take every edge.

A walk with a step that has no edge to push along ends with no mass: a
restricted step whose slice for the query community is empty (a career
community that holds no course, say), an unrestricted step after one whose
slice of edges leaving the community is empty, or any step whose relation
has no edges. The rule reads only the graph and the labels, and each
path's gated edges are worked out once per community
(``CommunityEdges.path_edges``), so ``scenario_scores`` skips such a dead
group before any walk call: its base is the shared empty ``NO_SCORES``, the
taken-course walk is skipped the same way in each community, and the
group's seed view is made only when something reads it, such as
``recommend --debug``. A query that fans out over many community groups
thus pays only for the walks that can reach a course: on ``fragmented``
(``perfbench``, seed 1, traced) a query spans 11.2 groups and makes 1.36
``score_metapath`` calls. Called on its own, ``score_metapath`` returns
``NO_SCORES`` for a dead community after checking its seeds, without
allocating or scattering; ``prerequisite_expansion`` returns it for a hop
with no edge to take.

A query resolves to the jobs whose title holds its tokens as a contiguous
run (``TitleIndex``), and its seeds stay index positions with their weights
(``Seeds``) from the title match to the scatter: the matched titles' jobs
come as one position array, ``scenario_scores`` splits it by community with
one gather of each seed's community slot into one sorted copy and checks the
set's node kind once, and ``score_metapath`` places a group's seeds with one
indexed write. The walks read only ``Seeds`` and ``Scores`` made on the
graph as it is now, and refuse any other; a library caller gets seeds from
``resolve_job_query``.

A route's scores stay one dense vector over the graph's nodes (``Scores``),
and a scenario adds its routes as vectors in the order a per-node merge
would, which keeps every bit because adding 0.0 is exact. Node ids are made
only for the ranked list, and for the provenance when it is read.

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
from typing import Iterable, Iterator, Mapping, Sequence

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
    # the kind every seed of a walk along the path must be; set once, as each walk reads it
    source_kind: NodeKind = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise QueryError("meta-path needs at least one step")
        for a, b in zip(self.steps, self.steps[1:]):
            if a.target_kind is not b.source_kind:
                raise QueryError(
                    f"meta-path breaks: step ends at {a.target_kind.value}, "
                    f"next starts at {b.source_kind.value}")
        # hashed once: a community gate keys each path's edges by the path
        object.__setattr__(self, "_hash", hash(self.steps))
        object.__setattr__(self, "source_kind", self.steps[0].source_kind)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, and so hashed again, on unpickling: str hashes, and with
        # them a Relation's, differ from process to process
        return MetaPath, (self.steps,)


@dataclass(frozen=True)
class RankedList:
    entries: tuple[tuple[str, float], ...]
    query: str
    scenario: str
    # how ``recommend`` reached the entries; equality and repr ignore it
    provenance: Provenance | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if any(not score > 0.0 for _n, score in self.entries):  # also true for NaN
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
        # True == 1 and 1.0 == 1, but neither names a scenario
        if type(self.scenario) is not int or self.scenario not in (1, 2, 3):
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


@dataclass(frozen=True)
class TitleIndex:
    """Job titles as text: a title's tokens joined and wrapped by single
    spaces. A token holds no space, so a query's tokens are a contiguous run
    of a title's exactly when the query's text is a substring of the title's.
    ``titles`` maps each text to its jobs' sorted positions, ``postings`` each
    token to the texts holding it (a query tests only its rarest token's) and
    ``names`` each title as written to its text."""

    titles: dict[str, np.ndarray]
    postings: dict[str, list[str]]
    names: dict[str, str]


def _text(tokens: list[str]) -> str:
    return f" {' '.join(tokens)} "


def title_index(jobs: Iterable[tuple[int, str]]) -> TitleIndex:
    """Index ``(job position, title)`` pairs, tokenizing each distinct title once."""
    names: dict[str, str] = {}
    titles: dict[str, list[int]] = {}
    for position, name in jobs:
        if name not in names:
            names[name] = _text(tokenize(name))
        titles.setdefault(names[name], []).append(position)
    postings: dict[str, list[str]] = {}
    for text in titles:
        for token in dict.fromkeys(text.split()):
            postings.setdefault(token, []).append(text)
    arrays = {text: np.sort(np.asarray(positions, dtype=np.int64))
              for text, positions in titles.items()}
    return TitleIndex(arrays, postings, names)


def job_titles(g: HeteroGraph) -> TitleIndex:
    """The title index of ``g``'s job nodes by ``GraphIndex`` position; read
    it as ``g.cached(job_titles)``."""
    pos = g.cached(GraphIndex).pos
    return title_index((pos[job_id], g.node_name(job_id)) for job_id in g.node_ids(NodeKind.JOB))


def match_titles(index: TitleIndex, query: list[str]) -> np.ndarray:
    """Sorted positions of the jobs whose title holds the ``query`` tokens as a run."""
    # a matching title holds every query token, so the rarest one's postings
    # hold every match; a token in no title leaves nothing to check
    candidates = min((index.postings.get(token, []) for token in query), key=len)
    text = _text(query)
    found = [index.titles[title] for title in candidates if text in title]
    return np.sort(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)


class Seeds(Mapping[str, float]):
    """Seed weights as positions on ``index``, every seed a ``kind`` node:
    ``weight[i]`` is the weight of ``index.ids[pos[i]]``, and the keys iterate
    in ``pos`` order. A community group is a ``Seeds`` over a slice of its
    set's arrays and keeps the set's kind, so no walk checks a seed's kind."""

    def __init__(self, index: GraphIndex, pos: np.ndarray, weight: np.ndarray,
                 kind: NodeKind) -> None:
        self.index = index
        self.pos = pos
        self.weight = weight
        self.kind = kind
        self._by_id: dict[str, float] | None = None

    def __getitem__(self, node_id: str) -> float:
        if self._by_id is None:
            self._by_id = dict(zip(self, self.weight.tolist()))
        return self._by_id[node_id]

    def __iter__(self) -> Iterator[str]:
        ids = self.index.ids
        return (ids[i] for i in self.pos.tolist())

    def __len__(self) -> int:
        return len(self.pos)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def resolve_job_query(g: HeteroGraph, text: str) -> Seeds:
    """Jobs whose title contains the query as a contiguous token run, as a
    read-only mapping from job id to weight, in id order.

    Matches share uniform weight. With no match, raises and names up to five
    nearest distinct titles by shared-token count, then by title.
    """
    query = tokenize(text)
    if not query:
        raise QueryError("empty job query")
    titles = g.cached(job_titles)
    matches = match_titles(titles, query)
    index = g.cached(GraphIndex)
    if not len(matches):
        qset = set(query)
        nearest = sorted(titles.names, key=lambda name: (
            -len(qset.intersection(titles.names[name].split())), name))[:5]
        raise QueryError(f"no job title matches {text!r}; nearest titles: {nearest}")
    return Seeds(index, matches, np.full(len(matches), 1.0 / len(matches)), NodeKind.JOB)


Edges = tuple[np.ndarray, np.ndarray, np.ndarray]


class CommunityEdges:
    """Per (relation, direction), the edges stably ordered by the community
    of the node they land on, and again by the community of the node they
    leave, each order with every community's bounds; an edge whose node is
    unlabelled is in no community's slice of that order. Slice numbers follow
    the communities' ascending order: ``communities[k]`` is slice ``k``'s
    community and ``node_slot`` each node's slice, -1 when unlabelled. Read
    it as ``labels.cached(index, CommunityEdges)``; orders are built on first
    use, and each path's gated edges for a community once (``path_edges``)."""

    def __init__(self, index: GraphIndex, labels: Labels) -> None:
        self.index = index
        node_labels = list(map(labels.get, index.ids))
        self.communities = sorted({c for c in node_labels if c is not None})
        self.slot = {c: k for k, c in enumerate(self.communities)}
        self.node_slot = np.asarray([-1 if c is None else self.slot[c] for c in node_labels],
                                    dtype=np.int64)
        self._ordered: dict[tuple[Relation, bool, bool], tuple] = {}
        self._paths: dict[tuple[MetaPath, int, bool], list[Edges] | None] = {}

    def edges(self, step: MetaPathStep, community: int,
              leaving: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``step``'s edges that land in ``community``, or with ``leaving``
        the ones that leave it, as (from, to, weight)."""
        key = (step.relation, step.reverse, leaving)
        if key not in self._ordered:
            src, dst, wgt = step.edges(self.index)
            end = self.node_slot[src if leaving else dst]
            # stable, so each landing node keeps its edges' order and its sum
            order = np.argsort(end, kind="stable")
            bounds = np.searchsorted(end[order], np.arange(len(self.slot) + 1))
            self._ordered[key] = (src[order], dst[order], wgt[order], bounds.tolist())
        src, dst, wgt, bounds = self._ordered[key]
        k = self.slot.get(community)
        lo, hi = (0, 0) if k is None else (bounds[k], bounds[k + 1])
        return src[lo:hi], dst[lo:hi], wgt[lo:hi]

    def path_edges(self, path: MetaPath, community: int,
                   entered: bool = False) -> list[Edges] | None:
        """``_path_edges`` of ``path`` gated to ``community``, kept after the
        first call; ``entered`` when the walk's input lies in ``community``."""
        # interleaved A/B: without this cache, query p50 rose 34-43% on fragmented, 6-8% elsewhere
        key = (path, community, entered)
        try:
            return self._paths[key]
        except KeyError:
            edges = self._paths[key] = _path_edges(self.index, path, self, community, entered)
            return edges


def _path_edges(index: GraphIndex, path: MetaPath, gate: CommunityEdges | None = None,
                community: int | None = None, entered: bool = False) -> list[Edges] | None:
    """Each step's edges as (from, to, weight), or None as soon as a step has
    none, since a walk that cannot take a step ends with no mass. With a
    ``gate``, a restricted step has only the edges that land in
    ``community``: scattering them equals a full scatter with every node
    outside it (or unlabelled) zeroed, to the bit. An unrestricted step
    after one (or first, when the input has ``entered`` the community) has
    only the edges that leave ``community``: every other edge starts at a
    node holding exactly 0.0 and would push +0.0, which leaves a sum's bits."""
    edges = []
    for step in path.steps:
        if gate is not None and (step.community_restricted or entered):
            step_edges = gate.edges(step, community, leaving=not step.community_restricted)
        else:
            step_edges = step.edges(index)
        if not len(step_edges[2]):
            return None
        edges.append(step_edges)
        entered = step.community_restricted
    return edges


def _walk(index: GraphIndex, edges: list[Edges], scores: np.ndarray) -> np.ndarray:
    """Push ``scores`` along each step's ``edges``, one kernel call per step."""
    for src, dst, wgt in edges:
        scores = kernels.propagate_step(scores, src, dst, wgt, index.n)
    return scores


class Scores(Mapping[str, float]):
    """Node scores as one dense vector over ``index``, 0.0 where a score is
    not positive; the keys are the nodes with a positive score, in index
    order. Routes add as vectors, and node ids are made only when read.
    ``within`` is the gate and community that hold every score, when a
    restricted step made the vector last."""

    def __init__(self, index: GraphIndex, vector: np.ndarray,
                 within: tuple[CommunityEdges, int] | None = None) -> None:
        self.index = index
        self.vector = vector
        self.within = within
        self._hits: np.ndarray | None = None

    @property
    def hits(self) -> np.ndarray:
        """Index positions of the keys, ascending."""
        if self._hits is None:
            self._hits = np.flatnonzero(self.vector > 0.0)
        return self._hits

    def __getitem__(self, node_id: str) -> float:
        i = self.index.pos.get(node_id)
        if i is None or not self.vector[i] > 0.0:
            raise KeyError(node_id)
        return float(self.vector[i])

    def __iter__(self) -> Iterator[str]:
        ids = self.index.ids
        return (ids[i] for i in self.hits.tolist())

    def __len__(self) -> int:
        return len(self.hits)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


# what a walk that can carry no mass returns; shared, so it creates nothing
NO_SCORES = Scores(GraphIndex(HeteroGraph()), np.zeros(0))


def _as_labels(labels: Mapping[str, int]) -> Labels:
    """``labels`` itself when it is ``Labels``; else a copy, read now."""
    return labels if isinstance(labels, Labels) else Labels(labels)


def _current(g: HeteroGraph, made: Seeds | Scores) -> GraphIndex:
    """``g``'s index, which ``made`` must be on: a walk reads positions."""
    index = g.cached(GraphIndex)
    if made.index is not index:
        raise QueryError("seeds or scores were made on another graph, or before it changed")
    return index


def _check_kind(seeds: Seeds, path: MetaPath) -> None:
    """Refuse non-empty ``seeds`` whose kind ``path`` does not start at,
    naming the first seed."""
    if len(seeds.pos) and seeds.kind is not path.source_kind:
        raise QueryError(f"seed {next(iter(seeds))!r} is a {seeds.kind.value}, "
                         f"path starts at a {path.source_kind.value}")


def score_metapath(g: HeteroGraph, path: MetaPath, seeds: Seeds, labels: Mapping[str, int],
                   community: int) -> Scores:
    """Sum-of-tour-products scores for every node reachable along ``path``,
    each restricted step landing only in ``community`` under ``labels``."""
    index = _current(g, seeds)
    _check_kind(seeds, path)
    gate = _as_labels(labels).cached(index, CommunityEdges)
    edges = gate.path_edges(path, community)
    if edges is None:
        return NO_SCORES
    scores = np.zeros(index.n, dtype=np.float64)
    scores[seeds.pos] = seeds.weight
    # seeds of no negative (or NaN) weight, over positive edge weights, score
    # no node below 0.0; any other seed needs the scores below it set to 0.0
    kept = not len(seeds) or seeds.weight.min() >= 0.0
    scores = _walk(index, edges, scores)
    within = (gate, community) if path.steps[-1].community_restricted else None
    return Scores(index, scores if kept else np.fmax(scores, 0.0), within)


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


def prerequisite_expansion(g: HeteroGraph, base_scores: Scores,
                           depth: int = DEFAULT_PREREQ_DEPTH) -> Scores:
    """Push candidate scores one (or ``depth``) hops down stored prereq edges.

    Every level's pushes add up. ``base_scores`` are scores on ``g`` as it
    is now, such as ``score_metapath`` returns. A base held ``within`` one
    community takes its first hop along only the edges that leave it; the
    deeper levels take every edge.
    """
    if depth < 0:
        raise QueryError(f"prerequisite depth {depth!r} must be >= 0")
    if not base_scores or not depth:
        return NO_SCORES
    index = _current(g, base_scores)
    within = base_scores.within
    first = (_path_edges(index, _PREREQ_HOP) if within is None
             else within[0].path_edges(_PREREQ_HOP, within[1], entered=True))
    if first is None:
        return NO_SCORES
    # the levels add in order; the first is its own sum, as 0.0 + x is x
    level = extra = _walk(index, first, base_scores.vector)
    if depth > 1:
        edges = first if within is None else _path_edges(index, _PREREQ_HOP)
        for _ in range(depth - 1):
            level = _walk(index, edges, level)
            extra = extra + level
    return Scores(index, extra)


@dataclass
class Provenance:
    """Per-route score shares of one query, as ``recommend`` attaches them.

    ``seeds`` and ``base`` are keyed by the community each group ran in, in
    ascending order. ``seeds`` is a read-only mapping, and each group's seeds
    a read-only mapping over index positions (``Seeds``); each group's base
    is a ``Scores``, ``NO_SCORES`` when its walk cannot reach a course.
    ``prereq`` is a single map because that route ignores community gates.
    """

    seeds: Mapping[int, Mapping[str, float]] = field(default_factory=dict)
    base: dict[int, Mapping[str, float]] = field(default_factory=dict)
    prereq: Mapping[str, float] = field(default_factory=dict)


def _add(total: np.ndarray | None, part: Scores) -> np.ndarray | None:
    """``total`` plus ``part``'s vector, in place; ``NO_SCORES`` adds nothing.
    Adding 0.0 leaves a score's bits, so this sums each node's routes in the
    order a per-node merge would."""
    if part is NO_SCORES:
        return total
    if total is None:
        return part.vector.copy()
    total += part.vector
    return total


def _taken_seeds(g: HeteroGraph, index: GraphIndex, taken: tuple[str, ...]) -> Seeds:
    """The taken courses, one or more, as seeds of equal weight."""
    for course in taken:
        if course not in g or g.node_kind(course) is not NodeKind.COURSE:
            raise QueryError(f"taken course {course!r} is not in the graph")
    return Seeds(index, np.asarray([index.pos[c] for c in taken], dtype=np.int64),
                 np.full(len(taken), 1.0 / len(taken)), NodeKind.COURSE)


class _SeedGroups(Mapping[int, Seeds]):
    """``seeds`` split by community, as a read-only mapping from each
    community, ascending, to its group; a group keeps its seeds' order. One
    gather reads every seed's slot. A set in one community is its own group;
    several groups are slices of one sorted copy, ``ordered``, and each is
    made a ``Seeds`` when first read, so a walk pays only for the groups it
    reads."""

    def __init__(self, seeds: Seeds, gate: CommunityEdges) -> None:
        self.ordered = seeds
        self._bounds: dict[int, tuple[int, int]] = {}
        self._views: dict[int, Seeds] = {}
        if not len(seeds):
            return
        slots = gate.node_slot[seeds.pos]
        in_order = slots.tolist()
        first = in_order[0]
        # interleaved A/B: without this path, query p50 rose 13-15% on build-mid and query-m
        if first >= 0 and in_order.count(first) == len(in_order):
            community = gate.communities[first]
            self._bounds[community] = (0, len(in_order))
            self._views[community] = seeds
            return
        if min(in_order) < 0:
            node_id = seeds.index.ids[seeds.pos[in_order.index(-1)]]
            raise QueryError(f"job {node_id!r} carries no community label")
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        ranked = sorted_slots.tolist()
        self.ordered = Seeds(seeds.index, seeds.pos[order], seeds.weight[order], seeds.kind)
        # a group starts where the sorted slot changes
        starts = ((sorted_slots[1:] != sorted_slots[:-1]).nonzero()[0] + 1).tolist()
        bounds = [0, *starts, len(ranked)]
        for a, b in zip(bounds, bounds[1:]):
            self._bounds[gate.communities[ranked[a]]] = (a, b)

    def __getitem__(self, community: int) -> Seeds:
        # interleaved A/B against making every view at grouping: p50 fell 13-15% on fragmented
        view = self._views.get(community)
        if view is None:
            a, b = self._bounds[community]
            s = self.ordered
            view = self._views[community] = Seeds(s.index, s.pos[a:b], s.weight[a:b], s.kind)
        return view

    def __iter__(self) -> Iterator[int]:
        return iter(self._bounds)

    def __len__(self) -> int:
        return len(self._bounds)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def scenario_scores(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
                    seeds: Seeds, prereq_depth: int = DEFAULT_PREREQ_DEPTH,
                    ) -> tuple[Scores, Provenance]:
    """Scenario score map before sorting/cutoff; ``seeds`` are
    ``resolve_job_query``'s on ``g`` as it is now.

    Seeds are grouped by merged community; each group runs with its own
    community gate and the score maps add: base, then the prerequisite hop of
    a non-empty scenario 1/2 base, then the scenario 2 taken-course walk. A
    route whose gated walk has a step with no edge is skipped before any walk
    call, and a group whose base is skipped is never read. An unlabelled seed
    raises first, then a taken course not in the graph, then seeds of the
    wrong kind.
    """
    # checked here too: a scenario 3 query or an empty base never expands
    if prereq_depth < 0:
        raise QueryError(f"prerequisite depth {prereq_depth!r} must be >= 0")
    labels = _as_labels(labels)
    index = _current(g, seeds)
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    gate = labels.cached(index, CommunityEdges)
    groups = _SeedGroups(seeds, gate)
    taken = _taken_seeds(g, index, inp.taken_courses) if inp.taken_courses else None
    _check_kind(groups.ordered, path)
    prov = Provenance(seeds=groups)
    total = prereq = None
    for community in groups:
        if gate.path_edges(path, community) is None:
            prov.base[community] = NO_SCORES
        else:
            base = prov.base[community] = score_metapath(g, path, groups[community], labels,
                                                         community)
            total = _add(total, base)
            if inp.scenario != 3 and base:
                extra = prerequisite_expansion(g, base, prereq_depth)
                total = _add(total, extra)
                prereq = _add(prereq, extra)
        if taken is not None and gate.path_edges(TAKEN_PATH, community) is not None:
            total = _add(total, score_metapath(g, TAKEN_PATH, taken, labels, community))
    if prereq is not None:
        prov.prereq = Scores(index, prereq)
    if total is None:
        return NO_SCORES, prov
    if taken is not None:
        total[taken.pos] = 0.0
    return Scores(index, total), prov


def to_ranked_list(ids: Sequence[str], scores: Sequence[float] | np.ndarray, query: str,
                   scenario: str, cutoff: int | None = None,
                   provenance: Provenance | None = None) -> RankedList:
    """The ids of a positive score, highest score first, cut at ``cutoff``.

    ``scores[i]`` is the score of ``ids[i]``, and ``ids`` must be in
    ascending order, as a ``GraphIndex``'s are: a stable sort then breaks
    ties by id. Only the entries kept are paired with their ids.
    """
    if cutoff is not None and cutoff < 0:
        raise QueryError(f"list cutoff {cutoff} is negative")
    scores = np.asarray(scores, dtype=np.float64)
    hits = np.flatnonzero(scores > 0.0)
    kept = hits[np.argsort(-scores[hits], kind="stable")][:cutoff].tolist()
    return RankedList(tuple(zip([ids[i] for i in kept], scores[kept].tolist())),
                      query, scenario, provenance)


def recommend(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
              cutoff: int = 10, prereq_depth: int = DEFAULT_PREREQ_DEPTH) -> RankedList:
    """Rank candidate courses for one scenario input, with per-route ``provenance``."""
    seeds = resolve_job_query(g, inp.query_text)
    scores, prov = scenario_scores(g, labels, inp, seeds, prereq_depth)
    return to_ranked_list(scores.index.ids, scores.vector, inp.query_text,
                          f"scenario-{inp.scenario}", cutoff, prov)


def format_ranked_list(ranked: RankedList) -> str:
    return csv_text(("rank", "node_id", "score"),
                    ((rank, node_id, f"{score:.12g}")
                     for rank, (node_id, score) in enumerate(ranked.entries, start=1)))
