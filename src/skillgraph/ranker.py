"""Meta-path random-walk scoring of candidate nodes, with community gates.

A candidate's score is the sum over all tours from a seed to it along the
declared step sequence of the product of traversed edge weights; reverse
steps traverse stored edges target-to-source with the stored forward weight.
Steps flagged as community-restricted only land on nodes carrying the query
community's merged label. Scoring is layered sparse propagation, one weighted
scatter per step, which equals explicit tour enumeration.

One function, ``_step_edges``, gives the edges a gated step takes, and
``_path_edges`` and ``Frame.route`` say which steps of a walk are gated. A
restricted step takes the edges that land in the query community.
An unrestricted step takes the edges that leave it when it follows a
restricted step (the reverse prerequisite step of upskilling), or when it
comes first in a walk that starts from scores a restricted step left in the
community (the first prerequisite hop). Any other step, such as a deeper
prerequisite level, takes every edge. The rule is exact. Edges are kept in
edge order, so every node sums its pushes in the order a full scatter
would, and after a restricted step every node outside the community holds
exactly 0.0, so each edge that does not leave it would push
``w * 0.0 = +0.0``, which leaves every sum's bits. A walk with a step that
has no edge to take, such as a restricted step into a career community that
holds no course, scatters nothing from there on and ends with every score
0.0.

Each community has a frame (``Frame``), made once per graph state and labels
(``CommunityEdges.frame``): the sorted index positions of its members, of
every node with an edge landing in it and of every node that an edge
leaving it lands on. The whole graph is the frame of no community,
``frame(None)``: it holds every position and gates no edge. A walk whose
every step lands in the community or leaves it (``MetaPath.framed``; every
built-in route and the first prerequisite hop) touches only the nodes of
its community's frame, so it seeds, scatters (``kernels.propagate_step``
with ``n`` the frame's length), adds and tests for candidates on
frame-length vectors, its edges stored as frame positions. The bits are
those of a walk over the whole graph: each landing node receives the same
non-zero pushes in the same order, and the frame leaves out only nodes that
would hold exactly 0.0. Any other walk (deeper prerequisite levels, a path
whose first step is unrestricted) runs in the frame of no community, with
the same code. On ``build-mid`` a community's frame holds about 1,000 of the
graph's 9,985 nodes. The gate keeps each node's community slot, and a frame
is made from scans of it: once over the nodes for the members, and once
over each relation's sources and targets for the edges that land in the
community or leave it. A frame's place map (``Frame.place``) gives each
index position its place in the frame, and every position outside it the
sink slot just past the frame's last.

A frame gates each step's edges once, when a route first takes the step,
and keeps each route (``Frame.route``), so paths that share a step share
its arrays. A query whose jobs span several communities walks every route
of every group. That
is rare: detection takes each side's connected components when they code
shorter than the partition its moves found, so a topic's jobs are not split
over stalled fragments, and on each ``perfbench`` workload (seed 1, traced)
a query spans one community group.

A query reads one index, a ``GraphIndex``: ids, positions, node kinds and
names, edges, and the job title index (``GraphIndex.titles``). It resolves
on it (``resolve_job_query(index, text)``) to the jobs whose title holds its
tokens as a contiguous run, and walks it. ``recommend`` is the one function
here that takes a ``HeteroGraph``, and it reads only ``g.cached(GraphIndex)``.
The seeds stay index positions with their weights
(``Seeds``) from the title match to the scatter: the matched titles' jobs
come as one position array, ``scenario_scores`` splits it by community with
one gather of each seed's community slot, and the first group's walk checks
the set's node kind. ``score_metapath`` places every seed set, a group in
its own community's frame or any other, with one gather of the frame's
place map: a seed outside the frame has no edge into the community and
pushes nothing, so it lands in the sink slot, which is dropped before the
walk. The walks take no graph: each reads the index its ``Seeds`` or
``Scores`` were made on, so seeds kept across a change to the graph, a
rename included, walk the graph as it was when they were made; a library
caller gets seeds from ``resolve_job_query(g.cached(GraphIndex), text)``.

Both array loops of a query run in the compiled extension of
``kernels.snapshot_codec`` where it loads: each step's scatter-add
(``kernels.propagate_step``, still called once per step) and the ranked
list's top-k cut (``to_ranked_list``, which the TF-IDF baseline uses too).
Each takes only input it handles as the NumPy line does, bit for bit, and
hands any other back to that line, so the lists are the same on either.

Every score vector is one vector over a frame (``Scores``). A scenario adds
its routes in route order (base, prerequisite hop, taken walk, group
by group): in place while every route shares one frame, else each route in
turn into the frame of no community. Nothing is summed per group first, as
float addition does not reassociate; a node outside a route's frame gets no
addition where a dense sum would add +0.0, and neither changes its bits. A
query with no seeds, or a hop from no scores, answers zeros in the frame of
no community of its seeds' or scores' index. Node ids are made only for the
ranked list, which maps only the entries it keeps, and for the provenance
when it is read; ``Scores.vector``, a dense view for library callers, is
made on first read.

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

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .community import Labels
from .errors import QueryError, csv_text
from .graph import RELATION_SIGNATURE, GraphIndex, HeteroGraph, NodeKind, Relation, match_titles
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


def _framed(steps: Sequence[MetaPathStep]) -> bool:
    """Whether each step lands in the community or leaves it, that is, is
    restricted or follows a restricted step. Only such a walk stays in the
    community's frame."""
    entered = False
    for step in steps:
        if not (step.community_restricted or entered):
            return False
        entered = step.community_restricted
    return True


@dataclass(frozen=True)
class MetaPath:
    steps: tuple[MetaPathStep, ...]
    # the kind every seed of a walk along the path must be; set once, as each walk reads it
    source_kind: NodeKind = field(init=False, repr=False, compare=False)
    # whether a gated walk along the path runs in its community's frame
    framed: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "framed", _framed(self.steps))

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


class Seeds(Mapping[str, float]):
    """Seed weights as positions on ``index``, every seed a ``kind`` node:
    ``weight[i]`` is the weight of ``index.ids[pos[i]]``, and the keys iterate
    in ``pos`` order. A community group is a ``Seeds`` over its set's arrays,
    or a gather of them, and keeps the set's kind, so no walk checks a seed's
    kind."""

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


def resolve_job_query(index: GraphIndex, text: str) -> Seeds:
    """Jobs of ``index`` whose title contains the query as a contiguous token
    run, as a read-only mapping from job id to weight, in id order.

    Matches share uniform weight. With no match, raises and names up to five
    nearest distinct titles by shared-token count, then by title.
    """
    query = tokenize(text)
    if not query:
        raise QueryError("empty job query")
    matches = match_titles(index.titles, query)
    if not len(matches):
        qset, names = set(query), index.titles.names
        nearest = sorted(names, key=lambda name: (
            -len(qset.intersection(names[name].split())), name))[:5]
        raise QueryError(f"no job title matches {text!r}; nearest titles: {nearest}")
    return Seeds(index, matches, np.full(len(matches), 1.0 / len(matches)), NodeKind.JOB)


Edges = tuple[np.ndarray, np.ndarray, np.ndarray]


class CommunityEdges:
    """A community gate on ``index``: each node's community slot and each
    community's ``Frame``. Slot numbers follow the communities' ascending
    order: ``communities[k]`` is slot ``k``'s community and ``node_slot``
    each node's slot, -1 when unlabelled. Read it as
    ``labels.cached(index, CommunityEdges)``. A community's frame is made on
    first use (``frame``) from scans of ``node_slot``, so a gate asked only
    for the frame of no community, which gates no edge, reads no edge."""

    def __init__(self, index: GraphIndex, labels: Labels) -> None:
        self.index = index
        node_labels = labels.of(index.ids)
        self.communities = sorted(set(node_labels) - {None})
        self.slot = {c: k for k, c in enumerate(self.communities)}
        self.node_slot = np.fromiter(map(self.slot.get, node_labels, itertools.repeat(-1)),
                                     dtype=np.int64, count=index.n)
        self._frames: dict[int | None, Frame] = {}

    def slot_of(self, community: int) -> int:
        """``community``'s slot; a community no node carries takes the slot
        past the last, which no node holds."""
        return self.slot.get(community, len(self.communities))

    def members(self, community: int) -> np.ndarray:
        """The index positions of ``community``'s nodes, ascending."""
        return np.flatnonzero(self.node_slot == self.slot_of(community))

    def frame(self, community: int | None) -> Frame:
        """``community``'s frame, made on the first call; ``frame(None)`` is
        the whole graph's, the frame of no community."""
        if community not in self._frames:
            self._frames[community] = Frame(self, community)
        return self._frames[community]


class Frame:
    """One community's frame on a ``GraphIndex``: ``nodes`` holds the sorted
    positions of the community's members, of every node with an edge landing
    in it and of every node that an edge leaving it lands on. The whole graph
    is the frame of no community (``community`` None): its ``nodes`` are
    every position, and it gates no edge. A framed walk
    (``MetaPath.framed``) pushes only along such edges, so it runs on vectors
    as long as ``nodes``, its edges given as positions in ``nodes``. As
    ``nodes`` ascends, frame positions order as index positions do.
    ``place`` maps each index position to its frame position, and every
    position outside the frame to ``len(nodes)``.

    A route is a walk whose mass starts in the community, so each of its
    steps is gated (``_step_edges``): a framed path's steps each land in the
    community or leave it, and so does the first prerequisite hop from
    scores a restricted step left there. Each step's edges, as positions in
    ``nodes``, are made when a route first takes the step and shared by the
    routes that take it; each route's list is kept (``route``).

    A frame keeps what it reads of its gate, never the gate, which keeps its
    frames: its ``index``, the gate's node slots with its community's slot
    (which ``ends`` scans) and the frame of no community (``whole``). So no
    frame is in a reference cycle, and an index goes when the last gate,
    frame, score or seed set on it goes, with no wait for the collector."""

    def __init__(self, gate: CommunityEdges, community: int | None) -> None:
        self.index = gate.index
        self.community = community
        self._routes: dict[MetaPath, list[Edges]] = {}
        # each (relation, direction, restricted)'s edges, which paths share
        self._steps: dict[tuple[Relation, bool, bool], Edges] = {}
        if community is None:
            self._whole, self.nodes = None, np.arange(self.index.n)
            return
        self._slots, self._slot = gate.node_slot, gate.slot_of(community)
        self._whole = gate.frame(None)
        parts = [gate.members(community)]
        for relation, (src, dst, _wgt) in self.index.rel_edges.items():
            parts += (dst[self.ends(relation, False)], src[self.ends(relation, True)])
        nodes = np.sort(np.concatenate(parts))
        # each run of one position keeps its first; np.unique's first call imports numpy.ma
        self.nodes = np.concatenate((nodes[:1], nodes[1:][nodes[1:] != nodes[:-1]]))

    def ends(self, relation: Relation, target: bool) -> np.ndarray:
        """The positions in ``relation``'s edges of the ones whose source, or
        with ``target`` whose target, is in the community, ascending."""
        src, dst, _wgt = self.index.rel_edges[relation]
        return np.flatnonzero(self._slots[dst if target else src] == self._slot)

    @property
    def whole(self) -> Frame:
        """The frame of no community on ``index``: this one, or its gate's."""
        return self._whole or self

    @functools.cached_property
    def place(self) -> np.ndarray:
        """Each index position's place in ``nodes``, ``len(nodes)`` outside
        the frame; made on first read."""
        place = np.full(self.index.n, len(self.nodes))
        place[self.nodes] = np.arange(len(self.nodes))
        return place

    def route(self, path: MetaPath) -> list[Edges]:
        """The edges of ``path`` as positions in ``nodes``. In a community's
        frame ``path`` must stay in it: framed, or the first prerequisite hop
        from scores a restricted step left in the community. The frame of no
        community takes every edge of any path."""
        edges = self._routes.get(path)
        if edges is None:
            edges = []
            for step in path.steps:
                key = (step.relation, step.reverse, step.community_restricted)
                if key not in self._steps:
                    frm, to, wgt = _step_edges(step, self, gated=True)
                    self._steps[key] = (self.place[frm], self.place[to], wgt)
                edges.append(self._steps[key])
            self._routes[path] = edges
        return edges

    def where(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the index positions ``pos`` sit in ``nodes``
        (``len(nodes)`` when outside), and whether each is there."""
        at = self.place[pos]
        return at, at < len(self.nodes)


def _step_edges(step: MetaPathStep, frame: Frame, gated: bool) -> Edges:
    """``step``'s edges on ``frame.index`` as (from, to, weight) in edge
    order; ``gated``, in a community's frame, only those that land in the
    community when ``step`` is restricted, else those that leave it."""
    frm, to, wgt = step.edges(frame.index)
    if gated and frame.community is not None:
        # a forward step lands on its target and leaves its source
        at = frame.ends(step.relation, step.reverse != step.community_restricted)
        frm, to, wgt = frm[at], to[at], wgt[at]
    return frm, to, wgt


def _path_edges(path: MetaPath, frame: Frame) -> list[Edges]:
    """Each step's edges on ``frame.index``, gated by ``frame``'s community
    for a walk that starts outside it. A restricted step takes the edges
    that land in the community (an unlabelled node is in none); an
    unrestricted step takes the ones that leave it after a restricted step;
    any other step takes every edge. In the frame of no community every step
    takes every edge."""
    edges = []
    entered = False
    for step in path.steps:
        edges.append(_step_edges(step, frame, step.community_restricted or entered))
        entered = step.community_restricted
    return edges


def _walk(edges: list[Edges], scores: np.ndarray) -> np.ndarray:
    """Push ``scores`` along each step's ``edges``, one kernel call per step,
    in the frame ``scores`` is in."""
    n = len(scores)
    for src, dst, wgt in edges:
        scores = kernels.propagate_step(scores, src, dst, wgt, n)
    return scores


def _dense(values: np.ndarray, frame: Frame) -> np.ndarray:
    """``values`` in ``frame`` as one vector over every index position."""
    vector = np.zeros(frame.index.n)
    vector[frame.nodes] = values
    return vector


class Scores(Mapping[str, float]):
    """Node scores in a frame on ``index``, the frame's index, 0.0 where a
    score is not positive: ``values[i]`` is the score of position
    ``frame.nodes[i]``. Scores over the whole graph are in the frame of no
    community, whose ``nodes`` are every position. The keys are the nodes
    with a positive score, in index order; node ids are made only when read.
    ``within`` is whether a restricted step made the values last, so that
    every score is in the walk's community and a prerequisite hop from them
    may run in ``frame``."""

    def __init__(self, values: np.ndarray, frame: Frame, within: bool = False) -> None:
        self.index = frame.index
        self.values = values
        self.frame = frame
        self.within = within
        self._hits: np.ndarray | None = None

    @functools.cached_property
    def vector(self) -> np.ndarray:
        """The scores as one dense vector over ``index``, made on first read."""
        return _dense(self.values, self.frame)

    @property
    def hits(self) -> np.ndarray:
        """Index positions of the keys, ascending."""
        # not a cached_property, whose first read takes a lock on Python
        # 3.11: a query reads the hits of each base it walks
        if self._hits is None:
            self._hits = self.frame.nodes[(self.values > 0.0).nonzero()[0]]
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


def _as_labels(labels: Mapping[str, int]) -> Labels:
    """``labels`` itself when it is ``Labels``; else a copy, read now."""
    return labels if isinstance(labels, Labels) else Labels(labels)


def score_metapath(path: MetaPath, seeds: Seeds, labels: Mapping[str, int],
                   community: int) -> Scores:
    """Sum-of-tour-products scores for every node reachable along ``path``
    on ``seeds.index``, each restricted step landing only in ``community``
    under ``labels``. A framed path walks in the community's frame, any other
    in the frame of no community, the whole graph's, its restricted steps
    gated all the same. Non-empty ``seeds`` of a kind that ``path`` does
    not start at are refused, naming the first seed."""
    if len(seeds.pos) and seeds.kind is not path.source_kind:
        raise QueryError(f"seed {next(iter(seeds))!r} is a {seeds.kind.value}, "
                         f"path starts at a {path.source_kind.value}")
    frame = _as_labels(labels).cached(seeds.index, CommunityEdges).frame(community)
    if path.framed:
        edges = frame.route(path)
    else:
        frame, edges = frame.whole, _path_edges(path, frame)
    # a seed outside the frame has no edge into the community: it lands in
    # the sink slot past the frame's last, dropped before the walk; interleaved
    # A/B against masking such seeds out: query p50 fell 3.0-4.4% on all three
    # workloads (perfbench, 10 pairs each, lower in 9-10)
    scores = np.zeros(len(frame.nodes) + 1)
    scores[frame.place[seeds.pos]] = seeds.weight
    scores = scores[:-1]
    # seeds of no negative (or NaN) weight, over positive edge weights, score
    # no node below 0.0; any other seed needs the scores below it set to 0.0
    kept = not len(seeds) or seeds.weight.min() >= 0.0
    scores = _walk(edges, scores)
    within = path.steps[-1].community_restricted
    return Scores(scores if kept else np.fmax(scores, 0.0), frame, within)


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


def prerequisite_expansion(base_scores: Scores, depth: int = DEFAULT_PREREQ_DEPTH) -> Scores:
    """Push candidate scores one (or ``depth``) hops down stored prereq edges
    of the base's index.

    Every level's pushes add up. ``base_scores`` are scores such as
    ``score_metapath`` returns. A base held ``within`` its community takes
    its first hop in its own frame, along only the edges that leave the
    community; any other base, and every deeper level, takes every edge in
    the frame of no community, the whole graph's. An empty base, or
    ``depth`` 0, pushes nothing: the answer is zeros in the frame of no
    community of the base's index.
    """
    if depth < 0:
        raise QueryError(f"prerequisite depth {depth!r} must be >= 0")
    frame, values = base_scores.frame, base_scores.values
    if not base_scores or not depth:
        return Scores(np.zeros(frame.index.n), frame.whole)
    if not base_scores.within:
        frame, values = frame.whole, base_scores.vector
    # the levels add in order; the first is its own sum, as 0.0 + x is x
    level = extra = _walk(frame.route(_PREREQ_HOP), values)
    if depth > 1:
        level = extra = _dense(extra, frame)
        frame = frame.whole
        for _ in range(depth - 1):
            level = _walk(frame.route(_PREREQ_HOP), level)
            extra = extra + level
    return Scores(extra, frame)


@dataclass
class Provenance:
    """Per-route score shares of one query, as ``recommend`` attaches them.

    ``seeds`` and ``base`` are keyed by the community each group ran in, in
    ascending order. Each group's seeds are a read-only mapping over index
    positions (``Seeds``); each group's base
    is a ``Scores`` in its community's frame, empty when its walk cannot
    reach a course. ``prereq`` is a single map because that route ignores
    community gates.
    """

    seeds: dict[int, Mapping[str, float]] = field(default_factory=dict)
    base: dict[int, Mapping[str, float]] = field(default_factory=dict)
    prereq: Mapping[str, float] = field(default_factory=dict)


def _add(total: tuple[np.ndarray, Frame] | None, part: Scores) -> tuple[np.ndarray, Frame]:
    """``total``, values and their frame, plus ``part``, in place when both
    share a frame. A part in another frame moves the total to the frame of
    no community, the whole graph's, and adds there. Each node's routes add
    in route order: a node outside a part's frame gets nothing where a dense
    add gave it +0.0, and neither changes a score's bits."""
    if total is None:
        return part.values.copy(), part.frame
    values, frame = total
    if frame is part.frame:
        values += part.values
        return total
    if frame.community is not None:
        values = _dense(values, frame)
    values[part.frame.nodes] += part.values
    return values, frame.whole


def _taken_seeds(index: GraphIndex, taken: tuple[str, ...]) -> Seeds:
    """The taken courses, one or more, as seeds of equal weight."""
    pos = [index.pos.get(course) for course in taken]
    for course, i in zip(taken, pos):
        if i is None:
            raise QueryError(f"taken course {course!r} is not in the graph")
        if index.kinds[i] is not NodeKind.COURSE:
            raise QueryError(f"taken course {course!r} is a {index.kinds[i].value}, not a course")
    return Seeds(index, np.asarray(pos, dtype=np.int64),
                 np.full(len(taken), 1.0 / len(taken)), NodeKind.COURSE)


def _seed_groups(seeds: Seeds, gate: CommunityEdges) -> dict[int, Seeds]:
    """``seeds`` split by community, from each community, ascending, to its
    group; a group keeps its seeds' order, and seeds in one community are
    their own group. One gather reads every seed's slot."""
    if not len(seeds):
        return {}
    slots = gate.node_slot[seeds.pos]
    in_order = slots.tolist()
    first = in_order[0]
    # interleaved A/B: without this path, query p50 rose 13-15% on build-mid and query-m
    if first >= 0 and in_order.count(first) == len(in_order):
        return {gate.communities[first]: seeds}
    if min(in_order) < 0:
        node_id = seeds.index.ids[seeds.pos[in_order.index(-1)]]
        raise QueryError(f"job {node_id!r} carries no community label")
    groups = {}
    for slot in sorted(set(in_order)):
        at = (slots == slot).nonzero()[0]
        groups[gate.communities[slot]] = Seeds(seeds.index, seeds.pos[at], seeds.weight[at],
                                               seeds.kind)
    return groups


def scenario_scores(labels: Mapping[str, int], inp: ScenarioInput, seeds: Seeds,
                    prereq_depth: int = DEFAULT_PREREQ_DEPTH) -> tuple[Scores, Provenance]:
    """Scenario score map, before sorting and cutoff, on ``seeds.index``;
    ``seeds`` are such as ``resolve_job_query`` returns.

    Seeds are grouped by merged community; each group runs with its own
    community gate and the score maps add: base, then the prerequisite hop of
    a non-empty scenario 1/2 base, then the scenario 2 taken-course walk. The
    total stays in one community's frame while every route it adds is in that
    frame, and else moves to the frame of no community, the whole graph's;
    with no seeds it is zeros there. An unlabelled seed raises first, then a
    taken id that is not in the graph or names a job or skill, then seeds of
    the wrong kind (the first group's walk checks them).
    """
    # checked here too: a scenario 3 query or an empty base never expands
    if prereq_depth < 0:
        raise QueryError(f"prerequisite depth {prereq_depth!r} must be >= 0")
    labels, index = _as_labels(labels), seeds.index
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    gate = labels.cached(index, CommunityEdges)
    groups = _seed_groups(seeds, gate)
    taken = _taken_seeds(index, inp.taken_courses) if inp.taken_courses else None
    prov = Provenance(seeds=groups)
    total = prereq = None
    for community, group in groups.items():
        base = prov.base[community] = score_metapath(path, group, labels, community)
        total = _add(total, base)
        if inp.scenario != 3 and prereq_depth and base:
            extra = prerequisite_expansion(base, prereq_depth)
            total = _add(total, extra)
            prereq = _add(prereq, extra)
        if taken is not None:
            total = _add(total, score_metapath(TAKEN_PATH, taken, labels, community))
    if prereq is not None:
        prov.prereq = Scores(*prereq)
    values, frame = (np.zeros(index.n), gate.frame(None)) if total is None else total
    if taken is not None:
        # a taken course outside the frame already holds 0.0
        at, inside = frame.where(taken.pos)
        values[at[inside]] = 0.0
    return Scores(values, frame), prov


def to_ranked_list(ids: Sequence[str], scores: Sequence[float] | np.ndarray, query: str,
                   scenario: str, cutoff: int | None = None,
                   provenance: Provenance | None = None,
                   nodes: np.ndarray | None = None) -> RankedList:
    """The ids of a positive score, highest score first, cut at ``cutoff``.

    ``scores[i]`` is the score of ``ids[i]``, or with ``nodes`` (a frame's)
    of ``ids[nodes[i]]``. ``ids`` must be in ascending order, as a
    ``GraphIndex``'s are, and ``nodes`` too: equal scores then go by
    position, which is by id. Only the entries kept are paired with their
    ids. The compiled ``top`` of ``kernels.snapshot_codec`` makes the cut
    where it takes the input (a float64 vector, ``nodes`` an int64 one of
    its length, an index or None for ``cutoff``); any other goes through the
    NumPy line, a stable ``argsort``, with the same entries or errors.
    """
    if cutoff is not None and cutoff < 0:
        raise QueryError(f"list cutoff {cutoff} is negative")
    scores = np.asarray(scores, dtype=np.float64)
    codec = kernels.snapshot_codec()
    kept = None if codec is None else codec.top(scores, cutoff, nodes)
    if kept is None:
        hits = (scores > 0.0).nonzero()[0]
        cut = hits[np.argsort(-scores[hits], kind="stable")][:cutoff]
        kept = (cut if nodes is None else nodes[cut]).tolist(), scores[cut].tolist()
    at, values = kept
    return RankedList(tuple(zip([ids[i] for i in at], values)), query, scenario, provenance)


def recommend(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
              cutoff: int = 10, prereq_depth: int = DEFAULT_PREREQ_DEPTH) -> RankedList:
    """Rank candidate courses for one scenario input, with per-route ``provenance``."""
    seeds = resolve_job_query(g.cached(GraphIndex), inp.query_text)
    scores, prov = scenario_scores(labels, inp, seeds, prereq_depth)
    return to_ranked_list(scores.index.ids, scores.values, inp.query_text,
                          f"scenario-{inp.scenario}", cutoff, prov, scores.frame.nodes)


def format_ranked_list(ranked: RankedList) -> str:
    return csv_text(("rank", "node_id", "score"),
                    ((rank, node_id, f"{score:.12g}")
                     for rank, (node_id, score) in enumerate(ranked.entries, start=1)))
