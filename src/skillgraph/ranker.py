"""Meta-path random-walk scoring of candidate nodes, with community gates.

A candidate's score is the sum over all tours from a seed to it along the
declared step sequence of the product of traversed edge weights; reverse
steps traverse stored edges target-to-source with the stored forward weight.
Steps flagged as community-restricted only land on nodes carrying the query
community's merged label. Scoring is layered sparse propagation, one weighted
scatter per step, which equals explicit tour enumeration.

One function, ``_path_edges``, says which edges each step of a gated walk
takes. A restricted step takes the edges that land in the query community.
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
leaving it lands on. A walk whose every step lands in the community or
leaves it (``MetaPath.framed``; every built-in route and the first
prerequisite hop) touches only those nodes, so it seeds, scatters
(``kernels.propagate_step`` with ``n`` the frame's length), adds and tests
for candidates on frame-length vectors, its edges stored as frame
positions. The bits are those of a walk over the whole graph: each landing
node receives the same non-zero pushes in the same order, and the frame
leaves out only nodes that would hold exactly 0.0. Any other walk (deeper
prerequisite levels, a path whose first step is unrestricted) runs in the
whole-graph frame, on vectors over every node. On ``build-mid`` a frame
holds about 1,000 of the graph's 9,985 nodes. The gate sorts the members
and each relation's edges by community once, stably, so a frame is made
from its own slices and costs its own size, not the graph's.

A frame asks ``_path_edges`` once per path and keeps the answer
(``Frame.route``), and paths that share a step share its arrays. A query
whose jobs span several communities walks every route of every group. That
is rare: detection takes each side's connected components when they code
shorter than the partition its moves found, so a topic's jobs are not split
over stalled fragments, and on each ``perfbench`` workload (seed 1, traced)
a query spans one community group.

A query resolves to the jobs whose title holds its tokens as a contiguous
run (``TitleIndex``), and its seeds stay index positions with their weights
(``Seeds``) from the title match to the scatter: the matched titles' jobs
come as one position array, ``scenario_scores`` splits it by community with
one gather of each seed's community slot, and the first group's walk checks
the set's node kind. ``score_metapath`` places a group's seeds in its own
community's frame with two gathers (each member's rank among the members,
then the members' places in the frame), and any other seeds with one binary
search (``Frame.where``). The walks read only ``Seeds``
and ``Scores`` made on the graph as it is now, and refuse any other; a
library caller gets seeds from ``resolve_job_query``.

A route's scores are one vector over its frame (``Scores``). A scenario adds
its routes in route order (base, prerequisite hop, taken walk, group
by group): in place while every route shares one frame, else each route in
turn into one vector over the whole graph. Nothing is summed per group
first, as float addition does not reassociate; a node outside a route's
frame gets no addition where a dense sum would add +0.0, and neither
changes its bits. Node ids are made only for the ranked list, which maps
only the entries it keeps, and for the provenance when it is read;
``Scores.vector``, a dense view for library callers, is made on first read.

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
    set's arrays and keeps the set's kind, so no walk checks a seed's kind.
    Its ``group`` is the frame of the community that holds every seed, on
    the gate that grouped them, so a walk in that very frame places the
    seeds without a search; any other walk searches for them."""

    def __init__(self, index: GraphIndex, pos: np.ndarray, weight: np.ndarray,
                 kind: NodeKind, group: Frame | None = None) -> None:
        self.index = index
        self.pos = pos
        self.weight = weight
        self.kind = kind
        self.group = group
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


def _by_slot(slots: np.ndarray, n_slots: int) -> tuple[np.ndarray, list[int]]:
    """The positions of ``slots`` stably ordered by slot, as int32 for half
    the memory, and where each slot starts: slot ``k``'s positions,
    ascending, are ``order[starts[k + 1]:starts[k + 2]]``, the unlabelled
    (-1) ones first."""
    counts = np.bincount(slots + 1, minlength=n_slots + 1)
    order = np.argsort(slots, kind="stable").astype(np.int32)
    return order, [0, *np.cumsum(counts).tolist()]


class CommunityEdges:
    """A community gate on ``index``: each node's community slot, each
    slot's members, each relation's edges stably ordered by the slot of
    their source and again of their target, and each community's ``Frame``.
    Slot numbers follow the communities' ascending order: ``communities[k]``
    is slot ``k``'s community, ``node_slot`` each node's slot, -1 when
    unlabelled, and ``rank`` each node's place among its slot's members in
    index order. Read it as ``labels.cached(index, CommunityEdges)``. A
    community's slices of the orders (``ends_in``) are the edges that land
    in it or leave it; its frame is made from them on first use
    (``frame``), so it costs its own size, not the graph's."""

    def __init__(self, index: GraphIndex, labels: Labels) -> None:
        self.index = index
        node_labels = labels.of(index.ids)
        self.communities = sorted(set(node_labels) - {None})
        self.slot = {c: k for k, c in enumerate(self.communities)}
        self.node_slot = np.fromiter(map(self.slot.get, node_labels, itertools.repeat(-1)),
                                     dtype=np.int64, count=index.n)
        n_slots = len(self.communities)
        self._members = order, starts = _by_slot(self.node_slot, n_slots)
        self.rank = np.empty(index.n, dtype=np.int64)
        self.rank[order] = np.arange(index.n) - np.repeat(starts[:-1], np.diff(starts))
        # per relation, the edges by their source's slot, then by their target's
        self._ends = {relation: tuple(_by_slot(self.node_slot[end], n_slots) for end in (src, dst))
                      for relation, (src, dst, _wgt) in index.rel_edges.items()}
        self._frames: dict[int, Frame] = {}

    def members(self, community: int) -> np.ndarray:
        """The index positions of ``community``'s nodes, ascending."""
        return self._slice(self._members, self.slot.get(community))

    def ends_in(self, relation: Relation, target: bool, community: int) -> np.ndarray:
        """The positions in ``relation``'s edges of the ones whose source, or
        with ``target`` whose target, is in ``community``, ascending."""
        return self._slice(self._ends[relation][target], self.slot.get(community))

    @staticmethod
    def _slice(ordered: tuple[np.ndarray, list[int]], k: int | None) -> np.ndarray:
        order, starts = ordered
        return order[:0] if k is None else order[starts[k + 1]:starts[k + 2]]

    def frame(self, community: int) -> Frame:
        """``community``'s frame, made on the first call."""
        frame = self._frames.get(community)
        if frame is None:
            frame = self._frames[community] = Frame(self, community)
        return frame


class Frame:
    """One community's frame on a ``GraphIndex``: ``nodes`` holds the sorted
    positions of the community's members, of every node with an edge landing
    in it and of every node that an edge leaving it lands on. A framed walk
    (``MetaPath.framed``) pushes only along such edges, so it runs on vectors
    as long as ``nodes``, its edges given as positions in ``nodes``. As
    ``nodes`` ascends, frame positions order as index positions do.

    A path's edges are ``_path_edges``' for a walk whose mass starts in the
    community, made when first asked for and kept (``route``)."""

    def __init__(self, gate: CommunityEdges, community: int) -> None:
        self.gate = gate
        self.community = community
        self._routes: dict[MetaPath, list[Edges]] = {}
        # each (relation, direction, restricted)'s edges, which paths share
        self._steps: dict[tuple[Relation, bool, bool], Edges] = {}

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The frame's index positions, ascending; made on first read."""
        gate, community = self.gate, self.community
        parts = [gate.members(community)]
        for relation, (src, dst, _wgt) in gate.index.rel_edges.items():
            parts.append(dst[gate.ends_in(relation, False, community)])
            parts.append(src[gate.ends_in(relation, True, community)])
        nodes = np.sort(np.concatenate(parts))
        # each run of one position keeps its first; np.unique's first call imports numpy.ma
        return np.concatenate((nodes[:1], nodes[1:][nodes[1:] != nodes[:-1]]))

    @functools.cached_property
    def member_at(self) -> np.ndarray:
        """Where each of the community's members, ascending, sits in ``nodes``."""
        return self.nodes.searchsorted(self.gate.members(self.community))

    def route(self, path: MetaPath) -> list[Edges]:
        """The edges of ``path`` as positions in ``nodes``. ``path`` must stay
        in the frame: framed, or the first prerequisite hop from scores a
        restricted step left in the community."""
        edges = self._routes.get(path)
        if edges is None:
            edges = _path_edges(self.gate.index, path, self.gate, self.community, entered=True)
            for i, step in enumerate(path.steps):
                key = (step.relation, step.reverse, step.community_restricted)
                if key not in self._steps:
                    frm, to, wgt = edges[i]
                    self._steps[key] = (self.nodes.searchsorted(frm),
                                        self.nodes.searchsorted(to), wgt)
                edges[i] = self._steps[key]
            self._routes[path] = edges
        return edges

    def where(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the index positions ``pos`` would sit in ``nodes``, and
        whether each is there."""
        at = self.nodes.searchsorted(pos)
        inside = at < len(self.nodes)  # a frame may hold no node
        inside[inside] = self.nodes[at[inside]] == pos[inside]
        return at, inside


def _path_edges(index: GraphIndex, path: MetaPath, gate: CommunityEdges | None = None,
                community: int | None = None, entered: bool = False) -> list[Edges]:
    """Each step's edges as (from, to, weight) in edge order. With a
    ``gate``, a restricted step takes the edges that land in ``community``
    (an unlabelled node is in none); an unrestricted step takes the ones that
    leave it after a restricted step, or first when the walk has ``entered``
    it; any other step takes every edge."""
    edges = []
    for step in path.steps:
        frm, to, wgt = step.edges(index)
        if gate is not None and (step.community_restricted or entered):
            # a forward step lands on its target and leaves its source
            at = gate.ends_in(step.relation, step.reverse != step.community_restricted, community)
            frm, to, wgt = frm[at], to[at], wgt[at]
        edges.append((frm, to, wgt))
        entered = step.community_restricted
    return edges


def _walk(edges: list[Edges], scores: np.ndarray) -> np.ndarray:
    """Push ``scores`` along each step's ``edges``, one kernel call per step,
    in the frame ``scores`` is in."""
    n = len(scores)
    for src, dst, wgt in edges:
        scores = kernels.propagate_step(scores, src, dst, wgt, n)
    return scores


def _dense(values: np.ndarray, frame: Frame, n: int) -> np.ndarray:
    """``values`` in ``frame`` as one vector over all ``n`` index positions."""
    vector = np.zeros(n)
    vector[frame.nodes] = values
    return vector


class Scores(Mapping[str, float]):
    """Node scores in a frame of ``index``, 0.0 where a score is not
    positive: ``values[i]`` is the score of position ``frame.nodes[i]``, or
    of position ``i`` when ``frame`` is None, the whole graph. The keys are
    the nodes with a positive score, in index order; node ids are made only
    when read. ``within`` is whether a restricted step of a framed walk
    made the values last, so that every score is in ``frame.community``."""

    def __init__(self, index: GraphIndex, values: np.ndarray, frame: Frame | None = None,
                 within: bool = False) -> None:
        self.index = index
        self.values = values
        self.frame = frame
        self.within = within
        self._hits: np.ndarray | None = None
        self._vector: np.ndarray | None = None

    @property
    def vector(self) -> np.ndarray:
        """The scores as one dense vector over ``index``, made on first read."""
        if self._vector is None:
            self._vector = (self.values if self.frame is None
                            else _dense(self.values, self.frame, self.index.n))
        return self._vector

    @property
    def hits(self) -> np.ndarray:
        """Index positions of the keys, ascending."""
        if self._hits is None:
            hits = (self.values > 0.0).nonzero()[0]
            self._hits = hits if self.frame is None else self.frame.nodes[hits]
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


# what a query with no seeds, or a hop from no scores, returns; shared, so it creates nothing
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
    each restricted step landing only in ``community`` under ``labels``. A
    framed path walks in the community's frame, any other in the whole graph."""
    index = _current(g, seeds)
    _check_kind(seeds, path)
    gate = _as_labels(labels).cached(index, CommunityEdges)
    if path.framed:
        frame = gate.frame(community)
        edges = frame.route(path)
    else:
        frame, edges = None, _path_edges(index, path, gate, community)
    if frame is None:
        scores = np.zeros(index.n, dtype=np.float64)
        scores[seeds.pos] = seeds.weight
    else:
        scores = np.zeros(len(frame.nodes), dtype=np.float64)
        if seeds.group is frame:
            # every seed is a member, placed by its rank among them; interleaved A/B
            # against frame.where: query p50 fell 7.7% on build-mid, 7.2% on query-m
            # (perfbench, 10 rotations each, lower in 9)
            scores[frame.member_at[gate.rank[seeds.pos]]] = seeds.weight
        else:
            # a seed outside the frame has no edge into the community: it pushes nothing
            at, inside = frame.where(seeds.pos)
            scores[at[inside]] = seeds.weight[inside]
    # seeds of no negative (or NaN) weight, over positive edge weights, score
    # no node below 0.0; any other seed needs the scores below it set to 0.0
    kept = not len(seeds) or seeds.weight.min() >= 0.0
    scores = _walk(edges, scores)
    within = frame is not None and path.steps[-1].community_restricted
    return Scores(index, scores if kept else np.fmax(scores, 0.0), frame, within)


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
    is now, such as ``score_metapath`` returns. A base held ``within`` its
    frame's community takes its first hop in that frame, along only the
    edges that leave the community; the deeper levels take every edge, in
    the whole graph.
    """
    if depth < 0:
        raise QueryError(f"prerequisite depth {depth!r} must be >= 0")
    if not base_scores or not depth:
        return NO_SCORES
    index = _current(g, base_scores)
    if not base_scores.within:
        frame, first, values = None, _path_edges(index, _PREREQ_HOP), base_scores.vector
    else:
        frame = base_scores.frame
        first, values = frame.route(_PREREQ_HOP), base_scores.values
    # the levels add in order; the first is its own sum, as 0.0 + x is x
    level = extra = _walk(first, values)
    if depth > 1:
        if frame is not None:
            level = extra = _dense(extra, frame, index.n)
            frame = None
        edges = _path_edges(index, _PREREQ_HOP)
        for _ in range(depth - 1):
            level = _walk(edges, level)
            extra = extra + level
    return Scores(index, extra, frame)


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


def _add(total: tuple[np.ndarray, Frame | None] | None,
         part: Scores) -> tuple[np.ndarray, Frame | None]:
    """``total``, values and their frame, plus ``part``, in place where it
    can be. A part in another frame than the total moves the total to the
    whole graph first. Each node's routes add in route order: a node outside
    a part's frame gets nothing where a dense add gave it +0.0, and neither
    changes a score's bits."""
    if total is None:
        return part.values.copy(), part.frame
    values, frame = total
    if frame is part.frame:
        values += part.values
        return total
    if frame is not None:
        values = _dense(values, frame, part.index.n)
    if part.frame is None:
        values += part.values
    else:
        values[part.frame.nodes] += part.values
    return values, None


def _taken_seeds(g: HeteroGraph, index: GraphIndex, taken: tuple[str, ...]) -> Seeds:
    """The taken courses, one or more, as seeds of equal weight."""
    for course in taken:
        if course not in g or g.node_kind(course) is not NodeKind.COURSE:
            raise QueryError(f"taken course {course!r} is not in the graph")
    return Seeds(index, np.asarray([index.pos[c] for c in taken], dtype=np.int64),
                 np.full(len(taken), 1.0 / len(taken)), NodeKind.COURSE)


def _seed_groups(seeds: Seeds, gate: CommunityEdges) -> dict[int, Seeds]:
    """``seeds`` split by community, from each community, ascending, to its
    group; a group keeps its seeds' order and names its community's frame on
    ``gate`` (``Seeds.group``). One gather reads every seed's slot."""
    if not len(seeds):
        return {}
    slots = gate.node_slot[seeds.pos]
    in_order = slots.tolist()
    first = in_order[0]
    # interleaved A/B: without this path, query p50 rose 13-15% on build-mid and query-m
    if first >= 0 and in_order.count(first) == len(in_order):
        community = gate.communities[first]
        return {community: Seeds(seeds.index, seeds.pos, seeds.weight, seeds.kind,
                                 gate.frame(community))}
    if min(in_order) < 0:
        node_id = seeds.index.ids[seeds.pos[in_order.index(-1)]]
        raise QueryError(f"job {node_id!r} carries no community label")
    groups = {}
    for slot in sorted(set(in_order)):
        at = (slots == slot).nonzero()[0]
        community = gate.communities[slot]
        groups[community] = Seeds(seeds.index, seeds.pos[at], seeds.weight[at], seeds.kind,
                                  gate.frame(community))
    return groups


def scenario_scores(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
                    seeds: Seeds, prereq_depth: int = DEFAULT_PREREQ_DEPTH,
                    ) -> tuple[Scores, Provenance]:
    """Scenario score map before sorting/cutoff; ``seeds`` are
    ``resolve_job_query``'s on ``g`` as it is now.

    Seeds are grouped by merged community; each group runs with its own
    community gate and the score maps add: base, then the prerequisite hop of
    a non-empty scenario 1/2 base, then the scenario 2 taken-course walk. The
    total stays in one community's frame while every route it adds is in that
    frame. An unlabelled seed raises first, then a taken course not in the
    graph, then seeds of the wrong kind (the first group's walk checks them).
    """
    # checked here too: a scenario 3 query or an empty base never expands
    if prereq_depth < 0:
        raise QueryError(f"prerequisite depth {prereq_depth!r} must be >= 0")
    labels = _as_labels(labels)
    index = _current(g, seeds)
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    gate = labels.cached(index, CommunityEdges)
    groups = _seed_groups(seeds, gate)
    taken = _taken_seeds(g, index, inp.taken_courses) if inp.taken_courses else None
    prov = Provenance(seeds=groups)
    total = prereq = None
    for community, group in groups.items():
        base = prov.base[community] = score_metapath(g, path, group, labels, community)
        total = _add(total, base)
        if inp.scenario != 3 and prereq_depth and base:
            extra = prerequisite_expansion(g, base, prereq_depth)
            total = _add(total, extra)
            prereq = _add(prereq, extra)
        if taken is not None:
            total = _add(total, score_metapath(g, TAKEN_PATH, taken, labels, community))
    if prereq is not None:
        prov.prereq = Scores(index, *prereq)
    if total is None:
        return NO_SCORES, prov
    values, frame = total
    if taken is not None:
        if frame is None:
            values[taken.pos] = 0.0
        else:
            # a taken course outside the frame already holds 0.0
            at, inside = frame.where(taken.pos)
            values[at[inside]] = 0.0
    return Scores(index, values, frame), prov


def to_ranked_list(ids: Sequence[str], scores: Sequence[float] | np.ndarray, query: str,
                   scenario: str, cutoff: int | None = None,
                   provenance: Provenance | None = None,
                   nodes: np.ndarray | None = None) -> RankedList:
    """The ids of a positive score, highest score first, cut at ``cutoff``.

    ``scores[i]`` is the score of ``ids[i]``, or with ``nodes`` (a frame's)
    of ``ids[nodes[i]]``. ``ids`` must be in ascending order, as a
    ``GraphIndex``'s are, and ``nodes`` too: a stable sort then breaks ties
    by id. Only the entries kept are paired with their ids.
    """
    if cutoff is not None and cutoff < 0:
        raise QueryError(f"list cutoff {cutoff} is negative")
    scores = np.asarray(scores, dtype=np.float64)
    hits = (scores > 0.0).nonzero()[0]
    kept = hits[np.argsort(-scores[hits], kind="stable")][:cutoff]
    at = kept if nodes is None else nodes[kept]
    return RankedList(tuple(zip([ids[i] for i in at.tolist()], scores[kept].tolist())),
                      query, scenario, provenance)


def recommend(g: HeteroGraph, labels: Mapping[str, int], inp: ScenarioInput,
              cutoff: int = 10, prereq_depth: int = DEFAULT_PREREQ_DEPTH) -> RankedList:
    """Rank candidate courses for one scenario input, with per-route ``provenance``."""
    seeds = resolve_job_query(g, inp.query_text)
    scores, prov = scenario_scores(g, labels, inp, seeds, prereq_depth)
    return to_ranked_list(scores.index.ids, scores.values, inp.query_text,
                          f"scenario-{inp.scenario}", cutoff, prov,
                          None if scores.frame is None else scores.frame.nodes)


def format_ranked_list(ranked: RankedList) -> str:
    return csv_text(("rank", "node_id", "score"),
                    ((rank, node_id, f"{score:.12g}")
                     for rank, (node_id, score) in enumerate(ranked.entries, start=1)))
