"""Random-walk flow, two-level codebook cost, and community detection.

The walk combines each node's per-relation edge weights (uniform average over
the relations present), teleports to the uniform distribution with a fixed
probability, and treats dangling nodes as teleporting with their whole mass.
A partition is scored by the expected per-step description length, in bits,
of a two-level codebook: one index codebook over community exits plus one
codebook per community over its exits and node visits.

Detection is greedy and multi-level: starting from singletons, nodes move to
the neighboring community with the best cost decrease, communities aggregate
into supernodes, and the cycle repeats until an aggregation level stops
merging. Each level makes one queue pass: every unit is queued once in a
seeded shuffled order, and a move queues the mover's neighbours outside its
new community (the fast local move of Leiden, Traag, Waltman & van Eck 2019).
As in Leiden, the result need not be free of single improving moves. On a
connected graph the one-community partition is taken when it codes shorter.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

import numpy as np

from . import kernels
from .errors import CommunityError, csv_lines, csv_rows, parse_number, write_lines, write_text
from .graph import GraphIndex, HeteroGraph, NodeKind, union_ids

DEFAULT_TELEPORT = 0.15
POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000
MOVE_EPS = 1e-10

T = TypeVar("T")


@dataclass
class FlowModel:
    """Node visit rates of the teleporting walk."""

    visit_rate: dict[str, float]
    teleport: float


@dataclass
class CommunityPartition:
    assignment: dict[str, int]
    description_length: float
    num_communities: int


def _stationary(index: GraphIndex, teleport: float) -> np.ndarray:
    """Visit rates of the teleporting walk, by power iteration to ``POWER_TOL``."""
    if index.n == 0:
        raise CommunityError("graph is empty")
    if not 0.0 < teleport < 1.0:
        raise CommunityError(f"teleport {teleport!r} outside (0, 1)")
    visit, _iters, resid = kernels.power_iterate(
        *index.walk, index.n, teleport, POWER_TOL, POWER_MAX_ITER)
    if not resid <= POWER_TOL:
        raise CommunityError(
            f"stationary distribution did not converge after {POWER_MAX_ITER} "
            f"iterations (residual {resid:.3e})")
    return visit


def _neighbours(src: np.ndarray, dst: np.ndarray, flow: np.ndarray, n: int) -> tuple:
    """``FlowGraph.nbr`` from COO flows between distinct units; the flows of a
    pair given more than once are added in the order given."""
    keys, inverse = np.unique(np.concatenate((src * n + dst, dst * n + src)),
                              return_inverse=True)
    out = np.bincount(inverse[:src.size], weights=flow, minlength=keys.size)
    inflow = np.bincount(inverse[src.size:], weights=flow, minlength=keys.size)
    ptr = np.zeros(n + 1, dtype=np.int64)
    ptr[1:] = np.cumsum(np.bincount(keys // n, minlength=n))
    return ptr, keys % n, out, inflow


class FlowGraph:
    """Array bundle consumed by the kernels.

    Units are graph nodes at level 0 and supernodes after aggregation; every
    unit carries its visit rate, teleport mass, and original-node count. The
    neighbour list ``nbr = (ptr, idx, out, in)`` is the only edge list: each
    unit's other units, ascending and distinct, with the flow to and from each
    (0.0 where an edge runs one way). A unit's flow to itself is never an exit
    and is not kept. ``rows`` is the unit owning each ``nbr`` entry.
    """

    def __init__(self, visit: np.ndarray, tele: np.ndarray, size: np.ndarray,
                 nbr: tuple, n_orig: int, node_plogp_sum: float) -> None:
        self.visit = visit
        self.tele = tele
        self.size = size
        self.nbr = nbr
        self.n_orig = n_orig
        self.node_plogp_sum = node_plogp_sum
        self.n_units = visit.shape[0]
        self.rows = np.repeat(np.arange(self.n_units, dtype=np.int64), np.diff(nbr[0]))

    @classmethod
    def from_graph(cls, g: HeteroGraph, teleport: float,
                   visit: np.ndarray | None = None) -> "FlowGraph":
        if not 0.0 <= teleport < 1.0:
            raise CommunityError(f"teleport {teleport!r} outside [0, 1)")
        index = g.cached(GraphIndex)
        src, dst, wgt, dangling = index.walk
        if visit is None:
            visit = _stationary(index, teleport)
        visit = np.asarray(visit, dtype=np.float64)
        tele = np.where(dangling, visit, teleport * visit)
        eflow = (1.0 - teleport) * visit[src] * wgt
        keep = (eflow > 0.0) & (src != dst)
        node_plogp_sum = math.fsum(kernels._plogp(v) for v in visit)
        return cls(visit, tele, np.ones(index.n, dtype=np.float64),
                   _neighbours(src[keep], dst[keep], eflow[keep], index.n),
                   index.n, node_plogp_sum)

    def module_state(self, labels: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
        """Fresh per-module ``(visit, tele, size, cross_flow, exit_rate)`` of int64
        ``labels`` over module ids ``[0, k)``; an id no unit carries gets zeros."""
        visit = np.bincount(labels, weights=self.visit, minlength=k)
        tele = np.bincount(labels, weights=self.tele, minlength=k)
        size = np.bincount(labels, weights=self.size, minlength=k)
        _ptr, idx, out, _in = self.nbr
        lsrc = labels[self.rows]
        cross = lsrc != labels[idx]
        cross_flow = np.bincount(lsrc[cross], weights=out[cross], minlength=k)
        exit_rate = tele * (self.n_orig - size) / self.n_orig + cross_flow
        return visit, tele, size, cross_flow, exit_rate

    def partition_cost(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels, dtype=np.int64)
        state = self.module_state(labels, int(labels.max()) + 1)
        return float(kernels.partition_cost(state[0], state[4], self.node_plogp_sum))

    def aggregate(self, labels: np.ndarray, k: int) -> "FlowGraph":
        """One unit per module of dense ``labels``; flow inside a module is dropped."""
        labels = np.asarray(labels, dtype=np.int64)
        visit, tele, size, _cross, _exit = self.module_state(labels, k)
        _ptr, idx, out, _in = self.nbr
        lsrc, ldst = labels[self.rows], labels[idx]
        keep = (out > 0.0) & (lsrc != ldst)
        return FlowGraph(visit, tele, size, _neighbours(lsrc[keep], ldst[keep], out[keep], k),
                         self.n_orig, self.node_plogp_sum)


def compute_flow(g: HeteroGraph, teleport: float = DEFAULT_TELEPORT) -> FlowModel:
    """Visit rates of the teleporting walk, by power iteration (sums to 1)."""
    index = g.cached(GraphIndex)
    visit = _stationary(index, teleport)
    return FlowModel(visit_rate=dict(zip(index.ids, visit.tolist())), teleport=teleport)


def map_equation(g: HeteroGraph, flow: FlowModel, assignment: Mapping[str, int]) -> float:
    """Description length (bits) of the partition under the two-level codebook."""
    ids = g.cached(GraphIndex).ids
    if set(flow.visit_rate) != set(ids):
        raise CommunityError("flow model and graph disagree on the node set")
    visit = np.asarray([flow.visit_rate[i] for i in ids], dtype=np.float64)
    if not (np.isfinite(visit).all() and (visit >= 0.0).all()):
        raise CommunityError("visit rates must be finite and non-negative")
    total = float(visit.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise CommunityError(f"visit rates sum to {total!r}, not 1")
    missing = [i for i in ids if i not in assignment]
    if missing:
        raise CommunityError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
    labels = _renumber(np.asarray([assignment[i] for i in ids], dtype=np.int64))[0]
    return FlowGraph.from_graph(g, flow.teleport, visit=visit).partition_cost(labels)


def _renumber(labels: np.ndarray) -> tuple[np.ndarray, int]:
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64), int(dense.max()) + 1


def _connected(fg: FlowGraph) -> bool:
    """Whether ``fg.nbr`` links every unit to every other (it lists each edge
    both ways, so one search from unit 0 finds the component)."""
    ptr, idx = fg.nbr[0].tolist(), fg.nbr[1].tolist()
    seen = [False] * fg.n_units
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in idx[ptr[u]:ptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def detect_communities(g: HeteroGraph, seed: int = 0,
                       teleport: float = DEFAULT_TELEPORT) -> CommunityPartition:
    """Greedy multi-level minimization of the codebook description length.

    One local-move queue pass per level, communities aggregate into
    supernodes, and the cycle repeats until an aggregation level produces no
    further merge; then, if the graph is connected and one community codes
    shorter, that is the result. Deterministic for a fixed seed: node
    numbering is sorted-id based, the starting queue order comes from a
    seeded generator, zero-gain moves are rejected, and gain ties resolve to
    the lowest community index.
    """
    if seed < 0:
        raise CommunityError(f"seed {seed!r} must be >= 0")
    fg = FlowGraph.from_graph(g, teleport)
    final = np.arange(fg.n_units, dtype=np.int64)
    tracked = fg.partition_cost(final)
    rng = np.random.default_rng(seed)
    level = fg
    while True:
        # one queue pass from singletons in seeded shuffled order
        labels = np.arange(level.n_units, dtype=np.int64)
        order = rng.permutation(level.n_units).astype(np.int64)
        _moves, delta = kernels.local_move_pass(
            order, labels, level.visit, level.tele, level.size, level.nbr,
            level.module_state(labels, level.n_units), float(level.n_orig), MOVE_EPS)
        tracked += delta
        dense, k = _renumber(labels)
        final = dense[final]
        if k == level.n_units:
            break
        level = level.aggregate(dense, k)
    recomputed = fg.partition_cost(final)
    if abs(recomputed - tracked) > 1e-6:
        raise CommunityError(
            f"incremental cost tracking drifted: {tracked!r} vs {recomputed!r}")
    if level.n_units > 1 and _connected(level):
        # moves can always reach one module on a connected graph; take it
        # when it codes shorter, as Infomap's one-level check does
        one = np.zeros(fg.n_units, dtype=np.int64)
        one_cost = fg.partition_cost(one)
        if one_cost < recomputed:
            final, recomputed = one, one_cost
    # canonical labels: first appearance over sorted node ids
    relabel: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for node_id, lab in zip(g.cached(GraphIndex).ids, final):
        assignment[node_id] = relabel.setdefault(int(lab), len(relabel))
    return CommunityPartition(assignment=assignment,
                              description_length=float(recomputed),
                              num_communities=len(relabel))


def merge_partitions(edu_part: CommunityPartition, edu_graph: HeteroGraph,
                     car_part: CommunityPartition, car_graph: HeteroGraph) -> dict[str, int]:
    """Pair education and career communities by shared-skill count.

    Greedy one-to-one matching by descending overlap (ties to the lower
    education index, then lower career index); zero overlap never merges.
    Returns merged labels keyed by ``graph.union_ids``, the node ids of
    ``merge_graphs`` on the same two graphs. A skill present in both graphs
    takes the label of its education-side community.
    """
    edu_ids, car_ids = union_ids(edu_graph), union_ids(car_graph)
    # a key can name several career skills ("SQL" and "sql") in different communities
    car_by_key: dict[str, set[int]] = {}
    for sid in car_graph.node_ids(NodeKind.SKILL):
        car_by_key.setdefault(car_ids[sid], set()).add(car_part.assignment[sid])
    edu_keys = {(edu_part.assignment[sid], edu_ids[sid])
                for sid in edu_graph.node_ids(NodeKind.SKILL)}
    overlap = Counter((e, c) for e, key in edu_keys for c in car_by_key.get(key, ()))
    candidates = sorted((-n, e, c) for (e, c), n in overlap.items())
    edu_final: dict[int, int] = {}
    car_final: dict[int, int] = {}
    next_label = 0
    for _neg, e, c in candidates:
        if e in edu_final or c in car_final:
            continue
        edu_final[e] = car_final[c] = next_label
        next_label += 1
    labels: dict[str, int] = {}
    for part, ids, final in ((edu_part, edu_ids, edu_final), (car_part, car_ids, car_final)):
        for m in range(part.num_communities):
            if m not in final:
                final[m] = next_label
                next_label += 1
        for node_id, union_id in ids.items():
            labels.setdefault(union_id, final[part.assignment[node_id]])
    return labels


# ---------------------------------------------------------------------------
# partition / label files
# ---------------------------------------------------------------------------

_LABEL_HEADER = ("node_id", "community")


def write_labels(path: str | Path, labels: Mapping[str, int]) -> None:
    write_lines(path, csv_lines(_LABEL_HEADER, ((n, labels[n]) for n in sorted(labels))))


class Labels(Mapping[str, int]):
    """Read-only community labels keyed by node id, as ``read_labels`` gives them.

    Because they cannot change, a reader may keep what it derives from them
    for one graph state: ``cached(index, build)`` is ``build(index, self)``,
    computed once and reused until asked about another ``GraphIndex``.
    """

    def __init__(self, labels: Mapping[str, int]) -> None:
        self._labels = dict(labels)
        self._views: dict[Callable, tuple[GraphIndex, object]] = {}

    def __getitem__(self, node_id: str) -> int:
        return self._labels[node_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._labels

    def get(self, node_id: str, default=None):
        return self._labels.get(node_id, default)

    def __repr__(self) -> str:
        return f"Labels({self._labels!r})"

    def cached(self, index: GraphIndex, build: Callable[[GraphIndex, "Labels"], T]) -> T:
        hit = self._views.get(build)
        if hit is None or hit[0] is not index:
            hit = (index, build(index, self))
            self._views[build] = hit
        return hit[1]  # type: ignore[return-value]


def read_labels(path: str | Path) -> Labels:
    out: dict[str, int] = {}
    parsed: dict[str, int] = {}  # each good community text, parsed once
    for i, (node_id, text) in enumerate(csv_rows(path, _LABEL_HEADER, CommunityError), start=1):
        if node_id in out:
            raise CommunityError(f"{path}: row {i}: node {node_id!r} is labelled twice")
        label = parsed.get(text)
        if label is None:
            label = parse_number(text, int)
            if label is None:
                raise CommunityError(f"{path}: row {i}: community {text!r} is not an integer")
            parsed[text] = label
        out[node_id] = label
    return Labels(out)


def write_partition(path: str | Path, summary_path: str | Path,
                    partition: CommunityPartition, seed: int) -> None:
    write_labels(path, partition.assignment)
    summary = (f"L={partition.description_length:.17g} "
               f"k={partition.num_communities} seed={seed}\n")
    write_text(summary_path, summary)
