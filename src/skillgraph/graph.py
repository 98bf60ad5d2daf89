"""Typed directed weighted graph over courses, jobs, and skills.

Four relations exist, each fixing its endpoint kinds:

* ``p`` pre-required: course -> course
* ``c`` covered:      course -> skill
* ``r`` required:     job    -> skill
* ``l`` linked:       skill  -> skill

Per node and relation, outgoing weights always sum to 1 when any edge of
that relation exists.
"""
from __future__ import annotations

import enum
import functools
import logging
import math
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import GraphError, parse_number, read_text, write_text
from .ingest import Course, EnrollmentRecord, Job, Skill, tokenize

log = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-9

T = TypeVar("T")


class NodeKind(enum.Enum):
    COURSE = "course"
    JOB = "job"
    SKILL = "skill"


class Relation(enum.Enum):
    PRE_REQUIRED = "p"
    COVERED = "c"
    REQUIRED = "r"
    LINKED = "l"


RELATION_SIGNATURE: dict[Relation, tuple[NodeKind, NodeKind]] = {
    Relation.PRE_REQUIRED: (NodeKind.COURSE, NodeKind.COURSE),
    Relation.COVERED: (NodeKind.COURSE, NodeKind.SKILL),
    Relation.REQUIRED: (NodeKind.JOB, NodeKind.SKILL),
    Relation.LINKED: (NodeKind.SKILL, NodeKind.SKILL),
}


def skill_key(name: str) -> str:
    """Canonical cross-corpus identity of a skill name."""
    return "_".join(tokenize(name))


class HeteroGraph:
    """Directed weighted multigraph with typed nodes and relations.

    At most one edge exists per (source, target, relation), stored once in
    its source's forward row; there is no reverse adjacency (reverse walks
    read the array view, ``GraphIndex``). Node payload is a display name
    (course name, job title, skill name) defaulting to the id.
    ``cached`` keeps derived views until the next ``add_node`` (of a new
    node), ``add_row`` (``add_edge`` is a one-edge row) or ``set_node_name``,
    each of which bumps a counter.
    Every view comes from ``cached``, e.g. ``g.cached(GraphIndex)``, so it is
    built once per graph state and shared.
    """

    def __init__(self) -> None:
        self._kind: dict[str, NodeKind] = {}
        self._name: dict[str, str] = {}
        self._out: dict[Relation, dict[str, dict[str, float]]] = {r: {} for r in Relation}
        self._version = 0
        self._views: dict[Callable, tuple[int, object]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind, name: str | None = None) -> None:
        existing = self._kind.get(node_id)
        if existing is not None:
            if existing is not kind:
                raise GraphError(f"node id {node_id!r} used as both {existing.value} and {kind.value}")
            return
        self._kind[node_id] = kind
        self._name[node_id] = name if name is not None else node_id
        self._version += 1

    def add_edge(self, source: str, relation: Relation, target: str, weight: float) -> None:
        self.add_row(source, relation, {target: weight})

    def add_row(self, source: str, relation: Relation, row: dict[str, float]) -> None:
        """Add ``source``'s ``relation`` edges ``row`` (target to weight) at once.

        Each entry is checked in row order, and each check in this order: a
        positive finite weight, the source's kind, the target's kind, a target
        not yet in ``source``'s row. The first bad entry raises and nothing is
        added.
        """
        src_kind, dst_kind = RELATION_SIGNATURE[relation]
        rows, kinds = self._out[relation], self._kind
        old = rows.get(source, {})
        source_ok = kinds.get(source) is src_kind
        for target, weight in row.items():
            if not 0.0 < weight < math.inf:  # also false for NaN
                problem = f" has non-positive or non-finite weight {weight!r}"
            elif not source_ok:
                problem = f": source is not a {src_kind.value}"
            elif kinds.get(target) is not dst_kind:
                problem = f": target is not a {dst_kind.value}"
            elif target in old:
                raise GraphError(f"duplicate edge {source}-{relation.value}->{target}")
            else:
                continue
            raise GraphError(f"edge {source}-{relation.value}->{target}{problem}")
        if row:
            rows.setdefault(source, {}).update(row)
            self._version += 1

    # -- queries ------------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._kind

    def node_ids(self, kind: NodeKind | None = None) -> list[str]:
        if kind is None:
            return sorted(self._kind)
        return sorted(i for i, k in self._kind.items() if k is kind)

    def node_kind(self, node_id: str) -> NodeKind:
        try:
            return self._kind[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def node_name(self, node_id: str) -> str:
        return self._name[node_id]

    def set_node_name(self, node_id: str, name: str) -> None:
        """Attach a display name, e.g. after loading a name-less snapshot."""
        if node_id not in self._kind:
            raise GraphError(f"unknown node {node_id!r}")
        self._name[node_id] = name
        self._version += 1

    def cached(self, build: Callable[["HeteroGraph"], T]) -> T:
        """``build(self)``, computed once and reused until the graph changes.

        A copy starts with no cached views.
        """
        hit = self._views.get(build)
        if hit is None or hit[0] != self._version:
            hit = (self._version, build(self))
            self._views[build] = hit
        return hit[1]  # type: ignore[return-value]

    def num_nodes(self) -> int:
        return len(self._kind)

    def num_edges(self) -> int:
        return sum(len(row) for rel in Relation for row in self._out[rel].values())

    def copy(self) -> "HeteroGraph":
        g = HeteroGraph()
        g._kind = dict(self._kind)
        g._name = dict(self._name)
        for rel in Relation:
            g._out[rel] = {s: dict(ts) for s, ts in self._out[rel].items()}
        return g

    def validate(self) -> None:
        """Check normalization; ``add_row`` enforces kinds and weights."""
        for rel in Relation:
            for source, row in self._out[rel].items():
                total = sum(row.values())
                if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
                    raise GraphError(
                        f"outgoing {rel.value}-weights of {source!r} sum to {total!r}, not 1")


def prereq_counts(enrollments: Sequence[EnrollmentRecord]) -> dict[tuple[str, str], int]:
    """Count who-took-what-first over an enrollment log.

    ``pair[(ci, cj)]`` is the number of distinct students with some
    enrollment in ``cj`` at a strictly earlier term than some enrollment in
    ``ci``. Retakes of the same course never count.
    """
    spans: dict[str, dict[str, tuple[int, int]]] = {}
    for rec in enrollments:
        courses = spans.setdefault(rec.student, {})
        first, last = courses.get(rec.course, (rec.term, rec.term))
        courses[rec.course] = (min(first, rec.term), max(last, rec.term))
    pair: dict[tuple[str, str], int] = {}
    for courses in spans.values():
        for ci, (_first, last) in courses.items():
            for cj, (first, _last) in courses.items():
                if ci != cj and first < last:
                    pair[(ci, cj)] = pair.get((ci, cj), 0) + 1
    return pair


def build_education_graph(courses: Sequence[Course], enrollments: Sequence[EnrollmentRecord],
                          catalog: Sequence[Skill] | None = None) -> HeteroGraph:
    """Course + skill graph with covered and pre-required edges.

    Covered weight is 1/(number of skills the course covers); pre-required
    weights are proportional to distinct-student precedence counts and
    normalized to sum to 1 per course.
    """
    g = HeteroGraph()
    ids = [c.id for c in courses]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate course ids")
    skill_names = {s.id: s.name for s in catalog} if catalog else {}
    for course in courses:
        g.add_node(course.id, NodeKind.COURSE, course.name)
    for course in courses:
        skills = sorted(course.skills)
        for sid in skills:
            g.add_node(sid, NodeKind.SKILL, skill_names.get(sid))
        g.add_row(course.id, Relation.COVERED, {sid: 1.0 / len(skills) for sid in skills})
    known = set(ids)
    kept = [rec for rec in enrollments if rec.course in known]
    if len(kept) < len(enrollments):
        log.warning("skipped %d enrollment records naming unknown courses",
                    len(enrollments) - len(kept))
    counts: dict[str, dict[str, int]] = {}
    for (ci, cj), n in sorted(prereq_counts(kept).items()):
        counts.setdefault(ci, {})[cj] = n
    for ci, row in counts.items():
        total = sum(row.values())
        g.add_row(ci, Relation.PRE_REQUIRED, {cj: n / total for cj, n in row.items()})
    g.validate()
    return g


def build_career_graph(jobs: Sequence[Job], aggregate_by_title: bool = False) -> HeteroGraph:
    """Job + skill graph with required edges.

    One node per posting by default; with ``aggregate_by_title`` postings
    sharing a normalized title collapse into one node, id ``"_".join(tokens)``
    and name the normalized title (``untitled`` for both when it is empty).
    A node's edge weights are its skill frequencies over its postings, which
    is ``1/d`` for a single posting with ``d`` skills.
    """
    ids = [j.id for j in jobs]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate job ids")
    bare = next((j.id for j in jobs if not j.skills), None)
    if bare is not None:
        raise GraphError(f"job {bare!r} has no skills")
    groups: dict[str, tuple[str, list[Job]]] = {}
    for job in jobs:
        if aggregate_by_title:
            tokens = tokenize(job.title)
            node_id, name = "_".join(tokens) or "untitled", " ".join(tokens) or "untitled"
        else:
            node_id, name = job.id, job.title
        groups.setdefault(node_id, (name, []))[1].append(job)
    g = HeteroGraph()
    for node_id, (name, postings) in groups.items():
        g.add_node(node_id, NodeKind.JOB, name)
        counts = Counter(sid for job in postings for sid in job.skills)
        total = sum(counts.values())
        for sid in sorted(counts):
            g.add_node(sid, NodeKind.SKILL)
        g.add_row(node_id, Relation.REQUIRED, {sid: n / total for sid, n in sorted(counts.items())})
    g.validate()
    return g


def union_ids(g: HeteroGraph) -> dict[str, str]:
    """Each node's id in the union of the two domain graphs.

    A skill is known by ``skill_key`` of its name, so the same skill named in
    both corpora becomes one node; a course or job keeps its own id.
    """
    ids = {}
    for node_id in g.node_ids():
        if g.node_kind(node_id) is NodeKind.SKILL:
            key = skill_key(g.node_name(node_id))
            if not key:
                raise GraphError(f"skill {node_id!r} normalizes to an empty key")
            ids[node_id] = key
        else:
            ids[node_id] = node_id
    return ids


def merge_graphs(education: HeteroGraph, career: HeteroGraph) -> HeteroGraph:
    """Union of both graphs, each node renamed to its ``union_ids`` id.

    A skill node's name becomes its key; ``add_node`` rejects an id given two
    kinds (a course id equal to a job id or a skill key). Each relation's rows
    are copied, sources and then targets in sorted order; edges that become
    parallel under the renaming have their weights added in that order, so
    per-source out-weight totals are preserved.
    """
    merged = HeteroGraph()
    maps = [(g, union_ids(g)) for g in (education, career)]
    for g, mapping in maps:
        for node_id, union_id in mapping.items():
            kind = g.node_kind(node_id)
            merged.add_node(union_id, kind,
                            union_id if kind is NodeKind.SKILL else g.node_name(node_id))
    for g, mapping in maps:
        for relation, rows in g._out.items():
            for source in sorted(rows):
                row: dict[str, float] = {}
                for target, weight in sorted(rows[source].items()):
                    union_target = mapping[target]
                    row[union_target] = row.get(union_target, 0.0) + weight
                merged.add_row(mapping[source], relation, row)
    merged.validate()
    return merged


# ---------------------------------------------------------------------------
# snapshot serialization
# ---------------------------------------------------------------------------
# One line per node (``N <id> <kind>``) and edge
# (``E <src> <relation> <dst> <weight>``, 17 significant digits), written
# sorted lexicographically and read in any order. Ids are percent-encoded
# (space and '%' only) so the line format stays space-delimited; an id must
# be non-empty and hold no character ``str.splitlines`` breaks on.

def _encode_id(node_id: str) -> str:
    if node_id.splitlines() != [node_id]:  # also true for ''
        raise GraphError(f"node id {node_id!r} cannot be written to a snapshot: "
                         "it is empty or holds a line break")
    try:
        node_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise GraphError(f"node id {node_id!r} cannot be written to a snapshot: it holds "
                         f"{node_id[exc.start]!r}, which UTF-8 cannot encode") from None
    return node_id.replace("%", "%25").replace(" ", "%20")


def _decode_id(token: str) -> str:
    return token.replace("%20", " ").replace("%25", "%")


def snapshot_lines(g: HeteroGraph) -> list[str]:
    """The snapshot's lines in written order.

    Each id is encoded, and each distinct weight formatted, once: a graph
    has far fewer distinct weights than edges.
    """
    kinds = g._kind
    code = {node_id: _encode_id(node_id) for node_id in kinds}
    lines = []
    for kind in NodeKind:
        value = kind.value
        lines.extend(f"N {code[i]} {value}" for i, k in kinds.items() if k is kind)
    text: dict[float, str] = {}
    for relation, rows in g._out.items():
        value = relation.value
        for source, row in rows.items():
            head = f"E {code[source]} {value} "
            for target, weight in row.items():
                w = text.get(weight)
                if w is None:
                    w = text[weight] = f"{weight:.17g}"
                lines.append(f"{head}{code[target]} {w}")
    lines.sort()  # every line is distinct, so the sort alone fixes the order
    return lines


def write_snapshot(g: HeteroGraph, path: str | Path) -> None:
    write_text(path, "\n".join(snapshot_lines(g)) + "\n")


def read_snapshot(path: str | Path) -> HeteroGraph:
    """Load a snapshot; its lines may come in any order.

    The first pass adds every node and rejects a line that is neither a
    well-formed node nor a well-formed edge; the second adds each edge,
    parsing each distinct weight text once. So node and line-shape errors
    come first, then edge errors in line order, each as
    ``{path}: line N: ...``.
    """
    g = HeteroGraph()
    kind_by_value = {k.value: k for k in NodeKind}
    rel_by_value = {r.value: r for r in Relation}
    lines = read_text(path, GraphError).splitlines()
    try:  # every error names the line of the node or edge at hand
        for lineno, line in enumerate(lines, start=1):
            parts = line.split(" ")
            if parts[0] == "N" and len(parts) == 3 and parts[1] and parts[2] in kind_by_value:
                g.add_node(_decode_id(parts[1]), kind_by_value[parts[2]])
            elif line.strip() and not (parts[0] == "E" and len(parts) == 5 and parts[1]
                                       and parts[3] and parts[2] in rel_by_value):
                raise GraphError(f"unparseable snapshot line {line!r}")
        # an edge that passes every add_row check is written straight into its
        # row, and any other goes through add_edge, which raises its message.
        # Reading every edge through add_edge took perfbench build-mid's
        # setup_s from 0.646 to 0.697 s and build_s from 1.71 to 1.80 s
        # (medians of 8 alternating pairs, 2 vCPU, Python 3.11.7). Written
        # snapshots group a source's edges of one relation, so the row and the
        # source's kind are looked up once per run of such lines: 8% off a read
        # of build-mid's linked.graph (medians of 11, 3 processes)
        kinds = g._kind
        edge_kinds = {r.value: (r, *RELATION_SIGNATURE[r], g._out[r]) for r in Relation}
        weights: dict[str, float] = {}  # each distinct text parsed once; only good ones kept
        last_source = last_relation = None
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("E "):  # the first pass checked its shape
                _e, source, relation, target, text = line.split(" ")
                if source != last_source or relation != last_relation:
                    last_source, last_relation = source, relation
                    rel, src_kind, dst_kind, rows = edge_kinds[relation]
                    source_id = _decode_id(source) if "%" in source else source
                    row = (rows.setdefault(source_id, {})
                           if kinds.get(source_id) is src_kind else None)
                weight = weights.get(text)
                if weight is None:
                    weight = parse_number(text, float)
                    if weight is None or not math.isfinite(weight):
                        raise GraphError(f"bad edge weight {text!r}")
                    weights[text] = weight
                if "%" in target:
                    target = _decode_id(target)
                if (weight > 0.0 and row is not None and kinds.get(target) is dst_kind
                        and target not in row):
                    row[target] = weight
                    continue
                g.add_edge(source_id, rel, target, weight)
    except GraphError as exc:
        raise GraphError(f"{path}: line {lineno}: {exc}") from None
    g._version += 1  # for the edges written straight into their rows
    g.validate()
    return g


# ---------------------------------------------------------------------------
# array view used by the kernels
# ---------------------------------------------------------------------------

class GraphIndex:
    """Stable array numbering of a graph (sorted ids) plus per-relation COO.

    Read it as ``g.cached(GraphIndex)``: every caller shares one build per
    graph state, so none may write to its arrays.
    """

    def __init__(self, g: HeteroGraph) -> None:
        self.ids: list[str] = g.node_ids()
        self.pos: dict[str, int] = {node_id: i for i, node_id in enumerate(self.ids)}
        self.n = len(self.ids)
        self.rel_edges: dict[Relation, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for rel, rows in g._out.items():
            src, dst, wgt = [], [], []
            for source in sorted(rows):
                for target, weight in sorted(rows[source].items()):
                    src.append(self.pos[source])
                    dst.append(self.pos[target])
                    wgt.append(weight)
            self.rel_edges[rel] = (np.asarray(src, dtype=np.int64),
                                   np.asarray(dst, dtype=np.int64),
                                   np.asarray(wgt, dtype=np.float64))

    @functools.cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Row-stochastic walk matrix averaging each node's relations uniformly.

        Returns COO arrays (src, dst, weight) plus a dangling mask for nodes
        with no outgoing edges in any relation.
        """
        rel_count = np.zeros(self.n, dtype=np.int64)
        for src, _dst, _w in self.rel_edges.values():
            rel_count += np.bincount(src, minlength=self.n) > 0
        # no (src, dst) pair carries two relations: their endpoint kinds differ
        src, dst, wgt = (np.concatenate(parts) for parts in zip(*self.rel_edges.values()))
        order = np.lexsort((dst, src))
        return src[order], dst[order], (wgt / rel_count[src])[order], rel_count == 0
