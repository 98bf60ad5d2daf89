"""Typed directed weighted graph over courses, jobs, and skills.

Four relations exist, each fixing its endpoint kinds:

* ``p`` pre-required: course -> course
* ``c`` covered:      course -> skill
* ``r`` required:     job    -> skill
* ``l`` linked:       skill  -> skill

Per node and relation, outgoing weights always sum to 1 when any edge of
that relation exists.

Graphs are built a row at a time. Every row is written through
``HeteroGraph._add_rows``, the bulk entry of the builders, ``merge_graphs``,
``linker.link_skills`` and ``read_snapshot``, which each hand it three
parallel lists: sources, relations and rows. ``add_row`` is its one-row
form on a copy of the row, and ``add_edge`` a one-edge row. A row that
passes every check goes straight in (the graph keeps the caller's dict, so
each row must be a fresh dict); a row that fails raises the message
``_check_row`` makes for its first bad entry. Where the compiled codec loads
(``kernels.snapshot_codec``), its ``add_rows`` checks and installs the rows
in C, writing nothing but the rows it installs; at a row it does not take, a
faulty one or one with a weight that is no float, it stops, and
``_add_rows_python`` runs ``_check_row`` on that row and installs it or
raises, as it does for every row where the codec does not load. The
builders add each distinct node once, in the order a node-at-a-time build
adds it, and then every row, so that a clash of ids raises the same first
message.

``read_snapshot`` reads a snapshot in one pass that keeps nothing to explain
a fault; when a row fails, it reads the file again to name the line. The
pass and ``write_snapshot`` run as C where the compiled codec loads
(``kernels.snapshot_codec``), with the same results.

Work done once per node or edge runs in builtins and NumPy rather than in a
Python loop body where that gives the same result: the scanned node lines
go in as one dict, ``GraphIndex`` fills its arrays with
``np.fromiter`` and sorts a relation only when some row's targets came
unsorted, and ``GraphIndex.walk`` sorts only when two relations' edges
interleave. ``validate`` and ``_union_rows`` keep their loops: their vector
forms measured slower (each row's sum, or its few targets, is most of the
work).
"""
from __future__ import annotations

import enum
import functools
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import kernels
from .errors import GraphError, iter_lines, parse_number, read_through, write_lines
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
    ``cached`` keeps derived views until the graph next changes: a new node,
    a row written or a name set bumps a counter.
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
        added. The graph keeps a copy of ``row``.
        """
        self._add_rows([source], [relation], [dict(row)])

    def _add_rows(self, sources: list[str], relations: list[Relation],
                  rows: list[dict[str, float]]) -> None:
        """``add_row(sources[i], relations[i], rows[i])`` for each ``i`` in
        turn, in bulk, for the package's own builders and readers; lists of
        unequal length raise ``ValueError``.

        Unlike ``add_row``, which copies, the dict itself becomes the source's
        row when it has none yet, so the caller hands each dict over and must
        not reuse or change it. A row that fails a check raises its first bad
        entry's message (``_check_row``); the rows before it stay added.

        Where the compiled codec loads, its ``add_rows`` checks and installs
        the rows it takes: those of float weights and string ids that pass
        every check (the header of ``_snapshot.c`` lists them). It writes
        nothing else, and stops at any other row, which ``_add_rows_python``
        adds or raises on before the codec goes on with the next. So the
        messages, the rows kept before a fault, the insertion order and the
        version are those of ``_add_rows_python`` alone, which adds every row
        where the codec does not load.
        """
        if not len(sources) == len(relations) == len(rows):
            raise ValueError("sources, relations and rows differ in length")
        codec = kernels.snapshot_codec()
        if codec is None:
            self._add_rows_python(zip(sources, relations, rows))
            return
        at = 0
        while at < len(rows):
            installed, at = codec.add_rows(self._kind, self._out, RELATION_SIGNATURE,
                                           sources, relations, rows, at)
            self._version += installed
            if at < len(rows):  # the row it did not take
                self._add_rows_python([(sources[at], relations[at], rows[at])])
                at += 1

    def _add_rows_python(self, rows: Iterable[tuple[str, Relation, dict[str, float]]]) -> None:
        """``_add_rows`` in Python: ``_check_row`` on each non-empty row, then
        the row goes in."""
        for source, relation, row in rows:
            if row:
                self._check_row(source, relation, row)
                old = self._out[relation].setdefault(source, row)
                if old is not row:
                    old.update(row)
                self._version += 1

    def _check_row(self, source: str, relation: Relation, row: dict[str, float]) -> None:
        """Raise the message of ``row``'s first bad entry, as ``add_row``
        orders the checks; return when every entry passes."""
        src_kind, dst_kind = RELATION_SIGNATURE[relation]
        kinds, old = self._kind, self._out[relation].get(source, {})
        for target, weight in row.items():
            if not 0.0 < weight < math.inf:  # also false for NaN
                problem = f" has non-positive or non-finite weight {weight!r}"
            elif kinds.get(source) is not src_kind:
                problem = f": source is not a {src_kind.value}"
            elif kinds.get(target) is not dst_kind:
                problem = f": target is not a {dst_kind.value}"
            elif target in old:
                raise GraphError(f"duplicate edge {source}-{relation.value}->{target}")
            else:
                continue
            raise GraphError(f"edge {source}-{relation.value}->{target}{problem}")

    # -- queries ------------------------------------------------------------

    def node_ids(self, kind: NodeKind | None = None) -> list[str]:
        if kind is None:
            return sorted(self._kind)
        return sorted(i for i, k in self._kind.items() if k is kind)

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
        for rel, rows in self._out.items():
            g._out[rel] = dict(zip(rows, map(dict, rows.values())))
        return g

    def validate(self) -> None:
        """Check normalization; ``add_row`` enforces kinds and weights.

        Rows are checked in dict order, each total being Python's ``sum``, so
        the first bad row is named with that total (``2`` for int weights)
        and a weight type whose sum cannot be compared, such as ``Decimal``,
        raises its ``TypeError`` at its row. The sums are most of the time:
        taking them all first and checking them as a float64 vector measured
        slower than this loop.
        """
        for rel in Relation:
            for source, row in self._out[rel].items():
                total = sum(row.values())
                if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
                    raise GraphError(
                        f"outgoing {rel.value}-weights of {source!r} sum to {total!r}, not 1")


def _prereq_rows(enrollments: Sequence[EnrollmentRecord]) -> dict[str, dict[str, int]]:
    """Who-took-what-first over an enrollment log, as ``{ci: {cj: count}}``.

    ``count`` is the number of distinct students with some enrollment in
    ``cj`` at a strictly earlier term than some enrollment in ``ci``. Retakes
    of the same course never count. Every inner dict holds plain strings and
    ints, so the collector never has to visit them.
    """
    first: dict[str, dict[str, int]] = {}  # per student, each course's first term
    last: dict[str, dict[str, int]] = {}   # and its last
    for rec in enrollments:
        student, course, term = rec.student, rec.course, rec.term
        earliest = first.get(student)
        if earliest is None:
            earliest = first[student] = {}
            latest = last[student] = {}
        else:
            latest = last[student]
        if course not in earliest:
            earliest[course] = latest[course] = term
        elif term < earliest[course]:
            earliest[course] = term
        elif term > latest[course]:
            latest[course] = term
    rows: dict[str, dict[str, int]] = {}
    for student, earliest in first.items():
        if len(earliest) < 2:
            continue
        for ci, ci_last in last[student].items():
            for cj, cj_first in earliest.items():
                if cj_first < ci_last and ci != cj:
                    row = rows.get(ci)
                    if row is None:
                        row = rows[ci] = {}
                    row[cj] = row.get(cj, 0) + 1
    return rows


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
    kinds = g._kind
    # each course's skill nodes in course order, then every covered row: no
    # row can fail once its nodes are in, so a clash raises as node by node
    covered = {}  # by course id, each distinct
    for course in courses:
        skills = sorted(course.skills)
        for sid in skills:
            if kinds.get(sid) is not NodeKind.SKILL:
                g.add_node(sid, NodeKind.SKILL, skill_names.get(sid))
        if skills:
            covered[course.id] = dict.fromkeys(skills, 1.0 / len(skills))
    g._add_rows(list(covered), [Relation.COVERED] * len(covered), list(covered.values()))
    known = set(ids)
    kept = [rec for rec in enrollments if rec.course in known]
    if len(kept) < len(enrollments):
        log.warning("skipped %d enrollment records naming unknown courses",
                    len(enrollments) - len(kept))
    counts = _prereq_rows(kept)
    sources, rows = sorted(counts), []
    for ci in sources:
        row = counts[ci]
        total = sum(row.values())
        rows.append({cj: row[cj] / total for cj in sorted(row)})
    g._add_rows(sources, [Relation.PRE_REQUIRED] * len(sources), rows)
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
    if aggregate_by_title:
        groups: dict[str, tuple[str, list[Job]]] = {}
        for job in jobs:
            tokens = tokenize(job.title)
            node_id, name = "_".join(tokens) or "untitled", " ".join(tokens) or "untitled"
            groups.setdefault(node_id, (name, []))[1].append(job)
        nodes = ((node_id, name, postings) for node_id, (name, postings) in groups.items())
    else:
        nodes = ((job.id, job.title, (job,)) for job in jobs)
    g = HeteroGraph()
    kinds = g._kind
    # each node just before its skill nodes, then every row: no row can fail
    # once its nodes are in, so a clash raises as node by node
    rows = {}  # by node id, each distinct
    for node_id, name, postings in nodes:
        g.add_node(node_id, NodeKind.JOB, name)
        if len(postings) == 1:  # each of its d skills has frequency 1/d
            # skipping the Counter takes a third off a build-mid
            # build_career_graph (median 89 to 58 ms CPU on a 2-vCPU VM)
            skills = sorted(postings[0].skills)
            row = dict.fromkeys(skills, 1 / len(skills))
        else:
            counts = Counter(sid for job in postings for sid in job.skills)
            total = sum(counts.values())
            row = {sid: n / total for sid, n in sorted(counts.items())}
        for sid in row:
            if kinds.get(sid) is not NodeKind.SKILL:
                g.add_node(sid, NodeKind.SKILL)
        rows[node_id] = row
    g._add_rows(list(rows), [Relation.REQUIRED] * len(rows), list(rows.values()))
    g.validate()
    return g


def union_ids(g: HeteroGraph) -> dict[str, str]:
    """Each node's id in the union of the two domain graphs.

    A skill is known by ``skill_key`` of its name, so the same skill named in
    both corpora becomes one node; a course or job keeps its own id.
    """
    ids = {}
    kinds = g._kind
    for node_id in sorted(kinds):  # ids, not (id, kind) pairs: no tuple per node
        if kinds[node_id] is NodeKind.SKILL:
            key = skill_key(g._name[node_id])
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
        kinds, names = g._kind, g._name
        for node_id, union_id in mapping.items():
            kind = kinds[node_id]
            merged.add_node(union_id, kind, union_id if kind is NodeKind.SKILL else names[node_id])
    sources, relations, rows = [], [], []
    for g, mapping in maps:
        _union_rows(g, mapping, sources, relations, rows)
    merged._add_rows(sources, relations, rows)
    merged.validate()
    return merged


def _union_rows(g: HeteroGraph, mapping: dict[str, str], sources: list[str],
                relations: list[Relation], rows: list[dict[str, float]]) -> None:
    """Append ``g``'s rows renamed by ``mapping`` to ``sources``,
    ``relations`` and ``rows``, sources then targets in sorted order; targets
    the renaming makes one have their weights added."""
    for relation, by_source in g._out.items():
        for source in sorted(by_source):
            row = {}
            for target, weight in sorted(by_source[source].items()):
                union_target = mapping[target]
                row[union_target] = row.get(union_target, 0.0) + weight
            sources.append(mapping[source])
            relations.append(relation)
            rows.append(row)


# ---------------------------------------------------------------------------
# snapshot serialization
# ---------------------------------------------------------------------------
# One line per node (``N <id> <kind>``) and edge
# (``E <src> <relation> <dst> <weight>``, 17 significant digits), written
# sorted lexicographically and read in any order. Ids are percent-encoded
# (space and '%' only) so the line format stays space-delimited; an id must
# be non-empty and hold no character ``str.splitlines`` breaks on.
#
# Two codecs read and write this text. The compiled one, ``_snapshot.c``
# (``kernels.snapshot_codec``), runs whenever it loads: its ``scan`` returns
# what ``_read_rows`` gathers, after a dict of the node lines' kinds by id,
# and its ``write`` writes the bytes of ``_snapshot_text``. On any input outside
# what it takes (listed in the header of ``_snapshot.c``) it writes nothing
# and hands over to the Python codec below, so every error message, line
# number and error order is the Python reader's. Both codecs read a line,
# and write a row, at a time: neither holds a whole file or text.

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


def _snapshot_text(g: HeteroGraph) -> Iterator[str]:
    """The snapshot's text a row at a time, each line ending in ``\\n``.

    The written order is every line sorted as a string. Edge lines (``E``)
    sort before node lines (``N``). An encoded id holds no space, so no
    row's head ``E {source} {relation} `` is a prefix of another's, nor any
    line of another: rows sort as their heads, line ends change no order,
    and the rows taken in head order, each with its lines sorted, are in
    written order. Each id is encoded, and each distinct weight formatted,
    once: a graph has far fewer distinct weights than edges.
    """
    kinds = g._kind
    code = {node_id: _encode_id(node_id) for node_id in kinds}
    text: dict[float, str] = {}
    rows_by_head = {f"E {code[source]} {relation.value} ": row
                    for relation, rows in g._out.items() for source, row in rows.items()}
    for head in sorted(rows_by_head):
        lines = []
        for target, weight in rows_by_head[head].items():
            w = text.get(weight)
            if w is None:
                w = text[weight] = f"{weight:.17g}"
            lines.append(f"{head}{code[target]} {w}\n")
        lines.sort()
        yield "".join(lines)
    yield from sorted(f"N {code[i]} {k.value}\n" for i, k in kinds.items())


_KIND_BY_VALUE = {k.value: k for k in NodeKind}
_RELATION_BY_VALUE = {r.value: r for r in Relation}
_VALUE = {member: member.value for member in (*NodeKind, *Relation)}


def write_snapshot(g: HeteroGraph, path: str | Path) -> None:
    codec = kernels.snapshot_codec()
    if codec is not None and codec.write(path, g._kind, g._out, _VALUE):
        return
    # streamed, so no copy of the whole snapshot is held. Every id is encoded
    # before the first piece comes, so an id no snapshot can hold leaves no
    # file; a graph with no node has no line, and its snapshot is one line end
    pieces = _snapshot_text(g)
    write_lines(path, itertools.chain([next(pieces, "\n")], pieces))


def _read_rows(g: HeteroGraph, path: str | Path
               ) -> tuple[list[str], list[Relation], list[dict[str, float]]]:
    """Read the snapshot at ``path`` in one pass, a line at a time, and
    split each line once. Add each node to ``g``, raise the first line that
    is neither a well-formed node nor a well-formed edge, and gather each
    run of adjacent edge lines with one source and relation, and no target
    twice, into one row: the runs' sources, relations and rows, as parallel
    lists rather than a tuple each, so that the collector has few objects to
    visit. A weight text that is no finite float reads as NaN. Each distinct
    id token is decoded, and each distinct weight text parsed, once.
    """
    kind_by_value, rel_by_value = _KIND_BY_VALUE, _RELATION_BY_VALUE
    ids: dict[str, str] = {}
    weights: dict[str, float] = {}
    sources: list[str] = []
    relations: list[Relation] = []
    rows: list[dict[str, float]] = []
    source = relation = row = None  # the run at hand; a line of any other kind ends it
    with read_through(iter_lines(path, GraphError)) as lines:
        for lineno, line in enumerate(lines, start=1):
            parts = line.split(" ")
            if len(parts) == 5 and parts[0] == "E" and parts[3]:
                _e, src, rel, token, text = parts
                target = ids.get(token)
                if target is None:
                    target = ids[token] = _decode_id(token)
                if src != source or rel != relation or target in row:
                    if not src or rel not in rel_by_value:
                        raise GraphError(
                            f"{path}: line {lineno}: unparseable snapshot line {line!r}")
                    source_id = ids.get(src)
                    if source_id is None:
                        source_id = ids[src] = _decode_id(src)
                    source, relation, row = src, rel, {}
                    sources.append(source_id)
                    relations.append(rel_by_value[rel])
                    rows.append(row)
                weight = weights.get(text)
                if weight is None:
                    weight = parse_number(text, float)
                    if weight is None or not math.isfinite(weight):
                        weight = math.nan
                    weights[text] = weight
                row[target] = weight
                continue
            source = None
            if len(parts) == 3 and parts[0] == "N" and parts[1] and parts[2] in kind_by_value:
                node_id = ids.get(parts[1])
                if node_id is None:
                    node_id = ids[parts[1]] = _decode_id(parts[1])
                try:
                    g.add_node(node_id, kind_by_value[parts[2]])
                except GraphError as exc:
                    raise GraphError(f"{path}: line {lineno}: {exc}") from None
            elif line.strip():
                raise GraphError(f"{path}: line {lineno}: unparseable snapshot line {line!r}")
    return sources, relations, rows


def _raise_edge_fault(path: str | Path, kinds: dict[str, NodeKind]) -> None:
    """Read the snapshot at ``path`` again and add its edge lines one at a
    time, in line order, to a graph of the nodes ``kinds``; raise the first
    that fails as ``{path}: line N: ...``, and return when none does. Runs,
    and the entries of each run, reach ``_add_rows`` in line order, so this
    is the line whose entry made it raise."""
    g = HeteroGraph()
    g._kind = kinds
    for lineno, line in enumerate(iter_lines(path, GraphError), start=1):
        parts = line.split(" ")
        if len(parts) == 5 and parts[0] == "E":  # the first read left no other such line
            weight = parse_number(parts[4], float)
            try:
                if weight is None or not math.isfinite(weight):
                    raise GraphError(f"bad edge weight {parts[4]!r}")
                g.add_edge(_decode_id(parts[1]), Relation(parts[2]), _decode_id(parts[3]), weight)
            except GraphError as exc:
                raise GraphError(f"{path}: line {lineno}: {exc}") from None


def read_snapshot(path: str | Path) -> HeteroGraph:
    """Load a snapshot; its lines may come in any order.

    One pass adds every node and gathers the edges into rows
    (``_read_rows``, or the compiled codec's ``scan``, whose node kinds by
    id become the graph's; it hands a file that names an id on two node
    lines to ``_read_rows``, which adds a repeat of the same kind once and
    names the line of a clash). The rows then go to
    ``HeteroGraph._add_rows`` in line order, and when it raises, a second
    read names the line (``_raise_edge_fault``). So an undecodable byte
    anywhere comes first, then node and line-shape errors, then edge errors
    in line order, each as ``{path}: line N: ...``, then a row whose weights
    do not sum to 1, as ``{path}: ...``.
    """
    g = HeteroGraph()
    codec = kernels.snapshot_codec()
    scanned = codec and codec.scan(path, _KIND_BY_VALUE, _RELATION_BY_VALUE)
    if scanned is None:
        sources, relations, rows = _read_rows(g, path)
    else:  # each id on one node line: the nodes go in as one dict
        g._kind, sources, relations, rows = scanned
        g._name = dict(zip(g._kind, g._kind))
        g._version += len(g._kind)
    try:
        g._add_rows(sources, relations, rows)
    except GraphError:
        _raise_edge_fault(path, g._kind)
        raise
    try:
        g.validate()
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
    return g


# ---------------------------------------------------------------------------
# array view used by the kernels and the query
# ---------------------------------------------------------------------------

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


def match_titles(index: TitleIndex, query: list[str]) -> np.ndarray:
    """Sorted positions of the jobs whose title holds the ``query`` tokens as a run."""
    # a matching title holds every query token, so the rarest one's postings
    # hold every match; a token in no title leaves nothing to check
    candidates = min((index.postings.get(token, []) for token in query), key=len)
    text = _text(query)
    found = [index.titles[title] for title in candidates if text in title]
    return np.sort(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)


class GraphIndex:
    """Stable array numbering of a graph (sorted ids), each node's kind and
    display name by position, per-relation COO, and the job title index
    (``titles``): everything a query reads.

    Read it as ``g.cached(GraphIndex)``: every caller shares one build per
    graph state, so its edge arrays are read-only and ``kinds`` and
    ``names`` tuples. A relation's edges are ordered by source and then
    target position: its rows are read in sorted source order, each in dict
    order, and a lexsort runs only when some row's targets are not sorted
    (the builders and the snapshot reader add them sorted). A query resolves
    on an index and walks the index its seeds and scores were made on, which
    keeps that graph state, names included, after the graph changes.
    """

    def __init__(self, g: HeteroGraph) -> None:
        self.ids: list[str] = g.node_ids()
        self.n = len(self.ids)
        self.pos: dict[str, int] = dict(zip(self.ids, range(self.n)))
        self.kinds: tuple[NodeKind, ...] = tuple(map(g._kind.__getitem__, self.ids))
        self.names: tuple[str, ...] = tuple(map(g._name.__getitem__, self.ids))
        self.rel_edges: dict[Relation, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        at = self.pos.__getitem__
        for rel, rows in g._out.items():
            sources = sorted(rows)
            row_of = list(map(rows.__getitem__, sources))
            sizes = np.fromiter(map(len, row_of), dtype=np.int64, count=len(row_of))
            m = int(sizes.sum())
            src = np.repeat(np.fromiter(map(at, sources), dtype=np.int64, count=len(sources)),
                            sizes)
            dst = np.fromiter(map(at, itertools.chain.from_iterable(row_of)),
                              dtype=np.int64, count=m)
            wgt = np.fromiter(itertools.chain.from_iterable(map(dict.values, row_of)),
                              dtype=np.float64, count=m)
            # the sources ascend; sort when some row's targets came unsorted
            if not ((src[1:] > src[:-1]) | (dst[1:] > dst[:-1])).all():
                order = np.lexsort((dst, src))
                dst, wgt = dst[order], wgt[order]
            arrays = (src, dst, wgt)
            for array in arrays:
                array.setflags(write=False)
            self.rel_edges[rel] = arrays

    @functools.cached_property
    def titles(self) -> TitleIndex:
        """The title index of the job nodes, by position; made on first read."""
        return title_index((i, n) for i, n in enumerate(self.names) if self.kinds[i] is NodeKind.JOB)

    @functools.cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Row-stochastic walk matrix averaging each node's relations uniformly.

        Returns COO arrays (src, dst, weight) in ``(src, dst)`` order plus a
        dangling mask for nodes with no outgoing edges in any relation. The
        relations' edges are joined in relation order and sorted only when
        they interleave; a graph with one relation (a career graph) needs no
        sort.
        """
        rel_count = np.zeros(self.n, dtype=np.int64)
        for src, _dst, _w in self.rel_edges.values():
            rel_count += np.bincount(src, minlength=self.n) > 0
        # no (src, dst) pair carries two relations: their endpoint kinds differ
        src, dst, wgt = (np.concatenate(parts) for parts in zip(*self.rel_edges.values()))
        wgt = wgt / rel_count[src]
        # each relation's pairs ascend, so the joined pairs do when each
        # relation's first pair comes after the last of the relation before
        ends = [((s[0], d[0]), (s[-1], d[-1])) for s, d, _w in self.rel_edges.values() if s.size]
        if any(last >= first for (_, last), (first, _) in zip(ends, ends[1:])):
            order = np.lexsort((dst, src))
            src, dst, wgt = src[order], dst[order], wgt[order]
        return src, dst, wgt, rel_count == 0
