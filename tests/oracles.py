"""Independent reference implementations used as test oracles.

Everything here is written from definitions, by a deliberately different
route than the package: dense matrices instead of sparse flows, recursive
tour enumeration instead of layered propagation, walks over vectors of the
whole graph instead of community frames, and plain entropy formulas instead
of the plogp decomposition. Keep it that way.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from skillgraph.community import Labels
from skillgraph.errors import GraphError, IngestError
from skillgraph.graph import (GraphIndex, HeteroGraph, NodeKind, Relation, build_career_graph,
                              build_education_graph)
from skillgraph.ingest import Course, EnrollmentRecord, Job, Skill, tokenize
from skillgraph.linker import Bm25Params
from skillgraph.ranker import (BASE_PATH, TAKEN_PATH, UPSKILL_PATH, MetaPath, MetaPathStep,
                               CommunityEdges, Provenance, ScenarioInput, Scores, Seeds,
                               prerequisite_expansion, score_metapath)


# ---------------------------------------------------------------------------
# edge reads straight from the graph's rows, never through GraphIndex
# ---------------------------------------------------------------------------

def out_edges(g: HeteroGraph, node: str, relation: Relation) -> list[tuple[str, float]]:
    """``node``'s ``relation`` edges as (target, weight), by target."""
    return sorted(g._out[relation].get(node, {}).items())


def edges(g: HeteroGraph) -> list[tuple[str, Relation, str, float]]:
    """Every edge as (source, relation, target, weight): relations in
    ``Relation`` order, then by source, then by target."""
    return [(source, relation, target, weight) for relation in Relation
            for source in sorted(g._out[relation])
            for target, weight in out_edges(g, source, relation)]


# ---------------------------------------------------------------------------
# ranked-retrieval metrics, straight from the definitions
# ---------------------------------------------------------------------------

def ref_average_precision(flags: list[int], total_relevant: int,
                          cutoff: int | None = None) -> float:
    """AP of a 0/1 relevance sequence; total_relevant counts all judged-relevant."""
    denom = total_relevant if cutoff is None else min(total_relevant, cutoff)
    if denom == 0:
        return 0.0
    considered = flags if cutoff is None else flags[:cutoff]
    acc = 0.0
    hits = 0
    for rank, flag in enumerate(considered, start=1):
        if flag:
            hits += 1
            acc += hits / rank
    return acc / denom


def ref_precision(flags: list[int]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def ref_precision_at(flags: list[int], k: int) -> float:
    return sum(flags[:k]) / k


# ---------------------------------------------------------------------------
# dense walk matrix, stationary solve, map equation from the entropy form
# ---------------------------------------------------------------------------

def dense_transition(g: HeteroGraph, teleport: float) -> tuple[list[str], np.ndarray]:
    """Full transition matrix: relation-averaged edges, teleport, dangling=uniform."""
    ids = g.node_ids()
    n = len(ids)
    pos = {node_id: i for i, node_id in enumerate(ids)}
    P = np.zeros((n, n))
    for i, node_id in enumerate(ids):
        rels = [rel for rel in Relation if out_edges(g, node_id, rel)]
        if not rels:
            P[i, :] = 1.0 / n
            continue
        row = np.zeros(n)
        for rel in rels:
            for target, weight in out_edges(g, node_id, rel):
                row[pos[target]] += weight / len(rels)
        P[i, :] = teleport / n + (1.0 - teleport) * row
    return ids, P


def ref_stationary(g: HeteroGraph, teleport: float) -> dict[str, float]:
    """Left eigenvector of the dense transition, by linear solve."""
    ids, P = dense_transition(g, teleport)
    n = len(ids)
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    return dict(zip(ids, p))


def _entropy_term(p: float, total: float) -> float:
    if p <= 0.0 or total <= 0.0:
        return 0.0
    return -p * math.log2(p / total)


def ref_map_equation(g: HeteroGraph, visit: dict[str, float],
                     assignment: dict[str, int], teleport: float) -> float:
    """Two-level description length: index codebook + per-community codebooks."""
    ids, P = dense_transition(g, teleport)
    pos = {node_id: i for i, node_id in enumerate(ids)}
    p = np.array([visit[node_id] for node_id in ids])
    flow = p[:, None] * P
    modules = sorted(set(assignment[node_id] for node_id in ids))
    q = {}
    members = {m: [pos[i] for i in ids if assignment[i] == m] for m in modules}
    for m in modules:
        inside = np.zeros(len(ids), dtype=bool)
        inside[members[m]] = True
        q[m] = float(flow[np.ix_(inside, ~inside)].sum())
    q_total = sum(q.values())
    index_len = sum(_entropy_term(q[m], q_total) for m in modules)
    module_len = 0.0
    for m in modules:
        usage = q[m] + float(p[members[m]].sum())
        module_len += _entropy_term(q[m], usage)
        for i in members[m]:
            module_len += _entropy_term(float(p[i]), usage)
    return index_len + module_len


def set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth strings."""
    a = [0] * n
    b = [1] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        fill = b[i] + (1 if a[i] == b[i] else 0)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = fill


# ---------------------------------------------------------------------------
# meta-path scoring by explicit depth-first tour enumeration
# ---------------------------------------------------------------------------

def reverse_rows(g: HeteroGraph) -> dict[tuple[Relation, str], list[tuple[str, float]]]:
    """Each (relation, target)'s in-edges as (source, weight), from a full
    edge scan, so sources arrive in sorted order."""
    into: dict[tuple[Relation, str], list[tuple[str, float]]] = {}
    for source, relation, target, weight in edges(g):
        into.setdefault((relation, target), []).append((source, weight))
    return into


def ref_score_metapath(g: HeteroGraph, steps, seeds: dict[str, float],
                       labels: dict[str, int], community: int) -> dict[str, float]:
    """steps: list of (Relation, reverse: bool, restricted: bool) triples."""
    out: dict[str, float] = {}
    into = g.cached(reverse_rows)

    def walk(node: str, depth: int, prob: float) -> None:
        if depth == len(steps):
            out[node] = out.get(node, 0.0) + prob
            return
        relation, reverse, restricted = steps[depth]
        row = into.get((relation, node), []) if reverse else out_edges(g, node, relation)
        for nbr, weight in row:
            if restricted and labels.get(nbr) != community:
                continue
            walk(nbr, depth + 1, prob * weight)

    for seed, weight in seeds.items():
        walk(seed, 0, weight)
    return {node: score for node, score in out.items() if score > 0.0}


BASE_STEPS = [(Relation.REQUIRED, False, True), (Relation.LINKED, False, True),
              (Relation.COVERED, True, True)]
TAKEN_STEPS = [(Relation.COVERED, False, True), (Relation.COVERED, True, True)]
UPSKILL_STEPS = BASE_STEPS + [(Relation.PRE_REQUIRED, True, False)]


def ref_scenario_scores(g: HeteroGraph, labels: dict[str, int], scenario: int,
                        seeds: dict[str, float], taken: tuple[str, ...] = (),
                        depth: int = 1) -> dict[str, float]:
    """Scenario composition, fully re-derived over the DFS scorer."""
    groups: dict[int, dict[str, float]] = {}
    for job, weight in seeds.items():
        groups.setdefault(labels[job], {})[job] = weight
    total: dict[str, float] = {}

    def add(part: dict[str, float]) -> None:
        for node, score in part.items():
            total[node] = total.get(node, 0.0) + score

    for comm, group in sorted(groups.items()):
        if scenario in (1, 2):
            base = ref_score_metapath(g, BASE_STEPS, group, labels, comm)
            add(base)
            frontier = dict(base)
            for _ in range(depth):
                nxt: dict[str, float] = {}
                for course, score in frontier.items():
                    for prereq, weight in out_edges(g, course, Relation.PRE_REQUIRED):
                        nxt[prereq] = nxt.get(prereq, 0.0) + score * weight
                add(nxt)
                frontier = nxt
                if not frontier:
                    break
            if scenario == 2:
                tseeds = {c: 1.0 / len(taken) for c in taken}
                add(ref_score_metapath(g, TAKEN_STEPS, tseeds, labels, comm))
        else:
            add(ref_score_metapath(g, UPSKILL_STEPS, group, labels, comm))
    if scenario == 2:
        for course in taken:
            total.pop(course, None)
    return {node: score for node, score in total.items() if score > 0.0}


def eager_provenance(labels, inp: ScenarioInput, seeds: Seeds, depth: int = 1) -> Provenance:
    """``recommend``'s provenance with every community group walked: seeds
    grouped one at a time by label, each group a ``Seeds`` of its own, each
    group's base from ``score_metapath`` whether or not its walk can reach a
    course, and the prerequisite hops of the non-empty scenario 1/2 bases
    added in community order."""
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    members: dict[int, list[int]] = {}
    for i, node_id in enumerate(seeds):
        members.setdefault(labels[node_id], []).append(i)
    prov = Provenance()
    prereq = None
    for community in sorted(members):
        at = np.asarray(members[community], dtype=np.int64)
        group = prov.seeds[community] = Seeds(seeds.index, seeds.pos[at], seeds.weight[at],
                                              seeds.kind)
        base = prov.base[community] = score_metapath(path, group, labels, community)
        if inp.scenario != 3 and base:
            extra = prerequisite_expansion(base, depth).vector
            prereq = extra.copy() if prereq is None else prereq + extra
    if prereq is not None:
        prov.prereq = Scores(prereq, CommunityEdges(seeds.index, Labels({})).frame(None))
    return prov


# ---------------------------------------------------------------------------
# the query path over dense vectors: every walk scatters into the whole graph
# ---------------------------------------------------------------------------

def dense_gated_edges(index: GraphIndex, labels, path, community: int,
                      entered: bool = False):
    """Each step's edges over the whole graph as (from, to, weight) in edge
    order, None as soon as a step has none: a restricted step's that land in
    ``community``, an unrestricted step's after one (or first, when the input
    has ``entered`` it) that leave it, any other step's all."""
    inside = np.array([labels.get(node) == community for node in index.ids], dtype=bool)
    out = []
    for step in path.steps:
        src, dst, wgt = index.rel_edges[step.relation]
        frm, to = (dst, src) if step.reverse else (src, dst)
        if step.community_restricted or entered:
            keep = inside[to] if step.community_restricted else inside[frm]
            frm, to, wgt = frm[keep], to[keep], wgt[keep]
        if not len(wgt):
            return None
        out.append((frm, to, wgt))
        entered = step.community_restricted
    return out


def dense_walk(index: GraphIndex, steps, vector: np.ndarray) -> np.ndarray:
    for frm, to, wgt in steps:
        vector = np.bincount(to, weights=wgt * vector[frm], minlength=index.n)
    return vector


@dataclass
class DenseQuery:
    """``scenario_scores`` as dense vectors over the index: the total, each
    group's base (None when its walk cannot reach a course) and the summed
    prerequisite hops (None when no hop ran)."""

    total: np.ndarray | None
    base: dict[int, np.ndarray | None]
    prereq: np.ndarray | None


def dense_scenario_scores(labels, inp: ScenarioInput, seeds: Seeds,
                          depth: int = 1) -> DenseQuery:
    """The scenario scores with every walk, hop and sum over n-length
    vectors of the whole graph, where the package uses community frames:
    groups by label in ascending order, each group's routes added in the order
    base, prerequisite hop, taken-course walk, and the taken courses zeroed
    last. The first prerequisite hop leaves the group's community, the
    deeper levels take every edge."""
    index = seeds.index
    path = UPSKILL_PATH if inp.scenario == 3 else BASE_PATH
    members: dict[int, list[int]] = {}
    for i, node_id in enumerate(seeds):
        members.setdefault(labels[node_id], []).append(i)
    taken = [index.pos[course] for course in inp.taken_courses]
    hop = MetaPath((MetaPathStep(Relation.PRE_REQUIRED),))
    every_prereq = [index.rel_edges[Relation.PRE_REQUIRED]]
    total = prereq = None
    bases: dict[int, np.ndarray | None] = {}

    def add(acc, part):
        return part.copy() if acc is None else acc + part

    for community in sorted(members):
        at = np.asarray(members[community], dtype=np.int64)
        steps = dense_gated_edges(index, labels, path, community)
        bases[community] = None
        if steps is not None:
            vector = np.zeros(index.n)
            vector[seeds.pos[at]] = seeds.weight[at]
            base = dense_walk(index, steps, vector)
            if not seeds.weight[at].min() >= 0.0:
                base = np.fmax(base, 0.0)
            bases[community] = base
            total = add(total, base)
            first = dense_gated_edges(index, labels, hop, community, entered=True)
            if inp.scenario != 3 and (base > 0.0).any() and depth and first is not None:
                level = extra = dense_walk(index, first, base)
                for _ in range(depth - 1):
                    level = dense_walk(index, every_prereq, level)
                    extra = extra + level
                total = add(total, extra)
                prereq = add(prereq, extra)
        steps = dense_gated_edges(index, labels, TAKEN_PATH, community) if taken else None
        if steps is not None:
            vector = np.zeros(index.n)
            vector[taken] = 1.0 / len(taken)
            total = add(total, dense_walk(index, steps, vector))
    if total is not None and taken:
        total[taken] = 0.0
    return DenseQuery(total, bases, prereq)


# ---------------------------------------------------------------------------
# walk inputs built by hand on the graph as it is now, with no checks
# ---------------------------------------------------------------------------

def seeds_on(g: HeteroGraph, weights: dict[str, float], kind: NodeKind) -> Seeds:
    """``weights`` as ``Seeds`` of ``kind`` nodes on ``g``'s current index, in
    the mapping's order; neither a seed's kind nor its weight is checked."""
    index = g.cached(GraphIndex)
    return Seeds(index, np.asarray([index.pos[node] for node in weights], dtype=np.int64),
                 np.asarray(list(weights.values()), dtype=np.float64), kind)


def scores_on(g: HeteroGraph, scores: dict[str, float]) -> Scores:
    """``scores`` as ``Scores`` on ``g``'s current index, in its whole-graph
    frame (the frame of no community)."""
    index = g.cached(GraphIndex)
    vector = np.zeros(index.n)
    for node_id, score in scores.items():
        vector[index.pos[node_id]] = score
    return Scores(vector, CommunityEdges(index, Labels({})).frame(None))


# ---------------------------------------------------------------------------
# job-title resolution by a scan of every job
# ---------------------------------------------------------------------------

def ref_resolve_job_query(g: HeteroGraph, text: str) -> dict[str, float]:
    """Every job whose title tokens hold the query tokens as a contiguous
    run, in id order with uniform weight; empty when none does."""
    query = tokenize(text)
    k = len(query)
    matches = []
    for job_id in g.node_ids(NodeKind.JOB):
        title = tokenize(g.node_name(job_id))
        if any(title[i:i + k] == query for i in range(len(title) - k + 1)):
            matches.append(job_id)
    return {job_id: 1.0 / len(matches) for job_id in matches}


# ---------------------------------------------------------------------------
# career graph, one loop per mode
# ---------------------------------------------------------------------------

def ref_build_career_graph(jobs, aggregate_by_title: bool = False) -> HeteroGraph:
    """Per posting: weight 1/d over its d skills. By title: postings grouped by
    normalized title, weight = skill frequency over the group. No title may
    normalize to nothing, whose node would be named ``""``."""
    g = HeteroGraph()
    if aggregate_by_title:
        groups: dict[str, list] = {}
        for job in jobs:
            groups.setdefault(" ".join(tokenize(job.title)), []).append(job)
        for title in sorted(groups):
            node_id = "_".join(title.split()) or "untitled"
            g.add_node(node_id, NodeKind.JOB, title)
            counts: dict[str, int] = {}
            for job in groups[title]:
                for sid in job.skills:
                    counts[sid] = counts.get(sid, 0) + 1
            denom = sum(counts.values())
            for sid in sorted(counts):
                g.add_node(sid, NodeKind.SKILL, sid)
                g.add_edge(node_id, Relation.REQUIRED, sid, counts[sid] / denom)
        return g
    for job in jobs:
        g.add_node(job.id, NodeKind.JOB, job.title)
        d = len(job.skills)
        for sid in sorted(job.skills):
            g.add_node(sid, NodeKind.SKILL, sid)
            g.add_edge(job.id, Relation.REQUIRED, sid, 1.0 / d)
    return g


# ---------------------------------------------------------------------------
# graph construction one node and one row at a time
# ---------------------------------------------------------------------------
# The builders add rows in bulk (``HeteroGraph._add_rows``) and each distinct
# node once. These add every node and row through ``add_node`` and
# ``add_row`` alone, in the order the builders document, so that both must
# give the same snapshot, names and first error message.

def rowwise_education_graph(courses, enrollments, catalog=None) -> HeteroGraph:
    """Every course node; then per course its skill nodes and covered row
    (1/d each); then per course, in id order, its pre-required row: for each
    other course, the share of the distinct students who took it in a
    strictly earlier term than some term of theirs in this course."""
    if len({c.id for c in courses}) < len(courses):
        raise GraphError("duplicate course ids")
    names = {s.id: s.name for s in catalog or ()}
    g = HeteroGraph()
    for c in courses:
        g.add_node(c.id, NodeKind.COURSE, c.name)
    for c in courses:
        for sid in sorted(c.skills):
            g.add_node(sid, NodeKind.SKILL, names.get(sid))
        g.add_row(c.id, Relation.COVERED, {sid: 1.0 / len(c.skills) for sid in sorted(c.skills)})
    known = {c.id for c in courses}
    before: set[tuple[str, str, str]] = set()  # (student, later course, earlier course)
    for a in enrollments:
        for b in enrollments:
            if (a.student == b.student and a.course != b.course and a.term < b.term
                    and {a.course, b.course} <= known):
                before.add((a.student, b.course, a.course))
    counts: dict[str, dict[str, int]] = {}
    for _student, later, earlier in before:
        row = counts.setdefault(later, {})
        row[earlier] = row.get(earlier, 0) + 1
    for ci in sorted(counts):
        total = sum(counts[ci].values())
        g.add_row(ci, Relation.PRE_REQUIRED,
                  {cj: n / total for cj, n in sorted(counts[ci].items())})
    return g


def rowwise_career_graph(jobs, aggregate_by_title: bool = False) -> HeteroGraph:
    """Per posting (or per normalized title, in first-seen order): its node,
    then its skill nodes in id order, then its required row of skill
    frequencies."""
    if len({j.id for j in jobs}) < len(jobs):
        raise GraphError("duplicate job ids")
    for j in jobs:
        if not j.skills:
            raise GraphError(f"job {j.id!r} has no skills")
    groups: dict[str, tuple[str, list]] = {}
    for j in jobs:
        tokens = tokenize(j.title)
        key, name = (("_".join(tokens) or "untitled", " ".join(tokens) or "untitled")
                     if aggregate_by_title else (j.id, j.title))
        groups.setdefault(key, (name, []))[1].append(j)
    g = HeteroGraph()
    for node_id, (name, postings) in groups.items():
        g.add_node(node_id, NodeKind.JOB, name)
        counts: dict[str, int] = {}
        for j in postings:
            for sid in j.skills:
                counts[sid] = counts.get(sid, 0) + 1
        for sid in sorted(counts):
            g.add_node(sid, NodeKind.SKILL)
        total = sum(counts.values())
        g.add_row(node_id, Relation.REQUIRED, {sid: counts[sid] / total for sid in sorted(counts)})
    return g


def rowwise_merge_graphs(education: HeteroGraph, career: HeteroGraph) -> HeteroGraph:
    """Both graphs' union ids first (a skill is its name's key, which may
    not be empty), then their nodes in id order, then per graph, relation
    and source in id order one row whose targets the renaming fuses have
    their weights added in target order."""
    union = []
    for g in (education, career):
        ids = {}
        for node_id in g.node_ids():
            ids[node_id] = _union_id(g, node_id)
            if not ids[node_id]:
                raise GraphError(f"skill {node_id!r} normalizes to an empty key")
        union.append(ids)
    merged = HeteroGraph()
    for g, ids in zip((education, career), union):
        for node_id in g.node_ids():
            kind = g.node_kind(node_id)
            merged.add_node(ids[node_id], kind,
                            ids[node_id] if kind is NodeKind.SKILL else g.node_name(node_id))
    for g, ids in zip((education, career), union):
        for relation in Relation:
            for source in sorted(g._out[relation]):
                row: dict[str, float] = {}
                for target, weight in out_edges(g, source, relation):
                    row[ids[target]] = row.get(ids[target], 0.0) + weight
                merged.add_row(ids[source], relation, row)
    return merged


def rowwise_read_snapshot(path) -> HeteroGraph:
    """A snapshot read line by line, twice: nodes and line shapes first, then
    each edge through ``add_edge``, then the weight sums. Errors name the
    file and line as ``read_snapshot``'s do."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    kinds = {k.value: k for k in NodeKind}
    relations = {r.value: r for r in Relation}

    def decode(token: str) -> str:
        return token.replace("%20", " ").replace("%25", "%")

    g = HeteroGraph()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(" ")
        try:
            if parts[0] == "N" and len(parts) == 3 and parts[1] and parts[2] in kinds:
                g.add_node(decode(parts[1]), kinds[parts[2]])
            elif line.strip() and not (parts[0] == "E" and len(parts) == 5 and parts[1]
                                       and parts[3] and parts[2] in relations):
                raise GraphError(f"unparseable snapshot line {line!r}")
        except GraphError as exc:
            raise GraphError(f"{path}: line {lineno}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(" ")
        if parts[0] != "E" or len(parts) != 5:
            continue
        try:
            weight = float(parts[4])
        except ValueError:
            weight = math.nan
        try:
            text = parts[4]
            if (not math.isfinite(weight) or not text.isascii() or text != text.strip()
                    or "_" in text):
                raise GraphError(f"bad edge weight {parts[4]!r}")
            g.add_edge(decode(parts[1]), relations[parts[2]], decode(parts[3]), weight)
        except GraphError as exc:
            raise GraphError(f"{path}: line {lineno}: {exc}") from None
    try:
        g.validate()
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None
    return g


# ---------------------------------------------------------------------------
# graph and partition merge, edge by edge and pair by pair
# ---------------------------------------------------------------------------

def _union_id(g: HeteroGraph, node_id: str) -> str:
    if g.node_kind(node_id) is NodeKind.SKILL:
        return "_".join(tokenize(g.node_name(node_id)))
    return node_id


def ref_merge_graphs(education: HeteroGraph, career: HeteroGraph) -> HeteroGraph:
    """Both graphs' nodes under their union ids (a skill is its name's key),
    and every renamed edge's weight summed in ``edges`` order, education
    first, then added once."""
    merged = HeteroGraph()
    totals: dict[tuple[str, Relation, str], float] = {}
    for g in (education, career):
        for node_id in g.node_ids():
            union_id = _union_id(g, node_id)
            kind = g.node_kind(node_id)
            merged.add_node(union_id, kind,
                            union_id if kind is NodeKind.SKILL else g.node_name(node_id))
    for g in (education, career):
        for source, relation, target, weight in edges(g):
            key = (_union_id(g, source), relation, _union_id(g, target))
            totals[key] = totals.get(key, 0.0) + weight
    for (source, relation, target), weight in totals.items():
        merged.add_edge(source, relation, target, weight)
    return merged


def ref_merge_partitions(edu_part, edu_graph: HeteroGraph,
                         car_part, car_graph: HeteroGraph) -> dict[str, int]:
    """Intersect the skill-key sets of every (education, career) community
    pair, match pairs greedily by descending overlap (ties to the lower
    education, then career id), then number the unmatched communities,
    education first. A node takes its community's label; a union id that
    both sides hold keeps the education label."""
    def keys(part, g):
        out: dict[int, set[str]] = {}
        for node_id in g.node_ids(NodeKind.SKILL):
            out.setdefault(part.assignment[node_id], set()).add(_union_id(g, node_id))
        return out

    edu_keys, car_keys = keys(edu_part, edu_graph), keys(car_part, car_graph)
    pairs = sorted((-len(edu_keys[e] & car_keys[c]), e, c)
                   for e in edu_keys for c in car_keys if edu_keys[e] & car_keys[c])
    edu_label: dict[int, int] = {}
    car_label: dict[int, int] = {}
    for _neg, e, c in pairs:
        if e not in edu_label and c not in car_label:
            edu_label[e] = car_label[c] = len(edu_label)
    label_count = len(edu_label)
    for part, label in ((edu_part, edu_label), (car_part, car_label)):
        for m in range(part.num_communities):
            if m not in label:
                label[m] = label_count
                label_count += 1
    labels: dict[str, int] = {}
    for g, part, label in ((edu_graph, edu_part, edu_label), (car_graph, car_part, car_label)):
        for node_id in g.node_ids():
            labels.setdefault(_union_id(g, node_id), label[part.assignment[node_id]])
    return labels


# ---------------------------------------------------------------------------
# course-skill matching and skill linking by exhaustive scans
# ---------------------------------------------------------------------------

def ref_match_course_skills(course, catalog) -> set[str]:
    """Slide every catalog skill over the course's token stream, longest
    phrase first (ties by id), claiming each free contiguous occurrence."""
    if not catalog:
        raise IngestError("skill catalog is empty")
    stream = tokenize(course.name) + tokenize(course.description)
    consumed = [False] * len(stream)
    matched: set[str] = set()
    for skill in sorted(catalog, key=lambda s: (-len(tokenize(s.name)), s.id)):
        pattern = tokenize(skill.name)
        k = len(pattern)
        if k == 0 or k > len(stream):
            continue
        i = 0
        while i + k <= len(stream):
            if stream[i:i + k] == pattern and not any(consumed[i:i + k]):
                consumed[i:i + k] = [True] * k
                matched.add(skill.id)
                i += k
            else:
                i += 1
    return matched


def _ref_idf(n_docs: int, df: int) -> float:
    """The +1-inside-log idf, so it is never negative."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


@dataclass(frozen=True)
class RefCorpusStats:
    """One community's BM25 statistics over its members' token tuples."""
    n_docs: int
    df: dict[str, int]
    avgdl: float

    @classmethod
    def from_documents(cls, docs: list[tuple[str, ...]]) -> "RefCorpusStats":
        df: Counter[str] = Counter()
        for doc in docs:
            df.update(set(doc))
        return cls(n_docs=len(docs), df=dict(df), avgdl=sum(len(d) for d in docs) / len(docs))

    @cached_property
    def idf(self) -> dict[str, float]:
        return {token: _ref_idf(self.n_docs, df) for token, df in self.df.items()}


def ref_bm25(query, doc: tuple[str, ...], stats: RefCorpusStats,
             params: Bm25Params = Bm25Params()) -> float:
    """Okapi score of one document for one query, with the +1-inside-log
    idf, so results are never negative.

    A token outside the corpus takes the idf of ``df = 0``."""
    tf = Counter(doc)
    idfs = stats.idf
    norm = params.k1 * (1.0 - params.b + params.b * len(doc) / stats.avgdl)
    score = 0.0
    for token in query:
        f = tf.get(token, 0)
        if f == 0:
            continue
        idf = idfs.get(token)
        if idf is None:
            idf = _ref_idf(stats.n_docs, 0)
        score += idf * (f * (params.k1 + 1.0)) / (f + norm)
    return score


def ref_link_skills(g: HeteroGraph, communities: dict[str, int], params=None,
                    top_k: int = 10) -> list[tuple[str, str, float, float]]:
    """Score every ordered pair of distinct same-community skills with
    ``ref_bm25`` and keep each source's top-k positive scores, renormalised,
    as (source, target, raw_score, weight)."""
    params = params or Bm25Params()
    by_community: dict[int, list[str]] = {}
    for sid in g.node_ids(NodeKind.SKILL):
        by_community.setdefault(communities[sid], []).append(sid)
    records = []
    for community in sorted(by_community):
        members = by_community[community]
        if len(members) < 2:
            continue
        docs = {sid: tuple(tokenize(g.node_name(sid))) for sid in members}
        stats = RefCorpusStats.from_documents([docs[sid] for sid in members])
        for source in members:
            scored = []
            for target in members:
                if target == source:
                    continue
                raw = ref_bm25(docs[source], docs[target], stats, params)
                if raw > 0.0:
                    scored.append((-raw, target))
            scored.sort()
            kept = scored[:top_k]
            total = math.fsum(-neg for neg, _ in kept)
            records.extend((source, target, -neg, -neg / total) for neg, target in kept)
    return records


# ---------------------------------------------------------------------------
# random graphs for oracle-vs-implementation sweeps
# ---------------------------------------------------------------------------

def flow_isolated_nodes(g: HeteroGraph) -> list[str]:
    """Nodes with no edges in any relation, either direction.

    Such nodes have no neighboring community, so neighbor-limited greedy
    detection must leave them as singletons even when teleport flow would
    make a merge cheaper; optimality claims exclude them.
    """
    touched = set()
    for source, _relation, target, _weight in edges(g):
        touched.update((source, target))
    return [node for node in g.node_ids() if node not in touched]


def ref_components(g: HeteroGraph) -> dict[str, int]:
    """Each node's connected component over every edge, either direction,
    numbered by first appearance over sorted node ids."""
    adjacent: dict[str, set[str]] = {node: set() for node in g.node_ids()}
    for source, _relation, target, _weight in edges(g):
        adjacent[source].add(target)
        adjacent[target].add(source)
    component: dict[str, int] = {}
    count = 0
    for start in sorted(adjacent):
        if start in component:
            continue
        label = component[start] = count
        count += 1
        stack = [start]
        while stack:
            for node in adjacent[stack.pop()]:
                if node not in component:
                    component[node] = label
                    stack.append(node)
    return component


# skill names whose keys collide ("SQL" and "sql" are both ``sql``)
COLLIDING_SKILL_NAMES = ["SQL", "sql", "Sql", "data-base", "Data_Base", "data base",
                         "python", "Python!", "ML-Ops", "ml ops", "r", "R"]


def random_domain_graphs(rng: np.random.Generator, aggregate_by_title: bool = False,
                         ) -> tuple[HeteroGraph, HeteroGraph]:
    """A small education graph (catalog skills named from
    ``COLLIDING_SKILL_NAMES``, random enrollments) and career graph (raw job
    skills drawn from the same names), so that a course or a job often holds
    two skills with one key."""
    names = COLLIDING_SKILL_NAMES
    catalog = [Skill(f"SK{i}", name) for i, name in enumerate(names)]
    courses = []
    for i in range(int(rng.integers(1, 9))):
        picked = rng.choice(len(catalog), size=int(rng.integers(0, 5)), replace=False)
        courses.append(Course(id=f"C{i}", name=f"course {i}", description="",
                              skills=frozenset(catalog[int(k)].id for k in picked)))
    enrollments = [EnrollmentRecord(f"s{int(rng.integers(0, 6))}",
                                    courses[int(rng.integers(0, len(courses)))].id,
                                    int(rng.integers(0, 4)))
                   for _ in range(int(rng.integers(0, 25)))]
    titles = ["engineer", "Senior engineer", "analyst", "lead analyst"]
    jobs = [Job(id=f"J{i}", title=str(rng.choice(titles)), company="", location="",
                skills=frozenset(rng.choice(names, size=int(rng.integers(1, 6)),
                                            replace=False).tolist()))
            for i in range(int(rng.integers(1, 9)))]
    return (build_education_graph(courses, enrollments, catalog=catalog),
            build_career_graph(jobs, aggregate_by_title=aggregate_by_title))


def random_hetero_graph(rng: np.random.Generator, max_nodes: int = 50,
                        n_labels: int = 2) -> tuple[HeteroGraph, dict[str, int]]:
    """Random typed graph (normalized weights) plus random community labels."""
    from skillgraph.graph import NodeKind

    n_courses = int(rng.integers(2, 11))
    n_jobs = int(rng.integers(1, 7))
    n_skills = int(rng.integers(2, 13))
    while n_courses + n_jobs + n_skills > max_nodes:
        n_skills -= 1
    g = HeteroGraph()
    courses = [f"C{i}" for i in range(n_courses)]
    jobs = [f"J{i}" for i in range(n_jobs)]
    skills = [f"S{i}" for i in range(n_skills)]
    for c in courses:
        g.add_node(c, NodeKind.COURSE)
    for j in jobs:
        g.add_node(j, NodeKind.JOB)
    for s in skills:
        g.add_node(s, NodeKind.SKILL)

    def add_normalized(source: str, relation: Relation, pool: list[str]) -> None:
        count = int(rng.integers(1, min(5, len(pool)) + 1))
        targets = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
        raws = rng.uniform(0.2, 1.0, size=count)
        total = raws.sum()
        for t, raw in zip(targets, raws):
            g.add_edge(source, relation, pool[t], float(raw / total))

    for c in courses:
        if rng.random() < 0.9:
            add_normalized(c, Relation.COVERED, skills)
        others = [x for x in courses if x != c]
        if others and rng.random() < 0.7:
            add_normalized(c, Relation.PRE_REQUIRED, others)
    for j in jobs:
        add_normalized(j, Relation.REQUIRED, skills)
    for s in skills:
        others = [x for x in skills if x != s]
        if others and rng.random() < 0.85:
            add_normalized(s, Relation.LINKED, others)
    g.validate()
    labels = {node_id: int(rng.integers(0, n_labels)) for node_id in g.node_ids()}
    return g, labels
