from __future__ import annotations

import math
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillgraph.community import compute_flow, detect_communities, map_equation
from skillgraph import errors, kernels
from skillgraph.errors import GraphError
from skillgraph import graph
from skillgraph.graph import (GraphIndex, HeteroGraph, NodeKind, Relation, _prereq_rows,
                              _snapshot_text, build_career_graph, build_education_graph,
                              merge_graphs, read_snapshot, skill_key, write_snapshot)
from skillgraph.ingest import Course, EnrollmentRecord, Job, Skill
from skillgraph.ranker import BASE_PATH, prerequisite_expansion, score_metapath

from oracles import (edges, out_edges, random_domain_graphs, random_hetero_graph,
                     ref_build_career_graph, ref_merge_graphs, rowwise_career_graph,
                     rowwise_education_graph, rowwise_merge_graphs, rowwise_read_snapshot,
                     scores_on, seeds_on)


# every line end ``str.splitlines`` knows, and a \r\n pair
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


def snapshot_lines(g):
    """The lines ``write_snapshot`` writes for ``g``, in written order."""
    return "".join(_snapshot_text(g)).splitlines()


def prereq_counts(enrollments):
    """``_prereq_rows`` as one count per ``(ci, cj)`` pair."""
    return {(ci, cj): n for ci, row in _prereq_rows(enrollments).items() for cj, n in row.items()}


def course(cid, skills=(), name=None):
    return Course(id=cid, name=name or cid, description="", skills=frozenset(skills))


class TestEducationGraph:
    def test_cover_weights_split_evenly(self):
        g = build_education_graph([course("C1", {"S1", "S2"})], [])
        assert out_edges(g, "C1", Relation.COVERED) == [("S1", 0.5), ("S2", 0.5)]

    def test_single_skill_weight_one(self):
        g = build_education_graph([course("C1", {"S1"})], [])
        assert out_edges(g, "C1", Relation.COVERED) == [("S1", 1.0)]

    def test_shared_skill_dedup(self):
        g = build_education_graph([course("C1", {"S1"}), course("C2", {"S1"})], [])
        assert g.node_ids(NodeKind.SKILL) == ["S1"]
        assert out_edges(g, "C1", Relation.COVERED) == [("S1", 1.0)]
        assert out_edges(g, "C2", Relation.COVERED) == [("S1", 1.0)]

    def test_zero_skill_course_kept(self):
        g = build_education_graph([course("C1")], [])
        assert g.node_ids(NodeKind.COURSE) == ["C1"]

    def test_unknown_enrollment_course_skipped(self, caplog):
        recs = [EnrollmentRecord("s1", "C1", 0), EnrollmentRecord("s1", "CX", 1)]
        with caplog.at_level("WARNING"):
            g = build_education_graph([course("C1")], recs)
        assert "skipped 1" in caplog.text
        assert g.node_ids() == ["C1"]


    def test_duplicate_course_ids_rejected(self):
        with pytest.raises(GraphError, match="duplicate course ids"):
            build_education_graph([course("C1", ["S1"]), course("C1", ["S2"])], [])


class TestPrereqCounts:
    def test_three_student_log(self):
        recs = [EnrollmentRecord("s1", "C2", 0), EnrollmentRecord("s1", "C1", 1),
                EnrollmentRecord("s2", "C2", 0), EnrollmentRecord("s2", "C1", 1),
                EnrollmentRecord("s3", "C3", 0), EnrollmentRecord("s3", "C1", 1)]
        pair = prereq_counts(recs)
        assert pair[("C1", "C2")] == 2
        assert pair[("C1", "C3")] == 1
        g = build_education_graph([course(c) for c in ("C1", "C2", "C3")], recs)
        assert out_edges(g, "C1", Relation.PRE_REQUIRED) == [("C2", 2 / 3), ("C3", 1 / 3)]

    def test_single_enrollment_no_edges(self):
        assert prereq_counts([EnrollmentRecord("s1", "C1", 0)]) == {}

    def test_same_term_counts_neither_direction(self):
        recs = [EnrollmentRecord("s1", "C1", 0), EnrollmentRecord("s1", "C2", 0)]
        assert prereq_counts(recs) == {}

    def test_retake_does_not_self_count(self):
        recs = [EnrollmentRecord("s1", "C1", 0), EnrollmentRecord("s1", "C1", 1)]
        assert prereq_counts(recs) == {}

    def test_multi_prereq_renormalizes(self):
        # one student precedes C1 with two courses: raw ratios sum to 2
        recs = [EnrollmentRecord("s1", "C2", 0), EnrollmentRecord("s1", "C3", 0),
                EnrollmentRecord("s1", "C1", 1)]
        g = build_education_graph([course(c) for c in ("C1", "C2", "C3")], recs)
        assert out_edges(g, "C1", Relation.PRE_REQUIRED) == [("C2", 0.5), ("C3", 0.5)]


class TestCareerGraph:
    def test_three_skills_uniform(self):
        g = build_career_graph([Job(id="J1", title="t", company="", location="",
                                    skills=frozenset({"S1", "S2", "S3"}))])
        assert out_edges(g, "J1", Relation.REQUIRED) == [
            ("S1", 1 / 3), ("S2", 1 / 3), ("S3", 1 / 3)]

    def test_single_skill(self):
        g = build_career_graph([Job(id="J1", title="t", company="", location="",
                                    skills=frozenset({"S1"}))])
        assert out_edges(g, "J1", Relation.REQUIRED) == [("S1", 1.0)]

    def test_shared_skill_one_node(self):
        jobs = [Job(id="J1", title="t", company="", location="", skills=frozenset({"S1"})),
                Job(id="J2", title="t", company="", location="", skills=frozenset({"S1"}))]
        g = build_career_graph(jobs)
        assert g.node_ids(NodeKind.SKILL) == ["S1"]
        assert out_edges(g, "J1", Relation.REQUIRED) == [("S1", 1.0)]
        assert out_edges(g, "J2", Relation.REQUIRED) == [("S1", 1.0)]

    def test_aggregate_by_title(self):
        jobs = [Job(id="J1", title="Data Engineer", company="", location="",
                    skills=frozenset({"sql", "python"})),
                Job(id="J2", title="data engineer", company="", location="",
                    skills=frozenset({"sql"}))]
        g = build_career_graph(jobs, aggregate_by_title=True)
        assert g.node_ids(NodeKind.JOB) == ["data_engineer"]
        assert out_edges(g, "data_engineer", Relation.REQUIRED) == [
            ("python", 1 / 3), ("sql", 2 / 3)]

    @pytest.mark.parametrize("aggregate_by_title", [False, True])
    def test_skill_less_job_rejected_in_both_modes(self, aggregate_by_title):
        jobs = [Job(id="J1", title="data engineer", company="c", location="l")]
        with pytest.raises(GraphError, match="job 'J1' has no skills"):
            build_career_graph(jobs, aggregate_by_title=aggregate_by_title)

    @pytest.mark.parametrize("aggregate_by_title", [False, True])
    def test_duplicate_job_ids_rejected(self, aggregate_by_title):
        jobs = [Job(id="J1", title="t", company="", location="", skills=frozenset({"S1"}))] * 2
        with pytest.raises(GraphError, match="duplicate job ids"):
            build_career_graph(jobs, aggregate_by_title=aggregate_by_title)

    def test_empty_and_untitled_titles_share_one_node(self):
        # both titles map to node id 'untitled'; they form one valid node
        jobs = [Job(id="J1", title="untitled", company="", location="",
                    skills=frozenset({"sql"})),
                Job(id="J2", title="!!!", company="", location="",
                    skills=frozenset({"sql", "python"}))]
        for order in (jobs, jobs[::-1]):
            g = build_career_graph(order, aggregate_by_title=True)
            assert g.node_ids(NodeKind.JOB) == ["untitled"]
            assert g.node_name("untitled") == "untitled"
            assert out_edges(g, "untitled", Relation.REQUIRED) == [
                ("python", 1 / 3), ("sql", 2 / 3)]

    @pytest.mark.parametrize("aggregate_by_title", [False, True])
    def test_matches_two_loop_reference(self, aggregate_by_title):
        words = ["Data", "engineer", "ML-Ops", "analyst", "senior", "data_engineer", "C++"]
        seps = [" ", "  ", "/", " - "]
        rng = np.random.default_rng(11)
        for _ in range(40):
            jobs = []
            for i in range(int(rng.integers(1, 12))):
                title = rng.choice(seps).join(
                    rng.choice(words, size=int(rng.integers(1, 4))).tolist())
                skills = rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
                jobs.append(Job(id=f"J{i}", title=str(title), company="", location="",
                                skills=frozenset(f"s{int(k)}" for k in skills)))
            got = build_career_graph(jobs, aggregate_by_title=aggregate_by_title)
            want = ref_build_career_graph(jobs, aggregate_by_title=aggregate_by_title)
            assert got.node_ids() == want.node_ids()
            assert [got.node_name(i) for i in got.node_ids()] == \
                [want.node_name(i) for i in want.node_ids()]
            assert edges(got) == edges(want)


class TestMergeGraphs:
    def test_same_name_skills_fuse(self):
        edu = build_education_graph([course("C1", {"SK1"})], [])
        edu.set_node_name("SK1", "sql")
        car = build_career_graph([Job(id="J1", title="t", company="", location="",
                                      skills=frozenset({"sql"}))])
        merged = merge_graphs(edu, car)
        assert merged.node_ids(NodeKind.SKILL) == ["sql"]
        assert out_edges(merged, "C1", Relation.COVERED) == [("sql", 1.0)]
        assert out_edges(merged, "J1", Relation.REQUIRED) == [("sql", 1.0)]

    def test_disjoint_skills_stay_apart(self):
        edu = build_education_graph([course("C1", {"alpha"})], [])
        car = build_career_graph([Job(id="J1", title="t", company="", location="",
                                      skills=frozenset({"beta"}))])
        merged = merge_graphs(edu, car)
        assert merged.node_ids(NodeKind.SKILL) == ["alpha", "beta"]

    def test_case_variant_edges_add(self):
        car = build_career_graph([Job(id="J1", title="t", company="", location="",
                                      skills=frozenset({"sql", "SQL"}))])
        edu = build_education_graph([course("C1")], [])
        merged = merge_graphs(edu, car)
        assert out_edges(merged, "J1", Relation.REQUIRED) == [("sql", 1.0)]

    def test_course_job_id_collision_rejected(self):
        edu = build_education_graph([course("X1")], [])
        car = build_career_graph([Job(id="X1", title="t", company="", location="",
                                      skills=frozenset({"s"}))])
        with pytest.raises(GraphError, match="X1"):
            merge_graphs(edu, car)

    def test_course_id_equal_to_career_skill_key_rejected(self):
        edu = build_education_graph([course("sql", {"SK1"})], [])
        car = build_career_graph([Job(id="J1", title="t", company="", location="",
                                      skills=frozenset({"SQL"}))])
        with pytest.raises(GraphError, match="'sql' used as both course and skill"):
            merge_graphs(edu, car)

    @pytest.mark.parametrize("aggregate_by_title", [False, True])
    def test_matches_edge_by_edge_reference(self, aggregate_by_title):
        # colliding skill keys make parallel edges, whose weights must add in
        # the same order as an edge-by-edge sum
        rng = np.random.default_rng(19)
        fused = 0
        for _ in range(40):
            edu, car = random_domain_graphs(rng, aggregate_by_title)
            merged = merge_graphs(edu, car)
            want = ref_merge_graphs(edu, car)
            assert snapshot_lines(merged) == snapshot_lines(want)
            assert [merged.node_name(i) for i in merged.node_ids()] == \
                [want.node_name(i) for i in want.node_ids()]
            fused += merged.num_edges() < edu.num_edges() + car.num_edges()
        assert fused

    def test_out_weight_totals_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            jobs = [Job(id=f"J{i}", title="t", company="", location="",
                        skills=frozenset({f"s{int(k)}" for k in rng.integers(0, 6, size=3)}))
                    for i in range(4)]
            courses = [course(f"C{i}", {f"SK{int(k)}" for k in rng.integers(0, 5, size=2)})
                       for i in range(3)]
            edu = build_education_graph(courses, [])
            car = build_career_graph(jobs)
            merged = merge_graphs(edu, car)
            for node in merged.node_ids():
                for rel in Relation:
                    row = out_edges(merged, node, rel)
                    if row:
                        assert abs(sum(w for _t, w in row) - 1.0) <= 1e-9


def built(build, *args):
    """A built graph's snapshot lines and node names, or the error it raised."""
    try:
        g = build(*args)
    except GraphError as exc:
        return None, f"GraphError: {exc}"
    return g, (snapshot_lines(g), [(i, g.node_name(i)) for i in g.node_ids()])


def assert_builds_match_rowwise(courses, enrollments, catalog, jobs) -> list[str]:
    """The bulk builders agree with the one-row-at-a-time oracles on every
    graph of the corpus; returns the errors they raised."""
    outcomes = []
    edu, got = built(build_education_graph, courses, enrollments, catalog)
    ref_edu, want = built(rowwise_education_graph, courses, enrollments, catalog)
    assert got == want
    outcomes.append(got)
    for aggregate in (False, True):
        car, got = built(build_career_graph, jobs, aggregate)
        ref_car, want = built(rowwise_career_graph, jobs, aggregate)
        assert got == want
        outcomes.append(got)
        if edu is not None and car is not None:
            _merged, got = built(merge_graphs, edu, car)
            _ref, want = built(rowwise_merge_graphs, ref_edu, ref_car)
            assert got == want
            outcomes.append(got)
    return [outcome for outcome in outcomes if isinstance(outcome, str)]


# course, job and skill ids drawn from one pool, so that a job id can equal a
# skill id or a skill key ("data_base"), a course id a job id, and a skill
# name can have no key at all ("!!")
_CLASH_IDS = ["C0", "C1", "J0", "J1", "SK0", "sql", "data_base"]
_SKILL_NAMES = ["SQL", "sql", "data base", "Data-Base", "python", "!!"]


@st.composite
def small_corpora(draw):
    catalog = [Skill(f"SK{i}", name) for i, name in
               enumerate(draw(st.lists(st.sampled_from(_SKILL_NAMES), max_size=4)))]
    skill_ids = [s.id for s in catalog] + ["J1", "C1", "x"]
    course_ids = draw(st.lists(st.sampled_from(_CLASH_IDS), min_size=1, max_size=4))
    courses = [course(cid, draw(st.lists(st.sampled_from(skill_ids), max_size=3)))
               for cid in course_ids]
    enrollments = draw(st.lists(st.builds(EnrollmentRecord, st.sampled_from(["s0", "s1", "s2"]),
                                          st.sampled_from(course_ids + ["CX"]),
                                          st.integers(0, 3)), max_size=12))
    job_skills = st.lists(st.sampled_from(_SKILL_NAMES + _CLASH_IDS), max_size=3)
    jobs = [Job(id=jid, title=draw(st.sampled_from(["engineer", "Senior engineer", "!"])),
                company="", location="", skills=frozenset(draw(job_skills)))
            for jid in draw(st.lists(st.sampled_from(_CLASH_IDS), min_size=1, max_size=4))]
    return courses, enrollments, catalog, jobs


@settings(max_examples=200, deadline=None)
@given(small_corpora())
def test_bulk_builders_match_the_rowwise_oracles(corpus):
    assert_builds_match_rowwise(*corpus)


def _job(jid, *skills, title="t"):
    return Job(id=jid, title=title, company="", location="", skills=frozenset(skills))


@pytest.mark.parametrize("courses, jobs, message", [
    # a job id equal to another job's skill id, either way round
    ([course("C0")], [_job("J0", "sql"), _job("sql", "python")],
     "node id 'sql' used as both skill and job"),
    ([course("C0")], [_job("sql", "python"), _job("J0", "sql")],
     "node id 'sql' used as both job and skill"),
    # a job id equal to the key of a skill named in either corpus
    ([course("C0")], [_job("data_base", "python"), _job("J0", "data base")],
     "node id 'data_base' used as both skill and job"),
    ([course("C0", ["SK0"])], [_job("sql", "python")],
     "node id 'sql' used as both skill and job"),
    # a course id equal to a job id
    ([course("J0", ["SK0"])], [_job("J0", "python")], "node id 'J0' used as both course and job"),
])
def test_id_clashes_raise_the_rowwise_message(courses, jobs, message):
    errors = assert_builds_match_rowwise(courses, [], [Skill("SK0", "SQL")], jobs)
    assert errors and all(e == f"GraphError: {message}" for e in errors)


_ROW_TARGETS = ["J1", "C1", "S1", "S2", "S3", "ghost"]
_ROW_WEIGHTS = [0.25, 0.5, 1.0, 0.0, -0.5, math.inf, math.nan, 1e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["J1", "C1", "S1", "ghost"]), st.sampled_from(Relation),
                          st.dictionaries(st.sampled_from(_ROW_TARGETS),
                                          st.sampled_from(_ROW_WEIGHTS), max_size=3)),
                max_size=6))
def test_add_rows_is_add_row_in_turn(rows):
    bulk, rowwise = _job_graph(), _job_graph()
    try:
        bulk._add_rows([(source, relation, dict(row)) for source, relation, row in rows])
        got = None
    except GraphError as exc:
        got = str(exc)
    try:
        for source, relation, row in rows:
            rowwise.add_row(source, relation, row)
        want = None
    except GraphError as exc:
        want = str(exc)
    assert got == want
    assert edges(bulk) == edges(rowwise)


def test_add_edge_rejects_duplicates_and_has_no_combine_mode():
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB)
    g.add_node("S1", NodeKind.SKILL)
    g.add_edge("J1", Relation.REQUIRED, "S1", 0.5)
    with pytest.raises(GraphError, match="duplicate edge J1-r->S1"):
        g.add_edge("J1", Relation.REQUIRED, "S1", 0.5)
    with pytest.raises(TypeError):
        g.add_edge("J1", Relation.REQUIRED, "S1", 0.5, combine=True)
    assert out_edges(g, "J1", Relation.REQUIRED) == [("S1", 0.5)]


def _job_graph():
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB)
    g.add_node("C1", NodeKind.COURSE)
    for sid in ("S1", "S2", "S3"):
        g.add_node(sid, NodeKind.SKILL)
    return g


@pytest.mark.parametrize("existing", [{}, {"S3": 0.5}])
@pytest.mark.parametrize("row, bad", [
    ({"S1": 0.5, "C1": 0.5}, ("C1", 0.5)),
    ({"S1": 0.5, "S2": 0.0}, ("S2", 0.0)),
    ({"S1": 0.5, "C1": 0.0}, ("C1", 0.0)),  # the weight is checked before the kind
])
def test_add_row_raises_add_edge_message_and_adds_nothing(existing, row, bad):
    g = _job_graph()
    with pytest.raises(GraphError) as one:
        g.add_edge("J1", Relation.REQUIRED, *bad)
    if existing:
        g.add_row("J1", Relation.REQUIRED, existing)
    view = g.cached(GraphIndex)
    with pytest.raises(GraphError) as whole:
        g.add_row("J1", Relation.REQUIRED, row)
    assert str(whole.value) == str(one.value)
    assert out_edges(g, "J1", Relation.REQUIRED) == sorted(existing.items())
    assert g.cached(GraphIndex) is view  # the graph's version did not move


def test_add_row_onto_an_existing_row_merges_and_rejects_a_repeat():
    g = _job_graph()
    g.add_edge("J1", Relation.REQUIRED, "S1", 0.5)
    g.add_row("J1", Relation.REQUIRED, {"S2": 0.5})
    assert out_edges(g, "J1", Relation.REQUIRED) == [("S1", 0.5), ("S2", 0.5)]
    view = g.cached(GraphIndex)
    with pytest.raises(GraphError, match="^duplicate edge J1-r->S1$"):
        g.add_row("J1", Relation.REQUIRED, {"S3": 0.25, "S1": 0.25})
    assert out_edges(g, "J1", Relation.REQUIRED) == [("S1", 0.5), ("S2", 0.5)]
    assert g.cached(GraphIndex) is view


def test_graph_stats_counts():
    empty = HeteroGraph()
    assert empty.num_nodes() == 0 and empty.num_edges() == 0
    g = build_career_graph([Job(id="J1", title="t", company="", location="",
                                skills=frozenset({"S1", "S2", "S3"}))])
    assert g.node_ids(NodeKind.JOB) == ["J1"]
    assert len(g.node_ids(NodeKind.SKILL)) == 3
    assert g.num_nodes() == 4 and g.num_edges() == 3


def test_combined_transition_matches_dict_reference():
    dangling_seen = False
    for seed in range(15):
        g, _labels = random_hetero_graph(np.random.default_rng(seed))
        index = GraphIndex(g)
        want: dict[tuple[int, int], float] = {}
        for node_id in g.node_ids():
            rels = [rel for rel in Relation if out_edges(g, node_id, rel)]
            for rel in rels:
                for target, weight in out_edges(g, node_id, rel):
                    key = (index.pos[node_id], index.pos[target])
                    want[key] = want.get(key, 0.0) + weight / len(rels)
        src, dst, wgt, dangling = index.walk
        assert list(zip(src.tolist(), dst.tolist())) == sorted(want)
        assert wgt.tolist() == [want[key] for key in sorted(want)]
        assert dangling.tolist() == [not any(out_edges(g, i, rel) for rel in Relation)
                                     for i in index.ids]
        dangling_seen |= bool(dangling.any())
    assert dangling_seen


def test_kind_discipline_enforced():
    g = HeteroGraph()
    g.add_node("C1", NodeKind.COURSE)
    g.add_node("J1", NodeKind.JOB)
    with pytest.raises(GraphError, match="source is not a job"):
        g.add_edge("C1", Relation.REQUIRED, "C1", 1.0)
    with pytest.raises(GraphError, match="target is not a skill"):
        g.add_edge("J1", Relation.REQUIRED, "C1", 1.0)
    with pytest.raises(GraphError, match="non-positive"):
        g.add_edge("J1", Relation.REQUIRED, "C1", 0.0)


def test_unknown_node_rejected_by_set_node_name():
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB)
    with pytest.raises(GraphError, match="unknown node 'J9'"):
        g.set_node_name("J9", "ops")
    assert g.node_ids() == ["J1"]


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
def test_non_finite_or_negative_weight_rejected(weight):
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB)
    g.add_node("S1", NodeKind.SKILL)
    with pytest.raises(GraphError, match="non-finite weight"):
        g.add_edge("J1", Relation.REQUIRED, "S1", weight)
    assert g.num_edges() == 0


def test_validate_rejects_nan_weight_sum():
    # add_edge refuses NaN; a row written behind its back still fails the sum check
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB)
    g.add_node("S1", NodeKind.SKILL)
    g._out[Relation.REQUIRED]["J1"] = {"S1": math.nan}
    with pytest.raises(GraphError, match="sum to nan, not 1"):
        g.validate()


def _use_every_view(g, labels):
    """Flow, codelength, detection and ranking on ``g``, the same as a pipeline run."""
    flow = compute_flow(g)
    map_equation(g, flow, labels)
    detect_communities(g, seed=0)
    map_equation(g, flow, labels)
    score_metapath(BASE_PATH, seeds_on(g, {"J0": 1.0}, NodeKind.JOB), labels, labels["J0"])
    prerequisite_expansion(scores_on(g, {"C0": 1.0}))


def test_index_built_once_per_graph_state(monkeypatch):
    builds = []
    init = GraphIndex.__init__

    def counting_init(self, g):
        builds.append(g)
        init(self, g)

    monkeypatch.setattr(GraphIndex, "__init__", counting_init)
    g, labels = random_hetero_graph(np.random.default_rng(3))
    _use_every_view(g, labels)
    _use_every_view(g, labels)
    assert builds == [g]
    g.add_node("C99", NodeKind.COURSE)
    g.add_edge("C99", Relation.COVERED, "S0", 1.0)
    _use_every_view(g, {**labels, "C99": 0})
    assert builds == [g, g]
    g.set_node_name("J0", "renamed job")
    _use_every_view(g, {**labels, "C99": 0})
    assert builds == [g, g, g]


def test_shared_index_arrays_left_unchanged():
    for seed in range(5):
        g, labels = random_hetero_graph(np.random.default_rng(seed))
        _use_every_view(g, labels)
        shared, fresh = g.cached(GraphIndex), GraphIndex(g)
        assert shared.ids == fresh.ids and shared.pos == fresh.pos
        for rel in Relation:
            for got, want in zip(shared.rel_edges[rel], fresh.rel_edges[rel]):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in zip(shared.walk, fresh.walk):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_skill_key_normalizes():
    assert skill_key("Machine Learning") == "machine_learning"
    assert skill_key("C++") == "c"
    assert skill_key("SQL") == skill_key("sql")


class TestSnapshot:
    def test_round_trip_random_graphs(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(8):
            g, _labels = random_hetero_graph(rng)
            p = tmp_path / f"g{i}.graph"
            write_snapshot(g, p)
            back = read_snapshot(p)
            assert snapshot_lines(back) == snapshot_lines(g)

    def test_lines_read_in_any_order(self, tmp_path):
        # shuffled lines, with node lines before, between and after edge lines
        rng = np.random.default_rng(3)
        for i in range(8):
            g, _labels = random_hetero_graph(rng)
            lines = snapshot_lines(g)
            nodes = [line for line in lines if line.startswith("N ")]
            edge_lines = [line for line in lines if line.startswith("E ")]
            assert len(nodes) >= 3 and len(edge_lines) >= 2
            rng.shuffle(nodes)
            rng.shuffle(edge_lines)
            half = len(edge_lines) // 2
            mixed = nodes[:1] + edge_lines[:half] + nodes[1:-1] + edge_lines[half:] + nodes[-1:]
            p = tmp_path / f"g{i}.graph"
            p.write_text("\n".join(mixed) + "\n")
            assert snapshot_lines(read_snapshot(p)) == lines

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        g, _ = random_hetero_graph(rng)
        a, b = tmp_path / "a", tmp_path / "b"
        write_snapshot(g, a)
        write_snapshot(g, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ids_with_spaces_survive(self, tmp_path):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node("machine learning", NodeKind.SKILL)
        g.add_node("100% uptime", NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, "machine learning", 0.5)
        g.add_edge("J1", Relation.REQUIRED, "100% uptime", 0.5)
        p = tmp_path / "g.graph"
        write_snapshot(g, p)
        back = read_snapshot(p)
        assert back.node_ids(NodeKind.SKILL) == ["100% uptime", "machine learning"]

    def test_encoded_ids_decode_at_both_edge_ends(self, tmp_path):
        g = HeteroGraph()
        for node_id in ("100% a b", "50%20", "c%25 d"):
            g.add_node(node_id, NodeKind.SKILL)
        g.add_edge("100% a b", Relation.LINKED, "50%20", 0.25)
        g.add_edge("100% a b", Relation.LINKED, "c%25 d", 0.75)
        g.add_edge("c%25 d", Relation.LINKED, "100% a b", 1.0)
        p = tmp_path / "g.graph"
        write_snapshot(g, p)
        assert edges(read_snapshot(p)) == edges(g)

    @staticmethod
    def _golden_graph(step):
        # "a b" sorts before "a!" but its encoding "a%20b" sorts after
        nodes = [("J1", NodeKind.JOB), ("C2", NodeKind.COURSE), ("a!", NodeKind.SKILL),
                 ("C1", NodeKind.COURSE), ("a b", NodeKind.SKILL), ("100%", NodeKind.SKILL)]
        edge_specs = [("a b", Relation.LINKED, "a!", 1.0), ("C2", Relation.COVERED, "a!", 2 / 3),
                 ("J1", Relation.REQUIRED, "a b", 1.0), ("C2", Relation.COVERED, "a b", 1 / 3),
                 ("C1", Relation.PRE_REQUIRED, "C2", 1.0), ("C1", Relation.COVERED, "100%", 1.0)]
        g = HeteroGraph()
        for node_id, kind in nodes[::step]:
            g.add_node(node_id, kind)
        for source, relation, target, weight in edge_specs[::step]:
            g.add_edge(source, relation, target, weight)
        return g

    def test_written_bytes_pinned_and_insertion_order_free(self, tmp_path):
        golden = (b"E C1 c 100%25 1\nE C1 p C2 1\nE C2 c a! 0.66666666666666663\n"
                  b"E C2 c a%20b 0.33333333333333331\nE J1 r a%20b 1\nE a%20b l a! 1\n"
                  b"N 100%25 skill\nN C1 course\nN C2 course\nN J1 job\nN a! skill\n"
                  b"N a%20b skill\n")
        for step in (1, -1):
            p = tmp_path / f"g{step}.graph"
            write_snapshot(self._golden_graph(step), p)
            assert p.read_bytes() == golden

    @pytest.mark.parametrize("text, lineno", [
        ("N  course\nN s1 skill\nE  c s1 1\n", 1),
        ("N C1 course\nN s1 skill\nE  c s1 1\n", 3),
        ("N C1 course\nE C1 c  1\n", 2),
    ])
    def test_empty_node_id_rejected(self, tmp_path, text, lineno):
        p = tmp_path / "g.graph"
        p.write_text(text)
        with pytest.raises(GraphError, match=f"line {lineno}: unparseable snapshot line"):
            read_snapshot(p)

    def test_unparseable_line_rejected(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("N C1 course\nX whatever\n")
        with pytest.raises(GraphError, match="line 2"):
            read_snapshot(p)

    def test_undecodable_snapshot_rejected(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_bytes(b"N C1 course\nN caf\xff skill\n")
        with pytest.raises(GraphError, match=r"g\.graph: not UTF-8 text"):
            read_snapshot(p)

    def test_undecodable_byte_past_the_first_block_names_its_file_offset(self, tmp_path):
        # past the 8 KiB the text layer reads and decodes at once
        p = tmp_path / "g.graph"
        head = b"N C1 course\n" * 1000
        p.write_bytes(head + b"N caf\xff skill\n")
        with pytest.raises(GraphError, match=re.escape(
                f"g.graph: not UTF-8 text (invalid start byte at byte {len(head) + 5})")):
            read_snapshot(p)

    @pytest.mark.parametrize("bad_line", [b"X junk\n", b"N C1 skill\n"])
    def test_undecodable_byte_further_on_comes_before_a_bad_line(self, tmp_path, bad_line):
        # lines are read one at a time, yet an undecodable byte anywhere in
        # the file is reported before any malformed line or node, as it was
        # when the whole file was decoded first (past the 8 KiB the text
        # layer decodes at once)
        p = tmp_path / "g.graph"
        head = b"N C1 course\n" + bad_line + b"N C2 course\n" * 1000
        p.write_bytes(head + b"N caf\xff skill\n")
        with pytest.raises(GraphError, match=re.escape(
                f"g.graph: not UTF-8 text (invalid start byte at byte {len(head) + 5})")):
            read_snapshot(p)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_lines_split_as_the_whole_text_splits_at_any_block_size(self, tmp_path,
                                                                   monkeypatch, block):
        # the text layer reads ``block`` bytes at a time, so that a \r\n and
        # a character of several bytes straddle its reads
        def small_reads(*args, **kwargs):
            f = open(*args, **kwargs)
            f._CHUNK_SIZE = block
            return f

        monkeypatch.setattr(errors, "open", small_reads, raising=False)
        text = "N a skill\r\nN b skill\rN c\x85skill\n\nE x\u2028y\r\r\n\vend\r"
        p = tmp_path / "g.txt"
        p.write_bytes(text.encode("utf-8"))
        assert list(errors.iter_lines(p, GraphError)) == text.splitlines()

    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.one_of(st.sampled_from(LINE_BREAKS),
                                     st.text(st.sampled_from("Nab %\xe9\u20ac\U0001f600"),
                                             max_size=6)), max_size=30),
           pad=st.sampled_from([0, 8186, 8189, 8190, 8191]))
    @example(pieces=["\r\n", "a"], pad=8191)  # a \r\n across the text layer's first read
    @example(pieces=["\r", "\n", "\r"], pad=8191)
    def test_lines_split_as_the_whole_text_splits(self, tmp_path_factory, pieces, pad):
        # ``pad`` characters first, so that a \r\n or a character of several
        # bytes may straddle the 8 KiB the text layer reads at once
        text = "x" * pad + "".join(pieces)
        p = tmp_path_factory.mktemp("lines") / "g.txt"
        p.write_bytes(text.encode("utf-8"))
        assert list(errors.iter_lines(p, GraphError)) == text.splitlines()

    def test_written_order_is_every_line_sorted(self, tmp_path):
        # ids where one is a prefix of another, or sorts below a space (a tab,
        # \x01), over the many rows the streamed writer writes one at a time
        g = HeteroGraph()
        jobs = [f"J{i}" for i in range(400)]
        skills = ["a", "a\tb", "a\x01", "ab", "a%", "a b", "a!", "b"]
        for j in jobs:
            g.add_node(j, NodeKind.JOB)
        for s in skills:
            g.add_node(s, NodeKind.SKILL)
        for k, j in enumerate(jobs):
            picked = skills[k % 3:k % 3 + 5]
            g.add_row(j, Relation.REQUIRED, {s: 1.0 / len(picked) for s in picked})
        g.add_row("a", Relation.LINKED, {"a\tb": 0.5, "ab": 0.25, "a b": 0.25})
        g.add_row("a\tb", Relation.LINKED, {"a": 1.0})

        def enc(node_id):
            return node_id.replace("%", "%25").replace(" ", "%20")
        want = sorted([f"N {enc(i)} {g._kind[i].value}" for i in g.node_ids()]
                      + [f"E {enc(s)} {rel.value} {enc(t)} {w:.17g}"
                         for s, rel, t, w in edges(g)])
        # the writer sorts rows by head and each row's lines alone, so both
        # relations must have several rows, some of several lines
        for rel in (Relation.REQUIRED, Relation.LINKED):
            rows = list(g._out[rel].values())
            assert len(rows) > 1 and max(map(len, rows)) > 1
        p = tmp_path / "g.graph"
        write_snapshot(g, p)
        assert p.read_text(encoding="utf-8") == "\n".join(want) + "\n"
        assert snapshot_lines(g) == want

    def test_empty_graph_snapshot_is_one_line_end(self, tmp_path):
        p = tmp_path / "g.graph"
        write_snapshot(HeteroGraph(), p)
        assert p.read_bytes() == b"\n"
        assert read_snapshot(p).num_nodes() == 0

    @pytest.mark.parametrize("weight", ["abc", "nan", "inf"])
    def test_bad_edge_weight_rejected(self, tmp_path, weight):
        p = tmp_path / "g.graph"
        p.write_text(f"N J1 job\nN S1 skill\nE J1 r S1 {weight}\n")
        with pytest.raises(GraphError, match=f"g.graph: line 3: bad edge weight '{weight}'"):
            read_snapshot(p)

    @pytest.mark.parametrize("weight", ["abc", "-1", "0"])
    def test_line_shape_errors_come_before_edge_errors(self, tmp_path, weight):
        p = tmp_path / "g.graph"
        p.write_text(f"E J1 r S1 {weight}\nN J1 job\nX junk\nN S1 skill\n")
        with pytest.raises(GraphError, match=r"g\.graph: line 3: unparseable snapshot line"):
            read_snapshot(p)

    def test_node_given_two_kinds_names_file_and_line(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("N C1 course\nN C1 skill\n")
        with pytest.raises(GraphError,
                           match=r"g\.graph: line 2: node id 'C1' used as both course and skill"):
            read_snapshot(p)

    @pytest.mark.parametrize("text, lineno, tail", [
        ("E J1 r S1 1\n", 1, "edge J1-r->S1: source is not a job"),
        ("E J1 r S1 1\nN J1 job\nN S1 course\n", 1, "edge J1-r->S1: target is not a skill"),
        ("E C1 c S1 1\nE J1 r S1 1\nN C1 course\nN J1 skill\nN S1 skill\n", 2,
         "edge J1-r->S1: source is not a job"),
    ])
    def test_edge_endpoint_kind_names_file_and_line(self, tmp_path, text, lineno, tail):
        p = tmp_path / "g.graph"
        p.write_text(text)
        with pytest.raises(GraphError, match=rf"g\.graph: line {lineno}: {tail}"):
            read_snapshot(p)

    def test_duplicate_edge_names_file_and_line(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("E J1 r S1 0.5\nE J1 r S1 0.5\nN J1 job\nN S1 skill\n")
        with pytest.raises(GraphError, match=r"g\.graph: line 2: duplicate edge J1-r->S1"):
            read_snapshot(p)

    @pytest.mark.parametrize("text, lineno, tail", [
        # the first copy is two runs back, a run of another source between
        ("N J1 job\nN J2 job\nN S1 skill\nN S2 skill\nE J1 r S1 0.5\nE J2 r S1 1\n"
         "E J1 r S2 0.5\nE J1 r S1 0.5\n", 8, "duplicate edge J1-r->S1"),
        # a bad weight later in the run of a wrong-kind target
        ("N J1 job\nN S1 skill\nN C1 course\nE J1 r C1 0.5\nE J1 r S1 x\n", 4,
         "edge J1-r->C1: target is not a skill"),
    ])
    def test_edge_fault_names_its_line_across_runs(self, tmp_path, text, lineno, tail):
        p = tmp_path / "g.graph"
        p.write_text(text)
        with pytest.raises(GraphError) as err:
            read_snapshot(p)
        assert str(err.value) == f"{p}: line {lineno}: {tail}"
        assert built(rowwise_read_snapshot, p)[1] == f"GraphError: {err.value}"

    def test_only_a_faulty_read_reads_the_file_again(self, tmp_path, monkeypatch):
        # a read opens the file through the compiled codec's scan, where it
        # loads, or through iter_lines; both are counted
        reads = []

        def counted(path, error):
            reads.append(path)
            return errors.iter_lines(path, error)
        monkeypatch.setattr(graph, "iter_lines", counted)
        codec = kernels.snapshot_codec()
        if codec is not None:
            def scan(path, *args):
                reads.append(path)
                return codec.scan(path, *args)
            counted_codec = types.SimpleNamespace(scan=scan, write=codec.write,
                                                  add_rows=codec.add_rows)
            monkeypatch.setattr(kernels, "snapshot_codec", lambda: counted_codec)
        p = tmp_path / "g.graph"
        write_snapshot(self._golden_graph(1), p)
        read_snapshot(p)
        assert len(reads) == 1
        p.write_text("N J1 job\nN S1 skill\nE J1 r S1 0\n")
        with pytest.raises(GraphError, match="line 3: edge J1-r->S1 has non-positive"):
            read_snapshot(p)
        assert len(reads) == 3

    def test_unnormalised_out_weights_rejected(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("N J1 job\nN S1 skill\nN S2 skill\nE J1 r S1 0.5\nE J1 r S2 0.4\n")
        with pytest.raises(GraphError) as exc:
            read_snapshot(p)
        assert str(exc.value).startswith(f"{p}: outgoing r-weights of 'J1' sum to 0.9")

    # the writer formats each distinct weight once and the reader parses each
    # distinct text once; these pin what sharing that work must not change

    def test_weights_one_ulp_apart_read_back_bit_exact(self, tmp_path):
        near = math.nextafter(0.1, 1)
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        for sid in ("S1", "S2", "S3"):
            g.add_node(sid, NodeKind.SKILL)
        g.add_row("J1", Relation.REQUIRED, {"S1": 0.1, "S2": near, "S3": 1.0 - 0.1 - near})
        p = tmp_path / "g.graph"
        write_snapshot(g, p)
        got = [w.hex() for _t, w in out_edges(read_snapshot(p), "J1", Relation.REQUIRED)]
        assert got == [w.hex() for _t, w in out_edges(g, "J1", Relation.REQUIRED)]
        assert got[0] != got[1]

    def test_equal_weight_texts_read_and_write_as_one(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("N J1 job\nN S1 skill\nN S2 skill\nE J1 r S1 0.5\nE J1 r S2 0.50\n")
        back = read_snapshot(p)
        assert out_edges(back, "J1", Relation.REQUIRED) == [("S1", 0.5), ("S2", 0.5)]
        assert [line for line in snapshot_lines(back) if line.startswith("E ")] == [
            "E J1 r S1 0.5", "E J1 r S2 0.5"]

    @pytest.mark.parametrize("weight, tail", [
        ("abc", "bad edge weight 'abc'"),
        ("1e-400", "edge J1-r->S1 has non-positive or non-finite weight 0.0"),
    ])
    def test_repeated_bad_weight_names_its_first_line(self, tmp_path, weight, tail):
        p = tmp_path / "g.graph"
        p.write_text(f"N J1 job\nN S1 skill\nE J1 r S1 {weight}\nN S2 skill\n"
                     f"E J1 r S2 {weight}\n")
        with pytest.raises(GraphError, match=rf"g\.graph: line 3: {tail}$"):
            read_snapshot(p)

    @pytest.mark.parametrize("node_id", ["", "a\nb", "a\rb", "a\x1cb", "a b", "a\n"])
    def test_id_a_line_cannot_carry_is_refused_before_writing(self, tmp_path, node_id):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node(node_id, NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, node_id, 1.0)
        p = tmp_path / "g.graph"
        with pytest.raises(GraphError, match=re.escape(f"node id {node_id!r} cannot be written")):
            write_snapshot(g, p)
        assert not p.exists()

    def test_id_utf8_cannot_encode_is_refused_before_writing(self, tmp_path):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node("a\ud800b", NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, "a\ud800b", 1.0)
        p = tmp_path / "g.graph"
        with pytest.raises(GraphError) as err:
            write_snapshot(g, p)
        assert str(err.value) == ("node id 'a\\ud800b' cannot be written to a snapshot: "
                                  "it holds '\\ud800', which UTF-8 cannot encode")
        assert not p.exists()

    def test_id_with_a_tab_round_trips(self, tmp_path):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node("a\tb", NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, "a\tb", 1.0)
        p = tmp_path / "g.graph"
        write_snapshot(g, p)
        assert edges(read_snapshot(p)) == edges(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_snapshot_matches_the_line_by_line_reader(tmp_path_factory, data):
    # a written snapshot with lines moved, dropped, repeated or broken: the
    # one-pass reader raises the first error the two-pass line reader does,
    # or reads the same graph
    g, _labels = random_hetero_graph(np.random.default_rng(data.draw(st.integers(0, 50))),
                                     max_nodes=20)
    lines = snapshot_lines(g)
    edits = data.draw(st.lists(st.tuples(
        st.sampled_from(["move", "drop", "repeat", "weight", "blank", "junk", "kind"]),
        st.integers(0, len(lines) - 1), st.integers(0, len(lines))), max_size=3))
    for edit, i, j in edits:
        i %= len(lines)
        line = lines[i]
        if edit == "move":
            lines.insert(j, lines.pop(i))
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(j, line)
        elif edit == "weight" and line.startswith("E "):
            lines[i] = line.rsplit(" ", 1)[0] + " " + data.draw(
                st.sampled_from(["0", "-1", "nan", "x", "1e-400", "0.5", "1_0"]))
        elif edit == "blank":
            lines.insert(j, data.draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "junk":
            lines.insert(j, data.draw(st.sampled_from(["X y", "E a r", "N a bogus", "E  r b 1"])))
        elif edit == "kind" and line.startswith("N "):
            lines[i] = line.rsplit(" ", 1)[0] + " " + data.draw(st.sampled_from(["course", "job",
                                                                             "skill"]))
        if not lines:
            break
    p = tmp_path_factory.mktemp("snap") / "g.graph"
    p.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert built(read_snapshot, p)[1] == built(rowwise_read_snapshot, p)[1]


_ID_PARTS = ["a", "b", "Z", " ", "%", "%20", "%25"]
_WEIGHTS = [w for x in (0.1, 0.125, 0.2, 1 / 7, 0.25)
            for w in (math.nextafter(x, 0), x, math.nextafter(x, 1))]


@st.composite
def codec_graphs(draw):
    """Skill graphs whose ids mix spaces and percent escapes, and whose
    weights (all but each row's first) come from a pool with ulp neighbours."""
    ids = draw(st.lists(st.lists(st.sampled_from(_ID_PARTS), min_size=1, max_size=5).map("".join),
                        min_size=2, max_size=8, unique=True))
    g = HeteroGraph()
    for node_id in ids:
        g.add_node(node_id, NodeKind.SKILL)
    for source in ids:
        targets = draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
        picks = [draw(st.sampled_from(_WEIGHTS)) for _ in targets[1:]]
        g.add_row(source, Relation.LINKED, dict(zip(targets, [1.0 - math.fsum(picks), *picks])))
    return g


@settings(max_examples=50, deadline=None)
@given(codec_graphs())
def test_snapshot_write_read_write_is_byte_stable(tmp_path_factory, g):
    tmp = tmp_path_factory.mktemp("codec")
    write_snapshot(g, tmp / "a.graph")
    back = read_snapshot(tmp / "a.graph")
    write_snapshot(back, tmp / "b.graph")
    assert (tmp / "a.graph").read_bytes() == (tmp / "b.graph").read_bytes()
    assert edges(back) == edges(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_normalization_invariant_on_random_graphs(seed):
    g, _labels = random_hetero_graph(np.random.default_rng(seed))
    for node in g.node_ids():
        for rel in Relation:
            row = out_edges(g, node, rel)
            if row:
                assert abs(sum(w for _t, w in row) - 1.0) <= 1e-9


def test_index_is_read_only():
    # every caller shares one index per graph state, and a walk trusts the
    # index its seeds or scores carry, so no caller may write to it
    for seed in range(3):
        g, _labels = random_hetero_graph(np.random.default_rng(seed))
        for node_id in g.node_ids()[::2]:
            g.set_node_name(node_id, f"name of {node_id}")
        index = g.cached(GraphIndex)
        assert type(index.kinds) is tuple
        assert index.kinds == tuple(g._kind[node_id] for node_id in index.ids)
        assert type(index.names) is tuple
        assert index.names == tuple(g.node_name(node_id) for node_id in index.ids) != tuple(index.ids)
        for rel in Relation:
            for array in index.rel_edges[rel]:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
                with pytest.raises(ValueError, match="read-only"):
                    np.multiply(array, 2, out=array)
