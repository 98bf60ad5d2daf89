from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from skillgraph import cli, ranker
from skillgraph.community import Labels, read_labels
from skillgraph.errors import QueryError
from skillgraph.graph import GraphIndex, HeteroGraph, NodeKind, Relation, read_snapshot
from skillgraph.ingest import load_jobs
from skillgraph.ranker import (BASE_PATH, TAKEN_PATH, UPSKILL_PATH, MetaPath, MetaPathStep,
                               RankedList, ScenarioInput, format_ranked_list,
                               prerequisite_expansion, recommend, resolve_job_query,
                               scenario_scores, score_metapath, to_ranked_list)

from oracles import (random_hetero_graph, ref_resolve_job_query, ref_scenario_scores,
                     ref_score_metapath)


def job_graph(titles):
    g = HeteroGraph()
    for i, title in enumerate(titles):
        g.add_node(f"J{i}", NodeKind.JOB, title)
    return g


class TestResolveJobQuery:
    def test_single_containment(self):
        g = job_graph(["Senior Data Scientist", "Java Developer"])
        assert resolve_job_query(g, "data scientist") == {"J0": 1.0}

    def test_uniform_split_over_matches(self):
        g = job_graph(["data engineer", "senior data engineer", "lead data engineer",
                       "data engineer ii", "plumber"])
        seeds = resolve_job_query(g, "data engineer")
        assert seeds == {f"J{i}": 0.25 for i in range(4)}

    def test_tokens_must_be_contiguous(self):
        g = job_graph(["data software engineer"])
        with pytest.raises(QueryError):
            resolve_job_query(g, "data engineer")

    def test_no_match_lists_nearest(self):
        g = job_graph(["database administrator", "data scientist", "java developer"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g, "quantum plumber")
        assert "nearest titles" in str(err.value)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            resolve_job_query(job_graph(["x"]), "  ,, ")

    def test_nearest_titles_are_distinct(self):
        g = job_graph(["topic-3 engineer"] * 6 + ["topic-3 analyst", "Engineer", "plumber"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g, "engineer topic-3")
        assert str(err.value).endswith(
            "nearest titles: ['topic-3 engineer', 'topic-3 analyst', 'Engineer', 'plumber']")

    def test_nearest_titles_capped_at_five(self):
        g = job_graph([f"role {c}" for c in "fedcba"] * 2 + ["x"])
        with pytest.raises(QueryError, match=r"nearest titles: \['role a', 'role b', "
                                             r"'role c', 'role d', 'role e'\]$"):
            resolve_job_query(g, "role z")

    def test_index_matches_scan_on_random_titles(self):
        rng = np.random.default_rng(20)
        # few tokens, so repeats ("a a" in "a a b") and shared titles are common;
        # "--" and "" tokenize to nothing, "q" is in no title
        words = ["a", "b", "c", "d", "--", ""]
        for _trial in range(3000):
            pool = [" ".join(rng.choice(words, size=int(rng.integers(0, 5))))
                    for _ in range(int(rng.integers(1, 5)))]
            g = job_graph([pool[int(rng.integers(len(pool)))]
                           for _ in range(int(rng.integers(1, 9)))])
            query = " ".join(rng.choice(words[:4] + ["q"], size=int(rng.integers(1, 4))))
            expected = ref_resolve_job_query(g, query)
            if expected:
                got = resolve_job_query(g, query)
                assert list(got.items()) == list(expected.items()), (pool, query)
            else:
                with pytest.raises(QueryError, match="no job title matches"):
                    resolve_job_query(g, query)

    def test_checks_only_rarest_token_titles(self, monkeypatch):
        calls = []
        real = ranker.title_contains
        monkeypatch.setattr(ranker, "title_contains",
                            lambda title, query: calls.append(tuple(title)) or real(title, query))
        g = job_graph(["data engineer"] * 40 + ["data scientist"] * 40
                      + ["senior data engineer", "big data engineer ii", "engineer data"]
                      + ["plumber"] * 20)
        seeds = resolve_job_query(g, "data engineer")
        assert seeds == ref_resolve_job_query(g, "data engineer")
        postings = g.cached(ranker.job_titles).postings
        assert len(postings["engineer"]) < len(postings["data"])
        assert sorted(calls) == sorted(postings["engineer"])
        assert len(calls) == 4

        # a renamed or added job reaches the next query through a rebuilt index
        g.set_node_name("J99", "lead data engineer")
        calls.clear()
        assert "J99" in resolve_job_query(g, "data engineer")
        assert len(calls) == 5
        g.add_node("J200", NodeKind.JOB, "data engineer")
        calls.clear()
        assert list(resolve_job_query(g, "data engineer")) == list(
            ref_resolve_job_query(g, "data engineer"))
        assert "J200" in ref_resolve_job_query(g, "data engineer")
        assert len(calls) == 5

        calls.clear()
        with pytest.raises(QueryError):
            resolve_job_query(g, "data plumber quantum")
        assert calls == []


class TestMetaPath:
    def test_kind_chain_enforced(self):
        with pytest.raises(QueryError, match="breaks"):
            MetaPath((MetaPathStep(Relation.REQUIRED), MetaPathStep(Relation.PRE_REQUIRED)))
        path = MetaPath((MetaPathStep(Relation.REQUIRED), MetaPathStep(Relation.LINKED),
                         MetaPathStep(Relation.COVERED, reverse=True)))
        assert path.source_kind is NodeKind.JOB
        assert path.target_kind is NodeKind.COURSE

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MetaPath(())


def single_tour_graph():
    """J1 -r-> S1 -l-> S2 <-c- C1, all weight 1, one community."""
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB, "data engineer")
    g.add_node("S1", NodeKind.SKILL)
    g.add_node("S2", NodeKind.SKILL)
    g.add_node("C1", NodeKind.COURSE)
    g.add_edge("J1", Relation.REQUIRED, "S1", 1.0)
    g.add_edge("S1", Relation.LINKED, "S2", 1.0)
    g.add_edge("C1", Relation.COVERED, "S2", 1.0)
    return g, {n: 0 for n in ("J1", "S1", "S2", "C1")}


def two_tour_graph():
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB, "data engineer")
    for s in ("S1", "S2", "S3"):
        g.add_node(s, NodeKind.SKILL)
    g.add_node("C1", NodeKind.COURSE)
    g.add_edge("J1", Relation.REQUIRED, "S1", 0.5)
    g.add_edge("J1", Relation.REQUIRED, "S2", 0.5)
    g.add_edge("S1", Relation.LINKED, "S3", 1.0)
    g.add_edge("S2", Relation.LINKED, "S3", 1.0)
    g.add_edge("C1", Relation.COVERED, "S3", 1.0)
    return g


class TestScoreMetapath:
    def test_single_tour_unit_weights(self):
        g, labels = single_tour_graph()
        scores = score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, community=0)
        assert scores == {"C1": pytest.approx(1.0)}

    def test_two_tours_add(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        scores = score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, community=0)
        assert scores["C1"] == pytest.approx(1.0, abs=1e-12)

    def test_restriction_blocks_outside_tour(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        labels["S2"] = 1
        scores = score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, community=0)
        assert scores["C1"] == pytest.approx(0.5, abs=1e-12)

    def test_wrong_seed_kind_rejected(self):
        g, labels = single_tour_graph()
        with pytest.raises(QueryError, match="path starts at"):
            score_metapath(g, BASE_PATH, {"C1": 1.0}, labels, community=0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        steps = [(s.relation, s.reverse, s.community_restricted) for s in BASE_PATH.steps]
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            for community in (None, 0, 1):
                got = score_metapath(g, BASE_PATH, seeds, labels, community)
                want = ref_score_metapath(g, steps, seeds, labels, community)
                assert set(got) == set(want)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)

    def test_removing_edge_never_raises_scores(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        full = score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, 0)
        pruned = HeteroGraph()
        for n in g.node_ids():
            pruned.add_node(n, g.node_kind(n), g.node_name(n))
        for e in g.edges():
            if (e.source, e.target) != ("S2", "S3"):
                pruned.add_edge(e.source, e.relation, e.target, e.weight)
        less = score_metapath(pruned, BASE_PATH, {"J1": 1.0}, labels, 0)
        for node, score in less.items():
            assert score <= full.get(node, 0.0) + 1e-12

    def test_edge_removal_monotone_on_random_graphs(self):
        # dropping any one edge never raises any candidate's score
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g, labels = random_hetero_graph(rng)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            full = score_metapath(g, BASE_PATH, seeds, labels, 0)
            edges = list(g.edges())
            victim = edges[int(rng.integers(len(edges)))]
            pruned = HeteroGraph()
            for n in g.node_ids():
                pruned.add_node(n, g.node_kind(n), g.node_name(n))
            for e in edges:
                if e != victim:
                    pruned.add_edge(e.source, e.relation, e.target, e.weight)
            less = score_metapath(pruned, BASE_PATH, seeds, labels, 0)
            for node, score in less.items():
                assert score <= full.get(node, 0.0) + 1e-12

    def test_gate_without_labels_rejected(self):
        g, _labels = single_tour_graph()
        with pytest.raises(QueryError, match="without node labels"):
            score_metapath(g, BASE_PATH, {"J1": 1.0}, labels=None, community=0)

    def test_serialization_insertion_order_irrelevant(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        shuffled = HeteroGraph()
        for n in reversed(g.node_ids()):
            shuffled.add_node(n, g.node_kind(n), g.node_name(n))
        for e in reversed(list(g.edges())):
            shuffled.add_edge(e.source, e.relation, e.target, e.weight)
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        a = format_ranked_list(recommend(g, labels, inp))
        b = format_ranked_list(recommend(shuffled, labels, inp))
        assert a == b

    def test_unlabelled_node_passes_only_unrestricted_hops(self):
        g, labels = single_tour_graph()
        g.add_node("C2", NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        del labels["S1"]  # C2 carries no label either
        assert score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, 0) == {}
        assert score_metapath(g, BASE_PATH, {"J1": 1.0}, labels) == {"C1": 1.0}
        labels["S1"] = 0
        upskill = score_metapath(g, ranker.UPSKILL_PATH, {"J1": 1.0}, labels, 0)
        assert upskill == {"C2": 1.0}

    def test_seed_weight_scales_linearly(self):
        g, labels = single_tour_graph()
        one = score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, 0)
        three = score_metapath(g, BASE_PATH, {"J1": 3.0}, labels, 0)
        for node in one:
            assert three[node] == pytest.approx(3.0 * one[node], rel=1e-12)


class TestScenarios:
    def test_scenario1_reduces_to_metapath_without_prereqs(self):
        g, labels = single_tour_graph()
        ranked = recommend(g, labels, ScenarioInput(scenario=1, career_goal="data engineer"))
        assert ranked.entries == (("C1", 1.0),)

    def test_scenario1_prereq_expansion_and_tie_break(self):
        g, labels = single_tour_graph()
        g.add_node("C0", NodeKind.COURSE)
        labels["C0"] = 5  # different community: expansion ignores restriction
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        ranked = recommend(g, labels, ScenarioInput(scenario=1, career_goal="data engineer"))
        assert ranked.entries == (("C0", 1.0), ("C1", 1.0))

    def test_scenario2_excludes_taken_but_keeps_derived(self):
        g, labels = single_tour_graph()
        # C2 shares skill S2 with C1; C2 is taken
        g.add_node("C2", NodeKind.COURSE)
        labels["C2"] = 0
        g.add_edge("C2", Relation.COVERED, "S2", 1.0)
        inp = ScenarioInput(scenario=2, career_goal="data engineer", taken_courses=("C2",))
        ranked = recommend(g, labels, inp)
        nodes = [n for n, _s in ranked.entries]
        assert "C2" not in nodes
        assert "C1" in nodes

    def test_scenario2_unknown_taken_course_rejected(self):
        g, labels = single_tour_graph()
        inp = ScenarioInput(scenario=2, career_goal="data engineer", taken_courses=("CX",))
        with pytest.raises(QueryError, match="CX"):
            recommend(g, labels, inp)

    def test_scenario3_walks_to_advanced_courses(self):
        g, labels = single_tour_graph()
        g.add_node("C2", NodeKind.COURSE)
        labels["C2"] = 0
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)  # C1 is C2's foundation
        inp = ScenarioInput(scenario=3, current_job="data engineer")
        ranked = recommend(g, labels, inp)
        assert ranked.entries == (("C2", 1.0),)

    def test_negative_prereq_depth_rejected_for_scenario3(self):
        # scenario 3 never runs the prerequisite hop, yet the depth is checked
        g, labels = single_tour_graph()
        inp = ScenarioInput(scenario=3, current_job="data engineer")
        with pytest.raises(QueryError, match="depth -1 must be >= 0"):
            recommend(g, labels, inp, prereq_depth=-1)

    def test_negative_prereq_depth_rejected_when_every_base_is_empty(self):
        # C1 sits outside the goal's community, so the base reaches nothing
        # and no prerequisite hop runs; the depth is still checked
        g, labels = single_tour_graph()
        labels["C1"] = 1
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        assert recommend(g, labels, inp).entries == ()
        with pytest.raises(QueryError, match="depth -1 must be >= 0"):
            recommend(g, labels, inp, prereq_depth=-1)

    def test_scenario_input_validation(self):
        with pytest.raises(QueryError):
            ScenarioInput(scenario=1)
        with pytest.raises(QueryError):
            ScenarioInput(scenario=2, career_goal="x")
        with pytest.raises(QueryError):
            ScenarioInput(scenario=3)
        with pytest.raises(QueryError):
            ScenarioInput(scenario=4, career_goal="x")
        with pytest.raises(QueryError, match="taken course 'C1' is listed more than once"):
            ScenarioInput(scenario=2, career_goal="x", taken_courses=("C1", "C0", "C1"))

    def test_inputs_the_scenario_ignores_are_rejected(self):
        for scenario in (1, 3):
            goal = "x" if scenario == 1 else None
            job = "x" if scenario == 3 else None
            with pytest.raises(QueryError, match=f"scenario {scenario} takes no taken courses"):
                ScenarioInput(scenario=scenario, career_goal=goal, current_job=job,
                              taken_courses=("C1",))
        for scenario in (1, 2):
            with pytest.raises(QueryError, match=f"scenario {scenario} takes no current job"):
                ScenarioInput(scenario=scenario, career_goal="x", current_job="y",
                              taken_courses=("C1",) if scenario == 2 else ())
        with pytest.raises(QueryError, match="scenario 3 takes no career goal"):
            ScenarioInput(scenario=3, career_goal="x", current_job="y")

    def test_all_scenarios_match_oracle_on_random_graphs(self):
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            courses = g.node_ids(NodeKind.COURSE)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            taken = tuple(courses[:1])
            for scenario in (1, 2, 3):
                inp = ScenarioInput(scenario=scenario, career_goal="q" if scenario != 3 else None,
                                    taken_courses=taken if scenario == 2 else (),
                                    current_job="q" if scenario == 3 else None)
                got, _prov = scenario_scores(g, labels, inp, seeds)
                want = ref_scenario_scores(g, labels, scenario, seeds,
                                           taken=taken if scenario == 2 else ())
                assert set(got) == set(want)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)

    def test_debug_provenance_separates_routes(self):
        g, labels = single_tour_graph()
        g.add_node("C0", NodeKind.COURSE)
        labels["C0"] = 5
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        prov = recommend(g, labels,
                         ScenarioInput(scenario=1, career_goal="data engineer")).provenance
        assert set(prov.base) == {0} and set(prov.base[0]) == {"C1"}
        assert set(prov.prereq) == {"C0"}
        assert prov.seeds == {0: {"J1": 1.0}}


class TestGraphViewCache:
    """The ranker's per-graph array view follows every change to the graph."""

    def test_growth_after_query_matches_fresh_graph(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        recommend(g, labels, inp)
        growth = [lambda h: h.add_node("J2", NodeKind.JOB, "data engineer"),
                  lambda h: h.add_edge("J2", Relation.REQUIRED, "S1", 1.0)]
        labels["J2"] = 0
        for done, grow in enumerate(growth, start=1):
            grow(g)
            fresh = two_tour_graph()
            for step in growth[:done]:
                step(fresh)
            assert recommend(g, labels, inp) == recommend(fresh, dict(labels), inp)
            assert (score_metapath(g, BASE_PATH, {"J2": 1.0}, labels, 0)
                    == score_metapath(fresh, BASE_PATH, {"J2": 1.0}, dict(labels), 0))

    def test_renamed_job_resolves_by_new_title(self):
        g = job_graph(["data engineer"])
        assert resolve_job_query(g, "data engineer") == {"J0": 1.0}
        g.set_node_name("J0", "plumber")
        assert resolve_job_query(g, "plumber") == {"J0": 1.0}
        with pytest.raises(QueryError, match="nearest titles: \\['plumber'\\]"):
            resolve_job_query(g, "data engineer")

    def test_mutating_copy_leaves_original(self):
        g, labels = single_tour_graph()
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        before = recommend(g, labels, inp)
        twin = g.copy()
        twin.add_node("C2", NodeKind.COURSE)
        twin.add_edge("C2", Relation.COVERED, "S2", 1.0)
        twin.set_node_name("J1", "plumber")
        assert recommend(g, labels, inp) == before
        assert recommend(g.copy(), labels, inp) == before
        assert recommend(twin, {**labels, "C2": 0},
                         ScenarioInput(scenario=1, career_goal="plumber")).entries == (
            ("C1", 1.0), ("C2", 1.0))

    def test_labels_read_on_every_call(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        assert score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, 0)["C1"] == pytest.approx(1.0)
        labels["S2"] = 1
        assert score_metapath(g, BASE_PATH, {"J1": 1.0}, labels, 0)["C1"] == pytest.approx(0.5)

    def test_unchanged_graph_indexed_once(self, monkeypatch):
        builds = []

        class CountingIndex(ranker.GraphIndex):
            def __init__(self, g):
                builds.append(g)
                super().__init__(g)

        monkeypatch.setattr(ranker, "GraphIndex", CountingIndex)
        g, labels = single_tour_graph()
        for scenario in (1, 3, 1, 3, 1, 3, 1, 3, 1, 3):
            query = "data engineer"
            recommend(g, labels, ScenarioInput(scenario=scenario,
                                               career_goal=query if scenario == 1 else None,
                                               current_job=query if scenario == 3 else None))
        assert builds == [g]


def awkward_labels(rng, g, labels):
    """Recode labels 0/1/2 as a negative id, an id beyond int64 and 7; leave
    about a fifth of the non-job nodes unlabelled; label two ids that are not
    in the graph, one with a community no graph node carries."""
    codes = {0: -3, 1: 2 ** 70, 2: 7}
    out = {node: codes[c] for node, c in labels.items()
           if g.node_kind(node) is NodeKind.JOB or rng.random() > 0.2}
    out["ghost-a"] = -3
    out["ghost-b"] = 99
    return out


def full_scatter_then_zero(g, path, seeds, labels, community):
    """The gate as a full-relation scatter per step, then every node outside
    ``community`` (or unlabelled) zeroed after a restricted step."""
    index = GraphIndex(g)
    scores = np.zeros(index.n)
    for node, weight in seeds.items():
        scores[index.pos[node]] = weight
    outside = np.array([labels.get(node) != community for node in index.ids], dtype=bool)
    for step in path.steps:
        src, dst, wgt = index.rel_edges[step.relation]
        if step.reverse:
            src, dst = dst, src
        scores = np.bincount(dst, weights=wgt * scores[src], minlength=index.n)
        if step.community_restricted and community is not None:
            scores[outside] = 0.0
    return {index.ids[i]: scores[i] for i in np.flatnonzero(scores > 0.0).tolist()}


@pytest.fixture(scope="module")
def fanned_out(tmp_path_factory):
    """The linked graph and labels of a ``synth --seed 1`` 400/60/600 corpus."""
    tmp = tmp_path_factory.mktemp("fanned_out")
    data, out = tmp / "data", tmp / "out"
    stages = [["synth", "--seed", "1", "--jobs", "400", "--courses", "60",
               "--skills", "600", "--alignment", "0.3", "--out", str(data)],
              ["ingest", "--courses", str(data / "courses.csv"), "--jobs",
               str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
               "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
              ["build", "--out", str(out)],
              ["communities", "--out", str(out), "--seed", "3"],
              ["link", "--out", str(out)]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in stages:
            assert cli.main(argv) == 0
    g = read_snapshot(out / cli.F_LINKED_GRAPH)
    labels = read_labels(out / cli.F_LABELS)
    cli._attach_job_titles(g, load_jobs(out / cli.F_JOBS))
    return g, labels


FANNED_OUT_GOAL = "topic-4 engineer"
FANNED_OUT_INPUTS = (
    ScenarioInput(1, career_goal=FANNED_OUT_GOAL),
    ScenarioInput(2, career_goal=FANNED_OUT_GOAL, taken_courses=("C024", "C000")),
    ScenarioInput(3, current_job=FANNED_OUT_GOAL),
)


class TestCommunityGate:
    """A restricted step scatters only its community's slice of the edges."""

    COMMUNITIES = (None, -3, 2 ** 70, 7, 99, 12345)

    def test_sliced_scores_equal_oracle_and_full_scatter(self):
        checked = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            g, plain = random_hetero_graph(rng, n_labels=3)
            labels = awkward_labels(rng, g, plain)
            read_only = Labels(labels)
            kind_seeds = {kind: {n: 1.0 / len(g.node_ids(kind)) for n in g.node_ids(kind)}
                          for kind in (NodeKind.JOB, NodeKind.COURSE)}
            for path in (BASE_PATH, TAKEN_PATH, UPSKILL_PATH):
                seeds = kind_seeds[path.source_kind]
                steps = [(s.relation, s.reverse, s.community_restricted) for s in path.steps]
                for community in self.COMMUNITIES:
                    got = score_metapath(g, path, seeds, read_only, community)
                    # the same tours summed in the same order: equal to the bit
                    assert got == full_scatter_then_zero(g, path, seeds, labels, community)
                    assert score_metapath(g, path, seeds, labels, community) == got
                    want = ref_score_metapath(g, steps, seeds, labels, community)
                    assert set(got) == set(want), (seed, path, community)
                    for node, score in want.items():
                        assert got[node] == pytest.approx(score, abs=1e-12)
                    checked += len(want)
        assert checked > 500

    def test_scenarios_equal_oracle_with_awkward_labels(self):
        outside_taken = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            g, plain = random_hetero_graph(rng, n_labels=3)
            labels = awkward_labels(rng, g, plain)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            courses = g.node_ids(NodeKind.COURSE)
            # a taken course outside the first job's community (or unlabelled)
            away = [c for c in courses if labels.get(c) != labels[jobs[0]]]
            taken = tuple(dict.fromkeys(courses[:1] + away[:1]))
            outside_taken += bool(away)
            for scenario in (1, 2, 3):
                inp = ScenarioInput(scenario=scenario, career_goal="q" if scenario != 3 else None,
                                    taken_courses=taken if scenario == 2 else (),
                                    current_job="q" if scenario == 3 else None)
                want = ref_scenario_scores(g, labels, scenario, seeds,
                                           taken=taken if scenario == 2 else ())
                for given in (labels, Labels(labels)):
                    got, _prov = scenario_scores(g, given, inp, seeds)
                    assert set(got) == set(want), (seed, scenario)
                    for node, score in want.items():
                        assert got[node] == pytest.approx(score, abs=1e-12)
        assert outside_taken >= 20

    def test_slices_built_once_per_graph_state_and_labels(self, monkeypatch):
        builds = []

        class CountingEdges(ranker.CommunityEdges):
            def __init__(self, index, labels):
                builds.append(index)
                super().__init__(index, labels)

        monkeypatch.setattr(ranker, "CommunityEdges", CountingEdges)
        g, plain = single_tour_graph()
        labels = Labels({**plain, "C2": 0})
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        for _ in range(3):
            assert recommend(g, labels, inp).entries == (("C1", 1.0),)
        assert len(builds) == 1
        g.add_node("C2", NodeKind.COURSE)
        assert recommend(g, labels, inp).entries == (("C1", 1.0),)
        assert len(builds) == 2
        g.add_edge("C2", Relation.COVERED, "S2", 1.0)
        assert recommend(g, labels, inp).entries == (("C1", 1.0), ("C2", 1.0))
        assert recommend(g, labels, inp).entries == (("C1", 1.0), ("C2", 1.0))
        assert len(builds) == 3
        # a plain mapping may change between calls, so each call reads it again
        recommend(g, dict(labels), inp)
        recommend(g, dict(labels), inp)
        assert len(builds) == 5

    def test_ranked_lists_pinned_on_fanned_out_corpus(self, fanned_out):
        # "topic-4 engineer" jobs sit in six merged communities of this corpus;
        # one holds the courses, so a gate that reads another community's
        # slice, or drops one, changes these bytes
        g, labels = fanned_out
        goal = FANNED_OUT_GOAL
        expected = {
            ScenarioInput(1, career_goal=goal): (
                "rank,node_id,score\n1,C024,0.0059526105713\n2,C026,0.00474812272039\n"
                "3,C025,0.0039739488626\n4,C029,0.00296194790619\n"
                "5,C027,0.00251900640317\n6,C028,0.00197297005825\n"),
            ScenarioInput(2, career_goal=goal, taken_courses=("C024", "C000")): (
                "rank,node_id,score\n1,C027,0.0275190064032\n2,C026,0.00474812272039\n"
                "3,C025,0.0039739488626\n4,C029,0.00296194790619\n"
                "5,C028,0.00197297005825\n"),
            ScenarioInput(3, current_job=goal): (
                "rank,node_id,score\n1,C027,0.00205357142857\n2,C028,0.00169104230558\n"
                "3,C029,0.00161491605622\n4,C026,0.00109853487468\n"
                "5,C025,0.00098868138721\n"),
        }
        for inp, text in expected.items():
            ranked = recommend(g, labels, inp, cutoff=10)
            assert len(ranked.provenance.seeds) == 6
            assert format_ranked_list(ranked) == text


class TestScenarioRoutes:
    """Each route runs once per community group, in the order base ->
    prerequisite hop -> taken walk, on a goal that fans out over six groups
    of which only one reaches a course."""

    def test_raw_totals_pinned(self, fanned_out):
        # the full repr pins every float to the bit and the key order, so a
        # change in which route merges first, or in summation order, shows
        g, labels = fanned_out
        expected = [
            "{'C024': 0.0059526105713012135, 'C025': 0.003973948862595526, "
            "'C026': 0.004748122720385534, 'C027': 0.002519006403174009, "
            "'C028': 0.0019729700582511627, 'C029': 0.0029619479061939276}",
            "{'C025': 0.003973948862595526, 'C026': 0.004748122720385534, "
            "'C027': 0.02751900640317401, 'C028': 0.0019729700582511627, "
            "'C029': 0.0029619479061939276}",
            "{'C025': 0.0009886813872099207, 'C026': 0.0010985348746776896, "
            "'C027': 0.0020535714285714285, 'C028': 0.0016910423055751156, "
            "'C029': 0.0016149160562215902}",
        ]
        for inp, want in zip(FANNED_OUT_INPUTS, expected):
            seeds = resolve_job_query(g, inp.query_text)
            total, prov = scenario_scores(g, labels, inp, seeds)
            assert len(prov.seeds) == 6
            assert repr(total) == want

    def test_prerequisite_hop_runs_once_per_nonempty_base(self, fanned_out, monkeypatch):
        g, labels = fanned_out
        bases = []

        def counting(graph, base_scores, depth=ranker.DEFAULT_PREREQ_DEPTH):
            bases.append(dict(base_scores))
            return prerequisite_expansion(graph, base_scores, depth)

        monkeypatch.setattr(ranker, "prerequisite_expansion", counting)
        for inp in FANNED_OUT_INPUTS:
            bases.clear()
            prov = recommend(g, labels, inp).provenance
            nonempty = [base for base in prov.base.values() if base]
            assert len(prov.base) == 6 and len(nonempty) == 1
            assert bases == (nonempty if inp.scenario != 3 else [])

    def test_recommend_provenance_is_scenario_scores(self, fanned_out):
        g, labels = fanned_out
        for inp in FANNED_OUT_INPUTS:
            seeds = resolve_job_query(g, inp.query_text)
            assert (recommend(g, labels, inp).provenance
                    == scenario_scores(g, labels, inp, seeds)[1])


class TestPrerequisiteExpansion:
    def test_depth_two_chains(self):
        g = HeteroGraph()
        for c in ("C2", "C1", "C0"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        assert prerequisite_expansion(g, {"C2": 1.0}, depth=1) == {"C1": 1.0}
        assert prerequisite_expansion(g, {"C2": 1.0}, depth=2) == {"C1": 1.0, "C0": 1.0}
        assert prerequisite_expansion(g, {"C2": 1.0}, depth=0) == {}

    def test_negative_depth_rejected(self):
        g = HeteroGraph()
        g.add_node("C0", NodeKind.COURSE)
        with pytest.raises(QueryError, match="depth -1 must be >= 0"):
            prerequisite_expansion(g, {"C0": 1.0}, depth=-1)

    def test_shared_prerequisite_adds_pushes(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 0.5)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        assert prerequisite_expansion(g, {"C2": 0.5, "C1": 0.25}) == {"C0": 0.625, "C3": 0.125}
        assert prerequisite_expansion(g, {"CX": 1.0, "C2": 0.5}) == {"C0": 0.5}

    def test_depth_two_sums_levels_over_branching_chain(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3", "C4"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C2", 0.5)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C0", 0.75)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C1", 0.25)
        assert prerequisite_expansion(g, {"C4": 1.0}, depth=2) == {
            "C0": 0.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}
        # C0 is pushed at both levels: 1.0 from C2, then 0.5 + 0.375 through C2 and C3
        assert prerequisite_expansion(g, {"C4": 1.0, "C2": 1.0}, depth=2) == {
            "C0": 1.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}


class TestRankedList:
    def test_sorted_ties_by_id(self):
        ranked = to_ranked_list({"b": 1.0, "a": 1.0, "c": 2.0}, "q", "s")
        assert ranked.entries == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_zero_scores_dropped_and_cutoff(self):
        ranked = to_ranked_list({"a": 0.0, "b": 1.0, "c": 0.5}, "q", "s", cutoff=1)
        assert ranked.entries == (("b", 1.0),)
        assert to_ranked_list({"b": 1.0}, "q", "s", cutoff=0).entries == ()

    def test_negative_cutoff_rejected(self):
        with pytest.raises(QueryError, match="cutoff -1 is negative"):
            to_ranked_list({"a": 1.0, "b": 2.0}, "q", "s", cutoff=-1)

    def test_invalid_orderings_rejected(self):
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("b", 2.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("a", 1.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 0.0),), query="q", scenario="s")

    def test_equality_ignores_provenance(self):
        entries = (("C1", 1.0),)
        plain = RankedList(entries, "q", "s")
        traced = RankedList(entries, "q", "s", ranker.Provenance(prereq={"C0": 1.0}))
        assert traced == plain and hash(traced) == hash(plain)
        assert repr(traced) == repr(plain)

    def test_to_ranked_list_carries_no_provenance(self):
        assert to_ranked_list({"a": 1.0}, "q", "s").provenance is None

    def test_serialization_format(self):
        ranked = to_ranked_list({"C1": 1 / 3, "C2": 2 / 3}, "q", "s")
        text = format_ranked_list(ranked)
        assert text == "rank,node_id,score\n1,C2,0.666666666667\n2,C1,0.333333333333\n"
