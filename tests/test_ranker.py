from __future__ import annotations

import numpy as np
import pytest

from skillgraph import ranker
from skillgraph.errors import QueryError
from skillgraph.graph import HeteroGraph, NodeKind, Relation
from skillgraph.ranker import (BASE_PATH, MetaPath, MetaPathStep, RankedList, ScenarioInput,
                               format_ranked_list, prerequisite_expansion, recommend,
                               resolve_job_query, scenario_scores, score_metapath,
                               to_ranked_list)

from oracles import random_hetero_graph, ref_scenario_scores, ref_score_metapath


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

    def test_scenario_input_validation(self):
        with pytest.raises(QueryError):
            ScenarioInput(scenario=1)
        with pytest.raises(QueryError):
            ScenarioInput(scenario=2, career_goal="x")
        with pytest.raises(QueryError):
            ScenarioInput(scenario=3)
        with pytest.raises(QueryError):
            ScenarioInput(scenario=4, career_goal="x")

    def test_all_scenarios_match_oracle_on_random_graphs(self):
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            courses = g.node_ids(NodeKind.COURSE)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            taken = tuple(courses[:1])
            for scenario in (1, 2, 3):
                inp = ScenarioInput(scenario=scenario, career_goal="q",
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
        _ranked, prov = recommend(g, labels,
                                  ScenarioInput(scenario=1, career_goal="data engineer"),
                                  debug=True)
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
            recommend(g, labels, ScenarioInput(scenario=scenario, career_goal="data engineer",
                                               current_job="data engineer"))
        assert builds == [g]


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


class TestRankedList:
    def test_sorted_ties_by_id(self):
        ranked = to_ranked_list({"b": 1.0, "a": 1.0, "c": 2.0}, "q", "s")
        assert ranked.entries == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_zero_scores_dropped_and_cutoff(self):
        ranked = to_ranked_list({"a": 0.0, "b": 1.0, "c": 0.5}, "q", "s", cutoff=1)
        assert ranked.entries == (("b", 1.0),)

    def test_invalid_orderings_rejected(self):
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("b", 2.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("a", 1.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 0.0),), query="q", scenario="s")

    def test_serialization_format(self):
        ranked = to_ranked_list({"C1": 1 / 3, "C2": 2 / 3}, "q", "s")
        text = format_ranked_list(ranked)
        assert text == "rank,node_id,score\n1,C2,0.666666666667\n2,C1,0.333333333333\n"
