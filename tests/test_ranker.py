from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skillgraph import cli, kernels, ranker
from skillgraph.community import Labels, read_labels
from skillgraph.errors import QueryError
from skillgraph.graph import (GraphIndex, HeteroGraph, NodeKind, Relation, TitleIndex,
                              match_titles, read_snapshot, title_index)
from skillgraph.ingest import load_jobs, tokenize
from skillgraph.ranker import (BASE_PATH, TAKEN_PATH, UPSKILL_PATH, MetaPath, MetaPathStep,
                               RankedList, ScenarioInput, format_ranked_list,
                               prerequisite_expansion, recommend, resolve_job_query,
                               scenario_scores, score_metapath, to_ranked_list)

from oracles import (dense_gated_edges, dense_scenario_scores, dense_walk, eager_provenance,
                     edges, out_edges, random_hetero_graph, ref_resolve_job_query,
                     ref_scenario_scores, ref_score_metapath, scores_on, seeds_on)

JOB, COURSE = NodeKind.JOB, NodeKind.COURSE


def job_graph(titles):
    g = HeteroGraph()
    for i, title in enumerate(titles):
        g.add_node(f"J{i}", NodeKind.JOB, title)
    return g


class TestResolveJobQuery:
    def test_single_containment(self):
        g = job_graph(["Senior Data Scientist", "Java Developer"])
        assert resolve_job_query(g.cached(GraphIndex), "data scientist") == {"J0": 1.0}

    def test_uniform_split_over_matches(self):
        g = job_graph(["data engineer", "senior data engineer", "lead data engineer",
                       "data engineer ii", "plumber"])
        seeds = resolve_job_query(g.cached(GraphIndex), "data engineer")
        assert seeds == {f"J{i}": 0.25 for i in range(4)}

    def test_tokens_must_be_contiguous(self):
        g = job_graph(["data software engineer"])
        with pytest.raises(QueryError):
            resolve_job_query(g.cached(GraphIndex), "data engineer")

    def test_no_match_lists_nearest(self):
        g = job_graph(["database administrator", "data scientist", "java developer"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g.cached(GraphIndex), "quantum plumber")
        assert "nearest titles" in str(err.value)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            resolve_job_query(job_graph(["x"]).cached(GraphIndex), "  ,, ")

    def test_no_match_message_pinned(self):
        # five nearest distinct titles: most shared tokens first, then by title
        g = job_graph(["data engineer", "senior data engineer", "data scientist",
                       "java developer", "plumber", "Data Analyst", "engineer in training",
                       "zoo keeper"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g.cached(GraphIndex), "quantum data engineer")
        assert str(err.value) == (
            "no job title matches 'quantum data engineer'; nearest titles: "
            "['data engineer', 'senior data engineer', 'Data Analyst', 'data scientist', "
            "'engineer in training']")

    def test_nearest_titles_are_distinct(self):
        g = job_graph(["topic-3 engineer"] * 6 + ["topic-3 analyst", "Engineer", "plumber"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g.cached(GraphIndex), "engineer topic-3")
        assert str(err.value).endswith(
            "nearest titles: ['topic-3 engineer', 'topic-3 analyst', 'Engineer', 'plumber']")

    def test_nearest_titles_capped_at_five(self):
        g = job_graph([f"role {c}" for c in "fedcba"] * 2 + ["x"])
        with pytest.raises(QueryError, match=r"nearest titles: \['role a', 'role b', "
                                             r"'role c', 'role d', 'role e'\]$"):
            resolve_job_query(g.cached(GraphIndex), "role z")

    def test_index_matches_scan_on_random_titles(self):
        rng = np.random.default_rng(20)
        # few tokens, so repeats ("a a" in "a a b") and shared titles are common;
        # "ab", "ba" and "10" hold "a", "b" and "1", so a title holding "ab"
        # does not hold the run "a"; "--" and "" tokenize to nothing, "q" is
        # in no title
        words = ["a", "b", "c", "d", "ab", "ba", "1", "10", "--", ""]
        for _trial in range(3000):
            pool = [" ".join(rng.choice(words, size=int(rng.integers(0, 5))))
                    for _ in range(int(rng.integers(1, 5)))]
            titles = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 9)))]
            g = job_graph(titles)
            query = " ".join(rng.choice(words[:8] + ["q"], size=int(rng.integers(1, 4))))
            expected = ref_resolve_job_query(g, query)
            # the baseline's index, keyed by input position, through the same matcher
            by_input = match_titles(title_index(enumerate(titles)), tokenize(query))
            assert by_input.tolist() == sorted(int(j[1:]) for j in expected), (pool, query)
            if expected:
                got = resolve_job_query(g.cached(GraphIndex), query)
                assert list(got.items()) == list(expected.items()), (pool, query)
            else:
                with pytest.raises(QueryError, match="no job title matches"):
                    resolve_job_query(g.cached(GraphIndex), query)

    def test_checks_only_rarest_token_titles(self, monkeypatch):
        # each title key records itself whenever a query tests it for containment
        calls = []

        class Title(str):
            def __contains__(self, text):
                calls.append(str(self))
                return str.__contains__(self, text)

        real = GraphIndex.titles.func

        def recorded(index):
            titles = real(index)
            keys = {text: Title(text) for text in titles.titles}
            return TitleIndex(
                {keys[text]: positions for text, positions in titles.titles.items()},
                {token: [keys[text] for text in texts]
                 for token, texts in titles.postings.items()},
                titles.names)

        wrapped = functools.cached_property(recorded)
        wrapped.__set_name__(GraphIndex, "titles")
        monkeypatch.setattr(GraphIndex, "titles", wrapped)
        g = job_graph(["data engineer"] * 40 + ["data scientist"] * 40
                      + ["senior data engineer", "big data engineer ii", "engineer data"]
                      + ["plumber"] * 20)
        seeds = resolve_job_query(g.cached(GraphIndex), "data engineer")
        assert seeds == ref_resolve_job_query(g, "data engineer")
        postings = g.cached(GraphIndex).titles.postings
        assert len(postings["engineer"]) < len(postings["data"])
        assert sorted(calls) == sorted(postings["engineer"])
        assert len(calls) == 4

        # a renamed or added job reaches the next query through a rebuilt index
        g.set_node_name("J99", "lead data engineer")
        calls.clear()
        assert "J99" in resolve_job_query(g.cached(GraphIndex), "data engineer")
        assert len(calls) == 5
        g.add_node("J200", NodeKind.JOB, "data engineer")
        calls.clear()
        assert list(resolve_job_query(g.cached(GraphIndex), "data engineer")) == list(
            ref_resolve_job_query(g, "data engineer"))
        assert "J200" in ref_resolve_job_query(g, "data engineer")
        assert len(calls) == 5

        calls.clear()
        with pytest.raises(QueryError):
            resolve_job_query(g.cached(GraphIndex), "data plumber quantum")
        assert calls == []


class TestMetaPath:
    def test_kind_chain_enforced(self):
        with pytest.raises(QueryError, match="breaks"):
            MetaPath((MetaPathStep(Relation.REQUIRED), MetaPathStep(Relation.PRE_REQUIRED)))
        path = MetaPath((MetaPathStep(Relation.REQUIRED), MetaPathStep(Relation.LINKED),
                         MetaPathStep(Relation.COVERED, reverse=True)))
        assert path.source_kind is NodeKind.JOB

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MetaPath(())

    def test_unpickled_path_hashes_as_this_process_does(self):
        # a path's hash is kept, and a str's hash differs between processes
        script = ("import pickle, sys; from skillgraph.ranker import BASE_PATH; "
                  "sys.stdout.buffer.write(pickle.dumps(BASE_PATH))")
        env = {**os.environ, "PYTHONHASHSEED": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(ranker.__file__).parents[1]),
                                                           os.environ.get("PYTHONPATH")]))}
        path = pickle.loads(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                           capture_output=True).stdout)
        assert path == BASE_PATH and hash(path) == hash(BASE_PATH)
        assert {(BASE_PATH, 0): "edges"}[(path, 0)] == "edges"


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
        scores = score_metapath(BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores == {"C1": pytest.approx(1.0)}

    def test_two_tours_add(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        scores = score_metapath(BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores["C1"] == pytest.approx(1.0, abs=1e-12)

    def test_restriction_blocks_outside_tour(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        labels["S2"] = 1
        scores = score_metapath(BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores["C1"] == pytest.approx(0.5, abs=1e-12)

    def test_wrong_seed_kind_rejected(self):
        g, labels = single_tour_graph()
        with pytest.raises(QueryError, match="^seed 'C1' is a course, path starts at a job$"):
            score_metapath(BASE_PATH, seeds_on(g, {"C1": 1.0}, COURSE), labels, community=0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        steps = [(s.relation, s.reverse, s.community_restricted) for s in BASE_PATH.steps]
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            for community in (0, 1):
                got = score_metapath(BASE_PATH, seeds_on(g, seeds, JOB), labels, community)
                want = ref_score_metapath(g, steps, seeds, labels, community)
                assert set(got) == set(want)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)

    def test_removing_edge_never_raises_scores(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        full = score_metapath(BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, 0)
        pruned = HeteroGraph()
        for n in g.node_ids():
            pruned.add_node(n, g._kind[n], g.node_name(n))
        for source, relation, target, weight in edges(g):
            if (source, target) != ("S2", "S3"):
                pruned.add_edge(source, relation, target, weight)
        less = score_metapath(BASE_PATH, seeds_on(pruned, {"J1": 1.0}, JOB), labels, 0)
        for node, score in less.items():
            assert score <= full.get(node, 0.0) + 1e-12

    def test_edge_removal_monotone_on_random_graphs(self):
        # dropping any one edge never raises any candidate's score
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g, labels = random_hetero_graph(rng)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            full = score_metapath(BASE_PATH, seeds_on(g, seeds, JOB), labels, 0)
            every = edges(g)
            victim = every[int(rng.integers(len(every)))]
            pruned = HeteroGraph()
            for n in g.node_ids():
                pruned.add_node(n, g._kind[n], g.node_name(n))
            for edge in every:
                if edge != victim:
                    pruned.add_edge(*edge)
            less = score_metapath(BASE_PATH, seeds_on(pruned, seeds, JOB), labels, 0)
            for node, score in less.items():
                assert score <= full.get(node, 0.0) + 1e-12

    def test_serialization_insertion_order_irrelevant(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        shuffled = HeteroGraph()
        for n in reversed(g.node_ids()):
            shuffled.add_node(n, g._kind[n], g.node_name(n))
        for edge in reversed(edges(g)):
            shuffled.add_edge(*edge)
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        a = format_ranked_list(recommend(g, labels, inp))
        b = format_ranked_list(recommend(shuffled, labels, inp))
        assert a == b

    def test_unlabelled_node_passes_only_unrestricted_hops(self):
        g, labels = single_tour_graph()
        g.add_node("C2", NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        seeds = seeds_on(g, {"J1": 1.0}, JOB)
        del labels["S1"]  # C2 carries no label either
        assert score_metapath(BASE_PATH, seeds, labels, 0) == {}
        labels["S1"] = 0
        assert score_metapath(BASE_PATH, seeds, labels, 0) == {"C1": 1.0}
        upskill = score_metapath(ranker.UPSKILL_PATH, seeds, labels, 0)
        assert upskill == {"C2": 1.0}

    def test_seed_weight_scales_linearly(self):
        g, labels = single_tour_graph()
        one = score_metapath(BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, 0)
        three = score_metapath(BASE_PATH, seeds_on(g, {"J1": 3.0}, JOB), labels, 0)
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

    @pytest.mark.parametrize("node, kind", [("J1", "job"), ("S1", "skill")])
    def test_scenario2_taken_node_of_another_kind_named_by_kind(self, node, kind):
        # the node is in the graph, so the message names what it is
        g, labels = single_tour_graph()
        inp = ScenarioInput(scenario=2, career_goal="data engineer", taken_courses=("C1", node))
        with pytest.raises(QueryError, match=f"^taken course '{node}' is a {kind}, not a course$"):
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

    @pytest.mark.parametrize("scenario", [True, 1.0])
    def test_scenario_that_is_no_int_rejected(self, scenario):
        with pytest.raises(QueryError, match=rf"^unknown scenario {scenario!r}$"):
            ScenarioInput(scenario=scenario, career_goal="x")

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
                got, _prov = scenario_scores(labels, inp, seeds_on(g, seeds, JOB))
                want = ref_scenario_scores(g, labels, scenario, seeds,
                                           taken=taken if scenario == 2 else ())
                assert set(got) == set(want)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)

    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_prerequisite_depths_match_oracle_on_random_graphs(self, depth):
        compared = 0
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            taken = tuple(g.node_ids(NodeKind.COURSE)[:1])
            for scenario in (1, 2):
                inp = ScenarioInput(scenario=scenario, career_goal="q",
                                    taken_courses=taken if scenario == 2 else ())
                got, _prov = scenario_scores(labels, inp, seeds_on(g, seeds, JOB), depth)
                want = ref_scenario_scores(g, labels, scenario, seeds, taken=inp.taken_courses,
                                           depth=depth)
                assert set(got) == set(want), (seed, scenario)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)
                compared += len(want)
        assert compared > 50

    def test_scenarios_match_oracle_with_seeds_of_any_sign(self):
        # a negative seed cancels mass that others push, and each route keeps
        # only the nodes it leaves positive, before the routes add
        checked = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            g, labels = random_hetero_graph(rng, n_labels=3)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = dict(zip(jobs, rng.normal(size=len(jobs)).tolist()))
            taken = tuple(g.node_ids(NodeKind.COURSE)[:1])
            for scenario in (1, 2, 3):
                inp = ScenarioInput(scenario=scenario, career_goal="q" if scenario != 3 else None,
                                    taken_courses=taken if scenario == 2 else (),
                                    current_job="q" if scenario == 3 else None)
                got, _prov = scenario_scores(labels, inp, seeds_on(g, seeds, JOB))
                want = ref_scenario_scores(g, labels, scenario, seeds,
                                           taken=taken if scenario == 2 else ())
                assert set(got) == set(want), (seed, scenario)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)
                checked += len(want)
        assert checked > 40

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


class TestSeedErrors:
    """A scenario's inputs are checked in one order: every seed labelled,
    then every taken course in the graph, then the seeds' kind."""

    @staticmethod
    def graph():
        g, labels = single_tour_graph()
        g.add_node("J2", NodeKind.JOB, "data engineer")
        g.add_node("C0", NodeKind.COURSE)
        return g, {**labels, "C0": 0}

    def test_unlabelled_seed_raises_first(self):
        g, labels = self.graph()
        inp = ScenarioInput(2, career_goal="data engineer", taken_courses=("CX",))
        # J2 is unlabelled; C0 is labelled, but no course starts a job's walk
        for weights in ({"J1": 0.5, "J2": 0.5}, {"J2": 0.5, "J1": 0.5}):
            with pytest.raises(QueryError, match="^job 'J2' carries no community label$"):
                scenario_scores(labels, inp, seeds_on(g, weights, JOB))
        g.add_node("C9", NodeKind.COURSE)
        with pytest.raises(QueryError, match="^job 'C9' carries no community label$"):
            scenario_scores(labels, inp, seeds_on(g, {"C0": 0.5, "C9": 0.5}, COURSE))

    def test_unlabelled_resolved_job_raises_first(self):
        # the same order on the recommend path, where seeds are index positions
        g, labels = self.graph()
        g.add_node("J3", NodeKind.JOB, "plumber")
        for goal, unlabelled in (("data engineer", "J2"), ("plumber", "J3")):
            for taken in (("C1",), ("CX",)):
                inp = ScenarioInput(2, career_goal=goal, taken_courses=taken)
                with pytest.raises(QueryError,
                                   match=f"^job '{unlabelled}' carries no community label$"):
                    recommend(g, labels, inp)

    def test_order_holds_when_every_group_is_dead(self):
        # J1 and the course seeds sit in communities no required skill lands
        # in, so no group can reach a course and no walk runs; the checks
        # still come in order, and empty seeds of the wrong kind pass
        g, labels = self.graph()
        labels = {**labels, "J1": 5, "C0": 6, "C1": 7}
        jobs = seeds_on(g, {"J1": 0.5, "J2": 0.5}, JOB)
        courses = seeds_on(g, {"C0": 0.5, "C1": 0.5}, COURSE)
        for taken in (("CX",), ("C1",)):
            inp = ScenarioInput(2, career_goal="q", taken_courses=taken)
            with pytest.raises(QueryError, match="^job 'J2' carries no community label$"):
                scenario_scores(labels, inp, jobs)
        inp = ScenarioInput(2, career_goal="q", taken_courses=("C1", "CX"))
        for seeds in (seeds_on(g, {"J1": 1.0}, JOB), courses):
            with pytest.raises(QueryError, match="^taken course 'CX' is not in the graph$"):
                scenario_scores(labels, inp, seeds)
        for inp in (ScenarioInput(1, career_goal="q"), ScenarioInput(3, current_job="q"),
                    ScenarioInput(2, career_goal="q", taken_courses=("C1",))):
            with pytest.raises(QueryError, match="^seed 'C0' is a course, path starts at a job$"):
                scenario_scores(labels, inp, courses)
            total, prov = scenario_scores(labels, inp, seeds_on(g, {}, COURSE))
            assert total == {} and prov.seeds == {} and prov.base == {}
            total, prov = scenario_scores(labels, inp, seeds_on(g, {"J1": 1.0}, JOB))
            assert total == {} and prov.base == {5: {}}

    def test_course_seed_rejected(self):
        g, labels = self.graph()
        seeds = seeds_on(g, {"C0": 0.5, "C1": 0.5}, COURSE)
        for scenario in (1, 3):
            inp = ScenarioInput(scenario, career_goal="q" if scenario == 1 else None,
                                current_job="q" if scenario == 3 else None)
            with pytest.raises(QueryError, match="^seed 'C0' is a course, path starts at a job$"):
                scenario_scores(labels, inp, seeds)
        # a taken course not in the graph raises before the seeds' kind
        inp = ScenarioInput(2, career_goal="q", taken_courses=("C1", "CX"))
        with pytest.raises(QueryError, match="^taken course 'CX' is not in the graph$"):
            scenario_scores(labels, inp, seeds)


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
            assert (score_metapath(BASE_PATH, seeds_on(g, {"J2": 1.0}, JOB), labels, 0)
                    == score_metapath(BASE_PATH, seeds_on(fresh, {"J2": 1.0}, JOB),
                                      dict(labels), 0))

    @pytest.mark.parametrize("change", [
        lambda g: g.add_node("J2", NodeKind.JOB, "data engineer"),
        lambda g: g.set_node_name("J1", "data engineer lead"),
    ])
    def test_seeds_kept_across_a_change_walk_the_index_they_were_made_on(self, change):
        # a walk reads seeds and scores on their own index, which a change to
        # the graph leaves as it was: they walk the graph before the change
        g = two_tour_graph()
        g.add_node("C0", NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        labels = {n: 0 for n in g.node_ids()}
        labels["J2"] = 0
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        before = g.copy()
        seeds = resolve_job_query(g.cached(GraphIndex), "data engineer")
        base = score_metapath(BASE_PATH, seeds, labels, 0)
        change(g)
        assert g.cached(GraphIndex) is not seeds.index
        kept = resolve_job_query(before.cached(GraphIndex), "data engineer")
        want = score_metapath(BASE_PATH, kept, labels, 0)
        got = score_metapath(BASE_PATH, seeds, labels, 0)
        assert got.index is seeds.index and got.vector.tobytes() == want.vector.tobytes()
        hop = prerequisite_expansion(base)
        assert hop.index is seeds.index
        assert hop.vector.tobytes() == prerequisite_expansion(want).vector.tobytes()
        assert hop == {"C0": 1.0}
        (got, got_prov), (want, want_prov) = (scenario_scores(labels, inp, made)
                                              for made in (seeds, kept))
        assert got.vector.tobytes() == want.vector.tobytes() and got_prov == want_prov
        fresh = two_tour_graph()
        fresh.add_node("C0", NodeKind.COURSE)
        fresh.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        change(fresh)
        assert recommend(g, labels, inp) == recommend(fresh, labels, inp)

    @pytest.mark.parametrize("change", [
        lambda g: g.add_node("C2", NodeKind.COURSE),
        lambda g: (g.add_node("C2", NodeKind.COURSE), g.add_edge("C2", Relation.COVERED, "S3", 1.0)),
    ])
    def test_seeds_kept_across_a_change_are_refused(self, change):
        # seeds kept across a change know only the nodes of the graph they
        # were made on: a taken course the change added is refused against
        # them, and accepted against seeds resolved on the changed graph
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        labels["C2"] = 0
        inp = ScenarioInput(2, career_goal="data engineer", taken_courses=("C2",))
        seeds = resolve_job_query(g.cached(GraphIndex), "data engineer")
        change(g)
        with pytest.raises(QueryError, match="^taken course 'C2' is not in the graph$"):
            scenario_scores(labels, inp, seeds)
        after = resolve_job_query(g.cached(GraphIndex), "data engineer")
        total, _ = scenario_scores(labels, inp, after)
        assert "C2" not in total and total["C1"] > 0.0
        fresh = two_tour_graph()
        change(fresh)
        assert recommend(g, labels, inp) == recommend(fresh, labels, inp)

    def test_renamed_job_resolves_by_new_title(self):
        g = job_graph(["data engineer"])
        assert resolve_job_query(g.cached(GraphIndex), "data engineer") == {"J0": 1.0}
        g.set_node_name("J0", "plumber")
        assert resolve_job_query(g.cached(GraphIndex), "plumber") == {"J0": 1.0}
        with pytest.raises(QueryError, match="nearest titles: \\['plumber'\\]"):
            resolve_job_query(g.cached(GraphIndex), "data engineer")

    def test_index_keeps_the_names_it_was_built_with(self):
        # an index built before a rename resolves the old title; recommend,
        # which reads the graph's index, resolves the new one
        g, labels = single_tour_graph()
        index = g.cached(GraphIndex)
        g.set_node_name("J1", "plumber")
        assert index.names == ("C1", "data engineer", "S1", "S2")
        seeds = resolve_job_query(index, "data engineer")
        assert seeds == {"J1": 1.0} and seeds.index is index
        with pytest.raises(QueryError, match="nearest titles: \\['data engineer'\\]"):
            resolve_job_query(index, "plumber")
        assert recommend(g, labels, ScenarioInput(1, career_goal="plumber")).entries == (
            ("C1", 1.0),)
        with pytest.raises(QueryError, match="nearest titles: \\['plumber'\\]"):
            recommend(g, labels, ScenarioInput(1, career_goal="data engineer"))
        assert g.cached(GraphIndex) is not index

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
        seeds = seeds_on(g, {"J1": 1.0}, JOB)
        assert score_metapath(BASE_PATH, seeds, labels, 0)["C1"] == pytest.approx(1.0)
        labels["S2"] = 1
        assert score_metapath(BASE_PATH, seeds, labels, 0)["C1"] == pytest.approx(0.5)

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
           if g._kind[node] is NodeKind.JOB or rng.random() > 0.2}
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
        if step.community_restricted:
            scores[outside] = 0.0
    return {index.ids[i]: scores[i] for i in np.flatnonzero(scores > 0.0).tolist()}


def full_relation_hop(base, depth):
    """``depth`` prerequisite levels from ``base``'s vector, each a scatter
    of every prerequisite edge, the levels summed in order."""
    index = base.index
    src, dst, wgt = index.rel_edges[Relation.PRE_REQUIRED]
    level, extra = base.vector, None
    for _ in range(depth):
        level = np.bincount(dst, weights=wgt * level[src], minlength=index.n)
        extra = level if extra is None else extra + level
    return {index.ids[i]: extra[i] for i in np.flatnonzero(extra > 0.0).tolist()}


@pytest.fixture(scope="module")
def fanned_out(tmp_path_factory):
    """The linked graph of a ``synth --seed 1`` 400/60/600 corpus, and its
    merged labels split three ways: a node's community is its merged label
    times 3 plus its place among the sorted node ids mod 3. Detection finds
    one community per topic here, so a split is what makes a query's jobs
    fan out over several community groups, some of whose walks cannot reach
    a course."""
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
    merged = read_labels(out / cli.F_LABELS)
    cli._attach_job_titles(g, load_jobs(out / cli.F_JOBS))
    return g, Labels({node: merged[node] * 3 + i % 3 for i, node in enumerate(sorted(merged))})


FANNED_OUT_GOAL = "topic-4 engineer"
FANNED_OUT_INPUTS = (
    ScenarioInput(1, career_goal=FANNED_OUT_GOAL),
    ScenarioInput(2, career_goal=FANNED_OUT_GOAL, taken_courses=("C024", "C000")),
    ScenarioInput(3, current_job=FANNED_OUT_GOAL),
)


class TestCommunityGate:
    """A restricted step scatters only its community's slice of the edges."""

    COMMUNITIES = (-3, 2 ** 70, 7, 99, 12345)

    def test_sliced_scores_equal_oracle_and_full_scatter(self):
        # every community gated, so a graph yields about five scores: 120 graphs
        checked = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            g, plain = random_hetero_graph(rng, n_labels=3)
            labels = awkward_labels(rng, g, plain)
            read_only = Labels(labels)
            kind_seeds = {kind: seeds_on(g, {n: 1.0 / len(g.node_ids(kind))
                                             for n in g.node_ids(kind)}, kind)
                          for kind in (NodeKind.JOB, NodeKind.COURSE)}
            for path in (BASE_PATH, TAKEN_PATH, UPSKILL_PATH):
                seeds = kind_seeds[path.source_kind]
                steps = [(s.relation, s.reverse, s.community_restricted) for s in path.steps]
                for community in self.COMMUNITIES:
                    got = score_metapath(path, seeds, read_only, community)
                    # the same tours summed in the same order: equal to the bit
                    assert got == full_scatter_then_zero(g, path, seeds, labels, community)
                    assert score_metapath(path, seeds, labels, community) == got
                    want = ref_score_metapath(g, steps, seeds, labels, community)
                    assert set(got) == set(want), (seed, path, community)
                    for node, score in want.items():
                        assert got[node] == pytest.approx(score, abs=1e-12)
                    checked += len(want)
        assert checked > 500

    def test_each_frame_places_its_nodes(self):
        # under labels with absent communities, 2**70, -3 and unlabelled
        # nodes, each frame's place map sends its nodes to 0, 1, ... and
        # every other position to the sink slot len(nodes)
        absent = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g, plain = random_hetero_graph(rng, n_labels=3)
            labels = Labels(awkward_labels(rng, g, plain))
            index = g.cached(GraphIndex)
            gate = labels.cached(index, ranker.CommunityEdges)
            everywhere = np.arange(index.n)
            whole = gate.frame(None)
            assert np.array_equal(whole.place, everywhere)
            kind_seeds = {kind: seeds_on(g, {n: 1.0 for n in g.node_ids(kind)}, kind)
                          for kind in (NodeKind.JOB, NodeKind.COURSE)}
            for frame in (whole, *map(gate.frame, self.COMMUNITIES)):
                nodes = frame.nodes
                assert np.array_equal(frame.place[nodes], np.arange(len(nodes)))
                outside = np.setdiff1d(everywhere, nodes)
                assert (frame.place[outside] == len(nodes)).all()
                at, inside = frame.where(everywhere)
                assert np.array_equal(inside, np.isin(everywhere, nodes))
                assert np.array_equal(at, frame.place)
                if frame.community is None or frame.community in gate.slot:
                    continue
                # a community no node carries frames nothing, and walks to nothing
                absent += 1
                assert len(nodes) == 0
                for path in (BASE_PATH, TAKEN_PATH, UPSKILL_PATH):
                    got = score_metapath(path, kind_seeds[path.source_kind], labels,
                                         frame.community)
                    assert got.frame is frame and len(got.values) == len(nodes)
                    assert not got.values.any()
        assert absent >= 80

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
                    got, _prov = scenario_scores(given, inp, seeds_on(g, seeds, JOB))
                    assert set(got) == set(want), (seed, scenario)
                    for node, score in want.items():
                        assert got[node] == pytest.approx(score, abs=1e-12)
        assert outside_taken >= 20

    def test_prerequisite_hop_equals_full_relation_hop(self):
        # a base made by a restricted last step holds mass only in its
        # community, so its first hop scatters only the edges that leave it:
        # the same pushes summed in the same order, so equal to the bit
        checked = empty_slice = landing_outside = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g, plain = random_hetero_graph(rng, n_labels=3)
            labels = awkward_labels(rng, g, plain)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = seeds_on(g, dict(zip(jobs, rng.normal(size=len(jobs)).tolist())), JOB)
            for community in self.COMMUNITIES:
                base = score_metapath(BASE_PATH, seeds, labels, community)
                if not base:
                    continue
                assert base.within and base.frame.community == community
                ids = base.index.ids
                src, dst, _wgt = base.index.rel_edges[Relation.PRE_REQUIRED]
                leaving = [d for s, d in zip(src.tolist(), dst.tolist())
                           if labels.get(ids[s]) == community]
                empty_slice += not leaving
                landing_outside += any(labels.get(ids[d]) != community for d in leaving)
                for depth in (1, 2, 3):
                    got = prerequisite_expansion(base, depth)
                    assert got == full_relation_hop(base, depth), (seed, community, depth)
                    checked += len(got)
        assert empty_slice >= 5 and landing_outside >= 30 and checked > 500

    def test_unrestricted_step_after_an_unrestricted_one_takes_every_edge(self):
        # J0 -r-> S0 <-c- C0 -p-> C1: the covered step leaves community 0 for
        # C0 in community 1, so the prerequisite step after it must take every
        # edge, not only the ones leaving community 0 (there are none)
        g = HeteroGraph()
        for node, kind in (("J0", JOB), ("S0", NodeKind.SKILL), ("C0", COURSE), ("C1", COURSE)):
            g.add_node(node, kind)
        g.add_edge("J0", Relation.REQUIRED, "S0", 1.0)
        g.add_edge("C0", Relation.COVERED, "S0", 1.0)
        g.add_edge("C0", Relation.PRE_REQUIRED, "C1", 1.0)
        labels = Labels({"J0": 0, "S0": 0, "C0": 1, "C1": 1})
        path = MetaPath((MetaPathStep(Relation.REQUIRED, community_restricted=True),
                         MetaPathStep(Relation.COVERED, reverse=True),
                         MetaPathStep(Relation.PRE_REQUIRED)))
        assert not path.framed
        seeds = seeds_on(g, {"J0": 1.0}, JOB)
        got = score_metapath(path, seeds, labels, 0)
        assert got == {"C1": 1.0}
        vector = np.zeros(seeds.index.n)
        vector[seeds.pos] = seeds.weight
        want = dense_walk(seeds.index, dense_gated_edges(seeds.index, labels, path, 0), vector)
        assert got.vector.tobytes() == want.tobytes()

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
        # "topic-4 engineer" jobs sit in three communities of this corpus,
        # and each reaches courses, so a gate that reads another community's
        # slice, or drops one, changes these bytes
        g, labels = fanned_out
        goal = FANNED_OUT_GOAL
        expected = {
            ScenarioInput(1, career_goal=goal): (
                "rank,node_id,score\n1,C028,0.00291490157272\n2,C024,0.00263188725698\n"
                "3,C026,0.00125755590836\n4,C025,0.00106901545095\n"
                "5,C027,0.000896826485564\n6,C029,0.000607725760198\n"),
            ScenarioInput(2, career_goal=goal, taken_courses=("C024", "C000")): (
                "rank,node_id,score\n1,C028,0.00291490157272\n2,C026,0.00125755590836\n"
                "3,C025,0.00106901545095\n4,C027,0.000896826485564\n"
                "5,C029,0.000607725760198\n"),
            ScenarioInput(3, current_job=goal): (
                "rank,node_id,score\n1,C025,0.00136029655263\n2,C029,0.000921889458691\n"
                "3,C026,0.00090686436842\n4,C027,0.000567971298232\n"
                "5,C028,0.000484290899407\n"),
        }
        for inp, text in expected.items():
            ranked = recommend(g, labels, inp, cutoff=10)
            assert len(ranked.provenance.seeds) == 3
            assert format_ranked_list(ranked) == text


class TestScenarioRoutes:
    """Each route runs once per community group, in the order base ->
    prerequisite hop -> taken walk, on a goal that fans out over three
    groups."""

    def test_raw_totals_pinned(self, fanned_out):
        # the full repr pins every float to the bit and the key order, so a
        # change in which route merges first, or in summation order, shows
        g, labels = fanned_out
        expected = [
            "{'C024': 0.0026318872569821845, 'C025': 0.0010690154509534558, "
            "'C026': 0.0012575559083636081, 'C027': 0.0008968264855640164, "
            "'C028': 0.0029149015727190203, 'C029': 0.0006077257601980215}",
            "{'C025': 0.0010690154509534558, 'C026': 0.0012575559083636081, "
            "'C027': 0.0008968264855640164, 'C028': 0.0029149015727190203, "
            "'C029': 0.0006077257601980215}",
            "{'C025': 0.0013602965526293882, 'C026': 0.0009068643684195921, "
            "'C027': 0.0005679712982316051, 'C028': 0.00048429089940744117, "
            "'C029': 0.0009218894586914641}",
        ]
        for inp, want in zip(FANNED_OUT_INPUTS, expected):
            seeds = resolve_job_query(g.cached(GraphIndex), inp.query_text)
            total, prov = scenario_scores(labels, inp, seeds)
            assert len(prov.seeds) == 3
            assert repr(total) == want

    def test_prerequisite_hop_runs_once_per_nonempty_base(self, fanned_out, monkeypatch):
        g, labels = fanned_out
        bases = []

        def counting(base_scores, depth=ranker.DEFAULT_PREREQ_DEPTH):
            bases.append(dict(base_scores))
            return prerequisite_expansion(base_scores, depth)

        monkeypatch.setattr(ranker, "prerequisite_expansion", counting)
        for inp in FANNED_OUT_INPUTS:
            bases.clear()
            prov = recommend(g, labels, inp).provenance
            nonempty = [base for base in prov.base.values() if base]
            assert len(prov.base) == len(nonempty) == 3
            assert bases == (nonempty if inp.scenario != 3 else [])

    def test_walks_that_cannot_reach_a_course_push_nothing(self, fanned_out):
        # some groups of "engineer" have a walk that cannot reach a course:
        # their bases are empty, and each total equals, to the bit, the one
        # of the other groups' seeds alone
        g, labels = fanned_out
        seeds = resolve_job_query(g.cached(GraphIndex), MANY_SEEDS_GOAL)
        counts = []
        for inp in (MANY_SEEDS_INPUTS[0], MANY_SEEDS_INPUTS[2]):
            total, prov = scenario_scores(labels, inp, seeds)
            dead = [c for c, base in prov.base.items() if not base]
            keep = ~np.isin(seeds.pos, np.concatenate([prov.seeds[c].pos for c in dead]))
            live = ranker.Seeds(seeds.index, seeds.pos[keep], seeds.weight[keep], JOB)
            alone, alone_prov = scenario_scores(labels, inp, live)
            assert list(alone_prov.base) == [c for c in prov.base if c not in dead]
            assert alone.vector.tobytes() == total.vector.tobytes()
            counts.append(len(dead))
        assert counts == [9, 11]

    def test_community_without_prerequisite_edges_ends_its_hops(self):
        # community 0 sorts first and none of its courses has a prerequisite
        # edge either way, so its prerequisite hop (scenario 1) and its
        # upskilling walk (scenario 3) end with no scatter; community 1's
        # float scores then add to a total that must hold floats too
        g = HeteroGraph()
        labels = {}
        for node, kind, community in (
                ("J0", JOB, 0), ("S0", NodeKind.SKILL, 0), ("S1", NodeKind.SKILL, 0),
                ("C0", COURSE, 0), ("J1", JOB, 1), ("S2", NodeKind.SKILL, 1),
                ("S3", NodeKind.SKILL, 1), ("C1", COURSE, 1), ("C2", COURSE, 1),
                ("C3", COURSE, 1)):
            g.add_node(node, kind, "data engineer" if kind is JOB else None)
            labels[node] = community
        for source, relation, target in (
                ("J0", Relation.REQUIRED, "S0"), ("S0", Relation.LINKED, "S1"),
                ("C0", Relation.COVERED, "S1"), ("J1", Relation.REQUIRED, "S2"),
                ("S2", Relation.LINKED, "S3"), ("C1", Relation.COVERED, "S3"),
                ("C1", Relation.PRE_REQUIRED, "C2"), ("C3", Relation.PRE_REQUIRED, "C1")):
            g.add_edge(source, relation, target, 1.0)
        for scenario, answer in ((1, ("C0", "C1", "C2")), (3, ("C3",))):
            inp = ScenarioInput(scenario, career_goal="data engineer" if scenario == 1 else None,
                                current_job="data engineer" if scenario == 3 else None)
            want = ref_scenario_scores(g, labels, scenario, {"J0": 0.5, "J1": 0.5})
            seeds = resolve_job_query(g.cached(GraphIndex), "data engineer")
            total, prov = scenario_scores(labels, inp, seeds)
            assert list(prov.seeds) == [0, 1]
            assert total.vector.dtype == np.float64
            assert total == want
            ranked = recommend(g, labels, inp)
            assert ranked.entries == tuple(sorted(want.items(), key=lambda e: (-e[1], e[0])))
            assert [node for node, _score in ranked.entries] == list(answer)
        assert prov.base[0] == {} and prov.base[1] == {"C3": 0.5}

    def test_recommend_provenance_is_scenario_scores(self, fanned_out):
        # and each group's seeds, base and the summed hops are those of
        # grouping the seeds one at a time and walking each group on its own
        g, labels = fanned_out
        for inp in (*FANNED_OUT_INPUTS, *MANY_SEEDS_INPUTS):
            seeds = resolve_job_query(g.cached(GraphIndex), inp.query_text)
            prov = recommend(g, labels, inp).provenance
            assert prov == scenario_scores(labels, inp, seeds)[1]
            assert prov == eager_provenance(labels, inp, seeds)
            assert list(prov.seeds) == list(prov.base) == sorted(prov.seeds)



MANY_SEEDS_GOAL = "engineer"
MANY_SEEDS_INPUTS = (
    ScenarioInput(1, career_goal=MANY_SEEDS_GOAL),
    ScenarioInput(2, career_goal=MANY_SEEDS_GOAL, taken_courses=("C024", "C000")),
    ScenarioInput(3, current_job=MANY_SEEDS_GOAL),
)


class TestManySeeds:
    """``engineer`` resolves to 107 jobs of the fanned-out corpus, split over
    30 community groups (every community its jobs are in)."""

    GROUP_SIZES = {0: 3, 1: 3, 2: 1, 3: 1, 4: 2, 5: 5, 6: 6, 7: 3, 8: 3, 9: 5, 10: 5, 11: 5,
                   12: 7, 13: 4, 14: 3, 15: 6, 16: 2, 17: 5, 18: 2, 19: 5, 20: 2, 21: 4, 22: 2,
                   23: 2, 24: 3, 25: 4, 26: 2, 27: 5, 28: 3, 29: 4}

    def test_resolution_equals_the_scan(self, fanned_out):
        g, _labels = fanned_out
        seeds = resolve_job_query(g.cached(GraphIndex), MANY_SEEDS_GOAL)
        want = ref_resolve_job_query(g, MANY_SEEDS_GOAL)
        assert len(seeds) == 107
        assert seeds == want
        assert list(seeds.items()) == list(want.items())

    def test_totals_groups_and_lists_pinned(self, fanned_out):
        # the sha256 of each total's repr pins every float to the bit and the
        # key order
        g, labels = fanned_out
        expected = [
            ("1cb87a36f52ded438f9ecaf72aee862166805160c84217ccea435243b32b7e56",
             "rank,node_id,score\n1,C018,0.000539324511947\n2,C020,0.000480347797027\n"
             "3,C019,0.00046970287833\n4,C028,0.000381388990823\n5,C024,0.000344359080353\n"
             "6,C012,0.000261708837709\n7,C000,0.000180538789388\n8,C051,0.000175038459853\n"
             "9,C023,0.000171923237142\n10,C001,0.000166085619743\n"),
            ("34bd0e887768a124f9a1f8ae07fa1bb40071c922b72504de3b006761f4b41905",
             "rank,node_id,score\n1,C018,0.000539324511947\n2,C020,0.000480347797027\n"
             "3,C019,0.00046970287833\n4,C028,0.000381388990823\n5,C012,0.000261708837709\n"
             "6,C051,0.000175038459853\n7,C023,0.000171923237142\n8,C001,0.000166085619743\n"
             "9,C026,0.000164540025393\n10,C004,0.00015898486609\n"),
            ("ceeff9019434683fa44eb220b1b9bd3c3ea4700587e96702e7b6fca9f3ccc3e7",
             "rank,node_id,score\n1,C021,0.000241710548627\n2,C025,0.000177982726512\n"
             "3,C022,0.000171670062191\n4,C023,0.000141307342158\n5,C029,0.00012062105067\n"
             "6,C026,0.000118655151008\n7,C013,0.000111451490056\n8,C020,0.000107010725762\n"
             "9,C014,0.000101732524688\n10,C015,0.000100517383038\n"),
        ]
        seeds = resolve_job_query(g.cached(GraphIndex), MANY_SEEDS_GOAL)
        for inp, (digest, text) in zip(MANY_SEEDS_INPUTS, expected):
            total, prov = scenario_scores(labels, inp, seeds)
            assert hashlib.sha256(repr(total).encode()).hexdigest() == digest, inp
            assert {c: len(group) for c, group in prov.seeds.items()} == self.GROUP_SIZES
            assert all(list(group) == sorted(group) for group in prov.seeds.values())
            ranked = recommend(g, labels, inp, cutoff=10)
            assert ranked.provenance == prov
            assert format_ranked_list(ranked) == text


    def test_no_per_seed_lookups(self, fanned_out, monkeypatch):
        # a query's seeds stay index positions: 107 seeds cost no more label
        # lookups than 14 do
        g, labels = fanned_out
        counts = {"get": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Labels, "get", counted("get", Labels.get))
        recommend(g, labels, ScenarioInput(1, career_goal=FANNED_OUT_GOAL))
        seen = []
        for goal, size in ((MANY_SEEDS_GOAL, 107), (FANNED_OUT_GOAL, 14)):
            assert len(resolve_job_query(g.cached(GraphIndex), goal)) == size
            counts.update(get=0)
            recommend(g, labels, ScenarioInput(1, career_goal=goal))
            seen.append(dict(counts))
        assert seen[0] == seen[1]


@pytest.fixture(scope="module")
def query_m(query_m_pipeline):
    """The linked graph and labels of the ``query_m_pipeline`` corpus,
    shaped as perfbench's ``query-m``."""
    out = query_m_pipeline.out
    g = read_snapshot(out / cli.F_LINKED_GRAPH)
    labels = read_labels(out / cli.F_LABELS)
    cli._attach_job_titles(g, load_jobs(out / cli.F_JOBS))
    return g, labels


def assert_equals_dense(g, labels, inp, depth=ranker.DEFAULT_PREREQ_DEPTH):
    """``scenario_scores`` and ``recommend`` on ``inp`` equal the dense
    scorer's vectors and list to the bit; returns the framed total and
    provenance."""
    seeds = resolve_job_query(g.cached(GraphIndex), inp.query_text)
    index = seeds.index
    total, prov = scenario_scores(labels, inp, seeds, depth)
    want = dense_scenario_scores(labels, inp, seeds, depth)
    dead = np.zeros(index.n)  # what a walk that cannot reach a course leaves
    assert total.vector.tobytes() == (dead if want.total is None else want.total).tobytes(), inp
    assert list(prov.base) == list(want.base)
    for community, base in want.base.items():
        got = prov.base[community].vector.tobytes()
        assert got == (dead if base is None else base).tobytes(), (inp, community)
    if want.prereq is None:
        assert prov.prereq == {}
    else:
        assert prov.prereq.vector.tobytes() == want.prereq.tobytes(), inp
    ranked = recommend(g, labels, inp, cutoff=None, prereq_depth=depth)
    assert ranked == to_ranked_list(index.ids, np.zeros(index.n) if want.total is None
                                    else want.total, inp.query_text, f"scenario-{inp.scenario}")
    return total, prov


class TestFrames:
    """A gated walk runs on vectors over its community's frame, and every
    score, list and provenance entry equals the dense scorer's to the bit."""

    def test_fanned_out_inputs_equal_the_dense_scorer(self, fanned_out):
        g, labels = fanned_out
        for inp in (*FANNED_OUT_INPUTS, *MANY_SEEDS_INPUTS):
            for depth in (0, 1, 2):
                assert_equals_dense(g, labels, inp, depth)

    def test_query_m_goals_equal_the_dense_scorer(self, query_m):
        g, labels = query_m
        goals = sorted({" ".join(g.node_name(job).split()[:2]) for job in g.node_ids(JOB)})
        assert len(goals) == 40
        framed = outside_taken = 0
        for goal in goals:
            first = recommend(g, labels, ScenarioInput(1, career_goal=goal), cutoff=1)
            community = labels[next(iter(resolve_job_query(g.cached(GraphIndex), goal)))]
            # one taken course the walk ranks, and one outside the goal's community
            away = next(c for c in g.node_ids(COURSE) if labels.get(c) != community)
            taken = tuple(dict.fromkeys([*(n for n, _s in first.entries), away]))
            outside_taken += len(taken) == 2
            for inp in (ScenarioInput(1, career_goal=goal),
                        ScenarioInput(2, career_goal=goal, taken_courses=taken),
                        ScenarioInput(3, current_job=goal)):
                total, _prov = assert_equals_dense(g, labels, inp)
                framed += total.frame.community is not None
        # query-m keeps a goal in one community group, so each total stays framed
        assert framed == 120 and outside_taken == 40

    def test_query_m_goals_equal_the_tour_enumeration(self, query_m, query_m_pipeline):
        # criterion 4 at a benchmark shape: every topic goal, scenarios 1-3,
        # against the DFS tour enumeration (about 5 s of this suite)
        g, labels = query_m
        topic_courses = {}
        for course, topic in sorted(query_m_pipeline.course_topic.items()):
            if course in g._kind:
                topic_courses.setdefault(topic, []).append(course)
        goals = sorted({" ".join(g.node_name(job).split()[:2]) for job in g.node_ids(JOB)})
        assert len(goals) == 40
        compared = 0
        for goal in goals:
            seeds = resolve_job_query(g.cached(GraphIndex), goal)
            topic = int(goal.split()[0].removeprefix("topic-"))
            # one course of the goal's topic and one of another topic
            taken = (topic_courses[topic][0],
                     topic_courses[(topic + 1) % len(topic_courses)][0])
            for inp in (ScenarioInput(1, career_goal=goal),
                        ScenarioInput(2, career_goal=goal, taken_courses=taken),
                        ScenarioInput(3, current_job=goal)):
                got, _prov = scenario_scores(labels, inp, seeds)
                want = ref_scenario_scores(g, labels, inp.scenario, dict(seeds),
                                           taken=inp.taken_courses)
                assert set(got) == set(want), inp
                for node, score in want.items():
                    assert abs(got[node] - score) <= 1e-12, (inp, node)
                compared += len(want)
        assert compared > 1000

    def test_multi_group_query_whose_hop_lands_in_another_group(self, query_m):
        # "engineer" spans every career community; this corpus keeps each
        # prerequisite in its topic, so one prerequisite of a course the
        # first live group reaches is moved to the second group's community
        g, plain = query_m
        goal = "engineer"
        _total, prov = scenario_scores(plain, ScenarioInput(1, career_goal=goal),
                                       resolve_job_query(g.cached(GraphIndex), goal))
        first, second = [c for c, base in prov.base.items() if base][:2]
        course, prereq = next((c, p) for c in prov.base[first]
                              for p, _w in out_edges(g, c, Relation.PRE_REQUIRED))
        labels = Labels({**plain, prereq: second})
        provs = {}
        for inp in (ScenarioInput(1, career_goal=goal),
                    ScenarioInput(2, career_goal=goal, taken_courses=(course, prereq)),
                    ScenarioInput(3, current_job=goal)):
            total, provs[inp.scenario] = assert_equals_dense(g, labels, inp)
            assert len([base for base in provs[inp.scenario].base.values() if base]) > 1
            assert total.frame.community is None
        # the first group's hop, in its own frame, reaches a member of the second's
        hop = prerequisite_expansion(provs[1].base[first])
        assert prereq in hop and hop.frame is provs[1].base[first].frame
        assert labels[prereq] == second and prereq in provs[1].prereq

    def test_gated_walk_holds_a_frame_length_array(self, fanned_out):
        g, labels = fanned_out
        seeds = resolve_job_query(g.cached(GraphIndex), FANNED_OUT_GOAL)
        _total, prov = scenario_scores(labels, FANNED_OUT_INPUTS[0], seeds)
        community, base = next((c, b) for c, b in prov.base.items() if b)
        index = seeds.index
        frame = base.frame
        assert len(base.values) == len(frame.nodes) < index.n
        assert np.all(np.diff(frame.nodes) > 0)
        gate = Labels(labels).cached(index, ranker.CommunityEdges)
        members = gate.members(community)
        assert np.all(np.diff(members) > 0)
        assert np.isin(members, frame.nodes).all()
        # the dense view is made when read, equal to the scores by id
        assert "vector" not in vars(base)
        assert {index.ids[i]: base.vector[i] for i in np.flatnonzero(base.vector)} == dict(base)

    def test_walk_calls_scatter_only_frame_length_vectors(self, fanned_out, monkeypatch):
        # every kernel call of a query whose groups each walk in their own
        # frame, a single prerequisite level, reads and writes vectors of it
        g, labels = fanned_out
        lengths = []

        def counting(scores, src, dst, wgt, n):
            lengths.append((len(scores), n))
            return propagate_step(scores, src, dst, wgt, n)

        propagate_step = kernels.propagate_step
        monkeypatch.setattr(kernels, "propagate_step", counting)
        for inp in FANNED_OUT_INPUTS:
            recommend(g, labels, inp)
        index = g.cached(GraphIndex)
        # three groups, each walking 3 + 1, 3 + 1 + 2 and 4 steps
        assert len(lengths) == 42
        assert all(a == b < index.n for a, b in lengths)

    def test_paths_of_a_library_caller(self, fanned_out):
        # a path of the caller's own scores as the dense scorer does: in the
        # community's frame when framed, in the whole graph when not
        g, labels = fanned_out
        seeds = resolve_job_query(g.cached(GraphIndex), FANNED_OUT_GOAL)
        vector = np.zeros(seeds.index.n)
        vector[seeds.pos] = seeds.weight
        _total, prov = scenario_scores(labels, FANNED_OUT_INPUTS[0], seeds)
        community = next(c for c, base in prov.base.items() if base)
        for steps in ((MetaPathStep(Relation.REQUIRED, community_restricted=True),
                       MetaPathStep(Relation.REQUIRED, reverse=True)),
                      (MetaPathStep(Relation.REQUIRED),
                       MetaPathStep(Relation.LINKED, community_restricted=True))):
            path = MetaPath(steps)
            got = score_metapath(path, seeds, labels, community)
            steps_edges = dense_gated_edges(seeds.index, labels, path, community)
            want = dense_walk(seeds.index, steps_edges, vector)
            assert (want > 0.0).any()
            assert got.vector.tobytes() == want.tobytes()
            assert (got.frame.community is not None) == path.framed == steps[0].community_restricted
            assert score_metapath(path, seeds, labels, community) == got

    def test_provenance_group_under_any_labels(self, fanned_out):
        # a group's seeds read from the provenance equal the dense walk under
        # the labels that grouped them, in their own community's frame and in
        # another's, and under labels that move one of them to that other one
        g, plain = fanned_out
        labels = Labels(plain)
        _total, prov = scenario_scores(labels, FANNED_OUT_INPUTS[0],
                                       resolve_job_query(g.cached(GraphIndex), FANNED_OUT_GOAL))
        community = next(c for c, base in prov.base.items() if base)
        group = prov.seeds[community]
        index = group.index
        # a seed whose walk reaches a course on its own
        alone = next(single for single in (ranker.Seeds(index, group.pos[i:i + 1],
                                                         group.weight[i:i + 1], JOB)
                                           for i in range(len(group)))
                     if score_metapath(BASE_PATH, single, labels, community))
        moved = next(iter(alone))
        vector = np.zeros(index.n)
        vector[group.pos] = group.weight
        for away in sorted(set(plain.values()) - {community}):
            others = Labels({**plain, moved: away})
            for given in (labels, others):
                for path in (BASE_PATH, UPSKILL_PATH):
                    for walked in (community, away):
                        got = score_metapath(path, group, given, walked)
                        steps = dense_gated_edges(index, given, path, walked)
                        want = (np.zeros(index.n) if steps is None
                                else dense_walk(index, steps, vector))
                        assert got.vector.tobytes() == want.tobytes(), (away, path, walked)
                        assert want.any() or walked == away
            # the moved seed still reaches the group's community through its edges
            assert score_metapath(BASE_PATH, alone, others, community)

    def test_routes_share_steps(self, fanned_out):
        # a frame's base and upskilling routes share their three restricted
        # steps' arrays
        g, plain = fanned_out
        labels = Labels(plain)
        for inp in (*FANNED_OUT_INPUTS, *MANY_SEEDS_INPUTS):
            recommend(g, labels, inp)
        index = g.cached(GraphIndex)
        frames = [frame for frame in labels.cached(index, ranker.CommunityEdges)._frames.values()
                  if frame.community is not None]
        for frame in frames:
            base, upskill = frame.route(BASE_PATH), frame.route(UPSKILL_PATH)
            assert all(a is b for a, b in zip(base, upskill[:3]))
        # every group of "engineer"
        assert len(frames) == 30

    def test_whole_graph_is_the_frame_of_no_community(self, fanned_out):
        # frame(None) holds every position and gates no edge; the totals of a
        # query whose groups walk in several frames, and every hop below the
        # first prerequisite level, end in it
        g, plain = fanned_out
        labels = Labels(plain)
        index = g.cached(GraphIndex)
        whole = labels.cached(index, ranker.CommunityEdges).frame(None)
        assert whole.community is None
        assert np.array_equal(whole.nodes, np.arange(index.n))
        (hop,) = whole.route(ranker._PREREQ_HOP)
        for got, want in zip(hop, index.rel_edges[Relation.PRE_REQUIRED]):
            assert np.array_equal(got, want)
        for inp in FANNED_OUT_INPUTS:
            seeds = resolve_job_query(g.cached(GraphIndex), inp.query_text)
            total, prov = scenario_scores(labels, inp, seeds)
            assert len(prov.seeds) == 3 and total.frame is whole
            if inp.scenario == 3:
                continue
            deep, deep_prov = scenario_scores(labels, inp, seeds, prereq_depth=2)
            assert deep.frame is whole and deep_prov.prereq.frame is whole
            base = next(base for base in prov.base.values() if base)
            assert prerequisite_expansion(base, depth=1).frame is base.frame
            assert prerequisite_expansion(base, depth=2).frame is whole


class TestEveryAnswerInAFrame:
    """Every ``Scores`` a walk, hop or scenario returns is in a frame of the
    index its seeds or base were made on, empty answers too, and its dense
    view covers every node of that index."""

    @staticmethod
    def assert_on(index, scores):
        assert scores.index is index and scores.frame.index is index
        assert len(scores.vector) == index.n

    def test_walks_and_hops(self):
        g, labels = single_tour_graph()
        g.add_node("C0", NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        labels = {**labels, "C0": 0}
        seeds = seeds_on(g, {"J1": 1.0}, JOB)
        none = seeds_on(g, {}, JOB)
        unframed = MetaPath((MetaPathStep(Relation.REQUIRED),
                             MetaPathStep(Relation.LINKED, community_restricted=True)))
        base = score_metapath(BASE_PATH, seeds, labels, 0)
        assert base == {"C1": 1.0}
        walks = [base, score_metapath(BASE_PATH, none, labels, 0),
                 score_metapath(unframed, seeds, labels, 0),
                 score_metapath(unframed, none, labels, 0)]
        hops = [prerequisite_expansion(base), prerequisite_expansion(base, depth=2),
                prerequisite_expansion(base, depth=0), prerequisite_expansion(walks[1])]
        assert hops[0] == hops[1] == {"C0": 1.0}
        assert not any(hops[2:]) and not any(walks[1::2])
        for scores in (*walks, *hops):
            self.assert_on(g.cached(GraphIndex), scores)
        other = scores_on(HeteroGraph(), {})
        self.assert_on(other.index, prerequisite_expansion(other))

    def test_scenarios(self):
        g, labels = single_tour_graph()
        for inp in (ScenarioInput(1, career_goal="data engineer"),
                    ScenarioInput(2, career_goal="data engineer", taken_courses=("C1",)),
                    ScenarioInput(3, current_job="data engineer")):
            for seeds in (resolve_job_query(g.cached(GraphIndex), inp.query_text),
                          seeds_on(g, {}, JOB)):
                for depth in (0, 1, 2):
                    total, prov = scenario_scores(labels, inp, seeds, depth)
                    assert bool(total) == (len(seeds) > 0 and inp.scenario == 1)
                    self.assert_on(g.cached(GraphIndex), total)
                    for base in prov.base.values():
                        self.assert_on(g.cached(GraphIndex), base)


class TestPrerequisiteExpansion:
    def test_depth_two_chains(self):
        g = HeteroGraph()
        for c in ("C2", "C1", "C0"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        base = scores_on(g, {"C2": 1.0})
        assert prerequisite_expansion(base, depth=1) == {"C1": 1.0}
        assert prerequisite_expansion(base, depth=2) == {"C1": 1.0, "C0": 1.0}
        assert prerequisite_expansion(base, depth=0) == {}

    def test_an_empty_answer_orders_no_edges(self, monkeypatch):
        # the frame of no community gates no edge, so the whole frames made
        # here never scan g's two edges for a community's ends
        g = HeteroGraph()
        for c in ("C2", "C1", "C0"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        scans = []
        original = ranker.Frame.ends

        def recording(frame, relation, target):
            scans.append(relation)
            return original(frame, relation, target)

        monkeypatch.setattr(ranker.Frame, "ends", recording)
        assert prerequisite_expansion(scores_on(g, {"C2": 1.0}), depth=0) == {}
        assert prerequisite_expansion(scores_on(HeteroGraph(), {})) == {}
        assert prerequisite_expansion(scores_on(g, {"C2": 1.0}), depth=2) == {
            "C1": 1.0, "C0": 1.0}
        assert scans == []

    def test_negative_depth_rejected(self):
        g = HeteroGraph()
        g.add_node("C0", NodeKind.COURSE)
        with pytest.raises(QueryError, match="depth -1 must be >= 0"):
            prerequisite_expansion(scores_on(g, {"C0": 1.0}), depth=-1)

    def test_shared_prerequisite_adds_pushes(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 0.5)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        base = scores_on(g, {"C2": 0.5, "C1": 0.25})
        assert prerequisite_expansion(base) == {"C0": 0.625, "C3": 0.125}

    def test_base_kept_across_a_change_hops_on_its_own_index(self):
        # A0 sorts first, so the change moves every course's index position
        g = HeteroGraph()
        for c in ("C0", "C1"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        before = g.copy()
        base, empty = scores_on(g, {"C1": 1.0}), scores_on(g, {})
        g.add_node("A0", NodeKind.COURSE)
        g.add_edge("C0", Relation.PRE_REQUIRED, "A0", 1.0)
        for depth in (1, 2):
            hop = prerequisite_expansion(base, depth)
            want = prerequisite_expansion(scores_on(before, {"C1": 1.0}), depth)
            assert hop.index is base.index and hop.vector.tobytes() == want.vector.tobytes()
            assert hop == {"C0": 1.0}
        # an empty base, or depth 0, answers zeros over the base's own index
        for hop in (prerequisite_expansion(empty), prerequisite_expansion(base, depth=0)):
            assert hop == {} and hop.index is base.index
            assert hop.vector.tobytes() == np.zeros(2).tobytes()

    def test_depth_two_sums_levels_over_branching_chain(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3", "C4"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C2", 0.5)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C0", 0.75)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C1", 0.25)
        assert prerequisite_expansion(scores_on(g, {"C4": 1.0}), depth=2) == {
            "C0": 0.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}
        # C0 is pushed at both levels: 1.0 from C2, then 0.5 + 0.375 through C2 and C3
        assert prerequisite_expansion(scores_on(g, {"C4": 1.0, "C2": 1.0}), depth=2) == {
            "C0": 1.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}


class TestRankedList:
    def test_sorted_ties_by_id(self):
        ranked = to_ranked_list(["a", "b", "c"], [1.0, 1.0, 2.0], "q", "s")
        assert ranked.entries == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_zero_scores_dropped_and_cutoff(self):
        ranked = to_ranked_list(["a", "b", "c"], [0.0, 1.0, 0.5], "q", "s", cutoff=1)
        assert ranked.entries == (("b", 1.0),)
        assert to_ranked_list(["b"], [1.0], "q", "s", cutoff=0).entries == ()

    def test_matches_a_sort_by_score_then_id(self, monkeypatch):
        # the routine's reference: sort every positive entry by (-score, id),
        # then cut; on the compiled top and on the NumPy line
        rng = np.random.default_rng(5)
        pool = [0.25, 0.5, 1.0, 2.0, 0.0, -0.0, -1.0, np.nan, np.inf, 1e-300]
        cases = []
        for size in (0, 1, 7, 40, 200):
            ids = sorted(f"n{i:03d}" for i in rng.choice(1000, size=size, replace=False))
            cases.append((ids, rng.choice(pool, size=size).tolist()))
        for codec in dict.fromkeys([kernels.snapshot_codec(), None]):
            monkeypatch.setattr(kernels, "snapshot_codec", lambda: codec)
            for ids, scores in cases:
                for cutoff in (None, 0, 3, 50, 100):
                    want = sorted(((n, s) for n, s in zip(ids, scores) if s > 0.0),
                                  key=lambda item: (-item[1], item[0]))[:cutoff]
                    got = to_ranked_list(ids, scores, "q", "s", cutoff).entries
                    assert got == tuple(want), (len(ids), cutoff, codec)

    @pytest.mark.parametrize("cutoff", [np.int64(3), True, 0, None, 7, 2**70],
                             ids=["int64", "True", "0", "None", "past the hits", "past ssize_t"])
    @pytest.mark.parametrize("nodes", [None, np.array([1, 2, 4, 5, 6, 7])],
                             ids=["no nodes", "nodes"])
    @pytest.mark.parametrize("scores", [[0.5, 0.0, 2.0, 0.5, -1.0, 2.0], [0.0] * 6],
                             ids=["scores", "all zero"])
    def test_compiled_top_takes_and_equals_the_numpy_line(self, monkeypatch, cutoff, nodes,
                                                          scores):
        ids = [f"n{i}" for i in range(8)]
        codec = kernels.snapshot_codec()
        if codec is not None:
            assert codec.top(np.array(scores), cutoff, nodes) is not None
        got = to_ranked_list(ids, scores, "q", "s", cutoff, nodes=nodes)
        monkeypatch.setattr(kernels, "snapshot_codec", lambda: None)
        assert to_ranked_list(ids, scores, "q", "s", cutoff, nodes=nodes) == got
        at = range(6) if nodes is None else nodes.tolist()
        want = sorted(((ids[i], s) for i, s in zip(at, scores) if s > 0.0),
                      key=lambda item: (-item[1], item[0]))
        assert got.entries == tuple(want[:None if cutoff is None else int(cutoff)])

    @pytest.mark.parametrize("scores, cutoff, nodes", [
        (np.array([0.5, 2.0, 1.0, 3.0])[::2], 1, None),        # a non-contiguous view
        (np.array([[0.5, 2.0]]), 1, None),                     # 2-d
        (np.array([0.5, 2.0]), 1.5, None),                     # no index
        (np.array([0.5, 2.0]), 1, np.array([0, 1], dtype=np.int32)),
        (np.array([0.5, 2.0]), 1, np.array([0])),              # nodes shorter
        (np.array([0.5, 2.0]), 1, [0, 1]),                     # nodes no array
    ], ids=["strided", "2-d", "float cutoff", "int32 nodes", "short nodes", "list nodes"])
    def test_compiled_top_hands_back_what_numpy_must_answer(self, monkeypatch, scores, cutoff,
                                                            nodes):
        def outcome():
            try:
                return to_ranked_list(["a", "b"], scores, "q", "s", cutoff, nodes=nodes)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
                return type(exc), str(exc)

        codec = kernels.snapshot_codec()
        if codec is not None:
            assert codec.top(scores, cutoff, nodes) is None
        got = outcome()
        monkeypatch.setattr(kernels, "snapshot_codec", lambda: None)
        assert outcome() == got

    def test_query_m_lists_equal_on_both_paths(self, query_m, query_m_pipeline, monkeypatch):
        # queries shaped as perfbench's stream (every topic goal, scenarios
        # 1-3, two taken courses of the goal's topic) give the same entries,
        # score bits included, with the compiled scatter and top and with
        # the NumPy lines
        g, labels = query_m
        chains = {}
        for course, topic in sorted(query_m_pipeline.course_topic.items()):
            chains.setdefault(topic, []).append(course)
        goals = sorted({" ".join(g.node_name(job).split()[:2]) for job in g.node_ids(JOB)})
        inputs = []
        for goal in goals:
            taken = tuple(chains[int(goal.split()[0].removeprefix("topic-"))][:2])
            inputs += [ScenarioInput(1, career_goal=goal),
                       ScenarioInput(2, career_goal=goal, taken_courses=taken),
                       ScenarioInput(3, current_job=goal)]

        def lists():
            return [[(node, score.hex()) for node, score in
                     recommend(g, labels, inp, cutoff=cutoff).entries]
                    for inp in inputs for cutoff in (10, None)]

        compiled = lists()
        monkeypatch.setattr(kernels, "snapshot_codec", lambda: None)
        assert lists() == compiled
        assert sum(map(bool, compiled)) == 2 * len(inputs) == 240

    def test_negative_cutoff_rejected(self):
        with pytest.raises(QueryError, match="cutoff -1 is negative"):
            to_ranked_list(["a", "b"], [1.0, 2.0], "q", "s", cutoff=-1)

    def test_invalid_orderings_rejected(self):
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("b", 2.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 1.0), ("a", 1.0)), query="q", scenario="s")
        with pytest.raises(QueryError):
            RankedList(entries=(("a", 0.0),), query="q", scenario="s")

    def test_nan_score_rejected(self):
        with pytest.raises(QueryError, match="non-positive score"):
            RankedList((("a", float("nan")),), "q", "s")

    def test_nan_ahead_of_a_positive_score_rejected(self):
        # a NaN compares false both ways, so it also passes the order check
        with pytest.raises(QueryError, match="non-positive score"):
            RankedList((("a", float("nan")), ("b", 1.0)), "q", "s")

    def test_equality_ignores_provenance(self):
        entries = (("C1", 1.0),)
        plain = RankedList(entries, "q", "s")
        traced = RankedList(entries, "q", "s", ranker.Provenance(prereq={"C0": 1.0}))
        assert traced == plain and hash(traced) == hash(plain)
        assert repr(traced) == repr(plain)

    def test_to_ranked_list_carries_no_provenance(self):
        assert to_ranked_list(["a"], [1.0], "q", "s").provenance is None

    def test_serialization_format(self):
        ranked = to_ranked_list(["C1", "C2"], [1 / 3, 2 / 3], "q", "s")
        text = format_ranked_list(ranked)
        assert text == "rank,node_id,score\n1,C2,0.666666666667\n2,C1,0.333333333333\n"
