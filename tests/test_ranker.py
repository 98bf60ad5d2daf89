from __future__ import annotations

import contextlib
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
from skillgraph.graph import GraphIndex, HeteroGraph, NodeKind, Relation, read_snapshot
from skillgraph.ingest import load_jobs, tokenize
from skillgraph.ranker import (BASE_PATH, TAKEN_PATH, UPSKILL_PATH, MetaPath, MetaPathStep,
                               RankedList, ScenarioInput, format_ranked_list,
                               prerequisite_expansion, recommend, resolve_job_query,
                               scenario_scores, score_metapath, to_ranked_list)

from oracles import (edges, random_hetero_graph, ref_resolve_job_query, ref_scenario_scores,
                     ref_score_metapath, scores_on, seeds_on)

JOB, COURSE = NodeKind.JOB, NodeKind.COURSE
# what a walk says of seeds or scores made before the graph changed
STALE = "^seeds or scores were made on another graph, or before it changed$"


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

    def test_no_match_message_pinned(self):
        # five nearest distinct titles: most shared tokens first, then by title
        g = job_graph(["data engineer", "senior data engineer", "data scientist",
                       "java developer", "plumber", "Data Analyst", "engineer in training",
                       "zoo keeper"])
        with pytest.raises(QueryError) as err:
            resolve_job_query(g, "quantum data engineer")
        assert str(err.value) == (
            "no job title matches 'quantum data engineer'; nearest titles: "
            "['data engineer', 'senior data engineer', 'Data Analyst', 'data scientist', "
            "'engineer in training']")

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
            by_input = ranker.match_titles(ranker.title_index(enumerate(titles)),
                                           tokenize(query))
            assert by_input.tolist() == sorted(int(j[1:]) for j in expected), (pool, query)
            if expected:
                got = resolve_job_query(g, query)
                assert list(got.items()) == list(expected.items()), (pool, query)
            else:
                with pytest.raises(QueryError, match="no job title matches"):
                    resolve_job_query(g, query)

    def test_checks_only_rarest_token_titles(self, monkeypatch):
        # each title key records itself whenever a query tests it for containment
        calls = []

        class Title(str):
            def __contains__(self, text):
                calls.append(str(self))
                return str.__contains__(self, text)

        real = ranker.job_titles

        def recorded(g):
            index = real(g)
            keys = {text: Title(text) for text in index.titles}
            return ranker.TitleIndex(
                {keys[text]: positions for text, positions in index.titles.items()},
                {token: [keys[text] for text in texts]
                 for token, texts in index.postings.items()},
                index.names)

        monkeypatch.setattr(ranker, "job_titles", recorded)
        g = job_graph(["data engineer"] * 40 + ["data scientist"] * 40
                      + ["senior data engineer", "big data engineer ii", "engineer data"]
                      + ["plumber"] * 20)
        seeds = resolve_job_query(g, "data engineer")
        assert seeds == ref_resolve_job_query(g, "data engineer")
        postings = g.cached(recorded).postings
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
        scores = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores == {"C1": pytest.approx(1.0)}

    def test_two_tours_add(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        scores = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores["C1"] == pytest.approx(1.0, abs=1e-12)

    def test_restriction_blocks_outside_tour(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        labels["S2"] = 1
        scores = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, community=0)
        assert scores["C1"] == pytest.approx(0.5, abs=1e-12)

    def test_wrong_seed_kind_rejected(self):
        g, labels = single_tour_graph()
        with pytest.raises(QueryError, match="^seed 'C1' is a course, path starts at a job$"):
            score_metapath(g, BASE_PATH, seeds_on(g, {"C1": 1.0}, COURSE), labels, community=0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        steps = [(s.relation, s.reverse, s.community_restricted) for s in BASE_PATH.steps]
        for seed in range(15):
            g, labels = random_hetero_graph(np.random.default_rng(seed))
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            for community in (0, 1):
                got = score_metapath(g, BASE_PATH, seeds_on(g, seeds, JOB), labels, community)
                want = ref_score_metapath(g, steps, seeds, labels, community)
                assert set(got) == set(want)
                for node, score in want.items():
                    assert got[node] == pytest.approx(score, abs=1e-12)

    def test_removing_edge_never_raises_scores(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        full = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, 0)
        pruned = HeteroGraph()
        for n in g.node_ids():
            pruned.add_node(n, g.node_kind(n), g.node_name(n))
        for source, relation, target, weight in edges(g):
            if (source, target) != ("S2", "S3"):
                pruned.add_edge(source, relation, target, weight)
        less = score_metapath(pruned, BASE_PATH, seeds_on(pruned, {"J1": 1.0}, JOB), labels, 0)
        for node, score in less.items():
            assert score <= full.get(node, 0.0) + 1e-12

    def test_edge_removal_monotone_on_random_graphs(self):
        # dropping any one edge never raises any candidate's score
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g, labels = random_hetero_graph(rng)
            jobs = g.node_ids(NodeKind.JOB)
            seeds = {j: 1.0 / len(jobs) for j in jobs}
            full = score_metapath(g, BASE_PATH, seeds_on(g, seeds, JOB), labels, 0)
            every = edges(g)
            victim = every[int(rng.integers(len(every)))]
            pruned = HeteroGraph()
            for n in g.node_ids():
                pruned.add_node(n, g.node_kind(n), g.node_name(n))
            for edge in every:
                if edge != victim:
                    pruned.add_edge(*edge)
            less = score_metapath(pruned, BASE_PATH, seeds_on(pruned, seeds, JOB), labels, 0)
            for node, score in less.items():
                assert score <= full.get(node, 0.0) + 1e-12

    def test_serialization_insertion_order_irrelevant(self):
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        shuffled = HeteroGraph()
        for n in reversed(g.node_ids()):
            shuffled.add_node(n, g.node_kind(n), g.node_name(n))
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
        assert score_metapath(g, BASE_PATH, seeds, labels, 0) == {}
        labels["S1"] = 0
        assert score_metapath(g, BASE_PATH, seeds, labels, 0) == {"C1": 1.0}
        upskill = score_metapath(g, ranker.UPSKILL_PATH, seeds, labels, 0)
        assert upskill == {"C2": 1.0}

    def test_seed_weight_scales_linearly(self):
        g, labels = single_tour_graph()
        one = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 1.0}, JOB), labels, 0)
        three = score_metapath(g, BASE_PATH, seeds_on(g, {"J1": 3.0}, JOB), labels, 0)
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
                got, _prov = scenario_scores(g, labels, inp, seeds_on(g, seeds, JOB))
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
                got, _prov = scenario_scores(g, labels, inp, seeds_on(g, seeds, JOB), depth)
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
                got, _prov = scenario_scores(g, labels, inp, seeds_on(g, seeds, JOB))
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
                scenario_scores(g, labels, inp, seeds_on(g, weights, JOB))
        g.add_node("C9", NodeKind.COURSE)
        with pytest.raises(QueryError, match="^job 'C9' carries no community label$"):
            scenario_scores(g, labels, inp, seeds_on(g, {"C0": 0.5, "C9": 0.5}, COURSE))

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

    def test_course_seed_rejected(self):
        g, labels = self.graph()
        seeds = seeds_on(g, {"C0": 0.5, "C1": 0.5}, COURSE)
        for scenario in (1, 3):
            inp = ScenarioInput(scenario, career_goal="q" if scenario == 1 else None,
                                current_job="q" if scenario == 3 else None)
            with pytest.raises(QueryError, match="^seed 'C0' is a course, path starts at a job$"):
                scenario_scores(g, labels, inp, seeds)
        # a taken course not in the graph raises before the seeds' kind
        inp = ScenarioInput(2, career_goal="q", taken_courses=("C1", "CX"))
        with pytest.raises(QueryError, match="^taken course 'CX' is not in the graph$"):
            scenario_scores(g, labels, inp, seeds)


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
            assert (score_metapath(g, BASE_PATH, seeds_on(g, {"J2": 1.0}, JOB), labels, 0)
                    == score_metapath(fresh, BASE_PATH, seeds_on(fresh, {"J2": 1.0}, JOB),
                                      dict(labels), 0))

    @pytest.mark.parametrize("change", [
        lambda g: g.add_node("J2", NodeKind.JOB, "data engineer"),
        lambda g: g.set_node_name("J1", "data engineer lead"),
    ])
    def test_seeds_kept_across_a_change_are_refused(self, change):
        # a walk reads seeds as index positions, which a change may move
        g = two_tour_graph()
        labels = {n: 0 for n in g.node_ids()}
        labels["J2"] = 0
        inp = ScenarioInput(scenario=1, career_goal="data engineer")
        seeds = resolve_job_query(g, "data engineer")
        base = score_metapath(g, BASE_PATH, seeds, labels, 0)
        with pytest.raises(QueryError, match=STALE):
            scenario_scores(HeteroGraph(), labels, inp, seeds)
        change(g)
        with pytest.raises(QueryError, match=STALE):
            score_metapath(g, BASE_PATH, seeds, labels, 0)
        with pytest.raises(QueryError, match=STALE):
            scenario_scores(g, labels, inp, seeds)
        with pytest.raises(QueryError, match=STALE):
            prerequisite_expansion(g, base)
        fresh = two_tour_graph()
        change(fresh)
        assert recommend(g, labels, inp) == recommend(fresh, labels, inp)

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
        seeds = seeds_on(g, {"J1": 1.0}, JOB)
        assert score_metapath(g, BASE_PATH, seeds, labels, 0)["C1"] == pytest.approx(1.0)
        labels["S2"] = 1
        assert score_metapath(g, BASE_PATH, seeds, labels, 0)["C1"] == pytest.approx(0.5)

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
        if step.community_restricted:
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
                    got, _prov = scenario_scores(g, given, inp, seeds_on(g, seeds, JOB))
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
            "'C026': 0.004748122720385534, 'C027': 0.0025190064031740084, "
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

    def test_walks_that_cannot_reach_a_course_push_nothing(self, fanned_out, monkeypatch):
        # five of the six groups are career communities with no course, so
        # their gated walks end before a scatter: only the live group's base
        # (3 steps, or 4 for upskilling), its prerequisite hop and its
        # taken-course walk (2 steps) call the kernel
        g, labels = fanned_out
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate_step(*args)

        propagate_step = kernels.propagate_step
        monkeypatch.setattr(kernels, "propagate_step", counting)
        counts = []
        for inp in FANNED_OUT_INPUTS:
            calls.clear()
            recommend(g, labels, inp)
            counts.append(len(calls))
        assert counts == [4, 6, 4]

    def test_recommend_provenance_is_scenario_scores(self, fanned_out):
        g, labels = fanned_out
        for inp in FANNED_OUT_INPUTS:
            seeds = resolve_job_query(g, inp.query_text)
            assert (recommend(g, labels, inp).provenance
                    == scenario_scores(g, labels, inp, seeds)[1])


MANY_SEEDS_GOAL = "engineer"
MANY_SEEDS_INPUTS = (
    ScenarioInput(1, career_goal=MANY_SEEDS_GOAL),
    ScenarioInput(2, career_goal=MANY_SEEDS_GOAL, taken_courses=("C024", "C000")),
    ScenarioInput(3, current_job=MANY_SEEDS_GOAL),
)


class TestManySeeds:
    """``engineer`` resolves to 107 jobs of the fanned-out corpus, split over
    15 community groups (every one of its career communities)."""

    GROUP_SIZES = {0: 7, 1: 8, 2: 12, 3: 15, 4: 9, 5: 8, 6: 12, 7: 9, 8: 13, 9: 1,
                   10: 3, 11: 4, 12: 4, 13: 1, 14: 1}

    def test_resolution_equals_the_scan(self, fanned_out):
        g, _labels = fanned_out
        seeds = resolve_job_query(g, MANY_SEEDS_GOAL)
        want = ref_resolve_job_query(g, MANY_SEEDS_GOAL)
        assert len(seeds) == 107
        assert seeds == want
        assert list(seeds.items()) == list(want.items())

    def test_totals_groups_and_lists_pinned(self, fanned_out):
        # the sha256 of each total's repr pins every float to the bit and the
        # key order
        g, labels = fanned_out
        expected = [
            ("a3125fbf040bd1825dbe17d7856ea182268e59f3ac3f4689f926f659bf43b340",
             "rank,node_id,score\n1,C018,0.00831383717222\n2,C019,0.00621271425\n"
             "3,C012,0.00558556322978\n4,C054,0.00520732996059\n5,C020,0.00511966433692\n"
             "6,C030,0.00428498033858\n7,C006,0.00421416763177\n8,C021,0.00393950227994\n"
             "9,C055,0.00384024097291\n10,C022,0.00373639193925\n"),
            ("ca5cb74c3d6a29c9b24857a68b9eadd33ed4092aaf9c8064489972f01151e66a",
             "rank,node_id,score\n1,C027,0.0253295896228\n2,C018,0.00831383717222\n"
             "3,C019,0.00621271425\n4,C012,0.00558556322978\n5,C054,0.00520732996059\n"
             "6,C020,0.00511966433692\n7,C030,0.00428498033858\n8,C006,0.00421416763177\n"
             "9,C021,0.00393950227994\n10,C055,0.00384024097291\n"),
            ("002e90633e9161e9fa5f973b9006b382f35ac429c6da84831391e73e73dca9e5",
             "rank,node_id,score\n1,C023,0.00253286485598\n2,C021,0.00242215183781\n"
             "3,C022,0.00234522149268\n4,C020,0.00221410969104\n5,C035,0.00180833271867\n"
             "6,C059,0.00171995789431\n7,C016,0.00170089346899\n8,C056,0.00167662075324\n"
             "9,C057,0.00158847826545\n10,C041,0.00156250106969\n"),
        ]
        seeds = resolve_job_query(g, MANY_SEEDS_GOAL)
        for inp, (digest, text) in zip(MANY_SEEDS_INPUTS, expected):
            total, prov = scenario_scores(g, labels, inp, seeds)
            assert hashlib.sha256(repr(total).encode()).hexdigest() == digest, inp
            assert {c: len(group) for c, group in prov.seeds.items()} == self.GROUP_SIZES
            assert all(list(group) == sorted(group) for group in prov.seeds.values())
            ranked = recommend(g, labels, inp, cutoff=10)
            assert ranked.provenance == prov
            assert format_ranked_list(ranked) == text


    def test_no_per_seed_lookups(self, fanned_out, monkeypatch):
        # a query's seeds stay index positions: 107 seeds cost no more label
        # or kind lookups than 14 do
        g, labels = fanned_out
        counts = {"get": 0, "node_kind": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Labels, "get", counted("get", Labels.get))
        monkeypatch.setattr(HeteroGraph, "node_kind", counted("node_kind", HeteroGraph.node_kind))
        recommend(g, labels, ScenarioInput(1, career_goal=FANNED_OUT_GOAL))
        seen = []
        for goal, size in ((MANY_SEEDS_GOAL, 107), (FANNED_OUT_GOAL, 14)):
            assert len(resolve_job_query(g, goal)) == size
            counts.update(get=0, node_kind=0)
            recommend(g, labels, ScenarioInput(1, career_goal=goal))
            seen.append(dict(counts))
        assert seen[0] == seen[1]


class TestPrerequisiteExpansion:
    def test_depth_two_chains(self):
        g = HeteroGraph()
        for c in ("C2", "C1", "C0"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C1", 1.0)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        base = scores_on(g, {"C2": 1.0})
        assert prerequisite_expansion(g, base, depth=1) == {"C1": 1.0}
        assert prerequisite_expansion(g, base, depth=2) == {"C1": 1.0, "C0": 1.0}
        assert prerequisite_expansion(g, base, depth=0) == {}

    def test_negative_depth_rejected(self):
        g = HeteroGraph()
        g.add_node("C0", NodeKind.COURSE)
        with pytest.raises(QueryError, match="depth -1 must be >= 0"):
            prerequisite_expansion(g, scores_on(g, {"C0": 1.0}), depth=-1)

    def test_shared_prerequisite_adds_pushes(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 0.5)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        base = scores_on(g, {"C2": 0.5, "C1": 0.25})
        assert prerequisite_expansion(g, base) == {"C0": 0.625, "C3": 0.125}

    def test_base_from_another_graph_state_rejected(self):
        g = HeteroGraph()
        for c in ("C0", "C1"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
        base = scores_on(g, {"C1": 1.0})
        with pytest.raises(QueryError, match=STALE):
            prerequisite_expansion(g.copy(), base)
        g.add_node("C2", NodeKind.COURSE)
        with pytest.raises(QueryError, match=STALE):
            prerequisite_expansion(g, base)
        # an empty base pushes nothing, whatever graph it came from
        assert prerequisite_expansion(g, ranker.NO_SCORES) == {}

    def test_depth_two_sums_levels_over_branching_chain(self):
        g = HeteroGraph()
        for c in ("C0", "C1", "C2", "C3", "C4"):
            g.add_node(c, NodeKind.COURSE)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C2", 0.5)
        g.add_edge("C4", Relation.PRE_REQUIRED, "C3", 0.5)
        g.add_edge("C2", Relation.PRE_REQUIRED, "C0", 1.0)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C0", 0.75)
        g.add_edge("C3", Relation.PRE_REQUIRED, "C1", 0.25)
        assert prerequisite_expansion(g, scores_on(g, {"C4": 1.0}), depth=2) == {
            "C0": 0.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}
        # C0 is pushed at both levels: 1.0 from C2, then 0.5 + 0.375 through C2 and C3
        assert prerequisite_expansion(g, scores_on(g, {"C4": 1.0, "C2": 1.0}), depth=2) == {
            "C0": 1.875, "C1": 0.125, "C2": 0.5, "C3": 0.5}


class TestRankedList:
    def test_sorted_ties_by_id(self):
        ranked = to_ranked_list(["a", "b", "c"], [1.0, 1.0, 2.0], "q", "s")
        assert ranked.entries == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_zero_scores_dropped_and_cutoff(self):
        ranked = to_ranked_list(["a", "b", "c"], [0.0, 1.0, 0.5], "q", "s", cutoff=1)
        assert ranked.entries == (("b", 1.0),)
        assert to_ranked_list(["b"], [1.0], "q", "s", cutoff=0).entries == ()

    def test_matches_a_sort_by_score_then_id(self):
        # the routine's reference: sort every positive entry by (-score, id), then cut
        rng = np.random.default_rng(5)
        pool = [0.25, 0.5, 1.0, 2.0, 0.0, -0.0, -1.0, np.nan, np.inf, 1e-300]
        for size in (0, 1, 7, 40):
            ids = sorted(f"n{i:03d}" for i in rng.choice(1000, size=size, replace=False))
            scores = rng.choice(pool, size=size).tolist()
            for cutoff in (None, 0, 3, 50):
                want = sorted(((n, s) for n, s in zip(ids, scores) if s > 0.0),
                              key=lambda item: (-item[1], item[0]))[:cutoff]
                got = to_ranked_list(ids, scores, "q", "s", cutoff).entries
                assert got == tuple(want), (size, cutoff)

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
