"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Budgets are wall-clock on the suite's own stopwatch.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from skillgraph import ingest, metrics
from skillgraph.cli import main as cli_main
from skillgraph.community import (FlowGraph, Labels, compute_flow, detect_communities,
                                  map_equation, merge_partitions)
from skillgraph.errors import QueryError
from skillgraph.graph import (HeteroGraph, NodeKind, Relation, build_career_graph,
                              build_education_graph, merge_graphs)
from skillgraph.linker import link_skills
from skillgraph.ranker import (BASE_PATH, ScenarioInput, recommend, scenario_scores,
                               score_metapath)
from skillgraph.synth import generate_synthetic_corpus

from oracles import (out_edges, random_hetero_graph, ref_scenario_scores, seeds_on,
                     set_partitions)


def verdict(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def build_pipeline(corpus):
    courses = ingest.apply_skill_matching(corpus.courses, corpus.skills)
    education = build_education_graph(courses, corpus.enrollments, catalog=corpus.skills)
    career = build_career_graph(corpus.jobs)
    merged = merge_graphs(education, career)
    edu_part = detect_communities(education, seed=1)
    car_part = detect_communities(career, seed=1)
    labels = merge_partitions(edu_part, education, car_part, career)
    linked, _records = link_skills(merged, labels)
    return courses, linked, labels


def test_criterion_1_weight_normalization(tmp_path):
    """Out-weights per (node, relation) sum to 1 on 100 seeded corpora, <10s."""
    start = time.time()
    checked = 0
    for seed in range(100):
        corpus = generate_synthetic_corpus(seed, n_jobs=25, n_courses=8, n_skills=16,
                                           alignment=0.4, out_dir=tmp_path / f"c{seed}")
        courses = ingest.apply_skill_matching(corpus.courses, corpus.skills)
        education = build_education_graph(courses, corpus.enrollments, catalog=corpus.skills)
        career = build_career_graph(corpus.jobs)
        merged = merge_graphs(education, career)
        for g in (education, career, merged):
            for node in g.node_ids():
                for rel in Relation:
                    edges = out_edges(g, node, rel)
                    if edges:
                        total = sum(w for _t, w in edges)
                        assert abs(total - 1.0) <= 1e-9, (seed, node, rel, total)
                        checked += 1
    elapsed = time.time() - start
    verdict(1, "weight normalization", elapsed < 10.0,
            f"{checked} (node, relation) sums over 100 corpora in {elapsed:.1f}s")


def test_criterion_2_map_equation_correctness():
    """Single-module L equals visit entropy on 20 random graphs; triangles split."""
    worst = 0.0
    for seed in range(20):
        g, _ = random_hetero_graph(np.random.default_rng(seed))
        flow = compute_flow(g, 0.15)
        entropy = -sum(p * math.log2(p) for p in flow.visit_rate.values() if p > 0)
        L = map_equation(g, flow, {n: 0 for n in g.node_ids()})
        worst = max(worst, abs(L - entropy))
        assert abs(L - entropy) <= 1e-9
    tri = HeteroGraph()
    for i in range(6):
        tri.add_node(f"s{i}", NodeKind.SKILL)
    for base in (0, 3):
        for i in range(base, base + 3):
            for j in range(base, base + 3):
                if i != j:
                    tri.add_edge(f"s{i}", Relation.LINKED, f"s{j}", 0.5)
    flow = compute_flow(tri, 0.15)
    L2 = map_equation(tri, flow, {f"s{i}": (0 if i < 3 else 1) for i in range(6)})
    L1 = map_equation(tri, flow, {f"s{i}": 0 for i in range(6)})
    verdict(2, "map equation", L2 < L1,
            f"entropy check worst |dL|={worst:.2e}; triangles {L2:.4f} < {L1:.4f} bits")


def test_criterion_3_planted_partition_recovery():
    """Two 5-cliques + bridge: exact split, L equals Bell(10) exhaustive optimum."""
    start = time.time()
    g = HeteroGraph()
    for i in range(10):
        g.add_node(f"s{i}", NodeKind.SKILL)
    out = {}
    for grp in (range(5), range(5, 10)):
        for i in grp:
            out[i] = [j for j in grp if j != i]
    out[0].append(5)
    out[5].append(0)
    for i, targets in out.items():
        for j in targets:
            g.add_edge(f"s{i}", Relation.LINKED, f"s{j}", 1.0 / len(targets))
    part = detect_communities(g, seed=0, teleport=0.15)
    groups = {}
    for node, comm in part.assignment.items():
        groups.setdefault(comm, set()).add(node)
    cliques_found = sorted(groups.values(), key=sorted) == [
        {f"s{i}" for i in range(5)}, {f"s{i}" for i in range(5, 10)}]
    fg = FlowGraph.from_graph(g, 0.15)
    labels = np.zeros(10, dtype=np.int64)
    best = np.inf
    count = 0
    for rgs in set_partitions(10):
        labels[:] = rgs
        best = min(best, fg.partition_cost(labels))
        count += 1
    elapsed = time.time() - start
    ok = (cliques_found and count == 115_975
          and abs(part.description_length - best) <= 1e-9 and elapsed < 60.0)
    verdict(3, "planted partition", ok,
            f"two cliques recovered, L={part.description_length:.6f} vs optimum "
            f"{best:.6f} over {count} partitions in {elapsed:.1f}s")


def _ranking_oracle_gaps(wrap, relabel=None) -> tuple[float, int]:
    """Worst score gap and scores compared, propagation against DFS tour
    enumeration on 50 random graphs x 3 scenarios, labels passed as
    ``wrap(labels)``; ``relabel(g, labels)``, when given, makes the labels."""
    worst = 0.0
    compared = 0
    for seed in range(50):
        g, labels = random_hetero_graph(np.random.default_rng(seed), max_nodes=50)
        if relabel is not None:
            labels = relabel(g, labels)
        jobs = g.node_ids(NodeKind.JOB)
        courses = g.node_ids(NodeKind.COURSE)
        seeds = {j: 1.0 / len(jobs) for j in jobs}
        taken = tuple(courses[:1])
        for scenario in (1, 2, 3):
            inp = ScenarioInput(scenario=scenario, career_goal="q" if scenario != 3 else None,
                                taken_courses=taken if scenario == 2 else (),
                                current_job="q" if scenario == 3 else None)
            got, prov = scenario_scores(wrap(labels), inp, seeds_on(g, seeds, NodeKind.JOB))
            want = ref_scenario_scores(g, labels, scenario, seeds,
                                       taken=taken if scenario == 2 else ())
            assert set(got) == set(want), (seed, scenario)
            assert set(prov.base) == {labels[j] for j in jobs}, (seed, scenario)
            for node, score in want.items():
                worst = max(worst, abs(got[node] - score))
                assert abs(got[node] - score) <= 1e-12, (seed, scenario, node)
                compared += 1
    return worst, compared


def test_criterion_4_ranking_oracle_equivalence():
    """Layered propagation equals DFS tour enumeration, 50 graphs, 3 scenarios."""
    start = time.time()
    worst, compared = _ranking_oracle_gaps(dict)
    elapsed = time.time() - start
    verdict(4, "ranking oracle", elapsed < 30.0,
            f"{compared} scores across 50 graphs x 3 scenarios, worst |ds|={worst:.2e}, "
            f"{elapsed:.1f}s")


def _with_dead_groups(g: HeteroGraph, labels: dict) -> tuple[dict, list[int]]:
    """``labels`` with jobs moved to new communities whose gated walks cannot
    reach a course, and those communities: each odd-numbered job alone (no
    required skill lands in it), and the first job with the skills it
    requires and their linked skills (no course covers a skill in it)."""
    labels = dict(labels)
    fresh = max(labels.values()) + 1
    jobs = g.node_ids(NodeKind.JOB)
    required = [s for s, _w in out_edges(g, jobs[0], Relation.REQUIRED)]
    linked = [t for s in required for t, _w in out_edges(g, s, Relation.LINKED)]
    for node in [jobs[0], *required, *linked]:
        labels[node] = fresh
    dead = [fresh]
    for job in jobs[1::2]:
        dead.append(fresh + len(dead))
        labels[job] = dead[-1]
    return labels, dead


def test_criterion_4_holds_with_dead_groups():
    """The same equivalence when some groups cannot reach a course: their
    walks push nothing, they stay in the provenance, and seeds of the wrong
    kind are still refused there."""
    _worst, compared = _ranking_oracle_gaps(
        Labels, lambda g, labels: _with_dead_groups(g, labels)[0])
    assert compared > 0
    dead_groups = 0
    for seed in range(50):
        g, plain = random_hetero_graph(np.random.default_rng(seed), max_nodes=50)
        labels, dead = _with_dead_groups(g, plain)
        by_community = {labels[j]: j for j in g.node_ids(NodeKind.JOB)}
        for community in dead:
            job = by_community[community]
            seeds = seeds_on(g, {job: 1.0}, NodeKind.JOB)
            assert score_metapath(BASE_PATH, seeds, labels, community) == {}
            with pytest.raises(QueryError, match="seed 'C0' is a course, path starts at a job"):
                score_metapath(BASE_PATH, seeds_on(g, {"C0": 1.0, job: 1.0}, NodeKind.COURSE),
                               labels, community)
            dead_groups += 1
    assert dead_groups >= 50


def test_criterion_4_holds_with_read_only_labels():
    """The same equivalence with labels given as ``Labels``, as ``read_labels`` returns them."""
    _worst, compared = _ranking_oracle_gaps(Labels)
    assert compared == 500


def test_criterion_5_community_restriction(tmp_path):
    """Scenario-1 base candidates stay in the query job's merged community."""
    audited = 0
    outside_via_prereq = 0
    for seed in (3, 11):
        corpus = generate_synthetic_corpus(seed, n_jobs=80, n_courses=24, n_skills=48,
                                           alignment=0.3, out_dir=tmp_path / f"c{seed}")
        _courses, linked, labels = build_pipeline(corpus)
        topics = sorted(set(corpus.job_topic.values()))
        for t in topics:
            inp = ScenarioInput(scenario=1, career_goal=f"topic-{t}")
            ranked = recommend(linked, labels, inp, cutoff=100)
            prov = ranked.provenance
            for community, base in prov.base.items():
                for candidate in base:
                    assert labels[candidate] == community, (seed, t, candidate)
                    audited += 1
            base_union = {c for base in prov.base.values() for c in base}
            seed_comms = set(prov.base)
            for node, _score in ranked.entries:
                if labels[node] not in seed_comms:
                    assert node not in base_union, (seed, t, node)
                    assert node in prov.prereq, (seed, t, node)
                    outside_via_prereq += 1
    # crafted case: the only route to C0 is a prerequisite hop out of C_J
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB, "data engineer")
    g.add_node("S1", NodeKind.SKILL)
    g.add_node("S2", NodeKind.SKILL)
    g.add_node("C1", NodeKind.COURSE)
    g.add_node("C0", NodeKind.COURSE)
    g.add_edge("J1", Relation.REQUIRED, "S1", 1.0)
    g.add_edge("S1", Relation.LINKED, "S2", 1.0)
    g.add_edge("C1", Relation.COVERED, "S2", 1.0)
    g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
    crafted_labels = {"J1": 0, "S1": 0, "S2": 0, "C1": 0, "C0": 7}
    ranked = recommend(g, crafted_labels, ScenarioInput(scenario=1, career_goal="data engineer"),
                       cutoff=10)
    prov = ranked.provenance
    assert dict(ranked.entries) == {"C0": 1.0, "C1": 1.0}
    assert "C0" not in prov.base[0] and "C0" in prov.prereq
    outside_via_prereq += 1
    verdict(5, "community restriction", audited > 0 and outside_via_prereq > 0,
            f"{audited} base candidates inside their community; "
            f"{outside_via_prereq} outside candidates all via prerequisite route")


def test_criterion_6_metric_correctness():
    """Hand values plus the 20-case frozen fixture table."""
    import json

    run = metrics.JudgedRun(query="q", ranking=("a", "b", "c"),
                            judgments={"a": True, "b": False, "c": True})
    ap = metrics.average_precision(run)
    assert abs(ap - (1 / 1 + 2 / 3) / 2) <= 1e-9
    two = [metrics.JudgedRun(query="x", ranking=("a",), judgments={"a": True}),
           metrics.JudgedRun(query="y", ranking=("a", "b", "c", "d"),
                             judgments={"a": False, "b": True, "c": False, "d": True})]
    assert metrics.average_precision(two[1]) == 0.5
    report = metrics.metric_report(two)
    assert report.map == 0.75
    fixtures = json.loads((Path(__file__).parent / "data" / "metric_fixtures.json").read_text())
    assert len(fixtures) == 20
    for case in fixtures:
        ranking = tuple(f"d{i}" for i in range(len(case["flags"])))
        judgments = {f"d{i}": bool(f) for i, f in enumerate(case["flags"])}
        for j in range(case["extra_relevant"]):
            judgments[f"x{j}"] = True
        jr = metrics.JudgedRun(query=case["name"], ranking=ranking, judgments=judgments)
        assert metrics.average_precision(jr) == pytest.approx(case["ap"], abs=1e-12)
        assert metrics.average_precision(jr, 5) == pytest.approx(case["ap_at_5"], abs=1e-12)
        assert metrics.average_precision(jr, 10) == pytest.approx(case["ap_at_10"], abs=1e-12)
        assert metrics.precision(jr) == pytest.approx(case["precision"], abs=1e-12)
        assert metrics.precision_at(jr, 10) == pytest.approx(case["precision_at_10"], abs=1e-12)
    verdict(6, "metric correctness", True,
            f"AP hand values exact; MAP(1.0, 0.5)=0.75; {len(fixtures)} fixtures match")


def test_criterion_7_end_to_end_vs_baseline(tmp_path):
    """Graph MAP >= vector-space MAP on the 1000/200/500, alignment-0.2 corpus."""
    start = time.time()
    corpus = generate_synthetic_corpus(42, n_jobs=1000, n_courses=200, n_skills=500,
                                       alignment=0.2, out_dir=tmp_path / "corpus")
    courses, linked, labels = build_pipeline(corpus)
    truth_by_topic: dict[int, set[str]] = {}
    for cid, t in corpus.course_topic.items():
        truth_by_topic.setdefault(t, set()).add(cid)
    graph_runs, baseline_runs = [], []
    for t in sorted(set(corpus.job_topic.values())):
        query = f"topic-{t} engineer"
        judgments = {cid: (cid in truth_by_topic[t]) for cid in corpus.course_topic}
        ranked = recommend(linked, labels, ScenarioInput(scenario=1, career_goal=query),
                           cutoff=len(judgments))
        graph_runs.append(metrics.JudgedRun(
            query=query, ranking=tuple(n for n, _s in ranked.entries), judgments=judgments))
        base = metrics.baseline_vector_space(corpus.jobs, courses, query,
                                             cutoff=len(judgments), catalog=corpus.skills)
        baseline_runs.append(metrics.JudgedRun(
            query=query, ranking=tuple(n for n, _s in base.entries), judgments=judgments))
    graph_map = metrics.metric_report(graph_runs).map
    baseline_map = metrics.metric_report(baseline_runs).map
    elapsed = time.time() - start
    ok = graph_map >= baseline_map and elapsed < 60.0
    verdict(7, "end-to-end vs baseline", ok,
            f"graph MAP={graph_map:.4f} >= baseline MAP={baseline_map:.4f}, "
            f"{len(graph_runs)} queries, {elapsed:.1f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two identically-seeded CLI runs produce byte-identical artifacts."""
    import contextlib
    import io

    def quiet_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)

    data = tmp_path / "data"
    assert quiet_cli(["synth", "--seed", "5", "--jobs", "60", "--courses", "18",
                      "--skills", "36", "--alignment", "0.3", "--out", str(data)]) == 0
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        for argv in (
            ["ingest", "--courses", str(data / "courses.csv"), "--jobs", str(data / "jobs.csv"),
             "--skills", str(data / "skills.csv"),
             "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
            ["build", "--out", str(out)],
            ["communities", "--out", str(out), "--seed", "9"],
            ["link", "--out", str(out)],
        ):
            assert quiet_cli(argv) == 0, argv
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir())
    diffs = [n for n in names
             if (outputs[0] / n).read_bytes() != (outputs[1] / n).read_bytes()]
    verdict(8, "determinism", not diffs,
            f"{len(names)} artifacts byte-identical across reruns"
            + (f"; diffs: {diffs}" if diffs else ""))
