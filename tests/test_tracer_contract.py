"""The benchmark tracer's patches still find the names they wrap.

``perfbench/tracer.py`` replaces module attributes at run time, so a rename
in ``src/`` would only surface when a traced benchmark runs. This runs one
traced query, and the four batch stages on a tiny corpus, and checks that
the spans arrive and the patches come off.
"""
from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from skillgraph import cli, community, graph, ingest, kernels, linker, metrics, ranker, synth
from skillgraph.graph import HeteroGraph, NodeKind, Relation

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED = (cli, community, graph, ingest, kernels, linker, metrics, ranker, synth,
           community.FlowGraph)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_graph():
    """J1 -r-> S1 -l-> S2 <-c- C1 -p-> C0, all in community 0."""
    g = HeteroGraph()
    g.add_node("J1", NodeKind.JOB, "data engineer")
    for node_id in ("S1", "S2"):
        g.add_node(node_id, NodeKind.SKILL)
    for node_id in ("C0", "C1"):
        g.add_node(node_id, NodeKind.COURSE)
    g.add_edge("J1", Relation.REQUIRED, "S1", 1.0)
    g.add_edge("S1", Relation.LINKED, "S2", 1.0)
    g.add_edge("C1", Relation.COVERED, "S2", 1.0)
    g.add_edge("C1", Relation.PRE_REQUIRED, "C0", 1.0)
    return g, {node_id: 0 for node_id in g.node_ids()}


def test_traced_recommend_records_spans_and_restores():
    tracer_mod = load_tracer()
    # the graph's first row sets kernels.ACTIVE_BACKEND, so the graph comes
    # first and the snapshot below sees only what the tracer patches
    g, labels = small_graph()
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        ranked = ranker.recommend(g, labels,
                                  ranker.ScenarioInput(1, career_goal="data engineer"))
    finally:
        tracer.restore()
    assert ranked.entries == (("C0", 1.0), ("C1", 1.0))
    names = {span["name"] for span in tracer.spans}
    # perfbench's ranker.resolve_ms and graph.index.calls read the first two
    assert {"ranker.resolve", "graph.index", "ranker.score", "ranker.prereq",
            "kernels.propagate_step"} <= names
    steps = tracer.select("kernels.propagate_step", ("setup",))
    assert all(isinstance(span["edges"], int) for span in steps)
    assert sum(span["edges"] for span in steps) > 0
    for owner, attrs in zip(PATCHED, before):
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[name] is value for name, value in attrs.items()), owner


def test_traced_batch_stages_record_every_load_build_and_snapshot(tmp_path):
    # perfbench's per-layer metrics sum these spans; a stage that reached a
    # loader, builder or codec around its module name would drop its spans
    # from the count below instead of leaving the metrics silently short
    data, out = tmp_path / "data", tmp_path / "out"
    synth.generate_synthetic_corpus(3, 40, 12, 24, 0.3, data)
    stages = [["ingest", "--courses", str(data / "courses.csv"), "--jobs", str(data / "jobs.csv"),
               "--skills", str(data / "skills.csv"),
               "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
              ["build", "--out", str(out)],
              ["communities", "--out", str(out), "--seed", "3"],
              ["link", "--out", str(out)]]
    tracer_mod = load_tracer()
    # the compiled library sets kernels.ACTIVE_BACKEND when it is first
    # resolved; resolve it here, so that the snapshot below sees only what
    # the tracer patches
    kernels.snapshot_codec()
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        codes = [cli.main(argv) for argv in stages]
    finally:
        tracer.restore()
    assert codes == [0, 0, 0, 0]
    names = Counter(span["name"] for span in tracer.spans)
    # ingest loads four files, build five (with the matched pairs) and
    # communities the catalog; build makes three graphs and writes them,
    # communities reads two and link reads one and writes one
    assert {name: names[name] for name in ("ingest.load", "graph.build", "graph.snapshot_read",
                                           "graph.snapshot_write", "community.detect")} == {
        "ingest.load": 10, "graph.build": 3, "graph.snapshot_read": 3,
        "graph.snapshot_write": 4, "community.detect": 2}
    reads = tracer.select("graph.snapshot_read", ("setup",))
    assert all(span["nodes"] > 0 and span["edges"] > 0 for span in reads)
    assert tracer.counts[("setup", "linker.bm25")] > 0
    for owner, attrs in zip(PATCHED, before):
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[name] is value for name, value in attrs.items()), owner
