"""In-memory span tracer and the module patches that feed it.

``instrument`` replaces public functions of the skillgraph modules with
wrappers that record one span per call: name, start, end, parent span, the
query being served and the benchmark phase. BM25 scoring, called once per
scored skill pair, gets a plain call counter instead. ``restore`` puts the
originals back. The program's own files are not touched: every patch is a
module or class attribute that the program looks up at call time.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from skillgraph import cli, community, graph, ingest, kernels, linker, metrics, ranker, synth


class Tracer:
    """Spans and counters, kept in memory until ``write`` is called."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.phase = "setup"
        self.query_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped to record a span; ``attrs(args, kwargs, result)``
        may add counts to the span once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "query": self.query_id, "phase": self.phase}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def count_calls(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def select(self, name: str, phases: tuple[str, ...]) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["phase"] in phases]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (phase, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "phase": phase, "calls": n}) + "\n")


def _traced_class(tracer: Tracer, name: str, cls: type) -> type:
    """Subclass of ``cls`` whose constructor is recorded as a span."""
    return type(cls.__name__, (cls,), {"__init__": tracer.wrap(name, cls.__init__)})


def _is_career(g) -> bool:
    return bool(g.node_ids(graph.NodeKind.JOB))


def instrument(tracer: Tracer) -> None:
    """Patch every traced boundary of the skillgraph modules."""
    t = tracer
    t.patch(synth, "generate_synthetic_corpus",
            t.wrap("synth.generate", synth.generate_synthetic_corpus))
    for stage in ("ingest", "build", "communities", "link"):
        fn_name = f"cmd_{stage}"
        t.patch(cli, fn_name, t.wrap(f"cli.{stage}", getattr(cli, fn_name)))

    for fn_name in ("load_courses", "load_jobs", "load_skills", "load_enrollments",
                    "load_course_skills"):
        t.patch(ingest, fn_name, t.wrap("ingest.load", getattr(ingest, fn_name)))
    for fn_name in ("write_courses", "write_course_skills", "write_jobs", "write_skills",
                    "write_enrollments"):
        t.patch(ingest, fn_name, t.wrap("ingest.write", getattr(ingest, fn_name)))
    t.patch(ingest, "apply_skill_matching", t.wrap(
        "ingest.match", ingest.apply_skill_matching,
        lambda a, kw, res: {"pairs": sum(len(c.skills) for c in res),
                            "matcher": kw.get("pre_matched") is None}))

    for fn_name in ("build_education_graph", "build_career_graph", "merge_graphs"):
        t.patch(graph, fn_name, t.wrap("graph.build", getattr(graph, fn_name)))
    t.patch(graph, "read_snapshot", t.wrap(
        "graph.snapshot_read", graph.read_snapshot,
        lambda a, kw, g: {"nodes": g.num_nodes(), "edges": g.num_edges()}))
    t.patch(graph, "write_snapshot", t.wrap("graph.snapshot_write", graph.write_snapshot))
    for owner in (ranker, community):
        t.patch(owner, "GraphIndex", _traced_class(t, "graph.index", owner.GraphIndex))

    t.patch(community, "detect_communities", t.wrap(
        "community.detect", community.detect_communities,
        lambda a, kw, part: {"graph": "career" if _is_career(a[0]) else "education",
                             "k": part.num_communities}))
    t.patch(community, "merge_partitions", t.wrap("community.merge", community.merge_partitions))
    t.patch(community.FlowGraph, "aggregate",
            t.wrap("community.aggregate", community.FlowGraph.aggregate))

    t.patch(kernels, "power_iterate", t.wrap(
        "kernels.power_iterate", kernels.power_iterate,
        lambda a, kw, res: {"iters": int(res[1]), "residual": float(res[2])}))
    t.patch(kernels, "partition_cost", t.wrap("kernels.partition_cost", kernels.partition_cost))
    t.patch(kernels, "local_move_pass", t.wrap(
        "kernels.local_move_pass", kernels.local_move_pass,
        lambda a, kw, res: {"moves": int(res[0])}))
    # a pushed edge is one whose source carries a non-zero score
    t.patch(kernels, "propagate_step", t.wrap(
        "kernels.propagate_step", kernels.propagate_step,
        lambda a, kw, res: {"edges": int(np.count_nonzero(a[0][a[1]]))}))

    t.patch(linker, "link_skills", t.wrap(
        "linker.link", linker.link_skills, lambda a, kw, res: {"links": len(res[1])}))
    t.patch(linker, "bm25", t.count_calls("linker.bm25", linker.bm25))

    t.patch(ranker, "recommend", t.wrap("ranker.recommend", ranker.recommend))
    t.patch(ranker, "resolve_job_query", t.wrap("ranker.resolve", ranker.resolve_job_query))
    t.patch(ranker, "scenario_scores", t.wrap(
        "ranker.scenario", ranker.scenario_scores,
        lambda a, kw, res: {"groups": len(res[1].seeds), "candidates": len(res[0])}))
    t.patch(ranker, "score_metapath", t.wrap("ranker.score", ranker.score_metapath))
    t.patch(ranker, "prerequisite_expansion",
            t.wrap("ranker.prereq", ranker.prerequisite_expansion))

    t.patch(metrics, "baseline_vector_space",
            t.wrap("metrics.baseline", metrics.baseline_vector_space))
