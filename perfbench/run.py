"""Pipeline-and-query benchmark for skillgraph.

Run from the repository root:

    python3 perfbench/run.py --workload query-m --seed 1 --seconds 3 --trace 0

Each run is one process with one client and no worker threads. For each of
the workload's ``corpora`` (seeds derived from ``--seed``) it

1. generates a synthetic corpus with ``synth.generate_synthetic_corpus``;
2. runs ``ingest -> build -> communities -> link`` through
   ``skillgraph.cli.main`` into a fresh output directory;
3. loads ``linked.graph``, ``merged_labels.csv`` and the job titles once.

It then drives a closed-loop stream of ``ranker.recommend`` calls: one
client and a fixed seeded sequence per corpus that cycles scenarios 1/2/3 over
the corpus's ``topic-<t> <role>`` goals, replayed in whole passes until
``--seconds`` have passed. It checks the outputs, each check counting as one
attempted operation: every stage exits 0, each partition sidecar's ``L=``
equals ``community.map_equation`` on the written labels, no query raises,
every ranked list keeps the ``RankedList`` invariants, a query asked again
(after the stream, and in later passes) returns the same list, and the
artifact and ranked-list digests equal those of any earlier run of the same
code, workload and seed. Last it scores quality: the share of queries
answered with a non-empty list, the detected career codelength over the
planted topic partition's, and graph MAP against the TF-IDF baseline on the
``topic-<t> engineer`` queries of acceptance criterion 7.

An empty answer is a valid ``RankedList``, not a failed operation: on
``fragmented`` some goals land in career communities that hold no courses
(the community-detection stall), which ``answered_ratio`` and ``map_graph``
measure.

Every time is wall time rescaled to a nominal machine speed by
``speedclock.SpeedClock``. ``build_s`` is the mean over the corpora of the
four stages' sum. ``setup_s`` is the import time plus the medians, over at
least ``SETUP_REPEATS`` samples, of corpus generation and of loading the
linked graph, labels and titles. With ``--trace 1`` the public functions of
every module are wrapped (``tracer.py``), one corpus is built and queried for
one pass, the per-layer metrics are printed instead of the end-to-end ones,
and the spans go to ``.perfbench/traces/``.

The last line of standard output is the result object. The line before it
is a report: run metadata, digests, failures, the quality numbers in bits and
the tracing overhead. Everything a run writes stays under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speedclock import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

# one process, no extra threads: keep any numeric library single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SKILLGRAPH_CONFIG", None)


@dataclass(frozen=True)
class Workload:
    jobs: int
    courses: int
    skills: int
    corpora: int   # corpora per run, each generated from its own derived seed
    queries: int   # queries per corpus in one pass of the stream


# build-mid: the batch stages dominate; the planted career partition is
#   recovered, so each query has one community group.
# query-m: the query stream dominates, one community group per query.
# fragmented: a skill catalog ten times the course count, and a career
#   partition that stalls far above the planted k, so each query fans out
#   over many community groups and GraphIndex rebuilds.
# The small shapes build and query three corpora per run: how far
# fragmented's detection stalls, and so its query cost and answer quality,
# differs much from corpus to corpus, and query-m's build time somewhat. More
# corpora, or a second build-mid corpus (15 s to build), would push a run on
# a slow host well past 60 s.
WORKLOADS = {
    "build-mid": Workload(6000, 900, 2000, corpora=1, queries=200),
    "query-m": Workload(2000, 300, 800, corpora=3, queries=100),
    "fragmented": Workload(1000, 150, 1500, corpora=3, queries=67),
}
ALIGNMENT = 0.3
SETUP_REPEATS = 3
TOP = 10
RECHECK = 3   # queries per corpus asked again after the stream
SIDECAR_TOL = 1e-9
STAGES = ("ingest", "build", "communities", "link")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum query-stream duration (whole passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> None:
    """Import numpy and skillgraph from this checkout (counted in set-up)."""
    global np, cli, community, errors, graph, ingest, kernels, metrics, ranker, synth
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from skillgraph import (cli, community, errors, graph, ingest, kernels, metrics,
                            ranker, synth)


def sha256_tree(root: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 200 samples, p95 has 10 beyond it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def query_sequence(corpus, n: int, seed: int) -> list:
    """``n`` queries cycling scenarios 1/2/3 over the corpus's ``topic-<t>
    <role>`` goals, which repeat in one seeded order.

    Every goal is asked before any goal is asked again: how many community
    groups a goal fans out to sets most of its cost, so a random draw of
    goals would make the latency mix differ from run to run.
    """
    rng = np.random.default_rng([seed, 2])
    goals = sorted({(corpus.job_topic[j.id], j.title.split()[1]) for j in corpus.jobs})
    order = rng.permutation(len(goals))
    chains: dict[int, list[str]] = {}
    for cid in sorted(corpus.course_topic):
        chains.setdefault(corpus.course_topic[cid], []).append(cid)
    seq = []
    for i in range(n):
        topic, role = goals[int(order[i % len(goals)])]
        goal = f"topic-{topic} {role}"
        scenario = 1 + i % 3
        if scenario == 1:
            seq.append(ranker.ScenarioInput(1, career_goal=goal))
        elif scenario == 2:
            chain = chains[topic]
            picks = rng.choice(len(chain), size=min(2, len(chain)), replace=False)
            taken = tuple(sorted(chain[int(k)] for k in picks))
            seq.append(ranker.ScenarioInput(2, career_goal=goal, taken_courses=taken))
        else:
            seq.append(ranker.ScenarioInput(3, current_job=goal))
    return seq


def ranked_problem(ranked) -> str | None:
    if not isinstance(ranked, ranker.RankedList):
        return f"recommend returned a {type(ranked).__name__}"
    try:
        ranker.RankedList(ranked.entries, ranked.query, ranked.scenario)
    except errors.QueryError as exc:
        return f"RankedList invariant: {exc}"
    return None


@dataclass
class Service:
    """One corpus, the directory its pipeline wrote and the loaded graph."""

    seed: int
    data: Path
    out: Path
    corpus: object = None
    g: object = None
    labels: dict | None = None
    seq: list | None = None


class Bench:
    """One run: its corpora, clock, tracer and failure accounting."""

    def __init__(self, args: argparse.Namespace, clock: SpeedClock, tracer) -> None:
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.clock = clock
        self.tracer = tracer
        self.work = STATE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        n = 1 if tracer is not None else self.wl.corpora
        self.services = [Service(args.seed * self.wl.corpora + k, self.work / f"data{k}",
                                 self.work / f"out{k}") for k in range(n)]
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def generate(self, svc: Service, data: Path):
        t = perf_counter()
        corpus = synth.generate_synthetic_corpus(svc.seed, self.wl.jobs, self.wl.courses,
                                                 self.wl.skills, ALIGNMENT, data)
        return corpus, (t, perf_counter())

    def load_service(self, svc: Service):
        t = perf_counter()
        g = graph.read_snapshot(svc.out / cli.F_LINKED_GRAPH)
        labels = community.read_labels(svc.out / cli.F_LABELS)
        cli._attach_job_titles(g, ingest.load_jobs(svc.out / cli.F_JOBS))
        return g, labels, (t, perf_counter())

    def pipeline(self, svc: Service) -> dict[str, tuple[float, float]]:
        data, out = svc.data, svc.out
        stage_argv = {
            "ingest": ["ingest", "--courses", str(data / "courses.csv"),
                       "--jobs", str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
                       "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
            "build": ["build", "--out", str(out)],
            "communities": ["communities", "--out", str(out), "--seed", str(svc.seed)],
            "link": ["link", "--out", str(out)],
        }
        spans = {}
        for stage in STAGES:
            buf = io.StringIO()
            t = perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(stage_argv[stage])
            spans[stage] = (t, perf_counter())
            self.check(rc == 0, f"seed {svc.seed} stage {stage} exited {rc}: "
                                f"{buf.getvalue().strip()[-300:]}")
        if not (out / cli.F_LINKED_GRAPH).exists():
            raise RuntimeError(f"pipeline produced no linked graph: {self.failures}")
        return spans

    def stream(self) -> dict:
        """Closed loop, one client: each query is sent when the last returns.

        A pass asks every corpus its own sequence in turn."""
        seq = [(k, svc, inp) for k, svc in enumerate(self.services) for inp in svc.seq]
        spans: list[tuple[float, float]] = []
        owners: list[int] = []   # index of the corpus each timed query asked
        first_pass: list[str | None] = []
        by_input: dict[tuple, str] = {}
        passes = answered = 0
        t0 = perf_counter()
        while True:
            for i, (k, svc, inp) in enumerate(seq):
                if self.tracer is not None:
                    self.tracer.query_id = passes * len(seq) + i
                t = perf_counter()
                try:
                    ranked = ranker.recommend(svc.g, svc.labels, inp, cutoff=TOP)
                except Exception as exc:  # noqa: BLE001 - a raised query is a counted failure
                    self.check(False, f"query {i} raised {type(exc).__name__}: {exc}\n"
                                      + traceback.format_exc(limit=3))
                    if passes == 0:
                        first_pass.append(None)
                    continue
                spans.append((t, perf_counter()))
                owners.append(k)
                answered += bool(ranked.entries)
                text = ranker.format_ranked_list(ranked)
                problem = ranked_problem(ranked)
                earlier = first_pass[i] if passes else by_input.setdefault((svc.seed, inp), text)
                if problem is None and earlier != text:
                    problem = "same query returned a different list"
                self.check(problem is None, f"query {i} ({inp}): {problem}")
                if passes == 0:
                    first_pass.append(text)
            passes += 1
            if self.tracer is not None or perf_counter() - t0 >= self.args.seconds:
                break
        if self.tracer is not None:
            self.tracer.query_id = None
        return {"spans": spans, "owners": owners, "passes": passes, "queries": len(seq) * passes,
                "span": (t0, perf_counter()), "first_pass": first_pass, "answered": answered}

    def recheck(self, first_pass: list) -> None:
        """Ask the first ``RECHECK`` queries of each corpus again: the lists
        must not change."""
        offset = 0
        for svc in self.services:
            for j, inp in enumerate(svc.seq[:RECHECK]):
                try:
                    text = ranker.format_ranked_list(
                        ranker.recommend(svc.g, svc.labels, inp, cutoff=TOP))
                except Exception as exc:  # noqa: BLE001 - counted like a stream query
                    text = f"raised {type(exc).__name__}: {exc}"
                self.check(text == first_pass[offset + j],
                           f"asked again, {inp} returned {text!r}")
            offset += len(svc.seq)

    def partition_check(self, svc: Service, graph_file: str, part_file: str,
                        summary_file: str):
        """The sidecar's L= must equal map_equation on the written labels."""
        g = graph.read_snapshot(svc.out / graph_file)
        flow = community.compute_flow(g, community.DEFAULT_TELEPORT)
        text = (svc.out / summary_file).read_text(encoding="utf-8")
        side = float(re.search(r"L=(\S+)", text).group(1))
        recomputed = community.map_equation(g, flow, community.read_labels(svc.out / part_file))
        self.check(abs(side - recomputed) <= SIDECAR_TOL,
                   f"seed {svc.seed} {summary_file}: L={side!r} "
                   f"but map_equation gives {recomputed!r}")
        return g, flow, side

    def codelengths(self, svc: Service) -> tuple[float, float]:
        """Detected and planted career codelength (bits) of one corpus."""
        self.partition_check(svc, cli.F_EDU_GRAPH, cli.F_EDU_PART, cli.F_EDU_PART_SUMMARY)
        career, flow, detected = self.partition_check(svc, cli.F_CAR_GRAPH, cli.F_CAR_PART,
                                                      cli.F_CAR_PART_SUMMARY)
        corpus = svc.corpus
        planted: dict[str, int] = {}
        for job in corpus.jobs:
            planted[job.id] = corpus.job_topic[job.id]
            for skill in job.skills:
                planted[skill] = corpus.job_topic[job.id]
        return detected, community.map_equation(career, flow, planted)

    def judged_runs(self, svc: Service) -> tuple[list, list]:
        """Graph and TF-IDF baseline runs of the topic-<t> engineer queries,
        built as acceptance criterion 7 builds them."""
        corpus = svc.corpus
        courses = ingest.apply_skill_matching(
            ingest.load_courses(svc.out / cli.F_COURSES), corpus.skills,
            pre_matched=ingest.load_course_skills(svc.out / cli.F_COURSE_SKILLS))
        truth_by_topic: dict[int, set[str]] = {}
        for cid, topic in corpus.course_topic.items():
            truth_by_topic.setdefault(topic, set()).add(cid)
        graph_runs, baseline_runs = [], []
        for topic in sorted(set(corpus.job_topic.values())):
            query = f"topic-{topic} engineer"
            label = f"{svc.seed}/{query}"   # query names repeat across corpora
            judgments = {cid: (cid in truth_by_topic[topic]) for cid in corpus.course_topic}
            ranked = ranker.recommend(svc.g, svc.labels,
                                      ranker.ScenarioInput(scenario=1, career_goal=query),
                                      cutoff=len(judgments))
            graph_runs.append(metrics.JudgedRun(
                query=label, ranking=tuple(n for n, _s in ranked.entries), judgments=judgments))
            base = metrics.baseline_vector_space(corpus.jobs, courses, query,
                                                 cutoff=len(judgments), catalog=corpus.skills)
            baseline_runs.append(metrics.JudgedRun(
                query=label, ranking=tuple(n for n, _s in base.entries), judgments=judgments))
        return graph_runs, baseline_runs

    def quality(self) -> dict:
        lengths = [self.codelengths(svc) for svc in self.services]
        graph_runs, baseline_runs = [], []
        for svc in self.services:
            g_runs, b_runs = self.judged_runs(svc)
            graph_runs += g_runs
            baseline_runs += b_runs
        return {"career_l_bits": [d for d, _p in lengths],
                "planted_l_bits": [p for _d, p in lengths],
                "codelength_gap_bits": [d - p for d, p in lengths],
                "codelength_ratio": statistics.fmean(d / p for d, p in lengths),
                "map_queries": len(graph_runs),
                "map_graph": metrics.metric_report(graph_runs).map,
                "map_baseline": metrics.metric_report(baseline_runs).map}

    def determinism(self, first_pass: list) -> dict:
        """Same code, workload and seed must give the same bytes in every run."""
        mine = {"artifacts": [sha256_tree(svc.out) for svc in self.services],
                "ranked_lists": hashlib.sha256(
                    "".join(t or "" for t in first_pass).encode()).hexdigest()}
        code = hashlib.sha256((sha256_tree(ROOT / "src", "*.py")
                               + sha256_tree(Path(__file__).parent, "*.py")).encode())
        key = f"{code.hexdigest()}:{self.args.workload}:{self.args.seed}:{len(self.services)}"
        path = STATE / "digests.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        if key in known:
            self.check(known[key] == mine,
                       f"digests differ from an earlier run: {known[key]} vs {mine}")
        else:
            known[key] = mine
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            tmp.replace(path)
        return {**mine, "key": key}

    def execute(self, import_span: tuple[float, float]) -> tuple[dict, dict]:
        """Run every step; return (metrics by name as (value, unit), report)."""
        secs = lambda span: self.clock.seconds(*span)  # noqa: E731
        services = self.services
        synth_spans, load_spans = [], []
        self.phase("setup")
        for svc in services:
            svc.corpus, span = self.generate(svc, svc.data)
            synth_spans.append(span)

        self.phase("pipeline")
        build_spans = [self.pipeline(svc) for svc in services]

        self.phase("setup")
        for svc in services:
            svc.g, svc.labels, span = self.load_service(svc)
            load_spans.append(span)
            svc.seq = query_sequence(svc.corpus, self.wl.queries, svc.seed)

        self.phase("query")
        stream = self.stream()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        self.phase("repeat")
        for r in range(len(synth_spans), SETUP_REPEATS):
            synth_spans.append(self.generate(services[0], self.work / f"data-repeat{r}")[1])
            load_spans.append(self.load_service(services[0])[2])

        self.phase("check")
        self.recheck(stream["first_pass"])
        quality = self.quality()
        digests = self.determinism(stream["first_pass"])

        synth_s = [secs(s) for s in synth_spans]
        load_s = [secs(s) for s in load_spans]
        stage_s = [{stage: secs(span) for stage, span in spans.items()}
                   for spans in build_spans]
        timed = [secs(s) for s in stream["spans"]]
        latencies = sorted(timed)
        first = [x for x, k in zip(timed, stream["owners"]) if k == 0]
        p95 = percentile(latencies, 0.95)
        failed = len(self.failures)
        e2e = {
            "setup_s": (secs(import_span) + statistics.median(synth_s)
                        + statistics.median(load_s), "s"),
            "build_s": (statistics.fmean(sum(b.values()) for b in stage_s), "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "query_p95_ms": (p95 * 1e3, "ms"),
            "query_qps": (len(latencies) / secs(stream["span"]), "1/s"),
            "answered_ratio": (stream["answered"] / len(latencies), "ratio"),
            "ok_ratio": (1.0 - failed / self.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "codelength_ratio": (quality["codelength_ratio"], "ratio"),
            "map_graph": (quality["map_graph"], "score"),
        }
        wl = self.wl
        report = {
            "workload": self.args.workload, "seed": self.args.seed, "trace": self.args.trace,
            "shape": {"jobs": wl.jobs, "courses": wl.courses, "skills": wl.skills,
                      "alignment": ALIGNMENT},
            "corpus_seeds": [svc.seed for svc in services],
            "python": platform.python_version(), "numpy": np.__version__,
            "backend": kernels.ACTIVE_BACKEND, "nproc": os.cpu_count(),
            "queries": stream["queries"], "passes": stream["passes"],
            "latency_samples": {"query_p50_ms": len(latencies), "query_p95_ms": len(latencies),
                                "beyond_p95": sum(1 for x in latencies if x > p95)},
            "setup_samples": len(synth_s), "import_s": secs(import_span),
            "synth_s": synth_s, "load_s": load_s, "stage_s": stage_s,
            "wall_build_s": [sum(b - a for a, b in spans.values()) for spans in build_spans],
            "mean_speed": self.clock.speed(import_span[0], perf_counter()),
            "probes": len(self.clock.durations),
            "attempted": self.attempted, "failed_ratio": failed / self.attempted,
            "failures": self.failures[:10], **quality, "digests": digests,
            "e2e": {name: value for name, (value, _unit) in e2e.items()},
            # what a traced run (one corpus) compares itself with
            "first_corpus": {"build_s": sum(stage_s[0].values()),
                             "query_qps": len(first) / sum(first)},
        }
        if self.tracer is None:
            return e2e, report
        untraced = STATE / "results" / f"{self.args.workload}-s{self.args.seed}-trace0.json"
        report["trace_overhead"] = None
        if untraced.exists():
            plain = json.loads(untraced.read_text())["first_corpus"]
            report["trace_overhead"] = {
                name: report["first_corpus"][name] - plain[name] for name in plain}
        trace_file = STATE / "traces" / f"{self.args.workload}-s{self.args.seed}.jsonl"
        self.tracer.write(trace_file, {k: report[k] for k in ("workload", "seed", "backend")})
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        return per_layer(self.tracer, self.clock, stream["queries"], services[0].g,
                         quality["map_baseline"]), report


def per_layer(tracer, clock: SpeedClock, n_queries: int, g, map_baseline: float) -> dict:
    """Per-layer metrics from the spans of one traced run (one query pass)."""
    user = ("setup", "pipeline", "query")
    pipe, qs = ("pipeline",), ("query",)

    def dur(span) -> float:
        return clock.seconds(span["start"], span["end"])

    def total_s(name, phases=user) -> float:
        return sum(dur(s) for s in tracer.select(name, phases))

    def calls(name, phases=user) -> int:
        return len(tracer.select(name, phases))

    def total(name, key, phases=user):
        return sum(s[key] for s in tracer.select(name, phases))

    def one(name, **match) -> dict:
        return next(s for s in tracer.select(name, pipe)
                    if all(s.get(k) == v for k, v in match.items()))

    q = float(n_queries)
    m: dict[str, tuple[float, str]] = {}
    m["synth.generate_s"] = (statistics.median(
        dur(s) for s in tracer.select("synth.generate", ("setup", "repeat"))), "s")
    for stage in STAGES:
        m[f"cli.stage_s.{stage}"] = (dur(one(f"cli.{stage}")), "s")

    m["ingest.load_s"] = (total_s("ingest.load", pipe), "s")
    m["ingest.match_s"] = (total_s("ingest.match", pipe), "s")
    m["ingest.write_s"] = (total_s("ingest.write", pipe), "s")
    m["ingest.matched_pairs"] = (one("ingest.match", matcher=True)["pairs"], "count")

    m["graph.build_s"] = (total_s("graph.build", pipe), "s")
    m["graph.snapshot_read_s"] = (total_s("graph.snapshot_read", ("setup", "pipeline")), "s")
    m["graph.snapshot_read.calls"] = (calls("graph.snapshot_read", ("setup", "pipeline")),
                                      "count")
    m["graph.snapshot_write_s"] = (total_s("graph.snapshot_write", pipe), "s")
    m["graph.index.calls"] = (calls("graph.index", qs) / q, "count/query")
    m["graph.index_s"] = (total_s("graph.index", qs) / q, "s/query")
    m["graph.nodes"] = (g.num_nodes(), "count")
    m["graph.edges"] = (g.num_edges(), "count")

    for which in ("education", "career"):
        detect = one("community.detect", graph=which)
        m[f"community.detect_s.{which}"] = (dur(detect), "s")
        m[f"community.k.{which}"] = (detect["k"], "count")
    m["community.aggregations"] = (calls("community.aggregate", pipe), "count")
    m["community.merge_s"] = (total_s("community.merge", pipe), "s")

    for k in ("power_iterate", "partition_cost", "local_move_pass", "propagate_step"):
        m[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
        m[f"kernels.{k}.s"] = (total_s(f"kernels.{k}"), "s")
    m["kernels.power_iterate.iters"] = (total("kernels.power_iterate", "iters"), "count")
    m["kernels.local_move_pass.moves"] = (total("kernels.local_move_pass", "moves"), "count")
    m["kernels.propagate_step.edges"] = (total("kernels.propagate_step", "edges"), "count")

    link = one("linker.link")
    pairs = tracer.counts[("pipeline", "linker.bm25")]
    m["linker.link_s"] = (dur(link), "s")
    m["linker.pairs_scored"] = (pairs, "count")
    m["linker.links"] = (link["links"], "count")
    m["linker.useful_ratio"] = (link["links"] / pairs, "ratio")

    m["ranker.resolve_ms"] = (total_s("ranker.resolve", qs) / q * 1e3, "ms")
    m["ranker.score_ms"] = (total_s("ranker.score", qs) / q * 1e3, "ms")
    m["ranker.prereq_ms"] = (total_s("ranker.prereq", qs) / q * 1e3, "ms")
    m["ranker.score_metapath.calls_per_query"] = (calls("ranker.score", qs) / q, "count/query")
    m["ranker.groups_per_query"] = (total("ranker.scenario", "groups", qs) / q, "count/query")
    m["ranker.candidates_per_query"] = (total("ranker.scenario", "candidates", qs) / q,
                                       "count/query")

    baseline = tracer.select("metrics.baseline", ("check",))
    m["metrics.baseline_map"] = (map_baseline, "score")
    m["metrics.baseline_ms"] = (sum(dur(s) for s in baseline) / len(baseline) * 1e3, "ms")
    return m


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "skillgraph" / "__init__.py").is_file():
        print(f"error: no skillgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    clock = SpeedClock()
    clock.start()
    tracer = None
    bench = None
    try:
        t = perf_counter()
        load_program()
        import_span = (t, perf_counter())
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer_mod.instrument(tracer)
        bench = Bench(args, clock, tracer)
        shutil.rmtree(bench.work, ignore_errors=True)
        metrics_out, report = bench.execute(import_span)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.restore()
        if bench is not None:
            shutil.rmtree(bench.work, ignore_errors=True)

    result_file = STATE / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(report, indent=1, sort_keys=True))
    failed = len(bench.failures)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_out.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
