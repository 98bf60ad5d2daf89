"""Command-line pipeline: ingest -> build -> communities -> link -> recommend.

Stages hand data to each other only through files in the output directory,
so each one can be rerun in isolation:

* ingest       corpus CSVs -> validated canonical corpus (+ matched skills)
* build        corpus -> education.graph, career.graph, merged.graph
* communities  domain graphs -> partition CSVs + merged_labels.csv
* link         merged graph + labels -> linked.graph
* recommend    linked graph + labels -> ranked CSV on stdout
* evaluate     judgments + run file -> metric table + metrics.json
* synth        seeded synthetic corpus + ground truth

``main`` runs the command ``cmd_<name>`` it finds under that name when it
runs. Every stage command takes ``(cfg, args)``: the config, with each flag
whose ``dest`` is a config key already applied, and the parsed flags. Only
``cmd_synth`` takes ``(args)`` alone, so that it never reads a config file.

``main`` pauses the cyclic garbage collector for the whole command, and
switches it back on at the end only if it was on when ``main`` was entered.
The stages build rows, records and arrays that hold no reference cycles, so
reference counting alone frees them, and a collector pass during a stage
walks the live objects only to find nothing: 8-11% of a benchmark build's
time went to such passes. The one cycle a call leaves is its own argparse
parser, which the first collection after ``main`` returns takes.
``TestCollectorPause`` in ``tests/test_cli.py`` pins the invariant that
makes the pause safe: the garbage a stage or ``recommend`` call leaves is
the same at two corpus sizes, so no stage makes a cycle per record.

Exit codes: 0 success, 1 user error, 2 internal error.
"""
from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import fields
from pathlib import Path

from . import community as community_mod
from . import graph as graph_mod
from . import ingest as ingest_mod
from . import linker as linker_mod
from . import metrics as metrics_mod
from . import ranker as ranker_mod
from . import synth as synth_mod
from .config import PipelineConfig, load_config
from .errors import KIND_WORDS, ConfigError, SkillGraphError, parse_number, write_text

F_COURSES = "courses.csv"
F_COURSE_SKILLS = "course_skills.csv"
F_JOBS = "jobs.csv"
F_SKILLS = "skills.csv"
F_ENROLLMENTS = "enrollments.csv"
F_EDU_GRAPH = "education.graph"
F_CAR_GRAPH = "career.graph"
F_MERGED_GRAPH = "merged.graph"
F_LINKED_GRAPH = "linked.graph"
F_EDU_PART = "education.partition.csv"
F_EDU_PART_SUMMARY = "education.partition.summary"
F_CAR_PART = "career.partition.csv"
F_CAR_PART_SUMMARY = "career.partition.summary"
F_LABELS = "merged_labels.csv"
F_LINK_DUMP = "links_dump.csv"
F_METRICS = "metrics.json"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(f"{self.prog}: {message}")


def _number(kind: type[int] | type[float]):
    """An argparse ``type`` reading a flag by the rule files follow, ``parse_number``."""
    def parse(text: str) -> int | float:
        value = parse_number(text, kind)
        if value is None:
            raise argparse.ArgumentTypeError(f"{text!r} is not {KIND_WORDS[kind]}")
        return value
    return parse


_INT, _FLOAT = _number(int), _number(float)


def _load_corpus(courses, course_skills, skills, jobs, enrollments):
    """Load a corpus; without ``course_skills`` courses are matched to skills."""
    loaded = ingest_mod.load_courses(courses)
    catalog = ingest_mod.load_skills(skills)
    pre = ingest_mod.load_course_skills(course_skills) if course_skills else None
    return (ingest_mod.apply_skill_matching(loaded, catalog, pre_matched=pre),
            ingest_mod.load_jobs(jobs), catalog, ingest_mod.load_enrollments(enrollments))


def cmd_ingest(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    cfg.require_paths("courses", "jobs", "skills", "enrollments")
    courses, jobs, skills, enrollments = _load_corpus(
        cfg.courses, cfg.course_skills, cfg.skills, cfg.jobs, cfg.enrollments)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingest_mod.write_courses(out / F_COURSES, courses)
    ingest_mod.write_course_skills(out / F_COURSE_SKILLS, courses)
    ingest_mod.write_jobs(out / F_JOBS, jobs)
    ingest_mod.write_skills(out / F_SKILLS, skills)
    ingest_mod.write_enrollments(out / F_ENROLLMENTS, enrollments)
    matched = sum(1 for c in courses if c.skills)
    return (f"ingest: {len(courses)} courses ({matched} with skills), {len(jobs)} jobs, "
            f"{len(skills)} catalog skills, {len(enrollments)} enrollments -> {out}")


def cmd_build(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    courses, jobs, skills, enrollments = _load_corpus(
        out / F_COURSES, out / F_COURSE_SKILLS, out / F_SKILLS, out / F_JOBS, out / F_ENROLLMENTS)
    education = graph_mod.build_education_graph(courses, enrollments, catalog=skills)
    career = graph_mod.build_career_graph(jobs, aggregate_by_title=cfg.aggregate_jobs_by_title)
    # the graphs hold no record, so the records, the stage's largest
    # objects, go before the merge and the three snapshot writes
    del courses, jobs, skills, enrollments
    merged = graph_mod.merge_graphs(education, career)
    graph_mod.write_snapshot(education, out / F_EDU_GRAPH)
    graph_mod.write_snapshot(career, out / F_CAR_GRAPH)
    graph_mod.write_snapshot(merged, out / F_MERGED_GRAPH)
    courses_n, jobs_n, skills_n = (len(merged.node_ids(kind)) for kind in graph_mod.NodeKind)
    return (f"build: merged graph has {merged.num_nodes()} nodes ({courses_n} courses, "
            f"{jobs_n} jobs, {skills_n} skills) and {merged.num_edges()} edges")


def _attach_names(g, kind, names: dict[str, str]) -> None:
    """Name each ``kind`` node of ``g`` that ``names`` holds; snapshots keep no names."""
    for node_id in g.node_ids(kind):
        if node_id in names:
            g.set_node_name(node_id, names[node_id])


def _attach_job_titles(g, jobs) -> None:
    _attach_names(g, graph_mod.NodeKind.JOB, {j.id: j.title for j in jobs})


def cmd_communities(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    education = graph_mod.read_snapshot(out / F_EDU_GRAPH)
    career = graph_mod.read_snapshot(out / F_CAR_GRAPH)
    _attach_names(education, graph_mod.NodeKind.SKILL,
                  {s.id: s.name for s in ingest_mod.load_skills(out / F_SKILLS)})
    edu_part = community_mod.detect_communities(education, seed=cfg.seed, teleport=cfg.teleport)
    car_part = community_mod.detect_communities(career, seed=cfg.seed, teleport=cfg.teleport)
    labels = community_mod.merge_partitions(edu_part, education, car_part, career)
    community_mod.write_partition(out / F_EDU_PART, out / F_EDU_PART_SUMMARY, edu_part, cfg.seed)
    community_mod.write_partition(out / F_CAR_PART, out / F_CAR_PART_SUMMARY, car_part, cfg.seed)
    community_mod.write_labels(out / F_LABELS, labels)
    return (f"communities: education L={edu_part.description_length:.6f} bits "
            f"k={edu_part.num_communities}; career L={car_part.description_length:.6f} bits "
            f"k={car_part.num_communities}; merged labels -> {out / F_LABELS}")


def cmd_link(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    merged = graph_mod.read_snapshot(out / F_MERGED_GRAPH)
    labels = community_mod.read_labels(out / F_LABELS)
    params = linker_mod.Bm25Params(k1=cfg.bm25_k1, b=cfg.bm25_b)
    linked, links = linker_mod.link_skills(merged, labels, params, top_k=cfg.link_top_k)
    graph_mod.write_snapshot(linked, out / F_LINKED_GRAPH)
    if args.dump_links:
        linker_mod.write_link_dump(out / F_LINK_DUMP, links)
    return f"link: added {len(links)} skill links -> {out / F_LINKED_GRAPH}"


def cmd_recommend(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    # a course id holds no whitespace or ',', so "C000, C001" names C000 and C001
    taken = tuple(t for t in map(str.strip, (args.taken or "").split(",")) if t)
    if args.taken is not None and not taken:
        raise ConfigError(f"--taken {args.taken!r} names no course")
    inp = ranker_mod.ScenarioInput(scenario=args.scenario, career_goal=args.goal,
                                   taken_courses=taken, current_job=args.current_job)
    out = Path(cfg.out_dir)
    g = graph_mod.read_snapshot(out / F_LINKED_GRAPH)
    labels = community_mod.read_labels(out / F_LABELS)
    _attach_job_titles(g, ingest_mod.load_jobs(out / F_JOBS))
    ranked = ranker_mod.recommend(g, labels, inp, cutoff=args.top,
                                  prereq_depth=cfg.prereq_depth)
    if args.debug:
        prov = ranked.provenance
        for community, base in sorted(prov.base.items()):
            print(f"# community {community}: {len(prov.seeds[community])} seeds, "
                  f"{len(base)} base candidates", file=sys.stderr)
        if prov.prereq:
            print(f"# prerequisite route: {len(prov.prereq)} candidates", file=sys.stderr)
    return ranker_mod.format_ranked_list(ranked).rstrip("\n")


def cmd_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    judgments = metrics_mod.load_judgments(args.judgments)
    rankings = metrics_mod.load_runs(args.runs)
    runs = metrics_mod.judged_runs(rankings, judgments, missing=args.missing)
    report = metrics_mod.metric_report(runs)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / F_METRICS, report.to_json())
    return (report.render_table() +
            f"\nevaluate: {len(runs)} queries -> {out / F_METRICS}")


def cmd_synth(args: argparse.Namespace) -> str:
    corpus = synth_mod.generate_synthetic_corpus(
        seed=args.seed, n_jobs=args.jobs, n_courses=args.courses,
        n_skills=args.skills, alignment=args.alignment, out_dir=args.out,
        n_topics=args.topics)
    return (f"synth: seed={args.seed} wrote {len(corpus.courses)} courses, "
            f"{len(corpus.jobs)} jobs, {len(corpus.skills)} skills, "
            f"{len(corpus.enrollments)} enrollments -> {corpus.out_dir}")


def build_parser() -> _Parser:
    parser = _Parser(prog="skillgraph",
                     description="Course/job graph integration and recommendation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="key=value config file (default: $SKILLGRAPH_CONFIG)")
        p.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="output directory (config key out_dir)")

    p = sub.add_parser("ingest", help="validate corpora and match course skills")
    add_common(p)
    p.add_argument("--courses", help="course CSV/JSON path")
    p.add_argument("--jobs", help="job CSV/JSON path")
    p.add_argument("--skills", help="skill catalog CSV/JSON path")
    p.add_argument("--enrollments", help="enrollment CSV/JSON path")
    p.add_argument("--course-skills", dest="course_skills",
                   help="optional pre-matched course_id,skill_id file")

    p = sub.add_parser("build", help="build education, career, and merged graphs")
    add_common(p)
    p.add_argument("--aggregate-jobs-by-title", action="store_true", default=None,
                   help="collapse postings sharing a normalized title into one node")

    p = sub.add_parser("communities", help="detect and merge skill communities")
    add_common(p)
    p.add_argument("--seed", type=_INT, help="detection shuffle seed")
    p.add_argument("--teleport", type=_FLOAT, help="walk teleport probability")

    p = sub.add_parser("link", help="add BM25 skill links inside communities")
    add_common(p)
    p.add_argument("--k1", dest="bm25_k1", metavar="K1", type=_FLOAT, help="BM25 k1")
    p.add_argument("--b", dest="bm25_b", metavar="B", type=_FLOAT, help="BM25 b")
    p.add_argument("--top-k", dest="link_top_k", metavar="TOP_K", type=_INT,
                   help="links kept per skill")
    p.add_argument("--dump-links", action="store_true", help="also write links_dump.csv")

    p = sub.add_parser("recommend", help="rank courses for a scenario query")
    add_common(p)
    p.add_argument("--scenario", type=_INT, choices=(1, 2, 3), required=True,
                   help="1 goal, 2 goal+taken courses, 3 upskilling")
    p.add_argument("--goal", help="career-goal job query text (scenarios 1 and 2)")
    p.add_argument("--taken", help="comma-separated taken course ids (scenario 2)")
    p.add_argument("--current-job", dest="current_job", help="current job text (scenario 3)")
    p.add_argument("--top", type=_INT, default=10, help="list length cutoff")
    p.add_argument("--debug", action="store_true",
                   help="print per-route provenance counts to stderr")

    p = sub.add_parser("evaluate", help="score judged runs and write metrics.json")
    add_common(p)
    p.add_argument("--judgments", required=True, help="query_id,node_id,relevant CSV")
    p.add_argument("--runs", required=True, help="query_id,rank,node_id,score CSV")
    p.add_argument("--missing", choices=("error", "irrelevant"), default="error",
                   help="policy for ranked ids without judgments")

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=_INT, default=0, help="generator seed")
    p.add_argument("--jobs", type=_INT, default=100, help="number of jobs")
    p.add_argument("--courses", type=_INT, default=30, help="number of courses")
    p.add_argument("--skills", type=_INT, default=60, help="skills per vocabulary")
    p.add_argument("--alignment", type=_FLOAT, default=0.2,
                   help="fraction of skill names shared across corpora")
    p.add_argument("--topics", type=_INT, default=None, help="planted topic count")
    p.add_argument("--out", required=True, help="corpus output directory")
    return parser


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    """Config file values, overridden by each flag whose ``dest`` is a config key."""
    return load_config(args.config, {f.name: getattr(args, f.name, None)
                                     for f in fields(PipelineConfig)})


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # the stages make no cycles; see the module docstring
    try:
        args = build_parser().parse_args(argv)
        command = globals()[f"cmd_{args.command}"]
        print(command(args) if args.command == "synth" else command(_config_from(args), args))
    except (SkillGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
