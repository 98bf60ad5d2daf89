from __future__ import annotations

import gc
import hashlib
import json
import re
import sys
import warnings

import pytest

from skillgraph import cli
from skillgraph.cli import build_parser, main
from skillgraph.community import read_labels
from skillgraph.config import ENV_CONFIG, PipelineConfig, load_config, parse_config_text
from skillgraph.errors import ConfigError
from skillgraph.graph import read_snapshot
from skillgraph import ingest as ingest_mod
from skillgraph.ingest import load_courses, load_jobs, tokenize
from skillgraph.ranker import ScenarioInput, format_ranked_list, recommend

from oracles import ref_tokenize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_pipeline(tmp_path, capsys, seed=7, out_name="out"):
    data = tmp_path / "data"
    out = tmp_path / out_name
    code, _, err = run_cli(capsys, "synth", "--seed", str(seed), "--jobs", "40",
                           "--courses", "12", "--skills", "24", "--alignment", "0.4",
                           "--out", str(data))
    assert code == 0, err
    for argv in (
        ["ingest", "--courses", str(data / "courses.csv"), "--jobs", str(data / "jobs.csv"),
         "--skills", str(data / "skills.csv"), "--enrollments", str(data / "enrollments.csv"),
         "--out", str(out)],
        ["build", "--out", str(out)],
        ["communities", "--out", str(out), "--seed", "3"],
        ["link", "--out", str(out)],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
    return data, out


def non_ascii_word(match):
    """About half the words spelt with letters outside ASCII, each in one of
    five ways: an accent, an eszett, a dotted capital I (which lower-cases to
    two code points), a CJK letter or a fullwidth digit."""
    word = match.group()
    if not sum(map(ord, word)) % 2:
        return word
    if "e" in word:
        return word.replace("e", "\u00e9", 1)
    if "s" in word:
        return word.replace("s", "\u00df")
    if "i" in word:
        return word.upper().replace("I", "\u0130")
    return f"{word}\u4e2d" if "o" in word else f"{word}\uff11"


def ingest_argv(tmp_path, capsys, **replaced):
    """``ingest`` arguments for a small synthetic corpus, with the input
    files named in ``replaced`` (``courses=path``...) swapped in."""
    data = tmp_path / "data"
    code, _, err = run_cli(capsys, "synth", "--seed", "7", "--jobs", "40", "--courses", "12",
                           "--skills", "24", "--out", str(data))
    assert code == 0, err
    argv = ["ingest", "--out", str(tmp_path / "out")]
    for name in ("courses", "jobs", "skills", "enrollments"):
        argv += [f"--{name}", str(replaced.get(name, data / f"{name}.csv"))]
    return argv


class TestPipeline:
    def test_full_pipeline_and_recommend(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "recommend", "--out", str(out),
                                  "--scenario", "1", "--goal", "topic-0 engineer",
                                  "--top", "5")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "rank,node_id,score"
        assert 1 <= len(lines) - 1 <= 5
        assert all(line.split(",")[1].startswith("C") for line in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        _d1, out1 = run_pipeline(tmp_path, capsys, out_name="out1")
        _d2, out2 = run_pipeline(tmp_path, capsys, out_name="out2")
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_evaluate_with_ground_truth(self, tmp_path, capsys):
        data, out = run_pipeline(tmp_path, capsys)
        # rank for two topic goals, build a run file keyed like the truth
        runs = {}
        for topic in (0, 1):
            code, stdout, _ = run_cli(capsys, "recommend", "--out", str(out),
                                      "--scenario", "1", "--goal", f"topic-{topic}",
                                      "--top", "10")
            assert code == 0
            ranked = [line.split(",")[1] for line in stdout.strip().splitlines()[1:]]
            runs[f"topic-{topic}"] = [(cid, 1.0 / (i + 1)) for i, cid in enumerate(ranked)]
        run_file = tmp_path / "runs.csv"
        run_file.write_text("query_id,rank,node_id,score\n" + "".join(
            f"{query},{rank},{cid},{score!r}\n"
            for query in sorted(runs) for rank, (cid, score) in enumerate(runs[query], start=1)))
        code, stdout, _ = run_cli(capsys, "evaluate", "--judgments",
                                  str(data / "ground_truth.csv"), "--runs", str(run_file),
                                  "--missing", "irrelevant", "--out", str(out))
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload) == {"precision", "map", "map_at_5", "precision_at_10", "map_at_10"}
        assert "MAP" in stdout

    def test_golden_walkthrough_artifacts(self, tmp_path, capsys):
        # the README walkthrough end to end: pinned bytes of every file the
        # stages write under out/ and of each ranked list they print
        data, out = tmp_path / "data", tmp_path / "out"
        steps = {
            "synth": ["synth", "--seed", "7", "--jobs", "200", "--courses", "40",
                      "--skills", "80", "--alignment", "0.3", "--out", str(data)],
            "ingest": ["ingest", "--courses", str(data / "courses.csv"),
                       "--jobs", str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
                       "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
            "build": ["build", "--out", str(out)],
            "communities": ["communities", "--out", str(out), "--seed", "3"],
            "link": ["link", "--out", str(out), "--dump-links"],
            "s1": ["recommend", "--out", str(out), "--scenario", "1",
                   "--goal", "topic-0 engineer", "--top", "5"],
            "s2": ["recommend", "--out", str(out), "--scenario", "2",
                   "--goal", "topic-0 engineer", "--taken", "C000,C001", "--top", "5"],
            "s3": ["recommend", "--out", str(out), "--scenario", "3",
                   "--current-job", "topic-1 analyst", "--top", "5"],
            "runs": ["recommend", "--out", str(out), "--scenario", "1",
                     "--goal", "topic-0", "--top", "10"],
        }
        lists = {}
        for name, argv in steps.items():
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 0, (name, err)
            if argv[0] == "recommend":
                lists[name] = stdout
        # the last list keyed by its goal, as the README's sed does
        head, *rows = lists["runs"].splitlines()
        (tmp_path / "runs.csv").write_text(
            "".join([f"query_id,{head}\n"] + [f"topic-0,{row}\n" for row in rows]),
            encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--judgments", str(data / "ground_truth.csv"),
                               "--runs", str(tmp_path / "runs.csv"),
                               "--missing", "irrelevant", "--out", str(out))
        assert code == 0, err
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
        digests.update((name, hashlib.sha256(text.encode()).hexdigest())
                       for name, text in lists.items())
        expected = {
            "career.graph": "81fbabefea7f0917711e557dfe27e7d8f713e05b5c7b200b4ea5981ce2ea0b03",
            "career.partition.csv":
                "dbdb52b728a82b51fb08ac7d12e6116b4f1a186c64c76cdeb4b96a4cd3105ce0",
            "career.partition.summary":
                "f3e6c1d01db06d4b9e68f35567787600c10e2456f91100132c99991d54f8d0de",
            "course_skills.csv": "9c88f785216047e723e53d516fc707b5e0f62159861af11e639055158b6f8aeb",
            "courses.csv": "cf868a3104e4e1ebee8f4faac68f22c559dcc4003dabb9c6e85529129b4f5bc3",
            "education.graph": "f914c2aa9e3cb3211a5cd04754fa1b71ec257814934c66587f7ace762e9b8120",
            "education.partition.csv":
                "aecf4e0dfed0e6b131c6c9357a9d7bc1635bd89fa3fc50e0eefc691547734711",
            "education.partition.summary":
                "6696e5ac3f8670772b6188dc00083eebb90de3b5b72a5946e7ebc0ca550f53c0",
            "enrollments.csv": "6c27a6b082dc84142d962c0295b262d78fe36a9259a1214d8c25014735ef75bf",
            "jobs.csv": "fc0627c7852f813537e5e5708a8efe07092bcbf48c17b7f5812d0a05139c412c",
            "linked.graph": "3917af134f7d52db45ef70eece558bb3753c2a83c0cdb2dc93e32db095cdc3b0",
            "links_dump.csv": "b584b230419ca2c9300ce4769ee03913b3b79527329da891d12e19f65ffe8ff4",
            "merged.graph": "c77b81c111c5677de8966d8fa5ba0b6585af7e89366c41998f83d602ff3f15f5",
            "merged_labels.csv": "873dbcc66090b47a57893bac95fb3062994a4119d4a850724b35152507a690cc",
            "metrics.json": "8306bee121ce33895f57225045731b1a9f1769428f337b2db493267cb73cbf01",
            "skills.csv": "65a924359feac0b389c515bcc6c240a3bdb8ce93c410f980ae1767335028f877",
            "s1": "7a35bb081a46682b5321c4f927b6a88661f35e8020f39f479045e401a9482b06",
            "s2": "557db8d4c14dbe7a2eb8d29359174f7d4d3adfa76afc5f72fe50d81b37380f3a",
            "s3": "70f88ef5705d4478b8839dbaa150b19e443a97313f997d1df99c2acf5b9bc237",
            "runs": "db639ca677109195f34023307888113ddf25d52fb2e3333d00f10cfc030d4dca",
        }
        assert digests == expected

    def test_non_ascii_names_write_what_the_regex_tokenizer_writes(self, tmp_path, capsys,
                                                                   monkeypatch):
        # tokenize maps ASCII text through a byte table and runs its regex on
        # any other; a corpus holding both kinds of name must give the same
        # bytes as a run in which every module tokenizes with the regex alone
        data = tmp_path / "data"
        code, _, err = run_cli(capsys, "synth", "--seed", "7", "--jobs", "60", "--courses", "16",
                               "--skills", "30", "--alignment", "0.4", "--out", str(data))
        assert code == 0, err
        for name in ("courses", "jobs", "skills"):
            path = data / f"{name}.csv"
            head, rest = path.read_text(encoding="utf-8").split("\n", 1)
            if name == "courses":  # no job skill or id may hold other whitespace
                rest = rest.replace(" with ", " with\u00a0")
            path.write_text(f"{head}\n{re.sub('[a-z]+', non_ascii_word, rest)}",
                            encoding="utf-8")
        goal, job = (re.sub("[a-z]+", non_ascii_word, text)
                     for text in ("topic-0 engineer", "topic-0 analyst"))
        assert not goal.isascii() and not job.isascii()

        def pipeline(out):
            ingest = ["ingest", "--out", str(out)]
            for name in ("courses", "jobs", "skills", "enrollments"):
                ingest += [f"--{name}", str(data / f"{name}.csv")]
            lists = []
            for stage in (ingest, ["build", "--out", str(out)],
                          ["communities", "--out", str(out), "--seed", "3"],
                          ["link", "--out", str(out), "--dump-links"],
                          ["recommend", "--out", str(out), "--scenario", "1", "--goal", goal],
                          ["recommend", "--out", str(out), "--scenario", "3",
                           "--current-job", job]):
                code, stdout, err = run_cli(capsys, *stage)
                assert code == 0, (stage[0], err)
                if stage[0] == "recommend":
                    assert len(stdout.splitlines()) > 1, stage
                    lists.append(stdout)
            return lists + [(path.name, path.read_bytes()) for path in sorted(out.iterdir())]

        fast = pipeline(tmp_path / "fast")
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("skillgraph")
                    and getattr(module, "tokenize", None) is tokenize):
                monkeypatch.setattr(module, "tokenize", ref_tokenize)
        assert ingest_mod.tokenize is ref_tokenize
        assert pipeline(tmp_path / "regex") == fast

    def test_link_dump_flag(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        code, _, _ = run_cli(capsys, "link", "--out", str(out), "--dump-links")
        assert code == 0
        assert (out / "links_dump.csv").read_text().startswith("source,target,raw_bm25,weight")

    def test_top_k_past_int64_links_like_any_top_k_over_the_skills(self, tmp_path, capsys):
        # a top_k no int64 holds, from the flag or the config key, keeps
        # every candidate, as a top_k past the skill count does
        _data, out = run_pipeline(tmp_path, capsys)
        linked = out / cli.F_LINKED_GRAPH
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(f"link_top_k = {2**70}\n")
        written = []
        for extra in (["--top-k", "100000"], ["--top-k", "9" * 23], ["--config", str(cfg_file)]):
            linked.unlink()
            code, _, err = run_cli(capsys, "link", "--out", str(out), *extra)
            assert code == 0, (extra, err)
            written.append(linked.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_aggregate_jobs_by_title(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        plain = (out / "career.graph").read_text()
        code, stdout, _ = run_cli(capsys, "build", "--out", str(out),
                                  "--aggregate-jobs-by-title")
        assert code == 0
        aggregated = (out / "career.graph").read_text()
        assert aggregated != plain
        n_plain = sum(1 for line in plain.splitlines() if " job" in line)
        n_agg = sum(1 for line in aggregated.splitlines() if " job" in line)
        assert n_agg < n_plain  # postings sharing a title collapsed

    def test_recommend_debug_flag(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(out),
                                    "--scenario", "1", "--goal", "topic-0",
                                    "--top", "3", "--debug")
        assert code == 0
        assert stdout.startswith("rank,node_id,score")
        assert "base candidates" in err

    def test_course_name_with_carriage_return_survives_build(self, tmp_path, capsys):
        # ingest accepts the name, so the canonical courses.csv must read it back
        argv = ingest_argv(tmp_path, capsys)
        rows = [{"id": c.id, "name": c.name, "description": c.description}
                for c in load_courses(tmp_path / "data" / "courses.csv")]
        rows[0]["name"] = "a\rb"
        courses = tmp_path / "courses.json"
        courses.write_text(json.dumps(rows))
        argv[argv.index("--courses") + 1] = str(courses)
        out = tmp_path / "out"
        for stage in (argv, ["build", "--out", str(out)]):
            code, _, err = run_cli(capsys, *stage)
            assert code == 0, (stage[0], err)
        assert load_courses(out / "courses.csv")[0].name == "a\rb"

    def test_spaced_taken_list_writes_the_same_list(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        lists = []
        for taken in ("C000,C001", "C000, C001", " C000 ,C001 "):
            code, stdout, err = run_cli(capsys, "recommend", "--out", str(out), "--scenario", "2",
                                        "--goal", "topic-0 engineer", "--taken", taken,
                                        "--top", "5")
            assert code == 0, (taken, err)
            lists.append(stdout)
        assert lists[0].count("\n") > 1
        assert lists[1] == lists[0] and lists[2] == lists[0]

    def test_prereq_depth_from_the_config_file_reaches_recommend(self, tmp_path, capsys):
        # D1 is C000's prerequisite and D2 is D1's; neither covers a skill,
        # so only a second prerequisite hop from C000 reaches D2
        argv = ingest_argv(tmp_path, capsys)
        data, out = tmp_path / "data", tmp_path / "out"
        courses, enrollments = tmp_path / "courses.csv", tmp_path / "enrollments.csv"
        courses.write_text((data / "courses.csv").read_text() + "D1,zzqx,zzqx\nD2,zzqy,zzqy\n")
        enrollments.write_text((data / "enrollments.csv").read_text()
                               + "SX,D1,1\nSX,C000,2\nSY,D2,1\nSY,D1,2\n")
        argv[argv.index("--courses") + 1] = str(courses)
        argv[argv.index("--enrollments") + 1] = str(enrollments)
        for stage in (argv, ["build", "--out", str(out)],
                      ["communities", "--out", str(out), "--seed", "3"], ["link", "--out", str(out)]):
            code, _, err = run_cli(capsys, *stage)
            assert code == 0, (stage[0], err)
        cfg_file = tmp_path / "depth.cfg"
        cfg_file.write_text("prereq_depth = 2\n")
        query = ["recommend", "--out", str(out), "--scenario", "1", "--goal", "topic-0 engineer",
                 "--top", "50"]
        code, one, err = run_cli(capsys, *query)
        assert code == 0, err
        code, two, err = run_cli(capsys, *query, "--config", str(cfg_file))
        assert code == 0, err
        g = read_snapshot(out / cli.F_LINKED_GRAPH)
        cli._attach_job_titles(g, load_jobs(out / cli.F_JOBS))
        labels = read_labels(out / cli.F_LABELS)
        inp = ScenarioInput(1, career_goal="topic-0 engineer")
        assert two == format_ranked_list(recommend(g, labels, inp, cutoff=50, prereq_depth=2))
        assert ",D1," in one and ",D2," not in one
        assert ",D2," in two


class TestErrors:
    def test_missing_goal_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "recommend", "--out", str(tmp_path),
                               "--scenario", "1", "--top", "5")
        assert code == 1
        assert "career goal" in err

    @pytest.mark.parametrize("taken", [",", " , ", ""])
    @pytest.mark.parametrize("query", [["--scenario", "1", "--goal", "topic-0"],
                                       ["--scenario", "2", "--goal", "topic-0"],
                                       ["--scenario", "3", "--current-job", "topic-0"]])
    def test_taken_list_naming_no_course_exits_one(self, tmp_path, capsys, query, taken):
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(tmp_path), *query,
                                    "--taken", taken)
        assert (code, stdout, err) == (1, "", f"error: --taken {taken!r} names no course\n")

    def test_repeated_taken_course_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "recommend", "--out", str(tmp_path), "--scenario", "2",
                               "--goal", "topic-0", "--taken", "C000,C000", "--top", "5")
        assert code == 1
        assert "taken course 'C000' is listed more than once" in err

    @pytest.mark.parametrize("argv, message", [
        (["--scenario", "1", "--goal", "topic-0 engineer", "--taken", "C000,CXYZ"],
         "scenario 1 takes no taken courses"),
        (["--scenario", "3", "--current-job", "topic-0 engineer", "--goal", "topic-1 analyst"],
         "scenario 3 takes no career goal"),
    ])
    def test_input_the_scenario_ignores_exits_one(self, tmp_path, capsys, argv, message):
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(tmp_path), *argv)
        assert code == 1
        assert stdout == ""
        assert message in err

    @pytest.mark.parametrize("argv, config, message", [
        (["link", "--k1", "nan"], "", "bm25_k1 nan must be finite and >= 0"),
        (["link", "--k1", "inf"], "", "bm25_k1 inf must be finite and >= 0"),
        (["link"], "bm25_k1 = nan\n", "bm25_k1 nan must be finite and >= 0"),
        (["communities", "--seed", "-1"], "", "seed -1 must be >= 0"),
        (["communities"], "seed = -2\n", "seed -2 must be >= 0"),
    ])
    def test_bad_parameter_exits_one(self, tmp_path, capsys, argv, config, message):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(config)
        code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg_file),
                                    "--out", str(tmp_path / "out"))
        assert code == 1
        assert stdout == ""
        assert message in err

    def test_k1_too_large_for_a_term_exits_one_naming_k1(self, tmp_path, capsys):
        # 1e308 is finite, so the parameter checks pass, but f * (k1 + 1)
        # overflows; the stage names k1, not the NaN weight an edge got
        _data, out = run_pipeline(tmp_path, capsys)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, "link", "--out", str(out), "--k1", "1e308")
            assert (code, stdout) == (1, "")
            assert err == "error: k1 1e+308 is too large: a BM25 term overflows\n"
            # a k1 near the limit whose terms stay finite still links
            code, _, err = run_cli(capsys, "link", "--out", str(out), "--k1", "1e300", "--b", "1")
            assert code == 0, err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv, config, message", [
        (["link"], "bm25_b = 2\n", "error: bm25_b 2.0 outside [0, 1]\n"),
        (["recommend", "--scenario", "1", "--goal", "topic-0"], "prereq_depth = -1\n",
         "error: prereq_depth -1 must be >= 0\n"),
    ])
    def test_config_value_out_of_range_exits_one(self, tmp_path, capsys, argv, config, message):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(config)
        code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg_file),
                                    "--out", str(tmp_path / "out"))
        assert (code, stdout, err) == (1, "", message)

    def test_ingest_without_courses_exits_one(self, tmp_path, capsys):
        argv = ingest_argv(tmp_path, capsys)
        del argv[argv.index("--courses"):argv.index("--courses") + 2]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == "error: config key 'courses' is required for this stage\n"
        assert not (tmp_path / "out").exists()

    # (command, argv the command needs, numeric flag, its dest)
    NUMERIC_FLAGS = [
        ("communities", [], "--seed", "seed"), ("communities", [], "--teleport", "teleport"),
        ("link", [], "--k1", "bm25_k1"), ("link", [], "--b", "bm25_b"),
        ("link", [], "--top-k", "link_top_k"), ("recommend", [], "--scenario", "scenario"),
        ("recommend", ["--scenario", "1"], "--top", "top"),
    ] + [("synth", [], f"--{name}", name)
         for name in ("seed", "jobs", "courses", "skills", "alignment", "topics")]

    @pytest.mark.parametrize("command, extra, flag, dest", NUMERIC_FLAGS)
    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 3"])
    def test_numeric_flag_follows_the_number_rule(self, tmp_path, capsys, command, extra,
                                                  flag, dest, text):
        # int() and float() take each of these forms; no file reader does
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, *extra, flag, text, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert f"argument {flag}: {text!r} is not" in err
        assert not out.exists()
        args = build_parser().parse_args([command, *extra, flag, "3", "--out", str(out)])
        assert getattr(args, dest) == 3

    def test_negative_synth_seed_exits_one(self, tmp_path, capsys):
        code, stdout, err = run_cli(capsys, "synth", "--seed", "-1",
                                    "--out", str(tmp_path / "data"))
        assert code == 1
        assert stdout == ""
        assert "seed -1 must be >= 0" in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("topics", ["0", "-1"])
    def test_non_positive_synth_topics_exits_one(self, tmp_path, capsys, topics):
        code, stdout, err = run_cli(capsys, "synth", "--topics", topics,
                                    "--out", str(tmp_path / "data"))
        assert code == 1
        assert stdout == ""
        assert f"topic count {topics} must be >= 1" in err
        assert not (tmp_path / "data").exists()

    def test_oversized_synth_topics_exits_one(self, tmp_path, capsys):
        # the default sizes are 100 jobs, 30 courses and 60 skills
        code, stdout, err = run_cli(capsys, "synth", "--topics", "500",
                                    "--out", str(tmp_path / "data"))
        assert code == 1
        assert stdout == ""
        assert "topic count 500 exceeds 30" in err
        assert not (tmp_path / "data").exists()
        code, _, _ = run_cli(capsys, "synth", "--topics", "30",
                             "--out", str(tmp_path / "data"))
        assert code == 0

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_no_match_query_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        code, _, err = run_cli(capsys, "recommend", "--out", str(out),
                               "--scenario", "1", "--goal", "quantum plumber", "--top", "3")
        assert code == 1
        assert "nearest titles" in err

    def test_resolved_job_without_label_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        labels = out / "merged_labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        labels.write_text("".join(line for line in lines if not line.startswith("J")))
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(out),
                                    "--scenario", "1", "--goal", "topic-0 engineer", "--top", "3")
        assert (code, stdout) == (1, "")
        assert "carries no community label" in err

    def test_non_integer_label_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        labels = out / "merged_labels.csv"
        lines = labels.read_text().splitlines()
        node_id = lines[1].split(",")[0]
        lines[1] = f"{node_id},x"
        labels.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "recommend", "--out", str(out),
                               "--scenario", "1", "--goal", "topic-0", "--top", "3")
        assert code == 1
        assert f"error: {labels}: row 1: community 'x' is not an integer" in err

    def test_bad_snapshot_weight_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        graph = out / "linked.graph"
        lines = graph.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("E "))
        parts = lines[lineno - 1].split(" ")
        lines[lineno - 1] = " ".join(parts[:4] + ["abc"])
        graph.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "recommend", "--out", str(out),
                               "--scenario", "1", "--goal", "topic-0", "--top", "3")
        assert code == 1
        assert f"line {lineno}: bad edge weight 'abc'" in err

    def test_unnormalised_snapshot_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        graph = out / "linked.graph"
        lines = graph.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("E ") and " r " in line)
        parts = lines[i].split(" ")
        lines[i] = " ".join(parts[:4] + [repr(float(parts[4]) / 2)])
        graph.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(out),
                                    "--scenario", "1", "--goal", "topic-0", "--top", "3")
        assert code == 1
        assert stdout == ""
        assert f"{graph}: outgoing r-weights of '{parts[1]}' sum to" in err

    def test_evaluate_repeated_run_node_exits_one(self, tmp_path, capsys):
        judgments = tmp_path / "truth.csv"
        judgments.write_text("query_id,node_id,relevant\nq,C1,1\n")
        runs = tmp_path / "runs.csv"
        runs.write_text("query_id,rank,node_id,score\nq,1,C1,1\nq,2,C1,0.5\n")
        code, stdout, err = run_cli(capsys, "evaluate", "--judgments", str(judgments),
                                    "--runs", str(runs), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "MAP" not in stdout
        assert "node 'C1' is ranked twice for query 'q'" in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_evaluate_score_rising_with_rank_exits_one(self, tmp_path, capsys):
        judgments = tmp_path / "truth.csv"
        judgments.write_text("query_id,node_id,relevant\nq,C1,1\nq,C2,0\n")
        runs = tmp_path / "runs.csv"
        runs.write_text("query_id,rank,node_id,score\nq,1,C1,0.5\nq,2,C2,0.9\n")
        code, stdout, err = run_cli(capsys, "evaluate", "--judgments", str(judgments),
                                    "--runs", str(runs), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "MAP" not in stdout
        assert "runs.csv: row 2: score 0.9 at rank 2 of query 'q' rises above 0.5" in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_negative_top_exits_one(self, tmp_path, capsys):
        _data, out = run_pipeline(tmp_path, capsys)
        code, stdout, err = run_cli(capsys, "recommend", "--out", str(out),
                                    "--scenario", "1", "--goal", "topic-0", "--top", "-1")
        assert code == 1
        assert stdout == ""
        assert "cutoff -1 is negative" in err

    def test_internal_errors_exit_two(self, tmp_path, capsys, monkeypatch):
        import skillgraph.cli as cli
        monkeypatch.setattr(cli, "cmd_build", lambda cfg, args: 1 / 0)
        code, _, err = run_cli(capsys, "build", "--out", str(tmp_path))
        assert code == 2
        assert "internal error" in err

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "ingest", "--courses", str(tmp_path / "no.csv"),
                               "--jobs", "x", "--skills", "y", "--enrollments", "z",
                               "--out", str(tmp_path))
        assert code == 1
        assert "error" in err

    def test_undecodable_course_file_exits_one(self, tmp_path, capsys):
        courses = tmp_path / "courses.csv"
        courses.write_bytes(b"id,name,description\nC1,caf\xff,x\n")
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, courses=courses))
        assert code == 1
        assert stdout == ""
        assert f"error: {courses}: not UTF-8 text" in err

    def test_oversized_course_field_exits_one(self, tmp_path, capsys):
        courses = tmp_path / "courses.csv"
        courses.write_text("id,name,description\nC1," + "n" * 200_000 + ",x\n")
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, courses=courses))
        assert code == 1
        assert stdout == ""
        assert f"error: {courses}: line 2: field larger than field limit" in err

    def test_json_number_past_int_digit_limit_exits_one(self, tmp_path, capsys):
        enrollments = tmp_path / "enrollments.json"
        term = "1" + "0" * 4999
        enrollments.write_text(f'[{{"student": "s1", "course": "C000", "term": {term}}}]')
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys,
                                                         enrollments=enrollments))
        assert code == 1
        assert stdout == ""
        assert f"error: {enrollments}: row 1: term '{term}' is not an integer" in err

    def test_json_lone_surrogate_exits_one(self, tmp_path, capsys):
        courses = tmp_path / "courses.json"
        courses.write_text(json.dumps([{"id": "C1", "name": "bad\ud800name",
                                        "description": "d"}]))
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, courses=courses))
        assert code == 1
        assert stdout == ""
        assert (f"error: {courses}: row 1: name holds '\\ud800' at character 3, "
                "which UTF-8 cannot encode") in err
        assert not (tmp_path / "out" / "courses.csv").exists()

    def test_json_nested_past_the_recursion_limit_exits_one(self, tmp_path, capsys):
        courses = tmp_path / "courses.json"
        courses.write_text("[" * 100_000 + "]" * 100_000)
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, courses=courses))
        assert code == 1
        assert stdout == ""
        assert err == f"error: {courses}: invalid JSON: nested too deeply\n"

    def test_undecodable_config_file_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_bytes(b"seed = 1 # \xff\n")
        code, stdout, err = run_cli(capsys, "build", "--config", str(cfg_file),
                                    "--out", str(tmp_path / "out"))
        assert code == 1
        assert stdout == ""
        assert f"error: {cfg_file}: not UTF-8 text" in err

    @pytest.mark.parametrize("bad", ["judgments", "runs"])
    def test_undecodable_evaluate_input_exits_one(self, tmp_path, capsys, bad):
        files = {"judgments": b"query_id,node_id,relevant\nq,C1,1\n",
                 "runs": b"query_id,rank,node_id,score\nq,1,C1,1\n"}
        files[bad] = files[bad].replace(b"C1", b"C\xff")
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes(content)
        code, stdout, err = run_cli(capsys, "evaluate", "--judgments", str(paths["judgments"]),
                                    "--runs", str(paths["runs"]), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "MAP" not in stdout
        assert f"error: {paths[bad]}: not UTF-8 text" in err

    def test_job_skill_with_line_break_exits_one(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.csv"
        jobs.write_text('id,title,company,location,skills\nJ1,dev,acme,remote,"odd\nskill;sql"\n')
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, jobs=jobs))
        assert code == 1
        assert stdout == ""
        assert "row 1: job 'J1': skill 'odd\\nskill' contains whitespace other than ' '" in err

    def test_course_id_with_comma_exits_one_before_writing(self, tmp_path, capsys):
        # ``recommend --taken "C,000"`` could never name the course
        argv = ingest_argv(tmp_path, capsys)
        courses = tmp_path / "courses.csv"
        text = (tmp_path / "data" / "courses.csv").read_text()
        courses.write_text(text.replace("\nC000,", '\n"C,000",', 1))
        argv[argv.index("--courses") + 1] = str(courses)
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {courses}: row 1: course id 'C,000' contains ','\n"
        assert not (tmp_path / "out" / "courses.csv").exists()

    def test_duplicate_job_id_names_the_jobs_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.csv"
        jobs.write_text("id,title,company,location,skills\nJ1,dev,acme,remote,sql\n"
                        "J1,ops,acme,remote,linux\n")
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, jobs=jobs))
        assert code == 1
        assert stdout == ""
        assert f"{jobs}: row 2: duplicate job id 'J1'" in err

    def test_job_skill_with_semicolon_exits_one_before_writing(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"id": "J1", "title": "dev", "company": "acme",
                                     "location": "remote", "skills": ["a;b", "sql"]}]))
        code, stdout, err = run_cli(capsys, *ingest_argv(tmp_path, capsys, jobs=jobs))
        assert code == 1
        assert stdout == ""
        assert "row 1: job 'J1': skill 'a;b' contains ';'" in err
        assert not (tmp_path / "out" / "courses.csv").exists()


class TestHelp:
    def test_every_subcommand_help(self, capsys):
        parser = build_parser()
        subcommands = ["ingest", "build", "communities", "link", "recommend",
                       "evaluate", "synth"]
        for name in subcommands:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--" in out


class TestConfig:
    def test_parse_and_overrides(self):
        text = "# comment\nteleport = 0.2\nseed = 9\naggregate_jobs_by_title = yes\n\n"
        values = parse_config_text(text)
        assert values == {"teleport": 0.2, "seed": 9, "aggregate_jobs_by_title": True}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("bogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="not a float"):
            parse_config_text("teleport = fast\n")
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config_text("aggregate_jobs_by_title = maybe\n")

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(teleport=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(link_top_k=0)

    def test_env_config_used(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("seed = 31\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg_file))
        assert load_config().seed == 31
        assert load_config(overrides={"seed": 2}).seed == 2

    def test_flag_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(f"out_dir = {tmp_path / 'from_config'}\n")
        data = tmp_path / "data"
        code, _, _ = run_cli(capsys, "synth", "--seed", "1", "--jobs", "10",
                             "--courses", "6", "--skills", "12", "--alignment", "0.5",
                             "--out", str(data))
        assert code == 0
        code, _, err = run_cli(capsys, "ingest", "--config", str(cfg_file),
                               "--courses", str(data / "courses.csv"),
                               "--jobs", str(data / "jobs.csv"),
                               "--skills", str(data / "skills.csv"),
                               "--enrollments", str(data / "enrollments.csv"))
        assert code == 0, err
        assert (tmp_path / "from_config" / "courses.csv").exists()

    # (command, extra argv, flag argv, config key, file value, flag value)
    FLAGS = [
        ("ingest", [], ["--courses", "c.csv"], "courses", "f.csv", "c.csv"),
        ("ingest", [], ["--jobs", "j.csv"], "jobs", "f.csv", "j.csv"),
        ("ingest", [], ["--skills", "s.csv"], "skills", "f.csv", "s.csv"),
        ("ingest", [], ["--enrollments", "e.csv"], "enrollments", "f.csv", "e.csv"),
        ("ingest", [], ["--course-skills", "p.csv"], "course_skills", "f.csv", "p.csv"),
        ("build", [], ["--aggregate-jobs-by-title"], "aggregate_jobs_by_title", False, True),
        ("communities", [], ["--seed", "5"], "seed", 9, 5),
        ("communities", [], ["--teleport", "0.3"], "teleport", 0.2, 0.3),
        ("link", [], ["--k1", "2.5"], "bm25_k1", 1.5, 2.5),
        ("link", [], ["--b", "0.25"], "bm25_b", 0.5, 0.25),
        ("link", [], ["--top-k", "3"], "link_top_k", 7, 3),
    ] + [(command, extra, ["--out", "flag_out"], "out_dir", "file_out", "flag_out")
         for command, extra in (
             ("ingest", []), ("build", []), ("communities", []), ("link", []),
             ("recommend", ["--scenario", "1"]),
             ("evaluate", ["--judgments", "j.csv", "--runs", "r.csv"]))]

    @pytest.mark.parametrize("command, extra, flag, key, file_value, flag_value", FLAGS)
    def test_each_flag_sets_its_config_key(self, tmp_path, capsys, monkeypatch,
                                           command, extra, flag, key, file_value, flag_value):
        import skillgraph.cli as cli
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, *rest, **kw: seen.append(cfg) or "")
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(f"{key} = {str(file_value).lower()}\n")
        for argv, expected in ((flag, flag_value), ([], file_value)):
            code, _, err = run_cli(capsys, command, "--config", str(cfg_file), *extra, *argv)
            assert code == 0, err
            assert getattr(seen.pop(), key) == expected

    @pytest.mark.parametrize("text, tail", [
        ("foo = 1\n", "line 1: unknown config key 'foo'"),
        ("# c\nseed 3\n", "line 2: expected key=value, got 'seed 3'"),
        ("teleport = fast\n", "config key 'teleport': 'fast' is not a float"),
        ("seed = 1\n# again\nseed = 2\n", "line 3: config key 'seed' is given twice"),
    ])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_config_file_errors_name_the_file(self, tmp_path, capsys, monkeypatch,
                                              text, tail, via):
        cfg_file = tmp_path / "unk.cfg"
        cfg_file.write_text(text)
        argv = ["build", "--out", str(tmp_path / "out")]
        if via == "flag":
            argv += ["--config", str(cfg_file)]
        else:
            monkeypatch.setenv(ENV_CONFIG, str(cfg_file))
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {cfg_file}: {tail}\n"

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "absent.cfg")


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as it was after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """``main`` pauses the cyclic collector, which is safe only while no stage
    makes a cycle per record: the garbage a call leaves for ``gc.collect`` is
    its argparse parser, whatever the corpus size."""

    @staticmethod
    def garbage_per_call(tmp_path, capsys, jobs, courses, skills):
        data, out = tmp_path / f"data-{jobs}", tmp_path / f"out-{jobs}"
        code, _, err = run_cli(capsys, "synth", "--seed", "7", "--jobs", str(jobs),
                               "--courses", str(courses), "--skills", str(skills),
                               "--alignment", "0.3", "--out", str(data))
        assert code == 0, err
        calls = {
            "ingest": ["ingest", "--out", str(out)] + [
                arg for name in ("courses", "jobs", "skills", "enrollments")
                for arg in (f"--{name}", str(data / f"{name}.csv"))],
            "build": ["build", "--out", str(out)],
            "communities": ["communities", "--out", str(out), "--seed", "3"],
            "link": ["link", "--out", str(out)],
            "recommend 1": ["recommend", "--out", str(out), "--scenario", "1",
                            "--goal", "topic-0 engineer"],
            "recommend 2": ["recommend", "--out", str(out), "--scenario", "2",
                            "--goal", "topic-0 engineer", "--taken", "C000,C001"],
            "recommend 3": ["recommend", "--out", str(out), "--scenario", "3",
                            "--current-job", "topic-1 analyst"],
        }
        gc.collect()
        found = {}
        for name, argv in calls.items():
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            assert not name.startswith("recommend") or len(stdout.splitlines()) > 1, argv
            found[name] = gc.collect()
        return found

    def test_no_stage_makes_a_cycle_per_record(self, tmp_path, capsys, collector_state):
        gc.disable()
        # a process's first calls may import or build a cache once (the
        # compiled move pass), so the counts compared are the later calls'
        self.garbage_per_call(tmp_path / "warm", capsys, 60, 20, 40)
        small = self.garbage_per_call(tmp_path, capsys, 60, 20, 40)
        large = self.garbage_per_call(tmp_path, capsys, 600, 90, 200)
        assert small == large

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_collector_paused_while_a_command_runs(self, tmp_path, capsys, monkeypatch,
                                                    collector_state, enabled, code):
        seen = []

        def cmd_build(cfg, args):
            seen.append(gc.isenabled())
            if code == 2:
                raise RuntimeError("boom")
            return ""

        monkeypatch.setattr(cli, "cmd_build", cmd_build)
        argv = ["build", "--out", str(tmp_path)]
        if code == 1:
            argv.append("--no-such-flag")  # the parser raises ConfigError
        (gc.enable if enabled else gc.disable)()
        assert run_cli(capsys, *argv)[0] == code
        assert seen == ([] if code == 1 else [False])
        assert gc.isenabled() is enabled
