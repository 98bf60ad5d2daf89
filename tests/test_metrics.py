from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from skillgraph.errors import EvalError
from skillgraph.ingest import Course, Job, Skill
from skillgraph.metrics import (JudgedRun, average_precision, baseline_vector_space,
                                judged_runs, load_judgments, load_runs, metric_report,
                                precision, precision_at, write_judgments)
from skillgraph.synth import generate_synthetic_corpus

from oracles import ref_average_precision, ref_precision, ref_precision_at

FIXTURES = json.loads((Path(__file__).parent / "data" / "metric_fixtures.json").read_text())


def write_runs(path, runs):
    """Write ``{query: [(node_id, score), ...]}`` as a run file, ranks in list order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_id", "rank", "node_id", "score"])
    for query in sorted(runs):
        for rank, (node_id, score) in enumerate(runs[query], start=1):
            writer.writerow([query, rank, node_id, f"{score:.12g}"])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def run_from_flags(flags, extra_relevant=0, query="q"):
    ranking = tuple(f"d{i}" for i in range(len(flags)))
    judgments = {f"d{i}": bool(f) for i, f in enumerate(flags)}
    for j in range(extra_relevant):
        judgments[f"extra{j}"] = True
    return JudgedRun(query=query, ranking=ranking, judgments=judgments)


class TestAveragePrecision:
    def test_alternating_hand_value(self):
        run = run_from_flags([1, 0, 1])
        assert average_precision(run) == pytest.approx((1 / 1 + 2 / 3) / 2, abs=1e-9)
        assert average_precision(run) == pytest.approx(0.8333333333, abs=1e-9)

    def test_perfect_run(self):
        assert average_precision(run_from_flags([1, 1, 1])) == 1.0

    def test_no_relevant_items(self):
        assert average_precision(run_from_flags([0, 0])) == 0.0

    def test_unjudged_id_is_error(self):
        run = JudgedRun(query="q", ranking=("d0", "mystery"), judgments={"d0": True})
        with pytest.raises(EvalError, match="mystery"):
            average_precision(run)

    def test_cutoff_denominator_is_min(self):
        # 7 relevant in judgments, cutoff 5: denominator 5
        run = run_from_flags([1, 1, 1, 1, 1, 1, 1])
        assert average_precision(run, cutoff=5) == 1.0

    def test_fixture_table(self):
        for case in FIXTURES:
            run = run_from_flags(case["flags"], case["extra_relevant"])
            assert average_precision(run) == pytest.approx(case["ap"], abs=1e-12), case["name"]
            assert average_precision(run, 5) == pytest.approx(case["ap_at_5"], abs=1e-12), case["name"]
            assert average_precision(run, 10) == pytest.approx(case["ap_at_10"], abs=1e-12), case["name"]
            assert precision(run) == pytest.approx(case["precision"], abs=1e-12), case["name"]
            assert precision_at(run, 10) == pytest.approx(case["precision_at_10"], abs=1e-12), case["name"]

    def test_fixture_table_still_matches_oracle(self):
        # guards the frozen file against accidental edits
        for case in FIXTURES:
            total = sum(case["flags"]) + case["extra_relevant"]
            assert ref_average_precision(case["flags"], total) == case["ap"]
            assert ref_average_precision(case["flags"], total, 5) == case["ap_at_5"]
            assert ref_average_precision(case["flags"], total, 10) == case["ap_at_10"]
            assert ref_precision(case["flags"]) == case["precision"]
            assert ref_precision_at(case["flags"], 10) == case["precision_at_10"]

    def test_values_always_unit_interval(self):
        for case in FIXTURES:
            for key in ("ap", "ap_at_5", "ap_at_10", "precision", "precision_at_10"):
                assert 0.0 <= case[key] <= 1.0

    def test_tail_of_irrelevant_items_permutes_freely(self):
        # AP ignores ordering below the last relevant rank when everything
        # down there is non-relevant
        base = JudgedRun(query="q", ranking=("a", "b", "c", "d"),
                         judgments={"a": True, "b": False, "c": False, "d": False})
        swapped = JudgedRun(query="q", ranking=("a", "d", "b", "c"),
                            judgments=base.judgments)
        assert average_precision(base) == average_precision(swapped)
        # but moving a relevant item does change AP
        moved = JudgedRun(query="q", ranking=("b", "a", "c", "d"), judgments=base.judgments)
        assert average_precision(moved) != average_precision(base)


class TestMetricReport:
    def test_map_is_mean_ap(self):
        runs = [run_from_flags([1, 1, 1], query="a"), run_from_flags([1, 0, 0, 1], query="b")]
        report = metric_report(runs)
        ap_b = average_precision(runs[1])
        assert report.map == pytest.approx((1.0 + ap_b) / 2, abs=1e-12)

    def test_two_runs_map_075(self):
        a = run_from_flags([1], query="a")            # AP 1.0
        b = run_from_flags([0, 1, 0, 1], 0, query="b")
        # AP(b) = (1/2 + 2/4)/2 = 0.5
        assert average_precision(b) == pytest.approx(0.5)
        assert metric_report([a, b]).map == pytest.approx(0.75, abs=1e-12)

    def test_single_run_precision(self):
        report = metric_report([run_from_flags([1, 0])])
        assert report.precision == 0.5

    def test_empty_runs_rejected(self):
        with pytest.raises(EvalError):
            metric_report([])

    def test_json_keys(self):
        report = metric_report([run_from_flags([1, 0, 1])])
        payload = json.loads(report.to_json())
        assert set(payload) == {"precision", "map", "map_at_5", "precision_at_10", "map_at_10"}

    def test_table_mentions_uncut_convention(self):
        report = metric_report([run_from_flags([1])])
        assert "uncut" in report.render_table()


class TestJudgmentFiles:
    def test_round_trip(self, tmp_path):
        judgments = {"q1": {"a": True, "b": False}, "q2": {"c": True}}
        p = tmp_path / "j.csv"
        write_judgments(p, judgments)
        assert load_judgments(p) == judgments

    def test_bad_relevance_value(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("query_id,node_id,relevant\nq,a,2\n")
        with pytest.raises(EvalError):
            load_judgments(p)

    def test_runs_round_trip(self, tmp_path):
        runs = {"q1": [("a", 0.5), ("b", 0.25)], "q2": [("c", 1.0)]}
        p = tmp_path / "r.csv"
        write_runs(p, runs)
        assert load_runs(p) == {"q1": ["a", "b"], "q2": ["c"]}

    def test_rank_gaps_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("query_id,rank,node_id,score\nq,1,a,1\nq,3,b,0.5\n")
        with pytest.raises(EvalError, match=r"r\.csv: run for query .q. has gaps"):
            load_runs(p)

    def test_repeated_judgment_rejected(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("query_id,node_id,relevant\nq,a,1\nq,b,0\nq,a,0\n")
        with pytest.raises(EvalError, match=r"j\.csv: row 3: node 'a' is judged twice for query 'q'"):
            load_judgments(p)

    def test_repeated_run_node_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("query_id,rank,node_id,score\nq,1,a,1\nq,2,a,0.5\n")
        with pytest.raises(EvalError, match=r"r\.csv: row 2: node 'a' is ranked twice for query 'q'"):
            load_runs(p)

    def test_tied_scores_accepted(self, tmp_path):
        p = tmp_path / "r.csv"
        write_runs(p, {"q": [("a", 0.5), ("b", 0.5), ("c", -1.0)]})
        assert load_runs(p) == {"q": ["a", "b", "c"]}

    @pytest.mark.parametrize("score, message", [
        ("abc", r"r\.csv: row 2: bad score 'abc'"),
        ("", r"r\.csv: row 2: bad score ''"),
        ("nan", r"r\.csv: row 2: score 'nan' is not finite"),
        ("-inf", r"r\.csv: row 2: score '-inf' is not finite"),
    ])
    def test_bad_score_rejected(self, tmp_path, score, message):
        p = tmp_path / "r.csv"
        p.write_text(f"query_id,rank,node_id,score\nq,1,a,1\nq,2,b,{score}\n")
        with pytest.raises(EvalError, match=message):
            load_runs(p)

    def test_score_rising_with_rank_rejected(self, tmp_path):
        # rows out of rank order: the offending row is the one at rank 3
        p = tmp_path / "r.csv"
        p.write_text("query_id,rank,node_id,score\nq,3,c,0.7\nq,1,a,0.9\nq,2,b,0.5\n"
                     "z,1,a,0.1\n")
        with pytest.raises(EvalError, match=r"r\.csv: row 1: score 0\.7 at rank 3 of query "
                                             r"'q' rises above 0\.5 at rank 2"):
            load_runs(p)

    def test_scores_compared_within_one_query_only(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("query_id,rank,node_id,score\nq,1,a,0.1\nz,1,a,9\nz,2,b,0.2\n")
        assert load_runs(p) == {"q": ["a"], "z": ["a", "b"]}

    def test_judged_runs_missing_policies(self):
        rankings = {"q": ["a", "b"]}
        judgments = {"q": {"a": True}}
        with pytest.raises(EvalError, match="no judgment"):
            average_precision(judged_runs(rankings, judgments)[0])
        runs = judged_runs(rankings, judgments, missing="irrelevant")
        assert average_precision(runs[0]) == 1.0
        with pytest.raises(EvalError):
            judged_runs(rankings, judgments, missing="bogus")

    def test_run_for_a_query_without_judgments_rejected(self):
        with pytest.raises(EvalError, match="no judgments for query 'z'"):
            judged_runs({"q": ["a"], "z": ["a"]}, {"q": {"a": True}})


def make_course(cid, name, description):
    return Course(id=cid, name=name, description=description)


class TestBaselineVectorSpace:
    def test_identical_text_ranks_first(self):
        jobs = [Job(id="J1", title="data engineer", company="", location="",
                    skills=frozenset({"spark", "hadoop"}))]
        courses = [make_course("C1", "data engineer", "spark hadoop"),
                   make_course("C2", "pottery", "clay wheels")]
        ranked = baseline_vector_space(jobs, courses, "data engineer")
        assert ranked.entries[0][0] == "C1"
        assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_course_excluded(self):
        jobs = [Job(id="J1", title="data engineer", company="", location="",
                    skills=frozenset({"spark"}))]
        courses = [make_course("C1", "data spark", ""), make_course("C2", "pottery", "")]
        ranked = baseline_vector_space(jobs, courses, "data engineer")
        assert [n for n, _s in ranked.entries] == ["C1"]

    def test_more_shared_tokens_rank_higher(self):
        jobs = [Job(id="J1", title="alpha beta engineer", company="", location="",
                    skills=frozenset())]
        # same length docs, uniform idf: two shared tokens beat one
        courses = [make_course("C1", "alpha beta", ""), make_course("C2", "alpha gamma", "")]
        ranked = baseline_vector_space(jobs, courses, "alpha beta engineer")
        assert [n for n, _s in ranked.entries][0] == "C1"

    def test_no_match_propagates(self):
        jobs = [Job(id="J1", title="x", company="", location="", skills=frozenset({"s"}))]
        with pytest.raises(EvalError, match="no job title"):
            baseline_vector_space(jobs, [make_course("C1", "a", "")], "zzz")

    def test_empty_corpora_rejected(self):
        jobs = [Job(id="J1", title="data engineer", company="", location="",
                    skills=frozenset({"spark"}))]
        courses = [make_course("C1", "data spark", "")]
        for no_jobs, no_courses in ((jobs, []), ([], courses), ([], [])):
            with pytest.raises(EvalError, match="baseline needs non-empty corpora"):
                baseline_vector_space(no_jobs, no_courses, "data engineer")

    @pytest.mark.parametrize("query", ["", "  ", "!!!"])
    def test_empty_query_rejected(self, query):
        jobs = [Job(id="J1", title="data engineer", company="", location="",
                    skills=frozenset({"spark"}))]
        with pytest.raises(EvalError, match="empty job query"):
            baseline_vector_space(jobs, [make_course("C1", "data spark", "")], query)

    def test_synth_ranking_pinned(self, tmp_path):
        # pinned bit for bit: matched jobs add their tokens in input order,
        # and the cosine sums each vector exactly, so reversing the jobs
        # (which reorders the query vector) changes no bit
        corpus = generate_synthetic_corpus(3, n_jobs=60, n_courses=20, n_skills=40,
                                           alignment=0.3, out_dir=tmp_path)
        want = [("C006", 0.5757208018449667), ("C007", 0.4747739884337852),
                ("C008", 0.4334279626750941), ("C009", 0.3386354011071219),
                ("C005", 0.3168654857815146), ("C016", 0.09847564763989712),
                ("C014", 0.0783585665269789), ("C013", 0.06103423690863145),
                ("C015", 0.046527439502301364)]
        ranked = baseline_vector_space(corpus.jobs, corpus.courses, "topic-1 engineer",
                                       catalog=corpus.skills)
        assert list(ranked.entries) == want
        ranked = baseline_vector_space(corpus.jobs[::-1], corpus.courses, "topic-1 engineer",
                                       catalog=corpus.skills)
        assert list(ranked.entries) == want

    def test_skill_names_from_catalog_used(self):
        jobs = [Job(id="J1", title="data engineer", company="", location="",
                    skills=frozenset({"stream processing"}))]
        catalog = [Skill("SK1", "stream processing")]
        course_with = Course(id="C1", name="pipelines", description="",
                             skills=frozenset({"SK1"}))
        course_without = make_course("C2", "pipelines", "")
        ranked = baseline_vector_space(jobs, [course_with, course_without],
                                       "data engineer", catalog=catalog)
        assert ranked.entries[0][0] == "C1"
