from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skillgraph
from skillgraph import cli, ingest
from skillgraph.errors import IngestError
from skillgraph.ingest import (Course, EnrollmentRecord, Job, Skill, apply_skill_matching,
                               load_course_skills, load_courses, load_enrollments,
                               load_jobs, load_skills, tokenize, write_course_skills,
                               write_courses, write_enrollments, write_jobs, write_skills)
from skillgraph.synth import generate_synthetic_corpus

from oracles import ref_match_course_skills, ref_tokenize


def match_one(course, catalog):
    """The catalog skills one course names."""
    return apply_skill_matching([course], catalog)[0].skills


def test_tokenize_strips_punctuation_and_case():
    assert tokenize("Intro to C++, databases & SQL!") == ["intro", "to", "c", "databases", "sql"]
    assert tokenize("machine_learning") == ["machine", "learning"]
    assert tokenize("  ") == []


class TestLoadCourses:
    def test_basic_rows_in_order(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,name,description\nC1,Intro Programming,loops\nC2,Databases,sql\n")
        courses = load_courses(p)
        assert [c.id for c in courses] == ["C1", "C2"]
        assert courses[0].name == "Intro Programming"

    def test_header_only_gives_empty_list(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,name,description\n")
        assert load_courses(p) == []

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,name,description\nC1,a,\nC1,b,\n")
        with pytest.raises(IngestError, match="C1"):
            load_courses(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,title\nC1,a\n")
        with pytest.raises(IngestError, match="header"):
            load_courses(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            load_courses(tmp_path / "nope.csv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: missing header row"

    def test_row_of_the_wrong_width_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,name,description\nC1,a,d\nC2,b\n")
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: row 2: expected 3 fields, got 2"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_empty_id_rejected(self, tmp_path, suffix):
        p = tmp_path / f"c{suffix}"
        if suffix == ".json":
            p.write_text(json.dumps([{"id": "", "name": "a", "description": "d"}]))
        else:
            p.write_text("id,name,description\n,a,d\n")
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: row 1: empty course id"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_id_with_comma_rejected(self, tmp_path, suffix):
        # ``recommend --taken`` splits its course list on ','
        p = tmp_path / f"c{suffix}"
        if suffix == ".json":
            p.write_text(json.dumps([{"id": "C1", "name": "a", "description": "d"},
                                     {"id": "C,000", "name": "b", "description": "d"}]))
        else:
            p.write_text('id,name,description\nC1,a,d\n"C,000",b,d\n')
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: row 2: course id 'C,000' contains ','"

    def test_json_top_level_not_an_array_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"id": "C1", "name": "a", "description": "d"}))
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: expected a JSON array of objects"

    def test_json_object_missing_a_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"id": "C1", "name": "a"}]))
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: row 1: expected keys ['id', 'name', 'description']"

    def test_whitespace_id_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text('id,name,description\n"C 1",a,\n')
        with pytest.raises(IngestError, match="whitespace"):
            load_courses(p)

    def test_id_whitespace_is_what_str_isspace_says(self, tmp_path):
        # every character str.isspace accepts is whitespace inside an id; a
        # zero-width space is not one
        p = tmp_path / "c.json"
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            p.write_text(json.dumps([{"id": f"C{ch}1", "name": "a", "description": ""}]))
            with pytest.raises(IngestError, match="contains whitespace"):
                load_courses(p)
        p.write_text(json.dumps([{"id": "C\u200b1", "name": "a", "description": ""}]))
        assert load_courses(p)[0].id == "C\u200b1"

    def test_quoted_carriage_return_kept(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text('id,name,description\nC1,"x\ry",d\n', newline="")
        assert load_courses(p)[0].name == "x\ry"

    def test_crlf_line_ends_load(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"id,name,description\r\nC1,A,d\r\nC2,B,\r\n")
        assert load_courses(p) == [Course(id="C1", name="A", description="d"),
                                   Course(id="C2", name="B", description="")]

    def test_json_variant(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('[{"id": "C1", "name": "A", "description": "d"}]')
        assert load_courses(p)[0] == Course(id="C1", name="A", description="d")


class TestLoadJobs:
    def test_skills_split(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("id,title,company,location,skills\nJ1,Data Scientist,acme,remote,python;statistics\n")
        job = load_jobs(p)[0]
        assert job.skills == frozenset({"python", "statistics"})

    def test_empty_skill_list_rejected(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("id,title,company,location,skills\nJ1,Dev,acme,remote,\n")
        with pytest.raises(IngestError, match="J1"):
            load_jobs(p)

    @pytest.mark.parametrize("skill", ["odd\nskill", "odd\rskill", "odd\tskill",
                                       "odd\x1cskill", "odd\u2028skill"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_skill_with_other_whitespace_rejected(self, tmp_path, skill, suffix):
        # a job skill becomes a graph node, and the snapshot holds one per line
        p = tmp_path / f"j{suffix}"
        rows = [{"id": "J0", "title": "Dev", "company": "acme", "location": "remote",
                 "skills": ["sql"]},
                {"id": "J1", "title": "Dev", "company": "acme", "location": "remote",
                 "skills": ["sql", skill]}]
        if suffix == ".json":
            p.write_text(json.dumps(rows))
        else:
            p.write_text("id,title,company,location,skills\n" + "".join(
                f'{r["id"]},{r["title"]},{r["company"]},{r["location"]},"{";".join(r["skills"])}"\n'
                for r in rows), newline="")
        with pytest.raises(IngestError, match="row 2: job 'J1': skill 'odd.+skill' "
                                              "contains whitespace other than ' '"):
            load_jobs(p)

    def test_skill_with_space_accepted(self, tmp_path):
        p = tmp_path / "j.csv"
        p.write_text("id,title,company,location,skills\nJ1,Dev,acme,remote,machine learning\n")
        assert load_jobs(p)[0].skills == frozenset({"machine learning"})

    def test_skill_without_letters_or_digits_rejected_csv(self, tmp_path):
        # skill_key of such a skill is empty, so it could name no graph node
        p = tmp_path / "j.csv"
        p.write_text("id,title,company,location,skills\nJ1,Dev,acme,remote,sql\n"
                     "J2,Ops,acme,remote,sql;!!!\n")
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: row 2: job 'J2': skill '!!!' has no letters or digits"

    def test_skill_without_letters_or_digits_rejected_json(self, tmp_path):
        p = tmp_path / "j.json"
        p.write_text(json.dumps([{"id": "J1", "title": "Dev", "company": "acme",
                                  "location": "remote", "skills": ["sql", "-", "_"]}]))
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: row 1: job 'J1': skill '-' has no letters or digits"

    def test_first_skill_in_order_reports_its_first_rule(self, tmp_path):
        # each new skill is checked once, in sorted order, against the rules
        # in turn: 'a;b' sorts first, so its ';' is reported, not the tab
        p = tmp_path / "j.json"
        p.write_text(json.dumps([{"id": "J1", "title": "Dev", "company": "acme",
                                  "location": "remote", "skills": ["a;b", "z\tz"]}]))
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: row 1: job 'J1': skill 'a;b' contains ';'"

    def test_skills_field_that_is_an_object_rejected(self, tmp_path):
        p = tmp_path / "j.json"
        p.write_text(json.dumps([{"id": "J1", "title": "Dev", "company": "acme",
                                  "location": "remote", "skills": {"sql": 1}}]))
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: row 1: bad skills field for job 'J1'"

    def test_two_files_concatenate(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("id,title,company,location,skills\nJ1,Dev,x,y,sql\n")
        b.write_text("id,title,company,location,skills\nJ2,Ops,x,y,linux\n")
        union = load_jobs(a) + load_jobs(b)
        assert [j.id for j in union] == ["J1", "J2"]


class TestLoadEnrollments:
    def test_rows_parse(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("student,course,term\ns1,C1,0\ns1,C2,1\n")
        recs = load_enrollments(p)
        assert recs == [EnrollmentRecord("s1", "C1", 0), EnrollmentRecord("s1", "C2", 1)]

    def test_duplicate_triple_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("student,course,term\ns1,C1,0\ns1,C1,0\n")
        with pytest.raises(IngestError, match="duplicate"):
            load_enrollments(p)

    def test_negative_term_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("student,course,term\ns1,C1,-1\n")
        with pytest.raises(IngestError, match="negative term"):
            load_enrollments(p)

    def test_non_integer_term_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("student,course,term\ns1,C1,fall\n")
        with pytest.raises(IngestError, match="not an integer"):
            load_enrollments(p)

    @pytest.mark.parametrize("term", ["1_0", " 3", "3 ", "\u0663", "+3", "3.0", "1e3", "-",
                                      "1" * 19])
    def test_term_must_be_plain_ascii_digits(self, tmp_path, term):
        p = tmp_path / "e.csv"
        p.write_text(f"student,course,term\ns1,C1,{term}\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            load_enrollments(p)
        assert str(err.value) == f"{p}: row 1: term {term!r} is not an integer"

    def test_eighteen_digit_term_loads(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("student,course,term\ns1,C1,007\ns1,C2," + "9" * 18 + "\n")
        assert [r.term for r in load_enrollments(p)] == [7, int("9" * 18)]

    @pytest.mark.parametrize("term", ['"3"', "3"])
    def test_json_term_string_or_integer_loads(self, tmp_path, term):
        p = tmp_path / "e.json"
        p.write_text(f'[{{"student": "s1", "course": "C1", "term": {term}}}]')
        assert load_enrollments(p) == [EnrollmentRecord("s1", "C1", 3)]

    @pytest.mark.parametrize("term", ["1e300", "3.0", "1" + "0" * 4999, "NaN", "-0.5"],
                             ids=["1e300", "3.0", "5000-digits", "NaN", "-0.5"])
    def test_json_number_that_is_no_digit_string_rejected(self, tmp_path, term):
        p = tmp_path / "e.json"
        p.write_text(f'[{{"student": "s1", "course": "C1", "term": {term}}}]')
        with pytest.raises(IngestError) as err:
            load_enrollments(p)
        assert str(err.value) == f"{p}: row 1: term {term!r} is not an integer"

    def test_json_boolean_term_rejected(self, tmp_path):
        p = tmp_path / "e.json"
        p.write_text('[{"student": "s1", "course": "C1", "term": true}]')
        with pytest.raises(IngestError) as err:
            load_enrollments(p)
        assert str(err.value) == f"{p}: row 1: term is a boolean, not text"

    @pytest.mark.parametrize("suffix, term", [(".csv", "-3"), (".json", "-3"),
                                              (".csv", "-" + "1" * 30)])
    def test_minus_then_digits_is_a_negative_term(self, tmp_path, suffix, term):
        p = tmp_path / f"e{suffix}"
        if suffix == ".json":
            p.write_text(f'[{{"student": "s1", "course": "C1", "term": {term}}}]')
        else:
            p.write_text(f"student,course,term\ns1,C1,{term}\n")
        with pytest.raises(IngestError) as err:
            load_enrollments(p)
        assert str(err.value) == f"{p}: row 1: negative term {term}"


LOADER_ROWS = [
    (load_courses, {"id": "C1", "name": "A", "description": "d"}, "duplicate course id 'C1'"),
    (load_jobs, {"id": "J1", "title": "Dev", "company": "acme", "location": "remote",
                 "skills": "sql"}, "duplicate job id 'J1'"),
    (load_skills, {"id": "SK1", "name": "sql"}, "duplicate skill id 'SK1'"),
    (load_enrollments, {"student": "s1", "course": "C1", "term": 0},
     "duplicate enrollment ('s1', 'C1', 0)"),
    (load_course_skills, {"course_id": "C1", "skill_id": "SK1"},
     "duplicate course-skill pair ('C1', 'SK1')"),
]


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("loader, row, message", LOADER_ROWS,
                         ids=[loader.__name__ for loader, _r, _m in LOADER_ROWS])
def test_row_errors_name_the_file(tmp_path, suffix, loader, row, message):
    p = tmp_path / f"records{suffix}"
    if suffix == ".json":
        p.write_text(json.dumps([row, row]))
    else:
        line = ",".join(str(v) for v in row.values())
        p.write_text(",".join(row) + f"\n{line}\n{line}\n")
    with pytest.raises(IngestError) as err:
        loader(p)
    assert str(err.value) == f"{p}: row 2: {message}"


COURSE = ("id", "name", "description")
JOB = ("id", "title", "company", "location", "skills")
SKILL = ("id", "name")
ENROLLMENT = ("student", "course", "term")
PAIR = ("course_id", "skill_id")

# Files with two faults. Each loader checks an id, a skill or a term text
# once and remembers the ones that passed, but still checks every row for
# duplicates: the first fault in row order is the one reported, whichever
# of the two a remembered value stands behind.
TWO_FAULTS = [
    # an id that passed on row 1 comes back as a duplicate on row 4
    (load_courses, COURSE, [("C1", "a", "d"), ("C2", "b", "d"), ("C3", "c", "d"),
                            ("C1", "e", "d"), ("C 5", "f", "d")],
     4, "duplicate course id 'C1'"),
    (load_courses, COURSE, [("C1", "a", "d"), ("C 2", "b", "d"), ("C3", "c", "d"),
                            ("C1", "e", "d")],
     2, "course id 'C 2' contains whitespace"),
    (load_jobs, JOB, [("J1", "Dev", "x", "y", "sql;python"), ("J2", "Dev", "x", "y", "sql"),
                      ("J3", "Ops", "x", "y", "python"), ("J1", "Ops", "x", "y", "sql"),
                      ("J5", "Ops", "x", "y", "-")],
     4, "duplicate job id 'J1'"),
    # a skill that passed on row 1 comes back beside a bad one
    (load_jobs, JOB, [("J1", "Dev", "x", "y", "sql;python"), ("J2", "Dev", "x", "y", "sql"),
                      ("J3", "Ops", "x", "y", "sql;-"), ("J1", "Ops", "x", "y", "sql")],
     3, "job 'J3': skill '-' has no letters or digits"),
    (load_skills, SKILL, [("SK1", "sql"), ("SK2", "python"), ("SK3", "etl"), ("SK1", "r"),
                          ("", "go")],
     4, "duplicate skill id 'SK1'"),
    (load_skills, SKILL, [("SK1", "sql"), ("", "python"), ("SK3", "etl"), ("SK1", "r")],
     2, "empty skill id"),
    # a term text parsed on a good row is repeated in a duplicate enrollment
    (load_enrollments, ENROLLMENT, [("s1", "C1", "3"), ("s2", "C1", "3"), ("s1", "C2", "4"),
                                    ("s1", "C1", "3"), ("s3", "C1", "x")],
     4, "duplicate enrollment ('s1', 'C1', 3)"),
    (load_enrollments, ENROLLMENT, [("s1", "C1", "3"), ("s2", "C1", "-3"), ("s1", "C1", "3")],
     2, "negative term -3"),
    # a bad id first appears in the course column, then in the student column
    (load_enrollments, ENROLLMENT, [("s1", "C1", "3"), ("s2", "C 9", "3"), ("C 9", "C1", "4")],
     2, "course id 'C 9' contains whitespace"),
    (load_enrollments, ENROLLMENT, [("s1", "C1", "3"), ("s 2", "C1", "3"), ("C1", "s 2", "4")],
     2, "student id 's 2' contains whitespace"),
    (load_course_skills, PAIR, [("C1", "SK1"), ("C2", "SK1"), ("C1", "SK2"), ("C1", "SK1"),
                                ("C 5", "SK1")],
     4, "duplicate course-skill pair ('C1', 'SK1')"),
    (load_course_skills, PAIR, [("C1", "SK1"), ("C 2", "SK1"), ("C1", "C 2")],
     2, "course id 'C 2' contains whitespace"),
]


def write_records(path: Path, columns, rows) -> None:
    """``rows`` as a CSV file, or as a JSON array of objects if ``path`` ends in ``.json``."""
    if path.suffix == ".json":
        path.write_text(json.dumps([dict(zip(columns, row)) for row in rows]))
    else:
        path.write_text("".join(",".join(line) + "\n" for line in [columns, *rows]))


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("loader, columns, rows, row, message", TWO_FAULTS,
                         ids=[f"{case[0].__name__}-row{case[3]}" for case in TWO_FAULTS])
def test_first_of_two_faults_is_reported(tmp_path, suffix, loader, columns, rows, row, message):
    p = tmp_path / f"records{suffix}"
    write_records(p, columns, rows)
    with pytest.raises(IngestError) as err:
        loader(p)
    assert str(err.value) == f"{p}: row {row}: {message}"


@pytest.mark.parametrize("loader, columns, good, bad", [
    (load_courses, COURSE, ("C1", "a", "d"), ("C 2", "b", "d")),
    (load_jobs, JOB, ("J1", "Dev", "x", "y", "sql"), ("J2", "Dev", "x", "y", "-")),
    (load_skills, SKILL, ("SK1", "sql"), ("", "python")),
    (load_enrollments, ENROLLMENT, ("s1", "C1", "3"), ("s1", "C2", "x")),
    (load_course_skills, PAIR, ("C1", "SK1"), ("C1", "C 2")),
], ids=lambda v: v.__name__ if callable(v) else "")
def test_row_of_the_wrong_width_further_on_comes_first(tmp_path, loader, columns, good, bad):
    # rows are checked as they are read, yet a malformed row is still reported
    # before a bad value on an earlier row
    p = tmp_path / "records.csv"
    write_records(p, columns, [good, bad, good[:-1]])
    with pytest.raises(IngestError) as err:
        loader(p)
    assert str(err.value) == (f"{p}: row 3: expected {len(columns)} fields, "
                              f"got {len(columns) - 1}")


class TestJsonText:
    """A JSON text field takes a string or a number, nothing else."""

    @pytest.mark.parametrize("column", ["id", "description"])
    @pytest.mark.parametrize("value, kind", [(None, "null"), (True, "a boolean"),
                                             (False, "a boolean"), ({}, "an object"),
                                             (["x"], "an array")])
    def test_non_text_course_field_rejected(self, tmp_path, column, value, kind):
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"id": "C1", "name": "A", "description": "d", column: value}]))
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: row 1: {column} is {kind}, not text"

    @pytest.mark.parametrize("value, kind", [(None, "null"), (False, "a boolean"),
                                             (["sql"], "an array")])
    def test_non_text_job_skill_rejected(self, tmp_path, value, kind):
        p = tmp_path / "j.json"
        p.write_text(json.dumps([{"id": "J1", "title": "Dev", "company": "acme",
                                  "location": "remote", "skills": ["sql", value]}]))
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: row 1: skills is {kind}, not text"

    def test_lone_surrogate_rejected(self, tmp_path):
        # json.loads accepts the escape, but no UTF-8 file can hold its character
        p = tmp_path / "c.json"
        p.write_text(json.dumps([{"id": "C1", "name": "bad\ud800name", "description": "d"}]))
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == (f"{p}: row 1: name holds '\\ud800' at character 3, "
                                  "which UTF-8 cannot encode")

    @pytest.mark.parametrize("skills", [["sql", "x\udfffy"], "sql;x\udfffy"],
                             ids=["list", "string"])
    def test_lone_surrogate_job_skill_rejected(self, tmp_path, skills):
        p = tmp_path / "j.json"
        p.write_text(json.dumps([{"id": "J1", "title": "Dev", "company": "acme",
                                  "location": "remote", "skills": skills}]))
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        at = 1 if isinstance(skills, list) else 5
        assert str(err.value) == (f"{p}: row 1: skills holds '\\udfff' at character {at}, "
                                  "which UTF-8 cannot encode")

    def test_paired_surrogate_escapes_load_as_one_character(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('[{"id": "C1", "name": "a\\ud83d\\ude00", "description": "d"}]')
        assert load_courses(p) == [Course(id="C1", name="a\U0001f600", description="d")]

    def test_long_number_loads_as_written(self, tmp_path):
        # past Python's int-conversion digit limit, still text
        digits = "7" * 5000
        p = tmp_path / "c.json"
        p.write_text(f'[{{"id": "C1", "name": {digits}, "description": 1e300}}]')
        assert load_courses(p) == [Course(id="C1", name=digits, description="1e300")]

    def test_numbers_load_as_text(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('[{"id": 7, "name": "A", "description": 1.5}]')
        assert load_courses(p) == [Course(id="7", name="A", description="1.5")]
        p = tmp_path / "j.json"
        p.write_text('[{"id": 8, "title": "Dev", "company": 0, "location": "x", '
                     '"skills": [3, "sql"]}]')
        assert load_jobs(p) == [Job(id="8", title="Dev", company="0", location="x",
                                    skills=frozenset({"3", "sql"}))]

    @pytest.mark.parametrize("text, key", [
        ('[{"id": "C1", "id": "C2", "name": "A", "description": "d"}]', "id"),
        ('[{"id": "C1", "name": "A", "description": "d", "name": "A"}]', "name"),
    ])
    def test_key_given_twice_rejected(self, tmp_path, text, key):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(IngestError) as err:
            load_courses(p)
        assert str(err.value) == f"{p}: invalid JSON: key {key!r} is given twice"

    def test_key_given_twice_in_a_nested_object_rejected(self, tmp_path):
        p = tmp_path / "j.json"
        p.write_text('[{"id": "J1", "title": "Dev", "company": "acme", "location": "x", '
                     '"skills": [{"a": 1, "a": 2}]}]')
        with pytest.raises(IngestError) as err:
            load_jobs(p)
        assert str(err.value) == f"{p}: invalid JSON: key 'a' is given twice"


class TestMatchCourseSkills:
    def test_directly_built_skill_matches(self):
        course = Course(id="C1", name="learn sql fast", description="")
        assert match_one(course, [Skill("SK1", "sql")]) == {"SK1"}

    def test_skill_tokens_follow_name(self):
        skill = Skill("SK1", "Machine-Learning & AI")
        assert skill.tokens == ("machine", "learning", "ai")
        assert skill == Skill("SK1", "Machine-Learning & AI")
        with pytest.raises(TypeError):
            Skill("SK1", "sql", ("other",))  # tokens always come from the name

    def test_longer_skill_consumes_tokens(self):
        course = Course(id="C1", name="Introduction to Machine Learning", description="")
        catalog = [Skill("SK1", "machine learning"), Skill("SK2", "learning")]
        assert match_one(course, catalog) == {"SK1"}

    def test_single_containment(self):
        course = Course(id="C1", name="Databases and SQL", description="")
        assert match_one(course, [Skill("SK1", "sql")]) == {"SK1"}

    def test_no_overlap_empty(self):
        course = Course(id="C1", name="Ethics Seminar", description="")
        assert match_one(course, [Skill("SK1", "java")]) == set()

    def test_description_participates(self):
        course = Course(id="C1", name="Systems", description="covers operating systems design")
        catalog = [Skill("SK1", "operating systems")]
        assert match_one(course, catalog) == {"SK1"}

    def test_second_occurrence_still_matches_shorter_skill(self):
        course = Course(id="C1", name="", description="machine learning and learning theory")
        catalog = [Skill("SK1", "machine learning"), Skill("SK2", "learning")]
        assert match_one(course, catalog) == {"SK1", "SK2"}

    def test_catalog_order_insensitive(self):
        course = Course(id="C1", name="graph databases with sql", description="")
        catalog = [Skill("SK1", "sql"), Skill("SK2", "graph databases")]
        assert match_one(course, catalog) == match_one(course, catalog[::-1])

    def test_empty_catalog_rejected(self):
        with pytest.raises(IngestError):
            match_one(Course(id="C1", name="x", description=""), [])


class TestMatcherOracle:
    """The phrase index claims exactly what sliding every skill would claim."""

    VOCAB = ("a", "b", "c", "d")
    EMPTY_NAMES = ("", "--", "  _ ")

    def random_catalog(self, rng):
        catalog = []
        for i in range(rng.randint(1, 9)):
            if rng.random() < 0.1:
                name = rng.choice(self.EMPTY_NAMES)
            elif catalog and rng.random() < 0.2:
                name = rng.choice(catalog).name  # a second id with the same name
            else:
                name = " ".join(rng.choice(self.VOCAB) for _ in range(rng.randint(1, 4)))
            sid = f"SK{rng.randint(0, i):02d}" if rng.random() < 0.05 else f"SK{i:02d}"
            catalog.append(Skill(sid, name))
        rng.shuffle(catalog)
        return catalog

    def random_course(self, rng, cid="C1"):
        words = [rng.choice(self.VOCAB + ("x",)) for _ in range(rng.randint(0, 14))]
        cut = rng.randint(0, len(words))
        return Course(id=cid, name=" ".join(words[:cut]), description=" ".join(words[cut:]))

    def test_random_catalogs_match_oracle(self):
        rng = random.Random(20240601)
        for _ in range(3000):
            catalog = self.random_catalog(rng)
            course = self.random_course(rng)
            assert match_one(course, catalog) == \
                ref_match_course_skills(course, catalog), (course, catalog)

    def test_apply_skill_matching_matches_oracle_per_course(self):
        rng = random.Random(7)
        for _ in range(200):
            catalog = self.random_catalog(rng)
            courses = [self.random_course(rng, f"C{i}") for i in range(6)]
            matched = apply_skill_matching(courses, catalog)
            assert [c.skills for c in matched] == \
                [frozenset(ref_match_course_skills(c, catalog)) for c in courses]

    @pytest.mark.parametrize("names, text", [
        (["a a"], "a a a"),
        (["a a", "a a a"], "a a a a"),
        (["a b", "b c", "a b c d"], "a b c a b c d"),
        (["a", "a"], "b a"),
        (["a b", "a", "", "--"], "a b a"),
        (["d c b a", "c b", "b a", "a"], "d c b a c b a"),
    ])
    def test_overlap_and_duplicate_name_cases(self, names, text):
        catalog = [Skill(f"SK{i}", name) for i, name in enumerate(names)]
        course = Course(id="C1", name="", description=text)
        assert match_one(course, catalog) == ref_match_course_skills(course, catalog)

    def test_same_name_goes_to_lowest_id(self):
        catalog = [Skill("SK2", "a a"), Skill("SK1", "a a")]
        course = Course(id="C1", name="a a a", description="")
        assert match_one(course, catalog) == {"SK1"}

    def test_empty_courses_skip_catalog_check(self):
        assert apply_skill_matching([], []) == []


def test_apply_skill_matching_pre_matched(tmp_path):
    courses = [Course(id="C1", name="a", description=""), Course(id="C2", name="b", description="")]
    catalog = [Skill("SK1", "sql")]
    matched = apply_skill_matching(courses, catalog, pre_matched=[("C1", "SK1")])
    assert matched[0].skills == frozenset({"SK1"})
    assert matched[1].skills == frozenset()
    with pytest.raises(IngestError, match="SK9"):
        apply_skill_matching(courses, catalog, pre_matched=[("C1", "SK9")])


def test_only_the_matcher_tokenizes_catalog_names(tmp_path, monkeypatch):
    # a skill's tokens are made on first read, and only the matcher reads
    # them: loading the catalog and the communities stage tokenize no name
    data, out = tmp_path / "data", tmp_path / "out"
    generate_synthetic_corpus(7, 60, 15, 40, 0.3, data)
    for argv in (["ingest", "--courses", str(data / "courses.csv"), "--jobs",
                  str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
                  "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
                 ["build", "--out", str(out)]):
        assert cli.main(argv) == 0
    names = {s.name for s in load_skills(out / "skills.csv")}
    seen = []

    def counted(text):
        seen.append(text)
        return tokenize(text)
    monkeypatch.setattr(ingest, "tokenize", counted)
    catalog = load_skills(out / "skills.csv")
    assert cli.main(["communities", "--out", str(out), "--seed", "3"]) == 0
    assert not names.intersection(seen)
    apply_skill_matching(load_courses(out / "courses.csv"), catalog)
    assert names.intersection(seen)


def test_skill_tokens_are_no_field():
    skill = Skill("SK1", "Data  Base")
    assert skill.tokens == ("data", "base")
    assert skill == Skill("SK1", "Data  Base") and hash(skill) == hash(Skill("SK1", "Data  Base"))
    assert skill != Skill("SK1", "data base")
    with pytest.raises(TypeError):
        Skill("SK1", "sql", ("sql",))
    with pytest.raises(AttributeError):
        skill.name = "sql"


def test_pre_matched_skill_without_letters_or_digits_rejected():
    # its graph key would be empty; a catalog may still hold such a skill
    courses = [Course(id="C1", name="a", description="")]
    catalog = [Skill("SK0", "!!!"), Skill("SK1", "sql")]
    assert apply_skill_matching(courses, catalog, pre_matched=[("C1", "SK1")])
    with pytest.raises(IngestError) as err:
        apply_skill_matching(courses, catalog, pre_matched=[("C1", "SK0")])
    assert str(err.value) == "pre-matched skill 'SK0' of course 'C1' has no letters or digits"


def test_pre_matched_course_not_in_course_file_rejected():
    courses = [Course(id="C1", name="a", description="")]
    with pytest.raises(IngestError) as err:
        apply_skill_matching(courses, [Skill("SK1", "sql")], pre_matched=[("C9", "SK1")])
    assert str(err.value) == "pre-matched course 'C9' not in course file"


@pytest.mark.parametrize("rows, row, fault", [
    (["C1,SK1", "C1,SK9"], 2, "pre-matched skill 'SK9' not in catalog"),
    (["C1,SK1", "C1,SK0"], 2, "pre-matched skill 'SK0' of course 'C1' has no letters or digits"),
    # the first row that gives the course is named
    (["C1,SK1", "C9,SK1", "C9,SK2"], 2, "pre-matched course 'C9' not in course file"),
])
def test_pre_matched_pair_errors_name_the_file_and_row(tmp_path, rows, row, fault):
    p = tmp_path / "pairs.csv"
    p.write_text("course_id,skill_id\n" + "".join(f"{r}\n" for r in rows))
    courses = [Course(id="C1", name="a", description="")]
    catalog = [Skill("SK0", "!!!"), Skill("SK1", "sql"), Skill("SK2", "etl")]
    with pytest.raises(IngestError) as err:
        apply_skill_matching(courses, catalog, pre_matched=load_course_skills(p))
    assert str(err.value) == f"{p}: row {row}: {fault}"


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_round_trip_all_record_types(tmp_path, suffix):
    courses = [Course(id="C1", name="Intro, advanced", description='has "quotes"\nand newline',
                      skills=frozenset({"SK1"})),
               Course(id="C2", name="B", description=""),
               Course(id="C3", name="carriage\rreturn", description="two\r\nlines")]
    jobs = [Job(id="J1", title="Data Scientist", company="a,b", location="x",
                skills=frozenset({"python", "statistics"}))]
    skills = [Skill("SK1", "sql")]
    enrollments = [EnrollmentRecord("s1", "C1", 0), EnrollmentRecord("s1", "C2", 1)]

    cp = tmp_path / f"c.{suffix}"
    jp = tmp_path / f"j.{suffix}"
    sp = tmp_path / f"s.{suffix}"
    ep = tmp_path / f"e.{suffix}"
    pp = tmp_path / f"p.{suffix}"
    if suffix == "csv":
        write_courses(cp, courses)
        write_course_skills(pp, courses)
        write_jobs(jp, jobs)
        write_skills(sp, skills)
        write_enrollments(ep, enrollments)
    else:
        # the writers emit CSV only; JSON is an input format
        def dump(path, records):
            path.write_text(json.dumps(records))
        dump(cp, [{"id": c.id, "name": c.name, "description": c.description} for c in courses])
        dump(pp, [{"course_id": c.id, "skill_id": s} for c in courses for s in sorted(c.skills)])
        dump(jp, [{"id": j.id, "title": j.title, "company": j.company, "location": j.location,
                   "skills": sorted(j.skills)} for j in jobs])
        dump(sp, [{"id": s.id, "name": s.name} for s in skills])
        dump(ep, [{"student": r.student, "course": r.course, "term": r.term}
                  for r in enrollments])

    loaded = apply_skill_matching(load_courses(cp), skills, pre_matched=load_course_skills(pp))
    assert loaded == courses
    assert load_jobs(jp) == jobs
    assert load_skills(sp) == skills
    assert load_enrollments(ep) == enrollments


def test_writers_byte_deterministic(tmp_path):
    jobs = [Job(id="J1", title="Dev", company="x", location="y",
                skills=frozenset({"b", "a", "c"}))]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_jobs(p1, jobs)
    write_jobs(p2, jobs)
    assert p1.read_bytes() == p2.read_bytes()
    assert "a;b;c" in p1.read_text()


def test_only_the_errors_module_formats_files():
    # every file the package writes goes through the one codec in skillgraph.errors
    src = Path(skillgraph.__file__).parent
    found = [f"{path.name}: {pattern}" for path in sorted(src.glob("*.py"))
             if path.name != "errors.py"
             for pattern in ("csv.writer", "io.StringIO", ".write_text(")
             if pattern in path.read_text(encoding="utf-8")]
    assert found == []


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_tokenize_deterministic_and_clean(text):
    tokens = tokenize(text)
    assert tokens == tokenize(text)
    for t in tokens:
        assert t == t.lower()
        assert t.isalnum()


ASCII = [chr(c) for c in range(128)]
# accented letters, an eszett, a dotted capital I (which lower-cases to two
# code points), a CJK letter, a fullwidth digit and a no-break space
NON_ASCII = ["é", "É", "ß", "İ", "中", "\uff11", "\u00a0"]


def test_tokenize_equals_the_regex_on_every_ascii_code_point():
    for c in ASCII:
        for text in (c, f"Ab{c}Z9", f"{c}{c}x{c}"):
            assert tokenize(text) == ref_tokenize(text), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=st.sampled_from(ASCII), max_size=40),
                 st.text(alphabet=st.sampled_from(ASCII + NON_ASCII), max_size=40)))
def test_tokenize_equals_the_regex(text):
    assert tokenize(text) == ref_tokenize(text)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["sql", "python", "data", "graph", "mining"]),
                min_size=0, max_size=8),
       st.permutations(["sql", "data mining", "graph mining", "python"]))
def test_matcher_order_insensitive_and_within_catalog(words, catalog_names):
    course = Course(id="C1", name=" ".join(words), description="")
    catalog = [Skill(f"SK{i}", name) for i, name in enumerate(sorted(catalog_names))]
    shuffled = [Skill(f"SK{sorted(catalog_names).index(n)}", n) for n in catalog_names]
    result = match_one(course, catalog)
    assert result == match_one(course, shuffled)
    assert result <= {s.id for s in catalog}
