"""Corpus records: parsing, validation, writers, and course-skill matching.

File formats (UTF-8; the text codec in :mod:`skillgraph.errors`):

* courses:     CSV header ``id,name,description``; a course id holds no ``,``
* jobs:        CSV header ``id,title,company,location,skills`` with a
               ``;``-separated skill list; each skill holds a letter or digit
* skills:      CSV header ``id,name``
* enrollments: CSV header ``student,course,term`` (term 1-18 ASCII digits)
* course-skill pairs (optional pre-matched file): CSV header
  ``course_id,skill_id``; each named skill's catalog name holds a letter or digit

Every loader also accepts the same schema as a JSON array of objects when the
path ends in ``.json`` (a job's skills may then be a list; text is a JSON
string or number, kept as written; no object gives a key twice). Writers
always emit CSV, byte-deterministically (sorted skill lists and course-skill
pairs).

Loaders read each row by position and check it once: each distinct id, job
skill and term text is checked the first time it appears, and only the ones
that passed are remembered, while duplicate rows are still caught row by
row. A row is named (``{path}: row {i}``) only in the message of a check
that fails, and the first fault in row order is the one raised. CSV rows are
checked as they are read, with no list of every row or line held; a check
that fails first reads the rest of the file (``errors.read_through``), so
that an undecodable byte or a malformed row further on is still reported
before it.

Course-skill matching indexes the catalog once per call, by token tuple (a
dictionary in the spirit of Aho-Corasick, CACM 1975). Each course then costs
one lookup per stream window and phrase length, plus a sort of its hits,
instead of a slide of every catalog skill over its token stream.
"""
from __future__ import annotations

import functools
import json
import re
from collections import Counter
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (IngestError, csv_lines, csv_rows, parse_number, read_text, read_through,
                     write_lines)

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)
# the same for ASCII text in one byte map: A-Z lower-cased, a-z and 0-9 kept,
# every other byte (``_`` and the controls included) a space
_ASCII_TOKEN = bytes(c + 32 if 65 <= c <= 90 else c if 48 <= c <= 57 or 97 <= c <= 122 else 32
                     for c in range(256))
# a job skill becomes a graph node id, and the graph snapshot keeps one record
# per line with only ' ' encoded; every str.splitlines break is whitespace
_NON_SPACE_WHITESPACE = re.compile(r"[^\S ]")
# \s matches exactly the characters str.isspace calls whitespace
_WHITESPACE = re.compile(r"\s")


def tokenize(text: str) -> list[str]:
    """Lowercase, squash non-alphanumerics (``_`` included) to spaces, split.

    ASCII text, most of any corpus, goes through one ``bytes.translate``
    (``_ASCII_TOKEN``) in about a third of the regex's time on a
    40-character title; any other text takes the regex, which gives the same
    tokens on ASCII.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN).decode("ascii").split()
    return _TOKEN_SPLIT.sub(" ", text.lower()).split()


@dataclass(frozen=True)
class Skill:
    id: str
    name: str

    @functools.cached_property
    def tokens(self) -> tuple[str, ...]:
        """The name's tokens, made on first read: only the matcher reads them."""
        return tuple(tokenize(self.name))


@dataclass(frozen=True)
class Course:
    id: str
    name: str
    description: str
    skills: frozenset[str] = frozenset()

    def with_skills(self, skills: Iterable[str]) -> "Course":
        return replace(self, skills=frozenset(skills))


@dataclass(frozen=True)
class Job:
    id: str
    title: str
    company: str
    location: str
    skills: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EnrollmentRecord:
    student: str
    course: str
    term: int


def _at(path: Path, row: int) -> str:
    """How a message names data row ``row`` (from 1) of ``path``."""
    return f"{path}: row {row}"


def _check_id(value: str, what: str, path: Path, row: int) -> str:
    if not value:
        raise IngestError(f"{_at(path, row)}: empty {what} id")
    if _WHITESPACE.search(value):
        raise IngestError(f"{_at(path, row)}: {what} id {value!r} contains whitespace")
    return value


def _unique(seen: set, key, what: str, path: Path, row: int):
    """``key``, added to ``seen``; a key already there is a duplicate row."""
    if key in seen:
        raise IngestError(f"{_at(path, row)}: duplicate {what} {key!r}")
    seen.add(key)
    return key


_JSON_NON_TEXT = {type(None): "null", bool: "a boolean", dict: "an object", list: "an array"}


def _json_text(value: object, where: str, column: str) -> str:
    """A JSON string or number as text; null, booleans, objects and arrays are
    not, nor is a string holding a lone surrogate escape (``"\\ud800"``),
    which no UTF-8 file the program writes could hold."""
    kind = _JSON_NON_TEXT.get(type(value))
    if kind is not None:
        raise IngestError(f"{where}: {column} is {kind}, not text")
    text = str(value)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise IngestError(f"{where}: {column} holds {text[exc.start]!r} at character "
                          f"{exc.start}, which UTF-8 cannot encode") from None
    return text


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is a ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"key {key!r} is given twice")
    return obj


def _json_rows(path: Path, columns: Sequence[str], raw: Sequence[str]) -> list[tuple]:
    """Every data row of a JSON array of objects, each its values in
    ``columns`` order; values in ``raw`` columns stay as they are."""
    text = read_text(path, IngestError)
    try:
        # numbers stay the text they were written as
        data = json.loads(text, object_pairs_hook=_json_object,
                          parse_int=str, parse_float=str, parse_constant=str)
    except ValueError as exc:  # a JSONDecodeError, or a key given twice
        raise IngestError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise IngestError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(data, list):
        raise IngestError(f"{path}: expected a JSON array of objects")
    out = []
    for i, obj in enumerate(data, start=1):
        where = _at(path, i)
        if not isinstance(obj, dict) or set(obj) != set(columns):
            raise IngestError(f"{where}: expected keys {list(columns)}")
        # a raw column's string is text all the same
        out.append(tuple(obj[k] if k in raw and not isinstance(obj[k], str)
                         else _json_text(obj[k], where, k) for k in columns))
    return out


def _rows(path: Path, columns: Sequence[str],
          raw: Sequence[str] = ()) -> AbstractContextManager[Iterator[Sequence]]:
    """The data rows of a CSV or JSON file (numbered from 1), each its values
    in ``columns`` order, for a loader to check one at a time in a ``with``
    block (``read_through``). CSV rows come as they are read; JSON rows are
    all parsed and checked first."""
    return read_through(csv_rows(path, columns, IngestError) if path.suffix.lower() != ".json"
                        else iter(_json_rows(path, columns, raw)))


def load_courses(path: str | Path) -> list[Course]:
    path = Path(path)
    courses: list[Course] = []
    seen: set[str] = set()
    with _rows(path, ("id", "name", "description")) as rows:
        for i, (cid, name, description) in enumerate(rows, start=1):
            _unique(seen, _check_id(cid, "course", path, i), "course id", path, i)
            # ``recommend --taken`` lists course ids joined by ','
            if "," in cid:
                raise IngestError(f"{_at(path, i)}: course id {cid!r} contains ','")
            courses.append(Course(cid, name, description))
    return courses


def load_jobs(path: str | Path) -> list[Job]:
    path = Path(path)
    jobs: list[Job] = []
    seen: set[str] = set()
    checked: set[str] = set()  # skills that passed; jobs share most skills
    with _rows(path, ("id", "title", "company", "location", "skills"), raw=("skills",)) as rows:
        for i, (jid, title, company, location, raw) in enumerate(rows, start=1):
            _unique(seen, _check_id(jid, "job", path, i), "job id", path, i)
            if isinstance(raw, str):
                skills = frozenset(map(str.strip, raw.split(";")))
            elif isinstance(raw, list):
                skills = frozenset(_json_text(s, _at(path, i), "skills").strip() for s in raw)
            else:
                raise IngestError(f"{_at(path, i)}: bad skills field for job {jid!r}")
            if "" in skills:  # blank entries
                skills = skills - {""}
            if not skills:
                raise IngestError(f"{_at(path, i)}: job {jid!r} has an empty skill list")
            if not checked.issuperset(skills):
                for skill in sorted(skills - checked):
                    if _NON_SPACE_WHITESPACE.search(skill):
                        fault = "contains whitespace other than ' '"
                    # the CSV form joins a job's skills with ';', so a JSON skill must not hold one
                    elif ";" in skill:
                        fault = "contains ';'"
                    # a skill's graph node is keyed by ``skill_key``, its tokens joined
                    elif not tokenize(skill):
                        fault = "has no letters or digits"
                    else:
                        continue
                    raise IngestError(f"{_at(path, i)}: job {jid!r}: skill {skill!r} {fault}")
                checked |= skills
            jobs.append(Job(jid, title, company, location, skills))
    return jobs


def load_skills(path: str | Path) -> list[Skill]:
    path = Path(path)
    skills: list[Skill] = []
    seen: set[str] = set()
    with _rows(path, ("id", "name")) as rows:
        for i, (sid, name) in enumerate(rows, start=1):
            skills.append(Skill(_unique(seen, _check_id(sid, "skill", path, i),
                                        "skill id", path, i), name))
    return skills


def _term(text: str, path: Path, row: int) -> int:
    term = parse_number(text, int)
    if term is not None and text.startswith("-"):
        raise IngestError(f"{_at(path, row)}: negative term {text}")
    if term is None or len(text) > 18:  # 18 digits always fit a 64-bit integer
        raise IngestError(f"{_at(path, row)}: term {text!r} is not an integer")
    return term


def load_enrollments(path: str | Path) -> list[EnrollmentRecord]:
    path = Path(path)
    records: list[EnrollmentRecord] = []
    # an id holds no whitespace, so one string keys a (student, course, term)
    # triple: no tuple per row is kept for the collector to visit
    seen: set[str] = set()
    ids: set[str] = set()  # ids that passed _check_id, as a student or a course
    terms: dict[str, int] = {}  # each good term text, parsed once
    with _rows(path, ("student", "course", "term")) as rows:
        for i, (student, course, text) in enumerate(rows, start=1):
            if student not in ids:
                ids.add(_check_id(student, "student", path, i))
            if course not in ids:
                ids.add(_check_id(course, "course", path, i))
            term = terms.get(text)
            if term is None:
                term = terms[text] = _term(text, path, i)
            key = f"{student} {course} {term}"
            if key in seen:
                raise IngestError(f"{_at(path, i)}: duplicate enrollment "
                                  f"{(student, course, term)!r}")
            seen.add(key)
            records.append(EnrollmentRecord(student, course, term))
    return records


class CourseSkillPairs(list):
    """Pre-matched (course_id, skill_id) pairs read from ``path``; pair ``i``
    (from 0) comes from data row ``i + 1``, which a later check names."""

    def __init__(self, pairs: Iterable[tuple[str, str]], path: Path) -> None:
        super().__init__(pairs)
        self.path = path


def load_course_skills(path: str | Path) -> CourseSkillPairs:
    """Pre-matched (course_id, skill_id) pairs, one per row."""
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    ids: set[str] = set()  # ids that passed _check_id, as a course or a skill
    with _rows(path, ("course_id", "skill_id")) as rows:
        for i, (cid, sid) in enumerate(rows, start=1):
            if cid not in ids:
                ids.add(_check_id(cid, "course", path, i))
            if sid not in ids:
                ids.add(_check_id(sid, "skill", path, i))
            pairs.append(_unique(seen, (cid, sid), "course-skill pair", path, i))
    return CourseSkillPairs(pairs, path)


@dataclass(frozen=True)
class _PhraseIndex:
    """The skill catalog indexed once by token tuple, for every course.

    ``ranked`` holds the catalog's non-empty phrases in claiming order: longest
    token sequence first, then by id (equal ids keep catalog order).
    ``phrases`` maps a token tuple to the ascending ranks of the skills with
    those tokens, and ``lengths`` lists the distinct phrase lengths.
    """
    ranked: tuple[Skill, ...]
    phrases: Mapping[tuple[str, ...], list[int]]
    lengths: tuple[int, ...]

    @classmethod
    def from_catalog(cls, catalog: Sequence[Skill]) -> "_PhraseIndex":
        if not catalog:
            raise IngestError("skill catalog is empty")
        ranked = tuple(sorted((s for s in catalog if s.tokens),
                              key=lambda s: (-len(s.tokens), s.id)))
        phrases: dict[tuple[str, ...], list[int]] = {}
        for rank, skill in enumerate(ranked):
            phrases.setdefault(tuple(skill.tokens), []).append(rank)
        return cls(ranked, phrases, tuple(sorted({len(p) for p in phrases})))

    def match(self, course: Course) -> set[str]:
        """Project a course onto the catalog by greedy longest-phrase matching.

        The course name and description are concatenated into one token
        stream. Every stream window of every phrase length is looked up once;
        the hits are then claimed in (rank, position) order, and a hit is
        kept only while none of its tokens is claimed yet. That is the order
        of trying each skill in turn, longest first, over every free
        contiguous occurrence, so a shorter skill can never re-match tokens a
        longer one already claimed.
        """
        stream = tokenize(course.name) + tokenize(course.description)
        hits: list[tuple[int, int]] = []
        for k in self.lengths:
            for i in range(len(stream) - k + 1):
                ranks = self.phrases.get(tuple(stream[i:i + k]))
                if ranks:
                    hits.extend((rank, i) for rank in ranks)
        hits.sort()
        consumed = [False] * len(stream)
        matched: set[str] = set()
        for rank, i in hits:
            skill = self.ranked[rank]
            k = len(skill.tokens)
            if not any(consumed[i:i + k]):
                consumed[i:i + k] = [True] * k
                matched.add(skill.id)
        return matched


def apply_skill_matching(courses: Sequence[Course], catalog: Sequence[Skill],
                         pre_matched: Sequence[tuple[str, str]] | None = None) -> list[Course]:
    """Fill every course's skill set, from pre-matched pairs or the matcher.

    Pairs are checked in order, and the first bad one raises; pairs from
    ``load_course_skills`` are named by file and row."""
    if pre_matched is not None:
        path = pre_matched.path if isinstance(pre_matched, CourseSkillPairs) else None
        by_id = {s.id: s for s in catalog}
        known = {c.id for c in courses}
        by_course: dict[str, set[str]] = {}
        for row, (cid, sid) in enumerate(pre_matched, start=1):
            if sid not in by_id:
                fault = f"pre-matched skill {sid!r} not in catalog"
            # a covered skill's graph node is keyed by ``skill_key``, its tokens
            # joined; the matcher skips such a skill, a pair file may not
            elif not by_id[sid].tokens:
                fault = f"pre-matched skill {sid!r} of course {cid!r} has no letters or digits"
            elif cid not in known:
                fault = f"pre-matched course {cid!r} not in course file"
            else:
                by_course.setdefault(cid, set()).add(sid)
                continue
            raise IngestError(fault if path is None else f"{path}: row {row}: {fault}")
        return [c.with_skills(by_course.get(c.id, set())) for c in courses]
    if not courses:
        return []
    index = _PhraseIndex.from_catalog(catalog)
    return [c.with_skills(index.match(c)) for c in courses]


# ---------------------------------------------------------------------------
# writers (byte-deterministic)
# ---------------------------------------------------------------------------

def write_courses(path: str | Path, courses: Sequence[Course]) -> None:
    write_lines(path, csv_lines(("id", "name", "description"),
                                ((c.id, c.name, c.description) for c in courses)))


def write_course_skills(path: str | Path, courses: Sequence[Course]) -> None:
    write_lines(path, csv_lines(("course_id", "skill_id"),
                                sorted((c.id, sid) for c in courses for sid in c.skills)))


def write_jobs(path: str | Path, jobs: Sequence[Job]) -> None:
    write_lines(path, csv_lines(("id", "title", "company", "location", "skills"),
                                ((j.id, j.title, j.company, j.location, ";".join(sorted(j.skills)))
                                 for j in jobs)))


def write_skills(path: str | Path, skills: Sequence[Skill]) -> None:
    write_lines(path, csv_lines(("id", "name"), ((s.id, s.name) for s in skills)))


def write_enrollments(path: str | Path, records: Sequence[EnrollmentRecord]) -> None:
    write_lines(path, csv_lines(("student", "course", "term"),
                                ((r.student, r.course, r.term) for r in records)))
