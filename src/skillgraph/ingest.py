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

Course-skill matching indexes the catalog once per call, by token tuple (a
dictionary in the spirit of Aho-Corasick, CACM 1975). Each course then costs
one lookup per stream window and phrase length, plus a sort of its hits,
instead of a slide of every catalog skill over its token stream.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IngestError, csv_lines, csv_rows, parse_number, read_text, write_lines

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)
# a job skill becomes a graph node id, and the graph snapshot keeps one record
# per line with only ' ' encoded; every str.splitlines break is whitespace
_NON_SPACE_WHITESPACE = re.compile(r"[^\S ]")
# \s matches exactly the characters str.isspace calls whitespace
_WHITESPACE = re.compile(r"\s")


def tokenize(text: str) -> list[str]:
    """Lowercase, squash non-alphanumerics to spaces, split."""
    return _TOKEN_SPLIT.sub(" ", text.lower()).split()


@dataclass(frozen=True)
class Skill:
    id: str
    name: str
    tokens: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(tokenize(self.name)))


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


def _check_id(value: str, what: str, where: str) -> str:
    if not value:
        raise IngestError(f"{where}: empty {what} id")
    if _WHITESPACE.search(value):
        raise IngestError(f"{where}: {what} id {value!r} contains whitespace")
    return value


def _unique(seen: set, key, what: str, where: str):
    """``key``, added to ``seen``; a key already there is a duplicate row."""
    if key in seen:
        raise IngestError(f"{where}: duplicate {what} {key!r}")
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


def _read_rows(path: str | Path, columns: Sequence[str],
               raw: Sequence[str] = ()) -> list[tuple[str, dict]]:
    """(where, record) pairs from a CSV or JSON file; ``where`` names the file
    and the 1-based data row. JSON values in ``raw`` columns stay as they are."""
    path = Path(path)
    if path.suffix.lower() == ".json":
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
            where = f"{path}: row {i}"
            if not isinstance(obj, dict) or set(obj) != set(columns):
                raise IngestError(f"{where}: expected keys {list(columns)}")
            # a raw column's string is text all the same
            out.append((where, {k: obj[k] if k in raw and not isinstance(obj[k], str)
                                else _json_text(obj[k], where, k) for k in columns}))
        return out
    rows = csv_rows(path, columns, IngestError)
    return [(f"{path}: row {i}", dict(zip(columns, row))) for i, row in enumerate(rows, start=1)]


def load_courses(path: str | Path) -> list[Course]:
    courses: list[Course] = []
    seen: set[str] = set()
    for where, rec in _read_rows(path, ("id", "name", "description")):
        cid = _unique(seen, _check_id(rec["id"], "course", where), "course id", where)
        # ``recommend --taken`` lists course ids joined by ','
        if "," in cid:
            raise IngestError(f"{where}: course id {cid!r} contains ','")
        courses.append(Course(id=cid, name=rec["name"], description=rec["description"]))
    return courses


def load_jobs(path: str | Path) -> list[Job]:
    jobs: list[Job] = []
    seen: set[str] = set()
    checked: set[str] = set()  # skills that passed; jobs share most skills
    for where, rec in _read_rows(path, ("id", "title", "company", "location", "skills"),
                                 raw=("skills",)):
        jid = _unique(seen, _check_id(rec["id"], "job", where), "job id", where)
        raw = rec["skills"]
        if isinstance(raw, str):
            parts = [s.strip() for s in raw.split(";")]
        elif isinstance(raw, list):
            parts = [_json_text(s, where, "skills").strip() for s in raw]
        else:
            raise IngestError(f"{where}: bad skills field for job {jid!r}")
        skills = frozenset(s for s in parts if s)
        if not skills:
            raise IngestError(f"{where}: job {jid!r} has an empty skill list")
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
            raise IngestError(f"{where}: job {jid!r}: skill {skill!r} {fault}")
        checked |= skills
        jobs.append(Job(id=jid, title=rec["title"], company=rec["company"],
                        location=rec["location"], skills=skills))
    return jobs


def load_skills(path: str | Path) -> list[Skill]:
    skills: list[Skill] = []
    seen: set[str] = set()
    for where, rec in _read_rows(path, ("id", "name")):
        sid = _unique(seen, _check_id(rec["id"], "skill", where), "skill id", where)
        skills.append(Skill(sid, rec["name"]))
    return skills


def load_enrollments(path: str | Path) -> list[EnrollmentRecord]:
    records: list[EnrollmentRecord] = []
    seen: set[tuple[str, str, int]] = set()
    for where, rec in _read_rows(path, ("student", "course", "term")):
        student = _check_id(rec["student"], "student", where)
        course = _check_id(rec["course"], "course", where)
        text = rec["term"]
        term = parse_number(text, int)
        if term is not None and text.startswith("-"):
            raise IngestError(f"{where}: negative term {text}")
        if term is None or len(text) > 18:  # 18 digits always fit a 64-bit integer
            raise IngestError(f"{where}: term {text!r} is not an integer")
        _unique(seen, (student, course, term), "enrollment", where)
        records.append(EnrollmentRecord(student=student, course=course, term=term))
    return records


class CourseSkillPairs(list):
    """Pre-matched (course_id, skill_id) pairs read from ``path``; pair ``i``
    (from 0) comes from data row ``i + 1``, which a later check names."""

    def __init__(self, pairs: Iterable[tuple[str, str]], path: Path) -> None:
        super().__init__(pairs)
        self.path = path


def load_course_skills(path: str | Path) -> CourseSkillPairs:
    """Pre-matched (course_id, skill_id) pairs, one per row."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for where, rec in _read_rows(path, ("course_id", "skill_id")):
        pair = (_check_id(rec["course_id"], "course", where),
                _check_id(rec["skill_id"], "skill", where))
        pairs.append(_unique(seen, pair, "course-skill pair", where))
    return CourseSkillPairs(pairs, Path(path))


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
