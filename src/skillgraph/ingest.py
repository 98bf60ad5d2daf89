"""Corpus records: parsing, validation, writers, and course-skill matching.

File formats (UTF-8; the text codec in :mod:`skillgraph.errors`):

* courses:     CSV header ``id,name,description``
* jobs:        CSV header ``id,title,company,location,skills`` with a
               ``;``-separated skill list
* skills:      CSV header ``id,name``
* enrollments: CSV header ``student,course,term`` (term 1-18 ASCII digits)
* course-skill pairs (optional pre-matched file): CSV header
  ``course_id,skill_id``

Every loader also accepts the same schema as a JSON array of objects when the
path ends in ``.json`` (a job's skills may then be a list; text is a JSON
string or number, kept as written). Writers always emit CSV,
byte-deterministically (sorted skill lists and course-skill pairs).

Course-skill matching indexes the catalog once per call, by token tuple (a
dictionary in the spirit of Aho-Corasick, CACM 1975). Each course then costs
one lookup per stream window and phrase length, plus a sort of its hits,
instead of a slide of every catalog skill over its token stream.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IngestError, csv_rows, csv_text, read_text, write_text

_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)
# a job skill becomes a graph node id, and the graph snapshot keeps one record
# per line with only ' ' encoded; every str.splitlines break is whitespace
_NON_SPACE_WHITESPACE = re.compile(r"[^\S ]")


def tokenize(text: str) -> list[str]:
    """Lowercase, squash non-alphanumerics to spaces, split."""
    return [t for t in _TOKEN_SPLIT.sub(" ", text.lower()).split() if t]


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
    if any(ch.isspace() for ch in value):
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
    """A JSON string or number as text; null, booleans, objects and arrays are not."""
    kind = _JSON_NON_TEXT.get(type(value))
    if kind is not None:
        raise IngestError(f"{where}: {column} is {kind}, not text")
    return str(value)


def _read_rows(path: str | Path, columns: Sequence[str],
               raw: Sequence[str] = ()) -> list[tuple[str, dict]]:
    """(where, record) pairs from a CSV or JSON file; ``where`` names the file
    and the 1-based data row. JSON values in ``raw`` columns stay as they are."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            # numbers stay the text they were written as
            data = json.loads(read_text(path, IngestError),
                              parse_int=str, parse_float=str, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise IngestError(f"{path}: expected a JSON array of objects")
        out = []
        for i, obj in enumerate(data, start=1):
            where = f"{path}: row {i}"
            if not isinstance(obj, dict) or set(obj) != set(columns):
                raise IngestError(f"{where}: expected keys {list(columns)}")
            out.append((where, {k: obj[k] if k in raw else _json_text(obj[k], where, k)
                                for k in columns}))
        return out
    rows = csv_rows(path, columns, IngestError)
    return [(f"{path}: row {i}", dict(zip(columns, row))) for i, row in enumerate(rows, start=1)]


def load_courses(path: str | Path) -> list[Course]:
    courses: list[Course] = []
    seen: set[str] = set()
    for where, rec in _read_rows(path, ("id", "name", "description")):
        cid = _unique(seen, _check_id(rec["id"], "course", where), "course id", where)
        courses.append(Course(id=cid, name=rec["name"], description=rec["description"]))
    return courses


def load_jobs(path: str | Path) -> list[Job]:
    jobs: list[Job] = []
    seen: set[str] = set()
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
        # the skills are stripped, so any match lies inside one of them
        if _NON_SPACE_WHITESPACE.search(" ".join(skills)):
            bad = min(s for s in skills if _NON_SPACE_WHITESPACE.search(s))
            raise IngestError(
                f"{where}: job {jid!r}: skill {bad!r} contains whitespace other than ' '")
        # the CSV form joins a job's skills with ';', so a JSON skill must not hold one
        if ";" in "".join(skills):
            bad = min(s for s in skills if ";" in s)
            raise IngestError(f"{where}: job {jid!r}: skill {bad!r} contains ';'")
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
        digits = text.removeprefix("-")
        if digits != text and digits.isascii() and digits.isdigit():
            raise IngestError(f"{where}: negative term {text}")
        # plain ASCII digits, few enough for a 64-bit integer
        if not (text.isascii() and text.isdigit() and len(text) <= 18):
            raise IngestError(f"{where}: term {text!r} is not an integer")
        term = int(text)
        _unique(seen, (student, course, term), "enrollment", where)
        records.append(EnrollmentRecord(student=student, course=course, term=term))
    return records


def load_course_skills(path: str | Path) -> list[tuple[str, str]]:
    """Pre-matched (course_id, skill_id) pairs."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for where, rec in _read_rows(path, ("course_id", "skill_id")):
        pair = (_check_id(rec["course_id"], "course", where),
                _check_id(rec["skill_id"], "skill", where))
        pairs.append(_unique(seen, pair, "course-skill pair", where))
    return pairs


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
    """Fill every course's skill set, from a pre-matched pair file or the matcher."""
    catalog_ids = {s.id for s in catalog}
    if pre_matched is not None:
        by_course: dict[str, set[str]] = {}
        for cid, sid in pre_matched:
            if sid not in catalog_ids:
                raise IngestError(f"pre-matched skill {sid!r} not in catalog")
            by_course.setdefault(cid, set()).add(sid)
        known = {c.id for c in courses}
        for cid in by_course:
            if cid not in known:
                raise IngestError(f"pre-matched course {cid!r} not in course file")
        return [c.with_skills(by_course.get(c.id, set())) for c in courses]
    if not courses:
        return []
    index = _PhraseIndex.from_catalog(catalog)
    return [c.with_skills(index.match(c)) for c in courses]


# ---------------------------------------------------------------------------
# writers (byte-deterministic)
# ---------------------------------------------------------------------------

def write_courses(path: str | Path, courses: Sequence[Course]) -> None:
    write_text(path, csv_text(("id", "name", "description"),
                              ((c.id, c.name, c.description) for c in courses)))


def write_course_skills(path: str | Path, courses: Sequence[Course]) -> None:
    write_text(path, csv_text(("course_id", "skill_id"),
                              sorted((c.id, sid) for c in courses for sid in c.skills)))


def write_jobs(path: str | Path, jobs: Sequence[Job]) -> None:
    write_text(path, csv_text(("id", "title", "company", "location", "skills"),
                              ((j.id, j.title, j.company, j.location, ";".join(sorted(j.skills)))
                               for j in jobs)))


def write_skills(path: str | Path, skills: Sequence[Skill]) -> None:
    write_text(path, csv_text(("id", "name"), ((s.id, s.name) for s in skills)))


def write_enrollments(path: str | Path, records: Sequence[EnrollmentRecord]) -> None:
    write_text(path, csv_text(("student", "course", "term"),
                              ((r.student, r.course, r.term) for r in records)))
