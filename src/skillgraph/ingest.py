"""Corpus records: parsing, validation, writers, and course-skill matching.

File formats (UTF-8, ``\\n`` line endings):

* courses:     CSV header ``id,name,description``
* jobs:        CSV header ``id,title,company,location,skills`` with a
               ``;``-separated skill list
* skills:      CSV header ``id,name``
* enrollments: CSV header ``student,course,term`` (term a non-negative int)
* course-skill pairs (optional pre-matched file): CSV header
  ``course_id,skill_id``

Every loader also accepts the same schema as a JSON array of objects when the
path ends in ``.json``; writers emit whichever format the extension names,
byte-deterministically (sorted keys, sorted skill lists).

Course-skill matching indexes the catalog once per call, by token tuple (a
dictionary in the spirit of Aho-Corasick, CACM 1975). Each course then costs
one lookup per stream window and phrase length, plus a sort of its hits,
instead of a slide of every catalog skill over its token stream.
"""
from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IngestError, csv_rows, read_text

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


def _check_id(value: str, what: str, row: int) -> str:
    if not value:
        raise IngestError(f"row {row}: empty {what} id")
    if any(ch.isspace() for ch in value):
        raise IngestError(f"row {row}: {what} id {value!r} contains whitespace")
    return value


def _read_rows(path: str | Path, columns: Sequence[str]) -> list[tuple[int, dict]]:
    """Yield (row_number, record) pairs from a CSV or JSON file.

    Row numbers are 1-based over data records (the CSV header is row 0).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(read_text(path, IngestError))
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise IngestError(f"{path}: expected a JSON array of objects")
        out = []
        for i, obj in enumerate(data, start=1):
            if not isinstance(obj, dict) or set(obj) != set(columns):
                raise IngestError(
                    f"{path}: row {i}: expected keys {list(columns)}")
            out.append((i, {k: obj[k] for k in columns}))
        return out
    reader = csv_rows(path, IngestError)
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{path}: missing header row")
    if header != list(columns):
        raise IngestError(
            f"{path}: bad header {header!r}, expected {list(columns)!r}")
    out = []
    for i, row in enumerate(reader, start=1):
        if len(row) != len(columns):
            raise IngestError(f"{path}: row {i}: expected {len(columns)} fields, got {len(row)}")
        out.append((i, dict(zip(columns, row))))
    return out


def load_courses(path: str | Path) -> list[Course]:
    courses: list[Course] = []
    seen: set[str] = set()
    for row, rec in _read_rows(path, ("id", "name", "description")):
        cid = _check_id(str(rec["id"]), "course", row)
        if cid in seen:
            raise IngestError(f"row {row}: duplicate course id {cid!r}")
        seen.add(cid)
        courses.append(Course(id=cid, name=str(rec["name"]), description=str(rec["description"])))
    return courses


def load_jobs(path: str | Path) -> list[Job]:
    jobs: list[Job] = []
    seen: set[str] = set()
    for row, rec in _read_rows(path, ("id", "title", "company", "location", "skills")):
        jid = _check_id(str(rec["id"]), "job", row)
        if jid in seen:
            raise IngestError(f"row {row}: duplicate job id {jid!r}")
        seen.add(jid)
        raw = rec["skills"]
        if isinstance(raw, str):
            parts = [s.strip() for s in raw.split(";")]
        elif isinstance(raw, list):
            parts = [str(s).strip() for s in raw]
        else:
            raise IngestError(f"row {row}: bad skills field for job {jid!r}")
        skills = frozenset(s for s in parts if s)
        if not skills:
            raise IngestError(f"row {row}: job {jid!r} has an empty skill list")
        # the skills are stripped, so any match lies inside one of them
        if _NON_SPACE_WHITESPACE.search(" ".join(skills)):
            bad = min(s for s in skills if _NON_SPACE_WHITESPACE.search(s))
            raise IngestError(
                f"row {row}: job {jid!r}: skill {bad!r} contains whitespace other than ' '")
        jobs.append(Job(id=jid, title=str(rec["title"]), company=str(rec["company"]),
                        location=str(rec["location"]), skills=skills))
    return jobs


def load_skills(path: str | Path) -> list[Skill]:
    skills: list[Skill] = []
    seen: set[str] = set()
    for row, rec in _read_rows(path, ("id", "name")):
        sid = _check_id(str(rec["id"]), "skill", row)
        if sid in seen:
            raise IngestError(f"row {row}: duplicate skill id {sid!r}")
        seen.add(sid)
        skills.append(Skill(sid, str(rec["name"])))
    return skills


def load_enrollments(path: str | Path) -> list[EnrollmentRecord]:
    records: list[EnrollmentRecord] = []
    seen: set[tuple[str, str, int]] = set()
    for row, rec in _read_rows(path, ("student", "course", "term")):
        student = _check_id(str(rec["student"]), "student", row)
        course = _check_id(str(rec["course"]), "course", row)
        raw_term = rec["term"]
        if isinstance(raw_term, bool) or (isinstance(raw_term, float)
                                          and not raw_term.is_integer()):
            raise IngestError(f"row {row}: term {raw_term!r} is not an integer")
        try:
            term = int(raw_term)
        except (TypeError, ValueError):
            raise IngestError(f"row {row}: term {raw_term!r} is not an integer") from None
        if term < 0:
            raise IngestError(f"row {row}: negative term {term}")
        key = (student, course, term)
        if key in seen:
            raise IngestError(f"row {row}: duplicate enrollment {key!r}")
        seen.add(key)
        records.append(EnrollmentRecord(student=student, course=course, term=term))
    return records


def load_course_skills(path: str | Path) -> list[tuple[str, str]]:
    """Pre-matched (course_id, skill_id) pairs."""
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for row, rec in _read_rows(path, ("course_id", "skill_id")):
        pair = (_check_id(str(rec["course_id"]), "course", row),
                _check_id(str(rec["skill_id"]), "skill", row))
        if pair in seen:
            raise IngestError(f"row {row}: duplicate course-skill pair {pair!r}")
        seen.add(pair)
        pairs.append(pair)
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

def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _emit(path: str | Path, columns: Sequence[str], rows: list[dict]) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        _write_text(path, json.dumps(rows, sort_keys=True, ensure_ascii=False, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in rows:
        writer.writerow([rec[c] for c in columns])
    _write_text(path, buf.getvalue())


def write_courses(path: str | Path, courses: Sequence[Course]) -> None:
    _emit(path, ("id", "name", "description"),
          [{"id": c.id, "name": c.name, "description": c.description} for c in courses])


def write_course_skills(path: str | Path, courses: Sequence[Course]) -> None:
    pairs = sorted((c.id, sid) for c in courses for sid in c.skills)
    _emit(path, ("course_id", "skill_id"),
          [{"course_id": c, "skill_id": s} for c, s in pairs])


def write_jobs(path: str | Path, jobs: Sequence[Job]) -> None:
    rows = []
    for j in jobs:
        skills = sorted(j.skills)
        bad = [s for s in skills if ";" in s]
        if bad:
            raise IngestError(f"job {j.id!r}: skill id {bad[0]!r} contains ';'")
        if str(Path(path).suffix).lower() == ".json":
            rows.append({"id": j.id, "title": j.title, "company": j.company,
                         "location": j.location, "skills": skills})
        else:
            rows.append({"id": j.id, "title": j.title, "company": j.company,
                         "location": j.location, "skills": ";".join(skills)})
    _emit(path, ("id", "title", "company", "location", "skills"), rows)


def write_skills(path: str | Path, skills: Sequence[Skill]) -> None:
    _emit(path, ("id", "name"), [{"id": s.id, "name": s.name} for s in skills])


def write_enrollments(path: str | Path, records: Sequence[EnrollmentRecord]) -> None:
    _emit(path, ("student", "course", "term"),
          [{"student": r.student, "course": r.course, "term": r.term} for r in records])
