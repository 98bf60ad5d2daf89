"""Seeded synthetic corpus with planted topic structure.

Each topic owns a disjoint pool of pseudo-words. Skill names are two-word
phrases from their topic's pool; the course-side and job-side vocabularies
share exactly an ``alignment`` fraction of names. Courses embed their
skills' phrases in the description (so greedy matching recovers them), job
titles carry a ``topic-<t>`` tag plus a role word, and enrollment sequences
run down each topic's course chain so prerequisite edges appear. Ground
truth holds one judgment set per topic goal: query ``topic-<t>`` marks every
course of topic ``t`` relevant.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvalError
from .ingest import (Course, EnrollmentRecord, Job, Skill, write_courses,
                     write_enrollments, write_jobs, write_skills)
from .metrics import write_judgments

_SYLLABLES = [c + v for c in "bdklmnprstvz" for v in "aeiou"]
_ROLES = ["engineer", "analyst", "developer", "specialist"]
_LEVELS = ["", "junior", "senior", "lead"]
_COMPANIES = ["acme", "globex", "initech", "umbrella", "hooli"]
_LOCATIONS = ["springfield", "shelbyville", "ogdenville", "capital city"]
_FILLER = ["covers", "practice", "introduces", "with", "methods", "applied",
           "topics", "in", "weekly", "labs", "projects", "and", "studio"]


def _new_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))] for _ in range(3))
        if word not in used:
            used.add(word)
            return word


def _new_phrase(rng: np.random.Generator, pool: list[str], used: set[str]) -> str:
    for _ in range(10_000):
        i = int(rng.integers(len(pool)))
        j = int(rng.integers(len(pool)))
        if i == j:
            continue
        phrase = f"{pool[i]} {pool[j]}"
        if phrase not in used:
            used.add(phrase)
            return phrase
    raise EvalError("topic word pool exhausted")  # pragma: no cover


def _top_up(rng: np.random.Generator, vocab: list[str], picks: list[str],
            want: int) -> list[str]:
    """``picks`` plus random distinct ``vocab`` names, up to ``want`` or all of ``vocab``."""
    while len(picks) < min(want, len(vocab)):
        cand = vocab[int(rng.integers(len(vocab)))]
        if cand not in picks:
            picks.append(cand)
    return picks


def _spread(total: int, bins: int) -> list[int]:
    base, extra = divmod(total, bins)
    return [base + (1 if i < extra else 0) for i in range(bins)]


@dataclass
class SynthCorpus:
    out_dir: Path
    courses: list[Course]
    jobs: list[Job]
    skills: list[Skill]
    enrollments: list[EnrollmentRecord]
    course_topic: dict[str, int]
    job_topic: dict[str, int]

    @property
    def paths(self) -> dict[str, Path]:
        """Each file ``generate_synthetic_corpus`` writes, by name."""
        return {name: self.out_dir / f"{name}.csv"
                for name in ("courses", "jobs", "skills", "enrollments", "ground_truth")}


def generate_synthetic_corpus(seed: int, n_jobs: int, n_courses: int, n_skills: int,
                              alignment: float, out_dir: str | Path,
                              n_topics: int | None = None) -> SynthCorpus:
    """Write courses/jobs/skills/enrollments plus ground truth; return records."""
    if seed < 0:
        raise EvalError(f"seed {seed!r} must be >= 0")
    if min(n_jobs, n_courses, n_skills) < 1:
        raise EvalError("corpus sizes must be >= 1")
    if not 0.0 <= alignment <= 1.0:
        raise EvalError(f"alignment {alignment!r} outside [0, 1]")
    # each topic needs a job, a course and a skill: the default count is
    # clamped to fit, an explicit one that does not fit is an error
    max_topics = min(n_jobs, n_courses, n_skills)
    if n_topics is None:
        n_topics = min(max(2, min(10, n_skills // 10)), max_topics)
    elif n_topics < 1:
        raise EvalError(f"topic count {n_topics!r} must be >= 1")
    elif n_topics > max_topics:
        raise EvalError(f"topic count {n_topics!r} exceeds {max_topics}, the smallest "
                        f"of the job, course and skill counts")
    rng = np.random.default_rng(seed)
    used_words: set[str] = set(_FILLER) | set(_ROLES) | {"topic", "course"}
    used_phrases: set[str] = set()

    # Each topic's word pool splits into shared, course-side, and job-side
    # words: the two corpora describe one topic in partly different terms.
    # Skill names shared across corpora (the alignment fraction) are built
    # from shared words only; the rest mix their side's words in.
    skills_per_topic = _spread(n_skills, n_topics)
    shared_per_topic = _spread(round(alignment * n_skills), n_topics)
    course_words: list[list[str]] = []   # per topic: shared + course-side
    course_vocab: list[list[str]] = []   # per topic, course-side skill names
    job_vocab: list[list[str]] = []      # per topic, job-side skill names
    for t in range(n_topics):
        need = skills_per_topic[t] * 2
        pool_size = max(8, int(np.ceil(np.sqrt(max(need * 2, 1)))) + 4)
        n_shared_words = max(3, round(pool_size * 0.4))
        n_side_words = max(2, (pool_size - n_shared_words + 1) // 2)
        shared_pool = [_new_word(rng, used_words) for _ in range(n_shared_words)]
        course_words.append(shared_pool + [_new_word(rng, used_words)
                                           for _ in range(n_side_words)])
        job_words = shared_pool + [_new_word(rng, used_words) for _ in range(n_side_words)]
        shared = [_new_phrase(rng, shared_pool, used_phrases)
                  for _ in range(min(shared_per_topic[t], skills_per_topic[t]))]
        course_only = [_new_phrase(rng, course_words[t], used_phrases)
                       for _ in range(skills_per_topic[t] - len(shared))]
        job_only = [_new_phrase(rng, job_words, used_phrases)
                    for _ in range(skills_per_topic[t] - len(shared))]
        course_vocab.append(shared + course_only)
        job_vocab.append(shared + job_only)

    skills = [Skill(f"SK{idx:04d}", name)
              for idx, name in enumerate(n for t in range(n_topics) for n in course_vocab[t])]

    course_topics = _spread(n_courses, n_topics)
    courses: list[Course] = []
    course_topic: dict[str, int] = {}
    chains: list[list[str]] = [[] for _ in range(n_topics)]
    idx = 0
    # each course or job of a topic takes its round-robin share of the
    # topic's shared names, then random names of its side up to its size
    for t in range(n_topics):
        vocab = course_vocab[t]
        shared = vocab[:shared_per_topic[t]]
        for ci in range(course_topics[t]):
            picks = _top_up(rng, vocab, shared[ci::course_topics[t]], 3 + int(rng.integers(3)))
            cid = f"C{idx:03d}"
            words: list[str] = [_FILLER[int(rng.integers(len(_FILLER)))]]
            for phrase in picks:
                words += phrase.split() + [_FILLER[int(rng.integers(len(_FILLER)))]]
            # cross-topic lexical noise: lone words from other pools, each
            # padded with filler so they never form a matchable skill phrase
            if n_topics > 1 and rng.random() < 0.8:
                for _ in range(3 + int(rng.integers(4))):
                    other = (t + 1 + int(rng.integers(n_topics - 1))) % n_topics
                    pool = course_words[other]
                    words += [pool[int(rng.integers(len(pool)))],
                              _FILLER[int(rng.integers(len(_FILLER)))]]
            courses.append(Course(id=cid, name=f"Course {idx:03d}",
                                  description=" ".join(words)))
            course_topic[cid] = t
            chains[t].append(cid)
            idx += 1

    job_topics = _spread(n_jobs, n_topics)
    jobs: list[Job] = []
    job_topic: dict[str, int] = {}
    idx = 0
    for t in range(n_topics):
        vocab = job_vocab[t]
        shared = vocab[:shared_per_topic[t]]
        for ji in range(job_topics[t]):
            picks = _top_up(rng, vocab, shared[ji::job_topics[t]], 3 + int(rng.integers(4)))
            jid = f"J{idx:05d}"
            role = _ROLES[int(rng.integers(len(_ROLES)))]
            level = _LEVELS[int(rng.integers(len(_LEVELS)))]
            title = f"topic-{t} {role}" + (f" {level}" if level else "")
            jobs.append(Job(id=jid, title=title,
                            company=_COMPANIES[int(rng.integers(len(_COMPANIES)))],
                            location=_LOCATIONS[int(rng.integers(len(_LOCATIONS)))],
                            skills=frozenset(picks)))
            job_topic[jid] = t
            idx += 1

    # students take a random subset of their topic's courses in curriculum
    # order; sampling across the whole chain keeps precedence pairs dense so
    # a topic's courses cohere instead of fragmenting into chain segments
    enrollments: list[EnrollmentRecord] = []
    n_students = max(12, n_courses * 3)
    for s in range(n_students):
        t = s % n_topics
        chain = chains[t]
        k = min(2 + int(rng.integers(3)), len(chain))
        picks = sorted(int(i) for i in rng.choice(len(chain), size=k, replace=False))
        t0 = int(rng.integers(3))
        for j, ci in enumerate(picks):
            enrollments.append(EnrollmentRecord(student=f"S{s:04d}",
                                                course=chain[ci], term=t0 + j))

    truth = {f"topic-{t}": dict.fromkeys(chain, True) for t, chain in enumerate(chains)}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = SynthCorpus(out_dir=out, courses=courses, jobs=jobs, skills=skills,
                         enrollments=enrollments, course_topic=course_topic,
                         job_topic=job_topic)
    paths = corpus.paths
    write_courses(paths["courses"], courses)
    write_jobs(paths["jobs"], jobs)
    write_skills(paths["skills"], skills)
    write_enrollments(paths["enrollments"], enrollments)
    write_judgments(paths["ground_truth"], truth)
    return corpus
