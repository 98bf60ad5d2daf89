from __future__ import annotations

import hashlib

import pytest

from skillgraph.errors import EvalError
from skillgraph.graph import skill_key
from skillgraph.ingest import (apply_skill_matching, load_courses, load_enrollments,
                               load_jobs, load_skills)
from skillgraph.metrics import load_judgments
from skillgraph.synth import generate_synthetic_corpus


def test_fixed_seed_is_byte_identical(tmp_path):
    a = generate_synthetic_corpus(11, n_jobs=20, n_courses=8, n_skills=16,
                                  alignment=0.5, out_dir=tmp_path / "a")
    b = generate_synthetic_corpus(11, n_jobs=20, n_courses=8, n_skills=16,
                                  alignment=0.5, out_dir=tmp_path / "b")
    for name in a.paths:
        assert a.paths[name].read_bytes() == b.paths[name].read_bytes(), name


def test_golden_synth_bytes(tmp_path):
    # pinned bytes of every written file: titles, companies, locations and
    # filler words reach no graph, so only this test sees them change
    corpus = generate_synthetic_corpus(5, n_jobs=1000, n_courses=150, n_skills=1500,
                                       alignment=0.3, out_dir=tmp_path)
    expected = {
        "courses": "044d22a1d082e8b7a1bc095ff3c7ffaf857ccf7610b26058a54c83981934c692",
        "jobs": "9920400b81ce496c5a812a3949924eeae973d771f5d401c7172c3215b1b537a9",
        "skills": "d0d2b2256ba3c7297a9dc4d199042bd88d3964fcd63da69840ca60cf44254fb5",
        "enrollments": "b1b4c386c91976c92eb4594ac44156f569a20c7a127429539fc7fed33929b088",
        "ground_truth": "43cdf19f048ed8494f7d3e829d08d3c91cdcb370148acb7f57c3cc8452d64762",
    }
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in corpus.paths.items()}
    assert digests == expected


def test_different_seed_differs(tmp_path):
    a = generate_synthetic_corpus(1, 20, 8, 16, 0.5, tmp_path / "a")
    b = generate_synthetic_corpus(2, 20, 8, 16, 0.5, tmp_path / "b")
    assert a.paths["skills"].read_bytes() != b.paths["skills"].read_bytes()


def test_full_alignment_all_job_skills_in_catalog(tmp_path):
    corpus = generate_synthetic_corpus(5, 30, 10, 20, 1.0, tmp_path)
    catalog_keys = {skill_key(s.name) for s in corpus.skills}
    for job in corpus.jobs:
        for sid in job.skills:
            assert skill_key(sid) in catalog_keys


def shared_names(corpus) -> set[str]:
    """Catalog skill names that the written job file also names."""
    catalog = {s.name for s in load_skills(corpus.paths["skills"])}
    return catalog & {sid for j in load_jobs(corpus.paths["jobs"]) for sid in j.skills}


def test_zero_alignment_disjoint_names(tmp_path):
    corpus = generate_synthetic_corpus(5, 30, 10, 20, 0.0, tmp_path)
    catalog_keys = {skill_key(s.name) for s in corpus.skills}
    job_keys = {skill_key(sid) for j in corpus.jobs for sid in j.skills}
    assert catalog_keys.isdisjoint(job_keys)
    assert shared_names(corpus) == set()


def test_alignment_fraction_respected(tmp_path):
    n_skills = 40
    corpus = generate_synthetic_corpus(9, 30, 10, n_skills, 0.3, tmp_path)
    assert len(shared_names(corpus)) == round(0.3 * n_skills)


def test_outputs_load_through_ingest(tmp_path):
    corpus = generate_synthetic_corpus(3, 15, 6, 12, 0.4, tmp_path)
    courses = load_courses(corpus.paths["courses"])
    skills = load_skills(corpus.paths["skills"])
    jobs = load_jobs(corpus.paths["jobs"])
    enrollments = load_enrollments(corpus.paths["enrollments"])
    assert len(courses) == 6 and len(jobs) == 15 and len(skills) == 12
    assert enrollments
    truth = load_judgments(corpus.paths["ground_truth"])
    topics = set(corpus.course_topic.values())
    assert set(truth) == {f"topic-{t}" for t in topics}
    # each topic goal's relevant courses are exactly that topic's courses
    for topic in topics:
        expected = {cid for cid, t in corpus.course_topic.items() if t == topic}
        assert truth[f"topic-{topic}"] == dict.fromkeys(expected, True)


def test_descriptions_carry_matchable_skills(tmp_path):
    corpus = generate_synthetic_corpus(4, 10, 6, 12, 0.5, tmp_path)
    matched = apply_skill_matching(corpus.courses, corpus.skills)
    assert all(c.skills for c in matched)
    name_by_id = {s.id: s.name for s in corpus.skills}
    # matched skills come from the course's own topic vocabulary
    for course in matched:
        topic = corpus.course_topic[course.id]
        for sid in course.skills:
            tokens = name_by_id[sid].split()
            assert all(t in course.description for t in tokens)
        assert topic == corpus.course_topic[course.id]


def test_enrollments_follow_topic_chains(tmp_path):
    corpus = generate_synthetic_corpus(6, 10, 9, 12, 0.5, tmp_path, n_topics=3)
    by_student: dict[str, list] = {}
    for rec in corpus.enrollments:
        by_student.setdefault(rec.student, []).append(rec)
    for recs in by_student.values():
        topics = {corpus.course_topic[r.course] for r in recs}
        assert len(topics) == 1
        recs.sort(key=lambda r: r.term)
        terms = [r.term for r in recs]
        assert terms == sorted(set(terms))


def test_job_titles_carry_topic_tag(tmp_path):
    corpus = generate_synthetic_corpus(8, 12, 6, 12, 0.5, tmp_path, n_topics=3)
    for job in corpus.jobs:
        assert job.title.startswith(f"topic-{corpus.job_topic[job.id]} ")


def test_invalid_sizes_rejected(tmp_path):
    with pytest.raises(EvalError):
        generate_synthetic_corpus(0, 0, 5, 5, 0.5, tmp_path)
    with pytest.raises(EvalError):
        generate_synthetic_corpus(0, 5, 5, 5, 1.5, tmp_path)
