"""Fixtures that more than one test module reads."""
from __future__ import annotations

import contextlib
import io
import types

import pytest

from skillgraph import cli
from skillgraph.synth import generate_synthetic_corpus


@pytest.fixture(scope="session")
def query_m_pipeline(tmp_path_factory):
    """A corpus shaped as perfbench's ``query-m``, ``synth --seed 3``
    2000/300/800 at alignment 0.3, run through ``ingest``, ``build``,
    ``communities --seed 3`` and ``link --dump-links``: the output directory
    ``out``, and each course's topic from the generator, ``course_topic``.
    Readers must not write to ``out``."""
    tmp = tmp_path_factory.mktemp("query_m")
    data, out = tmp / "data", tmp / "out"
    corpus = generate_synthetic_corpus(3, 2000, 300, 800, 0.3, data)  # what synth runs
    stages = [["ingest", "--courses", str(data / "courses.csv"), "--jobs",
               str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
               "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
              ["build", "--out", str(out)],
              ["communities", "--out", str(out), "--seed", "3"],
              ["link", "--out", str(out), "--dump-links"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in stages:
            assert cli.main(argv) == 0, argv
    return types.SimpleNamespace(out=out, course_topic=corpus.course_topic)
