"""The one number rule, ``errors.parse_number``, as every file reader applies it.

Every number form the program writes reads back exactly, and every reader
rejects the same malformed forms with its own message.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillgraph.community import read_labels, write_labels
from skillgraph.config import parse_config_text
from skillgraph.errors import (CommunityError, ConfigError, EvalError, GraphError, IngestError,
                               parse_number)
from skillgraph.graph import HeteroGraph, NodeKind, Relation, read_snapshot, write_snapshot
from skillgraph.ingest import load_enrollments
from skillgraph.metrics import load_runs
from skillgraph.ranker import RankedList, format_ranked_list

from oracles import out_edges


class TestParseNumber:
    @pytest.mark.parametrize("text, kind, value", [
        ("0", int, 0), ("-0", int, 0), ("007", int, 7), ("-12", int, -12),
        (str(2 ** 80), int, 2 ** 80),
        ("0.5", float, 0.5), ("+3", float, 3.0), ("-1e-05", float, -1e-05),
        ("1E+20", float, 1e20), ("5e-324", float, 5e-324),
    ])
    def test_plain_ascii_forms_parse(self, text, kind, value):
        got = parse_number(text, kind)
        assert type(got) is kind and got == value

    @pytest.mark.parametrize("kind", [int, float])
    @pytest.mark.parametrize("text", ["", "-", "1_0", " 3", "3 ", "٣", "１", "0.5\t",
                                      "3\n", "0x10", "--3"])
    def test_other_forms_give_none(self, text, kind):
        assert parse_number(text, kind) is None

    def test_int_needs_digits_only(self):
        for text in ("+3", "3.0", "1e3", "nan"):
            assert parse_number(text, int) is None

    def test_int_past_the_digit_limit_gives_none(self):
        assert parse_number("1" * 5000, int) is None

    def test_non_finite_floats_are_left_to_the_caller(self):
        assert parse_number("inf", float) == float("inf")
        assert parse_number("1e400", float) == float("inf")


# ---------------------------------------------------------------------------
# every written form reads back exactly
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1.0, exclude_max=True))
@example(5e-324)
@example(1e-05)
@example(0.1)
def test_snapshot_weight_round_trip(tmp_path_factory, weight):
    g = HeteroGraph()
    for node_id in ("S1", "S2"):
        g.add_node(node_id, NodeKind.SKILL)
    g.add_node("J1", NodeKind.JOB)
    g.add_edge("J1", Relation.REQUIRED, "S1", weight)
    g.add_edge("J1", Relation.REQUIRED, "S2", 1.0 - weight)
    path = tmp_path_factory.mktemp("snap") / "g.graph"
    write_snapshot(g, path)
    back = read_snapshot(path)
    assert out_edges(back, "J1", Relation.REQUIRED) == out_edges(g, "J1", Relation.REQUIRED)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=1, max_size=8))
@example([5e-324, 1e-05, 1e20, 0.1])
def test_run_score_round_trip(tmp_path_factory, scores):
    entries = tuple((f"n{i}", s) for i, s in enumerate(sorted(scores, reverse=True)))
    lines = format_ranked_list(RankedList(entries, "q", "scenario-1")).splitlines()
    for line in lines[1:]:
        score = line.rsplit(",", 1)[1]
        assert parse_number(score, float) == float(score)
    # a recommend list keyed by its query, as in the README walkthrough
    path = tmp_path_factory.mktemp("runs") / "r.csv"
    path.write_text("\n".join(["query_id," + lines[0]] + ["q," + line for line in lines[1:]]))
    assert load_runs(path) == {"q": [node_id for node_id, _ in entries]}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-(2 ** 200), max_value=2 ** 200))
@example(-1)
@example(2 ** 63)
@example(2 ** 64 + 1)
def test_label_round_trip(tmp_path_factory, label):
    path = tmp_path_factory.mktemp("labels") / "l.csv"
    write_labels(path, {"a": label, "b": 0})
    assert dict(read_labels(path)) == {"a": label, "b": 0}


# ---------------------------------------------------------------------------
# every reader rejects the same malformed forms, with its own message
# ---------------------------------------------------------------------------

def _labels(tmp_path, value):
    path = tmp_path / "l.csv"
    path.write_text(f"node_id,community\na,{value}\n", encoding="utf-8")
    with pytest.raises(CommunityError) as err:
        read_labels(path)
    return str(err.value), f"{path}: row 1: community {value!r} is not an integer"


def _run_rank(tmp_path, value):
    path = tmp_path / "r.csv"
    path.write_text(f"query_id,rank,node_id,score\nq,{value},a,1\n", encoding="utf-8")
    with pytest.raises(EvalError) as err:
        load_runs(path)
    return str(err.value), f"{path}: row 1: bad rank {value!r}"


def _run_score(tmp_path, value):
    path = tmp_path / "r.csv"
    path.write_text(f"query_id,rank,node_id,score\nq,1,a,{value}\n", encoding="utf-8")
    with pytest.raises(EvalError) as err:
        load_runs(path)
    return str(err.value), f"{path}: row 1: bad score {value!r}"


def _snapshot_weight(tmp_path, value):
    path = tmp_path / "g.graph"
    line = f"E J1 r S1 {value}"
    path.write_text(f"N J1 job\nN S1 skill\n{line}\n", encoding="utf-8")
    with pytest.raises(GraphError) as err:
        read_snapshot(path)
    # the space is the field separator, so a weight with a space is no edge line
    if " " in value:
        return str(err.value), f"{path}: line 3: unparseable snapshot line {line!r}"
    return str(err.value), f"{path}: line 3: bad edge weight {value!r}"


def _config(key, kind_name):
    def read(_tmp_path, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = {value}\n")
        return str(err.value), f"config key {key!r}: {value!r} is not {kind_name}"
    return read


def _term(tmp_path, value):
    path = tmp_path / "e.csv"
    path.write_text(f"student,course,term\ns1,C1,{value}\n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        load_enrollments(path)
    return str(err.value), f"{path}: row 1: term {value!r} is not an integer"


READERS = {
    "labels": (_labels, int),
    "run-rank": (_run_rank, int),
    "run-score": (_run_score, float),
    "snapshot-weight": (_snapshot_weight, float),
    "config-int": (_config("seed", "an int"), int),
    "config-float": (_config("bm25_k1", "a float"), float),
    "term": (_term, int),
}
FORMS = ["1_0", " 3", "3 ", "+3", "٣", "１", "0.5\t"]
# a config line is ``key = value`` with the value stripped, so there the
# surrounding whitespace belongs to the line, not to the number
CASES = [(reader, form) for reader, (_, kind) in READERS.items() for form in FORMS
         if not (form == "+3" and kind is float)
         and not (reader.startswith("config") and form != form.strip())]


@pytest.mark.parametrize("reader, form", CASES)
def test_malformed_number_rejected(tmp_path, reader, form):
    message, expected = READERS[reader][0](tmp_path, form)
    assert message == expected
