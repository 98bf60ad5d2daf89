"""The compiled snapshot codec against the Python one.

``kernels.snapshot_codec`` loads ``_snapshot.c``, whose ``scan`` and
``write`` the snapshot reader and writer try first, and whose ``add_rows``
installs every graph row it takes. Where it runs, it must give what the
Python codec gives: the same bytes, the same node order, the same rows in
the same insertion order and the same float bits. On input it does not
take, it returns None (or False), having written nothing, or hands the row
back, and the Python codec runs, so every message is the Python one's.
Tests that call the compiled functions themselves are skipped where the
codec does not load.
"""
from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skillgraph import cli, graph, kernels, synth
from skillgraph.errors import GraphError
from skillgraph.graph import (RELATION_SIGNATURE, HeteroGraph, NodeKind, Relation, _read_rows,
                              _snapshot_text, read_snapshot, write_snapshot)

CODEC = kernels.snapshot_codec()
needs_codec = pytest.mark.skipif(CODEC is None, reason="the snapshot codec does not build here")


@pytest.fixture
def python_codec(monkeypatch):
    """A function that runs its argument with the Python codec alone."""

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(kernels, "snapshot_codec", lambda: None)
            return fn(*args)

    return run


def state(g: HeteroGraph):
    """Everything a read leaves in ``g``, in insertion order, with each row's
    and weight's type and each weight's bits."""
    return (list(g._kind.items()), list(g._name.items()),
            [(rel, [(source, type(row), [(t, type(w), float(w).hex()) for t, w in row.items()])
                    for source, row in rows.items()]) for rel, rows in g._out.items()])


def outcome(read, path):
    """``read(path)``'s graph state, or its error's type and message."""
    try:
        return state(read(path))
    except Exception as exc:  # the two codecs must fail alike, whatever the error
        return type(exc), str(exc)


def scanned_as_read_rows(path):
    """``_read_rows``' nodes and runs for the snapshot at ``path``, in the form
    the compiled ``scan`` returns, weights as bits."""
    g = HeteroGraph()
    sources, relations, rows = _read_rows(g, path)
    return ([*g._kind], [*g._kind.values()], sources, relations,
            [[(t, w.hex()) for t, w in row.items()] for row in rows])


def scanned(path):
    node_ids, kinds, sources, relations, rows = CODEC.scan(
        path, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE)
    # a node named twice is one node, as add_node keeps it
    return ([*dict.fromkeys(node_ids)], [*dict(zip(node_ids, kinds)).values()], sources,
            relations, [[(t, w.hex()) for t, w in row.items()] for row in rows])


def assert_codecs_agree(g: HeteroGraph, tmp_path, python_codec):
    """``g`` written by both codecs gives the same bytes, and those bytes read
    by both give the same graph, or the same error."""
    c_path, py_path = tmp_path / "c.graph", tmp_path / "py.graph"
    write_snapshot(g, c_path)
    python_codec(write_snapshot, g, py_path)
    assert c_path.read_bytes() == py_path.read_bytes()
    assert outcome(read_snapshot, c_path) == python_codec(outcome, read_snapshot, c_path)
    if CODEC is not None and CODEC.scan(c_path, graph._KIND_BY_VALUE,
                                        graph._RELATION_BY_VALUE) is not None:
        assert scanned(c_path) == scanned_as_read_rows(c_path)


@pytest.fixture(scope="module")
def pipeline_snapshots(tmp_path_factory):
    """The snapshots a synth pipeline writes at three corpus shapes."""
    paths = []
    for seed, jobs, courses, skills, alignment in ((7, 200, 40, 80, 0.3), (3, 60, 15, 40, 0.0),
                                                   (5, 400, 60, 150, 0.6)):
        root = tmp_path_factory.mktemp(f"pipeline{seed}")
        data, out = root / "data", root / "out"
        synth.generate_synthetic_corpus(seed, jobs, courses, skills, alignment, data)
        for argv in (["ingest", "--courses", str(data / "courses.csv"),
                      "--jobs", str(data / "jobs.csv"), "--skills", str(data / "skills.csv"),
                      "--enrollments", str(data / "enrollments.csv"), "--out", str(out)],
                     ["build", "--out", str(out)],
                     ["communities", "--out", str(out), "--seed", "3"],
                     ["link", "--out", str(out)]):
            assert cli.main(argv) == 0
        paths += sorted(out.glob("*.graph"))
    return paths


class TestParity:
    def test_pipeline_snapshots_read_and_write_alike(self, pipeline_snapshots, tmp_path,
                                                     python_codec):
        assert len(pipeline_snapshots) == 12
        for path in pipeline_snapshots:
            c_graph = read_snapshot(path)
            py_graph = python_codec(read_snapshot, path)
            assert state(c_graph) == state(py_graph), path
            text = "".join(_snapshot_text(py_graph)).encode()
            assert path.read_bytes() == text, path
            rewritten = tmp_path / path.name
            write_snapshot(c_graph, rewritten)
            assert rewritten.read_bytes() == text, path

    @needs_codec
    def test_pipeline_snapshots_scan_as_read_rows(self, pipeline_snapshots):
        for path in pipeline_snapshots:
            assert scanned(path) == scanned_as_read_rows(path), path

    @needs_codec
    def test_every_pipeline_snapshot_is_taken(self, pipeline_snapshots, tmp_path):
        # the pipeline's own snapshots never fall back to the Python codec
        for path in pipeline_snapshots:
            assert CODEC.scan(path, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE) is not None
            g = read_snapshot(path)
            assert CODEC.write(tmp_path / "g.graph", g._kind, g._out, graph._VALUE) is True

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(st.text(st.sampled_from("ab %!205é中"), min_size=1, max_size=6),
                        min_size=2, max_size=12, unique=True),
           data=st.data())
    def test_drawn_graphs_read_and_write_alike(self, tmp_path, python_codec, ids, data):
        # ids with spaces, '%' (some spelling '%20' or '%25'), '!' and text
        # beyond ASCII, which the compiled codec hands to the Python one
        g = HeteroGraph()
        kinds = [data.draw(st.sampled_from(list(NodeKind))) for _ in ids]
        for node_id, kind in zip(ids, kinds):
            g.add_node(node_id, kind)
        for relation, (src_kind, dst_kind) in graph.RELATION_SIGNATURE.items():
            targets = [i for i, k in zip(ids, kinds) if k is dst_kind]
            for source in [i for i, k in zip(ids, kinds) if k is src_kind]:
                row = data.draw(st.lists(st.sampled_from(targets), unique=True)) if targets else []
                raws = [data.draw(st.floats(0.01, 1.0)) for _ in row]
                g.add_row(source, relation, {t: raw / sum(raws) for t, raw in zip(row, raws)})
        assert_codecs_agree(g, tmp_path, python_codec)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(weights=st.lists(st.floats(min_value=5e-324, max_value=1.7e308), min_size=1,
                            max_size=8))
    def test_drawn_weights_keep_their_bits(self, tmp_path, python_codec, weights):
        # any positive finite weight, formatted and parsed: the rows need not
        # sum to 1, so a read may fail, and must then fail alike
        g = HeteroGraph()
        g.add_node("J", NodeKind.JOB)
        row = {}
        for i, w in enumerate(weights):
            g.add_node(f"S{i}", NodeKind.SKILL)
            row[f"S{i}"] = w
        g.add_row("J", Relation.REQUIRED, row)
        assert_codecs_agree(g, tmp_path, python_codec)
        if CODEC is not None:
            assert scanned(tmp_path / "c.graph")[4] == [[(t, w.hex()) for t, w in row.items()]]

    @needs_codec
    def test_runs_end_where_the_python_reader_ends_them(self, tmp_path):
        # a node line, another source or relation, and a target seen twice
        # each start a run
        p = tmp_path / "g.graph"
        p.write_text("N J1 job\nN S1 skill\nN S2 skill\nE J1 r S1 0.5\nE J1 r S2 0.5\n"
                     "N J2 job\nE J1 r S1 1\nE J2 r S1 1\nE J2 r S1 1\nE S1 l S2 1\n"
                     "E S1 l S2 1\nE S1 l S1 1\n")
        assert scanned(p) == scanned_as_read_rows(p)
        assert [len(row) for row in scanned(p)[4]] == [2, 1, 1, 1, 1, 2]

    def test_empty_graph(self, tmp_path, python_codec):
        assert_codecs_agree(HeteroGraph(), tmp_path, python_codec)
        assert (tmp_path / "c.graph").read_bytes() == b"\n"


class TestBail:
    """Input the compiled codec hands to the Python one: the result, graph or
    error, is the same with the codec on and off."""

    @pytest.mark.parametrize("text", [
        pytest.param(b"N J1 job\r\nN S1 skill\r\nE J1 r S1 1\r\n", id="crlf"),
        pytest.param(b"N J1 job\n\nN S1 skill\nE J1 r S1 1\n", id="blank line"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 1", id="no last line end"),
        pytest.param("N J1 job\nN café skill\nE J1 r café 1\n".encode(), id="non-ascii"),
        pytest.param(b"N J1 job\nN S\t1 skill\nE J1 r S\t1 1\n", id="tab"),
        pytest.param(b"N J1 job\nN S%411 skill\nE J1 r S%411 1\n", id="percent"),
        pytest.param(b"N J1 job\nN S1% skill\nE J1 r S1% 1\n", id="percent at end"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 1_0\n", id="underscore"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 inf\n", id="inf"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 nan\n", id="nan"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 1e400\n", id="overflow"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 \n", id="empty weight"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 x S1 1\n", id="bad relation"),
        pytest.param(b"N J1 job\nN S1 skill\nX junk\n", id="bad line"),
        pytest.param(b"N J1 job\nN S1 skill\nE J1 r S1 1 2\n", id="six fields"),
    ])
    def test_scan_hands_over(self, tmp_path, python_codec, text):
        p = tmp_path / "g.graph"
        p.write_bytes(text)
        if CODEC is not None:
            assert CODEC.scan(p, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE) is None
        assert outcome(read_snapshot, p) == python_codec(outcome, read_snapshot, p)

    def test_unopenable_path(self, tmp_path, python_codec):
        p = tmp_path / "missing.graph"
        if CODEC is not None:
            assert CODEC.scan(p, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE) is None
            assert CODEC.scan(tmp_path, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE) is None
        for path in (p, tmp_path):
            got = outcome(read_snapshot, path)
            assert got[0] is GraphError and got == python_codec(outcome, read_snapshot, path)

    @pytest.mark.parametrize("text, message", [
        (b"N J1 job\nN S1 skill\nN J1 skill\n", "line 3: node id 'J1' used as both job and skill"),
        (b"N J1 job\nN S1 skill\nE J1 r S1 0\n", "line 3: edge J1-r->S1 has non-positive"),
        (b"N J1 job\nN S1 skill\nE J1 r S1 0.5\n", "outgoing r-weights of 'J1' sum to 0.5"),
    ])
    def test_faults_in_taken_input_name_the_python_line(self, tmp_path, python_codec, text,
                                                        message):
        # the scan takes these; add_node, add_rows or validate then fails,
        # and the message is the Python reader's
        p = tmp_path / "g.graph"
        p.write_bytes(text)
        if CODEC is not None:
            assert CODEC.scan(p, graph._KIND_BY_VALUE, graph._RELATION_BY_VALUE) is not None
        got = outcome(read_snapshot, p)
        assert got[0] is GraphError and message in got[1]
        assert got == python_codec(outcome, read_snapshot, p)

    @pytest.mark.parametrize("node_id", ["café", "a\tb", "a\x7fb", "中"])
    def test_write_hands_over_ids_beyond_printable_ascii(self, tmp_path, python_codec, node_id):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node(node_id, NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, node_id, 1.0)
        if CODEC is not None:
            assert CODEC.write(tmp_path / "x.graph", g._kind, g._out, graph._VALUE) is False
            assert not (tmp_path / "x.graph").exists()
        assert_codecs_agree(g, tmp_path, python_codec)

    @pytest.mark.parametrize("node_id", ["", "a\nb", "a\rb", "a\u2028b", "\ud800"])
    def test_write_of_an_id_no_snapshot_holds_leaves_no_file(self, tmp_path, python_codec,
                                                             node_id):
        g = HeteroGraph()
        g.add_node(node_id, NodeKind.SKILL)
        if CODEC is not None:
            assert CODEC.write(tmp_path / "x.graph", g._kind, g._out, graph._VALUE) is False
        for run in (lambda f, *a: f(*a), python_codec):
            with pytest.raises(GraphError, match="cannot be written to a snapshot"):
                run(write_snapshot, g, tmp_path / "x.graph")
            assert not (tmp_path / "x.graph").exists()

    def test_write_hands_over_a_weight_that_is_no_float(self, tmp_path, python_codec):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        g.add_node("S1", NodeKind.SKILL)
        g.add_edge("J1", Relation.REQUIRED, "S1", 1)
        if CODEC is not None:
            assert CODEC.write(tmp_path / "x.graph", g._kind, g._out, graph._VALUE) is False
            assert not (tmp_path / "x.graph").exists()
        assert_codecs_agree(g, tmp_path, python_codec)
        assert (tmp_path / "c.graph").read_bytes() == b"E J1 r S1 1\nN J1 job\nN S1 skill\n"

    def test_write_to_an_unopenable_path(self, tmp_path, python_codec):
        g = HeteroGraph()
        g.add_node("J1", NodeKind.JOB)
        p = tmp_path / "missing" / "g.graph"
        if CODEC is not None:
            assert CODEC.write(p, g._kind, g._out, graph._VALUE) is False
        errors = []
        for run in (lambda f, *a: f(*a), python_codec):
            with pytest.raises(OSError) as exc:
                run(write_snapshot, g, p)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]
        assert not os.path.exists(tmp_path / "missing")


def test_weight_text_matches_format_on_drawn_doubles(tmp_path):
    # the writer formats with the function format(w, ".17g") calls
    if CODEC is None:
        pytest.skip("the snapshot codec does not build here")
    import random

    rng = random.Random(4)
    weights = [abs(rng.uniform(-1e3, 1e3)) or 1.0 for _ in range(500)]
    weights += [math.ldexp(rng.random() or 0.5, rng.randint(-1070, 1020)) for _ in range(500)]
    weights += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17]
    g = HeteroGraph()
    g.add_node("J", NodeKind.JOB)
    row = {}
    for i, w in enumerate(weights):
        g.add_node(f"S{i:04d}", NodeKind.SKILL)
        row[f"S{i:04d}"] = w
    g.add_row("J", Relation.REQUIRED, row)
    p = tmp_path / "g.graph"
    assert CODEC.write(p, g._kind, g._out, graph._VALUE) is True
    lines = p.read_text().splitlines()[:len(weights)]
    assert lines == [f"E J r S{i:04d} {w:.17g}" for i, w in enumerate(weights)]


# ---------------------------------------------------------------------------
# graph rows: the compiled add_rows against HeteroGraph._add_rows_python
# ---------------------------------------------------------------------------

class Row(dict):
    """A row that is not an exact dict, which the compiled add_rows hands back."""


def graph_of(nodes) -> HeteroGraph:
    g = HeteroGraph()
    for node_id, kind in nodes:
        g.add_node(node_id, kind)
    return g


def rows_of(batch):
    """The rows of ``batch``, each a fresh dict (or ``Row``), made as pulled."""
    return ((source, relation, make(entries)) for source, relation, entries, make in batch)


def added(nodes, batch):
    """A graph of ``nodes`` after ``_add_rows`` of ``batch``: its state or the
    error, then its state and version either way, so that a fault shows the
    rows kept before it."""
    g = graph_of(nodes)

    def add(rows):
        g._add_rows(rows)
        return g
    return outcome(add, rows_of(batch)), state(g), g._version


_POOL = ["C0", "C1", "J0", "J1", "S0", "S1", "S2", "a b"]
_FAULTS = {
    "zero": 0.0, "negative": -0.5, "nan": math.nan, "inf": math.inf, "int": 1, "int zero": 0,
    "bool": True, "numpy": np.float64(0.5), "overflowing sum": 1e308,
}


@st.composite
def batches(draw):
    """Nodes, and a batch of rows that mixes good rows with each fault: a bad
    weight or one of another type, a source or target of the wrong kind or no
    node, a target already in its source's row, an empty row and a dict
    subclass."""
    nodes = draw(st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(NodeKind)),
                          min_size=2, max_size=8, unique_by=lambda node: node[0]))
    batch = []
    for _ in range(draw(st.integers(1, 8))):
        relation = draw(st.sampled_from(Relation))
        src_kind, dst_kind = RELATION_SIGNATURE[relation]
        of_kind = {kind: [i for i, k in nodes if k is kind] or ["ghost"] for kind in NodeKind}
        source = draw(st.sampled_from(of_kind[src_kind]))
        targets = draw(st.lists(st.sampled_from(of_kind[dst_kind]), min_size=1, max_size=3,
                                unique=True))
        entries = [(t, draw(st.floats(0.01, 1.0))) for t in targets]
        make = dict
        fault = draw(st.sampled_from([None] * 6 + [*_FAULTS, "source kind", "target kind",
                                                    "unknown", "repeat", "empty", "subclass"]))
        at = draw(st.integers(0, len(entries) - 1))
        if fault in _FAULTS:
            entries[at] = (entries[at][0], _FAULTS[fault])
        elif fault == "source kind":
            source = draw(st.sampled_from([i for i, k in nodes if k is not src_kind] or ["ghost"]))
        elif fault == "target kind":
            wrong = [i for i, k in nodes if k is not dst_kind and i not in targets] or ["ghost"]
            entries.insert(at, (draw(st.sampled_from(wrong)), 0.5))
        elif fault == "unknown":
            entries[at] = ("ghost", entries[at][1])
        elif fault == "repeat" and batch:
            source, relation, earlier, _make = draw(st.sampled_from(batch))
            entries = earlier[:1] + [e for e in entries if e[0] != earlier[0][0]] if earlier else []
        elif fault == "empty":
            entries = []
        elif fault == "subclass":
            make = Row
        batch.append((source, relation, entries, make))
    return nodes, batch


class TestAddRows:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=batches())
    def test_drawn_batches_add_alike(self, python_codec, drawn):
        nodes, batch = drawn
        assert added(nodes, batch) == python_codec(added, nodes, batch)

    @needs_codec
    @pytest.mark.parametrize("fault, row", [
        *[(name, {"S0": 0.5, "S1": w}) for name, w in _FAULTS.items() if name != "overflowing sum"],
        ("source kind", {"S0": 1.0}), ("target kind", {"J1": 1.0}), ("unknown", {"ghost": 1.0}),
        ("repeat", {"S0": 0.5, "S1": 0.5}), ("subclass", Row(S1=1.0)),
    ])
    def test_each_fault_is_handed_back(self, fault, row):
        # J1's row goes in; the next row, J0's (S0's for a wrong source kind
        # and J1's for a repeat), is handed back, and the rows after it go in
        # on the next call
        g = graph_of([(f"J{i}", NodeKind.JOB) for i in range(3)]
                     + [("S0", NodeKind.SKILL), ("S1", NodeKind.SKILL)])
        source = {"source kind": "S0", "repeat": "J1"}.get(fault, "J0")
        rows = iter([("J1", Relation.REQUIRED, {"S1": 1.0}), (source, Relation.REQUIRED, row),
                     ("J2", Relation.REQUIRED, {"S0": 1.0})])
        installed, back = CODEC.add_rows(g._kind, g._out, rows, RELATION_SIGNATURE)
        assert installed == 1 and back == ((source, Relation.REQUIRED, row),)
        assert CODEC.add_rows(g._kind, g._out, rows, RELATION_SIGNATURE) == (1, None)
        assert g._out[Relation.REQUIRED] == {"J1": {"S1": 1.0}, "J2": {"S0": 1.0}}

    @pytest.mark.parametrize("item", [
        ["J0", Relation.REQUIRED, {"S0": 1.0}], ("J0", Relation.REQUIRED), ("J0", "r", {"S0": 1.0}),
        None, GraphError("not a row"),
    ])
    def test_an_empty_row_and_items_of_other_shapes(self, python_codec, item):
        # an empty row adds nothing; a list, a short tuple, an unknown
        # relation, None and an error object are handed back, and the Python
        # body adds or raises on them
        nodes = [("J0", NodeKind.JOB), ("S0", NodeKind.SKILL)]
        if CODEC is not None:
            g = graph_of(nodes)
            rows = iter([("J0", Relation.REQUIRED, {}), item])
            assert CODEC.add_rows(g._kind, g._out, rows, RELATION_SIGNATURE) == (0, (item,))
            assert g._out[Relation.REQUIRED] == {}

        def add(rows):
            g = graph_of(nodes)
            g._add_rows(rows)
            return g
        got = outcome(add, [("J0", Relation.REQUIRED, {}), item])
        assert got == python_codec(outcome, add, [("J0", Relation.REQUIRED, {}), item])

    def test_a_valid_row_handed_back_mid_batch_goes_in_and_the_rest_follow(self, python_codec):
        nodes = [(f"J{i}", NodeKind.JOB) for i in range(4)] + [("S0", NodeKind.SKILL),
                                                                ("S1", NodeKind.SKILL)]
        batch = [("J0", Relation.REQUIRED, [("S0", 0.5), ("S1", 0.5)], dict),
                 ("J1", Relation.REQUIRED, [("S1", 1)], dict),
                 ("J2", Relation.REQUIRED, [("S1", 0.25), ("S0", 0.75)], dict),
                 ("J3", Relation.REQUIRED, [("S0", 1.0)], dict)]
        if CODEC is not None:
            g = graph_of(nodes)
            rows = rows_of(batch)
            installed, back = CODEC.add_rows(g._kind, g._out, rows, RELATION_SIGNATURE)
            assert installed == 1 and back == (("J1", Relation.REQUIRED, {"S1": 1}),)
        got = added(nodes, batch)
        assert got == python_codec(added, nodes, batch)
        assert got[2] == graph_of(nodes)._version + 4
        assert [(source, [(t, tp) for t, tp, _bits in row]) for source, _type, row
                in got[1][2][2][1]] == [("J0", [("S0", float), ("S1", float)]),
                                        ("J1", [("S1", int)]),
                                        ("J2", [("S1", float), ("S0", float)]),
                                        ("J3", [("S0", float)])]

    @pytest.mark.parametrize("clash", [False, True])
    def test_a_generator_that_adds_nodes_between_rows(self, python_codec, clash):
        # as build_education_graph's covered() does: each course's skill nodes
        # come just before its row. With a clash, adding a node raises inside
        # the generator; the rows before it stay, and the version counts them
        def build():
            g = HeteroGraph()

            def rows():
                for i in range(5):
                    g.add_node(f"C{i}", NodeKind.COURSE)
                    skills = [f"S{i}", f"S{i + 1}"]
                    for sid in skills:
                        if g._kind.get(sid) is not NodeKind.SKILL:
                            g.add_node(sid, NodeKind.SKILL)
                    if clash and i == 3:
                        g.add_node("C0", NodeKind.SKILL)
                    yield f"C{i}", Relation.COVERED, dict.fromkeys(skills, 0.5)
            try:
                g._add_rows(rows())
                error = None
            except GraphError as exc:
                error = str(exc)
            return error, state(g), g._version

        got = build()
        assert got == python_codec(build)
        assert got[0] == ("node id 'C0' used as both course and skill" if clash else None)
        assert len(got[1][2][1][1]) == (3 if clash else 5)
