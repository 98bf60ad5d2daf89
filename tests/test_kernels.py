"""Kernel checks that the pipeline-level oracles do not cover."""
from __future__ import annotations

import importlib.machinery
import os
import platform
import shutil
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillgraph import kernels
from skillgraph.community import FlowGraph, _neighbours, detect_communities
from skillgraph.graph import HeteroGraph, NodeKind, Relation, read_snapshot, write_snapshot

from oracles import random_hetero_graph

CODEC = kernels.snapshot_codec()
needs_codec = pytest.mark.skipif(CODEC is None,
                                 reason="the compiled extension does not build here")


def flow_fixture(seed=0):
    g, _ = random_hetero_graph(np.random.default_rng(seed))
    return FlowGraph.from_graph(g, 0.15), g


def run_move_pass(fg, order, labels=None):
    """``local_move_pass`` from ``labels`` (singletons by default), checked
    against the Python pass from the same start: each test that pins a move
    rule then holds both passes to it where the compiled pass runs."""
    if labels is None:
        labels = np.arange(fg.n_units, dtype=np.int64)
    args = (fg.visit, fg.tele, fg.size, fg.nbr, fg.module_state(labels, fg.n_units),
            float(fg.n_orig), 1e-10)
    python_labels = labels.copy()
    python_run = kernels._python_move_pass(order, python_labels, *args)
    moves, delta = kernels.local_move_pass(order, labels, *args)
    assert (moves, labels.tolist(), delta) == (
        python_run[0], python_labels.tolist(), python_run[1])
    return moves, labels, delta


def test_active_backend_registered():
    # the library perfbench names in each report, once a move pass has run
    fg, _g = flow_fixture()
    run_move_pass(fg, np.arange(fg.n_units, dtype=np.int64))
    assert kernels.ACTIVE_BACKEND == ("c" if kernels.snapshot_codec() else "python")


def test_local_move_delta_matches_cost_difference():
    # incremental bookkeeping equals from-scratch recomputation
    for seed in range(6):
        fg, _g = flow_fixture(seed + 20)
        before = fg.partition_cost(np.arange(fg.n_units, dtype=np.int64))
        order = np.random.default_rng(seed).permutation(fg.n_units).astype(np.int64)
        _moves, labels, delta = run_move_pass(fg, order)
        _, dense = np.unique(labels, return_inverse=True)
        after = fg.partition_cost(dense.astype(np.int64))
        assert after - before == pytest.approx(delta, abs=1e-9)
        assert delta <= 0.0


def random_flow_graph(rng, n):
    """``n`` units joined by random flows, a tenth of them with no visit."""
    visit = rng.dirichlet(np.ones(n))
    visit[rng.choice(n, size=n // 10, replace=False)] = 0.0
    m = 4 * n
    src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = src != dst
    nbr = _neighbours(src[keep], dst[keep], rng.uniform(0.0, 1.0 / m, size=int(keep.sum())), n)
    return FlowGraph(visit, 0.15 * visit, np.ones(n), nbr, n,
                     float(sum(kernels._plogp(v) for v in visit)))


@needs_codec
def test_local_move_pass_equals_reference_bit_for_bit():
    # the C pass keeps module code terms between visits; the Python pass
    # recomputes them, so every label, the move count and the delta agree
    # exactly, at level 0 and after one aggregation. A unit leaving a
    # singleton empties its module, whose exit term takes plogp's 0 branch
    rng = np.random.default_rng(5)
    graphs = [flow_fixture(seed)[0] for seed in range(8)]
    graphs += [random_flow_graph(rng, n) for n in (2, 3, 30, 200, 600)]
    for fg in graphs:
        level = fg
        for _level in range(2):
            order = rng.permutation(level.n_units).astype(np.int64)
            _moves, labels, _delta = run_move_pass(level, order)
            _, dense = np.unique(labels, return_inverse=True)
            level = level.aggregate(dense.astype(np.int64), int(dense.max()) + 1)


@st.composite
def flow_graphs(draw):
    """A small flow graph with some units unvisited and some with no
    neighbour, start labels, and an order that may be short and repeat units."""
    n = draw(st.integers(1, 12))
    visits = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
    visit = visits / visits.sum() if visits.sum() else np.full(n, 1.0 / n)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.floats(1e-4, 1.0)), max_size=3 * n))
    pairs = [(a, b, w) for a, b, w in pairs if a != b]
    src, dst, flow = (np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*pairs) if pairs else ((), (), ()), (np.int64, np.int64, float)))
    fg = FlowGraph(visit, 0.15 * visit, np.ones(n), _neighbours(src, dst, 0.1 * flow, n), n,
                   float(sum(kernels._plogp(v) for v in visit)))
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    order = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    return fg, labels, order


@needs_codec
@settings(max_examples=300, deadline=None)
@given(flow_graphs())
def test_move_passes_agree_on_drawn_graphs(case):
    fg, labels, order = case
    run_move_pass(fg, order, labels)


def test_equal_gains_move_to_lowest_module():
    # path 0-1-2 with equal flows: unit 1 gains the same joining either end,
    # and meets module 2 (unit 0) before module 0 (unit 2) in its neighbours;
    # its move queues unit 0, which then joins the same module, so the tie
    # decides the final label: all 0 here, all 2 had it gone to module 2
    visit = np.array([0.25, 0.5, 0.25])
    nbr = _neighbours(np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]), np.full(4, 0.2), 3)
    fg = FlowGraph(visit, 0.15 * visit, np.ones(3), nbr, 3,
                   float(sum(kernels._plogp(v) for v in visit)))
    labels = np.array([2, 1, 0], dtype=np.int64)
    moves, labels, delta = run_move_pass(fg, np.array([1], dtype=np.int64), labels)
    assert moves == 2
    assert delta < 0.0
    assert labels.tolist() == [0, 0, 0]


def test_labels_of_another_dtype_are_written_back():
    # int32 labels and a strided order give what int64 arrays give. They, a
    # float32 visit and a strided flow vector reach the Python pass, which
    # local_move_pass then equals bit for bit, the library still named
    fg = path_fixture(5)
    start = [0, 1, 2, 3, 4]
    want = move_from(fg, [1, 3], start)
    labels = np.array(start, dtype=np.int32)
    moves, _delta = kernels.local_move_pass(
        np.array([1, 0, 3, 0], dtype=np.int64)[::2], labels, fg.visit, fg.tele, fg.size,
        fg.nbr, fg.module_state(np.arange(5), 5), 5.0, 1e-10)
    assert (moves, labels.tolist()) == want
    assert labels.dtype == np.int32
    ptr, idx, out, inflow = fg.nbr
    for visit, nbr in ((fg.visit.astype(np.float32), fg.nbr),
                       (fg.visit, (ptr, idx, np.repeat(out, 2)[::2], inflow))):
        args = (visit, fg.tele, fg.size, nbr, fg.module_state(np.arange(5), 5), 5.0, 1e-10)
        labels, python_labels = np.arange(5), np.arange(5)
        moves, delta = kernels.local_move_pass(np.array([1, 3]), labels, *args)
        python_moves, python_delta = kernels._python_move_pass(np.array([1, 3]), python_labels,
                                                               *args)
        assert (moves, labels.tolist(), delta.hex()) == (
            python_moves, python_labels.tolist(), python_delta.hex())
        assert kernels.ACTIVE_BACKEND == ("c" if CODEC is not None else "python")


def path_fixture(n=4):
    """Path 0-1-...-(n-1) with equal visits and equal flows both ways on each edge."""
    visit = np.full(n, 1.0 / n)
    left = np.arange(n - 1)
    nbr = _neighbours(np.concatenate((left, left + 1)), np.concatenate((left + 1, left)),
                      np.full(2 * (n - 1), 0.1), n)
    return FlowGraph(visit, 0.15 * visit, np.ones(n), nbr, n,
                     float(sum(kernels._plogp(v) for v in visit)))


def move_from(fg, order, labels):
    moves, labels, _delta = run_move_pass(
        fg, np.array(order, dtype=np.int64), np.array(labels, dtype=np.int64))
    return moves, labels.tolist()


def test_unqueued_unit_keeps_label_while_neighbours_stay():
    # unit 3 could join unit 2, but only unit 0 is queued and it has no
    # other module to move to, so no neighbour of unit 3 ever moves
    fg = path_fixture()
    assert move_from(fg, [3], [0, 0, 2, 3]) == (1, [0, 0, 2, 2])
    assert move_from(fg, [0], [0, 0, 2, 3]) == (0, [0, 0, 2, 3])


def test_neighbour_move_queues_unit():
    # unit 1 joins module 0 and so queues unit 2, still in module 2, which
    # then moves although it was not in the order
    fg = path_fixture()
    assert move_from(fg, [1], [0, 1, 2, 3]) == (2, [0, 0, 3, 3])


def test_neighbour_in_new_module_not_requeued():
    # unit 1 joins module 0, where both its neighbours already are, so
    # neither is queued, although unit 2 would leave for unit 3's module
    fg = path_fixture()
    assert move_from(fg, [1], [0, 1, 0, 2]) == (1, [0, 0, 0, 2])
    assert move_from(fg, [2], [0, 0, 0, 2]) == (1, [0, 0, 2, 2])


def test_revisited_unit_weighs_every_neighbouring_module():
    # path 0-1-2-3-4: unit 2 first stays, then unit 3 leaves for unit 4's
    # module and queues it again; on that second visit joining {0, 1} or
    # {3, 4} gains the same, and module 0 must be weighed although no visit
    # in between touched it, so the tie goes to the lower id
    assert move_from(path_fixture(5), [2, 3], [0, 0, 1, 1, 2]) == (2, [0, 0, 0, 2, 2])


def bad_inputs():
    """``(name, args)`` of move-pass calls each with one index out of range."""
    fg = path_fixture()
    labels = np.arange(4, dtype=np.int64)
    ptr, idx, out, inflow = fg.nbr

    def call(order=np.arange(4), labels=labels, nbr=fg.nbr, visit=fg.visit):
        return (np.asarray(order), labels.copy(), visit, fg.tele, fg.size,
                nbr, fg.module_state(np.arange(4), 4), 4.0, 1e-10)

    bad_ptr = ptr.copy()
    bad_ptr[-1] += 1
    falling = ptr.copy()
    falling[1], falling[2] = falling[2], falling[1]
    return [
        ("order past the units", call(order=[0, 4])),
        ("negative order", call(order=[-1])),
        ("label past the units", call(labels=np.array([0, 1, 2, 4]))),
        ("negative label", call(labels=np.array([0, -1, 2, 3]))),
        ("neighbour past the units", call(nbr=(ptr, np.where(idx == 3, 9, idx), out, inflow))),
        ("negative neighbour", call(nbr=(ptr, np.where(idx == 0, -1, idx), out, inflow))),
        ("pointer past the neighbours", call(nbr=(bad_ptr, idx, out, inflow))),
        ("falling pointer", call(nbr=(falling, idx, out, inflow))),
        ("short visit", call(visit=fg.visit[:3])),
        ("float order", call(order=[0.0, 1.0])),
    ]


@pytest.mark.parametrize("name, args", bad_inputs(), ids=[name for name, _ in bad_inputs()])
def test_bad_index_raises_before_either_pass(name, args):
    with pytest.raises(ValueError, match="move pass"):
        kernels.local_move_pass(*args)


@pytest.fixture
def fresh_build(monkeypatch, tmp_path):
    """The compiled extension resolved anew, with its cache under
    ``tmp_path``; yields the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "ACTIVE_BACKEND", kernels.ACTIVE_BACKEND)
    kernels.snapshot_codec.cache_clear()
    yield tmp_path / "skillgraph"
    kernels.snapshot_codec.cache_clear()


@pytest.fixture(scope="session")
def built_library(tmp_path_factory):
    """The extension compiled once for the session's cache tests; ``None``
    where it does not build."""
    path = tmp_path_factory.mktemp("built") / "snapshot.so"
    return path if kernels._build(str(path), kernels._CODEC_SOURCE.read_bytes()) else None


@pytest.fixture
def prebuilt(fresh_build, built_library, monkeypatch):
    """``fresh_build`` whose compiler runs are a stand-in that copies the
    session's library to the ``-o`` target: the cache directory, the
    temporary file, its rename and the key still run for real. As the
    compiler would, the stand-in fails where none is found or it built none."""
    def compile_copy(command, **kwargs):
        if shutil.which(command[0]) is None:
            raise FileNotFoundError(command[0])
        if built_library is None:
            raise subprocess.CalledProcessError(1, command)
        shutil.copyfile(built_library, command[command.index("-o") + 1])
        return subprocess.CompletedProcess(command, 0)

    monkeypatch.setattr(subprocess, "run", compile_copy)
    return fresh_build


def fails_if_run(*args, **kwargs):
    raise AssertionError(f"compiler ran: {args[0]!r}")


def round_trip(tmp_path):
    """A small graph written and read back: the snapshot's bytes and the graph."""
    g = HeteroGraph()
    for node_id, kind in (("J1", NodeKind.JOB), ("a b", NodeKind.SKILL),
                          ("100%", NodeKind.SKILL)):
        g.add_node(node_id, kind)
    g.add_row("J1", Relation.REQUIRED, {"a b": 2 / 3, "100%": 1 / 3})
    path = tmp_path / "g.graph"
    write_snapshot(g, path)
    back = read_snapshot(path)
    rows = back._out[Relation.REQUIRED]
    return path.read_bytes(), [(source, list(row.items())) for source, row in rows.items()]


ROUND_TRIP = (b"E J1 r 100%25 0.33333333333333331\nE J1 r a%20b 0.66666666666666663\n"
              b"N 100%25 skill\nN J1 job\nN a%20b skill\n",
              [("J1", [("100%", 1 / 3), ("a b", 2 / 3)])])


def test_without_compiler_python_pass_runs(prebuilt, monkeypatch, tmp_path):
    g, _ = random_hetero_graph(np.random.default_rng(11))
    fg = FlowGraph.from_graph(g, 0.15)
    order = np.random.default_rng(1).permutation(fg.n_units).astype(np.int64)

    def outputs():
        moves, labels, delta = run_move_pass(fg, order)
        return detect_communities(g, seed=3), moves, labels.tolist(), delta

    before = outputs()
    # an empty cache, and a compiler that cannot be found
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    kernels.snapshot_codec.cache_clear()
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "/nonexistent/cc" if name == "CC" else config_var(name))
    assert outputs() == before
    assert kernels.ACTIVE_BACKEND == "python"
    assert os.listdir(tmp_path / "empty" / "skillgraph") == []  # the failed build leaves no file


def test_without_compiler_python_codec_runs(fresh_build, monkeypatch, tmp_path):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "/nonexistent/cc" if name == "CC" else config_var(name))
    assert kernels.snapshot_codec() is None
    assert kernels.ACTIVE_BACKEND == "python"
    assert round_trip(tmp_path) == ROUND_TRIP
    assert os.listdir(fresh_build) == []  # the failed build leaves no file


def test_second_resolution_loads_without_compiling(prebuilt, monkeypatch):
    if kernels.snapshot_codec() is None:
        pytest.skip("the compiled extension does not build here")
    assert kernels.ACTIVE_BACKEND == "c"
    assert stat.S_IMODE(os.stat(prebuilt).st_mode) == 0o700
    built = os.listdir(prebuilt)
    assert len(built) == 1 and built[0].startswith("snapshot-") and built[0].endswith(".so")
    kernels.snapshot_codec.cache_clear()
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels.snapshot_codec() is not None
    assert kernels.ACTIVE_BACKEND == "c"
    assert os.listdir(prebuilt) == built
    assert move_from(path_fixture(), [1], [0, 1, 2, 3]) == (2, [0, 0, 3, 3])


def test_codec_builds_once_and_loads_after(prebuilt, monkeypatch, tmp_path):
    if kernels.snapshot_codec() is None:
        pytest.skip("the compiled extension does not build here")
    assert kernels.ACTIVE_BACKEND == "c"
    built = os.listdir(prebuilt)
    assert len(built) == 1 and built[0].startswith("snapshot-") and built[0].endswith(".so")
    kernels.snapshot_codec.cache_clear()
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels.snapshot_codec() is not None
    assert kernels.ACTIVE_BACKEND == "c"
    assert os.listdir(prebuilt) == built
    assert round_trip(tmp_path) == ROUND_TRIP


def test_versions_sharing_a_cache_keep_their_libraries(prebuilt, monkeypatch, tmp_path):
    # two sources built into one cache: no build removes the other's library,
    # so a later process of either version loads it without compiling
    if kernels.snapshot_codec() is None:
        pytest.skip("the compiled extension does not build here")
    real, edited = kernels._CODEC_SOURCE, tmp_path / "_snapshot.c"
    edited.write_bytes(real.read_bytes() + b"/* another version */\n")
    monkeypatch.setattr(kernels, "_CODEC_SOURCE", edited)
    kernels.snapshot_codec.cache_clear()
    assert kernels.snapshot_codec() is not None
    built = sorted(os.listdir(prebuilt))
    assert len(built) == 2 and all(name.endswith(".so") for name in built)
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    for source in (real, edited):
        monkeypatch.setattr(kernels, "_CODEC_SOURCE", source)
        kernels.snapshot_codec.cache_clear()
        assert kernels.snapshot_codec() is not None
        assert kernels.ACTIVE_BACKEND == "c"
    assert sorted(os.listdir(prebuilt)) == built


def test_cache_others_can_write_is_not_used(fresh_build, monkeypatch):
    fresh_build.mkdir()
    fresh_build.chmod(0o777)
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels.snapshot_codec() is None
    assert kernels.ACTIVE_BACKEND == "python"


def test_codec_is_built_and_keyed_without_fused_multiply_add(fresh_build, monkeypatch):
    # a fused multiply-add would round the scatter's w * s + out, or a move
    # pass term, once where NumPy and Python round twice; the flag is in the
    # compiler command, and in the key, so no library built without it is
    # loaded in its place
    commands = []
    run = subprocess.run

    def recording(command, **kwargs):
        commands.append(command)
        return run(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording)
    if kernels.snapshot_codec() is None:
        pytest.skip("the compiled extension does not build here")
    [command] = commands
    assert "-ffp-contract=off" in command
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    flags = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-lm")
    key = blake2b(b"\0".join([kernels._CODEC_SOURCE.read_bytes(), " ".join(flags).encode(),
                              platform.machine().encode(),
                              importlib.machinery.EXTENSION_SUFFIXES[0].encode()]),
                  digest_size=16).hexdigest()
    assert os.listdir(fresh_build) == [f"snapshot-{key}.so"]


def test_fresh_interpreter_builds_one_library_and_maps_no_openssl(tmp_path):
    # importing hashlib imports _hashlib, which maps OpenSSL's libcrypto
    # (about 3.4 MB resident) into every process that keys a library; the
    # cache key needs neither, so resolving the library imports neither. The
    # move pass, the graph rows and the snapshot then all run in that one
    # library, so a fresh cache holds one, from one compiler run. A fresh
    # interpreter, so that no library a test before loaded is at hand
    code = ("import subprocess, sys\n"
            "runs, run = [], subprocess.run\n"
            "subprocess.run = lambda command, **kw: runs.append(command) or run(command, **kw)\n"
            "from skillgraph import community, graph, kernels\n"
            "kernels.snapshot_codec()\n"
            "print('_hashlib' in sys.modules)\n"
            "import numpy as np\n"
            "from oracles import random_hetero_graph\n"
            "g, _ = random_hetero_graph(np.random.default_rng(11))\n"
            "community.detect_communities(g, seed=3)\n"
            "graph.write_snapshot(g, sys.argv[1])\n"
            "print(len(runs), kernels.ACTIVE_BACKEND,\n"
            "      graph.read_snapshot(sys.argv[1]).num_edges() == g.num_edges() > 0)\n")
    path = [str(Path(kernels.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), XDG_CACHE_HOME=str(tmp_path))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "g.graph")], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    hashlib_imported, runs, backend, same_edges = run.stdout.split()
    assert (hashlib_imported, same_edges) == ("False", "True")
    if backend != "c":
        pytest.skip("the compiled extension does not build here")
    assert runs == "1"
    assert [name.endswith(".so") for name in os.listdir(tmp_path / "skillgraph")] == [True]


def numpy_step(scores, esrc, edst, eweight, n):
    """``propagate_step``'s NumPy line."""
    return np.bincount(edst, weights=eweight * scores[esrc], minlength=n)


def numpy_warns(scores, esrc, eweight):
    """Whether NumPy's multiply in ``propagate_step`` raises a floating-point
    flag, on which it warns or raises as its error state says."""
    with np.errstate(all="raise"):
        try:
            eweight * scores[esrc]
        except FloatingPointError:
            return True
    return False


def outcome(step, *args):
    """What ``step`` gives: the result's dtype and bytes, or the error's type and text."""
    try:
        out = step(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return out.dtype, out.tobytes()


DOUBLES = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]))


@st.composite
def scatter_cases(draw):
    """A scatter's input: ``n`` targets (0 included), scores, and edges whose
    targets repeat, each index in range."""
    n = draw(st.integers(0, 6))
    scores = np.array(draw(st.lists(DOUBLES, max_size=6)), dtype=np.float64)
    m = draw(st.integers(0, 24)) if n and len(scores) else 0
    src = np.array(draw(st.lists(st.integers(0, max(len(scores) - 1, 0)), min_size=m,
                                 max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)),
                   dtype=np.int64)
    wgt = np.array(draw(st.lists(DOUBLES, min_size=m, max_size=m)), dtype=np.float64)
    return scores, src, dst, wgt, n


@needs_codec
@settings(max_examples=500, deadline=None)
@given(scatter_cases())
def test_compiled_scatter_equals_bincount(case):
    # the compiled scatter gives bincount's bits; it takes every drawn input
    # whose products are normal and whose sums stay finite, and none on whose
    # products NumPy warns or that makes a NaN
    scores, src, dst, wgt, n = case
    with np.errstate(all="ignore"):
        want = numpy_step(scores, src, dst, wgt, n)
        assert kernels.propagate_step(scores, src, dst, wgt, n).tobytes() == want.tobytes()
        products = np.abs(wgt * scores[src])
    inputs = [a.copy() for a in (scores, src, dst, wgt)]
    out = CODEC.scatter(scores, src, dst, wgt, n)
    normal = (products >= np.finfo(np.float64).tiny) & (products <= np.finfo(np.float64).max)
    if normal.all() and np.isfinite(want).all():
        assert out is not None
    if numpy_warns(scores, src, wgt) or np.isnan(want).any():
        assert out is None
    if out is not None:  # a fresh vector of its own
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (n,)
        assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
        assert not any(np.shares_memory(out, a) for a in (scores, src, dst, wgt))
        assert out.tobytes() == want.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, (scores, src, dst, wgt)))


SIGNALLING_NAN = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]


@needs_codec
@pytest.mark.parametrize("weight, score", [
    (np.inf, 0.0), (1e300, 1e300), (1e-200, 1e-200), (1.0, SIGNALLING_NAN), (np.nan, 1.0)],
    ids=["invalid", "overflow", "underflow", "signalling NaN", "quiet NaN"])
def test_a_product_that_is_nan_or_raises_a_flag_goes_back_to_numpy(weight, score):
    args = (np.array([score, 1.0]), np.array([0, 1], dtype=np.int64),
            np.array([1, 1], dtype=np.int64), np.array([weight, 0.5]), 2)
    assert CODEC.scatter(*args) is None
    with np.errstate(all="raise"):
        assert outcome(kernels.propagate_step, *args) == outcome(numpy_step, *args)
    with np.errstate(all="ignore"):
        assert outcome(kernels.propagate_step, *args) == outcome(numpy_step, *args)


@needs_codec
def test_a_sum_that_overflows_goes_back_to_numpy():
    # bincount's sums raise no warning, so NumPy's line gives inf; the
    # compiled scatter, which reads the flags of its sums too, hands it back
    args = (np.array([1e308]), np.array([0, 0], dtype=np.int64), np.array([0, 0], dtype=np.int64),
            np.array([1.0, 1.0]), 1)
    assert CODEC.scatter(*args) is None
    with np.errstate(all="raise"):
        assert outcome(kernels.propagate_step, *args) == outcome(numpy_step, *args)
        assert kernels.propagate_step(*args).tolist() == [np.inf]


def scatter_input(n=4):
    """Scores over 3 nodes and 4 edges into ``n`` targets, two into one."""
    return (np.array([0.5, 1.5, 2.0]), np.array([0, 1, 2, 1], dtype=np.int64),
            np.array([3, 0, 3, 1], dtype=np.int64), np.array([0.25, 1.0, 3.0, 0.1]), n)


def replaced(position, value):
    args = list(scatter_input())
    args[position] = value(args[position])
    return tuple(args)


@needs_codec
@pytest.mark.parametrize("args", [
    replaced(0, lambda a: a.astype(np.float32)),
    replaced(1, lambda a: a.astype(np.int32)),
    replaced(2, lambda a: a.astype(np.int32)),
    replaced(3, lambda a: a.astype(np.float32)),
    replaced(0, lambda a: np.repeat(a, 2)[::2]),      # a non-contiguous view
    replaced(3, lambda a: np.repeat(a, 2)[::2]),
    replaced(0, lambda a: a.astype(">f8")),           # not native byte order
    replaced(0, lambda a: a.view(type("Sub", (np.ndarray,), {}))),
    replaced(0, list),
    replaced(1, lambda a: a[:3]),                     # lengths that disagree
    replaced(2, lambda a: a[:3]),
    replaced(3, lambda a: np.append(a, 1.0)),
    replaced(1, lambda a: np.array([0, 1, 3, 1])),    # a source past the scores
    replaced(1, lambda a: np.array([0, -1, 2, 1])),   # a negative source, read from the end
    replaced(2, lambda a: np.array([3, 0, -1, 1])),   # a negative target
    replaced(2, lambda a: np.array([3, 0, 6, 1])),    # a target past n: a longer vector
    replaced(4, lambda n: 2),
    replaced(4, lambda n: -1),
    replaced(4, np.int64),
    replaced(4, lambda n: True),
    replaced(4, lambda n: 2**63),
], ids=["float32 scores", "int32 sources", "int32 targets", "float32 weights",
        "strided scores", "strided weights", "big-endian scores", "subclass scores",
        "list scores", "short sources", "short targets", "long weights", "source past the scores",
        "negative source", "negative target", "target past n", "target past a short n",
        "negative n", "numpy n", "bool n", "n past int64"])
def test_scatter_hands_back_what_numpy_must_answer(args):
    assert CODEC.scatter(*args) is None
    assert outcome(kernels.propagate_step, *args) == outcome(numpy_step, *args)


@needs_codec
def test_scatter_takes_five_arguments():
    with pytest.raises(TypeError, match="5 arguments"):
        CODEC.scatter(np.zeros(1))


def move_pass_args():
    """The compiled ``move_pass``'s 17 arguments for unit 1 of a 4-unit path,
    from singletons."""
    fg = path_fixture()
    modules = fg.module_state(np.arange(4), 4)
    return [np.array([1], dtype=np.int64), np.arange(4, dtype=np.int64), fg.visit, fg.tele,
            fg.size, *fg.nbr, *[m.copy() for m in modules], float(modules[4].sum()), 4.0, 1e-10]


def read_only(a):
    a.flags.writeable = False
    return a


MOVE_PASS_HAND_BACKS = {
    "float32 visit": (2, lambda a: a.astype(np.float32)),
    "strided flows": (7, lambda a: np.repeat(a, 2)[::2]),
    "read-only labels": (1, read_only),
    "read-only module exits": (13, read_only),
    "int n_orig": (15, int),
}


@needs_codec
@pytest.mark.parametrize("position, value", MOVE_PASS_HAND_BACKS.values(),
                         ids=MOVE_PASS_HAND_BACKS)
def test_move_pass_hands_back_what_python_must_answer(position, value):
    assert CODEC.move_pass(*move_pass_args()) is not None  # the unchanged input is taken
    args = move_pass_args()
    args[position] = value(args[position])
    before = [np.copy(a) for a in args]
    assert CODEC.move_pass(*args) is None
    assert all(np.array_equal(a, b) for a, b in zip(before, args))  # nothing written


@needs_codec
def test_move_pass_takes_17_arguments():
    with pytest.raises(TypeError, match="17 arguments"):
        CODEC.move_pass(np.zeros(1))
