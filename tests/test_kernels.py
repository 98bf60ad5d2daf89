"""Kernel checks that the pipeline-level oracles do not cover."""
from __future__ import annotations

import os
import stat
import subprocess
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillgraph import kernels
from skillgraph.community import FlowGraph, _neighbours, detect_communities

from oracles import random_hetero_graph, ref_local_move_pass


def flow_fixture(seed=0):
    g, _ = random_hetero_graph(np.random.default_rng(seed))
    return FlowGraph.from_graph(g, 0.15), g


def run_move_pass(fg, order, labels=None):
    if labels is None:
        labels = np.arange(fg.n_units, dtype=np.int64)
    moves, delta = kernels.local_move_pass(
        order, labels, fg.visit, fg.tele, fg.size, fg.nbr,
        fg.module_state(labels, fg.n_units), float(fg.n_orig), 1e-10)
    return moves, labels, delta


def test_active_backend_registered():
    # the move pass perfbench names in each report, once one has run
    fg, _g = flow_fixture()
    run_move_pass(fg, np.arange(fg.n_units, dtype=np.int64))
    compiled = kernels._compiled_move_pass() is not None
    assert kernels.ACTIVE_BACKEND == ("c" if compiled else "python")


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


def move_passes():
    """The Python pass, the compiled one where it builds here, and the reference."""
    passes = [kernels._python_move_pass, ref_local_move_pass]
    if kernels._compiled_move_pass() is not None:
        passes.append(kernels.local_move_pass)
    return passes


def every_pass(order, labels, fg):
    """``(labels, moves, delta)`` of each of ``move_passes`` from the same start;
    each pass gets fresh copies, so no run sees another's writes."""
    modules = fg.module_state(labels, fg.n_units)
    runs = []
    for move_pass in move_passes():
        out = labels.copy()
        moves, delta = move_pass(order.copy(), out, fg.visit, fg.tele, fg.size, fg.nbr,
                                 tuple(m.copy() for m in modules), float(fg.n_orig), 1e-10)
        runs.append((out.tolist(), moves, delta))
    return runs


def test_local_move_pass_equals_reference_bit_for_bit():
    # the kernels keep module code terms between visits; the reference
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
            runs = every_pass(order, np.arange(level.n_units, dtype=np.int64), level)
            assert all(run == runs[0] for run in runs)
            _, dense = np.unique(runs[0][0], return_inverse=True)
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


@settings(max_examples=300, deadline=None)
@given(flow_graphs())
def test_move_passes_agree_on_drawn_graphs(case):
    fg, labels, order = case
    runs = every_pass(order, labels, fg)
    assert all(run == runs[0] for run in runs)


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
    # int32 labels and a strided order give what int64 arrays give
    fg = path_fixture(5)
    start = [0, 1, 2, 3, 4]
    want = move_from(fg, [1, 3], start)
    labels = np.array(start, dtype=np.int32)
    moves, _delta = kernels.local_move_pass(
        np.array([1, 0, 3, 0], dtype=np.int64)[::2], labels, fg.visit, fg.tele, fg.size,
        fg.nbr, fg.module_state(np.arange(5), 5), 5.0, 1e-10)
    assert (moves, labels.tolist()) == want
    assert labels.dtype == np.int32


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
    """The move pass resolved anew, with its cache under ``tmp_path``;
    yields the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "ACTIVE_BACKEND", kernels.ACTIVE_BACKEND)
    kernels._compiled_move_pass.cache_clear()
    yield tmp_path / "skillgraph"
    kernels._compiled_move_pass.cache_clear()


def fails_if_run(*args, **kwargs):
    raise AssertionError(f"compiler ran: {args[0]!r}")


def test_without_compiler_python_pass_runs(fresh_build, monkeypatch, tmp_path):
    g, _ = random_hetero_graph(np.random.default_rng(11))
    fg = FlowGraph.from_graph(g, 0.15)
    order = np.random.default_rng(1).permutation(fg.n_units).astype(np.int64)

    def outputs():
        moves, labels, delta = run_move_pass(fg, order)
        return detect_communities(g, seed=3), moves, labels.tolist(), delta

    before = outputs()
    # an empty cache, and a compiler that cannot be found
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    kernels._compiled_move_pass.cache_clear()
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "/nonexistent/cc" if name == "CC" else config_var(name))
    assert outputs() == before
    assert kernels.ACTIVE_BACKEND == "python"
    assert os.listdir(tmp_path / "empty" / "skillgraph") == []  # the failed build leaves no file


def test_second_resolution_loads_without_compiling(fresh_build, monkeypatch):
    if kernels._compiled_move_pass() is None:
        pytest.skip("the move pass does not build here")
    assert stat.S_IMODE(os.stat(fresh_build).st_mode) == 0o700
    built = os.listdir(fresh_build)
    assert len(built) == 1 and built[0].endswith(".so")
    kernels._compiled_move_pass.cache_clear()
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels._compiled_move_pass() is not None
    assert kernels.ACTIVE_BACKEND == "c"
    assert os.listdir(fresh_build) == built


def test_build_removes_stale_libraries(fresh_build, monkeypatch):
    # libraries of another source or flags go; a concurrent build's
    # temporary file and files of another name stay
    fresh_build.mkdir(mode=0o700)
    stale = ["move_pass-" + "0" * 32 + ".so", "move_pass-old.so"]
    kept = [".move_pass-abc123.so", "move_pass-notes.txt", "other.so"]
    for name in stale + kept:
        (fresh_build / name).write_bytes(b"")
    if kernels._compiled_move_pass() is None:
        pytest.skip("the move pass does not build here")
    built = sorted(set(os.listdir(fresh_build)) - set(kept))
    assert len(built) == 1 and built[0] not in stale
    assert sorted(os.listdir(fresh_build)) == sorted(built + kept)
    # a process that only loads the library removes nothing
    (fresh_build / stale[0]).write_bytes(b"")
    kernels._compiled_move_pass.cache_clear()
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels._compiled_move_pass() is not None
    assert (fresh_build / stale[0]).exists()


def test_cache_others_can_write_is_not_used(fresh_build, monkeypatch):
    fresh_build.mkdir()
    fresh_build.chmod(0o777)
    monkeypatch.setattr(subprocess, "run", fails_if_run)
    assert kernels._compiled_move_pass() is None
    assert kernels.ACTIVE_BACKEND == "python"
