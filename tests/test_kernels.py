"""Kernel checks that the pipeline-level oracles do not cover."""
from __future__ import annotations

import numpy as np
import pytest

from skillgraph import kernels
from skillgraph.community import FlowGraph

from oracles import random_hetero_graph


def flow_fixture(seed=0):
    g, _ = random_hetero_graph(np.random.default_rng(seed))
    return FlowGraph.from_graph(g, 0.15), g


def run_move_pass(move_pass, fg, order):
    labels = np.arange(fg.n_units, dtype=np.int64)
    state = fg.module_state(labels, fg.n_units)
    moves, delta, exit_sum = move_pass(
        order, labels, fg.visit, fg.tele, fg.size, state[3].copy(),
        fg.out_ptr, fg.out_idx, fg.out_flow, fg.in_ptr, fg.in_idx, fg.in_flow,
        *state, float(state[4].sum()), float(fg.n_orig), 1e-10)
    return moves, labels, delta, exit_sum


def test_active_backend_registered():
    try:
        import numba  # noqa: F401
    except ImportError:
        expected = "numpy"
    else:
        expected = "numba"
    assert kernels.ACTIVE_BACKEND == expected


@pytest.mark.skipif(kernels.ACTIVE_BACKEND != "numba", reason="numba unavailable")
def test_local_move_pass_backends_identical():
    # the jitted sweep against the same loop source run as plain Python
    plain = kernels._make_local_move_pass(kernels._plogp)
    for seed in range(5):
        fg, _g = flow_fixture(seed)
        order = np.random.default_rng(seed).permutation(fg.n_units).astype(np.int64)
        jit_moves, jit_labels, jit_delta, _ = run_move_pass(kernels.local_move_pass, fg, order)
        py_moves, py_labels, py_delta, _ = run_move_pass(plain, fg, order)
        assert jit_moves == py_moves
        np.testing.assert_array_equal(jit_labels, py_labels)
        assert jit_delta == pytest.approx(py_delta, abs=1e-12)


def test_local_move_delta_matches_cost_difference():
    # incremental bookkeeping equals from-scratch recomputation
    for seed in range(6):
        fg, _g = flow_fixture(seed + 20)
        before = fg.partition_cost(np.arange(fg.n_units, dtype=np.int64))
        order = np.random.default_rng(seed).permutation(fg.n_units).astype(np.int64)
        _moves, labels, delta, _exit = run_move_pass(kernels.local_move_pass, fg, order)
        _, dense = np.unique(labels, return_inverse=True)
        after = fg.partition_cost(dense.astype(np.int64))
        assert after - before == pytest.approx(delta, abs=1e-9)
        assert delta <= 0.0
