"""Kernel checks that the pipeline-level oracles do not cover."""
from __future__ import annotations

import numpy as np
import pytest

from skillgraph import kernels
from skillgraph.community import FlowGraph, _neighbours

from oracles import random_hetero_graph


def flow_fixture(seed=0):
    g, _ = random_hetero_graph(np.random.default_rng(seed))
    return FlowGraph.from_graph(g, 0.15), g


def run_move_pass(fg, order, labels=None):
    if labels is None:
        labels = np.arange(fg.n_units, dtype=np.int64)
    state = fg.module_state(labels, fg.n_units)
    moves, delta, exit_sum = kernels.local_move_pass(
        order, labels, fg.visit, fg.tele, fg.size, *fg.nbr,
        *state, float(state[4].sum()), float(fg.n_orig), 1e-10)
    return moves, labels, delta, exit_sum


def test_active_backend_registered():
    # the build name perfbench writes into each report
    assert kernels.ACTIVE_BACKEND == "numpy"


def test_local_move_pass_writes_module_state_back():
    # the caller's module arrays hold the state of the labels the sweep left
    for seed in range(4):
        fg, _g = flow_fixture(seed + 40)
        labels = np.arange(fg.n_units, dtype=np.int64)
        state = fg.module_state(labels, fg.n_units)
        order = np.random.default_rng(seed).permutation(fg.n_units).astype(np.int64)
        moves, _delta, exit_sum = kernels.local_move_pass(
            order, labels, fg.visit, fg.tele, fg.size, *fg.nbr,
            *state, float(state[4].sum()), float(fg.n_orig), 1e-10)
        assert moves > 0
        for tracked, fresh in zip(state, fg.module_state(labels, fg.n_units)):
            np.testing.assert_allclose(tracked, fresh, rtol=0.0, atol=1e-12)
        assert exit_sum == pytest.approx(float(state[4].sum()), abs=1e-12)


def test_local_move_delta_matches_cost_difference():
    # incremental bookkeeping equals from-scratch recomputation
    for seed in range(6):
        fg, _g = flow_fixture(seed + 20)
        before = fg.partition_cost(np.arange(fg.n_units, dtype=np.int64))
        order = np.random.default_rng(seed).permutation(fg.n_units).astype(np.int64)
        _moves, labels, delta, _exit = run_move_pass(fg, order)
        _, dense = np.unique(labels, return_inverse=True)
        after = fg.partition_cost(dense.astype(np.int64))
        assert after - before == pytest.approx(delta, abs=1e-9)
        assert delta <= 0.0


def test_equal_gains_move_to_lowest_module():
    # path 0-1-2 with equal flows: unit 1 gains the same joining either end,
    # and meets module 2 (unit 0) before module 0 (unit 2) in its neighbours
    visit = np.array([0.25, 0.5, 0.25])
    nbr = _neighbours(np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]), np.full(4, 0.2), 3)
    fg = FlowGraph(visit, 0.15 * visit, np.ones(3), nbr, 3,
                   float(sum(kernels._plogp(v) for v in visit)))
    labels = np.array([2, 1, 0], dtype=np.int64)
    moves, labels, delta, _exit = run_move_pass(fg, np.array([1], dtype=np.int64), labels)
    assert moves == 1
    assert delta < 0.0
    assert labels.tolist() == [2, 0, 0]
