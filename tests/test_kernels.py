"""Kernel checks that the pipeline-level oracles do not cover."""
from __future__ import annotations

import numpy as np
import pytest

from skillgraph import kernels
from skillgraph.community import FlowGraph, _neighbours

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
    # the build name perfbench writes into each report
    assert kernels.ACTIVE_BACKEND == "numpy"


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


def test_local_move_pass_equals_reference_bit_for_bit():
    # the kernel keeps module code terms between visits; the reference
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
            runs = []
            for move_pass in (kernels.local_move_pass, ref_local_move_pass):
                labels = np.arange(level.n_units, dtype=np.int64)
                moves, delta = move_pass(
                    order, labels, level.visit, level.tele, level.size, level.nbr,
                    level.module_state(labels, level.n_units), float(level.n_orig), 1e-10)
                runs.append((labels.tolist(), moves, delta))
            assert runs[0] == runs[1]
            _, dense = np.unique(runs[0][0], return_inverse=True)
            level = level.aggregate(dense.astype(np.int64), int(dense.max()) + 1)


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
