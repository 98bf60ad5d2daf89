"""Hot numeric kernels, one build each.

Everything here works on plain int64/float64 arrays; graph/flow objects are
flattened by their owners before calling in. The four kernels:

* ``power_iterate``     -- teleporting random-walk stationary distribution
* ``partition_cost``    -- two-level codebook length from per-module visit/exit rates
* ``local_move_pass``   -- greedy single-unit community moves from a FIFO queue
* ``propagate_step``    -- one meta-path hop (weighted scatter-add, ungated)

Three are vectorised NumPy. The move pass is sequential and has no
vectorised form, so it is a plain-Python loop. It copies its arrays to lists,
runs on those and writes the labels and module state back: indexing an
ndarray from Python boxes every element as a numpy scalar, and numpy scalar
arithmetic is several times slower than the same IEEE double operations on
Python floats, which give bit-identical results. ``ACTIVE_BACKEND`` names the
build that runs, for benchmark reports.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

ACTIVE_BACKEND = "numpy"


def _plogp(x):
    return x * math.log2(x) if x > 0.0 else 0.0


def power_iterate(esrc, edst, eweight, dangling, n, teleport, tol, max_iter):
    p = np.full(n, 1.0 / n)
    resid = np.inf
    uniform = 1.0 / n
    for it in range(max_iter):
        dangling_mass = float(p[dangling].sum())
        pulled = np.bincount(edst, weights=eweight * p[esrc], minlength=n)
        p_next = teleport * uniform + (1.0 - teleport) * (pulled + dangling_mass * uniform)
        resid = float(np.abs(p_next - p).sum())
        p = p_next
        if resid <= tol:
            return p, it + 1, resid
    return p, max_iter, resid


def _plogp_sum(x):
    """Sum of ``x log2 x`` over an array, with ``0 log 0 = 0``."""
    return float(np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0).sum())


def partition_cost(mod_visit, mod_exit, node_plogp_sum):
    return (_plogp(float(mod_exit.sum())) - 2.0 * _plogp_sum(mod_exit)
            + _plogp_sum(mod_exit + mod_visit) - node_plogp_sum)


def propagate_step(scores, esrc, edst, eweight, n):
    return np.bincount(edst, weights=eweight * scores[esrc], minlength=n)


def local_move_pass(order, labels, visit, tele, size,
                    nbr_ptr, nbr_idx, nbr_out, nbr_in,
                    mod_visit, mod_tele, mod_size, mod_cross, mod_exit,
                    exit_sum, n_orig, eps):
    """Greedy single-unit moves from a FIFO queue that starts as ``order``,
    on list copies of the array arguments; ``labels`` and the five module
    arrays are written back in place. A unit that moves to module ``b``
    queues each neighbour that is neither queued nor in ``b``; the pass ends
    when the queue is empty, which it reaches because every move lowers the
    cost by more than ``eps``. Returns ``(moves, delta_sum, exit_sum)``."""
    updated = (labels, mod_visit, mod_tele, mod_size, mod_cross, mod_exit)
    labels, mod_visit, mod_tele, mod_size, mod_cross, mod_exit = [a.tolist() for a in updated]
    visit, tele, size = visit.tolist(), tele.tolist(), size.tolist()
    nbr_ptr, nbr_idx = nbr_ptr.tolist(), nbr_idx.tolist()
    nbr_out, nbr_in = nbr_out.tolist(), nbr_in.tolist()
    n_units = len(labels)
    conn_out = [0.0] * n_units
    conn_in = [0.0] * n_units
    # visit number that last reset a module's conn_out/conn_in; a visit number,
    # not the unit, because the queue can visit a unit more than once
    mark = [0] * n_units
    cand = [0] * n_units
    queue = deque(order.tolist())
    queued = [False] * n_units
    for u in queue:
        queued[u] = True
    moves = 0
    delta_sum = 0.0
    visits = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        visits += 1
        a = labels[u]
        ncand = 0
        sout = 0.0  # the unit's own exit flow
        for e in range(nbr_ptr[u], nbr_ptr[u + 1]):
            m = labels[nbr_idx[e]]
            if mark[m] != visits:
                mark[m] = visits
                conn_out[m] = 0.0
                conn_in[m] = 0.0
                cand[ncand] = m
                ncand += 1
            w_out = nbr_out[e]
            conn_out[m] += w_out
            conn_in[m] += nbr_in[e]
            sout += w_out
        if ncand == 0:
            continue
        tele_u = tele[u]
        size_u = size[u]
        visit_u = visit[u]
        plogp_exit = _plogp(exit_sum)
        ca_out = conn_out[a] if mark[a] == visits else 0.0
        ca_in = conn_in[a] if mark[a] == visits else 0.0
        t_a = mod_tele[a] - tele_u
        s_a = mod_size[a] - size_u
        v_a = mod_visit[a] - visit_u
        x_a = mod_cross[a] - (sout - ca_out) + ca_in
        q_a_new = t_a * (n_orig - s_a) / n_orig + x_a
        q_a_old = mod_exit[a]
        base_a = (_plogp(q_a_new) - _plogp(q_a_old)) * -2.0 + (
            _plogp(q_a_new + v_a) - _plogp(q_a_old + mod_visit[a]))
        best_dl = -eps
        best = -1
        best_q_b = 0.0
        best_x_b = 0.0
        best_exit = 0.0
        for ci in range(ncand):
            b = cand[ci]
            if b == a:
                continue
            q_b_old = mod_exit[b]
            t_b = mod_tele[b] + tele_u
            s_b = mod_size[b] + size_u
            v_b = mod_visit[b] + visit_u
            x_b = mod_cross[b] - conn_in[b] + (sout - conn_out[b])
            q_b_new = t_b * (n_orig - s_b) / n_orig + x_b
            exit_new = exit_sum - q_a_old - q_b_old + q_a_new + q_b_new
            dl = (_plogp(exit_new) - plogp_exit
                  - 2.0 * (_plogp(q_b_new) - _plogp(q_b_old))
                  + (_plogp(q_b_new + v_b) - _plogp(q_b_old + mod_visit[b]))
                  + base_a)
            # equal gains resolve to the lowest module id
            if dl < best_dl or (dl == best_dl and b < best):
                best_dl = dl
                best = b
                best_q_b = q_b_new
                best_x_b = x_b
                best_exit = exit_new
        if best >= 0:
            labels[u] = best
            mod_tele[a] = t_a
            mod_size[a] = s_a
            mod_visit[a] = v_a
            mod_cross[a] = x_a
            mod_exit[a] = q_a_new
            mod_tele[best] += tele[u]
            mod_size[best] += size[u]
            mod_visit[best] += visit[u]
            mod_cross[best] = best_x_b
            mod_exit[best] = best_q_b
            exit_sum = best_exit
            moves += 1
            delta_sum += best_dl
            for e in range(nbr_ptr[u], nbr_ptr[u + 1]):
                v = nbr_idx[e]
                if not queued[v] and labels[v] != best:
                    queued[v] = True
                    queue.append(v)
    for array, values in zip(updated, (labels, mod_visit, mod_tele, mod_size, mod_cross,
                                       mod_exit)):
        array[:] = values
    return moves, delta_sum, exit_sum
