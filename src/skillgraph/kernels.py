"""Hot numeric kernels, one build each.

Everything here works on plain int64/float64 arrays; graph/flow objects are
flattened by their owners before calling in. The four kernels:

* ``power_iterate``     -- teleporting random-walk stationary distribution
* ``partition_cost``    -- two-level codebook length from per-module visit/exit rates
* ``local_move_pass``   -- one greedy sweep of single-unit community moves
* ``propagate_step``    -- one meta-path hop (weighted scatter-add, ungated)

Three are vectorised NumPy. The move sweep is sequential and has no
vectorised form: its loop source is JIT-compiled on the arrays when numba (the
optional ``jit`` extra) imports, and runs as plain Python otherwise. The
plain-Python build copies the arrays to lists, runs the loop on them and
writes the labels and module state back: indexing an ndarray from Python
boxes every element as a numpy scalar, and numpy scalar arithmetic is several
times slower than the same IEEE double operations on Python floats, which
give bit-identical results. ``ACTIVE_BACKEND`` names which of the two ran:
``"numba"`` or ``"numpy"``.
"""
from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit
except ImportError:  # numba is the optional ``jit`` extra
    njit = None


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


def _array_floats(n):
    return np.zeros(n)


def _array_ints(n, fill):
    return np.full(n, fill, dtype=np.int64)


def _list_floats(n):
    return [0.0] * n


def _list_ints(n, fill):
    return [fill] * n


def _make_local_move_pass(plogp, floats, ints):
    """The move-sweep loop source, with ``plogp`` and the scratch-buffer
    allocators ``floats(n)`` (zeros) and ``ints(n, fill)`` bound per build."""

    def local_move_pass(order, labels, visit, tele, size,
                        nbr_ptr, nbr_idx, nbr_out, nbr_in,
                        mod_visit, mod_tele, mod_size, mod_cross, mod_exit,
                        exit_sum, n_orig, eps):
        n_units = len(labels)
        conn_out = floats(n_units)
        conn_in = floats(n_units)
        mark = ints(n_units, -1)
        cand = ints(n_units, 0)
        moves = 0
        delta_sum = 0.0
        for oi in range(len(order)):
            u = order[oi]
            a = labels[u]
            ncand = 0
            sout = 0.0  # the unit's own exit flow
            for e in range(nbr_ptr[u], nbr_ptr[u + 1]):
                m = labels[nbr_idx[e]]
                if mark[m] != u:
                    mark[m] = u
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
            plogp_exit = plogp(exit_sum)
            ca_out = conn_out[a] if mark[a] == u else 0.0
            ca_in = conn_in[a] if mark[a] == u else 0.0
            t_a = mod_tele[a] - tele_u
            s_a = mod_size[a] - size_u
            v_a = mod_visit[a] - visit_u
            x_a = mod_cross[a] - (sout - ca_out) + ca_in
            q_a_new = t_a * (n_orig - s_a) / n_orig + x_a
            q_a_old = mod_exit[a]
            base_a = (plogp(q_a_new) - plogp(q_a_old)) * -2.0 + (
                plogp(q_a_new + v_a) - plogp(q_a_old + mod_visit[a]))
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
                dl = (plogp(exit_new) - plogp_exit
                      - 2.0 * (plogp(q_b_new) - plogp(q_b_old))
                      + (plogp(q_b_new + v_b) - plogp(q_b_old + mod_visit[b]))
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
        return moves, delta_sum, exit_sum

    return local_move_pass


def _on_lists(loop):
    """Run ``loop`` on list copies of the 14 array arguments, then write the
    labels and the five module arrays back in place."""

    def local_move_pass(order, labels, visit, tele, size,
                        nbr_ptr, nbr_idx, nbr_out, nbr_in,
                        mod_visit, mod_tele, mod_size, mod_cross, mod_exit,
                        exit_sum, n_orig, eps):
        updated = (labels, mod_visit, mod_tele, mod_size, mod_cross, mod_exit)
        copies = [a.tolist() for a in updated]
        result = loop(order.tolist(), copies[0], visit.tolist(), tele.tolist(), size.tolist(),
                      nbr_ptr.tolist(), nbr_idx.tolist(), nbr_out.tolist(), nbr_in.tolist(),
                      *copies[1:], exit_sum, n_orig, eps)
        for array, values in zip(updated, copies):
            array[:] = values
        return result

    return local_move_pass


_list_local_move_pass = _on_lists(_make_local_move_pass(_plogp, _list_floats, _list_ints))

if njit is None:
    ACTIVE_BACKEND = "numpy"
    local_move_pass = _list_local_move_pass
else:
    # cached to disk; fastmath stays off, since reassociation would break the
    # bit-level determinism the pipeline promises for fixed seeds
    ACTIVE_BACKEND = "numba"
    _jit = njit(cache=True)
    local_move_pass = _jit(_make_local_move_pass(_jit(_plogp), _jit(_array_floats),
                                                 _jit(_array_ints)))
