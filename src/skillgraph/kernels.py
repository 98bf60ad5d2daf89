"""Hot numeric kernels, one build each.

Everything here works on plain int64/float64 arrays; graph/flow objects are
flattened by their owners before calling in. The four kernels:

* ``power_iterate``     -- teleporting random-walk stationary distribution
* ``partition_cost``    -- two-level codebook length from per-module visit/exit rates
* ``local_move_pass``   -- greedy single-unit community moves from a FIFO queue
* ``propagate_step``    -- one meta-path hop (weighted scatter-add, ungated)

Three are vectorised NumPy. The move pass is sequential and has no
vectorised form, so it runs as C: ``_move_pass.c``, built on the first move
pass of a process with the C compiler Python was built with (``sysconfig``'s
``CC``), ``-O2 -fPIC -shared -ffp-contract=off -lm``, and loaded through
``ctypes``. The library is cached in ``$XDG_CACHE_HOME/skillgraph`` (default
``~/.cache/skillgraph``), a directory made with mode 0700 that must belong to
the user and be writable by no one else; its file name carries the sha256 of
the source, the compiler flags and the machine type, so a changed source or
flag builds anew and a later process only loads it. A build goes to a
temporary file in that directory and is renamed into place, so concurrent
first runs do not see half a library. A build then removes the directory's
other ``move_pass-*.so`` files, so an edited source or flag leaves one
library behind, not one per edit.

The C pass is the Python pass line for line: the same queue, candidate
bookkeeping, tie rule and binary64 operations in the same order. No fused
multiply-add is formed (``-ffp-contract=off``), a platform whose C evaluates
doubles in wider registers (``FLT_EVAL_METHOD != 0``) fails the build, and
``log2`` is the libm function that CPython's ``math.log2`` calls, so every
label, the move count and the summed delta equal the Python pass's bit for
bit. Where no compiler is found, the build fails or the library does not
load, the Python pass runs instead, with the same results.

The Python pass copies its arrays to lists, runs on those and writes only the
labels back: indexing an ndarray from Python boxes every element as a numpy
scalar, and numpy scalar arithmetic is several times slower than the same
IEEE double operations on Python floats, which give bit-identical results. It
also keeps each module's old code terms, ``plogp(exit)`` and
``plogp(exit + visit)``, and ``plogp`` of the total exit, updating them only
on a move, and computes each candidate's new terms with ``math.log2``
inline; the floats and their order of addition are those of recomputing
every term through ``_plogp``, so labels, moves and delta keep every bit.

``ACTIVE_BACKEND`` names the move pass that runs, for benchmark reports:
``"c"`` once the compiled pass has loaded, ``"python"`` before the first move
pass and when it could not.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
import tempfile
from collections import deque
from pathlib import Path

import numpy as np

ACTIVE_BACKEND = "python"


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


def local_move_pass(order, labels, visit, tele, size, nbr, modules, n_orig, eps):
    """Greedy single-unit moves from a FIFO queue that starts as ``order``.

    ``nbr`` is ``FlowGraph.nbr`` and ``modules`` the ``FlowGraph.module_state``
    of ``labels``; the pass works on copies of both and writes only the final
    ``labels`` back, in place. A unit that moves to module ``b`` queues each
    neighbour that is neither queued nor in ``b``; the pass ends when the
    queue is empty, which it reaches because every move lowers the cost by
    more than ``eps``. Returns ``(moves, delta_sum)``, the move count and the
    summed cost change. Raises ``ValueError`` when an index in ``order``,
    ``labels`` or ``nbr`` is out of range or the arrays disagree in length,
    before either pass starts."""
    _check_move_input(order, labels, visit, tele, size, nbr, modules)
    compiled = _compiled_move_pass()
    if compiled is None:
        return _python_move_pass(order, labels, visit, tele, size, nbr, modules, n_orig, eps)
    order_c = np.ascontiguousarray(order, dtype=np.int64)
    labels_c = np.require(labels, np.int64, ["C", "W"])  # the pass writes the labels here
    units = [np.ascontiguousarray(a, dtype=np.float64) for a in (visit, tele, size)]
    ptr, idx = (np.ascontiguousarray(a, dtype=np.int64) for a in nbr[:2])
    flows = [np.ascontiguousarray(a, dtype=np.float64) for a in nbr[2:]]
    mods = [np.array(a, dtype=np.float64) for a in modules]  # copies the pass updates
    delta = ctypes.c_double()
    moves = compiled(
        labels_c.size, order_c.size,
        *[a.ctypes.data for a in (order_c, labels_c, *units, ptr, idx, *flows)],
        len(mods[0]), *[a.ctypes.data for a in mods],
        float(modules[4].sum()), float(n_orig), float(eps), ctypes.byref(delta))
    if moves < 0:
        raise MemoryError("move pass: no memory for its work arrays")
    if labels_c is not labels:
        labels[:] = labels_c
    return moves, delta.value


def _check_move_input(order, labels, visit, tele, size, nbr, modules):
    """Raise ``ValueError`` unless every index the move pass follows is in range."""
    ptr, idx, out, inflow = nbr
    n, k = len(labels), len(modules[0])
    if any(np.ndim(a) != 1 for a in (visit, tele, size, out, inflow, *modules)):
        raise ValueError("move pass: unit, neighbour and module arrays must be 1-d")
    if (len(ptr) != n + 1 or any(len(a) != n for a in (visit, tele, size))
            or any(len(a) != k for a in modules) or len(out) != len(idx)
            or len(inflow) != len(idx)):
        raise ValueError("move pass: unit, neighbour or module arrays disagree in length")
    # each index must lie in [0, stop); a pointer may equal len(idx)
    for name, a, stop in (("order", order, n), ("labels", labels, min(n, k)),
                          ("nbr index", idx, n), ("nbr pointer", ptr, len(idx) + 1)):
        a = np.asarray(a)
        if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
            raise ValueError(f"move pass: {name} must be a 1-d integer array")
        if a.size and not (a.min() >= 0 and a.max() < stop):
            raise ValueError(f"move pass: {name} outside [0, {stop})")
    if np.any(np.diff(ptr) < 0):
        raise ValueError("move pass: nbr pointer decreases")


def _python_move_pass(order, labels, visit, tele, size, nbr, modules, n_orig, eps):
    """``local_move_pass`` in Python; it runs on list copies of the arrays."""
    exit_sum = float(modules[4].sum())
    labels_out, labels = labels, labels.tolist()
    mod_visit, mod_tele, mod_size, mod_cross, mod_exit = [a.tolist() for a in modules]
    # each module's old code terms, kept up to date by every move
    mod_pq = [_plogp(q) for q in mod_exit]
    mod_pqv = [_plogp(q + v) for q, v in zip(mod_exit, mod_visit)]
    plogp_exit = _plogp(exit_sum)
    log2 = math.log2
    visit, tele, size = visit.tolist(), tele.tolist(), size.tolist()
    nbr_ptr, nbr_idx, nbr_out, nbr_in = [a.tolist() for a in nbr]
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
        ca_out = conn_out[a] if mark[a] == visits else 0.0
        ca_in = conn_in[a] if mark[a] == visits else 0.0
        t_a = mod_tele[a] - tele_u
        s_a = mod_size[a] - size_u
        v_a = mod_visit[a] - visit_u
        x_a = mod_cross[a] - (sout - ca_out) + ca_in
        q_a_new = t_a * (n_orig - s_a) / n_orig + x_a
        q_a_old = mod_exit[a]
        qv_a = q_a_new + v_a
        # _plogp, inline here and below: the call costs more than the arithmetic
        pq_a = q_a_new * log2(q_a_new) if q_a_new > 0.0 else 0.0
        pqv_a = qv_a * log2(qv_a) if qv_a > 0.0 else 0.0
        base_a = (pq_a - mod_pq[a]) * -2.0 + (pqv_a - mod_pqv[a])
        best_dl = -eps
        best = -1
        best_q_b = 0.0
        best_x_b = 0.0
        best_exit = 0.0
        best_terms = (0.0, 0.0, 0.0)
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
            qv_b = q_b_new + v_b
            pq_exit = exit_new * log2(exit_new) if exit_new > 0.0 else 0.0
            pq_b = q_b_new * log2(q_b_new) if q_b_new > 0.0 else 0.0
            pqv_b = qv_b * log2(qv_b) if qv_b > 0.0 else 0.0
            dl = (pq_exit - plogp_exit - 2.0 * (pq_b - mod_pq[b])
                  + (pqv_b - mod_pqv[b]) + base_a)
            # equal gains resolve to the lowest module id
            if dl < best_dl or (dl == best_dl and b < best):
                best_dl = dl
                best = b
                best_q_b = q_b_new
                best_x_b = x_b
                best_exit = exit_new
                best_terms = (pq_exit, pq_b, pqv_b)
        if best >= 0:
            labels[u] = best
            mod_tele[a] = t_a
            mod_size[a] = s_a
            mod_visit[a] = v_a
            mod_cross[a] = x_a
            mod_exit[a] = q_a_new
            mod_pq[a] = pq_a
            mod_pqv[a] = pqv_a
            mod_tele[best] += tele[u]
            mod_size[best] += size[u]
            mod_visit[best] += visit[u]
            mod_cross[best] = best_x_b
            mod_exit[best] = best_q_b
            plogp_exit, mod_pq[best], mod_pqv[best] = best_terms
            exit_sum = best_exit
            moves += 1
            delta_sum += best_dl
            for e in range(nbr_ptr[u], nbr_ptr[u + 1]):
                v = nbr_idx[e]
                if not queued[v] and labels[v] != best:
                    queued[v] = True
                    queue.append(v)
    labels_out[:] = labels
    return moves, delta_sum


_SOURCE = Path(__file__).with_name("_move_pass.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm",)
_ARGTYPES = ([ctypes.c_int64] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_int64]
             + [ctypes.c_void_p] * 5 + [ctypes.c_double] * 3 + [ctypes.c_void_p])


@functools.cache
def _compiled_move_pass():
    """The compiled move pass, loaded from the cache or built into it on the
    first call of the process; ``None`` when it cannot be built or loaded."""
    global ACTIVE_BACKEND
    lib = _cached_library()
    ACTIVE_BACKEND = "python" if lib is None else "c"
    if lib is None:
        return None
    fn = lib.local_move_pass
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    return fn


def _cache_dir():
    """``$XDG_CACHE_HOME/skillgraph``, made with mode 0700; ``None`` unless it
    is a directory of this user that no one else can write."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    path = os.path.join(base, "skillgraph")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return None
    if st.st_uid != os.geteuid() or st.st_mode & 0o022:
        return None
    return path


def _cached_library():
    """``_move_pass.c`` as a loaded library, compiled on a cache miss."""
    # imported here, where a move pass needs it: hashlib maps OpenSSL,
    # about 3 MB of resident memory that no other stage of the CLI needs
    import hashlib

    cache = _cache_dir() if os.name == "posix" else None
    if cache is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    flags = " ".join(_CFLAGS + _LDLIBS)
    key = hashlib.sha256(b"\0".join(
        [source, flags.encode(), platform.machine().encode()])).hexdigest()
    path = os.path.join(cache, f"move_pass-{key[:32]}.so")
    if not os.path.exists(path) and not _build(path):
        return None
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def _build(path):
    """Compile ``_move_pass.c`` to ``path`` through a temporary file beside
    it; whether that worked."""
    import shlex
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return False
    try:
        fd, tmp = tempfile.mkstemp(prefix=".move_pass-", suffix=".so",
                                   dir=os.path.dirname(path))
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *_CFLAGS, "-o", tmp, str(_SOURCE), *_LDLIBS],
                       check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=300)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_stale(path)
    return True


def _remove_stale(path):
    """Remove every ``move_pass-*.so`` in ``path``'s directory but ``path``:
    libraries of another source, flags or machine type, which no process of
    this version loads. A process that mapped one keeps its mapping; one of
    another version that finds its library gone builds it again, or runs the
    Python pass, with the same results."""
    import fnmatch

    cache, keep = os.path.split(path)
    try:
        names = os.listdir(cache)
    except OSError:
        return
    for name in names:
        if name != keep and fnmatch.fnmatchcase(name, "move_pass-*.so"):
            try:
                os.unlink(os.path.join(cache, name))
            except OSError:
                pass
