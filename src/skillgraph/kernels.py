"""Hot numeric kernels, one build each, and the build of the one compiled library.

Everything here works on plain int64/float64 arrays; graph/flow objects are
flattened by their owners before calling in. The four kernels:

* ``power_iterate``     -- teleporting random-walk stationary distribution
* ``partition_cost``    -- two-level codebook length from per-module visit/exit rates
* ``local_move_pass``   -- greedy single-unit community moves from a FIFO queue
* ``propagate_step``    -- one meta-path hop (weighted scatter-add, ungated)

Two are vectorised NumPy. The other two run in ``_snapshot.c``, the one
compiled source: a CPython extension, loaded by ``snapshot_codec`` through
``importlib.machinery.ExtensionFileLoader``. The move pass is sequential and
has no vectorised form, so its C form, the extension's ``move_pass``, runs
wherever the extension loads. ``propagate_step`` calls the extension's
``scatter``, which makes and returns the step's vector, and runs its NumPy
line (a gather, a multiply and a ``bincount``) where the extension does not
load or ``scatter`` hands the input back; the scatter gives that line's
bits, and is still called once per step. The extension also holds the
snapshot codec: the ``scan`` and ``write`` that the snapshot reader and
writer of ``graph`` try first, the ``add_rows`` that installs the graph rows
it takes, and ``top``, ``ranker.to_ranked_list``'s top-k cut.

It is built on the first use in a process, with the C compiler Python was
built with (``sysconfig``'s ``CC``), ``-O2 -fPIC -shared -ffp-contract=off
-lm`` and ``-I`` with the Python header directories. The library is cached in
``$XDG_CACHE_HOME/skillgraph`` (default ``~/.cache/skillgraph``), a
directory made with mode 0700 that must belong to the user and be writable
by no one else. Its file name carries a BLAKE2b digest of the source, the
flags, the machine type and the interpreter's ``EXT_SUFFIX`` in place of its
header directories (an extension is tied to the one ABI that the suffix
names), so a changed source or flag builds anew and a later process only
loads it, with no ``sysconfig``. The digest comes from CPython's own BLAKE2
module, not ``hashlib``, whose import maps OpenSSL: about 3.4 MB of resident
memory in every process that keys a library. The compiler reads the very
bytes that were keyed, and writes a temporary file in the cache that is
renamed into place, so concurrent first runs do not see half a library. A
built library stays until the user deletes it: each source, flag set,
machine type and ABI keeps its own file of about 50 KB, so versions that
share the cache never rebuild each other's library, and deleting the
directory reclaims the space.

The C pass and the Python pass add the same floats in the same order: the
same queue, candidate bookkeeping, tie rule and binary64 operations. No fused
multiply-add is formed (``-ffp-contract=off``, which the scatter needs too:
it rounds each product and each sum, as NumPy's multiply and ``bincount``
do), a platform whose C evaluates doubles in wider registers
(``FLT_EVAL_METHOD != 0``) fails the build, and ``log2`` is the libm
function that CPython's ``math.log2`` calls, so every label, the move count
and the summed delta equal the Python pass's bit for bit. Where no compiler
or no ``Python.h`` is found, the build fails or the library does not load,
every Python path runs instead, with the same results.

The two passes are written in two forms, so each checks the other. The C
pass keeps each module's old code terms, ``plogp(exit)`` and
``plogp(exit + visit)``, and ``plogp`` of the total exit, updating them only
on a move. The Python pass recomputes every term of every candidate through
``_plogp``; it copies its arrays to lists, runs on those and writes only the
labels back, because indexing an ndarray from Python boxes every element as
a numpy scalar, and numpy scalar arithmetic is several times slower than the
same IEEE double operations on Python floats, which give bit-identical
results.

``ACTIVE_BACKEND`` names the library that runs, for benchmark reports:
``"c"`` once ``snapshot_codec`` has loaded the extension, ``"python"``
before the first move pass, graph row, snapshot read or write, scatter or
ranked list of a process and when it could not. Each entry point of the
extension has one contract: it takes the input and owns what it returns,
or hands the input back having written nothing of the caller's, and the
Python pass, the Python codec or the NumPy line runs in its place and gives
its own result or error. ``add_rows`` writes only the rows it installs,
``move_pass`` only the labels and the module copies ``local_move_pass``
makes, and ``scatter`` only the vector it makes.
"""
from __future__ import annotations

import functools
import importlib.machinery
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
    """``scores`` pushed along the edges ``esrc -> edst`` weighted by
    ``eweight``, summed per target in edge order into ``n`` slots: the vector
    the compiled scatter makes where it takes the input, else the NumPy
    line's, whose result and errors it gives bit for bit."""
    codec = snapshot_codec()
    out = codec.scatter(scores, esrc, edst, eweight, n) if codec is not None else None
    if out is not None:
        return out
    return np.bincount(edst, weights=eweight * scores[esrc], minlength=n)


def local_move_pass(order, labels, visit, tele, size, nbr, modules, n_orig, eps):
    """Greedy single-unit moves from a FIFO queue that starts as ``order``.

    ``nbr`` is ``FlowGraph.nbr`` and ``modules`` the ``FlowGraph.module_state``
    of ``labels``; the pass works on copies of the modules and writes only
    the final ``labels`` back, in place. A unit that moves to module ``b``
    queues each neighbour that is neither queued nor in ``b``; the pass ends
    when the queue is empty, which it reaches because every move lowers the
    cost by more than ``eps``. Returns ``(moves, delta_sum)``, the move count
    and the summed cost change. Raises ``ValueError`` when an index in
    ``order``, ``labels`` or ``nbr`` is out of range or the arrays disagree in
    length, before either pass starts.

    The vectors go to the compiled pass as given; it runs on exact int64 and
    float64 ndarrays, 1-d and C-contiguous, with writable labels, and hands
    any other input (another dtype, a strided view, read-only labels) back,
    having written nothing, to the Python pass."""
    _check_move_input(order, labels, visit, tele, size, nbr, modules)
    codec = snapshot_codec()
    if codec is not None:
        done = codec.move_pass(
            order, labels, visit, tele, size, *nbr,
            *[np.array(a, dtype=np.float64) for a in modules],  # copies the pass updates
            float(modules[4].sum()), float(n_orig), float(eps))
        if done is not None:
            return done
    return _python_move_pass(order, labels, visit, tele, size, nbr, modules, n_orig, eps)


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
    """``local_move_pass`` in Python; it runs on list copies of the arrays and
    recomputes every code term of every candidate through ``_plogp``."""
    exit_sum = float(modules[4].sum())
    labels_out, labels = labels, labels.tolist()
    mod_visit, mod_tele, mod_size, mod_cross, mod_exit = [a.tolist() for a in modules]
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
    labels_out[:] = labels
    return moves, delta_sum


_CODEC_SOURCE = Path(__file__).with_name("_snapshot.c")
# no fused multiply-add, which would round a product and a sum once where
# the Python pass and NumPy round twice; the source calls libm
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm",)


@functools.cache
def snapshot_codec():
    """The ``_snapshot.c`` extension module, whose ``move_pass``
    ``local_move_pass`` runs, whose ``scan`` and ``write`` the snapshot
    reader and writer try first, whose ``add_rows`` installs every graph row
    it takes (any other goes through the Python check) and whose ``scatter``
    and ``top`` ``propagate_step`` and ``ranker.to_ranked_list`` try first;
    loaded from the cache or built into it on the first call of the process
    (see above); ``None`` when it cannot be built or loaded. Sets
    ``ACTIVE_BACKEND`` to the library that runs."""
    global ACTIVE_BACKEND
    ACTIVE_BACKEND = "python"
    try:  # hashlib's BLAKE2 without hashlib, which maps OpenSSL when imported
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    cache = _cache_dir() if os.name == "posix" else None
    if cache is None:
        return None
    try:
        source = _CODEC_SOURCE.read_bytes()
    except OSError:
        return None
    flags = (*_CFLAGS, *_LDLIBS)
    abi = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = blake2b(b"\0".join([source, " ".join(flags).encode(), platform.machine().encode(),
                              abi.encode()]), digest_size=16).hexdigest()
    path = os.path.join(cache, f"snapshot-{key}.so")
    if not os.path.exists(path) and not _build(path, source):
        return None
    from importlib.util import module_from_spec, spec_from_file_location

    name = f"{__package__}._snapshot"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    try:
        module = module_from_spec(spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
    except (OSError, ImportError):
        return None
    ACTIVE_BACKEND = "c"
    return module


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


def _build(path, source):
    """Compile the C ``source`` (bytes, read from standard input) against the
    Python headers to ``path`` through a temporary file beside it; whether
    that worked."""
    import shlex
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return False
    paths = sysconfig.get_paths()
    cflags = (*_CFLAGS, *(f"-I{p}" for p in dict.fromkeys(
        (paths["include"], paths["platinclude"]))))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".snapshot-", suffix=".so", dir=os.path.dirname(path))
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *cflags, "-o", tmp, "-x", "c", "-", *_LDLIBS],
                       input=source, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=300)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return True
