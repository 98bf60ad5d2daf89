"""Backend selection for the hot numeric kernels.

Kernels ship in two builds: a Numba ``@njit`` one and a pure-NumPy fallback.
The environment variable ``SKILLGRAPH_NUMBA`` picks the path:

* unset / ``1`` / ``on``  -- use the JIT build when numba imports cleanly
* ``0`` / ``off``         -- force the NumPy fallback

Selection happens once at import time so a whole process runs one backend.
numba is optional (the ``jit`` extra). ``python3 perfbench/run.py --workload
query-m --seed 1 --seconds 3 --trace 1`` reports per-kernel call counts and
times for the backend that ran.
"""
from __future__ import annotations

import os

try:
    from numba import njit as _numba_njit

    NUMBA_AVAILABLE = True
except ImportError:  # numba is the optional ``jit`` extra
    _numba_njit = None
    NUMBA_AVAILABLE = False

_FALSEY = {"0", "off", "false", "no"}


def _env_allows_numba() -> bool:
    return os.environ.get("SKILLGRAPH_NUMBA", "1").strip().lower() not in _FALSEY


USE_NUMBA = NUMBA_AVAILABLE and _env_allows_numba()


def jit_compile(func):
    """Return the numba build of ``func`` (cached to disk, no fastmath).

    fastmath stays off: reassociation would break the bit-level determinism
    the pipeline promises for fixed seeds.
    """
    if not NUMBA_AVAILABLE:  # pragma: no cover
        raise RuntimeError("numba is not available")
    return _numba_njit(cache=True)(func)
