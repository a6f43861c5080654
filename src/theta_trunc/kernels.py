"""Kernel backend selection.

Imports the compiled extension when available, otherwise the pure-Python
fallback.  ``THETA_TRUNC_PURE=1`` in the environment forces the fallback
(used by the benchmark and the backend-parity tests).
"""

import os

from . import _kernels_py

if os.environ.get("THETA_TRUNC_PURE"):
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

conv_trunc = _impl.conv_trunc
inv_unit = _impl.inv_unit
mul_one_minus = _impl.mul_one_minus
div_one_minus = _impl.div_one_minus
# Pure Python on both backends: _speedups.pyx has no twin of it, and
# ROADMAP item 2 decides whether the extension stays at all.
div_sparse = _kernels_py.div_sparse
