"""numpy's own OpenBLAS, found once, for the calls numpy does not expose.

cli sets its thread count for each command, and calculus seeds each Gauss
rule with its LAPACK dsterf.  Both take the library and the symbol names
from numpy_openblas, so this module alone decides which BLAS numpy links.
"""

from __future__ import annotations

import ctypes
import functools
import importlib

# (thread-count functions, LAPACK routines) of each OpenBLAS build numpy
# ships with; the LAPACK names are the ILP64 ones (64-bit n and info), and a
# build whose LAPACK takes 32-bit integers gives None, so no caller declares
# its routines with the wrong integer width
_BUILDS = (
    ("scipy_openblas_{}_num_threads64_", "scipy_{}_64_"),   # numpy 2 wheels
    ("openblas_{}_num_threads64_", "{}_64_"),               # numpy 1.26 wheels
    ("openblas_{}_num_threads", None),                      # a system build
)


@functools.cache
def numpy_openblas():
    """(lib, threads, lapack) of numpy's OpenBLAS, or None where numpy links another BLAS.

    lib is a ctypes handle, threads the name pattern of its get/set thread
    count functions ("get" or "set" in the braces) and lapack that of its
    ILP64 LAPACK routines ("dsterf" in the braces), or None.  dlsym on the
    handle of numpy's compiled extension also searches the libraries that
    extension links, so the bundled OpenBLAS is found without a path.
    """
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError, TypeError):
            continue
        for threads, lapack in _BUILDS:
            if all(hasattr(lib, threads.format(x)) for x in ("get", "set")):
                return lib, threads, lapack
    return None
