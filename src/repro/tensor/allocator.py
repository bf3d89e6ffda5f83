"""Keep the freed heap warm: fixed glibc malloc thresholds.

Once :meth:`Tensor.backward` frees each step's activations, the next step
allocates the same arrays again.  With glibc's default *dynamic* thresholds
that memory goes back to the OS on every free (large arrays are ``mmap``-ed
and unmapped, the heap top is trimmed), so each step page-faults it in anew.
Fixing both thresholds high keeps freed arrays on the heap for reuse.

Both must be set together: setting either one disables glibc's dynamic
adjustment of the other, which is worse than leaving both alone (a raised
trim threshold with the default mmap threshold still unmaps every large
array; a raised mmap threshold with the default trim threshold trims the
heap top after every large free).

:func:`tune_malloc` runs once when :mod:`repro.tensor` is imported.  On a
platform without glibc it is a silent no-op.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

__all__ = ["tune_malloc"]

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Serve allocations below 1 GiB from the heap rather than fresh mappings.
MMAP_THRESHOLD_BYTES = 1 << 30
#: Return the heap top to the OS only once 2 GiB - 1 of it is free.
TRIM_THRESHOLD_BYTES = (1 << 31) - 1


def tune_malloc() -> Optional[Tuple[int, int]]:
    """Set glibc's mmap and trim thresholds; return both ``mallopt`` results.

    Returns ``(mmap_result, trim_result)`` — ``1`` means the setting took —
    or ``None`` when the C library is not glibc or cannot be loaded.
    Idempotent.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    # The parameter numbers above are glibc's own.
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return None
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES))
