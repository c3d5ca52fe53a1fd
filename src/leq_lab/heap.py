"""The glibc heap thresholds a training process runs under."""

from __future__ import annotations

import ctypes

__all__ = ["set_heap_policy"]

# glibc's mallopt parameter numbers, and the values a training process sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


def set_heap_policy() -> None:
    """Keep the arrays a training step frees in the heap for the next step.

    A main-loop step allocates and frees many 300-400 KB arrays (a hidden
    layer at 600-700 rows). glibc's defaults map such a block or trim the
    top of the heap once it is freed, depending on the largest block the
    process freed before, so every step faulted its pages in again: a
    median of 1200-3300 minor page faults (5-13 MB) per `train_step` on the
    model-based desk runs, and step times that moved with unrelated
    allocations. With the thresholds fixed at 32 MiB (mmap) and 64 MiB
    (trim), well above the 10-14 MB heap a desk run keeps, a step faults
    no pages. Calling it again sets the same values. Where `mallopt` does
    not exist, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
