"""One OpenBLAS thread for every function that calls BLAS.

OpenBLAS splits a large product or dot over worker threads, which changes
its last bits and leaves the workers spinning after it. Every BLAS call in a
function marked ``one_blas_thread``, of any size, runs on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from typing import Callable

__all__ = ["one_blas_thread"]

_held = threading.local()  # the extensions whose count a marked call on this thread holds


@functools.cache
def _thread_setter(extension: str) -> Callable[[int], int] | None:
    """``openblas_set_num_threads_local`` of the OpenBLAS that ``extension`` links, which sets
    the calling thread's count and returns the previous one; None under another BLAS."""
    try:
        setter = ctypes.CDLL(importlib.import_module(extension).__file__).openblas_set_num_threads_local
    except (ImportError, AttributeError, OSError):
        return None
    setter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
    return setter


def one_blas_thread(extension: str = "numpy._core._multiarray_umath"):
    """Decorator: run the function with the calling thread's count of the OpenBLAS
    that ``extension`` links (numpy's by default) at 1, restored on return or raise.
    A nested marked call only reads a per-thread flag; without a setter the
    function runs as it is."""

    def mark(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            held = _held.__dict__
            if extension in held or (setter := _thread_setter(extension)) is None:
                return fn(*args, **kwargs)
            previous = setter(1)
            held[extension] = True
            try:
                return fn(*args, **kwargs)
            finally:
                del held[extension]
                setter(previous)

        return run

    return mark
