"""Exact float64 arrays inside the JSON files starvol writes.

An array is stored as one JSON string, the base64 text of its little-endian
float64 bytes. The encoding is exact, takes 4/3 bytes per byte of data, and
costs no number formatting or parsing, so a dense map of n = 4,810 saves
and loads in seconds. Writing streams each array in pieces, so no text copy
of a large array is held, and the same payload always gives the same bytes.
"""

from __future__ import annotations

import binascii
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["decode_array", "write_json"]

_FLOAT64_LE = np.dtype("<f8")
_CHUNK_BYTES = 3 << 20  # a multiple of 3, so the base64 pieces concatenate


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as one JSON object with sorted keys.

    Top-level numpy arrays are written as base64 strings of their
    little-endian float64 bytes; every other value goes through
    ``json.dumps``. The file equals ``json.dumps(..., sort_keys=True)`` of
    the payload with each array replaced by its string.
    """
    with open(path, "wb") as out:
        sep = b"{"
        for key in sorted(payload):
            out.write(sep + json.dumps(key).encode() + b": ")
            sep = b", "
            value = payload[key]
            if not isinstance(value, np.ndarray):
                out.write(json.dumps(value, sort_keys=True).encode())
                continue
            data = memoryview(np.ascontiguousarray(value, dtype=_FLOAT64_LE)).cast("B")
            out.write(b'"')
            for start in range(0, len(data), _CHUNK_BYTES):
                out.write(binascii.b2a_base64(data[start : start + _CHUNK_BYTES], newline=False))
            out.write(b'"')
        out.write(b"}")


def decode_array(value: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A read-only float64 array from a base64 string that :func:`write_json` wrote.

    The string is decoded without a copy of its text and viewed, not copied,
    as C-ordered floats, reshaped to ``shape`` when its size allows; callers
    check the shape either way. Any other value raises ``ValueError``.
    """
    if not isinstance(value, str):
        raise ValueError(f"expected a base64 string, got {type(value).__name__}")
    # a2b_base64 reads an ASCII str in place, where base64.b64decode
    # would first encode it to a bytes copy
    arr = np.frombuffer(binascii.a2b_base64(value), dtype=_FLOAT64_LE).astype(float, copy=False)
    if shape is not None and arr.size == math.prod(shape):
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr
