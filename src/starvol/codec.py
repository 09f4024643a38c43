"""The JSON files starvol reads and writes: exact float64 arrays, and one reader.

An array is stored as one JSON string, the base64 text of its little-endian
float64 bytes. The encoding is exact, takes 4/3 bytes per byte of data, and
costs no number formatting or parsing. Writing streams each array in
pieces, so no text copy of a large array is held, and the same payload
always gives the same bytes.

Every checkpoint, run record and config is read through :class:`Fields`,
which refuses a root that is not an object, a file of another format or
version, and a missing, null, malformed or (in a ``train`` config) unknown
field with a ``ValueError`` naming the field (dotted where nested, as
``dataset.train``) and the file.
"""

from __future__ import annotations

import binascii
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["Fields", "count", "decode_array", "integer", "number", "write_json"]

_FLOAT64_LE = np.dtype("<f8")
_CHUNK_BYTES = 3 << 20  # a multiple of 3, so the base64 pieces concatenate


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as one JSON object with sorted keys.

    Top-level numpy arrays are written as base64 strings of their
    little-endian float64 bytes; every other value goes through
    ``json.dumps``. The file equals ``json.dumps(..., sort_keys=True)`` of
    the payload with each array replaced by its string. A missing parent
    directory is created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as out:
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


def decode_array(value: str) -> np.ndarray:
    """A read-only flat float64 array from a base64 string that :func:`write_json` wrote.

    The string is decoded without a copy of its text and viewed, not copied,
    as floats; callers check the size. Any other value raises ``ValueError``.
    """
    if not isinstance(value, str):
        raise ValueError(f"expected a base64 string, got {type(value).__name__}")
    # a2b_base64 reads an ASCII str in place, where base64.b64decode
    # would first encode it to a bytes copy
    arr = np.frombuffer(binascii.a2b_base64(value), dtype=_FLOAT64_LE).astype(float, copy=False)
    arr.setflags(write=False)
    return arr


def integer(value) -> int:
    """``value`` as an int: an int, or a float with no fraction; a bool or a fraction is refused."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def count(value, least: int = 1) -> int:
    """An :func:`integer` of at least ``least``."""
    value = integer(value)
    if value < least:
        raise ValueError(f"expected an integer >= {least}, got {value}")
    return value


def number(value, least: float | None = None) -> float:
    """``value`` as a float: an int or a float; a bool or a string is refused, and
    with ``least``, a value below it or not finite."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    if least is not None and not least <= value < math.inf:
        raise ValueError(f"expected a finite number >= {least}, got {value!r}")
    return float(value)


class Fields:
    """A JSON object from the file ``path``, read field by field.

    ``label`` says what the object is (``checkpoint``, ``record``, ...) and
    every refusal is a ``ValueError`` naming the field and the file.
    ``root`` names the object in the refusal of a root that is not one.
    """

    def __init__(self, data, path, label: str, *, root: str | None = None, prefix: str = ""):
        if not isinstance(data, dict):
            raise ValueError(f"{root or 'the ' + label} in {path} is not an object")
        self.data, self.path, self.label, self.prefix = data, path, label, prefix

    @classmethod
    def read(cls, path, label: str, *, format: str | None = None, version: int | None = None):
        """The object in the file at ``path``; with ``format``, a file of another format or version is refused."""
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"not a JSON file: {path}: {exc}") from None
        fields = cls(data, path, label)
        if format is not None and fields.data.get("format") != format:
            raise ValueError(f"not a {label} file: {path}")
        if format is not None and fields.data.get("version") != version:
            raise ValueError(f"unsupported {label} version {fields.data.get('version')} in {path}")
        return fields

    def get(self, name: str, convert=None, *, optional: bool = False):
        """Field ``name`` through ``convert``; a missing or null field is None if ``optional``, else refused."""
        value = self.data.get(name)
        if value is None and not optional:
            raise ValueError(f"missing {self.label} field {self.prefix}{name} in {self.path}")
        try:
            return value if value is None or convert is None else convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed {self.label} field {self.prefix}{name} in {self.path}: {exc}") from None

    def refuse_unknown(self, known: dict) -> None:
        """Refuse a field that ``known`` lacks, in every object that both hold under one name."""
        for name, value in self.data.items():
            if name not in known:
                raise ValueError(f"unknown {self.label} field {self.prefix}{name} in {self.path}")
            if isinstance(value, dict) and isinstance(known[name], dict):
                self.section(name).refuse_unknown(known[name])

    def section(self, name: str) -> "Fields":
        """The object in field ``name``, its fields named ``name.field``."""
        value = self.get(name)
        if not isinstance(value, dict):
            raise ValueError(f"{self.label} field {self.prefix}{name} is not an object in {self.path}")
        return Fields(value, self.path, self.label, prefix=f"{self.prefix}{name}.")
