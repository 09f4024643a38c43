"""The JSON files starvol reads and writes: exact float64 arrays, one writer and one reader.

Every JSON file is written by :func:`write_json`: each object is one line,
``json.dumps`` of it with sorted keys, so the same payload always gives the
same bytes. An array is stored as one JSON string, the base64 text of its
little-endian float64 bytes. The encoding is exact, takes 4/3 bytes per
byte of data, and costs no number formatting or parsing.

starvol reads two kinds of file, checkpoints and ``train`` configs, and the
config a checkpoint saves, each through :class:`Fields`, which refuses a
root that is not an object, a file of another format or version, and a
missing, null, malformed or (in a ``train`` config) unknown field with a
``ValueError`` naming the field (dotted where nested, as ``dataset.train``)
and the file. A file that is not UTF-8 or not JSON is refused by name.
"""

from __future__ import annotations

import binascii
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["Fields", "count", "decode_array", "integer", "number", "write_json"]

_FLOAT64_LE = np.dtype("<f8")


def write_json(path: str | Path, *objects: dict) -> None:
    """Write each of ``objects``, a dict with string keys, as ``json.dumps(obj, sort_keys=True)``
    and a newline, replacing the file.

    Each top-level numpy array is written as the base64 string of its
    little-endian float64 bytes, in C order. Any other non-finite float is
    refused with ``ValueError``, since JSON has no token for it. A missing
    parent directory is created.
    """
    def text(value) -> str:
        if not isinstance(value, np.ndarray):
            return json.dumps(value, sort_keys=True, allow_nan=False)
        # base64 needs no escaping, so json.dumps is not asked to scan it: that
        # scan more than doubled the time to write a 4,810-parameter checkpoint
        return '"' + binascii.b2a_base64(np.ascontiguousarray(value, dtype=_FLOAT64_LE), newline=False).decode() + '"'

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ("{" + ", ".join(f"{json.dumps(key)}: {text(obj[key])}" for key in sorted(obj)) + "}\n" for obj in objects)
    path.write_bytes("".join(lines).encode())


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
    """``value``, an int or a float, as a float; a bool, a string, NaN, ±inf (which ``json``
    reads from ``NaN``, ``Infinity`` or ``1e400``) and, with ``least``, a value below it are refused."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value) or least is not None and value < least:
        raise ValueError(f"expected a finite number{'' if least is None else f' >= {least}'}, got {value!r}")
    return float(value)


class Fields:
    """A JSON object from the file ``path``, read field by field.

    ``label`` says what the object is (``checkpoint``, ``config``, ...) and
    every refusal is a ``ValueError`` naming the field and the file.
    """

    def __init__(self, data, path, label: str, *, prefix: str = ""):
        if not isinstance(data, dict):
            raise ValueError(f"the {label} in {path} is not an object")
        self.data, self.path, self.label, self.prefix = data, path, label, prefix

    @classmethod
    def read(cls, path, label: str, *, format: str | None = None, version: int | None = None):
        """The object in the file at ``path``; with ``format``, a file of another format or version is refused."""
        try:
            data = json.loads(Path(path).read_text())
        except ValueError as exc:  # text that is not UTF-8, or not JSON
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
