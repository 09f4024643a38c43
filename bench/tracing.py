"""Spans around calls into starvol's public functions, installed by name.

The benchmark replaces module attributes (for example
``starvol.geometry.find_radius``) with timing wrappers for the duration of a
traced operation and puts the originals back afterwards, so an untraced
operation never runs wrapper code. A target name that no longer exists is
skipped and its layer is reported as absent.

Spans live in memory as tuples ``(span_id, parent_id, name, start, end,
bytes)`` and are written out once, when the run ends. A span opened in a
worker thread of the estimator's pool has no parent on its own thread; it is
parented to the innermost span open on the thread that installed the tracer,
which is the estimate call that started the pool.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name). Several names map to one span name where a
# module imported the function under its own name.
TIMED = (
    ("starvol.cli", "main", "cli.main"),
    ("starvol.cli", "estimate_local_volume", "geometry.estimate"),
    ("starvol.geometry", "estimate_local_volume", "geometry.estimate"),
    ("starvol.geometry", "find_radius", "geometry.find_radius"),
    ("starvol.geometry", "gaussian_radial_log_integral", "geometry.radial_integral"),
    ("starvol.geometry", "sample_direction", "geometry.sample_direction"),
    ("starvol.geometry", "log_sum_exp", "logspace.log_sum_exp"),
    ("starvol.precondition", "Preconditioner.apply", "precondition.apply"),
    ("starvol.precondition", "from_hessian", "precondition.from_hessian"),
    ("starvol.precondition", "from_diagonal", "precondition.from_diagonal"),
    ("starvol.cli", "from_diagonal", "precondition.from_diagonal"),
    ("starvol.cli", "from_hessian", "precondition.from_hessian"),
    ("starvol.models", "hessian_diag", "models.hessian_diag"),
    ("starvol.models", "hessian_full", "models.hessian_full"),
    ("starvol.models", "adam_train", "models.adam_train"),
    ("starvol.cli", "adam_train", "models.adam_train"),
    ("starvol.cli", "make_run_record", "runio.record"),
    ("starvol.cli", "write_jsonl", "runio.record"),
    ("starvol.cli", "write_samples_csv", "runio.record"),
)

# cost-handle factories: the wrapper returns a handle that records one
# "models.cost" span per evaluation
COST_FACTORIES = (
    ("starvol.models", "make_kl_cost"),
    ("starvol.models.hessian", "make_kl_cost"),
    ("starvol.cli", "make_kl_cost"),
)

COST_SPANS = ("models.cost", "bench.cost")


def _resolve(module_name: str, attr: str):
    """Return (owner, leaf name) for a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, computed from their sizes."""
    fields = (
        [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        if dataclasses.is_dataclass(obj)
        else list(vars(obj).values())
    )
    return sum(v.nbytes for v in fields if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.absent: list[str] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name: str, measure_bytes: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            nbytes = array_bytes(args[0]) if measure_bytes else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, nbytes))

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target that exists; remember the originals.

        `missing` lists the targets not found; `absent` the span names none
        of whose targets were found.
        """
        self._local.stack = self._home_stack
        targets = [(m, a, n, False) for m, a, n in TIMED]
        targets += [(m, a, "models.cost", True) for m, a in COST_FACTORIES]
        present: set[str] = set()
        self.missing = []
        for module_name, attr, name, factory in targets:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            if factory:
                wrapped = self._counting_factory(original)
            else:
                wrapped = self.span(original, name, measure_bytes=name == "precondition.apply")
            setattr(owner, leaf, wrapped)
            present.add(name)
        self.absent = sorted({t[2] for t in targets} - present)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _counting_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.span(factory(*args, **kwargs), "models.cost")

        return wrapper

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: Path, ops: list[list[tuple]]) -> None:
    with path.open("w") as fh:
        for op_index, spans in enumerate(ops):
            for sid, parent, name, start, end, nbytes in spans:
                fh.write(
                    json.dumps(
                        {"op": op_index, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "bytes": nbytes}
                    )
                    + "\n"
                )


# -- derivation ------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class OpSpans:
    """Per-layer totals for the spans of one traced operation."""

    def __init__(self, spans: list[tuple], op_seconds: float):
        self.op_seconds = op_seconds
        self.by_name: dict[str, list[tuple]] = {}
        children: dict[int, list[tuple]] = {}
        for span in spans:
            self.by_name.setdefault(span[2], []).append(span)
            children.setdefault(span[1], []).append(span)
        self.children = children

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        """Duration minus the part of it that child spans cover."""
        out = 0.0
        for sid, _, _, start, end, _ in self.by_name.get(name, ()):
            kids = [(max(c[3], start), min(c[4], end)) for c in self.children.get(sid, ())]
            out += (end - start) - _union_length([k for k in kids if k[1] > k[0]])
        return out

    def child_calls(self, name: str, child_names) -> int:
        return sum(
            1
            for s in self.by_name.get(name, ())
            for c in self.children.get(s[0], ())
            if c[2] in child_names
        )

    def child_total(self, name: str, child_name: str) -> float:
        return sum(
            c[4] - c[3]
            for s in self.by_name.get(name, ())
            for c in self.children.get(s[0], ())
            if c[2] == child_name
        )

    def bytes(self, name: str) -> int:
        return sum(s[5] for s in self.by_name.get(name, ()))

    def share(self, *names: str) -> float:
        """Wall-clock share of the operation during which any named span ran."""
        intervals = [(s[3], s[4]) for n in names for s in self.by_name.get(n, ())]
        return _union_length(intervals) / self.op_seconds

    def counts(self) -> dict[str, int]:
        """Exact counts that must repeat for the same inputs."""
        return {
            "models.cost.calls": self.calls("models.cost"),
            "bench.cost.calls": self.calls("bench.cost"),
            "geometry.find_radius.calls": self.calls("geometry.find_radius"),
            "geometry.find_radius.evals": self.child_calls("geometry.find_radius", COST_SPANS),
            "geometry.radial_integral.calls": self.calls("geometry.radial_integral"),
            "precondition.apply.calls": self.calls("precondition.apply"),
            "precondition.apply.bytes": self.bytes("precondition.apply"),
        }


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(op: OpSpans) -> dict[str, float]:
    """The per-layer metrics of one traced operation (0 where a layer is idle)."""
    fr_calls = op.calls("geometry.find_radius")
    cli_calls = op.calls("cli.main")
    return {
        "models.cost.us_per_call": _per(op.total("models.cost"), op.calls("models.cost"), 1e6),
        "models.cost.calls": op.calls("models.cost"),
        "models.cost.op_share": op.share("models.cost"),
        "geometry.find_radius.evals_per_ray": _per(
            op.child_calls("geometry.find_radius", COST_SPANS), fr_calls
        ),
        "geometry.find_radius.self_us_per_ray": _per(
            op.self_time("geometry.find_radius"), fr_calls, 1e6
        ),
        "geometry.radial_integral.us_per_call": _per(
            op.total("geometry.radial_integral"), op.calls("geometry.radial_integral"), 1e6
        ),
        "geometry.radial_integral.calls": op.calls("geometry.radial_integral"),
        "geometry.radial_integral.op_share": op.share("geometry.radial_integral"),
        "geometry.sample_direction.us_per_ray": _per(
            op.total("geometry.sample_direction"), op.calls("geometry.sample_direction"), 1e6
        ),
        "precondition.apply.bytes_per_call": _per(
            op.bytes("precondition.apply"), op.calls("precondition.apply")
        ),
        "geometry.estimate.self_s": op.self_time("geometry.estimate"),
        "logspace.log_sum_exp.us_per_call": _per(
            op.total("logspace.log_sum_exp"), op.calls("logspace.log_sum_exp"), 1e6
        ),
        "models.hessian_diag.s": op.total("models.hessian_diag"),
        "models.hessian_full.s": op.total("models.hessian_full"),
        "precondition.from_hessian.s": op.total("precondition.from_hessian"),
        "precondition.from_diagonal.s": op.total("precondition.from_diagonal"),
        "curvature.op_share": op.share(
            "models.hessian_diag", "models.hessian_full", "precondition.from_hessian"
        ),
        "cli.overhead_s": _per(
            op.total("cli.main") - op.child_total("cli.main", "geometry.estimate"), cli_calls
        ),
        "runio.record_s": _per(op.total("runio.record"), cli_calls),
    }
