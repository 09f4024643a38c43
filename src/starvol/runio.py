"""Run records, config defaults, and the CSV writer for the command-line tools.

Configs are one JSON object with the sections documented in the README,
read through ``codec.Fields``, which refuses a null value; ``--seed``
overrides the file's seed. An estimate writes one JSON Lines record per
point, each built here and written by ``codec.write_json``, holding the
resolved config, the seed, and the aggregated result, with per-sample
detail in a sibling CSV, so any reported number can be replayed from its
record alone. starvol writes records and never reads one back.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import math
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .geometry import VolumeEstimate
from .models.train import AdamHyper, TrainConfig

__all__ = [
    "DEFAULT_CONFIG",
    "SAMPLE_FIELDS",
    "build_id",
    "make_run_record",
    "merge_config",
    "sample_rows",
    "write_csv",
]

DEFAULT_CONFIG: dict = {
    "seed": 0,  # --seed overrides it
    "dataset": {
        "kind": "blobs",  # blobs | spirals | csv
        "dim": 16,
        "classes": 4,
        "train": 256,
        "val": 512,
        "poison": 0,
        "noise": 1.0,
        "center_scale": 2.0,
        "path": None,  # csv only
    },
    "model": {
        "hidden": [32],
        "init": "fan_in",  # "fan_in" or a positive number
    },
    "train": {
        "epochs": 20,
        "batch_size": 32,
        **dataclasses.asdict(AdamHyper()),  # lr, beta1, beta2, adam_eps
        "checkpoint_every": TrainConfig.checkpoint_every,
        "poison_alpha": 0.0,
    },
}


def merge_config(base: dict, override: dict) -> dict:
    """A deep copy of ``base`` with each value of ``override`` in place, objects merged
    key by key; a null in ``override`` is kept, for ``Fields`` to refuse."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(base[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@functools.cache
def build_id() -> str:
    """Identify the code that produced a record.

    The git commit, when the package is the ``src/starvol`` of the git
    checkout it sits in; otherwise (an installed copy, or a copy inside some
    other repository) the package version. Computed once per process: the
    ``git`` call takes milliseconds, and every run record asks for it.
    """
    package = Path(__file__).resolve().parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=package,
            timeout=5,
        )
        if head.returncode == 0:
            top, commit = head.stdout.split()
            if Path(top).resolve() / "src" / "starvol" == package:
                return f"git:{commit}"
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return f"starvol-{__version__}"


# the estimate's fields that a run record holds under their own names
ESTIMATE_FIELDS = ("n", "k", "cutoff", "log_volume", "log10_volume", "max_log_term", "truncated_count", "failed_count",
                   "failed_by_reason", "cost_evals", "evals_per_ray", "ess", "top_share", "log_term_sd", "prefix_rise",
                   "lower_bound_only", "stage_seconds")


def make_run_record(
    subcommand: str,
    seed: int,
    config: dict,
    estimate: VolumeEstimate | None,
    wall_time_s: float,
) -> dict:
    """The run fields, and with an ``estimate`` its fields and ``status`` "ok"; the
    caller adds the map's name as ``preconditioner``.

    JSON has no infinity, so a failed ray's log term (-inf) is null, and so
    is a ``prefix_rise`` of +inf (every ray of the prefix failed).
    """
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "build": build_id(),
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "wall_time_s": wall_time_s,
    }
    if estimate is None:
        return record
    fields = {name: getattr(estimate, name) for name in ESTIMATE_FIELDS}
    return record | fields | {
        "prefix_rise": None if fields["prefix_rise"] == math.inf else fields["prefix_rise"],
        "measure": estimate.measure.kind,
        "log_terms": [None if s.failed else s.log_term for s in estimate.samples],
        "status": "ok",
    }


SAMPLE_FIELDS = ["sample", "radius", "truncated", "failed", "failure", "evals", "log_importance_norm", "log_term"]


def sample_rows(estimate: VolumeEstimate, **leading) -> list[dict]:
    """One row per ray of ``estimate`` under ``SAMPLE_FIELDS``, each after the ``leading`` columns."""
    return [{**leading, **dict(zip(SAMPLE_FIELDS, (i, repr(s.radius), int(s.truncated), int(s.failed), s.failure,
                                                   s.evals, repr(s.log_importance_norm), repr(s.log_term))))}
            for i, s in enumerate(estimate.samples)]


def write_csv(path: str | Path, rows: list[dict], fieldnames: list[str]) -> None:
    """Write ``rows``, one dict per line, under a ``fieldnames`` header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
