"""Checkpoint files: flat parameters, layer shape, Adam buffers, init sigmas.

Checkpoints are versioned JSON with each array stored as the base64 text of
its float64 bytes (see ``starvol.codec``), so saving the same state twice
produces byte-identical files and loading recovers bit-identical vectors.
A file of another version, one that lacks a field or holds one that does
not decode, or one whose Adam hyperparameters miss a name or add one is
refused, with the field and the file named.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..codec import decode_array, write_json
from .mlp import MlpParams
from .train import AdamHyper, AdamState

__all__ = ["Checkpoint", "load_checkpoint", "save_checkpoint"]

FORMAT_NAME = "starvol-checkpoint"
FORMAT_VERSION = 2  # arrays as base64 float64 strings


@dataclass(frozen=True)
class Checkpoint:
    params: MlpParams
    adam: AdamState
    sigma: np.ndarray  # per-coordinate init stds (the Gaussian measure)
    step: int
    config: dict  # resolved run config the checkpoint came from


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    write_json(path, {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "step": checkpoint.step,
        "shape": [[int(i), int(o)] for i, o in checkpoint.params.shape],
        "flat": checkpoint.params.flat,
        "adam_mu": checkpoint.adam.mu,
        "adam_nu": checkpoint.adam.nu,
        "adam_step": checkpoint.adam.step,
        "hyper": asdict(checkpoint.adam.hyper),
        "sigma": checkpoint.sigma,
        "config": checkpoint.config,
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT_NAME:
        raise ValueError(f"not a checkpoint file: {path}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')}")

    def field(name, decode=None):
        if name not in data:
            raise ValueError(f"missing checkpoint field {name} in {path}")
        try:
            return data[name] if decode is None else decode(data[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint field {name} in {path}: {exc}") from None

    shape = field("shape", lambda pairs: tuple((int(i), int(o)) for i, o in pairs))
    params = MlpParams(field("flat", decode_array), shape)
    for name in ("hyper", "config"):
        if not isinstance(field(name), dict):
            raise ValueError(f"checkpoint field {name} is not an object in {path}")
    hyper, names = field("hyper"), {f.name for f in fields(AdamHyper)}
    given = set(hyper)
    reasons = [f"{label} hyper field {', '.join(sorted(keys))}"
               for label, keys in (("missing", names - given), ("unknown", given - names)) if keys]
    if reasons:
        raise ValueError(f"{'; '.join(reasons)} in {path}")
    adam = AdamState(
        mu=field("adam_mu", decode_array),
        nu=field("adam_nu", decode_array),
        step=field("adam_step", int),
        hyper=AdamHyper(**hyper),
    )
    sigma = field("sigma", decode_array)
    return Checkpoint(params=params, adam=adam, sigma=sigma, step=field("step", int), config=field("config"))
