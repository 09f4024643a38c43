"""Checkpoint files: flat parameters, layer shape, Adam buffers, init sigmas.

Checkpoints are versioned JSON with each array stored as the base64 text of
its float64 bytes (see ``starvol.codec``), so saving the same state twice
produces byte-identical files and loading recovers bit-identical vectors.
A file of another version, one that lacks a field, or one whose Adam
hyperparameters miss a name or add one is refused, with the field named.
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

    def field(name):
        if name not in data:
            raise ValueError(f"missing checkpoint field {name} in {path}")
        return data[name]

    shape = tuple((int(i), int(o)) for i, o in field("shape"))
    params = MlpParams(decode_array(field("flat")), shape)
    hyper, names = field("hyper"), {f.name for f in fields(AdamHyper)}
    if not isinstance(hyper, dict):
        raise ValueError(f"checkpoint field hyper is not an object in {path}")
    given = set(hyper)
    reasons = [f"{label} hyper field {', '.join(sorted(keys))}"
               for label, keys in (("missing", names - given), ("unknown", given - names)) if keys]
    if reasons:
        raise ValueError(f"{'; '.join(reasons)} in {path}")
    adam = AdamState(
        mu=decode_array(field("adam_mu")),
        nu=decode_array(field("adam_nu")),
        step=int(field("adam_step")),
        hyper=AdamHyper(**hyper),
    )
    sigma = decode_array(field("sigma"))
    return Checkpoint(params=params, adam=adam, sigma=sigma, step=int(field("step")), config=field("config"))
