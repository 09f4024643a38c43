"""Checkpoint files: flat parameters, layer shape, Adam buffers, init sigmas.

Checkpoints are versioned JSON with each array stored as the base64 text of
its float64 bytes (see ``starvol.codec``), so saving the same state twice
produces byte-identical files and loading recovers bit-identical vectors.
A file of another version, one that lacks a field or holds one that does
not read (through ``codec.Fields``), or one whose Adam hyperparameters miss
a name or add one is refused, with the field and the file named.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..codec import Fields, decode_array, integer, number, write_json
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
    ckpt = Fields.read(path, "checkpoint", format=FORMAT_NAME, version=FORMAT_VERSION)
    shape = ckpt.get("shape", lambda pairs: tuple((integer(i), integer(o)) for i, o in pairs))
    params = MlpParams(ckpt.get("flat", decode_array), shape)
    hyper, config = ckpt.section("hyper"), ckpt.section("config").data
    names, given = [f.name for f in fields(AdamHyper)], set(hyper.data)
    reasons = [f"{label} hyper field {', '.join(sorted(keys))}"
               for label, keys in (("missing", set(names) - given), ("unknown", given - set(names))) if keys]
    if reasons:
        raise ValueError(f"{'; '.join(reasons)} in {path}")
    adam = AdamState(
        mu=ckpt.get("adam_mu", decode_array),
        nu=ckpt.get("adam_nu", decode_array),
        step=ckpt.get("adam_step", integer),
        hyper=AdamHyper(**{name: hyper.get(name, number) for name in names}),
    )
    sigma = ckpt.get("sigma", decode_array)
    return Checkpoint(params=params, adam=adam, sigma=sigma, step=ckpt.get("step", integer), config=config)
