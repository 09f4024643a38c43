"""Checkpoint files: flat parameters, layer shape, Adam buffers, init sigmas.

Checkpoints are versioned JSON with each array stored as the base64 text of
its float64 bytes (see ``starvol.codec``), so saving the same state twice
produces byte-identical files and loading recovers bit-identical vectors.
A file of any other version is refused, with its version named.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
    shape = tuple((int(i), int(o)) for i, o in data["shape"])
    params = MlpParams(decode_array(data["flat"]), shape)
    hyper = AdamHyper(**data["hyper"])
    adam = AdamState(
        mu=decode_array(data["adam_mu"]),
        nu=decode_array(data["adam_nu"]),
        step=int(data["adam_step"]),
        hyper=hyper,
    )
    sigma = decode_array(data["sigma"])
    return Checkpoint(params=params, adam=adam, sigma=sigma, step=int(data["step"]), config=data["config"])
