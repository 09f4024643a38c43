"""Checkpoint files: flat parameters, layer shape, Adam's second moment, run config.

A checkpoint stores each fact once: ``format``, ``version``, ``step``,
``shape``, ``flat``, ``adam_nu`` and ``config`` (the resolved run config,
which holds the Adam hyperparameters under ``train``). Its init prior is
``mlp.init_measure`` of ``shape`` and the config's ``model.init``. It is
versioned JSON with each array stored as the base64 text of its float64
bytes (see ``starvol.codec``), so saving the same state twice produces
byte-identical files and loading recovers bit-identical vectors. A file of
another version, or one that lacks a field or holds one that does not read
(through ``codec.Fields``), such as an array whose length is not the
parameter count, is refused, with the field and the file named.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..codec import Fields, decode_array, integer, write_json
from .mlp import MlpParams, _validate_shape, param_count

__all__ = ["Checkpoint", "load_checkpoint", "save_checkpoint"]

FORMAT_NAME = "starvol-checkpoint"
FORMAT_VERSION = 4  # no init stds: the prior is built from the shape and model.init


@dataclass(frozen=True)
class Checkpoint:
    params: MlpParams
    nu: np.ndarray  # Adam's second moment at this step (the adam-nu map's spectrum)
    step: int
    config: dict  # resolved run config the checkpoint came from


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    write_json(path, {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "step": checkpoint.step,
        "shape": [[int(i), int(o)] for i, o in checkpoint.params.shape],
        "flat": checkpoint.params.flat,
        "adam_nu": checkpoint.nu,
        "config": checkpoint.config,
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    ckpt = Fields.read(path, "checkpoint", format=FORMAT_NAME, version=FORMAT_VERSION)
    shape = ckpt.get("shape", lambda pairs: _validate_shape([(integer(i), integer(o)) for i, o in pairs]))
    n = param_count(shape)

    def vector(text: str) -> np.ndarray:
        arr = decode_array(text)
        if arr.size != n:
            raise ValueError(f"{arr.size} entries for {n} parameters")
        return arr

    params = MlpParams(ckpt.get("flat", vector), shape)
    return Checkpoint(params=params, nu=ckpt.get("adam_nu", vector), step=ckpt.get("step", integer),
                      config=ckpt.section("config").data)
