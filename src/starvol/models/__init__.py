"""Tiny dense classifier, its training loop, curvature probes, and datasets."""

from .data import Dataset, load_csv, make_blobs, make_spirals, split_dataset
from .hessian import hessian_diag, hessian_full
from .io import Checkpoint, load_checkpoint, save_checkpoint
from .mlp import (
    MlpParams,
    forward_logits,
    init_params,
    log_softmax,
    make_kl_cost,
    make_loss_cost,
    param_count,
)
from .train import (
    AdamHyper,
    AdamState,
    PoisonConfig,
    TrainConfig,
    TrainResult,
    TrainingError,
    adam_train,
)

__all__ = [
    "AdamHyper",
    "AdamState",
    "Checkpoint",
    "Dataset",
    "MlpParams",
    "PoisonConfig",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "adam_train",
    "forward_logits",
    "hessian_diag",
    "hessian_full",
    "init_params",
    "load_checkpoint",
    "load_csv",
    "log_softmax",
    "make_blobs",
    "make_kl_cost",
    "make_loss_cost",
    "make_spirals",
    "param_count",
    "save_checkpoint",
    "split_dataset",
]
