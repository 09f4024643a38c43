"""Adam training loop for the tiny classifier, with optional poisoning.

The poisoned objective is clean loss minus alpha times the poison-set loss,
with the poison term capped at chance level (log of the class count) so the
repulsion saturates instead of dragging the optimizer to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..blas import one_blas_thread
from .data import Dataset
from .mlp import MlpParams, _loss_and_grad, _with_ones, make_loss_cost

__all__ = [
    "AdamHyper",
    "AdamState",
    "PoisonConfig",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "adam_train",
]


class TrainingError(RuntimeError):
    """Raised when the objective stops being finite."""


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be positive and finite, got {self.adam_eps}")


@dataclass(frozen=True)
class AdamState:
    """Adam's second moment at a checkpoint, the spectrum of the adam-nu map."""

    nu: np.ndarray


@dataclass(frozen=True)
class PoisonConfig:
    dataset: Dataset
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int = 0
    hyper: AdamHyper = field(default_factory=AdamHyper)
    checkpoint_every: int = 50  # in steps; step 0 and the final step always record
    poison: PoisonConfig | None = None


@dataclass(frozen=True)
class TrainResult:
    checkpoints: tuple[MlpParams, ...]
    adam_states: tuple[AdamState, ...]
    steps: tuple[int, ...]
    metrics: tuple[dict, ...]


def _adam_step(flat, g, mu, nu, step: int, hyper: AdamHyper) -> None:
    """One bias-corrected Adam step in place on ``flat``, ``mu`` and ``nu``."""
    mu *= hyper.beta1
    mu += (1.0 - hyper.beta1) * g
    nu *= hyper.beta2
    nu += (1.0 - hyper.beta2) * g * g
    mu_hat = mu / (1.0 - hyper.beta1**step)
    nu_hat = nu / (1.0 - hyper.beta2**step)
    flat -= hyper.lr * mu_hat / (np.sqrt(nu_hat) + hyper.adam_eps)


@one_blas_thread()
def adam_train(
    params: MlpParams,
    dataset: Dataset,
    config: TrainConfig,
    val_dataset: Dataset | None = None,
) -> TrainResult:
    """Minibatch Adam over the dataset; deterministic for a fixed config.

    Batch order comes from a generator seeded by ``config.seed`` alone, so a
    rerun reproduces the trajectory bit for bit. Checkpoints (parameters plus
    Adam's second moment) are recorded at step 0, every ``checkpoint_every``
    steps (0: none in between), and at the final step; each record also logs
    full-set losses, each the value of ``make_loss_cost`` on its set.
    """
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if config.checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    shape = params.shape
    rng = np.random.default_rng(config.seed)
    flat = params.flat.copy()
    mu = np.zeros_like(flat)
    nu = np.zeros_like(flat)
    step = 0
    cap = math.log(dataset.classes)
    poison = config.poison
    logged = {"train_loss": dataset, "val_loss": val_dataset, "poison_loss": poison and poison.dataset}
    losses = {key: make_loss_cost(shape, data) for key, data in logged.items() if data is not None}

    checkpoints: list[MlpParams] = []
    adam_states: list[AdamState] = []
    steps: list[int] = []
    metrics: list[dict] = []

    def record():
        checkpoints.append(MlpParams(flat, shape))
        adam_states.append(AdamState(nu.copy()))
        steps.append(step)
        metrics.append({"step": step, **{key: cost(flat) for key, cost in losses.items()}})

    record()
    # each set's [x | 1], built once
    x1, labels = _with_ones(dataset.inputs), dataset.labels
    poison_x1 = poison and _with_ones(poison.dataset.inputs)
    for _ in range(config.epochs):
        perm = rng.permutation(dataset.m)
        for start in range(0, dataset.m, config.batch_size):
            idx = perm[start : start + config.batch_size]
            objective, g = _loss_and_grad(flat, shape, x1[idx], labels[idx])
            if poison is not None:
                poison_loss, poison_g = _loss_and_grad(flat, shape, poison_x1, poison.dataset.labels)
                objective -= poison.alpha * min(poison_loss, cap)
                if poison_loss < cap:
                    g -= poison.alpha * poison_g
            if not math.isfinite(objective):
                raise TrainingError(f"non-finite objective at step {step + 1}")
            step += 1
            _adam_step(flat, g, mu, nu, step, config.hyper)
            if config.checkpoint_every > 0 and step % config.checkpoint_every == 0:
                record()
    if steps[-1] != step:
        record()
    return TrainResult(tuple(checkpoints), tuple(adam_states), tuple(steps), tuple(metrics))
