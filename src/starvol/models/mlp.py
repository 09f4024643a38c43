"""Tiny dense classifier with hand-written forward and backward passes.

Hidden layers use tanh; the final layer emits raw logits consumed by a
softmax inside the cost functions. Parameters live in one flat vector so
the whole network is a point in R^n for the volume estimators, and the
cost closures built here operate directly on flat vectors. Each cost
handle also carries a ray form, ``cost.along(origin)(direction)``, the
function r -> cost(origin + r * direction) that the radius search
evaluates: the first layer's pre-activation is affine in r, so it is
computed once per origin and once per direction, and each evaluation runs
only the layers after it and the readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..geometry import MeasureSpec
from ..precondition import _readonly
from .data import Dataset

__all__ = [
    "MlpParams",
    "Shape",
    "forward_logits",
    "init_params",
    "log_softmax",
    "loss_value_and_grad",
    "make_kl_cost",
    "make_loss_cost",
    "param_count",
]

Shape = tuple[tuple[int, int], ...]


def param_count(shape: Shape) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in shape)


def _validate_shape(shape: Shape) -> Shape:
    shape = tuple((int(i), int(o)) for i, o in shape)
    if not shape:
        raise ValueError("network needs at least one layer")
    for (_, out_prev), (in_next, _) in zip(shape, shape[1:]):
        if out_prev != in_next:
            raise ValueError(f"layer widths do not chain: {out_prev} -> {in_next}")
    if any(i < 1 or o < 1 for i, o in shape):
        raise ValueError("layer widths must be positive")
    return shape


@dataclass(frozen=True)
class MlpParams:
    """Flat parameter vector plus the layer shape needed to interpret it.

    Packing order is per layer: the weight matrix (fan_in x fan_out,
    row-major) followed by the bias vector.
    """

    flat: np.ndarray
    shape: Shape

    def __post_init__(self):
        shape = _validate_shape(self.shape)
        flat = _readonly(self.flat)
        if flat.ndim != 1 or flat.size != param_count(shape):
            raise ValueError(
                f"flat vector of length {flat.size} does not match shape {shape} "
                f"(expected {param_count(shape)})"
            )
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "shape", shape)

    @property
    def n(self) -> int:
        return self.flat.size

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return _layer_views(self.flat, self.shape)


def _layer_views(flat: np.ndarray, shape: Shape) -> list[tuple[np.ndarray, np.ndarray]]:
    # zero-copy views into the flat vector
    out = []
    idx = 0
    for fan_in, fan_out in shape:
        w = flat[idx : idx + fan_in * fan_out].reshape(fan_in, fan_out)
        idx += fan_in * fan_out
        b = flat[idx : idx + fan_out]
        idx += fan_out
        out.append((w, b))
    return out


def layer_sigmas(shape: Shape, sigma_rule: str | float = "fan_in") -> list[float]:
    """Per-layer init std: 1/sqrt(fan_in), or a constant if a number is given."""
    if isinstance(sigma_rule, str):
        if sigma_rule != "fan_in":
            raise ValueError(f"unknown sigma rule {sigma_rule!r}")
        return [1.0 / math.sqrt(fan_in) for fan_in, _ in shape]
    value = float(sigma_rule)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"sigma must be positive and finite, got {value}")
    return [value for _ in shape]


def init_params(
    shape: Shape,
    sigma_rule: str | float = "fan_in",
    rng: np.random.Generator | None = None,
) -> tuple[MlpParams, MeasureSpec]:
    """Draw Gaussian init parameters and return them with their own measure.

    Every coordinate of layer l (weights and biases alike) is drawn from a
    zero-mean Gaussian with the layer's std, and the returned Gaussian
    measure carries exactly those per-coordinate stds, so the init
    distribution and the reference measure coincide by construction.
    """
    shape = _validate_shape(shape)
    rng = rng if rng is not None else np.random.default_rng()
    sigmas = layer_sigmas(shape, sigma_rule)
    chunks = []
    sigma_chunks = []
    for (fan_in, fan_out), s in zip(shape, sigmas):
        count = fan_in * fan_out + fan_out
        chunks.append(rng.normal(0.0, s, size=count))
        sigma_chunks.append(np.full(count, s))
    flat = np.concatenate(chunks)
    sigma = np.concatenate(sigma_chunks)
    return MlpParams(flat, shape), MeasureSpec.gaussian(sigma)


# Larger products wake OpenBLAS's worker threads, which then busy-wait
# through the evaluations that follow. The first layer is therefore
# multiplied in blocks of at most 2**18 multiply-adds, which run on the
# calling thread. Measured at 64x64 (2 vCPUs, OpenBLAS 0.3.31), CPU seconds
# per wall second: 1.00 in 64-row blocks, 1.23-1.26 in 128-row blocks
# (2**19), 1.82-1.94 in one 512-row product.
_BLOCK_MULADDS = 1 << 18


def _blocks(m: int, fan_in: int, fan_out: int) -> list[tuple[slice, slice]]:
    """(rows, columns) blocks of an (m, fan_in) @ (fan_in, fan_out) product.

    Each block holds at most ``_BLOCK_MULADDS`` multiply-adds, unless a
    single column alone does (fan_in above the limit). Columns are split
    only when one row exceeds the limit.
    """
    cols = max(1, min(fan_out, _BLOCK_MULADDS // fan_in))
    rows = max(1, _BLOCK_MULADDS // (fan_in * cols))
    return [
        (slice(r, min(r + rows, m)), slice(c, min(c + cols, fan_out)))
        for r in range(0, m, rows)
        for c in range(0, fan_out, cols)
    ]


def _blocked_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, multiplied in ``_blocks``."""
    out = np.empty((x.shape[0], w.shape[1]))
    for rows, cols in _blocks(x.shape[0], *w.shape):
        np.matmul(x[rows], w[:, cols], out=out[rows, cols])
    return out


def _first_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first layer's pre-activation x @ w + b, multiplied in blocks."""
    z = _blocked_matmul(x, w)
    z += b
    return z


def _head(z: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Logits from the first layer's pre-activation z, which it overwrites.

    ``layers`` are the (weight, bias) pairs after the first layer; with none,
    z already holds the logits. A layer whose product holds at least
    2 * ``_BLOCK_MULADDS`` multiply-adds is multiplied in blocks, as the
    first layer is; a smaller one stays one product, which the KL readout
    on 512 rows (512 x 64 x 10) measured as running on the calling thread.
    """
    a = z
    for w, b in layers:
        a = np.tanh(a, out=a)
        a = (_blocked_matmul(a, w) if a.shape[0] * w.size >= 2 * _BLOCK_MULADDS else a @ w) + b
    return a


def _forward(flat: np.ndarray, shape: Shape, x: np.ndarray) -> np.ndarray:
    (w, b), *rest = _layer_views(flat, shape)
    return _head(_first_layer(x, w, b), rest)


def forward_logits(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Batched logits; accepts a single input vector or an (m, d) matrix."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != params.shape[0][0]:
        raise ValueError(f"input width {arr.shape[1]} != network fan-in {params.shape[0][0]}")
    logits = _forward(params.flat, params.shape, arr)
    return logits[0] if single else logits


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log softmax along ``axis`` (the class axis), max-shifted for stability."""
    z = np.asarray(logits, dtype=float)
    shifted = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted


def _class_log_probs(logits: np.ndarray) -> np.ndarray:
    """Log softmax of (m, C) logits, returned class-major as (C, m).

    The class-major copy makes each reduction run across rows, about twice
    as fast as along them at C = 10.
    """
    return log_softmax(logits.T.copy(), axis=0)


def _check_inputs(shape: Shape, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("the network needs a non-empty (m, d) input matrix")
    if x.shape[1] != shape[0][0]:
        raise ValueError(f"input width {x.shape[1]} != network fan-in {shape[0][0]}")


# -- costs ------------------------------------------------------------------


def _cost_handle(
    shape: Shape, x: np.ndarray, readout: Callable[[np.ndarray], float]
) -> Callable[[np.ndarray], float]:
    """Cost over flat vectors, ``readout`` of the logits, with a ray form.

    ``cost.along(origin)`` returns ``line``, and ``line(direction)`` returns
    ``r -> cost(origin + r * direction)``. The first layer's pre-activation
    is affine in r, so it is computed once for the origin and once per
    direction; each evaluation then runs only the elementwise update, the
    later layers and the readout. The ray form agrees with the full
    evaluation up to rounding. Each ray owns its scratch arrays (the first
    pre-activation, and the later layers' parameters with their views).
    """
    split = param_count(shape[:1])

    def cost(flat: np.ndarray) -> float:
        return readout(_forward(flat, shape, x))

    def along(origin: np.ndarray):
        (w, b), *_ = _layer_views(origin, shape)
        z0, rest0 = _first_layer(x, w, b), origin[split:]

        def line(direction: np.ndarray) -> Callable[[float], float]:
            (w, b), *_ = _layer_views(direction, shape)
            zd, restd = _first_layer(x, w, b), direction[split:]
            z, rest = np.empty_like(z0), np.empty_like(rest0)
            layers = _layer_views(rest, shape[1:])

            def cost_at(r: float) -> float:
                np.add(z0, np.multiply(zd, r, out=z), out=z)
                np.add(rest0, np.multiply(restd, r, out=rest), out=rest)
                return readout(_head(z, layers))

            return cost_at

        return line

    cost.along = along
    return cost


def make_loss_cost(shape: Shape, dataset: Dataset) -> Callable[[np.ndarray], float]:
    """Cost handle over flat vectors: mean cross-entropy on the dataset.

    The handle carries the ray form ``cost.along`` (see ``_cost_handle``).
    """
    if dataset.labels is None:
        raise ValueError("loss cost requires a labeled dataset")
    shape = _validate_shape(shape)
    inputs = dataset.inputs
    _check_inputs(shape, inputs)
    labels = dataset.labels
    top = int(labels.max())
    if top >= shape[-1][1]:
        raise ValueError(f"label {top} >= network output width {shape[-1][1]}")
    rows = np.arange(dataset.m)

    def readout(logits: np.ndarray) -> float:
        return float(-np.mean(_class_log_probs(logits)[labels, rows]))

    return _cost_handle(shape, inputs, readout)


def make_kl_cost(anchor: MlpParams, inputs: np.ndarray) -> Callable[[np.ndarray], float]:
    """Cost handle over flat vectors: mean KL(anchor || candidate) on fixed inputs.

    The anchor's predictive log-probabilities are precomputed once, by the
    same route as every evaluation, so at the anchor itself the value is
    exactly zero. The handle carries the ray form ``cost.along`` (see
    ``_cost_handle``).
    """
    x = np.asarray(inputs, dtype=float)
    shape = anchor.shape
    _check_inputs(shape, x)
    anchor_lp = _class_log_probs(_forward(anchor.flat, shape, x))
    anchor_p = np.exp(anchor_lp)
    entropy = float(np.vdot(anchor_p, anchor_lp))  # sum of p log p over rows and classes
    m = x.shape[0]

    def readout(logits: np.ndarray) -> float:
        return (entropy - float(np.vdot(anchor_p, _class_log_probs(logits)))) / m

    return _cost_handle(shape, x, readout)


# -- gradients ----------------------------------------------------------------


def _forward_cache(flat: np.ndarray, shape: Shape, x: np.ndarray):
    activations = [x]
    layers = _layer_views(flat, shape)
    a = x
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
        activations.append(a)
    w, b = layers[-1]
    return a @ w + b, activations, layers


def _backward(
    shape: Shape,
    layers: list[tuple[np.ndarray, np.ndarray]],
    activations: list[np.ndarray],
    dlogits: np.ndarray,
) -> np.ndarray:
    """Flat gradient from the logits' gradient; each layer's part is written
    straight into its views of the flat vector."""
    grads = np.empty(param_count(shape))
    delta = dlogits
    for layer, (gw, gb) in reversed(list(enumerate(_layer_views(grads, shape)))):
        a_prev = activations[layer]
        np.matmul(a_prev.T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if layer > 0:
            # tanh'(z) = 1 - tanh(z)^2, and a_prev is already tanh(z)
            delta = (delta @ layers[layer][0].T) * (1.0 - a_prev * a_prev)
    return grads


def _loss_and_grad(
    flat: np.ndarray, shape: Shape, x: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of rows ``x`` against ``labels``, and its gradient."""
    logits, activations, layers = _forward_cache(flat, shape, x)
    lp = log_softmax(logits)
    rows = np.arange(x.shape[0])
    value = float(-np.mean(lp[rows, labels]))
    probs = np.exp(lp, out=lp)
    probs[rows, labels] -= 1.0
    probs /= x.shape[0]
    return value, _backward(shape, layers, activations, probs)


def loss_value_and_grad(
    flat: np.ndarray, shape: Shape, dataset: Dataset
) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient via one backward pass."""
    if dataset.labels is None:
        raise ValueError("loss gradient requires a labeled dataset")
    return _loss_and_grad(flat, shape, dataset.inputs, dataset.labels)
