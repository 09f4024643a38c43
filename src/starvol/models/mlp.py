"""Tiny dense classifier with hand-written forward and backward passes.

Hidden layers use tanh; the final layer emits raw logits consumed by a
softmax inside the cost functions. Parameters live in one flat vector so
the whole network is a point in R^n for the volume estimators, and the
cost closures built here operate directly on flat vectors. The cost
handles, training and the curvature probes share
one forward pass, ``_forward``, which takes its first layer as one product
of the inputs with a column of ones, [x | 1], and the [W; b] view of the
flat vector, so no pass adds the bias. Each cost handle also carries a ray
form, ``cost.along(origin)(direction)``, the function
r -> cost(origin + r * direction) that the radius search evaluates: the
first layer's pre-activation is affine in r, so it is computed once per
origin and once per direction, and each evaluation runs only the layers
after it and the readout. The cost factories, handles, ray forms and passes
that call BLAS run on one OpenBLAS thread (``blas.one_blas_thread``), so
their bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..blas import one_blas_thread
from ..geometry import MeasureSpec
from ..precondition import _readonly
from .data import Dataset

__all__ = [
    "MlpParams",
    "Shape",
    "forward_logits",
    "init_measure",
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


def init_measure(shape: Shape, sigma_rule: str | float = "fan_in") -> MeasureSpec:
    """The Gaussian prior that a network of this shape is initialized from.

    Every coordinate of layer l, weights and biases alike, has the layer's
    std: 1/sqrt(fan_in), or ``sigma_rule`` itself if it is a number. This is
    the one check of a rule, so a config's ``model.init`` is read through it:
    any rule but "fan_in" and a positive finite int or float is refused.
    """
    shape = _validate_shape(shape)
    if sigma_rule == "fan_in":
        sigmas = [1.0 / math.sqrt(fan_in) for fan_in, _ in shape]
    elif isinstance(sigma_rule, (int, float)) and not isinstance(sigma_rule, bool) and 0 < sigma_rule < math.inf:
        sigmas = [float(sigma_rule)] * len(shape)
    else:
        raise ValueError(f'expected "fan_in" or a positive finite number, got {sigma_rule!r}')
    return MeasureSpec.gaussian(np.repeat(sigmas, [fan_in * fan_out + fan_out for fan_in, fan_out in shape]))


def init_params(
    shape: Shape,
    sigma_rule: str | float = "fan_in",
    rng: np.random.Generator | None = None,
) -> tuple[MlpParams, MeasureSpec]:
    """Draw Gaussian init parameters and return them with their own measure.

    The parameters are one draw from ``init_measure(shape, sigma_rule)``,
    which is returned with them, so the init distribution and the reference
    measure coincide by construction. ``rng`` is required: a generator
    seeded from OS entropy would draw an init that no record can reproduce.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"init_params needs a numpy Generator, got {type(rng).__name__}")
    measure = init_measure(shape, sigma_rule)
    return MlpParams(rng.normal(0.0, measure.sigma), shape), measure


def _head(z: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]], activations=None) -> np.ndarray:
    """Logits from the first layer's pre-activation z, which it overwrites.

    ``layers`` are the (weight, bias) pairs after the first layer; with none,
    z already holds the logits.
    Given a list, it appends each hidden layer's ``tanh`` output for training and curvature.
    """
    a = z
    for w, b in layers:
        a = np.tanh(a, out=a)
        if activations is not None:
            activations.append(a)
        a = a @ w + b
    return a


def _with_ones(x: np.ndarray) -> np.ndarray:
    """The rows of x with a column of ones appended, [x | 1]."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _folded_first_layer(x1: np.ndarray, flat: np.ndarray, shape: Shape) -> np.ndarray:
    """The first layer's pre-activation of the rows x1 = [x | 1], one product.

    A flat vector starts with the first layer's weights, row-major, then its
    bias, so its first (fan_in + 1) * fan_out entries are [W; b], a view.
    """
    fan_in, fan_out = shape[0]
    return x1 @ flat[: (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)


def _forward(x1: np.ndarray, flat: np.ndarray, shape: Shape, activations=None) -> np.ndarray:
    """Logits of the rows x1 = [x | 1] at a flat vector, the one forward route;
    ``activations=[x1[:, :-1]]`` collects each layer's input."""
    split = param_count(shape[:1])
    return _head(
        _folded_first_layer(x1, flat, shape), _layer_views(flat[split:], shape[1:]), activations
    )


@one_blas_thread()
def forward_logits(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits of each row of a non-empty (m, d) input matrix, as an (m, C) array."""
    _check_inputs(params.shape, x)
    return _forward(_with_ones(x), params.flat, params.shape)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log softmax along ``axis`` (the class axis), max-shifted for stability."""
    z = np.asarray(logits, dtype=float)
    shifted = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted


def _shifted_logits(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-major (C, m) float64 logits s less each example's largest, and each
    example's log-sum-exp of s; the log-probabilities s - lse are never formed.

    The class-major copy makes each reduction run across rows, about twice
    as fast as along them at C = 10; it also casts float32 logits.
    """
    s = logits.T.astype(float, order="C")
    s -= np.maximum.reduce(s, axis=0)
    return s, np.log(np.add.reduce(np.exp(s), axis=0))


def _check_inputs(shape: Shape, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("the network needs a non-empty (m, d) input matrix")
    if x.shape[1] != shape[0][0]:
        raise ValueError(f"input width {x.shape[1]} != network fan-in {shape[0][0]}")


# -- costs ------------------------------------------------------------------


def _cost_handle(
    shape: Shape, x1: np.ndarray, readout: Callable[[np.ndarray], float]
) -> Callable[[np.ndarray], float]:
    """Cost over flat vectors, ``readout`` of the logits of the rows x1 = [x | 1], with a ray form.

    ``cost.along(origin)`` returns ``line``, and ``line(direction)`` returns
    ``r -> cost(origin + r * direction)``. The first layer's pre-activation
    is affine in r, so it is computed once for the origin and once per
    direction, each as one product (``_folded_first_layer``); each
    evaluation then runs only the elementwise update, the later layers and
    the readout. The ray form agrees with the full evaluation up to
    rounding. Each ray owns its scratch arrays (the first pre-activation,
    and the later layers' parameters with their views).

    Each ray also carries ``approx``, the same evaluation on float32 copies
    of both pre-activations and of the later layers' parameters: ``tanh``
    and the later products run in float32, and the readout casts the
    logits to float64. It agrees with the ray within 1e-5 relative,
    and the radius search steers by it (see ``geometry.CostFn``).
    """
    split = param_count(shape[:1])

    @one_blas_thread()
    def cost(flat: np.ndarray) -> float:
        return readout(_forward(x1, flat, shape))

    @one_blas_thread()
    def ray_cost(z0, zd, z, rest0, restd, rest, layers, r: float) -> float:
        np.add(z0, np.multiply(zd, r, out=z), out=z)
        np.add(rest0, np.multiply(restd, r, out=rest), out=rest)
        return readout(_head(z, layers))

    def ray(z0, zd, rest0, restd) -> Callable[[float], float]:
        # ray_cost is marked once per handle, so a ray pays no wrapping of its own
        rest = np.empty_like(rest0)
        return partial(ray_cost, z0, zd, np.empty_like(z0), rest0, restd, rest, _layer_views(rest, shape[1:]))

    @one_blas_thread()
    def along(origin: np.ndarray):
        z0, rest0 = _folded_first_layer(x1, origin, shape), origin[split:]
        z0_32, rest0_32 = z0.astype(np.float32), rest0.astype(np.float32)

        @one_blas_thread()
        def line(direction: np.ndarray) -> Callable[[float], float]:
            zd, restd = _folded_first_layer(x1, direction, shape), direction[split:]
            cost_at = ray(z0, zd, rest0, restd)
            cost_at.approx = ray(z0_32, zd.astype(np.float32), rest0_32, restd.astype(np.float32))
            return cost_at

        return line

    cost.along = along
    return cost


@one_blas_thread()
def make_loss_cost(shape: Shape, dataset: Dataset) -> Callable[[np.ndarray], float]:
    """Cost handle over flat vectors: mean cross-entropy on the dataset.

    Each value is (sum of lse - sum of s[label]) / m from ``_shifted_logits``.
    The handle carries the ray form ``cost.along`` (see ``_cost_handle``).
    """
    shape = _validate_shape(shape)
    inputs = dataset.inputs
    _check_inputs(shape, inputs)
    labels = dataset.labels
    top = int(labels.max())
    if top >= shape[-1][1]:
        raise ValueError(f"label {top} >= network output width {shape[-1][1]}")
    rows, m = np.arange(dataset.m), dataset.m

    def readout(logits: np.ndarray) -> float:
        s, lse = _shifted_logits(logits)
        return (float(np.sum(lse)) - float(np.sum(s[labels, rows]))) / m

    return _cost_handle(shape, _with_ones(inputs), readout)


@one_blas_thread()
def make_kl_cost(anchor: MlpParams, inputs: np.ndarray) -> Callable[[np.ndarray], float]:
    """Cost handle over flat vectors: mean KL(anchor || candidate) on fixed inputs.

    With p the anchor's class probabilities, P each example's sum of them,
    and s, lse a candidate's ``_shifted_logits``, the sum over examples of
    sum_c p log q is vdot(p, s) - vdot(P, lse); the log-probabilities are
    never formed. The anchor's entropy term is that same expression on the
    anchor's logits, computed by the handle's own route, so at the anchor
    itself the value is exactly zero. The handle carries the ray form
    ``cost.along`` (see ``_cost_handle``).
    """
    x = np.asarray(inputs, dtype=float)
    shape = anchor.shape
    _check_inputs(shape, x)
    x1 = _with_ones(x)
    anchor_s, anchor_lse = _shifted_logits(_forward(x1, anchor.flat, shape))
    anchor_p = np.exp(anchor_s - anchor_lse)
    anchor_mass = np.add.reduce(anchor_p, axis=0)  # P, each example's sum of p

    def cross(s: np.ndarray, lse: np.ndarray) -> float:
        # sum of p log q over examples and classes
        return float(np.vdot(anchor_p, s)) - float(np.vdot(anchor_mass, lse))

    entropy = cross(anchor_s, anchor_lse)  # sum of p log p
    m = x.shape[0]

    def readout(logits: np.ndarray) -> float:
        return (entropy - cross(*_shifted_logits(logits))) / m

    return _cost_handle(shape, x1, readout)


# -- gradients ----------------------------------------------------------------


def _backward(
    shape: Shape, flat: np.ndarray, activations: list[np.ndarray], dlogits: np.ndarray
) -> np.ndarray:
    """Flat gradient at ``flat`` from the logits' gradient, each layer's
    weight and bias parts concatenated in packing order."""
    weights = [w for w, _ in _layer_views(flat, shape)]
    parts, delta = [], dlogits
    for layer in range(len(shape) - 1, -1, -1):
        a_prev = activations[layer]
        parts[:0] = [(a_prev.T @ delta).ravel(), np.add.reduce(delta, axis=0)]
        if layer > 0:
            # tanh'(z) = 1 - tanh(z)^2, and a_prev is already tanh(z)
            delta = delta @ weights[layer].T * (1.0 - a_prev * a_prev)
    return np.concatenate(parts)


def _loss_and_grad(
    flat: np.ndarray, shape: Shape, x1: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the rows x1 = [x | 1] against ``labels``, and its gradient."""
    activations = [x1[:, :-1]]
    lp = log_softmax(_forward(x1, flat, shape, activations))
    rows = np.arange(x1.shape[0])
    value = float(-np.mean(lp[rows, labels]))
    probs = np.exp(lp, out=lp)
    probs[rows, labels] -= 1.0
    probs /= x1.shape[0]
    return value, _backward(shape, flat, activations, probs)


@one_blas_thread()
def loss_value_and_grad(
    flat: np.ndarray, shape: Shape, dataset: Dataset
) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient via one backward pass."""
    return _loss_and_grad(flat, shape, _with_ones(dataset.inputs), dataset.labels)
