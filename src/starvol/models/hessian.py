"""Curvature probes for the classifier costs.

For the KL cost the probes are exact. At the anchor the candidate's
predictive distribution equals the anchor's, so the residual term of the
KL Hessian vanishes and the Hessian is the Gauss-Newton (Fisher) matrix
(1/m) sum_i J_i^T F_i J_i, with J_i the logit Jacobian of example i and
F_i = diag(p_i) - p_i p_i^T the softmax Fisher of the anchor's
probabilities. Writing F_i = sum_c p_ic (e_c - p_i)(e_c - p_i)^T gives a
factor B with B^T B equal to that matrix: example i contributes one row per
class c, sqrt(p_ic / m) (J_ic - sum_c' p_ic' J_ic'). One batched backward
pass of those C logit seeds per chunk of examples yields, per layer, the
seeds delta reaching the layer, and the layer's block of row (i, c) is the
Kronecker product of the layer input (with a 1 for the bias) and
delta[i, c]. The probes contract that structure directly, so B itself is
never stored.

The loss cost, and a ``(cost, grad)`` callable pair standing in for a cost,
keep finite differences: the full matrix uses central differences of the
gradient (one gradient pair per column, then symmetrization) and the
diagonal uses second differences of the cost.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .mlp import MlpParams, _forward_cache, log_softmax, loss_value_and_grad, make_loss_cost

__all__ = ["hessian_diag", "hessian_full"]

FULL_HESSIAN_MAX_DIM = 10_000
# examples per chunk of the KL probes: bounds their working memory
# independently of the number of examples
KL_CHUNK = 512
# rows per step when the lower triangle is mirrored from the upper one
MIRROR_BLOCK = 512


def _kl_factors(params: MlpParams, data):
    """Yield, per chunk of examples, a list of (inputs, seeds) per layer.

    ``inputs`` is the layer input with a trailing column of ones, shape
    (chunk, fan_in + 1); ``seeds`` is delta, shape (chunk, classes,
    fan_out). Row (i, c) of B restricted to the layer is
    kron(inputs[i], seeds[i, c]), in the flat packing order (weights
    row-major, then bias).
    """
    anchor, inputs = data
    if anchor.shape != params.shape or not np.array_equal(anchor.flat, params.flat):
        raise ValueError(
            "kl curvature is exact only at the anchor: params must equal the anchor in data"
        )
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kl curvature requires a non-empty (m, d) input matrix")
    shape = params.shape
    m = x.shape[0]
    eye = np.eye(shape[-1][1])
    for start in range(0, m, KL_CHUNK):
        logits, activations, layers = _forward_cache(params.flat, shape, x[start : start + KL_CHUNK])
        p = np.exp(log_softmax(logits))
        # delta[i, c] = sqrt(p_ic / m) (e_c - p_i)
        delta = np.sqrt(p / m)[:, :, None] * (eye - p[:, None, :])
        factors = []
        for layer in range(len(shape) - 1, -1, -1):
            a_prev = activations[layer]
            factors.append((np.hstack([a_prev, np.ones((len(a_prev), 1))]), delta))
            if layer > 0:
                # tanh'(z) = 1 - tanh(z)^2, and a_prev is already tanh(z)
                delta = (delta @ layers[layer][0].T) * (1.0 - a_prev * a_prev)[:, None, :]
        yield factors[::-1]


def _layer_starts(params: MlpParams) -> list[int]:
    starts = [0]
    for fan_in, fan_out in params.shape:
        starts.append(starts[-1] + fan_in * fan_out + fan_out)
    return starts


def _mirror_upper(mat: np.ndarray) -> None:
    """Overwrite the lower triangle with the transpose of the upper, in place."""
    n = mat.shape[0]
    for start in range(0, n, MIRROR_BLOCK):
        stop = min(start + MIRROR_BLOCK, n)
        mat[start:stop, :start] = mat[:start, start:stop].T
        rows, cols = np.tril_indices(stop - start, -1)
        mat[start + rows, start + cols] = mat[start + cols, start + rows]


def _kl_hessian_full(params: MlpParams, data) -> np.ndarray:
    # block (l, k) of B^T B at rows (j, o), columns (j', o') is
    # sum_i in_l[i, j] in_k[i, j'] g[i, o, o'] with g[i] = seeds_l[i]^T seeds_k[i]:
    # one product per input row j over the examples, not over examples x classes
    n = params.n
    starts = _layer_starts(params)
    hess = np.zeros((n, n))
    for factors in _kl_factors(params, data):
        for l, (in_l, seeds_l) in enumerate(factors):
            out_l = seeds_l.shape[2]
            for k in range(l, len(factors)):
                in_k, seeds_k = factors[k]
                out_k = seeds_k.shape[2]
                g = (seeds_l.transpose(0, 2, 1) @ seeds_k).reshape(len(in_l), out_l * out_k)
                for j in range(in_l.shape[1]):
                    first = j if k == l else 0  # the upper triangle suffices
                    t = (in_l[:, j, None] * in_k[:, first:]).T @ g
                    width = t.shape[0] * out_k
                    row = starts[l] + j * out_l
                    col = starts[k] + first * out_k
                    hess[row : row + out_l, col : col + width] += (
                        t.reshape(-1, out_l, out_k).transpose(1, 0, 2).reshape(out_l, width)
                    )
    _mirror_upper(hess)
    return hess


def _kl_hessian_diag(params: MlpParams, data) -> np.ndarray:
    starts = _layer_starts(params)
    diag = np.zeros(params.n)
    for factors in _kl_factors(params, data):
        for l, (in_l, seeds_l) in enumerate(factors):
            sq = (in_l * in_l).T @ np.einsum("ico,ico->io", seeds_l, seeds_l)
            diag[starts[l] : starts[l + 1]] += sq.ravel()
    return diag


def _cost_and_grad(cost_kind, shape, data):
    # a (cost, grad) callable pair stands in for the named network costs,
    # which keeps the probes testable against pure quadratic surrogates
    if isinstance(cost_kind, tuple):
        return cost_kind
    if cost_kind == "loss":
        if not isinstance(data, Dataset):
            raise ValueError("loss curvature requires a Dataset")
        return make_loss_cost(shape, data), lambda flat: loss_value_and_grad(flat, shape, data)[1]
    raise ValueError(f"unknown cost kind {cost_kind!r}")


def hessian_full(cost_kind: str, params: MlpParams, data, h: float = 1e-3) -> np.ndarray:
    """Full symmetric Hessian.

    ``"kl"`` with data ``(anchor, inputs)`` returns the exact Gauss-Newton
    matrix B^T B and requires ``params`` to be the anchor; ``h`` is
    validated but unused. Otherwise central differences of the gradient
    with step ``h``.
    """
    n = params.n
    if n > FULL_HESSIAN_MAX_DIM:
        raise ValueError(f"full hessian limited to {FULL_HESSIAN_MAX_DIM} parameters, got {n}")
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if cost_kind == "kl":
        return _kl_hessian_full(params, data)
    _, grad = _cost_and_grad(cost_kind, params.shape, data)
    flat = params.flat
    hess = np.empty((n, n))
    probe = flat.copy()
    for j in range(n):
        probe[j] = flat[j] + h
        g_plus = grad(probe)
        probe[j] = flat[j] - h
        g_minus = grad(probe)
        probe[j] = flat[j]
        hess[:, j] = (g_plus - g_minus) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def hessian_diag(cost_kind: str, params: MlpParams, data, h: float = 1e-3) -> np.ndarray:
    """Hessian diagonal.

    ``"kl"`` returns the exact Gauss-Newton diagonal, the column sums of
    B squared, under the same conditions as :func:`hessian_full`.
    Otherwise second differences of the cost: (c+ - 2 c0 + c-) / h^2.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if cost_kind == "kl":
        return _kl_hessian_diag(params, data)
    cost, _ = _cost_and_grad(cost_kind, params.shape, data)
    flat = params.flat
    c0 = cost(flat)
    diag = np.empty(params.n)
    probe = flat.copy()
    for i in range(params.n):
        probe[i] = flat[i] + h
        c_plus = cost(probe)
        probe[i] = flat[i] - h
        c_minus = cost(probe)
        probe[i] = flat[i]
        diag[i] = (c_plus - 2.0 * c0 + c_minus) / (h * h)
    return diag
