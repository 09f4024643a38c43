"""Exact curvature probes for the classifier costs.

Both costs are a mean cross-entropy against target probabilities t_i: the
anchor's predictions for KL (plus a constant entropy term), the one-hot
labels for the loss. With q_i the candidate's probabilities, the Hessian is
the Gauss-Newton matrix B^T B plus a residual term weighted by the logit
gradient (q_i - t_i) / m. Example i contributes one row of B per class c,
sqrt(q_ic / m) (J_ic - sum_c' q_ic' J_ic'), with J_i its logit Jacobian.
Per chunk of examples, the forward pass that the cost handles and training
share (``mlp._forward``) keeps each layer's input, and one
backward pass carries to each layer's pre-activation u_l those C seeds,
the gradient gamma_l, and each example's residual Hessian R_l with respect
to u_l: R_L = 0 at the logits and
R_l = D_l W_{l+1} R_{l+1} W_{l+1}^T D_l + diag((gamma_{l+1} W_{l+1}^T) tanh''(u_l)),
with D_l = diag(tanh'(u_l)). A layer's parameter block is the Kronecker
product of its input (with a 1 for the bias) and these pieces, and the
probes contract that structure directly, so B is never stored. Where the
logit gradient is exactly zero, as at the KL anchor, the residual is
skipped and the Hessian is the Gauss-Newton (Fisher) matrix.
"""

from __future__ import annotations

import numpy as np

from ..blas import one_blas_thread
from ..precondition import _mirror_upper
from .data import Dataset
from .mlp import MlpParams, _check_inputs, _forward, _with_ones, log_softmax, param_count

__all__ = ["hessian_diag", "hessian_full"]

# the dense map built from the matrix needs 2 n^2 floats: 1.6 GB at this n
FULL_HESSIAN_MAX_DIM = 10_000
# examples per chunk of the probes: at most CHUNK, and fewer for layers wider
# than 64, so that a chunk's (fan_out, fan_out) blocks per example hold at
# most CHUNK_FLOATS floats; this bounds the probes' working memory
# independently of the number of examples
CHUNK = 512
CHUNK_FLOATS = 1 << 21


def _factors(cost_kind: str, params: MlpParams, data):
    """Yield, per chunk of examples, a list of (inputs, seeds, grad, resid) per layer.

    ``inputs`` (chunk, fan_in + 1) is the layer input with a column of ones,
    and row (i, c) of B restricted to the layer is kron(inputs[i],
    seeds[i, c]) in the flat packing order (weights row-major, then bias).
    ``seeds`` (chunk, classes, fan_out) is delta, ``grad`` (chunk, fan_out)
    gamma and ``resid`` (chunk, fan_out, fan_out) R; grad and resid are None
    where they are zero: R at the logits, and both where q equals the targets.
    """
    shape = params.shape
    classes = shape[-1][1]
    if cost_kind == "kl":
        anchor, x = data
        if not isinstance(anchor, MlpParams) or anchor.shape != shape:
            raise ValueError("kl curvature requires an anchor of the same shape as params")
        moved = not np.array_equal(anchor.flat, params.flat)
    elif cost_kind == "loss":
        if not isinstance(data, Dataset):
            raise ValueError("loss curvature requires a Dataset")
        x = data.inputs
        if data.labels.max() >= classes:
            raise ValueError(f"label {data.labels.max()} >= network output width {classes}")
    else:
        raise ValueError(f"unknown cost kind {cost_kind!r}")
    x = np.asarray(x, dtype=float)
    _check_inputs(shape, x)
    x1, m = _with_ones(x), x.shape[0]
    eye = np.eye(classes)
    step = max(1, min(CHUNK, CHUNK_FLOATS // max(fan_out for _, fan_out in shape) ** 2))
    layers = params.layers()
    for start in range(0, m, step):
        rows = slice(start, start + step)
        chunk = x1[rows]
        activations = [chunk[:, :-1]]
        q = np.exp(log_softmax(_forward(chunk, params.flat, shape, activations)))
        # delta[i, c] = sqrt(q_ic / m) (e_c - q_i)
        delta = np.sqrt(q / m)[:, :, None] * (eye - q[:, None, :])
        if cost_kind == "loss":
            targets = eye[data.labels[rows]]
        else:  # the anchor's probabilities by the candidate's route; q itself at the anchor
            targets = np.exp(log_softmax(_forward(chunk, anchor.flat, shape))) if moved else q
        grad = (q - targets) / m
        grad = grad if grad.any() else None
        resid = None
        factors = []
        for layer in range(len(shape) - 1, -1, -1):
            a_prev = activations[layer]
            factors.append((chunk if layer == 0 else _with_ones(a_prev), delta, grad, resid))
            if layer > 0:
                w = layers[layer][0]
                # tanh'(z) = 1 - tanh(z)^2, and a_prev is already tanh(z)
                slope = 1.0 - a_prev * a_prev
                delta = delta @ w.T * slope[:, None, :]
                if grad is not None:
                    back = grad @ w.T
                    if resid is None:
                        resid = np.zeros((len(a_prev), w.shape[0], w.shape[0]))
                    else:
                        resid = slope[:, :, None] * (w @ resid @ w.T) * slope[:, None, :]
                    # tanh''(z) = -2 tanh(z) tanh'(z)
                    diag = np.arange(w.shape[0])
                    resid[:, diag, diag] += back * (-2.0 * a_prev * slope)
                    grad = back * slope
        yield factors[::-1]


@one_blas_thread()
def hessian_full(cost_kind: str, params: MlpParams, data, h: float | None = None) -> np.ndarray:
    """Exact, exactly symmetric Hessian of a classifier cost at ``params``.

    ``"kl"`` takes data ``(anchor, inputs)``, ``"loss"`` a Dataset.
    At the KL anchor this is the Gauss-Newton matrix B^T B; elsewhere, and
    for the loss, the residual term is added (see the module docstring).
    ``h`` is accepted for old callers and ignored.
    """
    n = params.n
    if n > FULL_HESSIAN_MAX_DIM:
        raise ValueError(f"full hessian limited to {FULL_HESSIAN_MAX_DIM} parameters, got {n}")
    # block (l, k) at rows (j, o), columns (j', o') is sum_i in_l[i, j] in_k[i, j'] g[i, o, o']
    # with g[i] = seeds_l[i]^T seeds_k[i] plus the residual: one product per
    # input row j over the examples, not over examples x classes
    starts = [param_count(params.shape[:l]) for l in range(len(params.shape) + 1)]
    weights = [w for w, _ in params.layers()]
    hess = np.zeros((n, n))
    for factors in _factors(cost_kind, params, data):
        for l, (in_l, seeds_l, _, resid_l) in enumerate(factors):
            out_l = seeds_l.shape[2]
            for k in range(l, len(factors)):
                in_k, seeds_k, grad_k, resid_k = factors[k]
                out_k = seeds_k.shape[2]
                g = seeds_l.transpose(0, 2, 1) @ seeds_k
                if k == l and resid_l is not None:
                    g += resid_l
                elif k > l and grad_k is not None:
                    # jac is P_lk, layer k's input differentiated by layer l's pre-activation
                    slope = 1.0 - in_k[:, :-1] ** 2
                    if k == l + 1:
                        jac = slope[:, :, None] * np.eye(out_l)
                    else:
                        jac = jac @ weights[k - 1] * slope[:, None, :]
                    if resid_k is not None:
                        g += jac @ weights[k] @ resid_k
                    # sum_i in_l[i, j] jac[i, o, j'] gamma_k[i, o'] at rows (j, o), on layer k's weights
                    weight_cols = slice(starts[k], starts[k + 1] - out_k)
                    for o in range(out_l):
                        cross = (jac[:, o, :, None] * grad_k[:, None, :]).reshape(len(in_l), -1)
                        hess[starts[l] + o : starts[l + 1] : out_l, weight_cols] += in_l.T @ cross
                g = g.reshape(len(in_l), out_l * out_k)
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


@one_blas_thread()
def hessian_diag(cost_kind: str, params: MlpParams, data, h: float | None = None) -> np.ndarray:
    """Exact diagonal of :func:`hessian_full` (same arguments), without the n x n matrix.

    Per layer, the input squares contracted with the Gauss-Newton column
    sums of squares plus the diagonal of R.
    """
    starts = [param_count(params.shape[:l]) for l in range(len(params.shape) + 1)]
    diag = np.zeros(params.n)
    for factors in _factors(cost_kind, params, data):
        for l, (in_l, seeds_l, _, resid_l) in enumerate(factors):
            curv = np.einsum("ico,ico->io", seeds_l, seeds_l)
            if resid_l is not None:
                curv += np.einsum("ioo->io", resid_l)
            sq = (in_l * in_l).T @ curv
            diag[starts[l] : starts[l + 1]] += sq.ravel()
    return diag
