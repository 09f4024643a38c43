"""Tests for the classifier stack: params, costs, gradients, Adam, curvature,
checkpoint files."""

import base64
import json
import math
import os

import mpmath as mp
import numpy as np
import pytest

from starvol import blas
from starvol.models.data import Dataset, load_csv, make_blobs, make_spirals, split_dataset
import starvol.models.hessian as hessian_module
from starvol.models.hessian import hessian_diag, hessian_full
from starvol.models.io import Checkpoint, load_checkpoint, save_checkpoint
from starvol.models.mlp import (
    MlpParams,
    _backward,
    _forward,
    _with_ones,
    forward_logits,
    init_measure,
    init_params,
    log_softmax,
    loss_value_and_grad,
    make_kl_cost,
    make_loss_cost,
    param_count,
)
from starvol.models.train import (
    AdamHyper,
    PoisonConfig,
    TrainConfig,
    TrainingError,
    _adam_step,
    adam_train,
)

NUMPY_BLAS = "numpy._core._multiarray_umath"


def kl_value_and_grad(
    anchor: MlpParams, flat: np.ndarray, inputs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean KL from the anchor and its gradient with respect to the candidate."""
    x1 = _with_ones(np.asarray(inputs, dtype=float))
    shape = anchor.shape
    anchor_lp = log_softmax(_forward(x1, anchor.flat, shape))
    anchor_p = np.exp(anchor_lp)
    row_entropy = np.sum(anchor_p * anchor_lp, axis=1)
    activations = [x1[:, :-1]]
    q_lp = log_softmax(_forward(x1, flat, shape, activations))
    m = x1.shape[0]
    value = float(np.mean(row_entropy - np.sum(anchor_p * q_lp, axis=1)))
    dlogits = (np.exp(q_lp) - anchor_p) / m
    return value, _backward(shape, flat, activations, dlogits)


def reference_loss_and_grad(flat: np.ndarray, shape, data: Dataset) -> tuple[float, np.ndarray]:
    """Reference cross-entropy and gradient: a fresh array for every product,
    and the layers' gradients concatenated in packing order. The first layer
    is folded as training folds it, [x | 1] @ [W; b]: whether that agrees bit
    for bit with x @ W + b depends on the BLAS kernel."""
    layers = MlpParams(flat, shape).layers()
    (w, b), x = layers[0], data.inputs
    z = np.hstack([x, np.ones((data.m, 1))]) @ np.vstack([w, b])
    acts = [x]
    for w, b in layers[1:]:
        acts.append(np.tanh(z))
        z = acts[-1] @ w + b
    lp = log_softmax(z)
    rows = np.arange(data.m)
    value = float(-np.mean(lp[rows, data.labels]))
    probs = np.exp(lp)
    probs[rows, data.labels] -= 1.0
    delta = probs / data.m
    parts = []
    for layer in range(len(shape) - 1, -1, -1):
        parts[:0] = [(acts[layer].T @ delta).ravel(), delta.sum(axis=0)]
        if layer > 0:
            delta = (delta @ layers[layer][0].T) * (1.0 - acts[layer] * acts[layer])
    return value, np.concatenate(parts)


# each reference forward pass takes row chunks of at most this many
# multiply-adds in its widest layer
REFERENCE_CHUNK_MULADDS = 1 << 18


def reference_loss(flat: np.ndarray, shape, data: Dataset) -> float:
    """Reference logged loss: forward passes over row chunks, summed."""
    step = max(1, REFERENCE_CHUNK_MULADDS // max(i * o for i, o in shape))
    total = 0.0
    for start in range(0, data.m, step):
        rows = slice(start, start + step)
        lp = log_softmax(_forward(_with_ones(data.inputs[rows]), flat, shape))
        total -= float(np.sum(lp[np.arange(lp.shape[0]), data.labels[rows]]))
    return total / data.m


def reference_train(params: MlpParams, data: Dataset, config: TrainConfig, val: Dataset):
    """Reference training loop: ``Dataset.subset`` batches, out-of-place Adam.

    Returns one (flat, nu, losses) tuple per checkpoint and the number of
    steps on which the poison term pushed.
    """
    h, poison, shape = config.hyper, config.poison, params.shape
    rng = np.random.default_rng(config.seed)
    flat = params.flat.copy()
    mu, nu = np.zeros_like(flat), np.zeros_like(flat)
    step = pushes = 0
    cap = math.log(data.classes)
    out = []

    def record():
        losses = {"step": step, "train_loss": reference_loss(flat, shape, data),
                  "val_loss": reference_loss(flat, shape, val),
                  "poison_loss": reference_loss(flat, shape, poison.dataset)}
        out.append((flat, nu, losses))

    record()
    for _ in range(config.epochs):
        perm = rng.permutation(data.m)
        for start in range(0, data.m, config.batch_size):
            _, g = reference_loss_and_grad(flat, shape, data.subset(perm[start : start + config.batch_size]))
            poison_loss, poison_g = reference_loss_and_grad(flat, shape, poison.dataset)
            if poison_loss < cap:
                g = g - poison.alpha * poison_g
                pushes += 1
            step += 1
            mu = h.beta1 * mu + (1.0 - h.beta1) * g
            nu = h.beta2 * nu + (1.0 - h.beta2) * g * g
            mu_hat = mu / (1.0 - h.beta1**step)
            nu_hat = nu / (1.0 - h.beta2**step)
            flat = flat - h.lr * mu_hat / (np.sqrt(nu_hat) + h.adam_eps)
            if step % config.checkpoint_every == 0:
                record()
    if out[-1][2]["step"] != step:
        record()
    return out, pushes


class TestParams:
    def test_param_count(self):
        assert param_count(((64, 64), (64, 10))) == 4810
        assert param_count(((2, 3),)) == 9

    def test_flat_length_checked(self):
        with pytest.raises(ValueError, match="does not match shape"):
            MlpParams(np.zeros(5), ((2, 3),))

    def test_layer_widths_must_chain(self):
        with pytest.raises(ValueError, match="chain"):
            MlpParams(np.zeros(param_count(((2, 3), (4, 1)))), ((2, 3), (4, 1)))

    def test_packing_order(self):
        # weights row-major first, then biases, layer by layer
        flat = np.arange(param_count(((2, 2), (2, 1))), dtype=float)
        layers = MlpParams(flat, ((2, 2), (2, 1))).layers()
        np.testing.assert_array_equal(layers[0][0], [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(layers[0][1], [4.0, 5.0])
        np.testing.assert_array_equal(layers[1][0], [[6.0], [7.0]])
        np.testing.assert_array_equal(layers[1][1], [8.0])


class TestInit:
    def test_fan_in_sigmas(self):
        # every coordinate of a layer, weights and biases alike, has the layer's std
        np.testing.assert_array_equal(init_measure(((64, 64), (64, 10))).sigma, np.full(4810, 0.125))
        np.testing.assert_array_equal(init_measure(((4, 8), (8, 2))).sigma,
                                      np.concatenate([np.full(40, 0.5), np.full(18, 1.0 / math.sqrt(8))]))

    def test_constant_sigma(self):
        np.testing.assert_array_equal(init_measure(((4, 8), (8, 2)), 0.25).sigma, np.full(58, 0.25))

    @pytest.mark.parametrize("rule", ["fan_out", 0.0, -1, math.inf, math.nan, True, [0.5]],
                             ids=["fan-out", "zero", "negative", "inf", "nan", "bool", "list"])
    def test_sigma_rule_validation(self, rule):
        # the one check of a rule, which a config's model.init is read through
        with pytest.raises(ValueError, match='^expected "fan_in" or a positive finite number, got '):
            init_measure(((2, 2),), rule)

    @pytest.mark.parametrize("shape, reason", [((), "network needs at least one layer"),
                                               (((2, 0),), "layer widths must be positive")],
                             ids=["no-layers", "zero-width"])
    def test_shape_validation(self, shape, reason):
        with pytest.raises(ValueError, match=reason):
            init_measure(shape)

    def test_one_draw_equals_per_layer_draws(self):
        # one draw over the whole std vector reads the stream in layer order, as a draw per layer would
        shape = ((3, 4), (4, 4), (4, 2))
        params, _ = init_params(shape, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        per_layer = [rng.normal(0.0, 1.0 / math.sqrt(i), size=i * o + o) for i, o in shape]
        assert params.flat.tobytes() == np.concatenate(per_layer).tobytes()

    def test_measure_matches_init_distribution(self):
        params, measure = init_params(((2, 2),), rng=np.random.default_rng(0))
        assert params.n == 6
        assert measure.kind == "gaussian"
        np.testing.assert_allclose(measure.sigma, np.full(6, 1.0 / math.sqrt(2.0)))

    def test_init_spread_matches_declared_sigma(self):
        shape = ((100, 500),)
        params, measure = init_params(shape, rng=np.random.default_rng(1))
        got = float(params.flat.std())
        assert got == pytest.approx(0.1, rel=0.02)
        assert float(measure.sigma[0]) == 0.1

    def test_missing_generator_refused(self):
        # a generator seeded from OS entropy would draw an unrecorded init
        with pytest.raises(TypeError, match="numpy Generator, got NoneType"):
            init_params(((2, 2),))


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = MlpParams(np.zeros(param_count(((3, 4), (4, 2)))), ((3, 4), (4, 2)))
        out = forward_logits(params, np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_single_linear_layer_is_identity_map(self):
        # final layer has no activation, so w = I, b = 0 passes inputs through
        flat = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
        params = MlpParams(flat, ((2, 2),))
        x = np.array([[0.3, -1.7], [2.0, 0.0]])
        np.testing.assert_allclose(forward_logits(params, x), x)

    def test_hidden_tanh_composition(self):
        # one tanh unit into one linear unit: 3 tanh(2x + 0.5) - 1
        flat = np.array([2.0, 0.5, 3.0, -1.0])
        params = MlpParams(flat, ((1, 1), (1, 1)))
        for x in (-1.0, 0.0, 0.7):
            got = forward_logits(params, np.array([[x]]))
            assert got[0, 0] == pytest.approx(3.0 * math.tanh(2.0 * x + 0.5) - 1.0)

    def test_single_vector_refused(self):
        params, _ = init_params(((3, 5), (5, 2)), rng=np.random.default_rng(2))
        for x in (np.zeros(3), np.zeros((0, 3))):
            with pytest.raises(ValueError, match=r"non-empty \(m, d\) input matrix"):
                forward_logits(params, x)

    def test_input_width_checked(self):
        params, _ = init_params(((3, 2),), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="fan-in"):
            forward_logits(params, np.zeros((1, 4)))


class TestLogSoftmax:
    def test_normalizes(self):
        z = np.random.default_rng(0).normal(size=(5, 7))
        lp = log_softmax(z)
        np.testing.assert_allclose(np.sum(np.exp(lp), axis=1), np.ones(5), rtol=1e-12)

    def test_shift_invariant(self):
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(log_softmax(z + 300.0), log_softmax(z), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        lp = log_softmax(np.array([1000.0, 0.0]))
        assert lp[0] == pytest.approx(0.0, abs=1e-12)
        assert lp[1] == pytest.approx(-1000.0)


class TestDataset:
    def test_non_integer_label_is_rejected(self):
        # astype(int) used to truncate these to [0 1 2] without a word
        with pytest.raises(ValueError, match="one integer per row, with no fraction"):
            Dataset(np.zeros((3, 2)), [0.0, 1.9999999, 2.5], 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_inf_labels_are_rejected(self, bad):
        with pytest.raises(ValueError, match="one integer per row, with no fraction"):
            Dataset(np.zeros((3, 2)), [0.0, bad, 1.0], 2)

    def test_exact_float_labels_are_accepted(self):
        data = Dataset(np.zeros((2, 2)), [0.0, 1.0], 2)
        np.testing.assert_array_equal(data.labels, [0, 1])
        assert data.labels.dtype.kind == "i" and data.classes == 2

    def test_labels_and_class_count_are_required(self):
        with pytest.raises(TypeError):
            Dataset(np.zeros((3, 2)))
        with pytest.raises(TypeError):
            Dataset(np.zeros((3, 2)), [0, 1, 0])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_outside_the_class_count_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            Dataset(np.zeros((3, 2)), [0, bad, 1], 2)

    def test_no_rows_is_rejected(self):
        with pytest.raises(ValueError, match=r"inputs must be a non-empty \(m, d\) matrix"):
            Dataset(np.zeros((0, 2)), [], 2)

    def test_csv_with_one_column_is_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0\n1\n1\n")
        with pytest.raises(ValueError, match="csv needs at least one feature column plus a label column"):
            load_csv(path)

    def test_split_of_more_rows_than_the_dataset_is_rejected(self):
        with pytest.raises(ValueError, match="requested 5 rows but dataset has 4"):
            split_dataset(make_blobs(dim=2, classes=2, per_class=2), [3, 2])

    def test_spirals_pad_with_noise_columns(self):
        # past the plane, each column is N(0, noise^2) whatever the label
        data = make_spirals(per_class=2000, noise=0.1, dim=4, seed=3)
        assert data.inputs.shape == (4000, 4) and data.classes == 2
        extra = data.inputs[:, 2:]
        assert abs(extra.mean()) < 0.01 and extra.std() == pytest.approx(0.1, rel=0.05)
        for label in (0, 1):
            assert extra[data.labels == label].std() == pytest.approx(0.1, rel=0.05)
        # without noise, the padding is zero and the plane holds the spirals, at radii in [sqrt(0.05), 1)
        exact = make_spirals(per_class=50, noise=0.0, dim=4, seed=3).inputs
        assert not exact[:, 2:].any()
        radius = np.hypot(exact[:, 0], exact[:, 1])
        assert math.sqrt(0.05) <= radius.min() and radius.max() < 1.0

    def test_spirals_need_two_dimensions(self):
        with pytest.raises(ValueError, match="spirals need at least 2 dimensions"):
            make_spirals(per_class=4, dim=1)


class TestLossCost:
    def test_uniform_predictions_cost_log_classes(self):
        shape = ((4, 8), (8, 5))
        params = MlpParams(np.zeros(param_count(shape)), shape)
        data = make_blobs(dim=4, classes=5, per_class=6, seed=0)
        assert make_loss_cost(shape, data)(params.flat) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_matches_hand_rolled_cross_entropy(self):
        params, _ = init_params(((3, 4), (4, 3)), rng=np.random.default_rng(5))
        data = make_blobs(dim=3, classes=3, per_class=4, seed=1)
        logits = forward_logits(params, data.inputs)
        probs = np.exp(logits) / np.sum(np.exp(logits), axis=1, keepdims=True)
        want = -np.mean(np.log(probs[np.arange(data.m), data.labels]))
        assert make_loss_cost(params.shape, data)(params.flat) == pytest.approx(want, rel=1e-12)

    def test_confident_correct_predictions_cost_nothing(self):
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), 2)
        flat = np.array([50.0, 0.0])  # single logit pushes hard with the sign of x
        params = MlpParams(np.concatenate([[0.0, 50.0], [0.0, 0.0]]), ((1, 2),))
        assert make_loss_cost(params.shape, data)(params.flat) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_matches_mpmath_forward_pass(self, scale):
        # at scale 20 the logit gaps reach 21, so class probabilities span e^-21
        params, _ = init_params(((3, 4), (4, 2)), rng=np.random.default_rng(41))
        params = MlpParams(scale * params.flat, params.shape)
        data = make_blobs(dim=3, classes=2, per_class=3, seed=42)
        (w1, b1), (w2, b2) = params.layers()
        with mp.workdps(50):
            total = mp.mpf(0)
            for x, label in zip(data.inputs, data.labels):
                h = [mp.tanh(mp.fsum(mp.mpf(x[i]) * mp.mpf(w1[i, j]) for i in range(3)) + mp.mpf(b1[j]))
                     for j in range(4)]
                z = [mp.fsum(h[i] * mp.mpf(w2[i, c]) for i in range(4)) + mp.mpf(b2[c]) for c in range(2)]
                top = max(z)
                total += top + mp.log(mp.fsum(mp.exp(v - top) for v in z)) - z[label]
            want = float(total / data.m)
        for got in (make_loss_cost(params.shape, data)(params.flat),
                    loss_value_and_grad(params.flat, params.shape, data)[0]):
            assert abs(got - want) <= 1e-13 * want

    def test_label_beyond_output_width_is_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 7, 1]), 8)
        with pytest.raises(ValueError, match="label 7 >= network output width 2"):
            make_loss_cost(((2, 4), (4, 2)), data)

    def test_input_width_checked_up_front(self):
        data = make_blobs(dim=3, classes=2, per_class=4, seed=0)
        with pytest.raises(ValueError, match="input width 3 != network fan-in 4"):
            make_loss_cost(((4, 2),), data)


class TestKlCost:
    def test_zero_at_anchor(self):
        # the anchor's entropy term is read by the handle's own route, so the
        # two terms cancel exactly; 512 rows of 64-64-10 block the first product
        for shape, rows in ((((3, 6), (6, 4)), 10), (((64, 64), (64, 10)), 512)):
            anchor, _ = init_params(shape, rng=np.random.default_rng(7))
            inputs = np.random.default_rng(8).normal(size=(rows, shape[0][0]))
            assert make_kl_cost(anchor, inputs)(anchor.flat) == 0.0, shape

    def test_constructed_two_class_value(self):
        # bias-only nets on a zero input realize any fixed distribution pair
        shape = ((1, 2),)
        inputs = np.zeros((1, 1))
        anchor = MlpParams(np.array([0.0, 0.0, 0.0, 0.0]), shape)  # p = (1/2, 1/2)
        cand = MlpParams(np.array([0.0, 0.0, math.log(0.9), math.log(0.1)]), shape)
        want = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert make_kl_cost(anchor, inputs)(cand.flat) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.5108256238, rel=1e-9)

    def test_class_relabel_symmetry(self):
        shape = ((1, 2),)
        inputs = np.zeros((1, 1))
        mk = lambda b0, b1: MlpParams(np.array([0.0, 0.0, b0, b1]), shape)
        direct = make_kl_cost(mk(0.4, -0.4), inputs)(mk(-0.1, 0.9).flat)
        swapped = make_kl_cost(mk(-0.4, 0.4), inputs)(mk(0.9, -0.1).flat)
        assert direct == pytest.approx(swapped, rel=1e-12)

    def test_gradient_vanishes_at_anchor(self):
        anchor, _ = init_params(((2, 5), (5, 3)), rng=np.random.default_rng(9))
        inputs = np.random.default_rng(10).normal(size=(6, 2))
        _, g = kl_value_and_grad(anchor, anchor.flat, inputs)
        assert np.max(np.abs(g)) < 1e-10

    def test_input_validation(self):
        anchor, _ = init_params(((2, 2),), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-empty"):
            make_kl_cost(anchor, np.zeros((0, 2)))
        with pytest.raises(ValueError, match="input width 1 != network fan-in 2"):
            make_kl_cost(anchor, np.zeros((5, 1)))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_handle_and_rays_do_not_depend_on_the_blas_thread_count(self):
        # on 1,200 inputs and 10 classes each readout takes dots of 12,000
        # entries, which OpenBLAS splits over two threads unless held to one
        setter = blas._thread_setter(NUMPY_BLAS)
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        anchor, _ = init_params(((64, 16), (16, 10)), rng=np.random.default_rng(81))
        inputs = np.random.default_rng(82).normal(size=(1200, 64))
        rng = np.random.default_rng(83)
        points = anchor.flat + 0.05 * rng.normal(size=(8, anchor.n))
        direction = rng.normal(size=anchor.n)
        direction /= np.linalg.norm(direction)
        runs = []
        previous = setter(2)
        try:
            for threads in (2, 1):
                setter(threads)
                cost = make_kl_cost(anchor, inputs)
                line = cost.along(anchor.flat)(direction)
                radii = np.linspace(0.05, 0.8, 8)
                runs.append([cost(p).hex() for p in points] + [line(r).hex() for r in radii]
                            + [line.approx(r).hex() for r in radii])
        finally:
            setter(previous)
        assert runs[0] == runs[1]


# name -> (shape, input rows); at 2,000 rows the 64 x 10 readout is blocked
RAY_SHAPES = {
    "no-hidden": (((5, 3),), 40),
    "one-hidden": (((5, 7), (7, 3)), 40),
    "two-hidden": (((5, 6), (6, 4), (4, 3)), 40),
    "64-64-10": (((64, 64), (64, 10)), 512),
    "64-64-10-2000-rows": (((64, 64), (64, 10)), 2000),
}


class TestRayForm:
    @staticmethod
    def _net(shape, rows, seed):
        """Random parameters, inputs and labels for a net of this shape."""
        rng = np.random.default_rng(seed)
        params, _ = init_params(shape, rng=rng)
        x = rng.normal(size=(rows, shape[0][0]))
        return params, x, rng.integers(0, shape[-1][1], size=rows)

    @classmethod
    def _cost(cls, kind, shape, rows, seed):
        params, x, labels = cls._net(shape, rows, seed)
        if kind == "kl":
            return params, make_kl_cost(params, x)
        return params, make_loss_cost(shape, Dataset(x, labels, shape[-1][1]))

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    @pytest.mark.parametrize("name", sorted(RAY_SHAPES))
    def test_handle_matches_the_forward_route(self, kind, name):
        # the handle reads the logits as shifted logits and their
        # log-sum-exp; training and the curvature probes read the same
        # _forward logits through log_softmax
        shape, rows = RAY_SHAPES[name]
        params, x, labels = self._net(shape, rows, 31)
        point = params.flat + 0.1 * np.random.default_rng(39).normal(size=params.n)
        x1 = _with_ones(x)
        lp = log_softmax(_forward(x1, point, shape))
        if kind == "kl":
            cost = make_kl_cost(params, x)
            anchor_lp = log_softmax(_forward(x1, params.flat, shape))
            want = float(np.sum(np.exp(anchor_lp) * (anchor_lp - lp))) / rows
        else:
            cost = make_loss_cost(shape, Dataset(x, labels, shape[-1][1]))
            want = float(-np.mean(lp[np.arange(rows), labels]))
        assert want > 1e-3
        assert abs(cost(point) - want) <= 1e-13

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    @pytest.mark.parametrize("name", sorted(RAY_SHAPES))
    def test_line_matches_full_evaluation(self, kind, name):
        params, cost = self._cost(kind, *RAY_SHAPES[name], 31)
        rng = np.random.default_rng(32)
        origin = params.flat + 0.1 * rng.normal(size=params.n)
        d = rng.normal(size=params.n)
        d /= np.linalg.norm(d)
        line = cost.along(origin)(d)
        for r in np.geomspace(1e-6, 10.0, 29):
            assert abs(line(r) - cost(origin + r * d)) <= 1e-13
        # repeated evaluations of one ray reuse its scratch array
        assert line(0.5) == line(0.5)
        assert line(0.0) == cost(origin)

    @pytest.mark.parametrize("name", sorted(RAY_SHAPES))
    def test_forward_collects_each_layer_input(self, name):
        # training and the curvature probes take their activations from
        # _forward, whose first product folds the bias in: [x | 1] @ [W; b]
        shape, rows = RAY_SHAPES[name]
        rng = np.random.default_rng(38)
        params, _ = init_params(shape, rng=rng)
        x = rng.normal(size=(rows, shape[0][0]))
        layers = params.layers()
        x1 = _with_ones(x)
        activations = [x1[:, :-1]]
        logits = _forward(x1, params.flat, shape, activations)
        assert np.array_equal(logits, _forward(x1, params.flat, shape))
        assert len(activations) == len(shape) and np.array_equal(activations[0], x)
        for a_in, a_out, (w, b) in zip(activations, activations[1:], layers):
            np.testing.assert_allclose(a_out, np.tanh(a_in @ w + b), rtol=1e-12, atol=1e-14)
        w, b = layers[-1]
        np.testing.assert_allclose(logits, activations[-1] @ w + b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    def test_interleaved_rays_keep_their_own_values(self, kind):
        # each ray reuses one parameter buffer across its evaluations; two
        # rays from one origin, evaluated in turn, must not see each other's
        params, cost = self._cost(kind, *RAY_SHAPES["two-hidden"], 35)
        rng = np.random.default_rng(36)
        origin = params.flat + 0.1 * rng.normal(size=params.n)
        line = cost.along(origin)
        da, db = (v / np.linalg.norm(v) for v in rng.normal(size=(2, params.n)))
        a, b = line(da), line(db)
        r1, r2 = 0.3, 1.7
        a1, b2, a2, a1_again = a(r1), b(r2), a(r2), a(r1)
        assert a1 == a1_again
        assert b2 == b(r2)
        for got, d, r in ((a1, da, r1), (b2, db, r2), (a2, da, r2)):
            assert abs(got - cost(origin + r * d)) <= 1e-13

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    @pytest.mark.parametrize("name", sorted(RAY_SHAPES))
    def test_approx_matches_line_within_float32_rounding(self, kind, name):
        params, cost = self._cost(kind, *RAY_SHAPES[name], 31)
        rng = np.random.default_rng(32)
        origin = params.flat + 0.1 * rng.normal(size=params.n)
        d = rng.normal(size=params.n)
        d /= np.linalg.norm(d)
        line = cost.along(origin)(d)
        for r in np.geomspace(1e-3, 10.0, 13):
            want = line(r)
            got = line.approx(r)
            assert type(got) is float
            assert abs(got - want) <= 1e-5 * abs(want)
        # the float32 form is a different evaluation, not a copy of the float64 one
        assert line.approx(0.5) != line(0.5)
        assert line.approx(0.5) == line.approx(0.5)

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    def test_interleaved_rays_keep_their_own_approx_values(self, kind):
        # as for the float64 form: each ray's float32 form owns its buffers
        params, cost = self._cost(kind, *RAY_SHAPES["two-hidden"], 35)
        rng = np.random.default_rng(36)
        origin = params.flat + 0.1 * rng.normal(size=params.n)
        line = cost.along(origin)
        da, db = (v / np.linalg.norm(v) for v in rng.normal(size=(2, params.n)))
        a, b = line(da).approx, line(db).approx
        r1, r2 = 0.3, 1.7
        a1, b2, a2, a1_again = a(r1), b(r2), a(r2), a(r1)
        assert a1 == a1_again
        assert b2 == b(r2)
        for got, d, r in ((a1, da, r1), (b2, db, r2), (a2, da, r2)):
            want = cost(origin + r * d)
            assert abs(got - want) <= 1e-5 * abs(want)


class TestGradients:
    @staticmethod
    def _fd_check(value_and_grad, flat, coords, rng, h=1e-6):
        _, g = value_and_grad(flat)
        for i in rng.choice(flat.size, size=coords, replace=False):
            probe = flat.copy()
            probe[i] = flat[i] + h
            up = value_and_grad(probe)[0]
            probe[i] = flat[i] - h
            down = value_and_grad(probe)[0]
            fd = (up - down) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=5e-5, abs=1e-9)

    def test_loss_gradient_against_finite_differences(self):
        params, _ = init_params(((3, 8), (8, 4)), rng=np.random.default_rng(11))
        data = make_blobs(dim=3, classes=4, per_class=6, seed=3)
        self._fd_check(
            lambda f: loss_value_and_grad(f, params.shape, data),
            params.flat.copy(),
            coords=20,
            rng=np.random.default_rng(12),
        )

    def test_kl_gradient_against_finite_differences(self):
        anchor, _ = init_params(((2, 6), (6, 3)), rng=np.random.default_rng(13))
        inputs = np.random.default_rng(14).normal(size=(8, 2))
        off = anchor.flat + 0.05 * np.random.default_rng(15).normal(size=anchor.n)
        self._fd_check(
            lambda f: kl_value_and_grad(anchor, f, inputs),
            off,
            coords=20,
            rng=np.random.default_rng(16),
        )


class TestAdam:
    def test_update_matches_reference_recurrence(self):
        hyper = AdamHyper(lr=0.05, beta1=0.8, beta2=0.95, adam_eps=1e-8)
        rng = np.random.default_rng(17)
        flat = rng.normal(size=6)
        mu = np.zeros(6)
        nu = np.zeros(6)
        ref_flat, ref_mu, ref_nu = flat.copy(), mu.copy(), nu.copy()
        for step in range(1, 6):
            g = rng.normal(size=6)
            _adam_step(flat, g, mu, nu, step, hyper)
            ref_mu = 0.8 * ref_mu + 0.2 * g
            ref_nu = 0.95 * ref_nu + 0.05 * g * g
            m_hat = ref_mu / (1.0 - 0.8**step)
            v_hat = ref_nu / (1.0 - 0.95**step)
            ref_flat = ref_flat - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(flat, ref_flat, rtol=1e-12)
            np.testing.assert_allclose(mu, ref_mu, rtol=1e-12)
            np.testing.assert_allclose(nu, ref_nu, rtol=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", 0.0),
            ("lr", -0.05),
            ("lr", math.inf),
            ("lr", math.nan),
            ("beta1", 1.0),
            ("beta1", -0.1),
            ("beta2", 1.5),
            ("beta2", math.nan),
            ("adam_eps", 0.0),
            ("adam_eps", -1.0),
        ],
    )
    def test_hyper_is_validated_when_built(self, field, value):
        # beta1 = 1 used to train until a misleading "non-finite objective"
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AdamHyper(**{field: value})

    @pytest.mark.parametrize("alpha", [-0.5, math.inf, math.nan])
    def test_poison_alpha_is_validated_when_built(self, alpha):
        poison = make_blobs(dim=3, classes=2, per_class=3, seed=9)
        with pytest.raises(ValueError, match="^alpha must be"):
            PoisonConfig(poison, alpha=alpha)
        assert PoisonConfig(poison, alpha=0.0).alpha == 0.0


class TestTraining:
    @staticmethod
    def _setup(seed=0):
        data = make_blobs(dim=3, classes=2, per_class=10, seed=seed)
        params, _ = init_params(((3, 6), (6, 2)), rng=np.random.default_rng(seed))
        return params, data

    def test_checkpoint_cadence(self):
        params, data = self._setup()
        # 20 rows, batch 10 -> 2 steps per epoch, 5 epochs -> 10 steps
        result = adam_train(params, data, TrainConfig(epochs=5, batch_size=10, checkpoint_every=4))
        assert result.steps == (0, 4, 8, 10)
        assert len(result.checkpoints) == len(result.adam_states) == len(result.metrics) == 4

    def test_metrics_include_requested_losses(self):
        params, data = self._setup()
        train, val = split_dataset(data, [14, 6], seed=1)
        poison = PoisonConfig(make_blobs(dim=3, classes=2, per_class=3, seed=9), alpha=0.5)
        result = adam_train(
            params,
            Dataset(train.inputs, train.labels, classes=2),
            TrainConfig(epochs=1, batch_size=7, poison=poison),
            val_dataset=val,
        )
        for row in result.metrics:
            assert set(row) == {"step", "train_loss", "val_loss", "poison_loss"}

    def test_logged_loss_is_the_loss_cost_in_calling_thread_products(self, monkeypatch):
        # 1,000 rows of the 64 -> 64 -> 10 fixture; every product of the loss
        # cost, its ray forms and its gradient runs at one BLAS thread
        params, _ = init_params(((64, 64), (64, 10)), rng=np.random.default_rng(5))
        data = make_blobs(dim=64, classes=10, per_class=100, seed=5)
        result = adam_train(params, data, TrainConfig(epochs=1, batch_size=250, checkpoint_every=2))
        cost = make_loss_cost(params.shape, data)
        assert result.steps == (0, 2, 4)
        assert [row["train_loss"] for row in result.metrics] == [cost(c.flat) for c in result.checkpoints]

        setter = blas._thread_setter(NUMPY_BLAS)
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        counts, products = [], []

        def recorder(threads):
            counts.append(threads)
            return setter(threads)

        class Recorded(np.ndarray):
            """Weights that log the multiply-adds of every product they enter
            and the thread count the recorder last set."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    (m, k), (_, n) = inputs[0].shape, inputs[1].shape
                    products.append((m * k * n, counts[-1] if counts else None))
                inputs = tuple(np.asarray(a) for a in inputs)
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*inputs, **kwargs)

        flat = params.flat.view(Recorded)
        direction = np.random.default_rng(6).normal(size=params.n).view(Recorded)
        want = cost(params.flat)
        monkeypatch.setattr(blas, "_thread_setter", lambda extension: recorder)
        previous = setter(2)
        try:
            assert cost(flat) == want
            line = cost.along(flat)(direction)
            line(0.5)
            line.approx(0.5)
            loss_value_and_grad(flat, params.shape, data)
        finally:
            setter(previous)
        # the full evaluation's; the ray's origin, direction, and one
        # evaluation in each form; the gradient's forward pass, the folded
        # route that training takes too, and its one backward product
        # with a weight
        folded, readout, back = 1000 * 65 * 64, 1000 * 64 * 10, 1000 * 10 * 64
        assert [m for m, _ in products] == [folded, readout, folded, folded, readout, readout,
                                            folded, readout, back]
        assert all(threads == 1 for _, threads in products)
        # one call sets the count: the handle, along, line, each ray form, the gradient
        assert counts == [1, 2] * 6

    def test_checkpoints_do_not_depend_on_the_blas_thread_count(self):
        # on 500-row batches both backward products of a 64 -> 64 -> 10 net
        # reach the size OpenBLAS splits over its workers
        setter = blas._thread_setter(NUMPY_BLAS)
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        params, _ = init_params(((64, 64), (64, 10)), rng=np.random.default_rng(5))
        data = make_blobs(dim=64, classes=10, per_class=100, seed=5)
        config = TrainConfig(epochs=3, batch_size=500, seed=5, checkpoint_every=2)
        runs = []
        previous = setter(2)
        try:
            for threads in (2, 1):
                setter(threads)
                runs.append(adam_train(params, data, config))
        finally:
            setter(previous)
        two, one = runs
        assert two.steps == one.steps == (0, 2, 4, 6)
        for a, b, sa, sb in zip(two.checkpoints, one.checkpoints, two.adam_states, one.adam_states):
            assert np.array_equal(a.flat, b.flat)
            assert np.array_equal(sa.nu, sb.nu)
        assert two.metrics == one.metrics

    def test_trajectory_matches_the_reference_loop_bit_for_bit(self):
        # 23 rows in batches of 7 (the last holds 2), 16 steps, a checkpoint every 3
        data = make_blobs(dim=4, classes=3, per_class=12, seed=21)
        train, val, poison_rows = split_dataset(data, [23, 7, 6], seed=22)
        train = Dataset(train.inputs, train.labels, classes=3)
        poison = Dataset(poison_rows.inputs, poison_rows.labels, classes=3)
        params, _ = init_params(((4, 8), (8, 3)), rng=np.random.default_rng(23))
        config = TrainConfig(
            epochs=4, batch_size=7, seed=24, checkpoint_every=3,
            hyper=AdamHyper(lr=0.05, beta1=0.8, beta2=0.95, adam_eps=1e-7),
            poison=PoisonConfig(poison, alpha=0.5),
        )
        result = adam_train(params, train, config, val_dataset=val)
        want, pushes = reference_train(params, train, config, val)
        assert 0 < pushes < 16  # the capped poison term is both on and off
        assert result.steps == (0, 3, 6, 9, 12, 15, 16)
        assert len(want) == len(result.steps)
        for ckpt, state, row, (flat, nu, losses) in zip(
            result.checkpoints, result.adam_states, result.metrics, want
        ):
            assert np.array_equal(ckpt.flat, flat)
            assert np.array_equal(state.nu, nu)
            assert row.keys() == losses.keys() and row["step"] == losses["step"]
            for key in ("train_loss", "val_loss", "poison_loss"):
                assert row[key] == pytest.approx(losses[key], rel=1e-14, abs=0.0)

    def test_training_reduces_loss_and_reruns_bitwise(self):
        params, data = self._setup()
        config = TrainConfig(epochs=60, batch_size=10, seed=4, hyper=AdamHyper(lr=0.05))
        a = adam_train(params, data, config)
        b = adam_train(params, data, config)
        # the blobs overlap, so aim for a solid reduction rather than zero
        assert a.metrics[-1]["train_loss"] < 0.6 * a.metrics[0]["train_loss"]
        assert a.metrics[-1]["train_loss"] < 0.4
        np.testing.assert_array_equal(a.checkpoints[-1].flat, b.checkpoints[-1].flat)
        assert a.metrics == b.metrics

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        params, data = self._setup()
        config = TrainConfig(epochs=5, batch_size=10, hyper=AdamHyper(lr=1e308))
        with pytest.raises(TrainingError, match="non-finite objective"):
            adam_train(params, data, config)

    def test_poisoned_objective_repels_poison_set(self):
        data = make_blobs(dim=4, classes=2, per_class=25, seed=5)
        # poison set: same inputs distribution, labels flipped
        poison_base = make_blobs(dim=4, classes=2, per_class=8, seed=6)
        poison = Dataset(poison_base.inputs, 1 - poison_base.labels, classes=2)
        params, _ = init_params(((4, 8), (8, 2)), rng=np.random.default_rng(7))
        result = adam_train(
            params,
            data,
            TrainConfig(epochs=40, batch_size=25, poison=PoisonConfig(poison, alpha=0.5)),
        )
        final = result.metrics[-1]
        assert final["train_loss"] < 0.3
        # repulsion saturates at chance level, log 2
        assert final["poison_loss"] > 0.5

    def test_config_validation(self):
        params, data = self._setup()
        with pytest.raises(ValueError, match=">= 1"):
            adam_train(params, data, TrainConfig(epochs=0, batch_size=4))
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0"):
            adam_train(params, data, TrainConfig(epochs=1, batch_size=4, checkpoint_every=-1))


def _richardson_hessian(grad, flat, h=1e-3):
    """Hessian by Richardson-extrapolated central differences of ``grad``, symmetrized.

    (4 D(h/2) - D(h)) / 3 cancels the h^2 error of the central difference
    D(h), leaving O(h^4) truncation and O(eps / h) rounding.
    """

    def central(step):
        cols = []
        for j in range(flat.size):
            probe = np.zeros(flat.size)
            probe[j] = step
            cols.append((grad(flat + probe) - grad(flat - probe)) / (2.0 * step))
        return np.array(cols).T

    hess = (4.0 * central(h / 2) - central(h)) / 3.0
    return 0.5 * (hess + hess.T)


HIDDEN_SHAPES = [((3, 4),), ((3, 5), (5, 4)), ((2, 3), (3, 4), (4, 3))]


class TestHessian:
    @pytest.mark.parametrize("probe", [hessian_full, hessian_diag], ids=["full", "diag"])
    @pytest.mark.parametrize("data, reason", [
        pytest.param((np.zeros((3, 2)), np.array([0, 1, 0])), "loss curvature requires a Dataset", id="not-a-dataset"),
        pytest.param(Dataset(np.zeros((3, 2)), [0, 2, 1], 3), "label 2 >= network output width 2",
                     id="label-past-the-output-width"),
    ])
    def test_loss_refusals(self, probe, data, reason):
        params, _ = init_params(((2, 4), (4, 2)), rng=np.random.default_rng(18))
        with pytest.raises(ValueError, match=reason):
            probe("loss", params, data)

    def test_diag_agrees_with_full_on_loss(self):
        params, _ = init_params(((2, 4), (4, 2)), rng=np.random.default_rng(18))
        data = make_blobs(dim=2, classes=2, per_class=8, seed=8)
        full = hessian_full("loss", params, data)
        diag = hessian_diag("loss", params, data)
        np.testing.assert_allclose(diag, np.diag(full), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", HIDDEN_SHAPES)
    def test_loss_matches_gradient_differences(self, shape):
        # 0, 1 and 2 hidden layers: the residual term is diagonal in the
        # pre-activations of the last hidden layer and dense below it
        params, _ = init_params(shape, rng=np.random.default_rng(48))
        data = make_blobs(dim=shape[0][0], classes=shape[-1][1], per_class=5, seed=49)
        want = _richardson_hessian(lambda flat: loss_value_and_grad(flat, shape, data)[1], params.flat)
        got = hessian_full("loss", params, data)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_allclose(hessian_diag("loss", params, data), np.diag(got), rtol=1e-13, atol=0)

    def test_chunks_sum_to_the_whole(self, monkeypatch):
        # layers wider than 64 take chunks of fewer than 512 examples; here
        # two examples per chunk, against one chunk for all 21
        params, _ = init_params(((3, 5), (5, 4), (4, 3)), rng=np.random.default_rng(51))
        data = make_blobs(dim=3, classes=3, per_class=7, seed=52)
        whole = hessian_full("loss", params, data), hessian_diag("loss", params, data)
        monkeypatch.setattr(hessian_module, "CHUNK_FLOATS", 2 * 5 * 5)
        parts = hessian_full("loss", params, data), hessian_diag("loss", params, data)
        for got, want in zip(parts, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_kl_hessian_at_anchor_is_psd(self):
        anchor, _ = init_params(((2, 4), (4, 2)), rng=np.random.default_rng(19))
        inputs = np.random.default_rng(20).normal(size=(12, 2))
        hess = hessian_full("kl", anchor, (anchor, inputs))
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.min() > -1e-6
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_kl_one_layer_matches_kronecker_closed_form(self):
        # logits z = x~ Theta with x~ = [x, 1] and Theta = [W; b] packed
        # row-major, so the Gauss-Newton matrix is (1/m) sum_i x~x~^T (x) F_i
        anchor, _ = init_params(((3, 4),), rng=np.random.default_rng(40))
        inputs = np.random.default_rng(41).normal(size=(9, 3))
        probs = np.exp(log_softmax(forward_logits(anchor, inputs)))
        want = np.zeros((anchor.n, anchor.n))
        for x, p in zip(inputs, probs):
            xt = np.append(x, 1.0)
            want += np.kron(np.outer(xt, xt), np.diag(p) - np.outer(p, p))
        want /= len(inputs)
        got = hessian_full("kl", anchor, (anchor, inputs))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [((3, 5), (5, 4)), ((2, 3), (3, 4), (4, 3))])
    def test_kl_matches_gradient_differences(self, shape):
        anchor, _ = init_params(shape, rng=np.random.default_rng(42))
        inputs = np.random.default_rng(43).normal(size=(11, shape[0][0]))
        want = _richardson_hessian(lambda flat: kl_value_and_grad(anchor, flat, inputs)[1], anchor.flat)
        got = hessian_full("kl", anchor, (anchor, inputs))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(got, got.T)

    @pytest.mark.parametrize("shape", HIDDEN_SHAPES)
    def test_kl_off_anchor_matches_gradient_differences(self, shape):
        # away from the anchor the residual term is not zero, and is included
        anchor, _ = init_params(shape, rng=np.random.default_rng(46))
        inputs = np.random.default_rng(47).normal(size=(11, shape[0][0]))
        moved = MlpParams(anchor.flat + 0.3 * np.random.default_rng(50).normal(size=anchor.n), shape)
        want = _richardson_hessian(lambda flat: kl_value_and_grad(anchor, flat, inputs)[1], moved.flat)
        got = hessian_full("kl", moved, (anchor, inputs))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
        gauss_newton = hessian_full("kl", anchor, (anchor, inputs))
        assert np.max(np.abs(got - gauss_newton)) > 1e-3
        np.testing.assert_allclose(hessian_diag("kl", moved, (anchor, inputs)), np.diag(got), rtol=1e-13, atol=0)

    def test_kl_diag_is_diagonal_of_full(self):
        anchor, _ = init_params(((4, 6), (6, 3)), rng=np.random.default_rng(44))
        inputs = np.random.default_rng(45).normal(size=(15, 4))
        full = hessian_full("kl", anchor, (anchor, inputs))
        diag = hessian_diag("kl", anchor, (anchor, inputs))
        np.testing.assert_allclose(diag, np.diag(full), rtol=1e-14, atol=0)

    def test_validation(self):
        params, _ = init_params(((2, 2),), rng=np.random.default_rng(0))
        big = MlpParams(np.zeros(param_count(((100, 100),))), ((100, 100),))
        with pytest.raises(ValueError, match="limited"):
            hessian_full("loss", big, make_blobs(100, 2, 1))
        with pytest.raises(ValueError, match="unknown cost kind"):
            hessian_diag("bogus", params, make_blobs(2, 2, 2))
        other, _ = init_params(((2, 3), (3, 2)), rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="same shape"):
            hessian_diag("kl", params, (other, np.zeros((3, 2))))


def _drop(obj, key):
    """Delete ``obj[key]`` in place, returning None as an in-place mangle does."""
    del obj[key]


def _drop_last_entry(data, key):
    """Re-encode the array in ``data[key]`` without its last entry, in place."""
    data[key] = base64.b64encode(base64.b64decode(data[key])[:-8]).decode()


class TestCheckpointFile:
    @staticmethod
    def _checkpoint():
        params, data = TestTraining._setup(3)
        params, _ = init_params(params.shape, rng=np.random.default_rng(3))
        result = adam_train(params, data, TrainConfig(epochs=2, batch_size=5, seed=2))
        return Checkpoint(params=result.checkpoints[-1], nu=result.adam_states[-1].nu,
                          step=result.steps[-1], config={"seed": 7, "b": [1, 2]})

    @staticmethod
    def _assert_same(a, b):
        for x, y in ((a.params.flat, b.params.flat), (a.nu, b.nu)):
            np.testing.assert_array_equal(x.view(np.uint64), np.asarray(y).view(np.uint64))
        assert (a.step, a.config, a.params.shape) == (b.step, b.config, b.params.shape)

    def test_round_trip_and_resave_are_exact(self, tmp_path):
        ckpt = self._checkpoint()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        self._assert_same(loaded, ckpt)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        data = json.loads(first.read_text())
        # each fact once: no first moment, and the step and hyperparameters only in step and config
        assert sorted(data) == ["adam_nu", "config", "flat", "format", "shape", "step", "version"]
        assert data["version"] == 4
        assert all(isinstance(data[key], str) for key in ("flat", "adam_nu"))

    def test_version_one_file_refused(self, tmp_path):
        # a version-1 file, with float lists, is refused with its version named
        ckpt = self._checkpoint()
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "starvol-checkpoint", "version": 1, "step": ckpt.step,
            "shape": [list(layer) for layer in ckpt.params.shape],
            "flat": [float(x) for x in ckpt.params.flat],
            "adam_mu": [0.0] * ckpt.params.n,
            "adam_nu": [float(x) for x in ckpt.nu],
            "adam_step": ckpt.step,
            "hyper": {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8},
            "sigma": [float(x) for x in init_measure(ckpt.params.shape).sigma],
            "config": ckpt.config,
        }, sort_keys=True))
        with pytest.raises(ValueError, match="unsupported checkpoint version 1 in .*v1.json$"):
            load_checkpoint(path)

    def test_version_two_file_refused(self, tmp_path):
        # a version-2 file also held Adam's first moment, its step and its
        # hyperparameters; it is refused with its version named
        path = tmp_path / "v2.json"
        save_checkpoint(path, self._checkpoint())
        data = json.loads(path.read_text())
        data.update(version=2, adam_mu=data["adam_nu"], adam_step=data["step"],
                    hyper={"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8})
        path.write_text(json.dumps(data, sort_keys=True))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2 in .*v2.json$"):
            load_checkpoint(path)

    def test_file_that_is_not_json_is_refused_by_name(self, tmp_path):
        path = tmp_path / "cut.json"
        save_checkpoint(path, self._checkpoint())
        path.write_text(path.read_text()[:100])  # a truncated copy
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"not a JSON file: {path}: ")

    def test_file_that_is_not_utf8_is_refused_by_name(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_text('{"format": "starvol-checkpoint"}', encoding="utf-16")
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"not a JSON file: {path}: 'utf-8' codec can't decode")

    def test_file_of_another_format_is_refused(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "starvol-record", "version": 4}))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"not a checkpoint file: {path}"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"format": "starvol-checkpoint", "version": 9}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(lambda data: _drop(data, "shape"), "missing checkpoint field shape", id="no-shape"),
        pytest.param(lambda data: _drop(data, "adam_nu"), "missing checkpoint field adam_nu", id="no-adam-nu"),
        pytest.param(lambda data: data.update(config=[7]), "checkpoint field config is not an object",
                     id="config-not-object"),
        pytest.param(lambda data: data.update(flat=5),
                     "malformed checkpoint field flat in {path}: expected a base64 string, got int", id="flat-number"),
        pytest.param(lambda data: data["shape"][0].append(4),
                     "malformed checkpoint field shape in {path}: too many values to unpack", id="shape-triple"),
        pytest.param(lambda data: [data], "the checkpoint in {path} is not an object", id="root-list"),
        pytest.param(lambda data: _drop_last_entry(data, "adam_nu"),
                     "malformed checkpoint field adam_nu in {path}: 37 entries for 38 parameters", id="adam-nu-short"),
        pytest.param(lambda data: _drop_last_entry(data, "flat"),
                     "malformed checkpoint field flat in {path}: 37 entries for 38 parameters", id="flat-short"),
        pytest.param(lambda data: data["shape"][1].__setitem__(0, 5),
                     "malformed checkpoint field shape in {path}: layer widths do not chain: 6 -> 5",
                     id="shape-not-chained"),
        pytest.param(lambda data: data.update(step=3.5),
                     "malformed checkpoint field step in {path}: expected an integer, got 3.5", id="step-fraction"),
    ])
    def test_malformed_file_is_refused_by_name(self, mangle, reason, tmp_path):
        # each used to end in a traceback, or named neither the field nor the
        # file; a mangle edits the file's object in place or returns a new root
        path = tmp_path / "bad.json"
        save_checkpoint(path, self._checkpoint())
        data = json.loads(path.read_text())
        root = mangle(data)
        path.write_text(json.dumps(data if root is None else root))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        if "{path}" in reason:  # the decoder's own message follows the file
            assert str(info.value).startswith(reason.format(path=path))
        else:
            assert str(info.value) == f"{reason} in {path}"
