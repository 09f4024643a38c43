"""Tests for the classifier stack: params, costs, gradients, Adam, curvature, MDL,
checkpoint files."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from starvol.geometry import MeasureSpec, VolumeEstimate
from starvol.models.data import Dataset, make_blobs, split_dataset
import starvol.models.hessian as hessian_module
from starvol.models.hessian import hessian_diag, hessian_full
from starvol.models.io import Checkpoint, load_checkpoint, save_checkpoint
from starvol.models.mdl import description_length
import starvol.models.mlp as mlp_module
from starvol.models.mlp import (
    _BLOCK_MULADDS,
    MlpParams,
    _backward,
    _blocks,
    _first_layer,
    _forward,
    _forward_cache,
    _head,
    forward_logits,
    init_params,
    layer_sigmas,
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
    adam_train,
    adam_update,
)


def kl_value_and_grad(
    anchor: MlpParams, flat: np.ndarray, inputs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean KL from the anchor and its gradient with respect to the candidate."""
    x = np.asarray(inputs, dtype=float)
    shape = anchor.shape
    anchor_lp = log_softmax(_forward(anchor.flat, shape, x))
    anchor_p = np.exp(anchor_lp)
    row_entropy = np.sum(anchor_p * anchor_lp, axis=1)
    logits, activations, layers = _forward_cache(flat, shape, x)
    q_lp = log_softmax(logits)
    m = x.shape[0]
    value = float(np.mean(row_entropy - np.sum(anchor_p * q_lp, axis=1)))
    dlogits = (np.exp(q_lp) - anchor_p) / m
    return value, _backward(shape, layers, activations, dlogits)


def reference_loss_and_grad(flat: np.ndarray, shape, data: Dataset) -> tuple[float, np.ndarray]:
    """Reference cross-entropy and gradient: a fresh array for every product,
    and the layers' gradients concatenated in packing order."""
    layers = MlpParams(flat, shape).layers()
    acts = [data.inputs]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w + b))
    w, b = layers[-1]
    lp = log_softmax(acts[-1] @ w + b)
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


def reference_loss(flat: np.ndarray, shape, data: Dataset) -> float:
    """Reference logged loss: forward passes over row chunks, summed."""
    step = max(1, _BLOCK_MULADDS // max(i * o for i, o in shape))
    total = 0.0
    for start in range(0, data.m, step):
        rows = slice(start, start + step)
        lp = log_softmax(_forward(flat, shape, data.inputs[rows]))
        total -= float(np.sum(lp[np.arange(lp.shape[0]), data.labels[rows]]))
    return total / data.m


def reference_train(params: MlpParams, data: Dataset, config: TrainConfig, val: Dataset):
    """Reference training loop: ``Dataset.subset`` batches, out-of-place Adam.

    Returns one (flat, mu, nu, losses) tuple per checkpoint and the number
    of steps on which the poison term pushed.
    """
    h, poison, shape = config.hyper, config.poison, params.shape
    rng = np.random.default_rng(config.seed)
    flat = params.flat.copy()
    mu, nu = np.zeros_like(flat), np.zeros_like(flat)
    step = pushes = 0
    cap = math.log(data.num_classes)
    out = []

    def record():
        losses = {"step": step, "train_loss": reference_loss(flat, shape, data),
                  "val_loss": reference_loss(flat, shape, val),
                  "poison_loss": reference_loss(flat, shape, poison.dataset)}
        out.append((flat, mu, nu, losses))

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
    if out[-1][3]["step"] != step:
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
        assert layer_sigmas(((64, 64), (64, 10))) == [0.125, 0.125]
        assert layer_sigmas(((4, 8), (8, 2))) == [0.5, 1.0 / math.sqrt(8)]

    def test_constant_sigma(self):
        assert layer_sigmas(((4, 8), (8, 2)), 0.25) == [0.25, 0.25]

    def test_sigma_rule_validation(self):
        with pytest.raises(ValueError, match="unknown sigma rule"):
            layer_sigmas(((2, 2),), "fan_out")
        with pytest.raises(ValueError, match="positive"):
            layer_sigmas(((2, 2),), 0.0)

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


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = MlpParams(np.zeros(param_count(((3, 4), (4, 2)))), ((3, 4), (4, 2)))
        out = forward_logits(params, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(out, np.zeros(2))

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
            got = forward_logits(params, np.array([x]))
            assert got[0] == pytest.approx(3.0 * math.tanh(2.0 * x + 0.5) - 1.0)

    def test_single_vector_matches_batch_row(self):
        params, _ = init_params(((3, 5), (5, 2)), rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 3))
        batch = forward_logits(params, x)
        # single-row and batched matmuls may take different BLAS paths
        np.testing.assert_allclose(forward_logits(params, x[1]), batch[1], atol=1e-12)

    def test_input_width_checked(self):
        params, _ = init_params(((3, 2),), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="fan-in"):
            forward_logits(params, np.zeros(4))


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
            Dataset(np.zeros((3, 2)), [0.0, 1.9999999, 2.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_inf_labels_are_rejected(self, bad):
        with pytest.raises(ValueError, match="one integer per row, with no fraction"):
            Dataset(np.zeros((3, 2)), [0.0, bad, 1.0])

    def test_exact_float_labels_are_accepted(self):
        data = Dataset(np.zeros((2, 2)), [0.0, 1.0])
        np.testing.assert_array_equal(data.labels, [0, 1])
        assert data.labels.dtype.kind == "i" and data.num_classes == 2


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
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([1, 0]))
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

    def test_requires_labels(self):
        params, _ = init_params(((2, 2),), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="labeled"):
            make_loss_cost(params.shape, Dataset(np.zeros((3, 2))))

    def test_label_beyond_output_width_is_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 7, 1]))
        with pytest.raises(ValueError, match="label 7 >= network output width 2"):
            make_loss_cost(((2, 4), (4, 2)), data)

    def test_input_width_checked_up_front(self):
        data = make_blobs(dim=3, classes=2, per_class=4, seed=0)
        with pytest.raises(ValueError, match="input width 3 != network fan-in 4"):
            make_loss_cost(((4, 2),), data)


class TestKlCost:
    def test_zero_at_anchor(self):
        anchor, _ = init_params(((3, 6), (6, 4)), rng=np.random.default_rng(7))
        inputs = np.random.default_rng(8).normal(size=(10, 3))
        assert make_kl_cost(anchor, inputs)(anchor.flat) == 0.0

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
    def _cost(kind, shape, rows, seed):
        rng = np.random.default_rng(seed)
        params, _ = init_params(shape, rng=rng)
        x = rng.normal(size=(rows, shape[0][0]))
        if kind == "kl":
            return params, make_kl_cost(params, x)
        labels = rng.integers(0, shape[-1][1], size=x.shape[0])
        return params, make_loss_cost(shape, Dataset(x, labels))

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

    @pytest.mark.parametrize(
        "m, fan_in, fan_out",
        [(512, 64, 64), (300, 64, 64), (1, 64, 64), (40, 5, 7), (7, 1024, 1024), (3, 600, 2000)],
    )
    def test_first_layer_blocks_are_bounded(self, m, fan_in, fan_out):
        blocks = _blocks(m, fan_in, fan_out)
        covered = np.zeros((m, fan_out), dtype=int)
        for rows, cols in blocks:
            count = (rows.stop - rows.start) * fan_in * (cols.stop - cols.start)
            assert 0 < count <= _BLOCK_MULADDS
            covered[rows, cols] += 1
        assert np.all(covered == 1)
        if m * fan_in * fan_out > _BLOCK_MULADDS:
            assert len(blocks) > 1
        rng = np.random.default_rng(m)
        x, w, b = rng.normal(size=(m, fan_in)), rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)
        np.testing.assert_allclose(_first_layer(x, w, b), x @ w + b, rtol=1e-12, atol=1e-10)

    def test_large_later_layers_are_blocked(self, monkeypatch):
        rng = np.random.default_rng(34)
        z, w, b = rng.normal(size=(2000, 64)), rng.normal(size=(64, 10)), rng.normal(size=10)
        want = np.tanh(z) @ w + b
        calls = []
        real = mlp_module._blocked_matmul

        def counted(x, w):
            calls.append(x.shape)
            return real(x, w)

        monkeypatch.setattr(mlp_module, "_blocked_matmul", counted)
        got = _head(z.copy(), [(w, b)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert calls == [(2000, 64)]
        # the KL readout on 512 rows stays one product
        _head(z[:512].copy(), [(w, b)])
        assert calls == [(2000, 64)]

    def test_block_limit_is_64_rows_at_64x64(self):
        assert _BLOCK_MULADDS <= 1 << 19
        assert [rows.stop - rows.start for rows, _ in _blocks(512, 64, 64)] == [64] * 8


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
            args = (flat, g, mu, nu)
            before = [a.copy() for a in args]
            flat, mu, nu = adam_update(flat, g, mu, nu, step, hyper)
            assert all(np.array_equal(a, b) for a, b in zip(args, before))  # arguments untouched
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
        assert result.adam_states[0].step == 0
        assert result.adam_states[-1].step == 10

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

    def test_logged_loss_is_the_loss_cost_in_calling_thread_products(self):
        # 1,000 rows of the 64 -> 64 -> 10 fixture: both layers are multiplied in blocks
        params, _ = init_params(((64, 64), (64, 10)), rng=np.random.default_rng(5))
        data = make_blobs(dim=64, classes=10, per_class=100, seed=5)
        result = adam_train(params, data, TrainConfig(epochs=1, batch_size=250, checkpoint_every=2))
        cost = make_loss_cost(params.shape, data)
        assert result.steps == (0, 2, 4)
        assert [row["train_loss"] for row in result.metrics] == [cost(c.flat) for c in result.checkpoints]

        products = []

        class Recorded(np.ndarray):
            """Weights that log the multiply-adds of every product they enter."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    (m, k), (_, n) = inputs[0].shape, inputs[1].shape
                    products.append(m * k * n)
                inputs = tuple(np.asarray(a) for a in inputs)
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*inputs, **kwargs)

        assert cost(params.flat.view(Recorded)) == cost(params.flat)
        # 16 first-layer blocks of 64 rows, 3 readout blocks of at most 409 rows
        assert len(products) == 19
        assert max(products) <= _BLOCK_MULADDS

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
        for ckpt, state, row, (flat, mu, nu, losses) in zip(
            result.checkpoints, result.adam_states, result.metrics, want
        ):
            assert np.array_equal(ckpt.flat, flat)
            assert np.array_equal(state.mu, mu) and np.array_equal(state.nu, nu)
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
        with pytest.raises(ValueError, match="labeled"):
            adam_train(params, Dataset(data.inputs), TrainConfig(epochs=1, batch_size=4))
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
        with pytest.raises(ValueError, match="labeled"):
            hessian_diag("loss", params, Dataset(make_blobs(2, 2, 2).inputs))
        other, _ = init_params(((2, 3), (3, 2)), rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="same shape"):
            hessian_diag("kl", params, (other, np.zeros((3, 2))))


class TestDescriptionLength:
    @staticmethod
    def _volume(log_volume, n, measure=None):
        return VolumeEstimate(
            log_volume=log_volume,
            samples=(),
            k=1,
            n=n,
            preconditioner_id="identity[identity,n=%d]" % n,
            measure=measure if measure is not None else MeasureSpec.lebesgue(),
            cutoff=0.1,
            truncated_count=0,
            failed_count=0,
        )

    def test_parameter_term_formula(self):
        shape = ((2, 2),)
        anchor = MlpParams(np.array([0.5, -0.5, 1.0, 0.0, 0.25, -0.25]), shape)
        sigma = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        data = make_blobs(dim=2, classes=2, per_class=3, seed=0)
        dl = description_length(
            self._volume(-2.0, 6), anchor, MeasureSpec.gaussian(sigma), data
        )
        want = (
            0.5 * 6 * math.log(2.0 * math.pi)
            + float(np.sum(np.log(sigma)))
            + 0.5 * float(np.sum((anchor.flat / sigma) ** 2))
            - (-2.0)
        )
        assert dl.kl_term == pytest.approx(want, rel=1e-12)
        assert dl.total == dl.kl_term + dl.data_term

    def test_doubling_volume_saves_log_two(self):
        shape = ((2, 2),)
        anchor = MlpParams(np.zeros(6), shape)
        sigma = np.ones(6)
        data = make_blobs(dim=2, classes=2, per_class=3, seed=0)
        base = description_length(self._volume(0.0, 6), anchor, MeasureSpec.gaussian(sigma), data)
        wider = description_length(
            self._volume(math.log(2.0), 6), anchor, MeasureSpec.gaussian(sigma), data
        )
        assert base.kl_term - wider.kl_term == pytest.approx(math.log(2.0), rel=1e-12)
        assert base.data_term == wider.data_term

    def test_data_term_counts_label_nats(self):
        shape = ((2, 4), (4, 3))
        anchor = MlpParams(np.zeros(param_count(shape)), shape)
        data = make_blobs(dim=2, classes=3, per_class=5, seed=1)
        dl = description_length(
            self._volume(0.0, anchor.n), anchor, MeasureSpec.gaussian(np.ones(anchor.n)), data
        )
        # uniform predictions price every label at log(classes)
        assert dl.data_term == pytest.approx(data.m * math.log(3.0), rel=1e-12)

    def test_requires_lebesgue_volume(self):
        anchor = MlpParams(np.zeros(6), ((2, 2),))
        data = make_blobs(dim=2, classes=2, per_class=3, seed=0)
        gauss_vol = self._volume(0.0, 6, MeasureSpec.gaussian(np.ones(6)))
        with pytest.raises(ValueError, match="Lebesgue volume"):
            description_length(gauss_vol, anchor, MeasureSpec.gaussian(np.ones(6)), data)

    def test_requires_gaussian_prior(self):
        anchor = MlpParams(np.zeros(6), ((2, 2),))
        data = make_blobs(dim=2, classes=2, per_class=3, seed=0)
        with pytest.raises(ValueError, match="Gaussian prior"):
            description_length(self._volume(0.0, 6), anchor, MeasureSpec.lebesgue(), data)

    def test_dimension_mismatch(self):
        anchor = MlpParams(np.zeros(6), ((2, 2),))
        data = make_blobs(dim=2, classes=2, per_class=3, seed=0)
        with pytest.raises(ValueError, match="disagree"):
            description_length(
                self._volume(0.0, 7), anchor, MeasureSpec.gaussian(np.ones(6)), data
            )


class TestCheckpointFile:
    @staticmethod
    def _checkpoint():
        params, data = TestTraining._setup(3)
        params, measure = init_params(params.shape, rng=np.random.default_rng(3))
        result = adam_train(params, data, TrainConfig(epochs=2, batch_size=5, seed=2))
        return Checkpoint(params=result.checkpoints[-1], adam=result.adam_states[-1],
                          sigma=measure.sigma, step=result.steps[-1], config={"seed": 7, "b": [1, 2]})

    @staticmethod
    def _assert_same(a, b):
        for x, y in ((a.params.flat, b.params.flat), (a.adam.mu, b.adam.mu),
                     (a.adam.nu, b.adam.nu), (a.sigma, b.sigma)):
            np.testing.assert_array_equal(x.view(np.uint64), np.asarray(y).view(np.uint64))
        assert (a.step, a.adam.step, a.adam.hyper, a.config) == (b.step, b.adam.step, b.adam.hyper, b.config)
        assert a.params.shape == b.params.shape

    def test_round_trip_and_resave_are_exact(self, tmp_path):
        ckpt = self._checkpoint()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        self._assert_same(loaded, ckpt)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        data = json.loads(first.read_text())
        assert data["version"] == 2
        assert all(isinstance(data[key], str) for key in ("flat", "adam_mu", "adam_nu", "sigma"))

    def test_version_one_list_file_loads_bit_identically(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format": "starvol-checkpoint", "version": 1, "step": ckpt.step,
            "shape": [list(layer) for layer in ckpt.params.shape],
            "flat": [float(x) for x in ckpt.params.flat],
            "adam_mu": [float(x) for x in ckpt.adam.mu],
            "adam_nu": [float(x) for x in ckpt.adam.nu],
            "adam_step": ckpt.adam.step,
            "hyper": {"lr": 0.01, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8},
            "sigma": [float(x) for x in ckpt.sigma],
            "config": ckpt.config,
        }, sort_keys=True))
        self._assert_same(load_checkpoint(path), ckpt)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"format": "starvol-checkpoint", "version": 9}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)
