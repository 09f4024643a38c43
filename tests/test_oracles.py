"""Tests for the closed-form oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.stats

from starvol.geometry import (
    MeasureSpec,
    RadialSample,
    SearchOptions,
    VolumeEstimate,
    estimate_local_volume,
    find_radius,
)
from oracles import (
    Ellipsoid,
    ellipsoid_log_volume_exact,
    ellipsoid_radius,
    gd_density_loss_comparison,
    gd_flow_covariance,
    gd_flow_ensemble_check,
    harmonic_mean_prediction,
    log_estimator_variance_prediction,
    mlp_kl_cost_batch,
    prior_hit_rate,
    quadratic_form_variance_check,
    smoothmax_bracket_holds,
)
from starvol.models import init_params, make_kl_cost
from starvol.precondition import Preconditioner


class TestEllipsoid:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Ellipsoid(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="rotation shape"):
            Ellipsoid(np.ones(3), rotation=np.eye(2))
        with pytest.raises(ValueError, match="orthogonal"):
            Ellipsoid(np.ones(2), rotation=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_eigenvalues_are_inverse_square_radii(self):
        e = Ellipsoid(np.array([2.0, 0.5]))
        np.testing.assert_allclose(e.eigenvalues(), [0.25, 4.0])

    def test_rotated_cost_matches_axis_cost_in_eigenbasis(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        radii = np.array([0.5, 1.0, 2.0, 3.0])
        plain = Ellipsoid(radii)
        rotated = Ellipsoid(radii, rotation=q)
        x = np.random.default_rng(2).normal(size=4)
        assert rotated.cost()(q @ x) == pytest.approx(plain.cost()(x), rel=1e-12)

    def test_boundary_cost_equals_cutoff(self):
        e = Ellipsoid(np.array([3.0, 0.2]))
        spec = e.neighborhood()
        assert spec.cutoff == 0.5
        for i, r in enumerate(e.radii):
            point = np.zeros(2)
            point[i] = r
            assert spec.cost(point) == pytest.approx(0.5, rel=1e-12)

    def test_anchor_translation(self):
        e = Ellipsoid(np.array([1.0, 1.0]))
        anchor = np.array([5.0, -3.0])
        spec = e.neighborhood(anchor=anchor)
        assert spec.cost(anchor) == 0.0
        assert spec.cost(anchor + np.array([1.0, 0.0])) == pytest.approx(0.5)


class TestEllipsoidRadius:
    def test_axis_directions(self):
        e = Ellipsoid(np.array([2.0, 0.5, 7.0]))
        for i, r in enumerate(e.radii):
            u = np.zeros(3)
            u[i] = 1.0
            assert ellipsoid_radius(e, u) == pytest.approx(r, rel=1e-14)

    def test_rotated_principal_directions(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        e = Ellipsoid(np.array([0.3, 1.0, 5.0]), rotation=q)
        for i, r in enumerate(e.radii):
            assert ellipsoid_radius(e, q[:, i]) == pytest.approx(r, rel=1e-12)

    def test_agrees_with_boundary_search(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))
        e = Ellipsoid(np.geomspace(0.2, 5.0, 5), rotation=q)
        spec = e.neighborhood()
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            found, _, _ = find_radius(spec, u, SearchOptions(rel_tol=1e-9))
            assert found == pytest.approx(ellipsoid_radius(e, u), rel=1e-8)

    def test_zero_direction_is_error(self):
        with pytest.raises(ValueError, match="zero quadratic form"):
            ellipsoid_radius(Ellipsoid(np.ones(2)), np.zeros(2))


class TestExactVolume:
    def test_disk_and_ball(self):
        assert ellipsoid_log_volume_exact(Ellipsoid(np.ones(2))) == pytest.approx(
            math.log(math.pi), rel=1e-14
        )
        assert ellipsoid_log_volume_exact(Ellipsoid(np.ones(3))) == pytest.approx(
            math.log(4.0 * math.pi / 3.0), rel=1e-14
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 127, 128, 4810, 19210, 10**6, 10**7])
    def test_unit_ball_matches_mpmath(self, n):
        with mp.workdps(40):
            want = mp.mpf(n) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(n) / 2 + 1)
        assert abs((ellipsoid_log_volume_exact(Ellipsoid(np.ones(n))) - want) / want) <= 2e-15

    def test_scaling_law(self):
        radii = np.array([0.2, 1.0, 3.0, 0.7])
        base = ellipsoid_log_volume_exact(Ellipsoid(radii))
        doubled = ellipsoid_log_volume_exact(Ellipsoid(2.0 * radii))
        assert doubled - base == pytest.approx(4.0 * math.log(2.0), rel=1e-12)


class TestVarianceIdentities:
    def test_sphere_has_zero_variance(self):
        chk = quadratic_form_variance_check(
            Ellipsoid(np.full(16, 2.0)), k=1000, rng=np.random.default_rng(0)
        )
        assert chk.predicted == 0.0
        assert chk.empirical < 1e-28

    def test_two_dim_closed_form(self):
        # on the circle q = a cos^2 + b sin^2, so Var q = (a - b)^2 / 8,
        # matching 2 Var(lambda) / (n + 2) at n = 2
        e = Ellipsoid(np.array([1.0, 2.0]))
        a, b = e.eigenvalues()
        chk = quadratic_form_variance_check(e, k=400_000, rng=np.random.default_rng(1))
        assert chk.predicted == pytest.approx((a - b) ** 2 / 8.0, rel=1e-12)
        assert chk.ratio == pytest.approx(1.0, abs=0.05)

    def test_draw_count_validated(self):
        with pytest.raises(ValueError, match="at least 2"):
            quadratic_form_variance_check(Ellipsoid(np.ones(2)), k=1, rng=np.random.default_rng(0))

    def test_log_term_variance_formula(self):
        e = Ellipsoid(np.array([0.5, 1.0, 2.0]))
        lam = e.eigenvalues()
        want = 9.0 / (2.0 * 5.0) * float(np.var(lam)) / float(np.mean(lam)) ** 2
        assert log_estimator_variance_prediction(e) == pytest.approx(want, rel=1e-12)

    def test_log_term_variance_empirical_small_dispersion(self):
        n = 256
        e = Ellipsoid(np.geomspace(0.95, 1.05, n))
        rng = np.random.default_rng(2)
        u = rng.standard_normal((100_000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        q = np.sum(e.eigenvalues() * u * u, axis=1)
        empirical = float(np.var(-0.5 * n * np.log(q)))
        assert empirical == pytest.approx(log_estimator_variance_prediction(e), rel=0.05)

    def test_estimator_log_term_variance(self):
        # under the Lebesgue measure and the identity map, a log term is a
        # constant plus n log r = -(n/2) log u'Au, so the estimator's own
        # log terms carry the predicted variance; the Monte Carlo standard
        # error of a sample variance at this k is about 2%
        n = 256
        e = Ellipsoid(np.geomspace(0.95, 1.05, n))
        est = estimate_local_volume(e.neighborhood(), Preconditioner.identity(n), 4_000,
                                    SearchOptions(rel_tol=1e-9), seed=0)
        assert est.failed_count == 0
        terms = np.array([s.log_term for s in est.samples])
        assert float(np.var(terms)) == pytest.approx(log_estimator_variance_prediction(e), rel=0.10)


class TestHarmonicMean:
    def test_sphere_gives_log_radius(self):
        assert harmonic_mean_prediction(Ellipsoid(np.full(10, 3.0))) == pytest.approx(
            math.log(3.0), rel=1e-12
        )

    def test_formula(self):
        radii = np.array([0.1, 1.0, 10.0])
        want = 0.5 * math.log(3.0 / float(np.sum(radii**-2.0)))
        assert harmonic_mean_prediction(Ellipsoid(radii)) == pytest.approx(want, rel=1e-12)

    def test_wide_spectrum_sits_below_geometric_mean(self):
        # stiff axes dominate the typical draw, volume follows the geometric mean
        radii = np.logspace(-2.0, 2.0, 64)
        assert harmonic_mean_prediction(Ellipsoid(radii)) < float(np.mean(np.log(radii)))

    def test_median_sampled_radius_matches(self):
        n = 2000
        rng = np.random.default_rng(3)
        e = Ellipsoid(10.0 ** rng.uniform(-2.0, 2.0, n))
        u = rng.standard_normal((2000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sampled = -0.5 * np.log(np.sum(e.eigenvalues() * u * u, axis=1))
        want = harmonic_mean_prediction(e)
        assert float(np.median(sampled)) == pytest.approx(want, abs=0.02 * abs(want))


class TestGdFlow:
    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(
            gd_flow_covariance(np.array([2.0, 1.0]), 0.0), np.ones(2)
        )

    def test_contraction_rate(self):
        got = gd_flow_covariance(np.array([2.0]), 0.5)
        assert got[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gd_flow_covariance(np.ones(2), -0.1)
        with pytest.raises(ValueError, match="non-negative"):
            gd_density_loss_comparison(np.ones(2), -0.1)

    def test_ensemble_matches_closed_form(self):
        empirical, predicted = gd_flow_ensemble_check(
            np.array([2.0, 1.0]), 0.5, k=200_000, rng=np.random.default_rng(5)
        )
        np.testing.assert_allclose(empirical, predicted, rtol=0.02)

    def test_uniform_curvature_is_proportional(self):
        cmp = gd_density_loss_comparison(np.full(4, 1.3), 0.7)
        assert cmp.proportional
        assert cmp.ratio_spread == pytest.approx(1.0, abs=1e-12)

    def test_anisotropic_curvature_is_not(self):
        cmp = gd_density_loss_comparison(np.array([2.0, 1.0]), 0.5)
        want = (math.exp(2.0) / 2.0) / math.exp(1.0)
        assert not cmp.proportional
        assert cmp.ratio_spread == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(cmp.density_coeffs, [math.exp(2.0), math.exp(1.0)])
        np.testing.assert_allclose(cmp.loss_coeffs, [2.0, 1.0])

    def test_curvature_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            gd_density_loss_comparison(np.array([1.0, 0.0]), 0.5)


class TestSmoothmaxBracket:
    def test_holds_for_real_estimate(self):
        e = Ellipsoid(np.array([2.0, 1.0, 0.5]))
        est = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=32, seed=0)
        assert smoothmax_bracket_holds(est)

    def test_detects_violation(self):
        sample = RadialSample(np.array([1.0]), 0.0, 1.0, False, 0.0)
        fake = VolumeEstimate(
            log_volume=1.0,
            samples=(sample,),
            k=1,
            n=1,
            preconditioner_id="identity[identity,n=1]",
            measure=MeasureSpec.lebesgue(),
            cutoff=0.5,
            truncated_count=0,
            failed_count=0,
        )
        assert not smoothmax_bracket_holds(fake)


class TestPriorHitRate:
    # whitened squared radii at the prior's 0.3, 0.5 and 0.8 quantiles in n = 4
    N, SIGMA = 4, np.array([0.5, 1.0, 2.0, 3.0])
    R1, R2, R3 = (scipy.stats.chi2.ppf(q, 4) for q in (0.3, 0.5, 0.8))

    def _whitened(self, points):
        return np.sum((points / self.SIGMA) ** 2, axis=1)

    def _check(self, rate, mass):
        # within 4 binomial standard errors of the prior mass
        assert abs(rate.log_volume - math.log(mass)) <= 4.0 * rate.log_se

    def test_ball_about_the_prior_mean_is_its_chi_square_mass(self):
        # convex, so the star domain about an off-centre anchor inside it is the whole ball
        anchor = 0.4 * self.SIGMA
        rate = prior_hit_rate(lambda x: 0.5 * self._whitened(x), anchor, 0.5 * self.R1, self.SIGMA, 20_000, 1)
        self._check(rate, 0.3)

    def test_a_wall_hides_the_shell_behind_it(self):
        # the cost is below 0.5 inside R1 and in the shell from R2 to R3; every
        # segment from the prior mean to the shell crosses the wall, so only
        # the ball counts, where the draws' own points alone would add the shell
        def walled(x):
            r2 = self._whitened(x)
            return np.where((r2 < self.R1) | ((r2 >= self.R2) & (r2 < self.R3)), 0.0, 1.0)

        rate = prior_hit_rate(walled, np.zeros(self.N), 0.5, self.SIGMA, 20_000, 2)
        self._check(rate, 0.3)
        assert rate.hits / rate.draws < 0.45  # 0.6 with the shell

    def test_mlp_kl_batch_matches_the_cost_handle(self):
        rng = np.random.default_rng(3)
        params, measure = init_params(((3, 5), (5, 4), (4, 3)), "fan_in", rng)
        inputs = rng.standard_normal((20, 3))
        handle, batch = make_kl_cost(params, inputs), mlp_kl_cost_batch(params, inputs)
        points = params.flat + rng.standard_normal((6, params.n)) * measure.sigma
        np.testing.assert_allclose(batch(points), [handle(p) for p in points], rtol=1e-12, atol=1e-15)
        assert abs(batch(params.flat[None])[0]) < 1e-15
