"""Closed-form ellipsoid geometry and statistical identities used as oracles.

Everything here has an independent analytic form, so these functions act as
ground truth for the Monte Carlo estimators: exact radii and volumes for
quadratic neighborhoods, variance identities for quadratic forms on the
sphere, the harmonic-mean law for typical sampled radii on wide spectra,
gap and tail-bound reports for repeated estimates, and the coordinate
variances of linear gradient flow from a standard Gaussian start. The
``run_*_suite`` functions bundle them into the self-check table behind the
``validate`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CostFn,
    MeasureSpec,
    NeighborhoodSpec,
    SearchOptions,
    VolumeEstimate,
    estimate_local_volume,
)
from .logspace import log_sum_exp
from .precondition import Preconditioner, _readonly

__all__ = [
    "CheckResult",
    "Ellipsoid",
    "JensenGapReport",
    "VarianceCheck",
    "ellipsoid_log_volume_exact",
    "ellipsoid_radius",
    "gd_density_loss_comparison",
    "gd_flow_covariance",
    "gd_flow_ensemble_check",
    "harmonic_mean_prediction",
    "jensen_gap_report",
    "log_estimator_variance_prediction",
    "quadratic_form_variance_check",
    "run_suite",
    "smoothmax_bracket_holds",
    "SUITES",
]


@dataclass(frozen=True)
class Ellipsoid:
    """Axis radii of the set { x : x' A x <= 1 }, optionally rotated.

    A has eigenvalues 1 / radii^2. The matching cost function is the
    quadratic C(x) = (x - anchor)' A (x - anchor) / 2 with cutoff 1/2, so
    the neighborhood is exactly this ellipsoid translated to the anchor.
    """

    radii: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        radii = _readonly(self.radii)
        if radii.ndim != 1 or radii.size == 0 or np.any(radii <= 0):
            raise ValueError("radii must be a vector of positive reals")
        object.__setattr__(self, "radii", radii)
        if self.rotation is not None:
            q = _readonly(self.rotation)
            if q.shape != (radii.size, radii.size):
                raise ValueError("rotation shape does not match radii")
            if not np.allclose(q.T @ q, np.eye(radii.size), atol=1e-9):
                raise ValueError("rotation must be orthogonal")
            object.__setattr__(self, "rotation", q)

    @property
    def dim(self) -> int:
        return self.radii.size

    def eigenvalues(self) -> np.ndarray:
        return 1.0 / (self.radii * self.radii)

    def quad_matrix(self) -> np.ndarray:
        d = np.diag(self.eigenvalues())
        if self.rotation is None:
            return d
        return self.rotation @ d @ self.rotation.T

    def cost(self, anchor: np.ndarray | None = None) -> CostFn:
        lam = self.eigenvalues()
        base = np.zeros(self.dim) if anchor is None else np.asarray(anchor, dtype=float)
        if self.rotation is None:
            # axis-aligned fast path, O(n) per evaluation

            def axis_cost(x: np.ndarray) -> float:
                u = x - base
                return 0.5 * float(np.sum(lam * u * u))

            return axis_cost
        rot_t = self.rotation.T

        def rotated_cost(x: np.ndarray) -> float:
            w = rot_t @ (x - base)
            return 0.5 * float(np.sum(lam * w * w))

        return rotated_cost

    def neighborhood(
        self, anchor: np.ndarray | None = None, measure: MeasureSpec | None = None
    ) -> NeighborhoodSpec:
        base = np.zeros(self.dim) if anchor is None else np.asarray(anchor, dtype=float)
        return NeighborhoodSpec(
            anchor=base,
            cost=self.cost(base),
            cutoff=0.5,
            measure=measure if measure is not None else MeasureSpec.lebesgue(),
        )

    def exact_preconditioner(self) -> Preconditioner:
        """The zero-variance direction shaper A^{-1/2}: the radii along the rotation's columns."""
        return Preconditioner.diagonal(self.radii, "exact", self.rotation).normalize_unit_det()


def ellipsoid_radius(e: Ellipsoid, direction: np.ndarray) -> float:
    """Exact boundary radius along a unit direction: (u' A u)^{-1/2}."""
    u = np.asarray(direction, dtype=float)
    if e.rotation is not None:
        u = e.rotation.T @ u
    q = float(np.sum(e.eigenvalues() * u * u))
    if q <= 0:
        raise ValueError("direction has zero quadratic form")
    return q**-0.5


def ellipsoid_log_volume_exact(e: Ellipsoid) -> float:
    """Log Lebesgue volume: (n/2) log pi - log Gamma(n/2 + 1) + sum log radii."""
    n = e.dim
    return (
        0.5 * n * math.log(math.pi)
        - math.lgamma(0.5 * n + 1.0)
        + float(np.sum(np.log(e.radii)))
    )


# -- statistical identities ----------------------------------------------------


@dataclass(frozen=True)
class VarianceCheck:
    empirical: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.empirical / self.predicted if self.predicted != 0 else math.nan


def quadratic_form_variance_check(
    e: Ellipsoid, k: int, rng: np.random.Generator
) -> VarianceCheck:
    """Variance of u' A u over the unit sphere vs the 2 Var(lambda) / (n + 2) law.

    The law is rotation invariant, so draws are taken in the eigenbasis.
    """
    if k < 2:
        raise ValueError("need at least 2 draws")
    lam = e.eigenvalues()
    u = rng.standard_normal((k, e.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q = np.sum(lam * u * u, axis=1)
    predicted = 2.0 / (e.dim + 2.0) * float(np.var(lam))
    return VarianceCheck(empirical=float(np.var(q)), predicted=predicted)


def log_estimator_variance_prediction(e: Ellipsoid) -> float:
    """Small-dispersion variance of one naive log contribution, -(n/2) log u'Au.

    Propagating the quadratic-form variance through the log by the delta
    method gives (n/2)^2 * Var(q) / E[q]^2 with E[q] the mean eigenvalue,
    i.e. n^2 / (2 (n + 2)) * Var(lambda) / E[lambda]^2. Monte Carlo at
    n = 256 lands within half a percent of this and a factor n away from
    any cubed-dimension variant.
    """
    lam = e.eigenvalues()
    n = e.dim
    return n**2 / (2.0 * (n + 2.0)) * float(np.var(lam)) / float(np.mean(lam)) ** 2


def harmonic_mean_prediction(e: Ellipsoid) -> float:
    """Typical sampled log-radius: log of sqrt(n / sum(1 / R_i^2)).

    A uniform direction spreads its weight over all axes, so the sampled
    radius concentrates on the harmonic-type mean dominated by the stiffest
    axes, not on the volume-relevant geometric mean.
    """
    return 0.5 * math.log(e.dim / float(np.sum(e.radii**-2.0)))


@dataclass(frozen=True)
class JensenGapReport:
    """How far repeated log estimates sit below the truth, and why.

    For a lognormal-like estimator the mean log estimate undershoots
    log E[estimate] by Var(log estimate) / 2; ``lognormal_half_variance``
    reports that predicted gap next to the observed ``mean_log_gap``.
    """

    mean_log_gap: float
    lognormal_half_variance: float
    stderr: float
    runs: int


def jensen_gap_report(estimates: np.ndarray, true_log_volume: float) -> JensenGapReport:
    arr = np.asarray(estimates, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 repeated estimates")
    gap = true_log_volume - float(np.mean(arr))
    var = float(np.var(arr, ddof=1))
    return JensenGapReport(
        mean_log_gap=gap,
        lognormal_half_variance=0.5 * var,
        stderr=math.sqrt(var / arr.size),
        runs=arr.size,
    )


def gd_flow_covariance(h_diag: np.ndarray, t: float) -> np.ndarray:
    """Coordinate variances exp(-2 h_i t) of linearized gradient flow.

    Flow dtheta/dt = -H theta from a standard Gaussian start contracts each
    eigencoordinate by exp(-h_i t), so variances shrink as exp(-2 h_i t).
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    h = np.asarray(h_diag, dtype=float)
    return np.exp(-2.0 * h * t)


def gd_flow_ensemble_check(
    h_diag: np.ndarray, t: float, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical coordinate variances of simulated flow vs the closed form."""
    h = np.asarray(h_diag, dtype=float)
    theta0 = rng.standard_normal((k, h.size))
    theta_t = theta0 * np.exp(-h * t)
    return np.var(theta_t, axis=0), gd_flow_covariance(h, t)


@dataclass(frozen=True)
class DensityLossComparison:
    density_coeffs: np.ndarray  # quadratic coefficients of -2 log density
    loss_coeffs: np.ndarray  # quadratic coefficients of the loss
    ratio_spread: float  # max/min of the coefficient ratios, 1.0 iff proportional

    @property
    def proportional(self) -> bool:
        return abs(self.ratio_spread - 1.0) < 1e-12


def gd_density_loss_comparison(h_diag: np.ndarray, t: float) -> DensityLossComparison:
    """Exponent of the flowed density vs the loss: proportional only if h is uniform.

    After flowing for time t the log density is a quadratic with coefficients
    exp(2 h_i t) (per unit variance), while the loss quadratic has
    coefficients h_i. Unless all h_i are equal, the ratio exp(2 h_i t) / h_i
    varies across coordinates, so density is not a function of loss.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    h = np.asarray(h_diag, dtype=float)
    if np.any(h <= 0):
        raise ValueError("curvatures must be positive")
    density = np.exp(2.0 * h * t)
    ratios = density / h
    return DensityLossComparison(
        density_coeffs=density,
        loss_coeffs=h.copy(),
        ratio_spread=float(np.max(ratios) / np.min(ratios)),
    )


# -- self-check suites ----------------------------------------------------------


def smoothmax_bracket_holds(estimate: VolumeEstimate, slack: float = 1e-9) -> bool:
    """max term - log k <= aggregate <= max term, the log-sum-exp sandwich."""
    top = estimate.max_log_term
    return (
        top - math.log(estimate.k) - slack
        <= estimate.log_volume
        <= top + slack
    )


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    predicted: float
    empirical: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(suite, name, predicted, empirical, tolerance, passed=None, note="") -> CheckResult:
    if passed is None:
        passed = abs(empirical - predicted) <= tolerance
    return CheckResult(suite, name, float(predicted), float(empirical), float(tolerance), bool(passed), note)


def run_ellipsoid_suite(seed: int = 0) -> list[CheckResult]:
    """Exact-geometry checks: radii, zero-variance recovery, determinant."""
    out = []
    rng = np.random.default_rng(seed)

    # boundary search agrees with the closed-form radius, rotated case included
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    e = Ellipsoid(np.geomspace(0.1, 10.0, n), rotation=q)
    from .geometry import find_radius

    spec = e.neighborhood()
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        found, truncated, _ = find_radius(spec, u, SearchOptions(rel_tol=1e-10))
        exact = ellipsoid_radius(e, u)
        worst = max(worst, abs(found / exact - 1.0))
        assert not truncated
    out.append(_check("ellipsoid", "radius_search_vs_closed_form_rel", 0.0, worst, 1e-8))

    # exact preconditioner turns every sample into the exact log volume
    n = 50
    e = Ellipsoid(np.geomspace(1e-2, 1e2, n))
    est = estimate_local_volume(
        e.neighborhood(), e.exact_preconditioner(), k=10, opts=SearchOptions(rel_tol=1e-10), seed=seed
    )
    exact = ellipsoid_log_volume_exact(e)
    spread = max(abs(s.log_term - exact) for s in est.samples)
    out.append(_check("ellipsoid", "zero_variance_recovery_max_err", 0.0, spread, 1e-6))
    out.append(
        _check(
            "ellipsoid",
            "smoothmax_bracket",
            1.0,
            1.0 if smoothmax_bracket_holds(est) else 0.0,
            0.0,
            passed=smoothmax_bracket_holds(est),
        )
    )

    # unit-determinant normalization measured through the log determinant
    p = e.exact_preconditioner()
    out.append(_check("ellipsoid", "preconditioner_log_det", 0.0, abs(p.log_det()), 1e-9))
    return out


def run_variance_suite(seed: int = 0) -> list[CheckResult]:
    """Quadratic-form variance identity and the harmonic-mean radius law."""
    out = []
    rng = np.random.default_rng(seed)

    n = 128
    for tag, radii in (
        ("uniform_spread", np.geomspace(0.5, 2.0, n)),
        ("one_outlier", np.concatenate([np.ones(n - 1), [1.0 / 3.0]])),
    ):
        e = Ellipsoid(radii)
        chk = quadratic_form_variance_check(e, k=200_000, rng=rng)
        out.append(
            _check(
                "variance",
                f"quadratic_form_var_{tag}",
                chk.predicted,
                chk.empirical,
                0.1 * chk.predicted,
            )
        )

    # propagated log-term variance at small dispersion
    n = 256
    e = Ellipsoid(np.geomspace(0.95, 1.05, n))
    u = rng.standard_normal((100_000, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q = np.sum(e.eigenvalues() * u * u, axis=1)
    empirical = float(np.var(-0.5 * n * np.log(q)))
    predicted = log_estimator_variance_prediction(e)
    out.append(
        _check("variance", "log_term_variance_small_dispersion", predicted, empirical, 0.05 * predicted)
    )

    # harmonic-mean law for the typical sampled radius on a wide spectrum
    n = 2000
    radii = 10.0 ** rng.uniform(-2.0, 2.0, n)
    e = Ellipsoid(radii)
    u = rng.standard_normal((2000, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sampled = -0.5 * np.log(np.sum(e.eigenvalues() * u * u, axis=1))
    predicted = harmonic_mean_prediction(e)
    median = float(np.median(sampled))
    out.append(
        _check("variance", "harmonic_mean_median_log_radius", predicted, median, 0.02 * abs(predicted))
    )
    return out


def run_bounds_suite(seed: int = 0) -> list[CheckResult]:
    """One-sided tail bound, smooth-max sandwich, and the Jensen gap."""
    out = []
    rng = np.random.default_rng(seed)

    # the estimator is an average of nonneg terms with the right mean, so
    # overestimating by a factor 10^m has probability at most 10^-m (m = 1 here)
    n = 64
    e = Ellipsoid(np.geomspace(0.1, 10.0, n))
    truth = ellipsoid_log_volume_exact(e)
    spec = e.neighborhood()
    runs = 400
    exceed = 0
    bracket_ok = True
    for i in range(runs):
        est = estimate_local_volume(spec, Preconditioner.identity(n), k=4, seed=rng.integers(2**63))
        bracket_ok = bracket_ok and smoothmax_bracket_holds(est)
        if est.log_volume > truth + math.log(10.0):
            exceed += 1
    out.append(
        _check(
            "bounds",
            "markov_overshoot_fraction",
            0.0,
            exceed / runs,
            0.1,
            note="theory allows up to 0.1",
        )
    )
    out.append(_check("bounds", "smoothmax_bracket_all_runs", 1.0, 1.0 if bracket_ok else 0.0, 0.0, passed=bracket_ok))

    # Jensen gap on a synthetic lognormal estimator with known truth
    sigma_log = 1.5
    draws = rng.normal(-0.5 * sigma_log**2, sigma_log, size=20_000)  # log of unbiased lognormal
    report = jensen_gap_report(draws, true_log_volume=0.0)
    out.append(
        _check(
            "bounds",
            "jensen_gap_vs_half_variance",
            report.lognormal_half_variance,
            report.mean_log_gap,
            4.0 * report.stderr,
        )
    )
    return out


def run_gdflow_suite(seed: int = 0) -> list[CheckResult]:
    """Gradient-flow covariance law and the density/loss non-proportionality."""
    out = []
    rng = np.random.default_rng(seed)
    h = np.array([2.0, 1.0, 0.5, 0.25])
    t = 0.7
    empirical, predicted = gd_flow_ensemble_check(h, t, k=100_000, rng=rng)
    worst = float(np.max(np.abs(empirical / predicted - 1.0)))
    out.append(_check("gdflow", "ensemble_covariance_max_rel_err", 0.0, worst, 0.02))

    cmp = gd_density_loss_comparison(h, t)
    out.append(
        _check(
            "gdflow",
            "density_not_proportional_to_loss",
            1.0,
            cmp.ratio_spread,
            0.0,
            passed=not cmp.proportional,
            note="ratio spread must exceed 1",
        )
    )

    uniform = gd_density_loss_comparison(np.full(4, 1.3), t)
    out.append(
        _check(
            "gdflow",
            "uniform_curvature_is_proportional",
            1.0,
            uniform.ratio_spread,
            1e-12,
            passed=uniform.proportional,
        )
    )
    return out


SUITES = {
    "ellipsoid": run_ellipsoid_suite,
    "variance": run_variance_suite,
    "bounds": run_bounds_suite,
    "gdflow": run_gdflow_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
