"""Closed-form ellipsoid geometry and statistical identities used as oracles.

Everything here has an independent analytic form, so these functions act as
ground truth for the Monte Carlo estimators: exact radii and volumes for
quadratic neighborhoods, variance identities for quadratic forms on the
sphere and the log terms they drive, the harmonic-mean law for typical
sampled radii on wide spectra, the coordinate variances of linear gradient
flow from a standard Gaussian start, and the log-sum-exp bracket of an
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from starvol.geometry import CostFn, MeasureSpec, NeighborhoodSpec, VolumeEstimate
from starvol.precondition import Preconditioner, _readonly

__all__ = [
    "Ellipsoid",
    "VarianceCheck",
    "ellipsoid_log_volume_exact",
    "ellipsoid_radius",
    "gd_density_loss_comparison",
    "gd_flow_covariance",
    "gd_flow_ensemble_check",
    "harmonic_mean_prediction",
    "log_estimator_variance_prediction",
    "quadratic_form_variance_check",
    "smoothmax_bracket_holds",
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


# -- estimate checks -------------------------------------------------------------


def smoothmax_bracket_holds(estimate: VolumeEstimate, slack: float = 1e-9) -> bool:
    """max term - log k <= aggregate <= max term, the log-sum-exp sandwich."""
    top = estimate.max_log_term
    return (
        top - math.log(estimate.k) - slack
        <= estimate.log_volume
        <= top + slack
    )
