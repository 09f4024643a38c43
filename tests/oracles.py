"""Closed-form ellipsoid geometry and statistical identities used as oracles.

Everything here has an independent analytic form, so these functions act as
ground truth for the Monte Carlo estimators: exact radii and volumes for
quadratic neighborhoods, variance identities for quadratic forms on the
sphere and the log terms they drive, the harmonic-mean law for typical
sampled radii on wide spectra, the coordinate variances of linear gradient
flow from a standard Gaussian start, and the log-sum-exp bracket of an
estimate. One more truth needs no closed form: the prior mass of a trained
network's neighborhood, counted from prior draws (``prior_hit_rate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from starvol.geometry import CostFn, MeasureSpec, NeighborhoodSpec, VolumeEstimate
from starvol.models import MlpParams
from starvol.precondition import Preconditioner, _readonly

__all__ = [
    "Ellipsoid",
    "HitRate",
    "VarianceCheck",
    "ellipsoid_log_volume_exact",
    "ellipsoid_radius",
    "gd_density_loss_comparison",
    "gd_flow_covariance",
    "gd_flow_ensemble_check",
    "harmonic_mean_prediction",
    "log_estimator_variance_prediction",
    "mlp_kl_cost_batch",
    "prior_hit_rate",
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


# -- prior draws ------------------------------------------------------------------

# a batched cost: one value for each row of a (P, n) stack of flat vectors
BatchCost = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HitRate:
    """``hits`` of ``draws`` prior draws counted inside a neighborhood."""

    hits: int
    draws: int

    @property
    def log_volume(self) -> float:
        return math.log(self.hits / self.draws)

    @property
    def log_se(self) -> float:
        """The binomial standard error of ``log_volume``: sqrt((1 - p) / (draws p)), p = hits / draws."""
        p = self.hits / self.draws
        return math.sqrt((1.0 - p) / (self.draws * p))


def prior_hit_rate(
    cost: BatchCost, anchor: np.ndarray, cutoff: float, sigma: np.ndarray, draws: int, seed: int,
    grid: int = 256, batch: int = 4096,
) -> HitRate:
    """The prior mass of the star domain about ``anchor``, counted from ``draws`` draws of N(0, diag sigma^2).

    A draw theta is a member when the cost is below ``cutoff`` at every grid
    point a + (j / grid)(theta - a), j = 1..grid, of the segment [a, theta];
    the anchor (j = 0) is a member of its own neighborhood. Each draw's own
    point (j = grid) is scanned first, and only the draws below the cutoff
    there have their other grid - 1 points scanned. Points are evaluated
    ``batch`` at a time. Membership is decided by this scan alone, never
    by the estimator's radius search; an excursion above the cutoff that
    falls between two grid points, less than |theta - a| / grid wide, is
    missed.
    """
    anchor = np.asarray(anchor, dtype=float)
    theta = np.random.default_rng(seed).standard_normal((draws, anchor.size)) * sigma

    def below(points: np.ndarray) -> np.ndarray:
        return np.concatenate([cost(points[i : i + batch]) < cutoff for i in range(0, len(points), batch)])

    inside = below(theta)
    steps = np.arange(1, grid)[:, None] / grid
    per_batch = max(1, batch // grid)  # segments whose grid points fill about one batch
    candidates = np.flatnonzero(inside)
    for start in range(0, candidates.size, per_batch):
        rows = candidates[start : start + per_batch]
        points = anchor + steps * (theta[rows] - anchor)[:, None, :]  # (rows, grid - 1, n)
        inside[rows] = below(points.reshape(-1, anchor.size)).reshape(rows.size, grid - 1).all(axis=1)
    return HitRate(int(np.count_nonzero(inside)), draws)


def mlp_kl_cost_batch(anchor: MlpParams, inputs: np.ndarray) -> BatchCost:
    """The KL cost of ``models.make_kl_cost`` over a batch: each flat vector's mean
    KL(anchor || candidate) on ``inputs``.

    Written apart from the package's forward pass: each layer is one batched
    product of the activations with the layer's weights, unpacked per flat
    vector (weights row-major, then the bias), tanh between layers, and a
    max-shifted log-softmax, taken class-major so that each reduction runs
    across arrays rather than along a short last axis.
    """
    x = np.asarray(inputs, dtype=float)

    def log_q(points: np.ndarray) -> np.ndarray:
        """(C, P, m) log-probabilities of each input under each flat vector."""
        a, start = np.broadcast_to(x, (len(points), *x.shape)), 0
        for layer, (fan_in, fan_out) in enumerate(anchor.shape):
            stop = start + fan_in * fan_out
            w, b = points[:, start:stop].reshape(-1, fan_in, fan_out), points[:, stop : stop + fan_out]
            a = (np.tanh(a) if layer else a) @ w + b[:, None, :]
            start = stop + fan_out
        z = np.moveaxis(a, -1, 0).copy()
        z -= z.max(axis=0)
        return z - np.log(np.exp(z).sum(axis=0))

    log_p = log_q(anchor.flat[None])
    p = np.exp(log_p)
    return lambda points: (p * (log_p - log_q(points))).sum(axis=0).sum(axis=1) / x.shape[0]
