"""Star-domain boundary search and Monte Carlo local-volume estimators.

A neighborhood is the largest star-shaped region around an anchor point
inside which a cost function stays below a cutoff. Its size under a
Lebesgue or diagonal-Gaussian reference measure is the anchor's local
volume. The estimator samples directions (optionally importance-shaped by
a unit-determinant preconditioner), finds the boundary radius along each
ray by doubling and bisection, converts each ray into a log contribution,
and aggregates with log-sum-exp. Everything is carried in natural-log
space because the volumes involved underflow any linear representation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, erfcx

from .logspace import (
    log_erf_diff,
    log_gamma_inc_lower,
    log_sphere_area,
    log_sum_exp,
)
from .precondition import Preconditioner, PreconditionerError

__all__ = [
    "CostFn",
    "CostEvaluationError",
    "EstimationError",
    "MeasureSpec",
    "NeighborhoodSpec",
    "RadialSample",
    "RadiusSearchError",
    "SearchOptions",
    "VolumeEstimate",
    "estimate_local_volume",
    "find_radius",
    "gaussian_log_term",
    "gaussian_radial_log_integral",
    "lebesgue_log_term",
    "sample_direction",
]

CostFn = Callable[[np.ndarray], float]

# radius cap defaults: hard ceiling for Lebesgue, measure-adapted for Gaussian
LEBESGUE_R_MAX = 1e6
GAUSSIAN_R_MAX_SIGMAS = 20.0
# the forward moment recurrence is tried up to here, guarded by an a-priori
# roundoff-amplification budget; past the cap (or on a budget rejection) the
# second-order expansion of the exponent takes over, whose error shrinks
# with dimension and is already below 1e-4 relative at the crossover
EXACT_RADIAL_MAX_DIM = 128


class RadiusSearchError(RuntimeError):
    """Bracketing or bisection failed to converge; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class CostEvaluationError(RuntimeError):
    """The cost function returned a non-finite value."""


class EstimationError(RuntimeError):
    """No estimate could be formed at all."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MeasureSpec:
    """Reference measure: Lebesgue, or a zero-mean diagonal Gaussian."""

    kind: str  # "lebesgue" | "gaussian"
    sigma: np.ndarray | None = None  # (n,) positive stds, kind == "gaussian"

    @classmethod
    def lebesgue(cls) -> "MeasureSpec":
        return cls("lebesgue")

    @classmethod
    def gaussian(cls, sigma: np.ndarray) -> "MeasureSpec":
        arr = np.asarray(sigma, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("gaussian measure requires a vector of per-coordinate stds")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError("gaussian measure requires positive finite sigmas")
        return cls("gaussian", _readonly(arr))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Anchor point, cost handle, cutoff, and reference measure.

    The cost handle must accept a full parameter vector and return a scalar;
    it must be safe to call concurrently (pure numpy closures are). The
    anchor itself is required to lie inside its own neighborhood, which the
    estimator checks once before sampling.
    """

    anchor: np.ndarray
    cost: CostFn
    cutoff: float
    measure: MeasureSpec

    def __post_init__(self):
        anchor = _readonly(np.atleast_1d(np.asarray(self.anchor, dtype=float)))
        object.__setattr__(self, "anchor", anchor)
        if not (self.cutoff > 0 and math.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if self.measure.kind == "gaussian" and self.measure.sigma.size != anchor.size:
            raise ValueError("measure sigma length does not match anchor dimension")

    @property
    def dim(self) -> int:
        return self.anchor.size


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the radius search and the sampling loop."""

    r_init: float = 1.0
    r_max: float | None = None  # None = measure-dependent default
    rel_tol: float = 1e-4
    max_iters: int = 500
    threads: int = 1


@dataclass(frozen=True)
class RadialSample:
    """One ray: direction, importance norm, boundary radius, log contribution.

    In an estimate, ``direction`` is a read-only row view of the block of all
    k directions.
    """

    direction: np.ndarray
    log_importance_norm: float
    radius: float
    truncated: bool
    log_term: float
    failed: bool = False


@dataclass(frozen=True)
class VolumeEstimate:
    """Aggregated local-volume estimate plus its per-sample evidence."""

    log_volume: float
    samples: tuple[RadialSample, ...]
    k: int
    n: int
    preconditioner_id: str
    measure: MeasureSpec
    cutoff: float
    truncated_count: int
    failed_count: int

    @property
    def log10_volume(self) -> float:
        return self.log_volume / math.log(10.0)

    @property
    def max_log_term(self) -> float:
        return max(s.log_term for s in self.samples) if self.samples else math.nan

    @property
    def lower_bound_only(self) -> bool:
        # a truncated Lebesgue ray hides unbounded mass beyond the cap
        return self.measure.kind == "lebesgue" and self.truncated_count > 0


def find_radius(
    spec: NeighborhoodSpec,
    direction: np.ndarray,
    opts: SearchOptions | None = None,
) -> tuple[float, bool]:
    """Find the boundary radius along a ray from the anchor.

    Doubles outward from ``r_init`` until the cost crosses the cutoff, then
    bisects the bracket until its width is below ``rel_tol`` times the lower
    end. Returns ``(radius, truncated)``; the cost at the returned radius is
    strictly below the cutoff. If doubling reaches ``r_max`` without a
    crossing the radius is capped there and flagged truncated. Assumes the
    anchor itself satisfies the cutoff.
    """
    opts = opts or SearchOptions()
    if opts.r_init <= 0:
        raise ValueError(f"r_init must be positive, got {opts.r_init}")
    r_max = opts.r_max if opts.r_max is not None else LEBESGUE_R_MAX
    anchor = spec.anchor
    cutoff = spec.cutoff
    evals = 0

    def cost_at(r: float) -> float:
        nonlocal evals
        evals += 1
        value = float(spec.cost(anchor + r * direction))
        if not math.isfinite(value):
            raise CostEvaluationError(f"cost evaluation failed: non-finite value at radius {r!r}")
        return value

    lo = 0.0
    hi = None
    r = min(opts.r_init, r_max)
    while evals < opts.max_iters:
        if cost_at(r) >= cutoff:
            hi = r
            break
        lo = r
        if r >= r_max:
            return r_max, True
        r = min(2.0 * r, r_max)
    if hi is None:
        raise RadiusSearchError("bracketing exhausted max_iters", bracket=(lo, r))

    while not (lo > 0.0 and hi - lo <= opts.rel_tol * lo):
        if evals >= opts.max_iters:
            raise RadiusSearchError(
                f"bisection did not converge to rel_tol={opts.rel_tol}", bracket=(lo, hi)
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        if cost_at(mid) < cutoff:
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        raise RadiusSearchError("no interior point found along ray", bracket=(lo, hi))
    return lo, False


def _sample_directions(
    precond: Preconditioner, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, list[float]]:
    """Draw one importance-shaped unit direction per random stream.

    Row i is a uniform sphere point (a normalized Gaussian draw from
    ``rngs[i]``) mapped through the preconditioner and renormalized; its
    entry in the returned list is the log of its pre-normalization length.
    All rows go through one ``apply`` call, so a dense map costs one matrix
    product; it maps the block in place. The block is returned read-only.
    """
    block = np.empty((len(rngs), precond.dim))
    for row, rng in zip(block, rngs):
        u = rng.standard_normal(precond.dim)
        norm_u = float(np.linalg.norm(u))
        while norm_u == 0.0:  # probability zero in practice, loop for safety
            u = rng.standard_normal(precond.dim)
            norm_u = float(np.linalg.norm(u))
        np.divide(u, norm_u, out=row)
    if precond.kind == "identity":
        block.setflags(write=False)
        return block, [0.0] * len(rngs)
    precond.apply(block, out=block)
    norms = [float(np.linalg.norm(v)) for v in block]
    if not all(0.0 < x < math.inf for x in norms):
        raise PreconditionerError("preconditioner produced a zero or non-finite direction")
    block /= np.array(norms)[:, None]
    block.setflags(write=False)
    return block, [math.log(x) for x in norms]


def sample_direction(
    precond: Preconditioner, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Draw one importance-shaped unit direction.

    A uniform sphere point u (normalized Gaussian draw) is mapped through the
    preconditioner; the result is renormalized and the log of its
    pre-normalization length is returned as the importance correction. The
    identity map returns log-norm 0.0 exactly. The direction is read-only.
    """
    block, log_norms = _sample_directions(precond, [rng])
    return block[0], log_norms[0]


def lebesgue_log_term(sample: RadialSample, n: int) -> float:
    """Log of one ray's Lebesgue cone contribution.

    log |S^{n-1}| - log n + n log r - n log |v|, the exact volume of the
    cone slice the ray represents, importance-corrected by the draw's
    pre-normalization length.
    """
    if not sample.radius > 0:
        raise ValueError(f"radius must be positive, got {sample.radius}")
    return (
        log_sphere_area(n)
        - math.log(n)
        + n * math.log(sample.radius)
        - n * sample.log_importance_norm
    )


def _scaled_exp_log_integral(btil: float, reff: float) -> tuple[float, float]:
    """Base case of the moment recurrence, in peak-relative units.

    Returns (shift, log_k0) where shift is the max of -p^2/2 - btil*p over
    [0, reff] and log_k0 = log int_0^reff e^{-p^2/2 - btil p} dp - shift.
    Each sign case is arranged around erfcx so no large exponent is ever
    formed and no two nearly-equal logs are subtracted.
    """
    sq2 = math.sqrt(2.0)
    alpha = btil / sq2
    beta = (reff + btil) / sq2
    half_log = 0.5 * math.log(math.pi / 2.0)
    if btil >= 0.0:
        # exponential peaks at the left edge
        shift = 0.0
        edge = -0.5 * reff * reff - btil * reff
        diff = float(erfcx(alpha)) - math.exp(edge) * float(erfcx(beta))
        return shift, half_log + math.log(diff)
    if -btil >= reff:
        # peak at or beyond the right edge
        shift = -0.5 * reff * reff - btil * reff
        gap = 0.5 * reff * reff + btil * reff
        diff = float(erfcx(-beta)) - math.exp(gap) * float(erfcx(-alpha))
        return shift, half_log + math.log(diff)
    # interior peak: erf arguments straddle zero, plain difference is safe
    shift = 0.5 * btil * btil
    diff = float(erf(beta)) - float(erf(alpha))
    return shift, half_log + math.log(diff)


def _radial_log_integral_exact(a: float, b: float, radius: float, n: int) -> float | None:
    """Exact log of int_0^radius r^{n-1} e^{-(a r^2 + 2 b r)/2} dr, small n.

    Rescales to unit quadratic coefficient, then runs the integration-by-
    parts recurrence J_m = (m-1) J_{m-2} - b J_{m-1} - boundary upward from
    the erf base case. All J are positive; running values are renormalized
    to dodge overflow and the domain is capped far past the last stationary
    point, where the integrand has dropped by e^{-800}. Returns None if
    cancellation ever produces a nonpositive value, in which case the
    caller falls back to the expansion path.
    """
    sqrt_a = math.sqrt(a)
    btil = b / sqrt_a
    rtil = radius * sqrt_a
    disc = btil * btil + 4.0 * (n - 1)
    rstar = (-btil + math.sqrt(disc)) / 2.0
    reff = min(rtil, rstar + 40.0)

    # Forward roundoff amplification per step is the ratio of the summed
    # operands to the result. The order-m integrand mass sits near
    # g_m = min(stationary point of order m, reff), so the ratio is about
    # (m-1)/(g_m g_{m-1}) + b/g_m for the subtractive b > 0 case, plus a
    # boundary-cancellation term when reff is left of the peak. Reject the
    # recurrence once the compounded budget implies worse than ~1e-9.
    amp_log = 0.0
    g_prev = 0.0
    for m in range(1, n):
        if btil > 0.0:
            peak_m = 2.0 * m / (btil + math.sqrt(btil * btil + 4.0 * m))
        else:
            peak_m = (-btil + math.sqrt(btil * btil + 4.0 * m)) / 2.0
        g_m = min(peak_m, reff)
        step = max(btil, 0.0) / g_m
        if m >= 2:
            step += (m - 1) / (g_m * g_prev)
            step += max(0.0, (m - 1) / reff - btil - reff) / reff
        if step > 1.0:
            amp_log += math.log(step)
        g_prev = g_m
    if amp_log > math.log(1e7):
        return None

    shift, log_k0 = _scaled_exp_log_integral(btil, reff)
    k_prev2 = math.exp(log_k0)
    edge_log = -0.5 * reff * reff - btil * reff - shift
    tail = math.exp(edge_log) if edge_log > -745.0 else 0.0
    base_mass = math.exp(-shift) if shift < 745.0 else 0.0
    k_prev1 = -btil * k_prev2 - (tail - base_mass)
    if not (k_prev1 > 0.0 and math.isfinite(k_prev1)):
        return None

    offset = 0.0
    boundary = tail * reff
    for m in range(2, n):
        k_m = (m - 1) * k_prev2 - btil * k_prev1 - boundary
        if not (k_m > 0.0 and math.isfinite(k_m)):
            return None
        k_prev2, k_prev1 = k_prev1, k_m
        boundary *= reff
        high = max(k_prev2, k_prev1)
        if high > 1e250 or (high < 1e-250 and high > 0.0):
            scale = 1.0 / high
            k_prev2 *= scale
            k_prev1 *= scale
            boundary *= scale
            offset -= math.log(scale)

    return -0.5 * n * math.log(a) + shift + offset + math.log(k_prev1)


def _radial_log_integral_backward(a: float, b: float, radius: float, n: int) -> float | None:
    """Exact log of the radial integral when the mass is pinned to the edge.

    With the domain ending left of the integrand's stationary point the
    upward recurrence cancels catastrophically, but the same relation read
    downward, I_{p-1} = (I_{p+1} + b I_p + R^p e^{phi(R)}) / p, contracts
    errors instead of amplifying them. Seeding two orders far above n with
    zeros costs nothing: the boundary forcing regenerates the true solution
    while the seed's contribution decays by the modeled contraction factor
    per step. Returns None when the contraction model cannot certify the
    seed washout (the domain reaches the stationary point) or when b < 0
    cancellation would exceed the roundoff budget.
    """
    sqrt_a = math.sqrt(a)
    btil = b / sqrt_a
    rtil = radius * sqrt_a
    disc = btil * btil + 4.0 * (n - 1)
    rstar = (-btil + math.sqrt(disc)) / 2.0
    reff = min(rtil, rstar + 40.0)
    if reff >= rstar:
        return None

    # certify the zero seed: accumulate per-order contraction w_p until the
    # product is far below roundoff, giving the seed order M. The running
    # product may rise before it falls; its peak bounds how much any injected
    # roundoff is amplified on the way down, and for b < 0 the operand ratio
    # bounds the extra cancellation per step.
    log_w_sum = 0.0
    peak_amp = 0.0
    op_log_max = 0.0
    seed_order = None
    p = n
    while p <= n + 4096:
        if btil > 0.0:
            peak_p = 2.0 * p / (btil + math.sqrt(btil * btil + 4.0 * p))
        else:
            peak_p = (-btil + math.sqrt(btil * btil + 4.0 * p)) / 2.0
        g = min(peak_p, reff)
        w = (g * g + abs(btil) * g) / p
        log_w_sum += math.log(w)
        if log_w_sum > peak_amp:
            peak_amp = log_w_sum
        if btil < 0.0:
            slope = p / reff - reff - btil
            op = (g * g - btil * g + g * slope) / p
            if op > 1.0:
                op_log_max = max(op_log_max, math.log(op))
        if log_w_sum < -45.0:
            seed_order = p
            break
        p += 1
    if seed_order is None or peak_amp + op_log_max > math.log(1e7):
        return None

    if btil >= 0.0:
        shift = 0.0
    elif -btil <= reff:
        shift = 0.5 * btil * btil
    else:
        shift = -0.5 * reff * reff - btil * reff
    log_edge = -0.5 * reff * reff - btil * reff - shift
    log_r = math.log(reff)
    # scale so the boundary forcing enters at unit magnitude at the seed
    offset = log_edge + seed_order * log_r
    b_edge = 1.0
    i_hi = 0.0  # I_{p+1}
    i_lo = 0.0  # I_p
    for p in range(seed_order, n - 1, -1):
        i_new = (i_hi + btil * i_lo + b_edge) / p
        if not (i_new > 0.0 and math.isfinite(i_new)):
            return None
        i_hi, i_lo = i_lo, i_new
        b_edge /= reff
        high = max(i_hi, i_lo, b_edge)
        if high > 1e250 or high < 1e-250:
            scale = 1.0 / high
            i_hi *= scale
            i_lo *= scale
            b_edge *= scale
            offset -= math.log(scale)

    return -0.5 * n * math.log(a) + shift + offset + math.log(i_lo)


def gaussian_radial_log_integral(
    anchor: np.ndarray,
    direction: np.ndarray,
    radius: float,
    sigma: np.ndarray,
    n: int,
) -> float:
    """Log of the Gaussian mass integral along one ray.

    Computes log of int_0^radius rho(anchor + r * direction) r^{n-1} dr for
    the zero-mean diagonal Gaussian density rho with stds sigma. The
    log-integrand is h(r) = const - (a r^2 + 2 b r) / 2 + (n - 1) log r with
    a = sum(d_i^2 / s_i^2) and b = sum(anchor_i d_i / s_i^2). Exact routes:
    n = 1 completes the square to an erf difference, b = 0 is a lower
    incomplete gamma, n <= EXACT_RADIAL_MAX_DIM runs the moment recurrence
    upward, and rays cut off left of the integrand's peak run it downward
    at any dimension. Whatever remains is handled by expanding h to second
    order around its stationary point r* = (-b + sqrt(b^2 + 4a(n-1))) / (2a)
    and evaluating the resulting truncated Gaussian in log space; the
    expansion error shrinks with dimension and the exact routes cover the
    regimes where it would not.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    sig2 = sigma * sigma
    a = float(np.sum(direction * direction / sig2))
    if not (a > 0 and math.isfinite(a)):
        raise ValueError("degenerate direction for gaussian integral")
    b = float(np.sum(anchor * direction / sig2))
    c0 = float(np.sum(anchor * anchor / sig2))
    base = -0.5 * float(np.sum(np.log(2.0 * math.pi * sig2))) - 0.5 * c0

    if n == 1:
        # integrand is exactly Gaussian in r: complete the square
        center = -b / a
        s = a ** -0.5
        sq2 = math.sqrt(2.0)
        return (
            base
            + 0.5 * b * b / a
            + 0.5 * math.log(math.pi / 2.0)
            + math.log(s)
            + log_erf_diff((0.0 - center) / (s * sq2), (radius - center) / (s * sq2))
        )

    if b == 0.0:
        # centered ray: int_0^R e^{-a r^2 / 2} r^{n-1} dr has a closed form,
        # (1/2) (2/a)^{n/2} gamma_lower(n/2, a R^2 / 2); keep it exact so
        # whole-space masses normalize to machine precision
        half = 0.5 * n
        x = math.inf if math.isinf(radius) else 0.5 * a * radius * radius
        log_gamma = log_gamma_inc_lower(half, x)
        return base - math.log(2.0) + half * (math.log(2.0) - math.log(a)) + log_gamma

    if n <= EXACT_RADIAL_MAX_DIM:
        exact = _radial_log_integral_exact(a, b, min(radius, LEBESGUE_R_MAX), n)
        if exact is not None:
            return base + exact
    # edge-pinned rays are exact at any dimension via the downward recurrence
    exact = _radial_log_integral_backward(a, b, min(radius, LEBESGUE_R_MAX), n)
    if exact is not None:
        return base + exact

    disc = b * b + 4.0 * a * (n - 1)
    rstar = (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)
    g_star = -0.5 * (a * rstar * rstar + 2.0 * b * rstar) + (n - 1) * math.log(rstar)
    curvature = a + (n - 1) / (rstar * rstar)
    s = curvature ** -0.5
    sq2 = math.sqrt(2.0)
    z0 = (0.0 - rstar) / (s * sq2)
    z1 = (radius - rstar) / (s * sq2)
    return base + g_star + math.log(s) + 0.5 * math.log(math.pi / 2.0) + log_erf_diff(z0, z1)


def gaussian_log_term(sample: RadialSample, log_integral: float, n: int) -> float:
    """Log of one ray's Gaussian mass contribution (importance-corrected)."""
    return log_sphere_area(n) + log_integral - n * sample.log_importance_norm


def _resolve_r_max(measure: MeasureSpec, n: int, opts: SearchOptions) -> float:
    if opts.r_max is not None:
        return opts.r_max
    if measure.kind == "gaussian":
        return GAUSSIAN_R_MAX_SIGMAS * math.sqrt(n) * float(np.max(measure.sigma))
    return LEBESGUE_R_MAX


def estimate_local_volume(
    spec: NeighborhoodSpec,
    precond: Preconditioner,
    k: int,
    opts: SearchOptions | None = None,
    seed: int | np.random.SeedSequence = 0,
) -> VolumeEstimate:
    """Estimate the local volume of the anchor's neighborhood from k rays.

    Each sample gets its own random stream derived from the master seed and
    the sample index, so results are identical for any thread count; set
    ``opts.threads`` to evaluate rays in parallel. Rays whose radius search
    fails contribute exact zeros (log term -inf) but still count in k,
    preserving the estimator's one-sided Markov guarantee. Truncated rays
    contribute their capped radius; under Lebesgue measure that makes the
    estimate a lower bound, which the result flags.
    """
    opts = opts or SearchOptions()
    n = spec.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if precond.dim != n:
        raise ValueError(f"preconditioner dimension {precond.dim} != anchor dimension {n}")
    anchor_cost = float(spec.cost(spec.anchor))
    if not math.isfinite(anchor_cost):
        raise CostEvaluationError("cost evaluation failed at the anchor")
    if anchor_cost >= spec.cutoff:
        raise EstimationError(
            f"anchor cost {anchor_cost!r} is not below the cutoff {spec.cutoff!r}"
        )
    search_opts = replace(opts, r_max=_resolve_r_max(spec.measure, n, opts))
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    directions, log_norms = _sample_directions(
        precond, [np.random.default_rng(child) for child in master.spawn(k)]
    )

    def draw_one(i: int) -> RadialSample:
        direction = directions[i]
        log_norm = log_norms[i]
        try:
            radius, truncated = find_radius(spec, direction, search_opts)
        except (RadiusSearchError, CostEvaluationError):
            return RadialSample(
                direction=direction,
                log_importance_norm=log_norm,
                radius=math.nan,
                truncated=False,
                log_term=float("-inf"),
                failed=True,
            )
        if spec.measure.kind == "lebesgue":
            partial = RadialSample(direction, log_norm, radius, truncated, 0.0)
            term = lebesgue_log_term(partial, n)
        else:
            log_integral = gaussian_radial_log_integral(
                spec.anchor, direction, radius, spec.measure.sigma, n
            )
            partial = RadialSample(direction, log_norm, radius, truncated, 0.0)
            term = gaussian_log_term(partial, log_integral, n)
        return replace(partial, log_term=term)

    if opts.threads > 1:
        with ThreadPoolExecutor(max_workers=opts.threads) as pool:
            samples = list(pool.map(draw_one, range(k)))
    else:
        samples = [draw_one(i) for i in range(k)]

    if all(s.failed for s in samples):
        raise EstimationError("no valid samples")
    log_volume = log_sum_exp([s.log_term for s in samples]) - math.log(k)
    return VolumeEstimate(
        log_volume=log_volume,
        samples=tuple(samples),
        k=k,
        n=n,
        preconditioner_id=precond.describe(),
        measure=spec.measure,
        cutoff=spec.cutoff,
        truncated_count=sum(1 for s in samples if s.truncated),
        failed_count=sum(1 for s in samples if s.failed),
    )
