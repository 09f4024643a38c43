"""Star-domain boundary search and Monte Carlo local-volume estimators.

A neighborhood is the largest star-shaped region around an anchor point
inside which a cost function stays below a cutoff. Its size under a
Lebesgue or diagonal-Gaussian reference measure is the anchor's local
volume. An estimate runs in four stages over its block of k rays, all on
the calling thread at an OpenBLAS count of 1, so its bits do not depend on
the BLAS thread count, even for a plain cost:

- sample: one block of directions, one random stream per ray, optionally
  importance-shaped by a unit-determinant preconditioner. The k streams are
  built in one vectorized pass, each equal bit for bit to the matching child
  of ``SeedSequence(seed).spawn(k)``, and each draws straight into its row
  of the block. Each uniform draw is taken in the map's own orthonormal
  axes, where it is just as uniform, so a dense map costs one product with
  its n x n basis per block;
- search: the boundary radius along each ray, started at the median radius
  of the rays before it, by an extrapolated bracket and safeguarded inverse
  quadratic interpolation under one aiming rule, each returned radius
  decided in float64; the only per-ray stage;
- integrate: under a Gaussian measure, each good ray's one-dimensional
  radial integral, all in one vectorized call. One route serves every ray:
  bracket the log-concave integrand where it is within 60 nats of its
  maximum, by closed-form outer bounds and Newton steps from outside on both
  edges of every ray at once, and apply one Gauss-Legendre rule;
- aggregate: every ray's log contribution in one pass, then log-sum-exp.

Each estimate records the process CPU and wall seconds of each stage.

Everything is carried in natural-log space because the volumes involved
underflow any linear representation.
"""

from __future__ import annotations

import math
import operator
import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random.bit_generator import ISeedSequence

from .blas import one_blas_thread
from .logspace import log_sphere_area, log_sum_exp
from .precondition import Preconditioner, PreconditionerError, _readonly

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
    "gaussian_radial_log_integral",
    "sample_directions",
]

# A cost handle maps a full parameter vector to a scalar. It may also carry
# a ray form as the function attribute ``along``: ``cost.along(origin)``
# returns ``line``, and ``line(direction)`` returns ``r -> cost(origin + r *
# direction)``, equal up to rounding but cheaper per evaluation (the MLP
# costs compute their first layer once per ray). ``functools.wraps`` copies
# the attribute, so a wrapped handle keeps the same path. A ray may in turn
# carry ``approx``, the same function evaluated in float32 (the MLP rays
# do): the radius search reads its steering steps there and decides every
# radius it returns in float64, so a returned radius always has a float64
# cost below the cutoff; a ray without it takes the same steps in float64.
CostFn = Callable[[np.ndarray], float]

# a search's radius cap: a hard ceiling for Lebesgue, measure-adapted for Gaussian
LEBESGUE_R_MAX = 1e6
GAUSSIAN_R_MAX_SIGMAS = 20.0
# the radial integral's bracket ends where the integrand has fallen by
# e^-60 from its maximum, reached by three Newton steps from closed-form
# outer bounds; one Gauss-Legendre rule covers the bracket
_RADIAL_DROP_NATS = 60.0
_RADIAL_NEWTON_STEPS = 3
_GL_NODES, _GL_WEIGHTS = leggauss(64)
# the radial integral whitens a block of directions in slices of this many
# entries, which keeps its temporaries small
_BLOCK_ENTRIES = 2**16
# the stages of an estimate, in order, as VolumeEstimate.stage_seconds names them
STAGES = ("sample", "search", "integrate", "aggregate")
# the radius of a search's first cost evaluation when no earlier ray sets it
FIRST_START = 1.0
# a radius search fails as RadiusSearchError after this many cost evaluations
MAX_EVALS = 500
# the radius search's predicted bracket step goes this factor of the
# predicted distance in log r, so a slightly steepening cost still brackets
_BRACKET_PAST = 1.05
# a narrowing step after a lower-end move aims this fraction of a tolerance
# past the predicted crossing: the small step leaves the next step, which is
# aimed inside the crossing, room to close the bracket
_AIM_PAST = 0.1
# with no interior point yet, narrowing gives up once its upper end falls
# below this fraction of the first bracket's
_INTERIOR_FLOOR = 2.0**-50
# numpy's SeedSequence hash constants: entropy mixing (A), state generation
# (B) and the mix of a hashed word into a pool word (L, R); each hash and
# mix ends with x ^= x >> 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


class RadiusSearchError(RuntimeError):
    """The radius search ran out of evaluations or found no interior point.

    Carries the last bracket (lower, upper) of the boundary radius and the
    cost evaluations the search had made.
    """

    def __init__(
        self, message: str, bracket: tuple[float, float] | None = None, evals: int = 0
    ):
        super().__init__(message)
        self.bracket = bracket
        self.evals = evals


class CostEvaluationError(RuntimeError):
    """The cost function returned a non-finite value.

    Carries the cost evaluations made along the ray, this one included.
    """

    def __init__(self, message: str, evals: int = 0):
        super().__init__(message)
        self.evals = evals


class EstimationError(RuntimeError):
    """No estimate could be formed at all."""


@dataclass(frozen=True)
class MeasureSpec:
    """Reference measure: Lebesgue, or a zero-mean diagonal Gaussian, validated once here."""

    sigma: np.ndarray | None = None  # (n,) positive stds of the Gaussian; None for Lebesgue

    def __post_init__(self):
        if self.sigma is not None:
            arr = np.asarray(self.sigma, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0)):
                raise ValueError("gaussian measure requires a non-empty vector of positive finite sigmas")
            object.__setattr__(self, "sigma", _readonly(arr))

    @classmethod
    def lebesgue(cls) -> "MeasureSpec":
        return cls()

    @classmethod
    def gaussian(cls, sigma: np.ndarray) -> "MeasureSpec":
        return cls(sigma)

    @property
    def kind(self) -> str:
        return "lebesgue" if self.sigma is None else "gaussian"

    @cached_property
    def r_max(self) -> float:
        """The measure's radius cap, where every ray's search stops, computed once for all
        rays: 20 sqrt(n) max sigma for a Gaussian, ``LEBESGUE_R_MAX`` for Lebesgue."""
        if self.kind == "gaussian":
            return GAUSSIAN_R_MAX_SIGMAS * math.sqrt(self.sigma.size) * float(np.max(self.sigma))
        return LEBESGUE_R_MAX


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Anchor point, cost handle, cutoff, and reference measure.

    The cost handle must accept a full parameter vector and return a scalar;
    an estimate calls it, and its rays, only from the calling thread. The
    anchor must lie inside its own neighborhood: building the spec evaluates
    the cost there once, keeps it as ``anchor_cost``, and raises
    ``EstimationError`` unless it is below the cutoff.

    When the cost carries a ray form (``cost.along``, see ``CostFn``), it is
    bound to the anchor once here, and ``line`` hands out its rays; any
    other cost is evaluated at ``anchor + r * direction``.
    """

    anchor: np.ndarray
    cost: CostFn
    cutoff: float
    measure: MeasureSpec
    anchor_cost: float = field(init=False)

    @one_blas_thread()
    def __post_init__(self):
        anchor = _readonly(np.atleast_1d(np.asarray(self.anchor, dtype=float)))
        object.__setattr__(self, "anchor", anchor)
        if not (self.cutoff > 0 and math.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if self.measure.kind == "gaussian" and self.measure.sigma.size != anchor.size:
            raise ValueError("measure sigma length does not match anchor dimension")
        along = getattr(self.cost, "along", None)
        object.__setattr__(self, "_line", along(anchor) if along is not None else None)
        anchor_cost = float(self.cost(anchor))
        if not math.isfinite(anchor_cost):
            raise CostEvaluationError("cost evaluation failed at the anchor")
        if anchor_cost >= self.cutoff:
            raise EstimationError(
                f"anchor cost {anchor_cost!r} is not below the cutoff {self.cutoff!r}"
            )
        object.__setattr__(self, "anchor_cost", anchor_cost)

    def line(self, direction: np.ndarray) -> Callable[[float], float]:
        """The cost along one ray from the anchor, as a function of the radius."""
        if self._line is not None:
            return self._line(direction)
        cost, anchor = self.cost, self.anchor
        # anchor + r * direction, bit for bit, in one allocation
        return lambda r: cost(np.add(x := direction * r, anchor, out=x))

    @property
    def dim(self) -> int:
        return self.anchor.size


@dataclass(frozen=True)
class SearchOptions:
    """Radius-search knobs, validated once here. ``threads`` must be at least 1
    but is ignored (rays run on the calling thread) until the benchmark drops it."""

    rel_tol: float = 1e-4
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")


@dataclass(frozen=True)
class RadialSample:
    """One ray: direction, importance norm, boundary radius, log contribution.

    In an estimate, ``direction`` is a read-only row view of the block of all
    k directions, and ``evals`` counts the cost evaluations of the ray's
    radius search, up to its failure for a failed ray.
    """

    direction: np.ndarray
    log_importance_norm: float
    radius: float
    truncated: bool
    log_term: float
    failure: str = ""  # "" for a good ray, else "<error class>: <message>"
    evals: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failure)


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
    # per stage of STAGES, {"cpu": process CPU seconds, "wall": wall seconds}
    stage_seconds: dict[str, dict[str, float]] = field(default_factory=dict, compare=False)

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

    @property
    def failed_by_reason(self) -> dict[str, int]:
        """Number of failed rays for each distinct failure reason."""
        return dict(Counter(s.failure for s in self.samples if s.failed))

    @property
    def cost_evals(self) -> int:
        """Cost evaluations of all radius searches (the spec's anchor evaluation excluded)."""
        return sum(s.evals for s in self.samples)

    @property
    def evals_per_ray(self) -> float:
        """Mean cost evaluations per ray, failed rays included."""
        return self.cost_evals / self.k

    def _shifted_terms(self) -> np.ndarray:
        # the log terms less the largest, so equal terms cancel exactly
        return np.array([s.log_term for s in self.samples]) - self.max_log_term

    @property
    def ess(self) -> float:
        """Effective sample size of the log-sum-exp over the log terms t,
        exp(2 LSE(t) - LSE(2t)) (Kong 1992): k for k equal terms, near 1
        when one term dominates. A failed ray's term (-inf) adds nothing."""
        t = self._shifted_terms()
        return math.exp(2.0 * log_sum_exp(t) - log_sum_exp(2.0 * t))

    @property
    def top_share(self) -> float:
        """Share of the largest ray in the summed volume, exp(max t - LSE(t))."""
        return math.exp(-log_sum_exp(self._shifted_terms()))

    @property
    def log_term_sd(self) -> float:
        """Population standard deviation of the good rays' log terms; 0 for equal terms."""
        t = self._shifted_terms()
        return float(np.std(t[[not s.failed for s in self.samples]]))

    @property
    def prefix_rise(self) -> float:
        """Log volume of all k rays less that of the first max(1, k // 4), which needs no
        further rays: 0 for equal terms, and large while later rays still add mass
        (+inf where every ray of the prefix failed)."""
        t, j = self._shifted_terms(), max(1, self.k // 4)
        return (log_sum_exp(t) - math.log(self.k)) - (log_sum_exp(t[:j]) - math.log(j))


def _crossing(points: list[tuple[float, float]]) -> float | None:
    """Where the search model puts f = 0, in t = log r, from its last points.

    ``points`` are the (t, f) pairs to interpolate, oldest first: inverse
    quadratic interpolation (t as a quadratic in f) through three, the
    secant through two, and the default slope 2 from one. None where the
    model has no crossing (equal f values, or a secant slope that is not
    positive).
    """
    if len(points) == 3:
        (ta, fa), (tb, fb), (tc, fc) = points
        if fa != fb and fb != fc and fa != fc:
            return (
                ta * fb * fc / ((fa - fb) * (fa - fc))
                + tb * fa * fc / ((fb - fa) * (fb - fc))
                + tc * fa * fb / ((fc - fa) * (fc - fb))
            )
        points = points[1:]
    if len(points) == 2:
        (ta, fa), (tb, fb) = points
        slope = (fb - fa) / (tb - ta) if tb != ta else 0.0
        return tb - fb / slope if slope > 0.0 else None
    t, f = points[0]
    return t - 0.5 * f


def find_radius(
    spec: NeighborhoodSpec,
    direction: np.ndarray,
    opts: SearchOptions | None = None,
    start: float = FIRST_START,
) -> tuple[float, bool, int]:
    """Find the boundary radius along a ray from the anchor.

    Brackets the cutoff crossing from ``start`` (positive and finite, else
    ``ValueError``; a start past the cap is read at the cap), then narrows
    the bracket until its width is at most ``rel_tol`` times the lower end.
    Returns ``(radius, truncated, evals)``; the float64 cost at the returned
    radius is strictly below the cutoff, so the search never overshoots,
    and ``evals`` counts the cost evaluations made along the ray, in either
    precision. If the bracket stage reaches the measure's cap
    (``spec.measure.r_max``) without a crossing, the radius is capped there
    and flagged truncated. Every evaluation goes
    through ``spec.line``.

    Where the ray carries a float32 form (``line.approx``, see ``CostFn``),
    the evaluations that only steer run in it: every bracket step but one at
    the cap, in either direction, and every narrowing step aimed past the
    crossing. Every other narrowing step, and every bisection, runs in
    float64. When the bracket closes on a lower end read in float32, one
    float64 evaluation decides it: below the cutoff it is returned; otherwise
    it becomes the upper end, and narrowing starts again from the anchor in
    float64 only. A ray without the form runs the same steps, each in
    float64.

    Both stages steer by one model, f(t) = log((cost(e^t) - c0) / (cutoff -
    c0)) with t = log r and c0 = ``spec.anchor_cost``, which the spec keeps
    below the cutoff. Near the anchor the cost is c0 plus a term roughly
    quadratic in r, so f is nearly linear in t with slope about 2, and
    exactly linear for c0 + q r^p. f is undefined where the cost is at most
    c0.

    From a start below the cutoff, the bracket stage steps 5% past the crossing
    that the slope through the last two points predicts (slope 2 from a
    single point); where f is undefined, or after a predicted step failed to
    bracket, it at least doubles r. From a start at or above the cutoff it
    takes one step back inside in the same way, 5% past the crossing that
    slope 2 predicts and at least half a tolerance in, so a start costs
    about the same on either side of the crossing. If that step lands
    inside, narrowing starts from a bracket like the one an outward step
    leaves; otherwise it starts from the anchor. The narrowing stage
    interpolates the crossing by inverse quadratic interpolation through the
    last three points where f is defined (the secant through two, slope 2
    from one; Brent 1973). One aiming rule serves both forms: a tenth of a
    tolerance past the crossing after a lower-end move, half a tolerance
    inside it after an upper-end move, and at least a quarter tolerance
    inside the bracket. It bisects instead when the estimate lies outside
    the bracket, when f is undefined at a positive lower end, and when the
    last two evaluations did not halve the bracket.

    Worst case: from a start below a crossing at r, the bracket stage takes
    at most 2 + log2(r / start) evaluations, since every step after the
    first prediction at least doubles r; from a start at or above the
    cutoff it takes 2, the start and the step back inside. Any three
    narrowing evaluations in a row at least halve the bracket [lo, hi], so
    narrowing takes at most about 3 log2((hi - lo) / (rel_tol lo)). While
    no interior point is known (lo = 0), narrowing stops once hi falls
    below 2^-50 times its first hi and fails as "no interior point found
    along ray"; with the cost above the cutoff everywhere off the anchor
    that takes about 50 evaluations. A search still open after
    ``MAX_EVALS`` evaluations fails as "bracketing exhausted" or "did not
    converge".
    """
    if not 0.0 < start < math.inf:
        raise ValueError(f"start must be positive and finite, got {start}")
    opts = opts or SearchOptions()
    r_max, rel_tol = spec.measure.r_max, opts.rel_tol
    line = spec.line(direction)
    steer = getattr(line, "approx", line)  # the ray's float32 form, where it has one
    cutoff, c0 = spec.cutoff, spec.anchor_cost
    log_span = math.log(cutoff - c0)
    evals = 0
    known: list[tuple[float, float]] = []  # (t, f) where f is defined, oldest first

    def cost_at(r: float, form: Callable[[float], float]) -> float:
        nonlocal evals
        evals += 1
        value = float(form(r))
        if not math.isfinite(value):
            message = f"cost evaluation failed: non-finite value {value!r}"
            raise CostEvaluationError(message, evals=evals)
        if value > c0:
            known.append((math.log(r), math.log(value - c0) - log_span))
        return value

    lo, lo_value, hi = 0.0, c0, None
    r = start if start < r_max else r_max
    predicted = False  # a predicted step was taken, so the next one failed to bracket
    while evals < MAX_EVALS:
        # a truncated ray returns the cap, so the cap is read in float64
        value = cost_at(r, line if r >= r_max else steer)
        if value >= cutoff:
            hi = r
            break
        lo, lo_value = r, value
        if r >= r_max:
            return r_max, True, evals
        step = 2.0 * r
        if value > c0:  # f is defined at r, so the model predicts a crossing
            t = known[-1][0]
            root = _crossing(known[-2:])
            if root is not None and root > t:
                ahead = math.exp(min(t + _BRACKET_PAST * (root - t), math.log(r_max)))
                # a crossing predicted within half a tolerance is bracketed
                # half a tolerance out, which closes the bracket at once
                ahead = max(ahead, r * (1.0 + 0.5 * rel_tol))
                step = max(ahead, step) if predicted else ahead
                predicted = True
        r = step if step < r_max else r_max
    if hi is None:
        raise RadiusSearchError(f"bracketing exhausted {MAX_EVALS} evaluations", bracket=(lo, r), evals=evals)
    if lo == 0.0:
        # the start lies at or above the cutoff: the step back inside is a
        # bracket step in reverse, past the predicted crossing and at least
        # half a tolerance in, read in the steering form
        t = known[-1][0]
        r = math.exp(t + _BRACKET_PAST * (_crossing(known) - t))
        r = min(max(r, hi * _INTERIOR_FLOOR), hi / (1.0 + 0.5 * rel_tol))
        value = cost_at(r, steer)
        if value < cutoff:
            lo, lo_value = r, value
        else:
            hi = r

    moved = None  # the end the last evaluation of this stage moved
    # bracket width now, and after each of the two evaluations before (inf: none yet)
    width, w1, w2 = hi - lo, math.inf, math.inf
    floor = hi * _INTERIOR_FLOOR
    lo_form = steer if lo > 0.0 else line  # the form that read lo's value; the anchor's is float64
    while not (lo > 0.0 and width <= rel_tol * lo) or lo_form is not line:
        if lo == 0.0 and hi < floor:
            break
        if evals >= MAX_EVALS:
            message = f"radius search did not converge to rel_tol={rel_tol}"
            raise RadiusSearchError(message, bracket=(lo, hi), evals=evals)
        mid = 0.5 * (lo + hi)
        if lo_form is not line and (width <= rel_tol * lo or mid <= lo or mid >= hi):
            # the bracket closed on a lower end read in float32: one float64
            # evaluation decides it, and replaces its point in the model
            t = math.log(lo)
            known[:] = [p for p in known if p[0] != t]
            if cost_at(lo, line) < cutoff:
                break
            # lo lies past the crossing: it becomes hi, and narrowing goes on
            # in float64 only, from the anchor
            hi, moved, steer, lo_form = lo, "hi", line, line
            lo, lo_value, width, w1, w2 = 0.0, c0, hi, math.inf, math.inf
            continue
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        r, form = mid, line
        # bisect where f is undefined at lo or the last two steps did not halve the bracket
        if (lo == 0.0 or lo_value > c0) and width <= 0.5 * w2:
            root = _crossing(known[-3:])
            if root is not None and (lo == 0.0 or math.log(lo) <= root) and root <= math.log(hi):
                root = math.exp(root)
                tol = rel_tol * (lo if lo > 0.0 else 0.5 * root)
                aim = root + _AIM_PAST * tol if moved == "lo" else root - 0.5 * tol
                low, high = lo + 0.25 * tol, hi - 0.25 * tol  # a quarter tolerance inside
                step = aim if aim > low else low
                step = step if step < high else high
                if lo < step < hi:
                    r = step
                    # a step past the crossing only steers, so it is read in
                    # float32; a value below the cutoff that closes the bracket
                    # gets the float64 check below
                    if moved == "lo":
                        form = steer
        value = cost_at(r, form)
        if value < cutoff:
            lo, lo_value, lo_form, moved = r, value, form, "lo"
        else:
            hi, moved = r, "hi"
        w2, w1, width = w1, width, hi - lo
    if lo <= 0.0:
        raise RadiusSearchError("no interior point found along ray", bracket=(lo, hi), evals=evals)
    return lo, False, evals


class _StreamState(ISeedSequence):
    """One child's generated state, handed to ``np.random.PCG64`` as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words  # generate_state(4, np.uint64): 4 native uint64 words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for generate_state(4, np.uint64) alone


@cache
def _spawn_constants(words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The hash constants a child's last mixing phase and its state generation use.

    For a seed of ``words`` 32-bit words, ``SeedSequence`` makes 16 + 4 max(0,
    words - 4) hashmix calls before it mixes in a child's spawn word; each
    call XORs with the running constant and multiplies by the next. Returns
    the XOR and multiplier constants of the spawn word's four calls, then
    those of the eight output words of ``generate_state``.
    """
    calls = 16 + 4 * max(0, words - 4)
    mix = [_INIT_A * pow(_MULT_A, calls + j, 2**32) % 2**32 for j in range(5)]
    out = [_INIT_B * pow(_MULT_B, j, 2**32) % 2**32 for j in range(9)]
    return tuple(np.array(c, dtype=np.uint32) for c in (mix[:4], mix[1:], out[:8], out[1:]))


def _spawn_streams(master: np.random.SeedSequence, k: int) -> list[np.random.Generator]:
    """``[default_rng(child) for child in master.spawn(k)]``, bit for bit, from one pass.

    Child i differs from ``master`` only in its last mixing phase, which
    hashes the spawn word i into each of the 4 pool words; that phase and the
    child's ``generate_state(4, np.uint64)`` run here for every i at once, in
    wrapping uint32 arithmetic. ``master`` is left unspawned.
    """
    # the seed's count of 32-bit words; numpy stores 0 as one word
    words = max(1, (operator.index(master.entropy).bit_length() + 31) // 32)
    xor_mix, mul_mix, xor_out, mul_out = _spawn_constants(words)
    with np.errstate(over="ignore"):
        hashed = (np.arange(k, dtype=np.uint32)[:, None] ^ xor_mix) * mul_mix
        hashed ^= hashed >> 16
        pool = _MIX_MULT_L * master.pool - _MIX_MULT_R * hashed
        pool ^= pool >> 16
        state = (np.concatenate([pool, pool], axis=1) ^ xor_out) * mul_out
        state ^= state >> 16
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_StreamState(row))) for row in state]


@one_blas_thread()
def sample_directions(
    precond: Preconditioner, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, list[float]]:
    """Draw one importance-shaped unit direction per random stream.

    Row i is a uniform sphere point z (a normalized Gaussian draw from
    ``rngs[i]``) taken as coordinates in the map's orthonormal axes V, mapped
    to V (s * z) and renormalized; its entry in the returned list is
    log |s * z|, the pre-normalization length. Each draw fills its row in
    place, and each norm is sqrt(v . v), as ``np.linalg.norm`` computes it.
    V is orthogonal, so u = V z is uniform too and the row is the map
    V diag(s) V^T applied to u, at one matrix product for the whole block.
    The identity map gives log-norm 0.0 exactly. The block is returned
    read-only.
    """
    block, norms = np.empty((len(rngs), precond.dim)), []
    for row, rng in zip(block, rngs):
        norm = 0.0
        while norm == 0.0:  # a zero draw has probability zero; redraw for safety
            rng.standard_normal(out=row)
            norm = math.sqrt(row.dot(row))
        norms.append(norm)
    block /= np.array(norms)[:, None]
    if precond.kind == "identity":
        block.setflags(write=False)
        return block, [0.0] * len(rngs)
    block *= precond.scale
    if precond.basis is not None:
        block = block @ precond.basis.T
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = [math.sqrt(v.dot(v)) for v in block]
    if not all(0.0 < x < math.inf for x in norms):
        raise PreconditionerError("preconditioner produced a zero or non-finite direction")
    block /= np.array(norms)[:, None]
    block.setflags(write=False)
    return block, [math.log(x) for x in norms]


def gaussian_radial_log_integral(
    anchor: np.ndarray,
    direction: np.ndarray,
    radius: float | np.ndarray,
    sigma: np.ndarray,
    n: int,
) -> float | np.ndarray:
    """Log of the Gaussian mass integral along one ray, or along each of a block.

    Computes log of int_0^radius rho(anchor + r * direction) r^{n-1} dr for
    the zero-mean diagonal Gaussian density rho with stds sigma; radius may
    be infinite; n must be the size of anchor, sigma and each direction. An
    (n,) direction and a scalar radius give a float; a (k, n) block of
    directions and (k,) radii give one value per row, each the same as that
    row integrated alone. In whitened coordinates x = anchor / sigma,
    w = direction / sigma, with a = |w|^2, b~ = x.w / sqrt(a) and x_perp the
    part of x across w, the substitution p = r sqrt(a) gives

        (2 pi)^{-n/2} / prod(sigma) * e^{-|x_perp|^2 / 2} * a^{-n/2}
            * int_0^{radius sqrt(a)} e^{h(p)} dp,
        h(p) = -(p + b~)^2 / 2 + (n - 1) log p.

    Splitting off x_perp keeps the large terms |x|^2 / 2 and b~^2 / 2 from
    cancelling in floating point.

    One route serves every n and b. h is concave, so on the interval it
    peaks at top = min(p*, radius sqrt(a)), p* being its stationary point,
    and falls monotonically on either side. Closed-form bounds put a point
    on each side where h is at least 60 nats below h(top), and three Newton
    steps from there close in on that level on both sides at once, staying
    outside it, as h is concave. One 64-node Gauss-Legendre rule integrates
    e^{h - h(top)} over that bracket. Concavity bounds the mass left outside
    the bracket by about e^-60 of the mass inside, so a ray is never
    overestimated beyond the rule's roundoff. Every step runs on all rows
    at once; the block is whitened in slices of at most ``_BLOCK_ENTRIES``
    entries, and nothing is multiplied by BLAS.
    """
    block = np.asarray(direction, dtype=float)
    radii = np.asarray(radius, dtype=float).reshape(-1)
    rows = block.reshape(-1, block.shape[-1])
    if not n == np.size(anchor) == np.size(sigma) == rows.shape[1]:
        raise ValueError(f"n = {n} must equal the sizes of anchor {np.size(anchor)}, "
                         f"sigma {np.size(sigma)} and each direction {rows.shape[1]}")
    if not (radii > 0).all():
        raise ValueError(f"radius must be positive, got {radii[~(radii > 0)][0]}")
    # whitened coordinates: the anchor x and each direction w, with x split
    # along w; the part of x across w only scales the ray's density
    x = anchor / sigma
    base = -0.5 * n * math.log(2.0 * math.pi) - float(np.log(sigma).sum())
    a, b, across = np.empty((3, len(rows)))
    step = max(1, _BLOCK_ENTRIES // rows.shape[1])
    for part in (slice(i, i + step) for i in range(0, len(rows), step)):
        w = rows[part] / sigma
        a[part], b[part] = np.einsum("ij,ij->i", w, w), np.einsum("ij,j->i", w, x)
        if not ((a[part] > 0) & np.isfinite(a[part])).all():
            raise ValueError("degenerate direction for gaussian integral")
        w *= (b[part] / a[part])[:, None]
        across[part] = np.einsum("ij,ij->i", np.subtract(x, w, out=w), w)
    base = base - 0.5 * across

    # one column per ray, so the same h serves the edges and the rule's nodes
    sqrt_a = np.sqrt(a)[:, None]
    bt = b[:, None] / sqrt_a
    p_max = radii[:, None] * sqrt_a

    def h(p: np.ndarray) -> np.ndarray:
        # 0 log 0 = 0: for n = 1, h is defined at p = 0
        return -0.5 * (p + bt) ** 2 + ((n - 1) * np.log(p) if n > 1 else 0.0)

    def slope(p: np.ndarray) -> np.ndarray:  # h'(p)
        return ((n - 1) / p if n > 1 else 0.0) - (p + bt)

    # p* = (sqrt(bt^2 + 4(n-1)) - bt) / 2, split so neither sign of bt cancels;
    # the denominator is at least 2 for n >= 2, and the floor only turns the
    # n = 1, bt = 0 case (p* = 0) into 0 / 1
    root = np.hypot(bt, 2.0 * math.sqrt(n - 1))
    peak = np.maximum(-bt, 0.0) + 2.0 * (n - 1) / np.maximum(root + np.abs(bt), 1.0)
    top = np.minimum(peak, p_max)
    h_top = h(top)
    drop, s = _RADIAL_DROP_NATS, slope(top)
    target = h_top - drop

    # outer ends, past which h is below target: with u = p - top,
    # h(p) = h(top) + s u - u^2 / 2 + (n - 1) (log(1 + u / top) - u / top).
    # Left of top s >= 0 and log(1 - y) + y <= -y^2 / 2, so h drops by the drop
    # within d, where s d + curv d^2 / 2 = drop. Right of it s <= 0 (unless
    # top is the cap), and the square term drops by it within sqrt(2 drop),
    # the log term within grow * top, as log(1 + x) - x <= -x^2 / (2 (1 + x))
    curv, reach = 1.0, math.sqrt(2.0 * drop)
    if n > 1:
        curv = 1.0 + (n - 1) / top**2
        grow = (drop + math.sqrt(drop * (drop + 2.0 * (n - 1)))) / (n - 1)
        reach = np.minimum(reach, grow * top)
    d = 2.0 * drop / (s + np.sqrt(s * s + 2.0 * drop * curv))
    ends = np.concatenate([np.maximum(top - d, 0.0), np.minimum(top + reach, p_max)], axis=1)
    # Newton steps toward h = target from outside: h is concave, so each
    # tangent lies above it and each step stops short of its edge. An end
    # where h is not below target (the cap, or 0, probed at top) stays put
    for _ in range(_RADIAL_NEWTON_STEPS):
        probe = np.where(ends > 0.0, ends, top)
        gap = h(probe) - target
        ends -= np.divide(gap, slope(probe), out=np.zeros(gap.shape), where=gap < 0.0)
    lo, hi = ends[:, :1], ends[:, 1:]

    half = 0.5 * (hi - lo)
    vals = np.exp(h((lo + hi) * 0.5 + half * _GL_NODES) - h_top)
    total = half[:, 0] * np.einsum("ij,j->i", vals, _GL_WEIGHTS)
    out = base + h_top[:, 0] + np.log(total) - 0.5 * n * np.log(a)
    return float(out[0]) if block.ndim == 1 else out


def _clock() -> tuple[float, float]:
    """Process CPU seconds, every thread's, and wall seconds, for stage timing."""
    return time.process_time(), time.perf_counter()


@one_blas_thread()
def estimate_local_volume(
    spec: NeighborhoodSpec,
    precond: Preconditioner,
    k: int,
    opts: SearchOptions | None = None,
    seed: int = 0,
) -> VolumeEstimate:
    """Estimate the local volume of the anchor's neighborhood from k rays.

    Each sample gets its own random stream derived from the integer seed and
    the sample index: ray i draws from child i of
    ``np.random.SeedSequence(seed).spawn(k)``, bit for bit, and all k
    streams are built in one vectorized pass. A seed that is not an int,
    such as None, a bool, a ``SeedSequence`` or a list, raises
    ``TypeError``, and a negative int ``ValueError``. Every stage runs on
    the calling thread, so ``opts.threads`` changes nothing. Rays are
    searched in order: ray 0 starts at ``FIRST_START``, and ray i at the
    median radius of the good rays before it, truncated ones included, so
    seeded reruns stay bit-identical. Every start assumes the cost crosses
    the cutoff once along the ray. Rays whose radius search fails contribute
    exact zeros (log term -inf) but still count in k, preserving the
    estimator's one-sided Markov guarantee. Truncated rays contribute their
    capped radius; under Lebesgue measure that makes the estimate a lower
    bound, which the result flags. The log terms assume a unit-determinant
    map; any other raises ``PreconditionerError``. The result's
    ``stage_seconds`` times each of the four stages (``STAGES``).
    """
    opts = opts or SearchOptions()
    n = spec.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if isinstance(seed, bool):  # which operator.index takes as 0 or 1
        raise TypeError(f"seed must be an int, got {seed!r}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if precond.dim != n:
        raise ValueError(f"preconditioner dimension {precond.dim} != anchor dimension {n}")
    if abs(precond.log_det()) > 1e-6:
        raise PreconditionerError(f"preconditioner log det {precond.log_det():.6g} is not 0")
    marks = [_clock()]
    directions, log_norms = sample_directions(
        precond, _spawn_streams(np.random.SeedSequence(operator.index(seed)), k)
    )
    marks.append(_clock())

    rays = []  # (radius, truncated, evals, failure) of each ray, in order
    done: list[float] = []  # the good rays' radii so far, ascending
    start = FIRST_START
    for direction in directions:
        try:
            radius, cut, count = find_radius(spec, direction, opts, start)
        except (RadiusSearchError, CostEvaluationError) as exc:
            rays.append((math.nan, False, exc.evals, f"{type(exc).__name__}: {exc}"))
            continue
        rays.append((radius, cut, count, ""))
        insort(done, radius)
        half = len(done) // 2
        start = done[half] if len(done) % 2 else 0.5 * (done[half - 1] + done[half])
    radii, truncated, evals, failures = zip(*rays)
    marks.append(_clock())
    good = [i for i in range(k) if not failures[i]]
    if not good:
        reasons = sorted(Counter(failures).items())
        listed = "; ".join(f"{count} rays: {reason}" for reason, count in reasons)
        raise EstimationError(f"no valid samples ({listed})")

    if spec.measure.kind == "gaussian":
        offset = log_sphere_area(n)
        # the good rows are copied only when a ray failed: the copy costs peak memory
        block = directions if len(good) == k else directions[good]
        radial = gaussian_radial_log_integral(
            spec.anchor, block, np.array([radii[i] for i in good]), spec.measure.sigma, n
        ).tolist()
    else:
        # the exact volume of the ray's cone slice, |S^{n-1}| r^n / n
        offset = log_sphere_area(n) - math.log(n)
        radial = [n * math.log(radii[i]) for i in good]
    marks.append(_clock())
    terms = [-math.inf] * k
    for i, value in zip(good, radial):
        terms[i] = offset + value - n * log_norms[i]
    samples = tuple(
        map(RadialSample, directions, log_norms, radii, truncated, terms, failures, evals)
    )
    log_volume = log_sum_exp(terms) - math.log(k)
    marks.append(_clock())
    return VolumeEstimate(
        log_volume=log_volume,
        samples=samples,
        k=k,
        n=n,
        preconditioner_id=precond.describe(),
        measure=spec.measure,
        cutoff=spec.cutoff,
        truncated_count=sum(truncated),
        failed_count=k - len(good),
        stage_seconds={
            stage: {"cpu": cpu1 - cpu0, "wall": wall1 - wall0}
            for stage, (cpu0, wall0), (cpu1, wall1) in zip(STAGES, marks, marks[1:])
        },
    )
