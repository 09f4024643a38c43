"""Star-domain boundary search and Monte Carlo local-volume estimators.

A neighborhood is the largest star-shaped region around an anchor point
inside which a cost function stays below a cutoff. Its size under a
Lebesgue or diagonal-Gaussian reference measure is the anchor's local
volume. An estimate runs in four stages over its block of k rays, all on
the calling thread:

- sample: one block of directions, one random stream per ray, optionally
  importance-shaped by a unit-determinant preconditioner. The k streams are
  built in one vectorized pass, each equal bit for bit to the matching child
  of ``SeedSequence(seed).spawn(k)``, and each draws straight into its row
  of the block. Each uniform draw is taken in the map's own orthonormal
  axes, where it is just as uniform, so a dense map costs one product with
  its n x n basis per block, which OpenBLAS runs on the calling thread alone
  (no worker spins after it, and its bits do not depend on the BLAS thread
  count);
- search: the boundary radius along each ray, by an extrapolated bracket
  and safeguarded inverse quadratic interpolation under one aiming rule,
  each returned radius decided in float64; the only per-ray stage;
- integrate: under a Gaussian measure, each good ray's one-dimensional
  radial integral, all in one vectorized call. One route serves every ray:
  bracket the log-concave integrand where it is within 60 nats of its
  maximum, by one bisection for both edges of every ray, and apply one
  Gauss-Legendre rule;
- aggregate: every ray's log contribution in one pass, then log-sum-exp.

Each estimate records the process CPU and wall seconds of each stage.

Everything is carried in natural-log space because the volumes involved
underflow any linear representation.
"""

from __future__ import annotations

import ctypes
import math
import operator
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random.bit_generator import ISeedSequence

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

# radius cap defaults: hard ceiling for Lebesgue, measure-adapted for Gaussian
LEBESGUE_R_MAX = 1e6
GAUSSIAN_R_MAX_SIGMAS = 20.0
# the radial integral's bracket ends where the integrand has fallen by
# e^-60 from its maximum; one Gauss-Legendre rule covers the bracket
_RADIAL_DROP_NATS = 60.0
_GL_NODES, _GL_WEIGHTS = leggauss(64)
# the radial integral whitens a block of directions in slices of this many
# entries, which keeps its temporaries small
_BLOCK_ENTRIES = 2**16
# the stages of an estimate, in order, as VolumeEstimate.stage_seconds names them
STAGES = ("sample", "search", "integrate", "aggregate")
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
        """Default radius cap of a search, computed once for all rays: 20 sqrt(n) max sigma
        for a Gaussian, ``LEBESGUE_R_MAX`` for Lebesgue."""
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
        return lambda r: cost(anchor + r * direction)

    @property
    def dim(self) -> int:
        return self.anchor.size


@dataclass(frozen=True)
class SearchOptions:
    """Radius-search knobs, validated once here. ``threads`` must be at least 1
    but is ignored (rays run on the calling thread) until the benchmark drops it."""

    r_init: float = 1.0
    r_max: float | None = None  # None = the measure's default cap, MeasureSpec.r_max
    rel_tol: float = 1e-4
    max_iters: int = 500
    threads: int = 1

    def __post_init__(self):
        for name, value in (("r_init", self.r_init), ("r_max", self.r_max), ("rel_tol", self.rel_tol)):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name, value in (("max_iters", self.max_iters), ("threads", self.threads)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


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
    # per stage of STAGES, {"cpu": process CPU seconds, "wall": wall seconds};
    # CPU counts every thread, so BLAS worker spin lands in the stage it overlaps
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
    spec: NeighborhoodSpec, direction: np.ndarray, opts: SearchOptions | None = None
) -> tuple[float, bool, int]:
    """Find the boundary radius along a ray from the anchor.

    Brackets the cutoff crossing outward from ``r_init``, then narrows the
    bracket until its width is at most ``rel_tol`` times the lower end.
    Returns ``(radius, truncated, evals)``; the float64 cost at the
    returned radius is strictly below the cutoff, so the search never
    overshoots, and ``evals`` counts the cost evaluations made along the
    ray, in either precision. If the bracket stage reaches the cap
    (``opts.r_max``, or else the measure's ``r_max``) without a crossing,
    the radius is capped there and flagged truncated. Every evaluation goes
    through ``spec.line``.

    Where the ray carries a float32 form (``line.approx``, see ``CostFn``),
    the evaluations that only steer run in it: every bracket step but one
    at the cap, and each narrowing step aimed past the crossing whose value
    below the cutoff would not close the bracket. Every other narrowing
    step, and every bisection, runs in float64. When the bracket closes on
    a lower end read in float32, one float64 evaluation decides it: below
    the cutoff it is returned; otherwise it becomes the upper end, and
    narrowing starts again from the anchor in float64 only. A ray without
    the form runs the same steps, each in float64.

    Both stages steer by one model, f(t) = log((cost(e^t) - c0) / (cutoff -
    c0)) with t = log r and c0 = ``spec.anchor_cost``, which the spec keeps
    below the cutoff. Near the anchor the cost is c0 plus a term roughly
    quadratic in r, so f is nearly linear in t with slope about 2, and
    exactly linear for c0 + q r^p. f is undefined where the cost is at most
    c0.

    The bracket stage steps 5% past the crossing that the slope through the
    last two points predicts (slope 2 from a single point); where f is
    undefined, or after a predicted step failed to bracket, it at least
    doubles r. The narrowing stage interpolates the crossing by inverse
    quadratic interpolation through the last three points where f is
    defined (the secant through two, slope 2 from one; Brent 1973). One
    aiming rule serves both forms: a tenth of a tolerance past the crossing
    after a lower-end move, half a tolerance inside it after an upper-end
    move, and at least a quarter tolerance inside the bracket. It bisects
    instead when the estimate lies outside the bracket, when f is undefined
    at a positive lower end, and when the last two evaluations did not
    halve the bracket.

    Worst case: the bracket stage takes at most 2 + log2(r / r_init)
    evaluations to reach a crossing at r, since every step after the first
    prediction at least doubles r; and any three narrowing evaluations in a
    row at least halve the bracket [lo, hi], so narrowing takes at most
    about 3 log2((hi - lo) / (rel_tol lo)). While no interior point is known
    (lo = 0), narrowing stops once hi falls below 2^-50 times the first
    bracket's hi and fails as "no interior point found along ray"; with the
    cost above the cutoff everywhere off the anchor that takes about 50
    evaluations.
    """
    opts = opts or SearchOptions()
    r_max = opts.r_max if opts.r_max is not None else spec.measure.r_max
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
            raise CostEvaluationError(
                f"cost evaluation failed: non-finite value {value!r}", evals=evals
            )
        if value > c0:
            known.append((math.log(r), math.log(value - c0) - log_span))
        return value

    lo, lo_value, hi = 0.0, c0, None
    r = min(opts.r_init, r_max)
    predicted = False  # a predicted step was taken, so the next one failed to bracket
    while evals < opts.max_iters:
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
                ahead = max(ahead, r * (1.0 + 0.5 * opts.rel_tol))
                step = max(ahead, step) if predicted else ahead
                predicted = True
        r = min(step, r_max)
    if hi is None:
        raise RadiusSearchError("bracketing exhausted max_iters", bracket=(lo, r), evals=evals)

    moved = None  # the end the last evaluation of this stage moved
    widths = [hi - lo]  # bracket width after each evaluation of this stage
    floor = hi * _INTERIOR_FLOOR
    lo_form = steer if lo > 0.0 else line  # the form that read lo's value; the anchor's is float64
    while not (lo > 0.0 and hi - lo <= opts.rel_tol * lo) or lo_form is not line:
        if lo == 0.0 and hi < floor:
            break
        if evals >= opts.max_iters:
            raise RadiusSearchError(
                f"radius search did not converge to rel_tol={opts.rel_tol}",
                bracket=(lo, hi),
                evals=evals,
            )
        mid = 0.5 * (lo + hi)
        if lo_form is not line and (hi - lo <= opts.rel_tol * lo or mid <= lo or mid >= hi):
            # the bracket closed on a lower end read in float32: one float64
            # evaluation decides it, and replaces its point in the model
            t = math.log(lo)
            known[:] = [p for p in known if p[0] != t]
            if cost_at(lo, line) < cutoff:
                break
            # lo lies past the crossing: it becomes hi, and narrowing goes on
            # in float64 only, from the anchor
            hi, moved, steer, lo_form, widths = lo, "hi", line, line, [lo]
            lo, lo_value = 0.0, c0
            continue
        if mid <= lo or mid >= hi:
            break  # bracket already at float resolution
        r, form = mid, line
        stalled = len(widths) >= 3 and widths[-1] > 0.5 * widths[-3]
        modeled = lo == 0.0 or lo_value > c0  # else f is undefined at lo
        root = _crossing(known[-3:]) if modeled and not stalled else None
        if root is not None and (lo == 0.0 or math.log(lo) <= root) and root <= math.log(hi):
            root = math.exp(root)
            tol = opts.rel_tol * (lo if lo > 0.0 else 0.5 * root)
            aim = root + _AIM_PAST * tol if moved == "lo" else root - 0.5 * tol
            step = min(max(aim, lo + 0.25 * tol), hi - 0.25 * tol)
            if lo < step < hi:
                r = step
                # a step past the crossing only steers, so it is read in
                # float32, unless a value below the cutoff would close the
                # bracket and so be returned
                if moved == "lo" and hi - step > opts.rel_tol * step:
                    form = steer
        value = cost_at(r, form)
        if value < cutoff:
            lo, lo_value, lo_form, moved = r, value, form, "lo"
        else:
            hi, moved = r, "hi"
        widths.append(hi - lo)
    if lo <= 0.0:
        raise RadiusSearchError("no interior point found along ray", bracket=(lo, hi), evals=evals)
    return lo, False, evals


@cache
def _blas_thread_setter() -> Callable[[int], int] | None:
    """``openblas_set_num_threads_local`` of numpy's OpenBLAS, resolved through the
    numpy extension that links it; None under another BLAS or an older OpenBLAS.
    It sets the calling thread's BLAS thread count and returns the previous one."""
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
    return setter


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block's BLAS calls on the calling thread alone, then restore its count.

    A product split over OpenBLAS's workers leaves them spinning for about
    0.13 CPU seconds, and its last bits depend on their number. Other threads
    keep their count; without the setter this does nothing.
    """
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


class _StreamState(ISeedSequence):
    """One child's generated state, handed to ``np.random.PCG64`` as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words  # the 8 little-endian uint32 words of generate_state(4, np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) == np.uint64:
            return self.words.view("<u8").astype(np.uint64, copy=False)
        return self.words


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
    state = state.astype("<u4", copy=False)
    return [np.random.Generator(np.random.PCG64(_StreamState(row))) for row in state]


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
    That product runs on one OpenBLAS thread, the calling one, so its bits
    do not depend on the BLAS thread count and it leaves no worker
    spinning. The identity map gives log-norm 0.0 exactly. The block is
    returned read-only.
    """
    block = np.empty((len(rngs), precond.dim))
    for row, rng in zip(block, rngs):
        norm = 0.0
        while norm == 0.0:  # a zero draw has probability zero; redraw for safety
            rng.standard_normal(out=row)
            norm = math.sqrt(row.dot(row))
        row /= norm
    if precond.kind == "identity":
        block.setflags(write=False)
        return block, [0.0] * len(rngs)
    block *= precond.scale
    if precond.basis is not None:
        with _one_blas_thread():
            block = block @ precond.basis.T
    norms = [math.sqrt(v.dot(v)) for v in block]
    if not all(0.0 < x < math.inf for x in norms):
        raise PreconditionerError("preconditioner produced a zero or non-finite direction")
    block /= np.array(norms)[:, None]
    block.setflags(write=False)
    return block, [math.log(x) for x in norms]


def _edge(h, target: np.ndarray, top: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Locate, element by element, where h falls to ``target`` between ``top`` and ``outside``.

    ``outside`` may hold several columns per row of ``top`` and ``target``,
    such as both edges of each ray; h is monotone from ``top`` to each
    element of ``outside`` and at least ``target`` at ``top``. Bisection
    keeps the outer point, so no result is closer to ``top`` than its
    crossing (``outside`` where there is none); an element stops once its
    bracket is within 1/64 of that point's distance from ``top``, or after 64
    halvings. Each element is masked on its own, so it gets the same bits as
    in a call of its own.
    """
    inside = top
    for _ in range(64):
        open_ = np.abs(outside - inside) > np.abs(outside - top) / 64
        if not open_.any():
            break
        mid = 0.5 * (inside + outside)
        up = h(mid) >= target
        inside = np.where(open_ & up, mid, inside)
        outside = np.where(open_ & ~up, mid, outside)
    return outside


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
    and falls monotonically on either side. As h'' = -1 - (n - 1) / p^2 <= -1,
    h drops 60 nats below h(top) within sqrt(120) of top on either side;
    one bisection from there finds where on both sides at once, and one
    64-node Gauss-Legendre rule integrates e^{h - h(top)} over that
    bracket. Concavity bounds the mass left outside the bracket by about
    e^-60 of the mass inside, so a ray is never overestimated beyond the
    rule's roundoff. Every step runs on all rows at once; the block is
    whitened in slices of at most ``_BLOCK_ENTRIES`` entries, and nothing
    is multiplied by BLAS.
    """
    block = np.asarray(direction, dtype=float)
    radii = np.asarray(radius, dtype=float).reshape(-1)
    rows = block.reshape(-1, block.shape[-1])
    if not n == np.size(anchor) == np.size(sigma) == rows.shape[1]:
        raise ValueError(f"n = {n} must equal the sizes of anchor {np.size(anchor)}, "
                         f"sigma {np.size(sigma)} and each direction {rows.shape[1]}")
    if not np.all(radii > 0):
        raise ValueError(f"radius must be positive, got {radii[~(radii > 0)][0]}")
    # whitened coordinates: the anchor x and each direction w, with x split
    # along w; the part of x across w only scales the ray's density
    x = anchor / sigma
    base = -0.5 * n * math.log(2.0 * math.pi) - float(np.sum(np.log(sigma)))
    a, b, across = np.empty((3, len(rows)))
    step = max(1, _BLOCK_ENTRIES // rows.shape[1])
    for part in (slice(i, i + step) for i in range(0, len(rows), step)):
        w = rows[part] / sigma
        a[part], b[part] = np.einsum("ij,ij->i", w, w), np.einsum("ij,j->i", w, x)
        if not np.all((a[part] > 0) & np.isfinite(a[part])):
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

    # p* = (sqrt(bt^2 + 4(n-1)) - bt) / 2, split so neither sign of bt cancels;
    # the denominator is at least 2 for n >= 2, and the floor only turns the
    # n = 1, bt = 0 case (p* = 0) into 0 / 1
    root = np.hypot(bt, 2.0 * math.sqrt(n - 1))
    peak = np.maximum(-bt, 0.0) + 2.0 * (n - 1) / np.maximum(root + np.abs(bt), 1.0)
    top = np.minimum(peak, p_max)
    h_top = h(top)
    target = h_top - _RADIAL_DROP_NATS

    # h(p) <= h(top) - (p - top)^2 / 2, so the drop lies within reach of top
    reach = math.sqrt(2.0 * _RADIAL_DROP_NATS)
    ends = np.hstack([np.maximum(top - reach, 0.0), np.minimum(top + reach, p_max)])
    ends = _edge(h, target, top, ends)
    lo, hi = ends[:, :1], ends[:, 1:]

    half = 0.5 * (hi - lo)
    vals = np.exp(h((lo + hi) * 0.5 + half * _GL_NODES) - h_top)
    total = half[:, 0] * np.einsum("ij,j->i", vals, _GL_WEIGHTS)
    out = base + h_top[:, 0] + np.log(total) - 0.5 * n * np.log(a)
    return float(out[0]) if block.ndim == 1 else out


def _clock() -> tuple[float, float]:
    """Process CPU seconds, every thread's, and wall seconds, for stage timing."""
    return time.process_time(), time.perf_counter()


def estimate_local_volume(
    spec: NeighborhoodSpec,
    precond: Preconditioner,
    k: int,
    opts: SearchOptions | None = None,
    seed: int = 0,
) -> VolumeEstimate:
    """Estimate the local volume of the anchor's neighborhood from k rays.

    Each sample gets its own random stream derived from the integer seed
    and the sample index: ray i draws from child i of
    ``np.random.SeedSequence(seed).spawn(k)``, bit for bit, and all k
    streams are built in one vectorized pass. A seed that is not an int,
    such as a ``SeedSequence`` or a list, raises ``TypeError``, and a
    negative int ``ValueError``. Every stage runs on the calling thread, so
    ``opts.threads`` changes nothing. Rays whose radius search fails
    contribute exact zeros (log term -inf) but still count in k, preserving
    the estimator's one-sided Markov guarantee. Truncated rays contribute
    their capped radius; under Lebesgue measure that makes the estimate a
    lower bound, which the result flags. The log terms assume a
    unit-determinant map; any other raises ``PreconditionerError``. The
    result's ``stage_seconds`` times each of the four stages (``STAGES``).
    """
    opts = opts or SearchOptions()
    n = spec.dim
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if precond.dim != n:
        raise ValueError(f"preconditioner dimension {precond.dim} != anchor dimension {n}")
    if abs(precond.log_det()) > 1e-6:
        raise PreconditionerError(f"preconditioner log det {precond.log_det():.6g} is not 0")
    marks = [_clock()]
    directions, log_norms = sample_directions(
        precond, _spawn_streams(np.random.SeedSequence(seed), k)
    )
    marks.append(_clock())

    def search(direction: np.ndarray) -> tuple[float, bool, int, str]:
        try:
            return (*find_radius(spec, direction, opts), "")
        except (RadiusSearchError, CostEvaluationError) as exc:
            return math.nan, False, exc.evals, f"{type(exc).__name__}: {exc}"

    radii, truncated, evals, failures = zip(*map(search, directions))
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
        truncated_count=sum(1 for s in samples if s.truncated),
        failed_count=sum(1 for s in samples if s.failed),
        stage_seconds={
            stage: {"cpu": cpu1 - cpu0, "wall": wall1 - wall0}
            for stage, (cpu0, wall0), (cpu1, wall1) in zip(STAGES, marks, marks[1:])
        },
    )
