"""Tests for boundary search, radial integrals, and the volume estimator."""

import dataclasses
import functools
import math
import os
import threading
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from starvol import blas, geometry
from starvol.geometry import (
    FIRST_START,
    MAX_EVALS,
    CostEvaluationError,
    EstimationError,
    STAGES,
    MeasureSpec,
    NeighborhoodSpec,
    RadialSample,
    RadiusSearchError,
    SearchOptions,
    VolumeEstimate,
    estimate_local_volume,
    find_radius,
    gaussian_radial_log_integral,
    sample_directions,
)
from starvol.logspace import log_sphere_area, log_sum_exp
from starvol.models import (
    AdamHyper,
    TrainConfig,
    adam_train,
    hessian_diag,
    hessian_full,
    init_params,
    make_blobs,
    make_kl_cost,
    make_loss_cost,
    split_dataset,
)
from oracles import Ellipsoid, ellipsoid_log_volume_exact, ellipsoid_radius
from starvol.precondition import Preconditioner, PreconditionerError, eigendecompose, from_diagonal


def quad_log_integral(anchor, direction, radius, sigma, n):
    """Adaptive-quadrature reference for the Gaussian ray integral.

    Integrates the literal integrand rho(anchor + r d) r^{n-1} after shifting
    by the peak of its log, so the comparison is independent of every
    closed-form route in the implementation.
    """
    sig2 = sigma * sigma
    a = float(np.sum(direction * direction / sig2))
    b = float(np.sum(anchor * direction / sig2))
    c0 = float(np.sum(anchor * anchor / sig2))
    base = -0.5 * float(np.sum(np.log(2.0 * math.pi * sig2)))
    rstar = (-b + math.sqrt(b * b + 4.0 * a * (n - 1))) / (2.0 * a) if n > 1 else max(-b / a, 0.0)

    def h(r):
        return base - 0.5 * (c0 + a * r * r + 2.0 * b * r) + (n - 1) * math.log(r)

    top = min(rstar, radius) if rstar > 0 else radius
    shift = h(top) if top > 0 else h(radius)
    pts = [rstar] if 0.0 < rstar < radius else None
    val, err = quad(
        lambda r: math.exp(h(r) - shift) if r > 0 else 0.0,
        0.0,
        radius,
        points=pts,
        limit=400,
        epsabs=0.0,
        epsrel=1e-12,
    )
    assert err < 1e-9 * abs(val)
    return shift + math.log(val)


def mp_log_integral(n, x0, s, radius):
    """Arbitrary-precision reference for the integral along an axis-aligned ray.

    The ray starts at anchor x0 * e1 and runs along e1 through the isotropic
    Gaussian with std s in n dimensions, so the log-integrand is
    base - (a r^2 + 2 b r) / 2 + (n - 1) log r with a = 1 / s^2 and
    b = x0 / s^2, all taken exactly from the float inputs. For n = 1 the
    maximum can sit at r = 0, and the integral is a closed-form difference
    of erfc at 50 digits, reflected so both terms are tail values. Otherwise
    the log-integrand is shifted by its maximum on [0, radius] and
    integrated at 30 digits, with breakpoints spaced by its curvature width
    around that maximum.
    """
    with mp.workdps(50 if n == 1 else 30):
        x0, s = mp.mpf(x0), mp.mpf(s)
        A, B = 1 / (s * s), x0 / (s * s)
        base = -mp.mpf(n) / 2 * mp.log(2 * mp.pi) - n * mp.log(s) - x0 * x0 / (2 * s * s)
        R = mp.inf if math.isinf(radius) else mp.mpf(radius)
        if n == 1:
            c = mp.sqrt(2 * A)
            lower, upper = B / c, (A * R + B) / c
            if upper <= 0:  # erfc(u) - erfc(v) = erfc(-v) - erfc(-u)
                lower, upper = -upper, -lower
            val = mp.sqrt(mp.pi / (2 * A)) * (mp.erfc(lower) - mp.erfc(upper))
            return float(base + B * B / (2 * A) + mp.log(val))

        def h(r):
            return -(A * r * r + 2 * B * r) / 2 + (n - 1) * mp.log(r)

        top = min((-B + mp.sqrt(B * B + 4 * A * (n - 1))) / (2 * A), R)
        shift = h(top)
        width = 1 / mp.sqrt(A + (n - 1) / (top * top))
        # past 40 widths beyond the maximum h has fallen by hundreds of nats,
        # far below the working precision, so the range ends there
        end = min(R, top + 40 * width)
        marks = sorted(top + k * width for k in (-40, -10, -3, 0, 3, 10))
        points = [mp.mpf(0)] + [p for p in marks if 0 < p < end] + [end]
        val = mp.quad(lambda r: mp.exp(h(r) - shift) if r > 0 else mp.mpf(0), points)
        return float(base + shift + mp.log(val))


def _axis_ray(n, x0, s):
    anchor = np.zeros(n)
    anchor[0] = x0
    direction = np.zeros(n)
    direction[0] = 1.0
    return anchor, direction, np.full(n, s)


def _bisection_evals(profile, start, rel_tol):
    """Cost evaluations a doubling-and-bisection search spends on a 1-D ray.

    The reference for the radius search's evaluation budget: a doubling
    bracket, then plain halving until the width is at most rel_tol times
    the lower end. The profile must cross the cutoff 1.
    """
    evals = 0

    def inside(r):
        nonlocal evals
        evals += 1
        return profile(r) < 1.0

    lo, r = 0.0, start
    while inside(r):
        lo, r = r, 2.0 * r
    hi = r
    while not (lo > 0.0 and hi - lo <= rel_tol * lo):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return evals


# radial cost profiles along a ray, all crossing the cutoff 1 once
RADIAL_PROFILES = {
    "quadratic": lambda r: 0.5 * r * r,
    "step": lambda r: 0.0 if r < 0.7 else 5.0,
    "negative-inside": lambda r: r * r - 0.5,
    "steep-exponential": lambda r: math.exp(min(40.0 * r, 700.0)) - 1.0,
    "kink": lambda r: 0.3 * r if r < 0.6 else 0.18 + 5.0 * (r - 0.6),
    "flat-then-wall": lambda r: 0.01 if r < 0.8 else 0.01 + 1e4 * (r - 0.8),
    # dips below its anchor cost 0.2 out to r = 1, where the search model
    # log(cost - 0.2) is undefined, then crosses at (1 + sqrt(4.2)) / 2
    "descent": lambda r: 0.2 - r + r * r,
}


def _profile_search(profile, opts=None, start=FIRST_START):
    """find_radius on the 1-D ray of ``profile`` from ``start``; returns (radius, evaluations).

    The spec evaluates the anchor cost profile(0) when it is built; that
    evaluation is not counted as a search evaluation.
    """
    evals = 0

    def cost(x):
        nonlocal evals
        evals += 1
        return profile(float(x[0]))

    spec = NeighborhoodSpec(np.zeros(1), cost, 1.0, MeasureSpec.lebesgue())
    assert spec.anchor_cost == profile(0.0)
    evals = 0
    radius, truncated, counted = find_radius(spec, np.array([1.0]), opts, start)
    assert not truncated
    assert counted == evals
    return radius, evals


class TestFindRadius:
    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-10])
    @pytest.mark.parametrize("start", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("name", sorted(RADIAL_PROFILES))
    def test_secant_search_contract(self, name, start, rel_tol):
        profile = RADIAL_PROFILES[name]
        opts = SearchOptions(rel_tol=rel_tol)
        radius, evals = _profile_search(profile, opts, start)
        assert profile(radius) < 1.0
        # the bracket is at most rel_tol * radius wide, so the cutoff is
        # reached within that distance outward
        assert profile(radius * (1.0 + 3.0 * rel_tol)) >= 1.0
        reference = _bisection_evals(profile, start, rel_tol)
        assert evals <= 2 * reference
        if name == "quadratic":
            assert 2 * evals <= reference
        assert _profile_search(profile, opts, start) == (radius, evals)

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-10])
    @pytest.mark.parametrize("start", [0.01, 1.0, 100.0])
    def test_shallow_step_stays_within_three_bisections(self, start, rel_tol):
        # a jump from far below the cutoff to just above it puts every
        # secant root next to the outer end, so each secant step gains only
        # a quarter tolerance; the stall guard then bisects every third step
        def profile(r):
            return 1e-6 if r < 0.7 else 1.0001

        radius, evals = _profile_search(profile, SearchOptions(rel_tol=rel_tol), start)
        assert profile(radius) < 1.0 <= profile(radius * (1.0 + 3.0 * rel_tol))
        assert evals <= 3 * _bisection_evals(profile, start, rel_tol)

    def test_stops_at_float_resolution(self):
        # no two doubles near sqrt(2) lie within a 1e-17 relative tolerance,
        # so narrowing stops once the midpoint is an end of the bracket: at
        # the largest double whose cost 0.5 r^2 is below the cutoff 1
        spec = NeighborhoodSpec(np.zeros(1), lambda x: 0.5 * float(x[0]) ** 2, 1.0, MeasureSpec.lebesgue())
        radius, truncated, _ = find_radius(spec, np.array([1.0]), SearchOptions(rel_tol=1e-17))
        assert (radius, truncated) == (1.414213562373095, False)
        assert 0.5 * radius**2 < 1.0 < 0.5 * math.nextafter(radius, 2.0) ** 2 == 1.0000000000000002

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 28")
    def test_returns_the_first_crossing(self):
        # the cost rises above the cutoff 1 on (0.4, 0.6) and falls back
        # below it; the star domain ends at 0.4, but the search, started
        # at radius 1, brackets from there out to the cap
        def cost(x):
            r = abs(float(x[0]))
            return 0.01 * r * r + (2.0 if 0.4 < r < 0.6 else 0.0)

        spec = NeighborhoodSpec(np.zeros(1), cost, 1.0, MeasureSpec.lebesgue())
        radius, _, _ = find_radius(spec, np.array([1.0]))
        assert radius <= 0.4

    @pytest.mark.parametrize("start", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("c0", [0.0, 0.3, -2.0])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_power_profile_meets_its_closed_form_root(self, p, c0, start):
        # the cost c0 + q r^p reaches the cutoff 1 at ((1 - c0) / q)^(1/p); on
        # it the search model log((cost - c0) / (1 - c0)) is exactly linear
        # in log r, with slope p
        q = 0.7
        root = ((1.0 - c0) / q) ** (1.0 / p)

        def profile(r):
            return c0 + q * r**p

        opts = SearchOptions()
        radius, evals = _profile_search(profile, opts, start)
        assert profile(radius) < 1.0 and radius < root
        assert root - radius <= opts.rel_tol * radius
        if p == 2:
            assert evals <= 4

    def test_anchor_cost_must_be_below_the_cutoff(self):
        # the spec checks the anchor once, so no search starts from outside
        with pytest.raises(EstimationError, match="anchor cost 1.0 is not below the cutoff 1.0"):
            NeighborhoodSpec(np.zeros(2), lambda x: 1.0, 1.0, MeasureSpec.lebesgue())
        with pytest.raises(CostEvaluationError, match="at the anchor"):
            NeighborhoodSpec(np.zeros(2), lambda x: math.inf, 1.0, MeasureSpec.lebesgue())

    def test_budget_exhaustion_mid_search_carries_bracket(self, monkeypatch):
        # a step from the anchor cost to above the cutoff at 1.3 * 2^492: under
        # a Lebesgue cap of 1e300, the bracket stage doubles from 1 to 2^493
        # (494 evaluations), and the bisections to the 1e-4 tolerance need 14
        # more, so the budget runs out inside the bracket [2^492, 2^493]
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 1e300)
        wall = 1.3 * 2.0**492
        with pytest.raises(RadiusSearchError, match="did not converge") as info:
            _profile_search(lambda r: 0.0 if r < wall else 5.0)
        lo, hi = info.value.bracket
        assert 2.0**492 <= lo < wall < hi <= 2.0**493
        assert info.value.evals == MAX_EVALS == 500

    def test_ray_without_interior_point_fails_within_budget(self):
        # cost 0 at the anchor and 5 (above the cutoff 1) everywhere else:
        # narrowing gives up once hi falls below 2^-50 of the first bracket
        # instead of spending the whole MAX_EVALS budget
        n = 10
        direction = np.zeros(n)
        direction[0] = 1.0
        spec = NeighborhoodSpec(
            np.zeros(n), lambda x: 5.0 if np.any(x) else 0.0, 1.0, MeasureSpec.lebesgue()
        )
        with pytest.raises(RadiusSearchError, match="no interior point found along ray") as info:
            find_radius(spec, direction)
        assert info.value.evals <= 60
        assert info.value.bracket[0] == 0.0
        # a tiny but real neighborhood is still found, well above the floor
        spec = NeighborhoodSpec(
            np.zeros(n), lambda x: float(x @ x) / 1e-28, 1.0, MeasureSpec.lebesgue()
        )
        radius, truncated, evals = find_radius(spec, direction)
        assert not truncated
        assert 1e-14 * (1.0 - 1e-4) <= radius < 1e-14
        assert evals <= 4

    def test_quadratic_boundary_per_axis(self):
        e = Ellipsoid(np.array([0.5, 1.0]))
        spec = e.neighborhood()
        opts = SearchOptions(rel_tol=1e-10)
        r1, t1, _ = find_radius(spec, np.array([1.0, 0.0]), opts)
        r2, t2, _ = find_radius(spec, np.array([0.0, -1.0]), opts)
        assert not t1 and not t2
        assert r1 == pytest.approx(0.5, rel=1e-9)
        assert r2 == pytest.approx(1.0, rel=1e-9)

    def test_returned_radius_is_interior_and_tight(self):
        rng = np.random.default_rng(4)
        e = Ellipsoid(np.exp(rng.uniform(-1, 1, size=5)))
        spec = e.neighborhood()
        opts = SearchOptions(rel_tol=1e-6)
        for _ in range(20):
            d = rng.standard_normal(5)
            d /= np.linalg.norm(d)
            r, truncated, _ = find_radius(spec, d, opts)
            assert not truncated
            assert spec.cost(spec.anchor + r * d) < spec.cutoff
            # the cutoff crossing sits within the relative bracket width
            assert spec.cost(spec.anchor + r * (1 + 3e-6) * d) >= spec.cutoff
            assert r == pytest.approx(ellipsoid_radius(e, d), rel=1e-5)

    def test_flat_cost_truncates_at_cap(self, monkeypatch):
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 32.0)
        spec = NeighborhoodSpec(
            anchor=np.zeros(2), cost=lambda x: 0.0, cutoff=1.0, measure=MeasureSpec.lebesgue()
        )
        r, truncated, _ = find_radius(spec, np.array([1.0, 0.0]))
        assert truncated
        assert r == 32.0

    def test_bracketing_budget_exhaustion(self, monkeypatch):
        # under a Lebesgue cap of 1e300 a flat ray doubles from 1 to 2^499 without a crossing
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 1e300)
        spec = NeighborhoodSpec(
            anchor=np.zeros(1), cost=lambda x: 0.0, cutoff=1.0, measure=MeasureSpec.lebesgue()
        )
        with pytest.raises(RadiusSearchError, match="bracketing exhausted") as info:
            find_radius(spec, np.array([1.0]))
        assert info.value.bracket == (2.0**499, 2.0**500)
        assert info.value.evals == MAX_EVALS

    def test_non_finite_cost_is_error(self):
        spec = NeighborhoodSpec(
            anchor=np.zeros(1),
            cost=lambda x: float("nan") if x[0] != 0 else 0.0,
            cutoff=1.0,
            measure=MeasureSpec.lebesgue(),
        )
        with pytest.raises(CostEvaluationError) as info:
            find_radius(spec, np.array([1.0]))
        assert info.value.evals == 1

    @pytest.mark.parametrize("start", [0.0, -1.0, math.nan, math.inf])
    def test_start_must_be_positive_and_finite(self, start):
        # each used to be searched: 0 spent the whole budget, -1 raised a
        # bare math domain error, and nan and inf were read at the cap
        reads = []

        def cost(x):
            reads.append(x)
            return 0.5 * float(x @ x)

        spec = NeighborhoodSpec(np.zeros(2), cost, 1.0, MeasureSpec.lebesgue())
        reads.clear()
        with pytest.raises(ValueError, match=f"^start must be positive and finite, got {start}$"):
            find_radius(spec, np.array([1.0, 0.0]), start=start)
        assert reads == []

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", math.nan),
        ("threads", -3), ("threads", 0),
    ])
    def test_options_are_validated_when_built(self, field, value):
        # each value used to be accepted: rel_tol=-1 ran to float resolution
        # and threads=-3 ran serially
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SearchOptions(**{field: value})


# closed-form radial profiles and the radius where each crosses the cutoff 1;
# the wall's exponent is capped, so a start 100 times out reads a finite cost
ABOVE_PROFILES = {
    "quadratic": (lambda r: 0.5 * r * r, math.sqrt(2.0)),
    "r^8": (lambda r: (r / 0.8) ** 8, 0.8),
    "sqrt": (lambda r: math.sqrt(0.5 * r), 2.0),
    "kink": (lambda r: 0.3 * r if r < 0.6 else 0.18 + 5.0 * (r - 0.6), 0.6 + 0.82 / 5.0),
    "wall": (lambda r: math.expm1(min(50.0 * r * r, 700.0)), math.sqrt(math.log(2.0) / 50.0)),
}
ABOVE_STARTS = (1.03, 2.0, 100.0)  # the start over the crossing radius
# cost evaluations of a search from each of ABOVE_STARTS, as measured: each is a budget
ABOVE_BUDGETS = {
    "quadratic": (4, 4, 4),
    "r^8": (4, 4, 4),
    "sqrt": (4, 4, 4),
    "kink": (5, 7, 11),
    "wall": (5, 7, 10),
}


def _steered_spec(profile, reads):
    """The 1-D ray of ``profile``, whose float32 form reads the profile at the
    radius rounded to float32; each evaluation is logged to ``reads`` as (form, r)."""

    def cost(x):
        return profile(float(x[0]))

    def along(origin):
        def line(direction):
            def exact(r):
                reads.append(("float64", r))
                return profile(float(origin[0] + r * direction[0]))

            def approx(r):
                reads.append(("float32", r))
                return profile(float(np.float32(origin[0] + r * direction[0])))

            exact.approx = approx
            return exact

        return line

    cost.along = along
    return NeighborhoodSpec(np.zeros(1), cost, 1.0, MeasureSpec.lebesgue())


class TestSearchFromAbove:
    """A start at or above the cutoff steps back inside as a bracket step steps out."""

    @pytest.mark.parametrize("factor", ABOVE_STARTS)
    @pytest.mark.parametrize("name", sorted(ABOVE_PROFILES))
    def test_start_above_the_crossing(self, name, factor):
        profile, root = ABOVE_PROFILES[name]
        start = factor * root
        reads = []
        opts = SearchOptions()
        radius, truncated, evals = find_radius(_steered_spec(profile, reads), np.array([1.0]), opts, start)
        assert not truncated and evals == len(reads)
        assert abs(radius - root) <= opts.rel_tol * root
        assert profile(radius) < 1.0 and ("float64", radius) in reads
        # the start and the step back inside both steer, in float32
        assert reads[0] == ("float32", start)
        assert reads[1][0] == "float32" and reads[1][1] < start
        assert evals <= ABOVE_BUDGETS[name][ABOVE_STARTS.index(factor)]

    def test_start_at_the_cap_above_the_crossing(self, monkeypatch):
        # a start past the cap reads the cap in float64, then steps back inside in float32
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 4.0)
        profile, root = ABOVE_PROFILES["quadratic"]
        reads = []
        opts = SearchOptions()
        radius, truncated, evals = find_radius(_steered_spec(profile, reads), np.array([1.0]), opts, 100.0)
        assert not truncated and abs(radius - root) <= opts.rel_tol * root
        assert [form for form, _ in reads[:2]] == ["float64", "float32"]
        assert reads[0][1] == 4.0 and reads[1][1] < root
        assert evals <= ABOVE_BUDGETS["quadratic"][1]


def one_direction(precond, rng):
    """One direction and its log-norm, drawn as row 0 of a one-row block."""
    block, log_norms = sample_directions(precond, [rng])
    return block[0], log_norms[0]


# one map of each kind at n=7, for the per-ray sampling checks
RAY_MAPS = {
    "identity": Preconditioner.identity(7),
    "diagonal": Preconditioner.diagonal(np.array([3.0, 0.5, 1.0, 2.0, 0.25, 1.5, 0.8])).normalize_unit_det(),
    "dense": Ellipsoid(
        np.array([2.0, 1.0, 0.25, 0.5, 1.5, 0.8, 1.2]),
        rotation=np.linalg.qr(np.random.default_rng(4).normal(size=(7, 7)))[0],
    ).exact_preconditioner(),
}
# seeds of 1, 1, 1, 2, 3, 5 and 7 words of 32 bits: past 4 words, numpy's
# SeedSequence mixes the extra words in before a child's spawn word
RAY_SEEDS = {
    "21": 21,
    "0": 0,
    "2^32-1": 2**32 - 1,
    "2^32": 2**32,
    "2^64+5": 2**64 + 5,
    "2^128+3": 2**128 + 3,
    "2^200+1": 2**200 + 1,
}


class TestSampleDirection:
    def test_identity_unit_norm_zero_correction(self):
        rng = np.random.default_rng(0)
        v, log_norm = one_direction(Preconditioner.identity(16), rng)
        assert log_norm == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_importance_norm_consistent_with_map(self):
        # pulling the output back through the map must recover a unit vector
        # scaled by exp(-log_norm)
        p = Preconditioner.diagonal(np.array([2.0, 1.0, 0.25]))
        rng = np.random.default_rng(1)
        for _ in range(10):
            v, log_norm = one_direction(p, rng)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            back = v / p.scale
            assert np.linalg.norm(back) == pytest.approx(math.exp(-log_norm), rel=1e-12)

    def test_shaping_prefers_stretched_axes(self):
        e = Ellipsoid(np.array([8.0, 1.0, 1.0, 1.0]))
        p = e.exact_preconditioner()
        # one block of 2000 rows drawn in turn from one stream
        long_axis = np.mean(np.abs(sample_directions(p, [np.random.default_rng(2)] * 2000)[0][:, 0]))
        identity = Preconditioner.identity(4)
        raw = np.mean(np.abs(sample_directions(identity, [np.random.default_rng(2)] * 2000)[0][:, 0]))
        assert long_axis > 2.0 * raw

    @pytest.mark.parametrize("scale, basis", [(np.ones(2), np.zeros((2, 2))), (np.full(2, 1e200), None)],
                             ids=["zero-basis", "overflowing-scale"])
    def test_zero_or_non_finite_direction_is_refused(self, scale, basis):
        # a basis is not checked for orthonormality, and a large scale overflows the row's norm
        p = Preconditioner.diagonal(scale, basis=basis)
        with pytest.raises(PreconditionerError, match="^preconditioner produced a zero or non-finite direction$"):
            sample_directions(p, [np.random.default_rng(0)])

    def test_reproducible_for_equal_seeds(self):
        p = Preconditioner.diagonal(np.array([3.0, 0.5]))
        v1, l1 = one_direction(p, np.random.default_rng(9))
        v2, l2 = one_direction(p, np.random.default_rng(9))
        assert l1 == l2
        np.testing.assert_array_equal(v1, v2)

    def test_dense_rows_match_recomposed_map(self):
        # stream i's normalized draw z_i is taken in the map's axes, so row i
        # is M (V z_i) / |M (V z_i)| for the recomposed M = V diag(s) V^T,
        # and its log-norm is log |s * z_i|
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        p = Preconditioner.diagonal(rng.uniform(0.2, 3.0, size=9), basis=q)
        matrix = (q * p.scale) @ q.T
        children = np.random.SeedSequence(5).spawn(6)
        block, log_norms = sample_directions(p, [np.random.default_rng(c) for c in children])
        for row, log_norm, child in zip(block, log_norms, children):
            z = np.random.default_rng(child).standard_normal(9)
            z /= np.linalg.norm(z)
            mapped = matrix @ (q @ z)
            np.testing.assert_allclose(row, mapped / np.linalg.norm(mapped), rtol=0, atol=1e-13)
            assert log_norm == pytest.approx(math.log(np.linalg.norm(p.scale * z)), rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 3, 9, 100, 4810])
    @pytest.mark.parametrize("kind", ["identity", "diagonal"])
    def test_rows_equal_the_per_row_draw(self, kind, n):
        # each row is drawn in place and normed as sqrt(v . v); the bits must
        # be those of a fresh draw per row, np.linalg.norm and np.divide
        p = Preconditioner.identity(n)
        if kind == "diagonal":
            p = Preconditioner.diagonal(np.random.default_rng(n).uniform(0.2, 3.0, n)).normalize_unit_det()
        children = np.random.SeedSequence(n).spawn(8)
        block, log_norms = sample_directions(p, [np.random.default_rng(c) for c in children])
        for row, log_norm, child in zip(block, log_norms, children):
            z = np.random.default_rng(child).standard_normal(n)
            want, want_log_norm = np.divide(z, np.linalg.norm(z)), 0.0
            if kind == "diagonal":
                mapped = want * p.scale
                norm = float(np.linalg.norm(mapped))
                want, want_log_norm = np.divide(mapped, norm), math.log(norm)
            np.testing.assert_array_equal(row, want)
            assert log_norm == want_log_norm


    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_a_long_draw_does_not_depend_on_the_blas_thread_count(self):
        # each norm of a 12,000-entry row is a dot that OpenBLAS splits over
        # two threads, which changes its last bits, unless held to one
        setter = blas._thread_setter("numpy._core._multiarray_umath")
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        n = 12_000
        pre = Preconditioner.diagonal(np.random.default_rng(n).uniform(0.2, 3.0, n)).normalize_unit_det()
        children = np.random.SeedSequence(n).spawn(16)
        draws = []
        previous = setter(2)
        try:
            for threads in (2, 1):
                setter(threads)
                block, log_norms = sample_directions(pre, [np.random.default_rng(c) for c in children])
                draws.append((block.tobytes(), [x.hex() for x in log_norms]))
        finally:
            setter(previous)
        assert draws[0] == draws[1]


class TestLebesgueLogTerm:
    """The aggregate stage's Lebesgue term: log |S^{n-1}| - log n + n log r - n log |v|."""

    @staticmethod
    def _ball(n, radius, precond=None, k=8):
        # every ray of a centered ball meets the boundary at its radius
        def cost(x):
            return 0.5 * float(x @ x) / radius**2

        spec = NeighborhoodSpec(np.zeros(n), cost, 0.5, MeasureSpec.lebesgue())
        precond = precond if precond is not None else Preconditioner.identity(n)
        return estimate_local_volume(spec, precond, k, SearchOptions(rel_tol=1e-12), seed=4)

    def test_unit_disk(self):
        for s in self._ball(2, 1.0).samples:
            assert s.log_term == pytest.approx(math.log(math.pi) + 2.0 * math.log(s.radius), rel=1e-14)
            assert s.log_term == pytest.approx(math.log(math.pi), abs=1e-10)

    def test_ball_radius_two(self):
        want = math.log(32.0 * math.pi / 3.0)
        for s in self._ball(3, 2.0).samples:
            assert s.log_term == pytest.approx(want + 3.0 * math.log(s.radius / 2.0), rel=1e-14)
            assert s.log_term == pytest.approx(want, abs=1e-10)

    def test_importance_correction_scales_with_dim(self):
        p = Preconditioner.diagonal(np.array([2.0, 1.0, 0.25, 0.5, 1.5])).normalize_unit_det()
        est = self._ball(5, 1.5, p)
        base = log_sphere_area(5) - math.log(5.0)
        for s in est.samples:
            assert s.log_importance_norm != 0.0
            want = base + 5 * math.log(s.radius) - 5 * s.log_importance_norm
            assert s.log_term == pytest.approx(want, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        # a ray with no positive radius inside fails and adds zero mass, so
        # no term is ever formed from a radius of 0
        def cost(x):
            return 0.5 * float(x[0] ** 2) if x[0] >= 0.0 else 5.0

        spec = NeighborhoodSpec(np.zeros(1), cost, 1.0, MeasureSpec.lebesgue())
        est = estimate_local_volume(spec, Preconditioner.identity(1), 16, seed=1)
        assert 0 < est.failed_count < 16
        for s in est.samples:
            if s.direction[0] < 0.0:
                assert s.failed and s.log_term == -math.inf and math.isnan(s.radius)
                assert s.failure == "RadiusSearchError: no interior point found along ray"
            else:
                assert s.log_term == pytest.approx(math.log(2.0 * math.sqrt(2.0)), abs=1e-3)

    def test_budget_failure_keeps_its_evaluations(self, monkeypatch):
        # toward negative x the cost steps above the cutoff at 1.3 * 2^492,
        # inside a Lebesgue cap of 1e300, so those rays run out of evaluations
        # while narrowing; each fails with its MAX_EVALS evaluations counted,
        # adds zero mass and still counts in k
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 1e300)
        wall = 1.3 * 2.0**492

        def cost(x):
            if x[0] >= 0.0:
                return 0.5 * float(x[0] ** 2)
            return 0.0 if -x[0] < wall else 5.0

        spec = NeighborhoodSpec(np.zeros(1), cost, 1.0, MeasureSpec.lebesgue())
        est = estimate_local_volume(spec, Preconditioner.identity(1), 16, seed=1)
        reason = "RadiusSearchError: radius search did not converge to rel_tol=0.0001"
        assert 0 < est.failed_count < 16
        assert est.failed_by_reason == {reason: est.failed_count}
        for s in est.samples:
            assert s.failed == (s.direction[0] < 0.0)
            if s.failed:
                assert s.evals == MAX_EVALS and s.log_term == -math.inf
        good = 16 - est.failed_count
        assert est.log_volume == pytest.approx(math.log(good / 16 * 2.0 * math.sqrt(2.0)), abs=1e-3)


class TestGaussianRadialIntegral:
    def test_isotropic_whole_space_mass(self):
        # every ray of a centered isotropic Gaussian carries exactly
        # 1/|S^{n-1}| of the total unit mass
        n = 5
        sigma = np.full(n, 2.5)
        d = np.zeros(n)
        d[0] = 1.0
        got = gaussian_radial_log_integral(np.zeros(n), d, math.inf, sigma, n)
        assert log_sphere_area(n) + got == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_against_quadrature(self):
        anchor = np.array([0.3])
        sigma = np.array([0.7])
        for d in (np.array([1.0]), np.array([-1.0])):
            got = gaussian_radial_log_integral(anchor, d, 1.2, sigma, 1)
            want = quad_log_integral(anchor, d, 1.2, sigma, 1)
            assert got == pytest.approx(want, abs=1e-9)

    def test_orthogonal_anchor_against_quadrature(self):
        # anchor perpendicular to the ray (b = 0)
        anchor = np.array([2.0, 0.0, 0.0])
        d = np.array([0.0, 1.0, 0.0])
        sigma = np.ones(3)
        got = gaussian_radial_log_integral(anchor, d, 1.7, sigma, 3)
        want = quad_log_integral(anchor, d, 1.7, sigma, 3)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
    def test_small_n_against_quadrature(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            anchor = rng.standard_normal(n)
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            sigma = np.exp(rng.uniform(-0.7, 0.7, n))
            radius = float(rng.uniform(0.2, 4.0))
            got = gaussian_radial_log_integral(anchor, d, radius, sigma, n)
            want = quad_log_integral(anchor, d, radius, sigma, n)
            assert got == pytest.approx(want, abs=1e-8)

    def test_mid_n_against_quadrature(self):
        n = 64
        rng = np.random.default_rng(64)
        anchor = rng.standard_normal(n)
        anchor *= math.sqrt(n) / np.linalg.norm(anchor)
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        sigma = np.ones(n)
        rstar = math.sqrt(n - 1)
        got = gaussian_radial_log_integral(anchor, d, 1.5 * rstar, sigma, n)
        want = quad_log_integral(anchor, d, 1.5 * rstar, sigma, n)
        assert got == pytest.approx(want, abs=1e-8)

    def test_high_n_against_quadrature(self):
        n = 200
        rng = np.random.default_rng(200)
        for _ in range(4):
            anchor = rng.standard_normal(n)
            anchor *= math.sqrt(n) / np.linalg.norm(anchor)
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            sigma = np.exp(rng.uniform(-0.5, 0.5, n))
            sig2 = sigma * sigma
            a = float(np.sum(d * d / sig2))
            b = float(np.sum(anchor * d / sig2))
            rstar = (-b + math.sqrt(b * b + 4 * a * (n - 1))) / (2 * a)
            radius = rstar * float(rng.uniform(1.0, 3.0))
            got = gaussian_radial_log_integral(anchor, d, radius, sigma, n)
            want = quad_log_integral(anchor, d, radius, sigma, n)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 10, 128, 129, 500, 4810, 10_000])
    def test_against_mpmath_across_regimes(self, n):
        # both signs of the rescaled slope b~ = b / sqrt(a) up to 1e3, rays
        # ending far before the integrand's peak r*, short of it, at it, far
        # past it, and the whole ray. With the bracket left at its closed-form
        # ends, n = 1 at b~ = 1e3 (whole ray) read 3e-6 low and n = 2 at
        # b~ = -1e3 (R = r*) 1.2e-14 high; with a sqrt(120) right end as well,
        # b~ = +40 (whole ray) read 3e-11 off at n = 10 and 128
        s = 0.7
        for btil in (-1e3, -40.0, -7.5, 0.0, 0.4, 40.0, 1e3):
            peak = (-btil + math.sqrt(btil * btil + 4.0 * (n - 1))) / 2.0
            scale = s * (peak if peak > 0 else 1.0 / max(btil, 1.0))
            for ratio in (0.03, 0.3, 0.8, 1.0, 10.0, math.inf):
                anchor, d, sigma = _axis_ray(n, btil * s, s)
                got = gaussian_radial_log_integral(anchor, d, ratio * scale, sigma, n)
                ref = mp_log_integral(n, btil * s, s, ratio * scale)
                assert math.isfinite(ref)
                assert got <= ref + 1e-14 * max(abs(ref), 1.0), (btil, ratio, got, ref)
                assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0), (btil, ratio, got, ref)

    @pytest.mark.parametrize(
        "n, b, radius", [(10, -20.0, 2.0), (500, -45.0, 20.0), (4810, -300.0, 100.0)]
    )
    def test_ray_ending_before_peak_is_not_overestimated(self, n, b, radius):
        # rays heading toward the prior mean that end before the integrand
        # peaks; an expansion about the peak overestimated these by 9.3, 83.5
        # and 1117 nats. Only float roundoff of the summed terms may remain.
        anchor, d, sigma = _axis_ray(n, b, 1.0)
        got = gaussian_radial_log_integral(anchor, d, radius, sigma, n)
        ref = mp_log_integral(n, b, 1.0, radius)
        assert got <= ref + 1e-14 * abs(ref)
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 10, 4810])
    def test_block_rows_match_single_rays_and_mpmath(self, n):
        # one block: b~ = x.w / sqrt(a) of both signs up to 30, each ray cut
        # at half and twice the integrand's peak radius, and one whole ray
        s, reach = 0.7, 30.0
        rng = np.random.default_rng(n)
        anchor = np.zeros(n)
        anchor[0] = reach * s
        cosines = (-1.0, 1.0) if n == 1 else (-1.0, -0.5, -0.1, 0.0, 0.3, 1.0)
        rows, radii = [], []
        for c in cosines:
            d = np.zeros(n)
            d[0] = c
            if n > 1:
                u = rng.standard_normal(n - 1)
                d[1:] = math.sqrt(1.0 - c * c) * u / np.linalg.norm(u)
            bt = reach * c
            peak = (math.sqrt(bt * bt + 4.0 * (n - 1)) - bt) / 2.0
            scale = s * (peak if peak > 0 else 1.0 / max(bt, 1.0))
            for ratio in (0.5, 2.0):
                rows.append(d)
                radii.append(ratio * scale)
        rows.append(rows[0])
        radii.append(math.inf)
        block, radii = np.array(rows), np.array(radii)
        sigma = np.full(n, s)
        got = gaussian_radial_log_integral(anchor, block, radii, sigma, n)
        assert got.shape == (len(rows),)
        for row, radius, value in zip(block, radii, got):
            alone = gaussian_radial_log_integral(anchor, row, radius, sigma, n)
            assert isinstance(alone, float)
            assert value == pytest.approx(alone, rel=1e-14)
            # rotate the ray onto the first axis: the anchor's part along
            # it is the oracle's, the part across it scales the density
            with mp.workdps(30):
                along = mp.fsum(mp.mpf(x) * mp.mpf(y) for x, y in zip(anchor, row))
                across = mp.mpf(anchor[0]) ** 2 - along**2
                ref = mp_log_integral(n, along, s, radius) - float(across / (2 * mp.mpf(s) ** 2))
            assert abs(value - ref) <= 1e-9 * max(abs(ref), 1.0), (radius, value, ref)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            gaussian_radial_log_integral(np.zeros(2), np.array([1.0, 0.0]), 0.0, np.ones(2), 2)

    def test_rejects_degenerate_direction(self):
        with pytest.raises(ValueError, match="degenerate"):
            gaussian_radial_log_integral(np.zeros(2), np.zeros(2), 1.0, np.ones(2), 2)

    def test_rejects_n_that_disagrees_with_the_vectors(self):
        # n sets the normalization and the r^(n-1) Jacobian, so a wrong n
        # gives a wrong value (-3.2555 at n = 3 on this 2-D ray), never an error
        anchor, d, sigma = np.array([0.3, -0.2]), np.array([0.6, 0.8]), np.array([1.0, 0.5])
        assert gaussian_radial_log_integral(anchor, d, 1.5, sigma, 2) == pytest.approx(-2.0473, abs=1e-4)
        cases = [
            (anchor, d, sigma, 3),
            (anchor, d, sigma, 7),
            (anchor, d, sigma, 1),
            (np.zeros(3), d, sigma, 2),
            (anchor, d, np.ones(3), 2),
            (anchor, np.array([[0.6, 0.8, 0.0]]), sigma, 2),
        ]
        for a, direction, s, n in cases:
            with pytest.raises(ValueError, match="must equal the sizes"):
                gaussian_radial_log_integral(a, direction, 1.5, s, n)


class TestEstimateLocalVolume:
    def test_map_without_unit_determinant_is_refused(self):
        # the log terms assume det 1: this map's estimate would read n log 2
        # (34.66 nats) low, with no warning
        n = 50
        doubled = Preconditioner.diagonal(np.full(n, 2.0))
        spec = Ellipsoid(np.ones(n)).neighborhood()
        with pytest.raises(PreconditionerError, match=f"log det {n * math.log(2.0):.6g} is not 0"):
            estimate_local_volume(spec, doubled, k=16, seed=1)
        # normalized, the same map reads the unit ball's volume, as the identity does
        want = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
        for p in (Preconditioner.identity(n), doubled.normalize_unit_det()):
            est = estimate_local_volume(spec, p, k=16, seed=1)
            assert est.log_volume == pytest.approx(want, abs=n * SearchOptions().rel_tol)

    def test_seed_is_an_int_and_reruns_are_identical(self):
        # a SeedSequence would be spawned from, so passing it twice gave two
        # estimates; True ran as seed 1, and a negative seed was refused by
        # numpy without the word seed
        e = Ellipsoid(np.array([2.0, 1.0, 0.25, 0.5, 1.5]))
        p = Preconditioner.identity(5)
        for not_int in (None, np.random.SeedSequence(7), [7], True):
            with pytest.raises(TypeError):
                estimate_local_volume(e.neighborhood(), p, k=8, seed=not_int)
        for negative in (-7, -1):
            with pytest.raises(ValueError, match=f"seed must be >= 0, got {negative}"):
                estimate_local_volume(e.neighborhood(), p, k=8, seed=negative)
        first, again = (estimate_local_volume(e.neighborhood(), p, k=8, seed=7) for _ in range(2))
        assert first.log_volume == again.log_volume
        assert [s.log_term for s in first.samples] == [s.log_term for s in again.samples]

    def test_unit_ball_is_exact_per_ray(self):
        e = Ellipsoid(np.ones(3))
        est = estimate_local_volume(
            e.neighborhood(),
            Preconditioner.identity(3),
            k=8,
            opts=SearchOptions(rel_tol=1e-12),
            seed=0,
        )
        want = math.log(4.0 * math.pi / 3.0)
        assert est.log_volume == pytest.approx(want, abs=1e-9)
        assert est.truncated_count == 0
        assert est.failed_count == 0
        assert est.n == 3 and est.k == 8
        assert est.log10_volume == pytest.approx(est.log_volume / math.log(10.0))
        assert not est.lower_bound_only
        for s in est.samples:
            assert s.radius == pytest.approx(1.0, rel=1e-10)

    def test_exact_preconditioner_kills_variance(self):
        e = Ellipsoid(np.array([2.0, 1.0, 0.25, 0.5, 1.5, 0.8]))
        est = estimate_local_volume(
            e.neighborhood(),
            e.exact_preconditioner(),
            k=32,
            opts=SearchOptions(rel_tol=1e-10),
            seed=1,
        )
        terms = [s.log_term for s in est.samples]
        assert max(terms) - min(terms) < 1e-6
        assert est.log_volume == pytest.approx(ellipsoid_log_volume_exact(e), abs=1e-6)
        assert est.preconditioner_id == "exact[diagonal,n=6]"

    def test_rotated_exact_preconditioner_kills_variance(self):
        # acceptance 02's ellipsoid, rotated, so its exact map is dense: every
        # ray drawn in the map's axes must recover the exact volume
        q, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(50, 50)))
        e = Ellipsoid(np.geomspace(1e-2, 1e2, 50), rotation=q)
        p = e.exact_preconditioner()
        assert p.describe() == "exact[dense,n=50]"
        assert p.log_det() == pytest.approx(0.0, abs=1e-12)
        est = estimate_local_volume(
            e.neighborhood(), p, k=32, opts=SearchOptions(rel_tol=1e-10), seed=2
        )
        exact = ellipsoid_log_volume_exact(e)
        assert max(abs(s.log_term - exact) for s in est.samples) < 1e-6

    def test_dense_map_is_unbiased_at_small_n(self):
        # acceptance 03 on the dense route: a rotated map that is not the
        # ellipsoid's own shape, 10^4 estimates of k=1
        def turn(angle):
            c, s = math.cos(angle), math.sin(angle)
            return np.array([[c, -s], [s, c]])

        spec = Ellipsoid(np.array([1.5, 0.5]), rotation=turn(0.4)).neighborhood()
        p = Preconditioner.diagonal(np.array([2.0, 0.5]), basis=turn(1.1)).normalize_unit_det()
        assert p.kind == "dense"
        vals = np.array([
            math.exp(estimate_local_volume(spec, p, k=1, seed=s).log_volume) for s in range(10_000)
        ])
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - math.pi * 1.5 * 0.5) <= 3.0 * stderr

    def test_plain_monte_carlo_converges(self):
        e = Ellipsoid(np.array([2.0, 1.0, 0.5]))
        est = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=4096, seed=3)
        terms = np.array([s.log_term for s in est.samples])
        shift = terms.max()
        lin = np.exp(terms - shift)
        stderr = float(lin.std() / math.sqrt(lin.size))
        want_lin = math.exp(ellipsoid_log_volume_exact(e) - shift)
        assert abs(lin.mean() - want_lin) < 3.0 * stderr

    def test_naive_estimate_sits_below_truth_on_wide_spectra(self):
        # per-sample terms are roughly log-normal, so the k-sample mean of the
        # log estimate lands well under the true log volume
        e = Ellipsoid(np.logspace(-2.0, 2.0, 32))
        est = estimate_local_volume(e.neighborhood(), Preconditioner.identity(32), k=64, seed=7)
        assert est.log_volume < ellipsoid_log_volume_exact(e)

    def test_volume_grows_with_cutoff(self):
        e = Ellipsoid(np.array([1.0, 0.7]))
        cost = e.cost()
        small = NeighborhoodSpec(np.zeros(2), cost, 0.1, MeasureSpec.lebesgue())
        large = NeighborhoodSpec(np.zeros(2), cost, 0.4, MeasureSpec.lebesgue())
        p = Preconditioner.identity(2)
        v_small = estimate_local_volume(small, p, k=16, seed=5).log_volume
        v_large = estimate_local_volume(large, p, k=16, seed=5).log_volume
        assert v_large > v_small

    def test_same_seed_is_bit_identical(self):
        e = Ellipsoid(np.array([1.0, 2.0, 0.5]))
        a = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=32, seed=11)
        b = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=32, seed=11)
        assert a.log_volume == b.log_volume
        c = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=32, seed=12)
        assert c.log_volume != a.log_volume

    def test_thread_count_does_not_change_result(self):
        e = Ellipsoid(np.array([1.0, 2.0, 0.5, 0.25]))
        serial = estimate_local_volume(
            e.neighborhood(), Preconditioner.identity(4), k=64, seed=13
        )
        parallel = estimate_local_volume(
            e.neighborhood(),
            Preconditioner.identity(4),
            k=64,
            opts=SearchOptions(threads=4),
            seed=13,
        )
        assert serial.log_volume == parallel.log_volume
        for s, p in zip(serial.samples, parallel.samples):
            assert s.log_term == p.log_term

    def test_rays_run_on_the_calling_thread(self):
        # threads=4 is accepted but starts no thread: every evaluation, at the
        # anchor and along each ray, comes from the caller
        seen = []

        def cost(x):
            seen.append((threading.get_ident(), threading.active_count()))
            return 0.5 * float(x @ x)

        before = threading.active_count()
        spec = NeighborhoodSpec(np.full(3, 0.1), cost, 1.0, MeasureSpec.lebesgue())
        est = estimate_local_volume(
            spec, Preconditioner.identity(3), k=16, opts=SearchOptions(threads=4), seed=3
        )
        assert est.failed_count == 0 and len(seen) > 16
        assert set(seen) == {(threading.get_ident(), before)}
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "name, seed, k",
        # seed 21 at k=16 under the map's name alone; the other seeds take
        # one to seven 32-bit words of entropy
        [pytest.param(name, 21, 16, id=name) for name in RAY_MAPS]
        + [
            pytest.param(name, seed, k, id=f"{name}-{label}-k{k}")
            for name in RAY_MAPS
            for label, seed in RAY_SEEDS.items()
            for k in (1, 2, 48, 128)
        ],
    )
    def test_directions_match_per_ray_sampling(self, name, seed, k):
        # the estimate maps all k directions in one block; ray i must still
        # be the one-row draw from child stream i
        precond = RAY_MAPS[name]
        e = Ellipsoid(np.array([2.0, 1.0, 0.25, 0.5, 1.5, 0.8, 1.2]))
        est = estimate_local_volume(e.neighborhood(), precond, k=k, seed=seed)
        children = np.random.SeedSequence(seed).spawn(k)
        assert len(est.samples) == k
        for sample, child in zip(est.samples, children):
            want, log_norm = one_direction(precond, np.random.default_rng(child))
            if precond.kind == "dense":
                np.testing.assert_allclose(sample.direction, want, rtol=0, atol=1e-13)
                assert sample.log_importance_norm == pytest.approx(log_norm, abs=1e-13)
            else:
                np.testing.assert_array_equal(sample.direction, want)
                assert sample.log_importance_norm == log_norm

    def test_dense_thread_count_does_not_change_result(self):
        rotation = np.linalg.qr(np.random.default_rng(6).normal(size=(5, 5)))[0]
        e = Ellipsoid(np.array([1.0, 2.0, 0.5, 0.25, 3.0]), rotation=rotation)
        p = Preconditioner.diagonal(np.array([1.5, 1.0, 0.5, 2.0, 0.8]), basis=rotation).normalize_unit_det()
        serial = estimate_local_volume(e.neighborhood(), p, k=64, seed=14)
        parallel = estimate_local_volume(
            e.neighborhood(), p, k=64, opts=SearchOptions(threads=4), seed=14
        )
        assert serial.log_volume == parallel.log_volume
        for s, q in zip(serial.samples, parallel.samples):
            assert s.log_term == q.log_term
            np.testing.assert_array_equal(s.direction, q.direction)

    def test_sample_directions_are_readonly(self):
        e = Ellipsoid(np.array([1.0, 2.0, 0.5]))
        est = estimate_local_volume(
            e.neighborhood(), Preconditioner.diagonal(np.array([2.0, 1.0, 0.5])), k=4, seed=2
        )
        for s in est.samples:
            with pytest.raises(ValueError):
                s.direction[0] = 1.0

    def test_failed_rays_count_as_zero_mass(self):
        # cost turns non-finite past a wall, so rays into the wall fail and
        # must drag the average down instead of being resampled
        def cost(x):
            if x[0] > 0.5:
                return float("nan")
            return 0.5 * float(np.sum(x * x))

        spec = NeighborhoodSpec(np.zeros(3), cost, 0.5, MeasureSpec.lebesgue())
        est = estimate_local_volume(spec, Preconditioner.identity(3), k=64, seed=17)
        assert 0 < est.failed_count < 64
        assert math.isfinite(est.log_volume)
        ball = math.log(4.0 * math.pi / 3.0)
        assert est.log_volume < ball
        reason = "CostEvaluationError: cost evaluation failed: non-finite value nan"
        for s in est.samples:
            assert s.failure == (reason if s.failed else "")
            assert s.evals >= 1
            if s.failed:
                assert s.log_term == float("-inf")
                assert math.isnan(s.radius)
        assert est.failed_by_reason == {reason: est.failed_count}
        assert est.cost_evals == sum(s.evals for s in est.samples)

    def test_one_radial_integral_call_covers_the_good_rays(self, monkeypatch):
        # rays into the wall fail; the Gaussian estimate integrates the
        # others in one call, and a Lebesgue estimate never integrates
        def cost(x):
            return float("nan") if x[0] > 0.5 else 0.5 * float(x @ x)

        blocks = []
        integrate = geometry.gaussian_radial_log_integral

        def counted(anchor, direction, radius, sigma, n):
            blocks.append(direction.shape)
            return integrate(anchor, direction, radius, sigma, n)

        monkeypatch.setattr(geometry, "gaussian_radial_log_integral", counted)
        n, sigma = 3, np.array([0.5, 1.0, 2.0])
        spec = NeighborhoodSpec(np.zeros(n), cost, 0.5, MeasureSpec.gaussian(sigma))
        est = estimate_local_volume(spec, Preconditioner.diagonal(sigma), k=32, seed=17)
        assert 0 < est.failed_count < 32
        assert blocks == [(32 - est.failed_count, n)]
        for s in est.samples:
            if s.failed:
                assert s.log_term == -math.inf
                assert s.failure.startswith("CostEvaluationError: ")
            else:
                alone = integrate(spec.anchor, s.direction, s.radius, sigma, n)
                want = log_sphere_area(n) + alone - n * s.log_importance_norm
                assert s.log_term == pytest.approx(want, rel=1e-14)
        lebesgue = NeighborhoodSpec(np.zeros(n), cost, 0.5, MeasureSpec.lebesgue())
        assert estimate_local_volume(lebesgue, Preconditioner.identity(n), k=32, seed=17).failed_count
        assert len(blocks) == 1

    def test_cost_evals_count_every_search_evaluation(self):
        calls = 0

        def cost(x):
            nonlocal calls
            calls += 1
            return 0.5 * float(x @ x)

        spec = NeighborhoodSpec(np.zeros(3), cost, 0.5, MeasureSpec.lebesgue())
        est = estimate_local_volume(spec, Preconditioner.identity(3), k=16, seed=3)
        assert est.cost_evals == calls - 1  # the anchor check is not a search evaluation
        assert all(s.evals >= 2 for s in est.samples)

    def test_all_rays_failing_is_an_error(self):
        def cost(x):
            return 0.0 if float(np.sum(np.abs(x))) == 0.0 else float("nan")

        spec = NeighborhoodSpec(np.zeros(2), cost, 1.0, MeasureSpec.lebesgue())
        with pytest.raises(EstimationError, match="no valid samples"):
            estimate_local_volume(spec, Preconditioner.identity(2), k=4, seed=0)

    def test_anchor_must_satisfy_cutoff(self):
        # the check runs when the spec is built, before any estimate
        e = Ellipsoid(np.ones(2))
        with pytest.raises(EstimationError, match="anchor cost 12.5 is not below the cutoff 0.5"):
            NeighborhoodSpec(np.array([5.0, 0.0]), e.cost(), 0.5, MeasureSpec.lebesgue())

    def test_argument_validation(self):
        e = Ellipsoid(np.ones(2))
        with pytest.raises(ValueError, match="k must be"):
            estimate_local_volume(e.neighborhood(), Preconditioner.identity(2), k=0)
        with pytest.raises(ValueError, match="dimension"):
            estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=4)

    def test_truncated_lebesgue_flags_lower_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 10.0)
        spec = NeighborhoodSpec(
            np.zeros(2), lambda x: 0.0, 1.0, MeasureSpec.lebesgue()
        )
        est = estimate_local_volume(spec, Preconditioner.identity(2), k=4, seed=0)
        assert est.truncated_count == 4
        assert est.lower_bound_only
        assert est.log_volume == pytest.approx(math.log(100.0 * math.pi), abs=1e-12)
        assert est.max_log_term == pytest.approx(math.log(100.0 * math.pi), abs=1e-12)

    def test_unbounded_gaussian_mass_is_one(self):
        # with no cutoff crossings the whole prior mass must be recovered,
        # and the measure-adapted cap leaves no meaningful tail behind
        n = 10
        spec = NeighborhoodSpec(
            np.zeros(n), lambda x: 0.0, 1.0, MeasureSpec.gaussian(np.ones(n))
        )
        est = estimate_local_volume(spec, Preconditioner.identity(n), k=16, seed=2)
        assert est.truncated_count == 16
        assert not est.lower_bound_only
        assert est.log_volume == pytest.approx(0.0, abs=1e-9)


def _estimate_of_terms(terms):
    """A VolumeEstimate holding the given log terms, one ray each; -inf is a failed ray."""
    samples = tuple(
        RadialSample(np.array([1.0]), 0.0, 1.0, False, t, "" if t > -math.inf else "failed")
        for t in terms
    )
    return VolumeEstimate(
        log_volume=log_sum_exp(terms) - math.log(len(terms)), samples=samples, k=len(terms),
        n=1, preconditioner_id="identity[identity,n=1]", measure=MeasureSpec.lebesgue(),
        cutoff=1.0, truncated_count=0, failed_count=sum(1 for t in terms if t == -math.inf),
    )


class TestEstimateHealth:
    @pytest.mark.parametrize("k", [1, 2, 7, 128])
    @pytest.mark.parametrize("term", [-19971.3, -3.7, 0.0, 850.0])
    def test_equal_terms(self, k, term):
        est = _estimate_of_terms([term] * k)
        assert est.ess == pytest.approx(k, rel=1e-12)
        assert est.top_share == pytest.approx(1.0 / k, rel=1e-12)
        assert est.log_term_sd == 0.0
        assert est.prefix_rise == 0.0

    @pytest.mark.parametrize("k", [2, 4, 7, 32, 128])
    @pytest.mark.parametrize("d", [-2.0, 0.5, 40.0])
    def test_one_late_term_in_closed_form(self, k, d):
        # one term D in the last 3k/4 and every other 0: the first k // 4 rays
        # read log volume 0, and all k read log((e^D + k - 1) / k)
        prefix = max(1, k // 4)
        for where in sorted({prefix, (prefix + k - 1) // 2, k - 1}):
            terms = [0.0] * k
            terms[where] = d
            est = _estimate_of_terms(terms)
            want = math.log(math.exp(d) + k - 1) - math.log(k)
            assert est.prefix_rise == pytest.approx(want, rel=1e-12, abs=1e-14)
            assert est.log_term_sd == pytest.approx(abs(d) * math.sqrt(k - 1) / k, rel=1e-12)

    def test_failed_rays_are_left_out_of_the_spread(self):
        # the good terms -5 and -3 spread by 1; a failed prefix has no volume
        est = _estimate_of_terms([-math.inf, -5.0, -math.inf, -3.0])
        assert est.log_term_sd == pytest.approx(1.0, rel=1e-12)
        assert est.prefix_rise == math.inf

    @pytest.mark.parametrize("k", [2, 32, 128])
    def test_one_dominant_term(self, k):
        rng = np.random.default_rng(k)
        rest = list(-20000.0 + rng.uniform(-5.0, 5.0, size=k - 1))
        est = _estimate_of_terms(rest + [max(rest) + 1000.0])
        assert abs(est.ess - 1.0) <= 1e-12
        assert abs(1.0 / est.top_share - 1.0) <= 1e-12

    def test_failed_rays_add_nothing(self):
        # two equal good rays and two failed ones: ESS 2, each good ray half
        est = _estimate_of_terms([-5.0, -math.inf, -5.0, -math.inf])
        assert est.failed_count == 2
        assert est.ess == pytest.approx(2.0, rel=1e-12)
        assert est.top_share == pytest.approx(0.5, rel=1e-12)

    def test_two_terms_in_closed_form(self):
        # weights 1 and e^-1: ESS (1 + e^-1)^2 / (1 + e^-2), top share 1 / (1 + e^-1)
        est = _estimate_of_terms([3.0, 2.0])
        w = math.exp(-1.0)
        assert est.ess == pytest.approx((1.0 + w) ** 2 / (1.0 + w * w), rel=1e-12)
        assert est.top_share == pytest.approx(1.0 / (1.0 + w), rel=1e-12)

    def test_estimate_reports_both(self):
        e = Ellipsoid(np.array([2.0, 1.0, 0.5]))
        est = estimate_local_volume(e.neighborhood(), Preconditioner.identity(3), k=32, seed=0)
        assert 1.0 <= est.ess <= 32.0
        assert 1.0 / 32.0 <= est.top_share <= 1.0
        assert est.top_share == pytest.approx(math.exp(est.max_log_term - est.log_volume) / 32,
                                              rel=1e-12)
        first_eight = log_sum_exp([s.log_term for s in est.samples[:8]]) - math.log(8)
        assert est.prefix_rise == pytest.approx(est.log_volume - first_eight, abs=1e-12)
        assert est.log_term_sd == pytest.approx(np.std([s.log_term for s in est.samples]), rel=1e-12)


    def test_stage_seconds_time_each_stage(self):
        # a dense map under a Gaussian measure runs every stage; the timer
        # reads clocks only, so a timed estimate equals itself untimed
        spec = _mlp_spec()
        q, _ = np.linalg.qr(np.random.default_rng(43).normal(size=(spec.dim, spec.dim)))
        p = from_diagonal(np.random.default_rng(44).uniform(0.5, 2.0, size=spec.dim), 0.0, basis=q)
        start = time.perf_counter()
        est = estimate_local_volume(spec, p, k=16, seed=4)
        wall = time.perf_counter() - start
        assert list(est.stage_seconds) == list(STAGES) == ["sample", "search", "integrate", "aggregate"]
        for seconds in est.stage_seconds.values():
            assert set(seconds) == {"cpu", "wall"}
            assert seconds["cpu"] >= 0.0 and seconds["wall"] >= 0.0
        assert sum(seconds["wall"] for seconds in est.stage_seconds.values()) <= wall
        assert est == dataclasses.replace(est, stage_seconds={})
        again = estimate_local_volume(spec, p, k=16, seed=4)
        assert [s.log_term for s in again.samples] == [s.log_term for s in est.samples]
        assert again.log_volume == est.log_volume


class TestSpecValidation:
    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="cutoff"):
            NeighborhoodSpec(np.zeros(2), lambda x: 0.0, 0.0, MeasureSpec.lebesgue())

    @pytest.mark.parametrize("cutoff", [-1.0, math.nan, math.inf])
    def test_cutoff_must_be_positive_and_finite(self, cutoff):
        # refused before the cost is evaluated
        reads = []
        with pytest.raises(ValueError, match=f"^cutoff must be positive and finite, got {cutoff}$"):
            NeighborhoodSpec(np.zeros(2), lambda x: reads.append(x) or 0.0, cutoff, MeasureSpec.lebesgue())
        assert reads == []

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_anchor_cost_is_refused(self, value):
        with pytest.raises(CostEvaluationError, match="^cost evaluation failed at the anchor$"):
            NeighborhoodSpec(np.zeros(2), lambda x: value, 1.0, MeasureSpec.lebesgue())

    def test_sigma_length_checked(self):
        with pytest.raises(ValueError, match="sigma length"):
            NeighborhoodSpec(
                np.zeros(3), lambda x: 0.0, 1.0, MeasureSpec.gaussian(np.ones(2))
            )

    def test_gaussian_measure_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MeasureSpec.gaussian(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("sigma", [np.array([1.0, math.nan]), np.ones((2, 2)), np.ones(0)],
                             ids=["nan", "matrix", "empty"])
    def test_measure_is_validated_when_built(self, sigma):
        with pytest.raises(ValueError, match="non-empty vector of positive finite sigmas"):
            MeasureSpec(sigma)

    def test_direct_gaussian_measure_equals_the_factory(self):
        sigma = np.array([0.5, 1.0, 2.0])
        direct = MeasureSpec(sigma)
        assert direct.kind == "gaussian" and MeasureSpec().kind == "lebesgue"
        assert not direct.sigma.flags.writeable
        np.testing.assert_array_equal(direct.sigma, MeasureSpec.gaussian(sigma).sigma)

    def test_measure_sets_the_default_radius_cap(self):
        assert MeasureSpec.gaussian(np.array([0.5, 2.0, 1.0])).r_max == 20.0 * math.sqrt(3.0) * 2.0
        assert MeasureSpec.lebesgue().r_max == 1e6


def _mlp_spec(cost=None):
    """A KL neighborhood of a small trained-size network under its init measure."""
    rng = np.random.default_rng(41)
    params, measure = init_params(((6, 8), (8, 3)), rng=rng)
    inputs = rng.normal(size=(40, 6))
    cost = cost if cost is not None else make_kl_cost(params, inputs)
    return NeighborhoodSpec(params.flat, cost, 1e-2, measure)


class TestRayForm:
    @pytest.mark.parametrize("n", [1, 10, 4810])
    def test_line_of_a_plain_cost_evaluates_the_point(self, n):
        # the point handed to a cost without a ray form is anchor + r * d,
        # bit for bit, and the read-only row of directions is left alone
        rng = np.random.default_rng(n)
        seen = []

        def cost(x):
            seen.append(x.copy())
            return float(x @ x)

        anchor = rng.standard_normal(n)
        spec = NeighborhoodSpec(anchor, cost, 1e9, MeasureSpec.lebesgue())
        block = rng.standard_normal((2, n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        block.setflags(write=False)
        d, before = block[1], block.copy()
        line = spec.line(d)
        for r in (0.0, 1e-300, 1e-8, 0.37, 1.0, 7.5, 1e6):
            seen.clear()
            value = line(r)
            want = spec.anchor + r * d
            assert len(seen) == 1 and seen[0].tobytes() == want.tobytes(), r
            assert value == cost(want)
        assert block.tobytes() == before.tobytes()

    def test_line_uses_the_cost_ray_form(self):
        bound, full = [], []

        def cost(x):
            full.append(x)
            return 0.0

        def along(origin):
            bound.append(origin)
            return lambda direction: lambda r: 0.5 * r * r

        cost.along = along
        spec = NeighborhoodSpec(np.zeros(2), cost, 1.0, MeasureSpec.lebesgue())
        assert len(bound) == 1 and bound[0] is spec.anchor
        radius, truncated, evals = find_radius(spec, np.array([1.0, 0.0]), SearchOptions(rel_tol=1e-10))
        # the full cost runs once, at the anchor, when the spec is built
        assert len(full) == 1 and full[0] is spec.anchor
        assert not truncated and evals > 0
        assert radius == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_wrapped_cost_keeps_the_ray_form(self):
        spec = _mlp_spec()

        @functools.wraps(spec.cost)
        def wrapped(flat):
            return spec.cost(flat)

        assert wrapped.along is spec.cost.along
        p = Preconditioner.identity(spec.dim)
        a = estimate_local_volume(spec, p, k=16, seed=5)
        b = estimate_local_volume(_mlp_spec(wrapped), p, k=16, seed=5)
        assert a.log_volume == b.log_volume
        assert [s.log_term for s in a.samples] == [s.log_term for s in b.samples]
        assert [s.evals for s in a.samples] == [s.evals for s in b.samples]

    def test_thread_count_does_not_change_ray_form_result(self):
        spec = _mlp_spec()
        p = Preconditioner.identity(spec.dim)
        serial = estimate_local_volume(spec, p, k=32, seed=6)
        parallel = estimate_local_volume(spec, p, k=32, opts=SearchOptions(threads=4), seed=6)
        assert serial.log_volume == parallel.log_volume
        for s, q in zip(serial.samples, parallel.samples):
            assert (s.log_term, s.radius, s.evals) == (q.log_term, q.radius, q.evals)

    def test_ray_form_radii_match_plain_evaluation(self):
        spec = _mlp_spec()
        full = spec.cost
        plain = _mlp_spec(lambda flat: full(flat))
        assert not hasattr(plain.cost, "along")
        p = Preconditioner.identity(spec.dim)
        opts = SearchOptions()
        a = estimate_local_volume(spec, p, k=32, opts=opts, seed=7)
        b = estimate_local_volume(plain, p, k=32, opts=opts, seed=7)
        assert a.failed_count == b.failed_count == 0
        for s, q in zip(a.samples, b.samples):
            assert s.radius == pytest.approx(q.radius, rel=opts.rel_tol)
        assert a.log_volume == pytest.approx(b.log_volume, abs=spec.dim * opts.rel_tol)


@pytest.fixture(scope="module")
def small_trained_net():
    """A 676-parameter tanh net (16 -> 32 -> 4) after 8 Adam epochs on blobs."""
    full = make_blobs(dim=16, classes=4, per_class=100, noise=1.0, center_scale=0.5, seed=5)
    train, val = split_dataset(full, [240, 160], seed=5)
    params, measure = init_params(((16, 32), (32, 4)), "fan_in", np.random.default_rng(6))
    config = TrainConfig(epochs=8, batch_size=32, seed=7, hyper=AdamHyper(lr=0.01),
                         checkpoint_every=10_000)
    params = adam_train(params, train, config).checkpoints[-1]
    return params, measure, train, val


class TestSearchBudget:
    # mean cost evaluations per ray, k=64, seed 0, Gaussian measure; the
    # bounds sit at or below the targets for the radius search (naive rays
    # 4.4, loss rays 5.5) and above the measured counts, float32-steered /
    # float64-only: kl identity 4.02 / 4.02, kl hessian 4.45 / 4.45, loss
    # identity 4.58 / 4.56, loss hessian 4.84 / 4.84 (the doubling-and-secant
    # search took 4.91, 8.94, 8.77 and 10.75; with every ray started at
    # radius 1, the hessian maps took 5.98 and 5.88); each hessian bound is
    # its measured count plus a margin of about 0.5
    BUDGET = [
        ("kl", "identity", 4.4),
        ("kl", "hessian", 4.95),
        ("loss", "identity", 5.5),
        ("loss", "hessian", 5.35),
    ]
    BOUNDS = {(kind, map_kind): bound for kind, map_kind, bound in BUDGET}

    @staticmethod
    def _check_budget(net, kind, map_kind, bound, wrap):
        params, measure, train, val = net
        if kind == "kl":
            cost, data = make_kl_cost(params, val.inputs), (params, val.inputs)
        else:
            cost, data = make_loss_cost(params.shape, train), train
        anchor_cost = cost(params.flat)
        cutoff = 1e-2 if kind == "kl" else anchor_cost + 1e-2
        spec = NeighborhoodSpec(params.flat, wrap(cost), cutoff, measure)
        if map_kind == "identity":
            precond = Preconditioner.identity(params.n)
        else:
            spectrum, basis = eigendecompose(hessian_full(kind, params, data))
            precond = from_diagonal(spectrum, 0.1, 0.5, source="hessian", basis=basis)
        est = estimate_local_volume(spec, precond, k=64, seed=0)
        assert est.failed_count == 0 and est.truncated_count == 0
        assert est.evals_per_ray <= bound
        for s in est.samples:
            assert cost(params.flat + s.radius * s.direction) < cutoff

    @pytest.mark.parametrize("kind, map_kind, bound", BUDGET)
    def test_evaluations_per_ray_on_a_trained_net(self, small_trained_net, kind, map_kind, bound):
        self._check_budget(small_trained_net, kind, map_kind, bound, lambda cost: cost)

    @pytest.mark.parametrize("kind, map_kind, bound", BUDGET)
    def test_float64_only_rays_meet_the_same_budget(self, small_trained_net, kind, map_kind, bound):
        # the search aims every ray by one rule, whichever form reads its steps
        self._check_budget(small_trained_net, kind, map_kind, bound, _float64_only)


def _float64_only(cost):
    """The cost with the same ray form, but no ray carrying a float32 form."""

    def plain(flat):
        return cost(flat)

    def along(origin):
        line = cost.along(origin)
        # a partial object calls the ray without its attributes
        return lambda direction: functools.partial(line(direction))

    plain.along = along
    return plain


def _skewed_spec(rel_err, reads):
    """A smooth cost on R^6 whose rays' float32 form reads ``rel_err`` relative off.

    Every evaluation is logged to ``reads`` as (form, r, value); with
    ``rel_err`` None the rays carry no float32 form.
    """
    axes = np.array([0.5, 0.8, 1.0, 1.5, 2.0, 3.0])

    def cost(x):
        q = float(np.sum((x / axes) ** 2))
        return 0.5 * q + 0.25 * q * q

    def along(origin):
        def line(direction):
            def exact(r):
                reads.append(("float64", r, cost(origin + r * direction)))
                return reads[-1][2]

            def approx(r):
                reads.append(("float32", r, cost(origin + r * direction) * (1.0 + rel_err)))
                return reads[-1][2]

            if rel_err is not None:
                exact.approx = approx
            return exact

        return line

    cost.along = along
    return NeighborhoodSpec(np.zeros(6), cost, 1.0, MeasureSpec.lebesgue())


class TestFloat32Steering:
    """The search steers by a ray's float32 form and decides its radius in float64."""

    # a float32 reading 1e-3 high can put an upper end up to about 5e-4 of
    # the radius inside the crossing, so the tolerance is set above that
    @pytest.mark.parametrize("rel_err", [-1e-3, 1e-3])
    def test_no_overshoot_with_a_skewed_float32_form(self, rel_err):
        opts = SearchOptions(rel_tol=1e-3)
        rng = np.random.default_rng(0)
        misread = 0  # lower ends read below the cutoff in float32 but not in float64
        for _ in range(64):
            d = rng.standard_normal(6)
            d /= np.linalg.norm(d)
            reads = []
            spec = _skewed_spec(rel_err, reads)
            radius, truncated, evals = find_radius(spec, d, opts)
            assert not truncated and evals == len(reads)
            assert spec.cost(radius * d) < spec.cutoff
            assert ("float64", radius, spec.cost(radius * d)) in reads
            low = {r for form, r, v in reads if form == "float32" and v < spec.cutoff}
            misread += sum(1 for form, r, v in reads if form == "float64" and r in low and v >= spec.cutoff)
            plain, _, _ = find_radius(_skewed_spec(None, []), d, opts)
            assert abs(radius - plain) <= opts.rel_tol * plain
        # a low float32 form calls points past the crossing inside; each such
        # lower end was caught by its float64 check, and narrowing went on
        assert (misread > 0) == (rel_err < 0)

    @pytest.mark.parametrize("kind", ["kl", "loss"])
    def test_trained_net_radii_are_decided_in_float64(self, small_trained_net, kind):
        params, measure, train, val = small_trained_net
        if kind == "kl":
            cost, data = make_kl_cost(params, val.inputs), (params, val.inputs)
        else:
            cost, data = make_loss_cost(params.shape, train), train
        cutoff = 1e-2 if kind == "kl" else cost(params.flat) + 1e-2
        spec = NeighborhoodSpec(params.flat, cost, cutoff, measure)
        plain = NeighborhoodSpec(params.flat, _float64_only(cost), cutoff, measure)
        assert hasattr(spec.line(np.ones(params.n)), "approx")
        assert not hasattr(plain.line(np.ones(params.n)), "approx")
        spectrum, basis = eigendecompose(hessian_full(kind, params, data))
        maps = [
            Preconditioner.identity(params.n),
            from_diagonal(hessian_diag(kind, params, data), 1e-2, 0.5, source="diag"),
            from_diagonal(spectrum, 0.1, 0.5, source="hessian", basis=basis),
        ]
        opts = SearchOptions()
        for precond in maps:
            est = estimate_local_volume(spec, precond, k=64, opts=opts, seed=0)
            ref = estimate_local_volume(plain, precond, k=64, opts=opts, seed=0)
            assert est.failed_count == ref.failed_count == 0
            # both forms run one aiming rule, so each meets the search budget
            # (TestSearchBudget; the diagonal map takes the identity's bound)
            bound = TestSearchBudget.BOUNDS[kind, "hessian" if precond.kind == "dense" else "identity"]
            assert est.evals_per_ray <= bound and ref.evals_per_ray <= bound
            for s, q in zip(est.samples, ref.samples):
                assert spec.line(s.direction)(s.radius) < cutoff
                assert abs(s.radius - q.radius) <= opts.rel_tol * q.radius
            # a radius within rel_tol moves its log term by at most about
            # n rel_tol (0.07 nats here); the estimates move far less
            assert abs(est.log_volume - ref.log_volume) <= 1e-2


class TestSearchContract:
    """A direct search and an estimate's search of the same ray agree exactly.

    Both read the anchor cost from the spec and the radius cap from the
    measure, and ray i starts at the median radius of the good rays before
    it (ray 0 at ``FIRST_START``), so they take the same evaluations to the
    same radius.
    """

    @staticmethod
    def _assert_same_rays(spec, est):
        good = []  # radii of the good rays so far
        for s in est.samples:
            start = float(np.median(good)) if good else FIRST_START
            assert find_radius(spec, s.direction, None, start) == (s.radius, s.truncated, s.evals)
            good += [] if s.failed else [s.radius]

    def test_loss_cost_under_a_gaussian_measure(self, small_trained_net):
        params, measure, train, _ = small_trained_net
        cost = make_loss_cost(params.shape, train)
        anchor_cost = cost(params.flat)
        assert anchor_cost > 0.0
        spec = NeighborhoodSpec(params.flat, cost, anchor_cost + 1e-2, measure)
        assert spec.anchor_cost == anchor_cost
        est = estimate_local_volume(spec, Preconditioner.identity(params.n), k=8, seed=3)
        assert est.failed_count == 0
        self._assert_same_rays(spec, est)

    def test_flat_gaussian_ray(self):
        # every ray stops at the measure's cap, 20 sqrt(n) max sigma
        n = 6
        spec = NeighborhoodSpec(np.zeros(n), lambda x: 0.0, 1.0, MeasureSpec.gaussian(np.ones(n)))
        est = estimate_local_volume(spec, Preconditioner.identity(n), k=4, seed=3)
        assert est.truncated_count == 4
        assert all(s.radius == 20.0 * math.sqrt(n) for s in est.samples)
        # ray 0 doubles out from FIRST_START to the cap; every later ray starts at
        # the truncated rays' median, the cap, and reads it once
        assert [s.evals for s in est.samples] == [7, 1, 1, 1]
        self._assert_same_rays(spec, est)
