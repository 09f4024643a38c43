"""The three benchmark workloads, driven through starvol's public entry points.

Every call into starvol goes through a module attribute (``cli.main``,
``geometry.estimate_local_volume``, ``models.hessian_full``, ...) looked up at
call time, so the tracer can swap in its wrappers for a traced operation.
Operation i of a run draws its rays from (--seed, i), so a run's median is
taken over many ray sets and the same seed gives the same inputs. The two
operations of a traced pair share their rays.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import starvol.cli as cli
from starvol import geometry, models, precondition
from starvol.models.train import AdamHyper

from oracle import radial_log_integral

# --- shared -------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    # a non-gating check is counted in `failed` but does not make the run
    # incorrect: it measures a known accuracy defect of the program
    gating: bool = True


@dataclass(frozen=True)
class Took:
    """Wall-clock and process CPU seconds (all threads) of a stretch of work."""

    wall: float = 0.0
    cpu: float = 0.0

    def __add__(self, other: "Took") -> "Took":
        return Took(self.wall + other.wall, self.cpu + other.cpu)

    def __sub__(self, other: "Took") -> "Took":
        return Took(self.wall - other.wall, self.cpu - other.cpu)


def now() -> Took:
    return Took(time.perf_counter(), time.process_time())


def _timed(fn, *args, **kwargs):
    start = now()
    out = fn(*args, **kwargs)
    return out, now() - start


@dataclass
class OpResult:
    took: Took
    rays: int  # rays estimated at threads=1
    est: Took  # time spent in those estimate calls
    rays_par: int  # rays estimated at threads=nproc
    est_par: Took
    log_volumes: dict[str, float]
    failed_rays: int = 0
    checks: list[Check] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    setup_repeats = 3
    # wall seconds of one operation on the reference machine (bench/DESIGN.md);
    # a run makes --seconds / nominal_op_s operations
    nominal_op_s = 1.0

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        self.nproc = nproc

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def ray_seed(self, index: int, sub: int = 0) -> int:
        """Estimator seed of sub-call `sub` of operation `index`."""
        return int(np.random.SeedSequence([self.seed, index, sub]).generate_state(1)[0])

    def op(self, index: int, tracer=None) -> OpResult:
        raise NotImplementedError

    def final_checks(self) -> tuple[list[Check], dict[str, float]]:
        """Checks run once after the timed operations, outside any timing."""
        return [], {}

    def traced_pair(self, tracer):
        """(untraced op, traced op, traced spans, tracing overhead in s).

        Every pair runs operation 0, so the exact counts must repeat.
        """
        untraced = self.op(0)
        tracer.install()
        try:
            traced = self.op(0, tracer)
        finally:
            tracer.uninstall()
        return untraced, traced, tracer.take(), traced.took.wall - untraced.took.wall


# --- kl-estimate ----------------------------------------------------------------

# the acceptance 10/11 fixture, as a `starvol train` config
KL_CONFIG = {
    "dataset": {"kind": "blobs", "dim": 64, "classes": 10, "train": 2000, "val": 512,
                "noise": 1.0, "center_scale": 0.25},
    "model": {"hidden": [64], "init": "fan_in"},
    "train": {"epochs": 16, "batch_size": 32, "lr": 0.005, "checkpoint_every": 32},
}
TRAIN_SEED = 11  # the model is a fixed fixture; --seed picks the rays


class KlEstimate(Workload):
    """`starvol estimate` on the final 4,810-parameter checkpoint, in-process."""

    name = "kl-estimate"
    setup_repeats = 3
    nominal_op_s = 2.6
    k = 128

    def setup(self, index: int) -> None:
        config = self.work / "train-config.json"
        config.write_text(json.dumps(KL_CONFIG))
        out = self.work / f"train{index}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", str(config), "--out", str(out),
                           "--seed", str(TRAIN_SEED)])
        if rc != 0:
            raise RuntimeError(f"starvol train exited with {rc}")
        self.checkpoint = sorted(out.glob("checkpoint_step*.json"))[-1]

    def _estimate(self, threads: int, seed: int):
        out = self.work / f"estimate-t{threads}.jsonl"
        out.unlink(missing_ok=True)
        argv = ["estimate", "--checkpoint", str(self.checkpoint), "--cost", "kl",
                "--measure", "gaussian", "--k", str(self.k), "--preconditioner", "adam-nu",
                "--threads", str(threads), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc, took = _timed(cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"starvol estimate exited with {rc}")
        return json.loads(out.read_text().splitlines()[-1]), took

    def op(self, index: int, tracer=None) -> OpResult:
        start = now()
        one, one_took = self._estimate(1, self.ray_seed(index))
        par, par_took = self._estimate(self.nproc, self.ray_seed(index))
        took = now() - start
        same = one["log_volume"] == par["log_volume"] and one["log_terms"] == par["log_terms"]
        return OpResult(
            took=took, rays=self.k, est=one_took, rays_par=self.k, est_par=par_took,
            log_volumes={"threads=1": one["log_volume"], "threads=nproc": par["log_volume"]},
            failed_rays=one["failed_count"] + par["failed_count"],
            checks=[Check("threads-bit-identical", same,
                          f"{one['log_volume']!r} vs {par['log_volume']!r}")],
        )


# --- curvature-pipeline -----------------------------------------------------------

EPS_GRID = (1e-4, 1e-2, 1.0)
CURV_K = 32
CURV_SEEDS = 5


class CurvaturePipeline(Workload):
    """Acceptance 11's pipeline through the Python API test 11 calls."""

    name = "curvature-pipeline"
    setup_repeats = 3
    nominal_op_s = 67.0

    def setup(self, index: int) -> None:
        full = models.make_blobs(dim=64, classes=10, per_class=252, noise=1.0,
                                 center_scale=0.25, seed=101)
        train, val = models.split_dataset(full, [2000, 512], seed=101)
        params, measure = models.init_params(((64, 64), (64, 10)), "fan_in",
                                             np.random.default_rng(202))
        cfg = models.TrainConfig(epochs=16, batch_size=32, seed=303,
                                 hyper=AdamHyper(lr=0.005), checkpoint_every=32)
        result = models.adam_train(params, train, cfg, val_dataset=val)
        self.params = result.checkpoints[-1]
        self.nu = result.adam_states[-1].nu
        self.sigma = measure.sigma
        self.inputs = val.inputs

    def _spec(self):
        cost = models.make_kl_cost(self.params, self.inputs)
        return geometry.NeighborhoodSpec(anchor=self.params.flat, cost=cost, cutoff=1e-2,
                                         measure=geometry.MeasureSpec.gaussian(self.sigma))

    def _curvature(self):
        data = (self.params, self.inputs)
        diag, diag_took = _timed(models.hessian_diag, "kl", self.params, data, h=1e-3)
        hess = models.hessian_full("kl", self.params, data, h=1e-3)
        preconds = {
            "naive": precondition.Preconditioner.identity(self.params.n),
            "hessian": precondition.from_hessian(
                hess, precondition.DEFAULT_EPS["hessian"], source="hessian"),
        }
        del hess
        for eps in EPS_GRID:
            preconds[f"diag@{eps:g}"] = precondition.from_diagonal(diag, eps, 0.5, source="diag")
            preconds[f"adam-nu@{eps:g}"] = precondition.from_diagonal(
                self.nu, eps, 0.5, source="adam-nu")
        return diag, diag_took, preconds

    def _estimates(self, spec, preconds, seeds) -> OpResult:
        vols: dict[str, float] = {}
        est = est_par = Took()
        failed = 0
        for label, pre in preconds.items():
            for s in seeds:
                result, took = _timed(geometry.estimate_local_volume, spec, pre, CURV_K,
                                      geometry.SearchOptions(threads=1), seed=s)
                vols[f"{label}/seed{s}"] = result.log_volume
                est += took
                failed += result.failed_count
        checks = []
        for s in seeds:
            result, took = _timed(geometry.estimate_local_volume, spec, preconds["hessian"],
                                  CURV_K, geometry.SearchOptions(threads=self.nproc), seed=s)
            vols[f"hessian-par/seed{s}"] = result.log_volume
            est_par += took
            failed += result.failed_count
            checks.append(Check("threads-bit-identical",
                                result.log_volume == vols[f"hessian/seed{s}"],
                                f"hessian preconditioner, seed {s}"))

        def median(label):
            return statistics.median(vols[f"{label}/seed{s}"] for s in seeds)

        naive = median("naive")
        diag_best = max((median(f"diag@{eps:g}"), eps) for eps in EPS_GRID)
        nu_best = max((median(f"adam-nu@{eps:g}"), eps) for eps in EPS_GRID)
        hessian = median("hessian")
        checks += [
            Check("diag-median-not-below-naive", diag_best[0] >= naive,
                  f"diag {diag_best[0]:.1f} (eps {diag_best[1]:g}) vs naive {naive:.1f}"),
            Check("adam-nu-median-not-below-naive", nu_best[0] >= naive,
                  f"adam-nu {nu_best[0]:.1f} (eps {nu_best[1]:g}) vs naive {naive:.1f}"),
        ]
        rays = len(preconds) * len(seeds) * CURV_K
        return OpResult(
            took=Took(), rays=rays, est=est, rays_par=len(seeds) * CURV_K,
            est_par=est_par, log_volumes=vols, failed_rays=failed, checks=checks,
            extra={"gain_nats.hessian": hessian - naive, "gain_nats.diag": diag_best[0] - naive},
        )

    def op(self, index: int, tracer=None) -> OpResult:
        start = now()
        spec = self._spec()
        diag, diag_took, preconds = self._curvature()
        seeds = [self.ray_seed(index, i) for i in range(CURV_SEEDS)]
        result, estimates_took = _timed(self._estimates, spec, preconds, seeds)
        result.took = now() - start
        # kept for traced_pair, which repeats these stages untraced
        self.last = (diag, diag_took, preconds, estimates_took)
        return result

    def traced_pair(self, tracer):
        # one operation takes over a minute, so the untraced reference repeats
        # only the stages that carry inner spans (hessian_diag and the
        # estimates), reusing the traced run's preconditioners
        tracer.install()
        try:
            traced = self.op(0, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        diag_traced, diag_traced_took, preconds, estimates_traced_took = self.last
        diag, diag_took = _timed(models.hessian_diag, "kl", self.params,
                                 (self.params, self.inputs), h=1e-3)
        seeds = [self.ray_seed(0, i) for i in range(CURV_SEEDS)]
        untraced, estimates_took = _timed(self._estimates, self._spec(), preconds, seeds)
        untraced.checks.append(Check("traced-hessian-diag-bit-identical",
                                     bool(np.array_equal(diag, diag_traced))))
        overhead = ((diag_traced_took - diag_took) + (estimates_traced_took - estimates_took)).wall
        return untraced, traced, spans, overhead


# --- quadratic-gauss ---------------------------------------------------------------

QUAD_DIMS = (10, 128, 1000, 4810)
# median boundary radius over the integrand's peak radius, one call each. In
# high dimension the ratio concentrates within a few percent, and a ray left
# of the peak takes a route about ten times dearer than one right of it, so
# one call per side keeps the route mix, and the time, the same for every seed
QUAD_SIDES = (0.8, 1.25)
QUAD_K = 48
FAR_ANCHOR_SIGMAS = 20.0  # n=10 anchor distance, in prior standard deviations
AXIS_DECADES = 2.0  # ellipsoid axes are evenly spaced in log10 over this range
ORACLE_TRIPLES = 4  # per sub-case
# the anchors and axes are a fixed fixture, like the model of the other two
# workloads: how long a ray's radial integral takes depends strongly on its
# b~, so drawing them from --seed made operation times differ by up to 20%
# between seeds. --seed picks the rays and the oracle triples.
GEOMETRY_SEED = 2024


@dataclass
class QuadCase:
    label: str
    n: int
    sigma: np.ndarray
    anchor: np.ndarray
    inv_axes: np.ndarray

    def cost(self, x: np.ndarray) -> float:
        z = (x - self.anchor) * self.inv_axes
        return 0.5 * float(z @ z)

    def peak_radius(self, d: np.ndarray) -> np.ndarray:
        """Radius where the Gaussian ray integrand r^(n-1) rho peaks, per row of d."""
        s2 = self.sigma * self.sigma
        a = (d * d / s2).sum(axis=-1)
        b = d @ (self.anchor / s2)
        return (-b + np.sqrt(b * b + 4.0 * a * (self.n - 1))) / (2.0 * a)

    def boundary_radius(self, d: np.ndarray) -> np.ndarray:
        """Exact radius where the cost reaches the cutoff 1/2, per row of d."""
        return 1.0 / np.sqrt(((d * self.inv_axes) ** 2).sum(axis=-1))


def _unit_rows(rng, count: int, n: int) -> np.ndarray:
    d = rng.standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class QuadraticGauss(Workload):
    """Gaussian-measure estimates on axis-aligned quadratic costs.

    One sub-case per dimension in QUAD_DIMS and side in QUAD_SIDES.
    """

    name = "quadratic-gauss"
    setup_repeats = 9
    nominal_op_s = 0.6

    def setup(self, index: int) -> None:
        rng = np.random.default_rng(GEOMETRY_SEED)
        cases = []
        for i, (n, side) in enumerate((n, side) for n in QUAD_DIMS for side in QUAD_SIDES):
            # two-valued prior stds, like the per-layer stds of the MLP measure
            sigma = np.where(np.arange(n) < (4 * n) // 5, 1.0, 0.25)
            z = rng.standard_normal(n)
            z *= (FAR_ANCHOR_SIGMAS if n == 10 else np.sqrt(n)) / np.linalg.norm(z)
            axes = 10.0 ** rng.permutation(np.linspace(-AXIS_DECADES / 2, AXIS_DECADES / 2, n))
            case = QuadCase(f"n={n},R/r*~{side:g}", n, sigma, sigma * z, 1.0 / axes)
            # scale the axes so the median boundary radius is `side` times the
            # integrand's peak radius
            pilot = _unit_rows(rng, 256, n)
            scale = side * float(np.median(case.peak_radius(pilot) / case.boundary_radius(pilot)))
            case.inv_axes = case.inv_axes / scale
            cases.append(case)
        self.cases = cases

    def _round(self, index: int, tracer, threads: int):
        out = []
        total = Took()
        for i, case in enumerate(self.cases):
            cost = case.cost if tracer is None else tracer.span(case.cost, "bench.cost")
            spec = geometry.NeighborhoodSpec(anchor=case.anchor, cost=cost, cutoff=0.5,
                                             measure=geometry.MeasureSpec.gaussian(case.sigma))
            est, took = _timed(geometry.estimate_local_volume, spec,
                               precondition.Preconditioner.identity(case.n), QUAD_K,
                               geometry.SearchOptions(threads=threads), seed=self.ray_seed(index, i))
            out.append(est)
            total += took
        return out, total

    def op(self, index: int, tracer=None) -> OpResult:
        start = now()
        one, one_took = self._round(index, tracer, 1)
        par, par_took = self._round(index, tracer, self.nproc)
        took = now() - start
        vols = {}
        checks = []
        for case, a, b in zip(self.cases, one, par):
            vols[f"{case.label}/threads=1"] = a.log_volume
            vols[f"{case.label}/threads=nproc"] = b.log_volume
            same = a.log_volume == b.log_volume and all(
                x.log_term == y.log_term for x, y in zip(a.samples, b.samples))
            checks.append(Check("threads-bit-identical", same, case.label))
        rays = QUAD_K * len(self.cases)
        return OpResult(
            took=took, rays=rays, est=one_took, rays_par=rays, est_par=par_took,
            log_volumes=vols, failed_rays=sum(e.failed_count for e in one + par), checks=checks,
        )

    def final_checks(self):
        """Radial integral against the mpmath oracle on rays drawn like the timed ones."""
        rng = np.random.default_rng([self.seed, 2])
        checks = []
        worst = 0.0
        for case in self.cases:
            dirs = _unit_rows(rng, ORACLE_TRIPLES, case.n)
            radii = case.boundary_radius(dirs)
            peaks = case.peak_radius(dirs)
            for d, radius, peak in zip(dirs, radii, peaks):
                got = geometry.gaussian_radial_log_integral(case.anchor, d, float(radius),
                                                            case.sigma, case.n)
                ref = radial_log_integral(case.anchor, d, float(radius), case.sigma)
                err = abs(got - ref) / max(abs(ref), 1.0)
                worst = max(worst, err)
                s2 = case.sigma * case.sigma
                btilde = float(d @ (case.anchor / s2)) / math.sqrt(float((d * d / s2).sum()))
                checks.append(Check(
                    "radial-integral-vs-mpmath", err <= 1e-9,
                    f"n={case.n} b~={btilde:+.2f} R/r*={radius / peak:.3f}: "
                    f"got {got!r}, oracle {ref!r}, rel err {err:.2e} (tol 1e-9)",
                    gating=False,
                ))
        return checks, {"geometry.radial_integral.oracle_max_rel_err": worst}


WORKLOADS = {w.name: w for w in (KlEstimate, CurvaturePipeline, QuadraticGauss)}
