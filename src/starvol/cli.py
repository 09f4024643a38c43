"""Command-line front end: train, estimate, sweep, mdl.

Every run is reproducible from its record: the master seed is resolved
once (flag > config file > STARVOL_SEED > 0), all internal randomness is
derived from it by fixed roles, and per-sample streams are split by sample
index. Estimates run on one thread (``--threads`` changes nothing), so run
separate processes for parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .geometry import (
    CostEvaluationError,
    EstimationError,
    MeasureSpec,
    NeighborhoodSpec,
    SearchOptions,
    _clock,
    estimate_local_volume,
)
from .models import (
    Checkpoint,
    PoisonConfig,
    TrainConfig,
    adam_train,
    description_length,
    hessian_diag,
    hessian_full,
    init_params,
    load_checkpoint,
    load_csv,
    make_blobs,
    make_kl_cost,
    make_loss_cost,
    make_spirals,
    save_checkpoint,
    split_dataset,
)
from .models.train import AdamHyper
from .precondition import DEFAULT_EPS, Preconditioner, PreconditionerError, eigendecompose, from_diagonal
from .runio import (
    DEFAULT_CONFIG,
    default_seed,
    load_config,
    make_run_record,
    merge_config,
    read_jsonl,
    write_jsonl,
    write_samples_csv,
    write_sweep_csv,
)

# fixed roles for deriving independent streams from the master seed
SEED_ROLES = {"data": 0, "init": 1, "train": 2}

PRECONDITIONER_CHOICES = ("none", "hessian", "diag", "adam-nu")
PRECOND_FILE_HELP = "load a saved preconditioner (a sweep accepts it over cutoffs or checkpoints only)"
THREADS_HELP = "accepted and validated (at least 1) but ignored: every ray runs on the calling thread; run separate processes for parallelism"
R_INIT_HELP = "radius of each ray's first cost evaluation; the search takes its later steps from the costs it measures"
TARGET_HELP = "quadratic: a synthetic |x|^2/2 cost, always with Lebesgue measure and the identity map"

# flags shared by estimate and sweep, defined once in an argparse parent
# parser (with --seed); an estimate record lists each under "config"
ESTIMATE_FLAGS = (
    ("--cost", {"choices": ("kl", "loss"), "default": "kl"}),
    ("--cutoff", {"type": float, "default": 1e-2}),
    ("--k", {"type": int, "default": 100}),
    ("--preconditioner", {"choices": PRECONDITIONER_CHOICES, "default": "none"}),
    ("--eps", {"type": float, "default": None, "help": "damping (default depends on kind)"}),
    ("--measure", {"choices": ("lebesgue", "gaussian"), "default": "gaussian"}),
    ("--threads", {"type": int, "default": 1, "help": THREADS_HELP}),
    ("--r-init", {"type": float, "default": 1.0, "help": R_INIT_HELP}),
    ("--r-max", {"type": float, "default": None}),
    ("--rel-tol", {"type": float, "default": 1e-4}),
    ("--max-iters", {"type": int, "default": 500}),
    ("--precond-file", {"type": str, "default": None, "help": PRECOND_FILE_HELP}),
)


def _role_seed(master: int, role: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(SEED_ROLES[role],))


def _resolve_seed(flag_seed: int | None, config_seed=None) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if config_seed is not None:
        return int(config_seed)
    return default_seed()


def _build_datasets(config: dict, master_seed: int):
    """Materialize (train, val, poison) splits from the dataset config."""
    ds = config["dataset"]
    poison_size = int(ds.get("poison", 0))
    # a zero-size split would make an empty Dataset, so only ask for it when used
    sizes = [int(ds["train"]), int(ds["val"])] + ([poison_size] if poison_size > 0 else [])
    total = sum(sizes)
    data_seed = int(_role_seed(master_seed, "data").generate_state(1)[0])
    kind = ds["kind"]
    if kind == "blobs":
        per_class = -(-total // int(ds["classes"]))  # ceil
        full = make_blobs(
            dim=int(ds["dim"]),
            classes=int(ds["classes"]),
            per_class=per_class,
            noise=float(ds["noise"]),
            center_scale=float(ds["center_scale"]),
            seed=data_seed,
        )
    elif kind == "spirals":
        per_class = -(-total // 2)
        full = make_spirals(
            per_class=per_class,
            noise=float(ds["noise"]),
            dim=int(ds["dim"]),
            seed=data_seed,
        )
    elif kind == "csv":
        if not ds.get("path"):
            raise ValueError("dataset.kind=csv requires dataset.path")
        full = load_csv(ds["path"])
        if full.m < total:
            raise ValueError(f"csv has {full.m} rows, config needs {total}")
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    splits = split_dataset(full, sizes, seed=data_seed)
    return splits[0], splits[1], (splits[2] if poison_size > 0 else None)


# -- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    file_cfg = load_config(args.config) if args.config else {}
    config = merge_config(DEFAULT_CONFIG, file_cfg)
    master_seed = _resolve_seed(args.seed, config.get("seed"))
    config["seed"] = master_seed

    train_ds, val_ds, poison_ds = _build_datasets(config, master_seed)
    widths = [train_ds.dim, *(int(h) for h in config["model"]["hidden"]), train_ds.num_classes]
    init_rng = np.random.default_rng(_role_seed(master_seed, "init"))
    params, measure = init_params(tuple(zip(widths, widths[1:])), config["model"]["init"], init_rng)

    tr = config["train"]
    poison = None
    if poison_ds is not None and float(tr["poison_alpha"]) != 0:  # PoisonConfig refuses alpha < 0
        poison = PoisonConfig(dataset=poison_ds, alpha=float(tr["poison_alpha"]))
    train_seed = int(_role_seed(master_seed, "train").generate_state(1)[0])
    train_cfg = TrainConfig(
        epochs=int(tr["epochs"]),
        batch_size=int(tr["batch_size"]),
        seed=train_seed,
        hyper=AdamHyper(
            lr=float(tr["lr"]),
            beta1=float(tr["beta1"]),
            beta2=float(tr["beta2"]),
            adam_eps=float(tr["adam_eps"]),
        ),
        checkpoint_every=int(tr["checkpoint_every"]),
        poison=poison,
    )
    result = adam_train(params, train_ds, train_cfg, val_dataset=val_ds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for ckpt_params, adam_state, step in zip(result.checkpoints, result.adam_states, result.steps):
        path = out_dir / f"checkpoint_step{step:06d}.json"
        save_checkpoint(
            path,
            Checkpoint(params=ckpt_params, adam=adam_state, sigma=measure.sigma, step=step, config=config),
        )
        paths.append(path)
    metrics_path = out_dir / "metrics.csv"
    fields = sorted({key for row in result.metrics for key in row})
    fields = ["step"] + [f for f in fields if f != "step"]
    write_sweep_csv(metrics_path, list(result.metrics), fields)

    final = result.metrics[-1]
    print(f"trained {len(result.steps)} checkpoints -> {out_dir}")
    print(
        "final step {step}: train_loss={train_loss:.4f}".format(**final)
        + (" val_loss={val_loss:.4f}".format(**final) if "val_loss" in final else "")
        + (" poison_loss={poison_loss:.4f}".format(**final) if "poison_loss" in final else "")
    )
    return 0


# -- estimate ------------------------------------------------------------------


def _anchor_sha256(flat: np.ndarray) -> str:
    """SHA-256 of the anchor's little-endian float64 bytes, which ties a record to its checkpoint."""
    import hashlib  # loads OpenSSL, about 4 MB resident, which only estimate and mdl need

    return hashlib.sha256(np.asarray(flat, dtype="<f8").tobytes()).hexdigest()


def _refuse_unused_eps(args, kind: str = "") -> None:
    """Refuse an eps that shapes no map, naming the reason; ``kind`` is a sweep's kind."""
    if kind == "eps" and args.preconditioner == "none":
        raise ValueError("sweep --kind eps shapes no map with --preconditioner none, the identity map")
    if args.eps is None or kind == "preconditioner":  # such a sweep shapes each map from --eps
        return
    if kind == "eps":
        raise ValueError("--eps shapes no map with sweep --kind eps, which shapes each point from its swept value")
    if args.precond_file:
        raise ValueError("--eps shapes no map with --precond-file, which is used as saved")
    if args.preconditioner == "none":
        raise ValueError("--eps shapes no map with --preconditioner none, the identity map")


def _timed(into: dict, stage: str, fn, *args):
    """``fn(*args)``, its process CPU and wall seconds kept as ``into[stage]``, as an
    estimate's ``stage_seconds`` keeps each stage's."""
    cpu0, wall0 = _clock()
    out = fn(*args)
    cpu1, wall1 = _clock()
    into[stage] = {"cpu": cpu1 - cpu0, "wall": wall1 - wall0}
    return out


def _search_options(args) -> SearchOptions:
    return SearchOptions(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchOptions)})


class _CheckpointEstimator:
    """Local-volume estimates on one checkpoint, for estimate and sweep alike.

    The datasets, cost, measure, search options and any ``--precond-file``
    map are built once. Each curvature probe runs at most once, and the full
    Hessian is kept only as its eigendecomposition. Every estimate shapes its
    map from that spectrum in O(n), sharing the eigenvectors without a copy,
    so a sweep over eps runs one eigendecomposition. ``build_seconds[name]``
    holds the process CPU and wall seconds of the map's ``curvature`` probe
    and, for the hessian map, its ``eigendecompose``; a map built from no
    probe has no entry.
    """

    def __init__(self, args, ckpt: Checkpoint):
        self.args = args
        self.ckpt = ckpt
        train_ds, val_ds, _ = _build_datasets(ckpt.config, int(ckpt.config["seed"]))
        if args.cost == "kl":
            self.cost = make_kl_cost(ckpt.params, val_ds.inputs)
            self.data = (ckpt.params, val_ds.inputs)
        elif args.cost == "loss":
            self.cost = make_loss_cost(ckpt.params.shape, train_ds)
            self.data = train_ds
        else:
            raise ValueError(f"unknown cost {args.cost!r}")
        self.measure = MeasureSpec(ckpt.sigma if args.measure == "gaussian" else None)
        self.opts = _search_options(args)
        self._loaded = Preconditioner.load(args.precond_file) if args.precond_file else None
        # (spectrum, basis) each map is shaped from: Adam's second moment on the
        # coordinate axes, and each curvature probe's result once asked for
        self._curvature = {"adam-nu": (ckpt.adam.nu, None)}
        self.build_seconds: dict[str, dict[str, dict[str, float]]] = {}

    def preconditioner(self, name: str, eps: float | None) -> Preconditioner:
        if name not in PRECONDITIONER_CHOICES:
            raise PreconditionerError("unknown preconditioner")
        args, params = self.args, self.ckpt.params
        if self._loaded is not None:
            return self._loaded
        if name == "none":
            return Preconditioner.identity(params.n)
        if name not in self._curvature:
            probe = hessian_full if name == "hessian" else hessian_diag
            took = self.build_seconds[name] = {}
            curvature = _timed(took, "curvature", probe, args.cost, params, self.data)
            self._curvature[name] = (
                _timed(took, "eigendecompose", eigendecompose, curvature)
                if name == "hessian"
                else (curvature, None)
            )
        spectrum, basis = self._curvature[name]
        eps = DEFAULT_EPS[name] if eps is None else eps
        return from_diagonal(spectrum, eps, source=name, basis=basis)

    def estimate(self, cutoff: float, name: str, eps: float | None, seed: int):
        spec = NeighborhoodSpec(
            anchor=self.ckpt.params.flat, cost=self.cost, cutoff=cutoff, measure=self.measure
        )
        return estimate_local_volume(spec, self.preconditioner(name, eps), self.args.k, self.opts, seed)


def cmd_estimate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    _refuse_unused_eps(args)
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    estimator = _CheckpointEstimator(args, ckpt)
    estimate = estimator.estimate(args.cutoff, args.preconditioner, args.eps, seed)
    wall = time.perf_counter() - start

    resolved = {"checkpoint": str(args.checkpoint)}
    for flag, _ in ESTIMATE_FLAGS:
        dest = flag[2:].replace("-", "_")
        resolved[dest] = getattr(args, dest)
    if args.eps is None and not args.precond_file:  # DEFAULT_EPS has no eps for the identity map
        resolved["eps"] = DEFAULT_EPS.get(args.preconditioner)
    resolved["anchor_sha256"] = _anchor_sha256(ckpt.params.flat)
    record = make_run_record("estimate", seed, resolved, estimate, wall)
    record["build_seconds"] = estimator.build_seconds.get(args.preconditioner, {})
    out = Path(args.out)
    write_jsonl(out, record)
    write_samples_csv(out.with_suffix(".samples.csv"), estimate)
    if args.save_precond:
        estimator.preconditioner(args.preconditioner, args.eps).save(args.save_precond)

    bound = " (lower bound: truncated rays)" if estimate.lower_bound_only else ""
    print(
        f"log_volume={estimate.log_volume:.6f} log10={estimate.log10_volume:.4f} "
        f"k={estimate.k} n={estimate.n} measure={estimate.measure.kind} "
        f"preconditioner={estimate.preconditioner_id} truncated={estimate.truncated_count} "
        f"failed={estimate.failed_count} evals_per_ray={estimate.evals_per_ray:.2f} "
        f"ess={estimate.ess:.2f} top_share={estimate.top_share:.3f} "
        f"prefix_rise={estimate.prefix_rise:.3f}{bound}"
    )
    return 0


# -- sweep ---------------------------------------------------------------------

SWEEP_FIELDS = [
    "kind",
    "value",
    "n",
    "k",
    "cutoff",
    "measure",
    "preconditioner",
    "log_volume",
    "log10_volume",
    "truncated_count",
    "failed_count",
    "status",
]


def _sweep_points(args) -> list[tuple]:
    """The sweep's points, each (value, checkpoint, cutoff, preconditioner, eps).

    A checkpoint of None stands for the synthetic quadratic target.
    """
    kind = args.kind
    if kind == "checkpoint":
        paths = [p for p in args.checkpoints.split(",") if p]
        if not paths:
            raise ValueError("sweep --kind checkpoint requires --checkpoints")
        _refuse_unused_eps(args, kind)
        ckpts = sorted((load_checkpoint(p) for p in paths), key=lambda ckpt: ckpt.step)
        return [(c.step, c, args.cutoff, args.preconditioner, args.eps) for c in ckpts]
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError(f"sweep --kind {kind} requires --values")
    if kind == "cutoff" and args.target == "quadratic":
        return [(float(v), None, float(v), "none", None) for v in values]
    if args.checkpoint is None:
        raise ValueError(f"sweep --kind {kind} requires --checkpoint")
    if args.precond_file and kind in ("preconditioner", "eps"):
        raise ValueError(f"--precond-file would replace every swept value of --kind {kind}")
    _refuse_unused_eps(args, kind)
    ckpt = load_checkpoint(args.checkpoint)
    if kind == "cutoff":
        return [(float(v), ckpt, float(v), args.preconditioner, args.eps) for v in values]
    if kind == "preconditioner":
        return [(v, ckpt, args.cutoff, v, args.eps) for v in values]
    return [(float(v), ckpt, args.cutoff, args.preconditioner, float(v)) for v in values]


def _quadratic_estimate(args, cutoff: float, seed: int):
    def cost(x: np.ndarray) -> float:
        return 0.5 * float(np.dot(x, x))

    spec = NeighborhoodSpec(np.zeros(args.n), cost, cutoff, MeasureSpec.lebesgue())
    return estimate_local_volume(
        spec, Preconditioner.identity(args.n), args.k, _search_options(args), seed
    )


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    rows = []
    done = []  # (value, log volume) of each point that succeeded
    estimator = None
    for value, ckpt, cutoff, name, eps in _sweep_points(args):
        # a failed point's row still names its own cutoff and preconditioner
        row = {
            "kind": args.kind,
            "value": value,
            "k": args.k,
            "cutoff": cutoff,
            "measure": "lebesgue" if ckpt is None else args.measure,
            "preconditioner": name,
        }
        try:
            if ckpt is None:
                est = _quadratic_estimate(args, cutoff, seed)
            else:
                if estimator is None or estimator.ckpt is not ckpt:
                    estimator = None  # free the last checkpoint's curvature first
                    estimator = _CheckpointEstimator(args, ckpt)
                est = estimator.estimate(cutoff, name, eps, seed)
        except (EstimationError, CostEvaluationError, PreconditionerError) as exc:
            rows.append({**row, "status": f"failed: {exc}"})
            continue
        row.update(
            n=est.n,
            measure=est.measure.kind,
            preconditioner=est.preconditioner_id,
            log_volume=repr(est.log_volume),
            log10_volume=repr(est.log10_volume),
            truncated_count=est.truncated_count,
            failed_count=est.failed_count,
            status="ok",
        )
        rows.append(row)
        done.append((value, est.log_volume))

    summary: dict = {"kind": args.kind, "seed": seed}
    if args.kind == "cutoff" and len(done) >= 2:
        xs = [math.log(cutoff) for cutoff, _ in done]
        slope = float(np.polyfit(xs, [log_volume for _, log_volume in done], 1)[0])
        summary["log_log_slope"] = slope
        print(f"fitted log-log slope of volume vs cutoff: {slope:.4f}")
    if args.kind == "eps" and done:
        eps, best = max(done, key=lambda pair: pair[1])
        summary.update(best_eps=eps, best_log_volume=best, grid_size=len(done))
        print(f"largest estimate at eps={eps} (log_volume={best:.4f}) of grid_size={len(done)}; "
              f"it overshoots by 10^m with probability <= {len(done)}*10^-m, not 10^-m")

    out = Path(args.out)
    write_sweep_csv(out, rows, SWEEP_FIELDS)
    if len(summary) > 2:
        out.with_suffix(".summary.json").write_text(json.dumps(summary, sort_keys=True))
    print(f"{len(rows)} sweep rows -> {out}")
    return 0


# -- mdl -------------------------------------------------------------------------


def cmd_mdl(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = read_jsonl(args.record)
    if not records:
        raise ValueError(f"no records in {args.record}")
    record = records[-1]
    if record.get("measure") != "lebesgue":
        print("error: description length requires a Lebesgue volume record", file=sys.stderr)
        return 2
    log_volume, n = float(record["log_volume"]), int(record["n"])
    if n != ckpt.params.n:
        raise ValueError(f"the record's n = {n} does not match the checkpoint's {ckpt.params.n} parameters")
    recorded, digest = record.get("config", {}).get("anchor_sha256"), _anchor_sha256(ckpt.params.flat)
    if recorded != digest:
        raise ValueError(
            f"the record's anchor_sha256 {recorded or '(missing)'} does not match the "
            f"checkpoint's {digest}: the record was estimated at another anchor"
        )
    config = ckpt.config
    train_ds, _, _ = _build_datasets(config, int(config["seed"]))
    dl = description_length(log_volume, ckpt.params, MeasureSpec.gaussian(ckpt.sigma), train_ds)
    payload = {
        "kl_term": dl.kl_term,
        "data_term": dl.data_term,
        "total": dl.total,
        "log_volume": log_volume,
        "n": n,
        "checkpoint": str(args.checkpoint),
    }
    Path(args.out).write_text(json.dumps(payload, sort_keys=True))
    print(f"kl_term={dl.kl_term:.4f} data_term={dl.data_term:.4f} total={dl.total:.4f} nats")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starvol",
        description="Local volume estimation for star-domain neighborhoods in parameter space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (default: STARVOL_SEED or 0)")

    p_train = sub.add_parser("train", help="train the tiny classifier and write checkpoints")
    p_train.add_argument("--config", type=str, default=None, help="JSON config file")
    p_train.add_argument("--out", type=str, default="runs/train", help="checkpoint directory")
    add_seed(p_train)
    p_train.set_defaults(func=cmd_train)

    shared = argparse.ArgumentParser(add_help=False)
    for flag, options in ESTIMATE_FLAGS:
        shared.add_argument(flag, **options)
    add_seed(shared)

    p_est = sub.add_parser("estimate", parents=[shared], help="estimate a checkpoint's local volume")
    p_est.add_argument("--checkpoint", type=str, required=True)
    p_est.add_argument("--out", type=str, default="runs.jsonl")
    p_est.add_argument("--save-precond", type=str, default=None, help="save the preconditioner used")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser(
        "sweep", parents=[shared], help="sweep cutoff, checkpoints, preconditioners, or eps"
    )
    p_sweep.add_argument("--kind", choices=("cutoff", "checkpoint", "preconditioner", "eps"), required=True)
    p_sweep.add_argument("--values", type=str, default="", help="comma-separated sweep values")
    p_sweep.add_argument("--checkpoint", type=str, default=None)
    p_sweep.add_argument("--checkpoints", type=str, default="", help="comma-separated checkpoint files")
    targets = ("checkpoint", "quadratic")
    p_sweep.add_argument("--target", choices=targets, default="checkpoint", help=TARGET_HELP)
    p_sweep.add_argument("--n", type=int, default=100, help="dimension for --target quadratic")
    p_sweep.add_argument("--out", type=str, default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mdl = sub.add_parser("mdl", help="two-part description length from a Lebesgue volume record")
    p_mdl.add_argument("--checkpoint", type=str, required=True)
    p_mdl.add_argument("--record", type=str, required=True, help="JSON Lines file from estimate")
    p_mdl.add_argument("--out", type=str, default="mdl.json")
    p_mdl.set_defaults(func=cmd_mdl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EstimationError, CostEvaluationError, PreconditionerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
