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

from .codec import Fields, count, integer, number
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
    make_run_record,
    merge_config,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_samples_csv,
)

# fixed roles for deriving independent streams from the master seed
SEED_ROLES = {"data": 0, "init": 1, "train": 2}

PRECONDITIONER_CHOICES = ("none", "hessian", "diag", "adam-nu")
PRECOND_FILE_HELP = "load a saved preconditioner (a sweep accepts it over cutoffs or checkpoints only)"
THREADS_HELP = "accepted and validated (at least 1) but ignored: every ray runs on the calling thread; run separate processes for parallelism"
TARGET_HELP = "quadratic: a synthetic |x|^2/2 cost, always with Lebesgue measure and the identity map"

# flags shared by estimate and sweep, defined once in an argparse parent
# parser (with --seed); an estimate record lists each under "config"
ESTIMATE_FLAGS = (
    ("--cost", {"choices": ("kl", "loss"), "default": "kl"}),
    ("--cutoff", {"type": float, "default": 1e-2}),
    ("--k", {"type": int, "default": 100}),
    ("--preconditioner", {"choices": PRECONDITIONER_CHOICES, "default": "none"}),
    ("--measure", {"choices": ("gaussian",), "default": "gaussian"}),  # only a checkpoint's own init prior
    ("--threads", {"type": int, "default": 1, "help": THREADS_HELP}),
    ("--r-max", {"type": float, "default": None}),
    ("--rel-tol", {"type": float, "default": 1e-4}),
    ("--precond-file", {"type": str, "default": None, "help": PRECOND_FILE_HELP}),
)


def _role_seed(master: int, role: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(SEED_ROLES[role],))


def _resolve_seed(flag_seed: int | None, config_seed=None) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if config_seed is not None:
        return config_seed
    return default_seed()


def _build_datasets(config: Fields):
    """Materialize (train, val, poison) splits from the config's seed and dataset section."""
    ds = config.section("dataset")
    poison_size = ds.get("poison", lambda size: count(size, 0))
    # a zero-size split would make an empty Dataset, so only ask for it when used
    sizes = [ds.get("train", count), ds.get("val", count)] + ([poison_size] if poison_size > 0 else [])
    total = sum(sizes)
    data_seed = int(_role_seed(config.get("seed", integer), "data").generate_state(1)[0])
    kind = ds.get("kind")
    if kind == "blobs":
        classes = ds.get("classes", count)
        full = make_blobs(
            dim=ds.get("dim", count),
            classes=classes,
            per_class=-(-total // classes),  # ceil
            noise=ds.get("noise", number),
            center_scale=ds.get("center_scale", number),
            seed=data_seed,
        )
    elif kind == "spirals":
        full = make_spirals(per_class=-(-total // 2), noise=ds.get("noise", number), dim=ds.get("dim", count),
                            seed=data_seed)
    elif kind == "csv":
        full = load_csv(ds.get("path"))
        if full.m < total:
            raise ValueError(f"csv has {full.m} rows, config needs {total}")
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    splits = split_dataset(full, sizes, seed=data_seed)
    return splits[0], splits[1], (splits[2] if poison_size > 0 else None)


# -- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    file_cfg = Fields.read(args.config, "config").data if args.config else {}
    Fields(file_cfg, args.config, "config").refuse_unknown(DEFAULT_CONFIG)
    config = merge_config(DEFAULT_CONFIG, file_cfg)
    fields = Fields(config, args.config, "config")
    master_seed = _resolve_seed(args.seed, fields.get("seed", integer, optional=True))
    config["seed"] = master_seed

    train_ds, val_ds, poison_ds = _build_datasets(fields)
    model = fields.section("model")
    hidden = model.get("hidden", lambda widths: [count(width) for width in widths])
    widths = [train_ds.dim, *hidden, train_ds.num_classes]
    init = model.get("init", lambda rule: rule if rule == "fan_in" else number(rule))
    init_rng = np.random.default_rng(_role_seed(master_seed, "init"))
    params, measure = init_params(tuple(zip(widths, widths[1:])), init, init_rng)

    tr = fields.section("train")
    poison, alpha = None, tr.get("poison_alpha", number)
    if poison_ds is not None and alpha != 0:  # PoisonConfig refuses alpha < 0
        poison = PoisonConfig(dataset=poison_ds, alpha=alpha)
    train_seed = int(_role_seed(master_seed, "train").generate_state(1)[0])
    train_cfg = TrainConfig(
        epochs=tr.get("epochs", count),
        batch_size=tr.get("batch_size", count),
        seed=train_seed,
        hyper=AdamHyper(**{name: tr.get(name, number) for name in ("lr", "beta1", "beta2", "adam_eps")}),
        checkpoint_every=tr.get("checkpoint_every", integer),
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
    write_csv(metrics_path, list(result.metrics), fields)

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

    The datasets, cost, measure (always the checkpoint's Gaussian init
    prior), search options and any ``--precond-file`` map are built once,
    and so is each named map, shaped at ``DEFAULT_EPS[name]``; a
    ``--precond-file`` map stands for every name.
    The full Hessian is kept only as the hessian map's eigenvectors.
    ``build_seconds[name]`` holds the process CPU and wall seconds of the
    map's ``curvature`` probe and, for the hessian map, its
    ``eigendecompose``; a map built from no probe has no entry.
    """

    def __init__(self, args, ckpt: Checkpoint, path: str):
        self.args = args
        self.ckpt = ckpt
        train_ds, val_ds, _ = _build_datasets(Fields(ckpt.config, path, "checkpoint config"))
        if args.cost == "kl":
            self.cost = make_kl_cost(ckpt.params, val_ds.inputs)
            self.data = (ckpt.params, val_ds.inputs)
        elif args.cost == "loss":
            self.cost = make_loss_cost(ckpt.params.shape, train_ds)
            self.data = train_ds
        else:
            raise ValueError(f"unknown cost {args.cost!r}")
        self.measure = MeasureSpec.gaussian(ckpt.sigma)
        self.opts = _search_options(args)
        loaded = Preconditioner.load(args.precond_file) if args.precond_file else None
        self._maps = dict.fromkeys(PRECONDITIONER_CHOICES, loaded) if loaded else {}
        self.build_seconds: dict[str, dict[str, dict[str, float]]] = {}

    def preconditioner(self, name: str) -> Preconditioner:
        if name not in PRECONDITIONER_CHOICES:
            raise PreconditionerError("unknown preconditioner")
        if name not in self._maps:
            self._maps[name] = self._build(name)
        return self._maps[name]

    def _build(self, name: str) -> Preconditioner:
        params = self.ckpt.params
        if name == "none":
            return Preconditioner.identity(params.n)
        # Adam's second moment on the coordinate axes, or a curvature probe's result
        spectrum, basis = self.ckpt.adam.nu, None
        if name != "adam-nu":
            took = self.build_seconds[name] = {}
            probe = hessian_full if name == "hessian" else hessian_diag
            spectrum = _timed(took, "curvature", probe, self.args.cost, params, self.data)
            if name == "hessian":
                spectrum, basis = _timed(took, "eigendecompose", eigendecompose, spectrum)
        return from_diagonal(spectrum, DEFAULT_EPS[name], source=name, basis=basis)

    def estimate(self, cutoff: float, name: str, seed: int):
        spec = NeighborhoodSpec(
            anchor=self.ckpt.params.flat, cost=self.cost, cutoff=cutoff, measure=self.measure
        )
        return estimate_local_volume(spec, self.preconditioner(name), self.args.k, self.opts, seed)


def cmd_estimate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    estimator = _CheckpointEstimator(args, ckpt, args.checkpoint)
    estimate = estimator.estimate(args.cutoff, args.preconditioner, seed)
    wall = time.perf_counter() - start

    resolved = {"checkpoint": str(args.checkpoint)}
    for flag, _ in ESTIMATE_FLAGS:
        dest = flag[2:].replace("-", "_")
        resolved[dest] = getattr(args, dest)
    # the eps the map was shaped at: none for the identity map or a loaded map
    resolved["eps"] = None if args.precond_file else DEFAULT_EPS.get(args.preconditioner)
    resolved["anchor_sha256"] = _anchor_sha256(ckpt.params.flat)
    record = make_run_record("estimate", seed, resolved, estimate, wall)
    record["build_seconds"] = estimator.build_seconds.get(args.preconditioner, {})
    out = Path(args.out)
    write_jsonl(out, record)
    write_samples_csv(out.with_suffix(".samples.csv"), estimate)
    if args.save_precond:
        estimator.preconditioner(args.preconditioner).save(args.save_precond)

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
    """The sweep's points, each (value, (checkpoint, its path), cutoff, preconditioner).

    A checkpoint pair of None stands for the synthetic quadratic target.
    """
    kind = args.kind
    if kind == "checkpoint":
        paths = [p for p in args.checkpoints.split(",") if p]
        if not paths:
            raise ValueError("sweep --kind checkpoint requires --checkpoints")
        ckpts = sorted(((load_checkpoint(p), p) for p in paths), key=lambda pair: pair[0].step)
        return [(c.step, (c, p), args.cutoff, args.preconditioner) for c, p in ckpts]
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError(f"sweep --kind {kind} requires --values")
    if kind == "cutoff" and args.target == "quadratic":
        return [(float(v), None, float(v), "none") for v in values]
    if args.checkpoint is None:
        raise ValueError(f"sweep --kind {kind} requires --checkpoint")
    if args.precond_file and kind == "preconditioner":
        raise ValueError("--precond-file would replace every swept value of --kind preconditioner")
    source = (load_checkpoint(args.checkpoint), args.checkpoint)
    if kind == "cutoff":
        return [(float(v), source, float(v), args.preconditioner) for v in values]
    return [(v, source, args.cutoff, v) for v in values]


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
    for value, source, cutoff, name in _sweep_points(args):
        # an input the estimator refuses exits; a failed estimate gets a row
        if source is not None and (estimator is None or estimator.ckpt is not source[0]):
            estimator = None  # free the last checkpoint's curvature first
            estimator = _CheckpointEstimator(args, *source)
        # a failed point's row still names its own cutoff and preconditioner
        row = {
            "kind": args.kind,
            "value": value,
            "k": args.k,
            "cutoff": cutoff,
            "measure": "lebesgue" if source is None else args.measure,
            "preconditioner": name,
        }
        try:
            est = _quadratic_estimate(args, cutoff, seed) if source is None else estimator.estimate(cutoff, name, seed)
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

    out = Path(args.out)
    write_csv(out, rows, SWEEP_FIELDS)
    if args.kind == "cutoff" and len(done) >= 2:
        xs = [math.log(cutoff) for cutoff, _ in done]
        slope = float(np.polyfit(xs, [log_volume for _, log_volume in done], 1)[0])
        print(f"fitted log-log slope of volume vs cutoff: {slope:.4f}")
        summary = {"kind": args.kind, "log_log_slope": slope, "seed": seed}
        out.with_suffix(".summary.json").write_text(json.dumps(summary, sort_keys=True))
    print(f"{len(rows)} sweep rows -> {out}")
    return 0


# -- mdl -------------------------------------------------------------------------


def cmd_mdl(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = read_jsonl(args.record)
    if not records:
        raise ValueError(f"no records in {args.record}")
    record = Fields(records[-1], args.record, "record", root="the last record")
    if (measure := record.get("measure", optional=True)) != "gaussian":
        raise ValueError(f"description length requires a Gaussian volume record, not measure {measure!r}")
    log_volume, n, config = record.get("log_volume", number), record.get("n", integer), record.section("config")
    if n != ckpt.params.n:
        raise ValueError(f"the record's n = {n} does not match the checkpoint's {ckpt.params.n} parameters")
    recorded, digest = config.get("anchor_sha256", optional=True), _anchor_sha256(ckpt.params.flat)
    if recorded != digest:
        raise ValueError(
            f"the record's anchor_sha256 {recorded or '(missing)'} does not match the "
            f"checkpoint's {digest}: the record was estimated at another anchor"
        )
    train_ds, _, _ = _build_datasets(Fields(ckpt.config, args.checkpoint, "checkpoint config"))
    dl = description_length(log_volume, ckpt.params, train_ds)
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
        "sweep", parents=[shared], help="sweep cutoff, checkpoints, or preconditioners"
    )
    p_sweep.add_argument("--kind", choices=("cutoff", "checkpoint", "preconditioner"), required=True)
    p_sweep.add_argument("--values", type=str, default="", help="comma-separated sweep values")
    p_sweep.add_argument("--checkpoint", type=str, default=None)
    p_sweep.add_argument("--checkpoints", type=str, default="", help="comma-separated checkpoint files")
    targets = ("checkpoint", "quadratic")
    p_sweep.add_argument("--target", choices=targets, default="checkpoint", help=TARGET_HELP)
    p_sweep.add_argument("--n", type=int, default=100, help="dimension for --target quadratic")
    p_sweep.add_argument("--out", type=str, default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mdl = sub.add_parser("mdl", help="two-part description length from a Gaussian volume record")
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
