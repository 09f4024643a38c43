"""Command-line front end: train, estimate, sweep, mdl.

Every run is reproducible from its record: the master seed is ``--seed``
(for ``train``, else the config's seed; 0 by default), all internal
randomness is derived from it by fixed roles, and per-sample streams are
split by sample index. Estimates run on one thread (``--threads`` changes
nothing), so run separate processes for parallelism. ``estimate`` and
every ``sweep`` point run through one point runner, ``_Target.record``, so
a sweep point has an estimate's record, and each sweep output is read from
those records.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from .codec import Fields, count, integer, number, read_jsonl, write_json
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
from .runio import DEFAULT_CONFIG, SAMPLE_FIELDS, make_run_record, merge_config, sample_rows, write_csv

# fixed roles for deriving independent streams from the master seed
SEED_ROLES = {"data": 0, "init": 1, "train": 2}

PRECONDITIONER_CHOICES = ("none", "hessian", "diag", "adam-nu")
DATASET_KINDS = ("blobs", "spirals", "csv")
THREADS_HELP = "accepted and validated (at least 1) but ignored: every ray runs on the calling thread; run separate processes for parallelism"
TARGET_HELP = "quadratic: a synthetic |x|^2/2 cost under Lebesgue measure with the identity map; --kind cutoff only"


def _at_least(least: int):
    """An argparse type: a decimal integer >= ``least``; argparse names the flag in a refusal."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return parse


def _dataset_kind(kind) -> str:
    if kind not in DATASET_KINDS:
        raise ValueError(f"expected one of {', '.join(DATASET_KINDS)}, got {kind!r}")
    return kind


# flags shared by estimate and sweep, defined once in an argparse parent
# parser (with --seed); every point's record lists each under "config"
ESTIMATE_FLAGS = (
    ("--cost", {"choices": ("kl", "loss"), "default": "kl"}),
    ("--cutoff", {"type": float, "default": 1e-2}),
    ("--k", {"type": _at_least(1), "default": 100}),
    ("--preconditioner", {"choices": PRECONDITIONER_CHOICES, "default": "none"}),
    ("--measure", {"choices": ("gaussian",), "default": "gaussian"}),  # only a checkpoint's own init prior
    ("--threads", {"type": int, "default": SearchOptions.threads, "help": THREADS_HELP}),
    ("--rel-tol", {"type": float, "default": SearchOptions.rel_tol}),
)


def _role_seed(master: int, role: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(SEED_ROLES[role],))


def _build_datasets(config: Fields):
    """Materialize (train, val, poison) splits from the config's seed and dataset section."""
    ds, std = config.section("dataset"), lambda value: number(value, 0)  # as rng.normal takes it
    poison_size = ds.get("poison", lambda size: count(size, 0))
    # a zero-size split would make an empty Dataset, so only ask for it when used
    sizes = [ds.get("train", count), ds.get("val", count)] + ([poison_size] if poison_size > 0 else [])
    total = sum(sizes)
    data_seed = int(_role_seed(config.get("seed", lambda seed: count(seed, 0)), "data").generate_state(1)[0])
    kind = ds.get("kind", _dataset_kind)
    if kind == "blobs":
        classes = ds.get("classes", count)
        full = make_blobs(
            dim=ds.get("dim", count),
            classes=classes,
            per_class=-(-total // classes),  # ceil
            noise=ds.get("noise", std),
            center_scale=ds.get("center_scale", std),
            seed=data_seed,
        )
    elif kind == "spirals":
        full = make_spirals(per_class=-(-total // 2), noise=ds.get("noise", std),
                            dim=ds.get("dim", lambda dim: count(dim, 2)), seed=data_seed)
    else:  # csv
        def table(path):
            rows = load_csv(path)
            if rows.m < total:
                raise ValueError(f"csv has {rows.m} rows, config needs {total}")
            return rows

        full = ds.get("path", table)
    splits = split_dataset(full, sizes, seed=data_seed)
    return splits[0], splits[1], (splits[2] if poison_size > 0 else None)


# -- train ---------------------------------------------------------------------


def cmd_train(args) -> int:
    file_cfg = Fields.read(args.config, "config").data if args.config else {}
    Fields(file_cfg, args.config, "config").refuse_unknown(DEFAULT_CONFIG)
    config = merge_config(DEFAULT_CONFIG, file_cfg)
    fields = Fields(config, args.config, "config")
    config_seed = fields.get("seed", lambda seed: count(seed, 0))
    config["seed"] = master_seed = config_seed if args.seed is None else args.seed

    train_ds, val_ds, poison_ds = _build_datasets(fields)
    model = fields.section("model")
    hidden = model.get("hidden", lambda widths: [count(width) for width in widths])
    widths = [train_ds.dim, *hidden, train_ds.classes]
    init_rng = np.random.default_rng(_role_seed(master_seed, "init"))
    # each value is checked by its consumer as it is read, so a refusal names the field and the file
    params, measure = model.get("init", lambda rule: init_params(
        tuple(zip(widths, widths[1:])), rule if rule == "fan_in" else number(rule), init_rng))

    tr = fields.section("train")
    poison = tr.get("poison_alpha", lambda alpha: PoisonConfig(poison_ds, number(alpha)))  # refuses alpha < 0
    if poison.alpha and poison_ds is None:
        raise ValueError(f"malformed config field train.poison_alpha in {fields.path}: a poison weight of "
                         f"{poison.alpha} needs a poison split, but dataset.poison is 0")
    poison, hyper = poison if poison.alpha else None, AdamHyper()
    for name in ("lr", "beta1", "beta2", "adam_eps"):
        hyper = tr.get(name, lambda value: dataclasses.replace(hyper, **{name: number(value)}))
    train_seed = int(_role_seed(master_seed, "train").generate_state(1)[0])
    train_cfg = TrainConfig(
        epochs=tr.get("epochs", count),
        batch_size=tr.get("batch_size", count),
        seed=train_seed,
        hyper=hyper,
        checkpoint_every=tr.get("checkpoint_every", lambda every: count(every, 0)),
        poison=poison,
    )
    result = adam_train(params, train_ds, train_cfg, val_dataset=val_ds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ckpt_params, adam_state, step in zip(result.checkpoints, result.adam_states, result.steps):
        save_checkpoint(out_dir / f"checkpoint_step{step:06d}.json",
                        Checkpoint(params=ckpt_params, nu=adam_state.nu, sigma=measure.sigma, step=step, config=config))
    fields = sorted({key for row in result.metrics for key in row} - {"step"})
    write_csv(out_dir / "metrics.csv", list(result.metrics), ["step", *fields])

    final = result.metrics[-1]
    losses = " ".join(f"{key}={final[key]:.4f}" for key in ("train_loss", "val_loss", "poison_loss") if key in final)
    print(f"trained {len(result.steps)} checkpoints -> {out_dir}\nfinal step {final['step']}: {losses}")
    return 0


# -- estimate ------------------------------------------------------------------


def _anchor_sha256(flat: np.ndarray) -> str:
    """SHA-256 of the anchor's little-endian float64 bytes, which ties a record to its checkpoint."""
    import hashlib  # loads OpenSSL, about 4 MB resident, which train does not need

    return hashlib.sha256(np.asarray(flat, dtype="<f8").tobytes()).hexdigest()


def _timed(into: dict, stage: str, fn, *args):
    """``fn(*args)``, its process CPU and wall seconds kept as ``into[stage]``, as an
    estimate's ``stage_seconds`` keeps each stage's."""
    cpu0, wall0 = _clock()
    out = fn(*args)
    cpu1, wall1 = _clock()
    into[stage] = {"cpu": cpu1 - cpu0, "wall": wall1 - wall0}
    return out


def _half_square(x: np.ndarray) -> float:
    return 0.5 * float(np.dot(x, x))


class _Target:
    """What estimate and every sweep point estimate: a checkpoint, or the quadratic.

    A checkpoint's target is its ``--cost`` under its Gaussian init prior,
    with its datasets and search options built once, and so is each named
    map, from the checkpoint alone, shaped at ``DEFAULT_EPS[name]``. The
    full Hessian is kept only as the hessian map's eigenvectors.
    ``build_seconds[name]`` holds the process CPU and wall seconds of the
    map's ``curvature`` probe and, for the hessian map, its
    ``eigendecompose``; a map built from no probe has no entry. With no
    checkpoint, the target is |x|^2/2 at ``zeros(--n)`` under the Lebesgue
    measure, with the identity map.
    """

    def __init__(self, args, ckpt: Checkpoint | None = None, path: str | None = None):
        self.args, self.ckpt, self.path = args, ckpt, path
        self.opts = SearchOptions(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchOptions)})
        self.build_seconds: dict[str, dict[str, dict[str, float]]] = {}
        self._maps: dict[str, Preconditioner] = {}
        if ckpt is None:
            self.anchor, self.cost, self.measure = np.zeros(args.n), _half_square, MeasureSpec.lebesgue()
        else:
            train_ds, val_ds, _ = _build_datasets(Fields(ckpt.config, path, "checkpoint config"))
            if args.cost == "kl":
                self.cost = make_kl_cost(ckpt.params, val_ds.inputs)
                self.data = (ckpt.params, val_ds.inputs)
            elif args.cost == "loss":
                self.cost = make_loss_cost(ckpt.params.shape, train_ds)
                self.data = train_ds
            else:
                raise ValueError(f"unknown cost {args.cost!r}")
            self.anchor, self.measure = ckpt.params.flat, MeasureSpec.gaussian(ckpt.sigma)
        self.anchor_sha256 = _anchor_sha256(self.anchor)

    def preconditioner(self, name: str) -> Preconditioner:
        if name not in PRECONDITIONER_CHOICES:
            raise PreconditionerError("unknown preconditioner")
        if name not in self._maps:
            self._maps[name] = self._build(name)
        return self._maps[name]

    def _build(self, name: str) -> Preconditioner:
        if name == "none":
            return Preconditioner.identity(self.anchor.size)
        params = self.ckpt.params
        # Adam's second moment on the coordinate axes, or a curvature probe's result
        spectrum, basis = self.ckpt.nu, None
        if name != "adam-nu":
            took = self.build_seconds[name] = {}
            probe = hessian_full if name == "hessian" else hessian_diag
            spectrum = _timed(took, "curvature", probe, self.args.cost, params, self.data)
            if name == "hessian":
                spectrum, basis = _timed(took, "eigendecompose", eigendecompose, spectrum)
        return from_diagonal(spectrum, DEFAULT_EPS[name], source=name, basis=basis)

    def record(self, cutoff: float, name: str, seed: int):
        """``(record, estimate)`` of one point: the estimate at ``cutoff`` with map ``name``,
        and its run record.

        The record's config lists the flags, the checkpoint path (null for
        the quadratic, as are its cost and measure), the point's own cutoff
        and map, the eps that map was shaped at (null for the identity map)
        and the anchor's ``anchor_sha256``: every input of the map.
        ``estimate`` raises a failed estimate; a sweep gets a record with
        ``status`` ``failed: <reason>`` and no estimate fields, and an
        estimate of None.
        """
        args = self.args
        config = {"checkpoint": self.path}
        for flag, _ in ESTIMATE_FLAGS:
            dest = flag[2:].replace("-", "_")
            config[dest] = getattr(args, dest)
        config.update(cutoff=cutoff, preconditioner=name, anchor_sha256=self.anchor_sha256, eps=DEFAULT_EPS.get(name))
        if self.ckpt is None:  # the quadratic takes its cost, measure and map from no flag
            config.update(cost=None, measure=None)
        start = time.perf_counter()
        try:
            spec = NeighborhoodSpec(self.anchor, self.cost, cutoff, self.measure)
            estimate = estimate_local_volume(spec, self.preconditioner(name), args.k, self.opts, seed)
        except (EstimationError, CostEvaluationError, PreconditionerError) as exc:
            if args.command == "estimate":
                raise
            record = make_run_record(args.command, seed, config, None, time.perf_counter() - start)
            record.update(k=args.k, cutoff=cutoff, measure=self.measure.kind, preconditioner=name,
                          status=f"failed: {exc}")
            return record, None
        record = make_run_record(args.command, seed, config, estimate, time.perf_counter() - start)
        record["build_seconds"] = self.build_seconds.get(name, {})
        return record, estimate


def cmd_estimate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    target = _Target(args, ckpt, args.checkpoint)
    record, estimate = target.record(args.cutoff, args.preconditioner, args.seed)
    out = Path(args.out)
    write_json(out, record)
    write_csv(out.with_suffix(".samples.csv"), sample_rows(estimate), SAMPLE_FIELDS)

    print(
        "log_volume={log_volume:.6f} log10={log10_volume:.4f} k={k} n={n} measure={measure} "
        "preconditioner={preconditioner} truncated={truncated_count} failed={failed_count} "
        "cost_evals={cost_evals} evals_per_ray={evals_per_ray:.2f} ess={ess:.2f} top_share={top_share:.3f} "
        "prefix_rise={prefix_rise:.3f} ".format(**record)
        + " ".join(f"{stage}_cpu_s={took['cpu']:.4f}" for stage, took in record["stage_seconds"].items())
    )
    return 0


# -- sweep ---------------------------------------------------------------------

# the record fields a sweep CSV row holds after its kind and value
SWEEP_FIELDS = ["n", "k", "cutoff", "measure", "preconditioner", "log_volume", "log10_volume", "truncated_count",
                "failed_count", "status"]

# the flags each sweep target and kind does not read, refused when given away
# from their defaults: a kind sets each point's own value of the flag it
# varies, and the quadratic's cost and map come from no flag
SWEEP_UNREAD = {
    ("checkpoint", "cutoff"): ("n", "cutoff"),
    ("checkpoint", "checkpoint"): ("checkpoint", "n"),
    ("checkpoint", "preconditioner"): ("n", "preconditioner"),
    ("quadratic", "cutoff"): ("checkpoint", "cost", "cutoff", "preconditioner"),
}


def _cutoff_entry(entry: str) -> float:
    """One ``--values`` entry of a cutoff sweep as a positive finite float, or a refusal
    naming the flag and the entry."""
    try:
        cutoff = float(entry)
    except ValueError:
        raise ValueError(f"sweep --values entry {entry!r} is not a number") from None
    if not 0 < cutoff < math.inf:
        raise ValueError(f"sweep --values entry {entry!r} is not a positive finite cutoff")
    return cutoff


def _sweep_targets(args) -> list[tuple]:
    """The sweep's targets, each (its checkpoint and path, or () for the quadratic, its points).

    A point is (value, cutoff, preconditioner).
    """
    kind, unread = args.kind, SWEEP_UNREAD.get((args.target, args.kind))
    if unread is None:
        raise ValueError(f"sweep --target quadratic sweeps --kind cutoff only, not --kind {kind}")
    defaults = build_parser().parse_args(["sweep", "--kind", kind])
    if given := [f"--{dest.replace('_', '-')}" for dest in unread if getattr(args, dest) != getattr(defaults, dest)]:
        scope = "--target quadratic" if args.target == "quadratic" else f"--kind {kind}"
        raise ValueError(f"sweep {scope} takes no {', '.join(given)}")
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError(f"sweep --kind {kind} requires --values")
    if kind == "cutoff":
        values = [_cutoff_entry(v) for v in values]
    if args.target == "quadratic":
        return [((), [(v, v, "none") for v in values])]
    if kind == "checkpoint":
        ckpts = sorted(((load_checkpoint(p), p) for p in values), key=lambda pair: pair[0].step)
        return [((c, p), [(c.step, args.cutoff, args.preconditioner)]) for c, p in ckpts]
    if args.checkpoint is None:
        raise ValueError(f"sweep --kind {kind} requires --checkpoint")
    source = (load_checkpoint(args.checkpoint), args.checkpoint)
    if kind == "cutoff":
        return [(source, [(v, v, args.preconditioner) for v in values])]
    return [(source, [(v, args.cutoff, v) for v in values])]


def cmd_sweep(args) -> int:
    points, samples = [], []  # (value, record) of each point, and the sample rows of those that succeeded
    for source, values in _sweep_targets(args):
        # an input the target refuses exits; a failed estimate gets a record
        target = None  # free the last checkpoint's curvature first
        target = _Target(args, *source)
        for value, cutoff, name in values:
            record, estimate = target.record(cutoff, name, args.seed)
            samples += sample_rows(estimate, point=len(points)) if estimate else []
            points.append((value, record))
            del estimate  # and with it the point's k x n block of directions

    out = Path(args.out)
    rows = [{"kind": args.kind, "value": value, **{f: r[f] for f in SWEEP_FIELDS if f in r}} for value, r in points]
    write_csv(out, rows, ["kind", "value", *SWEEP_FIELDS])
    write_json(out.with_suffix(".records.jsonl"), *(r for _, r in points))
    write_csv(out.with_suffix(".samples.csv"), samples, ["point", *SAMPLE_FIELDS])
    # a slope needs two distinct cutoffs that succeeded
    done = [r for _, r in points if r["status"] == "ok"]
    slope = None
    if args.kind == "cutoff" and len({r["cutoff"] for r in done}) >= 2:
        xs = [math.log(r["cutoff"]) for r in done]
        slope = float(np.polyfit(xs, [r["log_volume"] for r in done], 1)[0])
        print(f"fitted log-log slope of volume vs cutoff: {slope:.4f}")
    write_json(out.with_suffix(".summary.json"), {"kind": args.kind, "log_log_slope": slope, "seed": args.seed})
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
    if (cost := config.get("cost", optional=True)) != "loss":
        raise ValueError(f"description length requires a loss-cost volume record, not cost {cost!r}")
    if n != ckpt.params.n:
        raise ValueError(f"the record's n = {n} does not match the checkpoint's {ckpt.params.n} parameters")
    recorded, digest = config.get("anchor_sha256", optional=True), _anchor_sha256(ckpt.params.flat)
    if recorded != digest:
        raise ValueError(
            f"the record's anchor_sha256 {recorded or '(missing)'} does not match the "
            f"checkpoint's {digest}: the record was estimated at another anchor"
        )
    cutoff = record.get("cutoff", number)
    m = Fields(ckpt.config, args.checkpoint, "checkpoint config").section("dataset").get("train", count)
    # every member has m * loss < m * cutoff, so the sum bounds the labels' bits-back length
    kl_term, data_term = -log_volume, m * cutoff
    total = kl_term + data_term
    payload = {"kl_term": kl_term, "data_term": data_term, "total": total, "log_volume": log_volume, "n": n,
               "cutoff": cutoff, "m": m, "slack_per_decade": math.log(10), "checkpoint": str(args.checkpoint)}
    write_json(args.out, payload)
    print(f"kl_term={kl_term:.4f} data_term={data_term:.4f} total={total:.4f} nats, "
          f"+ j*{math.log(10):.4f} at confidence 1-10^-j")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starvol",
        description="Local volume estimation for star-domain neighborhoods in parameter space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the tiny classifier and write checkpoints")
    p_train.add_argument("--config", type=str, default=None, help="JSON config file")
    p_train.add_argument("--out", type=str, default="runs/train", help="checkpoint directory")
    p_train.add_argument("--seed", type=_at_least(0), help="master seed (default: the config's seed, else 0)")
    p_train.set_defaults(func=cmd_train)

    shared = argparse.ArgumentParser(add_help=False)
    for flag, options in ESTIMATE_FLAGS:
        shared.add_argument(flag, **options)
    shared.add_argument("--seed", type=_at_least(0), default=0, help="master seed")

    p_est = sub.add_parser("estimate", parents=[shared], help="estimate a checkpoint's local volume")
    p_est.add_argument("--checkpoint", type=str, required=True)
    p_est.add_argument("--out", type=str, default="runs.jsonl")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser(
        "sweep", parents=[shared], help="sweep cutoff, checkpoints, or preconditioners"
    )
    p_sweep.add_argument("--kind", choices=("cutoff", "checkpoint", "preconditioner"), required=True)
    p_sweep.add_argument("--values", type=str, default="", help="comma-separated cutoffs, checkpoints or maps")
    p_sweep.add_argument("--checkpoint", type=str, default=None)
    targets = ("checkpoint", "quadratic")
    p_sweep.add_argument("--target", choices=targets, default="checkpoint", help=TARGET_HELP)
    p_sweep.add_argument("--n", type=_at_least(1), default=100, help="dimension for --target quadratic")
    p_sweep.add_argument("--out", type=str, default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mdl = sub.add_parser("mdl", help="a bound on the labels' code length from a Gaussian loss-cost volume record")
    p_mdl.add_argument("--checkpoint", type=str, required=True)
    p_mdl.add_argument("--record", type=str, required=True, help="JSON Lines file from estimate or sweep")
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
