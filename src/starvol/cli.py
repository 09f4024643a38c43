"""Command-line front end: train, estimate.

Every run is reproducible from its record: the master seed is ``--seed``
(for ``train``, else the config's seed; 0 by default), all internal
randomness is derived from it by fixed roles, and per-sample streams are
split by sample index. Estimates run on one thread (``--threads`` changes
nothing), so run separate processes for parallelism. One ``estimate`` runs
every point, each combination of its checkpoints, maps and cutoffs, through
one point runner, ``_Target.record``, and writes one record per point. A
loss-cost point's record also holds its description length, so no command
reads a record back.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from .codec import Fields, count, number, write_json
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
from .models.mlp import init_measure
from .models.train import AdamHyper
from .precondition import DEFAULT_EPS, Preconditioner, PreconditionerError, eigendecompose, from_diagonal
from .runio import DEFAULT_CONFIG, SAMPLE_FIELDS, make_run_record, merge_config, sample_rows, write_csv

# fixed roles for deriving independent streams from the master seed
SEED_ROLES = {"data": 0, "init": 1, "train": 2}

PRECONDITIONER_CHOICES = ("none", "hessian", "diag", "adam-nu")
DATASET_KINDS = ("blobs", "spirals", "csv")
THREADS_HELP = "accepted and validated (at least 1) but ignored: every ray runs on the calling thread; run separate processes for parallelism"


def _at_least(least: int):
    """An argparse type: a decimal integer >= ``least``; argparse names the flag in a refusal."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return parse


def _positive_finite(text: str) -> float:
    """An argparse type: a positive finite number; argparse names the flag in a refusal."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if 0 < value < math.inf:
        return value
    raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")


def _dataset_kind(kind) -> str:
    if kind not in DATASET_KINDS:
        raise ValueError(f"expected one of {', '.join(DATASET_KINDS)}, got {kind!r}")
    return kind


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
            try:
                rows = load_csv(path)
            except OSError as exc:  # numpy's refusal names the file alone, or not at all
                raise ValueError(f"cannot read csv table {path!r}: {exc.strerror or exc}") from None
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
    params, _ = model.get("init", lambda rule: init_params(tuple(zip(widths, widths[1:])), rule, init_rng))

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
                        Checkpoint(params=ckpt_params, nu=adam_state.nu, step=step, config=config))
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
    """What each point of an estimate estimates: a checkpoint, or the quadratic.

    A checkpoint's target is its ``--cost`` under the Gaussian prior that
    ``init_measure`` builds from its shape and ``model.init``, with its
    datasets and search options built once, and so is each named map, from
    the checkpoint alone, shaped at ``DEFAULT_EPS[name]``. The full Hessian
    is kept only as the hessian map's eigenvectors. ``build_seconds[name]``
    holds the process CPU and wall seconds of the map's ``curvature`` probe
    and, for the hessian map, its ``eigendecompose``; a map built from no
    probe has no entry. With no checkpoint, the target is |x|^2/2 at
    ``zeros(--n)`` under the Lebesgue measure, with the identity map.
    """

    def __init__(self, args, ckpt: Checkpoint | None = None, path: str | None = None):
        self.args, self.ckpt, self.path = args, ckpt, path
        self.opts = SearchOptions(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchOptions)})
        self.build_seconds: dict[str, dict[str, dict[str, float]]] = {}
        self._maps: dict[str, Preconditioner] = {}
        if ckpt is None:
            self.anchor, self.cost, self.measure = np.zeros(args.n), _half_square, MeasureSpec.lebesgue()
        else:
            config = Fields(ckpt.config, path, "checkpoint config")
            train_ds, val_ds, _ = _build_datasets(config)
            if args.cost == "kl":
                self.cost = make_kl_cost(ckpt.params, val_ds.inputs)
                self.data = (ckpt.params, val_ds.inputs)
            else:  # loss
                self.cost = make_loss_cost(ckpt.params.shape, train_ds)
                self.data = train_ds
            self.anchor, prior = ckpt.params.flat, lambda rule: init_measure(ckpt.params.shape, rule)
            self.measure = config.section("model").get("init", prior)
        self.anchor_sha256 = _anchor_sha256(self.anchor)

    def preconditioner(self, name: str) -> Preconditioner:
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

        The record's config lists the flags, the checkpoint path and step
        (null for the quadratic, as are its cost and measure), the point's
        own cutoff and map, the eps that map was shaped at (null for the
        identity map) and the anchor's ``anchor_sha256``: every input of the
        map. The record's ``preconditioner`` is the map's name. A loss-cost
        record also holds ``m``, the training rows the loss averages over,
        and its ``description_length``, −``log_volume`` + m × ``cutoff``. A
        failed point's record has ``status`` ``failed: <reason>`` and no
        estimate fields, and its estimate is None.
        """
        args, ckpt = self.args, self.ckpt
        config = {flag: getattr(args, flag) for flag in ("cost", "k", "measure", "threads", "rel_tol")}
        config.update(checkpoint=self.path, step=None if ckpt is None else ckpt.step, cutoff=cutoff,
                      preconditioner=name, anchor_sha256=self.anchor_sha256, eps=DEFAULT_EPS.get(name))
        if ckpt is None:  # the quadratic takes its cost, measure and map from no flag
            config.update(cost=None, measure=None)
        start = time.perf_counter()
        try:
            spec = NeighborhoodSpec(self.anchor, self.cost, cutoff, self.measure)
            estimate = estimate_local_volume(spec, self.preconditioner(name), args.k, self.opts, seed)
        except (EstimationError, CostEvaluationError, PreconditionerError) as exc:
            record = make_run_record("estimate", seed, config, None, time.perf_counter() - start)
            record.update(k=args.k, cutoff=cutoff, measure=self.measure.kind, preconditioner=name,
                          status=f"failed: {exc}")
            return record, None
        record = make_run_record("estimate", seed, config, estimate, time.perf_counter() - start)
        record.update(preconditioner=name, build_seconds=self.build_seconds.get(name, {}))
        if config["cost"] == "loss":
            # every member of the neighborhood has m * loss < m * cutoff, so this
            # bounds the bits-back code length of the m training labels
            m = self.data.m
            record.update(m=m, description_length=-record["log_volume"] + m * record["cutoff"])
        return record, estimate


def cmd_estimate(args) -> int:
    """Estimate every point: each checkpoint in the order given (or the
    quadratic), then each map, then each cutoff.

    Every input is read before any point runs, so a malformed checkpoint
    writes no file. A failed point gets its record; after every file is
    written, the command fails if any point did.
    """
    if args.n is not None:  # |x|^2/2 has no loss, and its map is the identity
        if args.cost != "kl":
            raise ValueError(f"estimate --n takes no --cost {args.cost}")
        if maps := [name for name in args.preconditioner if name != "none"]:
            raise ValueError(f"estimate --n takes no --preconditioner {' '.join(maps)}")
        targets = [_Target(args)]
    else:
        targets = [_Target(args, load_checkpoint(path), path) for path in args.checkpoint]
    records, samples = [], []  # every point's record, and the sample rows of those that succeeded
    while targets:
        target = targets.pop(0)  # which frees the last checkpoint's target, and with it its maps
        for name in args.preconditioner:
            for cutoff in args.cutoff:
                record, estimate = target.record(cutoff, name, args.seed)
                _print_summary(len(records), record, estimate)
                samples += sample_rows(estimate, point=len(records)) if estimate else []
                records.append(record)
                del estimate  # and with it the point's k x n block of directions

    out = Path(args.out)
    write_json(out, *records)
    write_csv(out.with_suffix(".samples.csv"), samples, ["point", *SAMPLE_FIELDS])
    print(f"{len(records)} points -> {out}")
    if failed := [r["status"] for r in records if r["status"] != "ok"]:
        first = failed[0].removeprefix("failed: ")
        raise EstimationError(f"{len(failed)} of {len(records)} points failed; the first: {first}")
    return 0


def _print_summary(point: int, record: dict, estimate) -> None:
    """One line of a point's numbers, or of its failure."""
    if estimate is None:
        print(f"point={point} {record['status']}")
        return
    print(
        f"point={point} "
        "log_volume={log_volume:.6f} log10={log10_volume:.4f} k={k} n={n} measure={measure} "
        "preconditioner={preconditioner} truncated={truncated_count} failed={failed_count} "
        "cost_evals={cost_evals} evals_per_ray={evals_per_ray:.2f} ess={ess:.2f} top_share={top_share:.3f} "
        "prefix_rise={prefix_rise:.3f} ".format(**record | {"prefix_rise": estimate.prefix_rise})
        + (f"description_length={record['description_length']:.4f} " if "description_length" in record else "")
        + " ".join(f"{stage}_cpu_s={took['cpu']:.4f}" for stage, took in record["stage_seconds"].items())
    )


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

    p_est = sub.add_parser("estimate", help="estimate the local volume at every checkpoint, map and cutoff")
    target = p_est.add_mutually_exclusive_group(required=True)
    target.add_argument("--checkpoint", nargs="+", help="checkpoint files, estimated in the order given")
    target.add_argument("--n", type=_at_least(1),
                        help="estimate a synthetic |x|^2/2 cost in n dimensions under Lebesgue measure instead")
    # each point's record lists every flag below but --seed and --out under "config"
    p_est.add_argument("--cost", choices=("kl", "loss"), default="kl")
    p_est.add_argument("--cutoff", type=_positive_finite, nargs="+", default=[1e-2])
    p_est.add_argument("--k", type=_at_least(1), default=100)
    p_est.add_argument("--preconditioner", choices=PRECONDITIONER_CHOICES, nargs="+", default=["none"])
    p_est.add_argument("--measure", choices=("gaussian",), default="gaussian")  # only a checkpoint's own init prior
    p_est.add_argument("--threads", type=_at_least(1), default=SearchOptions.threads, help=THREADS_HELP)
    p_est.add_argument("--rel-tol", type=_positive_finite, default=SearchOptions.rel_tol)
    p_est.add_argument("--seed", type=_at_least(0), default=0, help="master seed")
    p_est.add_argument("--out", type=str, default="runs.jsonl")
    p_est.set_defaults(func=cmd_estimate)

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
