"""End-to-end tests of the command-line tools, run in-process via main()."""

import base64
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import starvol
import starvol.cli as cli
import starvol.geometry as geometry
import starvol.runio as runio
from starvol.cli import main
from starvol.codec import Fields, read_jsonl
from starvol.geometry import MeasureSpec, NeighborhoodSpec, estimate_local_volume
from starvol.logspace import log_sphere_area
from starvol.models import load_checkpoint, load_csv, save_checkpoint
from starvol.precondition import DEFAULT_EPS, Preconditioner, from_diagonal
from starvol.runio import SAMPLE_FIELDS, make_run_record, sample_rows, write_csv

from oracles import mlp_kl_cost_batch, prior_hit_rate

TRAIN_CONFIG = {
    "dataset": {
        "kind": "blobs",
        "dim": 3,
        "classes": 2,
        "train": 48,
        "val": 48,
        "poison": 0,
        "noise": 0.6,
        "center_scale": 3.0,
    },
    "model": {"hidden": [4], "init": "fan_in"},
    # 3 batches/epoch * 4 epochs = 12 steps, checkpoints at 0,3,6,9,12
    "train": {"epochs": 4, "batch_size": 16, "lr": 0.05, "checkpoint_every": 3},
}


# flags that no command has any longer, each refused by argparse: (command, flag, value)
DELETED_FLAGS = [
    *((command, flag, value) for flag, value in (("--r-init", "1"), ("--max-iters", "5"), ("--r-max", "10"),
                                                 ("--precond-file", "map.json"))
      for command in ("estimate", "sweep")),
    ("estimate", "--save-precond", "map.json"),
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _drop(obj, key):
    """Delete ``obj[key]`` in place, returning None as an in-place mangle does."""
    del obj[key]


def _drop_last_entry(data, key):
    """Re-encode the array in ``data[key]`` without its last entry, in place."""
    data[key] = base64.b64encode(base64.b64decode(data[key])[:-8]).decode()


def _csv_table(text):
    """A config mangle that trains on ``text``, written to table.csv in the working
    directory, split 2 train and 1 validation rows."""
    def mangle(cfg):
        Path("table.csv").write_text(text)
        cfg["dataset"] = {"kind": "csv", "path": "table.csv", "train": 2, "val": 1, "poison": 0}

    return mangle


def _count_calls(monkeypatch, *names):
    """Wrap the named cli functions; return a dict their calls count into."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return counts


@pytest.fixture(scope="session")
def train_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    out = root / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "11"])
    assert rc == 0
    return {"config": cfg, "out": out, "checkpoints": sorted(out.glob("checkpoint_step*.json"))}


@pytest.fixture(scope="session")
def final_checkpoint(train_run):
    return train_run["checkpoints"][-1]


class TestTrain:
    def test_writes_checkpoints_and_metrics(self, train_run):
        names = [p.name for p in train_run["checkpoints"]]
        assert names == [f"checkpoint_step{s:06d}.json" for s in (0, 3, 6, 9, 12)]
        rows = _read_csv(train_run["out"] / "metrics.csv")
        steps = [int(r["step"]) for r in rows]
        assert steps == sorted(steps) and steps[0] == 0 and steps[-1] == 12
        assert {"train_loss", "val_loss"} <= set(rows[0])
        assert all(math.isfinite(float(r["train_loss"])) for r in rows)

    def test_checkpoint_holds_each_fact_once(self, train_run):
        # the step is only `step` and the Adam hyperparameters only the config's train section
        for path, step in zip(train_run["checkpoints"], (0, 3, 6, 9, 12)):
            data = json.loads(path.read_text())
            assert sorted(data) == ["adam_nu", "config", "flat", "format", "shape", "sigma", "step", "version"]
            assert (data["version"], data["step"]) == (3, step)
            assert {k: data["config"]["train"][k] for k in ("lr", "beta1", "beta2", "adam_eps")} == {
                "lr": 0.05, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8}

    def test_rerun_is_byte_identical(self, train_run, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["train", "--config", str(train_run["config"]), "--out", str(out2), "--seed", "11"])
        assert rc == 0
        for path in train_run["checkpoints"]:
            assert (out2 / path.name).read_bytes() == path.read_bytes()
        assert (out2 / "metrics.csv").read_bytes() == (train_run["out"] / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("config_seed, flag, seed", [({}, [], 0), ({"seed": 5}, [], 5),
                                                         ({"seed": 5}, ["--seed", "7"], 7)])
    def test_seed_is_the_flag_else_the_configs_else_zero(self, config_seed, flag, seed, tmp_path):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, **config_seed, "train": {"epochs": 1, "checkpoint_every": 100}}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), *flag]) == 0
        assert {json.loads(p.read_text())["config"]["seed"] for p in out.glob("checkpoint_step*.json")} == {seed}

    @pytest.mark.parametrize("argv", [["train"], ["estimate", "--checkpoint", "c.json"],
                                      ["sweep", "--kind", "cutoff", "--values", "1e-2", "--target", "quadratic"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", ["-2", "1.5"])
    def test_seed_flag_is_a_non_negative_integer(self, argv, seed, tmp_path, capsys):
        # a negative seed used to exit 2 with only numpy's "expected
        # non-negative integer", which named neither the flag nor its value
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--seed", seed, "--out", str(out)])
        assert info.value.code == 2
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--checkpoint", "c.json"], "--k"),
        (["sweep", "--kind", "cutoff", "--values", "1e-2", "--target", "quadratic"], "--k"),
        (["sweep", "--kind", "cutoff", "--values", "1e-2", "--target", "quadratic"], "--n"),
    ], ids=["estimate-k", "sweep-k", "sweep-n"])
    def test_count_flag_below_one_exits_2(self, argv, flag, tmp_path, capsys):
        # these named no flag: "k must be >= 1, got 0" and "dimension must be >= 1, got 0"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, "0", "--out", str(out)])
        assert info.value.code == 2
        assert f"argument {flag}: expected an integer >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(lambda cfg: cfg["train"].update(lr="fast"),
                     "malformed config field train.lr in {cfg}: expected a number, got 'fast'", id="lr-string"),
        pytest.param(lambda cfg: cfg["train"].update(lr=True),
                     "malformed config field train.lr in {cfg}: expected a number, got True", id="lr-bool"),
        pytest.param(lambda cfg: cfg["model"].update(hidden="12"),
                     "malformed config field model.hidden in {cfg}: expected an integer, got '1'", id="hidden-string"),
        pytest.param(lambda cfg: cfg.update(dataset="blobs"), "config field dataset is not an object in {cfg}",
                     id="dataset-string"),
        pytest.param(lambda cfg: cfg["dataset"].update(kind="moons"),
                     "malformed config field dataset.kind in {cfg}: expected one of blobs, spirals, csv, got 'moons'",
                     id="unknown-dataset-kind"),
        pytest.param(lambda cfg: [cfg], "the config in {cfg} is not an object", id="root-list"),
        pytest.param(lambda cfg: cfg["train"].update(epochs=1.9),
                     "malformed config field train.epochs in {cfg}: expected an integer, got 1.9", id="epochs-fraction"),
        pytest.param(lambda cfg: cfg["dataset"].update(train=47.5),
                     "malformed config field dataset.train in {cfg}: expected an integer, got 47.5",
                     id="train-size-fraction"),
        pytest.param(lambda cfg: cfg["dataset"].update(classes=0),
                     "malformed config field dataset.classes in {cfg}: expected an integer >= 1, got 0", id="no-classes"),
        pytest.param(lambda cfg: cfg["dataset"].update(poison=-5),
                     "malformed config field dataset.poison in {cfg}: expected an integer >= 0, got -5",
                     id="negative-poison"),
        pytest.param(lambda cfg: cfg["model"].update(hiden=[4]), "unknown config field model.hiden in {cfg}",
                     id="unknown-key"),
        pytest.param(lambda cfg: cfg["train"].update(poison_alpha=0.5),
                     "malformed config field train.poison_alpha in {cfg}: a poison weight of 0.5 needs a poison "
                     "split, but dataset.poison is 0", id="poison-weight-without-split"),
        pytest.param(lambda cfg: cfg["train"].update(epochs=None), "missing config field train.epochs in {cfg}",
                     id="null-value"),
        pytest.param(lambda cfg: cfg.update(seed=-1),
                     "malformed config field seed in {cfg}: expected an integer >= 0, got -1", id="negative-seed"),
        # each value below is refused by the code that consumes it, which named neither field nor file
        pytest.param(lambda cfg: cfg["dataset"].update(noise=-1),
                     "malformed config field dataset.noise in {cfg}: expected a finite number >= 0, got -1",
                     id="negative-noise"),
        pytest.param(lambda cfg: cfg["dataset"].update(center_scale=-1),
                     "malformed config field dataset.center_scale in {cfg}: expected a finite number >= 0, got -1",
                     id="negative-center-scale"),
        pytest.param(lambda cfg: cfg["train"].update(lr=-1),
                     "malformed config field train.lr in {cfg}: lr must be positive and finite, got -1.0",
                     id="negative-lr"),
        pytest.param(lambda cfg: cfg["train"].update(beta2=1.5),
                     "malformed config field train.beta2 in {cfg}: beta2 must be in [0, 1), got 1.5",
                     id="beta2-above-1"),
        pytest.param(lambda cfg: cfg["train"].update(checkpoint_every=-1),
                     "malformed config field train.checkpoint_every in {cfg}: expected an integer >= 0, got -1",
                     id="negative-checkpoint-every"),
        pytest.param(lambda cfg: cfg["model"].update(init=-1),
                     "malformed config field model.init in {cfg}: sigma must be positive and finite, got -1.0",
                     id="negative-init"),
        # a negative weight is refused as negative, before the missing poison split
        pytest.param(lambda cfg: cfg["train"].update(poison_alpha=-1),
                     "malformed config field train.poison_alpha in {cfg}: alpha must be non-negative and finite, "
                     "got -1.0", id="negative-poison-weight"),
        pytest.param(lambda cfg: cfg["dataset"].update(kind="spirals", dim=1),
                     "malformed config field dataset.dim in {cfg}: expected an integer >= 2, got 1",
                     id="spirals-one-dim"),
        pytest.param(_csv_table("0.5,0\n1.5,2.5\n2.5,1\n"),
                     "malformed config field dataset.path in {cfg}: last csv column must hold integer labels",
                     id="csv-fractional-label"),
        pytest.param(_csv_table("0.5,0\n1.5,x\n2.5,1\n"),
                     "malformed config field dataset.path in {cfg}: could not convert string 'x' to float64 at "
                     "row 1, column 2.", id="csv-not-a-number"),
        pytest.param(_csv_table("0.5,0\n1.5,1\n"),
                     "malformed config field dataset.path in {cfg}: csv has 2 rows, config needs 3",
                     id="csv-too-few-rows"),
    ])
    def test_malformed_config_exits_2_naming_field_and_file(self, mangle, reason, tmp_path, monkeypatch, capsys):
        # "hidden": "12" trained a 3-1-2-2 net, fractions were truncated, a
        # negative poison size, a misspelt key or a poison weight with no
        # poison split trained as if it were absent, a null value trained as
        # the default, a negative seed trained under the --seed that
        # overrides it, and the other cases ended in a traceback or named
        # neither field nor file
        monkeypatch.chdir(tmp_path)  # where a csv case writes its table
        data = json.loads(json.dumps(TRAIN_CONFIG))
        root = mangle(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data if root is None else root))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: {reason.format(cfg=cfg)}\n"
        assert not out.exists()

    def test_poison_split_adds_metric_column(self, tmp_path):
        cfg_data = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_data["dataset"]["poison"] = 16
        cfg_data["train"]["poison_alpha"] = 0.5
        cfg_data["train"]["epochs"] = 2
        cfg = tmp_path / "poison.json"
        cfg.write_text(json.dumps(cfg_data))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--seed", "1"])
        assert rc == 0
        rows = _read_csv(tmp_path / "run" / "metrics.csv")
        assert "poison_loss" in rows[0]
        assert all(math.isfinite(float(r["poison_loss"])) for r in rows)

    @staticmethod
    def _output_width(tmp_path, dataset, seed):
        """Train a 4-unit net on ``dataset``; return its final checkpoint's layer shape."""
        cfg = tmp_path / f"{dataset['kind']}.json"
        cfg.write_text(json.dumps({
            "dataset": dataset,
            "model": {"hidden": [4], "init": "fan_in"},
            "train": {"epochs": 2, "batch_size": 8, "lr": 0.05, "checkpoint_every": 100},
        }))
        out = tmp_path / f"run-{seed}"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        return json.loads(sorted(out.glob("checkpoint_step*.json"))[-1].read_text())["shape"]

    def test_spirals_train_two_logits(self, tmp_path):
        # the default config's "classes": 4 describes blobs; spirals have two
        dataset = {"kind": "spirals", "dim": 2, "train": 32, "val": 16, "poison": 0, "noise": 0.1}
        assert self._output_width(tmp_path, dataset, 1) == [[2, 4], [4, 2]]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_csv_width_counts_every_label_of_the_table(self, seed, tmp_path):
        # class 2 is one row of 40, so the train splits of seeds 0, 2 and 3
        # miss it; the width still counts it
        rng = np.random.default_rng(0)
        labels = np.arange(40) % 2
        labels[17] = 2
        path = tmp_path / "table.csv"
        np.savetxt(path, np.column_stack([rng.normal(size=(40, 2)), labels]), delimiter=",")
        assert load_csv(path).classes == 3
        dataset = {"kind": "csv", "path": str(path), "train": 20, "val": 20, "poison": 0}
        assert self._output_width(tmp_path, dataset, seed) == [[2, 4], [4, 3]]

    def test_csv_labels_round_to_the_nearest_integer(self, tmp_path):
        # a label within allclose of an integer is that integer: 1.9999999 is
        # class 2, not class 1 by truncation; a halfway label is refused
        path = tmp_path / "near.csv"
        path.write_text("0.5,0\n1.5,1.9999999\n2.5,1\n3.5,3.00000001\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.labels, [0, 2, 1, 3])
        assert data.classes == 4
        path.write_text("0.5,0\n1.5,2.5\n")
        with pytest.raises(ValueError, match="integer labels"):
            load_csv(path)


class TestEstimate:
    def test_record_and_samples(self, final_checkpoint, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "8", "--cutoff", "1e-2", "--out", str(out), "--seed", "3",
        ])
        assert rc == 0
        (record,) = read_jsonl(out)
        assert record["subcommand"] == "estimate"
        assert record["k"] == 8 and record["n"] == 26
        assert record["measure"] == "gaussian"
        assert math.isfinite(record["log_volume"])
        assert record["log10_volume"] == record["log_volume"] / math.log(10.0)
        assert len(record["log_terms"]) == 8
        assert record["failed_by_reason"] == {}
        samples = _read_csv(out.with_suffix(".samples.csv"))
        assert len(samples) == 8
        assert all(float(r["radius"]) > 0 for r in samples if r["failed"] == "0")
        assert all(r["failure"] == "" for r in samples)
        assert record["cost_evals"] == sum(int(r["evals"]) for r in samples)
        assert record["evals_per_ray"] == record["cost_evals"] / 8
        # 5.25 measured (42 evaluations on 8 rays), plus a margin of 1.00
        assert 1 <= record["evals_per_ray"] <= 6.25
        assert 1.0 <= record["ess"] <= 8.0
        assert 1.0 / 8.0 <= record["top_share"] <= 1.0
        stages = record["stage_seconds"]
        assert list(stages) == ["aggregate", "integrate", "sample", "search"]  # keys sorted
        assert all(t["cpu"] >= 0.0 and 0.0 <= t["wall"] <= record["wall_time_s"] for t in stages.values())
        flat = load_checkpoint(final_checkpoint).params.flat
        digest = hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()
        assert record["config"]["anchor_sha256"] == digest
        assert record["log_term_sd"] >= 0.0 and math.isfinite(record["prefix_rise"])
        assert record["build_seconds"] == {}  # the identity map is built from no probe
        summary = capsys.readouterr().out
        assert (
            f"cost_evals={record['cost_evals']} evals_per_ray={record['evals_per_ray']:.2f} "
            f"ess={record['ess']:.2f} top_share={record['top_share']:.3f} "
            f"prefix_rise={record['prefix_rise']:.3f} "
            + " ".join(f"{stage}_cpu_s={stages[stage]['cpu']:.4f}" for stage in ("sample", "search", "integrate",
                                                                                 "aggregate"))
        ) in summary

    def test_rerun_writes_identical_record(self, final_checkpoint, tmp_path):
        # a rerun rewrites the record file, as it rewrites the samples file,
        # so the two always describe the same run
        out = tmp_path / "runs.jsonl"
        argv = ["estimate", "--checkpoint", str(final_checkpoint), "--out", str(out), "--seed", "9"]
        runs = []
        for k in ("6", "6", "3"):
            assert main([*argv, "--k", k]) == 0
            (record,) = read_jsonl(out)
            runs.append((record, _read_csv(out.with_suffix(".samples.csv"))))
        (first, first_rows), (second, second_rows), (third, third_rows) = runs
        assert first["log_volume"] == second["log_volume"]
        assert first["log_terms"] == second["log_terms"]
        assert first_rows == second_rows
        assert third["k"] == len(third_rows) == 3

    def test_seed_defaults_to_zero(self, final_checkpoint, tmp_path):
        records = []
        for name, flag in (("default", []), ("zero", ["--seed", "0"])):
            out = tmp_path / f"{name}.jsonl"
            assert main(["estimate", "--checkpoint", str(final_checkpoint), "--k", "2", *flag, "--out", str(out)]) == 0
            records.append(read_jsonl(out)[0])
        assert [r["seed"] for r in records] == [0, 0]
        assert records[0]["log_terms"] == records[1]["log_terms"]

    @pytest.mark.parametrize("argv, max_evals_per_ray", [
        pytest.param(["--k", "12", "--seed", "5"], None, id="identity-kl"),
        # the final train loss is about 0.105, so the loss cutoff sits above
        # it; 7.125 measured (57 evaluations on 8 rays, 1 of them truncated),
        # plus a margin of 1.00
        pytest.param(["--cost", "loss", "--cutoff", "0.12", "--preconditioner", "hessian", "--k", "8", "--seed", "3"],
                     8.125, id="hessian-loss"),
        # each run builds the hessian map afresh; 7.5 measured (60
        # evaluations on 8 rays, the same with every ray started at radius 1),
        # plus a margin of 0.375
        pytest.param(["--preconditioner", "hessian", "--k", "8", "--seed", "3"], 7.875, id="hessian-kl"),
    ])
    def test_thread_count_does_not_change_result(self, argv, max_evals_per_ray, final_checkpoint, tmp_path):
        records = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}.jsonl"
            rc = main(["estimate", "--checkpoint", str(final_checkpoint), *argv, "--threads", threads,
                       "--out", str(out)])
            assert rc == 0
            records.append(read_jsonl(out)[0])
        assert math.isfinite(records[0]["log_volume"])
        assert all(r["log_volume"] == records[0]["log_volume"] for r in records)
        assert all(r["log_terms"] == records[0]["log_terms"] for r in records)
        if max_evals_per_ray is not None:
            assert 1 <= records[0]["evals_per_ray"] <= max_evals_per_ray
        # each run times the hessian map's probe and decomposition
        for record in records:
            build = record["build_seconds"]
            assert sorted(build) == (["curvature", "eigendecompose"] if "hessian" in argv else [])
            assert all(t["cpu"] >= 0.0 and 0.0 <= t["wall"] <= record["wall_time_s"] for t in build.values())

    def test_gaussian_adam_nu_preconditioner(self, final_checkpoint, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "6", "--measure", "gaussian", "--preconditioner", "adam-nu",
            "--out", str(out), "--seed", "2",
        ])
        assert rc == 0
        (record,) = read_jsonl(out)
        assert record["measure"] == "gaussian"
        assert record["preconditioner"].startswith("adam-nu[")
        assert record["build_seconds"] == {}  # Adam's second moment needs no probe
        built = from_diagonal(load_checkpoint(final_checkpoint).nu, DEFAULT_EPS["adam-nu"], source="adam-nu")
        assert built.describe() == record["preconditioner"]
        # a softmax net's Lebesgue volume is infinite, so a checkpoint has
        # only its own init measure
        capsys.readouterr()
        for argv in (["estimate"], ["sweep", "--kind", "cutoff", "--values", "1e-2"]):
            lebesgue = tmp_path / f"{argv[0]}-lebesgue.out"
            with pytest.raises(SystemExit) as info:
                main([*argv, "--checkpoint", str(final_checkpoint), "--measure", "lebesgue", "--out", str(lebesgue)])
            assert info.value.code == 2
            assert "argument --measure: invalid choice: 'lebesgue'" in capsys.readouterr().err
            assert not lebesgue.exists()

    def test_loss_cost_works(self, final_checkpoint, tmp_path):
        out = tmp_path / "runs.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--cost", "loss", "--cutoff", "2.0", "--k", "4", "--out", str(out), "--seed", "4",
        ])
        assert rc == 0
        assert math.isfinite(read_jsonl(out)[0]["log_volume"])

    def test_anchor_outside_its_neighborhood_exits_2(
        self, final_checkpoint, tmp_path, capsys, monkeypatch
    ):
        # the anchor's training loss is about 0.1; the spec rejects it before
        # any curvature is probed
        counts = _count_calls(monkeypatch, "hessian_full")
        out = tmp_path / "o.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint), "--cost", "loss", "--cutoff", "0.05",
            "--preconditioner", "hessian", "--out", str(out),
        ])
        assert rc == 2
        assert "anchor cost" in capsys.readouterr().err
        assert counts == {"hessian_full": 0}
        assert not out.exists()

    @pytest.mark.parametrize("name", ["hessian", "diag"])
    def test_loss_curvature_maps(self, name, final_checkpoint, tmp_path):
        out = tmp_path / "runs.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint), "--cost", "loss",
            "--cutoff", "2.0", "--preconditioner", name, "--k", "4", "--out", str(out), "--seed", "4",
        ])
        assert rc == 0
        (record,) = read_jsonl(out)
        assert math.isfinite(record["log_volume"])
        assert record["preconditioner"].startswith(f"{name}[")
        assert "fd_step" not in record["config"]
        want = ["curvature", "eigendecompose"] if name == "hessian" else ["curvature"]
        assert sorted(record["build_seconds"]) == want

    def test_fd_step_is_rejected(self, final_checkpoint, tmp_path):
        with pytest.raises(SystemExit) as info:
            main([
                "estimate", "--checkpoint", str(final_checkpoint), "--cost", "loss",
                "--fd-step", "1e-3", "--out", str(tmp_path / "o.jsonl"),
            ])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, flag, value", DELETED_FLAGS,
                             ids=[f"{flag}-{value}-{command}" for command, flag, value in DELETED_FLAGS])
    def test_deleted_search_flags_exit_2(self, command, flag, value, final_checkpoint, tmp_path, capsys,
                                         monkeypatch):
        # the search starts ray 0 at radius 1 and later rays at the earlier
        # rays' median, its evaluation budget is fixed, and every ray stops at
        # the measure's cap, so none of them is a flag; every map is built
        # from the checkpoint that the record names, so none is saved or loaded
        monkeypatch.chdir(tmp_path)
        argv = [command, "--checkpoint", str(final_checkpoint), flag, value, "--out", "o.out"]
        with pytest.raises(SystemExit) as info:
            main(argv + (["--kind", "cutoff", "--values", "1e-2"] if command == "sweep" else []))
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--eps", "0.1"], "unrecognized arguments: --eps 0.1"),
        (["sweep", "--kind", "cutoff", "--values", "1e-2", "--eps", "0.1"], "unrecognized arguments: --eps 0.1"),
        (["sweep", "--kind", "eps", "--values", "1e-3,1e-2"], "argument --kind: invalid choice: 'eps'"),
    ])
    def test_eps_is_not_an_option(self, argv, message, final_checkpoint, tmp_path, capsys):
        # each named map is shaped at its DEFAULT_EPS, so there is no eps to set or sweep
        out = tmp_path / "o.out"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--checkpoint", str(final_checkpoint), "--preconditioner", "diag", "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "-1"), ("--threads", "-3")])
    def test_invalid_search_option_exits_2(self, flag, value, final_checkpoint, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        rc = main(["estimate", "--checkpoint", str(final_checkpoint), flag, value, "--out", str(out)])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path):
        rc = main(["estimate", "--checkpoint", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(lambda data: _drop(data, "shape"), "missing checkpoint field shape", id="no-shape"),
        pytest.param(lambda data: data.update(config=[1]), "checkpoint field config is not an object",
                     id="config-not-object"),
        pytest.param(lambda data: _drop(data["config"], "seed"), "missing checkpoint config field seed",
                     id="no-seed"),
        pytest.param(lambda data: data["config"].update(seed=None), "missing checkpoint config field seed",
                     id="null-seed"),
        pytest.param(lambda data: _drop(data["config"]["dataset"], "train"),
                     "missing checkpoint config field dataset.train", id="no-train-size"),
        pytest.param(lambda data: _drop(data["config"]["dataset"], "noise"),
                     "missing checkpoint config field dataset.noise", id="no-blobs-noise"),
        pytest.param(lambda data: data.update(flat=5),
                     "malformed checkpoint field flat in {bad}: expected a base64 string, got int", id="flat-number"),
        pytest.param(lambda data: data["shape"][0].append(4),
                     "malformed checkpoint field shape in {bad}: too many values to unpack",
                     id="shape-triple"),
        pytest.param(lambda data: [data], "the checkpoint in {bad} is not an object", id="root-list"),
        pytest.param(lambda data: _drop_last_entry(data, "sigma"),
                     "malformed checkpoint field sigma in {bad}: 25 entries for 26 parameters", id="sigma-short"),
        pytest.param(lambda data: _drop_last_entry(data, "adam_nu"),
                     "malformed checkpoint field adam_nu in {bad}: 25 entries for 26 parameters", id="adam-nu-short"),
        pytest.param(lambda data: data["config"]["dataset"].update(train="many"),
                     "malformed checkpoint config field dataset.train in {bad}: expected an integer, got 'many'",
                     id="train-size-string"),
        pytest.param(lambda data: data["config"].update(seed=-1),
                     "malformed checkpoint config field seed in {bad}: expected an integer >= 0, got -1",
                     id="negative-seed"),
    ])
    def test_malformed_checkpoint_exits_2_naming_field_and_file(self, mangle, reason, final_checkpoint,
                                                                tmp_path, capsys):
        # the missing, config and root cases used to end in a traceback, a
        # negative seed in numpy's refusal, which named no field, the
        # array, shape and dataset cases named neither the field nor the file,
        # and a short adam_nu passed unless the adam-nu map was built;
        # TestCheckpointFile checks every refusal of the file itself.
        # A mangle edits the file's object in place or returns a new root.
        data = json.loads(final_checkpoint.read_text())
        root = mangle(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data if root is None else root))
        out = tmp_path / "o.jsonl"
        assert main(["estimate", "--checkpoint", str(bad), "--k", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason.format(bad=bad)}")
        assert str(bad) in err
        assert not out.exists()

    def test_eps_is_recorded_only_for_a_shaped_map(self, final_checkpoint, tmp_path):
        # a built map is shaped at its DEFAULT_EPS; the identity at none
        runs = {
            "identity": ([], None),
            "adam-nu": (["--preconditioner", "adam-nu"], 0.001),
            "diag": (["--preconditioner", "diag"], 0.01),
            "hessian": (["--preconditioner", "hessian"], 0.1),
        }
        for name, (argv, eps) in runs.items():
            out = tmp_path / f"{name}.jsonl"
            assert main(["estimate", "--checkpoint", str(final_checkpoint), "--k", "2", *argv, "--out", str(out)]) == 0
            assert read_jsonl(out)[0]["config"]["eps"] == eps, name


class TestPriorHitRate:
    def test_estimates_keep_the_one_sided_guarantee(self, final_checkpoint, capsys):
        # the truth counts 4,000 prior draws whose whole segment from the
        # anchor stays below a KL cutoff of 0.1 (269 hits, log V = -2.70 +-
        # 0.06); an estimate overshoots it by a factor 10 with probability at
        # most 0.1, so over 20 seeds each map may do so at most as often as a
        # 10% binomial rate exceeds with probability 1e-3
        cutoff, runs, path = 0.1, 20, str(final_checkpoint)
        ckpt = load_checkpoint(path)
        _, val, _ = cli._build_datasets(Fields(ckpt.config, path, "checkpoint config"))
        truth = prior_hit_rate(mlp_kl_cost_batch(ckpt.params, val.inputs), ckpt.params.flat, cutoff, ckpt.sigma,
                               draws=4000, seed=0)
        allowed = int(scipy.stats.binom.ppf(1 - 1e-3, runs, 0.1))
        # each map is built as estimate builds it, at the CLI's eps
        target = cli._Target(cli.build_parser().parse_args(["estimate", "--checkpoint", path, "--k", "32"]), ckpt, path)
        for name in cli.PRECONDITIONER_CHOICES:
            gaps = [target.record(cutoff, name, seed)[0]["log_volume"] - truth.log_volume for seed in range(runs)]
            above = sum(gap > math.log(10) + 4 * truth.log_se for gap in gaps)
            print(f"prior hit rate log V {truth.log_volume:.3f} +- {truth.log_se:.3f}: {name} median gap "
                  f"{np.median(gaps):+.2f} nats, {above}/{runs} runs above truth + log 10 (at most {allowed})")
            assert above <= allowed


class TestSweep:
    def test_cutoff_sweep_recovers_half_dimension_slope(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "40",
            "--k", "16", "--values", "1e-4,1e-3,1e-2,1e-1",
            "--out", str(out), "--seed", "2",
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert [r["status"] for r in rows] == ["ok"] * 4
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        # n/2 power law for the quadratic cost; same directions per cutoff, so
        # the only noise is the radius search tolerance (1e-4 relative)
        assert summary["log_log_slope"] == pytest.approx(20.0, rel=1e-3)

    def test_equal_cutoffs_fit_no_slope(self, tmp_path, capsys, recwarn):
        # a fit through one distinct cutoff warned and reported a slope of noise
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "5", "--k", "4",
                   "--values", "1e-2,1e-2", "--out", str(out)])
        assert rc == 0
        assert [r["status"] for r in _read_csv(out)] == ["ok"] * 2
        assert json.loads(out.with_suffix(".summary.json").read_text()) == {
            "kind": "cutoff", "log_log_slope": None, "seed": 0}
        assert "slope" not in capsys.readouterr().out
        assert not recwarn.list

    def test_every_sweep_rewrites_its_summary(self, tmp_path):
        # a sweep that fitted no slope used to leave the last run's summary in place
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "5", "--k", "4", "--out", str(out)]
        assert main([*argv, "--values", "1e-2,1e-1"]) == 0
        assert json.loads(out.with_suffix(".summary.json").read_text())["log_log_slope"] is not None
        assert main([*argv, "--values", "1e-2"]) == 0
        assert len(_read_csv(out)) == 1
        assert json.loads(out.with_suffix(".summary.json").read_text())["log_log_slope"] is None

    def test_checkpoint_sweep_sorts_by_step(self, train_run, tmp_path):
        out = tmp_path / "ckpt.csv"
        paths = ",".join(str(p) for p in reversed(train_run["checkpoints"]))
        rc = main([
            "sweep", "--kind", "checkpoint", "--values", paths,
            "--k", "6", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert [int(r["value"]) for r in rows] == [0, 3, 6, 9, 12]
        assert all(r["status"] == "ok" for r in rows)

    def test_preconditioner_sweep_flags_unknown_name(self, final_checkpoint, tmp_path):
        out = tmp_path / "precond.csv"
        rc = main([
            "sweep", "--kind", "preconditioner", "--values", "none,adam-nu,bogus",
            "--checkpoint", str(final_checkpoint), "--k", "6", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = {r["value"]: r for r in _read_csv(out)}
        assert rows["none"]["status"] == "ok"
        assert rows["adam-nu"]["status"] == "ok"
        assert rows["bogus"]["status"].startswith("failed")

    @pytest.mark.parametrize("kind, name, counts", [
        # one curvature probe, at most one eigendecomposition and one map,
        # which every point reuses
        ("cutoff", "hessian", {"hessian_full": 1, "eigh": 1, "from_diagonal": 1}),
        ("cutoff", "diag", {"hessian_diag": 1, "eigh": 0, "from_diagonal": 1}),
    ])
    def test_sweep_probes_curvature_once(self, kind, name, counts, final_checkpoint, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, *(key for key in counts if key != "eigh"))
        real_eigh = scipy.linalg.eigh

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return real_eigh(*args, **kwargs)

        calls["eigh"] = 0
        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        rc = main([
            "sweep", "--kind", kind, "--preconditioner", name,
            "--values", "0.01,0.1,1.0", "--checkpoint", str(final_checkpoint),
            "--k", "4", "--out", str(tmp_path / "sweep.csv"), "--seed", "1",
        ])
        assert rc == 0
        assert all(r["status"] == "ok" for r in _read_csv(tmp_path / "sweep.csv"))
        assert calls == counts

    def test_quadratic_sweep_writes_failed_rows(self, tmp_path, monkeypatch):
        # two cost evaluations cannot narrow the bracket to the 1e-4
        # tolerance (on this quadratic the search needs three), so every ray
        # fails and each point writes a failed row that names the reason
        monkeypatch.setattr(geometry, "MAX_EVALS", 2)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "20",
            "--k", "8", "--values", "1e-2,1e-1", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = _read_csv(out)
        reason = "RadiusSearchError: radius search did not converge to rel_tol=0.0001"
        assert [r["status"] for r in rows] == [f"failed: no valid samples (8 rays: {reason})"] * 2
        assert {(r["measure"], r["preconditioner"]) for r in rows} == {("lebesgue", "none")}
        # each failed point still has its record, with the row's status and no estimate fields
        records = read_jsonl(out.with_suffix(".records.jsonl"))
        assert [r["status"] for r in records] == [r["status"] for r in rows]
        assert not any("log_volume" in r for r in records)
        assert [(r["cutoff"], r["config"]["checkpoint"]) for r in records] == [(1e-2, None), (1e-1, None)]
        # the quadratic's cost, measure and map come from no flag
        assert {(r["config"]["cost"], r["config"]["measure"]) for r in records} == {(None, None)}
        assert _read_csv(out.with_suffix(".samples.csv")) == []

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "checkpoint", "--values", "a.json"], "sweep --target quadratic sweeps --kind cutoff only"),
        (["--kind", "preconditioner", "--values", "none"], "sweep --target quadratic sweeps --kind cutoff only"),
        # its cost is |x|^2/2 under the identity map, so a flag that would change either is refused
        (["--kind", "cutoff", "--values", "1e-2", "--cost", "loss"], "sweep --target quadratic takes no --cost"),
        (["--kind", "cutoff", "--values", "1e-2", "--preconditioner", "hessian"],
         "sweep --target quadratic takes no --preconditioner"),
        # and it has no checkpoint, and the kind sets each point's cutoff
        (["--kind", "cutoff", "--values", "1e-2", "--checkpoint", "nonexistent.json"],
         "sweep --target quadratic takes no --checkpoint"),
        (["--kind", "cutoff", "--values", "1e-2", "--cutoff", "0.5"], "sweep --target quadratic takes no --cutoff"),
    ])
    def test_quadratic_sweep_refusals_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--target", "quadratic", *argv, "--k", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_quadratic_sweep_truncates_at_the_measure_cap(self, tmp_path, monkeypatch):
        # both cutoffs' boundaries, radii sqrt(0.02) and sqrt(0.2), lie past
        # a Lebesgue cap of 0.1, so every ray is truncated there and each
        # point is the volume of the n = 20 ball of radius 0.1
        monkeypatch.setattr(geometry, "LEBESGUE_R_MAX", 0.1)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "20",
            "--k", "8", "--values", "1e-2,1e-1", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert [(r["status"], r["truncated_count"]) for r in rows] == [("ok", "8")] * 2
        ball = log_sphere_area(20) - math.log(20) + 20 * math.log(0.1)
        assert [float(r["log_volume"]) for r in rows] == pytest.approx([ball] * 2, abs=1e-12)
        assert {r["measure"] for r in rows} == {"lebesgue"}

    def test_cutoff_sweep_rows_match_estimate_runs(self, final_checkpoint, tmp_path):
        cutoffs = ("1e-3", "1e-2", "1e-1")
        shared = [
            "--checkpoint", str(final_checkpoint), "--k", "5",
            "--preconditioner", "diag", "--seed", "7",
        ]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kind", "cutoff", "--values", ",".join(cutoffs), "--out", str(out), *shared]) == 0
        rows = _read_csv(out)
        swept = read_jsonl(out.with_suffix(".records.jsonl"))
        assert len(rows) == len(swept) == len(cutoffs)
        timings = ("wall_time_s", "stage_seconds")

        def comparable(record):
            # all but when, by which code and command, and how long each stage took
            kept = {k: v for k, v in record.items() if k not in ("timestamp", "build", "subcommand", *timings)}
            return kept | {"build_seconds": sorted(record["build_seconds"])}

        samples_by_point = _read_csv(out.with_suffix(".samples.csv"))
        for i, (cutoff, row, point) in enumerate(zip(cutoffs, rows, swept)):
            record_path = tmp_path / f"estimate-{cutoff}.jsonl"
            assert main(["estimate", "--cutoff", cutoff, "--out", str(record_path), *shared]) == 0
            (record,) = read_jsonl(record_path)
            assert row["status"] == "ok"
            assert row["log_volume"] == repr(record["log_volume"])
            assert row["log10_volume"] == repr(record["log10_volume"])
            assert row["preconditioner"] == record["preconditioner"]
            assert row["cutoff"] == repr(record["cutoff"])
            assert (record["subcommand"], point["subcommand"]) == ("estimate", "sweep")
            assert set(point) == set(record) and all(k in point for k in timings)
            assert comparable(point) == comparable(record)
            samples = [{k: v for k, v in r.items() if k != "point"} for r in samples_by_point if r["point"] == str(i)]
            assert samples == _read_csv(record_path.with_suffix(".samples.csv"))
        # k rows per point, numbered by the point's line in the records file
        assert [r["point"] for r in samples_by_point] == [str(i) for i in range(len(cutoffs)) for _ in range(5)]

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "cutoff", "--values", "0.1"], "--checkpoint"),
        (["--kind", "preconditioner", "--values", "none"], "--checkpoint"),
        (["--kind", "checkpoint"], "--values"),
        (["--kind", "cutoff", "--values", ","], "--values"),  # a list of no entries
    ])
    def test_missing_input_exits_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().endswith(f"requires {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # a checkpoint sweep's checkpoints are its values
        (["--kind", "checkpoint", "--values", "nonexistent.json", "--checkpoint", "nonexistent.json"],
         "sweep --kind checkpoint takes no --checkpoint"),
        # --n sizes only the quadratic
        (["--kind", "cutoff", "--checkpoint", "nonexistent.json", "--values", "1e-2", "--n", "7"],
         "sweep --kind cutoff takes no --n"),
        # a kind sets each point's own value of the flag it varies
        (["--kind", "cutoff", "--checkpoint", "nonexistent.json", "--values", "1e-2", "--cutoff", "0.5"],
         "sweep --kind cutoff takes no --cutoff"),
        (["--kind", "preconditioner", "--checkpoint", "nonexistent.json", "--values", "none",
          "--preconditioner", "diag"], "sweep --kind preconditioner takes no --preconditioner"),
        # every flag the sweep does not read is named
        (["--kind", "preconditioner", "--checkpoint", "nonexistent.json", "--values", "none",
          "--preconditioner", "diag", "--n", "7"],
         "sweep --kind preconditioner takes no --n, --preconditioner"),
        # a cutoff that is not a number, or not positive and finite, is named with its flag
        (["--kind", "cutoff", "--checkpoint", "nonexistent.json", "--values", "1e-2,abc"],
         "sweep --values entry 'abc' is not a number"),
        *((["--kind", "cutoff", "--checkpoint", "nonexistent.json", "--values", f"1e-2,{bad}"],
           f"sweep --values entry '{bad}' is not a positive finite cutoff") for bad in ("0", "inf", "-1", "nan")),
    ])
    def test_unread_flag_exits_2(self, argv, message, tmp_path, capsys):
        # these exited 0 with the flag ignored, and the bad cutoff named no
        # flag; no file is read before the refusal
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--k", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_checkpoints_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--kind", "cutoff", "--values", "1e-2", "--target", "quadratic",
                  "--checkpoints", "nonexistent.json", "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --checkpoints nonexistent.json" in capsys.readouterr().err
        assert not out.exists()

    def test_no_estimate_outlives_its_point(self, final_checkpoint, tmp_path, monkeypatch):
        # a sweep keeps each point's record and sample rows, not its
        # estimate, whose samples view the point's k x n block of directions
        estimates, alive = [], []
        real_record, real_write_csv = cli._Target.record, cli.write_csv

        def record(self, *args):
            point, estimate = real_record(self, *args)
            estimates.append(weakref.ref(estimate))
            return point, estimate

        def write_csv(path, rows, fieldnames):
            if str(path).endswith(".samples.csv"):
                alive.append(sum(ref() is not None for ref in estimates))
            real_write_csv(path, rows, fieldnames)

        monkeypatch.setattr(cli._Target, "record", record)
        monkeypatch.setattr(cli, "write_csv", write_csv)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--values", "1e-3,1e-2,1e-1", "--checkpoint", str(final_checkpoint),
            "--k", "4", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        assert len(estimates) == 3 and alive == [0]
        assert len(_read_csv(out.with_suffix(".samples.csv"))) == 3 * 4

    def test_failed_rows_describe_their_own_point(self, final_checkpoint, tmp_path):
        out = tmp_path / "precond.csv"
        rc = main([
            "sweep", "--kind", "preconditioner", "--values", "adam-nu,bogus", "--cutoff", "0.05",
            "--checkpoint", str(final_checkpoint), "--k", "4", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        bogus = _read_csv(out)[1]
        assert bogus["status"] == "failed: unknown preconditioner"
        assert (bogus["preconditioner"], bogus["cutoff"]) == ("bogus", "0.05")

        # the anchor's training loss is about 0.1, so a 1e-6 loss cutoff fails
        out = tmp_path / "cutoff.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--cost", "loss", "--values", "1e-6,2.0",
            "--preconditioner", "diag", "--checkpoint", str(final_checkpoint),
            "--k", "4", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        failed, ok = _read_csv(out)
        assert failed["status"].startswith("failed: anchor cost")
        assert (failed["cutoff"], failed["preconditioner"]) == ("1e-06", "diag")
        assert (ok["status"], ok["cutoff"]) == ("ok", "2.0")
        # one successful point fits no slope
        assert json.loads(out.with_suffix(".summary.json").read_text())["log_log_slope"] is None
        # the failed point has a record but no samples; the other's k rays follow as point 1
        records = read_jsonl(out.with_suffix(".records.jsonl"))
        assert [r["status"] for r in records] == [failed["status"], "ok"]
        assert (records[0]["preconditioner"], records[0]["measure"], records[0]["k"]) == ("diag", "gaussian", 4)
        assert [r["point"] for r in _read_csv(out.with_suffix(".samples.csv"))] == ["1"] * 4


class TestConsoleScript:
    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "starvol.cli", "sweep", "--kind", "cutoff",
                "--target", "quadratic", "--n", "10", "--k", "4",
                "--values", "1e-2,1e-1", "--out", str(out),
            ],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"2 sweep rows -> {out}" in proc.stdout


class TestRunRecords:
    def test_failure_reasons_reach_record_and_samples(self, tmp_path):
        # rays that run into the non-finite wall fail; the others do not
        def cost(x):
            return float("nan") if x[0] > 0.5 else 0.5 * float(np.sum(x * x))

        spec = NeighborhoodSpec(np.zeros(3), cost, 0.5, MeasureSpec.lebesgue())
        est = estimate_local_volume(spec, Preconditioner.identity(3), k=16, seed=17)
        reason = "CostEvaluationError: cost evaluation failed: non-finite value nan"
        assert 0 < est.failed_count < 16
        record = make_run_record("estimate", 17, {}, est, 0.0)
        assert record["failed_by_reason"] == {reason: est.failed_count}
        write_csv(tmp_path / "s.csv", sample_rows(est), SAMPLE_FIELDS)
        rows = _read_csv(tmp_path / "s.csv")
        assert [r["failure"] for r in rows] == [reason if r["failed"] == "1" else "" for r in rows]
        # a failed ray keeps the evaluations it made before failing
        assert [int(r["evals"]) for r in rows] == [s.evals for s in est.samples]
        assert all(s.evals >= 1 for s in est.samples)
        assert record["cost_evals"] == est.cost_evals

    @staticmethod
    def _build_id_of_copy(root: Path, package_parent: str) -> tuple[str, str]:
        """Copy the package under a fresh git repository at ``root``.

        Returns (the build id the copy records, the repository's short head).
        """
        git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@example.com",
               "-c", "commit.gpgsign=false"]
        root.mkdir()
        subprocess.run([*git, "init", "-q"], check=True)
        (root / "README").write_text("unrelated\n")
        subprocess.run([*git, "add", "README"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "init"], check=True)
        head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        shutil.copytree(Path(starvol.__file__).parent, root / package_parent / "starvol",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "-c", "from starvol.runio import build_id; print(build_id())"],
            capture_output=True, text=True, timeout=120, cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / package_parent)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip(), head

    def test_build_id_is_computed_once_per_process(self, monkeypatch):
        first = runio.build_id()

        def no_subprocess(*args, **kwargs):
            raise AssertionError("build_id started a subprocess again")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        assert runio.build_id() == first

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_build_id_ignores_an_unrelated_repository(self, tmp_path):
        build, _ = self._build_id_of_copy(tmp_path / "other", "lib")
        assert build == "starvol-0.1.0"

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_build_id_records_the_checkout_holding_the_package(self, tmp_path):
        build, head = self._build_id_of_copy(tmp_path / "checkout", "src")
        assert build == f"git:{head}"


@pytest.fixture(scope="session")
def loss_cutoff(train_run):
    """A loss cutoff 0.01 above the final checkpoint's train_loss, the loss cost at its anchor."""
    return float(_read_csv(train_run["out"] / "metrics.csv")[-1]["train_loss"]) + 0.01


def _loss_record(checkpoint, cutoff, out, k, seed):
    rc = main(["estimate", "--checkpoint", str(checkpoint), "--cost", "loss", "--cutoff", repr(cutoff),
               "--k", str(k), "--out", str(out), "--seed", str(seed)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def loss_record(final_checkpoint, loss_cutoff, tmp_path_factory):
    return _loss_record(final_checkpoint, loss_cutoff, tmp_path_factory.mktemp("mdl") / "vol.jsonl", 8, 6)


class TestJsonFiles:
    def test_every_json_file_is_sorted_objects_one_per_line(self, train_run, final_checkpoint, loss_record,
                                                            tmp_path):
        # checkpoints, records, the sweep summary and mdl's payload all come from one writer
        sweep, mdl = tmp_path / "sweep.csv", tmp_path / "mdl.json"
        assert main(["sweep", "--kind", "cutoff", "--checkpoint", str(final_checkpoint), "--values", "1e-2,1e-1",
                     "--k", "4", "--out", str(sweep)]) == 0
        assert main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(loss_record),
                     "--out", str(mdl)]) == 0
        files = {path: 1 for path in train_run["checkpoints"]}
        files |= {loss_record: 1, sweep.with_suffix(".records.jsonl"): 2, sweep.with_suffix(".summary.json"): 1,
                  mdl: 1}
        for path, count in files.items():
            text = path.read_text()
            objects = [json.loads(line) for line in text.splitlines()]
            assert len(objects) == count, path
            assert text == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects), path
        # a checkpoint's arrays read back bit for bit, and write the same file again
        for path in train_run["checkpoints"]:
            data, ckpt = json.loads(path.read_text()), load_checkpoint(path)
            for key, got in (("flat", ckpt.params.flat), ("adam_nu", ckpt.nu), ("sigma", ckpt.sigma)):
                assert got.tobytes() == base64.b64decode(data[key]), (path.name, key)
            save_checkpoint(tmp_path / path.name, ckpt)
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


class TestMdl:
    def test_description_length_report(self, final_checkpoint, loss_record, loss_cutoff, tmp_path, capsys):
        out = tmp_path / "mdl.json"
        capsys.readouterr()
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(loss_record), "--out", str(out)])
        assert rc == 0
        payload, record = json.loads(out.read_text()), read_jsonl(loss_record)[-1]
        assert record["config"]["cost"] == "loss" and record["cutoff"] == loss_cutoff
        # both terms are read from the record, bit for bit: the information
        # content -log V_G, and m = 48 training rows times the cutoff
        assert payload["kl_term"] == -record["log_volume"]
        assert payload["data_term"] == 48 * loss_cutoff
        assert payload["total"] == payload["kl_term"] + payload["data_term"]
        assert (payload["m"], payload["cutoff"], payload["n"]) == (48, loss_cutoff, 26)
        assert payload["slack_per_decade"] == math.log(10)
        assert capsys.readouterr().out == (
            f"kl_term={payload['kl_term']:.4f} data_term={payload['data_term']:.4f} total={payload['total']:.4f} "
            "nats, + j*2.3026 at confidence 1-10^-j\n"
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_is_below_the_raw_labels_code_length(self, seed, final_checkpoint, loss_cutoff, tmp_path):
        # the labels sent raw take m log C = 48 log 2 = 33.27 nats; the bound
        # read 11.8-12.7 nats at k = 1,024
        record = _loss_record(final_checkpoint, loss_cutoff, tmp_path / "vol.jsonl", 1024, seed)
        out = tmp_path / "mdl.json"
        assert main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(record), "--out", str(out)]) == 0
        total = json.loads(out.read_text())["total"]
        assert total == -read_jsonl(record)[-1]["log_volume"] + 48 * loss_cutoff
        assert total < 48 * math.log(2)

    def test_reads_no_data_and_evaluates_no_cost(self, final_checkpoint, loss_record, tmp_path, monkeypatch):
        # both terms come from the record and the checkpoint's config, so mdl
        # rebuilds no split and builds no cost handle
        counts = _count_calls(monkeypatch, "_build_datasets", "make_loss_cost", "make_kl_cost")
        out = tmp_path / "mdl.json"
        assert main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(loss_record), "--out", str(out)]) == 0
        assert counts == {"_build_datasets": 0, "make_loss_cost": 0, "make_kl_cost": 0}

    def test_kl_record_is_rejected(self, final_checkpoint, tmp_path, capsys):
        # a KL neighborhood says nothing of the training labels' cross-entropy,
        # so its -log V plus any data term bounds no code length
        rec = tmp_path / "kl.jsonl"
        assert main(["estimate", "--checkpoint", str(final_checkpoint), "--k", "2", "--out", str(rec)]) == 0
        capsys.readouterr()
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: description length requires a loss-cost volume record, not cost 'kl'\n"
        assert not out.exists()

    def test_out_creates_its_directory(self, final_checkpoint, loss_record, tmp_path):
        # the report's directory is created, as every writer's is
        out = tmp_path / "reports" / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(loss_record), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["kl_term"] == -read_jsonl(loss_record)[-1]["log_volume"]

    def test_seed_is_rejected(self, final_checkpoint, loss_record, tmp_path, capsys):
        # mdl's data come from the checkpoint's own seed, so a --seed would be ignored
        out = tmp_path / "mdl.json"
        with pytest.raises(SystemExit) as info:
            main([
                "mdl", "--checkpoint", str(final_checkpoint),
                "--record", str(loss_record), "--out", str(out), "--seed", "1",
            ])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_lebesgue_record_is_rejected(self, final_checkpoint, loss_record, tmp_path, capsys):
        # a record an older build wrote under the Lebesgue measure
        rec = tmp_path / "lebesgue.jsonl"
        rec.write_text(json.dumps({**read_jsonl(loss_record)[-1], "measure": "lebesgue"}) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: description length requires a Gaussian volume record, not measure 'lebesgue'\n"
        )
        assert not out.exists()

    def test_empty_record_file_is_named(self, final_checkpoint, tmp_path, capsys):
        rec = tmp_path / "empty.jsonl"
        rec.write_text("")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: no records in {rec}\n"
        assert not out.exists()

    def test_record_file_that_is_not_utf8_is_named(self, final_checkpoint, tmp_path, capsys):
        rec = tmp_path / "utf16.jsonl"
        rec.write_bytes(b"\xff\xfe{}\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: not a JSON Lines file: {rec}: 'utf-8' codec")
        assert not out.exists()

    @pytest.mark.parametrize("values", ["bogus,none", "none,bogus"])
    def test_sweep_records_last_point(self, values, final_checkpoint, loss_cutoff, tmp_path, capsys):
        # a sweep's records file is read like an estimate's: its last record
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--kind", "preconditioner", "--values", values, "--checkpoint", str(final_checkpoint),
                     "--cost", "loss", "--cutoff", repr(loss_cutoff), "--k", "4", "--seed", "2",
                     "--out", str(sweep)]) == 0
        rec, out = sweep.with_suffix(".records.jsonl"), tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        last = read_jsonl(rec)[-1]
        if last["status"] == "ok":
            assert rc == 0
            assert json.loads(out.read_text())["kl_term"] == -last["log_volume"]
        else:
            assert rc == 2
            assert f"missing record field log_volume in {rec}" in capsys.readouterr().err
            assert not out.exists()

    def test_truncated_record_line_is_named(self, final_checkpoint, loss_record, tmp_path, capsys):
        # a run cut off mid-write leaves a last line that is not JSON
        rec = tmp_path / "cut.jsonl"
        line = json.dumps(read_jsonl(loss_record)[-1])
        rec.write_text(f"{line}\n{line[:40]}\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: not a JSON Lines file: {rec}: line 2 is not JSON: ")
        assert not out.exists()

    def test_record_from_another_network_is_rejected(self, final_checkpoint, loss_record,
                                                     tmp_path, capsys):
        record = read_jsonl(loss_record)[-1]
        assert record["n"] == 26
        rec = tmp_path / "other.jsonl"
        rec.write_text(json.dumps({**record, "n": 27}) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert "n = 27 does not match the checkpoint's 26 parameters" in capsys.readouterr().err
        assert not out.exists()

    def test_record_from_another_checkpoint_is_rejected(self, train_run, loss_record,
                                                        tmp_path, capsys):
        # the step-3 checkpoint has the same n as the final one the record came from
        step3 = train_run["checkpoints"][1]
        assert step3.name == "checkpoint_step000003.json"
        recorded = read_jsonl(loss_record)[-1]["config"]["anchor_sha256"]
        flat = load_checkpoint(step3).params.flat
        digest = hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()
        assert digest != recorded
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(step3), "--record", str(loss_record), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"anchor_sha256 {recorded} does not match the checkpoint's {digest}" in err
        assert not out.exists()

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(lambda record: {k: v for k, v in record.items() if k != "log_volume"},
                     "missing record field log_volume in {rec}", id="no-log-volume"),
        pytest.param(lambda record: {k: v for k, v in record.items() if k != "n"}, "missing record field n in {rec}",
                     id="no-n"),
        pytest.param(lambda record: [record], "the last record in {rec} is not an object", id="record-not-object"),
        pytest.param(lambda record: {**record, "config": "x"}, "record field config is not an object in {rec}",
                     id="config-not-object"),
        pytest.param(lambda record: {**record, "n": None}, "missing record field n in {rec}", id="n-null"),
        pytest.param(lambda record: {**record, "log_volume": None}, "missing record field log_volume in {rec}",
                     id="log-volume-null"),
        pytest.param(lambda record: {**record, "n": 26.5},
                     "malformed record field n in {rec}: expected an integer, got 26.5", id="n-fraction"),
        pytest.param(lambda record: {**record, "log_volume": "big"},
                     "malformed record field log_volume in {rec}: expected a number, got 'big'", id="log-volume-string"),
        pytest.param(lambda record: {k: v for k, v in record.items() if k != "cutoff"},
                     "missing record field cutoff in {rec}", id="no-cutoff"),
        pytest.param(lambda record: {**record, "cutoff": "low"},
                     "malformed record field cutoff in {rec}: expected a number, got 'low'", id="cutoff-string"),
    ])
    def test_malformed_record_exits_2_naming_the_field(self, mangle, reason, final_checkpoint, loss_record,
                                                       tmp_path, capsys):
        # each used to end in a KeyError, AttributeError or TypeError traceback
        rec = tmp_path / "bad.jsonl"
        rec.write_text(json.dumps(mangle(read_jsonl(loss_record)[-1])) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {reason.format(rec=rec)}\n"
        assert not out.exists()

    def test_record_without_anchor_digest_is_rejected(self, final_checkpoint, loss_record,
                                                     tmp_path, capsys):
        record = read_jsonl(loss_record)[-1]
        del record["config"]["anchor_sha256"]
        rec = tmp_path / "old.jsonl"
        rec.write_text(json.dumps(record) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert "anchor_sha256 (missing) does not match" in capsys.readouterr().err
        assert not out.exists()
