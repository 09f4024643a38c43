"""End-to-end tests of the command-line tools, run in-process via main()."""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import starvol
import starvol.cli as cli
import starvol.runio as runio
from starvol.cli import main
from starvol.geometry import MeasureSpec, NeighborhoodSpec, estimate_local_volume
from starvol.models import load_checkpoint, load_csv
from starvol.precondition import Preconditioner
from starvol.runio import make_run_record, read_jsonl, write_samples_csv

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


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_rerun_is_byte_identical(self, train_run, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["train", "--config", str(train_run["config"]), "--out", str(out2), "--seed", "11"])
        assert rc == 0
        for path in train_run["checkpoints"]:
            assert (out2 / path.name).read_bytes() == path.read_bytes()
        assert (out2 / "metrics.csv").read_bytes() == (train_run["out"] / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [("lr", -0.05), ("poison_alpha", -0.5)])
    def test_bad_training_setting_exits_nonzero(self, field, value, tmp_path, capsys):
        cfg_data = json.loads(json.dumps(TRAIN_CONFIG))
        cfg_data["dataset"]["poison"] = 16
        cfg_data["train"][field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(cfg_data))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--seed", "1"])
        assert rc != 0
        assert f"{field.removeprefix('poison_')} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
        # 5.50 measured (44 evaluations on 8 rays; 45 with every evaluation
        # in float64), plus a margin of 1.00
        assert 1 <= record["evals_per_ray"] <= 6.5
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
            f"ess={record['ess']:.2f} top_share={record['top_share']:.3f} "
            f"prefix_rise={record['prefix_rise']:.3f}"
        ) in summary

    def test_rerun_appends_identical_record(self, final_checkpoint, tmp_path):
        out = tmp_path / "runs.jsonl"
        argv = [
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "6", "--out", str(out), "--seed", "9",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        first, second = read_jsonl(out)
        assert first["log_volume"] == second["log_volume"]
        assert first["log_terms"] == second["log_terms"]

    def test_thread_count_does_not_change_result(self, final_checkpoint, tmp_path):
        records = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.jsonl"
            rc = main([
                "estimate", "--checkpoint", str(final_checkpoint),
                "--k", "12", "--threads", threads, "--out", str(out), "--seed", "5",
            ])
            assert rc == 0
            records.append(read_jsonl(out)[0])
        assert records[0]["log_volume"] == records[1]["log_volume"]

    def test_lebesgue_adam_nu_and_saved_preconditioner(self, final_checkpoint, tmp_path):
        out = tmp_path / "runs.jsonl"
        saved = tmp_path / "precond.json"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "6", "--measure", "lebesgue", "--preconditioner", "adam-nu",
            "--save-precond", str(saved), "--out", str(out), "--seed", "2",
        ])
        assert rc == 0
        (record,) = read_jsonl(out)
        assert record["measure"] == "lebesgue"
        assert record["preconditioner"].startswith("adam-nu[")
        assert record["build_seconds"] == {}  # Adam's second moment needs no probe
        assert Preconditioner.load(saved).describe() == record["preconditioner"]

    def test_hessian_map_reloads_bit_identically(self, final_checkpoint, tmp_path):
        # the saved file keeps the scales and the eigenvector basis exactly,
        # so the same seed reproduces the same estimate
        saved = tmp_path / "precond.json"
        shared = ["--checkpoint", str(final_checkpoint), "--k", "6", "--seed", "4"]
        assert main([
            "estimate", "--preconditioner", "hessian", "--save-precond", str(saved),
            "--out", str(tmp_path / "a.jsonl"), *shared,
        ]) == 0
        assert main(["estimate", "--precond-file", str(saved), "--out", str(tmp_path / "b.jsonl"), *shared]) == 0
        (first,), (second,) = read_jsonl(tmp_path / "a.jsonl"), read_jsonl(tmp_path / "b.jsonl")
        assert first["preconditioner"] == second["preconditioner"] == "hessian[dense,n=26]"
        assert first["log_volume"] == second["log_volume"]
        assert first["log_terms"] == second["log_terms"]
        # the built map's record times its probe and decomposition; a loaded map was built by neither
        build = first["build_seconds"]
        assert sorted(build) == ["curvature", "eigendecompose"]
        assert all(t["cpu"] >= 0.0 and 0.0 <= t["wall"] <= first["wall_time_s"] for t in build.values())
        assert second["build_seconds"] == {}

    def test_map_without_unit_determinant_exits_2(self, final_checkpoint, tmp_path, capsys):
        saved = tmp_path / "precond.json"
        Preconditioner.diagonal(np.full(26, 2.0)).save(saved)
        out = tmp_path / "runs.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint), "--k", "4",
            "--precond-file", str(saved), "--out", str(out), "--seed", "1",
        ])
        assert rc == 2
        assert f"log det {26 * math.log(2.0):.6g} is not 0" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag, value", [("--r-max", "nan"), ("--rel-tol", "-1"), ("--threads", "-3")])
    def test_invalid_search_option_exits_2(self, flag, value, final_checkpoint, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        rc = main(["estimate", "--checkpoint", str(final_checkpoint), flag, value, "--out", str(out)])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_is_fallback_only(self, final_checkpoint, tmp_path, monkeypatch):
        monkeypatch.setenv("STARVOL_SEED", "77")
        out_env = tmp_path / "env.jsonl"
        assert main(["estimate", "--checkpoint", str(final_checkpoint), "--k", "2", "--out", str(out_env)]) == 0
        assert read_jsonl(out_env)[0]["seed"] == 77
        out_flag = tmp_path / "flag.jsonl"
        assert main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "2", "--out", str(out_flag), "--seed", "5",
        ]) == 0
        assert read_jsonl(out_flag)[0]["seed"] == 5

    def test_missing_checkpoint_exits_2(self, tmp_path):
        rc = main(["estimate", "--checkpoint", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("argv, reason", [
        ([], "--eps shapes no map with --preconditioner none"),
        (["--preconditioner", "diag", "--precond-file", "{saved}"], "--eps shapes no map with --precond-file"),
    ])
    def test_eps_that_shapes_no_map_exits_2(self, argv, reason, final_checkpoint, tmp_path, capsys):
        saved = tmp_path / "precond.json"
        Preconditioner.identity(26).save(saved)
        out = tmp_path / "o.jsonl"
        rc = main([
            "estimate", "--checkpoint", str(final_checkpoint), "--eps", "0.5", "--k", "2",
            *(arg.format(saved=saved) for arg in argv), "--out", str(out),
        ])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_eps_is_recorded_only_for_a_shaped_map(self, final_checkpoint, tmp_path):
        saved = tmp_path / "precond.json"
        Preconditioner.identity(26).save(saved)
        runs = {
            "identity": ([], None),
            "loaded": (["--precond-file", str(saved)], None),
            "default": (["--preconditioner", "adam-nu"], 0.001),
            "given": (["--preconditioner", "diag", "--eps", "0.5"], 0.5),
        }
        for name, (argv, eps) in runs.items():
            out = tmp_path / f"{name}.jsonl"
            assert main(["estimate", "--checkpoint", str(final_checkpoint), "--k", "2", *argv, "--out", str(out)]) == 0
            assert read_jsonl(out)[0]["config"]["eps"] == eps, name


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

    def test_checkpoint_sweep_sorts_by_step(self, train_run, tmp_path):
        out = tmp_path / "ckpt.csv"
        paths = ",".join(str(p) for p in reversed(train_run["checkpoints"]))
        rc = main([
            "sweep", "--kind", "checkpoint", "--checkpoints", paths,
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

    def test_eps_sweep_reports_largest_estimate(self, final_checkpoint, tmp_path):
        out = tmp_path / "eps.csv"
        rc = main([
            "sweep", "--kind", "eps", "--preconditioner", "adam-nu",
            "--values", "0.001,1.0", "--checkpoint", str(final_checkpoint),
            "--k", "6", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = _read_csv(out)
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        best = max(rows, key=lambda r: float(r["log_volume"]))
        assert summary["best_eps"] == float(best["value"])
        assert summary["best_log_volume"] == float(best["log_volume"])
        # the maximum over the grid weakens the one-sided guarantee by this factor
        assert summary["grid_size"] == 2

    @pytest.mark.parametrize("kind, name, counts", [
        # one curvature probe and at most one eigendecomposition; every point
        # shapes its own map from the cached spectrum in O(n)
        ("eps", "hessian", {"hessian_full": 1, "eigh": 1, "from_diagonal": 3}),
        ("cutoff", "hessian", {"hessian_full": 1, "eigh": 1, "from_diagonal": 3}),
        ("cutoff", "diag", {"hessian_diag": 1, "eigh": 0, "from_diagonal": 3}),
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

    def test_quadratic_sweep_honours_search_flags(self, tmp_path):
        # two cost evaluations cannot narrow the bracket to the 1e-4
        # tolerance (on this quadratic the search needs three), so every ray
        # fails and each point writes a failed row that names the reason
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--target", "quadratic", "--n", "20",
            "--k", "8", "--values", "1e-2,1e-1", "--max-iters", "2",
            "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = _read_csv(out)
        reason = "RadiusSearchError: radius search did not converge to rel_tol=0.0001"
        assert [r["status"] for r in rows] == [f"failed: no valid samples (8 rays: {reason})"] * 2
        assert {(r["measure"], r["preconditioner"]) for r in rows} == {("lebesgue", "none")}

    def test_cutoff_sweep_rows_match_estimate_runs(self, final_checkpoint, tmp_path):
        cutoffs = ("1e-3", "1e-2", "1e-1")
        shared = [
            "--checkpoint", str(final_checkpoint), "--k", "5",
            "--preconditioner", "diag", "--seed", "7",
        ]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kind", "cutoff", "--values", ",".join(cutoffs), "--out", str(out), *shared]) == 0
        rows = _read_csv(out)
        assert len(rows) == len(cutoffs)
        for cutoff, row in zip(cutoffs, rows):
            record_path = tmp_path / f"estimate-{cutoff}.jsonl"
            assert main(["estimate", "--cutoff", cutoff, "--out", str(record_path), *shared]) == 0
            (record,) = read_jsonl(record_path)
            assert row["status"] == "ok"
            assert row["log_volume"] == repr(record["log_volume"])
            assert row["log10_volume"] == repr(record["log10_volume"])
            assert row["preconditioner"] == record["preconditioner"]
            assert row["cutoff"] == repr(record["cutoff"])

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "eps", "--values", "0.1"], "--checkpoint"),
        (["--kind", "cutoff", "--values", "0.1"], "--checkpoint"),
        (["--kind", "preconditioner", "--values", "none"], "--checkpoint"),
        (["--kind", "checkpoint"], "--checkpoints"),
    ])
    def test_missing_input_exits_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip().endswith(f"requires {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, reason", [
        (["--kind", "eps", "--values", "1e-3,1e-2,1e-1"], "sweep --kind eps shapes no map with --preconditioner none"),
        (["--kind", "cutoff", "--values", "1e-2", "--eps", "0.1"], "--eps shapes no map with --preconditioner none"),
        (["--kind", "checkpoint", "--checkpoints", "{checkpoint}", "--eps", "0.1"], "--preconditioner none"),
        (["--kind", "cutoff", "--values", "1e-2", "--preconditioner", "diag", "--eps", "0.1",
          "--precond-file", "{saved}"], "--eps shapes no map with --precond-file"),
        (["--kind", "eps", "--values", "1e-3,1e-2", "--eps", "0.5", "--preconditioner", "diag"],
         "--eps shapes no map with sweep --kind eps, which shapes each point from its swept value"),
    ])
    def test_eps_that_shapes_no_map_exits_2(self, argv, reason, final_checkpoint, tmp_path, capsys):
        saved = tmp_path / "precond.json"
        Preconditioner.identity(26).save(saved)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", *(arg.format(checkpoint=final_checkpoint, saved=saved) for arg in argv),
            "--checkpoint", str(final_checkpoint), "--k", "2", "--out", str(out),
        ])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_preconditioner_sweep_takes_eps(self, final_checkpoint, tmp_path):
        shared = ["--checkpoint", str(final_checkpoint), "--eps", "0.5", "--k", "4", "--seed", "1"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kind", "preconditioner", "--values", "none,diag", "--out", str(out), *shared]) == 0
        rows = _read_csv(out)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        record_path = tmp_path / "diag.jsonl"
        assert main(["estimate", "--preconditioner", "diag", "--out", str(record_path), *shared]) == 0
        assert rows[1]["log_volume"] == repr(read_jsonl(record_path)[0]["log_volume"])

    @pytest.mark.parametrize("kind, values", [("preconditioner", "none,adam-nu"), ("eps", "0.01,0.1")])
    def test_precond_file_rejected_over_maps(self, kind, values, final_checkpoint, tmp_path, capsys):
        saved = tmp_path / "precond.json"
        Preconditioner.identity(26).save(saved)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", kind, "--values", values, "--checkpoint", str(final_checkpoint),
            "--preconditioner", "adam-nu", "--precond-file", str(saved), "--out", str(out),
        ])
        assert rc == 2
        assert "--precond-file" in capsys.readouterr().err
        assert not out.exists()

    def test_precond_file_accepted_over_cutoffs(self, final_checkpoint, tmp_path):
        saved = tmp_path / "precond.json"
        Preconditioner.diagonal(np.linspace(0.5, 2.0, 26), source="saved").normalize_unit_det().save(saved)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--kind", "cutoff", "--values", "1e-2,1e-1", "--checkpoint", str(final_checkpoint),
            "--precond-file", str(saved), "--k", "4", "--out", str(out), "--seed", "1",
        ])
        assert rc == 0
        assert [r["preconditioner"] for r in _read_csv(out)] == ["saved[diagonal,n=26]"] * 2

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
        # one successful point fits no slope, so no summary is written
        assert not out.with_suffix(".summary.json").exists()


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
        write_samples_csv(tmp_path / "s.csv", est)
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
def lebesgue_record(final_checkpoint, tmp_path_factory):
    out = tmp_path_factory.mktemp("mdl") / "vol.jsonl"
    rc = main([
        "estimate", "--checkpoint", str(final_checkpoint),
        "--k", "8", "--measure", "lebesgue", "--out", str(out), "--seed", "6",
    ])
    assert rc == 0
    return out


class TestMdl:
    def test_description_length_report(self, final_checkpoint, lebesgue_record, tmp_path):
        out = tmp_path / "mdl.json"
        rc = main([
            "mdl", "--checkpoint", str(final_checkpoint),
            "--record", str(lebesgue_record), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["total"] == payload["kl_term"] + payload["data_term"]
        assert payload["data_term"] > 0
        assert math.isfinite(payload["kl_term"])
        assert payload["n"] == 26

    def test_seed_is_rejected(self, final_checkpoint, lebesgue_record, tmp_path, capsys):
        # mdl's data come from the checkpoint's own seed, so a --seed would be ignored
        out = tmp_path / "mdl.json"
        with pytest.raises(SystemExit) as info:
            main([
                "mdl", "--checkpoint", str(final_checkpoint),
                "--record", str(lebesgue_record), "--out", str(out), "--seed", "1",
            ])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_record_is_rejected(self, final_checkpoint, tmp_path):
        rec = tmp_path / "gauss.jsonl"
        assert main([
            "estimate", "--checkpoint", str(final_checkpoint),
            "--k", "4", "--measure", "gaussian", "--out", str(rec), "--seed", "6",
        ]) == 0
        rc = main([
            "mdl", "--checkpoint", str(final_checkpoint),
            "--record", str(rec), "--out", str(tmp_path / "mdl.json"),
        ])
        assert rc == 2

    def test_record_from_another_network_is_rejected(self, final_checkpoint, lebesgue_record,
                                                     tmp_path, capsys):
        record = read_jsonl(lebesgue_record)[-1]
        assert record["n"] == 26
        rec = tmp_path / "other.jsonl"
        rec.write_text(json.dumps({**record, "n": 27}) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert "n = 27 does not match the checkpoint's 26 parameters" in capsys.readouterr().err
        assert not out.exists()

    def test_record_from_another_checkpoint_is_rejected(self, train_run, lebesgue_record,
                                                        tmp_path, capsys):
        # the step-3 checkpoint has the same n as the final one the record came from
        step3 = train_run["checkpoints"][1]
        assert step3.name == "checkpoint_step000003.json"
        recorded = read_jsonl(lebesgue_record)[-1]["config"]["anchor_sha256"]
        flat = load_checkpoint(step3).params.flat
        digest = hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()
        assert digest != recorded
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(step3), "--record", str(lebesgue_record), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"anchor_sha256 {recorded} does not match the checkpoint's {digest}" in err
        assert not out.exists()

    def test_record_without_anchor_digest_is_rejected(self, final_checkpoint, lebesgue_record,
                                                     tmp_path, capsys):
        record = read_jsonl(lebesgue_record)[-1]
        del record["config"]["anchor_sha256"]
        rec = tmp_path / "old.jsonl"
        rec.write_text(json.dumps(record) + "\n")
        out = tmp_path / "mdl.json"
        rc = main(["mdl", "--checkpoint", str(final_checkpoint), "--record", str(rec), "--out", str(out)])
        assert rc == 2
        assert "anchor_sha256 (missing) does not match" in capsys.readouterr().err
        assert not out.exists()
