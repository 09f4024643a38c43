"""starvol benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload kl-estimate --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` times operations with no wrappers installed and reports the
end-to-end metrics. ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics derived from the traced spans.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Working files, the run report and the spans go to
``.bench_work/`` under the repository root. ``bench/DESIGN.md`` explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_JSON = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("kl-estimate", "curvature-pipeline", "quadratic-gauss")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(cpus: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = {"nproc": cpus}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    env.update(
        blas=blas_name,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        git_sha=git_sha(),
        src_lines=sum(len(p.read_text().splitlines()) for p in (SRC / "starvol").rglob("*.py")),
    )
    return env


def host_steal_ticks() -> int | None:
    """Clock ticks the hypervisor took from this machine's CPUs, if Linux reports it.

    A virtual machine that shares its host loses CPU time in bursts, and wall
    times rise with it; the run prints the share so a reader can tell.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten operations beyond it, and its label.

    That is the (n-10)-th smallest of n values. Under 20 operations it would
    sit below the median, so the median is reported instead; the value then
    moves smoothly as the count of operations in a run changes.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), f"p50 of {n} operations (under 20, no higher percentile has ten beyond it)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} operations (ten beyond it)"


# printed with every plain run and kept in report.json, but not bounded:
# wall-clock time on a shared virtual machine rises with the CPU time its
# host takes away (see DESIGN.md), so the bounded metrics use CPU time
WALL_UNITS = {
    "setup_wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "rays_per_s": "1/s",
    "rays_per_s.par": "1/s",
}


def operation_count(wl, seconds: float, per: int = 1) -> int:
    """Operations (or traced pairs, `per`=2) that fill about `seconds`.

    The count comes from the arguments and the workload's nominal operation
    time, not from the clock, so the same seed and seconds always make the
    same operations and give the same `attempted` and `failed` counts.
    """
    return max(1, round(seconds / (per * wl.nominal_op_s)))


def run_plain(wl, seconds: float):
    """End-to-end metrics: repeated set-ups, then about `seconds` of operations."""
    from workloads import now

    setups = []
    for i in range(wl.setup_repeats):
        start = now()
        wl.setup(i)
        setups.append(now() - start)
    ops = [wl.op(i) for i in range(operation_count(wl, seconds))]
    cpu_tail, cpu_tail_label = tail([o.took.cpu for o in ops])
    wall_tail, wall_tail_label = tail([o.took.wall for o in ops])
    metrics = {
        "setup_s": statistics.median(s.cpu for s in setups),
        "op_cpu_s.p50": statistics.median(o.took.cpu for o in ops),
        "op_cpu_s.tail": cpu_tail,
        "rays_per_cpu_s": statistics.median(o.rays / o.est.cpu for o in ops),
        "rays_per_cpu_s.par": statistics.median(o.rays_par / o.est_par.cpu for o in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": statistics.median(s.wall for s in setups),
        "op_s.p50": statistics.median(o.took.wall for o in ops),
        "op_s.tail": wall_tail,
        "rays_per_s": statistics.median(o.rays / o.est.wall for o in ops),
        "rays_per_s.par": statistics.median(o.rays_par / o.est_par.wall for o in ops),
    }
    n = len(ops)
    notes = {
        "setup_s": f"process CPU, median of {len(setups)} set-ups",
        "op_cpu_s.p50": f"process CPU, median of {n} operations",
        "op_cpu_s.tail": "process CPU, " + cpu_tail_label,
        "rays_per_cpu_s": f"threads=1, median of {n} operations",
        "rays_per_cpu_s.par": f"threads={wl.nproc}, median of {n} operations",
        "peak_rss_mb": "peak resident set of this process",
        "setup_wall_s": "wall clock, not bounded",
        "op_s.p50": "wall clock, not bounded",
        "op_s.tail": "wall clock, not bounded, " + wall_tail_label,
        "rays_per_s": "wall clock, threads=1, not bounded",
        "rays_per_s.par": f"wall clock, threads={wl.nproc}, not bounded",
    }
    for key in ops[0].extra:
        metrics[key] = statistics.median(o.extra[key] for o in ops)
    return ops, [], metrics, notes


def run_traced(wl, seconds: float):
    """Per-layer metrics from (untraced, traced) operation pairs."""
    import tracing
    from workloads import Check, now

    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = now()
        wl.setup(0)
        setup = tracing.OpSpans(tracer.take(), (now() - start).wall)
    finally:
        tracer.uninstall()

    pairs = [wl.traced_pair(tracer) for _ in range(operation_count(wl, seconds, per=2))]

    ops, checks, rows, counts = [], [], [], []
    for untraced, traced, spans, _ in pairs:
        ops += [untraced, traced]
        op = tracing.OpSpans(spans, traced.took.wall)
        rows.append(tracing.layer_metrics(op))
        counts.append(op.counts())
        same = all(traced.log_volumes.get(k) == v for k, v in untraced.log_volumes.items())
        checks.append(Check("traced-log-volumes-bit-identical", same,
                            f"{len(untraced.log_volumes)} log-volumes compared"))
    if len(counts) > 1:
        checks.append(Check("exact-counts-repeat", all(c == counts[0] for c in counts),
                            f"{len(counts)} traced operations"))
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["models.adam_train.s"] = setup.total("models.adam_train")
    metrics["bench.trace_overhead_s"] = statistics.median(p[3] for p in pairs)
    for key in ("gain_nats.hessian", "gain_nats.diag"):
        metrics[key] = statistics.median(p[1].extra.get(key, 0.0) for p in pairs)
    notes = {
        "absent layers": tracer.absent,
        "missing targets": tracer.missing,
        "counts": counts[0],
        "traced operations": len(pairs),
        "spans": [p[2] for p in pairs],
    }
    return ops, checks, metrics, notes


def print_checks(checks) -> None:
    for name in dict.fromkeys(c.name for c in checks):
        group = [c for c in checks if c.name == name]
        kind = "" if group[0].gating else " (measured defect, not gating)"
        print(f"check {name}: {sum(c.passed for c in group)}/{len(group)} passed{kind}")
        for c in group:
            if not c.passed:
                print(f"  FAIL {c.detail}")


def run_one(args) -> int:
    if not (SRC / "starvol" / "__init__.py").is_file() or not BENCH_JSON.is_file():
        print(f"error: {ROOT} holds no starvol sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(BENCH_JSON.read_text())
    sys.path.insert(0, str(SRC))
    import starvol

    if Path(starvol.__file__).resolve().parent != SRC / "starvol":
        print(f"error: imported starvol from {starvol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cpus = nproc()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, cpus)
    env = environment(cpus)
    steal_start, clock_start = host_steal_ticks(), time.perf_counter()
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            ops, checks, metrics, notes = run_traced(wl, args.seconds)
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            ops, checks, metrics, notes = run_plain(wl, args.seconds)
        final_checks, final_metrics = wl.final_checks()
    finally:
        for sub in work.iterdir():
            if sub.is_dir():
                shutil.rmtree(sub)
    steal_end = host_steal_ticks()
    if steal_start is not None and steal_end is not None:
        ticks = os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1) * (time.perf_counter() - clock_start)
        env["host_steal_share"] = round((steal_end - steal_start) / ticks, 4)
    checks = [c for o in ops for c in o.checks] + checks + final_checks
    metrics.update(final_metrics)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(WALL_UNITS)

    rays = sum(o.rays + o.rays_par for o in ops)
    failed_rays = sum(o.failed_rays for o in ops)
    attempted = rays + len(checks)
    failed = failed_rays + sum(not c.passed for c in checks)
    correct = failed_rays == 0 and all(c.passed for c in checks if c.gating)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<44} {value!r:>24} {units.get(name, ''):<6} {notes.get(name, '')}")
    if args.trace:
        print(f"absent layers (reported as 0): {', '.join(notes['absent layers']) or 'none'}")
        print(f"missing wrapper targets: {', '.join(notes['missing targets']) or 'none'}")
        print("exact counts of the first traced operation: " + json.dumps(notes["counts"], sort_keys=True))
    print(f"fail_share {failed}/{attempted} = {failed / attempted:.3g} ({failed_rays} failed rays "
          f"of {rays}, {failed - failed_rays} failed checks of {len(checks)})")
    print_checks(checks)

    if args.trace:
        tracing.write_spans(work / "spans.jsonl", notes.pop("spans"))
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "metrics": metrics, "notes": notes, "op_s": [o.took.wall for o in ops],
        "op_cpu_s": [o.took.cpu for o in ops],
        "checks": [c.__dict__ for c in checks],
    }
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in a process of its own, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        returncode = subprocess.run(argv, cwd=ROOT).returncode
        status = status or returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="starvol benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
