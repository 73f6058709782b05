"""Benchmark of depbernstein: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tail_n1024 --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's src/ in fresh worker processes
with BLAS threads pinned to 1.  With --trace 0 one process runs the passes
that take about --seconds on the reference machine, after two more
processes that only set up, and the end-to-end metrics are printed.  With
--trace 1 a fixed plan of passes runs twice, untraced and then traced, each
in a fresh process, and the per-layer metrics are printed.  Operation times
are in reference seconds (see refclock.py); set-up is in wall seconds.  The
last line of standard output is
the result; the line before it is a report with the machine facts, output
digest, wall-clock times and per-operation timings.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2          # setup-only processes besides the measured one
DEADLINE = 170.0          # seconds; every worker is killed past this point
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
}


class WorkerError(RuntimeError):
    pass


def run_worker(plan: dict, workdir: Path, tag: str, started: float) -> dict:
    plan_path = workdir / f"{tag}.plan.json"
    result_path = workdir / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log_path = workdir / f"{tag}.log"
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, DEADLINE - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"{tag} worker passed the {DEADLINE:.0f} s deadline")
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise WorkerError(f"{tag} worker exited with {code}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - t0
    return result


def timing_summary(ops: list) -> dict:
    """Per slot, in reference seconds: sample count, median and the highest
    whole percentile with at least ten samples above it (from twenty on)."""
    by_slot: dict = {}
    for op in ops:
        by_slot.setdefault(op["slot"], []).append(op["ref_seconds"])
    out = {}
    for slot, ts in by_slot.items():
        ts = sorted(ts)
        row = {"n": len(ts), "median_s": statistics.median(ts)}
        if len(ts) >= 20:
            q = int(100 * (1 - 10 / len(ts)))
            row[f"p{q}_s"] = ts[min(len(ts) - 1, int(q / 100 * len(ts)))]
        out[slot] = row
    return out


def pass_time(ops: list, key: str = "ref_seconds") -> float:
    """The time of one pass: the sum over its operations of each one's
    median time in the run."""
    by_slot: dict = {}
    for op in ops:
        by_slot.setdefault(op["slot"], []).append(op[key])
    return sum(statistics.median(ts) for ts in by_slot.values())


def failures(ops: list) -> int:
    return sum(1 for op in ops if op["problems"])


def problems(ops: list) -> list:
    return [p for op in ops for p in op["problems"]][:10]


def end_to_end(plan: dict, workdir: Path, seconds: int, started: float):
    w = plan["workload"]
    passes = max(workloads.MIN_PASSES, round(seconds / workloads.REF_PASS_S[w]))
    probes = [run_worker(dict(plan, mode="setup"), workdir, f"probe{i}", started)
              for i in range(SETUP_PROBES)]
    main = run_worker(dict(plan, mode="passes", passes=passes, wall_cap=3 * seconds),
                      workdir, "main", started)
    ops = main["ops"]
    run_s = pass_time(ops)
    trials_per_s = sum(op["trials"] for op in ops if op["pass"] == 0) / run_s
    setups = [r["setup_s"] for r in probes + [main]]
    failed = failures(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "trials_per_s": (trials_per_s, "1/s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
        "error_rate": (oracles.failure_rate_upper(failed, len(ops)), "ratio"),
    }
    report = {
        "machine": main["machine"],
        "passes": main["passes"],
        "setup_samples_s": setups,
        "run_wall_s": pass_time(ops, "seconds"),
        "ops": timing_summary(ops),
        "observed_error_rate": failed / len(ops),
        "pooled_samples": main["pooled_samples"],
        "output_sha256": main["sha256"],
        "problems": problems(ops),
    }
    return metrics, len(ops), failed, True, report


def per_layer(plan: dict, workdir: Path, started: float):
    fixed = dict(plan, mode="passes", passes=workloads.TRACE_PASSES[plan["workload"]],
                 wall_cap=DEADLINE)
    plain = run_worker(dict(fixed, trace=False), workdir, "untraced", started)
    traced = run_worker(dict(fixed, trace=True), workdir, "traced", started)
    ops = plain["ops"] + traced["ops"]
    untraced_s, traced_s = pass_time(plain["ops"]), pass_time(traced["ops"])
    metrics = {name: (value, unit) for name, (unit, value) in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    same_outputs = plain["sha256"] == traced["sha256"]
    report = {
        "machine": traced["machine"],
        "passes": fixed["passes"],
        "untraced_run_s": untraced_s,
        "traced_run_s": traced_s,
        "output_sha256": traced["sha256"],
        "outputs_match_untraced": same_outputs,
        "missing_targets": traced["missing_targets"],
        "problems": problems(ops),
    }
    return metrics, len(ops), failures(ops), same_outputs, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "depbernstein" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'depbernstein'} is missing",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = {"workload": args.workload, "seed": args.seed, "workdir": str(workdir),
                "configs": workloads.write_inputs(args.workload, args.seed, str(workdir))}
        if args.trace:
            metrics, attempted, failed, ok, report = per_layer(plan, workdir, started)
        else:
            metrics, attempted, failed, ok, report = end_to_end(
                plan, workdir, args.seconds, started)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
