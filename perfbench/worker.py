"""One workload process: set up, then run passes and check every output.

Started by run.py with the checkout's src/ on PYTHONPATH and BLAS threads
pinned to 1.  Usage: worker.py PLAN.json RESULT.json, where the plan's mode
is "setup" (import and parse, then stop) or "passes" (the plan's passes,
optionally traced, stopping early only past the plan's wall-clock cap).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
import types

import depbernstein.cli as cli
from depbernstein import bounds, cantor, mixing, models, spectral
import numpy as np
import scipy

import refclock
import workloads

CALIBRATION_GAP_S = 0.5  # an operation starts at most this long after a calibration
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_op(op, tracer):
    """Times the call alone; the check runs after the clock stops."""
    call = op.run if tracer is None else tracer.span(f"bench.{op.slot}", op.run)
    record = {"slot": op.slot, "trials": op.trials}
    t0 = time.perf_counter()
    try:
        value = call()
    except (Exception, SystemExit) as exc:  # argparse exits; either way the op failed
        record["seconds"] = time.perf_counter() - t0
        record["problems"] = [f"raised {type(exc).__name__}: {exc}"]
        return record, None
    record["seconds"] = time.perf_counter() - t0
    try:
        outcome = op.check(value)
    except Exception:  # malformed output makes the check itself fail
        record["problems"] = ["check failed: " + traceback.format_exc(limit=2)]
        return record, None
    record["problems"] = outcome.problems
    return record, outcome


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    program = types.SimpleNamespace(cli=cli, bounds=bounds, cantor=cantor, np=np)
    ready = time.monotonic()
    result = {"ready": ready}
    if plan["mode"] != "setup":
        tracer = None
        if plan.get("trace"):
            import tracer as tracing
            tracer = tracing.Tracer()
            result["missing_targets"] = tracing.install(
                tracer, bounds, cantor, cli, mixing, models, spectral, np)
        ops, pools, pool_members = [], {}, {}
        digest = hashlib.sha256()
        cal_times, cal_scales = [], []

        def calibrate():
            cal_times.append(time.monotonic())
            cal_scales.append(refclock.scale(refclock.calibrate()))

        p = 0
        while p < plan["passes"] and (p == 0 or time.monotonic() - ready < plan["wall_cap"]):
            for op in workloads.pass_ops(program, plan, p):
                if not cal_times or time.monotonic() - cal_times[-1] > CALIBRATION_GAP_S:
                    calibrate()
                if tracer:
                    tracer.active = True
                started = time.monotonic()
                record, outcome = run_op(op, tracer)
                if tracer:
                    tracer.active = False
                record.update({"pass": p, "started": started})
                ops.append(record)
                if outcome is None:
                    continue
                digest.update(hashlib.sha256(outcome.digest).digest())
                if outcome.pool:
                    pools.setdefault(outcome.pool, []).extend(outcome.samples)
                    pool_members.setdefault(outcome.pool, []).append(len(ops) - 1)
            p += 1
        calibrate()
        # each time is scaled by the mean of the calibrations around it
        for record in ops:
            i = bisect.bisect_right(cal_times, record.pop("started"))
            record["ref_seconds"] = record["seconds"] * (cal_scales[i - 1] + cal_scales[i]) / 2
        # a pooled law check that fails fails every operation that fed it
        for pool, samples in pools.items():
            msg = workloads.pooled_problem(pool, samples)
            if msg:
                for i in pool_members[pool]:
                    ops[i]["problems"].append(f"pooled {pool}: {msg}")
        result.update({
            "ops": ops,
            "passes": p,
            "sha256": digest.hexdigest(),
            "pooled_samples": {k: len(v) for k, v in pools.items()},
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "machine": machine_facts(),
        })
        if tracer:
            result["layers"] = tracing.layer_metrics(tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
