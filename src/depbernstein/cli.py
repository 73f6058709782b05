"""Command-line entry point wiring the library into reproducible runs.

Exit codes: 0 success, 2 invariant violation (verify), 3 invalid input.
A verify suite that --budget stops before its end also exits 2: its
failures end with {"invariant": "budget", "case": i} at the first case
not run, and "ok" is false.
Every randomized command requires an explicit --seed and every output
embeds the resolved configuration, so runs are replayable byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import bounds, cantor, checks, mixing, models
from .spectral import SymMatrix

SCHEMA = models.SCHEMA


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def cmd_cantor(args) -> int:
    part = cantor.cantor_set(args.A)
    p = part.params
    K = part.K
    payload = {
        "schema": SCHEMA,
        "config": {"command": "cantor", "A": args.A, "level": args.level},
        "A": p.A, "delta": p.delta, "ell": p.ell,
        "n": list(p.n_seq), "d": list(p.d_seq), "K": list(K),
    }
    if args.level is not None:
        payload["blocks"] = [list(b) for b in cantor.level_blocks(part, args.level)]
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        rows = [("K", i) for i in K]
        if args.level is not None:
            for j, b in enumerate(cantor.level_blocks(part, args.level)):
                rows += [(f"block_{j}", i) for i in b]
        _emit(_csv_text(("set", "index"), rows), args.out)
    return 0


def _bound_row(kind, n, d, M, v, c, x, t, C):
    inputs = bounds.BernsteinInputs(n=n, d=d, M=M, v=v, c=c)
    if kind == "tail":
        b, t_star = bounds.tail_bound_certified(x, inputs)
        return {"bound": b, "log_bound": bounds.log_tail_bound_certified(x, inputs)[0],
                "t_star": t_star}
    if kind == "laplace":
        return {"log_laplace": bounds.master_log_laplace(t, inputs)}
    if kind == "expectation":
        return {"bound": bounds.expectation_bound(inputs)}
    if kind == "theorem1":
        return {"bound": bounds.theorem1_form(x, inputs, C)}
    raise ValueError(f"unknown bound kind {kind!r}")


def cmd_bound(args) -> int:
    if args.batch:
        with open(args.batch) as fh:
            rows = list(csv.DictReader(fh))
        out_rows, extra_cols = [], []
        for row in rows:
            res = _bound_row(
                args.kind, int(row["n"]), int(row["d"]), float(row["M"]),
                float(row["v"]), float(row["c"]),
                float(row.get("x", args.x or 0.0)),
                float(row.get("t", args.t or 0.0)), args.C,
            )
            extra_cols = sorted(res)
            out_rows.append(list(row.values()) + [res[k] for k in extra_cols])
        header = list(rows[0].keys()) + extra_cols
        _emit(_csv_text(header, out_rows), args.out)
        return 0
    res = _bound_row(args.kind, args.n, args.d, args.M, args.v, args.c,
                     args.x, args.t, args.C)
    config = {"command": "bound", "kind": args.kind, "n": args.n, "d": args.d,
              "M": args.M, "v": args.v, "c": args.c, "x": args.x, "t": args.t,
              "C": args.C}
    if args.format == "json":
        _emit(json.dumps({"schema": SCHEMA, "config": config, **res},
                         sort_keys=True), args.out)
    else:
        _emit(_csv_text(sorted(res), [[res[k] for k in sorted(res)]]), args.out)
    return 0


def cmd_mixing(args) -> int:
    with open(args.chain) as fh:
        chain = mixing.MarkovChain.from_json(fh.read())
    k_lo, k_hi = (int(s) for s in args.beta_k.split(".."))
    betas = [(k, mixing.beta_k_exact(chain, k)) for k in range(k_lo, k_hi + 1)]
    c = mixing.fit_geometric_rate(chain, max(k_hi, 2)) if args.fit_c else None
    rows = [(k, bk, math.exp(-c * (k - 1)) if c is not None else "")
            for k, bk in betas]
    if args.format == "json":
        payload = {"schema": SCHEMA,
                   "config": {"command": "mixing", "chain": args.chain,
                              "beta_k": args.beta_k, "fit_c": args.fit_c},
                   "c": c,
                   "beta": [{"k": k, "beta_k": bk, "envelope": env if env != "" else None}
                            for k, bk, env in rows]}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        _emit(_csv_text(("k", "beta_k", "envelope"), rows), args.out)
    return 0


def _model_from_config(kind: str, config: dict) -> models.ModelSpec:
    chain = mixing.MarkovChain.from_transition(np.asarray(config["P"], dtype=float))
    kind_map = {"contraction": "contraction", "blockcov": "block_covariance",
                "iid": "iid_baseline"}
    spec_kind = kind_map[kind]
    kwargs = {"kind": spec_kind, "chain": chain}
    if spec_kind == "block_covariance":
        kwargs["d"] = int(config["d"])
        kwargs["value_map"] = np.asarray(config["value_map"], dtype=float)
    else:
        D = SymMatrix(np.asarray(config["D"], dtype=float)).entries
        kwargs["d"] = D.shape[0]
        kwargs["D"] = D
        if spec_kind == "contraction":
            kwargs["tau_map"] = np.asarray(config["tau_map"], dtype=float)
    return models.ModelSpec(**kwargs)


def _parse_grid(text: str):
    a, b, steps = text.split(":")
    return np.linspace(float(a), float(b), int(steps)).tolist()


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    spec = _model_from_config(args.model, config)
    report = models.run_tail_experiment(
        spec, n=args.n, trials=args.trials, x_grid=_parse_grid(args.x_grid),
        seed=args.seed, workers=args.workers,
    )
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        rows = [(x, p, lo, hi, b, log_b) for (x, p, lo, hi), (_, b), (_, log_b)
                in zip(report.tail_grid, report.bound_curve, report.log_bound_curve)]
        _emit(_csv_text(("x", "p_hat", "ci_low", "ci_high", "certified_bound",
                         "log_bound"), rows), args.out)
    return 0


# suite name -> runner(budget); perfbench's tracer wraps these entries
_SUITES = {name: functools.partial(checks.run, suite)
           for name, suite in checks.SUITES.items()}


def cmd_verify(args) -> int:
    checked, failures = _SUITES[args.suite](args.budget)
    report = {"schema": SCHEMA, "suite": args.suite,
              "config": {"command": "verify", "suite": args.suite,
                         "budget": args.budget},
              "checked": checked, "failures": failures, "ok": not failures}
    _emit(json.dumps(report, sort_keys=True), args.out)
    return 0 if not failures else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="depbernstein")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cantor", help="dump the blocking of {1..A}")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cantor)

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--kind", choices=("tail", "laplace", "expectation", "theorem1"),
                   required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--M", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--batch", default=None,
                   help="CSV of parameter rows; bound columns are appended")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("mixing", help="beta profile of a finite chain")
    p.add_argument("--chain", required=True, help="JSON file with the P matrix")
    p.add_argument("--beta-k", default="1..20", dest="beta_k")
    p.add_argument("--fit-c", action="store_true", dest="fit_c")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mixing)

    p = sub.add_parser("simulate", help="tail experiment for a model")
    p.add_argument("--model", choices=("contraction", "blockcov", "iid"),
                   required=True)
    p.add_argument("--config", required=True, help="model JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x-grid", required=True, dest="x_grid", help="a:b:steps")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--budget", type=float, default=120.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
