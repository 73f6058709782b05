"""Command-line entry point wiring the library into reproducible runs.

Exit codes: 0 success, 2 invariant violation (verify), 3 invalid input
(an input too large for memory included).
A verify suite that --budget stops before its end also exits 2: its
failures end with {"invariant": "budget", "case": i} at the first case
not run, and "ok" is false.
Every randomized command requires an explicit --seed and every output
embeds the resolved configuration, so runs are replayable byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import operator
import sys

import numpy as np

from . import bounds, cantor, checks, mixing, models

SCHEMA = models.SCHEMA


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _csv_lines(header, rows) -> str:
    """The CSV table of bound, mixing and simulate, as csv.writer writes it,
    from rows of str cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def cmd_cantor(args) -> int:
    part = cantor.cantor_set(args.A)
    blocks = [] if args.level is None else cantor.level_blocks(part, args.level)
    if args.format == "json":
        p = part.params
        payload = {
            "schema": SCHEMA,
            "config": {"command": "cantor", "A": args.A, "level": args.level},
            "A": p.A, "delta": p.delta, "ell": p.ell,
            "n": list(p.n_seq), "d": list(p.d_seq), "K": part.K.tolist(),
        }
        if args.level is not None:
            payload["blocks"] = blocks.tolist()
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write("set,index\n")
            _write_column(fh, "K", part.K)
            for j, block in enumerate(blocks):
                _write_column(fh, f"block_{j}", block)
    return 0


def _write_column(fh, label: str, values: np.ndarray):
    """The CSV rows `label,value` for each value of an int array, 2^14 at a
    time; no field needs quoting, so the bytes are those of csv.writer."""
    sep = f"\n{label},"
    for i in range(0, values.size, 1 << 14):
        rows = map(str, values[i:i + (1 << 14)].tolist())
        fh.write(label + "," + sep.join(rows) + "\n")


# the BernsteinInputs fields, in order: every bound reads them, and every
# --batch row must give them
_INPUTS = ("n", "d", "M", "v", "c")
# bound kind -> the arguments it reads besides the inputs
_BOUND_ARGS = {"tail": ("x",), "laplace": ("t",), "expectation": ()}
_BOUND_TYPES = {"n": int, "d": int, "M": float, "v": float, "c": float,
                "x": float, "t": float}
_WANTED = {int: "an integer", float: "a number"}


def _bound_values(kind, given):
    """Evaluate one kind of bound on `given` (scalars, or one array per
    batch column); returns {output name: value or array}."""
    missing = [f"--{k}" for k in _INPUTS + _BOUND_ARGS[kind] if given[k] is None]
    if missing:
        raise ValueError(f"bound --kind {kind} is missing {', '.join(missing)}")
    inputs = bounds.BernsteinInputs(*(given[k] for k in _INPUTS))
    if kind == "tail":
        log_bound, t_star = bounds.log_tail_bound_certified(given["x"], inputs)
        return {"bound": bounds.capped_bound(log_bound, given["d"]),
                "log_bound": log_bound, "t_star": t_star}
    if kind == "laplace":
        return {"log_laplace": bounds.master_log_laplace(given["t"], inputs)}
    return {"bound": bounds.expectation_bound(inputs)}


def _batch_column(path, header, rows, key: str, cast):
    """The cells of column `key`, cast, as one float array, in one pass; a
    missing, rejected or out-of-float-range one names its column and its
    row (data rows from 0), found by walking the cells again."""
    j = header.index(key)
    try:
        return np.fromiter(map(cast, map(operator.itemgetter(j), rows)), float, len(rows))
    except (IndexError, ValueError, OverflowError):
        for i, row in enumerate(rows):
            try:
                float(cast(row[j]))
            except (IndexError, ValueError, OverflowError) as exc:
                got = ("no cell" if j >= len(row) else f"{row[j]!r}, past the float range,"
                       if isinstance(exc, OverflowError) else f"{row[j]!r}, not {_WANTED[cast]},")
                raise ValueError(f"batch {path} has {got} in column {key!r} at row {i}") from None
        raise


def cmd_bound(args) -> int:
    given = {k: getattr(args, k) for k in _BOUND_TYPES}
    if args.batch:
        with open(args.batch) as fh:
            text = fh.read()  # CR and CRLF line ends read as LF
        lines = text.split("\n")
        # csv.reader splits a line with no quote or NUL at its commas; csv.writer quotes no cell
        plain = not ('"' in text or "\0" in text) and max(map(len, lines)) <= csv.field_size_limit()
        reader = ((line.split(",") if line else [] for line in lines) if plain
                  else csv.reader(io.StringIO(text)))
        try:
            header = next(reader, [])
            rows = [row for row in reader if row]  # blank lines are skipped
        except csv.Error as exc:  # a cell past csv's field size limit, say
            raise ValueError(f"batch {args.batch} is not CSV at line {reader.line_num}:"
                             f" {exc}") from None
        if not rows:
            raise ValueError(f"empty batch: {args.batch} has no rows")
        twice = next((k for j, k in enumerate(header) if k in header[:j]), None)
        if twice is not None:
            raise ValueError(f"batch {args.batch} names the column {twice!r} twice")
        missing = [k for k in _INPUTS if k not in header]
        if missing:
            raise ValueError(f"batch {args.batch} is missing the columns {', '.join(missing)}")
        # float columns: the bounds use n and d as floats, and an n past
        # int64 would make an object array
        given.update({k: _batch_column(args.batch, header, rows, k, cast)
                      for k, cast in _BOUND_TYPES.items() if k in header})
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"batch {args.batch} has {len(row)} cells at row {i},"
                                 f" but its header has {len(header)}")
        res = _bound_values(args.kind, given)
        names = sorted(res)
        values = [map(repr, res[k].tolist()) for k in names]  # no repr needs quoting
        if plain:  # each line, the header first, then its values
            columns = ([k, *v] for k, v in zip(names, values))
            table = "\n".join(map(",".join, zip(filter(None, lines), *columns))) + "\n"
        else:
            table = _csv_lines(header + names, map(list.__add__, rows, map(list, zip(*values))))
        _emit(table, args.out)
        return 0
    for k in ("n", "d"):  # the bounds take them as floats
        if abs(given[k] or 0) > sys.float_info.max:
            raise ValueError(f"--{k} is past the float range, got {given[k]}")
    res = {k: float(v) for k, v in _bound_values(args.kind, given).items()}
    config = {"command": "bound", "kind": args.kind, **given}
    if args.format == "json":
        _emit(json.dumps({"schema": SCHEMA, "config": config, **res},
                         sort_keys=True), args.out)
    else:
        _emit(_csv_lines(sorted(res), [[repr(res[k]) for k in sorted(res)]]), args.out)
    return 0


def cmd_mixing(args) -> int:
    with open(args.chain) as fh:
        chain = mixing.MarkovChain.from_config(json.load(fh))
    try:
        k_lo, k_hi = (int(s) for s in args.beta_k.split(".."))
        if not 1 <= k_lo <= k_hi:
            raise ValueError
    except ValueError:
        raise ValueError(f"--beta-k must be lo..hi with 1 <= lo <= hi,"
                         f" got {args.beta_k!r}") from None
    lags = np.arange(k_lo, k_hi + 1)
    c = mixing.fit_geometric_rate(chain, mixing.RATE_LAGS) if args.fit_c else None
    header = ("k", "beta_k", "envelope")  # JSON writes a missing envelope as null, CSV as ""
    rows = [(k, bk, None if c is None else math.exp(-c * (k - 1)))
            for k, bk in zip(lags.tolist(), mixing.beta_k_exact(chain, lags).tolist())]
    if args.format == "json":
        payload = {"schema": SCHEMA,
                   "config": {"command": "mixing", "chain": args.chain,
                              "beta_k": args.beta_k, "fit_c": args.fit_c},
                   "c": c, "beta": [dict(zip(header, row)) for row in rows]}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        _emit(_csv_lines(header, ([str(k), repr(bk), "" if env is None else repr(env)]
                                  for k, bk, env in rows)), args.out)
    return 0


def _parse_grid(text: str):
    """The --x-grid a:b:steps, steps evenly spaced points from a to b."""
    try:
        a, b, steps = text.split(":")
        a, b, steps = float(a), float(b), int(steps)
        if steps < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"--x-grid must be a:b:steps with steps >= 1, got {text!r}") from None
    # a finite b - a keeps every point finite, and np.linspace from warning
    if not math.isfinite(b - a):
        raise ValueError(f"--x-grid must have finite a, b and b - a, got {text!r}")
    return np.linspace(a, b, steps).tolist()


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    spec = models.spec_from_config(args.model, config)
    report = models.run_tail_experiment(
        spec, n=args.n, trials=args.trials, x_grid=_parse_grid(args.x_grid),
        seed=args.seed, workers=args.workers,
    )
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        curves = zip(report.tail_grid, report.bound_curve, report.log_bound_curve)
        rows = ([repr(v) for v in (*tail, b, log_b)] for tail, (_, b), (_, log_b) in curves)
        _emit(_csv_lines(("x", "p_hat", "ci_low", "ci_high", "certified_bound",
                          "log_bound"), rows), args.out)
    return 0


# suite name -> runner(budget); perfbench's tracer wraps these entries
_SUITES = {name: functools.partial(checks.run, suite)
           for name, suite in checks.SUITES.items()}


def cmd_verify(args) -> int:
    # a NaN deadline never passes, and JSON has no NaN or Infinity
    if not (math.isfinite(args.budget) and args.budget >= 0):
        raise ValueError(f"--budget must be finite and >= 0, got {args.budget}")
    checked, failures = _SUITES[args.suite](args.budget)
    report = {"schema": SCHEMA, "suite": args.suite,
              "config": {"command": "verify", "suite": args.suite,
                         "budget": args.budget},
              "checked": checked, "failures": failures, "ok": not failures}
    _emit(json.dumps(report, sort_keys=True), args.out)
    return 0 if not failures else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (invalid input), not argparse's 2, which is a
    failed `verify`; subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="depbernstein")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cantor", help="dump the blocking of {1..A}")
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--kind", choices=tuple(_BOUND_ARGS), required=True)
    for k, cast in _BOUND_TYPES.items():
        p.add_argument(f"--{k}", type=cast)
    p.add_argument("--batch", default=None,
                   help="CSV of parameter rows; bound columns are appended")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("mixing", help="beta profile of a finite chain")
    p.add_argument("--chain", required=True, help="JSON file with the P matrix")
    p.add_argument("--beta-k", default="1..20", dest="beta_k")
    p.add_argument("--fit-c", action="store_true", dest="fit_c")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("simulate", help="tail experiment for a model")
    p.add_argument("--model", choices=tuple(models.MODELS), required=True)
    p.add_argument("--config", required=True, help="model JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x-grid", required=True, dest="x_grid",
                   help="a:b:steps; a grid from a < 0 is written --x-grid=-1:3:3")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--budget", type=float, default=120.0)
    for p in sub.choices.values():  # every command writes to --out, else stdout
        p.add_argument("--out", default=None)
    return ap


# built on the first main call of a process, not at import: argparse's
# gettext and terminal-size lookups take milliseconds, a share of a short run
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # found by name at each call, so a command replaced on the module
        # after the parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
