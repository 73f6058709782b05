"""The benchmark's workloads: inputs written from the seed, the operations of
one pass, and the oracle that each operation's output must pass.

A pass is the same list of operations for every pass index; only the seeded
inputs change, so every pass of a workload costs the same.  Operations reach
the program through `depbernstein.cli.main` (the command line, in process)
or through the public library functions a user would call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import oracles

WORKLOADS = ("tail_n1024", "models_short", "closed_forms")

# Two-state chain with flip probability 1/4, as in acceptance criterion 10.
CHAIN_P = [[0.75, 0.25], [0.25, 0.75]]

# Reference seconds one pass takes at depbernstein 0.1.0.  An untraced run
# makes --seconds / REF_PASS_S passes (at least MIN_PASSES), so a run lasts
# about --seconds there and every run of a seed does the same work.
REF_PASS_S = {"tail_n1024": 0.65, "models_short": 1.0, "closed_forms": 4.2}
MIN_PASSES = 5
# Passes run by each phase of a traced run.  Counters repeat exactly because
# the plan is fixed.
TRACE_PASSES = {"tail_n1024": 8, "models_short": 5, "closed_forms": 2}

TAIL_TRIALS = 200
SHORT_TRIALS = 400
BOUND_GROUPS = 250
# Log-drops below log d at which the x values of a bound group are placed:
# from just under the trivial bound d down to e^-650, short of the double
# underflow near e^-745.
BOUND_DROPS = (0.05, 0.5, 2.0, 8.0, 30.0, 100.0, 300.0, 650.0)
DENSE_GRID_ROWS = 8
SCHEDULE_EXPONENTS = (10, 14, 17, 20)
CANTOR_EXPONENTS = (3, 4, 5, 6)
SUITES = ("inequalities", "cantor", "bounds", "coupling")
# Draws of the Berbee coupler made by `verify coupling`: the Monte-Carlo
# trials of the closed_forms workload, which samples no model.
COUPLING_DRAWS = 100_000

LAWS = {
    "contraction": oracles.contraction_law,
    "iid": oracles.iid_law,
    "blockcov": oracles.blockcov_law,
}
PER_OP_Z = 6.0   # per-operation mean check, false alarm about 2e-9
POOLED_Z = 4.0   # run-level mean check over every sample of one law


@dataclass
class Outcome:
    problems: list
    digest: bytes
    pool: str = ""                              # law key for the pooled check
    samples: list = field(default_factory=list)


@dataclass
class Op:
    slot: str                    # position in the pass; run_s sums slot medians
    run: Callable[[], Any]       # the timed call into the program
    check: Callable[[Any], Outcome]
    trials: int = 0              # Monte-Carlo trials the call performs


def sub_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# Inputs written once per run


def _rotated(rng: random.Random, eigenvalues) -> list:
    """Q diag(eigenvalues) Q^T for a seeded orthogonal Q (Gram-Schmidt on a
    Gaussian matrix), symmetrised exactly."""
    d = len(eigenvalues)
    basis = []
    while len(basis) < d:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        for b in basis:
            dot = sum(x * y for x, y in zip(v, b))
            v = [x - dot * y for x, y in zip(v, b)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            basis.append([x / norm for x in v])
    m = [[sum(basis[k][i] * eigenvalues[k] * basis[k][j] for k in range(d))
          for j in range(d)] for i in range(d)]
    return [[(m[i][j] + m[j][i]) / 2.0 for j in range(d)] for i in range(d)]


def write_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the model configs for a run; returns {model: path}.

    The seed rotates each template matrix and shifts the block model's
    values.  Neither changes the law of lambda_max (the oracles rely on its
    spectrum and on the centred values only) nor the cost of a trial.
    """
    rng = random.Random(sub_seed(seed, workload, "configs"))
    tau = [1.0, -1.0] if rng.random() < 0.5 else [-1.0, 1.0]
    shift = rng.randint(-8, 8) / 8.0
    configs = {
        # criterion-10 template: spectrum linspace(1, -1, 4), so M = 1
        "contraction": {"P": CHAIN_P, "tau_map": tau,
                        "D": _rotated(rng, [1.0, 1.0 / 3.0, -1.0 / 3.0, -1.0])},
        "iid": {"P": CHAIN_P, "D": _rotated(rng, [1.0, -0.5])},
        # dyadic shift: the centred values stay exactly +-1
        "blockcov": {"P": CHAIN_P, "d": 2,
                     "value_map": [1.0 + shift, -1.0 + shift]},
    }
    used = {"tail_n1024": ["contraction"],
            "models_short": ["iid", "contraction", "blockcov"],
            "closed_forms": []}[workload]
    paths = {}
    for model in used:
        path = os.path.join(workdir, f"{model}.json")
        with open(path, "w") as fh:
            json.dump(configs[model], fh)
        paths[model] = path
    return paths


# ---------------------------------------------------------------------------
# Operations


def _cli_op(program, slot, argv, out, check_text, trials=0) -> Op:
    if os.path.exists(out):
        os.remove(out)

    def check(code):
        if code != 0:
            return Outcome([f"exit code {code}"], b"")
        with open(out, "rb") as fh:
            raw = fh.read()
        outcome = check_text(raw.decode())
        outcome.digest = raw
        return outcome

    return Op(slot, lambda: program.cli.main(argv), check, trials)


def _simulate_op(program, plan, p, model, n, trials, x_hi) -> Op:
    slot = f"simulate_{model}_n{n}"
    out = os.path.join(plan["workdir"], f"{slot}.json")
    argv = ["simulate", "--model", model, "--config", plan["configs"][model],
            "--n", str(n), "--trials", str(trials),
            "--seed", str(sub_seed(plan["seed"], p, slot)),
            "--x-grid", f"{0.02 * n!r}:{x_hi * n!r}:12", "--workers", "1",
            "--out", out]
    law = LAWS[model](n)

    def check_text(text):
        report = json.loads(text)
        samples = report["lambda_max_samples"]
        problems = []
        if report["n"] != n or report["trials"] != trials or len(samples) != trials:
            problems.append("n, trials or sample count differ from the request")
        problems += oracles.support_problems(samples, law)
        msg = oracles.mean_problem(samples, law, PER_OP_Z)
        if msg:
            problems.append(msg)
        d = report["inputs"]["d"]
        for (x, p_hat, lo, hi), (_, b) in zip(report["tail_grid"], report["bound_curve"]):
            if p_hat != sum(s >= x for s in samples) / trials or not lo <= p_hat <= hi:
                problems.append(f"tail estimate at x={x!r} disagrees with the samples")
            if not 0.0 < b <= d:
                problems.append(f"bound {b!r} at x={x!r} outside (0, d]")
        return Outcome(problems, b"", pool=f"{model}:{n}", samples=samples)

    return _cli_op(program, slot, argv, out, check_text, trials)


def _bound_batch_op(program, plan, p) -> Op:
    rng = random.Random(sub_seed(plan["seed"], p, "bounds"))
    rows = []
    for _ in range(BOUND_GROUPS):
        n = 2 ** rng.randint(4, 40)
        d = rng.choice((1, 2, 4, 8, 16, 64))
        M = _log_uniform(rng, 0.1, 10.0)
        v = _log_uniform(rng, 0.05, 5.0)
        c = _log_uniform(rng, 0.05, 20.0)
        for drop in BOUND_DROPS:
            rows.append((n, d, M, v, c, oracles.x_at_log_drop(n, M, v, c, drop)))
    src = os.path.join(plan["workdir"], "bound_grid.csv")
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("n", "d", "M", "v", "c", "x"))
        w.writerows((n, d, repr(M), repr(v), repr(c), repr(x)) for n, d, M, v, c, x in rows)
    out = os.path.join(plan["workdir"], "bound_out.csv")
    grid_rows = set(rng.sample(range(len(rows)), DENSE_GRID_ROWS))
    bounds = program.bounds

    def check_text(text):
        got = list(csv.DictReader(text.splitlines()))
        if len(got) != len(rows):
            return Outcome([f"{len(got)} rows out, {len(rows)} in"], b"")
        problems = []
        for i, ((n, d, M, v, c, x), row) in enumerate(zip(rows, got)):
            b = float(row["bound"])
            if not 0.0 < b <= d:
                problems.append(f"row {i}: bound {b!r} outside (0, d]")
                continue
            if i % len(BOUND_DROPS) and b > float(got[i - 1]["bound"]):
                problems.append(f"row {i}: bound increases with x")
            exact = oracles.tail_log_bound(n, d, M, v, c, x)
            if abs(math.log(b) - exact) > 1e-9 * max(1.0, abs(exact)):
                problems.append(f"row {i}: log bound {math.log(b)!r}, closed form {exact!r}")
            if i in grid_rows:
                inputs = bounds.BernsteinInputs(n=n, d=d, M=M, v=v, c=c)
                _, best = oracles.dense_grid_min(
                    lambda t: -t * x + bounds.master_log_laplace(t, inputs),
                    1.0 / (M * oracles.gamma_cn(c, n)))
                if abs(math.log(b) - min(best, math.log(d))) > 1e-9 * max(1.0, abs(best)):
                    problems.append(f"row {i}: log bound {math.log(b)!r}, dense grid {best!r}")
        return Outcome(problems[:5], b"")

    argv = ["bound", "--kind", "tail", "--batch", src, "--out", out]
    return _cli_op(program, "bound_batch", argv, out, check_text)


def _schedule_op(program, plan, p, e) -> Op:
    rng = random.Random(sub_seed(plan["seed"], "schedule", e))
    # a distinct n for every pass, so the depth cache of a process is always
    # cold; the offset stays below 1 % of 2^e, so every seed costs the same
    n = 2 ** e - 1 - rng.randrange(2 ** (e - 7)) - p
    rng = random.Random(sub_seed(plan["seed"], p, "schedule", e))
    M = _log_uniform(rng, 0.1, 10.0)
    v = _log_uniform(rng, 0.05, 5.0)
    c = _log_uniform(rng, 0.05, 20.0)
    bounds = program.bounds

    def run():
        return bounds.sigma_kappa_schedule(bounds.BernsteinInputs(n=n, d=2, M=M, v=v, c=c))

    def check(pairs):
        return Outcome(oracles.schedule_problems(pairs, n, M, v, c),
                       repr([(q.sigma, q.kappa) for q in pairs]).encode())

    return Op(f"schedule_2^{e}", run, check)


def _cantor_op(program, plan, p, e) -> Op:
    rng = random.Random(sub_seed(plan["seed"], "cantor", e))
    A = 10 ** e - rng.randrange(10 ** (e - 3)) - p
    np = program.np

    def check(part):
        ell, n_ell = oracles.cantor_params(A)
        K = np.asarray(part.K, dtype=np.int64)
        problems = []
        if not A >= part.card >= A / 2:
            problems.append(f"|K| = {part.card} outside [A/2, A]")
        if (part.params.ell, part.params.n_seq[-1]) != (ell, n_ell) \
                or part.card != 2 ** ell * n_ell:
            problems.append(f"|K| = {part.card}, expected 2^{ell} * {n_ell}")
        if K.size != part.card or K[0] < 1 or K[-1] > A or not np.all(np.diff(K) > 0):
            problems.append("K is not a sorted subset of {1..A}")
        head = repr((A, part.params.ell, part.params.n_seq, part.params.d_seq)).encode()
        return Outcome(problems, head + hashlib.sha256(K.tobytes()).digest())

    return Op(f"cantor_set_1e{e}", lambda: program.cantor.cantor_set(A), check)


def _verify_op(program, plan, suite) -> Op:
    out = os.path.join(plan["workdir"], f"verify_{suite}.json")

    def check_text(text):
        report = json.loads(text)
        if report["suite"] == suite and report["ok"] is True and not report["failures"]:
            return Outcome([], b"")
        return Outcome([f"verify {suite}: {report['failures'][:3]}"], b"")

    argv = ["verify", suite, "--budget", "120", "--out", out]
    return _cli_op(program, f"verify_{suite}", argv, out, check_text,
                   COUPLING_DRAWS if suite == "coupling" else 0)


def pass_ops(program, plan: dict, p: int) -> list:
    """The operations of pass p.  Writes that pass's input files."""
    workload = plan["workload"]
    if workload == "tail_n1024":
        return [_simulate_op(program, plan, p, "contraction", 1024, TAIL_TRIALS, 1.2)]
    if workload == "models_short":
        return [_simulate_op(program, plan, p, "iid", 64, SHORT_TRIALS, 0.9),
                _simulate_op(program, plan, p, "contraction", 256, SHORT_TRIALS, 0.9),
                _simulate_op(program, plan, p, "blockcov", 64, SHORT_TRIALS, 0.9)]
    return ([_bound_batch_op(program, plan, p)]
            + [_schedule_op(program, plan, p, e) for e in SCHEDULE_EXPONENTS]
            + [_cantor_op(program, plan, p, e) for e in CANTOR_EXPONENTS]
            + [_verify_op(program, plan, s) for s in SUITES])


def pooled_problem(pool: str, samples: list):
    model, n = pool.split(":")
    return oracles.mean_problem(samples, LAWS[model](int(n)), POOLED_Z)
