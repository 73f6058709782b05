"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is checked at its stated tolerance and runtime budget; the
summary lines are printed by the terminal-summary hook in conftest.py.
"""

import json
import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES, rand_sym
from depbernstein import bounds, cantor, checks, mixing, models
from depbernstein.cli import main as cli_main


def record(num, name, failures, elapsed=None, budget=None):
    ok = not failures
    if budget is not None and elapsed is not None and elapsed > budget:
        ok = False
        failures = list(failures) + [f"runtime {elapsed:.1f}s > budget {budget}s"]
    detail = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, (line, failures[:10])


def run_checks(suite, full, **kwargs):
    """checks.run(suite)'s failures, plus one if `checked` is not `full`."""
    checked, failures = checks.run(suite, **kwargs)
    return failures + ([("checked", checked, full)] if checked != full else [])


def test_criterion_01_cantor_exhaustive():
    t0 = time.monotonic()
    failures, levels = [], 0
    # one stack per ell; each row is one A, its runs are the leaves, then
    # the gaps of levels 0..ell-1.  A run's length is read off the starts
    # alone: the next start in sorted order (A + 1 after the last) minus its
    # own, so the sizes below test where the construction put each run
    for stack in cantor.cantor_stacks(range(2, 5001)):
        A, ell = stack.A, stack.ell
        levels += ell * A.size
        n_ell = stack.n_seq[:, -1:]
        starts = np.concatenate((stack.leaf_starts, *stack.gap_starts), axis=1)
        order = np.argsort(starts, axis=1, kind="stable")
        ordered = np.take_along_axis(starts, order, axis=1)
        ends = np.concatenate((ordered[:, 1:], A[:, None] + 1), axis=1)
        lengths = np.empty_like(starts)
        np.put_along_axis(lengths, order, ends - ordered, axis=1)
        leaves, gaps = np.split(lengths, [2 ** ell], axis=1)
        failures += [("leaf_size", a) for a in
                     A[(leaves != n_ell).any(axis=1)].tolist()]
        if stack.leaf_starts.shape[1] != 2 ** ell:
            failures += [("leaf_count", a) for a in A.tolist()]
        for k in range(ell + 1):
            blocks = leaves.reshape(A.size, 2 ** k, -1).sum(axis=2)
            failures += [("block_size", a, k) for a in
                         A[(blocks != 2 ** (ell - k) * n_ell).any(axis=1)].tolist()]
        for j in range(ell):
            level = gaps[:, 2 ** j - 1:2 ** (j + 1) - 1]
            failures += [("gap_size", a, j) for a in
                         A[(level != stack.d_seq[:, j:j + 1]).any(axis=1)].tolist()]
        # ell is the largest level count: one more level would leave a gap
        # floor below 2
        failures += [("ell_maximal", a) for a, delta in zip(A.tolist(), stack.delta.tolist())
                     if a * delta * (1.0 - delta) ** ell / 2.0 ** (ell + 1) >= 2.0]
    failures += run_checks(checks.cantor, {
        "kept_cardinality": 4999, "kept_card_formula": 4999, "disjoint_cover": 4999,
        "level_ceiling": 4999, "gap_floor": levels})
    record(1, "cantor-invariants-exhaustive", failures,
           time.monotonic() - t0, budget=30.0)


def test_criterion_02_cantor_spot_values():
    failures = []
    p100 = cantor.cantor_set(100)
    if not (p100.params.ell == 1 and p100.params.n_seq[1] == 47
            and p100.params.d_seq[0] == 6 and p100.card == 94):
        failures.append(("A=100", p100.params))
    p1000 = cantor.cantor_set(1000)
    if not (p1000.params.ell == 4
            and p1000.params.n_seq == (1000, 475, 226, 108, 51)
            and p1000.params.d_seq == (50, 23, 10, 6)
            and p1000.card == 816):
        failures.append(("A=1000", p1000.params))
    record(2, "cantor-spot-values", failures)


def test_criterion_03_g_of_4():
    failures = []
    val = bounds.g(4.0)
    if not (3.099 - 1e-4 <= val <= 3.100 + 1e-4 and val <= 3.1):
        failures.append(("g(4)", val))
    record(3, "g4-constant", failures)


def test_criterion_04_schedule_ceilings():
    t0 = time.monotonic()
    failures = run_checks(checks.schedule_ceilings, {
        "schedule_ceiling": 108, "sigma_ceiling": 108, "kappa_ceiling": 108})
    record(4, "schedule-ceilings", failures, time.monotonic() - t0, budget=5.0)


def test_criterion_05_split_identity():
    t0 = time.monotonic()
    failures = run_checks(checks.split_identity, {"split_identity": 1000}, seed=12345)
    record(5, "split-identity", failures, time.monotonic() - t0, budget=1.0)


def test_criterion_06_inequality_fuzz():
    t0 = time.monotonic()
    failures = run_checks(checks.inequalities, {
        "golden_thompson": 1000, "trace_holder": 4000, "weyl": 1000,
        "gerschgorin": 1000, "trace_exp_convexity": 1000}, seed=99)
    record(6, "inequality-fuzz", failures, time.monotonic() - t0, budget=60.0)


def test_criterion_07_exact_beta():
    failures = []
    chain = mixing.MarkovChain.two_state(0.25, 0.25)
    for k in range(1, 21):
        if abs(mixing.beta_k_exact(chain, k) - 0.5 ** (k + 1)) > 1e-12:
            failures.append(("closed_form", k))
    rng = np.random.default_rng(2024)
    for case in range(200):
        s = int(rng.integers(2, 5))
        P = rng.uniform(0.05, 1.0, (s, s))
        P /= P.sum(axis=1, keepdims=True)
        ch = mixing.MarkovChain(P)
        for k in range(1, 7):
            direct = mixing.beta_k_exact(ch, k)
            via_joint = mixing.beta_from_joint(ch.joint_law(k))
            if abs(direct - via_joint) > 1e-10:
                failures.append(("joint_agreement", case, k))
    record(7, "exact-beta", failures)


def test_criterion_08_berbee_coupling():
    # every law of the exact suite: 50 lags of the shipped chain and 350
    # random laws, each identity to 1e-14 absolute
    failures = run_checks(checks.coupling, {
        "coupling_xy_law": 400, "coupling_independence": 400, "coupling_mismatch_beta": 400},
        seed=31337)
    record(8, "berbee-coupling", failures)


def _contraction_spec(d):
    chain = mixing.MarkovChain.two_state(0.25, 0.25)
    D = np.diag(np.linspace(1.0, -1.0, d))  # spectral radius M = 1
    tau = np.array([1.0, -1.0])
    return models.ModelSpec(kind="contraction", d=d, chain=chain, D=D, tau_map=tau)


def test_criterion_09_laplace_dominance():
    # the exact log E Tr exp(t S_n) of the contraction model (models.log_laplace)
    # against the master bound at ten points, n = 8 and 32 and t up to 0.9 of
    # the bound's domain, with no Monte-Carlo slack: the bound's least margin
    # is 6.9e-5 nats
    t0 = time.monotonic()
    failures = []
    spec = _contraction_spec(2)
    for n in (8, 32):
        inputs = models.bernstein_inputs_for(spec, n)
        t_max = 1.0 / (inputs.M * bounds.gamma_cn(inputs.c, n))
        t_grid = np.linspace(0.1, 0.9, 5) * t_max
        exact = models.log_laplace(spec, n, t_grid)
        bound = bounds.master_log_laplace(t_grid, inputs)
        failures += [(n, t, e, b) for t, e, b in zip(t_grid, exact, bound) if e > b]
    record(9, "laplace-dominance", failures, time.monotonic() - t0, budget=300.0)


def test_criterion_10_tail_dominance():
    t0 = time.monotonic()
    spec = _contraction_spec(4)
    n, trials = 1024, 10_000
    inputs = models.bernstein_inputs_for(spec, n)  # exact v^2, fitted c
    top = n * inputs.M
    x_grid = np.linspace(0.02 * top, 1.2 * top, 12)
    config = {"name": "contraction", "spec": spec, "n": n, "x_grid": x_grid}
    below_one = sum(bounds.tail_bound_certified(x, inputs)[0] < 1.0 for x in x_grid)
    # the tail on the grid and the mean against the expectation ceiling, on
    # one run's samples
    failures = run_checks(checks.dominance, {"tail_dominance.contraction": below_one,
                                             "expectation_dominance.contraction": 1},
                          configs=[config], trials=trials, seed=88)
    record(10, "tail-dominance", failures, time.monotonic() - t0, budget=600.0)


def test_criterion_11_v2_oracles():
    failures = []
    homogeneous = models.ModelSpec(
        kind="contraction", d=2, chain=mixing.MarkovChain.two_state(0.25, 0.25),
        D=np.array([[1.0, 0.25], [0.25, 0.5]]), tau_map=np.array([0.8, 0.8]))
    brute = models.v2_bruteforce(homogeneous, 8)
    exact = models.v2_ceiling(homogeneous)
    if abs(brute - exact) > 1e-10:
        failures.append(("bruteforce_vs_exact", brute, exact))
    rng = np.random.default_rng(555)
    for case in range(20):
        s = int(rng.integers(2, 4))
        P = rng.uniform(0.1, 1.0, (s, s))
        P /= P.sum(axis=1, keepdims=True)
        chain = mixing.MarkovChain(P)
        d = int(rng.integers(1, 4))
        D = rand_sym(rng, d)
        tau = rng.uniform(-1.0, 1.0, s)
        spec = models.ModelSpec(kind="contraction", d=d, chain=chain,
                                D=D, tau_map=tau)
        n = int(rng.integers(2, 9))
        brute = models.v2_bruteforce(spec, n)
        exact = models.v2_ceiling(spec)
        if abs(brute - exact) > 1e-10:
            failures.append(("bruteforce_vs_exact", case, brute, exact))
    rng = np.random.default_rng(556)
    for case in range(10):
        s = int(rng.integers(2, 4))
        P = rng.uniform(0.1, 1.0, (s, s))
        P /= P.sum(axis=1, keepdims=True)
        spec = models.ModelSpec(kind="block_covariance", d=int(rng.integers(1, 4)),
                                chain=mixing.MarkovChain(P),
                                value_map=rng.uniform(-1.0, 1.0, s))
        n = int(rng.integers(2, 9))
        brute = models.v2_bruteforce(spec, n)
        ceiling = models.v2_ceiling(spec)
        if ceiling < brute - 1e-12:
            failures.append(("ceiling_vs_bruteforce", case, ceiling, brute))
    record(11, "v2-oracles", failures)


def test_criterion_12_simulate_determinism(tmp_path, capsys):
    failures = []
    config = tmp_path / "model.json"
    model = {
        "P": [[0.75, 0.25], [0.25, 0.75]],
        "D": [[1.0, 0.0], [0.0, -0.5]],
        "tau_map": [1.0, -1.0],
    }
    config.write_text(json.dumps(model))
    # n = 4096 puts the 200 trials in three sampling chunks, so workers 2
    # and 3 run a real pool
    argv = ["simulate", "--model", "contraction", "--config", str(config),
            "--n", "4096", "--trials", "200", "--seed", "42",
            "--x-grid", "0.5:16:6"]
    spec = models.spec_from_config("contraction", model)
    size = max(1, models._CHUNK_WORDS // models._trial_words(spec, 4096))
    if -(-200 // size) < 3:
        failures.append(("chunks", -(-200 // size)))
    outputs = []
    for workers in ("1", "1", "2", "3"):
        code = cli_main(argv + ["--workers", workers])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(("exit_code", workers, code))
        outputs.append(out.encode())
    if len(set(outputs)) != 1:
        failures.append(("outputs_differ", [len(o) for o in outputs]))
    record(12, "simulate-determinism", failures)
