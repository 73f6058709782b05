"""Every invariant that `depbernstein verify` and the acceptance tests check.

A suite is a generator of cases; a case is an iterable of entries
(invariant, compared, failed): `compared` comparisons, of which those in
`failed` (detail dicts) did not hold.  `run` reads the clock before each
case, so a lazy case (a generator) costs nothing once the budget is spent.
Randomized suites take their seed as an argument; the defaults are `verify`'s.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from time import monotonic

import numpy as np
from scipy.special import chdtrc

from . import bounds as _bounds, cantor as _cantor, mixing, models, spectral


def run(suite, budget: float = math.inf, **kwargs):
    """Run suite(**kwargs) until it ends or `budget` seconds have passed.

    Returns (checked, failures): the comparisons made per invariant, and one
    dict per failed comparison with its invariant, case index and details.
    A suite cut short by the budget fails too, with the invariant "budget"
    at the first case it did not run.
    """
    deadline = monotonic() + budget
    checked, failures = Counter(), []
    for i, case in enumerate(suite(**kwargs)):
        if monotonic() > deadline:
            failures.append({"invariant": "budget", "case": i})
            break
        for invariant, compared, failed in case:
            checked[invariant] += compared
            if failed:
                failures += ({"invariant": invariant, "case": i, **f} for f in failed)
    return dict(checked), failures


def _one(invariant: str, ok: bool, **detail):
    """An entry for a single comparison; `detail` is reported if it fails."""
    return invariant, 1, [] if ok else [detail]


def rand_sym(rng, d: int) -> np.ndarray:
    """A random symmetric d x d matrix with entries in [-2, 2]."""
    m = rng.uniform(-2.0, 2.0, (d, d))
    return (m + m.T) / 2.0


def inequalities(seed: int = 20240901):
    """Random pairs of symmetric matrices, d in 2..8, each with a point t in
    [0.1, 1) for the convexity check."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a = spectral.SymMatrix(rand_sym(rng, d))
        b = spectral.SymMatrix(rand_sym(rng, d))
        yield inequality_case(a, b, float(rng.uniform(0.1, 1.0)))


def inequality_case(a, b, t: float):
    """Golden-Thompson, trace-Hölder at p = 1.5, 2, 3, 10, Weyl for a + b,
    Gerschgorin for a, and convexity of s -> Tr exp(sa) at t (a second
    difference >= -1e-8).  Decomposes four matrices: a, b and each a + b."""
    lhs, rhs, ok = spectral.check_golden_thompson(a, b)
    yield _one("golden_thompson", ok, lhs=lhs, rhs=rhs)
    for p in (1.5, 2.0, 3.0, 10.0):
        lhs, rhs, ok = spectral.check_trace_holder(a, b, p)
        yield _one("trace_holder", ok, p=p, lhs=lhs, rhs=rhs)
    lam_sum, sum_lam = spectral.weyl_lambda_max_bound([a, b])
    yield _one("weyl", lam_sum <= sum_lam + 1e-9 * (1.0 + abs(sum_lam)),
               lhs=lam_sum, rhs=sum_lam)
    gersh, norm = spectral.gerschgorin_bound(a), spectral.schatten_norm(a, np.inf)
    yield _one("gerschgorin", gersh >= norm - 1e-9, bound=gersh, norm=norm)
    dt = 1e-3
    second = (spectral.trace_exp(t + dt, a) - 2.0 * spectral.trace_exp(t, a)
              + spectral.trace_exp(t - dt, a)) / dt ** 2
    yield _one("trace_exp_convexity", second >= -1e-8, t=t, second=second)


def cantor():
    """Every A in 2..5000: |K_A| in [A/2, A] and equal to 2^ell n_ell, the
    leaves and gaps tile {1..A}, ell <= log2 A, and every gap d_j is at
    least A delta (1 - delta)^j / 2^(j+1)."""
    for A in range(2, 5001):
        yield _cantor_case(A)


def _cantor_case(A: int):
    part = _cantor.cantor_set(A)
    p, card = part.params, part.card
    yield _one("kept_cardinality", A >= card >= A / 2, A=A, card=card)
    yield _one("kept_card_formula", card == 2 ** p.ell * p.n_seq[p.ell], A=A, card=card)
    yield _one("disjoint_cover", _cantor.tiles_exactly(part), A=A)
    yield _one("level_ceiling", p.ell <= math.log2(A), A=A, ell=p.ell)
    floors = [(j, dj, A * p.delta * (1.0 - p.delta) ** j / 2.0 ** (j + 1))
              for j, dj in enumerate(p.d_seq)]
    yield "gap_floor", len(floors), [
        {"A": A, "j": j, "d": dj, "floor": floor} for j, dj, floor in floors if dj < floor]


def bounds(seed: int = 7):
    """The split identity, then the schedule ceilings."""
    yield from split_identity(seed)
    yield from schedule_ceilings()


def split_identity(seed: int):
    """Random pairs (sigma, kappa) in [0.05, 5]^2 and t in [0, 0.999/kappa):
    the optimally split majorants sum to (sigma t)^2 / (1 - kappa t) of the
    combined pair, to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        s0, s1, k0, k1 = rng.uniform(0.05, 5.0, 4)
        p0, p1 = _bounds.SigmaKappaPair(s0, k0), _bounds.SigmaKappaPair(s1, k1)
        comb = _bounds.combine_sigma_kappa([p0, p1])
        t = rng.uniform(0.0, 0.999) / comb.kappa
        u = _bounds.split_weight(p0, p1, t)
        lhs = (u * _bounds.gamma_majorant(p0, t / u)
               + (1.0 - u) * _bounds.gamma_majorant(p1, t / (1.0 - u)))
        rhs = (comb.sigma * t) ** 2 / (1.0 - comb.kappa * t)
        yield [_one("split_identity", abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs)),
                    lhs=lhs, rhs=rhs)]


def schedule_ceilings():
    """On a grid of (n, c, v, M): the schedule exists, and the combined pair
    has sigma <= 15 sqrt(n) v + 2 M / sqrt(c) and kappa <= M gamma(c, n)."""
    for n, c, v, M in itertools.product((4, 16, 256, 4096), (0.5, 2.0, 10.0),
                                        (0.1, 1.0, 10.0), (0.1, 1.0, 10.0)):
        point = {"n": n, "c": c, "v": v, "M": M}
        try:
            inputs = _bounds.BernsteinInputs(n=n, d=2, M=M, v=v, c=c)
            pairs = _bounds.sigma_kappa_schedule(inputs)
        except _bounds.BoundDomainError:
            yield [("schedule_ceiling", 1, [point])]
            continue
        tot, ceiling = _bounds.combine_sigma_kappa(pairs), _bounds.schedule_ceiling(inputs)
        yield [("schedule_ceiling", 1, []),
               _one("sigma_ceiling", tot.sigma <= ceiling.sigma, sigma=tot.sigma, **point),
               _one("kappa_ceiling", tot.kappa <= ceiling.kappa, kappa=tot.kappa, **point)]


def coupling(seed: int = 123):
    """One coupling of Y = X, a fair bit (beta = 1/2): Y != Y* at rate beta
    within 0.013, Y* has the law of Y, and Y* is independent of X (both
    chi-square p-values >= 1e-3)."""
    yield _coupling_case(seed)


def _coupling_case(seed: int):
    joint = mixing.JointLaw(np.array([[0.5, 0.0], [0.0, 0.5]]))
    x, y, ystar = mixing.berbee_coupling(joint, seed=seed).sample(100_000)
    freq = float(np.mean(y != ystar))
    beta = mixing.beta_from_joint(joint)
    yield _one("coupling_mismatch_rate", abs(freq - beta) <= 0.013, freq=freq, beta=beta)
    counts = np.bincount(ystar, minlength=2)
    expected = joint.y_marginal * ystar.size
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    yield _one("coupling_marginal", chdtrc(1, chi2) >= 1e-3, chi2=chi2)
    table = np.bincount(2 * x + ystar, minlength=4).reshape(2, 2)
    p = independence_pvalue(table)
    yield _one("coupling_independence", p >= 1e-3, table=table.tolist(), p=p)


def independence_pvalue(table) -> float:
    """p-value of Pearson's chi-square test of independence for a 2 x 2
    table of counts, with Yates' continuity correction (one degree of
    freedom)."""
    table = np.asarray(table, dtype=float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    excess = np.maximum(np.abs(table - expected) - 0.5, 0.0)
    return float(chdtrc(1, np.sum(excess ** 2 / expected)))


def dominance(configs=None, trials: int = 2000, seed: int = 11):
    """Monte-Carlo tail of each model config (default: the shipped ones) at
    each grid point x: p_hat(x) <= certified bound(x).  A bound >= 1 says
    nothing, so only the points below 1 are compared, and counted per model."""
    for cfg in configs if configs is not None else shipped_model_configs():
        yield _dominance_case(cfg, trials, seed)


def _dominance_case(cfg: dict, trials: int, seed: int):
    report = models.run_tail_experiment(
        cfg["spec"], n=cfg["n"], trials=trials, x_grid=cfg["x_grid"], seed=seed,
        inputs=cfg["inputs"])
    compared = [(x, p_hat, b) for (x, p_hat, _, _), (_, b)
                in zip(report.tail_grid, report.bound_curve) if b < 1.0]
    yield f"tail_dominance.{cfg['name']}", len(compared), [
        {"model": cfg["name"], "x": x, "p_hat": p_hat, "bound": b}
        for x, p_hat, b in compared if p_hat > b]


def shipped_model_configs():
    """The three model configurations exercised by `verify dominance`."""
    chain = mixing.MarkovChain.two_state(0.25, 0.25)
    specs = [
        ("iid", 64, models.ModelSpec(kind="iid_baseline", d=2, chain=chain,
                                     D=np.diag([1.0, -0.5]))),
        ("contraction", 256, models.ModelSpec(
            kind="contraction", d=4, chain=chain, D=np.diag([1.0, -1.0, 0.5, -0.25]),
            tau_map=np.array([1.0, -1.0]))),
        ("blockcov", 64, models.ModelSpec(kind="block_covariance", d=2, chain=chain,
                                          value_map=np.array([1.0, -1.0]))),
    ]
    out = []
    for name, n, spec in specs:
        inputs = models.bernstein_inputs_for(spec, n)
        top = inputs.n * inputs.M
        out.append({"name": name, "spec": spec, "n": n, "inputs": inputs,
                    "x_grid": np.linspace(0.05 * top, 0.9 * top, 8).tolist()})
    return out


SUITES = {
    "inequalities": inequalities,
    "cantor": cantor,
    "bounds": bounds,
    "coupling": coupling,
    "dominance": dominance,
}
