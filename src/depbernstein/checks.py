"""Every invariant that `depbernstein verify` checks, each stated here with
its tolerance (`spectral`'s kernels only compute the two sides of an
inequality).  Acceptance criteria 01, 04, 05, 06, 08 and 10 run these suites
too; criteria 02, 03, 07, 09, 11 and 12 check theirs in the acceptance tests.

A suite is a generator of cases; a case is an iterable of entries
(invariant, compared, failed): `compared` comparisons, of which those in
`failed` (detail dicts) did not hold.  `run` reads the clock before each
case, so a lazy case (a generator) costs nothing once the budget is spent.
The inequality, Cantor, coupling and split-identity suites check a whole
stack per case (one dimension, one level count, one shape of laws, all 1000
split draws), and the schedule ceilings one n per case, its 27 grid points
as arrays; each failed row names its `pair` (draw index), its `A`, its lag
`k` or `law` (stack index), or its point (n, c, v, M).  Randomized suites
take their seed as an argument; the defaults are `verify`'s.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from time import monotonic

import numpy as np

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


def _rows(invariant: str, holds, **columns):
    """An entry for one comparison per element of `holds` (a bool or an
    array); each failed one is reported with its element of every column
    (scalars or arrays that broadcast against `holds`)."""
    holds = np.asarray(holds)
    if holds.all():  # without the columns: schedule_ceilings in 0.29 ms, not 0.44
        return invariant, holds.size, []
    bad = ~holds
    cols = [np.broadcast_to(col, holds.shape)[bad].tolist() for col in columns.values()]
    return invariant, holds.size, [dict(zip(columns, row)) for row in zip(*cols)]


_HOLDER_P = (1.5, 2.0, 3.0, 10.0)
SHIPPED_CHAIN = mixing.MarkovChain.two_state(0.25, 0.25)  # the chain of every shipped model


def inequalities(seed: int = 20240901):
    """1000 random pairs of symmetric matrices with entries in [-2, 2], d in
    2..8, each with a point t in [0.1, 1) for the convexity check: the
    dimensions and points are drawn first, then the pairs of one d as one
    stack, checked as one case."""
    rng = np.random.default_rng(seed)
    dims, t = rng.integers(2, 9, 1000), rng.uniform(0.1, 1.0, 1000)
    for d in np.unique(dims).tolist():
        pair = np.flatnonzero(dims == d)
        m = rng.uniform(-2.0, 2.0, (2, pair.size, d, d))
        a, b = (m + m.swapaxes(-1, -2)) / 2.0
        yield _inequality_case(pair, spectral.SymMatrix(a), spectral.SymMatrix(b), t[pair])


def _inequality_case(pair, a, b, t):
    """Golden-Thompson Tr e^{A+B} <= Tr(e^A e^B), trace-Hölder
    |Tr(AB)| <= ||A||_p ||B||_q (1/p + 1/q = 1) at p = 1.5, 2, 3, 10, and
    Weyl lambda_max(A+B) <= lambda_max(A) + lambda_max(B), each to
    1e-9 (1 + |rhs|); Gerschgorin for a (absolute slack 1e-9), and
    convexity of s -> Tr exp(sa) at t (a second difference >= -1e-8) for
    stacks a and b of one shape; a failure carries its draw index `pair`.
    Golden-Thompson's right side decomposes a and b with their bases first;
    the other kernels read eigenvalues alone, so a + b is decomposed for
    its eigenvalues only."""
    rhs = spectral.trace_product(spectral.expm_sym(a), spectral.expm_sym(b))
    total = a + b
    lhs = spectral.trace_exp(1.0, total)
    yield _rows("golden_thompson", lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)),
                pair=pair, lhs=lhs, rhs=rhs)
    lhs = np.abs(spectral.trace_product(a, b))
    for p in _HOLDER_P:
        rhs = spectral.schatten_norm(a, p) * spectral.schatten_norm(b, p / (p - 1.0))
        yield _rows("trace_holder", lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)),
                    pair=pair, p=p, lhs=lhs, rhs=rhs)
    lhs = spectral.lambda_max(total)
    rhs = spectral.lambda_max(a) + spectral.lambda_max(b)
    yield _rows("weyl", lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)), pair=pair, lhs=lhs, rhs=rhs)
    gersh, norm = spectral.gerschgorin_bound(a), spectral.schatten_norm(a, np.inf)
    yield _rows("gerschgorin", gersh >= norm - 1e-9, pair=pair, bound=gersh, norm=norm)
    dt = 1e-3
    second = (spectral.trace_exp(t + dt, a) - 2.0 * spectral.trace_exp(t, a)
              + spectral.trace_exp(t - dt, a)) / dt ** 2
    yield _rows("trace_exp_convexity", second >= -1e-8, pair=pair, t=t, second=second)


def cantor():
    """Every A in 2..5000, one case per `CantorStack` (one per ell)."""
    for stack in _cantor.cantor_stacks(np.arange(2, 5001)):
        yield _cantor_case(stack)


def _cantor_case(stack):
    """Per row A of the stack: |K_A| = 2^ell n_ell is in [A/2, A] and equal to
    the count read from the runs (each leaf stops where the next run starts,
    the last at A + 1), the leaves and gaps tile {1..A}, every gap d_j is at least
    f_j = A delta (1 - delta)^j / 2^(j+1), and ell keeps cantor_params' level
    rule, f_(ell-1) >= 2 > f_ell; a failure carries its `A`."""
    A, card, ell, starts = stack.A, stack.card, stack.ell, stack.starts
    counted = (starts[1::2] - starts[:-1:2]).sum(axis=0) + A + 1 - starts[-1]
    yield _rows("kept_cardinality", (card <= A) & (2 * card >= A), A=A, card=card)
    yield _rows("kept_card_formula", card == counted, A=A, card=card)
    yield _rows("disjoint_cover", _cantor.tiles_exactly(stack), A=A)
    delta, j = stack.delta[:, None], np.arange(ell + 1)
    floor = A[:, None] * delta * (1.0 - delta) ** j / 2.0 ** (j + 1)
    yield _rows("level_ceiling", (floor[:, :ell] >= 2).all(1) & (floor[:, ell] < 2), A=A, ell=ell)
    yield _rows("gap_floor", stack.d_seq >= floor[:, :ell], A=A[:, None], j=j[:ell],
                d=stack.d_seq, floor=floor[:, :ell])


def bounds(seed: int = 7):
    """The split identity, then the schedule ceilings."""
    yield from split_identity(seed)
    yield from schedule_ceilings()


def split_identity(seed: int):
    """Random pairs (sigma, kappa) in [0.05, 5]^2 and t in [0, 0.999/kappa),
    drawn in order and checked as one stack: the optimally split majorants
    sum to (sigma t)^2 / (1 - kappa t) of the combined pair, to 1e-12
    relative; a failure carries its draw index `pair`."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform([0.05] * 4 + [0.0], [5.0] * 4 + [0.999], (1000, 5))
    s0, s1, k0, k1, w = draws.T
    p0, p1 = _bounds.SigmaKappaPair(s0, k0), _bounds.SigmaKappaPair(s1, k1)
    comb = _bounds.combine_sigma_kappa([p0, p1])
    t = w / comb.kappa
    u = _bounds.split_weight(p0, p1, t)
    lhs = (u * _bounds.gamma_majorant(p0, t / u)
           + (1.0 - u) * _bounds.gamma_majorant(p1, t / (1.0 - u)))
    rhs = (comb.sigma * t) ** 2 / (1.0 - comb.kappa * t)
    yield [_rows("split_identity", np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)),
                 pair=np.arange(len(draws)), lhs=lhs, rhs=rhs)]


def schedule_ceilings():
    """On a grid of (n, c, v, M), one case per n with its 27 points (c, v, M)
    as arrays: the schedule exists, and the combined pair has
    sigma <= 15 sqrt(n) v + 2 M / sqrt(c) and kappa <= M gamma(c, n); a
    failure names its point, and a domain error fails every point of its case."""
    c, v, M = np.array(list(itertools.product((0.5, 2.0, 10.0), (0.1, 1.0, 10.0),
                                               (0.1, 1.0, 10.0)))).T
    for n in (4, 16, 256, 4096):
        point = {"n": n, "c": c, "v": v, "M": M}
        try:
            inputs = _bounds.BernsteinInputs(n=n, d=2, M=M, v=v, c=c)
            pairs = _bounds.sigma_kappa_schedule(inputs)
        except _bounds.BoundDomainError:
            yield [_rows("schedule_ceiling", np.zeros(c.shape, bool), **point)]
            continue
        tot, ceiling = _bounds.combine_sigma_kappa(pairs), _bounds.schedule_ceiling(inputs)
        yield [("schedule_ceiling", c.size, []),
               _rows("sigma_ceiling", tot.sigma <= ceiling.sigma, sigma=tot.sigma, **point),
               _rows("kappa_ceiling", tot.kappa <= ceiling.kappa, kappa=tot.kappa, **point)]


def coupling(seed: int = 123):
    """Berbee's coupling law (mixing.coupling_law), checked exactly: first
    the laws of (S_0, S_k) of the shipped chain for k = 1..50, then 50
    seeded random laws of each shape r x (11 - r), r = 2..8 (every row count
    2..8 and column count 3..9 once), about a quarter of whose cells are 0.
    A case is one stack: the chain's laws or one shape's (8 cases)."""
    lags = np.arange(1, 51)
    yield _coupling_case(lambda: SHIPPED_CHAIN.joint_law(lags), k=lags)
    rng = np.random.default_rng(seed)
    for r in range(2, 9):
        yield _coupling_case(lambda r=r: _random_laws(rng, r, 11 - r), law=np.arange(50), r=r)


def _random_laws(rng, r: int, c: int):
    pmf = rng.random((50, r, c))
    pmf[pmf < 0.25] = 0.0
    return mixing.JointLaw(pmf / pmf.sum(axis=(1, 2), keepdims=True))


def _coupling_case(laws, **labels):
    """Per law of the stack laws(), to 1e-14 absolute: the (X, Y) marginal
    of its coupling law is the law, the (X, Ystar) marginal is p(x) q(y),
    and P(Y != Ystar) is beta_from_joint; a failure carries its `labels`."""
    joint = laws()
    law = mixing.coupling_law(joint)
    err = np.abs(law.sum(axis=-1) - joint.pmf).max(axis=(-2, -1))
    yield _rows("coupling_xy_law", err <= 1e-14, err=err, **labels)
    err = np.abs(law.sum(axis=-2) - joint.product).max(axis=(-2, -1))
    yield _rows("coupling_independence", err <= 1e-14, err=err, **labels)
    mismatch = np.where(np.eye(law.shape[-1], dtype=bool), 0.0, law).sum(axis=(-3, -2, -1))
    err = np.abs(mismatch - mixing.beta_from_joint(joint))
    yield _rows("coupling_mismatch_beta", err <= 1e-14, err=err, **labels)


def dominance(configs=None, trials: int = 2000, seed: int = 11):
    """Monte-Carlo tail of each model config (default: the shipped ones) at
    each grid point x: p_hat(x) <= certified bound(x), and on the same
    samples mean lambda_max <= expectation ceiling + 3 stderr, both from the
    report's inputs.  A bound >= 1 says nothing, so only the points below 1
    are compared, and counted per model; a failed point carries its
    Clopper-Pearson interval (lo, hi)."""
    for cfg in configs if configs is not None else shipped_model_configs():
        yield _dominance_case(cfg, trials, seed)


def _dominance_case(cfg: dict, trials: int, seed: int):
    name = cfg["name"]
    report = models.run_tail_experiment(
        cfg["spec"], n=cfg["n"], trials=trials, x_grid=cfg["x_grid"], seed=seed)
    inputs = _bounds.BernsteinInputs(**report.inputs)
    x, p_hat, lo, hi, bound = np.array([(*point, b) for point, (_, b) in zip(
        report.tail_grid, report.bound_curve) if b < 1.0]).reshape(-1, 5).T
    yield _rows(f"tail_dominance.{name}", p_hat <= bound,
                model=name, x=x, p_hat=p_hat, lo=lo, hi=hi, bound=bound)
    mean, stderr = report.mean_lambda_max, report.mean_stderr
    bound = _bounds.expectation_bound(inputs)
    # at d = 1 the ceiling is E S_n = 0 exactly, which a sample mean straddles
    yield _rows(f"expectation_dominance.{name}",
                mean <= bound + 3.0 * stderr if inputs.d > 1 else [],
                model=name, mean=mean, stderr=stderr, bound=bound)


def shipped_model_configs():
    """The three model configurations exercised by `verify dominance`, with no
    inputs: each report builds its own model's."""
    specs = [
        ("iid", 64, models.ModelSpec(kind="iid_baseline", d=2, chain=SHIPPED_CHAIN,
                                     D=np.diag([1.0, -0.5]))),
        ("contraction", 256, models.ModelSpec(
            kind="contraction", d=4, chain=SHIPPED_CHAIN, D=np.diag([1.0, -1.0, 0.5, -0.25]),
            tau_map=np.array([1.0, -1.0]))),
        ("blockcov", 64, models.ModelSpec(kind="block_covariance", d=2, chain=SHIPPED_CHAIN,
                                          value_map=np.array([1.0, -1.0]))),
    ]
    out = []
    for name, n, spec in specs:
        top = n * spec.M
        out.append({"name": name, "spec": spec, "n": n,
                    "x_grid": np.linspace(0.05 * top, 0.9 * top, 8).tolist()})
    return out


SUITES = {
    "inequalities": inequalities,
    "cantor": cantor,
    "bounds": bounds,
    "coupling": coupling,
    "dominance": dominance,
}
