"""Exact oracles for the outputs the benchmark checks.

Nothing here imports depbernstein: each law, closed form and ceiling is
derived again from the model definitions, so a defect in the program cannot
hide inside its own check.  The dense-grid optimiser takes the objective as
a callable, so the caller decides which majorant it minimises.
"""

from __future__ import annotations

import math
from math import comb

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Laws of lambda_max for the shipped models (chain: two states, flip 1/4)


def sign_sum_law(n: int) -> dict:
    """Law of Z = sum of n iid fair +-1 signs, as {z: P(Z = z)}."""
    return {n - 2 * k: comb(n, k) / 2 ** n for k in range(n + 1)}


def pushforward(law: dict, f) -> dict:
    out: dict = {}
    for z, p in law.items():
        y = f(z)
        out[y] = out.get(y, 0.0) + p
    return out


def contraction_law(n: int) -> dict:
    """lambda_max(Z D) with extreme eigenvalues +-1 of D is |Z|: with
    tau = +-1 and fair signs, tau_i eps_i are iid fair signs whatever the
    chain does."""
    return pushforward(sign_sum_law(n), abs)


def iid_law(n: int) -> dict:
    """lambda_max(Z D) with spectrum {1, -1/2} is max(Z, -Z/2)."""
    return pushforward(sign_sum_law(n), lambda z: max(z, -z // 2))


def blockcov_law(n: int) -> dict:
    """Block model with d = 2, centred values +-1 and flip probability 1/4.

    Both diagonal entries of C C^T are 1 and E(C C^T) = [[1, 1/2], [1/2, 1]],
    so the summed matrix is [[0, W - n/2], [W - n/2, 0]] with W the sum of
    the n within-block products.  A product is -1 exactly when the chain
    flips inside the block, which happens independently with probability
    1/4, so W = n - 2B with B ~ Bin(n, 1/4) and lambda_max = |n/2 - 2B|.
    """
    if n % 2:
        raise ValueError("the law is tabulated for an even number of blocks")
    out: dict = {}
    for b in range(n + 1):
        y = abs(n // 2 - 2 * b)
        out[y] = out.get(y, 0.0) + comb(n, b) * 3 ** (n - b) / 4 ** n
    return out


def mean_abs_sign_sum(n: int) -> float:
    """E|Z| = n C(n, n/2) / 2^n for even n."""
    if n % 2:
        raise ValueError("the closed form needs an even n")
    return n * comb(n, n // 2) / 2 ** n


def moments(law: dict):
    mean = sum(y * p for y, p in law.items())
    second = sum(y * y * p for y, p in law.items())
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def support_problems(samples, law: dict, limit: int = 3) -> list:
    """Samples that are not (to roundoff) an integer in the law's support."""
    bad = []
    for s in samples:
        r = round(s)
        if abs(s - r) > 1e-9 * max(1.0, abs(s)) or r not in law:
            bad.append(s)
            if len(bad) >= limit:
                break
    return [f"sample {s!r} outside the exact support" for s in bad]


def mean_problem(samples, law: dict, z: float):
    """A message if the sample mean is more than z standard errors from
    the exact mean, else None."""
    mean, sd = moments(law)
    got = sum(samples) / len(samples)
    se = sd / math.sqrt(len(samples))
    if abs(got - mean) > z * se:
        return (f"mean {got!r} of {len(samples)} samples is "
                f"{abs(got - mean) / se:.2f} standard errors from {mean!r}")
    return None


# ---------------------------------------------------------------------------
# Tail bound: closed form and dense-grid minimum of the majorant


def gamma_cn(c: float, n: int) -> float:
    ln = math.log(n)
    return (ln / LOG2) * max(2.0, 32.0 * ln / (c * LOG2))


def majorant_coefficients(n: int, M: float, v: float, c: float):
    """(a, b) with gamma_n(t) = log d + a t^2 / (1 - b t)."""
    sigma = 15.0 * v + 2.0 * M / math.sqrt(c * n)
    return n * sigma * sigma, M * gamma_cn(c, n)


def tail_log_bound(n, d, M, v, c, x) -> float:
    """min over 0 < t < 1/b of log d - t x + a t^2 / (1 - b t), in closed
    form: log d - (sqrt(a + b x) - sqrt(a))^2 / b^2 (classical Bernstein;
    Tropp 2012).  The difference of roots is written without cancellation."""
    a, b = majorant_coefficients(n, M, v, c)
    root_gap = b * x / (math.sqrt(a + b * x) + math.sqrt(a))
    return math.log(d) - (root_gap / b) ** 2


def x_at_log_drop(n, M, v, c, drop) -> float:
    """The x at which the closed-form log bound is log d - drop."""
    a, b = majorant_coefficients(n, M, v, c)
    return 2.0 * math.sqrt(a * drop) + b * drop


def dense_grid_min(phi, t_max: float, points: int = 4001, rounds: int = 6):
    """Minimum of phi on (0, t_max): a log-spaced grid over twelve decades
    below t_max, then repeated zooms onto the best cell.  Returns (t, phi)."""
    lo, hi = t_max * 1e-12, t_max * (1.0 - 1e-12)
    ratio = (hi / lo) ** (1.0 / (points - 1))
    ts = [lo * ratio ** i for i in range(points)]
    for _ in range(rounds):
        vals = [phi(t) for t in ts]
        i = min(range(len(ts)), key=vals.__getitem__)
        a = ts[max(i - 1, 0)]
        b = ts[min(i + 1, len(ts) - 1)]
        best = (ts[i], vals[i])
        ts = [a + (b - a) * j / 40 for j in range(41)]
    vals = [phi(t) for t in ts]
    i = min(range(len(ts)), key=vals.__getitem__)
    return min(best, (ts[i], vals[i]), key=lambda tv: tv[1])


# ---------------------------------------------------------------------------
# Cantor blocking and the (sigma, kappa) schedule


def cantor_params(A: int):
    """(ell, n_ell) of the blocking of {1..A}; the same float expressions as
    the definition: delta = log 2 / (2 log A), ell the largest k >= 1 with
    A delta (1 - delta)^(k-1) / 2^k >= 2 (else 0), n_j = ceil(A (1-delta)^j / 2^j)."""
    delta = math.log(2.0) / (2.0 * math.log(A))
    ell, k = 0, 1
    while A * delta * (1.0 - delta) ** (k - 1) / 2.0 ** k >= 2.0:
        ell, k = k, k + 1
    n_ell = A if ell == 0 else math.ceil(A * (1.0 - delta) ** ell / 2.0 ** ell)
    return ell, n_ell


def decomposition_depth(n: int) -> int:
    """Levels of the full decomposition, from cardinalities alone: each level
    removes the 2^ell n_ell kept indices of the survivors."""
    A, levels = n, 0
    while A > 2:
        ell, n_ell = cantor_params(A)
        A -= 2 ** ell * n_ell
        levels += 1
    return levels


def schedule_problems(pairs, n, M, v, c) -> list:
    problems = []
    if len(pairs) != decomposition_depth(n) + 1:
        problems.append(f"{len(pairs)} pairs, expected depth + 1 = "
                        f"{decomposition_depth(n) + 1}")
    sigma = sum(p.sigma for p in pairs)
    kappa = sum(p.kappa for p in pairs)
    if not all(math.isfinite(p.sigma) and math.isfinite(p.kappa)
               and p.sigma > 0 and p.kappa > 0 for p in pairs):
        problems.append("a sigma or kappa is not positive and finite")
    if sigma > 15.0 * math.sqrt(n) * v + 2.0 * M / math.sqrt(c):
        problems.append(f"sum sigma {sigma!r} above its ceiling")
    if kappa > M * gamma_cn(c, n):
        problems.append(f"sum kappa {kappa!r} above its ceiling")
    return problems


# ---------------------------------------------------------------------------
# Error rate


def failure_rate_upper(failed: int, attempted: int, conf: float = 0.95) -> float:
    """Upper end of the exact (Clopper-Pearson) one-sided confidence interval
    for the per-operation failure probability: the p at which
    P(Bin(attempted, p) <= failed) = 1 - conf.  Never 0; with no failures it
    is 1 - (1 - conf)^(1/attempted), about 3/attempted."""
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - conf
    if failed == 0:
        return 1.0 - alpha ** (1.0 / attempted)

    def cdf(p):
        return sum(math.exp(math.lgamma(attempted + 1) - math.lgamma(i + 1)
                            - math.lgamma(attempted - i + 1)
                            + i * math.log(p) + (attempted - i) * math.log1p(-p))
                   for i in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if cdf(mid) > alpha else (lo, mid)
    return hi
