"""Self-tests of the benchmark's oracles.

    python3 perfbench/selftest.py

Checks each exact law against brute-force enumeration for small n, the
dense-grid tail-bound oracle against the closed form and against rows
recorded from depbernstein 0.1.0, and the Cantor and error-rate helpers
against known values.  Needs numpy only; the program is not imported.
Prints one line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

import numpy as np

import oracles


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}")
    if not ok:
        sys.exit(1)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def brute_sign_sums(n: int):
    return [sum(signs) for signs in itertools.product((-1, 1), repeat=n)]


def brute_blockcov(n: int):
    """(lambda_max, probability) over every path of the 2n-step chain with
    flip 1/4, values +-1, computed with numpy from the model's definition."""
    mean = np.array([[1.0, 0.5], [0.5, 1.0]])
    out = []
    for first in (-1, 1):
        for flips in itertools.product((0, 1), repeat=2 * n - 1):
            states = [first]
            for f in flips:
                states.append(-states[-1] if f else states[-1])
            prob = 0.5 * math.prod(0.25 if f else 0.75 for f in flips)
            rows = np.array(states, dtype=float).reshape(n, 2)
            total = rows.T @ rows - n * mean
            out.append((float(np.linalg.eigvalsh(total)[-1]), prob))
    return out


def test_laws():
    for n in range(2, 15, 2):
        sums = brute_sign_sums(n)
        brute = sum(abs(z) for z in sums) / len(sums)
        check(f"E|Z| closed form, n={n}", close(oracles.mean_abs_sign_sum(n), brute))
        check(f"contraction law mean, n={n}",
              close(oracles.moments(oracles.contraction_law(n))[0], brute))
        brute_iid = [max(z, -z / 2) for z in sums]
        mean = sum(brute_iid) / len(sums)
        sd = math.sqrt(sum(y * y for y in brute_iid) / len(sums) - mean * mean)
        got = oracles.moments(oracles.iid_law(n))
        check(f"iid law moments, n={n}", close(got[0], mean) and close(got[1], sd))
    check("E|Z| at n=1024 matches the law",
          close(oracles.mean_abs_sign_sum(1024),
                oracles.moments(oracles.contraction_law(1024))[0]))
    for n in (2, 4, 6):
        pairs = brute_blockcov(n)
        law = oracles.blockcov_law(n)
        brute: dict = {}
        for y, p in pairs:
            brute[round(y)] = brute.get(round(y), 0.0) + p
        same = brute.keys() == law.keys() and all(close(brute[k], law[k]) for k in law)
        check(f"blockcov law, n={n}", same and all(close(y, round(y)) for y, _ in pairs))
    # depbernstein 0.1.0, block model d=2 n=64, 20000 trials, seed 20240
    ref_mean, ref_sd, ref_trials = 5.5218, 4.197118720059931, 20000
    mean, sd = oracles.moments(oracles.blockcov_law(64))
    z = abs(ref_mean - mean) / (sd / math.sqrt(ref_trials))
    check("blockcov law vs recorded reference statistics", z < 4.0 and abs(ref_sd / sd - 1) < 0.02,
          f"({z:.2f} standard errors)")


# depbernstein 0.1.0: tail_bound_certified(x, BernsteinInputs(n, d, M, v, c))[0]
KNOWN_BOUNDS = [
    ((256, 4, 1.0, 0.5, 2.0, 50.0), 3.93069633859044),
    ((4, 1, 1.0, 1.0, 100.0, 40.0), 0.6677327782938371),
    ((1024, 4, 1.0, 1.0, 0.7214389022154534, 300.0), 3.881868125426205),
    ((2 ** 20, 16, 3.0, 0.2, 0.5, 5000.0), 15.256215874837052),
    ((2 ** 30, 2, 0.5, 1.5, 4.0, 2.5e7), 6.928547491431824e-116),
    ((64, 8, 2.0, 0.1, 0.05, 1.5e6), 5.876433506662365e-14),
]


def grid_log_bound(n, d, M, v, c, x):
    a, b = oracles.majorant_coefficients(n, M, v, c)
    _, best = oracles.dense_grid_min(
        lambda t: math.log(d) - t * x + a * t * t / (1.0 - b * t), 1.0 / b)
    return best


def test_tail_bound():
    for row, value in KNOWN_BOUNDS:
        grid = grid_log_bound(*row)
        check(f"dense grid vs recorded row {row}", close(grid, math.log(value), 1e-9))
        check(f"closed form vs recorded row {row}",
              close(oracles.tail_log_bound(*row), math.log(value), 1e-9))
    rng = random.Random(5)
    worst = 0.0
    for _ in range(40):
        n = 2 ** rng.randint(4, 40)
        d = rng.choice((1, 2, 16))
        M, v, c = rng.uniform(0.1, 10), rng.uniform(0.05, 5), rng.uniform(0.05, 20)
        drop = rng.choice((0.05, 2.0, 100.0, 650.0))
        x = oracles.x_at_log_drop(n, M, v, c, drop)
        exact = oracles.tail_log_bound(n, d, M, v, c, x)
        worst = max(worst, abs(grid_log_bound(n, d, M, v, c, x) - exact) / max(1.0, abs(exact)))
        if not close(exact, math.log(d) - drop, 1e-9):
            check("x_at_log_drop inverts the closed form", False, repr((n, d, M, v, c, drop)))
    check("dense grid vs closed form, 40 random rows", worst < 1e-10, f"(worst {worst:.2e})")


def test_cantor_and_rates():
    # depbernstein 0.1.0: cantor_set(A).card and decomposition_depth(n)
    for A, card in ((1000, 816), (100_000, 73_728), (1_000_000, 720_896)):
        ell, n_ell = oracles.cantor_params(A)
        check(f"|K| for A={A}", 2 ** ell * n_ell == card)
    for n, depth in ((1000, 3), (100_000, 6), (1_000_000, 8), (2, 0), (3, 1)):
        check(f"decomposition depth n={n}", oracles.decomposition_depth(n) == depth)
    check("error-rate bound, 0 of 30", close(oracles.failure_rate_upper(0, 30),
                                              1 - 0.05 ** (1 / 30)))
    # one-sided 95 % Clopper-Pearson upper limit for 1 failure in 10
    check("error-rate bound, 1 of 10", abs(oracles.failure_rate_upper(1, 10) - 0.3942) < 1e-4)


if __name__ == "__main__":
    test_laws()
    test_tail_bound()
    test_cantor_and_rates()
    print("all oracle self-tests passed")
