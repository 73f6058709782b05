"""Exact laws and transforms of the models: the references that the tests
check the sampler, the v^2 ceiling and the bound against.  No command
imports this module, so `simulate` and `verify` never load it.

  log_row_power   w K^m in log space, by binary powers of K
  log_laplace     log E Tr exp(t S_n) of a sign model (Dembo & Zeitouni,
                  section 3.1), from the tilted transfer matrices P diag(h)
  v2_bruteforce   the variance proxy as a maximum over every index set, from
                  the exact pairwise moments E(X_i X_j) (models.lag_moments)
  lattice_law     the law of sum_i g(S_i) for an integer-valued g, by the
                  forward equation of the pair (state, partial sum)
                  (Kemeny & Snell, Finite Markov Chains)

A sign model's fair signs are a chain too: the lifted chain P (x) 1/2 11^T on
the states (x, +) and (x, -), with g(x, +-) = +-tau(x), so lattice_law needs
no sign flag.
"""

from __future__ import annotations

import math

import numpy as np

from .mixing import MarkovChain, MixingError
from .models import ModelError, ModelSpec, lag_moments


def log_row_power(w, K, m: int):
    """w K^m for a stack of row vectors w (..., s) and of nonnegative s x s
    matrices K (..., s, s), as (log_mass, u) with w K^m = e^log_mass u and u
    summing to 1.  By binary powers of K: the row is renormalized after each
    product, and each power is scaled by a power of 2 (exactly) so that its
    largest entry is in [1/2, 1); the logs of both are carried."""
    def scaled(A):
        e = np.frexp(A.max(axis=(-2, -1)))[1]
        return np.ldexp(A, -e[..., None, None]), e * math.log(2.0)

    mass = w.sum(axis=-1)
    u, log_mass = w / mass[..., None], np.log(mass)
    K, log_k = scaled(np.asarray(K, dtype=float))
    while m:
        if m & 1:
            u = (u[..., None, :] @ K)[..., 0, :]
            mass = u.sum(axis=-1)
            u, log_mass = u / mass[..., None], log_mass + log_k + np.log(mass)
        m >>= 1
        if m:
            K, log_sq = scaled(K @ K)
            log_k = 2.0 * log_k + log_sq
    return log_mass, u


def log_laplace(spec: ModelSpec, n: int, t):
    """log E Tr exp(t S_n) of the contraction or iid model (tau = 1), exactly, at
    a scalar t or each entry of an array t with |t| M <= 710, where cosh is finite.
    Given the path the signs are independent, so with h_j(x) = cosh(t lam_j tau(x))
    for each eigenvalue lam_j of D it is sum_j pi diag(h_j) (P diag(h_j))^(n-1) 1
    (Dembo & Zeitouni, section 3.1), by binary powers of P diag(h_j) (log_row_power)."""
    t = np.asarray(t, dtype=float)
    if spec.kind == "block_covariance" or n < 1 or not np.all(np.abs(t) * spec.M <= 710.0):
        raise ModelError("log_laplace needs a contraction or iid model, n >= 1 and |t| M <= 710")
    h = np.cosh(np.multiply.outer(t, np.outer(np.linalg.eigvalsh(spec.D), spec.tau_map)))
    log_mass, _ = log_row_power(spec.chain.pi * h, spec.chain.P * h[..., None, :], n - 1)
    out = np.logaddexp.reduce(log_mass, axis=-1)
    return float(out) if out.ndim == 0 else out


def _pairwise_moments_exact(spec: ModelSpec, n: int) -> np.ndarray:
    """G[i, j] = E(X_i X_j), exactly: E(X_0 X_{j-i}) from lag_moments for
    i <= j, its transpose for i > j."""
    i, j = np.indices((n, n))
    G = lag_moments(spec, n - 1)[np.abs(j - i)]
    G[i > j] = np.swapaxes(G[i > j], -1, -2)
    return G


def v2_bruteforce(spec: ModelSpec, n: int) -> float:
    """The variance proxy by exhaustive enumeration of all 2^n - 1 subsets,
    from the exact pairwise second moments (_pairwise_moments_exact)."""
    if n > 20:
        raise ModelError(f"subset enumeration is capped at n = 20, got {n}")
    if n < 1:
        raise ModelError(f"need n >= 1, got {n}")
    G = _pairwise_moments_exact(spec, n)
    best = -math.inf
    for mask in range(1, 1 << n):
        K = [i for i in range(n) if mask >> i & 1]
        S = G[np.ix_(K, K)].sum(axis=(0, 1))
        best = max(best, float(np.max(np.linalg.eigvalsh((S + S.T) / 2.0))) / len(K))
    return best


def lattice_law(chain: MarkovChain, g, n: int) -> np.ndarray:
    """The law of U = g(S_1) + ... + g(S_n) over n steps of the stationary
    chain, for integers g (one per state): pmf[k] = P(U = n min(g) + k), for
    k = 0..n (max(g) - min(g)).

    The forward recursion over (state, partial sum): f[x, k] is the
    probability of S_i = x with partial sum i min(g) + k, which starts at
    pi(x) on k = g(x) - min(g); one step moves the mass P(x, y) of f[x, .]
    to state y, shifted by g(y) - min(g).  O(n^2 s^2 (max(g) - min(g))) flops.
    """
    g = np.asarray(g)
    if g.shape != (chain.states,) or g.dtype.kind not in "iu" or n < 1:
        raise MixingError(f"need one integer g per state and n >= 1, got g={g!r}, n={n}")
    shift = (g - g.min()).tolist()
    f = np.zeros((chain.states, n * max(shift) + 1))
    f[np.arange(chain.states), shift] = chain.pi
    for _ in range(n - 1):
        moved = chain.P.T @ f
        for y, sy in enumerate(shift):
            f[y, :sy], f[y, sy:] = 0.0, moved[y, :f.shape[1] - sy]
    return f.sum(axis=0)
