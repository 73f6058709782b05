"""Exact beta-mixing machinery for finite-state Markov chains.

For a stationary Markov chain the absolute-regularity coefficient between
the full past and the full future at lag k reduces to
E || P^k(S_0, .) - pi ||_TV, which beta_k_exact computes for a lag profile
from the powers of P - 1 pi.  power_blocks is the one walker of lag powers:
it steps them a bounded block at a time for beta_k_exact and for the models'
lag_moments and v2_ceiling (the lag moments and d̄).  The generic
beta_from_joint works on any finite joint law and is the independent check,
via the law of (S_0, S_k), and coupling_law builds Berbee's coupling of it.
A chain is its transition matrix: MarkovChain(P) derives pi from P, and
chain and model files give P alike (from_config).  log_row_power gives
w K^m in log space by binary powers, for the tilted transfer matrices of
the models' Laplace transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np

from .spectral import _out

RATE_CEILING = 1e6  # returned when the chain mixes "infinitely fast" (beta_k = 0)
RATE_LAGS = 50  # the rate c of the bound fits the beta profile on lags 2..RATE_LAGS
_TABLE_WORDS = 1 << 10  # entries of sample_paths' k-step table: s W^k at most this
# entries of a block of power_blocks, the one walker of lag powers (for beta_k_exact and
# models.lag_moments and v2_ceiling): s^2 per lag, one lag at least
_BLOCK_WORDS = 1 << 12


class MixingError(ValueError):
    """Invalid chain, joint law or parameter."""


@dataclass(frozen=True)
class MarkovChain:
    """Finite-state chain given by its row-stochastic P alone; its stationary
    law pi is derived from P, never given.

    The chain must be irreducible and aperiodic so that beta_k -> 0.
    pi comes from Grassmann-Taksar-Heyman elimination (Operations Research
    33, 1985): censor the chain to states 0..k-1 for k = s-1 down to 1,
    routing the exits of state k to the lower states; then add the states
    back, each by the flow balance pi(k) W(k, :k).sum() = pi(:k) @ W(:k, k)
    of the censored chain.  Only nonnegative numbers are added, multiplied
    and divided, and no ratio exceeds 1, so pi >= 0 and is exact to working
    precision even on near-reducible chains, with subnormal rates included.
    """

    P: np.ndarray
    pi: np.ndarray = field(init=False)

    def __post_init__(self):
        P = _transition_matrix(self.P)  # a copy: the caller's array stays writeable
        W, s = P.copy(), P.shape[0]
        for k in range(s - 1, 0, -1):
            W[:k, :k] += np.outer(W[:k, k], W[k, :k] / W[k, :k].sum())
        pi = np.zeros(s)
        pi[0] = 1.0
        for k in range(1, s):
            pi[k] = pi[:k] @ W[:k, k]
            pi[:k] *= W[k, :k].sum()
            pi /= pi.sum()
        P.flags.writeable = False
        pi.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)

    @property
    def states(self) -> int:
        return self.P.shape[0]

    @classmethod
    def two_state(cls, a: float, b: float) -> "MarkovChain":
        """P = [[1-a, a], [b, 1-b]]; its pi, (b, a)/(a+b), comes from P."""
        return cls(np.array([[1.0 - a, a], [b, 1.0 - b]]))

    @classmethod
    def from_config(cls, obj) -> "MarkovChain":
        """The chain of a parsed chain or model config: a JSON object with P."""
        if not isinstance(obj, dict) or "P" not in obj:
            got = "an object without 'P'" if isinstance(obj, dict) else type(obj).__name__
            raise MixingError(f"a chain or model config is a JSON object with the transition"
                              f" matrix 'P', got {got}")
        return cls(obj["P"])

    def joint_law(self, k) -> "JointLaw":
        """Exact joint law of (S_0, S_k) under the stationary start; an
        integer array of lags gives the stack of their laws, (*k.shape, s, s)."""
        ks = np.asarray(k)
        if ks.dtype.kind not in "iu":
            raise MixingError(f"lag k must be an integer, got {k!r}")
        if np.any(ks < 1):
            raise MixingError(f"lag k must be >= 1, got {ks.min()}")
        Pk = [np.linalg.matrix_power(self.P, int(j)) for j in ks.ravel()]
        return JointLaw(pmf=self.pi[:, None] * np.reshape(Pk, ks.shape + self.P.shape))

    def sample_paths(self, u, shape) -> np.ndarray:
        """One stationary path per row of a (paths, steps) = shape array of
        uniforms, in the narrowest unsigned dtype that holds the last state.
        u is an iterable of that array's row blocks in order: (rows, steps)
        arrays, each ranked before the next is read, so a caller can refill
        one buffer per block and the whole array never exists.  Any split
        into blocks gives the same paths; [u] is one block.

        The state after x is #{k <= s-2 : cumsum(P[x])[k] <= u}: the inverse
        CDF without its last column, so a row summing to just below 1 still
        ends at the last state (the first state inverts cumsum(pi) alike).
        That count depends on u only through its rank among the cut points,
        the distinct values of those columns, so each uniform is ranked once,
        by counting the cuts at or below it, and the one-step table
        nxt[x, rank] gives the next state.  One lookup moves a path k
        transitions: with W ranks, k is the largest power of two with
        s W^k <= _TABLE_WORDS, and the k-step table is built from nxt by
        doubling.  Its entry (x, c) holds the k states visited from x on the
        rank word c of k steps (first step most significant), packed into
        one word.  The paths step together one block of k steps at a time (the
        ranks padded with 0 to whole blocks), each to the last state of its
        entry; one gather unpacks every block, and the surplus is sliced off.
        """
        s, (paths, steps) = self.states, shape
        cuts, at = np.unique(np.cumsum(self.P, axis=1)[:, :-1], return_inverse=True)
        W, state = cuts.size + 1, np.min_scalar_type(s - 1)
        # entry k of row x is <= u from rank at[x, k] + 1 on: count those per rank
        rises = np.repeat(np.arange(s) * W, s - 1) + at.ravel() + 1
        nxt = np.bincount(rises, minlength=s * W).reshape(s, W).cumsum(1).astype(state)
        # seq[x, c] lists the states of entry (x, c).  A doubling round runs
        # the first half of c from x, then the second half from where the
        # first ends.  s, W >= 2 give k <= 8, so a packed word of one-byte
        # states has at most 8 bytes (two-byte states keep k = 1)
        seq, Wk = nxt[:, :, None], W
        while s * Wk * Wk <= _TABLE_WORDS:
            seq = np.concatenate([np.broadcast_to(seq[:, :, None], (s, Wk, Wk, seq.shape[2])),
                                  seq[seq[:, :, -1]]], axis=3).reshape(s, Wk * Wk, -1)
            Wk *= Wk
        k = seq.shape[2]
        packed = seq.reshape(s * Wk, k).view(f"u{k * state.itemsize}").ravel()
        end = Wk * seq[:, :, -1].ravel().astype(np.intp)  # last state x, as row x W^k
        padded = (paths, 1 + -(-(steps - 1) // k) * k)  # the first state, then whole blocks
        rank, path = np.zeros(padded, np.min_scalar_type(cuts.size)), np.empty(padded, state)
        lo = 0
        for rows in u:
            hi = lo + len(rows)
            if rows.shape[1:] != (steps,) or hi > paths:
                raise MixingError(f"uniform blocks must tile shape {shape}")
            for cut in cuts:  # counted straight into rank, with no count array of its own
                rank[lo:hi, :steps] += rows >= cut
            path[lo:hi, 0] = (np.cumsum(self.pi)[:-1] <= rows[:, :1]).sum(1)
            lo = hi
        if lo != paths:
            raise MixingError(f"uniform blocks must tile shape {shape}")
        # one row per block of k steps, one column per path: Horner over its ranks
        code = rank[:, 1::k].T.astype(np.intp, order="C")
        for j in range(1, k):
            code *= W
            code += rank[:, 1 + j::k].T
        del rank
        cur = Wk * path[:, 0].astype(np.intp)
        for row in code:
            row += cur
            cur = end[row]
        path[:, 1:].view(packed.dtype)[:] = packed.take(code).T
        return path[:, :steps]


@dataclass(frozen=True)
class JointLaw:
    """Joint pmf of a pair of finite random variables, or a stack (..., r, c) of them."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=float)  # a copy: the caller's array stays writeable
        if pmf.ndim < 2:
            raise MixingError(f"pmf must be 2-D or a stack of 2-D laws, got shape {pmf.shape}")
        if not (np.isfinite(pmf) & (pmf >= 0)).all() or (abs(pmf.sum((-2, -1)) - 1) > 1e-12).any():
            raise MixingError("pmf must be finite, nonnegative, with total mass 1")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def x_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=-1)

    @property
    def y_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=-2)

    @property
    def product(self) -> np.ndarray:
        """p(x) q(y): the law of X with an independent copy of Y."""
        return self.x_marginal[..., :, None] * self.y_marginal[..., None, :]


def beta_from_joint(joint: JointLaw):
    """beta(sigma(X), sigma(Y)) = 1/2 sum |p(x,y) - p(x) q(y)|, in [0, 1], of
    each law of the stack; a single law gives a float."""
    return _out(0.5 * np.abs(joint.pmf - joint.product).sum(axis=(-2, -1)))


def coupling_law(joint: JointLaw) -> np.ndarray:
    """Berbee's coupling of each law of the stack, the law of (X, Y, Ystar)
    on the cells (..., x, y, ystar): Ystar has the law q of Y, is independent
    of X, and differs from Y with probability beta.  Given X = x, Y and q are
    coupled maximally (Levin, Peres & Wilmer, Prop. 4.7): Y = Ystar = y with
    mass min(p(x, y), p(x) q(y)), else Y and Ystar come independently from
    the two residual laws, whose supports are disjoint."""
    prod = joint.product
    shared = np.minimum(joint.pmf, prod)
    over, under = joint.pmf - shared, prod - shared
    mass = over.sum(axis=-1, keepdims=True)  # P(X = x, Y != Ystar); where 0, over is 0 too
    return (shared[..., None] * np.eye(shared.shape[-1])
            + over[..., None] * (under / np.where(mass > 0, mass, 1.0))[..., None, :])


def power_blocks(M: np.ndarray, ks):
    """Yield M^k for the increasing positive integers ks, in (lags, s, s) blocks
    of at most _BLOCK_WORDS entries (one lag at least), and keep one block: a
    product a lag, by M^gap across each gap (from 0), each distinct M^gap once."""
    gaps = np.diff(ks, prepend=0).tolist()
    steps = {gap: np.linalg.matrix_power(M, gap) for gap in dict.fromkeys(gaps)}
    powers = islice(accumulate(map(steps.get, gaps), np.matmul, initial=np.eye(len(M))), 1, None)
    size = max(1, _BLOCK_WORDS // len(M) ** 2)
    for lo in range(0, len(ks), size):
        yield np.fromiter(islice(powers, size), np.dtype((float, M.shape)))


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


def beta_k_exact(chain: MarkovChain, k):
    """beta_k = sum_x pi(x) TV(P^k(x, .), pi) of a stationary chain: one lag
    k gives a float, an integer array of lags an array of its shape.
    P^k - 1 pi = Q^k with Q = P - 1 pi, and summing |Q^k| keeps beta_k's
    relative accuracy where P^k - 1 pi cancels.  Each block of Q^k
    (power_blocks) is reduced by one |.| row sum and one stacked product
    with pi: a dot product per lag that gives each beta the bits of
    pi @ (0.5 |Q^k| 1), where the gemv rows @ pi would not."""
    ks, at = np.unique(k, return_inverse=True)
    if np.any(ks < 1):
        raise MixingError(f"lag k must be >= 1, got {ks[0]}")
    beta = [np.matmul(0.5 * np.abs(Q, out=Q).sum(axis=2)[:, None, :], chain.pi)[:, 0]
            for Q in power_blocks(chain.P - chain.pi, ks.tolist())]
    return _out(np.concatenate([np.empty(0), *beta])[at].reshape(np.shape(k)))


def dbar(Pk: np.ndarray):
    """d̄(k) = max_{x,y} TV(P^k(x, .), P^k(y, .)) of each k-step matrix P^k
    in a stack (..., s, s); a single matrix gives a float.

    It bounds TV(P^k(x, .), pi) for every x and is submultiplicative,
    d̄(j + k) <= d̄(j) d̄(k) (Levin, Peres & Wilmer, Markov Chains and Mixing
    Times, section 4.4); a primitive chain has d̄(k) < 1 from Wielandt's
    exponent (s-1)^2 + 1 on.
    """
    Pk = np.asarray(Pk, dtype=float)
    gap = Pk[..., :, None, :] - Pk[..., None, :, :]
    return _out(0.5 * np.abs(gap, out=gap).sum(axis=-1).max(axis=(-2, -1)))


def fit_geometric_rate(chain: MarkovChain, k_max: int) -> float:
    """Largest c with beta_k <= e^{-c(k-1)} on k = 2..k_max: the least
    -log(beta_k) / (k-1) of one beta profile.  Lags with beta_k below 1e-300
    are infinitely fast and skipped; an all-zero profile (iid) gives 1e6."""
    if k_max < 2:
        raise MixingError(f"k_max must be >= 2, got {k_max}")
    lags = np.arange(2, k_max + 1)
    beta = beta_k_exact(chain, lags)
    if np.any(beta >= 1.0):
        raise MixingError(f"beta_{lags[beta >= 1.0][0]} >= 1: no valid geometric rate")
    fast = beta > 1e-300
    return float(np.min(-np.log(beta[fast]) / (lags[fast] - 1), initial=RATE_CEILING))


class BerbeeCoupler:
    """Seeded sampler of triples (X, Y, Ystar) for one finite joint law:
    one draw on the cells of its coupling law (coupling_law) per triple."""

    def __init__(self, joint: JointLaw, seed: int):
        if joint.pmf.ndim != 2:
            raise MixingError(f"the coupler samples one law, got shape {joint.pmf.shape}")
        self.rng = np.random.default_rng(seed)
        law = coupling_law(joint)
        self._shape = law.shape
        cum = np.cumsum(law)
        # ends at 1 exactly, so every draw u < 1 lands on a cell of positive mass
        self._cum = cum / cum[-1]

    def sample(self, size: int):
        """Draw `size` triples; returns arrays (X, Y, Ystar)."""
        cell = np.searchsorted(self._cum, self.rng.random(size), side="right")
        return np.unravel_index(cell, self._shape)


def _transition_matrix(P) -> np.ndarray:
    """A float copy of P, checked to be square, row-stochastic and primitive."""
    P = np.array(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise MixingError(f"P must be square with >= 2 states, got {P.shape}")
    if (not np.all(np.isfinite(P)) or np.any(P < 0)
            or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12):
        raise MixingError("P rows must be finite, nonnegative and sum to 1")
    # primitive iff P^k > 0 at Wielandt's exponent k = (s-1)^2 + 1
    if not np.all(np.linalg.matrix_power(P > 0, (P.shape[0] - 1) ** 2 + 1)):
        raise MixingError("chain must be irreducible and aperiodic")
    return P
