"""Exact beta-mixing machinery for finite-state Markov chains.

For a stationary Markov chain the absolute-regularity coefficient between
the full past and the full future at lag k reduces to
E || P^k(S_0, .) - pi ||_TV, which is what beta_k_exact computes; the
generic beta_from_joint works on any finite joint law and is used as a
cross-check via the joint law of (S_0, S_k).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

RATE_CEILING = 1e6  # returned when the chain mixes "infinitely fast" (beta_k = 0)


class MixingError(ValueError):
    """Invalid chain, joint law or parameter."""


@dataclass(frozen=True)
class MarkovChain:
    """Finite-state chain: row-stochastic P plus its stationary law pi.

    The chain must be irreducible and aperiodic so that beta_k -> 0.
    """

    P: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        P = _transition_matrix(self.P)
        pi = np.array(self.pi, dtype=float)  # a copy: the caller's array stays writeable
        if (pi.shape != (P.shape[0],) or not np.all(np.isfinite(pi)) or np.any(pi < 0)
                or abs(pi.sum() - 1.0) > 1e-12):
            raise MixingError("pi must be a probability vector over the states")
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise MixingError("pi is not stationary for P")
        P.flags.writeable = False
        pi.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)

    @property
    def states(self) -> int:
        return self.P.shape[0]

    @classmethod
    def from_transition(cls, P) -> "MarkovChain":
        """Build a chain from P alone, with pi by Grassmann-Taksar-Heyman
        elimination (Operations Research 33, 1985): censor the chain to
        states 0..k-1 for k = s-1 down to 1, routing the exits of state k to
        the lower states; then add the states back, each by the flow balance
        pi(k) W(k, :k).sum() = pi(:k) @ W(:k, k) of the censored chain.
        Only nonnegative numbers are added, multiplied and divided, and no
        ratio exceeds 1, so pi >= 0 and is exact to working precision even
        on near-reducible chains, with subnormal rates included.
        """
        W = _transition_matrix(P)
        s = W.shape[0]
        for k in range(s - 1, 0, -1):
            W[:k, :k] += np.outer(W[:k, k], W[k, :k] / W[k, :k].sum())
        pi = np.zeros(s)
        pi[0] = 1.0
        for k in range(1, s):
            pi[k] = pi[:k] @ W[:k, k]
            pi[:k] *= W[k, :k].sum()
            pi /= pi.sum()
        return cls(P=P, pi=pi)

    @classmethod
    def two_state(cls, a: float, b: float) -> "MarkovChain":
        """P = [[1-a, a], [b, 1-b]] with pi = (b, a)/(a+b)."""
        return cls(
            P=np.array([[1.0 - a, a], [b, 1.0 - b]]),
            pi=np.array([b, a]) / (a + b),
        )

    @classmethod
    def iid(cls, pi) -> "MarkovChain":
        pi = np.asarray(pi, dtype=float)
        return cls(P=np.tile(pi, (pi.size, 1)), pi=pi)

    @classmethod
    def from_json(cls, text: str) -> "MarkovChain":
        obj = json.loads(text)
        return cls.from_transition(np.asarray(obj["P"], dtype=float))

    def joint_law(self, k: int) -> "JointLaw":
        """Exact joint law of (S_0, S_k) under the stationary start."""
        if k < 1:
            raise MixingError(f"lag k must be >= 1, got {k}")
        Pk = np.linalg.matrix_power(self.P, k)
        return JointLaw(pmf=self.pi[:, None] * Pk)

    def sample_path(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n states drawn from the stationary chain."""
        return self.sample_paths(rng.random((1, n)))[0]

    def sample_paths(self, u: np.ndarray) -> np.ndarray:
        """One stationary path per row of the uniforms u, shape (paths, steps).

        The state after x is #{k <= s-2 : cumsum(P[x])[k] <= u}: the inverse
        CDF without its last column, so a row summing to just below 1 still
        ends at the last state (the first state inverts cumsum(pi) alike).
        That count depends on u only through its rank among the cut points,
        the distinct values of those columns, so each uniform is ranked once
        and every step is one lookup jump[x * W + rank] = W * (next state).
        """
        u = np.asarray(u, dtype=float)
        s = self.states
        cuts, at = np.unique(np.cumsum(self.P, axis=1)[:, :-1], return_inverse=True)
        W = cuts.size + 1
        # entry k of row x is <= u from rank at[x, k] + 1 on: count those per rank
        rises = np.repeat(np.arange(s) * W, s - 1) + at.ravel() + 1
        jump = W * np.bincount(rises, minlength=s * W).reshape(s, W).cumsum(1).ravel()
        path = np.searchsorted(cuts, u.T, side="right")
        path[0] = W * np.minimum((np.cumsum(self.pi) <= u[:, :1]).sum(1), s - 1)
        for i in range(1, path.shape[0]):
            path[i] = jump[path[i - 1] + path[i]]
        path //= W
        return path.T.copy()


@dataclass(frozen=True)
class JointLaw:
    """Joint pmf of a pair of finite random variables."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.array(self.pmf, dtype=float)  # a copy: the caller's array stays writeable
        if pmf.ndim != 2:
            raise MixingError(f"pmf must be 2-D, got shape {pmf.shape}")
        if not np.all(np.isfinite(pmf) & (pmf >= 0)) or abs(pmf.sum() - 1.0) > 1e-12:
            raise MixingError("pmf must be finite, nonnegative, with total mass 1")
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def x_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def y_marginal(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


def beta_from_joint(joint: JointLaw) -> float:
    """beta(sigma(X), sigma(Y)) = 1/2 sum |p(x,y) - p(x) q(y)|, in [0, 1]."""
    prod = np.outer(joint.x_marginal, joint.y_marginal)
    return float(0.5 * np.abs(joint.pmf - prod).sum())


def beta_k_exact(chain: MarkovChain, k: int) -> float:
    """beta_k of a stationary chain: sum_x pi(x) * TV(P^k(x, .), pi)."""
    if k < 1:
        raise MixingError(f"lag k must be >= 1, got {k}")
    Pk = np.linalg.matrix_power(chain.P, k)
    return float(chain.pi @ (0.5 * np.abs(Pk - chain.pi[None, :]).sum(axis=1)))


def dbar(Pk: np.ndarray) -> float:
    """d̄(k) = max_{x,y} TV(P^k(x, .), P^k(y, .)), given the k-step matrix P^k.

    It bounds TV(P^k(x, .), pi) for every x and is submultiplicative,
    d̄(j + k) <= d̄(j) d̄(k) (Levin, Peres & Wilmer, Markov Chains and Mixing
    Times, section 4.4); a primitive chain has d̄(k) < 1 from Wielandt's
    exponent (s-1)^2 + 1 on.
    """
    Pk = np.asarray(Pk, dtype=float)
    return float(0.5 * np.abs(Pk[:, None, :] - Pk[None, :, :]).sum(axis=2).max())


def fit_geometric_rate(chain: MarkovChain, k_max: int) -> float:
    """Largest c with beta_k <= e^{-c(k-1)} on k = 2..k_max:
    c = min_k -log(beta_k) / (k-1).  Lags with beta_k below 1e-300 are
    treated as infinitely fast and skipped; an all-zero profile returns
    the ceiling 1e6 (iid case)."""
    if k_max < 2:
        raise MixingError(f"k_max must be >= 2, got {k_max}")
    rates = []
    for k in range(2, k_max + 1):
        bk = beta_k_exact(chain, k)
        if bk >= 1.0:
            raise MixingError(f"beta_{k} >= 1: no valid geometric rate")
        if bk > 1e-300:
            rates.append(-math.log(bk) / (k - 1))
    if not rates:
        return RATE_CEILING
    return min(min(rates), RATE_CEILING)


class BerbeeCoupler:
    """Seeded sampler of triples (X, Y, Ystar) for a finite joint law.

    (X, Y) has the given joint law; Ystar has the Y marginal, is
    independent of X, and P(Y != Ystar) equals the beta coefficient of
    the joint law.  Construction: for every x, the conditional law of Y
    given X = x is maximally coupled with the Y marginal q (Levin, Peres &
    Wilmer, Markov Chains and Mixing Times, Prop. 4.7): Y = Ystar = y with
    mass min(p(x, y), p(x) q(y)), and otherwise Y and Ystar are drawn
    independently from the two residual laws, whose supports are disjoint.
    That is one law on the cells (x, y, ystar), sampled by one draw each.
    """

    def __init__(self, joint: JointLaw, seed: int):
        self.joint = joint
        self.rng = np.random.default_rng(seed)
        prod = np.outer(joint.x_marginal, joint.y_marginal)
        shared = np.minimum(joint.pmf, prod)
        over, under = joint.pmf - shared, prod - shared
        mass = over.sum(axis=1, keepdims=True)  # P(X = x, Y != Ystar); where 0, over is 0 too
        law = (shared[:, :, None] * np.eye(shared.shape[1])
               + over[:, :, None] * (under / np.where(mass > 0, mass, 1.0))[:, None, :])
        self._shape = law.shape
        cum = np.cumsum(law)
        # ends at 1 exactly, so every draw u < 1 lands on a cell of positive mass
        self._cum = cum / cum[-1]

    def sample(self, size: int):
        """Draw `size` triples; returns arrays (X, Y, Ystar)."""
        cell = np.searchsorted(self._cum, self.rng.random(size), side="right")
        return np.unravel_index(cell, self._shape)


def berbee_coupling(joint: JointLaw, seed: int) -> BerbeeCoupler:
    return BerbeeCoupler(joint, seed)


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
