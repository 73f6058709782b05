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
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise MixingError(f"P must be square with >= 2 states, got {P.shape}")
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise MixingError("P rows must be nonnegative and sum to 1")
        # primitive iff P^k > 0 at Wielandt's exponent k = (s-1)^2 + 1
        if not np.all(np.linalg.matrix_power(P > 0, (P.shape[0] - 1) ** 2 + 1)):
            raise MixingError("chain must be irreducible and aperiodic")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (P.shape[0],) or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
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
        """Build a chain from P alone, solving for the stationary law."""
        P = np.asarray(P, dtype=float)
        w, v = np.linalg.eig(P.T)
        idx = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(v[:, idx])
        pi = np.abs(pi) / np.abs(pi).sum()
        # polish with one power iteration sweep for tight stationarity
        for _ in range(10):
            pi = pi @ P
            pi = pi / pi.sum()
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

        Every row is stepped at once by inverting the cumulative rows of P
        (searchsorted with side="right").  The index is clipped to the last
        state because a cumulative row can sum to just below 1.
        """
        u = np.asarray(u, dtype=float)
        cum = np.cumsum(self.P, axis=1)
        last = self.states - 1
        path = np.empty(u.shape, dtype=np.int64)
        path[:, 0] = np.minimum((np.cumsum(self.pi) <= u[:, :1]).sum(1), last)
        for i in range(1, u.shape[1]):
            path[:, i] = np.minimum((cum[path[:, i - 1]] <= u[:, i, None]).sum(1), last)
        return path


@dataclass(frozen=True)
class JointLaw:
    """Joint pmf of a pair of finite random variables."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 2:
            raise MixingError(f"pmf must be 2-D, got shape {pmf.shape}")
        if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-12:
            raise MixingError("pmf must be nonnegative with total mass 1")
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
    given X = x is maximally coupled with the Y marginal (shared mass
    first, residuals paired in state order).
    """

    def __init__(self, joint: JointLaw, seed: int):
        if joint.pmf.sum() <= 0 or np.any(joint.x_marginal <= 0):
            raise MixingError("joint law must give positive mass to every x")
        self.joint = joint
        self.rng = np.random.default_rng(seed)
        px = joint.x_marginal
        q = joint.y_marginal
        cond = joint.pmf / px[:, None]          # conditional law of Y given X = x
        shared = np.minimum(cond, q[None, :])
        self._px_cum = np.cumsum(px)
        self._omega = shared.sum(axis=1)        # P(Y == Ystar | X = x)
        with np.errstate(invalid="ignore", divide="ignore"):
            self._shared_cum = np.cumsum(
                np.where(self._omega[:, None] > 0, shared / np.where(
                    self._omega[:, None] > 0, self._omega[:, None], 1.0), 0.0),
                axis=1,
            )
            res_mass = 1.0 - self._omega
            res_y = np.where(res_mass[:, None] > 0,
                             (cond - shared) / np.where(res_mass[:, None] > 0,
                                                        res_mass[:, None], 1.0), 0.0)
            res_ystar = np.where(res_mass[:, None] > 0,
                                 (q[None, :] - shared) / np.where(
                                     res_mass[:, None] > 0, res_mass[:, None], 1.0), 0.0)
        self._res_y_cum = np.cumsum(res_y, axis=1)
        self._res_ystar_cum = np.cumsum(res_ystar, axis=1)

    def sample(self, size: int):
        """Draw `size` triples; returns arrays (X, Y, Ystar)."""
        rng = self.rng
        x = np.searchsorted(self._px_cum, rng.random(size), side="right")
        u = rng.random(size)
        agree = u < self._omega[x]
        uy = rng.random(size)
        y = np.empty(size, dtype=np.int64)
        ystar = np.empty(size, dtype=np.int64)
        # shared-mass draws: Y == Ystar
        idx = np.flatnonzero(agree)
        y[idx] = _row_searchsorted(self._shared_cum, x[idx], uy[idx])
        ystar[idx] = y[idx]
        # residual draws: Y and Ystar from the paired residual laws
        idx = np.flatnonzero(~agree)
        y[idx] = _row_searchsorted(self._res_y_cum, x[idx], uy[idx])
        ystar[idx] = _row_searchsorted(self._res_ystar_cum, x[idx], rng.random(idx.size))
        return x, y, ystar


def berbee_coupling(joint: JointLaw, seed: int) -> BerbeeCoupler:
    return BerbeeCoupler(joint, seed)


def _row_searchsorted(cum_rows: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.empty(rows.size, dtype=np.int64)
    for r in np.unique(rows):
        mask = rows == r
        out[mask] = np.searchsorted(cum_rows[r], u[mask], side="right")
    return np.minimum(out, cum_rows.shape[1] - 1)
