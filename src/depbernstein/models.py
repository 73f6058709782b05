"""Simulators for the example matrix models and the Monte-Carlo harness.

Two dependent models are shipped, plus an iid baseline:

  contraction       X_i = tau(S_i) * eps_i * D, a chain-driven contraction
                    of a fixed symmetric matrix D with an iid fair sign;
  block_covariance  X_i = C_i C_i^T - E(C_i C_i^T) where C_i stacks d
                    consecutive chain-driven bounded scalars;
  iid_baseline      X_i = eps_i * D with iid fair signs.

Every trial draws its own RNG stream from (seed, trial index), so results
are reproducible independently of execution order, worker count or the
size of the trial chunks that are sampled together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import beta as _beta_dist

from . import bounds as _bounds
from .mixing import MarkovChain, fit_geometric_rate
from .spectral import SymMatrix

SCHEMA = "depbernstein/1"
_CHUNK = 64  # trials sampled together; no result depends on it


class ModelError(ValueError):
    """Invalid model specification or experiment parameter."""


@dataclass(frozen=True)
class ModelSpec:
    """Specification of a simulated matrix model.

    For contraction/iid kinds, D is the fixed symmetric template matrix
    (spectral radius <= M); tau_map gives tau as a function of the hidden
    state and must have sup-norm <= 1.  For block_covariance, value_map
    gives the bounded scalar as a function of the state (centered
    internally) and d consecutive scalars form one block.
    """

    kind: str
    d: int
    chain: MarkovChain
    D: Optional[np.ndarray] = None
    tau_map: Optional[np.ndarray] = None
    value_map: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("contraction", "block_covariance", "iid_baseline"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.d < 1:
            raise ModelError(f"need d >= 1, got {self.d}")
        if self.kind in ("contraction", "iid_baseline"):
            if self.D is None:
                raise ModelError(f"{self.kind} model needs the template matrix D")
            D = SymMatrix(np.asarray(self.D, dtype=float)).entries
            if D.shape[0] != self.d:
                raise ModelError("D dimension does not match d")
            object.__setattr__(self, "D", D)
        if self.kind == "contraction":
            if self.tau_map is None:
                raise ModelError("contraction model needs tau_map")
            tau = np.asarray(self.tau_map, dtype=float)
            if tau.shape != (self.chain.states,):
                raise ModelError("tau_map must have one value per chain state")
            if np.max(np.abs(tau)) > 1.0 + 1e-12:
                raise ModelError("need |tau| <= 1")
            tau.flags.writeable = False
            object.__setattr__(self, "tau_map", tau)
        if self.kind == "block_covariance":
            if self.value_map is None:
                raise ModelError("block_covariance model needs value_map")
            vals = np.asarray(self.value_map, dtype=float)
            if vals.shape != (self.chain.states,):
                raise ModelError("value_map must have one value per chain state")
            vals.flags.writeable = False
            object.__setattr__(self, "value_map", vals)

    @property
    def M(self) -> float:
        """Almost-sure ceiling on lambda_max of one summand."""
        if self.kind in ("contraction", "iid_baseline"):
            return float(np.max(np.abs(np.linalg.eigvalsh(self.D))))
        m0 = float(np.max(np.abs(self.centered_values)))
        return self.d * m0 * m0

    @property
    def centered_values(self) -> np.ndarray:
        """value_map minus its stationary mean (block model only)."""
        if self.kind != "block_covariance":
            raise ModelError("centered_values applies to the block model only")
        return self.value_map - float(self.chain.pi @ self.value_map)

    def digest(self) -> dict:
        out = {"kind": self.kind, "d": self.d,
               "P": self.chain.P.tolist(), "pi": self.chain.pi.tolist()}
        if self.D is not None:
            out["D"] = self.D.tolist()
        if self.tau_map is not None:
            out["tau_map"] = self.tau_map.tolist()
        if self.value_map is not None:
            out["value_map"] = self.value_map.tolist()
        return out


def block_covariance_mean(spec: ModelSpec) -> np.ndarray:
    """Exact E(C C^T): entry (a, b) is the stationary autocovariance of the
    centered scalar at lag |a - b|, computed from (pi, P)."""
    vals = spec.centered_values
    cov = np.empty((spec.d, spec.d))
    for lag in range(spec.d):
        if lag == 0:
            c = float(spec.chain.pi @ (vals * vals))
        else:
            Pk = np.linalg.matrix_power(spec.chain.P, lag)
            c = float(vals @ (spec.chain.pi[:, None] * Pk) @ vals)
        for a in range(spec.d - lag):
            cov[a, a + lag] = cov[a + lag, a] = c
    return cov


def _draw(spec: ModelSpec, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The random part of trials lo..hi-1, each from its own stream (seed, t).

    A trial draws its path uniforms first, then its signs.  Returns the
    (trials, n) coefficients c of the summands c * D for the contraction/iid
    models, or the (trials, n, d) centered rows C_i for the block model.
    """
    rngs = [np.random.default_rng([seed, t]) for t in range(lo, hi)]
    if spec.kind == "iid_baseline":
        return np.array([r.integers(0, 2, n) * 2 - 1 for r in rngs], dtype=float)
    steps = n if spec.kind == "contraction" else n * spec.d
    path = spec.chain.sample_paths(np.array([r.random(steps) for r in rngs]))
    if spec.kind == "block_covariance":
        return spec.centered_values[path].reshape(hi - lo, n, spec.d)
    eps = np.array([r.integers(0, 2, n) * 2 - 1 for r in rngs])
    return spec.tau_map[path] * eps


def _summands(spec: ModelSpec, draws: np.ndarray) -> np.ndarray:
    """The summands X_i of each drawn trial, shape (trials, n, d, d)."""
    if spec.kind == "block_covariance":
        return np.einsum("tia,tib->tiab", draws, draws) - block_covariance_mean(spec)
    return draws[:, :, None, None] * spec.D


def _chunks(trials: int):
    return [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]


def simulate_summands(spec: ModelSpec, n: int, seed: int):
    """One stationary path of n summands X_i as SymMatrix."""
    return [SymMatrix(x) for x in _summands(spec, _draw(spec, n, seed, 0, 1))[0]]


def v2_exact_contraction(spec: ModelSpec) -> float:
    """Closed-form variance proxy of the contraction/iid model.

    Independent fair signs kill every cross term, so for any index set K
    E(sum_K X_i)^2 = |K| E(tau^2) D^2 and the subset sup is trivial:
    v^2 = E(tau^2) lambda_max(D^2).
    """
    if spec.kind == "iid_baseline":
        etau2 = 1.0
    elif spec.kind == "contraction":
        etau2 = float(spec.chain.pi @ (spec.tau_map ** 2))
    else:
        raise ModelError("exact variance proxy is only available for the "
                         "contraction/iid models")
    return etau2 * float(np.max(np.linalg.eigvalsh(spec.D @ spec.D)))


@dataclass(frozen=True)
class V2Estimate:
    value: float
    stderr: float = 0.0


def _pairwise_moments_exact(spec: ModelSpec, n: int) -> np.ndarray:
    """G[i, j] = E(X_i X_j) for the contraction/iid models, exactly.

    E(X_i X_j) = E(tau_i tau_j) E(eps_i eps_j) D^2; the sign factor is
    delta_{ij}, the tau factor comes from pi and P^{|i-j|}.
    """
    D2 = spec.D @ spec.D
    G = np.zeros((n, n, spec.d, spec.d))
    if spec.kind == "iid_baseline":
        etau2 = 1.0
    else:
        etau2 = float(spec.chain.pi @ (spec.tau_map ** 2))
    for i in range(n):
        G[i, i] = etau2 * D2
    return G


def _pairwise_moments_mc(spec: ModelSpec, n: int, trials: int, seed: int):
    """MC estimate of G[i, j] = E(X_i X_j + X_j X_i)/2 with per-entry stderr."""
    acc = np.zeros((n, n, spec.d, spec.d))
    acc2 = np.zeros((n, n, spec.d, spec.d))
    for lo, hi in _chunks(trials):
        mats = _summands(spec, _draw(spec, n, seed, lo, hi))
        prod = np.einsum("tiab,tjbc->tijac", mats, mats)
        sym = (prod + prod.transpose(0, 2, 1, 3, 4)) / 2.0
        # trial after trial, so that the sums do not depend on the chunking
        acc = sum(sym, acc)
        acc2 = sum(sym * sym, acc2)
    mean = acc / trials
    var = np.maximum(acc2 / trials - mean * mean, 0.0)
    return mean, np.sqrt(var / trials)


def _subset_sup(G: np.ndarray, subsets) -> float:
    best = -math.inf
    for K in subsets:
        K = list(K)
        S = G[np.ix_(K, K)].sum(axis=(0, 1))
        S = (S + S.T) / 2.0
        best = max(best, float(np.max(np.linalg.eigvalsh(S))) / len(K))
    return best


def v2_bruteforce(spec: ModelSpec, n: int, mode: str = "exact",
                  trials: int = 2000, seed: int = 0) -> V2Estimate:
    """The variance proxy by exhaustive enumeration of all 2^n - 1 subsets.

    mode="exact" uses exact pairwise second moments (contraction/iid);
    mode="mc" estimates them by Monte Carlo and reports a standard error.
    """
    if n > 20:
        raise ModelError(f"subset enumeration is capped at n = 20, got {n}")
    if n < 1:
        raise ModelError(f"need n >= 1, got {n}")
    subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n)]
    if mode == "exact":
        G = _pairwise_moments_exact(spec, n)
        return V2Estimate(value=_subset_sup(G, subsets))
    if mode != "mc":
        raise ModelError(f"unknown mode {mode!r}")
    G, G_err = _pairwise_moments_mc(spec, n, trials, seed)
    # stderr of the sup via the entrywise error of the argmax subset sum
    value = _subset_sup(G, subsets)
    stderr = float(np.max(G_err)) * n  # crude but conservative for small n
    return V2Estimate(value=value, stderr=stderr)


def v2_interval_estimate(spec: ModelSpec, n: int, trials: int, seed: int) -> V2Estimate:
    """The subset sup restricted to contiguous intervals, by Monte Carlo.

    A lower bound of the unrestricted sup; value and standard error refer
    to the interval attaining the max.
    """
    if trials < 2:
        raise ModelError("need at least 2 trials")
    sums = np.cumsum(_summands(spec, _draw(spec, n, seed, 0, trials)), axis=1)
    best, best_err = -math.inf, 0.0
    zero = np.zeros((spec.d, spec.d))
    for a in range(n):
        for b in range(a, n):
            seg = sums[:, b] - (sums[:, a - 1] if a > 0 else zero)
            sq = np.einsum("tab,tbc->tac", seg, seg)
            m = sq.mean(axis=0)
            lam = float(np.max(np.linalg.eigvalsh((m + m.T) / 2.0))) / (b - a + 1)
            if lam > best:
                se = float(np.max(sq.std(axis=0, ddof=1))) / math.sqrt(trials) / (b - a + 1)
                best, best_err = lam, se * spec.d
    return V2Estimate(value=best, stderr=best_err)


def clopper_pearson(k: int, n: int, conf: float = 0.99):
    """Exact (conservative) binomial confidence interval for k successes in n."""
    alpha = 1.0 - conf
    lo = 0.0 if k == 0 else float(_beta_dist.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(_beta_dist.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


def bernstein_inputs_for(spec: ModelSpec, n: int, k_max: int = 50,
                         v2: Optional[V2Estimate] = None) -> _bounds.BernsteinInputs:
    """Assemble (n, d, M, v, c) for a model: v from the exact proxy when
    available (MC estimates are inflated by 3 standard errors), c fitted
    from the chain's exact beta profile."""
    if v2 is None:
        v = math.sqrt(v2_exact_contraction(spec)) if spec.kind != "block_covariance" \
            else None
        if v is None:
            est = v2_interval_estimate(spec, min(n, 12), trials=2000, seed=1)
            v = math.sqrt(est.value + 3.0 * est.stderr)
    else:
        v = math.sqrt(v2.value + 3.0 * v2.stderr)
    c = fit_geometric_rate(spec.chain, k_max)
    return _bounds.BernsteinInputs(n=n, d=spec.d, M=spec.M, v=v, c=c)


def _chunk_eigs(args) -> np.ndarray:
    """Ascending eigenvalues of the partial sum of each trial in one chunk."""
    spec, n, seed, lo, hi = args
    draws = _draw(spec, n, seed, lo, hi)
    if spec.kind == "block_covariance":
        S = draws.transpose(0, 2, 1) @ draws - n * block_covariance_mean(spec)
    else:
        S = draws.sum(axis=1)[:, None, None] * spec.D
    return np.linalg.eigvalsh((S + S.transpose(0, 2, 1)) / 2.0)


def _partial_sum_eigs(spec: ModelSpec, n: int, trials: int, seed: int,
                      workers: int = 1) -> np.ndarray:
    """Ascending eigenvalues of the partial sum, one row per trial.  Trials
    run in fixed chunks, mapped through a process pool when workers > 1;
    trial t always uses the RNG stream (seed, t)."""
    if n < 1 or trials < 2:
        raise ModelError(f"need n >= 1 and trials >= 2, got n={n}, trials={trials}")
    chunks = [(spec, n, seed, lo, hi) for lo, hi in _chunks(trials)]
    if workers <= 1:
        return np.concatenate(list(map(_chunk_eigs, chunks)))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(_chunk_eigs, chunks)))


@dataclass(frozen=True)
class TrialReport:
    """Per-experiment record: samples, empirical tail with intervals and
    the certified bound curve, plus full provenance."""

    model: dict
    n: int
    trials: int
    seed: int
    inputs: dict
    lambda_max_samples: list
    tail_grid: list = field(default_factory=list)   # (x, p_hat, lo, hi)
    bound_curve: list = field(default_factory=list)  # (x, certified_bound)
    mean_lambda_max: float = 0.0
    mean_stderr: float = 0.0

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "model": self.model,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "inputs": self.inputs,
            "mean_lambda_max": self.mean_lambda_max,
            "mean_stderr": self.mean_stderr,
            "tail_grid": self.tail_grid,
            "bound_curve": self.bound_curve,
            "lambda_max_samples": self.lambda_max_samples,
        }
        return json.dumps(payload, sort_keys=True)


def run_tail_experiment(spec: ModelSpec, n: int, trials: int, x_grid,
                        seed: int, conf: float = 0.99,
                        inputs: Optional[_bounds.BernsteinInputs] = None,
                        workers: int = 1) -> TrialReport:
    """Empirical tail of lambda_max of the partial sum on a grid, with
    exact binomial intervals, against the certified optimized bound."""
    if trials < 100:
        raise ModelError(f"need trials >= 100, got {trials}")
    x_grid = [float(x) for x in x_grid]
    if not x_grid or any(not math.isfinite(x) for x in x_grid):
        raise ModelError("invalid x grid")
    samples = _partial_sum_eigs(spec, n, trials, seed, workers)[:, -1]
    if inputs is None:
        inputs = bernstein_inputs_for(spec, n)
    tail, curve = [], []
    for x in x_grid:
        k = int(np.sum(samples >= x))
        lo, hi = clopper_pearson(k, trials, conf)
        tail.append((x, k / trials, lo, hi))
        b = _bounds.tail_bound_certified(x, inputs)[0] if x > 0 else float(inputs.d)
        curve.append((x, b))
    return TrialReport(
        model=spec.digest(), n=n, trials=trials, seed=seed,
        inputs={"n": inputs.n, "d": inputs.d, "M": inputs.M,
                "v": inputs.v, "c": inputs.c},
        lambda_max_samples=samples.tolist(),
        tail_grid=tail, bound_curve=curve,
        mean_lambda_max=float(samples.mean()),
        mean_stderr=float(samples.std(ddof=1) / math.sqrt(trials)),
    )


def empirical_laplace(spec: ModelSpec, n: int, t_grid, trials: int, seed: int):
    """MC estimate of E Tr exp(t * partial sum) on a t grid.

    Returns a list of (t, estimate, stderr).  The grid must satisfy
    t*n*M <= 50 to keep exp() well inside double range.
    """
    t_grid = [float(t) for t in t_grid]
    M = spec.M
    if any(t * n * M > 50.0 for t in t_grid):
        raise ModelError("t*n*M exceeds the overflow guard (50)")
    eigs = _partial_sum_eigs(spec, n, trials, seed)
    out = []
    for t in t_grid:
        vals = np.exp(t * eigs).sum(axis=1)
        out.append((t, float(vals.mean()),
                    float(vals.std(ddof=1) / math.sqrt(trials))))
    return out


def run_expectation_experiment(spec: ModelSpec, n: int, trials: int, seed: int,
                               inputs: Optional[_bounds.BernsteinInputs] = None):
    """MC mean of lambda_max of the partial sum against the closed-form
    expectation ceiling.  Returns (mean, stderr, bound)."""
    if spec.d < 2:
        raise ModelError("expectation experiment needs d >= 2")
    samples = _partial_sum_eigs(spec, n, trials, seed)[:, -1]
    if inputs is None:
        inputs = bernstein_inputs_for(spec, n)
    bound = _bounds.expectation_bound(inputs)
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(trials)), bound
