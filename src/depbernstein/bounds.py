"""Closed-form deviation bounds for sums of geometrically beta-mixing
self-adjoint random matrices, plus a certified optimized Chernoff tail bound.

All functions are pure and deterministic.  The certified tail bound needs
no unspecified universal constant: it is the exact minimum of the explicit
log-Laplace majorant exp(-t x + gamma_n(t)) over its validity interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cantor import decomposition_depth

LOG2 = math.log(2.0)


class BoundDomainError(ValueError):
    """A bound was evaluated outside its validity domain."""


@dataclass(frozen=True)
class BernsteinInputs:
    """Parameter bundle (n, d, M, v, c) shared by every bound formula.

    n: number of summands; d: matrix dimension; M: a.s. bound on
    lambda_max of each summand; v: variance proxy; c: geometric mixing
    rate in beta_k <= e^{-c(k-1)}.
    """

    n: int
    d: int
    M: float
    v: float
    c: float

    def __post_init__(self):
        if self.n < 2:
            raise BoundDomainError(f"need n >= 2, got {self.n}")
        if self.d < 1:
            raise BoundDomainError(f"need d >= 1, got {self.d}")
        if not (self.M > 0 and math.isfinite(self.M)):
            raise BoundDomainError(f"need M > 0 finite, got {self.M}")
        if not (self.v >= 0 and math.isfinite(self.v)):
            raise BoundDomainError(f"need v >= 0 finite, got {self.v}")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise BoundDomainError(f"need c > 0 finite, got {self.c}")


@dataclass(frozen=True)
class SigmaKappaPair:
    """One (sigma_i, kappa_i) term of the log-Laplace combiner; the
    associated majorant is (sigma*t)^2 / (1 - kappa*t) on [0, 1/kappa)."""

    sigma: float
    kappa: float


def g(x: float) -> float:
    """g(x) = (e^x - x - 1) / x^2; increasing, with g(0+) = 1/2.

    Small arguments use the Taylor series to avoid catastrophic
    cancellation.
    """
    if x <= 0:
        raise BoundDomainError(f"g needs x > 0, got {x}")
    if x <= 1e-4:
        return 0.5 + x / 6.0 + x * x / 24.0
    return (math.exp(x) - x - 1.0) / (x * x)


def tropp_log_laplace(t: float, B: float, variance_stat: float, d: int) -> float:
    """log of the independent-sum master bound:
    log d + t^2 g(tB) * lambda_max(sum_k E U_k^2)."""
    if t <= 0 or B <= 0:
        raise BoundDomainError("tropp_log_laplace needs t > 0 and B > 0")
    if variance_stat < 0:
        raise BoundDomainError("variance_stat must be >= 0")
    return math.log(d) + t * t * g(t * B) * variance_stat


def combine_sigma_kappa(pairs) -> SigmaKappaPair:
    """Componentwise sums: the combined majorant (sigma t)^2/(1 - kappa t)
    is valid on t < 1/kappa with sigma, kappa the respective sums."""
    pairs = list(pairs)
    if not pairs:
        raise BoundDomainError("need at least one pair")
    return SigmaKappaPair(
        sigma=sum(p.sigma for p in pairs), kappa=sum(p.kappa for p in pairs)
    )


def split_weight(pair0: SigmaKappaPair, pair1: SigmaKappaPair, t: float) -> float:
    """The interpolation weight u_t = (sigma_0/sigma)(1 - kappa t) + kappa_0 t
    used when two majorants are merged via trace-Hoelder; lies in (0, 1)."""
    combined = combine_sigma_kappa([pair0, pair1])
    t_max = 1.0 / combined.kappa if combined.kappa > 0 else math.inf
    if not 0.0 <= t < t_max:
        raise BoundDomainError("t outside the combined validity domain")
    return (pair0.sigma / combined.sigma) * (1.0 - combined.kappa * t) + pair0.kappa * t


def gamma_majorant(pair: SigmaKappaPair, t: float) -> float:
    """(sigma t)^2 / (1 - kappa t), infinite at or beyond t = 1/kappa."""
    if t < 0:
        raise BoundDomainError("t must be >= 0")
    if pair.kappa > 0 and t >= 1.0 / pair.kappa:
        return math.inf
    return (pair.sigma * t) ** 2 / (1.0 - pair.kappa * t)


def gamma_cn(c: float, n: int) -> float:
    """gamma(c, n) = (log n / log 2) * max(2, 32 log n / (c log 2))."""
    if c <= 0 or n < 2:
        raise BoundDomainError("gamma_cn needs c > 0 and n >= 2")
    ln = math.log(n)
    return (ln / LOG2) * max(2.0, 32.0 * ln / (c * LOG2))


def h(c: float, x: float) -> float:
    """h(c, x) = min(1/2, c log 2 / (32 log x)), for x > 1."""
    if x <= 1:
        raise BoundDomainError(f"h needs x > 1, got {x}")
    if c <= 0:
        raise BoundDomainError(f"h needs c > 0, got {c}")
    return min(0.5, c * LOG2 / (32.0 * math.log(x)))


def prop1_log_laplace(t: float, A: int, inputs: BernsteinInputs) -> float:
    """Log-Laplace majorant of the partial sum on the kept Cantor set of
    {1..A}: log d + 4*3.1 t^2 A v^2 + (9 (tM)^2 / c) e^{-3c/(32 tM)}.

    Valid for t M <= min(1/2, c log 2 / (32 log A)).
    """
    if A < 2:
        raise BoundDomainError(f"need A >= 2, got {A}")
    if t <= 0:
        raise BoundDomainError(f"need t > 0, got {t}")
    tm = t * inputs.M
    cap = min(0.5, inputs.c * LOG2 / (32.0 * math.log(A)))
    if tm > cap:
        raise BoundDomainError(
            f"t*M = {tm:.6g} exceeds min(1/2, c log2/(32 log A)) = {cap:.6g}"
        )
    return (
        math.log(inputs.d)
        + 4.0 * 3.1 * t * t * A * inputs.v ** 2
        + (9.0 * tm * tm / inputs.c) * math.exp(-3.0 * inputs.c / (32.0 * tm))
    )


def sigma_kappa_schedule(inputs: BernsteinInputs):
    """The per-level (sigma_i, kappa_i) pairs of the recursive decomposition:

        sigma_i = 2 sqrt(n/2^i) (2v + sqrt(3) 2^i M / (n sqrt(c)))
        kappa_i = M / h(c, n/2^i)          for i = 0 .. L-1,

    plus the terminal pair (v sqrt(2), M).  The sums are checked against
    their ceilings, `schedule_ceiling(inputs)`.
    """
    n, M, v, c = inputs.n, inputs.M, inputs.v, inputs.c
    L = decomposition_depth(n)
    pairs = []
    for i in range(L):
        x = n / 2.0 ** i
        sigma_i = 2.0 * math.sqrt(x) * (2.0 * v + math.sqrt(3.0) * (2.0 ** i) * M / (n * math.sqrt(c)))
        pairs.append(SigmaKappaPair(sigma=sigma_i, kappa=M / h(c, x)))
    pairs.append(SigmaKappaPair(sigma=v * math.sqrt(2.0), kappa=M))
    total, ceiling = combine_sigma_kappa(pairs), schedule_ceiling(inputs)
    if not total.sigma <= ceiling.sigma:
        raise BoundDomainError(f"sum sigma {total.sigma!r} exceeds its ceiling {ceiling.sigma!r}")
    if not total.kappa <= ceiling.kappa:
        raise BoundDomainError(f"sum kappa {total.kappa!r} exceeds its ceiling {ceiling.kappa!r}")
    return pairs


def schedule_ceiling(inputs: BernsteinInputs) -> SigmaKappaPair:
    """The ceilings of the schedule's sums: sum(sigma) <= 15 sqrt(n) v + 2 M/sqrt(c)
    and sum(kappa) <= M gamma(c, n)."""
    n, M, v, c = inputs.n, inputs.M, inputs.v, inputs.c
    return SigmaKappaPair(sigma=15.0 * math.sqrt(n) * v + 2.0 * M / math.sqrt(c),
                          kappa=M * gamma_cn(c, n))


def _majorant_coefficients(inputs: BernsteinInputs):
    """(a, b) with gamma_n(t) = log d + a t^2 / (1 - b t):
    a = n (15v + 2M/sqrt(cn))^2 and b = M gamma(c, n)."""
    sigma = 15.0 * inputs.v + 2.0 * inputs.M / math.sqrt(inputs.c * inputs.n)
    return inputs.n * sigma * sigma, inputs.M * gamma_cn(inputs.c, inputs.n)


def master_log_laplace(t: float, inputs: BernsteinInputs) -> float:
    """gamma_n(t) = log d + t^2 n (15v + 2M/sqrt(cn))^2 / (1 - t M gamma(c,n)),
    valid for t M < 1/gamma(c, n)."""
    if t < 0:
        raise BoundDomainError(f"need t >= 0, got {t}")
    a, b = _majorant_coefficients(inputs)
    if t * b >= 1.0:
        raise BoundDomainError(
            f"t*M = {t * inputs.M:.6g} not below 1/gamma(c,n) = {inputs.M / b:.6g}"
        )
    return math.log(inputs.d) + a * t * t / (1.0 - b * t)


def log_tail_bound_certified(x: float, inputs: BernsteinInputs):
    """log of inf_t exp(-t x + gamma_n(t)) over t in (0, 1/(M gamma(c,n))),
    in closed form (classical Bernstein; Tropp 2012).

    The minimizer is t* = (1 - sqrt(a/(a+bx)))/b and the minimum is
    log d - (sqrt(a+bx) - sqrt(a))^2 / b^2; both are evaluated in the
    equivalent forms below, which have no cancellation.  The log bound
    stays finite where its exponential underflows to 0.
    Returns (log_bound, t_star).
    """
    if x <= 0:
        raise BoundDomainError(f"need x > 0, got {x}")
    a, b = _majorant_coefficients(inputs)
    root_sum = math.sqrt(a + b * x) + math.sqrt(a)
    t_star = x / (math.sqrt(a + b * x) * root_sum)
    return math.log(inputs.d) - (x / root_sum) ** 2, t_star


def tail_bound_certified(x: float, inputs: BernsteinInputs):
    """Optimized Chernoff bound inf_t exp(-t x + gamma_n(t)) over the
    validity interval t in (0, 1/(M gamma(c,n))), capped at d.

    Returns (bound, t_star); see log_tail_bound_certified.
    """
    log_bound, t_star = log_tail_bound_certified(x, inputs)
    return min(float(inputs.d), math.exp(log_bound)), t_star


def theorem1_form(x: float, inputs: BernsteinInputs, C: float) -> float:
    """The headline closed form d exp(-C x^2 / (v^2 n + M^2/c + x M gamma(c,n)))
    for a user-supplied constant C (shape studies only; nothing is certified
    about any particular C)."""
    if C <= 0:
        raise BoundDomainError(f"need C > 0, got {C}")
    if x < 0:
        raise BoundDomainError(f"need x >= 0, got {x}")
    denom = (
        inputs.v ** 2 * inputs.n
        + inputs.M ** 2 / inputs.c
        + x * inputs.M * gamma_cn(inputs.c, inputs.n)
    )
    return inputs.d * math.exp(-C * x * x / denom)


def expectation_bound(inputs: BernsteinInputs) -> float:
    """E lambda_max majorant: 30 v sqrt(n log d) + 4 M sqrt(log d / c)
    + M gamma(c, n) log d.  Degenerates to 0 at d = 1 (log d = 0); scalar
    users should integrate the tail bound instead."""
    if inputs.d == 1:
        return 0.0
    ld = math.log(inputs.d)
    return (
        30.0 * inputs.v * math.sqrt(inputs.n * ld)
        + 4.0 * inputs.M * math.sqrt(ld) / math.sqrt(inputs.c)
        + inputs.M * gamma_cn(inputs.c, inputs.n) * ld
    )


def corollary1_bound(x: float, n: int, d: int, M: float, Etau2: float, C: float) -> float:
    """Contraction-model tail shape
    d exp(-C x^2 / (n M^2 E(tau^2) + M^2 + x M (log n)^2)), using the
    variance-proxy ceiling v^2 <= M^2 E(tau^2)."""
    if not 0.0 <= Etau2 <= 1.0:
        raise BoundDomainError(f"E(tau^2) must be in [0,1], got {Etau2}")
    if C <= 0 or M <= 0 or n < 2 or d < 1 or x < 0:
        raise BoundDomainError("invalid corollary parameters")
    denom = n * M * M * Etau2 + M * M + x * M * math.log(n) ** 2
    return d * math.exp(-C * x * x / denom)


def covariance_mixing_bound(beta: float, minf_1: float, minf_2: float) -> float:
    """Conservative covariance bound for bounded variables under beta-mixing:
    |Cov(f, g)| <= 4 beta ||f||_inf ||g||_inf (valid since alpha <= beta)."""
    if not 0.0 <= beta <= 1.0:
        raise BoundDomainError(f"beta must be in [0,1], got {beta}")
    if minf_1 < 0 or minf_2 < 0:
        raise BoundDomainError("sup-norm bounds must be >= 0")
    return 4.0 * beta * minf_1 * minf_2
