"""Closed-form deviation bounds for sums of geometrically beta-mixing
self-adjoint random matrices, plus a certified optimized Chernoff tail bound.

All functions are pure and deterministic.  The certified tail bound needs
no unspecified universal constant: it is the exact minimum of the explicit
log-Laplace majorant exp(-t x + gamma_n(t)) over its validity interval.

Every closed form (gamma_cn, h, the majorant, the tail and expectation
bounds, the split weight, the (sigma, kappa) schedule) broadcasts: x, t and
the fields of BernsteinInputs may be scalars or numpy arrays that broadcast
together, and one code path serves both.  Two arguments stay scalars: x in
h, and n in the schedule, which fixes its depth.  Scalar inputs give Python
floats, arrays give arrays.  A domain error names the first failing element
and, for arrays, its row.  Each check is written as the negation of what
must hold, so that a NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import decomposition_depth
from .spectral import _out

LOG2 = math.log(2.0)


class BoundDomainError(ValueError):
    """A bound was evaluated outside its validity domain."""


def _reject(bad, need: str, got) -> None:
    """Raise BoundDomainError if any element of `bad` holds, naming what is
    needed, the first bad element of `got` and, for arrays, where it is.
    A scalar `bad` is tested as a bool, which keeps scalar calls cheap."""
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        bad = np.asarray(bad)
        i = tuple(np.argwhere(bad)[0].tolist())
        at = "" if not i else f" at row {i[0]}" if len(i) == 1 else f" at index {i}"
        raise BoundDomainError(f"need {need}, got {np.broadcast_to(got, bad.shape)[i]}{at}")


@dataclass(frozen=True)
class BernsteinInputs:
    """Parameter bundle (n, d, M, v, c) shared by every bound formula.

    n: number of summands; d: matrix dimension; M: a.s. bound on
    lambda_max of each summand; v: variance proxy; c: geometric mixing
    rate in the envelope beta_k <= e^{-c(k-1)} for k >= 2.  A model's c
    (mixing.certified_geometric_rate) also meets the form
    beta_k <= e^{1-ck} for k >= 1; the two agree for c <= 1.  Each field
    is a scalar or a numpy array; the fields broadcast together, one row
    per bound.
    """

    n: int
    d: int
    M: float
    v: float
    c: float

    def __post_init__(self):
        _reject(np.logical_not(self.n >= 2), "n >= 2", self.n)
        _reject(np.logical_not(self.d >= 1), "d >= 1", self.d)
        _reject(~(np.isfinite(self.M) & (self.M > 0)), "M > 0 finite", self.M)
        _reject(~(np.isfinite(self.v) & (self.v >= 0)), "v >= 0 finite", self.v)
        _reject(~(np.isfinite(self.c) & (self.c > 0)), "c > 0 finite", self.c)


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
    if not x > 0:
        raise BoundDomainError(f"g needs x > 0, got {x}")
    if x <= 1e-4:
        return 0.5 + x / 6.0 + x * x / 24.0
    return (math.exp(x) - x - 1.0) / (x * x)


def tropp_log_laplace(t: float, B: float, variance_stat: float, d: int) -> float:
    """log of the independent-sum master bound:
    log d + t^2 g(tB) * lambda_max(sum_k E U_k^2)."""
    if not (t > 0 and B > 0):
        raise BoundDomainError("tropp_log_laplace needs t > 0 and B > 0")
    if not variance_stat >= 0:
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


def _pole(kappa):
    """1/kappa, the pole of a majorant; infinite where kappa = 0."""
    kappa = np.asarray(kappa, dtype=float)
    return np.divide(1.0, kappa, out=np.full(kappa.shape, np.inf), where=kappa > 0)


def split_weight(pair0: SigmaKappaPair, pair1: SigmaKappaPair, t):
    """The interpolation weight u_t = (sigma_0/sigma)(1 - kappa t) + kappa_0 t
    used when two majorants are merged via trace-Hoelder; lies in (0, 1)."""
    combined = combine_sigma_kappa([pair0, pair1])
    _reject(~((0.0 <= t) & (t < _pole(combined.kappa))),
            "t in [0, 1/kappa) of the combined pair", t)
    return _out((pair0.sigma / combined.sigma) * (1.0 - combined.kappa * t)
                + pair0.kappa * t)


def gamma_majorant(pair: SigmaKappaPair, t):
    """(sigma t)^2 / (1 - kappa t), infinite at or beyond t = 1/kappa."""
    _reject(np.logical_not(t >= 0), "t >= 0", t)
    with np.errstate(divide="ignore", invalid="ignore"):  # at and past the pole
        value = np.square(pair.sigma * t) / (1.0 - pair.kappa * t)
    return _out(np.where(t >= _pole(pair.kappa), np.inf, value))


def gamma_cn(c, n):
    """gamma(c, n) = (log n / log 2) * max(2, 32 log n / (c log 2))."""
    _reject(np.logical_not(c > 0), "c > 0", c)
    _reject(np.logical_not(n >= 2), "n >= 2", n)
    ln = np.log(np.asarray(n, dtype=float))  # an int n may exceed int64
    return _out((ln / LOG2) * np.maximum(2.0, 32.0 * ln / (c * LOG2)))


def h(c, x: float):
    """h(c, x) = min(1/2, c log 2 / (32 log x)), for x > 1.  c broadcasts;
    x is one number, whose log is `math.log`'s (numpy's can differ in the
    last bit)."""
    if not x > 1:
        raise BoundDomainError(f"h needs x > 1, got {x}")
    _reject(np.logical_not(c > 0), "c > 0", c)
    return _out(np.minimum(0.5, c * LOG2 / (32.0 * math.log(x))))


def prop1_log_laplace(t: float, A: int, inputs: BernsteinInputs) -> float:
    """Log-Laplace majorant of the partial sum on the kept Cantor set of
    {1..A}: log d + 4*3.1 t^2 A v^2 + (9 (tM)^2 / c) e^{-3c/(32 tM)}.

    Valid for t M <= min(1/2, c log 2 / (32 log A)).
    """
    if not A >= 2:
        raise BoundDomainError(f"need A >= 2, got {A}")
    if not t > 0:
        raise BoundDomainError(f"need t > 0, got {t}")
    tm = t * inputs.M
    cap = h(inputs.c, A)
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

    plus the terminal pair (v sqrt(2), M).  M, v and c broadcast; n is one
    integer, as it fixes the depth L.  Each value takes the float operations
    of the scalar formula, so an array's elements equal the scalar schedules
    bit for bit.  `checks.schedule_ceilings` compares their sums with
    `schedule_ceiling(inputs)`.
    """
    n, M, v, c = inputs.n, inputs.M, inputs.v, inputs.c
    L = decomposition_depth(n)
    root_c = _out(np.sqrt(c))  # a Python float for a scalar c, as math.sqrt gives
    pairs = []
    for i in range(L):
        x = n / 2.0 ** i
        sigma_i = 2.0 * math.sqrt(x) * (2.0 * v + math.sqrt(3.0) * (2.0 ** i) * M / (n * root_c))
        pairs.append(SigmaKappaPair(sigma=sigma_i, kappa=M / h(c, x)))
    pairs.append(SigmaKappaPair(sigma=v * math.sqrt(2.0), kappa=M))
    return pairs


def schedule_ceiling(inputs: BernsteinInputs) -> SigmaKappaPair:
    """The ceilings of the schedule's sums, from the majorant's (a, b): sum(sigma)
    <= sqrt(a) = 15 sqrt(n) v + 2 M/sqrt(c) and sum(kappa) <= b = M gamma(c, n)."""
    a, b = _majorant_coefficients(inputs)
    return SigmaKappaPair(sigma=_out(np.sqrt(a)), kappa=b)


def _majorant_coefficients(inputs: BernsteinInputs):
    """(a, b) with gamma_n(t) = log d + a t^2 / (1 - b t):
    a = n (15v + 2M/sqrt(cn))^2 and b = M gamma(c, n)."""
    sigma = 15.0 * inputs.v + 2.0 * inputs.M / np.sqrt(inputs.c * inputs.n)
    return inputs.n * sigma * sigma, inputs.M * gamma_cn(inputs.c, inputs.n)


def master_log_laplace(t, inputs: BernsteinInputs):
    """gamma_n(t) = log d + t^2 n (15v + 2M/sqrt(cn))^2 / (1 - t M gamma(c,n)),
    valid for t M < 1/gamma(c, n)."""
    _reject(t < 0, "t >= 0", t)
    _reject(~np.isfinite(t), "a finite t", t)
    a, b = _majorant_coefficients(inputs)
    _reject(t * b >= 1.0, "t*M below 1/gamma(c,n)", t * inputs.M)
    return _out(np.log(inputs.d) + a * t * t / (1.0 - b * t))


def log_tail_bound_certified(x, inputs: BernsteinInputs):
    """log of inf_t exp(-t x + gamma_n(t)) over t in (0, 1/(M gamma(c,n))),
    in closed form (classical Bernstein; Tropp 2012).

    The minimizer is t* = (1 - sqrt(a/(a+bx)))/b and the minimum is
    log d - (sqrt(a+bx) - sqrt(a))^2 / b^2; both are evaluated in the
    equivalent forms below, which have no cancellation.  The log bound
    stays finite where its exponential underflows to 0.
    Returns (log_bound, t_star).
    """
    _reject(x <= 0, "x > 0", x)
    _reject(~np.isfinite(x), "a finite x", x)
    a, b = _majorant_coefficients(inputs)
    root = np.sqrt(a + b * x)
    root_sum = root + np.sqrt(a)
    return (_out(np.log(inputs.d) - np.square(x / root_sum)),
            _out(x / (root * root_sum)))


def capped_bound(log_bound, d):
    """min(d, e^log_bound): the tail bound from its log, capped at d."""
    return _out(np.minimum(d, np.exp(log_bound)))


def tail_bound_certified(x, inputs: BernsteinInputs):
    """Optimized Chernoff bound inf_t exp(-t x + gamma_n(t)) over the
    validity interval t in (0, 1/(M gamma(c,n))), capped at d.
    Returns (bound, t_star); see log_tail_bound_certified."""
    log_bound, t_star = log_tail_bound_certified(x, inputs)
    return capped_bound(log_bound, inputs.d), t_star


def expectation_bound(inputs: BernsteinInputs):
    """E lambda_max majorant: 30 v sqrt(n log d) + 4 M sqrt(log d / c)
    + M gamma(c, n) log d.  Exactly 0 at d = 1 (log d = 0); scalar users
    should integrate the tail bound instead."""
    ld = np.log(inputs.d)
    return _out(30.0 * inputs.v * np.sqrt(inputs.n * ld)
                + 4.0 * inputs.M * np.sqrt(ld) / np.sqrt(inputs.c)
                + inputs.M * gamma_cn(inputs.c, inputs.n) * ld)
