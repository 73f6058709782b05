"""Simulators for the example matrix models and the Monte-Carlo harness.

Two dependent models are shipped, plus an iid baseline:

  contraction       X_i = tau(S_i) * eps_i * D, a chain-driven contraction
                    of a fixed symmetric matrix D with an iid fair sign;
  block_covariance  X_i = C_i C_i^T - E(C_i C_i^T) where C_i stacks d
                    consecutive chain-driven bounded scalars;
  iid_baseline      X_i = eps_i * D with iid fair signs, the contraction
                    model with tau = 1; a constant tau draws no path.

The variance proxy v^2 that enters the bound has one path and no Monte
Carlo, v2_ceiling, from the exact lag moments E(X_0 X_k) that lag_moments
derives from (pi, P) for every kind, a block of lag powers at a time from
mixing.power_blocks, beta_k_exact's walker too.  It is exact when the
summands have no cross moments, as under a fair sign, and a certified
ceiling otherwise.  The rate c of the bound is certified at every lag from
the chain's d̄ (mixing.certified_geometric_rate), and v2_ceiling's tail
reads the same geometric tail of d̄ (mixing.geometric_tail).

spec_from_config reads a model config through two tables, the --model
names of the kinds (MODELS) and the fields each kind reads (_KIND_FIELDS).

A seed has two PCG64 streams of raw 64-bit words, the children of
SeedSequence(seed).spawn(2): part 0 holds the path uniforms, one word
each, and part 1 the signs, two per word.  The streams are split into
blocks, one per trial: with `words` the trial's count in a part
(_word_counts), trial t reads words [t * words, (t + 1) * words).  So a
trial's words depend only on (seed, t), and results are reproducible
independently of execution order, worker count or the size of the trial
chunks that are sampled together.  numpy's public API gives trial t's
words of a part:

    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(part,)))
    bitgen.advance(t * words)
    rng = np.random.Generator(bitgen)
    rng.random(words) if part == 0 else rng.integers(0, 2, n)  # 1 is +1

A chunk holds as many trials as fit in _CHUNK_WORDS words of its buffers
(_trial_words), jumps each part ahead once and steps its chain paths
together in one pass.  It reads its sign words in one random_raw call and
frees them before the path is drawn.  It reads its path uniforms with
Generator.random into one buffer, a block of rows (an eighth of the chunk)
at a time, each ranked before the next is read, and it gathers and sums
the summands a block of rows at a time too.  So no float64 array spans the
chunk: a contraction chunk peaks at about 6.3 bytes per trial-step.  Its
one eigvalsh call decomposes each distinct scalar sum of a sign model once,
and each trial's sum of the block model (_chunk_eigs).
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bounds as _bounds
from .mixing import MarkovChain, certified_geometric_rate, dbar_upper, geometric_tail, power_blocks
from .spectral import SymMatrix

SCHEMA = "depbernstein/1"
_CHUNK_WORDS = 1 << 19  # buffer words of a sampling chunk; no result depends on it
_CEILING_LAGS = 64  # exact lags of v2_ceiling, given cross moments, before its closed-form tail
_CONF = 0.99  # the Clopper-Pearson level: clopper_pearson's default, run_tail_experiment's


class ModelError(ValueError):
    """Invalid model specification or experiment parameter."""


# the optional ModelSpec fields each kind reads; a kind is given no other
_KIND_FIELDS = {"contraction": ("D", "tau_map"), "iid_baseline": ("D",),
                "block_covariance": ("value_map",)}
# --model name -> ModelSpec kind
MODELS = {"contraction": "contraction", "blockcov": "block_covariance", "iid": "iid_baseline"}


@dataclass(frozen=True)
class ModelSpec:
    """Specification of a simulated matrix model.

    For contraction/iid kinds, D is the fixed symmetric template matrix
    (spectral radius <= M); tau_map gives tau as a function of the hidden
    state and must have sup-norm <= 1.  For block_covariance, value_map
    gives the bounded scalar as a function of the state (centered
    internally) and d consecutive scalars form one block.  A field that the
    kind does not read must be left None; the iid kind gets tau_map = 1.
    """

    kind: str
    d: int
    chain: MarkovChain
    D: Optional[np.ndarray] = None
    tau_map: Optional[np.ndarray] = None
    value_map: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        fields = _KIND_FIELDS[self.kind]
        unread = [name for name in ("D", "tau_map", "value_map")
                  if name not in fields and getattr(self, name) is not None]
        if unread:
            raise ModelError(f"a {self.kind} model does not read {', '.join(unread)}")
        missing = [name for name in fields if getattr(self, name) is None]
        if missing:
            raise ModelError(f"a {self.kind} model needs {', '.join(missing)}")
        try:
            d = operator.index(self.d)
        except TypeError:
            d = 0
        if d < 1 or isinstance(self.d, bool):
            raise ModelError(f"d must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", d)
        if self.kind == "iid_baseline":  # the contraction model with tau = 1
            object.__setattr__(self, "tau_map", np.ones(self.chain.states))
        if self.D is not None:
            D = SymMatrix(np.asarray(self.D, dtype=float)).entries
            if D.shape != (d, d):
                raise ModelError(f"D must be {d} x {d}, got shape {D.shape}")
            object.__setattr__(self, "D", D)
        for name in ("tau_map", "value_map"):
            if getattr(self, name) is None:
                continue
            vals = np.array(getattr(self, name), dtype=float)  # the caller's stays writeable
            if vals.shape != (self.chain.states,):
                raise ModelError(f"{name} must have one value per chain state")
            if name == "tau_map" and not np.all(np.abs(vals) <= 1.0 + 1e-12):
                raise ModelError("need finite |tau| <= 1")
            if not np.all(np.isfinite(vals)):
                raise ModelError(f"{name} must be finite")
            vals.flags.writeable = False
            object.__setattr__(self, name, vals)
        # _tau0: tau where it is constant, bit for bit (tau = (0, -0) is not), else None
        constant = self.tau_map is not None and np.ptp(self.tau_map.view(np.uint64)) == 0
        object.__setattr__(self, "_tau0", float(self.tau_map[0]) if constant else None)

    @property
    def M(self) -> float:
        """Almost-sure ceiling on lambda_max of one summand."""
        if self.D is not None:  # |tau| <= 1 times D
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
        return {"kind": self.kind, "d": self.d, "P": self.chain.P.tolist(),
                "pi": self.chain.pi.tolist(),
                **{name: getattr(self, name).tolist() for name in _KIND_FIELDS[self.kind]}}


def spec_from_config(name: str, obj) -> ModelSpec:
    """The ModelSpec of a parsed model config for --model `name`: P and the
    kind's fields from their keys, and d from D's order or else its key; a
    key it does not read is named after ModelSpec has checked the others."""
    chain = MarkovChain.from_config(obj)
    kind = MODELS[name]
    keys = _KIND_FIELDS[kind] if "D" in _KIND_FIELDS[kind] else ("d",) + _KIND_FIELDS[kind]
    missing = [repr(key) for key in keys if key not in obj]
    if missing:
        raise ModelError(f"a --model {name} config is missing {', '.join(missing)}")
    fields = {key: obj[key] for key in keys}
    if "D" in fields:
        fields["d"] = np.shape(fields["D"])[0] if np.ndim(fields["D"]) else 1
    spec = ModelSpec(kind=kind, chain=chain, **fields)
    unread = [repr(key) for key in obj if key not in ("P",) + keys]
    if unread:
        raise ModelError(f"a --model {name} config does not read {', '.join(unread)}")
    return spec


def block_covariance_mean(spec: ModelSpec) -> np.ndarray:
    """Exact E(C C^T) of the block model (_block_covariance)."""
    return _block_covariance(spec)[0]


def _block_paths(P: np.ndarray, vals: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """diag(v^e_0) P diag(v^e_1) P ... P diag(v^e_{d-1}) for every exponent
    row e of `powers` (shape (..., d)), stacked as (..., s, s).  Entry (x, y)
    is E(prod_t v(S_t)^e_t; S_{d-1} = y | S_0 = x) along one block."""
    W = np.eye(P.shape[0]) * (vals ** powers[..., 0, None])[..., None, :]
    for t in range(1, powers.shape[-1]):
        W = (W @ P) * (vals ** powers[..., t, None])[..., None, :]
    return W


def _block_covariance(spec: ModelSpec):
    """(E(C C^T), B) with B[a, b] the _block_paths of the exponents e_a + e_b:
    E(C_a C_b) is B[a, b]'s pi-weighted total, sum_{x,y} pi(x) B[a, b, x, y]."""
    eye = np.eye(spec.d, dtype=int)
    B = _block_paths(spec.chain.P, spec.centered_values, eye[:, None] + eye[None, :])
    return B.sum(axis=-1) @ spec.chain.pi, B


def _transfer(spec: ModelSpec):
    """The first summand X_0, seen through the first and last of the w chain
    states it reads, S_0 and S_{w-1}.  Returns (square, A, m, w) with

      square     E(X_0^2), shape (d, d);
      A[a, b, x] E(X_0[a, b]; S_{w-1} = x);
      m[a, b, x] E(X_0[a, b] | S_0 = x).

    Block model: w = d, and each is a product of s x s matrices along the
    block (_block_paths), so no block path is enumerated.  Contraction/iid
    model: w = 1, square = E(tau^2) D^2 (tau_0^2 D^2 exactly if tau is a
    constant tau_0), and the fair sign makes A = m = 0.
    """
    P, pi, d = spec.chain.P, spec.chain.pi, spec.d
    if spec.kind != "block_covariance":
        etau2 = float(pi @ spec.tau_map ** 2) if spec._tau0 is None else spec._tau0 ** 2
        zero = np.zeros((d, d, spec.chain.states))
        return etau2 * (spec.D @ spec.D), zero, zero, 1
    vals = spec.centered_values
    eye = np.eye(d, dtype=int)
    cov, B = _block_covariance(spec)
    T = B - cov[:, :, None, None] * np.linalg.matrix_power(P, d - 1)
    # E(X_0^2) = E(|C|^2 C C^T) - cov^2, and |C|^2 = sum_b C_b^2
    quad = _block_paths(P, vals, eye[:, None, None] + 2 * eye[None, :, None]
                        + eye[None, None, :])
    square = np.einsum("x,abcxy->ac", pi, quad) - cov @ cov
    return square, np.einsum("x,abxy->aby", pi, T), T.sum(axis=-1), d


def _moment_blocks(P: np.ndarray, A, m, w: int, count: int):
    """Blocks (power_blocks) of R_k = P^j_k, j_k = (k-1)w+1 steps from summand 0's last state
    to summand k's first, k = 1..count: each block's j_k, R_k and E(X_0 X_k) =
    sum_{x,y} A(x) R_k(x, y) m(y), as given X_0, X_k's mean depends on S_{w-1} only."""
    for steps, R in power_blocks(P, range(1, count * w + 1, w)):
        yield steps, R, np.einsum("abx,kxy,bcy->kac", A, R, m)


def lag_moments(spec: ModelSpec, lags: int) -> np.ndarray:
    """Exact E(X_0 X_k) of the stationary model for k = 0..lags, shape
    (lags + 1, d, d), from (pi, P).  E(X_i X_j) = E(X_0 X_{j-i}) for i <= j;
    the matrices are not symmetric for k >= 1."""
    square, A, m, w = _transfer(spec)
    blocks = _moment_blocks(spec.chain.P, A, m, w, lags)
    return np.concatenate([square[None], *(moments for _, _, moments in blocks)])


def v2_ceiling(spec: ModelSpec) -> float:
    """Certified ceiling on the variance proxy, valid for every n.

    With A = 0 (_transfer) every cross moment E(X_0 X_k) is 0, so
    E(sum_K X_i)^2 = |K| E(X_0^2) for every index set K and the ceiling is
    lambda_max(E X_0^2), exactly.  Otherwise, by stationarity,
    lambda_max(E(sum_K X_i)^2) / |K| <= ||E X_0^2|| + 2 sum_{k>=1} ||E X_0 X_k||
    (operator norms).  Lags k <= L are exact (lag_moments), with j_k = (k-1)w+1
    and L = _CEILING_LAGS, or the first lag k with d̄(j_k) < 1 if that is later;
    the walk is capped at the first k with j_k >= (s-1)^2 + 1, Wielandt's
    exponent, from which on a primitive chain has d̄ < 1.  Beyond L, with E X_0 = 0,
    E X_0 X_k = sum_{x,y} A(x) (P^{j_k}(x, y) - pi(y)) m(y), so
    ||E X_0 X_k|| <= 2 a b d̄(j_k) with a = sum_x ||A(x)||, b = max_y ||m(y)||.
    e_k = d̄(j_k) is submultiplicative in k, as d̄ is and does not rise, so
    the rounded-up e_1..e_L (mixing.dbar_upper) bound sum_{k>L} e_k
    (mixing.geometric_tail).
    Raises ModelError if no e_k is below 1.
    """
    square, A, m, w = _transfer(spec)
    if not A.any():
        return float(np.max(np.linalg.eigvalsh(square)))
    L = max(_CEILING_LAGS, math.ceil((spec.chain.states - 1) ** 2 / w) + 1)
    # only the moment norms and rounded-up d̄(j_k) of each block are kept, up to k = L,
    # with L lowered to the window once a lag contracts
    norms, dbars = [np.linalg.norm(square[None], 2, axis=(-2, -1))], np.empty(0)
    for steps, R, moments in _moment_blocks(spec.chain.P, A, m, w, L):
        norms.append(np.linalg.norm(moments, 2, axis=(-2, -1)))
        dbars = np.append(dbars, dbar_upper(spec.chain, R, steps))
        contracting = np.flatnonzero(dbars[:L] < 1.0)
        if contracting.size:
            L = max(_CEILING_LAGS, contracting[0] + 1)
        if dbars.size >= L:
            break
    norms = np.concatenate(norms)[:L + 1]
    total = geometric_tail(dbars[:L])[1]
    if total == math.inf:
        raise ModelError(f"d̄ is 1 at every lag up to {steps[-1]}: "
                         "the tail of the v^2 ceiling cannot be certified")
    a = np.linalg.norm(A.transpose(2, 0, 1), 2, axis=(-2, -1)).sum()
    b = np.linalg.norm(m.transpose(2, 0, 1), 2, axis=(-2, -1)).max()
    return float(norms[0] + 2.0 * (norms[1:].sum() + 2.0 * a * b * total))


def _word_counts(spec: ModelSpec, n: int):
    """The words one trial reads from each stream part: (path uniforms,
    sign words); a constant tau reads no path."""
    if spec.kind == "block_covariance":
        return n * spec.d, 0
    return (n if spec._tau0 is None else 0), (n + 1) // 2


def _trial_words(spec: ModelSpec, n: int) -> int:
    """A trial's share of a sampling chunk's buffers, in 8-byte words: its
    stream words, 2 d^2 for its partial sum and that sum's symmetric part,
    and 32 for its eigenvalues and the rest (by tracemalloc, a one-step
    iid trial's whole share is 32 bytes at d = 1 and 296 at d = 4)."""
    return sum(_word_counts(spec, n)) + 2 * spec.d ** 2 + 32


def _stream(seed: int, part: int, words: int, lo: int) -> np.random.PCG64:
    """Stream `part` of `seed`, PCG64(SeedSequence(seed, spawn_key=(part,))),
    jumped ahead to trial lo's block of `words` words."""
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(part,)))
    bitgen.advance(lo * words)
    return bitgen


def _row_blocks(trials: int) -> list:
    """A chunk's rows, one slice per block of an eighth of them (rounded up,
    the last block shorter): the rows it draws and gathers at a time."""
    rows = -(-trials // 8)
    return [slice(b, min(b + rows, trials)) for b in range(0, trials, rows)]


def _draws(spec: ModelSpec, n: int, seed: int, lo: int, hi: int):
    """The random part of trials lo..hi-1, read from the seed's two streams
    (the module docstring) and stepped together in one sample_paths call.

    Each stream part of the chunk is one PCG64 jumped ahead to trial lo
    (_stream), read as the module docstring says.  A sign word gives two
    signs, bit 31, then bit 63, being 1 for +1, as Generator.integers(0, 2)
    draws them: the sign bits of the word's little-endian int32 halves.
    Generator.random makes (w >> 11) * 2^-53 of a path word w.

    Yields the summand coefficients values[index] one block of rows
    (_row_blocks) at a time: the (rows, n) coefficients c of the summands
    c * D for the contraction/iid models, or the (rows, n, d) centered rows
    C_i for the block model.  index takes one byte an entry on chains of up
    to 128 states.  It checks nothing: _check_sampling has checked its inputs.
    """
    steps, signs = _word_counts(spec, n)
    blocks = _row_blocks(hi - lo)
    if signs:  # the block model draws no signs
        sign_words = _stream(seed, 1, signs, lo).random_raw((hi - lo, signs))
        sign_words = sign_words.astype("<u8", copy=False)
        negative = sign_words.view("<i4")[:, :n] >= 0
        del sign_words  # before the path is drawn
    if steps:  # a constant tau draws no path
        rng = np.random.Generator(_stream(seed, 0, steps, lo))
        buf = np.empty((blocks[0].stop, steps))
        index = spec.chain.sample_paths((rng.random(out=buf[:b.stop - b.start]) for b in blocks),
                                        (hi - lo, steps))
    if spec.kind == "block_covariance":
        values, index = spec.centered_values, index.reshape(hi - lo, n, spec.d)
    elif not steps:  # a constant tau: entry b of the table is tau_0 * (-1)^b, sign bit b
        values, index = spec._tau0 * np.array([1.0, -1.0]), negative.view(np.uint8)
    else:
        # entry 2x + b of the table is tau(x) * (-1)^b: state x with sign bit b
        if 2 * spec.chain.states - 1 > np.iinfo(index.dtype).max:
            index = index.astype(np.min_scalar_type(2 * spec.chain.states - 1))
        index <<= 1
        index += negative
        values = np.stack([spec.tau_map, -spec.tau_map], axis=1).ravel()
    for b in blocks:
        yield values.take(index[b])


# stirlerr(m) = log(m!) - log(sqrt(2 pi m) (m/e)^m) for m = 1..15, correctly
# rounded (Loader 2000 tabulates these); past 15 its series is exact to rounding
_STIRLERR_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
_NEWTON_STEPS = 5  # the fifth moves y by at most 6e-8, a sixth by rounding (n <= 10^7)


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """stirlerr(m) for integers m >= 1 given as floats."""
    m2 = m * m
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / m2)
                                   / m2) / m2) / m2) / m
    return np.where(m > 15, series, _STIRLERR_SMALL[np.minimum(m, 15).astype(np.intp) - 1])


def _binomial_tail_root(k: np.ndarray, n: int, log_tail: float) -> np.ndarray:
    """The logit y = log(p / (1 - p)) with P(Bin(n, p) >= k) = e^log_tail, for
    every k in the float array k, 1 <= k <= n - 1, and log_tail < log(1/2).

    The tail is b(k) S with b the pmf.  log b(k) is Loader's saddle-point
    form, stirlerr(n) - stirlerr(k) - stirlerr(n-k) - log sqrt(2 pi k (n-k) / n)
    - bd0(k, np) - bd0(n-k, n(1-p)) with bd0(x, m) = x log(x/m) + m - x, so
    no large log-factorials cancel.  Both bd0 are functions of e = k - np,
    taken from the smaller of p and 1 - p.  S = 1 + sum_{j>=1} C_j e^(j delta)
    with delta = y - log(k/(n-k)) and C_j = prod_{i<j} r_i,
    r_i = (n-k-i) k / ((k+i+1) (n-k)) <= k/(k+1), fixed once.  Every Newton
    iterate has p < k/n, so delta < 0, and the terms fall like
    exp(-j^2 / 2 sig^2) with sig^2 = k(n-k)/n <= n/4: J = 5 sqrt(n) + 10
    terms reach far below rounding.  J depends on n alone, so every k is
    solved on a row of its own that no other k changes.
    d log T / dy = k (1-p) / S, and log T is concave in y (the binomial law
    is log-concave), so Newton's steps converge from any start below k/n;
    they start from the Wilson score bound.
    """
    nk = n - k
    st_k, st_nk = _stirlerr(np.stack([k, nk]))
    const = (_stirlerr(np.float64(n)) - st_k - st_nk
             - 0.5 * np.log(2.0 * math.pi * k * (nk / n)))
    j = np.arange(math.ceil(5.0 * math.sqrt(n)) + 10)
    C = np.cumprod(np.maximum(nk[:, None] - j, 0.0) * (k / nk)[:, None]
                   / (k[:, None] + j + 1.0), axis=1)
    y_mode = np.log(k / nk)
    # the Wilson lower bound, rationalised so that no difference cancels, with
    # z = sqrt(-2 log_tail) above the normal quantile of the tail: a low start
    z = math.sqrt(-2.0 * log_tail)
    p = k * k / (n * (k + z * z / 2.0 + z * np.sqrt(k * (nk / n) + z * z / 4.0)))
    y = np.log(p) - np.log1p(-p)
    for _ in range(_NEWTON_STEPS):
        p, q = 1.0 / (1.0 + np.exp(-y)), 1.0 / (1.0 + np.exp(y))
        e = np.where(p < 0.5, k - n * p, n * q - nk)
        # bd0(k, np) = -e - k log1p(-e/k); below np = k/2, where p < 1/2 and np
        # is exact enough, it is k log(k/np) - e
        bd0_k = np.where(e < k / 2.0, -e - k * np.log1p(-e / k), k * np.log(k / (n * p)) - e)
        bd0_nk = e - nk * np.log1p(e / nk)
        S = 1.0 + (C * np.exp((j + 1.0) * (y - y_mode)[:, None])).sum(axis=1)
        g = const - bd0_k - bd0_nk + np.log(S) - log_tail
        y = y - g * S / (k * q)
    return y


def clopper_pearson(k, n: int, conf: float = _CONF):
    """Exact (conservative) binomial confidence interval for k successes in n
    trials: (lo, hi) as floats for an integer k, as arrays shaped like k for
    an integer array.

    lo(k) solves P(Bin(n, p) >= k) = alpha/2 with alpha = 1 - conf, and
    hi(k) = 1 - lo(n - k).  The ends have closed forms: lo(0) = 0, hi(n) = 1,
    lo(n) = (alpha/2)^(1/n) and hi(0) = 1 - (alpha/2)^(1/n).  All other ends,
    lower and upper, are solved in one _binomial_tail_root call; an upper
    end comes from its logit as 1 / (1 + e^y), so 1 - lo never cancels.
    """
    ks = np.asarray(k)
    try:
        n = operator.index(n)
    except TypeError:
        raise ModelError(f"n must be an integer, got {n!r}") from None
    if ks.dtype.kind not in "iu":
        raise ModelError(f"k must be an integer or an integer array, got {k!r}")
    if n < 1 or not np.all((ks >= 0) & (ks <= n)):
        raise ModelError(f"need n >= 1 and 0 <= k <= n, got k={k!r}, n={n}")
    if not 0.0 < conf < 1.0:
        raise ModelError(f"need 0 < conf < 1, got {conf!r}")
    log_half = math.log((1.0 - conf) / 2.0)
    # the lower ends lo(k), then the ends lo(n - k) whose complements are hi(k)
    flat = ks.ravel().astype(float)
    ends = np.concatenate([flat, n - flat])
    upper = np.arange(ends.size) >= ks.size
    out = np.where(upper, -math.expm1(log_half / n), math.exp(log_half / n))  # lo(n), 1 - lo(n)
    out[ends == 0] = upper[ends == 0]  # lo(0) = 0, 1 - lo(0) = 1
    inner = (ends > 0) & (ends < n)
    y = _binomial_tail_root(ends[inner], n, log_half)
    out[inner] = 1.0 / (1.0 + np.exp(np.where(upper[inner], y, -y)))
    lo, hi = out[:ks.size].reshape(ks.shape), out[ks.size:].reshape(ks.shape)
    if ks.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def bernstein_inputs_for(spec: ModelSpec, n: int) -> _bounds.BernsteinInputs:
    """Assemble (n, d, M, v, c) for a model, with no Monte Carlo.  v is the
    ceiling v2_ceiling, valid for every n and exact when the summands have no
    cross moments.  c is the chain's certified rate on the
    d̄ walk of lags 1..mixing.RATE_LAGS and its geometric tail beyond them
    (certified_geometric_rate): it meets both envelopes at every lag."""
    v = math.sqrt(v2_ceiling(spec))
    c = certified_geometric_rate(spec.chain)
    return _bounds.BernsteinInputs(n=n, d=spec.d, M=spec.M, v=v, c=c)


def _chunk_eigs(args) -> np.ndarray:
    """Ascending eigenvalues of the partial sum of each trial in one chunk,
    from one eigvalsh call.  The summands are gathered and summed one block
    of rows (an eighth of the chunk) at a time (_draws), so their float64
    coefficients never span it; each trial's row is summed whole.

    Block model: the stack of (S + S^T)/2, one matrix per trial.  Sign
    models: S = c D with c the trial's scalar sum, and the sums of a lattice
    repeat, so each distinct c (by its bits: -0.0 keeps its own) is
    decomposed once and the rows are gathered back by the inverse index.
    ModelSpec keeps D bitwise symmetric (SymMatrix), so each c D is too,
    and (S + S^T)/2 would change no bit of it."""
    spec, n, seed, lo, hi = args
    if spec.kind == "block_covariance":
        S = np.concatenate([C.transpose(0, 2, 1) @ C for C in _draws(spec, n, seed, lo, hi)])
        S -= n * block_covariance_mean(spec)
        return np.linalg.eigvalsh((S + S.transpose(0, 2, 1)) / 2.0)
    sums = np.concatenate([c.sum(axis=1) for c in _draws(spec, n, seed, lo, hi)])
    keys, at = np.unique(sums.view(np.uint64), return_inverse=True)
    return np.linalg.eigvalsh(keys.view(float)[:, None, None] * spec.D)[at]


def _memory_bytes() -> int:
    """The host's physical memory in bytes, or the intp range where the OS does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        pages = size = 0
    return pages * size if pages > 0 and size > 0 else np.iinfo(np.intp).max


def _check_sampling(spec: ModelSpec, n: int, trials: int, workers: int, seed: int) -> None:
    """The sampler's only input checks and its one trials floor, run once by
    run_tail_experiment before the inputs, any stream or any pool exists.  A
    chunk holds one trial at least, so a trial whose buffer words alone exceed
    the host's memory can never be sampled: its n is an invalid input.  So is a
    trial count whose eigenvalue rows alone (8 trials d bytes) exceed it."""
    if n < 1 or trials < 100 or workers < 1:
        raise ModelError(f"need n >= 1, trials >= 100 and workers >= 1, "
                         f"got n={n}, trials={trials}, workers={workers}")
    if operator.index(seed) < 0:
        raise ModelError(f"--seed must be a non-negative integer, got {seed}")
    memory = _memory_bytes()
    if 8 * _trial_words(spec, n) > memory:
        raise ModelError(f"--n {n} is too large for one sampling chunk: one trial's buffers"
                         f" exceed the {memory / 2 ** 30:.1f} GiB of this host's memory")
    if 8 * trials * spec.d > memory:
        raise ModelError(f"--trials {trials} is too large: its eigenvalue rows alone"
                         f" exceed the {memory / 2 ** 30:.1f} GiB of this host's memory")


def _partial_sum_eigs(spec: ModelSpec, n: int, trials: int, seed: int,
                      workers: int = 1) -> np.ndarray:
    """Ascending eigenvalues of the partial sum, one row per trial.

    Trials run in chunks sized by memory, not by count: a chunk holds as
    many trials as fit in _CHUNK_WORDS words (_trial_words), and at least
    one, so its buffers stay about the same size at every n and d.  When
    workers > 1 the chunks are mapped through a process pool of at most one
    worker per chunk and per CPU.  Trial t's words depend only on (seed, t)
    (_draws), so no result depends on the chunk size or the worker count; its
    one program caller, run_tail_experiment, has run _check_sampling.
    """
    size = max(1, _CHUNK_WORDS // _trial_words(spec, n))
    chunks = [(spec, n, seed, lo, min(lo + size, trials))
              for lo in range(0, trials, size)]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers == 1:
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
    tail_grid: list  # (x, p_hat, lo, hi)
    bound_curve: list  # (x, certified_bound)
    log_bound_curve: list  # (x, log bound), no underflow
    mean_lambda_max: float
    mean_stderr: float

    def to_json(self) -> str:
        return json.dumps({"schema": SCHEMA, **vars(self)}, sort_keys=True)


def run_tail_experiment(spec: ModelSpec, n: int, trials: int, x_grid,
                        seed: int, workers: int = 1) -> TrialReport:
    """Empirical tail of lambda_max of the partial sum on a grid, with exact
    binomial intervals, against the certified optimized bound of the model's
    own inputs, bernstein_inputs_for(spec, n)."""
    x_grid = [float(x) for x in x_grid]
    if not x_grid or any(not math.isfinite(x) for x in x_grid):
        raise ModelError("invalid x grid")
    # the sampler's checks, then the inputs, then the Monte Carlo: an input
    # that the bound rejects fails before any trial is drawn
    _check_sampling(spec, n, trials, workers, seed)
    inputs = bernstein_inputs_for(spec, n)
    samples = _partial_sum_eigs(spec, n, trials, seed, workers)[:, -1]
    xs = np.array(x_grid)
    k = np.count_nonzero(samples >= xs[:, None], axis=1)
    lo, hi = clopper_pearson(k, trials, _CONF)
    tail = list(zip(x_grid, (k / trials).tolist(), lo.tolist(), hi.tolist()))
    # one closed-form call on the positive x; the bound is d (log d) elsewhere
    positive = xs > 0
    log_b = np.full(xs.shape, math.log(inputs.d))
    log_b[positive] = _bounds.log_tail_bound_certified(xs[positive], inputs)[0]
    b = np.where(positive, _bounds.capped_bound(log_b, inputs.d), inputs.d)
    return TrialReport(
        model=spec.digest(), n=n, trials=trials, seed=seed,
        inputs=asdict(inputs),
        lambda_max_samples=samples.tolist(),
        tail_grid=tail, bound_curve=list(zip(x_grid, b.tolist())),
        log_bound_curve=list(zip(x_grid, log_b.tolist())),
        mean_lambda_max=float(samples.mean()),
        mean_stderr=float(samples.std(ddof=1) / math.sqrt(trials)),
    )

