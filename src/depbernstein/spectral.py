"""Dense real-symmetric matrix kernels and spectral inequality checkers.

Everything here is a pure function of immutable inputs. Matrices are small
(desk scale, d up to a few hundred), so the eigendecomposition route is
used throughout rather than specialized algorithms.  Every function takes
a SymMatrix (d x d) or a SymStack (k matrices, shape (k, d, d)) and runs
the same code on both: a stack gives one result per matrix, as an array,
and a single matrix gives a Python scalar.  A raw array is taken as a
stack.  Each SymMatrix or SymStack computes its spectrum at most once and
keeps it; its entries and the spectrum's arrays are read-only, so the kept
spectrum cannot go stale.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

# Asymmetry beyond this (absolute) is rejected instead of silently symmetrized.
_SYM_DRIFT_TOL = 1e-12


class SpectralError(ValueError):
    """Invalid input to a spectral operation."""


def _symmetrized(a, ndim: int) -> np.ndarray:
    """The entries of a SymMatrix (ndim 2) or SymStack (ndim 3): a read-only
    copy of `a`, every matrix held to the symmetry rule of SymMatrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.size == 0:
        kind = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise SpectralError(f"expected {kind}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SpectralError("matrix entries must be finite")
    bits = a.view(np.uint64)  # compared as bits: by value, 0.0 == -0.0
    mixed = bits != np.swapaxes(bits, -1, -2)
    a = a.copy()
    if mixed.any():
        at = np.swapaxes(a, -1, -2)
        drift = np.max(np.abs(a - at))
        if drift > _SYM_DRIFT_TOL:
            raise SpectralError(f"matrix is not symmetric (max asymmetry {drift:.3e})")
        a[mixed] = (a[mixed] + at[mixed]) / 2.0
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Symmetric:
    """What SymMatrix and SymStack share: checked entries, the kept
    spectrum, identity equality and elementwise arithmetic."""

    entries: np.ndarray
    _spectrum: Spectrum | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _symmetrized(self.entries, self._ndim))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def __add__(self, other):
        self._check_dim(other)
        return type(self)(self.entries + other.entries)

    def __neg__(self):
        return type(self)(-self.entries)

    def _check_dim(self, other) -> None:
        if self.entries.shape != other.entries.shape:
            raise SpectralError(f"dimension mismatch: shape {self.entries.shape}"
                                f" vs {other.entries.shape}")


class SymMatrix(_Symmetric):
    """A real symmetric d x d matrix, symmetry enforced at construction.

    Inputs with asymmetry at most 1e-12 (entrywise) are symmetrized: an
    entry that differs bitwise from its transpose becomes (a_ij + a_ji)/2,
    the others are kept as given.  Anything worse is rejected as a likely
    upstream bug.  The matrix owns a read-only copy of its entries.
    Equality is identity, so a SymMatrix is hashable; compare `entries`
    to compare values.
    """

    _ndim = 2

    @classmethod
    def zero(cls, d: int) -> "SymMatrix":
        return cls(np.zeros((d, d)))

    @classmethod
    def identity(cls, d: int) -> "SymMatrix":
        return cls(np.eye(d))

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


class SymStack(_Symmetric):
    """k real symmetric d x d matrices, shape (k, d, d), each held to the
    same rule as a SymMatrix.  The spectral functions decompose the whole
    stack in one call and return one result per matrix."""

    _ndim = 3


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) plus the orthonormal eigenbasis, with a
    leading axis of length k for a stack."""

    eigenvalues: np.ndarray
    basis: np.ndarray = field(repr=False)

    @property
    def lambda_max(self):
        return _out(self.eigenvalues[..., 0])


def _sym(a) -> _Symmetric:
    """a itself if it is a SymMatrix or SymStack; a raw array as a SymStack."""
    return a if isinstance(a, _Symmetric) else SymStack(a)


def _out(x):
    """A 0-d result (from a single matrix) as a Python scalar; arrays as is."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def eig_sym(a) -> Spectrum:
    """Full spectrum, eigenvalues sorted descending (eigh returns them
    ascending), one decomposition for a whole stack.

    Computed on the first call and kept on `a`; every later call returns
    the same read-only Spectrum.
    """
    a = _sym(a)
    if a._spectrum is None:
        w, v = np.linalg.eigh(a.entries)
        w, v = w[..., ::-1], v[..., ::-1]
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(a, "_spectrum", Spectrum(eigenvalues=w, basis=v))
    return a._spectrum


def lambda_max(a):
    return eig_sym(a).lambda_max


def expm_sym(a):
    """exp(A) through the eigendecomposition V e^L V^T; symmetric PD result
    of the same kind as a."""
    a = _sym(a)
    s = eig_sym(a)
    e = (s.basis * np.exp(s.eigenvalues)[..., None, :]) @ np.swapaxes(s.basis, -1, -2)
    return type(a)((e + np.swapaxes(e, -1, -2)) / 2.0)


def _exponents(t, a) -> np.ndarray:
    """t lambda_i(a), with t a scalar or one point per matrix of a stack."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise SpectralError("t must be finite")
    return t[..., None] * eig_sym(a).eigenvalues


def trace_exp(t, a):
    """Tr exp(tA) = sum_i e^{t lambda_i}.  Equals dim when t = 0."""
    return _out(np.sum(np.exp(_exponents(t, a)), axis=-1))


def log_trace_exp(t, a):
    """log Tr exp(tA), computed stably in the log domain (no overflow)."""
    z = _exponents(t, a)
    m = np.max(z, axis=-1, keepdims=True)
    return _out(m[..., 0] + np.log(np.sum(np.exp(z - m), axis=-1)))


def schatten_norm(a, p: float):
    """p-Schatten norm: l^p norm of the eigenvalue vector. p = inf gives the
    spectral radius."""
    if p != np.inf and p < 1:
        raise SpectralError(f"Schatten norm needs p >= 1, got {p}")
    w = np.abs(eig_sym(a).eigenvalues)
    if p == np.inf:
        return _out(np.max(w, axis=-1))
    return _out(np.sum(w ** p, axis=-1) ** (1.0 / p))


def _rel_tol(rhs):
    return 1e-9 * (1.0 + np.abs(rhs))


def _trace_product(a, b) -> np.ndarray:
    """Tr(AB), per matrix of a stack."""
    return np.einsum("...ij,...ji->...", a.entries, b.entries)


@functools.lru_cache(maxsize=1)
def _total(*matrices):
    """The sum of the matrices.  The last sum is kept, so Golden-Thompson
    and Weyl on the same operands decompose it once; operands compare by
    identity and are immutable, so the kept sum cannot go stale."""
    return functools.reduce(operator.add, matrices)


def check_golden_thompson(a, b):
    """Golden-Thompson: Tr e^{A+B} <= Tr(e^A e^B).

    Returns (lhs, rhs, holds).
    """
    a, b = _sym(a), _sym(b)
    a._check_dim(b)
    lhs = trace_exp(1.0, _total(a, b))
    rhs = _trace_product(expm_sym(a), expm_sym(b))
    return lhs, _out(rhs), _out(lhs <= rhs + _rel_tol(rhs))


def check_trace_holder(a, b, p: float):
    """Non-commutative Hoelder: |Tr(AB)| <= ||A||_{S^p} ||B||_{S^q}, 1/p + 1/q = 1.

    Returns (lhs, rhs, holds).
    """
    a, b = _sym(a), _sym(b)
    a._check_dim(b)
    if p <= 1:
        raise SpectralError(f"trace-Hoelder needs p > 1, got {p}")
    q = p / (p - 1.0)
    lhs = np.abs(_trace_product(a, b))
    rhs = schatten_norm(a, p) * schatten_norm(b, q)
    return _out(lhs), rhs, _out(lhs <= rhs + _rel_tol(rhs))


def weyl_lambda_max_bound(matrices):
    """lambda_max of a sum vs sum of lambda_max (Weyl).

    Returns (lambda_max_of_sum, sum_of_lambda_max); the first never exceeds
    the second beyond roundoff.
    """
    matrices = [_sym(m) for m in matrices]
    if not matrices:
        raise SpectralError("need at least one matrix")
    return lambda_max(_total(*matrices)), _out(sum(lambda_max(m) for m in matrices))


def gerschgorin_bound(a):
    """max_k sum_l |A[k,l]|; an upper bound on the spectral radius."""
    return _out(np.max(np.sum(np.abs(_sym(a).entries), axis=-1), axis=-1))
