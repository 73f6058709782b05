"""Dense real-symmetric matrix kernels and spectral inequality checkers.

Everything here is a pure function of immutable inputs. Matrices are small
(desk scale, d up to a few hundred), so the eigendecomposition route is
used throughout rather than specialized algorithms.  Each SymMatrix
computes its spectrum at most once and keeps it; its entries and the
spectrum's arrays are read-only, so the kept spectrum cannot go stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Asymmetry beyond this (absolute) is rejected instead of silently symmetrized.
_SYM_DRIFT_TOL = 1e-12


class SpectralError(ValueError):
    """Invalid input to a spectral operation."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric d x d matrix, symmetry enforced at construction.

    Inputs with asymmetry at most 1e-12 (entrywise) are symmetrized: an
    entry that differs bitwise from its transpose becomes (a_ij + a_ji)/2,
    the others are kept as given.  Anything worse is rejected as a likely
    upstream bug.  The matrix owns a read-only copy of its entries.
    Equality is identity, so a SymMatrix is hashable; compare `entries`
    to compare values.
    """

    entries: np.ndarray
    _spectrum: Spectrum | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise SpectralError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SpectralError("matrix entries must be finite")
        bits = a.view(np.uint64)  # compared as bits: by value, 0.0 == -0.0
        mixed = bits != bits.T
        a = a.copy()
        if mixed.any():
            drift = np.max(np.abs(a - a.T))
            if drift > _SYM_DRIFT_TOL:
                raise SpectralError(f"matrix is not symmetric (max asymmetry {drift:.3e})")
            a[mixed] = (a[mixed] + a.T[mixed]) / 2.0
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_dim(other)
        return SymMatrix(self.entries + other.entries)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self.entries)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries, "fro"))

    def _check_dim(self, other: "SymMatrix") -> None:
        if self.dim != other.dim:
            raise SpectralError(f"dimension mismatch: {self.dim} vs {other.dim}")

    @classmethod
    def zero(cls, d: int) -> "SymMatrix":
        return cls(np.zeros((d, d)))

    @classmethod
    def identity(cls, d: int) -> "SymMatrix":
        return cls(np.eye(d))

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "entries": self.entries.ravel().tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "SymMatrix":
        obj = json.loads(text)
        d = int(obj["dim"])
        flat = np.asarray(obj["entries"], dtype=float)
        if flat.size != d * d:
            raise SpectralError(f"expected {d * d} entries, got {flat.size}")
        return cls(flat.reshape(d, d))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) plus the orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    basis: np.ndarray = field(repr=False)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def eig_sym(a: SymMatrix) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    Computed on the first call and kept on `a`; every later call returns
    the same read-only Spectrum.
    """
    if a._spectrum is None:
        w, v = np.linalg.eigh(a.entries)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(a, "_spectrum", Spectrum(eigenvalues=w, basis=v))
    return a._spectrum


def lambda_max(a: SymMatrix) -> float:
    return eig_sym(a).lambda_max


def expm_sym(a: SymMatrix) -> SymMatrix:
    """exp(A) through the eigendecomposition V e^L V^T; symmetric PD result."""
    s = eig_sym(a)
    e = (s.basis * np.exp(s.eigenvalues)) @ s.basis.T
    return SymMatrix((e + e.T) / 2.0)


def trace_exp(t: float, a: SymMatrix) -> float:
    """Tr exp(tA) = sum_i e^{t lambda_i}.  Equals dim when t = 0."""
    if not np.isfinite(t):
        raise SpectralError("t must be finite")
    return float(np.sum(np.exp(t * eig_sym(a).eigenvalues)))


def log_trace_exp(t: float, a: SymMatrix) -> float:
    """log Tr exp(tA), computed stably in the log domain (no overflow)."""
    if not np.isfinite(t):
        raise SpectralError("t must be finite")
    z = t * eig_sym(a).eigenvalues
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def schatten_norm(a: SymMatrix, p: float) -> float:
    """p-Schatten norm: l^p norm of the eigenvalue vector. p = inf gives the
    spectral radius."""
    if p != np.inf and p < 1:
        raise SpectralError(f"Schatten norm needs p >= 1, got {p}")
    w = np.abs(eig_sym(a).eigenvalues)
    if p == np.inf:
        return float(np.max(w))
    return float(np.sum(w ** p) ** (1.0 / p))


def _rel_tol(rhs: float) -> float:
    return 1e-9 * (1.0 + abs(rhs))


def check_golden_thompson(a: SymMatrix, b: SymMatrix):
    """Golden-Thompson: Tr e^{A+B} <= Tr(e^A e^B).

    Returns (lhs, rhs, holds).
    """
    a._check_dim(b)
    lhs = trace_exp(1.0, a + b)
    rhs = float(np.trace(expm_sym(a).entries @ expm_sym(b).entries))
    return lhs, rhs, lhs <= rhs + _rel_tol(rhs)


def check_trace_holder(a: SymMatrix, b: SymMatrix, p: float):
    """Non-commutative Hoelder: |Tr(AB)| <= ||A||_{S^p} ||B||_{S^q}, 1/p + 1/q = 1.

    Returns (lhs, rhs, holds).
    """
    a._check_dim(b)
    if p <= 1:
        raise SpectralError(f"trace-Hoelder needs p > 1, got {p}")
    q = p / (p - 1.0)
    lhs = abs(float(np.trace(a.entries @ b.entries)))
    rhs = schatten_norm(a, p) * schatten_norm(b, q)
    return lhs, rhs, lhs <= rhs + _rel_tol(rhs)


def weyl_lambda_max_bound(matrices):
    """lambda_max of a sum vs sum of lambda_max (Weyl).

    Returns (lambda_max_of_sum, sum_of_lambda_max); the first never exceeds
    the second beyond roundoff.
    """
    matrices = list(matrices)
    if not matrices:
        raise SpectralError("need at least one matrix")
    total = matrices[0]
    for m in matrices[1:]:
        total = total + m
    return lambda_max(total), float(sum(lambda_max(m) for m in matrices))


def gerschgorin_bound(a: SymMatrix) -> float:
    """max_k sum_l |A[k,l]|; an upper bound on the spectral radius."""
    return float(np.max(np.sum(np.abs(a.entries), axis=1)))
