"""Dense real-symmetric matrix kernels.

Everything here is a pure function of immutable inputs. Matrices are small
(desk scale, d up to a few hundred), so the eigendecomposition route is
used throughout rather than specialized algorithms.  Every kernel takes a
SymMatrix, which holds one d x d matrix or a stack of k of them (shape
(k, d, d)), and runs the same code on both: a stack gives one result per
matrix, as an array, and a single matrix gives a Python scalar.  A raw
array is validated into a SymMatrix.  Each SymMatrix computes its
eigenvalues at most once (by `eigvalsh` where no basis is read) and keeps
them; a basis is not kept.  Its entries and the kept eigenvalues are
read-only, so they cannot go stale.  The inequalities
these kernels are checked against, with their slacks, live in `checks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Asymmetry beyond this (absolute) is rejected instead of silently symmetrized.
_SYM_DRIFT_TOL = 1e-12


class SpectralError(ValueError):
    """Invalid input to a spectral operation."""


def _symmetrized(a) -> np.ndarray:
    """The entries of a SymMatrix: a read-only copy of `a`, every matrix
    held to the symmetry rule of SymMatrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise SpectralError("expected a square matrix or a stack of square"
                            f" matrices, got shape {a.shape}")
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
class SymMatrix:
    """A real symmetric d x d matrix, or a stack of k of them (shape
    (k, d, d)), symmetry enforced at construction.

    Inputs with asymmetry at most 1e-12 (entrywise) are symmetrized: an
    entry that differs bitwise from its transpose becomes (a_ij + a_ji)/2,
    the others are kept as given.  Anything worse is rejected as a likely
    upstream bug.  The matrix owns a read-only copy of its entries, and a
    stack is decomposed in one call.  Equality is identity, so a SymMatrix
    is hashable; compare `entries` to compare values.
    """

    entries: np.ndarray
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _symmetrized(self.entries))

    def __add__(self, other):
        _check_shapes(self, other)
        return SymMatrix(self.entries + other.entries)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) plus the orthonormal eigenbasis, with a
    leading axis of length k for a stack."""

    eigenvalues: np.ndarray
    basis: np.ndarray = field(repr=False)


def _sym(a) -> SymMatrix:
    """a itself if it is a SymMatrix; a raw array validated into one."""
    return a if isinstance(a, SymMatrix) else SymMatrix(a)


def _check_shapes(a: SymMatrix, b: SymMatrix) -> None:
    if a.entries.shape != b.entries.shape:
        raise SpectralError(f"dimension mismatch: shape {a.entries.shape}"
                            f" vs {b.entries.shape}")


def _out(x):
    """A 0-d result (from a single matrix) as a Python scalar; arrays as is."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _descending(x: np.ndarray) -> np.ndarray:
    """x reversed on its last axis (eigh and eigvalsh sort ascending), read-only."""
    x = x[..., ::-1]
    x.flags.writeable = False
    return x


def eig_sym(a) -> Spectrum:
    """Full spectrum, eigenvalues sorted descending, one `eigh` call for a
    whole stack.  Eigenvalues that `a` already holds are reused, and those
    found here are kept on `a`; the basis is not kept.
    """
    a = _sym(a)
    w, v = np.linalg.eigh(a.entries)
    if a._eigenvalues is None:
        object.__setattr__(a, "_eigenvalues", _descending(w))
    return Spectrum(a._eigenvalues, _descending(v))


def _eigenvalues(a) -> np.ndarray:
    """The eigenvalues of `a`, descending; one `eigvalsh` call for a whole
    stack if `a` holds none yet."""
    a = _sym(a)
    if a._eigenvalues is None:
        object.__setattr__(a, "_eigenvalues", _descending(np.linalg.eigvalsh(a.entries)))
    return a._eigenvalues


def lambda_max(a):
    return _out(_eigenvalues(a)[..., 0])


def expm_sym(a) -> SymMatrix:
    """exp(A) through the eigendecomposition V e^L V^T; symmetric PD, of
    the same shape as a."""
    s = eig_sym(a)
    e = (s.basis * np.exp(s.eigenvalues)[..., None, :]) @ np.swapaxes(s.basis, -1, -2)
    return SymMatrix((e + np.swapaxes(e, -1, -2)) / 2.0)


def _exponents(t, a) -> np.ndarray:
    """t lambda_i(a), with t a scalar or one point per matrix of a stack."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise SpectralError("t must be finite")
    return t[..., None] * _eigenvalues(a)


def trace_exp(t, a):
    """Tr exp(tA) = sum_i e^{t lambda_i}.  Equals d when t = 0."""
    return _out(np.sum(np.exp(_exponents(t, a)), axis=-1))


def schatten_norm(a, p: float):
    """p-Schatten norm: l^p norm of the eigenvalue vector. p = inf gives the
    spectral radius."""
    if not p >= 1:
        raise SpectralError(f"Schatten norm needs p >= 1, got {p}")
    w = np.abs(_eigenvalues(a))
    if p == np.inf:
        return _out(np.max(w, axis=-1))
    return _out(np.sum(w ** p, axis=-1) ** (1.0 / p))


def trace_product(a, b):
    """Tr(AB), per matrix of a stack; a and b must have one shape."""
    a, b = _sym(a), _sym(b)
    _check_shapes(a, b)
    return _out(np.einsum("...ij,...ji->...", a.entries, b.entries))


def gerschgorin_bound(a):
    """max_k sum_l |A[k,l]|; an upper bound on the spectral radius."""
    return _out(np.max(np.sum(np.abs(_sym(a).entries), axis=-1), axis=-1))
