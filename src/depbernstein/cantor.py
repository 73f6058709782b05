"""Recursive Cantor-like blocking of {1..A} and the decomposition depth of {1..n}.

The construction keeps two side blocks and drops a middle gap at every
level; after ell levels the kept set K_A is a union of 2^ell runs of
consecutive integers, each of length n_ell, and satisfies
A >= |K_A| >= A/2.  All index sets are 1-based to match the usual
"first n observations" bookkeeping.

Runs are stored by their starts as int64 arrays, never as every integer,
in the order they lie in {1..A} (every block is its left child, its gap,
then its right child), so the leaves and each level's gaps are strided
views.  A single A keeps one column of starts, built from its 1-D sizes by
the stack's builder; its kept set K, a sorted int64 array, is built from the
leaf starts when it is read.  Many A's that share ell give one `CantorStack`:
A, delta and the block and gap sizes, one row per A, and the starts, built
once, one row of k per run, on which the tiling of {1..A} is checked for
every A at once, in the stored run order with no sort (a permuted or empty
run is not a tiling).  Its sizes repeat `cantor_params`' float operations, one
power of 1 - delta a level, on arrays with Python's log and pow (numpy's can
differ in the last bit), so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import index

import numpy as np


class CantorError(ValueError):
    """Invalid input to a blocking operation."""


@dataclass(frozen=True)
class CantorParams:
    A: int
    delta: float
    ell: int
    n_seq: tuple  # n_0 .. n_ell
    d_seq: tuple  # d_0 .. d_{ell-1}


@dataclass(frozen=True, eq=False)
class CantorPartition:
    """The blocking of one A by its run starts; equality is identity."""
    params: CantorParams
    leaf_starts: np.ndarray  # the 2^ell leaf starts as int64, each leaf n_ell long
    gap_starts: tuple        # per level j = 0..ell-1, the 2^j gap starts, each d_j long

    @property
    def K(self) -> np.ndarray:
        """Sorted kept indices, a subset of {1..A}, as an int64 array of
        |K| entries; built on each access."""
        return (self.leaf_starts[:, None] + np.arange(self.params.n_seq[-1])).ravel()

    @property
    def card(self) -> int:
        return self.leaf_starts.size * self.params.n_seq[-1]


@dataclass(frozen=True, eq=False)
class CantorStack:
    """The blockings of k sizes A that share ell: A and delta, shape (k,),
    n_0 .. n_ell and d_0 .. d_{ell-1}, shape (k, ell + 1) and (k, ell), and
    the start of every run, shape (2^(ell+1) - 1, k), one row per run in the
    order the runs lie in {1..A}, of which the leaf and gap starts are views."""
    A: np.ndarray
    delta: np.ndarray
    n_seq: np.ndarray
    d_seq: np.ndarray
    starts: np.ndarray

    @property
    def ell(self) -> int:
        return self.n_seq.shape[1] - 1

    @property
    def leaf_starts(self) -> np.ndarray:
        """The leaf starts, shape (k, 2^ell), in `cantor_set`'s order."""
        return self.starts[::2].T

    @property
    def gap_starts(self) -> tuple:
        """Per level j = 0..ell-1, the gap starts, shape (k, 2^j)."""
        return tuple(self.starts[rows].T for rows in _layers(self.ell)[1:])

    @property
    def card(self) -> np.ndarray:
        """|K_A| per row: the leaf count times the leaf length stop - start."""
        return (len(self.starts) + 1) // 2 * self.n_seq[:, -1]

    def lengths(self) -> np.ndarray:
        """Per layer, shape (ell + 1, k), from n_seq alone: n_ell, then n_j - 2 n_{j+1}."""
        n = self.n_seq.T
        return np.concatenate((n[-1:], n[:-1] - 2 * n[1:]))

    def runs(self):
        """(starts, stops) of every run, each shape (k, 2^(ell+1) - 1), in
        the order the runs lie in {1..A}."""
        stops = self.starts.copy()
        for rows, length in zip(_layers(self.ell), self.lengths()):
            stops[rows] += length
        return self.starts.T, stops.T


def cantor_params(A: int) -> CantorParams:
    """Level count ell, block sizes n_j and gap sizes d_j for {1..A}.

    delta = log 2 / (2 log A) and ell is the largest k >= 1 with
    A*delta*(1-delta)^(k-1)/2^k >= 2.  When no such k exists (small A,
    e.g. A <= 43) we take ell = 0 and the kept set is all of {1..A}.
    """
    A = _size(A, "A")
    delta = math.log(2.0) / (2.0 * math.log(A))
    n_seq, d_seq, power, k = [A], [], 1.0, 1  # power = (1 - delta)^(k-1); pow(x, 0) is 1
    while A * delta * power / 2.0 ** k >= 2.0:  # level k exists: its n_k and d_{k-1}
        power = (1.0 - delta) ** k
        n_seq.append(math.ceil(A * power / 2.0 ** k))
        d_seq.append(n_seq[-2] - 2 * n_seq[-1])
        k += 1
    return CantorParams(A=A, delta=delta, ell=k - 1, n_seq=tuple(n_seq), d_seq=tuple(d_seq))


def cantor_set(A: int) -> CantorPartition:
    """Recursive trisection of {1..A}: each block of n_{j-1} consecutive
    integers splits into a left block of n_j, a gap of d_{j-1} and a right
    block of n_j.  The runs are the one column of `_run_starts` for A."""
    p = cantor_params(A)
    starts = _run_starts(np.array(p.n_seq))
    leaf_starts, *gap_starts = (starts[rows] for rows in _layers(p.ell))
    return CantorPartition(p, leaf_starts, tuple(gap_starts))


def cantor_stacks(sizes) -> list:
    """One `CantorStack` per level count ell among the sizes A, in order of
    ell; the rows of a stack keep the order in which their A's were given.
    A size past int64 raises a `CantorError` that names it."""
    A, delta, ell, n, d = _array_params(sizes)
    order = np.argsort(ell, kind="stable")  # grouped by ell, each group in the order given
    levels, first = np.unique(ell[order], return_index=True)
    stacks = []
    for level, rows in zip(levels.tolist(), np.split(order, first[1:])):
        n_seq = n[rows, :level + 1]
        stacks.append(CantorStack(A[rows], delta[rows], n_seq, d[rows, :level],
                                  _run_starts(n_seq.T)))
    return stacks


def _array_params(sizes):
    """`cantor_params` on every size at once: A, delta and ell, shape (k,),
    and n_j and d_j, shape (k, max ell + 1) and (k, max ell), whose columns
    past a row's ell are not its sizes.  Step k raises 1 - delta to the
    power k - 1 (by `math.pow`, the libm pow of `**`; at k = 1 it is exactly 1,
    C99 F.9.4.4) for the rows with ell >= k - 1: their n_{k-1}, and whether
    level k exists."""
    A = np.array(sizes)
    if A.dtype != np.int64 or (A < 2).any():  # _size words the error
        A = [_size(x, "A") for x in sizes]
        if max(A, default=0) >= 2 ** 63:
            raise CantorError(f"A must be below 2^63 in a stack, got {max(A)}")
        A = np.array(A, dtype=np.int64)
    delta = math.log(2.0) / (2.0 * np.fromiter(map(math.log, A.tolist()), float, A.size))
    x, scaled = 1.0 - delta, A * delta
    # row j: n_j where ell >= j, else 0 (which no n_j is); ell <= log2 A - 2
    n = np.zeros((int(A.max(initial=2)).bit_length(), A.size), dtype=np.int64)
    n[0] = A
    rows, power, k = np.arange(A.size), np.ones(A.size), 1
    while rows.size:
        if k > 1:
            power = np.fromiter(map(math.pow, x[rows].tolist(), repeat(k - 1.0)), float, rows.size)
            n[k - 1, rows] = np.ceil(A[rows] * power / 2.0 ** (k - 1))
        rows = rows[scaled[rows] * power / 2.0 ** k >= 2.0]
        k += 1
    n = n[:k - 1]
    return A, delta, (n[1:] > 0).sum(axis=0), n.T, (n[:-1] - 2 * n[1:]).T


def _run_starts(n: np.ndarray) -> np.ndarray:
    """`CantorStack.starts`, shape (2^(ell+1) - 1, *k), from the sizes n_0 .. n_ell,
    shape (ell + 1, *k); a lone A's 1-D sizes give its one column.  A level-j block
    whose runs begin at row s starts where its first leaf does; its gap (row
    s + 2^(ell-j) - 1) starts n_{j+1} later and its right child (from row
    s + 2^(ell-j)) n_j - n_{j+1} later: two strided row views a level."""
    ell = len(n) - 1
    starts = np.empty((2 ** (ell + 1) - 1, *n.shape[1:]), dtype=np.int64)
    starts[0] = 1
    for j in range(ell):
        span = 2 ** (ell - j)
        blocks = starts[::2 * span]
        np.add(blocks, n[j + 1], out=starts[span - 1::2 * span])
        np.add(blocks, n[j] - n[j + 1], out=starts[span::2 * span])
    return starts


def _layers(ell: int) -> list:
    """The rows of a stack's starts that hold its leaves (every other row),
    then level j's gaps (every 2^(ell-j+1)-th row from row 2^(ell-j) - 1)."""
    return [np.s_[::2]] + [np.s_[2 ** (ell - j) - 1::2 ** (ell - j + 1)] for j in range(ell)]


def tiles_exactly(stack: CantorStack) -> np.ndarray:
    """Per row of the stack, whether its leaves and gaps tile {1..A} in the
    order the runs are stored, with no sort: every run has positive length,
    the first starts at 1, each begins where the one before it stopped (the
    step from a start to the next, less its run's length, one (k,) row a
    layer, is 0), and the last stops at A + 1 (cover and disjointness
    together).  A row whose runs are permuted or empty is not a tiling."""
    starts, lengths = stack.starts, stack.lengths()
    step = np.diff(starts, axis=0)
    for rows, length in zip(_layers(stack.ell), lengths):
        step[rows] -= length
    return ((starts[0] == 1) & (starts[-1] + lengths[0] == stack.A + 1)
            & (lengths > 0).all(axis=0) & ~step.any(axis=0))


def level_runs(partition: CantorPartition, k: int) -> np.ndarray:
    """The 2^k disjoint blocks K_{k,j} covering K, one row per block: row j
    holds the starts of leaves (j-1)*2^(ell-k)+1 .. j*2^(ell-k), shape
    (2^k, 2^(ell-k)), each leaf n_ell long."""
    ell = partition.params.ell
    if not 0 <= k <= ell:
        raise CantorError(f"level k must be in [0, {ell}], got {k}")
    return partition.leaf_starts.reshape(2 ** k, -1)


def level_blocks(partition: CantorPartition, k: int) -> np.ndarray:
    """The blocks of level_runs as the rows of K, shape (2^k, |K|/2^k):
    row j is the sorted indices of block j."""
    return partition.K.reshape(len(level_runs(partition, k)), -1)


def decomposition_depth(n: int) -> int:
    """Number of extraction levels L for {1..n} (remainder excluded), from
    cardinalities alone: A_0 = n, A_{i+1} = A_i - 2^ell n_ell (the kept set
    of {1..A_i} is 2^ell runs of n_ell), until at most 2 positions survive."""
    A, L = _size(n, "n"), 0
    while A > 2:
        p = cantor_params(A)
        A -= 2 ** p.ell * p.n_seq[-1]
        L += 1
    return L


def _size(x, name: str) -> int:
    """x as a Python int >= 2; any integral type is accepted (a bool is 0 or 1)."""
    try:
        if index(x) >= 2:
            return index(x)
    except TypeError:
        pass
    raise CantorError(f"{name} must be an integer >= 2, got {x!r}")
