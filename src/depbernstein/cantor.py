"""Recursive Cantor-like blocking of {1..A} and the decomposition depth of {1..n}.

The construction keeps two side blocks and drops a middle gap at every
level; after ell levels the kept set K_A is a union of 2^ell runs of
consecutive integers, each of length n_ell, and satisfies
A >= |K_A| >= A/2.  All index sets are 1-based to match the usual
"first n observations" bookkeeping.

Runs are stored by their starts as int64 arrays, one row per A, never as
every integer.  A single A keeps its one row: the leaf starts and the gap
starts of each level.  Its kept set K is a sorted int64 array, built from
the leaf starts only when it is read, and the blocks of a level are the
rows of K.  Many A's that share ell give one `CantorStack`: A, delta, the
block and gap sizes and the run starts as arrays, one row per A, on which
the tiling of {1..A} is checked for every row at once, in the order the
runs lie in {1..A} (one run order per ell), so that only rows that do not
tile are sorted.  A stack's starts are laid out level-major, one
contiguous row of k starts per run, and its (k, runs) arrays are their
transposes.  The stack's sizes repeat `cantor_params`' float
operations on arrays, with logs and powers from Python's math (numpy's can
differ in the last bit), so the two recipes agree bit for bit.  The scalar
one stays for a single A, where a one-row array call costs over ten scalar ones.
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
    """The blockings of k sizes A that share ell, one row per A: A and
    delta, shape (k,), the block sizes n_0 .. n_ell, shape (k, ell + 1),
    the gap sizes d_0 .. d_{ell-1}, shape (k, ell), the leaf starts, shape
    (k, 2^ell), and per level j = 0..ell-1 the gap starts, shape (k, 2^j),
    in the order of `cantor_set`'s leaves and remainders."""
    A: np.ndarray
    delta: np.ndarray
    n_seq: np.ndarray
    d_seq: np.ndarray
    leaf_starts: np.ndarray
    gap_starts: tuple

    @property
    def ell(self) -> int:
        return self.n_seq.shape[1] - 1

    @property
    def card(self) -> np.ndarray:
        """|K_A| per row: the leaf count times the leaf length stop - start."""
        return self.leaf_starts.shape[1] * self.n_seq[:, -1]

    def runs(self):
        """(starts, stops) of the leaves, then the gaps level by level, each
        shape (k, 2^(ell+1) - 1): the transposes of level-major arrays, one
        contiguous (k,) row per run.  The lengths come from n_seq alone: a
        leaf is n_ell long and a gap at level j n_j - 2 n_{j+1}."""
        n = self.n_seq.T
        parts = [x.T for x in (self.leaf_starts, *self.gap_starts)]
        lengths = np.concatenate((n[-1:], n[:-1] - 2 * n[1:]))
        starts = np.concatenate(parts)
        stops = np.repeat(lengths, [len(x) for x in parts], axis=0)
        stops += starts
        return starts.T, stops.T


def cantor_params(A: int) -> CantorParams:
    """Level count ell, block sizes n_j and gap sizes d_j for {1..A}.

    delta = log 2 / (2 log A) and ell is the largest k >= 1 with
    A*delta*(1-delta)^(k-1)/2^k >= 2.  When no such k exists (small A,
    e.g. A <= 43) we take ell = 0 and the kept set is all of {1..A}.
    """
    A = _size(A, "A")
    delta = math.log(2.0) / (2.0 * math.log(A))
    ell = 0
    k = 1
    while A * delta * (1.0 - delta) ** (k - 1) / 2.0 ** k >= 2.0:
        ell = k
        k += 1
    n_seq = [A]
    d_seq = []
    for j in range(1, ell + 1):
        nj = math.ceil(A * (1.0 - delta) ** j / 2.0 ** j)
        d_seq.append(n_seq[-1] - 2 * nj)
        n_seq.append(nj)
    return CantorParams(A=A, delta=delta, ell=ell, n_seq=tuple(n_seq), d_seq=tuple(d_seq))


def cantor_set(A: int) -> CantorPartition:
    """Recursive trisection of {1..A}: each block of n_{j-1} consecutive
    integers splits into a left block of n_j, a gap of d_{j-1} and a right
    block of n_j.  The runs are the one row of `_run_starts` for A."""
    p = cantor_params(A)
    (leaf_starts,), gap_starts = _run_starts(np.array([p.n_seq]))
    return CantorPartition(p, leaf_starts, tuple(g[0] for g in gap_starts))


def cantor_stacks(sizes) -> list:
    """One `CantorStack` per level count ell among the sizes A, in order of
    ell; the rows of a stack keep the order in which their A's were given."""
    A, delta, ell, n, d = _array_params(sizes)
    stacks = []
    for level in np.unique(ell).tolist():
        rows = np.flatnonzero(ell == level)
        n_seq = n[rows, :level + 1]
        stacks.append(CantorStack(A[rows], delta[rows], n_seq, d[rows, :level],
                                  *_run_starts(n_seq)))
    return stacks


def _array_params(sizes):
    """`cantor_params` on every size at once: A, delta and ell, shape (k,),
    and n_j and d_j, shape (k, max ell + 1) and (k, max ell), whose columns
    past a row's ell are not its sizes.  Step k raises 1 - delta to the
    power k - 1 for the rows whose ell is at least k - 1, which gives their
    n_{k-1} and tells whether level k exists."""
    sizes = [_size(A, "A") for A in sizes]
    A = np.array(sizes, dtype=np.int64)
    delta = math.log(2.0) / (2.0 * np.fromiter(map(math.log, sizes), float, len(sizes)))
    ell = np.zeros_like(A)
    n = [A]  # n_j for the rows with ell >= j, 0 in the others
    rows, k = np.arange(A.size), 1
    while rows.size:
        a = A[rows]
        power = np.fromiter(map(pow, (1.0 - delta[rows]).tolist(), repeat(k - 1)),
                            float, rows.size)
        if k > 1:
            n.append(np.zeros_like(A))
            n[-1][rows] = np.ceil(a * power / 2.0 ** (k - 1))
        rows = rows[a * delta[rows] * power / 2.0 ** k >= 2.0]
        ell[rows] = k
        k += 1
    n = np.stack(n, axis=1)
    return A, delta, ell, n, n[:, :-1] - 2 * n[:, 1:]


def _run_starts(n_seq: np.ndarray):
    """Leaf and gap starts for rows of block sizes n_0 .. n_ell, shape
    (k, ell + 1).  At level j every block start s gives a gap at s + n_j
    and two blocks at s and s + n_{j-1} - n_j.  The starts are built
    level-major, one (k,) row per run, and returned as their transposes:
    the leaf starts, shape (k, 2^ell), and the tuple of gap starts, shape
    (k, 2^j) at level j."""
    n = n_seq.T
    shifts = n[:-1] - n[1:]
    starts = np.ones((1, len(n_seq)), dtype=np.int64)  # one row per block of level j
    gaps = []
    for j in range(1, len(n)):
        gaps.append(starts + n[j])
        children = np.empty((2 * len(starts), len(n_seq)), dtype=np.int64)
        children[0::2] = starts
        np.add(starts, shifts[j - 1], out=children[1::2])
        starts = children
    return starts.T, tuple(g.T for g in gaps)


def tiles_exactly(stack: CantorStack) -> np.ndarray:
    """Per row of the stack, whether its leaves and gaps tile {1..A}: sorted
    by start, every non-empty run begins where the previous one stopped,
    from 1 to A + 1.  This checks cover and disjointness together.  The runs
    are read level-major, one contiguous (k,) row per run, and each run but
    the first leaf is compared with the run before it in the construction's
    layout, in which the rows of a true tiling need no sort; only the rows
    that do not link go to `_chains`' sort."""
    walk = _in_order(stack.ell)
    before = np.empty_like(walk)
    before[walk[1:]] = walk[:-1]  # walk[0] is leaf 0, which starts at 1
    starts, stops = (x.T for x in stack.runs())
    tiles = ((starts[0] == 1) & (stops[walk[-1]] == stack.A + 1)
             & (starts[1:] == stops[before[1:]]).all(axis=0) & (stops > starts).all(axis=0))
    rows = np.flatnonzero(~tiles)
    if rows.size:
        tiles[rows] = _chains(starts[:, rows].T, stops[:, rows].T, stack.A[rows])
    return tiles


def _in_order(ell: int) -> np.ndarray:
    """The columns of `CantorStack.runs` in the order their runs lie in
    {1..A}: every block is its left child, its gap, then its right child."""
    walk = np.arange(2 ** ell)[:, None]  # per block of level ell, its leaf
    for j in range(ell - 1, -1, -1):
        children = walk.reshape(2 ** j, 2, -1)
        gaps = 2 ** ell + 2 ** j - 1 + np.arange(2 ** j)[:, None]
        walk = np.concatenate((children[:, 0], gaps, children[:, 1]), axis=1)
    return walk.ravel()


def _chains(starts: np.ndarray, stops: np.ndarray, A) -> np.ndarray:
    """Per row of runs [start, stop): whether the non-empty runs, sorted by
    start, chain from 1 to A + 1.  Empty runs become [1, 1) and sort first.
    A row whose runs are all non-empty and chain as given is sorted already;
    only the other rows are sorted and checked again."""
    A = np.broadcast_to(A, starts.shape[:1])
    linked = _linked(starts, stops, A) & (stops > starts).all(axis=-1)
    rows = np.flatnonzero(~linked)
    if rows.size:
        starts, stops = starts[rows], stops[rows]
        empty = stops <= starts
        order = np.argsort(np.where(empty, 0, starts), axis=-1)
        starts, stops = (np.take_along_axis(np.where(empty, 1, x), order, axis=-1)
                         for x in (starts, stops))
        linked[rows] = _linked(starts, stops, A[rows])
    return linked


def _linked(starts: np.ndarray, stops: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Per row, whether each run begins where the one before it stopped,
    the first at 1 and the last stopping at A + 1."""
    return ((starts[:, 0] == 1) & (starts[:, 1:] == stops[:, :-1]).all(axis=-1)
            & (stops[:, -1] == A + 1))


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
    """x as a Python int >= 2; any integral type but bool is accepted."""
    try:
        value = index(x)
    except TypeError:
        value = None
    if value is None or isinstance(x, bool) or value < 2:
        raise CantorError(f"{name} must be an integer >= 2, got {x!r}")
    return value
