"""Recursive Cantor-like blocking of {1..A} and the full decomposition of {1..n}.

The construction keeps two side blocks and drops a middle gap at every
level; after ell levels the kept set K_A is a union of 2^ell runs of
consecutive integers, each of length n_ell, and satisfies
A >= |K_A| >= A/2.  All index sets are 1-based to match the usual
"first n observations" bookkeeping.

Leaves and gaps are stored as `range` runs, never as lists of integers;
the sorted kept tuple K is built from the leaves only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter


class CantorError(ValueError):
    """Invalid input to a blocking operation."""


@dataclass(frozen=True)
class CantorParams:
    A: int
    delta: float
    ell: int
    n_seq: tuple  # n_0 .. n_ell
    d_seq: tuple  # d_0 .. d_{ell-1}


@dataclass(frozen=True)
class CantorPartition:
    params: CantorParams
    leaves: tuple            # the 2^ell runs of consecutive integers, as ranges
    remainders: tuple        # per level j = 0..ell-1, tuple of 2^j gap ranges

    @property
    def K(self) -> tuple:
        """Sorted kept indices, a subset of {1..A}; built on each access."""
        return tuple(chain.from_iterable(self.leaves))

    @property
    def card(self) -> int:
        return sum(map(len, self.leaves))


@dataclass(frozen=True)
class FullDecomposition:
    n: int
    levels: tuple            # C_0 .. C_{L-1}, each a sorted tuple of original indices
    remainder: tuple         # final surviving indices, at most 2 of them
    cards: tuple             # A_0 .. A_L

    @property
    def L(self) -> int:
        return len(self.levels)


def cantor_params(A: int) -> CantorParams:
    """Level count ell, block sizes n_j and gap sizes d_j for {1..A}.

    delta = log 2 / (2 log A) and ell is the largest k >= 1 with
    A*delta*(1-delta)^(k-1)/2^k >= 2.  When no such k exists (small A,
    e.g. A <= 43) we take ell = 0 and the kept set is all of {1..A}.
    """
    if not isinstance(A, (int,)) or A < 2:
        raise CantorError(f"A must be an integer >= 2, got {A!r}")
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
    block of n_j.  Only the block starts are carried from level to level:
    the right block starts n_{j-1} - n_j after the left one."""
    p = cantor_params(A)
    starts = [1]
    remainders = []
    for size, nj in zip(p.n_seq, p.n_seq[1:]):
        remainders.append(tuple(range(s + nj, s + size - nj) for s in starts))
        shift = size - nj
        starts = [x for s in starts for x in (s, s + shift)]
    last = p.n_seq[-1]
    leaves = tuple(range(s, s + last) for s in starts)
    return CantorPartition(params=p, leaves=leaves, remainders=tuple(remainders))


def tiles_exactly(partition: CantorPartition) -> bool:
    """Whether the leaves and gaps tile {1..A}: sorted by start, every
    non-empty run begins where the previous one stopped, from 1 to A + 1.
    This checks cover and disjointness together."""
    runs = sorted((r for r in chain(partition.leaves, *partition.remainders) if r),
                  key=attrgetter("start"))
    stop = 1
    for r in runs:
        if r.start != stop or r.step != 1:
            return False
        stop = r.stop
    return stop == partition.params.A + 1


def level_runs(partition: CantorPartition, k: int) -> list:
    """The 2^k disjoint blocks K_{k,j} covering K, each as its tuple of leaf
    runs: block j is leaves (j-1)*2^(ell-k)+1 .. j*2^(ell-k)."""
    ell = partition.params.ell
    if not 0 <= k <= ell:
        raise CantorError(f"level k must be in [0, {ell}], got {k}")
    width = 2 ** (ell - k)
    return [partition.leaves[j * width:(j + 1) * width] for j in range(2 ** k)]


def level_blocks(partition: CantorPartition, k: int):
    """The blocks of level_runs, each as the sorted tuple of its indices."""
    return [tuple(chain.from_iterable(runs)) for runs in level_runs(partition, k)]


def full_decomposition(n: int) -> FullDecomposition:
    """Iterate the construction on the surviving positions until at most 2
    remain.  Survivors are relabeled 1..A_i order-preservingly at each step
    and the extracted set is mapped back to original coordinates: the leaves
    of {1..A_i} give the kept positions, its gaps in order the survivors."""
    cards = _survivor_counts(n)
    surviving = list(range(1, n + 1))
    levels = []
    for A in cards[:-1]:
        part = cantor_set(A)
        gaps = sorted(chain.from_iterable(part.remainders), key=attrgetter("start"))
        levels.append(tuple(_take(surviving, part.leaves)))
        surviving = _take(surviving, gaps)
    return FullDecomposition(
        n=n, levels=tuple(levels), remainder=tuple(surviving), cards=cards
    )


def decomposition_depth(n: int) -> int:
    """Number of extraction levels L for {1..n} (remainder excluded),
    from cardinalities alone."""
    return len(_survivor_counts(n)) - 1


def _survivor_counts(n: int) -> tuple:
    """A_0 = n, A_{i+1} = A_i - 2^ell n_ell (the kept set of {1..A_i} is
    2^ell runs of n_ell), until at most 2 positions survive."""
    if not isinstance(n, int) or n < 2:
        raise CantorError(f"n must be an integer >= 2, got {n!r}")
    cards = [n]
    while cards[-1] > 2:
        p = cantor_params(cards[-1])
        cards.append(cards[-1] - 2 ** p.ell * p.n_seq[-1])
    return tuple(cards)


def sub_block_partition(K, p: int):
    """Split an index set of size q into alternating intervals of length p.

    With m = floor(q/(2p)): 2m intervals of length p in order, plus a
    remainder interval of length q - 2pm (< 2p) appended to the odd family.
    Returns (odd_blocks, even_blocks) with m+1 and m intervals respectively.
    """
    K = tuple(K)
    q = len(K)
    if p < 1:
        raise CantorError(f"p must be >= 1, got {p}")
    if 2 * p > q:
        raise CantorError(f"need 2p <= |K|, got p={p}, |K|={q}")
    m = q // (2 * p)
    intervals = [K[i * p:(i + 1) * p] for i in range(2 * m)]
    intervals.append(K[2 * m * p:])  # remainder, possibly empty
    odd = [intervals[i] for i in range(0, 2 * m, 2)] + [intervals[-1]]
    even = [intervals[i] for i in range(1, 2 * m, 2)]
    return odd, even


def _take(seq: list, runs) -> list:
    """The entries of seq at the 1-based positions of the runs, in run order."""
    return list(chain.from_iterable(seq[r.start - 1:r.stop - 1] for r in runs))
