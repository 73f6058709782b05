import dataclasses
import hashlib
import math
from itertools import chain

import numpy as np
import pytest

from depbernstein import checks
from depbernstein.cantor import (
    CantorError,
    CantorParams,
    _array_params,
    _run_starts,
    cantor_params,
    cantor_set,
    cantor_stacks,
    decomposition_depth,
    level_blocks,
    level_runs,
    tiles_exactly,
)


def _full_decomposition_by_sets(n):
    """The decomposition of {1..n} built from its index sets, the reference
    for `decomposition_depth`, which counts its levels from cardinalities
    alone: at each level the relabeled positions in the set K are kept and
    the others survive, each read off the current labels by position.
    Membership in K is a binary search of its sorted copy, one array call
    per level."""
    cards = [n]
    surviving = np.arange(1, n + 1)
    levels = []
    while cards[-1] > 2:
        A = cards[-1]
        K, positions = np.sort(cantor_set(A).K), np.arange(1, A + 1)
        kept = K[np.searchsorted(K, positions).clip(max=K.size - 1)] == positions
        levels.append(surviving[kept])
        surviving = surviving[~kept]
        cards.append(surviving.size)
    return levels, surviving, tuple(cards)


def _chains_by_sort(starts, stops, A):
    """The tiling check that sorted every row by start, kept as the
    reference for `tiles_exactly`, which reads the runs in their stored
    order: the two agree on rows stored in the order the runs lie in {1..A}."""
    empty = stops <= starts
    starts, stops = np.where(empty, 1, starts), np.where(empty, 1, stops)
    order = np.argsort(np.where(empty, 0, starts), axis=-1)
    starts, stops = (np.take_along_axis(x, order, axis=-1) for x in (starts, stops))
    begins = np.concatenate((np.ones_like(stops[:, :1]), stops[:, :-1]), axis=1)
    return (starts == begins).all(axis=-1) & (stops[:, -1] == np.asarray(A) + 1)


def _row_params(stack, i):
    """Row i of a stack as the `CantorParams` of its A."""
    return CantorParams(A=int(stack.A[i]), delta=float(stack.delta[i]), ell=stack.ell,
                        n_seq=tuple(stack.n_seq[i].tolist()),
                        d_seq=tuple(stack.d_seq[i].tolist()))


class TestParams:
    def test_A_100(self):
        p = cantor_params(100)
        assert p.delta == pytest.approx(math.log(2) / (2 * math.log(100)))
        assert p.ell == 1
        assert p.n_seq == (100, 47)
        assert p.d_seq == (6,)

    def test_A_1000(self):
        p = cantor_params(1000)
        assert p.ell == 4
        assert p.n_seq == (1000, 475, 226, 108, 51)
        assert p.d_seq == (50, 23, 10, 6)

    def test_small_A_fallback(self):
        # A*delta/2 = 1 < 2, so no level qualifies
        assert cantor_params(16).ell == 0
        assert cantor_params(2).ell == 0

    def test_rejects_small(self):
        with pytest.raises(CantorError):
            cantor_params(1)

    def test_numpy_integers_are_sizes(self):
        p = cantor_params(np.int64(100))
        assert p == cantor_params(100) and type(p.A) is int
        assert decomposition_depth(np.int32(1000)) == decomposition_depth(1000)
        assert decomposition_depth(np.uint16(100)) == decomposition_depth(100)

    @pytest.mark.parametrize("bad", [100.0, True, np.float64(100.0), "100"])
    def test_rejects_non_integral_sizes(self, bad):
        for fn in (cantor_params, decomposition_depth):
            with pytest.raises(CantorError):
                fn(bad)

    def test_level_ceiling(self):
        for A in (2, 10, 100, 1000, 4999):
            p = cantor_params(A)
            assert p.ell <= math.log(A) / math.log(2)


class TestCantorSet:
    def test_A_100_shape(self):
        part = cantor_set(100)
        assert part.K.tolist() == list(range(1, 48)) + list(range(54, 101))
        assert part.card == 94

    def test_A_2_fallback(self):
        part = cantor_set(2)
        assert part.params.ell == 0
        assert part.K.tolist() == [1, 2]

    def test_A_1000_card(self):
        part = cantor_set(1000)
        assert part.card == 16 * 51
        assert part.card >= 500

    def test_disjoint_cover(self):
        for A in (2, 7, 44, 100, 573, 1000):
            part = cantor_set(A)
            seen = part.K.tolist()
            for starts, d in zip(part.gap_starts, part.params.d_seq):
                for s in starts.tolist():
                    seen.extend(range(s, s + d))
            assert sorted(seen) == list(range(1, A + 1))
            (stack,) = cantor_stacks([A])
            assert tiles_exactly(stack).tolist() == [True]

    def test_shifted_gap_is_not_a_tiling(self):
        (stack,) = cantor_stacks([1000])
        bad = dataclasses.replace(stack, starts=stack.starts.copy())
        bad.gap_starts[0][:] += 1  # a view of bad's starts
        assert tiles_exactly(bad).tolist() == [False]

    def test_overlap_is_not_a_tiling(self):
        # n_0 one larger widens the level-0 gap into the next leaf, yet the
        # runs still cover {1..A}, so a check by set union alone would accept it
        (stack,) = cantor_stacks([1000])
        bad = dataclasses.replace(stack, n_seq=stack.n_seq.copy())
        bad.n_seq[:, 0] += 1
        starts, stops = bad.runs()
        covered = set().union(*map(range, starts[0].tolist(), stops[0].tolist()))
        assert covered == set(range(1, 1001))
        assert tiles_exactly(bad).tolist() == [False]

    def test_short_last_leaf_is_not_a_tiling(self):
        # n_ell one short: every leaf, the last one too, stops a step early
        (stack,) = cantor_stacks([1000])
        bad = dataclasses.replace(stack, n_seq=stack.n_seq.copy())
        bad.n_seq[:, -1] -= 1
        assert bad.runs()[1][0, -1] == 1000
        assert tiles_exactly(bad).tolist() == [False]

    def test_runs_are_ranges(self):
        # every run is the range [start, start + length), stored by its
        # int64 start alone; K is the leaves' ranges joined, as int64
        for A in (2, 44, 100, 1000, 4999):
            part = cantor_set(A)
            ell, n_ell = part.params.ell, part.params.n_seq[-1]
            assert part.leaf_starts.dtype == np.int64
            assert part.leaf_starts.shape == (2 ** ell,)
            assert [g.dtype for g in part.gap_starts] == [np.int64] * ell
            assert [g.shape for g in part.gap_starts] == [(2 ** j,) for j in range(ell)]
            K = part.K
            assert K.dtype == np.int64 and type(part.card) is int
            assert K.tolist() == list(chain(*(range(s, s + n_ell)
                                              for s in part.leaf_starts.tolist())))

    def test_deterministic(self):
        a, b = cantor_set(777), cantor_set(777)
        assert a.params == b.params and a.K.tolist() == b.K.tolist()
        assert [g.tolist() for g in a.gap_starts] == [g.tolist() for g in b.gap_starts]


    def test_runs_pinned_for_every_A_up_to_5000(self):
        # leaves and gaps as (start, stop) pairs, from the construction that
        # built every intermediate level's blocks as ranges
        h = hashlib.sha256()
        for A in range(2, 5001):
            part = cantor_set(A)
            n_ell = part.params.n_seq[-1]
            runs = ([(s, s + n_ell) for s in part.leaf_starts.tolist()],
                    [[(s, s + d) for s in starts.tolist()]
                     for starts, d in zip(part.gap_starts, part.params.d_seq)])
            h.update(repr((A, *runs)).encode())
        assert h.hexdigest() == (
            "540eca7eef37e63819e9f669f2c4a5f1a466710aad4d53f2cb5fa9db7028bce9")


class TestStacks:
    def test_rows_match_cantor_set_in_shuffled_order(self):
        sizes = list(range(2, 5001))
        np.random.default_rng(5).shuffle(sizes)
        stacks = cantor_stacks(sizes)
        assert [s.ell for s in stacks] == sorted({s.ell for s in stacks})
        seen = []
        for stack in stacks:
            ell = stack.ell
            assert stack.leaf_starts.shape == (stack.A.size, 2 ** ell)
            assert [g.shape[1] for g in stack.gap_starts] == [2 ** j for j in range(ell)]
            for i, A in enumerate(stack.A.tolist()):
                part = cantor_set(A)
                assert _row_params(stack, i) == part.params
                assert stack.leaf_starts[i].tolist() == part.leaf_starts.tolist()
                assert [g[i].tolist() for g in stack.gap_starts] == [
                    g.tolist() for g in part.gap_starts]
                assert stack.card[i] == part.card
            seen += stack.A.tolist()
        # grouped by ell, each group in the order given
        assert seen == sorted(sizes, key=lambda A: cantor_params(A).ell)
        assert all(tiles_exactly(s).all() for s in stacks)

    def test_array_recipe_matches_cantor_params(self):
        # bit for bit: the same float operations give the same delta, ell and
        # sizes.  numpy's log in place of math.log moves delta at A = 9170,
        # and numpy's power in place of pow moves n_j for some A near 2^50
        sizes = list(range(2, 10 ** 5 + 1)) + np.random.default_rng(24).integers(
            10 ** 5, 2 ** 50, 4000, endpoint=True).tolist()
        A, delta, ell, n, d = _array_params(sizes)
        params = list(map(cantor_params, sizes))
        assert A.tolist() == sizes
        assert delta.tolist() == [p.delta for p in params]
        assert ell.tolist() == [p.ell for p in params]
        levels = np.arange(n.shape[1])  # row by row, the n_j with j <= ell
        assert n[levels <= ell[:, None]].tolist() == [x for p in params for x in p.n_seq]
        assert d[levels[1:] <= ell[:, None]].tolist() == [x for p in params for x in p.d_seq]

    def test_a_lone_A_is_its_one_row_stack_column(self):
        # cantor_set's run starts are `_run_starts` of its 1-D sizes: one
        # int64 column, no second axis, equal to its one-row stack's starts
        sizes = list(range(2, 5001)) + np.random.default_rng(48).integers(
            5001, 10 ** 6, 200, endpoint=True).tolist()
        for A in sizes:
            p = cantor_params(A)
            starts = _run_starts(np.array(p.n_seq))
            assert starts.dtype == np.int64 and starts.shape == (2 ** (p.ell + 1) - 1,)
            assert np.array_equal(starts, cantor_stacks([A])[0].starts[:, 0])

    def test_sizes_are_checked_like_cantor_params(self):
        assert cantor_stacks([]) == []
        (stack,) = cantor_stacks([np.int64(100), 101])
        assert stack.A.tolist() == [100, 101]
        for bad in (1, 100.0, True, "100"):
            with pytest.raises(CantorError):
                cantor_stacks([100, bad])

    def test_sizes_past_int64_are_named(self):
        # cantor_params takes any size, but a stack's sizes are int64
        assert cantor_params(2 ** 70).ell > 0
        for big in (2 ** 63, 2 ** 64, 2 ** 70):
            with pytest.raises(CantorError, match=f"got {big}$"):
                cantor_stacks([100, big])

    def test_leaves_and_gaps_are_views_of_the_starts(self):
        # one array of starts, in the order the runs lie in {1..A}
        for stack in cantor_stacks(range(2, 300)):
            assert stack.starts.shape == (2 ** (stack.ell + 1) - 1, stack.A.size)
            assert np.all(np.diff(stack.starts, axis=0) > 0)
            for part in (stack.leaf_starts, *stack.gap_starts):
                assert np.shares_memory(part, stack.starts)

    def test_runs_are_the_ranges_of_cantor_set(self):
        (stack,) = cantor_stacks([1000, 999])
        starts, stops = stack.runs()
        for i, A in enumerate((1000, 999)):
            part = cantor_set(A)
            p = part.params
            runs = [range(s, s + p.n_seq[-1]) for s in part.leaf_starts.tolist()] + [
                range(s, s + d) for g, d in zip(part.gap_starts, p.d_seq) for s in g.tolist()]
            runs.sort(key=lambda r: r.start)  # every run is non-empty
            assert starts[i].tolist() == [r.start for r in runs]
            assert stops[i].tolist() == [r.stop for r in runs]

    def test_perturbed_rows_fail_alone(self):
        sizes = [A for A in range(1000, 1400) if cantor_params(A).ell == 4]
        (stack,) = cantor_stacks(sizes)
        bad = dataclasses.replace(stack, starts=stack.starts.copy())
        leaves, gaps = bad.leaf_starts, bad.gap_starts  # views of bad's starts
        gaps[1][3, 1] += 1                       # a gap shifted by one
        leaves[10, 5] = leaves[10, 4] + 1        # leaf 5 overlaps leaf 4
        leaves[17, -1] -= 1                      # last leaf stops at A
        tiles = tiles_exactly(bad)
        assert tiles.shape == (len(sizes),)
        assert np.flatnonzero(~tiles).tolist() == [3, 10, 17]
        assert tiles_exactly(stack).all()
        # the verify case reports those rows by their A, and nothing else: each
        # perturbation also moves a leaf's stop, so the count from the runs
        # differs from 2^ell n_ell
        checked, failures = checks.run(lambda: [checks._cantor_case(bad)])
        assert failures == [
            *({"invariant": "kept_card_formula", "case": 0, "A": sizes[i],
               "card": int(stack.card[i])} for i in (3, 10, 17)),
            *({"invariant": "disjoint_cover", "case": 0, "A": sizes[i]} for i in (3, 10, 17))]
        assert checked["disjoint_cover"] == len(sizes)
        assert checked["gap_floor"] == 4 * len(sizes)

    def test_tiling_verdicts_match_the_sorting_check(self):
        # every stack of 2..5000 as built, then with a fifth of its rows
        # perturbed: a leaf or a gap moved, or a block size n_j changed, by
        # one or two either way
        rng = np.random.default_rng(24)
        failed = 0
        for stack in cantor_stacks(range(2, 5001)):
            assert tiles_exactly(stack).tolist() == _chains_by_sort(
                *stack.runs(), stack.A).tolist()
            bad = dataclasses.replace(stack, n_seq=stack.n_seq.copy(),
                                      starts=stack.starts.copy())
            leaves, gaps, n = bad.leaf_starts, bad.gap_starts, bad.n_seq  # views of bad's
            for i in rng.choice(stack.A.size, stack.A.size // 5 + 1, replace=False):
                kind, step = rng.integers(3), rng.choice([-2, -1, 1, 2])
                if kind == 0:
                    leaves[i, rng.integers(leaves.shape[1])] += step
                elif kind == 1 and gaps:
                    level = gaps[rng.integers(len(gaps))]
                    level[i, rng.integers(level.shape[1])] += step
                else:
                    n[i, rng.integers(n.shape[1])] += step
            tiles = tiles_exactly(bad)
            assert tiles.tolist() == _chains_by_sort(*bad.runs(), bad.A).tolist()
            failed += int((~tiles).sum())
        assert failed > 900

    def test_negative_gap_is_not_a_tiling(self):
        # leaves [1, 54) and [48, 101) overlap by 6, and the gap between
        # them, [54, 48), is 6 short: in the order of the construction each
        # run begins where the one before it stopped, and the lengths sum to A
        (stack,) = cantor_stacks([100])
        bad = dataclasses.replace(stack, n_seq=np.array([[100, 53]]),
                                  starts=np.array([[1], [54], [48]]))
        starts, stops = bad.runs()
        assert (stops - starts).tolist() == [[53, -6, 53]]
        assert tiles_exactly(bad).tolist() == [False]

    def test_permuted_or_empty_runs_are_not_a_tiling(self):
        # sorted by start, each bad row's runs tile {1..A}; stored out of the
        # order they lie in, or with the empty gap [51, 51), they are no blocking
        (stack,) = cantor_stacks([100])
        permuted = dataclasses.replace(stack, starts=stack.starts[::-1].copy())
        empty = dataclasses.replace(stack, n_seq=np.array([[100, 50]]),
                                    starts=np.array([[1], [51], [51]]))
        for bad in (permuted, empty):
            assert _chains_by_sort(*bad.runs(), bad.A).tolist() == [True]
            assert tiles_exactly(bad).tolist() == [False]

    def test_moved_leaf_fails_the_count_from_the_runs(self):
        # the second leaf starts one later while n_seq stays as it was: the
        # first leaf, which stops where the gap after it starts, keeps its
        # length, and the second leaf is one shorter
        (stack,) = cantor_stacks([1000, 1001])
        bad = dataclasses.replace(stack, starts=stack.starts.copy())
        bad.leaf_starts[0, 1] += 1
        _, failures = checks.run(lambda: [checks._cantor_case(bad)])
        assert {"invariant": "kept_card_formula", "case": 0, "A": 1000,
                "card": int(stack.card[0])} in failures
        assert [f["A"] for f in failures if f["invariant"] == "kept_card_formula"] == [1000]
        assert checks.run(lambda: [checks._cantor_case(stack)])[1] == []

    def test_short_gap_fails_its_floor_alone(self):
        (stack,) = cantor_stacks([1000, 1001])
        d = stack.d_seq.copy()
        d[1, 1] = 1
        bad = dataclasses.replace(stack, d_seq=d)
        _, failures = checks.run(lambda: [checks._cantor_case(bad)])
        delta = stack.delta[1]
        floor = 1001 * delta * (1.0 - delta) / 4.0
        assert failures == [{"invariant": "gap_floor", "case": 0, "A": 1001, "j": 1,
                             "d": 1, "floor": pytest.approx(floor, rel=1e-15)}]


class TestLevelBlocks:
    def test_k0_is_whole_set(self):
        part = cantor_set(500)
        (block,) = level_blocks(part, 0).tolist()
        assert block == part.K.tolist()

    def test_leaf_level(self):
        part = cantor_set(1000)
        blocks = level_blocks(part, 4).tolist()
        assert len(blocks) == 16
        assert all(len(b) == 51 for b in blocks)
        assert all(b == list(range(b[0], b[0] + 51)) for b in blocks)

    def test_A_100_level_1(self):
        part = cantor_set(100)
        blocks = level_blocks(part, 1).tolist()
        assert blocks == [list(range(1, 48)), list(range(54, 101))]

    def test_gap_between_siblings(self):
        part = cantor_set(1000)
        p = part.params
        for k in range(1, p.ell + 1):
            blocks = level_blocks(part, k).tolist()
            for j in range(len(blocks) // 2):
                left, right = blocks[2 * j], blocks[2 * j + 1]
                assert right[0] - left[-1] - 1 == p.d_seq[k - 1]

    def test_rejects_bad_level(self):
        part = cantor_set(100)
        with pytest.raises(CantorError):
            level_blocks(part, 5)
        with pytest.raises(CantorError):
            level_runs(part, -1)

    def test_runs_join_to_blocks(self):
        for A in (2, 100, 1000, 4999):
            part = cantor_set(A)
            ell, n_ell = part.params.ell, part.params.n_seq[-1]
            for k in range(ell + 1):
                runs = level_runs(part, k)
                assert runs.shape == (2 ** k, 2 ** (ell - k)) and runs.dtype == np.int64
                blocks = level_blocks(part, k)
                assert blocks.shape == (2 ** k, part.card // 2 ** k)
                assert [list(chain(*(range(s, s + n_ell) for s in block)))
                        for block in runs.tolist()] == blocks.tolist()


class TestFullDecomposition:
    """The decomposition of {1..n} as `_full_decomposition_by_sets` builds
    it from `cantor_set`'s kept sets, and its depth as `decomposition_depth`
    counts it from cardinalities alone."""

    def test_n_2(self):
        levels, remainder, cards = _full_decomposition_by_sets(2)
        assert levels == [] and remainder.tolist() == [1, 2] and cards == (2,)
        assert decomposition_depth(2) == 0

    def test_n_100(self):
        levels, remainder, _ = _full_decomposition_by_sets(100)
        assert levels[0].tolist() == list(range(1, 48)) + list(range(54, 101))
        # remaining 6 positions {48..53} are consumed in one fallback step
        assert levels[1].tolist() == list(range(48, 54))
        assert remainder.size == 0 and decomposition_depth(100) == 2

    def test_partition_property(self):
        for n in (2, 3, 17, 100, 999, 4096):
            levels, remainder, _ = _full_decomposition_by_sets(n)
            seen = [i for level in levels for i in level.tolist()] + remainder.tolist()
            assert sorted(seen) == list(range(1, n + 1))
            assert decomposition_depth(n) == len(levels), n

    def test_halving_and_depth(self):
        for n in (4, 64, 100, 1000, 4999, 10 ** 6):
            _, _, cards = _full_decomposition_by_sets(n)
            for i, a in enumerate(cards):
                assert a <= n / 2 ** i + 1e-9
            assert decomposition_depth(n) <= math.floor(math.log2(n / 2)) + 1

    def test_matches_set_based_reference(self):
        for n in range(2, 3001):
            levels, remainder, cards = _full_decomposition_by_sets(n)
            assert decomposition_depth(n) == len(levels), n
            assert len(levels) <= math.floor(math.log2(n / 2)) + 1, n
            assert all(a * 2 ** i <= n for i, a in enumerate(cards)), n
            assert remainder.size <= 2, n

    def test_card_recursion(self):
        # each level takes the whole kept set of the survivors' relabeling
        levels, _, cards = _full_decomposition_by_sets(1000)
        for i, level in enumerate(levels):
            assert cards[i + 1] == cards[i] - len(level)
            assert len(level) == cantor_set(cards[i]).card


class TestCantorMemory:
    """tracemalloc peaks of the index sets: numpy reports its buffers to it."""

    @staticmethod
    def peak(fn, *args):
        import tracemalloc

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_kept_set_peak_per_index(self):
        # K as a tuple of Python ints, joined from range runs, peaked at 44
        # bytes per index; as one int64 array it holds 8
        card = cantor_set(10 ** 6).card
        assert self.peak(lambda: cantor_set(10 ** 6).K) / card <= 9.0

    def test_verify_suite_peak(self):
        # 13.3 MB when every stack was built from CantorParams and every row
        # sorted by start; 8.1 MB with array-built stacks and in-order runs
        checks.run(checks.cantor)
        assert self.peak(checks.run, checks.cantor) <= 10e6
