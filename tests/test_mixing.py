import json
import math
import tracemalloc
import types
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import iid_chain, sample_whole
from depbernstein import checks, mixing
from depbernstein.mixing import (
    RATE_CEILING,
    RATE_LAGS,
    BerbeeCoupler,
    JointLaw,
    MarkovChain,
    MixingError,
    beta_from_joint,
    beta_k_exact,
    coupling_law,
    dbar,
    fit_geometric_rate,
    log_row_power,
    power_blocks,
)


def random_chain(rng, s):
    """A random irreducible aperiodic chain on s states (strictly positive P)."""
    P = rng.uniform(0.1, 1.0, (s, s))
    P /= P.sum(axis=1, keepdims=True)
    return MarkovChain(P)


def two_state_beta(a, b, k):
    """beta_k of two_state(a, b) in closed form: 2ab|1-a-b|^k / (a+b)^2."""
    return 2.0 * a * b * abs(1.0 - a - b) ** k / (a + b) ** 2


def fraction_betas(P, k_max):
    """beta_1..beta_k_max of the chain with rational P, in exact arithmetic:
    pi solves pi (P - I) = 0 with sum(pi) = 1 by Gauss-Jordan elimination."""
    s = len(P)
    rows = [[P[j][i] - (i == j) for j in range(s)] + [Fraction(0)] for i in range(s - 1)]
    rows.append([Fraction(1)] * (s + 1))
    for col in range(s):
        pivot = next(r for r in range(col, s) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(s):
            if r != col:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    pi = [row[-1] for row in rows]
    assert all(sum(pi[x] * P[x][y] for x in range(s)) == pi[y] for y in range(s))
    betas, Pk = [], P
    for _ in range(k_max):
        betas.append(sum(pi[x] * sum(abs(Pk[x][y] - pi[y]) for y in range(s))
                         for x in range(s)) / 2)
        Pk = [[sum(Pk[x][z] * P[z][y] for z in range(s)) for y in range(s)] for x in range(s)]
    return betas


def per_step_paths(chain, u):
    """Reference sampler: invert the cumulative row of the previous state one
    step at a time (compare, sum, clip to the last state)."""
    cum = np.cumsum(chain.P, axis=1)
    last = chain.states - 1
    path = np.empty(u.shape, dtype=np.int64)
    path[:, 0] = np.minimum((np.cumsum(chain.pi) <= u[:, :1]).sum(1), last)
    for i in range(1, u.shape[1]):
        path[:, i] = np.minimum((cum[path[:, i - 1]] <= u[:, i, None]).sum(1), last)
    return path


def dirichlet_chain(s, seed):
    return MarkovChain(np.random.default_rng(seed).dirichlet(np.ones(s), s))


SAMPLER_CHAINS = {
    "dirichlet-2": lambda: dirichlet_chain(2, 1),
    "dirichlet-3": lambda: dirichlet_chain(3, 2),
    "dirichlet-5": lambda: dirichlet_chain(5, 3),
    "dirichlet-12": lambda: dirichlet_chain(12, 4),
    # 380 cut points: a rank no longer fits in one byte
    "dirichlet-20": lambda: dirichlet_chain(20, 5),
    "near-reducible": lambda: MarkovChain.two_state(1e-3, 1e-3),
    # one cut, W = 2 ranks: a lookup moves k = 8 transitions
    "one-cut": lambda: MarkovChain.two_state(0.5, 0.5),
    # cumulative rows end at 1 - 2^-53
    "iid-tenths": lambda: iid_chain([0.1] * 10),
    "primitive-with-zeros": lambda: MarkovChain(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]),
}


def edge_uniforms(chain):
    """Every cumulative entry of P and pi, plus the ends of [0, 1)."""
    return np.concatenate([np.cumsum(chain.P, axis=1).ravel(), np.cumsum(chain.pi),
                           [0.0, np.nextafter(1.0, 0.0)]])


class TestMarkovChain:
    def test_two_state_stationary(self):
        chain = MarkovChain.two_state(0.2, 0.6)
        assert chain.pi == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_rejects_nonstochastic(self):
        with pytest.raises(MixingError):
            MarkovChain([[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_reducible(self):
        with pytest.raises(MixingError):
            MarkovChain([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_periodic(self):
        with pytest.raises(MixingError):
            MarkovChain([[0.0, 1.0], [1.0, 0.0]])

    def test_accepts_primitive_chain_with_zero_in_P_cubed(self):
        # P^3 has a zero but P^5 > 0, at Wielandt's exponent (s-1)^2 + 1
        chain = MarkovChain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                             [0.5, 0.5, 0.0]])
        assert chain.pi @ chain.P == pytest.approx(chain.pi, abs=1e-12)

    def test_iid_chain(self):
        chain = iid_chain([0.3, 0.7])
        assert np.allclose(chain.P, [[0.3, 0.7], [0.3, 0.7]])
        assert beta_k_exact(chain, 1) == 0.0

    def test_pi_is_never_given(self):
        # P is the only input: pi has no second source to disagree with it
        P, pi = np.full((2, 2), 0.5), np.full(2, 0.5)
        with pytest.raises(TypeError):
            MarkovChain(P, pi=pi)
        with pytest.raises(TypeError):
            MarkovChain(P, pi)

    def test_two_state_pi_has_the_closed_form_bits(self):
        # GTH on two states makes the float operations of (b, a) / (a + b):
        # every two_state pair written in the tests, the package and the
        # demos, then seeded random pairs
        rng = np.random.default_rng(44)
        pairs = [(0.2, 0.5), (0.2, 0.6), (0.25, 0.25), (0.3, 0.1), (0.3, 0.2), (0.5, 0.5),
                 (1e-12, 1e-12), (1e-12, 5e-13), (1e-2, 2e-2), (1e-3, 1e-3), (1e-3, 2e-3),
                 *rng.uniform(0.0, 1.0, (1000, 2)).tolist(),
                 *(10.0 ** rng.uniform(-15.0, 0.0, (1000, 2))).tolist()]
        for a, b in pairs:
            pi = MarkovChain.two_state(a, b).pi
            assert np.array_equal(pi.view(np.uint64),
                                  (np.array([b, a]) / (a + b)).view(np.uint64)), (a, b)

    def test_config_P_is_checked_once(self, monkeypatch):
        calls = []
        check = mixing._transition_matrix
        monkeypatch.setattr(mixing, "_transition_matrix", lambda P: calls.append(1) or check(P))
        MarkovChain.from_config({"P": [[0.75, 0.25], [0.25, 0.75]]})
        assert len(calls) == 1

    @pytest.mark.parametrize("obj, got", [
        ([[0.5, 0.5], [0.5, 0.5]], "got list"),
        ({"Q": [[0.5, 0.5], [0.5, 0.5]]}, "got an object without 'P'"),
    ])
    def test_config_needs_an_object_with_P(self, obj, got):
        with pytest.raises(MixingError, match=f"JSON object with the transition matrix 'P', {got}$"):
            MarkovChain.from_config(obj)

    def test_json_roundtrip(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        again = MarkovChain.from_config(json.loads(json.dumps({"P": chain.P.tolist()})))
        assert np.array_equal(chain.P, again.P)

    def test_joint_law_marginals(self):
        chain = MarkovChain.two_state(0.3, 0.1)
        joint = chain.joint_law(3)
        assert joint.x_marginal == pytest.approx(chain.pi, abs=1e-12)
        assert joint.y_marginal == pytest.approx(chain.pi, abs=1e-12)

    def test_joint_law_of_a_lag_array_stacks_each_lag(self):
        chain = random_chain(np.random.default_rng(3), 4)
        lags = np.array([[1, 2, 3], [7, 20, 50]])
        stack = chain.joint_law(lags)
        assert stack.pmf.shape == (2, 3, 4, 4)
        for k, pmf in zip(lags.ravel().tolist(), stack.pmf.reshape(-1, 4, 4)):
            assert np.array_equal(pmf, chain.joint_law(k).pmf), k
        assert np.array_equal(beta_from_joint(stack),
                              [[beta_from_joint(chain.joint_law(k)) for k in row]
                               for row in lags.tolist()])

    def test_joint_law_rejects_a_zero_lag_in_an_array(self):
        with pytest.raises(MixingError, match="got 0"):
            MarkovChain.two_state(0.3, 0.1).joint_law(np.array([3, 0, 2]))

    @pytest.mark.parametrize("k", [2.5, np.array([1.0, 2.0]), True])
    def test_joint_law_rejects_a_lag_that_is_not_an_integer(self, k):
        with pytest.raises(MixingError, match="must be an integer"):
            MarkovChain.two_state(0.3, 0.1).joint_law(k)

    def test_joint_law_rejects_a_1d_pmf(self):
        with pytest.raises(MixingError, match="got shape \\(4,\\)"):
            JointLaw(np.full(4, 0.25))

    def test_joint_law_stack_checks_the_mass_of_each_law(self):
        pmf = np.full((3, 2, 2), 0.25)
        pmf[1, 0, 0] = 0.5
        with pytest.raises(MixingError, match="total mass 1"):
            JointLaw(pmf)

    def test_sample_path_frequencies(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        rng = np.random.default_rng(7)
        path = sample_whole(chain, rng.random((1, 20_000)))[0]
        assert set(np.unique(path)) <= {0, 1}
        # stationary frequency of state 0 is 1/2; binomial-ish 5-sigma band
        assert abs(np.mean(path == 0) - 0.5) < 0.02

    def test_sample_path_transition_frequencies(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        path = sample_whole(chain, np.random.default_rng(3).random((1, 50_000)))[0]
        stay = np.mean(path[1:][path[:-1] == 0] == 0)
        assert abs(stay - 0.75) < 0.02

    def test_sample_paths_match_per_step_searchsorted(self):
        chain = random_chain(np.random.default_rng(11), 4)
        u = np.random.default_rng(12).random((5, 300))
        cum = np.cumsum(chain.P, axis=1)
        for row, path in zip(u, sample_whole(chain, u)):
            s = int(np.searchsorted(np.cumsum(chain.pi), row[0], side="right"))
            ref = [s]
            for x in row[1:]:
                s = int(np.searchsorted(cum[s], x, side="right"))
                ref.append(s)
            assert np.array_equal(path, ref)

    def test_sample_path_clips_cumulative_roundoff(self):
        # the cumulative rows of ten 0.1s end at 1 - 2^-53 < 1, and a
        # uniform draw can take that largest value below 1
        chain = iid_chain([0.1] * 10)
        top = np.full((1, 5), np.nextafter(1.0, 0.0))
        assert np.all(sample_whole(chain, top)[0] == 9)

    @pytest.mark.parametrize("P", [[[math.nan, 1.0], [0.5, 0.5]], [[math.inf, 0.0], [0.5, 0.5]]])
    def test_rejects_non_finite(self, P):
        with pytest.raises(MixingError):
            MarkovChain(np.array(P))

    def test_rejects_non_finite_list(self):
        with pytest.raises(MixingError):
            MarkovChain([[math.nan, 1.0], [0.5, 0.5]])

    def test_inputs_stay_writeable(self):
        P, pmf = np.full((2, 2), 0.5), np.full((2, 2), 0.25)
        MarkovChain(P)
        JointLaw(pmf)
        assert P.flags.writeable and pmf.flags.writeable

    @pytest.mark.parametrize("a, b", [(1e-3, 2e-3), (1e-9, 3e-9), (1e-12, 5e-13),
                                      (0.25, 1e-15), (0.5, 1e-300),
                                      (0.5, 1e-310), (1.0, 1e-320)])
    def test_pi_two_state_closed_form(self, a, b):
        # near-reducible chains, down to subnormal rates: pi = (b, a) / (a + b)
        pi = MarkovChain(MarkovChain.two_state(a, b).P).pi
        np.testing.assert_allclose(pi, np.array([b, a]) / (a + b), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("seed", [5, 13, 92])
    def test_pi_sparse_dirichlet(self, seed):
        # stationary laws spanning 20+ orders of magnitude
        P = np.random.default_rng(seed).dirichlet(np.full(3, 0.05), 3)
        pi = MarkovChain(P).pi
        assert np.all(pi >= 0)
        assert np.max(np.abs(pi @ P - pi) / pi) <= 1e-14

    @pytest.mark.parametrize("P", [[0.5, 0.5], [[0.5, 0.5]], [[[1.0]]]])
    def test_rejects_bad_shape(self, P):
        with pytest.raises(MixingError, match="P must be square"):
            MarkovChain(P)

    @pytest.mark.parametrize("P", [np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                                   [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
    def test_rejects_without_warning(self, P):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MixingError, match="irreducible and aperiodic"):
                MarkovChain(P)

    def test_sample_path_deterministic(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        a = sample_whole(chain, np.random.default_rng(5).random((1, 100)))[0]
        b = sample_whole(chain, np.random.default_rng(5).random((1, 100)))[0]
        assert np.array_equal(a, b)


def refilled(blocks):
    """The row blocks, each copied into the one buffer before it is yielded."""
    buf = np.empty((max(map(len, blocks)), blocks[0].shape[1]))
    for block in blocks:
        buf[:len(block)] = block
        yield buf[:len(block)]


class TestSamplePathsBitwise:
    """sample_paths against the per-step reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
    def test_every_state_meets_every_edge(self, name):
        # column 0 starts one row in each state, column 1 is every edge value
        chain = SAMPLER_CHAINS[name]()
        starts = np.concatenate([[0.0], np.cumsum(chain.pi)[:-1]])
        edges = edge_uniforms(chain)
        u = np.array([(a, b) for a in starts for b in edges])
        assert set(per_step_paths(chain, u)[:, 0]) == set(range(chain.states))
        assert np.array_equal(sample_whole(chain, u), per_step_paths(chain, u))

    # steps 1..17 leave every remainder (steps - 1) mod k for k = 1, 2, 4, 8
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (64, 2), (200, 1024)]
                             + [(16, steps) for steps in range(1, 18)])
    @pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
    def test_matches_per_step_reference(self, name, shape):
        chain = SAMPLER_CHAINS[name]()
        rng = np.random.default_rng(list(shape))
        for u in (rng.random(shape), rng.choice(edge_uniforms(chain), shape)):
            path = sample_whole(chain, u)
            assert path.shape == shape and path.dtype == np.min_scalar_type(chain.states - 1)
            assert np.array_equal(path, per_step_paths(chain, u))

    @pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
    def test_any_split_into_row_blocks_gives_the_same_paths(self, name):
        # 10 steps, 9 transitions, leave surplus states in the last lookup for
        # every k > 1; the blocks arrive in one buffer that is refilled per
        # block, as models reads its stream
        chain = SAMPLER_CHAINS[name]()
        rng = np.random.default_rng(9)
        for u in (rng.random((23, 10)), rng.choice(edge_uniforms(chain), (23, 10))):
            whole = sample_whole(chain, u)
            for splits in ([], [1], [22], [5, 6, 17], list(range(1, 23))):
                blocks = np.split(u, splits)
                assert np.array_equal(chain.sample_paths(blocks, u.shape), whole)
                assert np.array_equal(chain.sample_paths(refilled(blocks), u.shape), whole)

    @pytest.mark.parametrize("blocks", [[np.zeros((2, 9))], [np.zeros((4, 9))],
                                        [np.zeros((3, 8))], [np.zeros(9)] * 3])
    def test_row_blocks_must_tile_the_shape(self, blocks):
        with pytest.raises(MixingError, match=r"must tile shape \(3, 9\)"):
            MarkovChain.two_state(0.25, 0.25).sample_paths(blocks, (3, 9))

    def test_two_byte_states(self):
        chain = iid_chain(np.full(300, 1 / 300))
        rng = np.random.default_rng(300)
        for u in (rng.random((64, 40)), rng.choice(edge_uniforms(chain), (64, 40))):
            path = sample_whole(chain, u)
            assert path.dtype == np.uint16
            assert np.array_equal(path, per_step_paths(chain, u))



class TestBetaFromJoint:
    def test_product_law_is_zero(self):
        joint = JointLaw(np.outer([0.3, 0.7], [0.1, 0.4, 0.5]))
        assert beta_from_joint(joint) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_correlation(self):
        joint = JointLaw(np.diag([0.5, 0.5]))
        assert beta_from_joint(joint) == pytest.approx(0.5, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pmf = rng.uniform(0, 1, (3, 3))
            pmf /= pmf.sum()
            assert 0.0 <= beta_from_joint(JointLaw(pmf)) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_pmf(self, bad):
        with pytest.raises(MixingError, match="finite"):
            JointLaw(np.array([[bad, 0.5], [0.25, 0.25]]))


class TestBetaKExact:
    def test_two_state_closed_form(self):
        # for the symmetric chain with flip probability 1/4, the k-step
        # transition matrix is 1/2 + 0.5^{k+1} on the diagonal, giving
        # beta_k = 0.5^{k+1} exactly
        chain = MarkovChain.two_state(0.25, 0.25)
        for k in range(1, 21):
            assert beta_k_exact(chain, k) == pytest.approx(0.5 ** (k + 1), abs=1e-12)

    def test_agrees_with_joint_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            chain = random_chain(rng, int(rng.integers(2, 5)))
            for k in range(1, 7):
                direct = beta_k_exact(chain, k)
                via_joint = beta_from_joint(chain.joint_law(k))
                assert direct == pytest.approx(via_joint, abs=1e-10)

    def test_nonincreasing_in_k(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            chain = random_chain(rng, 3)
            vals = [beta_k_exact(chain, k) for k in range(1, 12)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_lag(self):
        with pytest.raises(MixingError):
            beta_k_exact(MarkovChain.two_state(0.25, 0.25), 0)
        with pytest.raises(MixingError):
            beta_k_exact(MarkovChain.two_state(0.25, 0.25), np.array([3, 0, 5]))

    @pytest.mark.parametrize("a, b", [(0.5, 0.25), (0.1, 0.3), (0.9, 0.8), (0.25, 0.25)])
    def test_two_state_closed_form_without_cancellation(self, a, b):
        # P^k - 1 pi would cancel to roundoff long before k = 200; the
        # powers of P - 1 pi keep every beta_k to full relative accuracy
        chain = MarkovChain.two_state(a, b)
        lags = np.arange(1, 201)
        want = [two_state_beta(a, b, k) for k in range(1, 201)]
        assert [beta_k_exact(chain, k) for k in range(1, 201)] == pytest.approx(want, rel=1e-12)
        assert beta_k_exact(chain, lags).tolist() == pytest.approx(want, rel=1e-12)
        # unordered, repeated and far apart: Q^gap spans each gap
        sparse = np.array([[150, 7], [7, 10 ** 6]])
        assert beta_k_exact(chain, sparse).ravel().tolist() == pytest.approx(
            [two_state_beta(a, b, k) for k in sparse.ravel().tolist()], rel=1e-12)

    def test_three_state_matches_exact_arithmetic(self):
        tenths = [[6, 3, 1], [2, 5, 3], [3, 2, 5]]
        chain = MarkovChain(np.array(tenths) / 10)
        want = [float(bk) for bk in fraction_betas(
            [[Fraction(p, 10) for p in row] for row in tenths], 50)]
        assert [beta_k_exact(chain, k) for k in range(1, 51)] == pytest.approx(want, rel=1e-12)
        assert beta_k_exact(chain, np.arange(1, 51)).tolist() == pytest.approx(want, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(18)
        lags = np.arange(1, 61)
        for _ in range(30):
            chain = random_chain(rng, int(rng.integers(2, 6)))
            got = beta_k_exact(chain, lags)
            assert isinstance(got, np.ndarray) and got.shape == lags.shape
            assert got.tolist() == pytest.approx(
                [beta_k_exact(chain, int(k)) for k in lags], rel=1e-12)
            # any order, repeats and shape: one entry per lag
            picks = rng.integers(1, 61, (3, 4))
            assert beta_k_exact(chain, picks) == pytest.approx(got[picks - 1], rel=1e-12)
        assert isinstance(beta_k_exact(chain, 7), float)
        assert beta_k_exact(chain, np.array([], dtype=int)).shape == (0,)

    def test_profile_keeps_no_stack_of_powers(self):
        # a (K, s, s) stack of powers would take K s^2 doubles; the profile
        # keeps the beta values and a few s x s matrices
        chain = random_chain(np.random.default_rng(3), 20)
        lags = np.arange(1, 2001)
        tracemalloc.start()
        try:
            beta_k_exact(chain, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lags.size * 20 * 20 * 8 / 20


def matrix_powers(M, ks):
    """M^k for each k of ks, one at a time, read from power_blocks' blocks."""
    return [Mk for block in power_blocks(M, ks) for Mk in block]


def beta_per_lag(chain, k):
    """The reference for beta_k_exact: each lag reduced on its own, by
    pi @ (0.5 |Q^k| 1), four numpy calls a lag."""
    ks, at = np.unique(k, return_inverse=True)
    beta = np.fromiter((chain.pi @ (0.5 * np.abs(Qk).sum(axis=1))
                        for Qk in matrix_powers(chain.P - chain.pi, ks.tolist())),
                       float, ks.size)
    return beta[at].reshape(np.shape(k))


PROFILE_CHAINS = {
    **{f"dirichlet-{alpha}-{s}": (lambda alpha=alpha, s=s: MarkovChain(
        np.random.default_rng(s).dirichlet(np.full(s, alpha), s)))
       for alpha in (0.1, 1.0) for s in range(2, 25)},
    "near-reducible": lambda: MarkovChain.two_state(1e-12, 5e-13),
    # s^2 > _BLOCK_WORDS: one lag a block
    "uniform-130": lambda: MarkovChain(np.full((130, 130), 1 / 130)),
}


class TestBetaProfileBits:
    @pytest.mark.parametrize("name", list(PROFILE_CHAINS))
    def test_blocked_profile_has_the_per_lag_bits(self, name, monkeypatch):
        chain = PROFILE_CHAINS[name]()
        rng = np.random.default_rng(list(PROFILE_CHAINS).index(name))
        # the fit's window, then unordered sparse lags with repeats
        for lags in (np.arange(2, RATE_LAGS + 1), rng.integers(1, 401, (4, 10))):
            got, want = beta_k_exact(chain, lags), beta_per_lag(chain, lags)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        c = fit_geometric_rate(chain, RATE_LAGS)
        monkeypatch.setattr(mixing, "beta_k_exact", beta_per_lag)
        assert fit_geometric_rate(chain, RATE_LAGS).hex() == c.hex()

    @pytest.mark.parametrize("s", [2, 20, 70])
    def test_blocks_hold_at_most_block_words(self, s, monkeypatch):
        # each block is one fromiter call: count the powers it holds
        blocks, fromiter = [], np.fromiter
        monkeypatch.setattr(np, "fromiter", lambda it, dtype, *args: blocks.append(
            fromiter(it, dtype, *args)) or blocks[-1])
        beta_k_exact(MarkovChain(np.full((s, s), 1 / s)), np.arange(1, 101))
        per_block = max(1, mixing._BLOCK_WORDS // s ** 2)
        assert [len(b) for b in blocks] == [min(per_block, 100 - lo)
                                            for lo in range(0, 100, per_block)]


class TestMatrixPowers:
    @pytest.mark.parametrize("ks", [range(1, 30), [2, 3, 7, 8, 20, 21, 40], [5], [], [1, 4, 7, 10]])
    def test_equals_matrix_power_at_every_lag(self, ks):
        # an integer matrix whose powers stay below 2^53: every product is exact
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        powers = matrix_powers(M, ks)
        assert len(powers) == len(ks)
        for k, Mk in zip(ks, powers):
            assert np.array_equal(Mk, np.linalg.matrix_power(M, k)), k

    def test_matches_matrix_power_on_a_chain(self):
        chain = random_chain(np.random.default_rng(8), 6)
        ks = [1, 2, 3, 5, 8, 13, 21, 34, 55]
        for k, Pk in zip(ks, matrix_powers(chain.P, ks)):
            assert Pk == pytest.approx(np.linalg.matrix_power(chain.P, k), rel=1e-12, abs=1e-15)

    def test_each_gap_power_is_made_once(self, monkeypatch):
        made = []
        power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda M, k: made.append(k) or power(M, k))
        matrix_powers(np.eye(2), [3, 5, 7, 9, 10, 11])
        assert made == [3, 2, 1]


class TestLogRowPower:
    def test_no_power_is_the_row_itself(self):
        log_mass, u = log_row_power(np.array([0.5, 1.5]), np.eye(2), 0)
        assert log_mass == math.log(2.0) and np.array_equal(u, [0.25, 0.75])

    @pytest.mark.parametrize("m", [1, 2, 5, 64, 2 ** 40 + 3])
    def test_a_scaled_stochastic_matrix_keeps_its_scale_in_the_log(self, m):
        # w (c P)^m = c^m w P^m: its entries overflow at m = 3, its log mass
        # is m log c + log(w 1), and the row tends to pi = (3/4, 1/4)
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        w = np.array([0.2, 0.6])
        log_mass, u = log_row_power(w, 1e300 * P, m)
        assert log_mass == pytest.approx(m * math.log(1e300) + math.log(0.8), rel=1e-14)
        assert u.sum() == pytest.approx(1.0, abs=1e-15)
        want = w @ np.linalg.matrix_power(P, min(m, 64)) / 0.8
        np.testing.assert_allclose(u, want, rtol=1e-13)

    def test_stack_of_rows_and_matrices(self):
        rng = np.random.default_rng(3)
        w, K = rng.random((4, 3, 5)), rng.random((4, 3, 5, 5))
        log_mass, u = log_row_power(w, K, 11)
        want = (w[..., None, :] @ np.linalg.matrix_power(K, 11))[..., 0, :]
        np.testing.assert_allclose(log_mass, np.log(want.sum(axis=-1)), rtol=1e-13)
        np.testing.assert_allclose(u, want / want.sum(axis=-1, keepdims=True), rtol=1e-13)


class TestDbar:
    def test_two_state_closed_form(self):
        # the two rows of P^k differ by |1 - a - b|^k in each entry
        chain = MarkovChain.two_state(0.2, 0.5)
        for k in range(1, 8):
            Pk = np.linalg.matrix_power(chain.P, k)
            assert dbar(Pk) == pytest.approx(0.3 ** k, rel=1e-10)

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        for s in (2, 3, 5):
            chain = random_chain(rng, s)
            stack = np.stack([np.linalg.matrix_power(chain.P, k) for k in range(1, 13)])
            got = dbar(stack.reshape(3, 4, s, s))
            assert got.shape == (3, 4)
            assert got.ravel().tolist() == [dbar(Pk) for Pk in stack]
        assert isinstance(dbar(stack[0]), float)

    def test_iid_is_exactly_zero(self):
        assert dbar(iid_chain([0.2, 0.3, 0.5]).P) == 0.0

    def test_one_until_rows_overlap(self):
        # every row of P is a point mass or misses another row's support
        P = MarkovChain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                         [0.5, 0.5, 0.0]]).P
        assert dbar(P) == 1.0
        assert dbar(np.linalg.matrix_power(P, 5)) < 1.0  # Wielandt: (3-1)^2 + 1

    def test_submultiplicative_and_bounds_beta(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            chain = random_chain(rng, int(rng.integers(2, 5)))
            for j, k in [(1, 1), (1, 3), (2, 5)]:
                Pj, Pk = (np.linalg.matrix_power(chain.P, i) for i in (j, k))
                assert dbar(Pj @ Pk) <= dbar(Pj) * dbar(Pk) + 1e-15
                assert beta_k_exact(chain, j) <= dbar(Pj) + 1e-15


class TestFitGeometricRate:
    def test_two_state_value(self):
        # beta_k = 0.5^{k+1} so -log(beta_k)/(k-1) = (k+1) log 2 / (k-1),
        # minimized at the largest lag: (k_max + 1)/(k_max - 1) * log 2
        chain = MarkovChain.two_state(0.25, 0.25)
        got = fit_geometric_rate(chain, 50)
        assert got == pytest.approx(51.0 / 49.0 * math.log(2.0), rel=1e-12)

    def test_rate_of_a_fast_chain(self):
        # beta_k of [[.5, .5], [.25, .75]] falls like 4^-k: P^k - 1 pi cancels
        # to 0 from k = 29 on, and a fit that skipped those lags would come out
        # too fast, with e^{-49c} below beta_50
        chain = MarkovChain([[0.5, 0.5], [0.25, 0.75]])
        c = fit_geometric_rate(chain, 50)
        assert c == pytest.approx(1.4311356790247114, rel=1e-12)
        for k in range(2, 51):
            assert two_state_beta(0.5, 0.25, k) <= math.exp(-c * (k - 1)) * (1 + 1e-12)

    def test_envelope_actually_dominates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            chain = random_chain(rng, 3)
            c = fit_geometric_rate(chain, 12)
            for k in range(2, 13):
                assert beta_k_exact(chain, k) <= math.exp(-c * (k - 1)) * (1 + 1e-12)

    def test_iid_hits_ceiling(self):
        assert fit_geometric_rate(iid_chain([0.4, 0.6]), 10) == RATE_CEILING

    def test_monotone_in_k_max(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        vals = [fit_geometric_rate(chain, k) for k in range(2, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_small_k_max(self):
        with pytest.raises(MixingError):
            fit_geometric_rate(MarkovChain.two_state(0.25, 0.25), 1)


class TestBerbeeCoupler:
    def test_product_law_never_mismatches(self):
        joint = JointLaw(np.outer([0.3, 0.7], [0.2, 0.8]))
        _, y, ystar = BerbeeCoupler(joint, seed=1).sample(5000)
        assert np.array_equal(y, ystar)

    def test_mismatch_rate_matches_beta(self):
        # Y = X, a fair bit: beta = 1/2, off the diagonal of (Y, Ystar) in
        # the law, and within 1/N of it over N stratified draws
        joint = JointLaw(np.diag([0.5, 0.5]))
        law = coupling_law(joint)
        assert law[:, [0, 1], [1, 0]].sum() == beta_from_joint(joint) == 0.5
        coupler = BerbeeCoupler(joint, seed=2)
        N = 100_000
        coupler.rng = types.SimpleNamespace(random=lambda size: (np.arange(size) + 0.5) / size)
        _, y, ystar = coupler.sample(N)
        assert abs(np.mean(y != ystar) - 0.5) <= 1 / N

    def test_xy_joint_preserved(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        joint = chain.joint_law(1)
        x, y, _ = BerbeeCoupler(joint, seed=3).sample(200_000)
        counts = np.zeros((2, 2))
        np.add.at(counts, (x, y), 1.0)
        assert counts / counts.sum() == pytest.approx(joint.pmf, abs=0.005)

    def test_ystar_marginal_and_independence(self):
        # the law of (X, Ystar) is p(x) q(y): Ystar has the law of Y, and X
        # and Ystar are independent; the sampler's cells are that law's
        chain = MarkovChain.two_state(0.25, 0.25)
        joint = chain.joint_law(1)
        law = coupling_law(joint)
        np.testing.assert_allclose(law.sum(axis=1), np.outer(chain.pi, chain.pi),
                                   rtol=0.0, atol=1e-16)
        coupler = BerbeeCoupler(joint, seed=4)
        cum = np.cumsum(law)
        assert np.array_equal(coupler._cum, cum / cum[-1])

    def test_deterministic_by_seed(self):
        joint = MarkovChain.two_state(0.3, 0.2).joint_law(2)
        a = BerbeeCoupler(joint, seed=7).sample(1000)
        b = BerbeeCoupler(joint, seed=7).sample(1000)
        for u, w in zip(a, b):
            assert np.array_equal(u, w)

    def test_mismatch_rate_general_law(self):
        rng = np.random.default_rng(13)
        pmf = rng.uniform(0.05, 1.0, (3, 4))
        pmf /= pmf.sum()
        joint = JointLaw(pmf)
        beta = beta_from_joint(joint)
        _, y, ystar = BerbeeCoupler(joint, seed=8).sample(200_000)
        rate = np.mean(y != ystar)
        sigma = math.sqrt(beta * (1 - beta) / 200_000)
        assert abs(rate - beta) < 6 * sigma + 1e-9

    def test_zero_mass_states_never_drawn(self):
        # x = 1 and y = 2 carry no mass; the uniforms reach the top of [0, 1)
        joint = JointLaw(np.array([[0.3, 0.2, 0.0], [0.0, 0.0, 0.0], [0.1, 0.4, 0.0]]))
        coupler = BerbeeCoupler(joint, seed=0)
        u = np.concatenate([np.linspace(0.0, 1.0, 10_001)[:-1], [np.nextafter(1.0, 0.0)]])
        coupler.rng = types.SimpleNamespace(random=lambda size: u)
        x, y, ystar = coupler.sample(u.size)
        assert not np.any(x == 1)
        assert not np.any(y == 2) and not np.any(ystar == 2)

    def test_one_row_law_never_mismatches(self):
        joint = JointLaw(np.array([[0.2, 0.5, 0.3]]))
        x, y, ystar = BerbeeCoupler(joint, seed=9).sample(5000)
        assert np.all(x == 0) and np.array_equal(y, ystar)

    def test_stratified_draws_match_the_coupling_law(self):
        # evenly spaced uniforms put within 1 of N * mass draws in each cell
        rng = np.random.default_rng(13)
        pmf = rng.uniform(0.05, 1.0, (3, 4))
        joint = JointLaw(pmf / pmf.sum())
        coupler = BerbeeCoupler(joint, seed=0)
        N = 100_000
        coupler.rng = types.SimpleNamespace(random=lambda size: (np.arange(size) + 0.5) / size)
        x, y, ystar = coupler.sample(N)
        tol = 50 / N
        xy = np.bincount(4 * x + y, minlength=12).reshape(3, 4) / N
        xystar = np.bincount(4 * x + ystar, minlength=12).reshape(3, 4) / N
        np.testing.assert_allclose(xy, joint.pmf, rtol=0.0, atol=tol)
        np.testing.assert_allclose(xystar, np.outer(joint.x_marginal, joint.y_marginal),
                                   rtol=0.0, atol=tol)
        assert abs(np.mean(y != ystar) - beta_from_joint(joint)) <= tol

    def test_rejects_a_stack_of_laws(self):
        with pytest.raises(MixingError, match="one law"):
            BerbeeCoupler(MarkovChain.two_state(0.3, 0.2).joint_law(np.arange(1, 4)), seed=0)


class TestCouplingLaw:
    def test_stack_matches_each_law(self):
        rng = np.random.default_rng(17)
        pmf = rng.random((6, 3, 5))
        joint = JointLaw(pmf / pmf.sum(axis=(1, 2), keepdims=True))
        law = coupling_law(joint)
        assert law.shape == (6, 3, 5, 5)
        for i in range(6):
            assert np.array_equal(law[i], coupling_law(JointLaw(joint.pmf[i])))

    def test_a_law_without_its_shared_diagonal_fails(self, monkeypatch):
        # dropping the mass min(p(x, y), p(x) q(y)) on Y = Ystar loses mass
        # from (X, Y) and from (X, Ystar) in every law; the mismatch, which
        # is all the residual mass, still equals beta
        def sabotaged(joint):
            law = coupling_law(joint)
            return law - np.minimum(joint.pmf, joint.product)[..., None] * np.eye(law.shape[-1])

        monkeypatch.setattr(checks.mixing, "coupling_law", sabotaged)
        checked, failures = checks.run(checks.coupling)
        failed = Counter(f["invariant"] for f in failures)
        assert failed == {"coupling_xy_law": 400, "coupling_independence": 400}
        assert checked["coupling_mismatch_beta"] == 400
