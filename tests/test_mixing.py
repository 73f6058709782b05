import json
import math
import types
import warnings

import numpy as np
import pytest

from depbernstein import checks
from depbernstein.mixing import (
    RATE_CEILING,
    BerbeeCoupler,
    JointLaw,
    MarkovChain,
    MixingError,
    berbee_coupling,
    beta_from_joint,
    beta_k_exact,
    dbar,
    fit_geometric_rate,
)


def random_chain(rng, s):
    """A random irreducible aperiodic chain on s states (strictly positive P)."""
    P = rng.uniform(0.1, 1.0, (s, s))
    P /= P.sum(axis=1, keepdims=True)
    return MarkovChain.from_transition(P)


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
    return MarkovChain.from_transition(np.random.default_rng(seed).dirichlet(np.ones(s), s))


SAMPLER_CHAINS = {
    "dirichlet-2": lambda: dirichlet_chain(2, 1),
    "dirichlet-3": lambda: dirichlet_chain(3, 2),
    "dirichlet-5": lambda: dirichlet_chain(5, 3),
    "dirichlet-12": lambda: dirichlet_chain(12, 4),
    "near-reducible": lambda: MarkovChain.two_state(1e-3, 1e-3),
    # cumulative rows end at 1 - 2^-53
    "iid-tenths": lambda: MarkovChain.iid([0.1] * 10),
    "primitive-with-zeros": lambda: MarkovChain.from_transition(
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
            MarkovChain.from_transition([[0.5, 0.6], [0.5, 0.5]])

    def test_rejects_reducible(self):
        with pytest.raises(MixingError):
            MarkovChain.from_transition([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_periodic(self):
        with pytest.raises(MixingError):
            MarkovChain.from_transition([[0.0, 1.0], [1.0, 0.0]])

    def test_accepts_primitive_chain_with_zero_in_P_cubed(self):
        # P^3 has a zero but P^5 > 0, at Wielandt's exponent (s-1)^2 + 1
        chain = MarkovChain.from_transition([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                             [0.5, 0.5, 0.0]])
        assert chain.pi @ chain.P == pytest.approx(chain.pi, abs=1e-12)

    def test_iid_chain(self):
        chain = MarkovChain.iid([0.3, 0.7])
        assert np.allclose(chain.P, [[0.3, 0.7], [0.3, 0.7]])
        assert beta_k_exact(chain, 1) == 0.0

    def test_json_roundtrip(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        again = MarkovChain.from_json(json.dumps({"P": chain.P.tolist()}))
        assert np.array_equal(chain.P, again.P)

    def test_joint_law_marginals(self):
        chain = MarkovChain.two_state(0.3, 0.1)
        joint = chain.joint_law(3)
        assert joint.x_marginal == pytest.approx(chain.pi, abs=1e-12)
        assert joint.y_marginal == pytest.approx(chain.pi, abs=1e-12)

    def test_sample_path_frequencies(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        rng = np.random.default_rng(7)
        path = chain.sample_path(20_000, rng)
        assert set(np.unique(path)) <= {0, 1}
        # stationary frequency of state 0 is 1/2; binomial-ish 5-sigma band
        assert abs(np.mean(path == 0) - 0.5) < 0.02

    def test_sample_path_transition_frequencies(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        path = chain.sample_path(50_000, np.random.default_rng(3))
        stay = np.mean(path[1:][path[:-1] == 0] == 0)
        assert abs(stay - 0.75) < 0.02

    def test_sample_paths_match_per_step_searchsorted(self):
        chain = random_chain(np.random.default_rng(11), 4)
        u = np.random.default_rng(12).random((5, 300))
        cum = np.cumsum(chain.P, axis=1)
        for row, path in zip(u, chain.sample_paths(u)):
            s = int(np.searchsorted(np.cumsum(chain.pi), row[0], side="right"))
            ref = [s]
            for x in row[1:]:
                s = int(np.searchsorted(cum[s], x, side="right"))
                ref.append(s)
            assert np.array_equal(path, ref)

    def test_sample_path_clips_cumulative_roundoff(self):
        # the cumulative rows of ten 0.1s end at 1 - 2^-53 < 1, and a
        # uniform draw can take that largest value below 1
        chain = MarkovChain.iid([0.1] * 10)

        class TopRng:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        assert np.all(chain.sample_path(5, TopRng()) == 9)

    @pytest.mark.parametrize("P, pi", [
        ([[math.nan, 1.0], [0.5, 0.5]], [1 / 3, 2 / 3]),
        ([[math.inf, 0.0], [0.5, 0.5]], [0.5, 0.5]),
        ([[0.5, 0.5], [0.5, 0.5]], [math.nan, math.nan]),
        ([[0.5, 0.5], [0.5, 0.5]], [math.inf, 0.5]),
    ])
    def test_rejects_non_finite(self, P, pi):
        with pytest.raises(MixingError):
            MarkovChain(P=np.array(P), pi=np.array(pi))

    def test_from_transition_rejects_non_finite(self):
        with pytest.raises(MixingError):
            MarkovChain.from_transition([[math.nan, 1.0], [0.5, 0.5]])

    def test_inputs_stay_writeable(self):
        P, pi, pmf = np.full((2, 2), 0.5), np.full(2, 0.5), np.full((2, 2), 0.25)
        MarkovChain.from_transition(P)
        MarkovChain(P=P, pi=pi)
        MarkovChain.iid(pi)
        JointLaw(pmf)
        assert P.flags.writeable and pi.flags.writeable and pmf.flags.writeable

    @pytest.mark.parametrize("a, b", [(1e-3, 2e-3), (1e-9, 3e-9), (1e-12, 5e-13),
                                      (0.25, 1e-15), (0.5, 1e-300),
                                      (0.5, 1e-310), (1.0, 1e-320)])
    def test_from_transition_two_state_closed_form(self, a, b):
        # near-reducible chains, down to subnormal rates: pi = (b, a) / (a + b)
        pi = MarkovChain.from_transition(MarkovChain.two_state(a, b).P).pi
        np.testing.assert_allclose(pi, np.array([b, a]) / (a + b), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("seed", [5, 13, 92])
    def test_from_transition_sparse_dirichlet(self, seed):
        # stationary laws spanning 20+ orders of magnitude
        P = np.random.default_rng(seed).dirichlet(np.full(3, 0.05), 3)
        pi = MarkovChain.from_transition(P).pi
        assert np.all(pi >= 0)
        assert np.max(np.abs(pi @ P - pi) / pi) <= 1e-14

    @pytest.mark.parametrize("P", [[0.5, 0.5], [[0.5, 0.5]], [[[1.0]]]])
    def test_from_transition_rejects_bad_shape(self, P):
        with pytest.raises(MixingError, match="P must be square"):
            MarkovChain.from_transition(P)

    @pytest.mark.parametrize("P", [np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                                   [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
    def test_from_transition_rejects_without_warning(self, P):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MixingError, match="irreducible and aperiodic"):
                MarkovChain.from_transition(P)

    def test_sample_path_deterministic(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        a = chain.sample_path(100, np.random.default_rng(5))
        b = chain.sample_path(100, np.random.default_rng(5))
        assert np.array_equal(a, b)


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
        assert np.array_equal(chain.sample_paths(u), per_step_paths(chain, u))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (64, 2), (200, 1024)])
    @pytest.mark.parametrize("name", sorted(SAMPLER_CHAINS))
    def test_matches_per_step_reference(self, name, shape):
        chain = SAMPLER_CHAINS[name]()
        rng = np.random.default_rng(list(shape))
        for u in (rng.random(shape), rng.choice(edge_uniforms(chain), shape)):
            path = chain.sample_paths(u)
            assert path.shape == shape and path.dtype == np.int64
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


class TestDbar:
    def test_two_state_closed_form(self):
        # the two rows of P^k differ by |1 - a - b|^k in each entry
        chain = MarkovChain.two_state(0.2, 0.5)
        for k in range(1, 8):
            Pk = np.linalg.matrix_power(chain.P, k)
            assert dbar(Pk) == pytest.approx(0.3 ** k, rel=1e-10)

    def test_iid_is_exactly_zero(self):
        assert dbar(MarkovChain.iid([0.2, 0.3, 0.5]).P) == 0.0

    def test_one_until_rows_overlap(self):
        # every row of P is a point mass or misses another row's support
        P = MarkovChain.from_transition([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
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

    def test_envelope_actually_dominates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            chain = random_chain(rng, 3)
            c = fit_geometric_rate(chain, 12)
            for k in range(2, 13):
                assert beta_k_exact(chain, k) <= math.exp(-c * (k - 1)) * (1 + 1e-12)

    def test_iid_hits_ceiling(self):
        assert fit_geometric_rate(MarkovChain.iid([0.4, 0.6]), 10) == RATE_CEILING

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
        _, y, ystar = berbee_coupling(joint, seed=1).sample(5000)
        assert np.array_equal(y, ystar)

    def test_mismatch_rate_matches_beta(self):
        # Y = X, a fair bit: beta = 1/2, and 0.013 is > 8 sigma of the rate
        checked, failures = checks.run(checks.coupling, seed=2)
        assert checked["coupling_mismatch_rate"] == 1 and failures == []

    def test_xy_joint_preserved(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        joint = chain.joint_law(1)
        x, y, _ = berbee_coupling(joint, seed=3).sample(200_000)
        counts = np.zeros((2, 2))
        np.add.at(counts, (x, y), 1.0)
        assert counts / counts.sum() == pytest.approx(joint.pmf, abs=0.005)

    def test_ystar_marginal_and_independence(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        joint = chain.joint_law(1)
        x, _, ystar = berbee_coupling(joint, seed=4).sample(200_000)
        # marginal of Ystar
        freq = np.mean(ystar == 0)
        assert abs(freq - joint.y_marginal[0]) < 0.005
        # independence from X: chi-square on the contingency table
        table = np.bincount(2 * x + ystar, minlength=4).reshape(2, 2)
        assert checks.independence_pvalue(table) > 1e-3

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
        _, y, ystar = berbee_coupling(joint, seed=8).sample(200_000)
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
        x, y, ystar = berbee_coupling(joint, seed=9).sample(5000)
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
