import json
import math

import numpy as np
import pytest
from scipy import stats

from depbernstein.mixing import (
    RATE_CEILING,
    BerbeeCoupler,
    JointLaw,
    MarkovChain,
    MixingError,
    berbee_coupling,
    beta_from_joint,
    beta_k_exact,
    fit_geometric_rate,
)


def random_chain(rng, s):
    """A random irreducible aperiodic chain on s states (strictly positive P)."""
    P = rng.uniform(0.1, 1.0, (s, s))
    P /= P.sum(axis=1, keepdims=True)
    return MarkovChain.from_transition(P)


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

    def test_sample_path_deterministic(self):
        chain = MarkovChain.two_state(0.25, 0.25)
        a = chain.sample_path(100, np.random.default_rng(5))
        b = chain.sample_path(100, np.random.default_rng(5))
        assert np.array_equal(a, b)


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
        joint = JointLaw(np.diag([0.5, 0.5]))  # beta = 1/2
        _, y, ystar = berbee_coupling(joint, seed=2).sample(100_000)
        rate = np.mean(y != ystar)
        assert abs(rate - 0.5) < 0.013  # > 8 sigma of a fair binomial

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
        table = np.zeros((2, 2))
        np.add.at(table, (x, ystar), 1.0)
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 1e-3

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
