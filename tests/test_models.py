import hashlib
import math

import numpy as np
import pytest

from depbernstein.bounds import BernsteinInputs
from depbernstein import models
from depbernstein.mixing import MarkovChain
from depbernstein.models import (
    ModelError,
    ModelSpec,
    bernstein_inputs_for,
    block_covariance_mean,
    clopper_pearson,
    empirical_laplace,
    run_expectation_experiment,
    run_tail_experiment,
    simulate_summands,
    v2_bruteforce,
    v2_exact_contraction,
    v2_interval_estimate,
)

CHAIN = MarkovChain.two_state(0.25, 0.25)
D2 = np.array([[1.0, 0.25], [0.25, 0.5]])
MULTI_CHUNK_TRIALS = 700  # spans several sampling chunks


def contraction_spec(tau=(1.0, 0.5), D=D2):
    return ModelSpec(kind="contraction", d=len(D), chain=CHAIN,
                     D=np.asarray(D), tau_map=np.asarray(tau))


class TestModelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ModelError):
            ModelSpec(kind="mystery", d=2, chain=CHAIN, D=D2)

    def test_rejects_tau_above_one(self):
        with pytest.raises(ModelError):
            contraction_spec(tau=(1.0, 1.5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            ModelSpec(kind="contraction", d=3, chain=CHAIN, D=D2,
                      tau_map=np.array([1.0, 0.5]))

    def test_M_is_spectral_radius(self):
        spec = contraction_spec(D=np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert spec.M == pytest.approx(2.0)

    def test_block_M(self):
        spec = ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        # centered values are +-1, so M = d * max|value|^2 = 3
        assert spec.M == pytest.approx(3.0)


class TestSimulators:
    def test_tau_zero_gives_zero_matrices(self):
        spec = contraction_spec(tau=(0.0, 0.0))
        for m in simulate_summands(spec, 16, seed=0):
            assert np.all(m.entries == 0.0)

    def test_contraction_summands_bounded(self):
        spec = contraction_spec()
        M = spec.M
        for m in simulate_summands(spec, 64, seed=1):
            lam = np.max(np.abs(np.linalg.eigvalsh(m.entries)))
            assert lam <= M + 1e-12

    def test_contraction_summands_centered(self):
        spec = contraction_spec()
        rng_trials = 4000
        acc = np.zeros((2, 2))
        for t in range(rng_trials):
            mats = simulate_summands(spec, 4, seed=100 + t)
            acc += mats[0].entries
        mean = acc / rng_trials
        # entries are +-tau*D with fair signs: mean 0, sd <= |D| per draw
        assert np.max(np.abs(mean)) < 5 * 1.0 / math.sqrt(rng_trials)

    def test_block_summands_centered(self):
        spec = ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        trials = 4000
        acc = np.zeros((2, 2))
        for t in range(trials):
            mats = simulate_summands(spec, 3, seed=500 + t)
            acc += mats[0].entries
        stderr = 2.0 / math.sqrt(trials)  # entries bounded by ~2
        assert np.max(np.abs(acc / trials)) < 5 * stderr

    def test_block_mean_spot_value(self):
        spec = ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        # +-1 values, flip probability 1/4: lag-1 autocovariance is
        # P(same) - P(diff) = 1/2
        assert block_covariance_mean(spec) == pytest.approx(
            np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-12)

    def test_block_mean_iid_is_diagonal(self):
        spec = ModelSpec(kind="block_covariance", d=3,
                         chain=MarkovChain.iid([0.5, 0.5]),
                         value_map=np.array([0.0, 1.0]))
        assert block_covariance_mean(spec) == pytest.approx(
            0.25 * np.eye(3), abs=1e-12)

    def test_block_summands_pinned(self):
        # +-1 values and flip probability 1/4 make every entry an exact
        # dyadic, so these bytes hold on any platform
        spec = ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                         value_map=np.array([1.0, -1.0]))
        mats = np.stack([m.entries for m in simulate_summands(spec, 50, seed=0)])
        assert hashlib.sha256(mats.tobytes()).hexdigest() == (
            "5a25e93684e995de9c89b61a8c7413bec400136ec2ce26368e02361bda691815")


class TestVarianceProxy:
    def test_exact_value(self):
        spec = contraction_spec()
        etau2 = float(CHAIN.pi @ np.array([1.0, 0.25]))
        lam2 = float(np.max(np.linalg.eigvalsh(D2 @ D2)))
        assert v2_exact_contraction(spec) == pytest.approx(etau2 * lam2, rel=1e-12)

    def test_exact_matches_bruteforce(self):
        spec = contraction_spec()
        brute = v2_bruteforce(spec, 8, mode="exact")
        assert brute.value == pytest.approx(v2_exact_contraction(spec), abs=1e-10)

    def test_mc_bruteforce_close(self):
        spec = contraction_spec(D=np.eye(2))
        est = v2_bruteforce(spec, 4, mode="mc", trials=3000, seed=5)
        assert est.value == pytest.approx(v2_exact_contraction(spec),
                                          abs=3 * est.stderr + 0.05)

    def test_interval_estimate_below_bruteforce(self):
        spec = contraction_spec()
        brute = v2_bruteforce(spec, 8, mode="exact").value
        est = v2_interval_estimate(spec, 8, trials=2000, seed=2)
        assert est.value <= brute + 3 * est.stderr

    def test_iid_variance_is_spectral(self):
        spec = ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2)
        lam2 = float(np.max(np.linalg.eigvalsh(D2 @ D2)))
        assert v2_exact_contraction(spec) == pytest.approx(lam2)


class TestClopperPearson:
    def test_endpoints(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100)
        assert 0.9 < lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        for k, n in [(5, 100), (50, 100), (99, 100)]:
            lo, hi = clopper_pearson(k, n)
            assert lo <= k / n <= hi

    def test_wider_at_higher_confidence(self):
        lo99, hi99 = clopper_pearson(10, 100, conf=0.99)
        lo90, hi90 = clopper_pearson(10, 100, conf=0.90)
        assert lo99 <= lo90 and hi90 <= hi99


class TestInputsAssembly:
    def test_contraction_inputs(self):
        spec = contraction_spec()
        inp = bernstein_inputs_for(spec, 64)
        assert inp.n == 64 and inp.d == 2
        assert inp.M == pytest.approx(spec.M)
        assert inp.v == pytest.approx(math.sqrt(v2_exact_contraction(spec)))
        assert inp.c == pytest.approx(51.0 / 49.0 * math.log(2.0), rel=1e-12)

    def test_explicit_v2_inflated(self):
        from depbernstein.models import V2Estimate
        spec = contraction_spec()
        inp = bernstein_inputs_for(spec, 64, v2=V2Estimate(value=1.0, stderr=0.1))
        assert inp.v == pytest.approx(math.sqrt(1.3))


class TestLaplace:
    def test_t_zero_gives_d_exactly(self):
        spec = contraction_spec()
        [(t, est, err)] = empirical_laplace(spec, 8, [0.0], trials=200, seed=0)
        assert t == 0.0 and est == 2.0 and err == 0.0

    def test_single_summand_two_point_law(self):
        spec = ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2)
        t = 0.7
        [(_, est, err)] = empirical_laplace(spec, 1, [t], trials=20_000, seed=3)
        w = np.linalg.eigvalsh(D2)
        exact = 0.5 * (np.exp(t * w).sum() + np.exp(-t * w).sum())
        assert est == pytest.approx(exact, abs=3 * err + 1e-12)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_rejects_too_few_trials(self, trials):
        with pytest.raises(ModelError):
            empirical_laplace(contraction_spec(), 8, [0.1], trials=trials, seed=0)

    def test_overflow_guard(self):
        spec = contraction_spec()
        with pytest.raises(ModelError):
            empirical_laplace(spec, 100, [10.0], trials=200, seed=0)


class TestTailExperiment:
    SPEC = contraction_spec()

    def test_report_invariants(self):
        n = 16
        report = run_tail_experiment(self.SPEC, n, trials=400,
                                     x_grid=[0.5, 2.0, 8.0, 100.0], seed=9)
        assert report.trials == 400
        assert len(report.lambda_max_samples) == 400
        phats = []
        for x, p_hat, lo, hi in report.tail_grid:
            assert lo <= p_hat <= hi
            phats.append(p_hat)
        assert all(a >= b for a, b in zip(phats, phats[1:]))
        for x, b in report.bound_curve:
            assert 0.0 < b <= self.SPEC.d
        # beyond the almost-sure ceiling nothing can be observed
        x, p_hat, _, _ = report.tail_grid[-1]
        assert x > n * self.SPEC.M and p_hat == 0.0

    def test_deterministic_json(self):
        kw = dict(n=8, trials=120, x_grid=[1.0, 2.0], seed=4)
        a = run_tail_experiment(self.SPEC, **kw).to_json()
        b = run_tail_experiment(self.SPEC, **kw).to_json()
        assert a == b

    def test_worker_count_invariance(self):
        kw = dict(n=8, trials=130, x_grid=[1.0], seed=6)
        a = run_tail_experiment(self.SPEC, workers=1, **kw).to_json()
        b = run_tail_experiment(self.SPEC, workers=2, **kw).to_json()
        assert a == b

    def test_worker_count_invariance_multi_chunk(self):
        assert MULTI_CHUNK_TRIALS > 2 * models._CHUNK
        kw = dict(n=8, trials=MULTI_CHUNK_TRIALS, x_grid=[1.0], seed=6)
        a = run_tail_experiment(self.SPEC, workers=1, **kw).to_json()
        b = run_tail_experiment(self.SPEC, workers=2, **kw).to_json()
        assert a == b

    @pytest.mark.parametrize("kind, digest", [
        ("contraction",
         "c44ebd15a39b9b80da4745e7feb191c6bf726cd78e15de5c55b9bee5756e59fc"),
        ("iid_baseline",
         "63a03924e8db71aa64458d3bf36072eac591aeee5ecf601caaac01c83a41d98f"),
    ])
    def test_samples_pinned(self, kind, digest):
        # D = diag(1, -0.5) and tau = +-1 make every lambda_max an exact
        # multiple of 1/2, so these bytes hold on any platform
        tau = np.array([1.0, -1.0]) if kind == "contraction" else None
        spec = ModelSpec(kind=kind, d=2, chain=CHAIN, D=np.diag([1.0, -0.5]),
                         tau_map=tau)
        report = run_tail_experiment(spec, 32, trials=MULTI_CHUNK_TRIALS,
                                     x_grid=[1.0], seed=6)
        samples = np.asarray(report.lambda_max_samples)
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_rejects_few_trials(self):
        with pytest.raises(ModelError):
            run_tail_experiment(self.SPEC, 8, trials=10, x_grid=[1.0], seed=0)

    def test_rejects_empty_path(self):
        with pytest.raises(ModelError):
            run_tail_experiment(self.SPEC, 0, trials=200, x_grid=[1.0], seed=0)


class TestExpectationExperiment:
    def test_mean_below_bound(self):
        spec = contraction_spec()
        mean, stderr, bound = run_expectation_experiment(spec, 32, trials=300, seed=8)
        assert mean <= bound + 3 * stderr

    def test_rejects_scalar(self):
        spec = ModelSpec(kind="iid_baseline", d=1, chain=CHAIN, D=np.array([[1.0]]))
        with pytest.raises(ModelError):
            run_expectation_experiment(spec, 8, trials=200, seed=0)
