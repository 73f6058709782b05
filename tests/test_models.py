import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import iid_chain, sample_whole
from depbernstein.bounds import BoundDomainError
from depbernstein import bounds, checks, mixing, models
from depbernstein.mixing import RATE_LAGS, MarkovChain, beta_k_exact, dbar, fit_geometric_rate
from depbernstein.models import (
    ModelError,
    ModelSpec,
    bernstein_inputs_for,
    block_covariance_mean,
    clopper_pearson,
    lag_moments,
    log_laplace,
    run_tail_experiment,
    spec_from_config,
    v2_bruteforce,
    v2_ceiling,
)

CHAIN = MarkovChain.two_state(0.25, 0.25)
D2 = np.array([[1.0, 0.25], [0.25, 0.5]])
MULTI_CHUNK_N, MULTI_CHUNK_TRIALS = 2048, 700  # five sampling chunks of the contraction spec


def chunk_trials(spec, n):
    """The trials one sampling chunk of _partial_sum_eigs holds at this n."""
    return max(1, models._CHUNK_WORDS // models._trial_words(spec, n))


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

    @pytest.mark.parametrize("tau", [(math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ModelError):
            contraction_spec(tau=tau)

    @pytest.mark.parametrize("values", [(math.nan, 1.0), (math.inf, 1.0)])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ModelError):
            ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                      value_map=np.array(values))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            ModelSpec(kind="contraction", d=3, chain=CHAIN, D=D2,
                      tau_map=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("d", [2.0, 2.7, True, [2], "2", 0])
    def test_rejects_d_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ModelError, match="d must be an integer"):
            ModelSpec(kind="block_covariance", d=d, chain=CHAIN,
                      value_map=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("kind, unread, named", [
        ("iid_baseline", {"tau_map": [5.0, "x"]}, "tau_map"),
        ("iid_baseline", {"value_map": np.array([1.0, -1.0])}, "value_map"),
        ("contraction", {"value_map": np.array([1.0, -1.0])}, "value_map"),
        ("block_covariance", {"D": D2}, "D"),
        ("block_covariance", {"tau_map": np.array([1.0, -1.0]), "D": D2}, "D, tau_map"),
    ])
    def test_rejects_a_field_its_kind_does_not_read(self, kind, unread, named):
        # an iid spec given tau_map [5.0, "x"] was kept unchecked, and its
        # digest() then raised AttributeError on the list
        needed = {"D": D2, "tau_map": np.array([1.0, -1.0])} if kind == "contraction" \
            else {"D": D2} if kind == "iid_baseline" else {"value_map": np.array([1.0, -1.0])}
        with pytest.raises(ModelError, match=f"does not read {named}$"):
            ModelSpec(kind=kind, d=2, chain=CHAIN, **needed, **unread)

    def test_missing_fields_are_named(self):
        with pytest.raises(ModelError, match="a contraction model needs D, tau_map$"):
            ModelSpec(kind="contraction", d=2, chain=CHAIN)
        with pytest.raises(ModelError, match="a block_covariance model needs value_map$"):
            ModelSpec(kind="block_covariance", d=2, chain=CHAIN)

    @pytest.mark.parametrize("name", ["tau_map", "value_map"])
    def test_state_maps_need_one_value_per_state(self, name):
        kind = "contraction" if name == "tau_map" else "block_covariance"
        fields = {"D": D2, "tau_map": [1.0, -1.0]} if kind == "contraction" \
            else {"value_map": [1.0, -1.0]}
        fields[name] = [0.5, 0.5, 0.5]
        with pytest.raises(ModelError, match=f"{name} must have one value per chain state"):
            ModelSpec(kind=kind, d=2, chain=CHAIN, **fields)

    def test_state_maps_are_copied_read_only(self):
        tau = np.array([1.0, -1.0])
        spec = contraction_spec(tau=tau)
        assert tau.flags.writeable and not spec.tau_map.flags.writeable

    def test_d_is_stored_as_int(self):
        spec = ModelSpec(kind="block_covariance", d=np.int64(3), chain=CHAIN,
                         value_map=np.array([1.0, -1.0]))
        assert type(spec.d) is int and spec.d == 3

    def test_M_is_spectral_radius(self):
        spec = contraction_spec(D=np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert spec.M == pytest.approx(2.0)

    def test_block_M(self):
        spec = ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        # centered values are +-1, so M = d * max|value|^2 = 3
        assert spec.M == pytest.approx(3.0)

    @pytest.mark.parametrize("spec", [contraction_spec(),
                                      ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2)],
                             ids=["contraction", "iid"])
    def test_sign_models_have_no_centered_values(self, spec):
        with pytest.raises(ModelError, match="block model only"):
            spec.centered_values


def trial_generator(seed, part, t, words):
    """A Generator on trial t's words of stream `part` of `seed`, from
    numpy's public API: the seed's child `part`, jumped past the `words`
    words of each earlier trial."""
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(part,)))
    bitgen.advance(t * words)
    return np.random.Generator(bitgen)


def draw(spec, n, seed, lo, hi):
    """The summand coefficients of trials lo..hi-1 as one array: the row
    blocks that models._draws yields, concatenated."""
    return np.concatenate(list(models._draws(spec, n, seed, lo, hi)))


def draw_reference(spec, n, seed, lo, hi):
    """draw with one numpy Generator per trial and stream part: the
    path uniforms from part 0's .random, the signs from part 1's
    .integers(0, 2, n) * 2 - 1, which reads two signs a word."""
    signs = (n + 1) // 2
    eps = np.array([trial_generator(seed, 1, t, signs).integers(0, 2, n) * 2 - 1
                    for t in range(lo, hi)])
    if spec.kind == "iid_baseline":
        return eps.astype(float)
    steps = n if spec.kind == "contraction" else n * spec.d
    path = sample_whole(spec.chain, np.array([trial_generator(seed, 0, t, steps).random(steps)
                                              for t in range(lo, hi)]))
    if spec.kind == "block_covariance":
        return spec.centered_values[path].reshape(hi - lo, n, spec.d)
    return spec.tau_map[path] * eps


def simulate_summands(spec, n, seed, trials):
    """The summands X_i of trials 0..trials-1 as one (trials, n, d, d) array,
    assembled from models._draws; the sampler itself only sums the draws
    (models._chunk_eigs)."""
    draws = draw(spec, n, seed, 0, trials)
    if spec.kind == "block_covariance":
        return np.einsum("tia,tib->tiab", draws, draws) - block_covariance_mean(spec)
    return draws[:, :, None, None] * spec.D


DRAW_SPECS = {
    "contraction": contraction_spec(),
    # 3 cuts, so W = 4 ranks and sample_paths steps k = 4 transitions a lookup
    "contraction-3-state": ModelSpec(
        kind="contraction", d=2, D=D2, tau_map=np.array([1.0, 0.5, -0.25]),
        chain=MarkovChain([[.5, .25, .25], [.25, .25, .5], [.25, .5, .25]])),
    "iid_baseline": ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2),
    # a constant tau reads no state, so it draws no path
    "contraction-constant-tau": contraction_spec(tau=(0.5, 0.5)),
    "block_covariance": ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                                  value_map=np.array([0.0, 1.0])),
}


NO_PATH = ("iid_baseline", "contraction-constant-tau")


class TestDraw:
    # bytes of the block-split streams; every value is a dyadic
    # (tau in {1, 1/2}, signs, centered values +-1/2), so they hold on any
    # platform
    @pytest.mark.parametrize("kind, n, seed, lo, hi, digest", [
        ("contraction", 1, 5, 0, 4,
         "124ed5b665793304f32eac4bc8f95c8b5cc9c8d81520320ed48a76158059af56"),
        ("contraction", 3, 5, 0, 4,
         "22925b6589237b3d526a5c2077f128d0737c34d70d5174be94d6d18baf05116a"),
        ("contraction", 65, 5, 0, 4,
         "586b178800e35778ca62368c45c48680d419fc3fd3549b47623dfe819b893157"),
        ("contraction", 3, 2 ** 33 + 1, 60, 70,
         "0034677b6dead17c9800ff8341251695261c0227a0024be7e918f7c5a0019a7d"),
        # 65 and 1023 transitions: the last k-step lookup has surplus states
        ("contraction-3-state", 66, 5, 0, 4,
         "399c544f307cc71811383463f7a71a56ba13311a3d0a49c3f24d35eb074155aa"),
        ("contraction-3-state", 1024, 5, 0, 4,
         "8e760d94bd415b005d2d10ee330c0b9b0c6d20214c1cd1f422952fc1c9ac841a"),
        ("iid_baseline", 1, 5, 0, 4,
         "9bbf32a4b18132e5d9aa858dc1fc01beb4ca23a4544cbed48ad82930ea45c978"),
        ("iid_baseline", 3, 5, 0, 4,
         "a17d4d2207b9a815b7da2d52ed3a74e7a00dfb686808a8c36140a51cc64927ab"),
        ("iid_baseline", 65, 5, 0, 4,
         "24dc87895a2f79cc07a1be11bbdf269f612e8c225a1ae51ce0b9c0f01b5482f4"),
        ("iid_baseline", 3, 2 ** 33 + 1, 60, 70,
         "d41ecb8b214543419394589c510487a7065da7df6bedaedc61f7634f26dda8a2"),
        ("block_covariance", 1, 5, 0, 4,
         "ee3865f48286b4e1b7a970a0d38965f5cfad74333b962a804002ed3af6aa4550"),
        ("block_covariance", 3, 5, 0, 4,
         "25211c716485e5b217234f363812dffa8777c210a34901c685c23c4fec64e1ee"),
        ("block_covariance", 65, 5, 0, 4,
         "31967b3d6c1fa9f0e87d0133f5c30b9297168b9019349a1322d9811018f7dead"),
        ("block_covariance", 3, 2 ** 33 + 1, 60, 70,
         "28ced31a8516505caaa900760c64f4035f1d3603c69ce189709e81f2018f2aa4"),
    ])
    def test_draw_pinned(self, kind, n, seed, lo, hi, digest):
        out = draw(DRAW_SPECS[kind], n, seed, lo, hi)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", sorted(DRAW_SPECS))
    def test_chunks_straddle_like_one_draw(self, kind, monkeypatch):
        # trials 60..69 of the pinned draws straddle a chunk boundary of
        # _partial_sum_eigs: chunks of 16 trials end at 64
        spec, n, seed = DRAW_SPECS[kind], 65, 2 ** 33 + 1
        words = models._trial_words(spec, n)
        monkeypatch.setattr(models, "_CHUNK_WORDS", 17 * words - 1)
        assert chunk_trials(spec, n) == 16
        got = models._partial_sum_eigs(spec, n, 70, seed)
        assert np.array_equal(got, models._chunk_eigs((spec, n, seed, 0, 70)))
        assert np.array_equal(got[60:], models._chunk_eigs((spec, n, seed, 60, 70)))

    @pytest.mark.parametrize("kind", sorted(DRAW_SPECS))
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 256])
    @pytest.mark.parametrize("seed, lo", [(0, 0), (2 ** 64 + 5, 60), (2 ** 100, 130)])
    def test_matches_per_trial_generators(self, kind, n, seed, lo):
        spec = DRAW_SPECS[kind]
        got = draw(spec, n, seed, lo, lo + 9)
        want = draw_reference(spec, n, seed, lo, lo + 9)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sign_fold_widens_past_one_byte(self):
        # states 128 and 129 fit a uint8 path, but their entries 2x + b of
        # the signed tau table do not
        s = 130
        spec = ModelSpec(kind="contraction", d=2, D=D2, chain=iid_chain(np.full(s, 1 / s)),
                         tau_map=np.linspace(-1.0, 1.0, s))
        got, want = draw(spec, 64, 3, 0, 20), draw_reference(spec, 64, 3, 0, 20)
        assert np.array_equal(got, want)

    def test_tau_zero_keeps_the_sign_of_zero(self):
        spec = contraction_spec(tau=(0.0, 0.0))
        got, want = draw(spec, 9, 3, 0, 5), draw_reference(spec, 9, 3, 0, 5)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            run_tail_experiment(contraction_spec(), 8, trials=100, x_grid=[1.0], seed=-1)

    def test_negative_seed_is_rejected_before_the_inputs_and_the_streams(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reached past the sampler's checks")

        monkeypatch.setattr(models, "bernstein_inputs_for", forbidden)
        monkeypatch.setattr(models, "_stream", forbidden)
        with pytest.raises(ModelError, match="--seed must be a non-negative integer, got -1"):
            run_tail_experiment(contraction_spec(), 8, trials=100, x_grid=[1.0], seed=-1)

    def test_trials_past_uint32_have_their_own_words(self):
        # a uint32 trial index wrapped t = 2^32 to t = 0's stream
        spec, n = contraction_spec(), 64
        got = draw(spec, n, 0, 2 ** 32 - 1, 2 ** 32 + 1)
        assert np.array_equal(got, draw_reference(spec, n, 0, 2 ** 32 - 1, 2 ** 32 + 1))
        first = draw(spec, n, 0, 0, 1)[0]
        assert not np.array_equal(got[0], first) and not np.array_equal(got[1], first)

    @pytest.mark.parametrize("kind", sorted(DRAW_SPECS))
    def test_one_generator_per_stream_part_and_one_read_per_row_block(self, kind, monkeypatch):
        # whatever the trial count: a per-trial loop would build one PCG64 and
        # make one read per trial.  The signs are one random_raw read; the
        # path uniforms are read one block of rows, an eighth of the chunk,
        # at a time, so at most 8 reads
        calls = []

        class CountingPCG64(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                calls.append("PCG64")
                super().__init__(*args, **kwargs)

            def random_raw(self, *args, **kwargs):
                calls.append("random_raw")
                return super().random_raw(*args, **kwargs)

        class CountingGenerator(np.random.Generator):
            def random(self, *args, **kwargs):
                calls.append("random")
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        spec = DRAW_SPECS[kind]
        signs = [] if spec.kind == "block_covariance" else ["PCG64", "random_raw"]
        for trials, blocks in [(1, 1), (2, 2), (9, 5), (300, 8), (3000, 8)]:
            calls.clear()
            list(models._draws(spec, 8, 5, 3, 3 + trials))
            path = [] if kind in NO_PATH else ["PCG64"] + ["random"] * blocks
            assert calls == signs + path


class TestSimulators:
    def test_tau_zero_gives_zero_matrices(self):
        spec = contraction_spec(tau=(0.0, 0.0))
        assert np.all(simulate_summands(spec, 16, 0, 1) == 0.0)

    def test_contraction_summands_bounded(self):
        spec = contraction_spec()
        M = spec.M
        mats = simulate_summands(spec, 64, 1, 1)
        assert mats.shape == (1, 64, 2, 2)
        assert np.max(np.abs(np.linalg.eigvalsh(mats))) <= M + 1e-12

    def test_contraction_summands_centered(self):
        spec = contraction_spec()
        rng_trials = 4000
        mean = simulate_summands(spec, 4, 100, rng_trials)[:, 0].mean(axis=0)
        # entries are +-tau*D with fair signs: mean 0, sd <= |D| per draw
        assert np.max(np.abs(mean)) < 5 * 1.0 / math.sqrt(rng_trials)

    def test_block_summands_centered(self):
        spec = ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        trials = 4000
        mean = simulate_summands(spec, 3, 500, trials)[:, 0].mean(axis=0)
        stderr = 2.0 / math.sqrt(trials)  # entries bounded by ~2
        assert np.max(np.abs(mean)) < 5 * stderr

    def test_block_mean_spot_value(self):
        spec = ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                         value_map=np.array([-1.0, 1.0]))
        # +-1 values, flip probability 1/4: lag-1 autocovariance is
        # P(same) - P(diff) = 1/2
        assert block_covariance_mean(spec) == pytest.approx(
            np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-12)

    def test_block_mean_iid_is_diagonal(self):
        spec = ModelSpec(kind="block_covariance", d=3,
                         chain=iid_chain([0.5, 0.5]),
                         value_map=np.array([0.0, 1.0]))
        assert block_covariance_mean(spec) == pytest.approx(
            0.25 * np.eye(3), abs=1e-12)

    def test_block_summands_pinned(self):
        # +-1 values and flip probability 1/4 make every entry an exact
        # dyadic, so these bytes hold on any platform
        spec = ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                         value_map=np.array([1.0, -1.0]))
        mats = simulate_summands(spec, 50, 0, 1)[0]
        assert hashlib.sha256(mats.tobytes()).hexdigest() == (
            "5441711bce8dcf71aa8381f5a15f03b379c0a8fec6458baa51d6a05410f23a5e")


def block_covariance_by_lags(spec):
    """E(C C^T) by one matrix_power per lag: entry (a, b) is the stationary
    autocovariance of the centered values at lag |a - b|."""
    vals = spec.centered_values
    cov = np.empty((spec.d, spec.d))
    for lag in range(spec.d):
        if lag == 0:
            c = float(spec.chain.pi @ (vals * vals))
        else:
            Pk = np.linalg.matrix_power(spec.chain.P, lag)
            c = float(vals @ (spec.chain.pi[:, None] * Pk) @ vals)
        for a in range(spec.d - lag):
            cov[a, a + lag] = cov[a + lag, a] = c
    return cov


# dyadic configs: P, pi and the centered values are dyadic rationals
DYADIC_BLOCKS = {
    "shipped": next(cfg["spec"] for cfg in checks.shipped_model_configs()
                    if cfg["name"] == "blockcov"),
    "pinned": ModelSpec(kind="block_covariance", d=3, chain=CHAIN,
                        value_map=np.array([1.0, -1.0])),
    **{f"benchmark_shift_{k}": ModelSpec(kind="block_covariance", d=2, chain=CHAIN,
                                         value_map=np.array([1.0, -1.0]) + k / 8.0)
       for k in (-8, -3, 0, 5, 8)},
    "three_state_d3": ModelSpec(
        kind="block_covariance", d=3, value_map=np.array([1.0, -0.5, 0.25]),
        chain=MarkovChain([[0.5, 0.25, 0.25], [0.5, 0.5, 0.0],
                           [0.5, 0.0, 0.5]])),
}


class TestBlockCovariance:
    @pytest.mark.parametrize("name", sorted(DYADIC_BLOCKS))
    def test_matches_the_per_lag_formula_bitwise_on_dyadic_configs(self, name):
        spec = DYADIC_BLOCKS[name]
        assert np.array_equal(block_covariance_mean(spec), block_covariance_by_lags(spec))

    def test_matches_the_per_lag_formula_on_random_chains(self):
        # the sums run in another order, so only the dyadic configs keep
        # every bit: a few ulps of the largest entry move elsewhere
        rng = np.random.default_rng(2025)
        for _ in range(300):
            s = int(rng.integers(2, 7))
            P = rng.random((s, s)) + 0.05
            P /= P.sum(axis=1, keepdims=True)
            spec = block_spec(MarkovChain(P), int(rng.integers(1, 6)),
                              rng.normal(size=s))
            ref = block_covariance_by_lags(spec)
            got = block_covariance_mean(spec)
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestSpecFromConfig:
    P = [[0.75, 0.25], [0.25, 0.75]]
    CHAIN_P = MarkovChain(P)

    @pytest.mark.parametrize("name, config, built", [
        ("contraction", {"P": P, "D": D2.tolist(), "tau_map": [1.0, -1.0]},
         ModelSpec(kind="contraction", d=2, chain=CHAIN_P, D=D2, tau_map=np.array([1.0, -1.0]))),
        ("iid", {"P": P, "D": D2.tolist()},
         ModelSpec(kind="iid_baseline", d=2, chain=CHAIN_P, D=D2)),
        ("blockcov", {"P": P, "d": 3, "value_map": [1.0, -1.0]},
         ModelSpec(kind="block_covariance", d=3, chain=CHAIN_P, value_map=np.array([1.0, -1.0]))),
    ])
    def test_every_model_name_builds_its_spec(self, name, config, built):
        assert models.MODELS[name] == built.kind
        assert spec_from_config(name, config).digest() == built.digest()

    def test_names_cover_every_kind(self):
        assert tuple(models.MODELS) == ("contraction", "blockcov", "iid")
        assert sorted(models.MODELS.values()) == sorted(models._KIND_FIELDS)

    @pytest.mark.parametrize("name, config, named", [
        ("blockcov", {"P": P, "value_map": [1.0, -1.0]}, "'d'"),
        ("blockcov", {"P": P, "d": 2}, "'value_map'"),
        ("contraction", {"P": P}, "'D', 'tau_map'"),
        ("iid", {"P": P, "tau_map": [1.0, -1.0]}, "'D'"),
    ])
    def test_missing_keys_are_named(self, name, config, named):
        with pytest.raises(ModelError, match=f"a --model {name} config is missing {named}$"):
            spec_from_config(name, config)

    def test_a_sign_model_reads_d_from_D(self):
        spec = spec_from_config("iid", {"P": self.P, "D": np.eye(3).tolist()})
        assert spec.d == 3
        # a "d" key beside D is not read, so it is rejected, not silently ignored
        with pytest.raises(ModelError, match="a --model iid config does not read 'd'$"):
            spec_from_config("iid", {"P": self.P, "D": np.eye(3).tolist(), "d": 7})

    @pytest.mark.parametrize("name, config, named", [
        ("contraction", {"P": P, "D": D2.tolist(), "tau_map": [1.0, -1.0], "d": 2}, "'d'"),
        ("blockcov", {"P": P, "d": 2, "value_map": [1.0, -1.0], "D": D2.tolist()}, "'D'"),
    ])
    def test_unread_keys_are_named(self, name, config, named):
        with pytest.raises(ModelError, match=f"a --model {name} config does not read {named}$"):
            spec_from_config(name, config)

    def test_a_scalar_D_is_rejected_by_its_shape(self):
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            spec_from_config("iid", {"P": self.P, "D": 2.0})


class TestVarianceProxy:
    def test_exact_value(self):
        spec = contraction_spec()
        etau2 = float(CHAIN.pi @ np.array([1.0, 0.25]))
        lam2 = float(np.max(np.linalg.eigvalsh(D2 @ D2)))
        assert v2_ceiling(spec) == pytest.approx(etau2 * lam2, rel=1e-12)

    def test_exact_matches_bruteforce(self):
        spec = contraction_spec()
        assert v2_bruteforce(spec, 8) == pytest.approx(v2_ceiling(spec),
                                                       abs=1e-10)

    def test_iid_variance_is_spectral(self):
        spec = ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2)
        lam2 = float(np.max(np.linalg.eigvalsh(D2 @ D2)))
        assert v2_ceiling(spec) == pytest.approx(lam2)

    @pytest.mark.parametrize("n, named", [(0, "need n >= 1, got 0$"),
                                          (21, "capped at n = 20, got 21$")])
    def test_bruteforce_needs_n_from_1_to_20(self, n, named):
        with pytest.raises(ModelError, match=named):
            v2_bruteforce(contraction_spec(), n)

    @pytest.mark.parametrize("kind", ["contraction", "iid_baseline"])
    def test_sign_models_have_no_cross_moments(self, kind):
        # the fair sign leaves E(tau^2) D^2 at lag 0 and exact zeros after it,
        # so the ceiling is the exact variance proxy
        chain = MarkovChain([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5],
                             [0.25, 0.5, 0.25]])
        tau = np.array([1.0, 0.5, -0.25])
        spec = ModelSpec(kind=kind, d=2, chain=chain, D=D2,
                         tau_map=tau if kind == "contraction" else None)
        etau2 = float(chain.pi @ tau ** 2) if kind == "contraction" else 1.0
        moments = lag_moments(spec, 5)
        assert np.array_equal(moments[0], etau2 * (D2 @ D2))
        assert not moments[1:].any()
        assert v2_ceiling(spec) == pytest.approx(v2_bruteforce(spec, 8), abs=1e-12)


def block_spec(chain, d, values):
    return ModelSpec(kind="block_covariance", d=d, chain=chain,
                     value_map=np.asarray(values, dtype=float))


def random_block_spec(rng):
    s = int(rng.choice([2, 3]))
    P = rng.uniform(0.05, 1.0, (s, s))
    P /= P.sum(axis=1, keepdims=True)
    return block_spec(MarkovChain(P), int(rng.integers(1, 4)),
                      rng.uniform(-1.0, 1.0, s))


def lag_moments_by_paths(spec, lags):
    """E(X_0 X_k), k = 0..lags, summed over every pair of block paths."""
    P, pi, vals, d = spec.chain.P, spec.chain.pi, spec.centered_values, spec.d
    cov = block_covariance_mean(spec)
    paths = []
    for path in itertools.product(range(spec.chain.states), repeat=d):
        weight = math.prod(P[a, b] for a, b in zip(path, path[1:]))
        paths.append((path, weight, np.outer(vals[list(path)], vals[list(path)]) - cov))
    out = np.zeros((lags + 1, d, d))
    for p0, w0, X0 in paths:
        out[0] += pi[p0[0]] * w0 * X0 @ X0
        for k in range(1, lags + 1):
            gap = np.linalg.matrix_power(P, (k - 1) * d + 1)
            for pk, wk, Xk in paths:
                out[k] += pi[p0[0]] * w0 * gap[p0[-1], pk[0]] * wk * X0 @ Xk
    return out


SHIPPED_BLOCK = block_spec(CHAIN, 2, [1.0, -1.0])
# an asymmetric 3-state chain, whose blocks have cross moments (A != 0)
CORRELATED_BLOCK = block_spec(MarkovChain(
    [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), 2, [1.0, -1.0, 0.5])
PRIMITIVE = MarkovChain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                         [0.5, 0.5, 0.0]])


class TestBlockCeiling:
    @pytest.mark.parametrize("seed", range(4))
    def test_lag_moments_match_path_enumeration(self, seed):
        spec = random_block_spec(np.random.default_rng(seed))
        assert lag_moments(spec, 4) == pytest.approx(
            lag_moments_by_paths(spec, 4), abs=1e-14)

    def test_lag_moments_agree_with_monte_carlo(self):
        # a sticky chain, so that every lag moment is tens of standard errors
        # away from 0 and a G without them fails
        spec = block_spec(MarkovChain(
            [[0.9, 0.08, 0.02], [0.05, 0.9, 0.05], [0.02, 0.08, 0.9]]), 2, [1.0, -0.5, 0.2])
        n = 4
        G = models._pairwise_moments_exact(spec, n)
        # X_i X_j symmetrized, from 4000 sampled paths
        mats = simulate_summands(spec, n, 0, 4000)
        prod = np.einsum("tiab,tjbc->tijac", mats, mats)
        prod = (prod + prod.transpose(0, 2, 1, 3, 4)) / 2.0
        mc, err = prod.mean(axis=0), prod.std(axis=0) / math.sqrt(len(prod))

        def agrees(G):
            sym = (G + np.swapaxes(G, -1, -2)) / 2.0
            return np.all(np.abs(mc - sym) <= 4.0 * err + 1e-12)

        assert agrees(G)
        assert not agrees(G * np.eye(n)[:, :, None, None])  # every lag moment zeroed
        assert np.max(np.abs(G[0, 1] - G[1, 0].T)) == 0.0

    def test_ceiling_dominates_exact_bruteforce(self):
        rng = np.random.default_rng(606)
        for case in range(20):
            spec = random_block_spec(rng)
            n = int(rng.integers(2, 9))
            brute = v2_bruteforce(spec, n)
            assert v2_ceiling(spec) >= brute - 1e-12, (case, spec.d, n)

    def test_shipped_config_has_no_cross_moments(self):
        # so its ceiling needs no lag window and is exact
        assert not models._transfer(SHIPPED_BLOCK)[1].any()
        assert not lag_moments(SHIPPED_BLOCK, 64)[1:].any()

    def test_shipped_config_is_exact(self):
        # within-block sign flips are iid, so the lag moments vanish
        assert v2_ceiling(SHIPPED_BLOCK) == pytest.approx(0.75, abs=1e-12)
        assert v2_bruteforce(SHIPPED_BLOCK, 10) == pytest.approx(0.75, abs=1e-12)
        inp = bernstein_inputs_for(SHIPPED_BLOCK, 64)
        assert inp.v == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_iid_chain_has_no_tail(self):
        # d̄ = 0 at every lag: the blocks are independent and the ceiling is
        # ||E X_0^2||, which every index set attains
        spec = block_spec(iid_chain([0.3, 0.7]), 3, [1.0, -0.2])
        square = lag_moments(spec, 0)[0]
        assert v2_ceiling(spec) == pytest.approx(
            float(np.max(np.linalg.eigvalsh(square))), abs=1e-15)
        assert v2_ceiling(spec) == pytest.approx(
            v2_bruteforce(spec, 8), abs=1e-12)

    @pytest.mark.parametrize("chain, d", [
        (PRIMITIVE, 1), (PRIMITIVE, 2), (MarkovChain.two_state(1e-3, 1e-3), 1),
        (MarkovChain.two_state(1e-3, 2e-3), 2), (CHAIN, 1)],
        ids=["primitive-d1", "primitive-d2", "flip1e-3-d1", "near-reducible-d2", "d1"])
    def test_hard_chains_stay_certified(self, chain, d):
        values = [0.3, -1.0, 0.5][:chain.states]
        spec = block_spec(chain, d, values)
        ceiling = v2_ceiling(spec)
        assert math.isfinite(ceiling)
        assert ceiling >= v2_bruteforce(spec, 10) - 1e-12

    @pytest.mark.parametrize("chain", [MarkovChain.two_state(1e-2, 2e-2), PRIMITIVE],
                             ids=["near-reducible", "primitive"])
    def test_tail_covers_the_lags_beyond_the_window(self, chain, monkeypatch):
        spec = block_spec(chain, 2, [0.3, -1.0, 0.5][:chain.states])
        norms = np.linalg.norm(lag_moments(spec, 3000), 2, axis=(1, 2))
        long_sum = norms[0] + 2.0 * norms[1:].sum()
        for lags in (1, 8, 64):
            monkeypatch.setattr(models, "_CEILING_LAGS", lags)
            assert v2_ceiling(spec) >= long_sum - 1e-12

    def test_primitive_chain_needs_a_longer_step(self, monkeypatch):
        assert dbar(PRIMITIVE.P) == 1.0
        spec = block_spec(PRIMITIVE, 1, [0.3, -1.0, 0.5])
        # a one-lag window offers only k0 = 1, where d̄ = 1; the window must
        # grow to Wielandt's exponent 5 to find a contracting step
        monkeypatch.setattr(models, "_CEILING_LAGS", 1)
        ceiling = v2_ceiling(spec)
        assert math.isfinite(ceiling)
        assert ceiling >= v2_bruteforce(spec, 10) - 1e-12

    def test_no_contracting_step_raises(self, monkeypatch):
        # with A = 0 the ceiling would return before it looks at d̄
        assert models._transfer(CORRELATED_BLOCK)[1].any()
        monkeypatch.setattr(models, "dbar", lambda Pk: np.ones(len(Pk)))
        with pytest.raises(ModelError):
            v2_ceiling(CORRELATED_BLOCK)

    def test_inputs_draw_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo on the inputs path")

        monkeypatch.setattr(models, "_draws", forbidden)
        a = bernstein_inputs_for(SHIPPED_BLOCK, 64)
        assert a == bernstein_inputs_for(SHIPPED_BLOCK, 64)


def lag_powers_stacked(P, w, count):
    """The reference for the walker: one (count, s, s) stack of every lag
    power P^((k-1)w+1), by the walker's products: one a lag, by P^w (P first)."""
    steps, Mk, last, stack = {}, np.eye(len(P)), 0, []
    for k in range(1, count * w + 1, w):
        if k - last not in steps:
            steps[k - last] = np.linalg.matrix_power(P, k - last)
        Mk, last = Mk @ steps[k - last], k
        stack.append(Mk)
    return np.array(stack).reshape(count, *P.shape)


def lag_moments_stacked(spec, lags):
    square, A, m, w = models._transfer(spec)
    R = lag_powers_stacked(spec.chain.P, w, lags)
    return np.concatenate([square[None], np.einsum("abx,kxy,bcy->kac", A, R, m)])


def v2_ceiling_stacked(spec):
    """v2_ceiling over the whole stack of lag powers up to Wielandt's cap,
    with dbar over the whole stack: a (cap + 1, s, s, s) temporary.  The
    window L is _CEILING_LAGS lags, or up to the first contracting lag."""
    square, A, m, w = models._transfer(spec)
    if not A.any():
        return float(np.max(np.linalg.eigvalsh(square)))
    cap = max(models._CEILING_LAGS, math.ceil((spec.chain.states - 1) ** 2 / w) + 1)
    R = lag_powers_stacked(spec.chain.P, w, cap + 1)
    dbars = dbar(R)
    contracting = np.flatnonzero(dbars[:cap] < 1.0)
    L = max(models._CEILING_LAGS, contracting[0] + 1) if contracting.size else cap
    moments = np.concatenate([square[None], np.einsum("abx,kxy,bcy->kac", A, R[:L], m)])
    norms = np.linalg.norm(moments, 2, axis=(-2, -1))
    k0 = np.flatnonzero(dbars[:L] < 1.0)
    a = np.linalg.norm(A.transpose(2, 0, 1), 2, axis=(-2, -1)).sum()
    b = np.linalg.norm(m.transpose(2, 0, 1), 2, axis=(-2, -1)).max()
    tail = 2.0 * a * b * dbars[L] * np.min((k0 + 1) / (1.0 - dbars[k0]))
    return float(norms[0] + 2.0 * (norms[1:].sum() + tail))


def dirichlet_block_spec(s, alpha, d):
    rng = np.random.default_rng(s)
    chain = MarkovChain(rng.dirichlet(np.full(s, alpha), s))
    return block_spec(chain, d, rng.uniform(-1.0, 1.0, s))


class TestLagWalker:
    def assert_same_bits(self, spec):
        ceiling, want = v2_ceiling(spec), v2_ceiling_stacked(spec)
        assert ceiling.hex() == want.hex()
        moments, want_moments = lag_moments(spec, 40), lag_moments_stacked(spec, 40)
        assert np.array_equal(moments.view(np.uint64), want_moments.view(np.uint64))
        inputs = bernstein_inputs_for(spec, 64)
        assert inputs.v.hex() == math.sqrt(want).hex()
        assert inputs.c.hex() == fit_geometric_rate(spec.chain, RATE_LAGS).hex()

    # from s = 8 on v2_ceiling's lags span several blocks of _BLOCK_WORDS
    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    @pytest.mark.parametrize("s", range(2, 25))
    def test_blocks_give_the_stacked_bits(self, s, alpha):
        for d in (1, 2, 3):
            self.assert_same_bits(dirichlet_block_spec(s, alpha, d))

    def test_correlated_block_gives_the_stacked_bits(self):
        self.assert_same_bits(CORRELATED_BLOCK)

    @pytest.mark.parametrize("lags", [1, 8, 64])
    @pytest.mark.parametrize("chain", [MarkovChain.two_state(1e-2, 2e-2), PRIMITIVE],
                             ids=["near-reducible", "primitive"])
    def test_short_windows_give_the_stacked_bits(self, chain, lags, monkeypatch):
        monkeypatch.setattr(models, "_CEILING_LAGS", lags)
        self.assert_same_bits(block_spec(chain, 2, [0.3, -1.0, 0.5][:chain.states]))

    def test_window_stops_once_a_lag_contracts(self, monkeypatch):
        # Wielandt's cap at s = 40, w = 2 is 762 lags, but d̄ contracts well
        # within _CEILING_LAGS lags, so the walk reads d̄ up to lag 65 and the
        # rest of the block that holds it, no further
        spec = dirichlet_block_spec(40, 1.0, 2)
        seen = []
        monkeypatch.setattr(models, "dbar", lambda Pk: seen.append(len(Pk)) or dbar(Pk))
        v2_ceiling(spec)
        block = max(1, mixing._BLOCK_WORDS // 40 ** 2)
        assert models._CEILING_LAGS < sum(seen) <= models._CEILING_LAGS + block

    def test_ceiling_keeps_no_stack_of_lags(self):
        # a stack of every lag, reduced by one dbar call, peaked at about
        # 177 MiB here: its (L + 1, s, s, s) d̄ temporary spans all 423 lags
        spec = dirichlet_block_spec(30, 1.0, 2)
        tracemalloc.start()
        try:
            v2_ceiling(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


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

    @pytest.mark.parametrize("k, n, expected", [
        (0, 1, (0.0, 0.995)),
        (1, 1, (0.005000000000000006, 1.0)),
        (3, 10, (0.03700722109623212, 0.7351139852871306)),
        (37, 200, (0.12003614826512818, 0.26546828326787136)),
        (5000, 10000, (0.487073335155821, 0.5129266648441789)),
    ])
    def test_endpoints_pinned(self, k, n, expected):
        # the simulate tail_grid prints these; they must not move by a bit
        assert clopper_pearson(k, n) == expected

    @pytest.mark.parametrize("n, ks", [
        (100, np.arange(101)),
        (10 ** 4, np.r_[0:30, 37:10 ** 4:997, 10 ** 4 - 29:10 ** 4 + 1]),
        (10 ** 6, np.r_[0:30, 37:10 ** 6:99991, 10 ** 6 - 29:10 ** 6 + 1]),
    ], ids=["n100_every_k", "n1e4_grid", "n1e6_grid"])
    def test_matches_scipy(self, n, ks):
        # scipy's inverse incomplete beta, as the intervals were computed
        # before: the ends are beta quantiles
        betaincinv = pytest.importorskip("scipy.special").betaincinv
        lo, hi = clopper_pearson(ks, n)
        inner_lo, inner_hi = ks > 0, ks < n
        want_lo = betaincinv(ks[inner_lo], n - ks[inner_lo] + 1, 0.005)
        want_hi = betaincinv(ks[inner_hi] + 1, n - ks[inner_hi], 0.995)
        assert np.all(lo[~inner_lo] == 0.0) and np.all(hi[~inner_hi] == 1.0)
        assert np.max(np.abs(lo[inner_lo] / want_lo - 1)) < 1e-10
        assert np.max(np.abs(hi[inner_hi] / want_hi - 1)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 10, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("conf", [0.9, 0.99, 0.999999])
    def test_closed_form_ends(self, n, conf):
        # hi(0) and lo(n) solve (1 - hi)^n = alpha/2 and lo^n = alpha/2
        log_half = math.log((1 - conf) / 2)
        assert clopper_pearson(0, n, conf)[1] == -math.expm1(log_half / n)
        assert clopper_pearson(n, n, conf)[0] == math.exp(log_half / n)

    def test_scalar_and_array_calls_agree_bitwise(self):
        for n in (1, 7, 400, 10 ** 6):
            ks = np.unique(np.r_[0:min(n, 40) + 1, np.linspace(0, n, 25).astype(np.int64)])
            lo, hi = clopper_pearson(ks, n)
            assert [clopper_pearson(k, n) for k in ks.tolist()] == list(zip(lo.tolist(), hi.tolist()))
        lo, hi = clopper_pearson(np.array([[0, 3], [7, 10]]), 10)
        assert lo.shape == hi.shape == (2, 2)
        assert (lo[0, 1], hi[0, 1]) == clopper_pearson(3, 10)
        # a narrow dtype for k, where n - k would not fit it
        assert clopper_pearson(np.uint8(200), 1000) == clopper_pearson(200, 1000)

    @pytest.mark.parametrize("k, n, conf", [
        (-1, 10, 0.99), (11, 10, 0.99), (np.array([1, 11]), 10, 0.99), (2.5, 10, 0.99),
        (np.array([1.0, 2.0]), 10, 0.99), (0, 0, 0.99), (1, 2.0, 0.99),
        (1, 10, 0.0), (1, 10, 1.0), (1, 10, math.nan),
    ], ids=["k_negative", "k_above_n", "array_k_above_n", "k_float", "array_k_float",
            "n_zero", "n_float", "conf_zero", "conf_one", "conf_nan"])
    def test_invalid_input_raises(self, k, n, conf):
        with pytest.raises(ModelError):
            clopper_pearson(k, n, conf)


class TestInputsAssembly:
    def test_contraction_inputs(self):
        spec = contraction_spec()
        inp = bernstein_inputs_for(spec, 64)
        assert inp.n == 64 and inp.d == 2
        assert inp.M == pytest.approx(spec.M)
        assert inp.v == pytest.approx(math.sqrt(v2_ceiling(spec)))
        assert inp.c == pytest.approx(51.0 / 49.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("chain", [CHAIN, MarkovChain.two_state(1e-12, 1e-12)],
                             ids=["flip-1/4", "near-reducible"])
    def test_fitted_c_is_a_window_estimate(self, chain):
        # c is fitted on lags 2..50 only, and beta_51 already breaks its
        # envelope: log beta_51 = -36.044 > -50c = -36.072 on the flip-1/4
        # chain, beta_51 = 0.5 > 0.49298 on the near-reducible one
        c = fit_geometric_rate(chain, RATE_LAGS)
        assert math.log(beta_k_exact(chain, RATE_LAGS + 1)) > -c * RATE_LAGS


class TestLaplace:
    # P = [[.9, .1], [.3, .7]], whose chain matters: pi = (3/4, 1/4)
    SKEWED = MarkovChain([[0.9, 0.1], [0.3, 0.7]])

    @staticmethod
    def bruteforce(spec, n, t):
        """E Tr exp(t S_n) as a sum over all s^n paths and 2^n signs."""
        P, pi, lam = spec.chain.P, spec.chain.pi, np.linalg.eigvalsh(spec.D)
        total = 0.0
        for path in itertools.product(range(spec.chain.states), repeat=n):
            weight = pi[path[0]] * math.prod(P[x, y] for x, y in zip(path, path[1:]))
            for eps in itertools.product((1.0, -1.0), repeat=n):
                c = sum(e * spec.tau_map[x] for e, x in zip(eps, path))
                total += weight * np.exp(t * c * lam).sum() / 2 ** n
        return total

    @staticmethod
    def stepped(spec, n, t):
        """log_laplace by n - 1 products of the row vector with P diag(h_j),
        one step at a time, renormalized after each: the reference for the
        binary powers."""
        h = np.cosh(np.multiply.outer(t, np.outer(np.linalg.eigvalsh(spec.D), spec.tau_map)))
        w, log_mass = spec.chain.pi * h, 0.0
        for _ in range(n - 1):
            mass = w.sum(axis=-1)
            w, log_mass = w / mass[..., None] @ spec.chain.P * h, log_mass + np.log(mass)
        return np.logaddexp.reduce(log_mass + np.log(w.sum(axis=-1)), axis=-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 2 ** 12])
    def test_binary_powers_match_the_stepped_loop(self, n):
        spec = ModelSpec(kind="contraction", d=2, chain=self.SKEWED, D=D2,
                         tau_map=np.array([1.0, 0.25]))
        t = np.array([-300.0, -2.0, -0.1, 0.0, 1e-3, 0.05, 0.7, 3.0, 40.0, 500.0])
        np.testing.assert_allclose(log_laplace(spec, n, t), self.stepped(spec, n, t),
                                   rtol=1e-10, atol=0.0)

    def test_t_zero_gives_d_exactly(self):
        # every h_j is 1, and pi and P are dyadic
        assert log_laplace(contraction_spec(), 8, 0.0) == math.log(2)

    def test_single_summand_two_point_law(self):
        t, w = 0.7, np.linalg.eigvalsh(D2)
        iid = ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=D2)
        exact = 0.5 * (np.exp(t * w).sum() + np.exp(-t * w).sum())
        assert log_laplace(iid, 1, t) == pytest.approx(math.log(exact), rel=1e-15)
        # tau = (1, 1/2) at pi = (1/2, 1/2): one cosh per state and eigenvalue
        exact = 0.5 * np.cosh(t * np.outer(w, [1.0, 0.5])).sum()
        assert log_laplace(contraction_spec(), 1, t) == pytest.approx(math.log(exact), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_unit_tau_is_a_cosh_power(self, n):
        # |tau| = 1 leaves the chain out: sum_j cosh(t lam_j)^n, on every t at once
        t = np.array([[0.0, 0.01, 0.3], [0.9, 2.0, -2.0]])
        lam = np.linalg.eigvalsh(D2)
        want = np.log((np.cosh(t[..., None] * lam) ** n).sum(axis=-1))
        got = log_laplace(contraction_spec(tau=(1.0, -1.0)), n, t)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_every_path_and_sign(self, n):
        spec = ModelSpec(kind="contraction", d=2, chain=self.SKEWED, D=D2,
                         tau_map=np.array([1.0, 0.25]))
        for t in (0.1, 0.7, 3.0):
            want = math.log(self.bruteforce(spec, n, t))
            assert log_laplace(spec, n, t) == pytest.approx(want, rel=1e-12)

    def test_iid_model_is_unit_tau(self):
        iid = ModelSpec(kind="iid_baseline", d=2, chain=self.SKEWED, D=D2)
        unit = ModelSpec(kind="contraction", d=2, chain=self.SKEWED, D=D2,
                         tau_map=np.array([1.0, -1.0]))
        t = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(log_laplace(iid, 40, t), log_laplace(unit, 40, t), rtol=1e-14)

    def test_finite_far_past_the_old_overflow_guard(self):
        # t n M = 1000: the Monte-Carlo estimator it replaces refused t n M > 50
        spec = ModelSpec(kind="contraction", d=2, chain=CHAIN, D=np.diag([1.0, -1.0]),
                         tau_map=np.array([1.0, -1.0]))
        got = log_laplace(spec, 2000, 0.5)
        assert got == pytest.approx(math.log(2) + 2000 * math.log(math.cosh(0.5)), rel=1e-13)

    def test_block_model_raises(self):
        with pytest.raises(ModelError, match="contraction or iid"):
            log_laplace(block_spec(CHAIN, 2, [1.0, -1.0]), 8, 0.1)

    @pytest.mark.parametrize("n, t", [(0, 0.1), (8, 800.0), (8, [0.1, math.nan])])
    def test_rejects_n_below_one_and_t_past_cosh_range(self, n, t):
        with pytest.raises(ModelError):
            log_laplace(contraction_spec(), n, t)

    def test_sampler_meets_the_exact_law_of_a_sticky_chain(self):
        # tau = (1, 0) on a chain that stays put 95% of the time: the chain
        # shapes the law of S_n.  At seed 5 the Monte-Carlo mean of
        # Tr exp(t S_n) sits 1.82, 1.87 and 2.20 standard errors below the
        # exact value.  Do not go to t >= 0.5, where its heavy right tail put
        # it 5.8 below
        sticky = MarkovChain([[0.95, 0.05], [0.05, 0.95]])
        D, tau = np.diag([1.0, -0.5]), np.array([1.0, 0.0])
        spec = ModelSpec(kind="contraction", d=2, chain=sticky, D=D, tau_map=tau)
        n, trials = 64, 20_000
        eigs = models._partial_sum_eigs(spec, n, trials, 5)
        for t in (0.1, 0.2, 0.3):
            vals = np.exp(t * eigs).sum(axis=1)
            stderr = vals.std(ddof=1) / math.sqrt(trials)
            exact = math.exp(log_laplace(spec, n, t))
            assert abs(vals.mean() - exact) < 4.0 * stderr
        # the check can fail: with the chain's steps drawn iid from pi (P = 1 pi)
        # the exact value moves 5.6 standard errors at t = 0.3
        iid = ModelSpec(kind="contraction", d=2, chain=iid_chain(sticky.pi), D=D, tau_map=tau)
        assert abs(math.exp(log_laplace(iid, n, t)) - exact) >= 5.0 * stderr


class TestTailExperiment:
    SPEC = contraction_spec()

    def test_iid_is_the_contraction_model_with_unit_tau(self):
        # pi of this chain sums to 1 - 2^-53, where pi @ tau^2 gave a v one
        # ulp off the iid model's
        chain = MarkovChain([[0.9, 0.1], [0.3, 0.7]])
        D = np.array([[1.0, 0.3], [0.3, -0.5]])
        assert chain.pi.sum() != 1.0
        iid, unit = (run_tail_experiment(spec, 64, 300, [0.5, 2.0, 8.0, 40.0], seed=5)
                     for spec in (ModelSpec(kind="iid_baseline", d=2, chain=chain, D=D),
                                  ModelSpec(kind="contraction", d=2, chain=chain, D=D,
                                            tau_map=np.ones(2))))
        assert iid.inputs["v"] == 1.0577747210701758
        for key in ("lambda_max_samples", "inputs", "tail_grid", "bound_curve",
                    "log_bound_curve"):
            assert getattr(iid, key) == getattr(unit, key)

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

    def test_log_bound_past_underflow(self):
        # the report's bound is its own model's, at n = 8: it underflows to 0
        # there, and the log bound keeps its value
        report = run_tail_experiment(self.SPEC, 8, trials=100, x_grid=[3.5e6], seed=1)
        assert report.bound_curve == [(3.5e6, 0.0)]
        (x, log_bound), = report.log_bound_curve
        want, _ = bounds.log_tail_bound_certified(3.5e6, bernstein_inputs_for(self.SPEC, 8))
        assert x == 3.5e6 and log_bound == pytest.approx(want, rel=1e-12)
        assert log_bound == pytest.approx(-7928.07, abs=0.01)

    def test_log_bound_curve_matches_bound_curve(self):
        report = run_tail_experiment(self.SPEC, 8, trials=100,
                                     x_grid=[-1.0, 0.0, 0.5, 4.0], seed=2)
        assert [x for x, _ in report.log_bound_curve] == [-1.0, 0.0, 0.5, 4.0]
        assert report.log_bound_curve[0][1] == math.log(self.SPEC.d)
        for (_, b), (_, log_b) in zip(report.bound_curve, report.log_bound_curve):
            assert b == pytest.approx(min(self.SPEC.d, math.exp(log_b)), rel=1e-12)
        assert "log_bound_curve" in json.loads(report.to_json())

    def test_one_closed_form_call_per_report(self, monkeypatch):
        calls, capped = [], []
        log_bound = bounds.log_tail_bound_certified
        monkeypatch.setattr(bounds, "log_tail_bound_certified",
                            lambda x, inputs: calls.append(x) or log_bound(x, inputs))
        monkeypatch.setattr(bounds, "tail_bound_certified",
                            lambda *a: capped.append(a) or (0.0, 0.0))
        report = run_tail_experiment(self.SPEC, 8, trials=100,
                                     x_grid=[-1.0, 0.0, 0.5, 4.0, 9.0], seed=2)
        assert len(calls) == 1 and calls[0].tolist() == [0.5, 4.0, 9.0]
        assert capped == []
        assert [b for _, b in report.bound_curve[:2]] == [float(self.SPEC.d)] * 2

    def test_rejected_inputs_draw_nothing(self, monkeypatch):
        # the inputs are built before the Monte Carlo, so an n the bound
        # rejects fails before any trial is sampled
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo before the inputs")

        monkeypatch.setattr(models, "_partial_sum_eigs", forbidden)
        with pytest.raises(BoundDomainError, match="need n >= 2, got 1"):
            run_tail_experiment(self.SPEC, 1, trials=2_000_000, x_grid=[1.0], seed=1)

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
        assert MULTI_CHUNK_TRIALS > 2 * chunk_trials(self.SPEC, MULTI_CHUNK_N)
        kw = dict(n=MULTI_CHUNK_N, trials=MULTI_CHUNK_TRIALS, x_grid=[1.0], seed=6)
        a = run_tail_experiment(self.SPEC, workers=1, **kw).to_json()
        b = run_tail_experiment(self.SPEC, workers=2, **kw).to_json()
        assert a == b

    @pytest.mark.parametrize("kind, digest", [
        ("contraction",
         "04b3d38eb702db24851226337aad28956fc600150150a606d9fe0d86e1ab40f6"),
        ("iid_baseline",
         "7e6b530ee11520cc237fe6b1c77920b3c86888abdb251b70f8cf536ef6730a98"),
    ])
    def test_samples_pinned(self, kind, digest):
        # D = diag(1, -0.5) and tau = +-1 make every lambda_max an exact
        # multiple of 1/2, so these bytes hold on any platform
        tau = np.array([1.0, -1.0]) if kind == "contraction" else None
        spec = ModelSpec(kind=kind, d=2, chain=CHAIN, D=np.diag([1.0, -0.5]),
                         tau_map=tau)
        report = run_tail_experiment(spec, 32, trials=700, x_grid=[1.0], seed=6)
        samples = np.asarray(report.lambda_max_samples)
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_rejects_few_trials(self):
        with pytest.raises(ModelError):
            run_tail_experiment(self.SPEC, 8, trials=10, x_grid=[1.0], seed=0)

    def test_rejects_empty_path(self):
        with pytest.raises(ModelError):
            run_tail_experiment(self.SPEC, 0, trials=200, x_grid=[1.0], seed=0)

    @pytest.mark.parametrize("x_grid", [[], [1.0, math.nan], [math.inf]])
    def test_rejects_an_empty_or_non_finite_grid(self, x_grid):
        # the CLI's --x-grid parser rejects these before the library sees them
        with pytest.raises(ModelError, match="invalid x grid"):
            run_tail_experiment(self.SPEC, 8, trials=200, x_grid=x_grid, seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ModelError, match="workers"):
            run_tail_experiment(self.SPEC, 8, trials=200, x_grid=[1.0], seed=0,
                                workers=workers)

    def test_sampler_arguments_are_checked_once(self, monkeypatch):
        calls = []
        check = models._check_sampling
        monkeypatch.setattr(models, "_check_sampling",
                            lambda *args: calls.append(args) or check(*args))
        run_tail_experiment(self.SPEC, 8, trials=100, x_grid=[1.0], seed=0, workers=2)
        assert calls == [(self.SPEC, 8, 100, 2, 0)]

    @staticmethod
    def fake_pool(monkeypatch, cpus):
        """Replace the process pool by a stand-in that records its size and
        maps in this process, on a host with `cpus` CPUs: no worker process
        is started, whatever the requested count.  Returns the sizes."""
        import concurrent.futures
        import os

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return sizes

    def test_pool_is_capped_at_the_chunk_count(self, monkeypatch):
        sizes = self.fake_pool(monkeypatch, cpus=64)
        n = 4096
        chunks = -(-200 // chunk_trials(self.SPEC, n))
        assert chunks >= 3
        kw = dict(n=n, trials=200, x_grid=[1.0], seed=6)
        want = run_tail_experiment(self.SPEC, workers=1, **kw).to_json()
        assert sizes == []
        assert run_tail_experiment(self.SPEC, workers=5000, **kw).to_json() == want
        assert run_tail_experiment(self.SPEC, workers=2, **kw).to_json() == want
        assert sizes == [chunks, 2]
        # one chunk runs without a pool
        models._partial_sum_eigs(self.SPEC, n, chunk_trials(self.SPEC, n), 6, workers=8)
        assert len(sizes) == 2

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # at large n a chunk holds a few trials, so the chunk count alone
        # would allow one process per few trials
        spec, n = DRAW_SPECS["iid_baseline"], 1 << 18
        size = chunk_trials(spec, n)
        assert size <= 4
        for cpus, want in [(2, 2), (3, 3), (None, 1)]:
            sizes = self.fake_pool(monkeypatch, cpus)
            models._partial_sum_eigs(spec, n, 4 * size, 6, workers=64)
            assert sizes == ([want] if want > 1 else [])

    @pytest.mark.parametrize("kind", sorted(DRAW_SPECS))
    def test_no_result_depends_on_the_budget(self, kind, monkeypatch):
        spec, n = DRAW_SPECS[kind], 40
        kw = dict(n=n, trials=100, x_grid=[0.5, 2.0], seed=11)
        want = run_tail_experiment(spec, **kw).to_json()
        words = models._trial_words(spec, n)
        # one trial per chunk, then 7 trials per chunk (the last one short)
        for budget in (1, 7 * words):
            monkeypatch.setattr(models, "_CHUNK_WORDS", budget)
            assert chunk_trials(spec, n) == max(1, budget // words)
            assert run_tail_experiment(spec, **kw).to_json() == want


def eigs_per_trial(spec, n, seed, lo, hi):
    """The reference for models._chunk_eigs: one eigvalsh((S + S^T)/2) row
    per trial, whether or not its sum repeats."""
    c = draw(spec, n, seed, lo, hi)
    if spec.kind == "block_covariance":
        S = c.transpose(0, 2, 1) @ c - n * block_covariance_mean(spec)
    else:
        S = c.sum(axis=1)[:, None, None] * spec.D
    return np.linalg.eigvalsh((S + S.transpose(0, 2, 1)) / 2.0)


def rotated(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a seeded orthogonal Q, symmetrized."""
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigenvalues),) * 2))[0]
    D = (Q * eigenvalues) @ Q.T
    return (D + D.T) / 2.0


UNIFORM_130 = MarkovChain(np.full((130, 130), 1 / 130))
# (spec, n, trials): the benchmark's models_short and tail_n1024 shapes on
# rotated templates, then CI configs.  On the flip-1/4 chain with tau = +-1
# the sums lie on a lattice; tau = linspace(-1, 1, 130) makes almost every
# sum distinct, and tau = (0, -0) makes every sample -0.0
LAMBDA_SHAPES = {
    "iid-n64": (ModelSpec(kind="iid_baseline", d=2, chain=CHAIN, D=rotated([1.0, -0.5], 1)),
                64, 400),
    "contraction-n256": (contraction_spec((1.0, -1.0), rotated([1, 1 / 3, -1 / 3, -1], 2)),
                         256, 400),
    "blockcov-n64": (block_spec(CHAIN, 2, [1.0, -1.0]), 64, 400),
    "tail-n1024": (contraction_spec((-1.0, 1.0), rotated([1, 1 / 3, -1 / 3, -1], 3)), 1024, 200),
    "contraction-130-state": (ModelSpec(kind="contraction", d=2, chain=UNIFORM_130,
                                        D=np.diag([1.0, -0.5]),
                                        tau_map=np.linspace(-1.0, 1.0, 130)), 256, 400),
    "tau-signed-zero": (contraction_spec((0.0, -0.0), np.diag([1.0, -0.5])), 64, 400),
    "blockcov-3-state": (block_spec(MarkovChain(
        [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), 2, [1.0, -1.0, 0.5]), 512, 400),
}


class TestLambdaStage:
    SEED = 4294967296

    @staticmethod
    def distinct_sums(spec, n, seed, trials):
        """The distinct scalar sums of a sign model's chunk, told apart by their bytes."""
        return len({s.tobytes() for s in draw(spec, n, seed, 0, trials).sum(axis=1)})

    @staticmethod
    def eigvalsh_inputs(monkeypatch):
        """The stacks np.linalg.eigvalsh is given from here on, in call order."""
        stacks, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a) or eigvalsh(a))
        return stacks

    @pytest.mark.parametrize("name", sorted(LAMBDA_SHAPES))
    def test_bits_equal_one_decomposition_per_trial(self, name):
        spec, n, trials = LAMBDA_SHAPES[name]
        want = eigs_per_trial(spec, n, self.SEED, 0, trials)
        got = models._chunk_eigs((spec, n, self.SEED, 0, trials))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # sign bits too

    def test_signed_zero_tau_keeps_negative_zero_samples(self):
        spec, n, trials = LAMBDA_SHAPES["tau-signed-zero"]
        top = models._chunk_eigs((spec, n, self.SEED, 0, trials))[:, -1]
        assert np.all(top == 0.0) and np.all(np.signbit(top))

    @pytest.mark.parametrize("name", sorted(LAMBDA_SHAPES))
    def test_eigvalsh_gets_one_matrix_per_distinct_sum(self, name, monkeypatch):
        # the sign models decompose each distinct scalar sum once; the block
        # model one matrix per trial, as keying its S by bytes gained nothing
        spec, n, trials = LAMBDA_SHAPES[name]
        if spec.kind == "block_covariance":
            want = trials
        else:
            want = self.distinct_sums(spec, n, self.SEED, trials)
            if name == "contraction-130-state":  # tau on a fine grid: few sums repeat
                assert want > 0.95 * trials
            else:  # the lattice shapes repeat their sums
                assert want < trials / 3
        stacks = self.eigvalsh_inputs(monkeypatch)
        models._chunk_eigs((spec, n, self.SEED, 0, trials))
        assert [len(a) for a in stacks] == [want]

    # a template given with drift within SymMatrix's tolerance and with signed
    # zeros: (0, 1) drifts by 1e-13, (0, 2) is -0.0 against 0.0, (1, 2) is
    # -0.0 both ways
    DRIFTED = np.array([[1.0, 0.25 + 1e-13, -0.0], [0.25, 0.5, -0.0], [0.0, -0.0, -0.75]])

    @pytest.mark.parametrize("kind", ["contraction", "iid_baseline"])
    def test_template_is_bitwise_symmetric(self, kind):
        # the sign route hands c D to eigvalsh unsymmetrized, which rests on this
        extra = {"tau_map": np.array([1.0, -0.5])} if kind == "contraction" else {}
        D = ModelSpec(kind=kind, d=3, chain=CHAIN, D=self.DRIFTED, **extra).D
        bits = D.view(np.uint64)
        assert np.array_equal(bits, bits.T)
        assert D[0, 1] == (0.25 + 1e-13 + 0.25) / 2 and not np.signbit(D[0, 2])
        assert np.signbit(D[1, 2]) and np.signbit(D[2, 1])

    @pytest.mark.parametrize("name", sorted(n for n, (spec, *_) in LAMBDA_SHAPES.items()
                                            if spec.kind != "block_covariance") + ["drifted"])
    def test_sign_route_gets_bitwise_symmetric_stacks(self, name, monkeypatch):
        if name == "drifted":
            spec, n, trials = contraction_spec((1.0, -0.5), self.DRIFTED), 64, 400
        else:
            spec, n, trials = LAMBDA_SHAPES[name]
        stacks = self.eigvalsh_inputs(monkeypatch)
        got = models._chunk_eigs((spec, n, self.SEED, 0, trials))
        (S,) = stacks
        bits = S.view(np.uint64)
        assert np.array_equal(bits, bits.transpose(0, 2, 1))
        want = eigs_per_trial(spec, n, self.SEED, 0, trials)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSamplerMemory:
    """tracemalloc peaks of the sampler: numpy reports its buffers to it."""

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

    def test_chunk_peak_per_trial_step(self):
        # the sampler of 64-trial chunks peaked at 52 bytes per trial-step
        spec, n, trials = contraction_spec(), 1024, 200
        per_step = self.peak(models._chunk_eigs, (spec, n, 7, 0, trials)) / (trials * n)
        assert per_step < 40.0

    def test_words_and_uniforms_never_share_the_peak(self):
        # a contraction chunk reads 12 bytes of stream words per trial-step
        # and steps on 8 bytes of uniforms; with both alive at once the
        # chunk peaked at 21.2 bytes per trial-step, with the sign words kept
        # beside the uniforms while the chain stepped at 18.05, and with the
        # whole chunk's uniforms and float64 coefficients at 14.0.  Read and
        # gathered an eighth of the chunk at a time, it peaks at 6.3
        spec = ModelSpec(kind="contraction", d=4, chain=CHAIN,
                         D=np.diag([1.0, 1 / 3, -1 / 3, -1.0]), tau_map=np.array([1.0, -1.0]))
        n, trials = 1024, 200
        models._chunk_eigs((spec, n, 7, 0, trials))  # one-time allocations
        assert self.peak(models._chunk_eigs, (spec, n, 7, 0, trials)) / (trials * n) < 8.0

    def test_block_model_chunk_peak_per_trial_step(self):
        # the shipped block model, d = 2: 26 bytes per trial-step with the
        # whole chunk's centered rows in one float64 array, 12.9 gathered an
        # eighth at a time, and 12.67 with each block's ranks counted in place
        spec, n, trials = SHIPPED_BLOCK, 64, 400
        models._chunk_eigs((spec, n, 7, 0, trials))  # one-time allocations
        assert self.peak(models._chunk_eigs, (spec, n, 7, 0, trials)) / (trials * n) < 16.0

    def test_large_n_peak_is_bounded(self):
        # a chunk is sized by words, so its buffers do not grow with n; the
        # sampler of 64-trial chunks peaked at 81 MB here.  The iid model
        # has no step loop, which tracemalloc would slow tenfold.
        spec, n, trials = DRAW_SPECS["iid_baseline"], 1 << 16, 64
        assert trials > 2 * chunk_trials(spec, n)
        assert self.peak(models._partial_sum_eigs, spec, n, trials, 3) < 32 << 20

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_memory_is_the_intp_range_where_the_os_does_not_say(self, error, monkeypatch):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(models.os, "sysconf", sysconf)
        assert models._memory_bytes() == np.iinfo(np.intp).max

    @pytest.mark.parametrize("case", ["wide", "one-step"])
    def test_peak_per_budget_word_is_bounded(self, case, monkeypatch):
        # a chunk's partial sums grow with d^2 and its seed rows with the
        # trial count, not with n: the budget counts both.  Counting stream
        # words alone peaked at 18.9 MB (wide) and 1.06 MB (one-step) here.
        if case == "wide":
            spec = ModelSpec(kind="contraction", d=64, chain=CHAIN,
                             D=np.eye(64) / 2, tau_map=np.array([1.0, 0.5]))
            n, trials = 16, 300
        else:
            spec, n, trials = DRAW_SPECS["iid_baseline"], 1, 4000
            monkeypatch.setattr(models, "_CHUNK_WORDS", 1 << 15)
        assert trials > 2 * chunk_trials(spec, n)
        peak = self.peak(models._partial_sum_eigs, spec, n, trials, 3)
        assert peak < 16 * models._CHUNK_WORDS


def visit_law(chain, n):
    """P(N_1 = k), k = 0..n, where N_1 counts the visits to state 1 of n steps
    of a stationary two-state chain: a forward recursion over (state, N_1)."""
    P, f = chain.P, np.zeros((2, n + 1))
    f[0, 0], f[1, 1] = chain.pi
    for _ in range(n - 1):
        to0, to1 = f[0] * P[0, 0] + f[1] * P[1, 0], f[0] * P[0, 1] + f[1] * P[1, 1]
        f[0], f[1, 0], f[1, 1:] = to0, 0.0, to1[:-1]
    return f.sum(axis=0)


class TestSamplerLaw:
    """The sampled lambda_max against its exact law.  On the block model with
    d = 1, P = [[.95, .05], [.1, .9]] and values (1, 0), pi = (2/3, 1/3), the
    centered values are 1/3 and -2/3 and E(C^2) = 2/9, so lambda_max is
    exactly (N_1 - n/3)/3, with N_1 the visits to state 1."""

    N, TRIALS = 256, 10_000
    # the DKW band with Massart's constant (Ann. Probab. 18, 1990): the
    # Kolmogorov distance of TRIALS draws passes it with probability <= 1e-6
    BAND = math.sqrt(math.log(2 / 1e-6) / (2 * TRIALS))

    def distance(self):
        spec = block_spec(MarkovChain([[0.95, 0.05], [0.1, 0.9]]), 1, [1.0, 0.0])
        lam = np.array(run_tail_experiment(spec, self.N, self.TRIALS, [0.0], seed=1)
                       .lambda_max_samples)
        visits = np.rint(3 * lam + self.N / 3).astype(np.intp)
        assert np.allclose(lam, (visits - self.N / 3) / 3, rtol=0, atol=1e-9)
        # both CDFs step only at the atoms 0..N, so their values there give the
        # distance on both sides of every atom
        ecdf = np.cumsum(np.bincount(visits, minlength=self.N + 1)) / self.TRIALS
        return float(np.abs(ecdf - np.cumsum(visit_law(spec.chain, self.N))).max())

    def test_sampled_lambda_max_has_its_exact_law(self):
        assert self.distance() < self.BAND  # 0.0068 against a band of 0.027

    def test_a_chain_blind_sampler_fails(self, monkeypatch):
        # each state drawn from pi alone: the right marginal without the
        # chain's dependence moves the distance to 0.284
        def from_pi(chain, u, shape):
            cuts = np.cumsum(chain.pi)[:-1]
            return np.concatenate([(rows[..., None] >= cuts).sum(axis=-1, dtype=np.uint8)
                                   for rows in u])

        monkeypatch.setattr(MarkovChain, "sample_paths", from_pi)
        assert self.distance() > self.BAND


class TestDominanceCase:
    def test_shipped_configs_build_no_inputs(self, monkeypatch):
        # each report builds its own model's inputs, so the configs need none
        def forbidden(*args):
            raise AssertionError("inputs built outside the report")

        monkeypatch.setattr(models, "bernstein_inputs_for", forbidden)
        configs = checks.shipped_model_configs()
        assert [cfg["name"] for cfg in configs] == ["iid", "contraction", "blockcov"]
        assert all("inputs" not in cfg for cfg in configs)

    @pytest.mark.parametrize("d, compared", [(1, 0), (2, 1)])
    def test_expectation_is_compared_from_d_2(self, monkeypatch, d, compared):
        # at d = 1 the ceiling is E S_n = 0 exactly, so the mean is compared
        # with nothing, not even with a ceiling below every sample
        monkeypatch.setattr(bounds, "expectation_bound", lambda inputs: -1e9)
        spec = ModelSpec(kind="iid_baseline", d=d, chain=CHAIN, D=np.eye(d))
        config = {"name": "m", "spec": spec, "n": 32, "x_grid": [-1.0]}
        checked, failures = checks.run(checks.dominance, configs=[config], trials=300, seed=8)
        assert checked == {"tail_dominance.m": 0, "expectation_dominance.m": compared}
        assert [f["invariant"] for f in failures] == ["expectation_dominance.m"] * compared
