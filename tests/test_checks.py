"""Each `verify` invariant here has a mutant that must fail it: one kernel
monkeypatched into a known-wrong form, and the suite run as `verify` runs it.
An invariant that passes its mutant could not have caught that fault."""

import dataclasses

import numpy as np
import pytest

from depbernstein import bounds, cantor, checks, mixing, spectral


def failed(suite, invariant):
    """How many comparisons of `invariant` the suite reports failing."""
    _, failures = checks.run(suite)
    return sum(f["invariant"] == invariant for f in failures)


def test_golden_thompson_catches_a_right_side_too_small(monkeypatch):
    # Tr(e^A e^B) scaled by 1 - 1e-3: 17 of the 1000 pairs then fail, and at
    # 1 - 1e-5 one still does
    trace_product = spectral.trace_product
    monkeypatch.setattr(spectral, "trace_product",
                        lambda a, b: trace_product(a, b) * (1.0 - 1e-3))
    assert failed(checks.inequalities, "golden_thompson") > 0


def test_disjoint_cover_catches_a_run_one_later(monkeypatch):
    # the last run of each blocking starts one index late: a gap and an overlap
    run_starts = cantor._run_starts

    def late(n):
        starts = run_starts(n)
        starts[-1] += 1
        return starts

    monkeypatch.setattr(cantor, "_run_starts", late)
    assert failed(checks.cantor, "disjoint_cover") == 4999


def test_gap_floor_catches_gaps_one_short(monkeypatch):
    # every gap d_j one index shorter: the deepest levels fall below the floor
    array_params = cantor._array_params

    def short(sizes):
        A, delta, ell, n, d = array_params(sizes)
        return A, delta, ell, n, d - 1

    monkeypatch.setattr(cantor, "_array_params", short)
    assert failed(checks.cantor, "gap_floor") > 0


def test_coupling_independence_catches_a_coupling_with_ystar_y(monkeypatch):
    # 1e-6 of the mass moved to the coupling Ystar = Y, under which Ystar
    # depends on X; even 1e-13 of it fails one law
    coupling_law = mixing.coupling_law

    def leaky(joint):
        same = joint.pmf[..., None] * np.eye(joint.pmf.shape[-1])
        return (1.0 - 1e-6) * coupling_law(joint) + 1e-6 * same

    monkeypatch.setattr(mixing, "coupling_law", leaky)
    assert failed(checks.coupling, "coupling_independence") > 0


@pytest.mark.parametrize("shift", [1e-6, 1e-8])
def test_split_identity_catches_a_split_weight_off_by_a_ratio(monkeypatch, shift):
    # the split weight u_t scaled by 1 + shift: at the optimal u the sum moves
    # only to second order, and 1e-8 still fails 12 of the 1000 draws
    split_weight = bounds.split_weight
    monkeypatch.setattr(bounds, "split_weight",
                        lambda p0, p1, t: split_weight(p0, p1, t) * (1.0 + shift))
    assert failed(lambda: checks.split_identity(7), "split_identity") > 0


def test_trace_holder_catches_a_right_side_too_small(monkeypatch):
    # every Schatten norm scaled by 1 - 1e-1: 108 of the 4000 comparisons
    # fail, and at 1 - 1e-2 five still do
    schatten_norm = spectral.schatten_norm
    monkeypatch.setattr(spectral, "schatten_norm",
                        lambda a, p: schatten_norm(a, p) * (1.0 - 1e-1))
    assert failed(checks.inequalities, "trace_holder") > 0


def test_weyl_catches_a_sum_too_large(monkeypatch):
    # A + B scaled by 1 + 1e-2: 14 of the 1000 pairs fail, and at 1 + 1e-3 three still do
    add = spectral.SymMatrix.__add__
    monkeypatch.setattr(spectral.SymMatrix, "__add__",
                        lambda a, b: spectral.SymMatrix(add(a, b).entries * (1.0 + 1e-2)))
    assert failed(checks.inequalities, "weyl") > 0


def test_gerschgorin_catches_a_bound_too_small(monkeypatch):
    # the row-sum bound scaled by 1 - 1e-1: 70 of the 1000 pairs fail, and at 1 - 1e-2 four do
    gerschgorin_bound = spectral.gerschgorin_bound
    monkeypatch.setattr(spectral, "gerschgorin_bound",
                        lambda a: gerschgorin_bound(a) * (1.0 - 1e-1))
    assert failed(checks.inequalities, "gerschgorin") > 0


def test_trace_exp_convexity_catches_a_concave_term(monkeypatch):
    # Tr exp(tA) - t^2: 71 of the 1000 second differences fall below 0; with
    # 0.1 t^2 none does, as every Tr(A^2 e^{tA}) of the draws exceeds 0.2
    trace_exp = spectral.trace_exp
    monkeypatch.setattr(spectral, "trace_exp", lambda t, a: trace_exp(t, a) - np.square(t))
    assert failed(checks.inequalities, "trace_exp_convexity") > 0


def test_kept_cardinality_catches_a_leaf_one_longer(monkeypatch):
    # each leaf one index longer: |K_A| = A + 1 for the 42 A <= 43 that keep
    # all of {1..A}; ten longer fails 704 A, and ten shorter 21
    array_params = cantor._array_params

    def longer(sizes):
        A, delta, ell, n, d = array_params(sizes)
        n = n.copy()
        n[np.arange(A.size), ell] += 1
        return A, delta, ell, n, d

    monkeypatch.setattr(cantor, "_array_params", longer)
    assert failed(checks.cantor, "kept_cardinality") == 42


def test_kept_card_formula_catches_a_second_leaf_one_later(monkeypatch):
    # the second leaf starts one index late: every A with two leaves or more
    # (A >= 44) counts one index fewer from its runs than 2^ell n_ell
    run_starts = cantor._run_starts

    def late(n):
        starts = run_starts(n)
        if len(starts) > 2:
            starts[2] += 1
        return starts

    monkeypatch.setattr(cantor, "_run_starts", late)
    assert failed(checks.cantor, "kept_card_formula") == 4957


def test_level_ceiling_catches_two_levels_too_many(monkeypatch):
    # ell two too large, the extra levels empty: level ell - 1 has a floor
    # f_(ell-2) below 2, so it does not exist, for every A
    array_params = cantor._array_params

    def deeper(sizes):
        A, delta, ell, n, d = array_params(sizes)
        return A, delta, ell + 2, np.pad(n, ((0, 0), (0, 2))), np.pad(d, ((0, 0), (0, 2)))

    monkeypatch.setattr(cantor, "_array_params", deeper)
    assert failed(checks.cantor, "level_ceiling") == 4999


@pytest.mark.parametrize("shift, count", [(1, 4999), (-1, 4957)])
def test_level_ceiling_catches_one_level_off(monkeypatch, shift, count):
    # ell one too large, the extra level empty: its floor f_(ell-1) is below 2
    # for every A, where a ceiling A >= 2^ell passed them all.  One too small
    # where ell >= 1: level ell + 1 would still exist (f_ell >= 2) for each of
    # the 4,957 A >= 44
    array_params = cantor._array_params

    def shifted(sizes):
        A, delta, ell, n, d = array_params(sizes)
        pad = ((0, 0), (0, 1))
        return A, delta, np.maximum(ell + shift, 0), np.pad(n, pad), np.pad(d, pad)

    monkeypatch.setattr(cantor, "_array_params", shifted)
    assert failed(checks.cantor, "level_ceiling") == count


def test_coupling_xy_law_catches_a_coupling_with_y_ystar(monkeypatch):
    # 1e-6 of the mass moved to Y = Ystar, which keeps the (X, Ystar) law;
    # even 1e-13 of it fails one law
    coupling_law = mixing.coupling_law

    def leaky(joint):
        law = coupling_law(joint)
        same = law.sum(axis=-2)[..., None, :] * np.eye(law.shape[-1])
        return (1.0 - 1e-6) * law + 1e-6 * same

    monkeypatch.setattr(mixing, "coupling_law", leaky)
    assert failed(checks.coupling, "coupling_xy_law") > 0


def test_coupling_mismatch_beta_catches_a_beta_too_large(monkeypatch):
    # beta scaled by 1 + 1e-6: 375 of the 400 laws fail, and at 1 + 1e-13 348 do
    beta_from_joint = mixing.beta_from_joint
    monkeypatch.setattr(mixing, "beta_from_joint",
                        lambda joint: beta_from_joint(joint) * (1.0 + 1e-6))
    assert failed(checks.coupling, "coupling_mismatch_beta") > 0


def test_schedule_ceiling_catches_a_schedule_two_levels_deeper(monkeypatch):
    # two levels past the decomposition's depth: at n = 4 the last level has
    # n / 2^i = 1, outside h's domain, so its 27 points fail; one level deeper
    # passes every n
    depth = bounds.decomposition_depth
    monkeypatch.setattr(bounds, "decomposition_depth", lambda n: depth(n) + 2)
    assert failed(checks.bounds, "schedule_ceiling") == 27


def test_tail_dominance_catches_a_bound_two_nats_too_small(monkeypatch):
    # log_tail_bound_certified lowered by 2 nats: 24 grid points fall below 1
    # and are compared, and the iid model's at x = 3.2 and the block model's
    # at x = 6.4 lie under p_hat.  Lowered by 1 nat, 16 are compared and none fails
    log_tail_bound = bounds.log_tail_bound_certified

    def lowered(x, inputs):
        log_bound, t_star = log_tail_bound(x, inputs)
        return log_bound - 2.0, t_star

    monkeypatch.setattr(bounds, "log_tail_bound_certified", lowered)
    checked, failures = checks.run(checks.dominance)
    assert sum(v for k, v in checked.items() if k.startswith("tail_dominance.")) == 24
    assert [(f["invariant"], f["x"]) for f in failures] == [
        ("tail_dominance.iid", 3.2), ("tail_dominance.blockcov", 6.4)]


def test_expectation_dominance_catches_a_bound_cut_1000_times(monkeypatch):
    # the expectation ceiling scaled by 0.001: every model's mean exceeds it by
    # more than 3 stderr.  Scaled by 0.01 none does
    expectation_bound = bounds.expectation_bound
    monkeypatch.setattr(bounds, "expectation_bound",
                        lambda inputs: expectation_bound(inputs) * 0.001)
    _, failures = checks.run(checks.dominance)
    assert sorted(f["invariant"] for f in failures) == [
        f"expectation_dominance.{name}" for name in ("blockcov", "contraction", "iid")]


@pytest.mark.parametrize("field, count", [("sigma", 32), ("kappa", 27)])
def test_ceilings_catch_a_schedule_doubled(monkeypatch, field, count):
    # each sigma_i, or each kappa_i, doubled: 32 and 27 of the 108 points
    # exceed the ceiling.  Scaled by 1.1 none does: the sums are 0.29 to 0.81
    # (sigma) and 0.23 to 0.58 (kappa) of their ceilings
    schedule = bounds.sigma_kappa_schedule
    monkeypatch.setattr(bounds, "sigma_kappa_schedule", lambda inputs: [
        dataclasses.replace(p, **{field: 2.0 * getattr(p, field)}) for p in schedule(inputs)])
    assert failed(checks.bounds, f"{field}_ceiling") == count
