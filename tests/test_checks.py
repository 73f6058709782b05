"""Each `verify` invariant here has a mutant that must fail it: one kernel
monkeypatched into a known-wrong form, and the suite run as `verify` runs it.
An invariant that passes its mutant could not have caught that fault."""

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
