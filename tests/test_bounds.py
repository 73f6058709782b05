import itertools
import math

import numpy as np
import pytest

from depbernstein import bounds, checks
from depbernstein.bounds import (
    BernsteinInputs,
    BoundDomainError,
    SigmaKappaPair,
    combine_sigma_kappa,
    decomposition_depth,
    expectation_bound,
    g,
    gamma_cn,
    gamma_majorant,
    h,
    log_tail_bound_certified,
    master_log_laplace,
    prop1_log_laplace,
    schedule_ceiling,
    sigma_kappa_schedule,
    split_weight,
    tail_bound_certified,
    tropp_log_laplace,
)

LOG2 = math.log(2.0)


class TestG:
    def test_limit_at_zero(self):
        assert g(1e-9) == pytest.approx(0.5, abs=1e-6)

    def test_g4(self):
        val = g(4.0)
        assert 3.099 <= val <= 3.100
        assert val <= 3.1

    def test_g1(self):
        assert g(1.0) == pytest.approx(math.e - 2.0, rel=1e-12)

    def test_series_matches_direct(self):
        # continuity across the series/direct switch at 1e-4
        assert g(1e-4) == pytest.approx(g(1.0001e-4), rel=1e-6)

    def test_increasing(self):
        xs = np.arange(1e-3, 20.0, 1e-3)
        vals = np.array([g(x) for x in xs])
        assert np.all(np.diff(vals) > 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(BoundDomainError):
            g(0.0)


class TestTroppLogLaplace:
    def test_t_small_gives_log_d(self):
        assert tropp_log_laplace(1e-12, 1.0, 1.0, 3) == pytest.approx(math.log(3), abs=1e-9)

    def test_g4_anchor(self):
        assert tropp_log_laplace(1.0, 4.0, 1.0, 1) == pytest.approx(g(4.0))

    def test_dominates_rademacher_mgf(self):
        # independent oracle: exact MGF of 10 iid fair signs by enumeration
        n, t, B = 10, 0.5, 1.0
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            total += math.exp(t * sum(signs))
        exact = math.log(total / 2 ** n)
        assert tropp_log_laplace(t, B, float(n), 1) >= exact


class TestCombiner:
    def test_singleton(self):
        c = combine_sigma_kappa([SigmaKappaPair(1.0, 0.5)])
        assert (c.sigma, c.kappa) == (1.0, 0.5)

    def test_sums(self):
        c = combine_sigma_kappa([SigmaKappaPair(1, 1), SigmaKappaPair(2, 3)])
        assert (c.sigma, c.kappa) == (3.0, 4.0)

    def test_rejects_no_pairs(self):
        with pytest.raises(BoundDomainError, match="at least one pair"):
            combine_sigma_kappa([])

    def test_split_identity_spot(self):
        p0, p1 = SigmaKappaPair(1.0, 1.0), SigmaKappaPair(2.0, 0.5)
        t = 0.3
        u = split_weight(p0, p1, t)
        lhs = u * gamma_majorant(p0, t / u) + (1 - u) * gamma_majorant(p1, t / (1 - u))
        comb = combine_sigma_kappa([p0, p1])
        assert lhs == pytest.approx(gamma_majorant(comb, t), abs=1e-12)

    def test_split_identity_fuzz(self):
        checked, failures = checks.run(checks.split_identity, seed=42)
        assert checked == {"split_identity": 1000} and failures == []


class TestGammaCn:
    def test_balanced_point(self):
        c = 32.0 / LOG2
        assert gamma_cn(c, 2) == pytest.approx(2.0)

    def test_fast_mixing_limit(self):
        assert gamma_cn(1e12, 2) == pytest.approx(2.0)

    def test_direct_evaluation(self):
        n, c = 403, 1.0
        expected = (math.log(n) / LOG2) * max(2.0, 32.0 * math.log(n) / (c * LOG2))
        assert gamma_cn(c, n) == pytest.approx(expected)
        assert expected == pytest.approx(2399, rel=2e-3)


class TestH:
    def test_saturates_at_half(self):
        assert h(1e9, 10.0) == 0.5
        assert h(32.0, 4.0) == 0.5

    def test_small_rate(self):
        c, x = 1.0, math.exp(32.0)
        assert h(c, x) == pytest.approx(LOG2 / (32.0 * 32.0))

    def test_rejects_x_below_one(self):
        with pytest.raises(BoundDomainError):
            h(1.0, 1.0)


class TestProp1:
    def test_t_small_gives_log_d(self):
        inp = BernsteinInputs(n=4, d=3, M=1.0, v=1.0, c=100.0)
        assert prop1_log_laplace(1e-12, 4, inp) == pytest.approx(math.log(3), abs=1e-9)

    def test_zero_variance_case(self):
        inp = BernsteinInputs(n=4, d=2, M=1.0, v=0.0, c=32.0)
        got = prop1_log_laplace(0.1, 4, inp)
        expected = math.log(2) + (9 * 0.01 / 32.0) * math.exp(-3 * 32.0 / 3.2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_direct_evaluation(self):
        inp = BernsteinInputs(n=100, d=1, M=1.0, v=1.0, c=10.0, )
        got = prop1_log_laplace(0.01, 100, inp)
        expected = 12.4 * 1e-4 * 100 + (9e-4 / 10.0) * math.exp(-3 * 10.0 / 0.32)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.124, abs=1e-3)

    def test_domain_violation(self):
        inp = BernsteinInputs(n=4, d=1, M=1.0, v=1.0, c=0.1)
        with pytest.raises(BoundDomainError, match="32 log A"):
            prop1_log_laplace(0.4, 100, inp)

    @pytest.mark.parametrize("c, A", [(0.1, 100), (50.0, 3), (1.3, 10 ** 6)])
    def test_cap_is_h(self, c, A):
        # t M = h(c, A) is inside the domain, the next float above it is not
        inp = BernsteinInputs(n=4, d=1, M=1.0, v=1.0, c=c)
        cap = bounds.h(c, A)
        prop1_log_laplace(cap, A, inp)
        with pytest.raises(BoundDomainError, match="32 log A"):
            prop1_log_laplace(math.nextafter(cap, 1.0), A, inp)


class TestSchedule:
    def test_n2_terminal_only(self):
        pairs = sigma_kappa_schedule(BernsteinInputs(n=2, d=1, M=1.0, v=1.0, c=1.0))
        assert len(pairs) == 1
        assert pairs[0].sigma == pytest.approx(math.sqrt(2.0))
        assert pairs[0].kappa == 1.0

    def test_ceilings_spot(self):
        pairs = sigma_kappa_schedule(BernsteinInputs(n=100, d=2, M=1.0, v=1.0, c=10.0))
        total = combine_sigma_kappa(pairs)
        assert total.sigma <= 15 * 10.0 + 2 / math.sqrt(10.0)
        assert total.kappa <= gamma_cn(10.0, 100)

    def test_ceilings_grid(self):
        for n in (4, 16, 256, 4096):
            for c in (0.5, 2.0, 10.0):
                total = combine_sigma_kappa(
                    sigma_kappa_schedule(BernsteinInputs(n=n, d=1, M=1.0, v=1.0, c=c)))
                assert total.kappa <= 1.0 * gamma_cn(c, n)

    def test_huge_n_depth_plus_one_pairs(self):
        pairs = sigma_kappa_schedule(BernsteinInputs(n=10 ** 8, d=2, M=1.0, v=1.0, c=2.0))
        assert len(pairs) == decomposition_depth(10 ** 8) + 1

    GRID = [dict(n=n, c=c, v=v, M=M) for n, c, v, M in itertools.product(
        (4, 16, 256, 4096), (0.5, 2.0, 10.0), (0.1, 1.0, 10.0), (0.1, 1.0, 10.0))]

    @staticmethod
    def totals(point):
        return combine_sigma_kappa(sigma_kappa_schedule(BernsteinInputs(d=2, **point)))

    def test_kappa_ceiling_violation_is_reported(self, monkeypatch):
        # the schedule is built, and verify bounds names the ceiling it breaks
        monkeypatch.setattr(bounds, "gamma_cn", lambda c, n: 1e-3)
        checked, failures = checks.run(checks.schedule_ceilings)
        assert checked == {"schedule_ceiling": 108, "sigma_ceiling": 108, "kappa_ceiling": 108}
        assert [f.pop("invariant") for f in failures] == ["kappa_ceiling"] * 108
        # one case per n, its 27 points (c, v, M) in grid order
        assert [f.pop("case") for f in failures] == [0] * 27 + [1] * 27 + [2] * 27 + [3] * 27
        assert failures == [{"kappa": self.totals(p).kappa, **p} for p in self.GRID]

    def test_sigma_ceiling_violation_is_reported(self, monkeypatch):
        real = bounds.schedule_ceiling
        monkeypatch.setattr(bounds, "schedule_ceiling", lambda inputs: SigmaKappaPair(
            sigma=real(inputs).sigma / 2.0, kappa=real(inputs).kappa))
        checked, failures = checks.run(checks.schedule_ceilings)
        assert checked == {"schedule_ceiling": 108, "sigma_ceiling": 108, "kappa_ceiling": 108}
        want = [{"sigma": sigma, **p} for p in self.GRID
                if (sigma := self.totals(p).sigma) > real(BernsteinInputs(d=2, **p)).sigma / 2.0]
        assert len(want) == 32
        assert {f.pop("invariant") for f in failures} == {"sigma_ceiling"}
        assert [{k: v for k, v in f.items() if k != "case"} for f in failures] == want


    @pytest.mark.parametrize("n, grid", [(n, True) for n in (4, 16, 256, 4096)]
                             + [(2 ** e, False) for e in range(10, 21)])
    def test_array_schedule_is_the_scalar_one_bit_for_bit(self, n, grid):
        # the grid's 27 points (c, v, M) of this n, or 40 seeded ones
        if grid:
            points = [(p["c"], p["v"], p["M"]) for p in self.GRID if p["n"] == n]
        else:
            rng = np.random.default_rng(n)
            points = rng.uniform([0.01, 0.0, 0.01], [20.0, 10.0, 10.0], (40, 3)).tolist()
        c, v, M = np.array(points).T
        got = sigma_kappa_schedule(BernsteinInputs(n=n, d=2, M=M, v=v, c=c))
        want = [sigma_kappa_schedule(BernsteinInputs(n=n, d=2, M=Mi, v=vi, c=ci))
                for ci, vi, Mi in points]
        assert all(isinstance(x, float) for pairs in want for q in pairs
                   for x in (q.sigma, q.kappa))
        assert len(got) == len(want[0]) == decomposition_depth(n) + 1
        got_bits = np.array([[q.sigma, q.kappa] for q in got]).view(np.uint64)
        want_bits = np.array([[[q.sigma, q.kappa] for q in pairs] for pairs in want])
        assert np.array_equal(got_bits, want_bits.transpose(1, 2, 0).view(np.uint64))

    def test_domain_error_fails_every_point_of_its_case(self, monkeypatch):
        real = bounds.sigma_kappa_schedule

        def schedule(inputs):
            if inputs.n == 16:
                raise BoundDomainError("no schedule at n = 16")
            return real(inputs)

        monkeypatch.setattr(bounds, "sigma_kappa_schedule", schedule)
        checked, failures = checks.run(checks.schedule_ceilings)
        assert checked == {"schedule_ceiling": 108, "sigma_ceiling": 81, "kappa_ceiling": 81}
        assert failures == [{"invariant": "schedule_ceiling", "case": 1, **p}
                            for p in self.GRID if p["n"] == 16]


class TestNaNIsRejected:
    """Each domain check is the negation of what must hold, so a NaN fails it."""

    PAIR = SigmaKappaPair(1.0, 0.5)
    FIELDS = dict(n=4, d=2, M=1.0, v=1.0, c=1.0)

    @pytest.mark.parametrize("field, need", [("n", "n >= 2"), ("d", "d >= 1")])
    def test_bernstein_inputs(self, field, need):
        with pytest.raises(BoundDomainError, match=f"need {need}, got nan$"):
            BernsteinInputs(**dict(self.FIELDS, **{field: math.nan}))
        with pytest.raises(BoundDomainError, match=f"need {need}, got nan at row 1$"):
            BernsteinInputs(**dict(self.FIELDS, **{field: np.array([4.0, math.nan])}))

    def test_tail_bound_never_sees_a_nan_n(self):
        with pytest.raises(BoundDomainError):
            tail_bound_certified(10.0, BernsteinInputs(**dict(self.FIELDS, n=math.nan)))

    @pytest.mark.parametrize("c, n", [(math.nan, 10), (1.0, math.nan)])
    def test_gamma_cn(self, c, n):
        with pytest.raises(BoundDomainError, match="got nan"):
            gamma_cn(c, n)

    def test_gamma_majorant(self):
        with pytest.raises(BoundDomainError, match="need t >= 0, got nan"):
            gamma_majorant(self.PAIR, math.nan)

    @pytest.mark.parametrize("c, x", [(math.nan, 10.0), (1.0, math.nan)])
    def test_h(self, c, x):
        with pytest.raises(BoundDomainError):
            h(c, x)

    def test_h_broadcasts_over_c(self):
        c = np.array([0.5, 1e9, 3.0])
        assert h(c, 100.0).tolist() == [h(ci, 100.0) for ci in c.tolist()]
        with pytest.raises(BoundDomainError, match="need c > 0, got nan at row 1"):
            h(np.array([1.0, math.nan]), 100.0)

    @pytest.mark.parametrize("call", [
        lambda: g(math.nan),
        lambda: tropp_log_laplace(math.nan, 1.0, 1.0, 2),
        lambda: tropp_log_laplace(0.1, math.nan, 1.0, 2),
        lambda: tropp_log_laplace(0.1, 1.0, math.nan, 2),
        lambda: prop1_log_laplace(math.nan, 100, BernsteinInputs(n=4, d=2, M=1.0, v=1.0, c=1.0)),
        lambda: prop1_log_laplace(0.01, math.nan, BernsteinInputs(n=4, d=2, M=1.0, v=1.0, c=1.0)),
    ], ids=["g", "tropp_t", "tropp_B", "tropp_variance", "prop1_t", "prop1_A"])
    def test_scalar_closed_forms(self, call):
        with pytest.raises(BoundDomainError):
            call()


class TestMaster:
    def test_t_zero(self):
        inp = BernsteinInputs(n=4, d=5, M=1.0, v=1.0, c=1.0)
        assert master_log_laplace(0.0, inp) == pytest.approx(math.log(5))

    def test_direct_evaluation(self):
        inp = BernsteinInputs(n=4, d=1, M=1.0, v=1.0, c=100.0)
        assert gamma_cn(100.0, 4) == pytest.approx(4.0)
        got = master_log_laplace(0.05, inp)
        expected = 0.0025 * 4 * (15 + 2.0 / 20.0) ** 2 / 0.8
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.8501, abs=1e-4)

    def test_domain_edge(self):
        inp = BernsteinInputs(n=4, d=1, M=1.0, v=1.0, c=100.0)
        with pytest.raises(BoundDomainError):
            master_log_laplace(0.25, inp)


class TestTailBound:
    INP = BernsteinInputs(n=4, d=1, M=1.0, v=1.0, c=100.0)

    def test_small_x_gives_d(self):
        bound, _ = tail_bound_certified(1e-9, self.INP)
        assert bound == pytest.approx(float(self.INP.d), rel=1e-12)
        assert bound <= self.INP.d

    def test_monotone_in_x(self):
        xs = np.linspace(0.5, 200.0, 50)
        vals = [tail_bound_certified(x, self.INP)[0] for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("inp, x", [
        (INP, 40.0),
        (BernsteinInputs(n=2 ** 20, d=8, M=1.0, v=0.5, c=2.0), 60_000.0),
        (INP, 200.0),
    ], ids=["n4_x40", "d8_n2e20", "n4_near_decay"])
    def test_matches_dense_grid(self, inp, x):
        # independent oracle: dense grid minimization of the same objective
        t_max = 1.0 / (inp.M * gamma_cn(inp.c, inp.n))
        ts = np.linspace(1e-9, t_max * (1 - 1e-9), 200_001)
        phis = -ts * x + master_log_laplace(ts, inp)
        grid_best = math.exp(phis.min())
        bound, _ = tail_bound_certified(x, inp)
        assert bound == pytest.approx(grid_best, abs=1e-8)

    def test_interior_optimum_is_local_min(self):
        x = 40.0
        bound, t_star = tail_bound_certified(x, self.INP)
        assert t_star > 0
        eps = 1e-6 / (self.INP.M * gamma_cn(self.INP.c, self.INP.n))
        phi = lambda t: -t * x + master_log_laplace(t, self.INP)
        assert phi(t_star - eps) >= phi(t_star) - 1e-12
        assert phi(t_star + eps) >= phi(t_star) - 1e-12

    def test_decays_to_zero(self):
        inp = self.INP
        x = 1e3 * (inp.v * math.sqrt(inp.n) + inp.M)
        bound, _ = tail_bound_certified(x, inp)
        assert bound < 1e-10

    def test_never_exceeds_d(self):
        for x in np.linspace(0.01, 50.0, 40):
            assert tail_bound_certified(x, self.INP)[0] <= self.INP.d

    def test_log_bound_past_underflow(self):
        inp = BernsteinInputs(n=1024, d=4, M=1.0, v=0.5, c=0.69)
        log_bound, t_star = log_tail_bound_certified(3.5e6, inp)
        assert log_bound == pytest.approx(-750.43, abs=0.01)
        assert tail_bound_certified(3.5e6, inp) == (0.0, t_star)


class TestClosedForms:
    def test_expectation_d1_is_zero(self):
        assert expectation_bound(BernsteinInputs(n=10, d=1, M=1.0, v=1.0, c=1.0)) == 0.0

    def test_expectation_direct(self):
        inp = BernsteinInputs(n=100, d=2, M=1.0, v=1.0, c=100.0)
        ld = math.log(2.0)
        expected = (30 * math.sqrt(100 * ld) + 4 * math.sqrt(ld) / 10.0
                    + gamma_cn(100.0, 100) * ld)
        assert expectation_bound(inp) == pytest.approx(expected, rel=1e-12)

    def test_expectation_v_scaling(self):
        base = BernsteinInputs(n=64, d=3, M=1.0, v=1.0, c=5.0)
        double = BernsteinInputs(n=64, d=3, M=1.0, v=2.0, c=5.0)
        diff = expectation_bound(double) - expectation_bound(base)
        assert diff == pytest.approx(30 * math.sqrt(64 * math.log(3)), rel=1e-12)


class TestArrays:
    """The array path of every closed form equals the scalar calls, row by
    row, exactly: one code path serves both."""

    ROWS = [(2 ** 4, 1, 1.0, 1.0, 100.0, 40.0, 0.01), (2 ** 10, 4, 1.0, 0.5, 0.69, 3.5e6, 1e-6),
            (2 ** 20, 8, 0.3, 2.0, 0.05, 6e4, 1e-9), (2 ** 40, 64, 9.5, 0.07, 18.0, 1e12, 1e-15),
            (2 ** 33, 1, 0.1, 4.9, 3.0, 2e5, 1e-13), (3, 2, 2.0, 0.0, 1.0, 1.5, 1e-3)]

    def columns(self):
        n, d, M, v, c, x, t = (np.array(col) for col in zip(*self.ROWS))
        return BernsteinInputs(n=n, d=d, M=M, v=v, c=c), x, t

    def scalars(self):
        for n, d, M, v, c, x, t in self.ROWS:
            yield BernsteinInputs(n=n, d=d, M=M, v=v, c=c), x, t

    def test_tail_bound(self):
        inputs, x, _ = self.columns()
        log_bound, t_star = log_tail_bound_certified(x, inputs)
        want = [log_tail_bound_certified(x, inp) for inp, x, _ in self.scalars()]
        assert all(isinstance(v, float) for row in want for v in row)
        assert log_bound.tolist() == [w[0] for w in want]
        assert t_star.tolist() == [w[1] for w in want]
        bound, _ = tail_bound_certified(x, inputs)
        assert bound.tolist() == [tail_bound_certified(x, inp)[0]
                                  for inp, x, _ in self.scalars()]

    def test_master_and_expectation(self):
        inputs, _, t = self.columns()
        assert master_log_laplace(t, inputs).tolist() == [
            master_log_laplace(t, inp) for inp, _, t in self.scalars()]
        got = expectation_bound(inputs).tolist()
        assert got == [expectation_bound(inp) for inp, _, _ in self.scalars()]
        assert got[0] == 0.0 and got[4] == 0.0  # the d = 1 rows

    def test_schedule_ceiling(self):
        # the ceilings are read off the majorant's (a, b), so they broadcast too
        inputs, _, _ = self.columns()
        ceiling = schedule_ceiling(inputs)
        want = [schedule_ceiling(inp) for inp, _, _ in self.scalars()]
        assert all(isinstance(w.sigma, float) and isinstance(w.kappa, float) for w in want)
        assert ceiling.sigma.tolist() == [w.sigma for w in want]
        assert ceiling.kappa.tolist() == [w.kappa for w in want]
        for (n, d, M, v, c, _, _), w in zip(self.ROWS, want):
            assert w.sigma == pytest.approx(15.0 * math.sqrt(n) * v + 2.0 * M / math.sqrt(c),
                                            rel=1e-14)
            assert w.kappa == M * gamma_cn(c, n)

    def test_x_grid_on_one_input(self):
        inp, xs = BernsteinInputs(n=4, d=3, M=1.0, v=1.0, c=100.0), np.linspace(0.5, 200.0, 9)
        log_bound, t_star = log_tail_bound_certified(xs, inp)
        assert list(zip(log_bound.tolist(), t_star.tolist())) == [
            log_tail_bound_certified(float(x), inp) for x in xs]

    def test_domain_error_names_the_row(self):
        inputs, x, _ = self.columns()
        with pytest.raises(BoundDomainError, match=r"need x > 0, got -1.0 at row 2"):
            log_tail_bound_certified(np.where(np.arange(x.size) == 2, -1.0, x), inputs)
        with pytest.raises(BoundDomainError, match=r"need v >= 0 finite, got nan at row 1"):
            BernsteinInputs(n=np.array([4, 4]), d=2, M=1.0, v=np.array([1.0, np.nan]), c=1.0)
        with pytest.raises(BoundDomainError, match=r"need n >= 2, got 1$"):
            BernsteinInputs(n=1, d=2, M=1.0, v=1.0, c=1.0)

    def test_split_weight_and_majorant_broadcast(self):
        p0 = SigmaKappaPair(np.array([1.0, 0.5, 2.0]), np.array([1.0, 0.0, 0.25]))
        p1 = SigmaKappaPair(np.array([2.0, 1.5, 0.1]), np.array([0.5, 0.0, 3.0]))
        t = np.array([0.3, 7.0, 0.1])
        u = split_weight(p0, p1, t)
        rows = [(SigmaKappaPair(a, b), SigmaKappaPair(c, e), s) for a, b, c, e, s
                in zip(p0.sigma, p0.kappa, p1.sigma, p1.kappa, t)]
        assert u.tolist() == [split_weight(a, b, s) for a, b, s in rows]
        assert gamma_majorant(p1, t / (1 - u)).tolist() == [
            gamma_majorant(b, s / (1 - split_weight(a, b, s))) for a, b, s in rows]
        assert gamma_majorant(p0, np.array([0.5, 1e9, 4.0])).tolist() == [0.5, 0.25e18, math.inf]
