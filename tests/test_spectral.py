import dataclasses
import math
import warnings

import numpy as np
import pytest

import conftest
from depbernstein import checks
from depbernstein.spectral import (
    SpectralError,
    SymMatrix,
    eig_sym,
    expm_sym,
    gerschgorin_bound,
    lambda_max,
    schatten_norm,
    trace_exp,
    trace_product,
)


def rand_sym(rng, d):
    return SymMatrix(conftest.rand_sym(rng, d))


def diag(*values):
    return SymMatrix(np.diag(values))


def zero(d):
    return SymMatrix(np.zeros((d, d)))


def identity(d):
    return SymMatrix(np.eye(d))


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(SpectralError, match="not symmetric"):
            SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_tiny_drift(self):
        a = SymMatrix(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))
        np.testing.assert_array_equal(a.entries, a.entries.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(SpectralError, match="finite"):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_huge_symmetric_entries_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = SymMatrix(np.array([[1e308, 0.0], [0.0, 1.0]]))
            assert np.all(np.isfinite(a.entries))
            assert lambda_max(a) == 1e308

    def test_drift_next_to_huge_entries(self):
        raw = np.array([[1e308, 1.0], [1.0 + 2 ** -52, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = SymMatrix(raw)
        assert a.entries[0, 0] == 1e308
        assert a.entries[0, 1] == a.entries[1, 0] == (raw[0, 1] + raw[1, 0]) / 2.0

    def test_signed_zeros_symmetrized_as_before(self):
        raw = np.array([[0.0, -0.0], [0.0, 0.0]])
        a = SymMatrix(raw)
        assert a.entries.tobytes() == a.entries.T.tobytes()
        assert a.entries.tobytes() == ((raw + raw.T) / 2.0).tobytes()

    def test_equality_is_identity_and_hashable(self):
        a, b = identity(2), identity(2)
        assert a == a and a != b
        assert np.array_equal(a.entries, b.entries)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_entries_are_an_owned_copy(self):
        raw = np.array([[1.0, 2.0], [2.0, -3.0]])
        a = SymMatrix(raw)
        spectrum = eig_sym(a)
        values = spectrum.eigenvalues.copy()
        raw[0, 0] = 100.0
        np.testing.assert_array_equal(a.entries, [[1.0, 2.0], [2.0, -3.0]])
        np.testing.assert_array_equal(spectrum.eigenvalues, values)


class TestEig:
    def test_identity(self):
        s = eig_sym(identity(2))
        np.testing.assert_allclose(s.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        s = eig_sym(diag(3.0, -1.0))
        assert s.eigenvalues[0] == 3.0 and s.eigenvalues[-1] == -1.0

    def test_offdiagonal(self):
        # characteristic polynomial lambda^2 - 1
        s = eig_sym(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(s.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rand_sym(rng, int(rng.integers(2, 9)))
            s = eig_sym(a)
            rec = (s.basis * s.eigenvalues) @ s.basis.T
            err = np.linalg.norm(rec - a.entries, "fro")
            assert err <= 1e-10 * (1.0 + np.linalg.norm(a.entries))


class TestSpectrumCache:
    def test_cached_values_match_a_fresh_decomposition(self):
        a = rand_sym(np.random.default_rng(4), 5)
        w, v = np.linalg.eigh(a.entries)
        order = np.argsort(w)[::-1]
        eig_sym(a)
        s = eig_sym(a)
        assert s.eigenvalues.tobytes() == w[order].tobytes()
        assert s.basis.tobytes() == v[:, order].tobytes()

    @pytest.mark.parametrize("array", ["eigenvalues", "basis", "entries"])
    def test_arrays_are_read_only(self, array):
        a = diag(2.0, -1.0)
        s = eig_sym(a)
        target = a.entries if array == "entries" else getattr(s, array)
        with pytest.raises(ValueError):
            target[0, ...] = 7.0

    def test_cache_leaves_equality_and_repr_alone(self):
        a = diag(2.0, -1.0)
        before = repr(a)
        eig_sym(a)
        assert repr(a) == before
        assert "_spectrum" not in before
        compared = [f.name for f in dataclasses.fields(SymMatrix) if f.compare]
        assert compared == ["entries"]

    def test_eigenvalues_are_computed_once(self, monkeypatch):
        # lambda_max reads eigenvalues alone; eig_sym adds the basis and keeps
        # the eigenvalues it finds, so both read one array
        entries = np.stack([conftest.rand_sym(np.random.default_rng(s), 4) for s in range(3)])
        fresh = np.linalg.eigvalsh(entries)[:, ::-1]
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, _name=name, _original=original:
                                calls.append(_name) or _original(m))
        a = SymMatrix(entries)
        top = lambda_max(a)
        s = eig_sym(a)
        assert calls == ["eigvalsh", "eigh"]
        assert s.eigenvalues.tobytes() == fresh.tobytes()
        assert s.eigenvalues[:, 0].tobytes() == top.tobytes()
        assert np.shares_memory(s.eigenvalues, top)
        # with the basis first, the eigenvalue kernels decompose nothing more
        b = SymMatrix(entries)
        eig_sym(b)
        lambda_max(b), trace_exp(1.0, b), schatten_norm(b, 2.0)
        assert calls == ["eigvalsh", "eigh", "eigh"]

    def test_inequality_suite_decomposes_one_stack_per_dimension(self, monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(m, *args, _original=original, _calls=calls[name], **kwargs):
                _calls.append(m.shape)
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        checked, failures = checks.run(checks.inequalities)
        assert failures == []
        assert checked == {"golden_thompson": 1000, "trace_holder": 4000, "weyl": 1000,
                           "gerschgorin": 1000, "trace_exp_convexity": 1000}
        # for each of the seven dimensions d = 2..8, a and b with their bases
        # (for e^A and e^B) and a + b for its eigenvalues alone
        dims = [(d, d) for d in range(2, 9)]
        assert sorted(shape[1:] for shape in calls["eigh"]) == sorted(dims * 2)
        assert sorted(shape[1:] for shape in calls["eigvalsh"]) == dims


class TestStacks:
    @staticmethod
    def stacks(seed=5, k=50):
        """k random pairs (a, b, t), d in 2..8, as one (pair, a, b, t) stack
        per dimension; `pair` is the draw index."""
        rng = np.random.default_rng(seed)
        by_dim = {}
        for i, d in enumerate(rng.integers(2, 9, size=k)):
            by_dim.setdefault(int(d), []).append(
                (i, conftest.rand_sym(rng, d), conftest.rand_sym(rng, d), rng.uniform(0.1, 1.0)))
        out = []
        for rows in by_dim.values():
            pair, a, b, t = zip(*rows)
            out.append((np.array(pair), SymMatrix(a), SymMatrix(b), np.array(t)))
        return out

    def test_golden_thompson_against_scipy_expm(self):
        from scipy.linalg import expm

        stacks = self.stacks()
        assert len(stacks) == 7
        for _, a, b, _ in stacks:
            rhs = trace_product(expm_sym(a), expm_sym(b))
            want = [np.trace(expm(x) @ expm(y)) for x, y in zip(a.entries, b.entries)]
            np.testing.assert_allclose(rhs, want, rtol=1e-12, atol=0.0)
            assert (trace_exp(1.0, a + b) <= rhs * (1.0 + 1e-9)).all()

    def test_convexity_against_eigvalsh(self):
        dt = 1e-3
        for _, a, _, t in self.stacks():
            second = (trace_exp(t + dt, a) - 2.0 * trace_exp(t, a)
                      + trace_exp(t - dt, a)) / dt ** 2
            want = []
            for x, s in zip(a.entries, t):
                w = np.linalg.eigvalsh(x)
                f = [np.sum(np.exp(u * w)) for u in (s + dt, s, s - dt)]
                want.append((f[0] - 2.0 * f[1] + f[2]) / dt ** 2)
            # the second difference cancels about six digits, so the last-bit
            # gap between eigvalsh and eigh eigenvalues leaves up to 6e-10
            # relative; a misaligned t or matrix moves it by order one
            np.testing.assert_allclose(second, want, rtol=1e-8, atol=0.0)
            assert (second >= -1e-8).all()

    def test_planted_failure_names_its_pair(self, monkeypatch):
        # a Gerschgorin bound zeroed in row 1 of every stack fails there alone
        def planted(a):
            bound = gerschgorin_bound(a).copy()
            bound[1] = 0.0
            return bound

        monkeypatch.setattr(checks.spectral, "gerschgorin_bound", planted)
        stacks = self.stacks()
        _, failures = checks.run(
            lambda: (checks._inequality_case(*stack) for stack in stacks))
        assert [(f["invariant"], f["case"], f["pair"]) for f in failures] == [
            ("gerschgorin", i, int(pair[1])) for i, (pair, _, _, _) in enumerate(stacks)]
        for f, (_, a, _, _) in zip(failures, stacks):
            assert f["bound"] == 0.0 and f["norm"] == schatten_norm(a, np.inf)[1]
            assert type(f["pair"]) is int and type(f["norm"]) is float

    @pytest.mark.parametrize("excess", [0.99, 1.01])
    @pytest.mark.parametrize("invariant", ["golden_thompson", "trace_holder", "weyl"])
    def test_planted_failure_past_the_slack(self, monkeypatch, invariant, excess):
        # row 1 of every stack gets lhs = rhs + excess 1e-9 (1 + |rhs|) from
        # the kernel that computes its lhs: it fails past the slack, naming
        # its pair, and passes inside it (for Hoelder: at the p of least rhs)
        stacks = self.stacks()
        operands = {x for _, a, b, _ in stacks for x in (a, b)}
        rhs, least_p = {}, {}
        for _, a, b, _ in stacks:
            d = a.entries.shape[-1]
            if invariant == "golden_thompson":
                rhs[d] = trace_product(expm_sym(a), expm_sym(b))[1]
            elif invariant == "trace_holder":
                rhs[d], least_p[d] = min(
                    (schatten_norm(a, p)[1] * schatten_norm(b, p / (p - 1.0))[1], p)
                    for p in checks._HOLDER_P)
            else:
                rhs[d] = lambda_max(a)[1] + lambda_max(b)[1]
        name, when = {
            # Tr e^{a+b}, not convexity's Tr e^{(t +- dt) a}
            "golden_thompson": ("trace_exp", lambda t, x: np.ndim(t) == 0),
            # Tr(ab), not Golden-Thompson's Tr(e^a e^b)
            "trace_holder": ("trace_product", lambda x, y: x in operands),
            # lambda_max(a + b)
            "weyl": ("lambda_max", lambda x: x not in operands),
        }[invariant]
        kernel = getattr(checks.spectral, name)

        def planted(*args):
            out = kernel(*args)
            if when(*args):
                r = rhs[args[-1].entries.shape[-1]]
                out = out.copy()
                out[1] = r + excess * 1e-9 * (1.0 + abs(r))
            return out

        monkeypatch.setattr(checks.spectral, name, planted)
        _, failures = checks.run(
            lambda: (checks._inequality_case(*stack) for stack in stacks))
        if excess < 1.0:
            assert failures == []
            return
        assert [(f["invariant"], f["case"], f["pair"]) for f in failures] == [
            (invariant, i, int(pair[1])) for i, (pair, _, _, _) in enumerate(stacks)]
        for f, (_, a, _, _) in zip(failures, stacks):
            d = a.entries.shape[-1]
            assert f["rhs"] == rhs[d] and f["lhs"] > rhs[d]
            assert f.get("p") == least_p.get(d)

    def test_single_matrices_match_a_stack(self):
        def results(x, y):
            return [trace_exp(1.0, x + y), trace_product(expm_sym(x), expm_sym(y)),
                    trace_product(x, y), lambda_max(x + y), gerschgorin_bound(x),
                    lambda_max(x), trace_exp(0.5, x),
                    schatten_norm(x, 1.5), schatten_norm(x, np.inf)]

        rng = np.random.default_rng(7)
        a, b = (SymMatrix([conftest.rand_sym(rng, 4) for _ in range(6)]) for _ in range(2))
        stacked = results(a, b)
        for i in range(6):
            single = results(SymMatrix(a.entries[i]), SymMatrix(b.entries[i]))
            for got, col in zip(single, stacked, strict=True):
                assert type(got) is float
                assert got == pytest.approx(col[i], rel=1e-13)

    def test_raw_stack_is_held_to_the_symmetry_rule(self):
        raw = np.stack([conftest.rand_sym(np.random.default_rng(s), 3) for s in range(4)])
        drifted = raw.copy()
        drifted[2, 0, 1] += 1e-9
        with pytest.raises(SpectralError, match="not symmetric"):
            trace_product(drifted, raw)
        with pytest.raises(SpectralError, match="not symmetric"):
            SymMatrix(drifted)
        tiny = raw.copy()
        tiny[2, 0, 1] += 1e-13
        stack = SymMatrix(tiny)
        np.testing.assert_array_equal(stack.entries, np.swapaxes(stack.entries, 1, 2))
        got = trace_product(tiny, raw)
        assert got.shape == (4,) and np.array_equal(got, trace_product(stack, raw))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (0, 2, 2), (2, 2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(SpectralError, match="expected a square matrix or a stack"):
            SymMatrix(np.zeros(shape))

    def test_mismatched_operands_rejected(self):
        a = SymMatrix(np.zeros((2, 3, 3)))
        with pytest.raises(SpectralError, match="dimension mismatch"):
            a + SymMatrix(np.zeros((3, 3, 3)))
        with pytest.raises(SpectralError, match="dimension mismatch"):
            trace_product(a, zero(3))


class TestOneByOne:
    """d = 1: every kernel is a scalar function of the one entry, and every
    inequality of the suite holds with equality."""

    X, Y = np.array([0.7, -1.3, 2.0]), np.array([-0.4, 0.9, -2.0])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_every_kernel(self, stacked):
        if stacked:
            x, y = self.X, self.Y
            a, b = SymMatrix(x[:, None, None]), SymMatrix(y[:, None, None])
        else:
            x, y = self.X[0], self.Y[0]
            a, b = SymMatrix([[x]]), SymMatrix([[y]])

        def same(got, want):
            assert stacked or type(got) is float
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

        s = eig_sym(a)
        np.testing.assert_array_equal(s.eigenvalues[..., 0], x)
        np.testing.assert_array_equal(np.abs(s.basis), np.ones_like(a.entries))
        np.testing.assert_allclose(expm_sym(a).entries[..., 0, 0], np.exp(x), rtol=1e-15)
        same(lambda_max(a), x)
        same(trace_exp(0.5, a), np.exp(0.5 * x))
        for p in (1, 1.5, 2, np.inf):
            same(schatten_norm(a, p), np.abs(x))
        same(trace_product(a, b), x * y)
        same(gerschgorin_bound(a), np.abs(x))

    def test_inequality_case_holds_with_equality(self):
        a, b = SymMatrix(self.X[:, None, None]), SymMatrix(self.Y[:, None, None])
        checked, failures = checks.run(lambda: [checks._inequality_case(
            np.arange(3), a, b, np.array([0.2, 0.5, 0.9]))])
        assert failures == []
        assert checked == {"golden_thompson": 3, "trace_holder": 12, "weyl": 3,
                           "gerschgorin": 3, "trace_exp_convexity": 3}
        total = a + b
        np.testing.assert_allclose(trace_exp(1.0, total),
                                   trace_product(expm_sym(a), expm_sym(b)), rtol=1e-15)
        np.testing.assert_array_equal(lambda_max(total), lambda_max(a) + lambda_max(b))
        np.testing.assert_allclose(np.abs(trace_product(a, b)),
                                   schatten_norm(a, 3.0) * schatten_norm(b, 1.5), rtol=1e-15)


class TestExpm:
    def test_zero(self):
        np.testing.assert_allclose(expm_sym(zero(3)).entries, np.eye(3))

    def test_diagonal(self):
        e = expm_sym(diag(math.log(2.0), 0.0))
        np.testing.assert_allclose(e.entries, np.diag([2.0, 1.0]), atol=1e-14)

    def test_offdiagonal(self):
        # eigendecomposition in the (1, +-1)/sqrt(2) basis
        e = expm_sym(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        c, s = math.cosh(1.0), math.sinh(1.0)
        np.testing.assert_allclose(e.entries, [[c, s], [s, c]], atol=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e = expm_sym(rand_sym(rng, 4))
            assert eig_sym(e).eigenvalues[-1] > 0


class TestTraceExp:
    def test_t_zero_gives_dim(self):
        assert trace_exp(0.0, diag(5.0, -7.0, 1.0)) == 3.0

    def test_zero_matrix(self):
        assert trace_exp(1.0, zero(2)) == 2.0

    def test_scalar_evaluation(self):
        got = trace_exp(1.0, diag(1.0, -1.0))
        assert got == pytest.approx(math.e + 1.0 / math.e, rel=1e-12)

    def test_rejects_infinite_t(self):
        with pytest.raises(SpectralError, match="t must be finite"):
            trace_exp(math.inf, diag(1.0, -1.0))


class TestSchatten:
    def test_identity_p2(self):
        assert schatten_norm(identity(3), 2) == pytest.approx(math.sqrt(3))

    def test_spectral_radius(self):
        assert schatten_norm(diag(3.0, -4.0), np.inf) == 4.0

    def test_nuclear(self):
        assert schatten_norm(diag(1.0, -1.0), 1) == pytest.approx(2.0)

    def test_rejects_small_p(self):
        with pytest.raises(SpectralError):
            schatten_norm(identity(2), 0.5)

    def test_rejects_nan_p(self):
        with pytest.raises(SpectralError, match="got nan"):
            schatten_norm(identity(2), math.nan)


def case_failures(a, b):
    """The failures of the inequality suite's case on a and b as one-matrix
    stacks."""
    stack = [np.arange(1), SymMatrix(a.entries[None]), SymMatrix(b.entries[None]),
             np.array([0.5])]
    return checks.run(lambda: [checks._inequality_case(*stack)])[1]


class TestInequalities:
    def test_golden_thompson_commuting_equality(self):
        a, b = diag(1.0, 2.0), diag(-1.0, 0.5)
        lhs = trace_exp(1.0, a + b)
        assert lhs == pytest.approx(trace_product(expm_sym(a), expm_sym(b)), rel=1e-12)
        assert case_failures(a, b) == []

    def test_golden_thompson_noncommuting(self):
        a = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = diag(1.0, -1.0)
        assert trace_exp(1.0, a + b) < trace_product(expm_sym(a), expm_sym(b))
        assert case_failures(a, b) == []

    def test_golden_thompson_zero(self):
        a, b = zero(3), zero(3)
        assert trace_exp(1.0, a + b) == pytest.approx(3.0)
        assert trace_product(expm_sym(a), expm_sym(b)) == pytest.approx(3.0)
        assert case_failures(a, b) == []

    def test_trace_holder_equality(self):
        a = identity(2)
        assert trace_product(a, a) == pytest.approx(2.0)
        assert schatten_norm(a, 2) * schatten_norm(a, 2) == pytest.approx(2.0)
        assert case_failures(a, a) == []

    def test_trace_holder_zero(self):
        assert trace_product(zero(2), identity(2)) == 0.0
        assert case_failures(zero(2), identity(2)) == []

    def test_weyl_example(self):
        a, b = diag(1.0, 0.0), diag(0.0, 1.0)
        assert lambda_max(a + b) == pytest.approx(1.0)
        assert lambda_max(a) + lambda_max(b) == pytest.approx(2.0)
        assert case_failures(a, b) == []

    def test_weyl_cancellation(self):
        rng = np.random.default_rng(2)
        a = rand_sym(rng, 3)
        b = SymMatrix(-a.entries)
        assert lambda_max(a + b) == pytest.approx(0.0, abs=1e-12)
        assert lambda_max(a) + lambda_max(b) >= 0.0
        assert case_failures(a, b) == []

    def test_gerschgorin_examples(self):
        assert gerschgorin_bound(diag(2.0, -5.0)) == 5.0
        assert gerschgorin_bound(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))) == 1.0
        assert gerschgorin_bound(identity(4)) == 1.0
