"""Tests for penalty norms, duals, and proximal operators."""

import numpy as np
import pytest

from robustvar import Penalty, dual_value
from robustvar.penalties import prox

from conftest import penalty_norm

L1 = Penalty("l1")


def golden_min(fun, lo, hi, iters=120):
    """Golden-section search for the minimizer of a unimodal scalar function.

    Runs in extended precision: float64 function values flatten near a
    quadratic minimum at the sqrt(eps) scale (~3e-8), too coarse for the
    1e-8 comparisons below.
    """
    one = np.longdouble(1)
    phi = (np.sqrt(np.longdouble(5)) - one) / 2
    a, b = np.longdouble(lo), np.longdouble(hi)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return float((a + b) / 2)


class TestPenaltyValue:
    """The test-side penalty norm behind the solver tests' objective values."""

    def test_l1(self):
        assert penalty_norm(Penalty("l1"), np.array([1.0, -2.0, 0.0])) == 3.0

    def test_group(self):
        pen = Penalty("group", groups=((0, 1), (2, 3)))
        assert penalty_norm(pen, np.array([3.0, 4.0, 0.0, 0.0])) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert penalty_norm(Penalty("l1"), np.zeros(5)) == 0.0
        pen = Penalty("group", groups=((0,), (1, 2)))
        assert penalty_norm(pen, np.zeros(3)) == 0.0

    def test_zero_iff_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(4)
            if np.any(v != 0):
                assert penalty_norm(Penalty("l1"), v) > 0

    def test_coverage_violation(self):
        pen = Penalty("group", groups=((0, 1),))
        with pytest.raises(ValueError):
            dual_value(pen, np.zeros(3))

    def test_bad_groups(self):
        with pytest.raises(ValueError):
            Penalty("group", groups=((0, 1), (1, 2)))  # overlap
        with pytest.raises(ValueError):
            Penalty("group", groups=None)
        with pytest.raises(ValueError):
            Penalty("l1", groups=((0,),))
        with pytest.raises(ValueError, match="^group penalty requires groups$"):
            Penalty("group", groups=(g for g in ()))

    def test_groups_may_be_iterators(self):
        pen = Penalty("group", groups=(iter(g) for g in ((0, 1), (2,))))
        assert pen.groups == ((0, 1), (2,))
        assert all(type(i) is int for g in pen.groups for i in g)
        with pytest.raises(ValueError, match="^group index must be a nonnegative integer, got 1.5$"):
            Penalty("group", groups=(iter(g) for g in ((0, 1.5),)))

    def test_unknown_kind_names_it(self):
        with pytest.raises(ValueError, match="^unknown penalty kind 'l2'$"):
            Penalty("l2")

    def test_an_empty_group_is_rejected(self):
        with pytest.raises(ValueError, match="^groups must be nonempty$"):
            Penalty("group", groups=((0, 1), ()))

    def test_l1_covers_every_coordinate_count(self):
        for q in (1, 7):
            assert L1.check_coverage(q) is None


class TestDualValue:
    def test_l1_dual_is_linf(self):
        assert dual_value(Penalty("l1"), np.array([1.0, -2.0, 0.0])) == 2.0

    def test_group_dual_is_max_block(self):
        pen = Penalty("group", groups=((0, 1), (2, 3)))
        assert dual_value(pen, np.array([3.0, 4.0, 1.0, 0.0])) == pytest.approx(5.0)

    def test_generalized_cauchy_schwarz(self):
        rng = np.random.default_rng(1)
        pens = [Penalty("l1"), Penalty("group", groups=((0, 1), (2,), (3, 4, 5)))]
        for pen in pens:
            for _ in range(100):
                v, w = rng.standard_normal(6), rng.standard_normal(6)
                assert penalty_norm(pen, v) * dual_value(pen, w) >= v @ w - 1e-12

    def test_dual_is_sup_over_unit_ball(self):
        # uniform samples on the unit-penalty sphere: Dirichlet magnitudes
        # (plus random signs / random block directions)
        rng = np.random.default_rng(2)
        q = 3
        n_samples = 10**5

        v = rng.standard_normal(q)
        want = dual_value(Penalty("l1"), v)
        mags = rng.dirichlet(np.ones(q), size=n_samples)
        signs = rng.choice([-1.0, 1.0], size=(n_samples, q))
        best = float(np.max((mags * signs) @ v))
        assert best <= want + 1e-12
        assert best >= 0.98 * want

        pen = Penalty("group", groups=((0, 1), (2,)))
        v = rng.standard_normal(q)
        want = dual_value(pen, v)
        norms = rng.dirichlet(np.ones(2), size=n_samples)
        theta = rng.uniform(0, 2 * np.pi, n_samples)
        u = np.column_stack(
            [norms[:, 0] * np.cos(theta), norms[:, 0] * np.sin(theta),
             norms[:, 1] * rng.choice([-1.0, 1.0], n_samples)]
        )
        best = float(np.max(u @ v))
        assert best <= want + 1e-12
        assert best >= 0.98 * want


class TestSoftThreshold:
    def test_examples(self):
        np.testing.assert_allclose(prox(L1, np.array([[1.2]]), 0.5)[:, 0], [0.7])
        np.testing.assert_allclose(prox(L1, np.array([[-0.3]]), 0.5)[:, 0], [0.0])

    def test_identity_at_zero(self):
        v = np.array([1.0, -2.0, 0.3])
        np.testing.assert_array_equal(prox(L1, v[:, None], 0.0)[:, 0], v)

    def test_prox_optimality_golden_section(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v = float(rng.uniform(-4, 4))
            alpha = float(rng.uniform(0, 3))
            got = prox(L1, np.array([[v]]), alpha)[0, 0]
            want = golden_min(lambda z: 0.5 * (z - v) ** 2 + alpha * abs(z), -abs(v) - 1, abs(v) + 1)
            assert abs(got - want) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v1, v2 = rng.standard_normal(6), rng.standard_normal(6)
            alpha = float(rng.uniform(0, 2))
            d_out = np.linalg.norm(
                prox(L1, v1[:, None], alpha)[:, 0] - prox(L1, v2[:, None], alpha)[:, 0]
            )
            assert d_out <= np.linalg.norm(v1 - v2) + 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_prox_equals_formula_bit_for_bit(self, alpha):
        # signed zeros, values at +-alpha and non-finite values included
        rng = np.random.default_rng(5)
        v = rng.standard_normal((9, 4)) * 2
        v[:, 0] = [0.0, -0.0, alpha, -alpha, np.inf, -np.inf, np.nan, 1e-300, -1e300]
        kept = v.copy()
        got = prox(Penalty("l1"), v, alpha)
        want = np.sign(v) * np.maximum(np.abs(v) - alpha, 0.0)
        assert got.tobytes() == want.tobytes()
        assert v.tobytes() == kept.tobytes()


class TestGroupSoftThreshold:
    PEN = Penalty("group", groups=((0, 1),))

    def test_shrinks_block(self):
        out = prox(self.PEN, np.array([[3.0], [4.0]]), 1.0)[:, 0]
        np.testing.assert_allclose(out, [2.4, 3.2])

    def test_zeroes_small_block(self):
        out = prox(self.PEN, np.array([[0.3], [0.4]]), 1.0)[:, 0]
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_identity_at_zero(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox(self.PEN, v[:, None], 0.0)[:, 0], v)

    def test_block_prox_optimality_golden_section(self):
        # the block prox acts along the block direction, so the vector problem
        # reduces to a scalar shrink of the block norm
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v = rng.standard_normal(2) * rng.uniform(0.2, 3)
            alpha = float(rng.uniform(0, 2))
            nrm = np.linalg.norm(v)
            t = golden_min(lambda z: 0.5 * (z - nrm) ** 2 + alpha * abs(z), -nrm - 1, nrm + 1)
            want = (v / nrm) * t if nrm > 0 else v * 0
            got = prox(self.PEN, v[:, None], alpha)[:, 0]
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        pen = Penalty("group", groups=((0, 1), (2, 3, 4)))
        for _ in range(100):
            v1, v2 = rng.standard_normal(5), rng.standard_normal(5)
            alpha = float(rng.uniform(0, 2))
            d_out = np.linalg.norm(
                prox(pen, v1[:, None], alpha)[:, 0] - prox(pen, v2[:, None], alpha)[:, 0]
            )
            assert d_out <= np.linalg.norm(v1 - v2) + 1e-12

    def test_matrix_columns_shrunk_independently(self):
        rng = np.random.default_rng(7)
        pen = Penalty("group", groups=((0, 1), (2, 3, 4)))
        v = rng.standard_normal((5, 6))
        got = prox(pen, v, 0.8)
        for j in range(6):
            np.testing.assert_allclose(got[:, j], prox(pen, v[:, [j]], 0.8)[:, 0], rtol=1e-15)
