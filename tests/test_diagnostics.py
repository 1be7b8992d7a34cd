"""Tests for the deviation and curvature condition diagnostics."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import robustvar.experiments as exps
from robustvar import (
    Penalty,
    Regression,
    RobustConfig,
    SignPartition,
    SimulationError,
    StudentTNoise,
    ThresholdVarDgp,
    VarModel,
    VarTDgp,
    deviation_check,
    gen_er_transition,
    indicator_map,
    mallows_weights,
    re_check,
    robust_gradient,
    simulate,
)
from robustvar import diagnostics, losses
from robustvar._seeds import derive_seed
from robustvar.diagnostics import (
    _at_truth,
    _huber_bregman_sums,
    _re_probe,
    diagnostics_replication,
    write_reports_csv,
)
from robustvar.experiments import run_deviation_experiment
from robustvar.losses import _huber, robust_gradient_columns, robust_objective_columns


def naive_linf_gradient(y, x, beta, tau, b):
    n, q = x.shape
    g = np.zeros(q)
    for i in range(n):
        nrm = np.linalg.norm(x[i])
        w = 1.0 if nrm == 0 else min(1.0, b / nrm)
        r = w * (y[i] - x[i] @ beta)
        g -= max(-tau, min(tau, r)) * w * w * x[i]
    return np.max(np.abs(g / n))


def one_point_objective(reg, beta, cfg, w):
    """The weighted robust loss at one beta, written out with one matrix-vector product."""
    terms = w * _huber(w * (reg.y - reg.x @ beta), cfg.tau)
    return math.fsum(terms.tolist()) / reg.n


def probe(reg, beta, cfg, radius, n_directions, s, seed):
    """The blocked curvature probe at the truth ``beta``, with the checked truth
    and the weights that the checks compute once before it."""
    truth = _at_truth(reg.x, beta, cfg)
    return _re_probe(reg.x, reg.y, truth, cfg, radius, n_directions, s, seed)


def probe_directions(q, s, radius, n_directions, seed):
    """The probe's directions in order: each drawn u, then -u.  Direction j's
    support is the first min(s, q) entries of row j of one block of row-wise
    permutations of range(q), its values row j of one block of normals."""
    rng = np.random.default_rng(seed)
    s = min(s, q)
    supports = rng.permuted(np.tile(np.arange(q), (n_directions, 1)), axis=1)[:, :s]
    for support, values in zip(supports, rng.standard_normal((n_directions, s))):
        u = np.zeros(q)
        u[support] = values
        u *= radius / np.linalg.norm(u, axis=-1)  # a row norm: a pairwise sum, as in a block
        yield u
        yield -u


def one_at_a_time_probe(reg, beta, cfg, radius, n_directions, s, seed):
    """The curvature probe scoring one direction at a time: each remainder is
    the weighted sum of the Huber Bregman divergences h(b) - h(a) - psi(a)(b - a)
    of the weighted residuals a at the truth and b at the probe, written
    t * (t/2 + (b - c)) with c = clip(b) and t = c - clip(a)."""
    w = mallows_weights(reg.x, cfg)
    xw = reg.x * w[:, None]
    a = w * (reg.y - reg.x @ beta)
    clip_a = np.clip(a, -cfg.tau, cfg.tau)
    best, best_dir = np.inf, np.zeros(reg.q)
    for v in probe_directions(reg.q, s, radius, n_directions, seed):
        b = a - xw @ v
        c = np.clip(b, -cfg.tau, cfg.tau)
        t = c - clip_a
        ratio = np.sum(w * (t * (t / 2 + (b - c)))) / (reg.n * radius * radius)
        if ratio < best:
            best, best_dir = ratio, v.copy()
    return best, best_dir


def fsum_difference_probe(reg, beta, cfg, radius, n_directions, s, seed):
    """The curvature probe with each remainder taken as the difference
    L(beta + v) - L(beta) - grad' v of two ``math.fsum`` losses."""
    w = mallows_weights(reg.x, cfg)
    base = one_point_objective(reg, beta, cfg, w)
    grad = robust_gradient(reg, beta, cfg)
    return min(
        (one_point_objective(reg, beta + v, cfg, w) - base - grad @ v) / (radius * radius)
        for v in probe_directions(reg.q, s, radius, n_directions, seed)
    )


def exact_huber_divergence(b, a, tau):
    """h(b) - h(a) - psi(a)(b - a) in rational arithmetic, for floats b, a, tau."""
    b, a, tau = Fraction(b), Fraction(a), Fraction(tau)

    def h(u):
        return u * u / 2 if abs(u) <= tau else tau * abs(u) - tau * tau / 2

    return h(b) - h(a) - max(-tau, min(tau, a)) * (b - a)


def heavy_tailed_regression(q, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3.0, (n, q))
    beta = rng.standard_normal(q) * (rng.uniform(size=q) < 0.4)
    return Regression(x @ beta + rng.standard_t(2.5, n), x), beta


class TestDeviationCheck:
    def test_noiseless_truth_passes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        beta = rng.standard_normal(4)
        reg = Regression(x @ beta, x)
        cfg = RobustConfig(tau=1, b=3)
        stat, ok = deviation_check(reg, beta, cfg, Penalty("l1"), lam=1e-6)
        assert stat == pytest.approx(0.0, abs=1e-15)
        assert ok

    def test_matches_naive_linf(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((25, 3)) * 2
        beta = rng.standard_normal(3)
        y = x @ beta + rng.standard_normal(25)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=0.8, b=2.5)
        stat, _ = deviation_check(reg, beta, cfg, Penalty("l1"), lam=1.0)
        assert stat == pytest.approx(naive_linf_gradient(y, x, beta, 0.8, 2.5), rel=1e-12)

    def test_zero_lambda_fails_on_nonzero_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        reg = Regression(y, x)
        stat, ok = deviation_check(reg, np.zeros(3), RobustConfig(tau=1, b=3), Penalty("l1"), 0.0)
        assert stat > 0 and not ok


class TestReCheck:
    def test_quadratic_regime_matches_half_rayleigh(self):
        # wide tau and b: the loss is exactly half mean squared error, so the
        # Taylor remainder ratio equals half the design quadratic form
        rng = np.random.default_rng(3)
        n, q = 60, 5
        x = rng.standard_normal((n, q))
        beta = rng.standard_normal(q)
        y = x @ beta + rng.standard_normal(n)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1e8, b=1e8)
        gram = x.T @ x / n
        seed, radius, n_dir, s = 7, 0.5, 50, 2
        got = re_check(reg, beta, cfg, radius=radius, n_directions=n_dir, sparsity_s=s, seed=seed)
        # the same probe directions through the quadratic-form oracle
        best = min(
            0.5 * float(u @ gram @ u) / float(u @ u)
            for u in probe_directions(q, s, radius, n_dir, seed)
        )
        assert got == pytest.approx(best, rel=1e-12)

    def test_single_direction_matches_hand_computation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 3))
        beta = rng.standard_normal(3)
        y = x @ beta + rng.standard_normal(30)
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1.0, b=3.0)
        radius = cfg.tau / (2 * cfg.b_max)
        got, direction = probe(reg, beta, cfg, radius, 1, 2, seed=9)
        w = mallows_weights(reg.x, cfg)
        base = one_point_objective(reg, beta, cfg, w)
        grad = robust_gradient(reg, beta, cfg)
        by_hand = min(
            (one_point_objective(reg, beta + v, cfg, w) - base - grad @ v) / (radius**2)
            for v in (direction, -direction)
        )
        assert got == pytest.approx(by_hand, rel=1e-12)

    def test_nonnegative_by_convexity(self):
        rng = np.random.default_rng(5)
        for k in range(100):
            n, q = 20, 4
            x = rng.standard_normal((n, q)) * rng.uniform(0.5, 3)
            y = rng.standard_normal(n) * 2
            reg = Regression(y, x)
            cfg = RobustConfig(tau=float(rng.uniform(0.5, 3)), b=float(rng.uniform(1, 5)))
            val = re_check(reg, np.zeros(q), cfg, n_directions=5, sparsity_s=2, seed=k)
            assert val >= 0.0

    def test_sign_asymmetry_outside_quadratic_regime(self):
        # a residual pattern straddling the cut-off makes +u and -u curvatures
        # differ; re_check must take the smaller one
        x = np.array([[1.0], [1.0], [-1.0]])
        y = np.array([0.9, 0.9, 2.0])
        reg = Regression(y, x)
        cfg = RobustConfig(tau=1.0, b=10.0)
        beta = np.zeros(1)
        w = mallows_weights(reg.x, cfg)
        base = one_point_objective(reg, beta, cfg, w)
        grad = robust_gradient(reg, beta, cfg)
        radius = 0.4
        u = np.array([radius])
        up = (one_point_objective(reg, u, cfg, w) - base - grad @ u) / radius**2
        dn = (one_point_objective(reg, -u, cfg, w) - base - grad @ (-u)) / radius**2
        assert up != pytest.approx(dn, rel=1e-6)
        got = re_check(reg, beta, cfg, radius=radius, n_directions=3, sparsity_s=1, seed=0)
        assert got <= min(up, dn) + 1e-12


class TestBlockedProbe:
    @pytest.mark.parametrize("q", [1, 3, 10, 20])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_equals_one_at_a_time_probe(self, q, s):
        # 150 directions are 300 probes: whole blocks and a partial last one
        reg, beta = heavy_tailed_regression(q, 120, seed=10 * q + s)
        cfg = RobustConfig(tau=0.8, b=2.0)
        radius = 0.7
        got, direction = probe(reg, beta, cfg, radius, 150, s, seed=q + s)
        want, want_dir = one_at_a_time_probe(reg, beta, cfg, radius, 150, s, seed=q + s)
        assert got == want
        np.testing.assert_array_equal(direction, want_dir)

    def test_equals_one_at_a_time_probe_on_indicator_design(self):
        rng = np.random.default_rng(11)
        regimes = (np.eye(3) * 0.4, rng.standard_normal((3, 3)) * 0.15)
        dgp = ThresholdVarDgp(models=regimes, partition=SignPartition(), noise=StudentTNoise(3.0))
        z = simulate(dgp, 150, 50, seed=12)
        x = np.array([indicator_map(dgp.partition, row) for row in z[:-1]])
        reg = Regression(z[1:, 0], x)
        beta = np.vstack(regimes)[:, 0]
        cfg = RobustConfig(tau=1.0, b=3.0)
        radius = cfg.tau / (2 * cfg.b_max)
        got, direction = probe(reg, beta, cfg, None, 150, 2, seed=13)
        want, want_dir = one_at_a_time_probe(reg, beta, cfg, radius, 150, 2, seed=13)
        assert got == want
        np.testing.assert_array_equal(direction, want_dir)

    @pytest.mark.parametrize("q", [3, 10, 20])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_agrees_with_fsum_difference(self, q, s):
        reg, beta = heavy_tailed_regression(q, 120, seed=10 * q + s)
        cfg = RobustConfig(tau=0.8, b=2.0)
        got, _ = probe(reg, beta, cfg, 0.7, 150, s, seed=q + s)
        assert got == pytest.approx(fsum_difference_probe(reg, beta, cfg, 0.7, 150, s, seed=q + s), rel=1e-12)

    def test_every_probe_evaluated_once_in_blocks(self, monkeypatch):
        residuals, scored = [], []

        def record_block(xw, a, w, tau, block):
            residuals.append(a)
            scored.append(block.copy())
            return _huber_bregman_sums(xw, a, w, tau, block)

        monkeypatch.setattr(diagnostics, "_huber_bregman_sums", record_block)
        reg, beta = heavy_tailed_regression(6, 50, seed=15)
        cfg = RobustConfig(tau=1.0, b=3.0)
        probe(reg, beta, cfg, 0.5, 150, 2, seed=3)
        # the weighted residuals at the truth, formed once and read by every
        # block; the probes in blocks
        assert all(a is residuals[0] for a in residuals)
        np.testing.assert_array_equal(
            residuals[0], mallows_weights(reg.x, cfg) * (reg.y - reg.x @ beta)
        )
        assert [len(b) for b in scored] == [64] * 4 + [44]
        np.testing.assert_array_equal(np.vstack(scored), list(probe_directions(6, 2, 0.5, 150, seed=3)))

    def test_each_distinct_probe_scored_once_in_draw_order(self, monkeypatch):
        # at s = 1 every probe is +-r * e_j up to the rounding of r * z / |z|,
        # so most of the 400 drawn rows equal an earlier one
        scored = []

        def record_block(xw, a, w, tau, block):
            scored.append(block.copy())
            return _huber_bregman_sums(xw, a, w, tau, block)

        monkeypatch.setattr(diagnostics, "_huber_bregman_sums", record_block)
        reg, beta = heavy_tailed_regression(10, 50, seed=23)
        probe(reg, beta, RobustConfig(tau=1.0, b=3.0), 0.5, 200, 1, seed=24)
        first_copies = []
        for v in probe_directions(10, 1, 0.5, 200, seed=24):
            if not any(np.array_equal(v, kept) for kept in first_copies):
                first_copies.append(v)
        scored = np.vstack(scored)
        assert len(scored) == len(first_copies) < 100
        # bytes: each row is its first-drawn copy, zero signs included
        assert scored.tobytes() == np.array(first_copies).tobytes()

    def test_tied_minimiser_is_its_first_drawn_copy(self, monkeypatch):
        # two equal columns and a zero residual: every probe +-r * e_j scores
        # the same, and [-r, 0] is drawn first, then again as -[r, 0] with a -0
        r = 0.5
        drawn = np.array([[-r, 0.0], [r, -0.0], [r, 0.0], [-r, -0.0], [0.0, r], [-0.0, -r]])
        monkeypatch.setattr(diagnostics, "_probe_directions", lambda *args: drawn.copy())
        column = np.random.default_rng(25).standard_t(3.0, 40)
        reg = Regression(np.zeros(40), np.column_stack((column, column)))
        cfg = RobustConfig(tau=1.0, b=3.0)
        got, direction = probe(reg, np.zeros(2), cfg, r, 3, 1, seed=0)
        w = mallows_weights(reg.x, cfg)
        alone = [_huber_bregman_sums(reg.x * w[:, None], np.zeros(40), w, cfg.tau, v[None, :])[0]
                 for v in drawn]
        assert len(set(alone)) == 1
        assert got == alone[0] / (40 * r * r)
        assert direction.tobytes() == drawn[0].tobytes()
        assert direction.tobytes() != drawn[3].tobytes()  # the copy with a -0

    @pytest.mark.parametrize("tau", [1.0, 1e-100, 1e100])
    @pytest.mark.parametrize("weight", [1.0, 0.37])
    def test_divergence_terms_nonnegative_across_the_cut_off(self, tau, weight):
        # one residual per probe, so each sum is one term w * D(b, a) with
        # b = a - step: inside, outside and across +-tau, on both sides,
        # with tiny steps and steps that cross zero
        scaled = [
            (0.3, 0.5), (0.3, -0.9), (3.0, 5.5), (-3.0, -5.5), (3.0, 0.5), (3.0, 2.5),
            (0.9, 1.8), (1.0, 2.0), (-1.0, 1e-17), (2.0, 1e-17), (0.5, 1e-17),
            (1e-200, -1e-200), (1e-200, 3e-200), (0.0, 5e-324), (1e10, 3e10), (-1e10, 1e-5),
        ]
        for a, step in scaled:
            a, step = a * tau, step * tau
            terms = _huber_bregman_sums(
                np.ones((1, 1)), np.array([a]), np.array([weight]), tau, np.array([[step], [-step], [0.0]])
            )
            assert np.all(terms >= 0.0), (a, step, terms)
            assert terms[2] == 0.0  # b = a exactly
            for value, b in zip(terms[:2], (a - step, a + step)):
                exact = float(Fraction(weight) * exact_huber_divergence(b, a, tau))
                assert value == pytest.approx(exact, rel=1e-14, abs=1e-300), (a, b)

    def test_remainder_nonnegative_where_the_fsum_difference_is_not(self):
        # a radius so small that the remainder is far below the roundoff of
        # a loss near 1: the difference of two losses reads sign noise
        reg, beta = heavy_tailed_regression(5, 200, seed=20)
        cfg = RobustConfig(tau=1.0, b=3.0)
        assert probe(reg, beta, cfg, 1e-9, 50, 2, seed=21)[0] >= 0.0
        assert fsum_difference_probe(reg, beta, cfg, 1e-9, 50, 2, seed=21) < 0.0

    def test_one_row_objective_equals_one_point_objective(self):
        reg, _ = heavy_tailed_regression(7, 90, seed=14)
        cfg = RobustConfig(tau=0.6, b=1.5)
        w = mallows_weights(reg.x, cfg)
        betas = np.random.default_rng(15).standard_normal((20, 7))
        for beta in betas:
            value = robust_objective_columns(reg.x, reg.y, beta[None, :], w, cfg.tau)
            assert value.shape == (1,)
            assert value[0] == one_point_objective(reg, beta, cfg, w)

    def test_many_rows_equal_one_point_objectives(self):
        # one matrix product over all rows would round some values differently
        reg, _ = heavy_tailed_regression(10, 200, seed=16)
        cfg = RobustConfig(tau=0.6, b=1.5)
        w = mallows_weights(reg.x, cfg)
        betas = np.random.default_rng(17).standard_normal((150, 10))
        values = robust_objective_columns(reg.x, reg.y, betas, w, cfg.tau)
        np.testing.assert_array_equal(values, [one_point_objective(reg, b, cfg, w) for b in betas])

    def test_sparsity_above_dimension_is_dimension(self):
        reg, beta = heavy_tailed_regression(4, 40, seed=16)
        cfg = RobustConfig(tau=1.0, b=3.0)
        assert re_check(reg, beta, cfg, sparsity_s=9, seed=1) == re_check(reg, beta, cfg, sparsity_s=4, seed=1)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"n_directions": 2.5}, "n_directions must be an integer, got 2.5"),
            ({"n_directions": 0}, "n_directions must be at least 1, got 0"),
            ({"sparsity_s": 1.5}, "sparsity_s must be an integer, got 1.5"),
            ({"sparsity_s": 0}, "sparsity_s must be at least 1, got 0"),
        ],
    )
    def test_bad_count_names_the_parameter(self, setting, message):
        reg, beta = heavy_tailed_regression(3, 20, seed=17)
        with pytest.raises(ValueError, match=message):
            re_check(reg, beta, RobustConfig(tau=1.0, b=3.0), **setting)

    @pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        reg, beta = heavy_tailed_regression(3, 20, seed=18)
        with pytest.raises(ValueError, match=r"^radius must be real, finite and in \(0, inf\), got "):
            re_check(reg, beta, RobustConfig(tau=1.0, b=3.0), radius=radius)

    @pytest.mark.parametrize("tau, b, radius", [(1e308, 1e10, None), (1e200, 1.0, None),
                                                (1.0, 1e200, None), (1.0, 3.0, 1e160),
                                                (1.0, 3.0, 1e-170)])
    def test_radius_out_of_float_range_raises(self, tau, b, radius):
        reg, beta = heavy_tailed_regression(3, 20, seed=18)
        message = rf"^radius \S+ at tau {re.escape(f'{tau:g}')} puts the sums out of float range$"
        with pytest.raises(ValueError, match=message):
            re_check(reg, beta, RobustConfig(tau=tau, b=b), radius=radius)

    def test_huge_cutoff_within_float_range_is_probed(self):
        # tau = b = 1e300 gives radius 0.5: the sums stay small, only tau * tau overflows
        reg, beta = heavy_tailed_regression(3, 20, seed=18)
        re_hat = re_check(reg, beta, RobustConfig(tau=1e300, b=1e300), n_directions=20)
        assert 0.0 <= re_hat < math.inf


def drawn_directions(monkeypatch, q, s, radius, n_directions, seed,
                     default_rng=np.random.default_rng):
    """The directions the curvature probe draws, in order, before it drops
    repeats; the probe's generator comes from ``default_rng``."""
    drawn = []
    real_draw = diagnostics._probe_directions

    def record_draw(*args):
        drawn.append(real_draw(*args))
        return drawn[-1]

    reg, beta = heavy_tailed_regression(q, 10, seed=22)
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_probe_directions", record_draw)
        m.setattr(np.random, "default_rng", default_rng)
        probe(reg, beta, RobustConfig(tau=1.0, b=3.0), radius, n_directions, s, seed)
    (directions,) = drawn
    return directions


class TestProbeDraw:
    @pytest.mark.parametrize("q, s", [(1, 1), (4, 1), (7, 3), (5, 5), (3, 8)])
    def test_rows_are_sparse_pairs_of_norm_radius(self, monkeypatch, q, s):
        radius = 0.3
        directions = drawn_directions(monkeypatch, q, s, radius, 500, seed=4)
        assert directions.shape == (1000, q)
        assert (np.count_nonzero(directions, axis=1) == min(s, q)).all()
        norms = np.linalg.norm(directions, axis=1)
        np.testing.assert_allclose(norms, radius, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(directions[1::2], -directions[0::2])

    def test_seeded(self, monkeypatch):
        first = drawn_directions(monkeypatch, 6, 2, 0.5, 50, seed=8)
        np.testing.assert_array_equal(drawn_directions(monkeypatch, 6, 2, 0.5, 50, seed=8), first)
        other = drawn_directions(monkeypatch, 6, 2, 0.5, 50, seed=9)
        assert not np.array_equal(other != 0, first != 0)  # other supports
        assert not np.any(np.isin(other[other != 0], first))  # other values

    @pytest.mark.parametrize("q, s", [(5, 1), (7, 3)])
    def test_support_is_uniform(self, monkeypatch, q, s):
        # each coordinate is in a support with probability s/q, independently
        # across the 20,000 draws
        draws = 20_000
        u = drawn_directions(monkeypatch, q, s, 1.0, draws, seed=5)[0::2]
        share = np.count_nonzero(u, axis=0) / draws
        sigma = math.sqrt(s / q * (1 - s / q) / draws)
        assert np.all(np.abs(share - s / q) <= 4 * sigma), share

    def test_zero_row_is_skipped(self, monkeypatch):
        # the normals of the second direction all drawn 0: it has no norm to
        # scale to the radius, so neither it nor its negation is probed
        real_rng = np.random.default_rng

        class SecondRowZero:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def permuted(self, *args, **kwargs):
                return self._rng.permuted(*args, **kwargs)

            def standard_normal(self, size):
                values = self._rng.standard_normal(size)
                values[1] = 0.0
                return values

        want = drawn_directions(monkeypatch, 6, 2, 0.5, 10, seed=3)
        got = drawn_directions(monkeypatch, 6, 2, 0.5, 10, seed=3, default_rng=SecondRowZero)
        np.testing.assert_array_equal(got, np.delete(want, [2, 3], axis=0))


CHECKS = {
    "deviation_check": lambda reg, beta, cfg: deviation_check(reg, beta, cfg, Penalty("l1"), 0.5),
    "re_check": lambda reg, beta, cfg: re_check(reg, beta, cfg, n_directions=5),
    "diagnostics_replication": lambda reg, beta, cfg: diagnostics_replication(
        reg.x, reg.y, beta, cfg, Penalty("l1"), 0.5, seed=0, n_directions=5,
    ),
}


class TestTruthChecked:
    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
    @pytest.mark.parametrize(
        "beta, message",
        [
            (np.zeros(2),
             r"^beta_star must be a nonempty array of shape \(3,\), got shape \(2,\)$"),
            (np.zeros((3, 1)),
             r"^beta_star must be a nonempty array of shape \(3,\), got shape \(3, 1\)$"),
            (np.array([0.0, np.nan, 1.0]),
             r"^beta_star must be real, finite and in \(-inf, inf\), got nan$"),
            (np.array([np.inf, 0.0, 1.0]),
             r"^beta_star must be real, finite and in \(-inf, inf\), got inf$"),
        ],
        ids=["short", "column", "nan", "inf"],
    )
    def test_bad_truth_fails_before_any_work(self, monkeypatch, check, beta, message):
        def boom(*a, **k):
            raise AssertionError("weights computed for a bad truth")

        monkeypatch.setattr(diagnostics, "mallows_weights", boom)
        reg, _ = heavy_tailed_regression(3, 20, seed=19)
        with pytest.raises(ValueError, match=message):
            check(reg, beta, RobustConfig(tau=1.0, b=3.0))

    @pytest.mark.parametrize("check", ["re_check", "diagnostics_replication"])
    def test_overflowing_loss_at_truth_raises(self, check):
        # a finite truth whose residuals square past the float range inside
        # the Huber cut-off: the loss is inf, so the curvature ratios would be nan
        reg = Regression(np.zeros(3), np.ones((3, 1)))
        cfg = RobustConfig(tau=1e300, b=1e300)
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="loss at beta_star is not finite"):
            CHECKS[check](reg, np.array([1e200]), cfg)


class TestReplicationDriver:
    def test_report_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 3))
        beta = rng.standard_normal(3)
        y = x @ beta + rng.standard_normal(25)
        rep = diagnostics_replication(
            x, y, beta, RobustConfig(tau=1, b=3), Penalty("l1"), lam=0.8, seed=0,
            n_directions=5,
        )
        assert rep.deviation_pass == (rep.deviation_stat <= rep.lambda_half)
        assert rep.lambda_half == 0.4
        assert rep.re_directions == 5
        assert rep.min_direction is not None

    def test_weights_and_gradient_once(self, monkeypatch):
        # counted through every module name, so a wrapper that re-derives
        # either one is seen
        calls = {"weights": 0, "gradient": 0}
        real_w, real_g = losses.mallows_weights, robust_gradient_columns

        def weights(*a):
            calls["weights"] += 1
            return real_w(*a)

        def gradient(*a):
            calls["gradient"] += 1
            return real_g(*a)

        for module in (losses, diagnostics):
            monkeypatch.setattr(module, "mallows_weights", weights)
            monkeypatch.setattr(module, "robust_gradient_columns", gradient, raising=False)
        reg, beta = heavy_tailed_regression(5, 40, seed=20)
        rep = diagnostics_replication(reg.x, reg.y, beta, RobustConfig(tau=1.0, b=3.0),
                                      Penalty("l1"), 0.5, seed=1, n_directions=10, include_re=True)
        assert rep.re_directions == 10 and math.isfinite(rep.re_hat)
        assert calls == {"weights": 1, "gradient": 1}

    def test_curvature_check_takes_no_gradient(self, monkeypatch):
        # the Bregman probe never reads the gradient at the truth
        def gradient(*a):
            raise AssertionError("gradient at the truth computed")

        monkeypatch.setattr(diagnostics, "robust_gradient_columns", gradient)
        reg, beta = heavy_tailed_regression(5, 40, seed=20)
        assert re_check(reg, beta, RobustConfig(tau=1.0, b=3.0), n_directions=10) >= 0.0

    def test_experiment_deterministic(self):
        a = run_deviation_experiment(5, 20, 3.0, 1.0, 3.0, c=0.5, replications=3, seed=1)
        b = run_deviation_experiment(5, 20, 3.0, 1.0, 3.0, c=0.5, replications=3, seed=1)
        assert [r.deviation_stat for r in a] == [r.deviation_stat for r in b]

    def test_experiment_draws_single_paths(self, monkeypatch):
        # room for four 15-step paths of p=3 per stacked recursion, so ten
        # replications take three
        monkeypatch.setattr(exps, "_STACK_BYTES", 4 * 16 * 15 * 3)
        reps = 10
        reports = run_deviation_experiment(3, 10, 2.5, 1.0, 3.0, c=0.5, replications=reps,
                                           seed=4, burn_in=5, column=1)
        expected = []
        for rep in range(reps):
            rep_seed = derive_seed(4, rep)
            truth = VarModel((gen_er_transition(3, 0.05, 0.5, derive_seed(rep_seed, 0)),))
            data = simulate(VarTDgp(truth, StudentTNoise(2.5)), 10, 5, derive_seed(rep_seed, 1))
            expected.append(deviation_check(Regression(data[1:, 1], data[:-1]),
                                            truth.stacked()[:, 1], RobustConfig(1.0, 3.0),
                                            Penalty("l1"), reports[0].lambda_half * 2))
        assert [(r.deviation_stat, r.deviation_pass) for r in reports] == expected

    def test_experiment_nonfinite_path_raises(self, monkeypatch):
        real = exps.simulate_paths

        def second_fails(specs, n, burn_in, seeds):
            paths = real(specs, n, burn_in, seeds)
            paths[1] = SimulationError("non-finite state at step 4")
            return paths

        monkeypatch.setattr(exps, "simulate_paths", second_fails)
        with pytest.raises(SimulationError, match="at step 4$"):
            run_deviation_experiment(5, 20, 3.0, 1.0, 3.0, c=0.5, replications=3, seed=1)

    def test_reports_csv(self, tmp_path):
        reports = run_deviation_experiment(
            5, 20, 3.0, 1.0, 3.0, c=0.5, replications=3, seed=2, include_re=True,
            n_directions=5,
        )
        path = tmp_path / "diag.csv"
        write_reports_csv(reports, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("rep,deviation_stat,lambda_half,deviation_pass")

    def test_reports_csv_writes_zeros_of_a_negated_probe_as_0(self, tmp_path):
        reports = run_deviation_experiment(
            5, 20, 3.0, 1.0, 3.0, c=0.5, replications=3, seed=2, include_re=True,
            n_directions=5,
        )
        # a report whose minimising probe is some -u, so that its four zeros are -0.0
        rep, direction = next(
            (i, r.min_direction) for i, r in enumerate(reports)
            if np.signbit(r.min_direction[r.min_direction == 0]).tolist() == [True] * 4
        )
        path = tmp_path / "diag.csv"
        write_reports_csv(reports, path)
        cells = path.read_text().splitlines()[rep + 1].split(",")[-1].split(" ")
        assert [float(c) for c in cells] == direction.tolist()
        zeros = [c for c, v in zip(cells, direction) if v == 0]
        assert zeros == ["0"] * 4
