"""Tests for the heavy-tailed process generators and their stability gates."""

import warnings

import numpy as np
import pytest

from robustvar import (
    ArchVarDgp,
    BekkVarDgp,
    GaussianNoise,
    IntervalPartition,
    RcVarDgp,
    ScaleMixtureNoise,
    SignPartition,
    SimulationError,
    StabilityError,
    StudentTNoise,
    ThresholdVarDgp,
    UnivariateArchDgp,
    VarModel,
    VarTDgp,
    companion_matrix,
    gen_er_transition,
    indicator_map,
    read_series_csv,
    sample_noise,
    simulate,
    simulate_paths,
    spectral_radius,
    write_series_csv,
)


class TestNoise:
    def test_student_t_deterministic(self):
        a = sample_noise(StudentTNoise(3.0), (100,), np.random.default_rng(0))
        b = sample_noise(StudentTNoise(3.0), (100,), np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_student_t_moments_quick(self):
        draws = sample_noise(StudentTNoise(3.0), (200000,), np.random.default_rng(1))
        assert abs(np.median(draws)) < 0.02
        assert abs(draws.var() / 3.0 - 1.0) < 0.15

    def test_student_t_noninteger_df(self):
        draws = sample_noise(StudentTNoise(2.5), (1000,), np.random.default_rng(2))
        assert np.all(np.isfinite(draws))

    def test_df_gate(self):
        with pytest.raises(ValueError):
            StudentTNoise(2.0)

    def test_gaussian_zero_sd(self):
        out = sample_noise(GaussianNoise(0.0), (50, 3), np.random.default_rng(3))
        np.testing.assert_array_equal(out, 0.0)

    def test_gaussian_vector_sd(self):
        out = sample_noise(GaussianNoise((0.0, 1.0)), (2000, 2), np.random.default_rng(4))
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert out[:, 1].std() == pytest.approx(1.0, rel=0.1)

    def test_scale_mixture(self):
        spec = ScaleMixtureNoise(((0.7, 1.0), (0.3, 3.0)))
        draws = sample_noise(spec, (200000,), np.random.default_rng(5))
        want_var = 0.7 * 1.0 + 0.3 * 9.0
        assert draws.var() == pytest.approx(want_var, rel=0.05)

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            ScaleMixtureNoise(((0.7, 1.0), (0.4, 2.0)))


class TestGenErTransition:
    def test_radius_and_density(self):
        b = gen_er_transition(10, 0.05, 0.5, seed=1)
        assert spectral_radius(b) == pytest.approx(0.5, abs=1e-8)
        frac = np.count_nonzero(b) / 100
        sigma3 = 3 * np.sqrt(0.05 * 0.95 / 100)
        assert abs(frac - 0.05) <= sigma3 + 1e-12

    def test_fully_dense(self):
        b = gen_er_transition(2, 1.0, 0.5, seed=2)
        assert np.count_nonzero(b) == 4

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_er_transition(8, 0.1, 0.5, seed=3), gen_er_transition(8, 0.1, 0.5, seed=3)
        )

    def test_attempt_exhaustion(self):
        # density low enough that p=1 draws are almost surely all-zero
        with pytest.raises(RuntimeError):
            gen_er_transition(1, 1e-12, 0.5, seed=4)

    def test_bad_density(self):
        with pytest.raises(ValueError):
            gen_er_transition(3, 0.0, 0.5, seed=0)

    @pytest.mark.parametrize("p", [0, -1])
    def test_dimension_below_one_names_p(self, p):
        with pytest.raises(ValueError, match=f"^p must be at least 1, got {p}$"):
            gen_er_transition(p, 0.5, 0.5, seed=0)


def stable_var2(seed=0, p=3):
    rng = np.random.default_rng(seed)
    b1 = 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
    b2 = 0.2 * rng.standard_normal((p, p)) / np.sqrt(p)
    model = VarModel((b1, b2))
    assert spectral_radius(companion_matrix(model)) < 1
    return model


class TestStabilityGates:
    def test_var_t(self):
        VarTDgp(VarModel((np.eye(2) * 0.999,)), GaussianNoise(1.0))
        with pytest.raises(StabilityError) as exc:
            VarTDgp(VarModel((np.eye(2) * 1.001,)), GaussianNoise(1.0))
        assert "1.001" in str(exc.value)

    def test_arch_var(self):
        f_ok = (np.eye(2) * 0.509,) * 2
        ArchVarDgp(b=np.eye(2) * 0.7, f=(1.0, 1.0), f_mats=f_ok)
        with pytest.raises(StabilityError):
            ArchVarDgp(b=np.eye(2) * 0.7, f=(1.0, 1.0), f_mats=(np.eye(2) * 0.511,) * 2)

    def test_univariate_arch(self):
        UnivariateArchDgp(b=(0.7,), d0=1.0, d=(0.509,))
        with pytest.raises(StabilityError):
            UnivariateArchDgp(b=(0.7,), d0=1.0, d=(0.511,))

    def test_bekk(self):
        c = np.eye(2) * 0.1
        BekkVarDgp(b=np.eye(2) * 0.7, c=c, f=np.eye(2) * np.sqrt(0.509))
        with pytest.raises(StabilityError):
            BekkVarDgp(b=np.eye(2) * 0.7, c=c, f=np.eye(2) * np.sqrt(0.511))

    def test_threshold(self):
        ThresholdVarDgp(models=(np.eye(2) * 0.999, np.eye(2) * 0.5))
        with pytest.raises(StabilityError):
            ThresholdVarDgp(models=(np.eye(2) * 1.001, np.eye(2) * 0.5))

    def test_rc_var(self):
        p = 2
        gamma_ok = np.sqrt(0.509 / p)
        RcVarDgp(b=np.eye(p) * 0.7, gamma_sd=gamma_ok)
        with pytest.raises(StabilityError):
            RcVarDgp(b=np.eye(p) * 0.7, gamma_sd=np.sqrt(0.511 / p))

    def test_an_overflowing_gate_matrix_has_infinite_radius(self):
        # b is finite, but its second moments overflow: the process is unstable
        with np.errstate(over="ignore"):
            with pytest.raises(StabilityError, match=r"^radius\(BB' \+ FF'\) = inf >= 1$"):
                BekkVarDgp(b=[[1e200]], c=[[1.0]], f=[[0.1]])
            with pytest.raises(StabilityError, match="^second-moment spectral radius inf >= 1$"):
                RcVarDgp(b=[[1e200]], gamma_sd=0.1)

    def test_an_overflowing_arch_radius_is_infinite(self):
        # radius(B) = 1e200 is finite, its square is not: the gate fails, not the arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StabilityError, match=r"^radius\(B\)\^2 \+ max radius\(F_j\) = inf >= 1$"):
                ArchVarDgp(b=[[1e200]], f=[1.0], f_mats=[[[0.1]]])

    def test_message_carries_radius(self):
        with pytest.raises(StabilityError, match=r"^companion spectral radius 1\.001 >= 1$"):
            VarTDgp(VarModel((np.eye(2) * 1.001,)), GaussianNoise(1.0))

    def test_a_huge_radius_message_stays_short(self):
        with pytest.raises(StabilityError) as exc:
            UnivariateArchDgp(b=[1e200], d0=1.0, d=[0.1])
        assert str(exc.value) == "companion spectral radius 1e+200 >= 1"
        assert len(str(exc.value)) < 100


class TestSimulate:
    def test_no_dynamics_is_iid(self):
        spec = VarTDgp(VarModel((np.zeros((3, 3)),)), StudentTNoise(6.0))
        data = simulate(spec, 4000, 0, seed=0)
        n = data.shape[0]
        for j in range(3):
            z = data[:, j]
            r = np.corrcoef(z[:-1], z[1:])[0, 1]
            assert abs(r) <= 3 / np.sqrt(n)

    def test_seeded_determinism(self):
        spec = VarTDgp(VarModel((np.eye(2) * 0.5,)), StudentTNoise(3.0))
        np.testing.assert_array_equal(simulate(spec, 50, 10, 7), simulate(spec, 50, 10, 7))

    def test_companion_equivalence_exact(self):
        model = stable_var2()
        p = model.p
        noise = StudentTNoise(3.0)
        steps, seed = 200, 11
        direct = simulate(VarTDgp(model, noise), steps, 0, seed)
        eps = sample_noise(noise, (steps, p), np.random.default_rng(seed))
        m = companion_matrix(model)
        state = np.zeros(p * model.d)
        rows = np.empty((steps, p))
        for t in range(steps):
            state = m @ state
            state[:p] += eps[t]
            rows[t] = state[:p]
        np.testing.assert_array_equal(direct, rows)

    def test_univariate_arch_reduces_to_ar(self):
        b = (0.4, 0.2)
        d0 = 2.0
        spec_arch = UnivariateArchDgp(b=b, d0=d0, d=(0.0, 0.0), noise=GaussianNoise(1.0))
        model = VarModel((np.array([[0.4]]), np.array([[0.2]])))
        spec_var = VarTDgp(model, GaussianNoise(np.sqrt(d0)))
        a = simulate(spec_arch, 100, 20, seed=5)
        v = simulate(spec_var, 100, 20, seed=5)
        np.testing.assert_array_equal(a, v)

    def test_arch_var_reduces_to_var(self):
        rng = np.random.default_rng(6)
        b = 0.4 * rng.standard_normal((2, 2))
        f = (1.5, 0.5)
        spec_arch = ArchVarDgp(b=b, f=f, f_mats=(np.zeros((2, 2)),) * 2,
                               noise=GaussianNoise(1.0))
        spec_var = VarTDgp(VarModel((b,)), GaussianNoise(tuple(np.sqrt(f))))
        a = simulate(spec_arch, 80, 10, seed=8)
        v = simulate(spec_var, 80, 10, seed=8)
        np.testing.assert_array_equal(a, v)

    def test_arch_var_dense_scales_match_per_matrix_forms(self):
        # dense PSD scale matrices: every form z'F_j z has rounding to match
        rng = np.random.default_rng(19)
        p, n, burn_in, seed = 5, 150, 50, 20
        b = rng.standard_normal((p, p))
        b *= 0.4 / np.linalg.norm(b, 2)
        mats = []
        for _ in range(p):
            a = rng.standard_normal((p, p))
            mats.append(a @ a.T * (0.3 / np.linalg.eigvalsh(a @ a.T)[-1]))
        spec = ArchVarDgp(b=b, f=tuple(rng.uniform(0.5, 2.0, p)), f_mats=tuple(mats),
                          noise=StudentTNoise(4.0))
        eta = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
        bt, z, path = np.ascontiguousarray(b.T), np.zeros(p), []
        for e in eta:
            sig = np.sqrt(np.asarray(spec.f) + np.array([z @ fm @ z for fm in spec.f_mats]))
            z = bt @ z
            z += sig * e
            path.append(z)
        np.testing.assert_array_equal(simulate(spec, n, burn_in, seed), np.array(path)[burn_in:])

    def test_arch_var_single_entry_diagonal_scales_replay_bit_for_bit(self):
        # at most one nonzero entry per F_j (the diagonal ARCH design): every
        # form z'F_j z is one product, so the diagonal form rounds like z @ F_j @ z
        rng = np.random.default_rng(35)
        p, n, burn_in = 6, 150, 50
        b = rng.standard_normal((p, p))
        b *= 0.4 / np.linalg.norm(b, 2)
        mats = [np.diag(rng.uniform(0.05, 0.3) * (np.arange(p) == k))
                for k in rng.permutation(p)]
        mats[2] = np.zeros((p, p))
        spec = ArchVarDgp(b=b, f=tuple(rng.uniform(0.5, 2.0, p)), f_mats=tuple(mats),
                          noise=StudentTNoise(3.0))
        for seed in (1, 2, 3):
            np.testing.assert_array_equal(simulate(spec, n, burn_in, seed),
                                          reference_arch_path(spec, n, burn_in, seed))

    @pytest.mark.parametrize("p", [3, 10])
    def test_arch_var_diagonal_scales_within_round_off(self, p):
        # with several nonzero entries per diagonal F_j, (z * diag(F_j)) @ z may
        # sum its products in another order than z @ F_j @ z; each scale moves by
        # a few ulps, and the stable recursion keeps the path within round-off
        rng = np.random.default_rng(36 + p)
        b = rng.standard_normal((p, p))
        b *= 0.4 / np.linalg.norm(b, 2)
        mats = [np.diag(rng.uniform(0.0, 0.3 / p, p)) for _ in range(p)]
        spec = ArchVarDgp(b=b, f=tuple(rng.uniform(0.5, 2.0, p)), f_mats=tuple(mats),
                          noise=StudentTNoise(3.0))
        for seed in (1, 2, 3):
            path = simulate(spec, 200, 100, seed)
            want = reference_arch_path(spec, 200, 100, seed)
            assert np.abs(path - want).max() <= 1e-14 * np.abs(want).max()

    def test_rc_var_replays_its_recursion(self):
        # G is drawn after eta from the same stream; a step is (B' + G_t) @ z + eta_t
        rng = np.random.default_rng(37)
        p, n, burn_in, seed = 4, 80, 40, 38
        b = rng.standard_normal((p, p))
        b *= 0.4 / np.linalg.norm(b, 2)
        spec = RcVarDgp(b=b, gamma_sd=0.1, noise=StudentTNoise(3.0))
        draw = np.random.default_rng(seed)
        eta = sample_noise(spec.noise, (burn_in + n, p), draw)
        gammas = draw.normal(0.0, spec.gamma_sd, (burn_in + n, p, p))
        z, path = np.zeros(p), []
        for g, e in zip(gammas, eta):
            z = (b.T + g) @ z + e
            path.append(z)
        np.testing.assert_array_equal(simulate(spec, n, burn_in, seed), np.array(path)[burn_in:])

    @pytest.mark.parametrize("partition", [SignPartition(),
                                           IntervalPartition(axis=1, breakpoints=(0.0,))])
    def test_threshold_var_replays_its_recursion(self, partition):
        rng = np.random.default_rng(39)
        p, n, burn_in, seed = 3, 80, 40, 40
        bts = []
        for _ in range(2):
            a = rng.standard_normal((p, p))
            bts.append(np.ascontiguousarray(a.T) * (0.6 / np.linalg.norm(a, 2)))
        spec = ThresholdVarDgp(models=tuple(bt.T for bt in bts), partition=partition,
                               noise=StudentTNoise(3.0))
        eta = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
        z, path, regions = np.zeros(p), [], []
        for e in eta:
            regions.append(partition.region(z))
            z = bts[regions[-1]] @ z + e
            path.append(z)
        assert set(regions) == {0, 1}
        np.testing.assert_array_equal(simulate(spec, n, burn_in, seed), np.array(path)[burn_in:])

    def test_rc_var_zero_gamma_reduces_to_var(self):
        rng = np.random.default_rng(7)
        b = 0.4 * rng.standard_normal((2, 2))
        a = simulate(RcVarDgp(b=b, gamma_sd=0.0, noise=GaussianNoise(1.0)), 60, 5, seed=9)
        v = simulate(VarTDgp(VarModel((b,)), GaussianNoise(1.0)), 60, 5, seed=9)
        np.testing.assert_array_equal(a, v)

    def test_arch_var_custom_scale_callback(self):
        # user scale maps are accepted unchecked beyond linear-part stability
        spec = ArchVarDgp(
            b=np.eye(2) * 0.5,
            sigma_fn=lambda z: np.eye(2) * np.sqrt(1.0 + 0.5 * float(z @ z)),
            noise=GaussianNoise(1.0),
        )
        data = simulate(spec, 200, 50, seed=21)
        assert np.all(np.isfinite(data))
        with pytest.raises(StabilityError):
            ArchVarDgp(b=np.eye(2) * 1.1, sigma_fn=lambda z: np.eye(2))
        with pytest.raises(ValueError):
            ArchVarDgp(b=np.eye(2) * 0.5, f=(1.0, 1.0),
                       f_mats=(np.zeros((2, 2)),) * 2, sigma_fn=lambda z: np.eye(2))

    def test_bekk_runs_and_is_heteroskedastic(self):
        spec = BekkVarDgp(
            b=np.eye(2) * 0.3, c=np.eye(2) * 0.5, f=np.eye(2) * 0.6,
            noise=GaussianNoise(1.0),
        )
        data = simulate(spec, 500, 100, seed=10)
        assert np.all(np.isfinite(data))

    def test_threshold_var_regimes_respected(self):
        b_neg, b_pos = np.eye(1) * 0.9, np.eye(1) * -0.9
        spec = ThresholdVarDgp(models=(b_neg, b_pos), partition=SignPartition(),
                               noise=GaussianNoise(1.0))
        data = simulate(spec, 300, 50, seed=11)
        assert np.all(np.isfinite(data))

    def test_explosive_path_raises_with_step(self):
        spec = UnivariateArchDgp(b=(0.0,), d0=2.5e307, d=(0.999,), noise=GaussianNoise(1.0))
        with pytest.raises(SimulationError, match=r"at step 7$"):
            simulate(spec, 500, 0, seed=12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_failing_scale_names_its_step_without_warnings(self, bad):
        # the path keeps running after the failing step, so later steps see
        # non-finite states; the error must still name the first one
        k, calls = 23, []

        def sigma_fn(z):
            calls.append(1)
            return np.full(2, bad if len(calls) == k else 1.0)

        spec = ArchVarDgp(b=np.array([[0.5, 0.4], [-0.4, 0.5]]), sigma_fn=sigma_fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match=rf"at step {k}$"):
                simulate(spec, 50, 10, seed=3)

    def test_bad_args(self):
        spec = VarTDgp(VarModel((np.zeros((1, 1)),)), GaussianNoise(1.0))
        with pytest.raises(ValueError):
            simulate(spec, 0, 0, seed=0)
        with pytest.raises(ValueError):
            simulate(spec, 5, -1, seed=0)


def reference_path(spec, n, burn_in, seed):
    """The one-path VAR recursion written out: noise drawn in one block, then
    state = m @ state with the noise added to the leading p coordinates."""
    p = spec.model.p
    eps = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
    m = companion_matrix(spec.model)
    state = np.zeros(p * spec.model.d)
    rows = np.empty((burn_in + n, p))
    for t in range(burn_in + n):
        state = m @ state
        state[:p] += eps[t]
        rows[t] = state[:p]
    return rows[burn_in:]


def var_models(p, d, count):
    """``count`` different stable lag-d models of dimension p."""
    rng = np.random.default_rng(10 * p + d)
    return [VarModel(tuple(0.5 / d * m / np.linalg.norm(m, 2) for m in rng.standard_normal((d, p, p))))
            for _ in range(count)]


NOISES = {
    "t": StudentTNoise(2.5),
    "gaussian": GaussianNoise(2.0),
    "mixture": ScaleMixtureNoise(((0.9, 1.0), (0.1, 20.0))),
}


class TestSimulatePaths:
    @pytest.mark.parametrize("paths", [1, 5, 65])
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("p, d", [(2, 1), (2, 2), (10, 1), (10, 2), (50, 1), (50, 2)])
    def test_each_path_is_its_single_path(self, p, d, noise, paths):
        # five different processes, cycled, keep a 65-path stack cheap to build
        specs = [VarTDgp(model, NOISES[noise]) for model in var_models(p, d, min(paths, 5))]
        specs = [specs[r % len(specs)] for r in range(paths)]
        seeds = [1000 + 17 * r for r in range(paths)]
        stacked = simulate_paths(specs, 30, 25, seeds)
        assert len(stacked) == paths
        for spec, seed, path in zip(specs, seeds, stacked):
            np.testing.assert_array_equal(path, reference_path(spec, 30, 25, seed))
            np.testing.assert_array_equal(path, simulate(spec, 30, 25, seed))

    def test_diverging_path_fails_alone(self):
        # radius 0.5, but one step multiplies the second coordinate by 1e9,
        # so a 1e300-scale shock overflows within a few steps
        wild = VarTDgp(VarModel((np.array([[0.5, 0.0], [1e9, 0.5]]),)), GaussianNoise(1e300))
        tame = [VarTDgp(model, StudentTNoise(3.0)) for model in var_models(2, 1, 3)]
        specs, seeds = [tame[0], wild, tame[1], tame[2]], [5, 6, 7, 8]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            paths = simulate_paths(specs, 40, 10, seeds)
        with pytest.raises(SimulationError) as single:
            simulate(wild, 40, 10, 6)
        assert isinstance(paths[1], SimulationError)
        assert str(paths[1]) == str(single.value)
        assert str(paths[1]).startswith("non-finite state at step ")
        for k in (0, 2, 3):
            np.testing.assert_array_equal(paths[k], simulate(specs[k], 40, 10, seeds[k]))

    def test_bad_args(self):
        one = VarTDgp(VarModel((np.zeros((2, 2)),)))
        two = VarTDgp(VarModel((np.zeros((2, 2)), np.zeros((2, 2)))))
        assert simulate_paths([], 5, 0, []) == []
        with pytest.raises(ValueError, match="one dimension p and lag d"):
            simulate_paths([one, two], 5, 0, [1, 2])
        with pytest.raises(ValueError, match="2 processes but 1 seeds"):
            simulate_paths([one, one], 5, 0, [1])
        with pytest.raises(TypeError, match="VarTDgp"):
            simulate_paths([RcVarDgp(np.zeros((2, 2)), 0.1)], 5, 0, [1])
        with pytest.raises(ValueError, match="n must be at least 1"):
            simulate_paths([one], 0, 0, [1])


def reference_arch_path(spec, n, burn_in, seed):
    """The parametric ARCH-VAR recursion written out with one z @ F_j @ z per form."""
    p = spec.b.shape[0]
    eta = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
    bt, z, path = np.ascontiguousarray(spec.b.T), np.zeros(p), []
    for e in eta:
        sig = np.sqrt(np.asarray(spec.f) + np.array([z @ fm @ z for fm in spec.f_mats]))
        z = bt @ z
        z += sig * e
        path.append(z)
    return np.array(path)[burn_in:]


def eigh_root(c, u):
    """The symmetric PSD square root of C + uu' by eigendecomposition."""
    mat = c + np.outer(u, u)
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def reference_bekk_path(spec, n, burn_in, seed):
    """The BEKK recursion written out with the eigh root at every step."""
    p = spec.b.shape[0]
    eta = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
    bt = np.ascontiguousarray(spec.b.T)
    state = np.zeros(p)
    rows = np.empty((burn_in + n, p))
    for t in range(burn_in + n):
        state = bt @ state + eigh_root(spec.c, spec.f.T @ state) @ eta[t]
        rows[t] = state
    return rows[burn_in:]


class TestBekkScale:
    def test_square_root_reconstructs(self):
        rng = np.random.default_rng(13)
        p = 3
        f = 0.4 * rng.standard_normal((p, p)) / np.sqrt(p)
        b = np.eye(p) * 0.3
        # the closed form (C = c*I) and the eigh root (any other C)
        for c in (np.eye(p) * 0.4, np.diag([0.4, 0.5, 0.7])):
            spec = BekkVarDgp(b=b, c=c, f=f, noise=GaussianNoise(1.0))
            for _ in range(100):
                z = rng.standard_normal(p) * 3
                s = spec.scale_at(z)
                fz = f.T @ z
                want = c + np.outer(fz, fz)
                assert np.linalg.norm(s @ s - want) <= 1e-10

    @pytest.mark.parametrize("p", [1, 10])
    def test_closed_form_is_the_eigh_root(self, p):
        # C = c*I takes the closed form, here with u = F'z = z / 2.  The eigh
        # root's own error grows like eps * |u| relative, so |u| stays below ~100
        rng = np.random.default_rng(16 + p)
        for c in (0.3, 1.0, 2.5):
            spec = BekkVarDgp(b=np.eye(p) * 0.3, c=np.eye(p) * c, f=np.eye(p) * 0.5)
            us = [np.zeros(p)] + [rng.standard_normal(p) * 10.0 ** rng.uniform(-4, 1)
                                  for _ in range(200)]
            for u in us:
                want = eigh_root(spec.c, u)
                got = spec.scale_at(u / 0.5)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            np.testing.assert_array_equal(spec.scale_at(np.zeros(p)), np.sqrt(c) * np.eye(p))

    def test_general_c_is_the_eigh_recursion_bit_for_bit(self):
        rng = np.random.default_rng(17)
        spec = BekkVarDgp(b=[[0.3, 0.1], [0.0, 0.3]], c=np.diag([0.4, 0.7]),
                          f=[[0.4, 0.0], [0.1, 0.4]], noise=StudentTNoise(3.0))
        for _ in range(50):
            z = rng.standard_normal(2) * 3
            np.testing.assert_array_equal(spec.scale_at(z), eigh_root(spec.c, spec.f.T @ z))
        for seed in (1, 2, 3):
            np.testing.assert_array_equal(simulate(spec, 60, 40, seed),
                                          reference_bekk_path(spec, 60, 40, seed))

    @pytest.mark.parametrize("p", [2, 10])
    def test_scalar_c_path_is_the_eigh_recursion_within_round_off(self, p):
        rng = np.random.default_rng(18)
        f = 0.4 * rng.standard_normal((p, p)) / np.sqrt(p)
        spec = BekkVarDgp(b=np.eye(p) * 0.3, c=np.eye(p) * 0.6, f=f, noise=StudentTNoise(3.0))
        for seed in (1, 2, 3):
            path = simulate(spec, 200, 100, seed)
            want = reference_bekk_path(spec, 200, 100, seed)
            assert np.abs(path - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("p", [2, 10])
    def test_scalar_c_path_replays_the_closed_form_step(self, p):
        # B'z and u = F'z from one product, then sqrt(c)*eta + (u'eta / (sqrt(c + u'u) + sqrt(c)))*u
        rng = np.random.default_rng(41)
        f = 0.4 * rng.standard_normal((p, p)) / np.sqrt(p)
        b = 0.3 * np.eye(p) + 0.1 * np.eye(p, k=1)
        c, n, burn_in = 0.6, 200, 100
        spec = BekkVarDgp(b=b, c=np.eye(p) * c, f=f, noise=StudentTNoise(3.0))
        bft, root_c = np.ascontiguousarray(np.vstack([b.T, f.T])), np.sqrt(c)
        for seed in (1, 2, 3):
            eta = sample_noise(spec.noise, (burn_in + n, p), np.random.default_rng(seed))
            z, path = np.zeros(p), []
            for e in eta:
                w = bft @ z
                z, u = w[:p], w[p:]
                z += root_c * e
                z += ((u @ e) / (np.sqrt(c + u @ u) + root_c)) * u
                path.append(z)
            np.testing.assert_array_equal(simulate(spec, n, burn_in, seed),
                                          np.array(path)[burn_in:])

    @pytest.mark.parametrize("c", [np.eye(2), np.eye(10), np.diag([0.4, 0.5, 0.7])],
                             ids=["scalar_p2", "scalar_p10", "general_p3"])
    def test_an_overflowing_path_names_its_step_without_warnings(self, c):
        # eigh does not converge on a non-finite matrix; that is a failed path too
        p = len(c)
        spec = BekkVarDgp(b=np.eye(p) * 0.5, c=c, f=np.eye(p) * 0.1, noise=GaussianNoise(1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match=r"at step 2$"):
                simulate(spec, 50, 10, seed=1)

    def test_an_overflowing_scale_fails_the_path(self):
        # step 1 makes z_1 ~ 1e155 in the first coordinate; at step 2 F moves it
        # into u, whose square overflows while u'eta stays finite (eta_2 is tiny).
        # The path must fail there rather than drop the scale's rank-one part.
        spec = BekkVarDgp(b=np.eye(2) * 0.3, c=np.eye(2), f=[[0.0, 0.4], [0.0, 0.0]],
                          noise=GaussianNoise((1e155, 1e-10)))
        with np.errstate(over="ignore"):
            assert np.isnan(spec.scale_at(np.array([1e155, 0.0]))).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match=r"at step 2$"):
                simulate(spec, 50, 10, seed=1)


class TestPartitions:
    def test_exactly_one_region_fires(self):
        rng = np.random.default_rng(14)
        parts = [SignPartition(), IntervalPartition(axis=1, breakpoints=(-1.0, 0.5, 2.0))]
        for part in parts:
            for _ in range(10**4):
                z = rng.standard_normal(3) * 2
                f = indicator_map(part, z)
                blocks = f.reshape(part.n_regions, 3)
                nonzero_blocks = np.count_nonzero(np.linalg.norm(blocks, axis=1))
                assert nonzero_blocks == (1 if np.any(z != 0) else 0)
                assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(z), rel=1e-15)

    def test_interval_partition_regions(self):
        part = IntervalPartition(axis=0, breakpoints=(0.0,))
        assert part.region(np.array([-1.0])) == 0
        assert part.region(np.array([1.0])) == 1

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            IntervalPartition(axis=0, breakpoints=(1.0, 0.0))

    def test_region_count_must_match(self):
        with pytest.raises(ValueError):
            ThresholdVarDgp(models=(np.eye(2) * 0.5,), partition=SignPartition())

    @pytest.mark.parametrize("axis", [-1, 1.0, True])
    def test_axis_must_be_a_nonnegative_integer(self, axis):
        with pytest.raises(ValueError, match="axis must be a nonnegative integer"):
            IntervalPartition(axis=axis, breakpoints=(0.0,))

    @pytest.mark.parametrize("region", [-1, 2, 5, 1.0])
    def test_invalid_region_rejected(self, region):
        # a custom partition whose region is not an index in [0, n_regions):
        # the threshold step rejects it as the indicator map does, rather
        # than picking a regime by negative indexing or failing on the list
        class BadPartition:
            n_regions = 2

            def region(self, z):
                return region

        spec = ThresholdVarDgp(models=(np.eye(2) * 0.5, np.eye(2) * 0.3), partition=BadPartition())
        message = f"^partition returned invalid region {region}$"
        with pytest.raises(ValueError, match=message):
            indicator_map(BadPartition(), np.ones(2))
        with pytest.raises(ValueError, match=message):
            simulate(spec, 5, 0, seed=0)

    def test_axis_checked_against_dimension(self):
        regimes = (np.eye(2) * 0.5, np.eye(2) * 0.3)
        ThresholdVarDgp(models=regimes, partition=IntervalPartition(axis=1, breakpoints=(0.0,)))
        with pytest.raises(ValueError, match=r"^partition axis must be in \[0, 2\), got 2$"):
            ThresholdVarDgp(models=regimes, partition=IntervalPartition(axis=2, breakpoints=(0.0,)))


class TestNoiseDimension:
    @pytest.mark.parametrize(
        "make",
        [
            lambda noise: VarTDgp(VarModel((np.eye(2) * 0.5,)), noise),
            lambda noise: ArchVarDgp(b=np.eye(2) * 0.5, f=(1.0, 1.0),
                                     f_mats=(np.eye(2) * 0.1,) * 2, noise=noise),
            lambda noise: BekkVarDgp(b=np.eye(2) * 0.5, c=np.eye(2), f=np.eye(2) * 0.1,
                                     noise=noise),
            lambda noise: ThresholdVarDgp(models=(np.eye(2) * 0.5,) * 2, noise=noise),
            lambda noise: RcVarDgp(b=np.eye(2) * 0.5, gamma_sd=0.1, noise=noise),
        ],
        ids=["var_t", "arch_var", "bekk_var", "threshold_var", "rc_var"],
    )
    def test_sd_vector_must_match_p(self, make):
        make(GaussianNoise((1.0, 2.0)))
        make(GaussianNoise(2.0))
        with pytest.raises(ValueError, match="noise sd has 3 entries, the process has p=2"):
            make(GaussianNoise((1.0, 2.0, 3.0)))

    def test_univariate_arch_takes_one_sd(self):
        UnivariateArchDgp(b=(0.5,), d0=1.0, d=(0.1,), noise=GaussianNoise((2.0,)))
        with pytest.raises(ValueError, match="noise sd has 2 entries, the process has p=1"):
            UnivariateArchDgp(b=(0.5,), d0=1.0, d=(0.1,), noise=GaussianNoise((1.0, 2.0)))


class TestRcSecondMoment:
    def test_kron_expectation_matches_monte_carlo(self):
        rng = np.random.default_rng(15)
        p, gamma = 2, 0.5
        acc = np.zeros((p * p, p * p))
        n = 20000
        for _ in range(n):
            g = rng.normal(0.0, gamma, (p, p))
            acc += np.kron(g, g)
        vec_eye = np.eye(p).reshape(-1)
        want = gamma**2 * np.outer(vec_eye, vec_eye)
        assert np.linalg.norm(acc / n - want) <= 0.02


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((20, 3))
        path = tmp_path / "series.csv"
        write_series_csv(data, path)
        np.testing.assert_array_equal(read_series_csv(path), data)

    def test_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(np.zeros((2, 2)), path)
        assert path.read_text().splitlines()[0] == "t,z1,z2"

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,z1,z2\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_series_csv(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,z1,z2\n0,1.0,2.0\n1,3.0\n2,4.0,5.0\n")
        with pytest.raises(ValueError, match="line 3 has 1 values, the header names 2"):
            read_series_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,z1,z2\nfirst,1.0,x\n")
        with pytest.raises(ValueError, match="^line 2, column z2: 'x' is not a number$"):
            read_series_csv(path)
