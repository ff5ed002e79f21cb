import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from relreparam import dynamics, gmm
from relreparam.gmm import MixtureError, make_rng, sample, unit_variance_pair
from relreparam.dynamics import (TrueModel, UVWState, base_partials,
                                 expected_velocity_original,
                                 expected_velocity_relative, flow_field,
                                 integrate_gd, velocity_in_means)

from childproc import REDUCED_SIMD_CLASSES, assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import (exact_mean_gradient, exact_partials_per_sample, integrate_gd_per_step,
                     means_from_uvw, original_gram, relative_gram, relative_jacobian,
                     uvw_from_means)

TRUTH0 = TrueModel.from_means(0.0, 0.0)
STATE_ENTRY_POINTS = [base_partials, expected_velocity_original, expected_velocity_relative]


def transcribed_relative_jacobian(v, mu1, delta):
    """The relative Jacobian in its transcription form, kept only so its

    discrepancy against the derived one can be measured. Its Gram product is
    incompatible with any valid coordinate change.
    """
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [mu1 - delta, v + 1.0 - delta, 1.0 - v - mu1]])


def bracket_integrands(v, u, w, xs):
    """Straight-line transcription of the three series integrands in x."""
    a = (xs - w) ** 2 - 1.0
    c = (xs - w) ** 3 + 3.0 * (w - xs)
    b = -c
    e_v = -0.5 * u ** 2 * (2 * v - 1) * a - 0.5 * u ** 3 * (6 * v ** 2 - 6 * v + 1) * b
    e_u = u * (1 - v) * v * a + 1.5 * u ** 2 * v * (2 * v ** 2 - 3 * v + 1) * c
    e_w = (xs - w) + u ** 2 * (1 - v) * v * (w - xs) \
        - 1.5 * u ** 3 * v * (2 * v ** 2 - 3 * v + 1) * a
    return e_v, e_u, e_w


class TestBasePartials:
    def test_u_zero_kills_v_and_u_partials(self):
        st = UVWState(v=0.3, u=0.0, w=0.7)
        e_v, e_u, _ = base_partials(st, TRUTH0)
        assert e_v == 0.0
        assert e_u == 0.0

    def test_w_at_true_mean_kills_w_partial(self):
        st = UVWState(v=0.3, u=0.0, w=0.0)
        assert base_partials(st, TRUTH0)[2] == 0.0

    def test_monte_carlo_of_same_integrand(self):
        rng = make_rng(314)
        xs = sample(TRUTH0.params, 10 ** 6, seed=314).points
        for _ in range(5):
            v = float(rng.uniform(0.2, 0.8))
            u = float(rng.uniform(-1.0, 1.0))
            w = float(rng.uniform(-0.5, 0.5))
            closed = base_partials(UVWState(v=v, u=u, w=w), TRUTH0)
            draws = bracket_integrands(v, u, w, xs)
            for got, dr in zip(closed, draws):
                se = dr.std(ddof=1) / np.sqrt(len(xs))
                assert abs(got - dr.mean()) < 4 * max(se, 1e-12)


class TestExpectedVelocityOriginal:
    def test_stationary_on_singular_line_at_truth(self):
        st = UVWState(v=0.3, u=0.0, w=0.0)
        assert expected_velocity_original(st, TRUTH0) == (0.0, 0.0, 0.0)

    def test_balanced_mixture_u_velocity_reduces(self):
        st = UVWState(v=0.5, u=0.4, w=0.2)
        e_v, e_u, e_w = base_partials(st, TRUTH0)
        _, du, _ = expected_velocity_original(st, TRUTH0, eta=1.0)
        assert du == pytest.approx(2 * e_u, abs=1e-15)

    def test_monte_carlo_chain_rule_oracle(self):
        # exact scores per sample -> Jacobian-combined expectation near the
        # singular line, where the series truncation bias is below MC noise
        st = uvw_from_means(0.5, -0.03, 0.05)
        xs = sample(TRUTH0.params, 10 ** 6, seed=2718).points
        per = exact_partials_per_sample(st, xs) @ original_gram(st).T
        closed = np.array(expected_velocity_original(st, TRUTH0, eta=1.0))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(closed - per.mean(axis=0)) < 4 * se)


class TestExpectedVelocityRelative:
    def test_delta_zero_matches_original_stationarity(self):
        st = UVWState(v=0.4, u=0.0, w=0.0, parameterization="relative")
        assert expected_velocity_relative(st, TRUTH0) == (0.0, 0.0, 0.0)

    def test_monte_carlo_chain_rule_oracle(self):
        xs = sample(TRUTH0.params, 10 ** 6, seed=161).points
        st = UVWState(v=0.5, u=0.12, w=0.25, parameterization="relative")
        per = exact_partials_per_sample(st, xs) @ relative_gram(st.v, st.u).T
        closed = np.array(expected_velocity_relative(st, TRUTH0, eta=1.0))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(closed - per.mean(axis=0)) < 4 * se)

    def test_gram_matches_finite_difference_jacobian(self):
        # coordinate map (v, mu1, Delta) -> (v, Delta, w')
        v, mu1, delta = 0.35, 1.2, 0.8
        step = 1e-6

        def coord_map(theta):
            vv, m1, d = theta
            return np.array([vv, d, m1 + (1 - vv) * d])

        theta = np.array([v, mu1, delta])
        fd = np.zeros((3, 3))
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            fd[:, j] = (coord_map(tp) - coord_map(tm)) / (2 * step)
        jac = relative_jacobian(v, delta)
        assert np.allclose(jac, fd, atol=1e-9)
        gram = relative_gram(v, delta)
        assert np.allclose(gram, jac @ jac.T, atol=0.0)
        assert np.allclose(gram, gram.T, atol=0.0)

    def test_velocities_use_the_oracle_grams(self):
        # the Jacobian rows written inline in dynamics against the numpy
        # J J^T of tests/oracles.py
        truth = TrueModel.from_means(-0.3, 0.4, v=0.3)
        for v, u, w in ((0.35, 0.8, 0.3), (0.5, 0.12, -0.25), (0.3, 1.7, 1.1)):
            st = UVWState(v=v, u=u, w=w)
            got = expected_velocity_original(st, truth, eta=0.7)
            want = 0.7 * original_gram(st) @ np.array(base_partials(st, truth))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
            # relative: partials at u = -Delta, the u-partial with flipped sign
            grad = np.array(base_partials(UVWState(v=v, u=-u, w=w), truth)) * (1.0, -1.0, 1.0)
            st = UVWState(v=v, u=u, w=w, parameterization="relative")
            got = expected_velocity_relative(st, truth, eta=0.7)
            assert np.allclose(got, 0.7 * relative_gram(v, u) @ grad, rtol=1e-13, atol=1e-15)

    def test_transcribed_jacobian_is_inconsistent(self):
        # the transcription variant does not reproduce the coordinate map;
        # its discrepancy against the derived Jacobian is order one
        v, mu1, delta = 0.35, 1.2, 0.8
        diff = np.abs(transcribed_relative_jacobian(v, mu1, delta)
                      - relative_jacobian(v, delta))
        assert diff.max() > 0.1


class TestFlowField:
    def test_fig1_top_smoke(self):
        tm = TRUTH0
        ff = flow_field((-2.0, 2.0, 1.0), (-2.0, 2.0, 1.0), 0.5, tm)
        assert ff.dmu1.shape == (5, 5)
        assert np.all(np.isfinite(ff.dmu1)) and np.all(np.isfinite(ff.dmu2))

    def test_antisymmetry_under_label_swap(self):
        ff = flow_field((-2.0, 2.0, 0.5), (-2.0, 2.0, 0.5), 0.5, TRUTH0, "original")
        n = ff.mu1_axis.size
        for i in range(n):
            for j in range(n):
                # cell (mu1, mu2) vs swapped cell (mu2, mu1)
                assert ff.dmu1[i, j] == pytest.approx(ff.dmu2[j, i], abs=1e-12)

    def test_pointwise_reevaluation(self):
        # the per-cell scalar calls are the oracle of the one-call grid:
        # bit-identical, tolerance zero, on the default grid and the far one.
        # v = 0.3 too: at v = 0.5 the u^3 term of e_w vanishes, and an array
        # path that took its cubes with numpy's `**` still matched there.
        for spec, truth in (((-2.0, 2.0, 0.1), (0.0, 0.0)),
                            ((10.0, 30.0, 0.5), (20.0, 20.0))):
            tm = TrueModel.from_means(*truth)
            for v, mode in itertools.product((0.5, 0.3), ("original", "relative")):
                ff = flow_field(spec, spec, v, tm, mode)
                assert ff.dmu1.shape == (41, 41)
                for i, m2 in enumerate(ff.mu2_axis):
                    for j, m1 in enumerate(ff.mu1_axis):
                        d1, d2, r = velocity_in_means(v, float(m1), float(m2), tm, mode)
                        assert ff.dmu1[i, j] == d1
                        assert ff.dmu2[i, j] == d2
                        assert ff.reflected[i, j] == r

    def test_relative_reflection_marked(self):
        ff = flow_field((-1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), 0.5, TRUTH0, "relative")
        g1, g2 = np.meshgrid(ff.mu1_axis, ff.mu2_axis)
        assert np.array_equal(ff.reflected, g2 < g1)

    def test_gradient_norm_band_claim(self):
        # near the diagonal the relative-mode field is at least as strong
        fo = flow_field((-2.0, 2.0, 0.1), (-2.0, 2.0, 0.1), 0.5, TRUTH0, "original")
        fr = flow_field((-2.0, 2.0, 0.1), (-2.0, 2.0, 0.1), 0.5, TRUTH0, "relative")
        g1, g2 = np.meshgrid(fo.mu1_axis, fo.mu2_axis)
        band = np.abs(g1 - g2) < 0.2
        norm_o = np.hypot(fo.dmu1, fo.dmu2)[band].mean()
        norm_r = np.hypot(fr.dmu1, fr.dmu2)[band].mean()
        assert norm_r >= norm_o

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_overflowing_grid_warns_nothing(self, mode):
        # cubes of 1e103 overflow; the entry points keep numpy's warnings in
        spec = (-1.0e103, 1.0e103, 1.0e102)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ff = flow_field(spec, spec, 0.5, TRUTH0, mode)
            assert not np.all(np.isfinite(ff.dmu1))
            g1, g2 = np.meshgrid(ff.mu1_axis, ff.mu2_axis)
            for args in ((g1, g2), (-1.0e103, 1.0e103), (1.0e103, -9.0e102)):
                velocity_in_means(0.3, *args, TRUTH0, mode)

    def test_rejects_bad_grid(self):
        with pytest.raises(MixtureError):
            flow_field((0.0, 1.0, 0.0), (0.0, 1.0, 0.5), 0.5, TRUTH0)
        with pytest.raises(MixtureError):
            flow_field((1.0, 0.0, 0.5), (0.0, 1.0, 0.5), 0.5, TRUTH0)


class TestCoordinateMaps:
    def test_roundtrip_original(self):
        rng = make_rng(8)
        for _ in range(50):
            v = float(rng.uniform(0.1, 0.9))
            m1, m2 = rng.normal(0, 3, 2)
            st = uvw_from_means(v, float(m1), float(m2))
            b1, b2 = means_from_uvw(st)
            assert abs(b1 - m1) < 1e-14 and abs(b2 - m2) < 1e-14

    def test_roundtrip_relative(self):
        rng = make_rng(9)
        for _ in range(50):
            v = float(rng.uniform(0.1, 0.9))
            mu1 = float(rng.normal(0, 3))
            delta = float(rng.random() * 4)
            wprime = mu1 + (1 - v) * delta
            st = UVWState(v=v, u=delta, w=wprime, parameterization="relative")
            b1, b2 = means_from_uvw(st)
            assert abs(b1 - mu1) < 1e-13 and abs(b2 - (mu1 + delta)) < 1e-13


class TestIntegrateGd:
    def test_stationary_at_truth(self):
        traj = integrate_gd((0.0, 0.0), TRUTH0, eta=0.1, steps=10)
        assert np.all(traj.mu1 == 0.0) and np.all(traj.mu2 == 0.0)
        assert not traj.diverged

    def test_eta_linearity_on_first_step(self):
        full = integrate_gd((-0.4, 0.7), TRUTH0, eta=0.02, steps=1)
        half = integrate_gd((-0.4, 0.7), TRUTH0, eta=0.01, steps=1)
        move_full = full.mu1[1] - full.mu1[0]
        move_half = half.mu1[1] - half.mu1[0]
        assert move_full == pytest.approx(2 * move_half, rel=1e-6)

    def test_relative_not_worse_from_symmetric_init(self):
        orig = integrate_gd((-1.5, 1.5), TRUTH0, eta=0.01, steps=200,
                            parameterization="original")
        rel = integrate_gd((-1.5, 1.5), TRUTH0, eta=0.01, steps=200,
                           parameterization="relative")
        assert rel.dist_to_true[-1] <= orig.dist_to_true[-1] + 1e-12

    def test_empirical_mode_increases_sample_likelihood(self):
        truth = TrueModel.from_means(-1.0, 1.0)
        data = sample(truth.params, 300, seed=44)
        for mode in ("original", "relative"):
            traj = integrate_gd((-0.5, 0.5), data, eta=0.05, steps=100,
                                parameterization=mode)
            assert traj.loglik[-1] > traj.loglik[0]
            assert not traj.diverged

    def test_divergence_flagged(self):
        traj = integrate_gd((-1.5, 1.2), TRUTH0, eta=0.05, steps=200,
                            parameterization="original")
        assert traj.diverged
        assert np.all(np.isfinite(traj.mu1))

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_divergence_warns_nothing(self, mode):
        # Trajectory.diverged reports it; numpy's overflow warnings are not raised
        data = sample(TRUTH0.params, 200, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert integrate_gd((-1.5, 1.2), TRUTH0, eta=0.05, steps=200,
                                parameterization=mode).diverged
            assert integrate_gd((-1.5, 1.5), data, eta=50.0, steps=200,
                                parameterization=mode).diverged

    def test_rejects_bad_arguments(self):
        with pytest.raises(MixtureError):
            integrate_gd((0.0, 1.0), TRUTH0, eta=0.0, steps=5)
        with pytest.raises(MixtureError):
            integrate_gd((0.0, 1.0), TRUTH0, eta=0.1, steps=0)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
    def test_steps_must_be_an_integer(self, steps):
        # 2.5 raised a TypeError from range
        with pytest.raises(MixtureError, match="steps must be an integer"):
            integrate_gd((0.0, 1.0), TRUTH0, eta=0.1, steps=steps)

    def test_takes_a_numpy_integer_step_count(self):
        got = integrate_gd((-0.4, 0.7), TRUTH0, eta=0.02, steps=np.int64(3))
        want = integrate_gd((-0.4, 0.7), TRUTH0, eta=0.02, steps=3)
        assert got.n_steps == 3
        assert np.array_equal(got.mu1, want.mu1) and np.array_equal(got.mu2, want.mu2)

    def test_rejects_unknown_gradient_source(self):
        # the source is the data argument: a TrueModel or a Dataset, nothing else
        points = sample(TRUTH0.params, 50, seed=1).points
        for source in (TRUTH0.params, points, list(points), "empirical", None):
            with pytest.raises(MixtureError, match="gradient source"):
                integrate_gd((0.0, 1.0), source, eta=0.1, steps=5)


class TestIntegrateGdOracle:
    """integrate_gd against the per-step loop in tests/oracles.py, which
    records each iterate's diagnostics inside the loop: every array equal."""

    DATA = sample(TrueModel.from_means(-1.0, 1.0).params, 300, seed=44)

    @staticmethod
    def assert_same(init, source, eta, steps, mode, name, v=0.5):
        traj = integrate_gd(init, source, eta, steps, parameterization=mode, v=v)
        want = integrate_gd_per_step(init, source, eta, steps, mode, name, v=v)
        for field in ("mu1", "mu2", "delta", "loglik", "dist_to_true"):
            got, expected = getattr(traj, field), getattr(want, field)
            assert got.dtype == expected.dtype, field
            assert np.array_equal(got, expected, equal_nan=True), field
        assert (traj.diverged, traj.parameterization) == (want.diverged, want.parameterization)
        return traj

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_expected(self, mode):
        self.assert_same((-1.5, 1.5), TRUTH0, 0.05, 200, mode, "expected")
        self.assert_same((0.9, -0.7), TrueModel.from_means(-0.3, 0.4, v=0.3),
                         0.1, 50, mode, "expected", v=0.3)

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_expected_long(self, mode):
        # 1,001 iterates: full blocks of the log-likelihood pass and a partial last one
        self.assert_same((-1.5, 1.5), TRUTH0, 0.05, 1000, mode, "expected")
        self.assert_same((0.4, -0.3), TrueModel.from_means(-0.1, 0.2, v=0.3),
                         0.05, 1000, mode, "expected", v=0.3)

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_empirical(self, mode):
        self.assert_same((-0.5, 0.5), self.DATA, 0.05, 100, mode, "empirical")
        self.assert_same((0.8, -0.2), self.DATA, 0.2, 30, mode, "empirical", v=0.3)
        # the benchmark's empirical gd run: 10^4 points, 100 steps
        self.assert_same((-1.5, 1.5), sample(TRUTH0.params, 10_000, seed=0), 0.05, 100,
                         mode, "empirical")

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_diverging(self, mode):
        traj = self.assert_same((-1.5, 1.2), TRUTH0, 0.05, 200, mode, "expected")
        assert traj.diverged
        # the last finite iterate as the last step, and one step more
        assert not self.assert_same((-1.5, 1.2), TRUTH0, 0.05, traj.n_steps, mode,
                                    "expected").diverged
        assert self.assert_same((-1.5, 1.2), TRUTH0, 0.05, traj.n_steps + 1, mode,
                                "expected").diverged
        with np.errstate(all="ignore"):
            traj = self.assert_same((-1.5, 1.5), self.DATA, 50.0, 200, mode, "empirical")
        assert traj.diverged and traj.n_steps < 200

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        """The oracle cases above in a child interpreter without numpy's
        AVX-512 kernels: the blocked pass and the per-iterate one still agree."""
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


def assert_close_columns(traj, want, rtol):
    """Same rows and flags, and every column within rtol relative (equal
    infinities and NaNs agree)."""
    assert (traj.n_steps, traj.diverged) == (want.n_steps, want.diverged)
    for field in ("mu1", "mu2", "delta", "loglik", "dist_to_true"):
        got, expected = getattr(traj, field), getattr(want, field)
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=0.0, equal_nan=True,
                                   err_msg=field)


class TestSeriesAgainstExactGradient:
    """The closed-form velocities are a cubic series around the u = 0
    singularity. Against the exact expected mean gradient (201-node
    Gauss-Hermite over the true components) their error is second order in
    u: within 0.6 u^2 on this grid (0.48 u^2 measured), plus 1e-12 for the
    quadrature's rounding at u = 0, where the series is exact."""

    @pytest.mark.parametrize("truth", [(0.0, 0.0), (-0.3, 0.4), (-1.0, 1.0)])
    @pytest.mark.parametrize("v", [0.3, 0.5, 0.7])
    def test_error_within_0_6_u_squared(self, v, truth):
        true = TrueModel.from_means(*truth)
        for u, w in itertools.product(np.linspace(-0.4, 0.4, 17), np.linspace(-0.3, 0.3, 7)):
            mu1, mu2 = w + (1.0 - v) * u, w - v * u
            d1, d2, _ = velocity_in_means(v, mu1, mu2, true, "original", 1.0)
            exact = exact_mean_gradient(unit_variance_pair(mu1, mu2, v), true)
            err = max(abs(d1 - exact[0]), abs(d2 - exact[1]))
            assert err <= 0.6 * u * u + 1e-12, (u, w, err)

    def test_default_gd_start_is_a_series_fixed_point_only(self):
        # the shipped gd config: start (-1.5, 1.5), truth (0, 0), v = 0.5.
        # Every centred moment of N(0, 1) the series uses vanishes on w = 0,
        # so the series does not move; the exact gradient is not zero
        d1, d2, _ = velocity_in_means(0.5, -1.5, 1.5, TRUTH0, "original", 1.0)
        assert (d1, d2) == (0.0, 0.0)
        exact = exact_mean_gradient(unit_variance_pair(-1.5, 1.5), TRUTH0)
        assert exact == pytest.approx([0.4055, -0.4055], abs=5e-5)


class TestIntegrateGdRowMajorOracle:
    """Empirical integrate_gd, which averages component-major score rows
    along their contiguous axis, against the per-step loop averaging the
    C-contiguous (n, K) scores over axis 0: the same means summed in another
    order, so each column agrees to 1e-12 relative, not bit for bit."""

    TRUTH = TrueModel.from_means(0.0, 0.0)  # the shipped gd config's truth and start
    INIT = (-1.5, 1.5)

    @pytest.mark.parametrize("n, steps", [(200, 200), (10000, 100)],
                             ids=["default", "n1e4"])
    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_within_1e_12(self, mode, n, steps):
        data = sample(self.TRUTH.params, n, seed=0)
        traj = integrate_gd(self.INIT, data, 0.05, steps, parameterization=mode)
        want = integrate_gd_per_step(self.INIT, data, 0.05, steps, mode, "empirical",
                                     row_major=True)
        assert not traj.diverged and traj.n_steps == steps
        assert_close_columns(traj, want, 1e-12)

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_diverging(self, mode):
        # eta = 50 amplifies the last-digit differences step by step; the
        # largest relative move measured was 6.4e-13 (relative mode, 94 steps)
        data = sample(self.TRUTH.params, 200, seed=0)
        with np.errstate(all="ignore"):
            traj = integrate_gd(self.INIT, data, 50.0, 200, parameterization=mode)
            want = integrate_gd_per_step(self.INIT, data, 50.0, 200, mode, "empirical",
                                         row_major=True)
        assert traj.diverged
        assert_close_columns(traj, want, 1e-12)

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


class TestDensityPasses:
    """Passes over the points, counted at gmm.log_component_densities as in
    test_ecm's TestOnePassPerIteration, and at the row scorer that the
    empirical step calls, dynamics._score_rows."""

    DATA = TestIntegrateGdOracle.DATA

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        densities, score_rows = gmm.log_component_densities, dynamics._score_rows

        def counting(params, x):
            calls.append(np.size(x))
            return densities(params, x)

        def counting_rows(params, xs, *buffers):
            calls.append(np.size(xs))
            return score_rows(params, xs, *buffers)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        monkeypatch.setattr(dynamics, "_score_rows", counting_rows)
        return calls

    @pytest.mark.parametrize("init", [(-0.5, 0.5), (0.8, -0.2)], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_empirical_one_pass_per_step(self, monkeypatch, mode, init):
        calls = self.counted(monkeypatch)
        integrate_gd(init, self.DATA, 0.2, 30, parameterization=mode, v=0.3)
        # one per step, one for the final iterate, and one for an unsorted
        # start in relative mode, whose step takes the sorted means
        unsorted_start = mode == "relative" and init[0] > init[1]
        assert len(calls) == 30 + 1 + unsorted_start
        assert set(calls) == {self.DATA.n}

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_empirical_diverged_run_has_no_final_pass(self, monkeypatch, mode):
        calls = self.counted(monkeypatch)
        traj = integrate_gd((-1.5, 1.5), self.DATA, 50.0, 200, parameterization=mode)
        assert traj.diverged
        # the step that diverged made a pass at the last recorded iterate
        assert len(calls) == traj.n_steps + 1

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_expected_passes_do_not_grow_with_steps(self, monkeypatch, mode):
        calls = self.counted(monkeypatch)
        widths = []
        original = dynamics.log_density_means

        def recording(weights, sigmas, means, x):
            widths.append(means.shape[1])
            return original(weights, sigmas, means, x)

        monkeypatch.setattr(dynamics, "log_density_means", recording)
        for steps in (10, 1000):
            widths.clear()
            integrate_gd((-1.5, 1.5), TRUTH0, 0.05, steps, parameterization=mode)
            assert calls == [], steps  # no log_density call per iterate
            # each iterate once per true component, in blocks
            n_blocks = math.ceil((steps + 1) / dynamics._LOGLIK_BLOCK)
            assert len(widths) == 2 * n_blocks
            assert sum(widths) == 2 * (steps + 1)


@pytest.mark.parametrize("mode", ["original", "relative"])
def test_expected_integrate_gd_memory_bounded(mode):
    """The blocked log-likelihood pass keeps a 1,000-step run's transient
    allocations (tracemalloc's peak) under 2 MiB."""
    integrate_gd((-1.5, 1.5), TRUTH0, 0.05, 1000, parameterization=mode)
    tracemalloc.start()
    try:
        integrate_gd((-1.5, 1.5), TRUTH0, 0.05, 1000, parameterization=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("mode", ["original", "relative"])
def test_empirical_step_allocates_nothing_of_the_sample_size(mode, monkeypatch):
    """The empirical step's buffers are made once per call: from one
    row-scorer call to the next, a whole step allocates (tracemalloc's peak
    above the memory then in use) under a tenth of one sample-sized vector."""
    n = 10 ** 5
    data = sample(TRUTH0.params, n, seed=1)
    growth, start, score_rows = [], [], dynamics._score_rows

    def measured(*args):
        current, peak = tracemalloc.get_traced_memory()
        if start:
            growth.append(peak - start[-1])
        tracemalloc.reset_peak()
        start.append(current)
        return score_rows(*args)

    monkeypatch.setattr(dynamics, "_score_rows", measured)
    tracemalloc.start()
    try:
        integrate_gd((-0.5, 0.5), data, 0.05, 10, parameterization=mode)
    finally:
        tracemalloc.stop()
    assert len(growth) == 9
    assert max(growth) < 8 * n // 10


@pytest.mark.parametrize("name", ["Original", "orig", "RELATIVE", ""])
class TestRejectsUnknownParameterization:
    """Only the exact names select a mode; anything else must not fall
    through to relative mode under the given label."""

    def test_flow_field(self, name):
        with pytest.raises(MixtureError):
            flow_field((-1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), 0.5, TRUTH0, name)

    def test_velocity_in_means(self, name):
        with pytest.raises(MixtureError):
            velocity_in_means(0.5, -1.0, 1.0, TRUTH0, name)

    def test_integrate_gd(self, name):
        with pytest.raises(MixtureError):
            integrate_gd((-1.0, 1.0), TRUTH0, eta=0.1, steps=5, parameterization=name)
        data = sample(TRUTH0.params, 50, seed=1)
        with pytest.raises(MixtureError):
            integrate_gd((-1.0, 1.0), data, eta=0.1, steps=5, parameterization=name)

    @pytest.mark.parametrize("entry", STATE_ENTRY_POINTS)
    def test_state_entry_points(self, name, entry):
        with pytest.raises(MixtureError):
            entry(UVWState(v=0.5, u=0.1, w=0.0, parameterization=name), TRUTH0)


class TestBoundaryChecks:
    """Every public entry point rejects a v outside (0, 1), a negative Delta
    and a state of the other parameterization with MixtureError; the
    private chain behind them checks nothing."""

    @pytest.mark.parametrize("v", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_v_outside_unit_interval(self, v):
        for mode, entry in itertools.product(dynamics.PARAMETERIZATIONS, STATE_ENTRY_POINTS):
            with pytest.raises(MixtureError):
                entry(UVWState(v=v, u=0.1, w=0.0, parameterization=mode), TRUTH0)
        for mode in dynamics.PARAMETERIZATIONS:
            with pytest.raises(MixtureError):
                velocity_in_means(v, -1.0, 1.0, TRUTH0, mode)
            with pytest.raises(MixtureError):
                velocity_in_means(v, np.array([-1.0, 0.5]), np.array([1.0, 0.2]), TRUTH0, mode)
            with pytest.raises(MixtureError):
                flow_field((-1.0, 1.0, 0.5), (-1.0, 1.0, 0.5), v, TRUTH0, mode)
            with pytest.raises(MixtureError):
                integrate_gd((-1.0, 1.0), TRUTH0, eta=0.1, steps=5, parameterization=mode, v=v)

    @pytest.mark.parametrize("delta", [-0.1, np.array([0.2, -1e-300])])
    def test_negative_delta_in_relative_state(self, delta):
        for entry in STATE_ENTRY_POINTS:
            with pytest.raises(MixtureError, match="Delta"):
                entry(UVWState(v=0.5, u=delta, w=0.0, parameterization="relative"), TRUTH0)

    def test_state_of_the_other_parameterization(self):
        rel = UVWState(v=0.5, u=0.1, w=0.0, parameterization="relative")
        orig = UVWState(v=0.5, u=0.1, w=0.0)
        for entry, state in ((base_partials, rel), (expected_velocity_original, rel),
                             (expected_velocity_relative, orig)):
            with pytest.raises(MixtureError, match="coordinates"):
                entry(state, TRUTH0)

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_gd_checks_v_before_any_step(self, monkeypatch, mode):
        calls = []
        for name in ("_velocity_original", "_velocity_relative"):
            monkeypatch.setattr(dynamics, name, lambda *args: calls.append(args))
        with pytest.raises(MixtureError, match="strictly inside"):
            integrate_gd((-1.0, 1.0), TRUTH0, eta=0.1, steps=5, parameterization=mode, v=1.5)
        assert calls == []

    @pytest.mark.parametrize("init", [(np.nan, 0.0), (np.inf, 0.0), (0.5, -np.inf)])
    def test_gd_refuses_a_non_finite_start_for_either_source(self, monkeypatch, init):
        """A non-finite start is refused before any density pass. Under a
        TrueModel it gave a one-iterate trajectory flagged diverged, with a
        finite log-likelihood at (inf, 0)."""
        passes = []
        for name in ("_score_rows", "_expected_logliks"):
            monkeypatch.setattr(dynamics, name, lambda *args: passes.append(args))
        for source, mode in itertools.product((TRUTH0, sample(TRUTH0.params, 50, 0)),
                                              dynamics.PARAMETERIZATIONS):
            with pytest.raises(MixtureError, match="init_means must be finite"):
                integrate_gd(init, source, eta=0.1, steps=5, parameterization=mode)
        assert passes == []

    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_gd_checks_v_for_either_source(self, monkeypatch, v):
        """v is refused before any density pass, under a Dataset as under a TrueModel."""
        passes = []
        for name in ("_score_rows", "_expected_logliks"):
            monkeypatch.setattr(dynamics, name, lambda *args: passes.append(args))
        for source, mode in itertools.product((TRUTH0, sample(TRUTH0.params, 50, 0)),
                                              dynamics.PARAMETERIZATIONS):
            with pytest.raises(MixtureError, match="strictly inside"):
                integrate_gd((-1.0, 1.0), source, eta=0.1, steps=5, parameterization=mode, v=v)
        assert passes == []


class TestChecksOncePerCall:
    """The checked UVWState and the traced expected_velocity_* calls happen
    once per public call: never inside the expected-mode gd loop, once per
    grid in flow_field."""

    @staticmethod
    def counted(monkeypatch) -> dict:
        counts = dict.fromkeys(("UVWState", "original", "relative"), 0)
        post_init = UVWState.__post_init__

        def counting_post_init(state):
            counts["UVWState"] += 1
            post_init(state)

        monkeypatch.setattr(UVWState, "__post_init__", counting_post_init)
        for mode in ("original", "relative"):
            name = f"expected_velocity_{mode}"

            def counting(*args, _fn=getattr(dynamics, name), _mode=mode, **kwargs):
                counts[_mode] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, counting)
        return counts

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_expected_gd_builds_no_state(self, monkeypatch, mode):
        counts = self.counted(monkeypatch)
        traj = integrate_gd((0.4, -0.3), TrueModel.from_means(-0.1, 0.2, v=0.3), 0.05, 100,
                            parameterization=mode, v=0.3)
        assert traj.n_steps == 100 and not traj.diverged
        assert counts == {"UVWState": 0, "original": 0, "relative": 0}

    @pytest.mark.parametrize("mode", ["original", "relative"])
    def test_flow_field_one_state_per_grid(self, monkeypatch, mode):
        counts = self.counted(monkeypatch)
        ff = flow_field((-2.0, 2.0, 0.1), (-2.0, 2.0, 0.1), 0.3, TRUTH0, mode)
        assert ff.dmu1.shape == (41, 41)
        assert counts == {"UVWState": 1, "original": mode == "original",
                          "relative": mode == "relative"}


def gd_first_step(init, true, eta, mode, v):
    traj = integrate_gd(init, true, eta, 1, parameterization=mode, v=v)
    assert traj.n_steps == 1
    return traj.mu1[1], traj.mu2[1]


def public_first_step(m1, m2, true, eta, mode, v):
    """The first iterate of integrate_gd, rebuilt from the public velocities."""
    d1, d2, reflected = velocity_in_means(v, m1, m2, true, mode, eta)
    if mode == "original":
        return m1 + d1, m2 + d2
    lo, hi = min(m1, m2), max(m1, m2)
    dlo = d2 if reflected else d1
    st = UVWState(v=v, u=hi - lo, w=v * lo + (1.0 - v) * hi, parameterization="relative")
    ddelta = expected_velocity_relative(st, true, eta)[1]
    mu1 = lo + dlo
    return mu1, mu1 + max(hi - lo + ddelta, 0.0)


def test_gd_step_is_bit_identical_to_public_velocities():
    """The gd loop's private chain against the checked public path, with ==,
    at 2,000 random (v, truth, means, eta) points (every fourth at v = 0.3)
    in both parameterizations."""
    rng = make_rng(16)
    for k in range(2000):
        v = 0.3 if k % 4 == 0 else float(rng.uniform(0.05, 0.95))
        true = TrueModel.from_means(*map(float, rng.normal(0.0, 1.0, 2)), v=float(rng.uniform(0.1, 0.9)))
        m1, m2 = map(float, rng.normal(0.0, 2.0, 2))
        eta = float(rng.uniform(0.001, 0.5))
        for mode in ("original", "relative"):
            got = gd_first_step((m1, m2), true, eta, mode, v)
            assert got == public_first_step(m1, m2, true, eta, mode, v), (k, mode)


@pytest.mark.parametrize("mode", ["original", "relative"])
def test_gd_step_is_bit_identical_to_one_array_call(mode):
    """One velocity_in_means call over 200 points against the loop's scalar steps."""
    rng = make_rng(17)
    true, v, eta = TrueModel.from_means(-0.3, 0.4, v=0.3), 0.3, 0.1
    m1, m2 = rng.normal(0.0, 2.0, (2, 200))
    d1, d2, reflected = velocity_in_means(v, m1, m2, true, mode, eta)
    for i in range(200):
        got = gd_first_step((m1[i], m2[i]), true, eta, mode, v)
        if mode == "original":
            assert got == (m1[i] + d1[i], m2[i] + d2[i]), i
        else:
            lo = min(m1[i], m2[i])
            assert got[0] == lo + (d2[i] if reflected[i] else d1[i]), i


def test_mc_oracle_random_states_both_modes():
    """Closed forms vs Monte-Carlo chain rule near the singularity (small gap)."""
    xs = sample(TRUTH0.params, 10 ** 6, seed=999).points
    rng = make_rng(1000)
    for _ in range(6):
        v = float(rng.uniform(0.25, 0.75))
        u = float(rng.uniform(0.02, 0.1)) * (1 if rng.random() < 0.5 else -1)
        w = float(rng.uniform(-0.4, 0.4))
        st = UVWState(v=v, u=u, w=w)
        per = exact_partials_per_sample(st, xs) @ original_gram(st).T
        closed = np.array(expected_velocity_original(st, TRUTH0))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(closed - per.mean(axis=0)) < 4 * se)

        str_ = UVWState(v=v, u=abs(u), w=w, parameterization="relative")
        per = exact_partials_per_sample(str_, xs) @ relative_gram(v, abs(u)).T
        closed = np.array(expected_velocity_relative(str_, TRUTH0))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(closed - per.mean(axis=0)) < 4 * se)
