import itertools

import numpy as np
import pytest

from relreparam.gmm import MixtureError, make_rng, sample
from relreparam.dynamics import (TrueModel, UVWState, base_partials,
                                 expected_velocity_original,
                                 expected_velocity_relative, flow_field,
                                 integrate_gd, means_from_uvw, original_gram,
                                 relative_gram, relative_jacobian,
                                 uvw_from_means, velocity_in_means)

from oracles import exact_partials_per_sample

TRUTH0 = TrueModel.from_means(0.0, 0.0)


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
        xs = sample(TRUTH0.params, 10 ** 6, seed=314).as_array()
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
        xs = sample(TRUTH0.params, 10 ** 6, seed=2718).as_array()
        per = exact_partials_per_sample(st, xs) @ original_gram(st).T
        closed = np.array(expected_velocity_original(st, TRUTH0, eta=1.0))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        assert np.all(np.abs(closed - per.mean(axis=0)) < 4 * se)


class TestExpectedVelocityRelative:
    def test_delta_zero_matches_original_stationarity(self):
        st = UVWState(v=0.4, u=0.0, w=0.0, parameterization="relative")
        assert expected_velocity_relative(st, TRUTH0) == (0.0, 0.0, 0.0)

    def test_monte_carlo_chain_rule_oracle(self):
        xs = sample(TRUTH0.params, 10 ** 6, seed=161).as_array()
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
                                parameterization=mode, gradient_source="empirical")
            assert traj.loglik[-1] > traj.loglik[0]
            assert not traj.diverged

    def test_divergence_flagged(self):
        traj = integrate_gd((-1.5, 1.2), TRUTH0, eta=0.05, steps=200,
                            parameterization="original")
        assert traj.diverged
        assert np.all(np.isfinite(traj.mu1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(MixtureError):
            integrate_gd((0.0, 1.0), TRUTH0, eta=0.0, steps=5)
        with pytest.raises(MixtureError):
            integrate_gd((0.0, 1.0), TRUTH0, eta=0.1, steps=0)

    def test_rejects_unknown_gradient_source(self):
        # anything but the two exact names used to run empirical mode
        data = sample(TRUTH0.params, 50, seed=1)
        for truth in (TRUTH0, data):
            with pytest.raises(MixtureError):
                integrate_gd((0.0, 1.0), truth, eta=0.1, steps=5, gradient_source="bogus")


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
            integrate_gd((-1.0, 1.0), data, eta=0.1, steps=5, parameterization=name,
                         gradient_source="empirical")


def test_mc_oracle_random_states_both_modes():
    """Closed forms vs Monte-Carlo chain rule near the singularity (small gap)."""
    xs = sample(TRUTH0.params, 10 ** 6, seed=999).as_array()
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
