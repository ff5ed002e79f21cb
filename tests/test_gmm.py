import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import mean_distance, rowmajor_score, rowmajor_score_means, sample_points

from relreparam.gmm import (Dataset, MixtureParams, MixtureError, density,
                            distances_to_truth, log_density, log_density_means, log_likelihood,
                            log_weights, make_rng, mixture_moments, normal_quadrature, sample,
                            score, score_means, unit_variance_pair)


def naive_density(params, x):
    total = 0.0
    for pi, mu, sig in zip(params.weights, params.means, params.sigmas):
        total += pi * np.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
    return total


class TestDensity:
    def test_standard_normal_peak(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        assert density(p, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_symmetric_midpoint(self):
        p = MixtureParams((0.5, 0.5), (0.0, 4.0), (1.0, 1.0))
        expected = np.exp(-2.0) / np.sqrt(2 * np.pi)  # N(2|0,1)
        assert density(p, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_sum(self):
        p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
        assert density(p, 0.5) == pytest.approx(naive_density(p, 0.5), abs=1e-12)

    def test_rejects_nonfinite_x(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError):
            density(p, np.inf)

    @pytest.mark.parametrize("x", [np.nan, np.inf, [0.5, -np.inf], [[1.0], [np.nan]]])
    def test_scores_reject_nonfinite_x(self, x):
        p = MixtureParams((0.4, 0.6), (-1.0, 1.0), (1.0, 2.0))
        for f in (score, score_means):
            with pytest.raises(MixtureError, match="finite"):
                f(p, x)

    def test_positive_in_far_tail(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        assert density(p, 38.0) > 0.0

    def test_integrates_to_one(self):
        p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
        lo = min(p.means) - 10 * max(p.sigmas)
        hi = max(p.means) + 10 * max(p.sigmas)
        total, _ = quad(lambda x: density(p, x), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestLogLikelihood:
    def test_single_point(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        assert log_likelihood(p, Dataset((0.0,))) == pytest.approx(
            np.log(1.0 / np.sqrt(2 * np.pi)), abs=1e-12)

    def test_additivity_on_duplication(self):
        p = MixtureParams((0.4, 0.6), (0.0, 3.0), (1.0, 2.0))
        single = log_likelihood(p, Dataset((1.3,)))
        assert log_likelihood(p, Dataset((1.3, 1.3))) == pytest.approx(2 * single, abs=1e-12)

    def test_matches_naive_sum_oracle(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        data = sample(p, 50, seed=42)
        naive = sum(np.log(naive_density(p, x)) for x in data.points)
        assert log_likelihood(p, data) == pytest.approx(naive, abs=1e-10)

    def test_label_permutation_invariance(self):
        p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
        data = sample(p, 40, seed=1)
        assert log_likelihood(p.permuted([1, 0]), data) == pytest.approx(
            log_likelihood(p, data), abs=1e-12)

    def test_no_nan_in_deep_tail(self):
        p = MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        val = log_likelihood(p, Dataset((40.0,)))
        assert np.isfinite(val)

    def test_point_where_every_component_underflows_is_minus_inf(self):
        # (x - mu)^2 overflows at 1e200, so every ln pi_k N_k is -inf: ln p
        # is -inf, not -inf - (-inf) = NaN, and the finite point keeps its bits
        p = MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        with np.errstate(over="ignore", divide="ignore"):
            out = log_density(p, np.array([1e200, 0.0]))
            assert log_density(p, 1e200) == -np.inf
            means = np.array([[0.0], [1.0]])
            assert log_density_means(p.weights, p.sigmas, means, [1e200])[0, 0] == -np.inf
        assert out[0] == -np.inf
        assert out[1] == log_density(p, 0.0)


class TestSharedHelpers:
    def test_log_weights_floor_a_zero_weight(self):
        assert log_weights((0.25, 0.75)).tolist() == np.log([0.25, 0.75]).tolist()
        assert np.isfinite(log_weights((0.0, 1.0))).all()

    def test_distances_to_truth_keep_the_bits_of_both_earlier_forms(self):
        rng = make_rng(31)
        truth = unit_variance_pair(0.7, -0.2)
        rows = rng.normal(0, 2, (200, 2))
        got = distances_to_truth(rows.tolist(), truth.means)
        assert got == [mean_distance(unit_variance_pair(*m), truth) for m in rows.tolist()]
        lo, hi = sorted(truth.means)  # the two-component form gradient descent used
        assert got == [math.hypot(min(m) - lo, max(m) - hi) for m in rows.tolist()]


def fd_score(params, x, step=1e-5):
    """Central finite differences of ln density over (free pi, mu, sigma)."""
    k = params.n_components
    w = np.array(params.weights)
    m = np.array(params.means)
    s = np.array(params.sigmas)

    def logd(wv, mv, sv):
        p = MixtureParams(tuple(wv / wv.sum()), tuple(mv), tuple(sv))
        return np.log(naive_density(p, x))

    grads = []
    for i in range(k - 1):  # free weight coords, pi_K absorbs
        wp, wm = w.copy(), w.copy()
        wp[i] += step; wp[-1] -= step
        wm[i] -= step; wm[-1] += step
        grads.append((logd(wp, m, s) - logd(wm, m, s)) / (2 * step))
    for i in range(k):
        mp, mm = m.copy(), m.copy()
        mp[i] += step; mm[i] -= step
        grads.append((logd(w, mp, s) - logd(w, mm, s)) / (2 * step))
    for i in range(k):
        sp, sm = s.copy(), s.copy()
        sp[i] += step; sm[i] -= step
        grads.append((logd(w, m, sp) - logd(w, m, sm)) / (2 * step))
    return np.array(grads)


class TestScore:
    def test_stationary_at_mean(self):
        p = MixtureParams((1.0,), (1.7,), (1.0,))
        g = score(p, 1.7)
        assert g[0] == pytest.approx(0.0, abs=1e-14)  # d/d mu

    def test_gaussian_score_one_sigma_out(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        assert score(p, 1.0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_two_component_finite_differences(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        analytic = score(p, 0.3)
        numeric = fd_score(p, 0.3)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_random_draws_against_finite_differences(self):
        rng = make_rng(99)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            w = rng.random(k) + 0.2
            w = w / w.sum()
            p = MixtureParams(tuple(w), tuple(rng.normal(0, 2, k)),
                              tuple(rng.random(k) + 0.5))
            x = float(rng.normal(0, 2))
            analytic = score(p, x)
            numeric = fd_score(p, x)
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.all(np.abs(analytic - numeric) / denom < 1e-6)


class TestScoreLayout:
    """score and score_means keep their (..., 3K - 1) and (..., K) shapes as
    views of component-major rows, with the values of the C-contiguous
    arrays computed components-last (tests/oracles.py)."""

    P = MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))
    FUNCTIONS = [(score, rowmajor_score, 8), (score_means, rowmajor_score_means, 3)]

    @pytest.mark.parametrize("x", [0.3, np.linspace(-3.0, 3.0, 7),
                                   np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
                             ids=["0d", "1d", "2d"])
    def test_shape_and_values(self, x):
        for fn, oracle, width in self.FUNCTIONS:
            got = fn(self.P, x)
            assert got.shape == np.shape(x) + (width,)
            assert np.array_equal(np.ascontiguousarray(got), oracle(self.P, x))

    def test_transpose_of_1d_scores_is_contiguous_rows(self):
        xs = sample(self.P, 1000, seed=3).points
        for fn, oracle, _ in self.FUNCTIONS:
            got = fn(self.P, xs)
            assert got.T.flags.c_contiguous
            assert np.array_equal(got, oracle(self.P, xs))


class TestSample:
    def test_deterministic_per_seed(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        assert np.array_equal(sample(p, 100, seed=7).points, sample(p, 100, seed=7).points)

    def test_degenerate_weights(self):
        p = MixtureParams((1.0, 0.0), (0.0, 100.0), (1.0, 1.0))
        data = sample(p, 500, seed=3)
        assert max(abs(x) for x in data.points) < 10.0

    def test_sample_mean_law_of_large_numbers(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        data = sample(p, 200, seed=11)
        # component means differ by 0.1, per-draw sd is ~sqrt(1 + 0.0025)
        assert abs(np.mean(data.points) - (-5.05)) < 3.0 / np.sqrt(200)

    def test_rejects_zero_samples(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError):
            sample(p, 0, seed=0)

    @pytest.mark.parametrize("n", [1, 1234, 200000, 10 ** 6])
    @pytest.mark.parametrize("params", [
        MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0)),
        MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3)),
    ], ids=["K2", "K3"])
    def test_in_place_draws_match_formula_oracle(self, params, n):
        assert np.array_equal(sample(params, n, seed=31).points, sample_points(params, n, 31))


class TestDataset:
    def test_points_read_only(self):
        d = Dataset((1.0, 2.0))
        assert isinstance(d.points, np.ndarray) and d.points.dtype == np.float64
        with pytest.raises(ValueError):
            d.points[0] = 5.0

    def test_caller_array_left_writable_and_unchanged(self):
        xs = np.array([1.0, -2.0, 3.5])
        d = Dataset(xs)
        assert xs.flags.writeable
        assert np.array_equal(xs, [1.0, -2.0, 3.5])
        xs[0] = 9.0  # the dataset holds its own copy
        assert d.points[0] == 1.0

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), (), (1.0, np.nan), (np.inf,)])
    def test_rejects_non_1d_empty_and_non_finite(self, bad):
        with pytest.raises(MixtureError):
            Dataset(bad)


class TestMoments:
    def test_standard_normal(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        assert mixture_moments(p) == (1.0, 0.0, 1.0, 0.0)

    def test_shifted_gaussian_third_moment(self):
        m = 1.3
        p = MixtureParams((1.0,), (m,), (1.0,))
        assert mixture_moments(p)[3] == pytest.approx(m ** 3 + 3 * m, abs=1e-12)

    def test_coincident_components_reduce(self):
        p = MixtureParams((0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        assert mixture_moments(p) == (1.0, 0.0, 1.0, 0.0)

    def test_monte_carlo_agreement(self):
        p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
        n = 10 ** 6
        xs = sample(p, n, seed=5).points
        table = mixture_moments(p)
        for m in range(1, 4):
            draws = xs ** m
            se = draws.std(ddof=1) / np.sqrt(n)
            assert abs(draws.mean() - table[m]) < 4 * se


class TestNormalQuadrature:
    @pytest.mark.parametrize("n_nodes", [101, 201, 7])
    def test_rules_are_cached_read_only(self, n_nodes):
        nodes, wts = normal_quadrature(n_nodes)
        again = normal_quadrature(n_nodes)
        assert again[0] is nodes and again[1] is wts
        assert not nodes.flags.writeable and not wts.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        fresh_nodes, fresh_wts = np.polynomial.hermite_e.hermegauss(n_nodes)
        assert np.array_equal(nodes, fresh_nodes)
        assert np.array_equal(wts, fresh_wts / np.sqrt(2.0 * np.pi))


class TestSerialization:
    def test_invalid_simplex_rejected(self):
        with pytest.raises(MixtureError):
            MixtureParams((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(MixtureError):
            MixtureParams((1.0,), (0.0,), (0.0,))
