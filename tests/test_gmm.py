import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from childproc import REDUCED_SIMD_CLASSES, assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import (axis0_log_sum_exp_rows, filled_slices, generic_density_pass,
                     generic_log_density_means, generic_score_rows, mean_distance,
                     numpy_mixture_fields, rowmajor_log_sum_exp, rowmajor_score,
                     rowmajor_score_means, rowmajor_unit_pair, sample_points)

from relreparam import gmm
from relreparam.gmm import (Dataset, MixtureParams, MixtureError, _component_index, _extremes,
                            _log_sum_exp_rows, _numpy_sum, _score_rows, _sigma_rows,
                            _unit_pair_scores, density,
                            distances_to_truth, log_density, log_density_means,
                            log_likelihood, log_weights, make_rng, mixture_moments,
                            normal_quadrature,
                            responsibilities_and_log_density, sample, score,
                            score_means, unit_variance_pair)


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

    PARAMS = [MixtureParams((1.0,), (0.4,), (1.3,)),
              MixtureParams((0.3, 0.7), (-1.0, 1.5), (0.6, 1.4)),
              MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))]
    FUNCTIONS = [(score, rowmajor_score, lambda k: 3 * k - 1),
                 (score_means, rowmajor_score_means, lambda k: k)]

    @pytest.mark.parametrize("p", PARAMS, ids=["K1", "K2", "K3"])
    @pytest.mark.parametrize("x", [0.3, np.linspace(-3.0, 3.0, 7),
                                   np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
                             ids=["0d", "1d", "2d"])
    def test_shape_and_values(self, p, x):
        for fn, oracle, width in self.FUNCTIONS:
            got = fn(p, x)
            assert got.shape == np.shape(x) + (width(p.n_components),)
            assert np.array_equal(np.ascontiguousarray(got), oracle(p, x))

    @pytest.mark.parametrize("p", PARAMS, ids=["K1", "K2", "K3"])
    def test_transpose_of_1d_scores_is_contiguous_rows(self, p):
        xs = sample(p, 1000, seed=3).points
        for fn, oracle, _ in self.FUNCTIONS:
            got = fn(p, xs)
            assert got.T.flags.c_contiguous
            assert np.array_equal(got, oracle(p, xs))


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
        for n in (0, -1, np.int64(-3)):
            with pytest.raises(MixtureError, match="need n >= 1 samples"):
                sample(p, n, seed=0)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 1234, 65537, 200000, 10 ** 6])
    @pytest.mark.parametrize("params", [
        MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0)),
        MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3)),
    ], ids=["K2", "K3"])
    def test_in_place_draws_match_formula_oracle(self, params, n):
        assert np.array_equal(sample(params, n, seed=31).points, sample_points(params, n, 31))

    def test_peak_memory_three_sample_arrays(self):
        n = 10 ** 6
        p = MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))
        tracemalloc.start()
        try:
            sample(p, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n + 2 ** 16

    @pytest.mark.parametrize("n", [2.5, 300.0, np.float64(3.0), True, False, "5", None])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError, match="n must be an integer"):
            sample(p, n, seed=0)

    @pytest.mark.parametrize("seed", [1.7, 1.0, np.float64(1.0), True, False, "1", None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError, match="seed must be an integer"):
            make_rng(seed)
        with pytest.raises(MixtureError, match="seed must be an integer"):
            sample(p, 5, seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2 ** 70)])
    def test_rejects_a_negative_seed(self, seed):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError, match="seed must be non-negative"):
            make_rng(seed)
        with pytest.raises(MixtureError, match="seed must be non-negative"):
            sample(p, 10, seed)

    def test_numpy_integer_seed(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        want = sample_points(p, 10, 3)
        assert np.array_equal(sample(p, 10, np.int64(3)).points, want)
        # the normals' cursor is advanced from a numpy seed
        assert np.array_equal(np.concatenate(filled_slices(p, 10, np.uint32(3), 4)), want)

    def test_numpy_integer_sizes(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        want = sample_points(p, 10, 3)
        assert np.array_equal(sample(p, np.int64(10), 3).points, want)


SLICED_MIXTURES = [
    MixtureParams((1.0,), (0.3,), (1.7,)),
    MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0)),
    MixtureParams((0.7, 0.2, 0.1), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3)),  # cumsum ends below 1.0
]


class TestSampleSlicesMatchOneShotDraw:
    """Concatenated slices, filled as ``fim._mc_moments`` fills them
    (``oracles.filled_slices``), against the one-shot searchsorted draw. The
    normals' cursor is moved past the n uniforms in four-word Philox counter
    steps plus n % 4 single words, so these pin numpy's Philox ``advance``
    and its four-word output: a change there fails here, not in the bytes."""

    @pytest.mark.parametrize("n, size", [
        (12, 5), (13, 5), (14, 5), (15, 5),      # n mod 4 = 0, 1, 2, 3
        (15, 16), (16, 16), (17, 16), (35, 16),  # size - 1, size, size + 1, 2 size + 3
    ])
    @pytest.mark.parametrize("params", SLICED_MIXTURES, ids=["K1", "K2", "K3"])
    def test_concatenated_slices_equal_one_shot(self, params, n, size):
        slices = filled_slices(params, n, 23, size)
        assert [len(z) for z in slices] == [min(size, n - i) for i in range(0, n, size)]
        assert np.array_equal(np.concatenate(slices), sample_points(params, n, 23))

    @pytest.mark.parametrize("weights", [
        (0.7, 0.2, 0.1), (0.0, 0.5, 0.5), (0.5, 0.5, 0.0), (0.25, 0.0, 0.75), (0.5, 0.5), (1.0,),
    ])
    def test_component_index_is_capped_searchsorted(self, weights):
        cum = np.cumsum(weights)
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges[edges < 1.0],
                            make_rng(5).random(1000)])
        want = np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)
        comp = np.empty(len(u), dtype=np.intp)
        _component_index(cum[:-1].tolist(), u, comp, np.empty(len(u)))
        assert np.array_equal(comp, want)

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


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
        # the sum shows as a plain float, not as np.float64(1.1)
        with pytest.raises(MixtureError, match=r"^weights must sum to 1 within 1e-12, got 1\.1$"):
            MixtureParams((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(MixtureError):
            MixtureParams((1.0,), (0.0,), (0.0,))


def _simplex(k: int, seed: int) -> list[float]:
    w = make_rng(seed).random(k)
    return (w / w.sum()).tolist()


def _oracle_accepts(w) -> bool:
    try:
        numpy_mixture_fields(w, [0.0] * len(w), [1.0] * len(w))
    except MixtureError:
        return False
    return True


def _around_tolerance(w: list[float], d: float) -> list[list[float]]:
    """w with its last weight at the two ulps either side of the first value,
    walking from w[-1] + d, where the oracle's simplex decision flips."""
    x = w[-1] + d
    start = _oracle_accepts(w[:-1] + [x])
    away = math.copysign(math.inf, d) if start else -math.copysign(math.inf, d)
    for _ in range(10 ** 4):
        if _oracle_accepts(w[:-1] + [x]) != start:
            break
        x = math.nextafter(x, away)
    else:
        raise AssertionError("no flip within 10^4 ulps")
    lasts = [x]
    for toward in (-away, away):
        y = x
        for _ in range(2):
            y = math.nextafter(y, toward)
            lasts.append(y)
    return [w[:-1] + [y] for y in lasts]


def _constructor_cases():
    cases = []
    for k, seed in ((1, 0), (2, 1), (3, 2), (9, 4)):
        w = _simplex(k, seed)
        m = make_rng(seed + 10).normal(size=k).tolist()
        s = (make_rng(seed + 20).random(k) + 0.5).tolist()
        cases += [(f"K{k}-tuple", (tuple(w), tuple(m), tuple(s))),
                  (f"K{k}-list", (w, m, s)),
                  (f"K{k}-ndarray", (np.array(w), np.array(m), np.array(s))),
                  (f"K{k}-float32", tuple(np.array(v, dtype=np.float32) for v in (w, m, s))),
                  (f"K{k}-numpy-scalars", tuple(tuple(map(np.float64, v)) for v in (w, m, s))),
                  (f"K{k}-length", (w, m + [0.0], s)),
                  (f"K{k}-nan-mean", (w, m[:-1] + [math.nan], s)),
                  (f"K{k}-inf-sigma", (w, m, [math.inf] + s[1:])),
                  (f"K{k}-negative-weight", ([-w[0]] + w[1:], m, s)),
                  (f"K{k}-zero-sigma", (w, m, s[:-1] + [0.0])),
                  (f"K{k}-negative-sigma", (w, m, [-s[0]] + s[1:])),
                  (f"K{k}-length-and-nan", (w + [math.nan], m, s))]
        for d in (1e-12, -1e-12):
            for i, near in enumerate(_around_tolerance(w, d)):
                cases.append((f"K{k}-sum1{d:+.0e}-{i}", (near, m, s)))
    cases += [
        ("ints", ((1,), (0,), (2,))),
        ("int-elements", ((0, 1), (3, -2), (1, 2))),
        ("numpy-ints", (np.array([1]), np.array([-4]), np.array([3]))),
        ("bools", ((True, False), (0.0, 1.0), (1.0, 1.0))),
        ("negative-zero-weight", ((-0.0, 1.0), (-0.0, 0.0), (1.0, 1.0))),
        ("empty", ((), (), ())),
        ("scalar-numpy-field", (np.float64(1.0), (0.0,), (1.0,))),
        ("scalar-int-field", (1, 0, 1)),
        ("2d-tuples", (((0.5, 0.5),), ((0.0, 1.0),), ((1.0, 1.0),))),
        ("2d-ndarrays", (np.full((1, 2), 0.5), np.zeros((1, 2)), np.ones((1, 2)))),
        ("2d-mixed", (np.full((2, 2), 0.25), ((0.0, 1.0), (2.0, 3.0)), ((1.0, 1.0), (1.0, 1.0)))),
        ("strings-as-elements", (("0.5", "0.5"), ("0", "1"), ("1", "1"))),
        ("simplex-off", ((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))),
        # fields that are not a tuple, list or ndarray: numpy refused each
        ("string-fields", ("1", "0", "1")),
        ("set-field", ({0.25, 0.75}, (0.0, 1.0), (1.0, 1.0))),
        ("generator-field", ((0.5, 0.5), (x for x in (0.0, 1.0)), (1.0, 1.0))),
    ]
    return cases


_CONSTRUCTOR_CASES = _constructor_cases()


def _outcome(build, fields):
    """("ok", stored tuples as (type, hex) pairs) or ("raises", type, message);
    the message only of a MixtureError, since Python and numpy word their
    TypeErrors differently."""
    try:
        got = build(*fields)
    except MixtureError as exc:
        # the oracle's simplex message shows the sum's numpy repr
        return "raises", MixtureError, re.sub(r"np\.float64\((.*)\)", r"\1", str(exc))
    except TypeError:
        return "raises", TypeError
    return "ok", [[(type(x), x.hex()) for x in t] for t in got]


class TestMixtureParamsMatchesNumpyOracle:
    """The Python-float constructor against its numpy predecessor: the same
    accept or reject, exception type and message, and the same stored
    Python floats bit for bit."""

    @pytest.mark.parametrize("fields", [c[1] for c in _CONSTRUCTOR_CASES],
                             ids=[c[0] for c in _CONSTRUCTOR_CASES])
    def test_same_outcome(self, fields):
        def build(w, m, s):
            p = MixtureParams(w, m, s)
            return p.weights, p.means, p.sigmas

        assert _outcome(build, fields) == _outcome(numpy_mixture_fields, fields)

    def test_cases_cover_both_sides_of_the_tolerance(self):
        near = [f for name, f in _CONSTRUCTOR_CASES if "-sum1" in name]
        decisions = {_outcome(numpy_mixture_fields, f)[0] for f in near}
        assert decisions == {"ok", "raises"}

    def test_k9_cases_tell_pairwise_from_in_order_sums(self):
        # at some of them a sum in order would decide otherwise than np.sum
        def in_order_accepts(w):
            total = 0.0
            for x in w:
                total += x
            return abs(total - 1.0) <= 1e-12

        near = [f[0] for name, f in _CONSTRUCTOR_CASES if name.startswith("K9-sum1")]
        assert any(in_order_accepts(w) != _oracle_accepts(w) for w in near)

    @pytest.mark.parametrize("fields", [
        (((0.5, 0.6),), ((0.0, 1.0),), ((1.0, 1.0),)),
        (np.full((1, 2), 0.5), (0.0, 1.0), (1.0, 1.0)),
        ((1.0,), (None,), (1.0,)),
    ], ids=["2d-off-simplex", "2d-unequal-length", "none-element"])
    def test_items_float_refuses_now_fail_before_the_value_checks(self, fields):
        # numpy read None as NaN and checked a 2-D field's values first;
        # float() refuses both, and the conversion now comes first
        assert _outcome(numpy_mixture_fields, fields)[1] is MixtureError
        with pytest.raises(TypeError):
            MixtureParams(*fields)

    def test_numpy_sum_has_the_bits_of_np_sum(self):
        rng = make_rng(5)
        for n in list(range(1, 40)) + [127, 128, 129, 255, 256, 300, 1000]:
            xs = (rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)).tolist()
            assert _numpy_sum(tuple(xs)).hex() == float(np.sum(np.array(xs))).hex(), n
        for zeros in ((-0.0,) * 3, (-0.0,) * 9, (-0.0,) * 200, (-0.0, 0.0) * 100, (1e-300, -1e-300)):
            assert _numpy_sum(zeros).hex() == float(np.sum(np.array(zeros))).hex(), zeros


_LSE_SHAPES = [(), (1,), (50,), (4, 5), (3, 1)]


class TestLogSumExpRowsMatchesOracles:
    """Row-by-row max and sum against the whole-array reductions over the
    component axis, bit for bit, at every shape; and the density pass
    against the row-major reference."""

    @pytest.mark.parametrize("shape", _LSE_SHAPES, ids=str)
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_rows_match_axis0_reductions(self, k, shape):
        rng = make_rng(100 + k)
        a = rng.normal(0.0, 30.0, (k,) + shape)
        a.flat[::7] = -np.inf  # underflowed components
        weights = _simplex(k, k)
        got = _log_sum_exp_rows(a.copy(), weights)
        want = axis0_log_sum_exp_rows(a.copy(), weights)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("shape", [(), (1,), (50,), (4, 5)], ids=str)
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_density_pass_matches_rowmajor(self, k, shape):
        rng = make_rng(200 + k)
        p = MixtureParams(_simplex(k, k), rng.normal(size=k), rng.random(k) + 0.5)
        x = rng.normal(0.0, 2.0, shape)
        gam, log_p = responsibilities_and_log_density(p, x)
        want_gam, want_log_p = rowmajor_log_sum_exp(p, np.asarray(x))
        gam = np.moveaxis(gam, 0, -1)
        if k < 8 or math.prod(shape) == 1:
            assert np.array_equal(gam, want_gam) and np.array_equal(log_p, want_log_p)
        else:
            # the reference sums each point's K terms pairwise, the rows add
            # them in order: from 8 terms on they can round apart
            np.testing.assert_allclose(gam, want_gam, rtol=64 * np.finfo(float).eps, atol=0.0)
            np.testing.assert_allclose(log_p, want_log_p, rtol=64 * np.finfo(float).eps,
                                       atol=64 * np.finfo(float).eps)

    @pytest.mark.parametrize("shape", [(), (50,)], ids=str)
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_score_rows_leave_the_log_density(self, k, shape):
        """Given two buffers for the max and the total, the row scorer leaves
        ln p = amax + ln(total) with log_density's bits; given one vector
        for both, it writes the same scores."""
        rng = make_rng(300 + k)
        p = MixtureParams(_simplex(k, k), rng.normal(size=k), rng.random(k) + 0.5)
        x = np.asarray(rng.normal(0.0, 2.0, shape))
        rows, amax, total = np.empty((k,) + shape), np.empty(shape), np.empty(shape)
        assert _score_rows(p, x, rows, np.empty((k,) + shape), amax, total) is rows
        assert np.array_equal(amax + np.log(total), log_density(p, x))
        vec = np.empty(shape)
        shared = _score_rows(p, x, np.empty((k,) + shape), np.empty((k,) + shape), vec, vec)
        assert np.array_equal(shared, rows)

    @pytest.mark.parametrize("k", [2, 9])
    def test_point_where_every_component_underflows(self, k):
        p = MixtureParams(_simplex(k, k), np.linspace(-1.0, 1.0, k), np.ones(k))
        with np.errstate(over="ignore", divide="ignore"):
            assert log_density(p, 1e200) == -np.inf
            out = log_density(p, np.array([[1e200, 0.0]]))
        assert out[0, 0] == -np.inf and out[0, 1] == log_density(p, 0.0)

    @pytest.mark.parametrize("shape", [(), (1,)], ids=str)
    def test_single_point_at_k9_keeps_numpy_pairwise_sum(self, shape):
        # np.sum adds one point's nine terms pairwise: find a point where
        # adding them in order rounds differently (which points do depends
        # on the exp kernel), and check that its sum keeps the pairwise bits
        weights = [1.0 / 9.0] * 8 + [1.0 - 8.0 / 9.0]
        for seed in range(100):
            a = make_rng(seed).normal(0.0, 1.0, (9,) + shape)
            e, total, _ = axis0_log_sum_exp_rows(a.copy(), weights)
            in_order = 0.0
            for row in e:
                in_order += float(row.sum())
            if in_order != float(total.sum()):
                break
        else:
            raise AssertionError("no point where the two orders round apart")
        assert np.array_equal(_log_sum_exp_rows(a.copy(), weights)[1], total)

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


_ONE_UP = float(np.nextafter(1.0, 2.0))
# -0.0 against means of +0.0 and -0.0; 1.8e154 where (-0.5 d) d is still
# finite and 3e154, 1e200 where it overflows to -inf
_TAIL_X = [-0.0, 0.0, 1e-300, 0.7, -2.5, 1.8e154, -3e154, 1e200]
_UNIT_SIGMA_X = {"0d": np.array(-0.0), "1d": np.array(_TAIL_X),
                 "2d": np.array(_TAIL_X).reshape(2, 4)}


def _sigma_cases(k: int) -> dict:
    """Mixtures of K components: unit sigmas, the float just above 1.0, and
    mixed sigmas with a 1.0 among them (K >= 2)."""
    means = (0.0, -0.0, 2.5)[:k]
    weights = _simplex(k, 400 + k)
    cases = {"unit": (1.0,) * k, "next_after_one": (_ONE_UP,) * k}
    if k > 1:
        cases["mixed"] = (1.0, 0.6, 1.3)[:k]
    return {name: MixtureParams(weights, means, sigmas) for name, sigmas in cases.items()}


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestUnitSigmaPassMatchesGenericOracle:
    """The unit-sigma density pass, which skips the divisions by sigma and
    ln sigma and computes x - mu once, against the generic arithmetic kept
    in tests/oracles.py, bit for bit (NaN payloads and the sign of zero
    included). Sigmas of nextafter(1, 2) and mixed sigmas take the generic
    path, and are checked against the same oracle."""

    @pytest.mark.parametrize("x", _UNIT_SIGMA_X.values(), ids=_UNIT_SIGMA_X.keys())
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_score_rows(self, k, x):
        # the two unit-sigma mean scores at x = -0.0 come from the closed
        # form, checked against its own oracle; the tail points are outside
        # its domain and take this pass
        for name, p in _sigma_cases(k).items():
            for width in (k, 3 * k - 1):
                rows, a = np.empty((width,) + x.shape), np.empty((k,) + x.shape)
                amax, total = np.empty(x.shape), np.empty(x.shape)
                pair = rowmajor_unit_pair(p, x) if width == k else None
                assert (pair is not None) == (width == k == 2 and name == "unit" and x.ndim == 0)
                with np.errstate(all="ignore"):
                    got = _score_rows(p, x, rows, a, amax, total)
                    want = generic_score_rows(p, x, width)
                    log_p = amax + np.log(total)
                    want_log_p = generic_density_pass(p, x)[1]
                if pair is not None:
                    assert _same_bits(got, np.moveaxis(pair[0], -1, 0)), (name, width)
                    continue
                assert _same_bits(got, want), (name, width)
                if width == k:
                    assert _same_bits(log_p, want_log_p), name

    @pytest.mark.parametrize("x", _UNIT_SIGMA_X.values(), ids=_UNIT_SIGMA_X.keys())
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_density_passes(self, k, x):
        for name, p in _sigma_cases(k).items():
            with np.errstate(all="ignore"):
                gam, log_p = responsibilities_and_log_density(p, x)
                want_gam, want_log_p = generic_density_pass(p, x)
                density_bits = log_density(p, x)
                means = np.array([p.means, [m + 0.5 for m in p.means], [-0.0] * k]).T
                got_means = log_density_means(p.weights, p.sigmas, means, x)
                want_means = generic_log_density_means(p.weights, p.sigmas, means, x)
            assert _same_bits(gam, want_gam) and _same_bits(log_p, want_log_p), name
            assert _same_bits(density_bits, want_log_p), name
            assert _same_bits(got_means, want_means), name

    def test_only_exact_unit_sigmas_take_the_unit_path(self):
        assert _sigma_rows((1.0,), 1) is None and _sigma_rows((1.0, 1.0, 1.0), 0) is None
        for sigmas in ((_ONE_UP,), (1.0, _ONE_UP), (1.0, 0.6), (float(np.nextafter(1.0, 0.0)),)):
            assert np.array_equal(_sigma_rows(sigmas, 1), np.reshape(sigmas, (-1, 1)))

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


_EPS = float(np.finfo(float).eps)
# two-component unit-sigma mixtures: the paper's near-singular pair, a gap of
# 6 at v = 0.3, and the shipped gd start
_PAIRS = {"near_singular": unit_variance_pair(-5.1, -5.0),
          "gap6_v03": unit_variance_pair(0.0, 6.0, 0.3),
          "gd_start": unit_variance_pair(-1.5, 1.5)}
_PAIR_X = {"0d": np.array(0.7), "1d": np.linspace(-30.0, 30.0, 601),
           "2d": np.linspace(-12.0, 12.0, 60).reshape(6, 10)}


def _pair_pass(p, x):
    """The closed form's rows and sum ln p in fresh buffers, or None where
    it leaves x to the generic pass."""
    rows, a = np.empty((2,) + x.shape), np.empty((2,) + x.shape)
    log_lik = _unit_pair_scores(p.weights, p.means, x, *_extremes(x), rows, a, log_lik=True)
    return None if log_lik is None else (rows, log_lik)


def _generic_bits(p, x, width: int) -> None:
    """``_score_rows`` of x at `width` has the generic pass's bits, and at
    K rows leaves its ln p."""
    k = p.n_components
    rows, a = np.empty((width,) + x.shape), np.empty((k,) + x.shape)
    amax, total = np.empty(x.shape), np.empty(x.shape)
    assert _same_bits(_score_rows(p, x, rows, a, amax, total), generic_score_rows(p, x, width))
    if width == k:
        assert _same_bits(amax + np.log(total), generic_density_pass(p, x)[1])


class TestUnitPairMatchesGenericPass:
    """The closed-form mean scores of two unit-sigma components against the
    generic density pass (tests/oracles.py). They round apart: the generic
    pass takes the log-odds as a difference of two log-densities of size
    (x - mu_k)^2 / 2, the closed form takes it directly. Each score is
    within eps (1 + |x - mu_k|) (1 + ((x - mu_1)^2 + (x - mu_2)^2) / 2) of
    the generic one (0.36 of that measured; 2.2e-15 absolute at most on the
    draws), and sum ln p within 2e-15 relative (5.4e-16 measured). Against
    its row-major copy the closed form is equal bit for bit. Outside its
    domain, and for every other mixture, the generic pass runs, with its
    own bits."""

    @staticmethod
    def assert_close(p, x, rows, log_lik):
        y = np.abs(np.subtract(x, np.reshape(p.means, (2,) + (1,) * x.ndim)))
        bound = _EPS * (1.0 + y) * (1.0 + 0.5 * (y * y).sum(axis=0))
        assert np.all(np.abs(rows - generic_score_rows(p, x, 2)) <= bound)
        want = float(np.sum(generic_density_pass(p, x)[1]))
        assert abs(log_lik - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("x", _PAIR_X.values(), ids=_PAIR_X.keys())
    @pytest.mark.parametrize("name", _PAIRS)
    def test_grid(self, name, x):
        p = _PAIRS[name]
        rows, log_lik = _pair_pass(p, x)
        want_scores, want_log_lik = rowmajor_unit_pair(p, x)
        assert _same_bits(rows, np.moveaxis(want_scores, -1, 0)) and log_lik == want_log_lik
        assert _same_bits(score_means(p, x), want_scores)
        self.assert_close(p, x, rows, log_lik)

    @pytest.mark.parametrize("name", _PAIRS)
    def test_draws(self, name):
        p = _PAIRS[name]
        x = sample(p, 10 ** 4, seed=5).points
        self.assert_close(p, x, *_pair_pass(p, x))

    # means 0 and 1, equal weights: t = 0.5 - x, so t = 700 at x = -699.5
    # and t = -700 at x = 700.5, each exactly
    EDGE = unit_variance_pair(0.0, 1.0)

    @staticmethod
    def edge_points(x0: float) -> dict:
        return {"0d": np.array(x0), "1d": np.array([x0, 0.3, -2.0, 5.0]),
                "2d": np.array([[x0, 0.3], [-2.0, 5.0]])}

    @pytest.mark.parametrize("shape", ["0d", "1d", "2d"])
    @pytest.mark.parametrize("edge, t", [(-699.5, 700.0), (700.5, -700.0)])
    def test_t_at_the_guard_takes_the_closed_form(self, edge, t, shape):
        assert (edge - 0.0) * -1.0 + 0.5 == t  # the closed form's arithmetic
        x = self.edge_points(edge)[shape]
        rows, log_lik = _pair_pass(self.EDGE, x)
        assert _same_bits(rows, np.moveaxis(rowmajor_unit_pair(self.EDGE, x)[0], -1, 0))
        self.assert_close(self.EDGE, x, rows, log_lik)

    @pytest.mark.parametrize("shape", ["0d", "1d", "2d"])
    @pytest.mark.parametrize("edge", [-699.5, 700.5])
    def test_t_past_the_guard_takes_the_generic_pass(self, edge, shape):
        x = self.edge_points(float(np.nextafter(edge, np.copysign(np.inf, edge))))[shape]
        assert _pair_pass(self.EDGE, x) is None and rowmajor_unit_pair(self.EDGE, x) is None
        _generic_bits(self.EDGE, x, 2)

    def test_a_point_past_the_distance_guard_takes_the_generic_pass(self):
        # equal means: t = ln(w_1 / w_2) at every x, and only |x - mu_1| <= 1e150
        # bounds the domain; 1e150 - 2.0 rounds to 1e150
        p = unit_variance_pair(2.0, 2.0, 0.3)
        assert _pair_pass(p, np.array([1e150, 0.0])) is not None
        x = np.array([float(np.nextafter(1e150, np.inf)), 0.0])
        assert _pair_pass(p, x) is None and rowmajor_unit_pair(p, x) is None
        _generic_bits(p, x, 2)

    @pytest.mark.parametrize("p, width", [
        (MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (1.0, 1.0, 1.0)), 3),
        (MixtureParams((0.3, 0.7), (-1.0, 1.5), (1.0, 1.4)), 2),
        (MixtureParams((0.3, 0.7), (-1.0, 1.5), (_ONE_UP, _ONE_UP)), 2),
        (MixtureParams((0.0, 1.0), (-1.0, 1.5), (1.0, 1.0)), 2),
        (unit_variance_pair(-1.0, 1.5, 0.3), 5),
    ], ids=["K3", "unequal_sigmas", "next_after_one", "zero_weight", "full"])
    def test_other_mixtures_take_the_generic_pass(self, p, width, monkeypatch):
        calls = []
        monkeypatch.setattr(gmm, "_unit_pair_scores", lambda *args, **kw: calls.append(args))
        for x in _PAIR_X.values():
            _generic_bits(p, x, width)
        assert calls == []

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


class TestSampledDataset:
    @pytest.mark.parametrize("n", [1, 1234, 10 ** 5])
    def test_sampled_points_read_only_with_their_bits(self, n):
        p = MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))
        pts = sample(p, n, seed=9).points
        assert pts.dtype == np.float64 and pts.flags.c_contiguous and pts.flags.owndata
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 0.0
        assert np.array_equal(pts, sample_points(p, n, 9))

    def test_adopt_keeps_the_array_and_runs_the_checks(self):
        xs = np.array([1.0, -2.0, 3.5])
        d = Dataset._adopt(xs)
        assert d.points is xs and not xs.flags.writeable and d.n == 3
        for bad in (np.zeros((2, 2)), np.zeros(0), np.array([1.0, np.nan])):
            with pytest.raises(MixtureError):
                Dataset._adopt(bad)
