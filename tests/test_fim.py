import sys
import threading
import tracemalloc

import numpy as np
import pytest

from childproc import REDUCED_SIMD_CLASSES, assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import one_shot_mc_fim, rowmajor_mc_moments, sample_points, serial_mc_moments
from relreparam import fim
from relreparam.fim import (_MC_CHUNK, FisherMatrix, SingularFimError, _mc_moments,
                            _score_in_coords, _score_slice, _slice_buffers,
                            bernoulli_family, crouzeix_check, fim_estimate,
                            gaussian_natural_family, length_element,
                            transform_fim)
from relreparam.gmm import (MixtureError, MixtureParams, log_component_densities, make_rng,
                            responsibilities_array)

# theta = (mu1, mu2), lambda = (mu1, Delta): J_ij = d theta_i / d lambda_j
J_REL = np.array([[1.0, 0.0], [1.0, 1.0]])


class TestFisherMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(MixtureError):
            FisherMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "means", "quadrature", 0)

    def test_rejects_indefinite(self):
        with pytest.raises(MixtureError):
            FisherMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), "means", "quadrature", 0)

    def test_csv_header_names_coordinates(self):
        m = FisherMatrix(np.eye(2), "means", "quadrature", 201)
        text = m.to_csv()
        assert text.startswith("# fisher, coordinates=means, estimator=quadrature")
        assert len(text.strip().splitlines()) == 3


class TestFimEstimate:
    def test_single_gaussian_unit_information(self):
        p = MixtureParams((1.0,), (1.3,), (1.0,))
        m = fim_estimate(p, coords="means", method="quadrature")
        assert m.entries[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_single_gaussian_full_coords(self):
        sig = 1.7
        p = MixtureParams((1.0,), (0.0,), (sig,))
        m = fim_estimate(p, coords="full", method="quadrature")
        expected = np.diag([1.0 / sig ** 2, 2.0 / sig ** 2])
        assert np.allclose(m.entries, expected, atol=1e-9)

    def test_mc_and_quadrature_agree(self):
        p = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
        mc = fim_estimate(p, coords="means", method="monte_carlo",
                          budget=10 ** 6, seed=3)
        quad = fim_estimate(p, coords="means", method="quadrature")
        assert np.all(np.abs(mc.entries - quad.entries) < 4 * mc.std_errors)

    def test_mc_reports_standard_errors(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        m = fim_estimate(p, coords="means", method="monte_carlo",
                         budget=10000, seed=1)
        assert m.std_errors is not None
        assert np.all(m.std_errors > 0)

    def test_budget_floor(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError):
            fim_estimate(p, method="monte_carlo", budget=99)

    @pytest.mark.parametrize("budget", [2.5, 300.0, np.float64(1000.0), True, "1000"])
    def test_budget_must_be_an_integer(self, budget):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError, match="budget must be an integer"):
            fim_estimate(p, method="monte_carlo", budget=budget)

    def test_numpy_integer_budget(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        a = fim_estimate(p, method="monte_carlo", budget=np.int64(1000), seed=5)
        b = fim_estimate(p, method="monte_carlo", budget=1000, seed=5)
        assert np.array_equal(a.entries, b.entries) and a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("seed", [1.7, 1.0, np.float64(1.0), True, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        with pytest.raises(MixtureError, match="seed must be an integer"):
            fim_estimate(p, method="monte_carlo", budget=1000, seed=seed)

    def test_numpy_integer_seed(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        a = fim_estimate(p, method="monte_carlo", budget=1000, seed=np.int64(5))
        b = fim_estimate(p, method="monte_carlo", budget=1000, seed=5)
        assert np.array_equal(a.entries, b.entries) and a.to_csv() == b.to_csv()

    def test_relative_coords_at_singularity_raise(self):
        p = MixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 1.0))
        with pytest.raises(SingularFimError):
            fim_estimate(p, coords="relative_means", method="quadrature")

    def test_deterministic_per_seed(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        a = fim_estimate(p, method="monte_carlo", budget=1000, seed=5)
        b = fim_estimate(p, method="monte_carlo", budget=1000, seed=5)
        assert np.array_equal(a.entries, b.entries)


P2 = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))
P2_UNEQUAL = MixtureParams((0.3, 0.7), (-1.0, 1.5), (0.6, 1.4))
P2_SYMMETRIC = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
P3 = MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))
SCORER_CASES = [(P2, "means"), (P2, "relative_means"), (P2_UNEQUAL, "means"),
                (P2_UNEQUAL, "relative_means"), (P3, "means")]
SCORER_CASE_IDS = ["K2-means", "K2-relative_means", "K2-unequal-means",
                   "K2-unequal-relative_means", "K3-means"]


class TestStreamedMonteCarlo:
    """The slice-by-slice accumulation against the one-shot tensor oracle."""

    @pytest.mark.parametrize("budget", [100, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 200000])
    @pytest.mark.parametrize("params, coords", [
        (P2, "means"), (P2, "relative_means"), (P2, "full"), (P3, "means"), (P3, "full"),
    ], ids=["K2-means", "K2-relative_means", "K2-full", "K3-means", "K3-full"])
    def test_matches_one_shot_oracle(self, params, coords, budget):
        m = fim_estimate(params, coords=coords, method="monte_carlo", budget=budget, seed=7)
        entries, se = one_shot_mc_fim(params, coords, budget, 7)
        assert np.max(np.abs(m.entries - entries) / np.abs(entries)) < 1e-12
        assert np.max(np.abs(m.std_errors - se) / np.abs(se)) < 1e-12

    def test_peak_memory_flat_in_the_budget(self):
        # the process's first Philox imports `secrets` (~0.7 MiB); make it
        # here, so neither budget's peak counts that import
        make_rng(0)
        for coords, k in (("relative_means", 2), ("full", 5)):
            # one slice's k(k + 1)/2 product rows, its score rows and the
            # scorer's temporaries, two slice buffers and the drawer's
            # scratch: fewer than k^2 + 2k + 4 slice-sized vectors at any
            # budget
            bound = (k * k + 2 * k + 4) * 8 * _MC_CHUNK
            peaks = []
            for budget in (10 ** 6, 4 * 10 ** 6):
                tracemalloc.start()
                try:
                    fim_estimate(P2, coords=coords, method="monte_carlo", budget=budget, seed=3)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks) < bound, (coords, peaks)
            assert abs(peaks[1] - peaks[0]) < 8 * _MC_CHUNK, (coords, peaks)
            if k == 2:
                # scored into fresh arrays per slice the peak was 5.02 MiB;
                # in the estimate's buffers it is 4.52 MiB
                assert peaks[0] < 5.02 * 2 ** 20, peaks

    @pytest.mark.parametrize("params, coords", [
        (P2, "means"), (P2, "relative_means"), (P3, "means"),
    ], ids=["K2-means", "K2-relative_means", "K3-means"])
    def test_a_slice_is_scored_and_merged_without_slice_sized_arrays(self, params, coords):
        z = sample_points(params, _MC_CHUNK, 7)
        work, rows = _slice_buffers(params, coords, _MC_CHUNK)
        tracemalloc.start()
        try:
            fim._merged(0, 0.0, 0.0, _score_slice(params, z, coords, work, rows), work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _MC_CHUNK // 16, peak


class TestMcMomentsMatchRowMajorOracle:
    """The slices' component-major score rows against row-major scores
    copied to rows per slice: the same products summed in the same order,
    so mean and M2 are equal bit for bit."""

    @pytest.mark.parametrize("params, coords", [
        (P2, "means"), (P2, "relative_means"), (P2, "full"), (P3, "means"), (P3, "full"),
    ], ids=["K2-means", "K2-relative_means", "K2-full", "K3-means", "K3-full"])
    def test_bit_identical(self, params, coords):
        budget = 2 * _MC_CHUNK + 123  # the last slice partial
        mean, m2 = _mc_moments(params, budget, 7, coords)
        want_mean, want_m2 = rowmajor_mc_moments(params, sample_points(params, budget, 7), coords)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(m2, want_m2)

    # the buffered scorer against _score_in_coords, into buffers sized for
    # a whole slice and reused from one call to the next
    @pytest.mark.parametrize("m", [1, 100, _MC_CHUNK - 1])
    @pytest.mark.parametrize("params, coords", SCORER_CASES, ids=SCORER_CASE_IDS)
    def test_buffered_scorer_bit_identical(self, params, coords, m):
        work, rows = _slice_buffers(params, coords, _MC_CHUNK)
        for seed in (7, 8):
            z = sample_points(params, m, seed)
            got = _score_slice(params, z, coords, work, rows)
            assert np.array_equal(got, _score_in_coords(params, z, coords).T)

    @pytest.mark.parametrize("coords", ["means", "relative_means"])
    def test_buffered_scorer_where_a_responsibility_underflows(self, coords):
        z = np.array([-1e3, -60.0, -30.0, 30.0, 60.0, 1e3])
        assert np.all(np.any(responsibilities_array(P2_UNEQUAL, z) == 0.0, axis=1))
        work, rows = _slice_buffers(P2_UNEQUAL, coords, _MC_CHUNK)
        got = _score_slice(P2_UNEQUAL, z, coords, work, rows)
        assert np.array_equal(got, _score_in_coords(P2_UNEQUAL, z, coords).T)

    @pytest.mark.parametrize("coords", ["means", "relative_means"])
    def test_buffered_scorer_at_a_tie(self, coords):
        # at x = 0 the two components' log-densities are equal, bit for bit
        z = np.array([0.0, -0.0, 0.5, 0.0])
        a = log_component_densities(P2_SYMMETRIC, z)
        assert a[0, 0] == a[1, 0] and a[0, 1] == a[1, 1]
        work, rows = _slice_buffers(P2_SYMMETRIC, coords, _MC_CHUNK)
        got = _score_slice(P2_SYMMETRIC, z, coords, work, rows)
        assert np.array_equal(got, _score_in_coords(P2_SYMMETRIC, z, coords).T)

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


def set_cpus(monkeypatch, n: int) -> None:
    """Make the process see n CPUs, as ``os.sched_getaffinity`` reports them."""
    monkeypatch.setattr(fim.os, "sched_getaffinity", lambda pid: set(range(n)))


def record_fills(monkeypatch, fail_on: int = 0, error=None) -> list[int]:
    """Route every slice fill of the estimate through a wrapper that records
    the thread it runs on and raises `error` on fill number `fail_on`."""
    threads, fill = [], fim._fill_slice

    def recorded(*args):
        threads.append(threading.get_ident())
        if len(threads) == fail_on:
            raise error
        fill(*args)

    monkeypatch.setattr(fim, "_fill_slice", recorded)
    return threads


class DrawFailed(RuntimeError):
    pass


MC_CASES = [(P2, "means"), (P2, "relative_means"), (P2, "full"), (P3, "means"), (P3, "full")]
MC_CASE_IDS = ["K2-means", "K2-relative_means", "K2-full", "K3-means", "K3-full"]


class TestPipelineMatchesSerialOracle:
    """The drawer-thread pipeline against the serial loop it replaced: the
    same slices merged in the same order, the products' upper triangle
    mirrored, so mean and M2 are equal bit for bit."""

    @pytest.mark.parametrize("budget", [100, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1,
                                        3 * _MC_CHUNK + 123])
    @pytest.mark.parametrize("params, coords", MC_CASES, ids=MC_CASE_IDS)
    def test_bit_identical(self, params, coords, budget, monkeypatch):
        set_cpus(monkeypatch, 2)
        mean, m2 = _mc_moments(params, budget, 7, coords)
        want_mean, want_m2 = serial_mc_moments(params, budget, 7, coords)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(m2, want_m2)

    @pytest.mark.parametrize("params, coords", MC_CASES, ids=MC_CASE_IDS)
    def test_one_cpu_draws_inline(self, params, coords, monkeypatch):
        set_cpus(monkeypatch, 1)
        threads = record_fills(monkeypatch)
        budget = 3 * _MC_CHUNK + 123
        mean, m2 = _mc_moments(params, budget, 7, coords)
        assert threads == [threading.get_ident()] * 4
        want_mean, want_m2 = serial_mc_moments(params, budget, 7, coords)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(m2, want_m2)

    def test_two_cpus_draw_ahead_on_a_second_thread(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        threads = record_fills(monkeypatch)
        _mc_moments(P2, 3 * _MC_CHUNK + 123, 7, "means")
        me = threading.get_ident()
        assert len(threads) == 4 and threads[0] == me
        assert len(set(threads[1:])) == 1 and me not in threads[1:]

    def test_concurrent_estimates_under_fast_switching(self, monkeypatch):
        # more estimates than CPUs, each with its own drawer, switching
        # threads every microsecond: a slice scored before it is filled, or
        # overwritten while it is scored, changes the bits
        set_cpus(monkeypatch, 2)
        budget = 2 * _MC_CHUNK + 123
        want = serial_mc_moments(P2, budget, 11, "relative_means")
        results = []

        def estimate():
            results.append(_mc_moments(P2, budget, 11, "relative_means"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=estimate) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(results) == 4
        for mean, m2 in results:
            assert np.array_equal(mean, want[0]) and np.array_equal(m2, want[1])


class TestPipelineLifecycle:
    """Checks run before any draw, and the drawer thread is gone when the
    estimate returns or raises."""

    @pytest.mark.parametrize("params, coords, error", [
        (P2, "polar", MixtureError),
        (P3, "relative_means", MixtureError),
        (MixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 1.0)), "relative_means", SingularFimError),
    ], ids=["unknown-coords", "K3-relative", "singular"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_checks_before_any_draw(self, params, coords, error, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        threads = record_fills(monkeypatch, fail_on=1, error=AssertionError("drew a slice"))
        before = threading.active_count()
        with pytest.raises(error):
            fim_estimate(params, coords=coords, method="monte_carlo", budget=3 * _MC_CHUNK)
        assert threads == [] and threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_negative_seed_is_rejected_before_any_draw(self, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        threads = record_fills(monkeypatch, fail_on=1, error=AssertionError("drew a slice"))
        before = threading.active_count()
        with pytest.raises(MixtureError, match="seed must be non-negative, got -1"):
            fim_estimate(P2, coords="means", method="monte_carlo", budget=3 * _MC_CHUNK, seed=-1)
        assert threads == [] and threading.active_count() == before

    def test_no_thread_left_after_return(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        before = threading.active_count()
        fim_estimate(P2, coords="full", method="monte_carlo", budget=3 * _MC_CHUNK + 123)
        assert threading.active_count() == before

    def test_a_failed_draw_reaches_the_caller(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        threads = record_fills(monkeypatch, fail_on=2, error=DrawFailed("second slice"))
        before = threading.active_count()
        with pytest.raises(DrawFailed, match="second slice"):
            fim_estimate(P2, coords="means", method="monte_carlo", budget=3 * _MC_CHUNK + 123)
        assert len(threads) == 2 and threads[1] != threading.get_ident()
        assert threading.active_count() == before

    def test_a_failed_score_stops_the_drawer(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        calls, score_slice = [], fim._score_slice

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise DrawFailed("second score")
            return score_slice(*args)

        monkeypatch.setattr(fim, "_score_slice", failing)
        before = threading.active_count()
        with pytest.raises(DrawFailed, match="second score"):
            fim_estimate(P2, coords="means", method="monte_carlo", budget=3 * _MC_CHUNK + 123)
        assert threading.active_count() == before


class TestTransformFim:
    def test_shear_on_identity(self):
        ident = FisherMatrix(np.eye(2), "means", "quadrature", 0)
        out = transform_fim(ident, J_REL)
        assert out.entries.tolist() == [[2.0, 1.0], [1.0, 1.0]]

    def test_identity_jacobian_is_noop(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        m = fim_estimate(p, coords="means", method="quadrature")
        out = transform_fim(m, np.eye(2))
        assert np.array_equal(out.entries, m.entries)

    def test_shape_mismatch(self):
        ident = FisherMatrix(np.eye(2), "means", "quadrature", 0)
        with pytest.raises(MixtureError):
            transform_fim(ident, np.eye(3))

    def test_direct_vs_transformed_same_draws(self):
        p = MixtureParams((0.5, 0.5), (-1.0, 1.5), (1.0, 1.0))
        direct = fim_estimate(p, coords="relative_means", method="monte_carlo",
                              budget=200000, seed=8)
        absolute = fim_estimate(p, coords="means", method="monte_carlo",
                                budget=200000, seed=8)
        moved = transform_fim(absolute, J_REL)
        bound = 4 * (direct.std_errors + moved.std_errors)
        assert np.all(np.abs(direct.entries - moved.entries) < bound)

    def test_covariance_law_at_off_singular_points(self):
        rng = make_rng(42)
        for i in range(10):
            mu1 = float(rng.normal(0, 2))
            mu2 = mu1 + float(rng.random() * 3 + 0.3)
            p = MixtureParams((0.5, 0.5), (mu1, mu2), (1.0, 1.0))
            direct = fim_estimate(p, coords="relative_means",
                                  method="monte_carlo", budget=100000, seed=i)
            absolute = fim_estimate(p, coords="means", method="monte_carlo",
                                    budget=100000, seed=i)
            moved = transform_fim(absolute, J_REL)
            bound = 4 * (direct.std_errors + moved.std_errors)
            assert np.all(np.abs(direct.entries - moved.entries) < bound)


class TestLengthElement:
    def test_zero_displacement(self):
        m = FisherMatrix(np.eye(2), "means", "quadrature", 0)
        assert length_element(m, np.zeros(2)) == 0.0

    def test_euclidean_case(self):
        m = FisherMatrix(np.eye(2), "means", "quadrature", 0)
        assert length_element(m, np.array([3.0, 4.0])) == 25.0

    def test_invariance_identity(self):
        rng = make_rng(17)
        for _ in range(50):
            a = rng.normal(0, 1, (2, 2))
            i_theta = FisherMatrix(a @ a.T + 0.1 * np.eye(2), "means",
                                   "quadrature", 0)
            jac = rng.normal(0, 1, (2, 2)) + 2 * np.eye(2)
            d_lambda = rng.normal(0, 1, 2)
            d_theta = jac @ d_lambda
            lhs = length_element(i_theta, d_theta)
            rhs = length_element(transform_fim(i_theta, jac), d_lambda)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_dimension_mismatch(self):
        m = FisherMatrix(np.eye(2), "means", "quadrature", 0)
        with pytest.raises(MixtureError):
            length_element(m, np.zeros(3))


class TestDegeneracy:
    def test_min_eigenvalue_vanishes_at_overlap(self):
        p = MixtureParams((0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        m = fim_estimate(p, coords="means", method="quadrature")
        assert np.min(np.linalg.eigvalsh(m.entries)) < 1e-6

    def test_min_eigenvalue_recovers_at_unit_gap(self):
        p = MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        m = fim_estimate(p, coords="means", method="quadrature")
        assert np.min(np.linalg.eigvalsh(m.entries)) > 1e-3

    def test_monotone_gap_detection(self):
        eigs = []
        for gap in (0.0, 0.25, 0.5, 1.0):
            p = MixtureParams((0.5, 0.5), (0.0, gap), (1.0, 1.0))
            m = fim_estimate(p, coords="means", method="quadrature")
            eigs.append(np.min(np.linalg.eigvalsh(m.entries)))
        assert all(a < b for a, b in zip(eigs, eigs[1:]))


class TestCrouzeix:
    def test_gaussian_natural_form_exact(self):
        assert crouzeix_check(gaussian_natural_family(), 0.7) == 0.0

    def test_bernoulli_analytic(self):
        assert crouzeix_check(bernoulli_family(), 0.7) < 1e-8

    def test_gaussian_finite_difference(self):
        assert crouzeix_check(gaussian_natural_family(), 1.2,
                              numeric_conjugate=True) < 1e-6

    def test_bernoulli_finite_difference(self):
        assert crouzeix_check(bernoulli_family(), 0.7,
                              numeric_conjugate=True) < 1e-6

    def test_residual_sweep(self):
        for family in (gaussian_natural_family(), bernoulli_family()):
            for theta in (-2.0, -0.5, 0.0, 0.5, 2.0):
                assert crouzeix_check(family, theta) < 1e-8
                assert crouzeix_check(family, theta, numeric_conjugate=True) < 1e-6
