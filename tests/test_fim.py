import tracemalloc

import numpy as np
import pytest

from childproc import assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import one_shot_mc_fim, rowmajor_mc_moments
from relreparam.fim import (_MC_CHUNK, FisherMatrix, SingularFimError, _mc_moments,
                            bernoulli_family, crouzeix_check, fim_estimate,
                            gaussian_natural_family, length_element,
                            transform_fim)
from relreparam.gmm import MixtureError, MixtureParams, make_rng, sample

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
P3 = MixtureParams((0.2, 0.5, 0.3), (-1.0, 0.5, 2.0), (0.7, 1.0, 1.3))


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

    def test_peak_memory_bounded_by_a_few_sample_arrays(self):
        budget = 10 ** 6
        tracemalloc.start()
        try:
            fim_estimate(P2, coords="means", method="monte_carlo", budget=budget, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a one-shot (budget, 2, 2) product tensor alone is 4 * 8 * budget bytes
        assert peak < 4 * 8 * budget


class TestMcMomentsMatchRowMajorOracle:
    """The slices' component-major score rows against row-major scores
    copied to rows per slice: the same products summed in the same order,
    so mean and M2 are equal bit for bit."""

    @pytest.mark.parametrize("params, coords", [
        (P2, "means"), (P2, "relative_means"), (P2, "full"), (P3, "means"), (P3, "full"),
    ], ids=["K2-means", "K2-relative_means", "K2-full", "K3-means", "K3-full"])
    def test_bit_identical(self, params, coords):
        xs = sample(params, 2 * _MC_CHUNK + 123, 7).points  # the last slice partial
        mean, m2 = _mc_moments(params, xs, coords)
        want_mean, want_m2 = rowmajor_mc_moments(params, xs, coords)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(m2, want_m2)

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(f"{__file__}::TestMcMomentsMatchRowMajorOracle")


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
