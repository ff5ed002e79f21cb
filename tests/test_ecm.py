import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import mean_distance, rowmajor_fit, rowmajor_log_sum_exp
from relreparam import ecm as ecm_module
from relreparam import gmm

from relreparam.ecm import (DegenerateComponentError, ECMConfig,
                            Responsibilities, cm_step_delta,
                            cm_step_reference_mean, e_step, fit_ecm_relative,
                            fit_em_standard, m_step_standard, q_function)
from relreparam.experiments import RELATIVE_SPEC, default_config
from relreparam.gmm import (Dataset, MixtureError, MixtureParams,
                            log_likelihood, make_rng, sample)
from relreparam.reparam import (RelativeParams, ReparamSpec, decoded_gaps,
                                to_absolute, to_relative)

FIG_TRUTH = MixtureParams((0.5, 0.5), (-5.1, -5.0), (1.0, 1.0))


def relative_init(mu1, mu2):
    return RelativeParams(reference_value=mu1, deltas=(mu2 - mu1,),
                          weights=(0.5, 0.5), other_block=(1.0, 1.0),
                          permutation=(0, 1))


def numerical_argmax(f, lo=-15.0, hi=15.0):
    """Argmax of a smooth unimodal scalar function.

    Brent narrows the bracket, then one parabolic-vertex polish removes the
    solver's termination error (Q is quadratic in each CM coordinate, so the
    vertex of the interpolating parabola is exact up to rounding).
    """
    res = minimize_scalar(lambda t: -f(t), bracket=(lo, 0.5 * (lo + hi), hi),
                          method="brent", options={"xtol": 1e-10})
    x0, h = float(res.x), 0.5
    fm, f0, fp = f(x0 - h), f(x0), f(x0 + h)
    denom = fp - 2.0 * f0 + fm
    if denom >= 0.0:
        return x0
    return x0 - 0.5 * h * (fp - fm) / denom


def fit_ecm_relative_roundtrip(data, init, config):
    """Oracle for fit_ecm_relative, in a loop of its own.

    Maps back and forth between coordinate systems every iteration instead of
    reparameterizing once. Returns (iterations, absolute-parameter trajectory).
    """
    spec = ReparamSpec(delta_encoding="raw_constrained")
    params = to_absolute(init, spec)
    traj = [params]
    lls = [log_likelihood(params, data)]
    iters = 0
    for iters in range(1, config.max_iters + 1):
        gamma = e_step(params, data)
        rel = to_relative(params, spec)
        mu1 = cm_step_reference_mean(gamma, data, float(rel.deltas[0]))
        delta, _ = cm_step_delta(gamma, data, mu1)
        rel = RelativeParams(reference_value=mu1, deltas=(delta,),
                             weights=rel.weights, other_block=rel.other_block,
                             permutation=rel.permutation)
        params = to_absolute(rel, spec)
        traj.append(params)
        lls.append(log_likelihood(params, data))
        if abs(lls[-1] - lls[-2]) <= config.epsilon:
            break
    return iters, traj


def random_instance(rng, n=20):
    xs = rng.normal(0, 2, n)
    g1 = rng.random(n)
    gamma = Responsibilities(np.column_stack([g1, 1 - g1]))
    return gamma, Dataset(tuple(xs))


class TestEStep:
    def test_coincident_components_give_half(self):
        p = MixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 1.0))
        g = e_step(p, Dataset((0.0, 3.0, -2.0))).gamma
        assert np.allclose(g, 0.5, atol=0.0)

    def test_midpoint_is_half(self):
        p = MixtureParams((0.5, 0.5), (0.0, 4.0), (1.0, 1.0))
        g = e_step(p, Dataset((2.0,))).gamma
        assert g[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_density_ratio_value(self):
        p = MixtureParams((0.5, 0.5), (0.0, 4.0), (1.0, 1.0))
        g = e_step(p, Dataset((0.0,))).gamma
        assert g[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-8.0)), abs=1e-12)

    def test_rows_sum_to_one(self):
        p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
        g = e_step(p, sample(p, 100, seed=4)).gamma
        assert np.allclose(g.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_point_no_nan(self):
        p = MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
        g = e_step(p, Dataset((500.0,))).gamma
        assert np.all(np.isfinite(g))
        assert g[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestMStepStandard:
    def test_one_hot_assignment(self):
        gamma = Responsibilities(np.array([[1.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0], [0.0, 1.0]]))
        p = m_step_standard(gamma, Dataset((0.0, 0.0, 4.0, 4.0)))
        assert p.means == pytest.approx((0.0, 4.0))
        assert p.weights == pytest.approx((0.5, 0.5))

    def test_uniform_gamma_gives_dataset_mean(self):
        gamma = Responsibilities(np.full((3, 2), 0.5))
        p = m_step_standard(gamma, Dataset((1.0, 2.0, 6.0)))
        assert p.means == pytest.approx((3.0, 3.0))

    def test_empty_component_raises(self):
        gamma = Responsibilities(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateComponentError):
            m_step_standard(gamma, Dataset((0.0, 1.0)))

    def test_monotonicity_from_random_gamma(self):
        # an M-step after a true E-step never decreases the log-likelihood
        rng = make_rng(202)
        for _ in range(100):
            p = MixtureParams((0.5, 0.5),
                              tuple(np.sort(rng.normal(0, 2, 2))),
                              (1.0, 1.0))
            data = Dataset(tuple(rng.normal(0, 2, 20)))
            gamma = e_step(p, data)
            after = m_step_standard(gamma, data)
            assert log_likelihood(after, data) >= log_likelihood(p, data) - 1e-9


class TestCmStepReferenceMean:
    def test_delta_zero_collapses_to_weighted_mean(self):
        gamma = Responsibilities(np.array([[0.3, 0.7], [0.8, 0.2]]))
        mu1 = cm_step_reference_mean(gamma, Dataset((2.0, 6.0)), delta=0.0)
        assert mu1 == pytest.approx(4.0)

    def test_one_hot_hand_solve(self):
        gamma = Responsibilities(np.array([[1.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0], [0.0, 1.0]]))
        mu1 = cm_step_reference_mean(gamma, Dataset((0.0, 0.0, 4.0, 4.0)), delta=4.0)
        assert mu1 == pytest.approx(0.0, abs=1e-14)

    def test_matches_numerical_argmax(self):
        rng = make_rng(303)
        for _ in range(50):
            gamma, data = random_instance(rng)
            delta = float(rng.random() * 3)
            mu1 = cm_step_reference_mean(gamma, data, delta)

            def q_at(m):
                p = MixtureParams((0.5, 0.5), (m, m + delta), (1.0, 1.0))
                return q_function(p, gamma, data)

            assert mu1 == pytest.approx(numerical_argmax(q_at), abs=1e-8)

    def test_stationarity_by_finite_differences(self):
        rng = make_rng(304)
        gamma, data = random_instance(rng)
        delta = 1.2
        mu1 = cm_step_reference_mean(gamma, data, delta)
        step = 1e-5

        def q_at(m):
            p = MixtureParams((0.5, 0.5), (m, m + delta), (1.0, 1.0))
            return q_function(p, gamma, data)

        grad = (q_at(mu1 + step) - q_at(mu1 - step)) / (2 * step)
        assert abs(grad) < 1e-6


class TestCmStepDelta:
    def test_one_hot_hand_solve(self):
        gamma = Responsibilities(np.array([[1.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0], [0.0, 1.0]]))
        delta, lam = cm_step_delta(gamma, Dataset((0.0, 0.0, 4.0, 4.0)), mu1=0.0)
        assert delta == pytest.approx(4.0)
        assert lam == 0.0

    def test_active_constraint(self):
        gamma = Responsibilities(np.array([[0.2, 0.8], [0.3, 0.7]]))
        delta, lam = cm_step_delta(gamma, Dataset((0.0, 1.0)), mu1=10.0)
        assert delta == 0.0
        assert lam > 0.0
        assert lam * delta == 0.0

    def test_zero_mass_raises(self):
        gamma = Responsibilities(np.array([[1.0, 0.0]]))
        with pytest.raises(DegenerateComponentError):
            cm_step_delta(gamma, Dataset((0.0,)), mu1=0.0)

    def test_matches_projected_numerical_argmax(self):
        rng = make_rng(404)
        for _ in range(50):
            gamma, data = random_instance(rng)
            mu1 = float(rng.normal(0, 2))
            delta, lam = cm_step_delta(gamma, data, mu1)
            assert delta >= 0.0
            assert lam >= 0.0
            assert lam * delta == 0.0

            def q_at(d):
                p = MixtureParams((0.5, 0.5), (mu1, mu1 + d), (1.0, 1.0))
                return q_function(p, gamma, data)

            # projected argmax of a concave objective: maximize without the
            # constraint, then clip at zero
            assert delta == pytest.approx(max(numerical_argmax(q_at), 0.0),
                                          abs=1e-8)

    def test_kkt_multiplier_value(self):
        # lambda = -2 * N2 * delta_hat on the active branch (stationarity of
        # the Lagrangian in Delta)
        gamma = Responsibilities(np.array([[0.0, 1.0], [0.0, 1.0]]))
        delta, lam = cm_step_delta(gamma, Dataset((1.0, 3.0)), mu1=5.0)
        assert delta == 0.0
        assert lam == pytest.approx(-2.0 * 2.0 * (2.0 - 5.0))


class TestQFunction:
    def test_one_hot_equals_complete_data_loglik(self):
        p = MixtureParams((0.5, 0.5), (0.0, 4.0), (1.0, 1.0))
        gamma = Responsibilities(np.array([[1.0, 0.0], [0.0, 1.0]]))
        xs = (0.3, 4.2)
        expected = sum(
            np.log(0.5) - 0.5 * np.log(2 * np.pi) - 0.5 * (x - m) ** 2
            for x, m in zip(xs, (0.0, 4.0)))
        assert q_function(p, gamma, Dataset(xs)) == pytest.approx(expected, abs=1e-12)

    def test_ascent_after_cm_pair(self):
        rng = make_rng(505)
        for _ in range(20):
            gamma, data = random_instance(rng)
            p0 = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
            mu1 = cm_step_reference_mean(gamma, data, delta=2.0)
            delta, _ = cm_step_delta(gamma, data, mu1)
            p1 = MixtureParams((0.5, 0.5), (mu1, mu1 + delta), (1.0, 1.0))
            assert q_function(p1, gamma, data) >= q_function(p0, gamma, data) - 1e-12


class TestFitEmStandard:
    def test_recovers_well_separated_means(self):
        truth = MixtureParams((0.5, 0.5), (-4.0, 4.0), (1.0, 1.0))
        data = sample(truth, 400, seed=21)
        init = MixtureParams((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0))
        res = fit_em_standard(data, init, ECMConfig())
        assert res.converged
        se = 1.0 / np.sqrt(200)  # ~200 points per component, unit sigma
        assert abs(res.params.means[0] - (-4.0)) < 3 * se
        assert abs(res.params.means[1] - 4.0) < 3 * se

    def test_k1_closed_form_mle(self):
        xs = np.array([1.0, 2.0, 3.0, 6.0])
        init = MixtureParams((1.0,), (0.0,), (1.0,))
        res = fit_em_standard(Dataset(tuple(xs)), init, ECMConfig())
        assert res.params.means[0] == pytest.approx(xs.mean(), abs=1e-12)
        assert res.params.sigmas[0] == pytest.approx(xs.std(), abs=1e-10)

    def test_monotone_loglik(self):
        data = sample(FIG_TRUTH, 200, seed=12)
        init = MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0))
        res = fit_em_standard(data, init, ECMConfig())
        assert np.all(np.diff(res.loglik) >= -1e-9)


class TestFitEcmRelative:
    def test_fig2_setup_converges(self):
        data = sample(FIG_TRUTH, 200, seed=12)
        res = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig(),
                               truth=FIG_TRUTH)
        assert res.converged
        assert res.iterations <= 10000
        assert np.all(np.diff(res.loglik) >= -1e-9)
        # every iterate keeps the gap nonnegative
        for p in res.trajectory_params:
            assert p.means[1] - p.means[0] >= 0.0

    def test_fig2_relative_beats_standard_em(self):
        # baseline is vanilla EM with all blocks free; the relative ECM keeps
        # pi and sigma fixed at their true values
        data = sample(FIG_TRUTH, 200, seed=12)
        em = fit_em_standard(data, MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0)),
                             ECMConfig(), truth=FIG_TRUTH)
        ecm = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig(),
                               truth=FIG_TRUTH)
        n = min(len(em.dist_to_true), len(ecm.dist_to_true))
        assert np.all(ecm.dist_to_true[5:n] <= em.dist_to_true[5:n] + 1e-12)

    def test_fixpoint_terminates_immediately(self):
        data = sample(FIG_TRUTH, 200, seed=12)
        first = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig())
        m1, m2 = first.params.means
        again = fit_ecm_relative(data, relative_init(m1, m2), ECMConfig())
        assert again.iterations == 1
        assert again.converged

    def test_monotonicity_over_seeded_runs(self):
        rng = make_rng(606)
        for run in range(100):
            mu = np.sort(rng.normal(0, 3, 2))
            truth = MixtureParams((0.5, 0.5), tuple(mu), (1.0, 1.0))
            data = sample(truth, 60, seed=run)
            init = relative_init(min(-1.0, float(rng.normal(-1, 1))),
                                 float(abs(rng.normal(1, 1)) + 1))
            res = fit_ecm_relative(data, init, ECMConfig(max_iters=500))
            assert np.all(np.diff(res.loglik) >= -1e-9)
            for p in res.trajectory_params:
                assert p.means[1] - p.means[0] >= 0.0

    def test_roundtrip_variant_identical_iterates(self):
        data = sample(FIG_TRUTH, 200, seed=12)
        once = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig())
        rt_iters, rt_traj = fit_ecm_relative_roundtrip(data, relative_init(-2.5, 2.0),
                                                       ECMConfig())
        assert once.iterations == rt_iters
        for a, b in zip(once.trajectory_params, rt_traj):
            assert a.means == pytest.approx(b.means, abs=1e-12)

    def test_equivalence_off_constraint(self):
        # when the unconstrained EM fixpoint already satisfies mu2 >= mu1,
        # the quotient map is a bijection and the ECM agrees with EM over the
        # means alone (the oracle's; fit_em_standard updates every block)
        truth = MixtureParams((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0))
        data = sample(truth, 300, seed=9)
        init_means = (-1.5, 1.5)
        # a tight epsilon so both stopping points sit within 1e-6 in
        # parameter space of the shared fixpoint
        cfg = ECMConfig(epsilon=1e-13, max_iters=50000)
        _, em, _ = rowmajor_fit(data, MixtureParams((0.5, 0.5), init_means, (1.0, 1.0)), cfg,
                                means_only=True)
        assert em[-1].means[1] >= em[-1].means[0]
        ecm = fit_ecm_relative(data, relative_init(*init_means), cfg)
        assert ecm.params.means == pytest.approx(em[-1].means, abs=1e-6)

    def test_clearance_keeps_gap(self):
        spec = ReparamSpec(delta_encoding="raw_constrained", clearance=0.0)
        data = sample(FIG_TRUTH, 200, seed=12)
        res = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig(),
                               spec=spec)
        for p in res.trajectory_params:
            assert p.means[1] - p.means[0] >= spec.clearance

    def test_rejects_positive_clearance(self):
        # the KKT step projects onto Delta >= 0, not Delta >= lambda: from this
        # start a fit at lambda = 2 would end at Delta = 0.887
        spec = ReparamSpec(clearance=2.0, delta_encoding="raw_constrained")
        data = sample(FIG_TRUTH, 200, seed=12)
        init = MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0))
        with pytest.raises(MixtureError, match="zero clearance"):
            fit_ecm_relative(data, to_relative(init, spec), ECMConfig(), spec=spec)

    def test_rejects_three_components(self):
        rel = RelativeParams(reference_value=0.0, deltas=(1.0, 1.0),
                             weights=(1 / 3, 1 / 3, 1 / 3),
                             other_block=(1.0, 1.0, 1.0), permutation=(0, 1, 2))
        with pytest.raises(MixtureError):
            fit_ecm_relative(Dataset((0.0, 1.0)), rel, ECMConfig())

    def test_rejects_sigma_ordering_and_free_blocks(self):
        # ordered by sigma, the start's gap would be the sigma gap (0), not 4.5
        data = sample(FIG_TRUTH, 50, seed=12)
        init = MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0))
        by_sigma = ReparamSpec(ordering_coordinate="sigma", delta_encoding="raw_constrained")
        with pytest.raises(MixtureError, match="ordered by mean"):
            fit_ecm_relative(data, to_relative(init, by_sigma), ECMConfig(), spec=by_sigma)


def test_responsibilities_validation():
    with pytest.raises(MixtureError):
        Responsibilities(np.array([[0.6, 0.6]]))
    with pytest.raises(MixtureError):
        Responsibilities(np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_responsibilities_refuse_non_finite_entries(bad):
    # NaN fails every comparison, so a NaN row passed the range and sum checks
    with pytest.raises(MixtureError, match="finite"):
        Responsibilities(np.array([[bad, bad], [0.5, 0.5]]))
    with pytest.raises(MixtureError, match="finite"):
        Responsibilities(np.array([[bad, 0.0], [0.5, 0.5]]))


def test_ecm_config_validation():
    with pytest.raises(MixtureError):
        ECMConfig(epsilon=0.0)
    with pytest.raises(MixtureError):
        ECMConfig(max_iters=0)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
def test_ecm_config_max_iters_must_be_an_integer(max_iters):
    # accepted, 2.5 made the fit fail with a TypeError from range
    with pytest.raises(MixtureError, match="max_iters must be an integer"):
        ECMConfig(max_iters=max_iters)


def test_ecm_config_takes_a_numpy_integer():
    cfg = ECMConfig(max_iters=np.int64(7))
    assert cfg.max_iters == 7 and type(cfg.max_iters) is int
    data = sample(FIG_TRUTH, 50, seed=1)
    assert fit_em_standard(data, FIG_TRUTH, cfg).iterations <= 7


# The paper's figure setup (the CLI's default ecm config) and the benchmark's
# large-n fit: EM with every block free against the relative ECM, from the
# relative coordinates the CLI builds with its default squared-gap encoding.
ORACLE_CASES = {
    "default": (FIG_TRUTH, 200),
    "n1e4": (MixtureParams((0.5, 0.5), (-6.5, -3.5), (1.0, 1.0)), 10_000),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    truth, n = ORACLE_CASES[request.param]
    data = sample(truth, n, seed=12)
    init = MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0))
    spec = ReparamSpec(delta_encoding="squared")
    rel = to_relative(init, spec)
    em = fit_em_standard(data, init, ECMConfig(), truth=truth)
    ecm = fit_ecm_relative(data, rel, ECMConfig(), truth=truth, spec=spec)
    em_oracle = rowmajor_fit(data, init, ECMConfig())
    ecm_oracle = rowmajor_fit(data, to_absolute(rel, spec), ECMConfig(),
                              delta=float(decoded_gaps(rel, spec)[0]))
    return data, truth, {"em": (em, em_oracle), "ecm_relative": (ecm, ecm_oracle)}


class TestComponentMajorMatchesRowMajorOracle:
    """The component-major kernels and one-pass loop against the row-major
    oracle: same iteration counts, and values within 1e-12 (the oracle's
    EM M-step sums run sequentially down columns, the kernels' pairwise
    along rows; both ECM paths sum pairwise, so ECM matches exactly)."""

    @pytest.mark.parametrize("algorithm", ["em", "ecm_relative"])
    def test_iterations_means_loglik_distance(self, oracle_case, algorithm):
        _, truth, fits = oracle_case
        res, (iters, traj, lls) = fits[algorithm]
        assert res.iterations == iters
        assert len(res.trajectory_params) == len(traj)
        got = np.array([p.means for p in res.trajectory_params])
        want = np.array([p.means for p in traj])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.loglik, lls, rtol=1e-12, atol=0.0)
        dist = [mean_distance(p, truth) for p in traj]
        np.testing.assert_allclose(res.dist_to_true, dist, rtol=0.0, atol=1e-12)

    def test_relative_ecm_trajectory_exact(self, oracle_case):
        res, (_, traj, lls) = oracle_case[2]["ecm_relative"]
        assert [p.means for p in res.trajectory_params] == [p.means for p in traj]
        assert res.loglik.tolist() == lls.tolist()

    def test_rowmajor_e_step_matches_component_major(self, oracle_case):
        data, *_ = oracle_case
        params = MixtureParams((0.3, 0.7), (-6.0, -4.0), (0.8, 1.3))
        g, log_p = rowmajor_log_sum_exp(params, data.points)
        gamma = e_step(params, data)
        assert np.array_equal(gamma.gamma, g)
        assert gamma.loglik == float(np.sum(log_p))


class TestOnePassPerIteration:
    @pytest.mark.parametrize("algorithm", ["em", "ecm_relative"])
    def test_loglik_belongs_to_its_iterate(self, algorithm):
        data = sample(FIG_TRUTH, 200, seed=12)
        if algorithm == "em":
            res = fit_em_standard(data, MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0)),
                                  ECMConfig())
        else:
            res = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig())
        assert len(res.loglik) == len(res.trajectory_params) == res.iterations + 1
        for k, p in enumerate(res.trajectory_params):
            assert res.loglik[k] == log_likelihood(p, data), k

    @pytest.mark.parametrize("max_iters", [3, 10000])
    @pytest.mark.parametrize("algorithm", ["em", "ecm_relative"])
    def test_one_density_pass_per_iteration(self, monkeypatch, algorithm, max_iters):
        calls = []
        original = gmm.log_component_densities

        def counting(params, x):
            calls.append(np.size(x))
            return original(params, x)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        data = sample(FIG_TRUTH, 200, seed=12)
        cfg = ECMConfig(max_iters=max_iters)
        if algorithm == "em":
            res = fit_em_standard(data, MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0)), cfg)
        else:
            res = fit_ecm_relative(data, relative_init(-2.5, 2.0), cfg)
        assert len(calls) == res.iterations + 1
        assert set(calls) == {200}


class TestFitObservability:
    def test_converged_fit_reports_stop_and_kkt(self):
        data = sample(FIG_TRUTH, 200, seed=12)
        res = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig())
        assert res.stop_reason == "converged" and res.converged
        assert res.iterations < ECMConfig().max_iters
        # recompute every gap step's KKT multiplier from the recorded iterates
        lams = []
        for prev, cur in zip(res.trajectory_params, res.trajectory_params[1:]):
            delta, lam = cm_step_delta(e_step(prev, data), data, cur.means[0])
            assert cur.means == (cur.means[0], cur.means[0] + delta)
            lams.append(lam)
        assert res.kkt_active_steps == sum(lam > 0.0 for lam in lams)
        assert res.max_kkt_multiplier == max(lams)

    def test_kkt_bookkeeping_follows_gap_steps(self, monkeypatch):
        # exact gap steps from an ECM E-step are clamped only by rounding
        # (gamma_2 grows with x, so the weighted mean of component 2 is never
        # below mu1 in exact arithmetic); scripted multipliers check the count
        scripted = iter([(0.0, 2.5), (0.0, 0.5), (1.0, 0.0)])
        monkeypatch.setattr(ecm_module, "cm_step_delta", lambda gamma, data, mu1: next(scripted))
        data = sample(FIG_TRUTH, 200, seed=12)
        res = fit_ecm_relative(data, relative_init(-2.5, 2.0), ECMConfig(max_iters=3))
        assert res.kkt_active_steps == 2
        assert res.max_kkt_multiplier == 2.5
        gaps = [p.means[1] - p.means[0] for p in res.trajectory_params[1:]]
        assert gaps[:2] == [0.0, 0.0] and gaps[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_default_config_never_clamps(self, seed):
        # with fixed equal weights and unit sigmas the clamp cannot fire in
        # exact arithmetic, so on working code both read 0
        cfg = default_config("ecm")
        truth = MixtureParams((0.5, 0.5), tuple(cfg["true_means"]), (1.0, 1.0))
        init = MixtureParams((0.5, 0.5), tuple(cfg["init_means"]), (1.0, 1.0))
        data = sample(truth, cfg["n_samples"], seed=seed)
        res = fit_ecm_relative(data, to_relative(init, RELATIVE_SPEC),
                               ECMConfig(epsilon=cfg["epsilon"], max_iters=cfg["max_iters"]),
                               spec=RELATIVE_SPEC)
        assert res.converged
        assert (res.kkt_active_steps, res.max_kkt_multiplier) == (0, 0.0)

    @pytest.mark.parametrize("algorithm", ["em", "ecm_relative"])
    def test_max_iters_stop(self, algorithm):
        data = sample(FIG_TRUTH, 200, seed=12)
        cfg = ECMConfig(max_iters=3)
        if algorithm == "em":
            res = fit_em_standard(data, MixtureParams((0.5, 0.5), (-2.5, 2.0), (1.0, 1.0)), cfg)
        else:
            res = fit_ecm_relative(data, relative_init(-2.5, 2.0), cfg)
        assert res.stop_reason == "max_iters" and not res.converged
        assert res.iterations == 3
        assert len(res.trajectory_params) == len(res.loglik) == 4
        if algorithm == "em":
            assert (res.kkt_active_steps, res.max_kkt_multiplier) == (0, 0.0)


def test_responsibilities_store_component_rows():
    gamma = Responsibilities(np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]]))
    assert gamma.gamma.shape == (3, 2)
    assert gamma.gamma.T.flags.c_contiguous
    assert gamma.loglik is None
    e = e_step(MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0)), Dataset((0.0, 1.0, 2.0)))
    assert e.gamma.shape == (3, 2) and e.gamma.T.flags.c_contiguous
