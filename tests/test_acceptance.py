"""Acceptance gate: the ten headline claims, one pass/fail line each.

Each test exercises one criterion end to end at the stated tolerance and
prints `ACCEPTANCE n <name>: PASS|FAIL` directly to the terminal (bypassing
capture) before asserting.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from relreparam.cli import EXIT_OK, main
from relreparam.dynamics import (TrueModel, UVWState,
                                 expected_velocity_original,
                                 expected_velocity_relative, flow_field,
                                 original_gram, relative_gram)
from relreparam.ecm import (ECMConfig, Responsibilities, cm_step_delta,
                            cm_step_reference_mean, e_step, fit_ecm_relative,
                            fit_em_standard, q_function)
from relreparam.fim import (bernoulli_family, crouzeix_check, fim_estimate,
                            gaussian_natural_family, length_element,
                            transform_fim, FisherMatrix)
from relreparam.gmm import (Dataset, MixtureParams, density, make_rng, sample)
from relreparam.nn import (MLPParams, decode_rows, detect_singularities,
                           forward, permute_hidden_units, reparameterize_rows)
from relreparam.reparam import (RelativeParams, ReparamSpec, jacobian,
                                to_absolute, to_relative)

from oracles import exact_partials_per_sample

FIXTURES = Path(__file__).parent / "fixtures"


def report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_flow_field_figure_setups(capsys):
    started = time.monotonic()
    ok = True
    for lo, hi, truth in ((-2.0, 2.0, (0.0, 0.0)), (10.0, 30.0, (20.0, 20.0))):
        step = (hi - lo) / 40.0
        tm = TrueModel.from_means(*truth)
        fo = flow_field((lo, hi, step), (lo, hi, step), 0.5, tm, "original", eta=1.0)
        fr = flow_field((lo, hi, step), (lo, hi, step), 0.5, tm, "relative", eta=1.0)
        ok = ok and fo.dmu1.shape == (41, 41) and fr.dmu1.shape == (41, 41)
        g1, g2 = np.meshgrid(fo.mu1_axis, fo.mu2_axis)
        band = np.abs(g1 - g2) < 0.2
        norm_o = np.hypot(fo.dmu1, fo.dmu2)[band].mean()
        norm_r = np.hypot(fr.dmu1, fr.dmu2)[band].mean()
        ok = ok and norm_r > norm_o
    ok = ok and (time.monotonic() - started) < 5.0
    report(capsys, 1, "flow-field figure setups", ok)


def test_02_ecm_figure_reproduction(capsys, tmp_path):
    started = time.monotonic()
    out = tmp_path / "ecm"
    ok = main(["ecm", "--out", str(out)]) == EXIT_OK
    golden = json.loads((FIXTURES / "golden_digests.json").read_text())
    digest = hashlib.sha256((out / "ecm_trajectories.csv").read_bytes()).hexdigest()
    ok = ok and digest == golden["ecm/ecm_trajectories.csv"]
    em, ecm = [], []
    for line in (out / "ecm_trajectories.csv").read_text().splitlines()[2:]:
        cols = line.split(",")
        (em if cols[-1] == "em" else ecm).append(float(cols[5]))
    n = min(len(em), len(ecm))
    ok = ok and n >= 6
    ok = ok and all(e <= m + 1e-12 for e, m in zip(ecm[5:n], em[5:n]))
    ok = ok and (time.monotonic() - started) < 10.0
    report(capsys, 2, "ECM figure reproduction", ok)


def _brent_argmax(f):
    res = minimize_scalar(lambda t: -f(t), bracket=(-15.0, 0.0, 15.0),
                          method="brent", options={"xtol": 1e-10})
    x0, h = float(res.x), 0.5
    fm, f0, fp = f(x0 - h), f(x0), f(x0 + h)
    denom = fp - 2.0 * f0 + fm
    return x0 if denom >= 0.0 else x0 - 0.5 * h * (fp - fm) / denom


def test_03_cm_step_oracle_equivalence(capsys):
    rng = make_rng(8080)
    ok = True
    for _ in range(50):
        xs = rng.normal(0, 2, 20)
        g1 = rng.random(20)
        gamma = Responsibilities(np.column_stack([g1, 1 - g1]))
        data = Dataset(tuple(xs))
        delta = float(rng.random() * 3)
        mu1 = cm_step_reference_mean(gamma, data, delta)

        def q_mu(m, d=delta):
            p = MixtureParams((0.5, 0.5), (m, m + d), (1.0, 1.0))
            return q_function(p, gamma, data)

        ok = ok and abs(mu1 - _brent_argmax(q_mu)) < 1e-8

        mu1_fixed = float(rng.normal(0, 2))
        dlt, lam = cm_step_delta(gamma, data, mu1_fixed)
        ok = ok and lam >= 0.0 and lam * dlt == 0.0 and dlt >= 0.0

        def q_d(d, m=mu1_fixed):
            p = MixtureParams((0.5, 0.5), (m, m + d), (1.0, 1.0))
            return q_function(p, gamma, data)

        ok = ok and abs(dlt - max(_brent_argmax(q_d), 0.0)) < 1e-8
    report(capsys, 3, "CM-step oracle equivalence", ok)


def test_04_em_ecm_monotonicity(capsys):
    rng = make_rng(9090)
    ok = True
    for run in range(100):
        mu = np.sort(rng.normal(0, 3, 2))
        w1 = float(rng.uniform(0.3, 0.7))
        truth = MixtureParams((w1, 1.0 - w1), tuple(mu), (1.0, 1.0))
        data = sample(truth, 60, seed=run)
        cfg = ECMConfig(max_iters=300)
        if run % 2 == 0:
            init = MixtureParams((0.5, 0.5), (float(rng.normal(-1, 1)),
                                              float(rng.normal(1, 1))), (1.0, 1.0))
            res = fit_em_standard(data, init, cfg)
        else:
            ref = min(-1.0, float(rng.normal(-1, 1)))
            gap = float(abs(rng.normal(1, 1)) + 1)
            init = RelativeParams(reference_value=ref, deltas=(gap,),
                                  weights=(0.5, 0.5), other_block=(1.0, 1.0),
                                  permutation=(0, 1))
            res = fit_ecm_relative(data, init, cfg)
        ok = ok and bool(np.all(np.diff(res.loglik) >= -1e-9))
    report(capsys, 4, "EM/ECM monotonicity", ok)


def test_05_dynamics_monte_carlo_oracle(capsys):
    truth = TrueModel.from_means(0.0, 0.0)
    xs = sample(truth.params, 10 ** 6, seed=4242).points
    rng = make_rng(4243)
    ok = True
    for _ in range(20):
        v = float(rng.uniform(0.25, 0.75))
        u = float(rng.uniform(0.02, 0.1)) * (1 if rng.random() < 0.5 else -1)
        w = float(rng.uniform(-0.4, 0.4))

        st = UVWState(v=v, u=u, w=w)
        per = exact_partials_per_sample(st, xs) @ original_gram(st).T
        closed = np.array(expected_velocity_original(st, truth))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        ok = ok and bool(np.all(np.abs(closed - per.mean(axis=0)) < 4 * se))

        st = UVWState(v=v, u=abs(u), w=w, parameterization="relative")
        per = exact_partials_per_sample(st, xs) @ relative_gram(v, abs(u)).T
        closed = np.array(expected_velocity_relative(st, truth))
        se = per.std(axis=0, ddof=1) / np.sqrt(len(xs))
        ok = ok and bool(np.all(np.abs(closed - per.mean(axis=0)) < 4 * se))

    at_zero = expected_velocity_original(UVWState(v=0.4, u=0.0, w=0.0), truth)
    ok = ok and at_zero == (0.0, 0.0, 0.0)
    report(capsys, 5, "dynamics Monte-Carlo oracle", ok)


def test_06_fim_covariance_law(capsys):
    j_rel = np.array([[1.0, 0.0], [1.0, 1.0]])
    rng = make_rng(5151)
    ok = True
    for i in range(10):
        mu1 = float(rng.normal(0, 2))
        mu2 = mu1 + float(rng.random() * 3 + 0.3)
        p = MixtureParams((0.5, 0.5), (mu1, mu2), (1.0, 1.0))
        direct = fim_estimate(p, coords="relative_means", method="monte_carlo",
                              budget=100000, seed=i)
        absolute = fim_estimate(p, coords="means", method="monte_carlo",
                                budget=100000, seed=i)
        moved = transform_fim(absolute, j_rel)
        bound = 4 * (direct.std_errors + moved.std_errors)
        ok = ok and bool(np.all(np.abs(direct.entries - moved.entries) < bound))

    for _ in range(20):
        a = rng.normal(0, 1, (2, 2))
        i_theta = FisherMatrix(a @ a.T + 0.1 * np.eye(2), "means", "quadrature", 0)
        jac = rng.normal(0, 1, (2, 2)) + 2 * np.eye(2)
        d_lambda = rng.normal(0, 1, 2)
        lhs = length_element(i_theta, jac @ d_lambda)
        rhs = length_element(transform_fim(i_theta, jac), d_lambda)
        ok = ok and abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    for family in (gaussian_natural_family(), bernoulli_family()):
        for theta in (-1.5, 0.0, 0.7, 2.0):
            ok = ok and crouzeix_check(family, theta) < 1e-8
            ok = ok and crouzeix_check(family, theta, numeric_conjugate=True) < 1e-6
    report(capsys, 6, "FIM covariance law", ok)


def test_07_fim_degeneracy(capsys):
    at_overlap = fim_estimate(MixtureParams((0.5, 0.5), (0.0, 0.0), (1.0, 1.0)),
                              coords="means", method="quadrature")
    at_gap = fim_estimate(MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0)),
                          coords="means", method="quadrature")
    ok = np.min(np.linalg.eigvalsh(at_overlap.entries)) < 1e-6
    ok = ok and np.min(np.linalg.eigvalsh(at_gap.entries)) > 1e-3
    report(capsys, 7, "FIM degeneracy detection", ok)


def test_08_reparam_bijection_suite(capsys):
    rng = make_rng(6060)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        w = rng.random(k) + 0.1
        means = np.sort(rng.normal(0, 3, k))
        while np.min(np.diff(means)) < 1e-3:
            means = np.sort(rng.normal(0, 3, k))
        p = MixtureParams(tuple(w / w.sum()), tuple(means[rng.permutation(k)]),
                          tuple(rng.random(k) + 0.5))
        spec = ReparamSpec(delta_encoding="raw_constrained" if rng.random() < 0.5
                           else "squared")
        rel = to_relative(p, spec)
        back = to_absolute(rel, spec)
        sorted_p = p.permuted(rel.permutation)
        ok = ok and np.allclose(back.means, sorted_p.means, atol=1e-12)

    p = MixtureParams((0.3, 0.7), (-1.0, 2.0), (1.0, 2.0))
    spec = ReparamSpec(delta_encoding="squared")
    back = to_absolute(to_relative(p, spec), spec)
    for x in rng.normal(0, 4, 200):
        ok = ok and abs(density(back, float(x)) - density(p, float(x))) < 1e-12

    spec = ReparamSpec(delta_encoding="squared", clearance=0.05)
    rel = to_relative(MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0)), spec)
    for _ in range(200):
        rel = RelativeParams(reference_value=rel.reference_value,
                             deltas=(float(rng.normal(0, 3)),),
                             weights=rel.weights, other_block=rel.other_block,
                             permutation=rel.permutation)
        means = to_absolute(rel, spec).means
        ok = ok and means[1] - means[0] >= spec.clearance

    for spec in (ReparamSpec(delta_encoding="raw_constrained"),
                 ReparamSpec(delta_encoding="squared")):
        rel = RelativeParams(float(rng.normal()), tuple(rng.random(2) + 0.2),
                             (0.2, 0.3, 0.5), (1.0, 1.0, 1.0), (0, 1, 2))
        jac = jacobian(rel, spec)
        coords = np.array([rel.reference_value, *rel.deltas])
        step = 1e-6
        for j in range(3):
            cp, cm = coords.copy(), coords.copy()
            cp[j] += step
            cm[j] -= step

            def decoded(c):
                r = RelativeParams(float(c[0]), tuple(c[1:]), rel.weights,
                                   rel.other_block, rel.permutation)
                return np.array(to_absolute(r, spec).means)

            col = (decoded(cp) - decoded(cm)) / (2 * step)
            denom = np.maximum(np.abs(col), 1.0)
            ok = ok and bool(np.all(np.abs(jac[:, j] - col) / denom < 1e-8))
    report(capsys, 8, "reparameterization bijection suite", ok)


def test_09_nn_singularity_detection(capsys):
    rng = make_rng(7070)
    ok = True

    w1 = rng.normal(0, 1, (3, 4))
    w1[:, 0] = 0.0
    w1[:, 2] = w1[:, 1]
    w1[:, 3] = 2.0 * w1[:, 1] + 0.0  # dependent on column 1 alone
    w2 = rng.normal(0, 1, (4, 1))
    mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(4), np.zeros(1)),
                    activation="identity")
    rep = detect_singularities(mlp, tol=1e-6)
    ok = ok and any(unit == 0 for _, unit, _ in rep.elimination)
    ok = ok and any((i, j) == (1, 2) for _, i, j, _, _ in rep.overlap)
    ok = ok and bool(rep.linear_dependence)

    for _ in range(100):
        sizes = [4, 3, 1]
        ws = tuple(rng.normal(0, 1, (a, b)) for a, b in zip(sizes, sizes[1:]))
        bs = tuple(rng.normal(0, 1, b) for b in sizes[1:])
        clean = MLPParams(weights=ws, biases=bs, activation="tanh")
        ok = ok and detect_singularities(clean, tol=1e-6).is_identifiable

    for _ in range(10):
        ws = (rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 1)))
        bs = (rng.normal(0, 1, 4), rng.normal(0, 1, 1))
        net = MLPParams(weights=ws, biases=bs, activation="tanh")
        row_rep = reparameterize_rows(net.weights[0].T, clearance=0.0, column=0)
        decoded = decode_rows(row_rep).T
        comp = permute_hidden_units(net, 0, row_rep.permutation)
        rebuilt = MLPParams(weights=(decoded, comp.weights[1]),
                            biases=comp.biases, activation="tanh")
        x = rng.normal(0, 1, (5, 3))
        ok = ok and np.allclose(forward(rebuilt, x), forward(net, x), atol=1e-12)
    report(capsys, 9, "NN singularity detection", ok)


def test_10_cli_determinism(capsys, tmp_path):
    ok = True
    for kind in ("field", "gd", "ecm", "fim", "nn"):
        a, b = tmp_path / f"{kind}_a", tmp_path / f"{kind}_b"
        ok = ok and main([kind, "--out", str(a)]) == EXIT_OK
        ok = ok and main([kind, "--out", str(b)]) == EXIT_OK
        for path in sorted(a.iterdir()):
            if path.suffix == ".csv":
                ok = ok and path.read_bytes() == (b / path.name).read_bytes()
    report(capsys, 10, "CLI determinism", ok)
