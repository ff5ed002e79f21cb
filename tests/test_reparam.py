import numpy as np
import pytest

from relreparam.dynamics import TrueModel, integrate_gd
from relreparam.ecm import ECMConfig
from relreparam.gmm import MixtureParams, MixtureError, density, make_rng
from relreparam.nn import MLPParams, detect_singularities, reparameterize_rows
from relreparam.reparam import (RelativeParams, ReparamSpec, SingularPointError,
                                classify_singularities, decoded_gaps, jacobian,
                                to_absolute, to_relative)

RAW = ReparamSpec(delta_encoding="raw_constrained")
SQUARED = ReparamSpec(delta_encoding="squared")


def random_mixture(rng, k=None, min_gap=1e-3):
    k = k or int(rng.integers(2, 5))
    w = rng.random(k) + 0.1
    w = w / w.sum()
    means = np.sort(rng.normal(0, 3, k))
    while np.min(np.diff(means)) < min_gap:
        means = np.sort(rng.normal(0, 3, k))
    means = means[rng.permutation(k)]
    return MixtureParams(tuple(w), tuple(means), tuple(rng.random(k) + 0.5))


class TestToRelative:
    def test_consecutive_difference(self):
        p = MixtureParams((0.5, 0.5), (1.0, 3.0), (1.0, 1.0))
        rel = to_relative(p, RAW)
        assert rel.reference_value == 1.0
        assert rel.deltas == (2.0,)

    def test_sorting_records_permutation(self):
        p = MixtureParams((0.5, 0.5), (3.0, 1.0), (1.0, 1.0))
        rel = to_relative(p, RAW)
        assert rel.permutation == (1, 0)
        assert rel.reference_value == 1.0
        assert rel.deltas == (2.0,)

    def test_telescoping_three_components(self):
        p = MixtureParams((0.2, 0.3, 0.5), (0.0, 0.5, 2.5), (1.0, 1.0, 1.0))
        rel = to_relative(p, RAW)
        assert rel.reference_value == 0.0
        assert rel.deltas == pytest.approx((0.5, 2.0))

    def test_tie_with_clearance_fails(self):
        p = MixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 2.0))
        with pytest.raises(SingularPointError):
            to_relative(p, ReparamSpec(clearance=0.1, delta_encoding="squared"))

    def test_tie_without_clearance_permitted(self):
        p = MixtureParams((0.5, 0.5), (1.0, 1.0), (1.0, 1.0))
        rel = to_relative(p, SQUARED)
        assert rel.deltas == (0.0,)
        assert not classify_singularities(p, tol=1e-6).is_identifiable

    def test_sigma_ordering(self):
        p = MixtureParams((0.5, 0.5), (5.0, -5.0), (2.0, 1.0))
        rel = to_relative(p, ReparamSpec(ordering_coordinate="sigma",
                                         delta_encoding="raw_constrained"))
        assert rel.reference_value == 1.0
        assert rel.other_block == (-5.0, 5.0)


class TestToAbsolute:
    def test_roundtrip_two_components(self):
        rel = RelativeParams(reference_value=1.0, deltas=(2.0,), weights=(0.5, 0.5),
                             other_block=(1.0, 1.0), permutation=(0, 1))
        assert to_absolute(rel, RAW).means == (1.0, 3.0)

    def test_squared_encoding_with_clearance(self):
        spec = ReparamSpec(delta_encoding="squared", clearance=0.1)
        rel = RelativeParams(reference_value=0.0, deltas=(1.5,), weights=(0.5, 0.5),
                             other_block=(1.0, 1.0), permutation=(0, 1))
        assert to_absolute(rel, spec).means == pytest.approx((0.0, 2.35))

    def test_roundtrip_identity_on_random_points(self):
        rng = make_rng(2024)
        for _ in range(1000):
            p = random_mixture(rng)
            spec = RAW if rng.random() < 0.5 else SQUARED
            rel = to_relative(p, spec)
            back = to_absolute(rel, spec)
            sorted_p = p.permuted(rel.permutation)
            assert np.allclose(back.means, sorted_p.means, atol=1e-12)
            assert np.allclose(back.sigmas, sorted_p.sigmas, atol=1e-12)
            assert np.allclose(back.weights, sorted_p.weights, atol=1e-12)

    def test_density_invariance(self):
        rng = make_rng(77)
        for _ in range(20):
            p = random_mixture(rng)
            spec = RAW if rng.random() < 0.5 else SQUARED
            back = to_absolute(to_relative(p, spec), spec)
            for x in rng.normal(0, 4, 100):
                assert density(back, float(x)) == pytest.approx(
                    density(p, float(x)), abs=1e-12)

    def test_label_permutation_canonicalization(self):
        rng = make_rng(5)
        p = random_mixture(rng, k=3)
        rel = to_relative(p, RAW)
        shuffled = p.permuted([2, 0, 1])
        rel2 = to_relative(shuffled, RAW)
        assert rel.reference_value == rel2.reference_value
        assert rel.deltas == pytest.approx(rel2.deltas)
        assert rel.weights == pytest.approx(rel2.weights)
        assert rel.other_block == pytest.approx(rel2.other_block)

    def test_ordering_preserved_under_arbitrary_encoded_updates(self):
        spec = ReparamSpec(delta_encoding="squared", clearance=0.05)
        rng = make_rng(13)
        rel = to_relative(MixtureParams((0.5, 0.5), (0.0, 1.0), (1.0, 1.0)), spec)
        for _ in range(200):
            rel = RelativeParams(reference_value=rel.reference_value,
                                 deltas=(float(rng.normal(0, 3)),),
                                 weights=rel.weights, other_block=rel.other_block,
                                 permutation=rel.permutation)
            means = to_absolute(rel, spec).means
            assert means[1] - means[0] >= spec.clearance >= 0.0


class TestJacobian:
    def test_raw_two_components(self):
        rel = RelativeParams(1.0, (2.0,), (0.5, 0.5), (1.0, 1.0), (0, 1))
        assert jacobian(rel, RAW).tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_squared_chain_factor(self):
        rel = RelativeParams(1.0, (1.5,), (0.5, 0.5), (1.0, 1.0), (0, 1))
        assert jacobian(rel, SQUARED).tolist() == [[1.0, 0.0], [1.0, 3.0]]

    def test_against_finite_differences_k3(self):
        rng = make_rng(21)
        for spec in (RAW, SQUARED):
            rel = RelativeParams(float(rng.normal()), tuple(rng.random(2) + 0.2),
                                 (0.2, 0.3, 0.5), (1.0, 1.0, 1.0), (0, 1, 2))
            jac = jacobian(rel, spec)
            step = 1e-6
            coords = np.array([rel.reference_value, *rel.deltas])

            def ordered_means(c):
                r = RelativeParams(float(c[0]), tuple(c[1:]), rel.weights,
                                   rel.other_block, rel.permutation)
                return np.array(to_absolute(r, spec).means)

            for j in range(3):
                cp, cm = coords.copy(), coords.copy()
                cp[j] += step
                cm[j] -= step
                col = (ordered_means(cp) - ordered_means(cm)) / (2 * step)
                denom = np.maximum(np.abs(col), 1.0)
                assert np.all(np.abs(jac[:, j] - col) / denom < 1e-8)

    def test_determinant(self):
        rng = make_rng(31)
        for k in (2, 3, 4):
            d = rng.random(k - 1) + 0.1
            rel = RelativeParams(0.0, tuple(d), tuple(np.full(k, 1.0 / k)),
                                 tuple(np.ones(k)), tuple(range(k)))
            assert np.linalg.det(jacobian(rel, RAW)) == pytest.approx(1.0)
            assert np.linalg.det(jacobian(rel, SQUARED)) == pytest.approx(
                np.prod(2 * d))


class TestClassifySingularities:
    def test_elimination_hit(self):
        p = MixtureParams((0.0, 1.0), (0.0, 1.0), (1.0, 1.0))
        rep = classify_singularities(p, tol=1e-8)
        assert rep.elimination_hits == ((0, 0.0),)
        assert not rep.is_identifiable

    def test_overlap_hit(self):
        p = MixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 1.0))
        rep = classify_singularities(p, tol=1e-8)
        assert rep.overlap_hits == ((0, 1, 0.0),)

    def test_well_separated_identifiable(self):
        p = MixtureParams((0.4, 0.6), (0.0, 5.0), (1.0, 2.0))
        assert classify_singularities(p, tol=1e-6).is_identifiable

    def test_distinct_sigmas_block_overlap(self):
        p = MixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 3.0))
        assert classify_singularities(p, tol=1e-6).is_identifiable

    def test_rejects_nonpositive_tol(self):
        p = MixtureParams((1.0,), (0.0,), (1.0,))
        with pytest.raises(MixtureError):
            classify_singularities(p, tol=0.0)


NAN = float("nan")
IDENTITY_NET = MLPParams(weights=(np.eye(2), np.eye(2)), biases=(np.zeros(2), np.zeros(2)))
COINCIDENT = MixtureParams((0.5, 0.5), (2.0, 2.0), (1.0, 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda: integrate_gd((-1.0, 1.0), TrueModel.from_means(0.0, 0.0), eta=NAN, steps=3),
     "eta must be positive and finite"),
    (lambda: integrate_gd((-1.0, 1.0), TrueModel.from_means(0.0, 0.0), eta=np.inf, steps=3),
     "eta must be positive and finite"),
    (lambda: ECMConfig(epsilon=NAN), "epsilon must be positive"),
    (lambda: detect_singularities(IDENTITY_NET, tol=NAN), "tol must be positive"),
    (lambda: reparameterize_rows(np.eye(2), clearance=NAN), "clearance must be >= 0"),
    (lambda: ReparamSpec(clearance=NAN), "clearance must be >= 0"),
    (lambda: classify_singularities(COINCIDENT, tol=NAN), "tol must be positive"),
], ids=["gd-eta-nan", "gd-eta-inf", "ecm-epsilon", "nn-tol", "nn-clearance", "spec-clearance",
        "classify-tol"])
def test_nan_fails_every_float_guard(call, message):
    """Each guard on a float argument refuses NaN, which fails every
    comparison: a NaN tol would report coincident components or an all-zero
    unit as identifiable, a NaN epsilon would run a fit to max_iters, and a
    NaN eta would end gradient descent as diverged after no step."""
    with pytest.raises(MixtureError, match=message):
        call()


def test_decoded_gaps_nonnegative():
    rng = make_rng(55)
    spec = ReparamSpec(delta_encoding="squared", clearance=0.02)
    for _ in range(100):
        rel = RelativeParams(0.0, tuple(rng.normal(0, 2, 3)), (0.25,) * 4,
                             (1.0,) * 4, (0, 1, 2, 3))
        assert np.all(decoded_gaps(rel, spec) >= spec.clearance)
