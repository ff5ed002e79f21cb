import numpy as np
import pytest

from relreparam.experiments import _build_nn
from relreparam.gmm import MixtureError, MixtureParams, make_rng
from relreparam.nn import (MLPParams, RowReparam, decode_rows,
                           detect_singularities, forward, report_lines,
                           reparameterize_rows)
from relreparam.reparam import ReparamSpec, SingularPointError, to_absolute, to_relative

from childproc import REDUCED_SIMD_CLASSES, assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import permute_hidden_units, unscreened_linear_dependence


def naive_forward(mlp, x):
    """Independent straight-line re-evaluation, scalar loops only."""
    h = [list(map(float, row)) for row in np.atleast_2d(x)]
    for k in range(mlp.depth):
        w, b = mlp.weights[k], mlp.biases[k]
        nxt = []
        for row in h:
            out = []
            for j in range(w.shape[1]):
                z = b[j]
                for i in range(w.shape[0]):
                    z += row[i] * w[i, j]
                if k < mlp.depth - 1:
                    if mlp.activation == "tanh":
                        z = float(np.tanh(z))
                    elif mlp.activation == "relu":
                        z = max(z, 0.0)
                out.append(z)
            nxt.append(out)
        h = nxt
    return np.array(h)


def lstsq_detect_singularities(mlp, tol=1e-6):
    """The per-triple scan that the batched detect_singularities replaced.

    One ``np.linalg.lstsq`` call per (pair, target) triple; kept as the
    oracle for hit order and values. Returns (elimination, overlap,
    linear_dependence) lists in the report's tuple formats.
    """
    elim, over, lindep = [], [], []
    for k in range(mlp.depth - 1):
        w_in = mlp.weights[k]
        w_out = mlp.weights[k + 1]
        scale = max(np.linalg.norm(w_in), 1.0)
        units = w_in.shape[1]
        for i in range(units):
            prod = np.linalg.norm(w_out[i]) * np.linalg.norm(w_in[:, i])
            if prod <= tol * scale:
                elim.append((k, i, float(prod)))
        for i in range(units):
            for j in range(i + 1, units):
                gap_plus = np.linalg.norm(w_in[:, i] - w_in[:, j])
                gap_minus = np.linalg.norm(w_in[:, i] + w_in[:, j])
                if min(gap_plus, gap_minus) <= tol * scale:
                    sign = 1 if gap_plus <= gap_minus else -1
                    over.append((k, i, j, sign, float(min(gap_plus, gap_minus))))
        if mlp.activation == "identity":
            for kk in range(units):
                others = [i for i in range(units) if i != kk]
                for a in range(len(others)):
                    for b in range(a + 1, len(others)):
                        i, j = others[a], others[b]
                        basis = w_in[:, [i, j]]
                        target = w_in[:, kk]
                        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
                        resid = np.linalg.norm(basis @ coef - target)
                        if resid <= tol * scale:
                            lindep.append((k, (i, j, kk), float(resid)))
    return elim, over, lindep


# Values may move by rounding only: the batched scan takes the residual off
# a modified Gram-Schmidt basis where lstsq solves for coefficients (at most
# 2.9e-14 measured on the injected networks below and at 64 units).
ORACLE_ABS_TOL = 1e-12


def assert_matches_oracle(mlp, tol):
    rep = detect_singularities(mlp, tol=tol)
    got = (rep.elimination, rep.overlap, rep.linear_dependence)
    for hits, want in zip(got, lstsq_detect_singularities(mlp, tol)):
        assert [h[:-1] for h in hits] == [w[:-1] for w in want]
        assert all(abs(h[-1] - w[-1]) <= ORACLE_ABS_TOL for h, w in zip(hits, want))
    # plain Python scalars: under numpy 2 an index would print as np.int64(1)
    assert not any("np." in line for line in report_lines(rep))
    return rep


def edge_grid(mode):
    """(network, tol) pairs: identity layers of fan_in 1-3 and 1-4 units
    whose unit 1 is unit 0 times 2.5 ("parallel"), its negation or zero."""
    rng = make_rng(79)
    for fan_in in (1, 2, 3):
        for units in (1, 2, 3, 4):
            for tol in (1e-8, 1e-3):
                w1 = rng.normal(0, 1, (fan_in, units))
                if units >= 2:
                    w1[:, 1] = {"parallel": 2.5 * w1[:, 0], "negated": -w1[:, 0],
                                "zero": 0.0}[mode]
                mlp = MLPParams(weights=(w1, rng.normal(0, 1, (units, 1))),
                                biases=(np.zeros(units), np.zeros(1)),
                                activation="identity")
                yield mlp, tol


def random_mlp(rng, sizes, activation="tanh"):
    ws, bs = [], []
    for a, b in zip(sizes, sizes[1:]):
        ws.append(rng.normal(0, 1, (a, b)))
        bs.append(rng.normal(0, 1, b))
    return MLPParams(weights=tuple(ws), biases=tuple(bs), activation=activation)


class TestForward:
    def test_identity_network_passes_input_through(self):
        mlp = MLPParams(weights=(np.eye(3), np.eye(3)),
                        biases=(np.zeros(3), np.zeros(3)),
                        activation="identity")
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(forward(mlp, x), x)

    def test_zeroed_unit_outputs_constant_bias(self):
        # single tanh hidden unit with zero outgoing weight: output is the
        # final bias regardless of input
        mlp = MLPParams(weights=(np.array([[1.5]]), np.array([[0.0]])),
                        biases=(np.array([0.3]), np.array([0.7])),
                        activation="tanh")
        outs = forward(mlp, np.array([[0.0], [2.0], [-5.0]]))
        assert np.allclose(outs, 0.7, atol=0.0)

    def test_matches_naive_reimplementation(self):
        rng = make_rng(70)
        for activation in ("tanh", "relu", "identity"):
            mlp = random_mlp(rng, [5, 4, 3, 1], activation)
            x = rng.normal(0, 1, (6, 5))
            assert np.allclose(forward(mlp, x), naive_forward(mlp, x), atol=1e-12)

    def test_shape_mismatch(self):
        mlp = MLPParams(weights=(np.eye(2),), biases=(np.zeros(2),))
        with pytest.raises(MixtureError):
            forward(mlp, np.zeros((1, 3)))

    def test_one_dim_input_promoted(self):
        mlp = MLPParams(weights=(np.eye(2),), biases=(np.zeros(2),))
        assert forward(mlp, np.array([1.0, 2.0])).shape == (1, 2)


class TestMLPParamsChecks:
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("field", ["weights", "biases"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, activation, field, bad):
        # before the check, a NaN weight gave a tanh network an empty report
        ws, bs = [np.eye(3), np.ones((3, 1))], [np.zeros(3), np.zeros(1)]
        (ws if field == "weights" else bs)[0][1] = bad
        with pytest.raises(MixtureError, match="must be finite"):
            MLPParams(weights=tuple(ws), biases=tuple(bs), activation=activation)


class TestDetectSingularities:
    def test_elimination_zero_incoming_row(self):
        w1 = np.array([[1.0, 0.0], [2.0, 0.0]])  # unit 1 has zero incoming column
        w2 = np.array([[1.0], [1.0]])
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(2), np.zeros(1)))
        rep = detect_singularities(mlp, tol=1e-8)
        assert any(layer == 0 and unit == 1 for layer, unit, _ in rep.elimination)
        assert not rep.is_identifiable

    def test_elimination_zero_outgoing_weight(self):
        w1 = np.array([[1.0, 2.0], [2.0, -1.0]])
        w2 = np.array([[1.0], [0.0]])
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(2), np.zeros(1)))
        rep = detect_singularities(mlp, tol=1e-8)
        assert any(unit == 1 for _, unit, _ in rep.elimination)

    def test_overlap_duplicate_rows_positive_sign(self):
        w1 = np.array([[1.0, 1.0], [2.0, 2.0]])
        w2 = np.array([[1.0], [1.0]])
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(2), np.zeros(1)))
        rep = detect_singularities(mlp, tol=1e-8)
        assert rep.overlap and rep.overlap[0][3] == 1

    def test_overlap_negated_rows(self):
        w1 = np.array([[1.0, -1.0], [2.0, -2.0]])
        w2 = np.array([[1.0], [1.0]])
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(2), np.zeros(1)),
                        activation="tanh")
        rep = detect_singularities(mlp, tol=1e-8)
        assert rep.overlap and rep.overlap[0][3] == -1

    def test_linear_dependence_on_identity_layers(self):
        rng = make_rng(71)
        v1, v2 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        v3 = 2.0 * v1 + 3.0 * v2
        w1 = np.column_stack([v1, v2, v3])
        w2 = rng.normal(0, 1, (3, 1))
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(3), np.zeros(1)),
                        activation="identity")
        rep = detect_singularities(mlp, tol=1e-8)
        assert rep.linear_dependence
        # the three vectors are coplanar, so every ordered triple is a hit;
        # the constructed one (target unit 2) must be among them
        assert any(triple[2] == 2 for _, triple, _ in rep.linear_dependence)
        assert all(resid < 1e-12 for _, _, resid in rep.linear_dependence)

    def test_linear_dependence_ignored_for_tanh(self):
        rng = make_rng(71)
        v1, v2 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        w1 = np.column_stack([v1, v2, 2.0 * v1 + 3.0 * v2])
        w2 = rng.normal(0, 1, (3, 1))
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(3), np.zeros(1)),
                        activation="tanh")
        assert not detect_singularities(mlp, tol=1e-8).linear_dependence

    def test_no_false_hits_on_random_well_conditioned_layers(self):
        rng = make_rng(72)
        for _ in range(100):
            mlp = random_mlp(rng, [4, 3, 1], activation="tanh")
            rep = detect_singularities(mlp, tol=1e-8)
            assert rep.is_identifiable

    def test_permutation_invariance(self):
        rng = make_rng(73)
        w1 = np.column_stack([np.zeros(3), rng.normal(0, 1, 3),
                              rng.normal(0, 1, 3)])
        w1[:, 2] = w1[:, 1]  # overlap between units 1 and 2, elimination on 0
        w2 = rng.normal(0, 1, (3, 1))
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(3), np.zeros(1)))
        base = detect_singularities(mlp, tol=1e-8)
        shuffled = permute_hidden_units(mlp, 0, [2, 0, 1])
        moved = detect_singularities(shuffled, tol=1e-8)
        assert len(moved.elimination) == len(base.elimination)
        assert len(moved.overlap) == len(base.overlap)
        # forward maps agree, so the same singular structure must be found
        x = rng.normal(0, 1, (4, 3))
        assert np.allclose(forward(mlp, x), forward(shuffled, x), atol=1e-12)

    def test_rejects_nonpositive_tol(self):
        mlp = MLPParams(weights=(np.eye(2), np.eye(2)),
                        biases=(np.zeros(2), np.zeros(2)))
        with pytest.raises(MixtureError):
            detect_singularities(mlp, tol=0.0)

    def test_rejects_infinite_tol(self):
        # an infinite bound would report every triple of a generic identity
        # network as linear dependence
        mlp = random_mlp(make_rng(80), [3, 4, 1], activation="identity")
        with pytest.raises(MixtureError, match="finite"):
            detect_singularities(mlp, tol=np.inf)

    def test_report_lines_cover_all_hits(self):
        w1 = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        w2 = np.ones((3, 1))
        mlp = MLPParams(weights=(w1, w2), biases=(np.zeros(3), np.zeros(1)))
        rep = detect_singularities(mlp, tol=1e-8)
        lines = report_lines(rep)
        assert any(line.startswith("elimination") for line in lines)
        assert any(line.startswith("overlap") for line in lines)

    def test_identifiable_report_line(self):
        mlp = MLPParams(weights=(np.array([[1.0, -2.0]]), np.ones((2, 1))),
                        biases=(np.zeros(2), np.zeros(1)))
        assert report_lines(detect_singularities(mlp)) == [
            "identifiable: no singularity hits"]


class TestBatchedScanMatchesLstsqOracle:
    INJECT = ["elimination", "overlap", "linear_dependence"]

    @pytest.mark.parametrize("sizes,activation", [
        ([3, 4, 1], "identity"),
        ([8, 16, 16, 1], "identity"),
        ([40, 40, 1], "identity"),
        ([8, 16, 16, 1], "tanh"),
        ([40, 40, 1], "relu"),
    ])
    def test_injected_networks(self, sizes, activation):
        cfg = {"sizes": sizes, "seed": 0, "activation": activation, "inject": self.INJECT}
        rep = assert_matches_oracle(_build_nn(cfg), tol=1e-6)
        assert rep.elimination and rep.overlap
        assert bool(rep.linear_dependence) == (activation == "identity")

    @pytest.mark.parametrize("mode", ["parallel", "negated", "zero"])
    def test_edge_grid(self, mode):
        for mlp, tol in edge_grid(mode):
            assert_matches_oracle(mlp, tol)

    def test_rank_cutoff_drops_parallel_pair_noise_direction(self):
        # fan_in 2: a parallel pair spans only a line, so a generic third
        # column is not in its span; keeping the pair's zero-singular-value
        # direction would span the plane and report that triple
        v0, v2 = np.array([1.0, 0.3]), np.array([-0.4, 1.2])
        w1 = np.column_stack([v0, 2.5 * v0, v2])
        mlp = MLPParams(weights=(w1, np.ones((3, 1))), biases=(np.zeros(3), np.zeros(1)),
                        activation="identity")
        rep = assert_matches_oracle(mlp, tol=1e-8)
        assert [triple for _, triple, _ in rep.linear_dependence] == [(1, 2, 0), (0, 2, 1)]


def identity_layer(w1):
    """One identity hidden layer with incoming weights w1, all outgoing weights 1."""
    units = w1.shape[1]
    return MLPParams(weights=(w1, np.ones((units, 1))), biases=(np.zeros(units), np.zeros(1)),
                     activation="identity")


def assert_matches_unscreened(mlp, tol):
    """The screened scan reports the unscreened oracle's hits, in its order,
    with the same residual bits."""
    got = list(detect_singularities(mlp, tol=tol).linear_dependence)
    assert got == unscreened_linear_dependence(mlp, tol)
    return got


class TestScreenedScanMatchesUnscreenedOracle:
    @pytest.mark.parametrize("mode", ["parallel", "negated", "zero"])
    def test_edge_grid(self, mode):
        for mlp, tol in edge_grid(mode):
            assert_matches_unscreened(mlp, tol)

    @pytest.mark.parametrize("sizes", [[8, 16, 16, 1], [40, 40, 1], [20, 60, 1]])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_networks(self, sizes, seed):
        # injected singularities at the default tol; then a generic network
        # at a tol whose bound sits amid its residuals, so that thousands
        # of cells fall on either side of it
        cfg = {"sizes": sizes, "seed": seed, "activation": "identity",
               "inject": ["elimination", "overlap", "linear_dependence"]}
        assert assert_matches_unscreened(_build_nn(cfg), 1e-6)
        generic = _build_nn({**cfg, "inject": []})
        hits = assert_matches_unscreened(generic, 1 / np.sqrt(sizes[1]))
        triples = sum(u * (u - 1) * (u - 2) // 2 for u in sizes[1:-1])
        assert 0.1 * triples < len(hits) < 0.9 * triples

    @pytest.mark.parametrize("step, hit", [(-1, False), (0, False), (1, True)])
    def test_second_column_at_the_rank_cut(self, step, hit):
        # q1 = e1 and r = (0, beta, 0) exactly, against the cut 3 eps * |e1|:
        # only above it does the pair span the plane that holds column 2
        beta = 3 * np.finfo(float).eps * (1 + step * 2.0 ** -20)
        w1 = np.array([[1.0, 0.5, 0.25], [0.0, beta, 0.5], [0.0, 0.0, 0.0]])
        triples = [triple for _, triple, _ in assert_matches_unscreened(identity_layer(w1), 1e-8)]
        assert ((0, 1, 2) in triples) == hit
        assert (1, 2, 0) in triples and (0, 2, 1) in triples

    def test_near_rank_cut_pairs_in_general_position(self):
        # as above, rotated: the orthogonalised column is about as small as
        # its own rounding noise, so q2 is far from orthogonal to q1
        rng = make_rng(82)
        for factor in 2.0 ** np.arange(-3.0, 3.5, 0.5):
            rot, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
            x1 = rot[:, 0] * rng.uniform(0.5, 2.0)
            x2 = 0.5 * x1 + 3 * np.finfo(float).eps * np.linalg.norm(x1) * factor * rot[:, 1]
            w1 = np.column_stack([x1, x2, 0.3 * x1 + 0.4 * rot[:, 1], rng.normal(0, 1, 3)])
            for tol in (1e-8, 1e-3):
                assert_matches_unscreened(identity_layer(w1), tol)

    def test_skewed_basis_needs_the_sequential_coefficient(self):
        # a nearly parallel pair: rounding leaves q1.q2 ~ 1e-7, and the
        # targets q1 +- q2 lie within ~|q1.q2| of its span. For one of them
        # q2.t misses the sequential coefficient q2.t - c1 (q1.q2) by ~2e-7
        # in the square, far more than bound^2, so a screen on q2.t alone
        # would drop that hit
        rng = make_rng(85)
        skew = []
        for _ in range(10):
            rot, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
            x1 = rot[:, 0] * rng.uniform(1.0, 2.0)
            x2 = 0.5 * x1 + 1e-9 * rot[:, 1]
            q1 = x1 / np.sqrt((x1 * x1).sum())
            r = x2 - (q1 * x2).sum() * q1
            q2 = r / np.sqrt((r * r).sum())
            skew.append(abs((q1 * q2).sum()))
            mlp = identity_layer(np.column_stack([x1, x2, q1 + q2, q1 - q2]))
            triples = [triple for _, triple, _ in assert_matches_unscreened(mlp, 1e-6)]
            assert (0, 1, 2) in triples and (0, 1, 3) in triples
        assert max(skew) > 1e-8

    @staticmethod
    def off_plane_layer(rng, delta=1e-3):
        """Columns 0 and 1 random, column 2 at distance delta from their plane."""
        v0, v1 = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        normal = np.cross(v0, v1)
        normal /= np.linalg.norm(normal)
        return np.column_stack([v0, v1, 0.6 * v0 - 1.1 * v1 + delta * normal])

    @pytest.mark.parametrize("offset, hit", [(-1e-9, False), (-1e-15, None), (0.0, None),
                                             (1e-15, None), (1e-9, True)])
    def test_residual_at_the_bound(self, offset, hit):
        # tol puts the bound at delta * (1 + offset): the screen keeps the
        # cell either way, and the exact residual decides
        w1 = self.off_plane_layer(make_rng(83))
        tol = 1e-3 * (1 + offset) / max(np.linalg.norm(w1), 1.0)
        triples = [triple for _, triple, _ in assert_matches_unscreened(identity_layer(w1), tol)]
        if hit is not None:
            assert ((0, 1, 2) in triples) == hit

    def test_residual_equal_to_the_bound_is_a_hit(self):
        # tol gives the smallest bound at or above column 2's residual off
        # columns 0 and 1; the screen's value for that cell rounds above
        # bound^2 about half the time, so these hits need its slack
        for seed in range(84, 104):
            w1 = self.off_plane_layer(make_rng(seed))
            mlp = identity_layer(w1)
            resid = next(r for _, triple, r in unscreened_linear_dependence(mlp, 1.0)
                         if triple == (0, 1, 2))
            norm = max(float(np.sqrt((w1 * w1).sum(axis=0).sum())), 1.0)
            tol = resid / norm
            while tol * norm < resid:
                tol = np.nextafter(tol, np.inf)
            triples = [triple for _, triple, _ in assert_matches_unscreened(mlp, tol)]
            assert (0, 1, 2) in triples, seed

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


class TestReparameterizeRows:
    def test_gap_square_roots(self):
        w = np.array([[0.1, 9.0], [0.5, 8.0], [0.9, 7.0]])
        rep = reparameterize_rows(w, clearance=0.0, column=0)
        assert np.allclose(rep.encoded[:, 0], np.sqrt(0.4), atol=1e-15)
        assert rep.encoded[:, 1].tolist() == [8.0, 7.0]

    def test_roundtrip_exact(self):
        rng = make_rng(74)
        for _ in range(50):
            w = rng.normal(0, 2, (4, 3))
            rep = reparameterize_rows(w, clearance=0.0, column=1)
            back = decode_rows(rep)
            assert np.allclose(back, w[list(rep.permutation)], atol=1e-12)

    def test_tie_with_clearance_raises(self):
        w = np.array([[1.0, 0.0], [1.0, 5.0]])
        with pytest.raises(SingularPointError):
            reparameterize_rows(w, clearance=0.1, column=0)

    def test_clearance_enforces_strict_gaps(self):
        w = np.array([[0.0, 1.0], [0.5, 2.0], [1.5, 3.0]])
        rep = reparameterize_rows(w, clearance=0.2, column=0)
        decoded = decode_rows(rep)
        assert np.all(np.diff(decoded[:, 0]) >= 0.2)
        # arbitrary encoded updates keep the ordering with gaps >= clearance
        rng = make_rng(75)
        for _ in range(50):
            enc = rep.encoded.copy()
            enc[:, 0] = rng.normal(0, 3, enc.shape[0])
            moved = decode_rows(type(rep)(reference_row=rep.reference_row,
                                          encoded=enc, column=rep.column,
                                          clearance=rep.clearance,
                                          permutation=rep.permutation))
            assert np.all(np.diff(moved[:, 0]) >= 0.2)

    def test_negative_clearance_rejected(self):
        with pytest.raises(MixtureError):
            reparameterize_rows(np.eye(2), clearance=-1.0)

    def test_column_out_of_range(self):
        with pytest.raises(MixtureError):
            reparameterize_rows(np.eye(2), column=5)

    def test_one_dim_weights_rejected(self):
        with pytest.raises(MixtureError, match="2-D"):
            reparameterize_rows(np.array([0.5, 0.1, 0.9]))

    def test_fractional_column_rejected(self):
        with pytest.raises(MixtureError, match="column must be an integer"):
            reparameterize_rows(np.eye(2), column=1.5)

    def test_bool_column_rejected(self):
        with pytest.raises(MixtureError, match="column must be an integer"):
            reparameterize_rows(np.eye(2), column=True)

    def test_forward_equivalence_after_roundtrip(self):
        # encode/decode the first layer's incoming vectors, compensate the
        # resulting hidden-unit permutation in bias and next layer
        rng = make_rng(76)
        for activation in ("tanh", "identity"):
            mlp = random_mlp(rng, [3, 4, 1], activation)
            rep = reparameterize_rows(mlp.weights[0].T, clearance=0.0, column=0)
            decoded = decode_rows(rep).T
            compensated = permute_hidden_units(mlp, 0, rep.permutation)
            rebuilt = MLPParams(weights=(decoded, compensated.weights[1]),
                                biases=compensated.biases,
                                activation=activation)
            x = rng.normal(0, 1, (5, 3))
            assert np.allclose(forward(rebuilt, x), forward(mlp, x), atol=1e-12)


class TestRowsShareTheMixtureGapEncoding:
    """A weight matrix's ordering column and a mixture whose means are that
    column go through one gap encoding: same permutation, same deltas, same
    decoded values, and the same refusal at a gap below the clearance."""

    @staticmethod
    def mixture_of_column(w, column):
        k = w.shape[0]
        return MixtureParams(weights=(1.0 / k,) * k, means=tuple(w[:, column]),
                             sigmas=(1.0,) * k)

    @pytest.mark.parametrize("clearance", [0.0, 0.1])
    def test_same_permutation_deltas_and_decoding(self, clearance):
        rng = make_rng(79)
        spec = ReparamSpec(clearance=clearance, delta_encoding="squared")
        for _ in range(50):
            k, column = int(rng.integers(2, 6)), int(rng.integers(0, 3))
            w = rng.normal(0, 1, (k, 3))
            # the column's gaps all clear 0.1: shuffled cumulative sums
            w[:, column] = rng.permutation(np.cumsum(rng.uniform(0.1, 1.0, k)) - 1.5)
            rep = reparameterize_rows(w, clearance, column)
            rel = to_relative(self.mixture_of_column(w, column), spec)
            assert rel.permutation == rep.permutation
            assert np.array_equal(rel.deltas, rep.encoded[:, column])
            assert np.array_equal(decode_rows(rep)[:, column], to_absolute(rel, spec).means)

    @pytest.mark.parametrize("clearance", [0.06, 0.5])
    def test_both_refuse_a_gap_below_clearance(self, clearance):
        w = np.array([[0.0, 1.0], [0.05, 2.0], [1.0, 3.0]])
        with pytest.raises(SingularPointError):
            reparameterize_rows(w, clearance, 0)
        with pytest.raises(SingularPointError):
            to_relative(self.mixture_of_column(w, 0),
                        ReparamSpec(clearance=clearance, delta_encoding="squared"))


class TestOverlapCollapse:
    def test_merged_outgoing_weight_is_equivalent(self):
        # V_i = V_j: (w_i, w_j) and (w_i + w_j, 0) give identical outputs
        rng = make_rng(77)
        v = rng.normal(0, 1, 3)
        w1 = np.column_stack([v, v])
        b1 = np.array([0.2, 0.2])
        out = np.array([[1.3], [-0.4]])
        merged = np.array([[1.3 - 0.4], [0.0]])
        x = rng.normal(0, 1, (6, 3))
        a = MLPParams(weights=(w1, out), biases=(b1, np.zeros(1)))
        b = MLPParams(weights=(w1, merged), biases=(b1, np.zeros(1)))
        assert np.allclose(forward(a, x), forward(b, x), atol=0.0)


def test_gradient_descent_smoke_demo():
    """Toy regression on 2 hidden units trained in the encoded coordinates.

    Finite-difference gradient descent on (reference row, encoded rows,
    biases, output weights); the squared loss must decrease.
    """
    rng = make_rng(78)
    xs = rng.normal(0, 1, (30, 1))
    target = np.tanh(2.0 * xs) - np.tanh(xs - 0.5)

    def loss(theta):
        # theta = (reference weight, encoded gap d, biases, output weights)
        rep = RowReparam(reference_row=theta[0:1], encoded=theta[1:2].reshape(1, 1),
                         column=0, clearance=0.0, permutation=(0, 1))
        w = decode_rows(rep).T  # (1, 2): second unit weight = first + d^2
        mlp = MLPParams(weights=(w, theta[4:6].reshape(2, 1)),
                        biases=(theta[2:4], np.zeros(1)))
        pred = forward(mlp, xs)
        return float(np.mean((pred - target) ** 2))

    theta = np.array([-0.3, np.sqrt(1.1), 0.0, 0.0, 0.5, 0.5])
    losses = [loss(theta)]
    step = 1e-5
    for _ in range(40):
        grad = np.zeros_like(theta)
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += step
            tm[i] -= step
            grad[i] = (loss(tp) - loss(tm)) / (2 * step)
        theta = theta - 0.1 * grad
        losses.append(loss(theta))
    assert losses[-1] < losses[0]
