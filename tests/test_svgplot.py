"""The array-pass quiver and polylines against the per-arrow, per-point
oracles, and the quiver's array formatter against ``'%.2f' %``: same bytes."""

import re

import numpy as np
import pytest

from childproc import REDUCED_SIMD_CLASSES, assert_passes_under_reduced_simd, numpy_has_x86_v4
from oracles import map_polyline_per_point, polyline_per_point, quiver_per_arrow
from relreparam import svgplot
from relreparam.dynamics import TrueModel, flow_field
from relreparam.gmm import MixtureParams
from relreparam.svgplot import SvgCanvas, Viewport, draw_quiver, map_polyline

TRUTH = TrueModel(MixtureParams(weights=(0.5, 0.5), means=(0.0, 0.0), sigmas=(1.0, 1.0)))


def field_cells(step: float, parameterization: str):
    """Grid points and velocities of the default field's grid at `step`, raveled as run_field draws them."""
    spec = (-2.0, 2.0, step)
    ff = flow_field(spec, spec, 0.5, TRUTH, parameterization=parameterization)
    g1, g2 = np.meshgrid(ff.mu1_axis, ff.mu2_axis)
    return Viewport(-2.0, 2.0, -2.0, 2.0), g1, g2, ff.dmu1, ff.dmu2


def assert_same_document(fast: str, slow: str) -> None:
    """Equal documents, reporting the first differing line (a full text diff
    of two quiver documents would take minutes)."""
    if fast != slow:
        a, b = fast.splitlines(), slow.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i} of {len(a)} vs {len(b)}: "
                    f"{a[i] if i < len(a) else None!r} != {b[i] if i < len(b) else None!r}")


def both_quivers(vp, xs, ys, us, vs, panels_before=()):
    """Rendered documents of draw_quiver and of the per-arrow oracle in vp,
    the canvas's panel after panels_before, and the fast canvas."""
    fast, slow = SvgCanvas(*panels_before, vp), SvgCanvas(*panels_before, vp)
    draw_quiver(fast, vp, xs, ys, us, vs)
    quiver_per_arrow(slow, vp, xs, ys, us, vs)
    return fast.render(), slow.render(), fast


@pytest.mark.parametrize("parameterization", ["original", "relative"])
@pytest.mark.parametrize("step", [0.1, 0.05], ids=["41x41", "81x81"])
def test_field_quiver_matches_oracle(step, parameterization):
    fast, slow, canvas = both_quivers(*field_cells(step, parameterization))
    assert_same_document(fast, slow)
    arrows = slow.count("<line") // 3
    assert len(canvas.elements) == -(-arrows // svgplot.QUIVER_BLOCK)


def test_quiver_blocks_split_anywhere(monkeypatch):
    monkeypatch.setattr(svgplot, "QUIVER_BLOCK", 7)
    fast, slow, canvas = both_quivers(*field_cells(0.5, "original"))
    assert_same_document(fast, slow)
    assert len(canvas.elements) > 1


def test_zero_norm_cells_are_skipped():
    vp, g1, g2, us, vs = field_cells(0.1, "relative")
    us, vs = us.copy(), vs.copy()
    us[::3, ::2] = 0.0
    vs[::3, ::2] = 0.0
    vs[1::4] = 0.0  # horizontal arrows stay drawn
    fast, slow, _ = both_quivers(vp, g1, g2, us, vs)
    assert_same_document(fast, slow)


def test_all_zero_field_adds_no_element():
    vp, g1, g2, us, _ = field_cells(0.5, "original")
    zeros = np.zeros_like(us)
    canvas = SvgCanvas(vp)
    canvas.marker(100.0, 100.0)
    draw_quiver(canvas, vp, g1, g2, zeros, zeros)
    canvas.marker(200.0, 200.0)
    assert len(canvas.elements) == 4  # the markers' strokes only
    assert "\n\n" not in canvas.render()


def test_one_cell_grid_with_zero_span():
    vp = Viewport(1.0, 1.0, 1.0, 1.0)
    fast, slow, _ = both_quivers(vp, [1.0], [1.0], [0.3], [-0.2])
    assert_same_document(fast, slow)
    assert fast.count("<line") == 3


def test_x_offset_and_style():
    """A quiver in a canvas's second panel, one 520 px panel to the right,
    drawn in the fixed arrow colour."""
    vp, g1, g2, us, vs = field_cells(0.1, "original")
    fast, slow, _ = both_quivers(vp, g1, g2, us, vs, panels_before=[Viewport(0.0, 1.0, 0.0, 1.0)])
    assert vp.left == 520.0
    assert_same_document(fast, slow)
    assert fast.count(f'stroke="{svgplot.ARROW_STROKE}"') == fast.count("<line")


def test_overflowing_grid_draws_only_finite_arrows():
    """The CLI's overflowing grid: cells whose velocity is inf or nan draw no
    arrow, and the finite ones are scaled by the largest finite norm."""
    spec = (-1.0e100, 1.0e100, 5.0e99)
    with np.errstate(all="ignore"):
        ff = flow_field(spec, spec, 0.5, TRUTH, parameterization="original")
    norms = np.hypot(ff.dmu1, ff.dmu2)
    assert not np.isfinite(norms).all() and (np.isfinite(norms) & (norms > 0)).any()
    g1, g2 = np.meshgrid(ff.mu1_axis, ff.mu2_axis)
    vp = Viewport(*spec[:2], *spec[:2])
    fast, slow, _ = both_quivers(vp, g1, g2, ff.dmu1, ff.dmu2)
    assert_same_document(fast, slow)
    assert fast.count("<line") == 3 * np.count_nonzero(np.isfinite(norms) & (norms > 0))
    assert not any(w in fast for w in ("nan", "inf"))


def test_data_partly_outside_the_viewport():
    """A viewport 0.05 wide on the default grid: pixel coordinates run from
    about -16,750 to 16,850, so they take a sign and a second digit chunk."""
    _, g1, g2, us, vs = field_cells(0.1, "relative")
    vp = Viewport(0.0, 0.05, 0.0, 0.05)
    fast, slow, _ = both_quivers(vp, g1, g2, us, vs)
    assert_same_document(fast, slow)
    coords = [float(c) for c in re.findall(r'[xy][12]="([^"]*)"', fast)]
    assert min(coords) < -1.0e4 and max(coords) > 1.0e4


def test_empty_input_adds_no_element():
    vp = Viewport(-2.0, 2.0, -2.0, 2.0)
    fast, slow, canvas = both_quivers(vp, [], [], [], [])
    assert canvas.elements == []
    assert fast == slow


def hundredths_texts(x) -> list[str]:
    """The texts ``svgplot._hundredths`` gives for the values of x."""
    fields = svgplot._hundredths(x)
    rows = np.column_stack([fields, np.full(len(fields), ord("\n"), dtype=np.uint8)]).ravel()
    return rows[rows != 0].tobytes().decode("ascii").split("\n")[:-1]


def assert_formats_as_percent(x) -> None:
    x = np.asarray(x, dtype=float).ravel()
    got, want = hundredths_texts(x), ["%.2f" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def around(x):
    """x and its neighbouring doubles on both sides."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestHundredthsMatchPercentFormat:
    """The quiver's formatter against ``'%.2f' % x``, element by element."""

    def test_exact_ties_round_half_even(self):
        k = np.arange(-80_000, 80_001)
        assert_formats_as_percent(k / 8)
        assert_formats_as_percent(np.ldexp(1.0, np.arange(20, 49))[:, None] + k[:64] / 8)

    def test_next_to_half_hundredth_boundaries(self):
        boundaries = [float(f"{i}.{j:02d}5") for i in (0, 1, 7, 42, 123, 4567, 98765)
                      for j in range(100)]
        assert_formats_as_percent(around(boundaries + [-b for b in boundaries]))

    def test_carries_that_widen_the_number(self):
        nines = [float("9" * d + ".995") for d in range(1, 13)]
        nines += [float("9" * d + ".994") for d in range(1, 13)]
        assert_formats_as_percent(around(nines + [-v for v in nines]))
        assert_formats_as_percent(around([10.0 ** d for d in range(16)]))
        # alone, so that the largest value of the call sets the digit chunks
        for v in around([99.999, 100.0, 999999.999, 1e6, 1e10, 1e14]).tolist():
            assert hundredths_texts([v]) == ["%.2f" % v], v

    def test_zeros_and_negatives_that_round_to_zero(self):
        x = [0.0, -0.0, -0.001, -0.004999, -0.005, 0.005, -1e-300, 1e-300, -5e-324]
        assert hundredths_texts(x) == ["%.2f" % v for v in x]
        assert hundredths_texts([-0.0, -0.001]) == ["-0.00", "-0.00"]

    def test_subnormals(self):
        tiny = np.nextafter(0.0, 1.0) * np.array([1, 2, 3, 2 ** 20, 2 ** 51, 2 ** 52 - 1])
        assert_formats_as_percent(np.concatenate([tiny, -tiny, [np.finfo(float).tiny]]))

    def test_past_the_exact_range_formats_each_value(self):
        edge = 2.0 ** 52
        x = around([edge, 2.0 ** 53, 1e300, np.finfo(float).max]).tolist()
        x += [np.nan, -np.nan, np.inf, -np.inf, 1.25, -3.5]
        assert_formats_as_percent(np.array(x + [-v for v in x]))
        assert edge - 0.5 == np.nextafter(edge, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_draws_across_scales(self, seed):
        """10**5 draws a seed, 10**6 over the ten, at magnitudes 10**-3 to 10**9."""
        rng = np.random.default_rng(seed)
        assert_formats_as_percent(rng.standard_normal(10 ** 5) * 10.0 ** rng.uniform(-3, 9, 10 ** 5))

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_under_reduced_numpy_simd(self):
        assert_passes_under_reduced_simd(*REDUCED_SIMD_CLASSES)


@pytest.mark.parametrize("x_offset", [0.0, 420.0])
def test_polyline_matches_oracle(x_offset):
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=301).cumsum(), rng.normal(size=301).cumsum()
    vp = Viewport(xs.min(), xs.max(), ys.min(), ys.max(), width=320.0, height=320.0)
    panels = [Viewport(0.0, 1.0, 0.0, 1.0, width=320.0)] if x_offset else []
    fast, slow = SvgCanvas(*panels, vp), SvgCanvas(*panels, vp)
    assert vp.left == x_offset
    pts = map_polyline(vp, xs, ys)
    oracle_pts = map_polyline_per_point(vp, xs, ys)
    assert pts.shape == (301, 2)
    assert np.array_equal(pts, np.array(oracle_pts))
    fast.polyline(pts, stroke="red")
    polyline_per_point(slow, oracle_pts, stroke="red")
    assert fast.render() == slow.render()


@pytest.mark.parametrize("widths, size", [([420.0], (520.0, 520.0)),
                                           ([420.0, 420.0], (1040.0, 520.0)),
                                           ([320.0] * 4, (1680.0, 420.0))])
def test_canvas_places_panels_side_by_side(widths, size):
    vps = [Viewport(0.0, 1.0, 0.0, 1.0, width=w, height=w) for w in widths]
    canvas = SvgCanvas(*vps)
    assert (canvas.width, canvas.height) == size
    assert [vp.left for vp in vps] == [i * (widths[0] + 2 * svgplot.MARGIN) for i in range(len(vps))]
    assert [vp.px(0.0) for vp in vps] == [vp.left + svgplot.MARGIN for vp in vps]


def test_polyline_from_list_of_tuples():
    vp = Viewport(-1.0, 2.0, -1.0, 2.0)
    pts = [(vp.px(vp.xmin), vp.py(vp.xmin)), (vp.px(vp.xmax), vp.py(vp.xmax))]
    fast, slow = SvgCanvas(vp), SvgCanvas(vp)
    fast.polyline(pts, stroke="black", width=0.8)
    polyline_per_point(slow, pts, stroke="black", width=0.8)
    assert fast.elements == slow.elements
    assert fast.elements[0].startswith('<polyline points="50.00,470.00 470.00,50.00"')
