"""Test-only oracles: independent or earlier, slower paths the fast kernels are checked against."""

import numpy as np

from relreparam import fim
from relreparam.dynamics import UVWState, means_from_uvw
from relreparam.gmm import (LOG_2PI, Dataset, MixtureParams, make_rng,
                            responsibilities_array, sample)
from relreparam.svgplot import SvgCanvas, Viewport


def exact_partials_per_sample(state: UVWState, xs: np.ndarray) -> np.ndarray:
    """Per-sample exact chain-rule partials of the log-density, shape (n, 3).

    Columns are d/d(v, u, w) in original mode and d/d(v, Delta, w') in
    relative mode. This is the independent route of the Monte-Carlo oracle
    for the closed-form velocities; it never touches their series expressions.
    """
    v = state.v
    mu1, mu2 = means_from_uvw(state)
    params = MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0))
    gam = responsibilities_array(params, xs)
    dl_dm1 = gam[:, 0] * (xs - mu1)
    dl_dm2 = gam[:, 1] * (xs - mu2)
    dl_dv = gam[:, 0] / v - gam[:, 1] / (1.0 - v)
    if state.parameterization == "original":
        # mu1 = w + (1-v)u, mu2 = w - v*u
        d_v = dl_dv - state.u * dl_dm1 - state.u * dl_dm2
        d_u = (1.0 - v) * dl_dm1 - v * dl_dm2
        d_w = dl_dm1 + dl_dm2
    else:
        # mu1 = w' - (1-v)*Delta, mu2 = w' + v*Delta
        d_v = dl_dv + state.u * dl_dm1 + state.u * dl_dm2
        d_u = -(1.0 - v) * dl_dm1 + v * dl_dm2
        d_w = dl_dm1 + dl_dm2
    return np.column_stack([d_v, d_u, d_w])


def rowmajor_log_sum_exp(params: MixtureParams, xs: np.ndarray):
    """(n, K) responsibilities and (n,) log densities, components as the inner axis.

    The row-major reference for the component-major ``gmm`` kernels, in the
    same order of operations: ln N_k, then + ln pi_k, then a log-sum-exp over
    the last axis.
    """
    mu = np.asarray(params.means)
    sig = np.asarray(params.sigmas)
    logw = np.log(np.asarray(params.weights) + np.finfo(float).tiny)
    z = (xs[:, None] - mu) / sig
    a = (-0.5 * z * z - np.log(sig) - 0.5 * LOG_2PI) + logw
    amax = np.max(a, axis=-1, keepdims=True)
    e = np.exp(a - amax)
    total = np.sum(e, axis=-1, keepdims=True)
    return e / total, amax[:, 0] + np.log(total[:, 0])


def rowmajor_fit(data: Dataset, params: MixtureParams, config, delta=None):
    """The row-major EM/ECM loop: an (n, K) E-step, a separate log-likelihood
    pass per iterate, and M-step sums down the columns (axis 0).

    ``delta`` None runs standard EM with config's frozen blocks; a float runs
    the relative ECM from that gap, carried between iterations. Returns
    (iterations, trajectory, log-likelihoods).
    """
    xs = data.as_array()

    def loglik(p):
        return float(np.sum(rowmajor_log_sum_exp(p, xs)[1]))

    traj, lls = [params], [loglik(params)]
    iters = 0
    for iters in range(1, config.max_iters + 1):
        g = rowmajor_log_sum_exp(params, xs)[0]
        if delta is None:
            nk = g.sum(axis=0)
            mu = (g * xs[:, None]).sum(axis=0) / nk
            pi = params.weights if config.fix_weights else tuple(nk / len(xs))
            if config.fix_sigmas:
                sig = params.sigmas
            else:
                var = (g * (xs[:, None] - mu) ** 2).sum(axis=0) / nk
                sig = tuple(np.sqrt(np.maximum(var, 1e-300)))
            params = MixtureParams(weights=pi, means=tuple(mu), sigmas=sig)
        else:
            n1, n2 = g[:, 0].sum(), g[:, 1].sum()
            s1x, s2x = float(np.sum(g[:, 0] * xs)), float(np.sum(g[:, 1] * xs))
            mu1 = (s1x + s2x - delta * n2) / (n1 + n2)
            delta = max(s2x / n2 - mu1, 0.0)
            params = MixtureParams(weights=params.weights, means=(mu1, mu1 + delta),
                                   sigmas=params.sigmas)
        traj.append(params)
        lls.append(loglik(params))
        if abs(lls[-1] - lls[-2]) <= config.epsilon:
            break
    return iters, traj, np.asarray(lls)


def sample_points(params: MixtureParams, n: int, seed: int) -> np.ndarray:
    """The draws of ``gmm.sample`` as the out-of-place formula mu + sig * z.

    Same Philox calls in the same order: uniforms pick the components, then
    one standard-normal draw per point.
    """
    rng = make_rng(seed)
    comp = np.searchsorted(np.cumsum(params.weights), rng.random(n), side="right")
    comp = np.minimum(comp, params.n_components - 1)
    mu = np.asarray(params.means)[comp]
    sig = np.asarray(params.sigmas)[comp]
    return mu + sig * rng.standard_normal(n)


def one_shot_mc_fim(params: MixtureParams, coords: str, budget: int, seed: int):
    """Monte-Carlo FIM entries and standard errors from one (budget, k, k) tensor.

    The unchunked reference for ``fim_estimate``'s streamed accumulation:
    the same draws and scores, then a mean and a ddof=1 std over axis 0,
    each symmetrized.
    """
    s = fim._score_in_coords(params, sample(params, budget, seed).as_array(), coords)
    outer = s[:, :, None] * s[:, None, :]
    mean = outer.mean(axis=0)
    se = outer.std(axis=0, ddof=1) / np.sqrt(budget)
    return 0.5 * (mean + mean.T), 0.5 * (se + se.T)


# The slow SVG path: one formatted string per coordinate, one element per stroke.

def _fmt(x: float) -> str:
    return f"{x:.2f}"


def line_per_stroke(canvas: SvgCanvas, x1, y1, x2, y2, stroke="black", width=1.0):
    """One <line> element, each coordinate formatted on its own."""
    canvas.elements.append(
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
        f' stroke="{stroke}" stroke-width="{width}"/>'
    )


def polyline_per_point(canvas: SvgCanvas, pts, stroke="blue", width=1.5):
    """One <polyline> element from (x, y) pairs, formatted point by point."""
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    canvas.elements.append(
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
    )


def map_polyline_per_point(vp: Viewport, xs, ys, x_offset: float = 0.0):
    """Pixel coordinates of (xs, ys) as a list of tuples, mapped point by point."""
    return [(vp.px(float(x)) + x_offset, vp.py(float(y))) for x, y in zip(xs, ys)]


def quiver_per_arrow(canvas: SvgCanvas, vp: Viewport, xs, ys, us, vs,
                     norm_cap: float = 0.8, stroke="#1f4e9c", x_offset: float = 0.0):
    """``svgplot.draw_quiver`` arrow by arrow on numpy scalars: a shaft and
    two arrowhead strokes per non-zero vector, three elements each."""
    xs, ys, us, vs = (np.asarray(a, dtype=float).ravel() for a in (xs, ys, us, vs))
    norms = np.hypot(us, vs)
    vmax = norms.max() if norms.size and norms.max() > 0 else 1.0
    pitch = min(vp.width, vp.height) / max(np.sqrt(norms.size), 1.0)
    for x, y, u, v, n in zip(xs, ys, us, vs, norms):
        if n == 0:
            continue
        frac = min(n / vmax, 1.0) * norm_cap
        length = frac * pitch
        dx, dy = u / n * length, -v / n * length
        px, py = vp.px(x) + x_offset, vp.py(y)
        line_per_stroke(canvas, px, py, px + dx, py + dy, stroke=stroke)
        hx, hy = px + dx, py + dy
        ang = np.arctan2(dy, dx)
        for da in (+2.6, -2.6):
            line_per_stroke(canvas, hx, hy, hx + 0.3 * length * np.cos(ang + da),
                            hy + 0.3 * length * np.sin(ang + da), stroke=stroke)
