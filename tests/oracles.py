"""Test-only oracles: independent or earlier, slower paths the fast kernels are checked against."""

import argparse
import math
from pathlib import Path

import numpy as np

from relreparam import fim, svgplot
from relreparam.dynamics import (TrueModel, Trajectory, UVWState, expected_velocity_relative,
                                 velocity_in_means)
from relreparam.ecm import cm_step_delta, cm_step_reference_mean, e_step, m_step_standard
from relreparam.experiments import KINDS, SCHEMA_VERSION
from relreparam.gmm import (_FLOAT_MIN, _SIMPLEX_TOL, LOG_2PI, Dataset, MixtureError,
                            MixtureParams, _components_first, _fill_slice, _log_sum_exp_rows,
                            _slice_streams, component_nodes, log_density, log_likelihood,
                            log_weights, make_rng, normal_quadrature, responsibilities_array,
                            score_means)
from relreparam.nn import MLPParams
from relreparam.svgplot import SvgCanvas, Viewport


# Collective coordinates: the maps between (v, mu1, mu2) and UVWState, and
# the coordinate-change Jacobians and their Gram matrices as numpy arrays.

def uvw_from_means(v: float, mu1: float, mu2: float) -> UVWState:
    return UVWState(v=v, u=mu1 - mu2, w=v * mu1 + (1.0 - v) * mu2)


def means_from_uvw(state: UVWState) -> tuple[float, float]:
    v, u, w = state.v, state.u, state.w
    if state.parameterization == "original":
        return w + (1.0 - v) * u, w - v * u
    # relative: w' = mu1 + (1-v)*Delta, mu2 = mu1 + Delta
    mu1 = w - (1.0 - v) * u
    return mu1, mu1 + u


def original_gram(state: UVWState) -> np.ndarray:
    """J J^T for J = d(v,u,w)/d(v,mu1,mu2)."""
    jac = np.array([[1.0, 0.0, 0.0],
                    [0.0, 1.0, -1.0],
                    [state.u, state.v, 1.0 - state.v]])
    return jac @ jac.T


def relative_jacobian(v: float, delta: float) -> np.ndarray:
    """J' = d(v, Delta, w')/d(v, mu1, Delta) with w' = mu1 + (1-v)*Delta."""
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [-delta, 1.0, 1.0 - v]])


def relative_gram(v: float, delta: float) -> np.ndarray:
    jac = relative_jacobian(v, delta)
    return jac @ jac.T


def permute_hidden_units(mlp: MLPParams, layer: int, perm) -> MLPParams:
    """Apply a hidden-unit permutation: reorder W_layer columns/bias and W_{layer+1} rows."""
    perm = list(perm)
    ws = [w.copy() for w in mlp.weights]
    bs = [b.copy() for b in mlp.biases]
    ws[layer] = ws[layer][:, perm]
    bs[layer] = bs[layer][perm]
    ws[layer + 1] = ws[layer + 1][perm, :]
    return MLPParams(weights=tuple(ws), biases=tuple(bs), activation=mlp.activation)


def unscreened_linear_dependence(mlp: MLPParams, tol: float = 1e-6) -> list:
    """``detect_singularities``'s linear-dependence hits with no screen: the
    modified Gram-Schmidt residual of every (pair, target) triple, compared
    with the bound. Each pair's basis is built on its own, with 1-D products
    and sums (the bits of the kernel's row sums); each target's residuals
    come in one pass over all pairs. Returns (layer, (i, j, target), residual)
    tuples in the report's order."""
    eps = np.finfo(float).eps
    hits = []
    for k in range(mlp.depth - 1):
        cols = np.ascontiguousarray(mlp.weights[k].T)
        units, fan_in = cols.shape
        sq = np.array([(c * c).sum() for c in cols])
        norms = np.sqrt(sq)
        bound = tol * max(float(np.sqrt(sq.sum())), 1.0)
        pairs = [(i, j) for i in range(units) for j in range(i + 1, units)]
        q1s, q2s = np.zeros((len(pairs), fan_in)), np.zeros((len(pairs), fan_in))
        for p, (i, j) in enumerate(pairs):
            x1, x2, n1 = ((cols[j], cols[i], norms[j]) if norms[j] > norms[i]
                          else (cols[i], cols[j], norms[i]))
            if n1 == 0:
                continue  # both columns are zero
            q1s[p] = x1 / n1
            r = x2 - (q1s[p] * x2).sum() * q1s[p]
            nr = np.sqrt((r * r).sum())
            if nr > eps * max(fan_in, 2) * n1:
                q2s[p] = r / nr
        for target in range(units):
            t = cols[target]
            r1 = t - (q1s * t).sum(axis=1)[:, None] * q1s
            res = r1 - (q2s * r1).sum(axis=1)[:, None] * q2s
            resid = np.sqrt((res * res).sum(axis=1))
            hits.extend((k, (i, j, target), float(resid[p])) for p, (i, j) in enumerate(pairs)
                        if target not in (i, j) and resid[p] <= bound)
    return hits


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
    """(..., K) responsibilities and (...) log densities, components as the inner axis.

    The row-major reference for the component-major ``gmm`` kernels, in the
    same order of operations: ln N_k, then + ln pi_k, then a log-sum-exp over
    the last axis.
    """
    mu = np.asarray(params.means)
    sig = np.asarray(params.sigmas)
    logw = np.log(np.asarray(params.weights) + np.finfo(float).tiny)
    z = (xs[..., None] - mu) / sig
    a = (-0.5 * z * z - np.log(sig) - 0.5 * LOG_2PI) + logw
    amax = np.max(a, axis=-1, keepdims=True)
    e = np.exp(a - amax)
    total = np.sum(e, axis=-1, keepdims=True)
    return e / total, amax[..., 0] + np.log(total[..., 0])


def numpy_mixture_fields(weights, means, sigmas):
    """``MixtureParams``'s checks run on numpy arrays, as its constructor did
    before it checked Python floats: the same checks in the same order, then
    the fields it stored. Raises what that constructor raised, with its
    message (the simplex error shows the numpy repr of the sum)."""
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if not (len(w) == len(m) == len(s)):
        raise MixtureError("weights, means, sigmas must have equal length")
    if len(w) < 1:
        raise MixtureError("need K >= 1 components")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
        raise MixtureError("parameters must be finite")
    if np.any(w < 0):
        raise MixtureError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > _SIMPLEX_TOL:
        raise MixtureError(f"weights must sum to 1 within {_SIMPLEX_TOL}, got {w.sum()!r}")
    if np.any(s <= 0):
        raise MixtureError("sigmas must be strictly positive")
    return (tuple(float(x) for x in w), tuple(float(x) for x in m),
            tuple(float(x) for x in s))


# The generic density pass: every sigma taken through the divisions and
# ln sigma, the arithmetic gmm's unit-sigma path must reproduce bit for bit.

def generic_log_normal(xs: np.ndarray, mu: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``gmm._log_normal`` for every sigma, 1.0 too: divide by sigma,
    multiply by -0.5 z, subtract ln sigma and ln(2 pi) / 2, in that order."""
    z = np.subtract(xs, mu)
    z /= sig
    z *= np.multiply(z, -0.5)
    z -= np.log(sig)
    z -= 0.5 * LOG_2PI
    return z


def _generic_rows(params: MixtureParams, ndim: int):
    """The means and the sigmas shaped (K, 1, ...) for ndim-d x."""
    return (_components_first(np.asarray(params.means), ndim),
            _components_first(np.asarray(params.sigmas, dtype=float), ndim))


def generic_density_pass(params: MixtureParams, x):
    """``responsibilities_and_log_density`` through ``generic_log_normal``:
    the (K, ...) responsibilities and the (...) ln p."""
    xs = np.asarray(x, dtype=float)
    a = generic_log_normal(xs, *_generic_rows(params, xs.ndim))
    e, total, amax = _log_sum_exp_rows(a, params.weights)
    log_p = amax + np.log(total)
    e /= total
    return e, log_p


def generic_log_density_means(weights, sigmas, means: np.ndarray, x) -> np.ndarray:
    """``log_density_means`` through ``generic_log_normal``."""
    xs = np.asarray(x, dtype=float)
    mu = means.reshape(means.shape + (1,) * xs.ndim)
    sig = _components_first(np.asarray(sigmas, dtype=float), xs.ndim + 1)
    _, total, amax = _log_sum_exp_rows(generic_log_normal(xs, mu, sig), weights)
    return amax + np.log(total)


def generic_score_rows(params: MixtureParams, x, width: int) -> np.ndarray:
    """``gmm._score_rows``'s component-major rows with every division kept:
    the K mean scores gamma_k (x - mu_k) / sigma_k^2, or, at width 3K - 1,
    the weight scores gamma_k / pi_k - gamma_K / pi_K, then gamma_k z / sigma_k
    and gamma_k (z z - 1) / sigma_k with z = (x - mu_k) / sigma_k."""
    xs = np.asarray(x, dtype=float)
    gam = generic_density_pass(params, xs)[0]
    k = params.n_components
    if width == k:
        mu, sig = _generic_rows(params, xs.ndim)
        return gam * np.subtract(xs, mu) / (sig * sig)
    rows = np.empty((width,) + xs.shape)
    last = gam[-1] / params.weights[-1]
    for i, w in enumerate(params.weights[:-1]):
        rows[i, ...] = gam[i] / w - last
    for i, (m, s) in enumerate(zip(params.means, params.sigmas)):
        z = np.subtract(xs, m) / s
        rows[k - 1 + i, ...] = z * gam[i] / s
        rows[2 * k - 1 + i, ...] = (z * z - 1.0) * gam[i] / s
    return rows


def axis0_log_sum_exp_rows(a: np.ndarray, weights):
    """``gmm._log_sum_exp_rows`` as whole-array reductions over the component
    axis (``np.max`` floored by ``initial``, then ``np.sum``); overwrites a."""
    a += _components_first(log_weights(weights), a.ndim - 1)
    amax = np.max(a, axis=0, initial=_FLOAT_MIN)
    a -= amax
    e = np.exp(a, out=a)
    return e, np.sum(e, axis=0), amax


# Row-major scores: the C-contiguous (..., K) arrays gmm's score functions
# returned before they became views of component-major rows, and the paths
# that reduced them.

def rowmajor_score_means(params: MixtureParams, x) -> np.ndarray:
    """``gmm.score_means`` as a C-contiguous (..., K) array, same operations."""
    xs = np.asarray(x, dtype=float)
    gam = rowmajor_log_sum_exp(params, xs)[0]
    sig = np.asarray(params.sigmas)
    return gam * (xs[..., None] - np.asarray(params.means)) / (sig * sig)


def rowmajor_score(params: MixtureParams, x) -> np.ndarray:
    """``gmm.score`` as a C-contiguous (..., 3K - 1) array, same operations."""
    xs = np.asarray(x, dtype=float)
    gam = rowmajor_log_sum_exp(params, xs)[0]
    sig = np.asarray(params.sigmas)
    w = np.asarray(params.weights)
    z = (xs[..., None] - np.asarray(params.means)) / sig
    d_pi = gam[..., :-1] / w[:-1] - gam[..., -1:] / w[-1]
    return np.concatenate([d_pi, gam * z / sig, gam * (z * z - 1.0) / sig], axis=-1)


def rowmajor_score_in_coords(params: MixtureParams, xs: np.ndarray, coords: str) -> np.ndarray:
    """``fim._score_slice(...).T`` from the row-major scores: (n, k), C-contiguous."""
    if coords == "full":
        return rowmajor_score(params, xs)
    s = rowmajor_score_means(params, xs)
    if coords == "relative_means":
        return np.column_stack([s[:, 0] + s[:, 1], s[:, 1]])
    return s


def rowmajor_mc_moments(params: MixtureParams, xs: np.ndarray, coords: str):
    """``fim._mc_moments`` on row-major scores, each slice's (c, k) array
    copied to (k, c) rows before its products are taken."""
    n, mean, m2 = 0, 0.0, 0.0
    for start in range(0, len(xs), fim._MC_CHUNK):
        s = np.ascontiguousarray(
            rowmajor_score_in_coords(params, xs[start:start + fim._MC_CHUNK], coords).T)
        outer = s[:, None, :] * s[None, :, :]
        c = outer.shape[-1]
        c_mean = outer.mean(axis=-1)
        outer -= c_mean[..., None]
        outer *= outer
        total = n + c
        d = c_mean - mean
        mean = mean + d * (c / total)
        m2 = m2 + outer.sum(axis=-1) + d * d * (n * c / total)
        n = total
    return mean, m2


def mean_distance(params: MixtureParams, truth: MixtureParams) -> float:
    """Euclidean distance between the mean vectors, label permutation resolved
    by sorting: one mixture at a time, on numpy-sorted arrays."""
    return math.hypot(*(np.sort(params.means) - np.sort(truth.means)))


def rowmajor_fit(data: Dataset, params: MixtureParams, config, delta=None,
                 means_only: bool = False):
    """The row-major EM/ECM loop: an (n, K) E-step, a separate log-likelihood
    pass per iterate, and M-step sums down the columns (axis 0).

    ``delta`` None runs standard EM, updating every block, or with
    ``means_only`` the means alone; a float runs the relative ECM from that
    gap, carried between iterations. ``config`` gives the stopping rule.
    Returns (iterations, trajectory, log-likelihoods).
    """
    xs = data.points

    def loglik(p):
        return float(np.sum(rowmajor_log_sum_exp(p, xs)[1]))

    traj, lls = [params], [loglik(params)]
    iters = 0
    for iters in range(1, config.max_iters + 1):
        g = rowmajor_log_sum_exp(params, xs)[0]
        if delta is None:
            nk = g.sum(axis=0)
            mu = (g * xs[:, None]).sum(axis=0) / nk
            if means_only:
                pi, sig = params.weights, params.sigmas
            else:
                pi = tuple(nk / len(xs))
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


def public_steps_fit(data: Dataset, params: MixtureParams, config, delta=None):
    """The EM/ECM loop composed from the public steps, each in buffers of its
    own: ``e_step`` of every iterate, then ``m_step_standard`` when ``delta``
    is None, else ``cm_step_reference_mean`` and ``cm_step_delta`` from the
    gap ``delta``, carried between iterations. ``config`` gives the stopping
    rule. Returns (iterations, trajectory, log-likelihoods, stop reason).
    """
    gamma = e_step(params, data)
    traj, lls = [params], [gamma.loglik]
    stop_reason, iters = "max_iters", 0
    for iters in range(1, config.max_iters + 1):
        if delta is None:
            params = m_step_standard(gamma, data)
        else:
            mu1 = cm_step_reference_mean(gamma, data, delta)
            delta, _ = cm_step_delta(gamma, data, mu1)
            params = MixtureParams(weights=params.weights, means=(mu1, mu1 + delta),
                                   sigmas=params.sigmas)
        traj.append(params)
        gamma = e_step(params, data)
        lls.append(gamma.loglik)
        if abs(lls[-1] - lls[-2]) <= config.epsilon:
            stop_reason = "converged"
            break
    return iters, traj, np.asarray(lls), stop_reason


def expected_loglik(params: MixtureParams, true: TrueModel, nodes_weights) -> float:
    """E_true[ln p(x | params)] per point, via Gauss-Hermite over each true
    component: one ``log_density`` call per true component."""
    nodes, wts = nodes_weights
    total = 0.0
    for pi, mu, sig in zip(true.params.weights, true.params.means, true.params.sigmas):
        total += pi * float(np.sum(wts * log_density(params, mu + sig * nodes)))
    return total


def exact_mean_gradient(params: MixtureParams, true: TrueModel, n_nodes: int = 201) -> np.ndarray:
    """E_true[d ln p(x | params) / d(mu_1..mu_K)], exact up to quadrature:
    sum_k pi_k sum_n w_n score_means(params, mu_k + sigma_k node_n) over the
    true components. The series-free reference for the closed-form velocities."""
    nodes, wts = normal_quadrature(n_nodes)
    total = 0.0
    for pi, mu, sig in zip(true.params.weights, true.params.means, true.params.sigmas):
        total = total + pi * (wts @ score_means(params, mu + sig * nodes))
    return total


def integrate_gd_per_step(init_means, true, eta: float, steps: int,
                          parameterization: str, gradient_source: str,
                          v: float = 0.5, row_major: bool = False) -> Trajectory:
    """The per-step GD loop: one branch per parameterization and gradient
    source inside the loop, and each iterate's log-likelihood and distance to
    the truth recorded as soon as it is made. ``gradient_source`` 'expected'
    takes a TrueModel, 'empirical' a Dataset. An empirical step averages
    ``score_means`` over axis 0; with ``row_major`` it averages the
    C-contiguous (n, K) scores instead, a sum in another order."""
    if gradient_source == "expected":
        nodes_weights = normal_quadrature(101)
    else:
        xs = true.points
        scores = rowmajor_score_means if row_major else score_means

    mu1, mu2 = float(init_means[0]), float(init_means[1])
    recs = {k: [] for k in ("mu1", "mu2", "delta", "loglik", "dist")}
    diverged = False

    def record(m1, m2):
        params = MixtureParams(weights=(v, 1.0 - v), means=(m1, m2), sigmas=(1.0, 1.0))
        recs["mu1"].append(m1)
        recs["mu2"].append(m2)
        recs["delta"].append(abs(m2 - m1))
        if gradient_source == "expected":
            recs["loglik"].append(expected_loglik(params, true, nodes_weights))
            recs["dist"].append(mean_distance(params, true.params))
        else:
            recs["loglik"].append(log_likelihood(params, true))
            recs["dist"].append(np.nan)

    record(mu1, mu2)
    for _ in range(steps):
        if parameterization == "original":
            if gradient_source == "expected":
                d1, d2, _ = velocity_in_means(v, mu1, mu2, true, "original", eta)
            else:
                params = MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0))
                g = np.mean(scores(params, xs), axis=0)
                d1, d2 = eta * g[0], eta * g[1]
            mu1, mu2 = mu1 + d1, mu2 + d2
        else:
            lo, hi = min(mu1, mu2), max(mu1, mu2)
            delta = hi - lo
            if gradient_source == "expected":
                st = UVWState(v=v, u=delta, w=v * lo + (1.0 - v) * hi,
                              parameterization="relative")
                _, ddelta, dwp = expected_velocity_relative(st, true, eta)
                dlo = dwp - (1.0 - v) * ddelta
            else:
                params = MixtureParams(weights=(v, 1.0 - v), means=(lo, hi), sigmas=(1.0, 1.0))
                g = np.mean(scores(params, xs), axis=0)
                dlo = eta * (g[0] + g[1])      # d l / d mu1 with mu2 = mu1 + Delta
                ddelta = eta * g[1]            # d l / d Delta
            lo = lo + dlo
            delta = max(delta + ddelta, 0.0)
            mu1, mu2 = lo, lo + delta
        if not (np.isfinite(mu1) and np.isfinite(mu2)):
            diverged = True
            break
        record(mu1, mu2)

    return Trajectory(
        mu1=np.asarray(recs["mu1"]), mu2=np.asarray(recs["mu2"]),
        delta=np.asarray(recs["delta"]), loglik=np.asarray(recs["loglik"]),
        dist_to_true=np.asarray(recs["dist"]), diverged=diverged,
        parameterization=parameterization,
    )


def sample_points(params: MixtureParams, n: int, seed: int) -> np.ndarray:
    """The one-shot draw that ``gmm.sample`` makes and ``fim._mc_moments`` slices:
    from one Philox generator, n uniforms pick the components by
    ``searchsorted`` on the cumulative weights, then n standard normals place
    the points, as the out-of-place formula mu + sig * z.
    """
    rng = make_rng(seed)
    comp = np.searchsorted(np.cumsum(params.weights), rng.random(n), side="right")
    comp = np.minimum(comp, params.n_components - 1)
    mu = np.asarray(params.means)[comp]
    sig = np.asarray(params.sigmas)[comp]
    return mu + sig * rng.standard_normal(n)


def filled_slices(params: MixtureParams, n: int, seed: int, size: int) -> list[np.ndarray]:
    """The n draws of ``sample(params, n, seed)`` as ``fim._mc_moments``
    draws them: consecutive slices of at most `size` points, each filled by
    ``gmm._fill_slice`` from the cursors of ``gmm._slice_streams``, with one
    scratch array reused from slice to slice."""
    streams = _slice_streams(params, n, seed, size)
    scratch = np.empty(2 * size)
    slices = []
    for start in range(0, n, size):
        z = np.empty(min(size, n - start))
        _fill_slice(z, *streams, scratch)
        slices.append(z)
    return slices


def one_shot_mc_fim(params: MixtureParams, coords: str, budget: int, seed: int):
    """Monte-Carlo FIM entries and standard errors from one (budget, k, k) tensor.

    The unchunked reference for ``fim_estimate``'s streamed draws and
    accumulation: the one-shot draw of ``sample_points`` and the same scores,
    then a mean and a ddof=1 std over axis 0, each symmetrized.
    """
    s = rowmajor_score_in_coords(params, sample_points(params, budget, seed), coords)
    outer = s[:, :, None] * s[:, None, :]
    mean = outer.mean(axis=0)
    se = outer.std(axis=0, ddof=1) / np.sqrt(budget)
    return 0.5 * (mean + mean.T), 0.5 * (se + se.T)


def quadrature_fim(params: MixtureParams, coords: str) -> np.ndarray:
    """``fim_estimate(params, coords, "quadrature").entries`` from the
    row-major scores, each component's copied to rows and transposed back,
    so that the einsum reads them with the strides of ``fim._score_slice``'s
    rows and sums in the same order."""
    nodes, wts = normal_quadrature(fim.QUADRATURE_NODES)
    acc = 0.0
    for pi, xs in component_nodes(params, nodes):
        s = np.ascontiguousarray(rowmajor_score_in_coords(params, xs, coords).T).T
        acc = acc + pi * np.einsum("n,ni,nj->ij", wts, s, s)
    return 0.5 * (acc + acc.T)


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


def concatenated_render(canvas: SvgCanvas) -> str:
    """``SvgCanvas.render`` as head + joined elements + tail, which copies
    the document twice more than one join."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{svgplot._fmt(canvas.width)}" height="{svgplot._fmt(canvas.height)}">\n'
    )
    return head + "\n".join(canvas.elements) + "\n</svg>\n"


def map_polyline_per_point(vp: Viewport, xs, ys):
    """Pixel coordinates of (xs, ys) as a list of tuples, mapped point by point."""
    return [(vp.px(float(x)), vp.py(float(y))) for x, y in zip(xs, ys)]


def quiver_per_arrow(canvas: SvgCanvas, vp: Viewport, xs, ys, us, vs):
    """``svgplot.draw_quiver`` arrow by arrow on numpy scalars: a shaft and
    two arrowhead strokes per vector of finite non-zero norm, three elements
    each, scaled by the largest such norm."""
    xs, ys, us, vs = (np.asarray(a, dtype=float).ravel() for a in (xs, ys, us, vs))
    norms = np.hypot(us, vs)
    drawn = [bool(np.isfinite(n) and n != 0) for n in norms]
    vmax = max((n for n, d in zip(norms, drawn) if d), default=1.0)
    pitch = min(vp.width, vp.height) / max(np.sqrt(norms.size), 1.0)
    for x, y, u, v, n, d in zip(xs, ys, us, vs, norms, drawn):
        if not d:
            continue
        frac = min(n / vmax, 1.0) * svgplot.ARROW_CAP
        length = frac * pitch
        dx, dy = u / n * length, -v / n * length
        px, py = vp.px(x), vp.py(y)
        line_per_stroke(canvas, px, py, px + dx, py + dy, stroke=svgplot.ARROW_STROKE)
        hx, hy = px + dx, py + dy
        ang = np.arctan2(dy, dx)
        for da in (+2.6, -2.6):
            line_per_stroke(canvas, hx, hy, hx + 0.3 * length * np.cos(ang + da),
                            hy + 0.3 * length * np.sin(ang + da), stroke=svgplot.ARROW_STROKE)


# The slow CSV path: one ``str`` per cell, row by row.

def rowwise_write_csv(path, header_cols: list[str], columns) -> None:
    """``experiments.write_csv`` cell by cell: each cell is ``str`` of the
    element ``.tolist()`` gives, with no value formatted once for many cells."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns of unequal length for {path.name}")
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(header_cols)]
    lines += [",".join(map(str, cells)) for cells in zip(*cols)]
    path.write_text("\n".join(lines) + "\n")


def subparser_build_parser() -> argparse.ArgumentParser:
    """``cli.build_parser`` with one subparser per kind, each with the same
    four options: the namespaces ``cli``'s one parser must reproduce."""
    parser = argparse.ArgumentParser(prog="relreparam")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", type=Path)
        p.add_argument("--out", type=Path)
        p.add_argument("--seed", type=int)
        p.add_argument("--print-defaults", action="store_true")
    return parser
