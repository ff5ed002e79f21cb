"""Test-only oracles shared by more than one test module."""

import numpy as np

from relreparam.dynamics import UVWState, means_from_uvw
from relreparam.gmm import LOG_2PI, Dataset, MixtureParams, responsibilities_array


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
