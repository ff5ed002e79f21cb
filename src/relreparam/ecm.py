"""EM for K-component GMMs and the constrained relative-reparameterization ECM.

The ECM variant targets the fixed-weight, unit-variance 2-GMM written as
p(x) = 0.5 N(x|mu1, 1) + 0.5 N(x|mu1 + Delta, 1) and alternates two
conditional maximizations after each E-step: the reference mean mu1 (Delta
fixed) and the gap Delta (mu1 fixed), the latter projected onto Delta >= 0
via its exact KKT solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gmm import (Dataset, MixtureParams, MixtureError, log_likelihood,
                  log_component_densities, mean_distance, responsibilities_array)
from .reparam import (RelativeParams, ReparamSpec, decoded_gaps, to_absolute,
                      to_relative)


class DegenerateComponentError(ValueError):
    """A component received (numerically) zero responsibility mass."""


@dataclass(frozen=True)
class Responsibilities:
    """Posterior assignment matrix gamma(z_nk), rows summing to one."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise MixtureError("gamma must be an N x K matrix")
        if np.any(g < -1e-12) or np.any(g > 1.0 + 1e-12):
            raise MixtureError("gamma entries must lie in [0, 1]")
        if np.max(np.abs(g.sum(axis=1) - 1.0)) > 1e-12:
            raise MixtureError("gamma rows must sum to 1")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class ECMConfig:
    """Stopping rule and frozen blocks for the fit loops."""

    epsilon: float = 1e-8
    max_iters: int = 10000
    fix_weights: bool = True
    fix_sigmas: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise MixtureError("epsilon must be positive")
        if self.max_iters < 1:
            raise MixtureError("max_iters must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Final parameters plus the per-iteration trajectory of the fit."""

    params: MixtureParams
    relative: RelativeParams | None
    trajectory_params: tuple[MixtureParams, ...]
    loglik: np.ndarray
    dist_to_true: np.ndarray
    iterations: int
    converged: bool
    algorithm: str


def e_step(params: MixtureParams, data: Dataset) -> Responsibilities:
    """gamma(z_nk) = pi_k N(x_n|mu_k, sigma_k) / sum_j ..., in log space."""
    return Responsibilities(gamma=responsibilities_array(params, data.as_array()))


def m_step_standard(gamma: Responsibilities, data: Dataset,
                    old: MixtureParams | None = None,
                    config: ECMConfig | None = None) -> MixtureParams:
    """Weighted-mean / weight-fraction / weighted-variance updates.

    Blocks frozen via config keep their values from `old`.
    """
    g = gamma.gamma
    xs = data.as_array()
    nk = g.sum(axis=0)
    if np.any(nk <= 0):
        raise DegenerateComponentError("a component has zero responsibility mass")
    mu = (g * xs[:, None]).sum(axis=0) / nk
    config = config or ECMConfig(fix_weights=False, fix_sigmas=False)
    if config.fix_weights and old is not None:
        pi = np.asarray(old.weights)
    else:
        pi = nk / len(xs)
    if config.fix_sigmas and old is not None:
        sig = np.asarray(old.sigmas)
    else:
        var = (g * (xs[:, None] - mu) ** 2).sum(axis=0) / nk
        sig = np.sqrt(np.maximum(var, 1e-300))
    return MixtureParams(weights=tuple(pi), means=tuple(mu), sigmas=tuple(sig))


def cm_step_reference_mean(gamma: Responsibilities, data: Dataset, delta: float) -> float:
    """Conditional maximizer of Q over mu1 with Delta fixed.

    Solves the stationarity condition
    sum_n (2 mu1 - 2 x_n) z_n1 + (2 Delta + 2 mu1 - 2 x_n) z_n2 = 0.
    """
    g = gamma.gamma
    if g.shape[1] != 2:
        raise MixtureError("CM-steps are defined for the 2-component model")
    xs = data.as_array()
    n1, n2 = g[:, 0].sum(), g[:, 1].sum()
    if n1 + n2 <= 0:
        raise DegenerateComponentError("zero total responsibility")
    # numpy's pairwise sum, not a BLAS dot: the result (and so the pinned
    # ECM CSV) must not depend on which OpenBLAS kernel runs
    s1x = float(np.sum(g[:, 0] * xs))
    s2x = float(np.sum(g[:, 1] * xs))
    return (s1x + s2x - delta * n2) / (n1 + n2)


def cm_step_delta(gamma: Responsibilities, data: Dataset, mu1: float) -> tuple[float, float]:
    """Conditional maximizer of Q over Delta >= 0 with mu1 fixed.

    Returns (Delta, KKT multiplier). The unconstrained optimum is the
    responsibility-weighted mean of component 2 minus mu1; when negative the
    constraint is active, Delta = 0 and the multiplier turns positive.
    """
    g = gamma.gamma
    if g.shape[1] != 2:
        raise MixtureError("CM-steps are defined for the 2-component model")
    xs = data.as_array()
    n2 = g[:, 1].sum()
    if n2 <= 0:
        raise DegenerateComponentError("zero responsibility mass on component 2")
    delta_hat = float(np.sum(g[:, 1] * xs)) / n2 - mu1
    if delta_hat >= 0.0:
        return delta_hat, 0.0
    return 0.0, -2.0 * n2 * delta_hat


def q_function(params: MixtureParams, gamma: Responsibilities, data: Dataset) -> float:
    """Q(theta | gamma) = sum_nk gamma_nk [ln pi_k + ln N(x_n|mu_k, sigma_k)]."""
    g = gamma.gamma
    xs = data.as_array()
    logc = log_component_densities(params, xs)
    logw = np.log(np.asarray(params.weights) + np.finfo(float).tiny)
    return float(np.sum(g * (logc + logw)))


def _fit(data: Dataset, params: MixtureParams, step, config: ECMConfig,
         truth: MixtureParams | None, algorithm: str) -> FitResult:
    """Iterate params = step(params) from the initial mixture.

    Records every iterate and its log-likelihood, and stops once the
    log-likelihood changes by at most config.epsilon or after max_iters steps.
    """
    traj = [params]
    lls = [log_likelihood(params, data)]
    converged = False
    iters = 0
    for iters in range(1, config.max_iters + 1):
        params = step(params)
        traj.append(params)
        lls.append(log_likelihood(params, data))
        if abs(lls[-1] - lls[-2]) <= config.epsilon:
            converged = True
            break
    if truth is None:
        dist = np.full(len(traj), np.nan)
    else:
        dist = np.asarray([mean_distance(p, truth) for p in traj])
    return FitResult(
        params=params, relative=None, trajectory_params=tuple(traj),
        loglik=np.asarray(lls), dist_to_true=dist,
        iterations=iters, converged=converged, algorithm=algorithm,
    )


def fit_em_standard(data: Dataset, init: MixtureParams, config: ECMConfig,
                    truth: MixtureParams | None = None) -> FitResult:
    """Standard EM loop; blocks frozen per config keep their init values."""
    def step(params):
        return m_step_standard(e_step(params, data), data, old=params, config=config)

    return _fit(data, init, step, config, truth, "em")


def fit_ecm_relative(data: Dataset, init: RelativeParams, config: ECMConfig,
                     truth: MixtureParams | None = None,
                     spec: ReparamSpec | None = None) -> FitResult:
    """Relative-reparameterization ECM for the fixed-weight unit-variance 2-GMM.

    Loop: E-step, then CM over the reference mean, then CM over Delta (KKT
    projected). Delta >= 0 at every iterate. The reparameterization is set up
    once; trajectories are recorded in both coordinate systems.
    """
    spec = spec or ReparamSpec(delta_encoding="raw_constrained")
    if init.n_components != 2:
        raise MixtureError("relative ECM is defined for the 2-component model")
    # Delta is carried between iterations rather than re-read from the means:
    # (mu1 + Delta) - mu1 need not round back to Delta
    delta = float(decoded_gaps(init, spec)[0])

    def step(params):
        nonlocal delta
        gamma = e_step(params, data)
        mu1 = cm_step_reference_mean(gamma, data, delta)
        delta, _ = cm_step_delta(gamma, data, mu1)
        return MixtureParams(weights=params.weights, means=(mu1, mu1 + delta),
                             sigmas=params.sigmas)

    res = _fit(data, to_absolute(init, spec), step, config, truth, "ecm_relative")
    return replace(res, relative=to_relative(
        res.params, ReparamSpec(delta_encoding="raw_constrained")))
