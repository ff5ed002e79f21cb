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

# e_step fuses log_likelihood and responsibilities_array into one pass, and
# no fit re-encodes its result with to_relative; all three stay importable
# from this module, where perfbench/tracer.py wraps them.
from .gmm import (Dataset, MixtureParams, MixtureError, checked_size, distances_to_truth,
                  log_component_densities, log_likelihood, log_weights,
                  responsibilities_and_log_density, responsibilities_array)
from .reparam import (RELATIVE_SPEC, RelativeParams, ReparamSpec, decoded_gaps,
                      to_absolute, to_relative)


class DegenerateComponentError(ValueError):
    """A component received (numerically) zero responsibility mass."""


@dataclass(frozen=True)
class Responsibilities:
    """Posterior assignment matrix gamma(z_nk), rows summing to one.

    Held component-major: ``gamma`` is the (N, K) transposed view of a
    C-contiguous (K, N) array, so ``gamma.T[k]`` is component k's contiguous
    row. ``loglik`` is the log-likelihood of the mixture an E-step computed
    gamma from, and None for a matrix handed in directly.

    A matrix handed in is validated once, here; ``e_step`` builds its result
    without re-checking its own log-sum-exp.
    """

    gamma: np.ndarray
    loglik: float | None = None

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2:
            raise MixtureError("gamma must be an N x K matrix")
        if np.any(g < -1e-12) or np.any(g > 1.0 + 1e-12):
            raise MixtureError("gamma entries must lie in [0, 1]")
        if np.max(np.abs(g.sum(axis=1) - 1.0)) > 1e-12:
            raise MixtureError("gamma rows must sum to 1")
        object.__setattr__(self, "gamma", np.ascontiguousarray(g.T).T)

    @classmethod
    def _from_rows(cls, rows: np.ndarray, loglik: float) -> "Responsibilities":
        """Wrap a C-contiguous (K, N) E-step result without validating it."""
        self = object.__new__(cls)
        object.__setattr__(self, "gamma", rows.T)
        object.__setattr__(self, "loglik", loglik)
        return self


@dataclass(frozen=True)
class ECMConfig:
    """Stopping rule for the fit loops.

    The rule |loglik_k - loglik_{k-1}| <= epsilon is absolute: the
    log-likelihood is a sum over the n points, so at a fixed epsilon the
    iteration count grows with n.
    """

    epsilon: float = 1e-8
    max_iters: int = 10000

    def __post_init__(self):
        if not self.epsilon > 0:  # NaN is refused too
            raise MixtureError("epsilon must be positive")
        object.__setattr__(self, "max_iters", checked_size(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise MixtureError("max_iters must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Final parameters, the per-iteration trajectory, and how the fit stopped.

    ``stop_reason`` is "converged" (the stop rule held) or "max_iters".
    ``kkt_active_steps`` counts the ECM gap steps that the constraint
    Delta >= 0 clamped to zero, and ``max_kkt_multiplier`` is the largest
    KKT multiplier among them; both are 0 for EM. For the fixed-weight
    equal-sigma 2-GMM the clamp cannot fire in exact arithmetic (gamma_2
    grows with x, so the gap step never goes below 0): on working code
    both read 0, and only rounding could make them otherwise.
    """

    params: MixtureParams
    trajectory_params: tuple[MixtureParams, ...]
    loglik: np.ndarray
    dist_to_true: np.ndarray
    iterations: int
    stop_reason: str
    algorithm: str
    kkt_active_steps: int = 0
    max_kkt_multiplier: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def e_step(params: MixtureParams, data: Dataset) -> Responsibilities:
    """gamma(z_nk) = pi_k N(x_n|mu_k, sigma_k) / sum_j ..., in log space.

    The same log-sum-exp pass gives the log-likelihood of params, kept as
    the result's ``loglik``.
    """
    rows, log_p = responsibilities_and_log_density(params, data.points)
    return Responsibilities._from_rows(rows, float(log_p.sum()))


def m_step_standard(gamma: Responsibilities, data: Dataset) -> MixtureParams:
    """Weighted-mean / weight-fraction / weighted-variance updates of every block.

    Sums run along each component's contiguous row (numpy's pairwise sum).
    """
    g = gamma.gamma.T
    xs = data.points
    nk = g.sum(axis=1)
    if np.any(nk <= 0):
        raise DegenerateComponentError("a component has zero responsibility mass")
    mu = (g * xs).sum(axis=1) / nk
    var = (g * (xs - mu[:, None]) ** 2).sum(axis=1) / nk
    sig = np.sqrt(np.maximum(var, 1e-300))
    return MixtureParams(weights=nk / len(xs), means=mu, sigmas=sig)


def _two_component_rows(gamma: Responsibilities) -> np.ndarray:
    g = gamma.gamma.T
    if g.shape[0] != 2:
        raise MixtureError("CM-steps are defined for the 2-component model")
    return g


def cm_step_reference_mean(gamma: Responsibilities, data: Dataset, delta: float) -> float:
    """Conditional maximizer of Q over mu1 with Delta fixed.

    Solves the stationarity condition
    sum_n (2 mu1 - 2 x_n) z_n1 + (2 Delta + 2 mu1 - 2 x_n) z_n2 = 0.
    """
    g1, g2 = _two_component_rows(gamma)
    xs = data.points
    n1, n2 = g1.sum(), g2.sum()
    if n1 + n2 <= 0:
        raise DegenerateComponentError("zero total responsibility")
    # numpy's pairwise sum, not a BLAS dot: the result (and so the pinned
    # ECM CSV) must not depend on which OpenBLAS kernel runs
    s1x = float((g1 * xs).sum())
    s2x = float((g2 * xs).sum())
    return (s1x + s2x - delta * n2) / (n1 + n2)


def cm_step_delta(gamma: Responsibilities, data: Dataset, mu1: float) -> tuple[float, float]:
    """Conditional maximizer of Q over Delta >= 0 with mu1 fixed.

    Returns (Delta, KKT multiplier). The unconstrained optimum is the
    responsibility-weighted mean of component 2 minus mu1; when negative the
    constraint is active, Delta = 0 and the multiplier turns positive.
    """
    _, g2 = _two_component_rows(gamma)
    xs = data.points
    n2 = g2.sum()
    if n2 <= 0:
        raise DegenerateComponentError("zero responsibility mass on component 2")
    delta_hat = float((g2 * xs).sum()) / n2 - mu1
    if delta_hat >= 0.0:
        return delta_hat, 0.0
    return 0.0, -2.0 * n2 * delta_hat


def q_function(params: MixtureParams, gamma: Responsibilities, data: Dataset) -> float:
    """Q(theta | gamma) = sum_nk gamma_nk [ln pi_k + ln N(x_n|mu_k, sigma_k)]."""
    logc = log_component_densities(params, data.points)
    return float(np.sum(gamma.gamma.T * (logc + log_weights(params.weights)[:, None])))


def _fit(data: Dataset, params: MixtureParams, step, config: ECMConfig,
         truth: MixtureParams | None, algorithm: str) -> FitResult:
    """Iterate params = step(gamma, params) from the initial mixture.

    Each iteration makes one density pass: the E-step of the current iterate,
    which also gives that iterate's log-likelihood. The loop records every
    iterate and its log-likelihood, and stops once the log-likelihood changes
    by at most config.epsilon or after max_iters steps.
    """
    traj = [params]
    gamma = e_step(params, data)
    lls = [gamma.loglik]
    stop_reason = "max_iters"
    iters = 0
    for iters in range(1, config.max_iters + 1):
        params = step(gamma, params)
        traj.append(params)
        gamma = e_step(params, data)
        lls.append(gamma.loglik)
        if abs(lls[-1] - lls[-2]) <= config.epsilon:
            stop_reason = "converged"
            break
    if truth is None:
        dist = np.full(len(traj), np.nan)
    else:
        dist = np.asarray(distances_to_truth((p.means for p in traj), truth.means))
    return FitResult(
        params=params, trajectory_params=tuple(traj),
        loglik=np.asarray(lls), dist_to_true=dist,
        iterations=iters, stop_reason=stop_reason, algorithm=algorithm,
    )


def fit_em_standard(data: Dataset, init: MixtureParams, config: ECMConfig,
                    truth: MixtureParams | None = None) -> FitResult:
    """Standard EM loop, updating the weights, means and sigmas."""
    return _fit(data, init, lambda gamma, params: m_step_standard(gamma, data),
                config, truth, "em")


def fit_ecm_relative(data: Dataset, init: RelativeParams, config: ECMConfig,
                     truth: MixtureParams | None = None,
                     spec: ReparamSpec = RELATIVE_SPEC) -> FitResult:
    """Relative-reparameterization ECM for the fixed-weight unit-variance 2-GMM.

    Loop: E-step, then CM over the reference mean, then CM over Delta (KKT
    projected). Delta >= 0 at every iterate. The reparameterization is set up
    once, from ``init`` ordered by mean; the weights and sigmas stay fixed at
    their values in ``init``. The KKT step projects onto Delta >= 0, so a spec
    with a positive clearance is refused.
    """
    if init.n_components != 2:
        raise MixtureError("relative ECM is defined for the 2-component model")
    if spec.ordering_coordinate != "mean":
        raise MixtureError("relative ECM needs a spec ordered by mean")
    if spec.clearance > 0:
        raise MixtureError("relative ECM needs a spec with zero clearance")
    # Delta is carried between iterations rather than re-read from the means:
    # (mu1 + Delta) - mu1 need not round back to Delta
    delta = float(decoded_gaps(init, spec)[0])
    multipliers = []

    def step(gamma, params):
        nonlocal delta
        mu1 = cm_step_reference_mean(gamma, data, delta)
        delta, lam = cm_step_delta(gamma, data, mu1)
        multipliers.append(lam)
        return MixtureParams(weights=params.weights, means=(mu1, mu1 + delta),
                             sigmas=params.sigmas)

    res = _fit(data, to_absolute(init, spec), step, config, truth, "ecm_relative")
    return replace(res, kkt_active_steps=sum(lam > 0.0 for lam in multipliers),
                   max_kkt_multiplier=max(multipliers, default=0.0))
