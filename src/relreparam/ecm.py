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
from .gmm import (Dataset, MixtureParams, MixtureError, _components_first, _log_normal,
                  _log_sum_exp_rows, _sigma_rows, checked_size, distances_to_truth,
                  log_component_densities, log_likelihood, log_weights, responsibilities_array)
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
        if not np.all(np.isfinite(g)):  # NaN would pass every comparison below
            raise MixtureError("gamma entries must be finite")
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


def _workspace(k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The buffers an E-step and an M- or CM-step run in: the (K, n)
    responsibility rows, a (K, n) scratch, and the n-vectors of the
    log-sum-exp's max and total."""
    return np.empty((k, n)), np.empty((k, n)), np.empty(n), np.empty(n)


def _e_step(params: MixtureParams, xs: np.ndarray, rows: np.ndarray, scratch: np.ndarray,
            amax: np.ndarray, total: np.ndarray) -> float:
    """The E-step of params at the dataset's points xs, in ``_workspace``'s
    buffers: gamma into `rows`, and its log-likelihood returned.

    One density pass, ``gmm.responsibilities_and_log_density``'s operations
    in its order: ln N_k into `rows` (``_log_normal``, `scratch` as its
    scratch), the log-sum-exp with `amax` and `total`, then ln p =
    ln(total) + amax into ``scratch[0]``, which has the bits of amax +
    ln(total) since IEEE addition commutes, and gamma = e / total. The
    points are not re-checked: a ``Dataset`` checked them once.
    """
    _log_normal(xs, _components_first(np.asarray(params.means), 1),
                _sigma_rows(params.sigmas, 1), out=rows, tmp=scratch)
    _log_sum_exp_rows(rows, params.weights, amax=amax, total=total)
    log_p = np.log(total, out=scratch[0])
    log_p += amax
    rows /= total
    return float(log_p.sum())


def e_step(params: MixtureParams, data: Dataset) -> Responsibilities:
    """gamma(z_nk) = pi_k N(x_n|mu_k, sigma_k) / sum_j ..., in log space.

    The same log-sum-exp pass gives the log-likelihood of params, kept as
    the result's ``loglik``. This is the fit's E-step, ``_e_step``, in
    buffers made for this call; a fit runs it in one workspace per fit, one
    pass per iteration, and does not re-check the points.
    """
    rows, *work = _workspace(params.n_components, data.n)
    return Responsibilities._from_rows(rows, _e_step(params, data.points, rows, *work))


def _m_step(g: np.ndarray, xs: np.ndarray, scratch: np.ndarray) -> MixtureParams:
    """``m_step_standard`` on the (K, n) rows g, with the (K, n) `scratch`
    holding g x and then g (x - mu)^2 in turn."""
    nk = g.sum(axis=1)
    if np.any(nk <= 0):
        raise DegenerateComponentError("a component has zero responsibility mass")
    mu = np.multiply(g, xs, out=scratch).sum(axis=1) / nk
    sq = np.square(np.subtract(xs, mu[:, None], out=scratch), out=scratch)
    sq *= g  # the bits of g (x - mu)^2: IEEE multiplication commutes
    var = sq.sum(axis=1) / nk
    sig = np.sqrt(np.maximum(var, 1e-300))
    return MixtureParams(weights=nk / len(xs), means=mu, sigmas=sig)


def m_step_standard(gamma: Responsibilities, data: Dataset) -> MixtureParams:
    """Weighted-mean / weight-fraction / weighted-variance updates of every block.

    Sums run along each component's contiguous row (numpy's pairwise sum).
    The fit's M-step, ``_m_step``, with a scratch made for this call.
    """
    g = gamma.gamma.T
    return _m_step(g, data.points, np.empty(g.shape))


def _two_component_rows(gamma: Responsibilities) -> np.ndarray:
    g = gamma.gamma.T
    if g.shape[0] != 2:
        raise MixtureError("CM-steps are defined for the 2-component model")
    return g


def _mass_and_moment(g: np.ndarray, xs: np.ndarray, buf: np.ndarray) -> tuple[float, float]:
    """sum_n g_n and sum_n g_n x_n of one responsibility row, with `buf`, as
    long as xs, holding the products. Both are numpy's pairwise sums, not a
    BLAS dot: the pinned ECM CSV must not depend on which OpenBLAS kernel
    runs."""
    return g.sum(), float(np.multiply(g, xs, out=buf).sum())


def _reference_mean(n1: float, s1x: float, n2: float, s2x: float, delta: float) -> float:
    """The CM-step over mu1 from the two components' masses and moments."""
    if n1 + n2 <= 0:
        raise DegenerateComponentError("zero total responsibility")
    return (s1x + s2x - delta * n2) / (n1 + n2)


def _gap_step(n2: float, s2x: float, mu1: float) -> tuple[float, float]:
    """The CM-step over Delta >= 0 from component 2's mass and moment:
    (Delta, KKT multiplier)."""
    if n2 <= 0:
        raise DegenerateComponentError("zero responsibility mass on component 2")
    delta_hat = s2x / n2 - mu1
    if delta_hat >= 0.0:
        return delta_hat, 0.0
    return 0.0, -2.0 * n2 * delta_hat


def cm_step_reference_mean(gamma: Responsibilities, data: Dataset, delta: float) -> float:
    """Conditional maximizer of Q over mu1 with Delta fixed.

    Solves the stationarity condition
    sum_n (2 mu1 - 2 x_n) z_n1 + (2 Delta + 2 mu1 - 2 x_n) z_n2 = 0.
    """
    g1, g2 = _two_component_rows(gamma)
    xs = data.points
    buf = np.empty(len(xs))
    return _reference_mean(*_mass_and_moment(g1, xs, buf), *_mass_and_moment(g2, xs, buf),
                           delta)


def cm_step_delta(gamma: Responsibilities, data: Dataset, mu1: float) -> tuple[float, float]:
    """Conditional maximizer of Q over Delta >= 0 with mu1 fixed.

    Returns (Delta, KKT multiplier). The unconstrained optimum is the
    responsibility-weighted mean of component 2 minus mu1; when negative the
    constraint is active, Delta = 0 and the multiplier turns positive.
    """
    _, g2 = _two_component_rows(gamma)
    xs = data.points
    return _gap_step(*_mass_and_moment(g2, xs, np.empty(len(xs))), mu1)


def q_function(params: MixtureParams, gamma: Responsibilities, data: Dataset) -> float:
    """Q(theta | gamma) = sum_nk gamma_nk [ln pi_k + ln N(x_n|mu_k, sigma_k)]."""
    logc = log_component_densities(params, data.points)
    return float(np.sum(gamma.gamma.T * (logc + log_weights(params.weights)[:, None])))


def _fit(data: Dataset, params: MixtureParams, step, config: ECMConfig,
         truth: MixtureParams | None, algorithm: str) -> FitResult:
    """Iterate params = step(params, rows, scratch) from the initial mixture.

    The fit runs in one ``_workspace``, made here: each iteration's E-step
    (``_e_step``) writes gamma into its rows, and `step`, the M- or CM-step,
    reads them with its (K, n) scratch, so nothing of the data's size is
    allocated per iteration. Each iteration makes one density pass, the
    E-step of the current iterate, which also gives that iterate's
    log-likelihood; the points, checked once by ``Dataset``, are not
    re-checked. The loop records every iterate and its log-likelihood, and
    stops once the log-likelihood changes by at most config.epsilon or after
    max_iters steps.
    """
    xs = data.points
    rows, *work = _workspace(params.n_components, len(xs))
    scratch = work[0]
    traj = [params]
    lls = [_e_step(params, xs, rows, *work)]
    stop_reason = "max_iters"
    iters = 0
    for iters in range(1, config.max_iters + 1):
        params = step(params, rows, scratch)
        traj.append(params)
        lls.append(_e_step(params, xs, rows, *work))
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
    return _fit(data, init, lambda params, rows, scratch: _m_step(rows, data.points, scratch),
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
    xs = data.points

    def step(params, rows, scratch):
        nonlocal delta
        # component 2's mass and moment serve both CM-steps
        n2, s2x = _mass_and_moment(rows[1], xs, scratch[0])
        mu1 = _reference_mean(*_mass_and_moment(rows[0], xs, scratch[0]), n2, s2x, delta)
        delta, lam = _gap_step(n2, s2x, mu1)
        multipliers.append(lam)
        return MixtureParams(weights=params.weights, means=(mu1, mu1 + delta),
                             sigmas=params.sigmas)

    res = _fit(data, to_absolute(init, spec), step, config, truth, "ecm_relative")
    return replace(res, kkt_active_steps=sum(lam > 0.0 for lam in multipliers),
                   max_kkt_multiplier=max(multipliers, default=0.0))
