"""Averaged gradient-descent dynamics of the unit-variance 2-GMM.

The model p(x) = v N(x|mu1,1) + (1-v) N(x|mu2,1) is analyzed in the
collective coordinates

    u = mu1 - mu2,   w = v*mu1 + (1-v)*mu2        (original)
    u' = Delta,      w' = v*mu1 + (1-v)*(mu1+Delta) (relative, mu2 = mu1+Delta)

The expected velocity of (v, u, w) under gradient flow on (v, mu1, mu2) is
eta * J J^T * E[grad of the log-density in the collective coordinates], with
J the coordinate-change Jacobian. The bracketed expectations are cubic
polynomials in x (series around the u = 0 singularity), so the expectation
over the true mixture reduces exactly to its raw moments up to order 3.

The relative-coordinate Jacobian is derived here from the coordinate map
itself (and cross-checked against finite differences in the tests, which
also measure its discrepancy against the transcription variant, not a valid
Gram matrix).

The velocity functions take (u, w) or (mu1, mu2) as floats or as same-shape
arrays, so one code path serves a grid cell, a whole grid and a GD step. They
use only elementwise +, -, * and / (cubes are written as products, the 3x3
Gram products as sums left to right): no BLAS call and no numpy `power`, so
a grid evaluated in one call has the bits of its cells evaluated one by one,
under any OpenBLAS kernel and any numpy SIMD dispatch level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import (Dataset, MixtureParams, MixtureError, log_likelihood, mean_distance,
                  mixture_moments, normal_quadrature, score_means)

PARAMETERIZATIONS = ("original", "relative")
GRADIENT_SOURCES = ("expected", "empirical")


@dataclass(frozen=True)
class TrueModel:
    """Data-generating unit-variance 2-GMM."""

    params: MixtureParams

    def __post_init__(self):
        if any(abs(s - 1.0) > 1e-12 for s in self.params.sigmas):
            raise MixtureError("dynamics analysis assumes unit variances")

    @classmethod
    def from_means(cls, mu1: float, mu2: float, v: float = 0.5) -> "TrueModel":
        return cls(MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0)))


@dataclass(frozen=True)
class UVWState:
    """Point in collective coordinates; u holds Delta in relative mode.

    u and w may be floats or same-shape arrays (a grid of points at one v).
    """

    v: float
    u: float
    w: float
    parameterization: str = "original"  # original | relative

    def __post_init__(self):
        if not 0.0 < self.v < 1.0:
            raise MixtureError("v must lie strictly inside (0, 1)")
        _check_parameterization(self.parameterization)
        if self.parameterization == "relative" and np.less(self.u, 0).any():
            raise MixtureError("relative coordinate Delta must be >= 0")


def _check_parameterization(parameterization: str) -> None:
    if parameterization not in PARAMETERIZATIONS:
        raise MixtureError("parameterization must be 'original' or 'relative'")


def uvw_from_means(v: float, mu1: float, mu2: float) -> UVWState:
    return UVWState(v=v, u=mu1 - mu2, w=v * mu1 + (1.0 - v) * mu2)


def means_from_uvw(state: UVWState) -> tuple[float, float]:
    v, u, w = state.v, state.u, state.w
    if state.parameterization == "original":
        return w + (1.0 - v) * u, w - v * u
    # relative: w' = mu1 + (1-v)*Delta, mu2 = mu1 + Delta
    mu1 = w - (1.0 - v) * u
    return mu1, mu1 + u


def _centered_moments(true: TrueModel, w) -> tuple[float, float, float]:
    """E[(x-w)^m], m = 1..3, over the true mixture."""
    mom = mixture_moments(true.params)
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = mom[1] - w
        m2 = mom[2] - 2.0 * w * mom[1] + w * w
        m3 = mom[3] - 3.0 * w * mom[2] + 3.0 * w * w * mom[1] - w * w * w
    return m1, m2, m3


def base_partials(state: UVWState, true: TrueModel) -> tuple[float, float, float]:
    """Expected partials of the log-density in (v, u, w), series around u = 0.

    Every monomial x^m (m <= 3) in the bracketed integrands is replaced by the
    true-mixture raw moment, which is exact since the integrands are cubic.
    """
    if state.parameterization != "original":
        raise MixtureError("base_partials expects original coordinates")
    v, u, w = state.v, state.u, state.w
    m1, m2, m3 = _centered_moments(true, w)
    ea = m2 - 1.0                    # E[(x-w)^2 - 1]
    ec = m3 - 3.0 * m1               # E[(x-w)^3 - 3(x-w)]
    eb = -ec
    c1 = 6.0 * v * v - 6.0 * v + 1.0
    c2 = v * (2.0 * v * v - 3.0 * v + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u3 = u * u * u
        e_v = -0.5 * u * u * (2.0 * v - 1.0) * ea - 0.5 * u3 * c1 * eb
        e_u = u * v * (1.0 - v) * ea + 1.5 * u * u * c2 * ec
        e_w = m1 * (1.0 - u * u * v * (1.0 - v)) - 1.5 * u3 * c2 * ea
    return e_v, e_u, e_w


def _gram(jac: list) -> list:
    """J J^T for a 3x3 J given as rows, each entry summed left to right."""
    return [[a[0] * b[0] + a[1] * b[1] + a[2] * b[2] for b in jac] for a in jac]


def _gram_times(gram: list, grad, eta: float) -> tuple[float, float, float]:
    """eta * gram @ grad, each row summed left to right."""
    g0, g1, g2 = grad
    return tuple(eta * r[0] * g0 + eta * r[1] * g1 + eta * r[2] * g2 for r in gram)


def _original_jacobian(state: UVWState) -> list:
    """J = d(v,u,w)/d(v,mu1,mu2) as rows."""
    v, u = state.v, state.u
    return [[1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0],
            [u, v, 1.0 - v]]


def _relative_jacobian(v: float, delta) -> list:
    """relative_jacobian as rows."""
    return [[1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [-delta, 1.0, 1.0 - v]]


def original_gram(state: UVWState) -> np.ndarray:
    """J J^T for J = d(v,u,w)/d(v,mu1,mu2)."""
    return np.array(_gram(_original_jacobian(state)))


def relative_jacobian(v: float, delta: float) -> np.ndarray:
    """J' = d(v, Delta, w')/d(v, mu1, Delta) with w' = mu1 + (1-v)*Delta."""
    return np.array(_relative_jacobian(v, delta))


def relative_gram(v: float, delta: float) -> np.ndarray:
    return np.array(_gram(_relative_jacobian(v, delta)))


def expected_velocity_original(state: UVWState, true: TrueModel, eta: float = 1.0):
    """(dv/dt, du/dt, dw/dt) = eta * J J^T * expected base partials."""
    if state.parameterization != "original":
        raise MixtureError("expected_velocity_original needs original coordinates")
    return _gram_times(_gram(_original_jacobian(state)), base_partials(state, true), eta)


def expected_velocity_relative(state: UVWState, true: TrueModel, eta: float = 1.0):
    """(dv/dt, dDelta/dt, dw'/dt) under the relative parameterization.

    Base partials are evaluated at u = -Delta, w = w' (since u = mu1 - mu2 =
    -Delta when mu2 = mu1 + Delta); the u-partial flips sign as dDelta = -du.
    """
    if state.parameterization != "relative":
        raise MixtureError("expected_velocity_relative needs relative coordinates")
    v, delta, w = state.v, state.u, state.w
    e_v, e_u, e_w = base_partials(UVWState(v=v, u=-delta, w=w), true)
    return _gram_times(_gram(_relative_jacobian(v, delta)), (e_v, -e_u, e_w), eta)


@dataclass(frozen=True)
class FlowField:
    """Expected-velocity field on a (mu1, mu2) grid, mapped back from collective coords."""

    mu1_axis: np.ndarray
    mu2_axis: np.ndarray
    dmu1: np.ndarray  # shape (len(mu2_axis), len(mu1_axis))
    dmu2: np.ndarray
    reflected: np.ndarray
    parameterization: str
    v: float
    eta: float
    true_model: TrueModel


def _axis(spec) -> np.ndarray:
    lo, hi, step = spec
    if not (0.0 < step < np.inf and 0.0 <= hi - lo < np.inf):
        raise MixtureError("axis spec needs finite bounds, step > 0 and max >= min")
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def _relative_velocity(v: float, lo, hi, true: TrueModel, eta: float):
    """Velocities (dlo, dDelta, dhi) of sorted means lo <= hi, v held fixed."""
    state = UVWState(v=v, u=hi - lo, w=v * lo + (1.0 - v) * hi, parameterization="relative")
    _, ddelta, dwp = expected_velocity_relative(state, true, eta)
    return dwp - (1.0 - v) * ddelta, ddelta, dwp + v * ddelta


def velocity_in_means(v: float, mu1: float, mu2: float, true: TrueModel,
                      parameterization: str, eta: float = 1.0):
    """Expected velocity (dmu1, dmu2, reflected) at a point, v held fixed.

    mu1 and mu2 may be floats or same-shape arrays. Relative mode sorts the
    means first (canonical ordering) and reports whether each point was
    reflected across the diagonal.
    """
    _check_parameterization(parameterization)
    if parameterization == "original":
        _, du, dw = expected_velocity_original(uvw_from_means(v, mu1, mu2), true, eta)
        return dw + (1.0 - v) * du, dw - v * du, np.zeros(np.shape(du), dtype=bool)[()]
    reflected = np.less(mu2, mu1)
    dlo, _, dhi = _relative_velocity(v, np.minimum(mu1, mu2), np.maximum(mu1, mu2), true, eta)
    return np.where(reflected, dhi, dlo)[()], np.where(reflected, dlo, dhi)[()], reflected


def flow_field(mu1_spec, mu2_spec, v: float, true: TrueModel,
               parameterization: str = "original", eta: float = 1.0) -> FlowField:
    """Evaluate the expected-velocity field on the grid of (mu1, mu2) cells."""
    if not 0.0 < v < 1.0:
        raise MixtureError("v must lie in (0, 1)")
    ax1, ax2 = _axis(mu1_spec), _axis(mu2_spec)
    dmu1, dmu2, refl = velocity_in_means(v, *np.meshgrid(ax1, ax2), true, parameterization, eta)
    return FlowField(mu1_axis=ax1, mu2_axis=ax2, dmu1=dmu1, dmu2=dmu2,
                     reflected=refl, parameterization=parameterization, v=v,
                     eta=eta, true_model=true)


@dataclass(frozen=True)
class Trajectory:
    """Recorded optimization path with likelihood and parameter-distance series."""

    mu1: np.ndarray
    mu2: np.ndarray
    delta: np.ndarray
    loglik: np.ndarray
    dist_to_true: np.ndarray
    diverged: bool
    parameterization: str

    @property
    def n_steps(self) -> int:
        return len(self.mu1) - 1


def _expected_loglik(params: MixtureParams, true: TrueModel, nodes_weights) -> float:
    """E_true[ln p(x | params)] per point, via Gauss-Hermite over each true component."""
    nodes, wts = nodes_weights
    from .gmm import log_density

    total = 0.0
    for pi, mu, sig in zip(true.params.weights, true.params.means, true.params.sigmas):
        total += pi * float(np.sum(wts * log_density(params, mu + sig * nodes)))
    return total


def integrate_gd(init_means: tuple[float, float], true, eta: float, steps: int,
                 parameterization: str = "original",
                 gradient_source: str = "expected", v: float = 0.5) -> Trajectory:
    """Explicit Euler on the means with pi = v and unit sigmas held fixed.

    gradient_source 'expected' uses the closed-form expected velocities and
    needs a TrueModel; 'empirical' uses the sample-average score over a
    Dataset. Relative mode keeps Delta >= 0 at every step.
    """
    _check_parameterization(parameterization)
    if eta <= 0:
        raise MixtureError("eta must be positive")
    if steps < 1:
        raise MixtureError("need at least one step")
    if gradient_source not in GRADIENT_SOURCES:
        raise MixtureError(f"gradient_source must be one of {GRADIENT_SOURCES}")
    if gradient_source == "expected" and not isinstance(true, TrueModel):
        raise MixtureError("expected mode needs a TrueModel")
    if gradient_source == "empirical" and not isinstance(true, Dataset):
        raise MixtureError("empirical mode needs a Dataset")

    if gradient_source == "expected":
        nodes_weights = normal_quadrature(101)
    else:
        xs = true.as_array()

    mu1, mu2 = float(init_means[0]), float(init_means[1])
    recs = {k: [] for k in ("mu1", "mu2", "delta", "loglik", "dist")}
    diverged = False

    def record(m1, m2):
        params = MixtureParams(weights=(v, 1.0 - v), means=(m1, m2), sigmas=(1.0, 1.0))
        recs["mu1"].append(m1)
        recs["mu2"].append(m2)
        recs["delta"].append(abs(m2 - m1))
        if gradient_source == "expected":
            recs["loglik"].append(_expected_loglik(params, true, nodes_weights))
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
                g = np.mean(score_means(params, xs), axis=0)
                d1, d2 = eta * g[0], eta * g[1]
            mu1, mu2 = mu1 + d1, mu2 + d2
        else:
            lo, hi = min(mu1, mu2), max(mu1, mu2)
            delta = hi - lo
            if gradient_source == "expected":
                dlo, ddelta, _ = _relative_velocity(v, lo, hi, true, eta)
            else:
                params = MixtureParams(weights=(v, 1.0 - v), means=(lo, hi), sigmas=(1.0, 1.0))
                g = np.mean(score_means(params, xs), axis=0)
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
