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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import (Dataset, MixtureParams, MixtureError, log_likelihood, mean_distance,
                  mixture_moments, normal_quadrature, score_means)


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
    """Point in collective coordinates; u holds Delta in relative mode."""

    v: float
    u: float
    w: float
    parameterization: str = "original"  # original | relative

    def __post_init__(self):
        if not 0.0 < self.v < 1.0:
            raise MixtureError("v must lie strictly inside (0, 1)")
        if self.parameterization not in ("original", "relative"):
            raise MixtureError("parameterization must be 'original' or 'relative'")
        if self.parameterization == "relative" and self.u < 0:
            raise MixtureError("relative coordinate Delta must be >= 0")


def uvw_from_means(v: float, mu1: float, mu2: float) -> UVWState:
    return UVWState(v=v, u=mu1 - mu2, w=v * mu1 + (1.0 - v) * mu2)


def means_from_uvw(state: UVWState) -> tuple[float, float]:
    v, u, w = state.v, state.u, state.w
    if state.parameterization == "original":
        return w + (1.0 - v) * u, w - v * u
    # relative: w' = mu1 + (1-v)*Delta, mu2 = mu1 + Delta
    mu1 = w - (1.0 - v) * u
    return mu1, mu1 + u


def _centered_moments(true: TrueModel, w: float) -> tuple[float, float, float]:
    """E[(x-w)^m], m = 1..3, over the true mixture."""
    w = np.float64(w)  # overflow to inf instead of raising, for divergence detection
    mom = mixture_moments(true.params)
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = mom[1] - w
        m2 = mom[2] - 2.0 * w * mom[1] + w * w
        m3 = mom[3] - 3.0 * w * mom[2] + 3.0 * w * w * mom[1] - w ** 3
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
    with np.errstate(invalid="ignore"):
        e_v = -0.5 * u * u * (2.0 * v - 1.0) * ea - 0.5 * u ** 3 * c1 * eb
        e_u = u * v * (1.0 - v) * ea + 1.5 * u * u * c2 * ec
        e_w = m1 * (1.0 - u * u * v * (1.0 - v)) - 1.5 * u ** 3 * c2 * ea
    return e_v, e_u, e_w


def _gram(jac: list) -> list:
    """J J^T for a 3x3 J given as rows, each entry summed left to right.

    Neither this nor _gram_times calls BLAS: the field CSV must not depend on
    which OpenBLAS kernel runs.
    """
    return [[a[0] * b[0] + a[1] * b[1] + a[2] * b[2] for b in jac] for a in jac]


def _gram_times(gram: list, grad, eta: float) -> tuple[float, float, float]:
    """eta * gram @ grad, each row summed left to right in plain floats."""
    g0, g1, g2 = (float(x) for x in grad)
    return tuple(eta * r[0] * g0 + eta * r[1] * g1 + eta * r[2] * g2 for r in gram)


def _original_jacobian(state: UVWState) -> list:
    """J = d(v,u,w)/d(v,mu1,mu2) as rows."""
    v, u = state.v, state.u
    return [[1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0],
            [u, v, 1.0 - v]]


def original_gram(state: UVWState) -> np.ndarray:
    """J J^T for J = d(v,u,w)/d(v,mu1,mu2)."""
    return np.array(_gram(_original_jacobian(state)))


def relative_jacobian(v: float, delta: float) -> np.ndarray:
    """J' = d(v, Delta, w')/d(v, mu1, Delta) with w' = mu1 + (1-v)*Delta."""
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [-delta, 1.0, 1.0 - v]])


def relative_gram(v: float, delta: float) -> np.ndarray:
    return np.array(_gram(relative_jacobian(v, delta).tolist()))


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
    base = UVWState(v=v, u=-delta, w=w)
    e_v, e_u, e_w = base_partials(base, true)
    gram = _gram(relative_jacobian(v, delta).tolist())
    return _gram_times(gram, (e_v, -e_u, e_w), eta)


def exact_partials_per_sample(state: UVWState, xs: np.ndarray) -> np.ndarray:
    """Per-sample exact chain-rule partials of the log-density, shape (n, 3).

    Columns are d/d(v, u, w) in original mode and d/d(v, Delta, w') in
    relative mode. This is the independent route used by the Monte-Carlo
    oracle; it never touches the series expressions above.
    """
    v = state.v
    mu1, mu2 = means_from_uvw(state)
    params = MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0))
    from .gmm import responsibilities_array

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
    if step <= 0 or hi < lo:
        raise MixtureError("axis spec needs step > 0 and max >= min")
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def velocity_in_means(v: float, mu1: float, mu2: float, true: TrueModel,
                      parameterization: str, eta: float = 1.0):
    """Expected velocity of (mu1, mu2) at a point, v held fixed.

    Relative mode sorts the means first (canonical ordering) and reports
    whether the point was reflected across the diagonal.
    """
    if parameterization == "original":
        state = uvw_from_means(v, mu1, mu2)
        _, du, dw = expected_velocity_original(state, true, eta)
        return dw + (1.0 - v) * du, dw - v * du, False
    reflected = mu2 < mu1
    lo, hi = (mu2, mu1) if reflected else (mu1, mu2)
    delta = hi - lo
    wprime = v * lo + (1.0 - v) * hi
    state = UVWState(v=v, u=delta, w=wprime, parameterization="relative")
    _, ddelta, dwp = expected_velocity_relative(state, true, eta)
    dlo = dwp - (1.0 - v) * ddelta
    dhi = dwp + v * ddelta
    if reflected:
        return dhi, dlo, True
    return dlo, dhi, False


def flow_field(mu1_spec, mu2_spec, v: float, true: TrueModel,
               parameterization: str = "original", eta: float = 1.0) -> FlowField:
    """Evaluate the expected-velocity field on the grid of (mu1, mu2) cells."""
    if not 0.0 < v < 1.0:
        raise MixtureError("v must lie in (0, 1)")
    ax1, ax2 = _axis(mu1_spec), _axis(mu2_spec)
    if ax1.size == 0 or ax2.size == 0:
        raise MixtureError("empty grid")
    dmu1 = np.zeros((ax2.size, ax1.size))
    dmu2 = np.zeros_like(dmu1)
    refl = np.zeros_like(dmu1, dtype=bool)
    for i, m2 in enumerate(ax2):
        for j, m1 in enumerate(ax1):
            d1, d2, r = velocity_in_means(v, float(m1), float(m2), true, parameterization, eta)
            dmu1[i, j], dmu2[i, j], refl[i, j] = d1, d2, r
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
    if eta <= 0:
        raise MixtureError("eta must be positive")
    if steps < 1:
        raise MixtureError("need at least one step")
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
                wprime = v * lo + (1.0 - v) * hi
                state = UVWState(v=v, u=delta, w=wprime, parameterization="relative")
                _, ddelta, dwp = expected_velocity_relative(state, true, eta)
                dlo = dwp - (1.0 - v) * ddelta
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
