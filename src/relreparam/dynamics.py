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

One private chain on plain (v, u, w) floats or same-shape arrays serves a
grid cell, a whole grid and a GD step. It checks nothing: the public entry
points check their arguments (through UVWState) and silence numpy's
floating-point warnings once per call, and integrate_gd once before its
loop. The chain uses only elementwise +, -, * and / (cubes are written as
products, the 3x3 Gram products as sums left to right): no BLAS call and no
numpy `power`, so a grid evaluated in one call has the bits of its cells
evaluated one by one, under any OpenBLAS kernel and any numpy SIMD dispatch
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The empirical step scores through _score_rows, not score_means; that name
# stays importable from this module, where perfbench/tracer.py wraps it.
from .gmm import (Dataset, MixtureParams, MixtureError, _score_rows, checked_size,
                  component_nodes, distances_to_truth, log_density_means, log_likelihood,
                  mixture_moments, normal_quadrature, score_means, unit_variance_pair)

PARAMETERIZATIONS = ("original", "relative")


@dataclass(frozen=True)
class TrueModel:
    """Data-generating unit-variance 2-GMM."""

    params: MixtureParams

    def __post_init__(self):
        if any(abs(s - 1.0) > 1e-12 for s in self.params.sigmas):
            raise MixtureError("dynamics analysis assumes unit variances")

    @classmethod
    def from_means(cls, mu1: float, mu2: float, v: float = 0.5) -> "TrueModel":
        return cls(unit_variance_pair(mu1, mu2, v))

    @cached_property
    def raw_moments(self) -> tuple[float, float, float, float]:
        """E[x^0..x^3] of the true mixture, computed on first use."""
        return mixture_moments(self.params)


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
        _check_v(self.v)
        _check_parameterization(self.parameterization)
        if self.parameterization == "relative" and np.less(self.u, 0).any():
            raise MixtureError("relative coordinate Delta must be >= 0")


def _check_v(v: float) -> None:
    if not 0.0 < v < 1.0:
        raise MixtureError("v must lie strictly inside (0, 1)")


def _check_parameterization(parameterization: str) -> None:
    if parameterization not in PARAMETERIZATIONS:
        raise MixtureError("parameterization must be 'original' or 'relative'")


# The private chain: no check and no np.errstate (see the module docstring).

def _partials(v, u, w, mom) -> tuple[float, float, float]:
    """base_partials at (v, u, w), from the raw moments E[x^0..x^3]."""
    m1 = mom[1] - w                  # E[(x-w)^m], m = 1..3
    m2 = mom[2] - 2.0 * w * mom[1] + w * w
    m3 = mom[3] - 3.0 * w * mom[2] + 3.0 * w * w * mom[1] - w * w * w
    ea = m2 - 1.0                    # E[(x-w)^2 - 1]
    ec = m3 - 3.0 * m1               # E[(x-w)^3 - 3(x-w)]
    eb = -ec
    c1 = 6.0 * v * v - 6.0 * v + 1.0
    c2 = v * (2.0 * v * v - 3.0 * v + 1.0)
    u3 = u * u * u
    e_v = -0.5 * u * u * (2.0 * v - 1.0) * ea - 0.5 * u3 * c1 * eb
    e_u = u * v * (1.0 - v) * ea + 1.5 * u * u * c2 * ec
    e_w = m1 * (1.0 - u * u * v * (1.0 - v)) - 1.5 * u3 * c2 * ea
    return e_v, e_u, e_w


def _gram_times(jac, grad, eta: float) -> tuple[float, float, float]:
    """eta * J J^T @ grad for a 3x3 J given as rows: each entry of J J^T and
    each row of the product summed left to right."""
    gram = [[a[0] * b[0] + a[1] * b[1] + a[2] * b[2] for b in jac] for a in jac]
    g0, g1, g2 = grad
    return tuple(eta * r[0] * g0 + eta * r[1] * g1 + eta * r[2] * g2 for r in gram)


def _velocity_original(v, u, w, mom, eta: float):
    """(dv, du, dw), with J = d(v,u,w)/d(v,mu1,mu2)."""
    jac = ((1.0, 0.0, 0.0),
           (0.0, 1.0, -1.0),
           (u, v, 1.0 - v))
    return _gram_times(jac, _partials(v, u, w, mom), eta)


def _velocity_relative(v, delta, w, mom, eta: float):
    """(dv, dDelta, dw'), with J' = d(v,Delta,w')/d(v,mu1,Delta), w' = mu1 + (1-v)*Delta.

    The base partials are taken at u = -Delta (u = mu1 - mu2 = -Delta when
    mu2 = mu1 + Delta); the u-partial flips sign as dDelta = -du.
    """
    e_v, e_u, e_w = _partials(v, -delta, w, mom)
    jac = ((1.0, 0.0, 0.0),
           (0.0, 0.0, 1.0),
           (-delta, 1.0, 1.0 - v))
    return _gram_times(jac, (e_v, -e_u, e_w), eta)


def base_partials(state: UVWState, true: TrueModel) -> tuple[float, float, float]:
    """Expected partials of the log-density in (v, u, w), series around u = 0.

    Every monomial x^m (m <= 3) in the bracketed integrands is replaced by the
    true-mixture raw moment, which is exact since the integrands are cubic.
    """
    if state.parameterization != "original":
        raise MixtureError("base_partials expects original coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        return _partials(state.v, state.u, state.w, true.raw_moments)


def expected_velocity_original(state: UVWState, true: TrueModel, eta: float = 1.0):
    """(dv/dt, du/dt, dw/dt) = eta * J J^T * expected base partials."""
    if state.parameterization != "original":
        raise MixtureError("expected_velocity_original needs original coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        return _velocity_original(state.v, state.u, state.w, true.raw_moments, eta)


def expected_velocity_relative(state: UVWState, true: TrueModel, eta: float = 1.0):
    """(dv/dt, dDelta/dt, dw'/dt) under the relative parameterization."""
    if state.parameterization != "relative":
        raise MixtureError("expected_velocity_relative needs relative coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        return _velocity_relative(state.v, state.u, state.w, true.raw_moments, eta)


@dataclass(frozen=True)
class FlowField:
    """Expected-velocity field on a (mu1, mu2) grid, mapped back from collective coords."""

    mu1_axis: np.ndarray
    mu2_axis: np.ndarray
    dmu1: np.ndarray  # shape (len(mu2_axis), len(mu1_axis))
    dmu2: np.ndarray
    reflected: np.ndarray
    parameterization: str


def _axis(spec) -> np.ndarray:
    lo, hi, step = spec
    if not (0.0 < step < np.inf and 0.0 <= hi - lo < np.inf):
        raise MixtureError("axis spec needs finite bounds, step > 0 and max >= min")
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def velocity_in_means(v: float, mu1: float, mu2: float, true: TrueModel,
                      parameterization: str, eta: float = 1.0):
    """Expected velocity (dmu1, dmu2, reflected) at a point, v held fixed.

    mu1 and mu2 may be floats or same-shape arrays. Relative mode sorts the
    means first (canonical ordering) and reports whether each point was
    reflected across the diagonal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if parameterization == "original":
            state = UVWState(v=v, u=mu1 - mu2, w=v * mu1 + (1.0 - v) * mu2)
            _, du, dw = expected_velocity_original(state, true, eta)
            return dw + (1.0 - v) * du, dw - v * du, np.zeros(np.shape(du), dtype=bool)[()]
        reflected = np.less(mu2, mu1)
        lo, hi = np.minimum(mu1, mu2), np.maximum(mu1, mu2)
        # the state checks v and rejects any name other than "relative" here
        state = UVWState(v=v, u=hi - lo, w=v * lo + (1.0 - v) * hi,
                         parameterization=parameterization)
        _, ddelta, dwp = expected_velocity_relative(state, true, eta)
        dlo, dhi = dwp - (1.0 - v) * ddelta, dwp + v * ddelta
        return np.where(reflected, dhi, dlo)[()], np.where(reflected, dlo, dhi)[()], reflected


def flow_field(mu1_spec, mu2_spec, v: float, true: TrueModel,
               parameterization: str = "original", eta: float = 1.0) -> FlowField:
    """Evaluate the expected-velocity field on the grid of (mu1, mu2) cells."""
    ax1, ax2 = _axis(mu1_spec), _axis(mu2_spec)
    dmu1, dmu2, refl = velocity_in_means(v, *np.meshgrid(ax1, ax2), true, parameterization, eta)
    return FlowField(mu1_axis=ax1, mu2_axis=ax2, dmu1=dmu1, dmu2=dmu2,
                     reflected=refl, parameterization=parameterization)


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


# Iterates per pass of the expected log-likelihood: its (K, block, nodes)
# temporaries stay near 100 KiB each however many steps a run takes.
_LOGLIK_BLOCK = 64


def _expected_logliks(mu1s, mu2s, v: float, true: TrueModel) -> np.ndarray:
    """E_true[ln p(x | v, mu1_t, mu2_t)] per iterate t, via Gauss-Hermite over
    each true component, in blocks of iterates.

    Each value has the bits of the per-iterate sum: the nodes' weighted sum
    of ``log_density``, taken over the true components from 0.0.
    """
    nodes, wts = normal_quadrature(101)
    comps = component_nodes(true.params, nodes)
    means = np.array([mu1s, mu2s])
    out = np.empty(means.shape[1])
    for start in range(0, len(out), _LOGLIK_BLOCK):
        block = means[:, start:start + _LOGLIK_BLOCK]
        total = 0.0
        for pi, xs in comps:
            ld = log_density_means((v, 1.0 - v), (1.0, 1.0), block, xs)
            total += pi * np.sum(wts * ld, axis=-1)
        out[start:start + _LOGLIK_BLOCK] = total
    return out


def integrate_gd(init_means: tuple[float, float], true, eta: float, steps: int,
                 parameterization: str = "original", v: float = 0.5) -> Trajectory:
    """Explicit Euler on the means with pi = v and unit sigmas held fixed.

    ``true`` is the gradient source: a TrueModel gives the closed-form
    expected velocities, a Dataset the sample-average score. Relative mode
    keeps Delta >= 0 at every step. The loop records the means. Under a
    TrueModel, every iterate's expected log-likelihood and distance to the
    true means follow the loop in one blocked pass. Under a Dataset, step k
    takes the score and iterate k's log-likelihood from one density pass over
    the sample (``gmm._score_rows``, into buffers made once per call, so a
    step allocates nothing of the sample's size), and the distance is NaN.
    The sample's points were checked when the Dataset was made, and are not
    checked again. Non-finite ``init_means`` are refused under either
    source, before any step. A diverged run (``diverged``) ends
    at its last finite iterate; numpy's floating-point warnings on the way
    there are not raised.
    """
    _check_parameterization(parameterization)
    if not 0 < eta < np.inf:  # NaN and inf are refused too
        raise MixtureError("eta must be positive and finite")
    steps = checked_size(steps, "steps")
    if steps < 1:
        raise MixtureError("need at least one step")
    _check_v(v)
    mu1, mu2 = float(init_means[0]), float(init_means[1])
    if not (np.isfinite(mu1) and np.isfinite(mu2)):
        raise MixtureError("init_means must be finite")

    # original(mu1, mu2) gives (dmu1, dmu2); relative(lo, hi) gives (dlo, dDelta)
    if isinstance(true, TrueModel):
        mom = true.raw_moments

        def original(m1, m2):
            _, du, dw = _velocity_original(v, m1 - m2, v * m1 + (1.0 - v) * m2, mom, eta)
            return dw + (1.0 - v) * du, dw - v * du

        def relative(lo, hi):
            _, ddelta, dwp = _velocity_relative(v, hi - lo, v * lo + (1.0 - v) * hi, mom, eta)
            return dwp - (1.0 - v) * ddelta, ddelta
    elif isinstance(true, Dataset):
        xs = true.points
        rows, a = np.empty((2, len(xs))), np.empty((2, len(xs)))
        amax, total = np.empty(len(xs)), np.empty(len(xs))
        passes = []  # log-likelihood at the means of each step's pass, in step order

        def mean_score(m1, m2):
            _score_rows(unit_variance_pair(m1, m2, v), xs, rows, a, amax, total)
            log_p = np.add(amax, np.log(total, out=total), out=total)
            # np.sum's and np.mean's reductions and division, without their wrappers
            passes.append(float(np.add.reduce(log_p)))
            return np.add.reduce(rows, axis=1) / len(xs)

        def original(m1, m2):
            g = mean_score(m1, m2)
            return eta * g[0], eta * g[1]

        def relative(lo, hi):  # d l / d mu1 with mu2 = mu1 + Delta, and d l / d Delta
            g = mean_score(lo, hi)
            return eta * (g[0] + g[1]), eta * g[1]
    else:
        raise MixtureError("the gradient source must be a TrueModel or a Dataset")

    mu1s, mu2s = [mu1], [mu2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            if parameterization == "original":
                d1, d2 = original(mu1, mu2)
                mu1, mu2 = mu1 + d1, mu2 + d2
            else:
                lo, hi = min(mu1, mu2), max(mu1, mu2)
                dlo, ddelta = relative(lo, hi)
                delta = max(hi - lo + ddelta, 0.0)
                mu1 = lo + dlo
                mu2 = mu1 + delta
            if not (np.isfinite(mu1) and np.isfinite(mu2)):
                break  # diverged: the non-finite iterate is not recorded
            mu1s.append(mu1)
            mu2s.append(mu2)

        if isinstance(true, TrueModel):
            loglik = _expected_logliks(mu1s, mu2s, v, true)
            dist = distances_to_truth(zip(mu1s, mu2s), true.params.means)
        else:
            # pass k was made at iterate k, save the final iterate's and, in
            # relative mode, an unsorted start's (the pass took its sorted copy)
            loglik = passes
            if len(loglik) < len(mu1s):
                loglik.append(log_likelihood(unit_variance_pair(mu1s[-1], mu2s[-1], v), true))
            if parameterization == "relative" and mu1s[0] > mu2s[0]:
                loglik[0] = log_likelihood(unit_variance_pair(mu1s[0], mu2s[0], v), true)
            dist = np.full(len(mu1s), np.nan)

    mu1, mu2 = np.asarray(mu1s), np.asarray(mu2s)
    return Trajectory(mu1=mu1, mu2=mu2, delta=np.abs(mu2 - mu1), loglik=np.asarray(loglik),
                      dist_to_true=np.asarray(dist), diverged=len(mu1s) <= steps,
                      parameterization=parameterization)
