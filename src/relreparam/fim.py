"""Fisher information estimation and its behavior under coordinate changes.

Two estimators are provided for the univariate GMM: Monte-Carlo averaging of
score outer products and per-component Gauss-Hermite quadrature. The
covariance law I_lambda = J^T I_theta J and the invariance of the length
element are implemented on top; the Crouzeix identity is checked on
one-dimensional exponential families (the Bregman machinery does not apply to
the mixture itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gmm import (MixtureParams, MixtureError, normal_quadrature, sample, score,
                  score_means)

COORD_SETS = ("means", "relative_means", "full")
QUADRATURE_NODES = 201
MIN_MC_BUDGET = 100
# Draws per slice of the Monte-Carlo accumulation. A slice's (k, k, c) score
# products are the only temporaries that grow with k, so memory stays at a
# few sample-sized arrays whatever the budget.
_MC_CHUNK = 1 << 16
# Largest |F - F^T| entry and most negative eigenvalue a FisherMatrix accepts.
SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-8


class SingularFimError(ValueError):
    """FIM requested in relative coordinates at a singular point."""


@dataclass(frozen=True)
class FisherMatrix:
    """Estimated information matrix plus entrywise Monte-Carlo standard errors."""

    entries: np.ndarray
    coordinates: str
    estimator: str  # monte_carlo | quadrature
    budget: int
    std_errors: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise MixtureError("FisherMatrix must be square")
        if np.max(np.abs(e - e.T)) > SYMMETRY_TOL:
            raise MixtureError("FisherMatrix must be symmetric")
        if np.min(np.linalg.eigvalsh(e)) < -PSD_TOL:
            raise MixtureError("FisherMatrix must be positive semi-definite")
        object.__setattr__(self, "entries", e)

    def to_csv(self) -> str:
        header = f"# fisher, coordinates={self.coordinates}, estimator={self.estimator}, budget={self.budget}\n"
        rows = "\n".join(",".join(repr(float(x)) for x in row) for row in self.entries)
        return header + rows + "\n"


def _score_in_coords(params: MixtureParams, xs: np.ndarray, coords: str) -> np.ndarray:
    """Scores of xs, shape (n, k): a view whose ``.T`` is the contiguous (k, n) rows."""
    if coords == "means":
        return score_means(params, xs)
    if coords == "relative_means":
        if params.n_components != 2:
            raise MixtureError("relative_means coordinates need K = 2")
        if abs(params.means[0] - params.means[1]) < 1e-12:
            raise SingularFimError("FIM degenerates at the overlap singularity")
        s = score_means(params, xs).T
        # lambda = (mu1, Delta) with mu2 = mu1 + Delta
        return np.stack([s[0] + s[1], s[1]]).T
    if coords == "full":
        return score(params, xs)
    raise MixtureError(f"coords must be one of {COORD_SETS}")


def _mc_moments(params: MixtureParams, xs: np.ndarray, coords: str):
    """Mean and M2 (summed squared deviations) of the score outer products over xs.

    Streams over slices of _MC_CHUNK draws: each slice's mean and M2 about
    that mean are merged into the running pair with the pairwise update of
    Chan, Golub & LeVeque (1979). A slice's scores are used as the (k, c)
    component-major rows they are computed in, without a copy.
    """
    n, mean, m2 = 0, 0.0, 0.0  # the first merge takes the first slice's pair as is
    for start in range(0, len(xs), _MC_CHUNK):
        s = _score_in_coords(params, xs[start:start + _MC_CHUNK], coords).T
        outer = s[:, None, :] * s[None, :, :]  # (k, k, c), each entry's draws contiguous
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


def fim_estimate(params: MixtureParams, coords: str = "means",
                 method: str = "quadrature", budget: int = 10 ** 6,
                 seed: int = 0) -> FisherMatrix:
    """Estimate E[s s^T] under the mixture, s the score in the chosen coordinates.

    monte_carlo averages outer products over `budget` draws from one
    ``sample`` call and reports entrywise standard errors sqrt(M2 / (n - 1)
    / n); the products are accumulated in fixed-size slices of the drawn
    sample whose means and M2 are merged pairwise (Chan, Golub & LeVeque),
    so memory does not grow with budget * k^2. quadrature integrates per
    mixture component with a 201-node Gauss-Hermite rule whose nodes span
    past +-10 sigma (budget ignored).
    Symmetrized after accumulation.
    """
    if method == "monte_carlo":
        if budget < MIN_MC_BUDGET:
            raise MixtureError(f"monte_carlo budget must be at least {MIN_MC_BUDGET}")
        mean, m2 = _mc_moments(params, sample(params, budget, seed).points, coords)
        se = np.sqrt(m2 / (budget - 1)) / np.sqrt(budget)
        mat = 0.5 * (mean + mean.T)
        return FisherMatrix(entries=mat, coordinates=coords, estimator="monte_carlo",
                            budget=budget, std_errors=0.5 * (se + se.T))
    if method == "quadrature":
        nodes, wts = normal_quadrature(QUADRATURE_NODES)
        dim = None
        acc = None
        for pi, mu, sig in zip(params.weights, params.means, params.sigmas):
            xs = mu + sig * nodes
            s = _score_in_coords(params, xs, coords)
            if acc is None:
                dim = s.shape[1]
                acc = np.zeros((dim, dim))
            acc += pi * np.einsum("n,ni,nj->ij", wts, s, s)
        mat = 0.5 * (acc + acc.T)
        return FisherMatrix(entries=mat, coordinates=coords, estimator="quadrature",
                            budget=QUADRATURE_NODES)
    raise MixtureError("method must be 'monte_carlo' or 'quadrature'")


def transform_fim(i_theta: FisherMatrix, jac: np.ndarray) -> FisherMatrix:
    """Covariant transform J^T I J into the coordinates the Jacobian maps from."""
    jac = np.asarray(jac, dtype=float)
    k = i_theta.entries.shape[0]
    if jac.shape != (k, k):
        raise MixtureError("Jacobian shape must match the FIM dimension")
    mat = jac.T @ i_theta.entries @ jac
    mat = 0.5 * (mat + mat.T)
    se = None
    if i_theta.std_errors is not None:
        se = np.abs(jac.T) @ i_theta.std_errors @ np.abs(jac)
    return FisherMatrix(entries=mat, coordinates=f"transformed({i_theta.coordinates})",
                        estimator=i_theta.estimator, budget=i_theta.budget,
                        std_errors=se)


def length_element(fim: FisherMatrix, delta: np.ndarray) -> float:
    """ds^2 = delta^T I delta; invariant when delta transforms contravariantly."""
    d = np.asarray(delta, dtype=float)
    if d.shape != (fim.entries.shape[0],):
        raise MixtureError("displacement dimension must match the FIM")
    return float(d @ fim.entries @ d)


@dataclass(frozen=True)
class ExpFamilySpec:
    """One-dimensional exponential family: log-normalizer and its conjugate."""

    name: str
    log_normalizer: Callable[[float], float]
    grad: Callable[[float], float]            # eta = F'(theta)
    hess: Callable[[float], float]            # F''(theta)
    conjugate_hess: Callable[[float], float]  # F*''(eta)


def gaussian_natural_family() -> ExpFamilySpec:
    """Unit-variance Gaussian in natural form: F(theta) = theta^2 / 2."""
    return ExpFamilySpec(
        name="gaussian_unit_variance",
        log_normalizer=lambda t: 0.5 * t * t,
        grad=lambda t: t,
        hess=lambda t: 1.0,
        conjugate_hess=lambda e: 1.0,
    )


def bernoulli_family() -> ExpFamilySpec:
    """Bernoulli: F(theta) = ln(1 + e^theta), eta = sigmoid(theta)."""
    sig = lambda t: 1.0 / (1.0 + np.exp(-t))
    return ExpFamilySpec(
        name="bernoulli",
        log_normalizer=lambda t: float(np.log1p(np.exp(t))),
        grad=sig,
        hess=lambda t: sig(t) * (1.0 - sig(t)),
        conjugate_hess=lambda e: 1.0 / (e * (1.0 - e)),
    )


def crouzeix_check(spec: ExpFamilySpec, theta: float,
                   numeric_conjugate: bool = False, fd_step: float = 1e-4) -> float:
    """|F''(theta) * F*''(F'(theta)) - 1| for the one-dimensional family.

    With numeric_conjugate the conjugate Hessian is replaced by the central
    finite-difference reciprocal-slope estimate 1 / F''; residual stays below
    ~1e-6 for smooth families.
    """
    eta = spec.grad(theta)
    if numeric_conjugate:
        # F*'(eta) = theta(eta); differentiate the inverse map numerically.
        # theta(eta +- h) obtained by Newton inversion of F'(theta) = eta.
        def invert(target):
            t = theta
            for _ in range(100):
                step = (spec.grad(t) - target) / spec.hess(t)
                t -= step
                if abs(step) < 1e-14:
                    break
            return t
        h = fd_step
        conj_hess = (invert(eta + h) - invert(eta - h)) / (2.0 * h)
    else:
        conj_hess = spec.conjugate_hess(eta)
    return abs(spec.hess(theta) * conj_hess - 1.0)
