"""Fisher information estimation and its behavior under coordinate changes.

Two estimators are provided for the univariate GMM: Monte-Carlo averaging of
score outer products and per-component Gauss-Hermite quadrature. The
covariance law I_lambda = J^T I_theta J and the invariance of the length
element are implemented on top; the Crouzeix identity is checked on
one-dimensional exponential families (the Bregman machinery does not apply to
the mixture itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Neither estimator calls score or score_means; both stay importable from
# this module, where perfbench/tracer.py wraps them.
from .gmm import (MixtureParams, MixtureError, _fill_slice, _score_rows, _slice_streams,
                  checked_size, component_nodes, normal_quadrature, score, score_means)

COORD_SETS = ("means", "relative_means", "full")
QUADRATURE_NODES = 201
MIN_MC_BUDGET = 100
# Draws per slice of the Monte-Carlo estimate. Each slice is drawn, scored
# and accumulated before the next, in buffers made once per estimate, so
# memory is set by one slice buffer and one slice's score and product rows,
# whatever the budget.
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
        # a NaN fails no comparison, so the checks below would pass it
        if not np.all(np.isfinite(e)):
            raise MixtureError("FisherMatrix entries must be finite")
        if np.max(np.abs(e - e.T)) > SYMMETRY_TOL:
            raise MixtureError("FisherMatrix must be symmetric")
        if np.min(np.linalg.eigvalsh(e)) < -PSD_TOL:
            raise MixtureError("FisherMatrix must be positive semi-definite")
        object.__setattr__(self, "entries", e)

    def to_csv(self) -> str:
        header = f"# fisher, coordinates={self.coordinates}, estimator={self.estimator}, budget={self.budget}\n"
        rows = "\n".join(",".join(repr(float(x)) for x in row) for row in self.entries)
        return header + rows + "\n"


def _check_coords(params: MixtureParams, coords: str) -> None:
    """The coordinates' requirements on params, checked once per estimate
    before anything is drawn or scored."""
    if coords not in COORD_SETS:
        raise MixtureError(f"coords must be one of {COORD_SETS}")
    if coords == "relative_means":
        if params.n_components != 2:
            raise MixtureError("relative_means coordinates need K = 2")
        if abs(params.means[0] - params.means[1]) < 1e-12:
            raise SingularFimError("FIM degenerates at the overlap singularity")


def _rows(buf: np.ndarray, k: int, m: int) -> np.ndarray:
    """The first k m floats of the flat buffer as contiguous (k, m) rows."""
    return buf[:k * m].reshape(k, m)


def _width(params: MixtureParams, coords: str) -> int:
    """k, the number of scores per point in the coordinates."""
    return 3 * params.n_components - 1 if coords == "full" else params.n_components


def _slice_buffers(params: MixtureParams, coords: str, size: int):
    """(work, rows): the buffers of ``_score_slice`` and ``_merged`` for
    slices of up to `size` points, made once per estimate or per quadrature
    rule. While a slice is drawn, the first two rows of `work` are the
    draw's scratch (``gmm._fill_slice``); while it is scored, `work` holds
    its K log-density rows and one slice vector and `rows` its k score rows;
    `work` then holds the k(k + 1)/2 product rows, at least as many as the
    log-density rows and the vector."""
    n_comp, k = params.n_components, _width(params, coords)
    return np.empty(max(n_comp + 1, k * (k + 1) // 2) * size), np.empty(k * size)


def _score_slice(params: MixtureParams, z: np.ndarray, coords: str,
                 work: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (k, len(z)) score rows of the points z in the chosen coordinates,
    each row contiguous, so that ``.T`` is the (len(z), k) scores. They are
    written into the buffers of ``_slice_buffers`` (``gmm._score_rows``),
    with no slice-sized array allocated, and are overwritten by the next
    call. `coords` is one that ``_check_coords`` passed for params."""
    m, n_comp = len(z), params.n_components
    vec = work[n_comp * m:(n_comp + 1) * m]  # the row max, then the row total
    s = _score_rows(params, z, _rows(rows, _width(params, coords), m), _rows(work, n_comp, m),
                    vec, vec)
    if coords == "relative_means":
        s[0] += s[1]  # lambda = (mu1, Delta) with mu2 = mu1 + Delta
    return s


def _merged(n: int, mean, m2, s: np.ndarray, work: np.ndarray):
    """(n, mean, m2) merged with the slice of (k, c) score rows s, over the
    k(k + 1)/2 products s_i s_j, i <= j, in row-major upper-triangle order,
    which are taken into the first rows of the flat `work`.

    Each slice's mean and M2 about that mean are merged into the running
    pair with the pairwise update of Chan, Golub & LeVeque (1979).
    """
    k, c = s.shape
    n_prods = k * (k + 1) // 2
    # each product's draws contiguous
    prods = _rows(work, n_prods, c)
    row = 0
    for i in range(k):
        np.multiply(s[i], s[i:], out=prods[row:row + k - i])
        row += k - i
    c_mean = prods.mean(axis=-1)
    prods -= c_mean[:, None]
    prods *= prods
    total = n + c
    d = c_mean - mean
    return total, mean + d * (c / total), m2 + prods.sum(axis=-1) + d * d * (n * c / total)


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """The symmetric (k, k) matrix of a row-major upper triangle."""
    k = math.isqrt(2 * len(upper))  # k^2 <= k(k + 1) < (k + 1)^2
    iu = np.triu_indices(k)
    full = np.empty((k, k))
    full[iu] = upper
    full.T[iu] = upper
    return full


def _mc_moments(params: MixtureParams, budget: int, seed: int, coords: str):
    """Mean and M2 (summed squared deviations) of the score outer products
    over the draws of ``sample(params, budget, seed)``.

    One serial chain on the calling thread: each slice of _MC_CHUNK draws
    is filled (``gmm._fill_slice``), scored (``_score_slice``) and its
    upper-triangle products merged (``_merged``) before the next is drawn,
    and the triangle is mirrored at the end, which keeps the bits, as
    s_i s_j == s_j s_i. The slice, the scores and the products live in
    buffers made here once (``_slice_buffers``), so nothing slice-sized is
    allocated per slice. The draws' scratch is the first two rows of the
    work buffer, which is free while a slice is drawn: six slice vectors at
    k = 2, 21 at k = 5. No thread starts here; ``experiments.run_fim`` runs
    its two estimates side by side instead.
    """
    size = min(budget, _MC_CHUNK)
    streams = _slice_streams(params, budget, seed, size)
    work, rows = _slice_buffers(params, coords, size)
    buf = np.empty(size)
    n, mean, m2 = 0, 0.0, 0.0  # the first merge takes the first slice's pair as is
    for start in range(0, budget, size):
        z = buf[:min(size, budget - start)]
        _fill_slice(z, *streams, work[:2 * size])
        n, mean, m2 = _merged(n, mean, m2, _score_slice(params, z, coords, work, rows), work)
    return _mirrored(mean), _mirrored(m2)


def fim_estimate(params: MixtureParams, coords: str = "means",
                 method: str = "quadrature", budget: int = 10 ** 6,
                 seed: int = 0) -> FisherMatrix:
    """Estimate E[s s^T] under the mixture, s the score in the chosen coordinates.

    monte_carlo averages outer products over the `budget` draws of
    ``sample(params, budget, seed)`` and reports entrywise standard errors
    sqrt(M2 / (n - 1) / n). It scores and accumulates fixed-size slices one
    at a time, in buffers made once per estimate, merging their means and
    M2 pairwise (Chan, Golub & LeVeque), so memory does not grow with the
    budget. It runs on the calling thread and starts no thread. `budget`
    must be an integer of at least MIN_MC_BUDGET, and `seed` a
    non-negative integer. quadrature integrates per mixture component with
    a 201-node Gauss-Hermite rule whose nodes span past +-10 sigma (budget
    ignored), scoring each component's nodes with ``_score_slice`` in
    buffers made once for the rule.
    The coordinates are checked once, before anything is drawn or scored.
    Symmetrized after accumulation. MixtureError if an entry is not finite.
    """
    _check_coords(params, coords)
    if method == "monte_carlo":
        budget = checked_size(budget, "budget")
        if budget < MIN_MC_BUDGET:
            raise MixtureError(f"monte_carlo budget must be at least {MIN_MC_BUDGET}")
        mean, m2 = _mc_moments(params, budget, seed, coords)
        se = np.sqrt(m2 / (budget - 1)) / np.sqrt(budget)
        mat = 0.5 * (mean + mean.T)
        return FisherMatrix(entries=mat, coordinates=coords, estimator="monte_carlo",
                            budget=budget, std_errors=0.5 * (se + se.T))
    if method == "quadrature":
        nodes, wts = normal_quadrature(QUADRATURE_NODES)
        work, rows = _slice_buffers(params, coords, QUADRATURE_NODES)
        acc = 0.0
        for pi, xs in component_nodes(params, nodes):
            s = _score_slice(params, xs, coords, work, rows).T
            acc = acc + pi * np.einsum("n,ni,nj->ij", wts, s, s)
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
