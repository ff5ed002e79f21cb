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
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gmm import (MixtureParams, MixtureError, _fill_slice, _score_means_rows, _slice_scratch,
                  _slice_streams, checked_size, component_nodes, normal_quadrature, score,
                  score_means)

COORD_SETS = ("means", "relative_means", "full")
QUADRATURE_NODES = 201
MIN_MC_BUDGET = 100
# Draws per slice of the Monte-Carlo estimate. Each slice is scored and
# accumulated before the next, in buffers made once per estimate, so memory
# is set by one slice's score and product rows and two slice buffers,
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


def _score_in_coords(params: MixtureParams, xs: np.ndarray, coords: str) -> np.ndarray:
    """Scores of xs, shape (n, k): a view whose ``.T`` is the contiguous (k, n) rows.
    `coords` is one that ``_check_coords`` passed for params."""
    if coords == "means":
        return score_means(params, xs)
    if coords == "full":
        return score(params, xs)
    s = score_means(params, xs).T
    # lambda = (mu1, Delta) with mu2 = mu1 + Delta
    return np.stack([s[0] + s[1], s[1]]).T


def _rows(buf: np.ndarray, k: int, m: int) -> np.ndarray:
    """The first k m floats of the flat buffer as contiguous (k, m) rows."""
    return buf[:k * m].reshape(k, m)


def _slice_buffers(params: MixtureParams, coords: str, size: int):
    """(work, rows): the buffers of ``_score_slice`` and ``_merged`` for
    slices of up to `size` draws, made once per estimate. While a slice is
    scored, `work` holds its K log-density rows and one slice vector and
    `rows` its k score rows; `work` then holds the k(k + 1)/2 product rows,
    as many as the log-density rows and the vector at k = 2. `full` scores
    come from ``gmm.score``, whose temporaries would add to product rows
    kept beside them (16.5 MiB against 12.0 MiB at k = 5), so they get no
    buffers and ``_merged`` allocates their products per slice."""
    if coords == "full":
        return None, None
    k = params.n_components
    return np.empty(max(k + 1, k * (k + 1) // 2) * size), np.empty(k * size)


def _score_slice(params: MixtureParams, z: np.ndarray, coords: str,
                 work: np.ndarray | None, rows: np.ndarray | None) -> np.ndarray:
    """The (k, len(z)) score rows of the draws z, with the bits of
    ``_score_in_coords(params, z, coords).T``, in the buffers of
    ``_slice_buffers``: for the means and the relative means the same
    operations in the same order (``gmm._score_means_rows``), with no
    slice-sized array allocated."""
    if coords == "full":
        return score(params, z).T
    m, k = len(z), params.n_components
    s = _score_means_rows(params, z, _rows(rows, k, m), _rows(work, k, m),
                          work[k * m:(k + 1) * m])
    if coords == "relative_means":
        s[0] += s[1]  # lambda = (mu1, Delta) with mu2 = mu1 + Delta
    return s


def _merged(n: int, mean, m2, s: np.ndarray, work: np.ndarray | None):
    """(n, mean, m2) merged with the slice of (k, c) score rows s, over the
    k(k + 1)/2 products s_i s_j, i <= j, in row-major upper-triangle order,
    which are taken into the first rows of the flat `work`, or into new
    rows without it.

    Each slice's mean and M2 about that mean are merged into the running
    pair with the pairwise update of Chan, Golub & LeVeque (1979).
    """
    k, c = s.shape
    n_prods = k * (k + 1) // 2
    # each product's draws contiguous
    prods = np.empty((n_prods, c)) if work is None else _rows(work, n_prods, c)
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


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Drawer:
    """A second thread that fills one slice at a time with `fill`:
    ``start(z)`` hands it z, and ``wait()`` returns once z is filled and
    raises what the fill raised. ``close()`` stops and joins the thread."""

    def __init__(self, fill):
        self._fill = fill
        self._todo, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._slice = self._failure = None
        self._thread = threading.Thread(target=self._run, name="fim-drawer")
        self._thread.start()

    def _run(self):
        while True:
            self._todo.acquire()
            z = self._slice
            if z is None:
                return
            try:
                self._fill(z)
            except BaseException as exc:  # raised again by wait() in the calling thread
                self._failure = exc
            self._done.release()

    def start(self, z: np.ndarray) -> None:
        self._slice = z
        self._todo.release()

    def wait(self) -> None:
        self._done.acquire()
        if self._failure is not None:
            raise self._failure

    def close(self) -> None:
        self._slice = None
        self._todo.release()
        self._thread.join()


def _mc_moments(params: MixtureParams, budget: int, seed: int, coords: str):
    """Mean and M2 (summed squared deviations) of the score outer products
    over the draws of ``sample(params, budget, seed)``.

    Streams over slices of _MC_CHUNK draws, filled in order by
    ``gmm._fill_slice``, scores each (``_score_slice``) and merges its
    upper-triangle products (``_merged``); the triangle is mirrored at the
    end, which keeps the bits, as s_i s_j == s_j s_i. The scores and the
    products go into buffers made here once (``_slice_buffers``), so the
    means and relative means allocate nothing slice-sized per slice, with
    the bits of ``_score_in_coords``. With more than one slice and more
    than one CPU, a drawer thread fills slice i + 1 into the second of two
    slice buffers while this thread scores slice i. The drawer only draws
    and allocates nothing; every buffer belongs to this thread. Otherwise
    every slice is filled here, into one slice buffer, and no thread
    starts. Where a slice is drawn does not change its bits, and the merge
    order is the slice order, so the result is the same either way.
    """
    size = min(budget, _MC_CHUNK)
    streams = _slice_streams(params, budget, seed, size)
    scratch = _slice_scratch(size)
    work, rows = _slice_buffers(params, coords, size)
    sizes = [min(size, budget - start) for start in range(0, budget, size)]

    def fill(z):
        _fill_slice(z, *streams, scratch)

    def merged(n, mean, m2, z):
        return _merged(n, mean, m2, _score_slice(params, z, coords, work, rows), work)

    n, mean, m2 = 0, 0.0, 0.0  # the first merge takes the first slice's pair as is
    if len(sizes) == 1 or _cpus() == 1:
        buf = np.empty(size)
        for m in sizes:
            z = buf[:m]
            fill(z)
            n, mean, m2 = merged(n, mean, m2, z)
        return _mirrored(mean), _mirrored(m2)
    bufs = np.empty(size), np.empty(size)
    slices = [bufs[i % 2][:m] for i, m in enumerate(sizes)]
    drawer = _Drawer(fill)  # starts while this thread fills the first slice
    try:
        fill(slices[0])
        for z, ahead in zip(slices, slices[1:] + [None]):
            if ahead is not None:
                drawer.start(ahead)
            n, mean, m2 = merged(n, mean, m2, z)
            if ahead is not None:
                drawer.wait()
    finally:
        drawer.close()
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
    budget; with a second CPU the next slice is drawn on a second thread
    while the current one is scored. `budget` must be an integer of at
    least MIN_MC_BUDGET, and `seed` a non-negative integer. quadrature
    integrates per mixture component with a 201-node Gauss-Hermite rule
    whose nodes span past +-10 sigma (budget ignored).
    The coordinates are checked once, before anything is drawn or scored.
    Symmetrized after accumulation.
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
        acc = 0.0
        for pi, xs in component_nodes(params, nodes):
            s = _score_in_coords(params, xs, coords)
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
