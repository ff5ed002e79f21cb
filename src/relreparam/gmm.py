"""Univariate Gaussian mixture model: density, likelihood, score, sampling, moments.

All mixtures here are one-dimensional. Densities and likelihoods are computed
in log space (log-sum-exp) so they stay finite far into the tails.

Sampling uses numpy's counter-based Philox generator so that datasets and CSV
fixtures are bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

_SIMPLEX_TOL = 1e-12


class MixtureError(ValueError):
    """Invalid mixture parameters or arguments."""


@dataclass(frozen=True)
class MixtureParams:
    """Absolute parameterization of a K-component univariate GMM.

    weights: mixing proportions on the probability simplex.
    means:   component means.
    sigmas:  component standard deviations (strictly positive).
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if not (len(w) == len(m) == len(s)):
            raise MixtureError("weights, means, sigmas must have equal length")
        if len(w) < 1:
            raise MixtureError("need K >= 1 components")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise MixtureError("parameters must be finite")
        if np.any(w < 0):
            raise MixtureError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _SIMPLEX_TOL:
            raise MixtureError(f"weights must sum to 1 within {_SIMPLEX_TOL}, got {w.sum()!r}")
        if np.any(s <= 0):
            raise MixtureError("sigmas must be strictly positive")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "means", tuple(float(x) for x in m))
        object.__setattr__(self, "sigmas", tuple(float(x) for x in s))

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def permuted(self, perm) -> "MixtureParams":
        """Return the mixture with components reordered by index sequence perm."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n_components)):
            raise MixtureError("perm must be a permutation of component indices")
        return MixtureParams(
            weights=tuple(self.weights[i] for i in perm),
            means=tuple(self.means[i] for i in perm),
            sigmas=tuple(self.sigmas[i] for i in perm),
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """One-dimensional dataset.

    ``points`` is a read-only float64 copy of the input, validated once here.
    ``==`` compares identity only; compare ``points`` with ``np.array_equal``.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise MixtureError("dataset must be one-dimensional")
        if pts.size < 1:
            raise MixtureError("dataset must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise MixtureError("dataset entries must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)


def _check_x(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise MixtureError("x must be finite")
    return xs


def _components_first(v: np.ndarray, ndim: int) -> np.ndarray:
    """A length-K vector shaped (K, 1, ...) to broadcast against ndim-d x."""
    return v.reshape((-1,) + (1,) * ndim)


def _log_normal(xs: np.ndarray, mu: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """ln N(xs | mu, sig^2) elementwise, mu and sig broadcast against xs."""
    z = (xs - mu) / sig
    return -0.5 * z * z - np.log(sig) - 0.5 * LOG_2PI


def log_component_densities(params: MixtureParams, x) -> np.ndarray:
    """ln N(x | mu_k, sigma_k^2) for each component; shape (K, ...).

    Component-major: row k is contiguous, so sums and maxima over the
    components are elementwise operations between rows.
    """
    xs = _check_x(x)
    return _log_normal(xs, _components_first(np.asarray(params.means), xs.ndim),
                       _components_first(np.asarray(params.sigmas), xs.ndim))


def _log_sum_exp_rows(a: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(a_k - m), sum_k exp(a_k - m) and m = max_k a_k after a_k += ln pi_k.

    ``a`` holds ln N_k component-major, shape (K, ...), and is overwritten;
    the sum and m have shape (...).
    """
    logw = np.log(np.asarray(weights) + np.finfo(float).tiny)
    a += _components_first(logw, a.ndim - 1)
    amax = np.max(a, axis=0)
    a -= amax
    e = np.exp(a, out=a)
    return e, np.sum(e, axis=0), amax


def _log_sum_exp_terms(params: MixtureParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log-sum-exp terms of ``_log_sum_exp_rows`` for a_k = ln pi_k N_k(x);
    the one pass behind the density and the responsibilities."""
    return _log_sum_exp_rows(log_component_densities(params, x), params.weights)


def log_density(params: MixtureParams, x):
    """ln sum_k pi_k N(x | mu_k, sigma_k^2) via log-sum-exp."""
    _, total, amax = _log_sum_exp_terms(params, x)
    out = amax + np.log(total)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_density_means(weights, sigmas, means: np.ndarray, x) -> np.ndarray:
    """ln p(x) of the mixtures that share weights and sigmas and differ in their means.

    Column t of the (K, T) array ``means`` holds mixture t's means. The result
    has shape (T,) + x.shape, and row t has the bits of ``log_density`` of
    mixture t: one broadcast pass in the same order of operations.
    """
    xs = _check_x(x)
    mu = means.reshape(means.shape + (1,) * xs.ndim)
    sig = _components_first(np.asarray(sigmas, dtype=float), xs.ndim + 1)
    _, total, amax = _log_sum_exp_rows(_log_normal(xs, mu, sig), weights)
    return amax + np.log(total)


def density(params: MixtureParams, x):
    """Mixture density; strictly positive for finite x."""
    return np.exp(log_density(params, x))


def log_likelihood(params: MixtureParams, data: Dataset) -> float:
    """Sum of log mixture densities over the dataset."""
    return float(np.sum(log_density(params, data.points)))


def responsibilities_and_log_density(params: MixtureParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior probabilities gamma(z_k | x), shape (K, ...), and ln p(x), shape (...).

    Both come from one log-sum-exp pass and carry the same bits as
    ``responsibilities_array`` and ``log_density``.
    """
    e, total, amax = _log_sum_exp_terms(params, x)
    log_p = amax + np.log(total)
    e /= total
    return e, log_p


def _responsibilities(params: MixtureParams, x) -> np.ndarray:
    e, total, _ = _log_sum_exp_terms(params, x)
    e /= total
    return e


def _components_last(a: np.ndarray) -> np.ndarray:
    """View of a component-major (K, ...) array with the components last."""
    return np.moveaxis(a, 0, -1)


def responsibilities_array(params: MixtureParams, x) -> np.ndarray:
    """Posterior component probabilities gamma(z_k | x); shape (..., K).

    A view of the component-major array: for 1-D x, ``.T`` gives its
    contiguous (K, n) rows.
    """
    return _components_last(_responsibilities(params, x))


def score(params: MixtureParams, x) -> np.ndarray:
    """Gradient of ln density at x over (pi_1..pi_{K-1} free coords, mu, sigma).

    The weight block uses the first K-1 weights as free coordinates with
    pi_K = 1 - sum of the others, so the gradient has length 3K - 1. A view
    of the component-major rows, as in ``responsibilities_array``.
    """
    xs = _check_x(x)
    gam = _responsibilities(params, xs)  # (K, ...)
    mu = _components_first(np.asarray(params.means), xs.ndim)
    sig = _components_first(np.asarray(params.sigmas), xs.ndim)
    z = (xs - mu) / sig
    # d ln p / d pi_k (free coords): (N_k - N_K) / p = gam_k/pi_k - gam_K/pi_K
    w = _components_first(np.asarray(params.weights), xs.ndim)
    d_pi = gam[:-1] / w[:-1] - gam[-1:] / w[-1]
    d_mu = gam * z / sig
    d_sigma = gam * (z * z - 1.0) / sig
    return _components_last(np.concatenate([d_pi, d_mu, d_sigma], axis=0))


def _score_means_given(params: MixtureParams, xs: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """Component-major (K, ...) scores of the means from the responsibilities gam of xs."""
    mu = _components_first(np.asarray(params.means), xs.ndim)
    sig = _components_first(np.asarray(params.sigmas), xs.ndim)
    return gam * (xs - mu) / (sig * sig)


def score_means(params: MixtureParams, x) -> np.ndarray:
    """Gradient of ln density with respect to the means only; shape (..., K),
    a view of the component-major rows."""
    xs = _check_x(x)
    return _components_last(_score_means_given(params, xs, _responsibilities(params, xs)))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; the project-wide RNG for reproducibility."""
    return np.random.Generator(np.random.Philox(int(seed)))


def sample(params: MixtureParams, n: int, seed: int) -> Dataset:
    """Draw n points: component by weights, then a Gaussian draw. Deterministic per seed."""
    if n < 1:
        raise MixtureError("need n >= 1 samples")
    rng = make_rng(seed)
    cum = np.cumsum(params.weights)
    comp = np.searchsorted(cum, rng.random(n), side="right")
    np.minimum(comp, params.n_components - 1, out=comp)
    # in place, so at most three n-sized arrays are alive at once
    z = rng.standard_normal(n)
    z *= np.asarray(params.sigmas)[comp]
    z += np.asarray(params.means)[comp]
    return Dataset(points=z)


def mean_distance(params: MixtureParams, truth: MixtureParams) -> float:
    """Euclidean distance between the mean vectors, label permutation resolved by sorting."""
    return math.hypot(*(np.sort(params.means) - np.sort(truth.means)))


@functools.cache
def normal_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for E[f(Z)], Z ~ N(0, 1): sum(w * f(nodes)).

    Each rule is solved once per node count and shared as read-only arrays.
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    wts = wts / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def gaussian_raw_moments(mu: float, sigma: float) -> tuple[float, float, float, float]:
    """E[x^0..x^3] of N(mu, sigma^2)."""
    return (1.0, mu, mu * mu + sigma * sigma, mu ** 3 + 3.0 * mu * sigma * sigma)


def mixture_moments(params: MixtureParams) -> tuple[float, float, float, float]:
    """Raw moments E[x^0..x^3] of the mixture, as Python floats.

    Order 3 is enough: the averaged-dynamics integrands are cubic.
    """
    raw = np.zeros(4)
    for pi, mu, sig in zip(params.weights, params.means, params.sigmas):
        raw += pi * np.asarray(gaussian_raw_moments(mu, sig))
    raw[0] = 1.0
    return tuple(raw.tolist())
