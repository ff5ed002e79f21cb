"""Univariate Gaussian mixture model: density, likelihood, score, sampling, moments.

All mixtures here are one-dimensional. Densities and likelihoods are computed
in log space (log-sum-exp) so they stay finite far into the tails.

Sampling uses numpy's counter-based Philox generator so that datasets and CSV
fixtures are bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

_SIMPLEX_TOL = 1e-12
_FLOAT_MIN = float(np.finfo(float).min)
_FIELD_TYPES = (tuple, list, np.ndarray)


class MixtureError(ValueError):
    """Invalid mixture parameters or arguments."""


def _numpy_sum(xs: tuple[float, ...]) -> float:
    """The bits of ``np.sum`` of a float64 vector, on Python floats: numpy's
    pairwise sum (in order below 8 terms, eight interleaved accumulators up
    to 128, halves above), every partial sum started from the reduction's
    0.0. Builtin ``sum`` is compensated from Python 3.12 on, so it can
    round differently."""
    n = len(xs)
    if n < 8:
        res = 0.0
        for x in xs:
            res += x
        return res
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(xs[:half]) + _numpy_sum(xs[half:])
    r = [0.0] * 8
    end = n - n % 8
    for i in range(0, end, 8):
        for j in range(8):
            r[j] += xs[i + j]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[end:]:
        res += x
    return res


@dataclass(frozen=True)
class MixtureParams:
    """Absolute parameterization of a K-component univariate GMM.

    weights: mixing proportions on the probability simplex.
    means:   component means.
    sigmas:  component standard deviations (strictly positive).

    Each field must be a tuple, list or ndarray (anything else raises
    TypeError). It is converted once to a tuple of Python floats, and every
    check runs on those floats, on every construction.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        for field in (self.weights, self.means, self.sigmas):
            if not isinstance(field, _FIELD_TYPES):
                raise TypeError("weights, means, sigmas must each be a tuple, list or "
                                f"ndarray, got {type(field).__name__}")
        w = tuple(map(float, self.weights))
        m = tuple(map(float, self.means))
        s = tuple(map(float, self.sigmas))
        if not (len(w) == len(m) == len(s)):
            raise MixtureError("weights, means, sigmas must have equal length")
        if len(w) < 1:
            raise MixtureError("need K >= 1 components")
        if not all(map(math.isfinite, w + m + s)):
            raise MixtureError("parameters must be finite")
        if min(w) < 0:
            raise MixtureError("weights must be nonnegative")
        total = _numpy_sum(w)
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise MixtureError(f"weights must sum to 1 within {_SIMPLEX_TOL}, got {total!r}")
        if min(s) <= 0:
            raise MixtureError("sigmas must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigmas", s)

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

    ``points`` is a read-only float64 copy of the input, validated once here
    (``sample`` hands over the array it drew instead of a copy).
    ``==`` compares identity only; compare ``points`` with ``np.array_equal``.
    """

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_points(np.array(self.points, dtype=float)))

    @classmethod
    def _adopt(cls, points: np.ndarray) -> "Dataset":
        """Wrap a float64 array that the caller owns and hands over, without
        copying it: the same checks, and the array turns read-only."""
        self = object.__new__(cls)
        object.__setattr__(self, "points", _checked_points(points))
        return self

    @property
    def n(self) -> int:
        return len(self.points)


def _checked_points(pts: np.ndarray) -> np.ndarray:
    if pts.ndim != 1:
        raise MixtureError("dataset must be one-dimensional")
    if pts.size < 1:
        raise MixtureError("dataset must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise MixtureError("dataset entries must be finite")
    pts.flags.writeable = False
    return pts


def _check_x(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise MixtureError("x must be finite")
    return xs


def _components_first(v: np.ndarray, ndim: int) -> np.ndarray:
    """A length-K vector shaped (K, 1, ...) to broadcast against ndim-d x."""
    return v.reshape((-1,) + (1,) * ndim)


def _sigma_rows(sigmas: tuple[float, ...], ndim: int) -> np.ndarray | None:
    """The sigmas shaped (K, 1, ...) to broadcast against ndim-d x, or None
    when every sigma is exactly 1.0, which ``_log_normal`` takes as unit
    sigmas. Decided by comparing the tuple of floats, with no array pass."""
    if sigmas == (1.0,) * len(sigmas):
        return None
    return _components_first(np.asarray(sigmas, dtype=float), ndim)


def _log_normal(xs: np.ndarray, mu: np.ndarray, sig: np.ndarray | None,
                out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """ln N(xs | mu, sig^2) elementwise, mu and sig broadcast against xs:
    -0.5 z z - ln sig - ln(2 pi) / 2 with z = (xs - mu) / sig, one operation
    at a time. Written into `out`, with `tmp` as scratch, both of the
    broadcast shape; each is allocated when not given.

    `sig` None means unit sigmas (``_sigma_rows``): the pass skips the
    division by sigma and the subtraction of ln sigma, and leaves
    d = xs - mu in `tmp`. Its bits are those of sigmas of 1.0 taken
    through the divisions: x / 1.0 and x - 0.0 are x for every float,
    numpy's ln 1.0 is +0.0, and (-0.5 d) d is d (-0.5 d). The empirical and
    expected ``gd`` runs, the Fisher matrix and the relative ECM take this
    path; EM only on its first E-step, before it updates the sigmas.
    """
    if sig is None:
        d = np.subtract(xs, mu, out=tmp)
        z = np.multiply(d, -0.5, out=out)
        z *= d
    else:
        z = np.subtract(xs, mu, out=out)
        z /= sig
        z *= np.multiply(z, -0.5, out=tmp)  # z (-0.5 z), the bits of (-0.5 z) z
        z -= np.log(sig)
    z -= 0.5 * LOG_2PI
    return z


def log_component_densities(params: MixtureParams, x) -> np.ndarray:
    """ln N(x | mu_k, sigma_k^2) for each component; shape (K, ...).

    Component-major: row k is contiguous, so sums and maxima over the
    components are elementwise operations between rows.
    """
    xs = _check_x(x)
    return _log_normal(xs, _components_first(np.asarray(params.means), xs.ndim),
                       _sigma_rows(params.sigmas, xs.ndim))


def log_weights(weights) -> np.ndarray:
    """ln pi_k, with a zero weight floored at the smallest normal float."""
    return np.log(np.asarray(weights) + np.finfo(float).tiny)


def _log_sum_exp_rows(a: np.ndarray, weights, amax: np.ndarray | None = None,
                      total: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(a_k - m), sum_k exp(a_k - m) and m = max_k a_k after a_k += ln pi_k.

    ``a`` holds ln N_k component-major, shape (K, ...), and is overwritten;
    the sum and m have shape (...), and are written into `total` and `amax`
    when given (else allocated). `total` may be `amax` itself: the sum then
    overwrites m once the exponentials are taken. m is floored at the most
    negative float, so a point where every a_k is -inf gets a zero sum and
    ln p = -inf, not -inf - (-inf) = NaN; a finite m keeps its bits. Max and
    sum run elementwise between the rows, which is how ``np.max``/``np.sum``
    over axis 0 reduce them, so the bits are theirs.
    """
    a += _components_first(log_weights(weights), a.ndim - 1)
    if amax is None:
        amax = a[0, ...].copy()  # an array also when x is 0-d
    else:
        np.copyto(amax, a[0])
    np.maximum(amax, _FLOAT_MIN, out=amax)
    for row in a[1:]:
        np.maximum(amax, row, out=amax)
    a -= amax
    e = np.exp(a, out=a)
    if amax.size == 1:
        # np.sum adds a single point's K terms pairwise, which from K = 8 on
        # can round apart from adding them row by row
        return e, np.sum(e, axis=0, out=total), amax
    if total is None:
        total = e[0].copy()
    else:
        np.copyto(total, e[0])
    for row in e[1:]:
        total += row
    return e, total, amax


def log_density(params: MixtureParams, x):
    """ln sum_k pi_k N(x | mu_k, sigma_k^2) via log-sum-exp."""
    _, total, amax = _log_sum_exp_rows(log_component_densities(params, x), params.weights)
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
    sig = _sigma_rows(tuple(sigmas), xs.ndim + 1)
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
    e, total, amax = _log_sum_exp_rows(log_component_densities(params, x), params.weights)
    log_p = amax + np.log(total)
    e /= total
    return e, log_p


def _components_last(a: np.ndarray) -> np.ndarray:
    """View of a component-major (K, ...) array with the components last."""
    return np.moveaxis(a, 0, -1)


def responsibilities_array(params: MixtureParams, x) -> np.ndarray:
    """Posterior component probabilities gamma(z_k | x); shape (..., K).

    A view of the component-major array: for 1-D x, ``.T`` gives its
    contiguous (K, n) rows.
    """
    return _components_last(responsibilities_and_log_density(params, x)[0])


def _score_rows(params: MixtureParams, xs: np.ndarray, rows: np.ndarray, a: np.ndarray,
                amax: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The component-major score rows of xs, written into `rows` and
    returned: the K scores of the means, gamma_k (xs - mu_k) / sigma_k^2,
    or, when `rows` has 3K - 1 rows, ``score``'s, written row by row with
    its operations in its order.

    Nothing of xs's size is allocated. `a`, of shape (K,) + xs.shape, holds
    ln pi_k N_k and then the responsibilities gamma_k; the first K rows of
    `rows` are scratch until the scores. `amax` and `total`, of xs's shape,
    take the density pass's max over the components and their total (see
    ``_log_sum_exp_rows``; they may be one array). When they are two arrays
    and `rows` has K rows, both keep what the pass wrote, so ln p = amax +
    ln(total); the full scores overwrite `total` with gamma_K / pi_K. xs is
    not checked, so it must be finite.

    When every sigma is exactly 1.0 the pass takes ``_log_normal``'s unit
    path: it leaves d = xs - mu_k in the first K rows, and the K mean
    scores are gamma_k d, with no division by sigma and no second x - mu.
    The bits are those of the divisions by 1.0. The empirical and expected
    ``gd`` runs, the Fisher matrix and the relative ECM take the unit path;
    EM only on its first E-step, before it updates the sigmas.
    """
    k = params.n_components
    mu = _components_first(np.asarray(params.means), xs.ndim)
    sig = _sigma_rows(params.sigmas, xs.ndim)
    _log_normal(xs, mu, sig, out=a, tmp=rows[:k])
    gam, total, _ = _log_sum_exp_rows(a, params.weights, amax=amax, total=total)
    gam /= total
    if len(rows) == k:
        if sig is None:  # the pass left d = xs - mu in rows
            return np.multiply(gam, rows, out=rows)
        s = np.subtract(xs, mu, out=rows)
        np.multiply(gam, s, out=s)
        s /= sig * sig
        return s
    # d ln p / d pi_k (free coords): (N_k - N_K) / p = gam_k/pi_k - gam_K/pi_K
    last = np.divide(gam[-1], params.weights[-1], out=total)
    for i, w in enumerate(params.weights[:-1]):
        np.divide(gam[i], w, out=rows[i, ...])  # a view also when x is 0-d
        rows[i, ...] -= last
    # d_mu = gam z / sig and d_sigma = gam (z z - 1) / sig, z = (x - mu) / sig
    for i, (m, s) in enumerate(zip(params.means, params.sigmas)):
        z, d_sigma = rows[k - 1 + i, ...], rows[2 * k - 1 + i, ...]
        np.subtract(xs, m, out=z)
        z /= s
        np.multiply(z, z, out=d_sigma)
        d_sigma -= 1.0
        d_sigma *= gam[i]
        d_sigma /= s
        z *= gam[i]
        z /= s
    return rows


def _fresh_score_rows(params: MixtureParams, x, width: int) -> np.ndarray:
    """``_score_rows`` of the checked x in buffers made here, one vector
    for the max and the total: the (..., width) view of its component-major
    rows, as in ``responsibilities_array``."""
    xs = _check_x(x)
    rows, a = np.empty((width,) + xs.shape), np.empty((params.n_components,) + xs.shape)
    vec = np.empty(xs.shape)
    return _components_last(_score_rows(params, xs, rows, a, vec, vec))


def score(params: MixtureParams, x) -> np.ndarray:
    """Gradient of ln density at x over (pi_1..pi_{K-1} free coords, mu, sigma).

    The weight block uses the first K-1 weights as free coordinates with
    pi_K = 1 - sum of the others, so the gradient has length 3K - 1.
    """
    return _fresh_score_rows(params, x, 3 * params.n_components - 1)


def score_means(params: MixtureParams, x) -> np.ndarray:
    """Gradient of ln density with respect to the means only; shape (..., K)."""
    return _fresh_score_rows(params, x, params.n_components)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; the project-wide RNG for reproducibility.
    MixtureError unless the seed is a non-negative integer (a bool or a
    float is not)."""
    seed = checked_size(seed, "seed")
    if seed < 0:
        raise MixtureError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def checked_size(n, name: str) -> int:
    """n as an int; MixtureError unless it is an integer (a bool, or a float
    even when integral, is not)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise MixtureError(f"{name} must be an integer, got {n!r}")
    return int(n)


def _component_index(edges: list[float], u: np.ndarray, comp: np.ndarray,
                     scratch: np.ndarray) -> None:
    """Into comp, the component each uniform u picks: how many of ``edges``,
    the cumulative weights without the last, are <= u. The cumulative
    weights never decrease, so this equals ``searchsorted(cumsum(weights), u,
    side="right")`` capped at K - 1, also where the last sum rounds below
    1.0, in K - 1 comparisons.

    Nothing is allocated: each comparison's mask sits in comp's bytes, and
    the float64 `scratch`, as long as u, holds the running count and the
    mask as int32s, so that no step casts through a buffer.
    """
    m = len(u)
    count, step = scratch.view(np.int32)[:m], scratch.view(np.int32)[m:]
    mask = comp.view(bool)[:m]
    count.fill(0)
    for edge in edges:
        np.less_equal(edge, u, out=mask)
        np.copyto(step, mask)
        count += step
    np.copyto(comp, count)


def _stream_at(seed: int, words: int) -> np.random.Generator:
    """``make_rng(seed)`` after its first `words` 64-bit draws: each Philox
    counter step yields four words, so advance words // 4 steps and draw the
    rest."""
    bits = np.random.Philox(int(seed))
    bits.advance(words // 4)
    bits.random_raw(words % 4)
    return np.random.Generator(bits)


def _slice_streams(params: MixtureParams, n: int, seed: int, size: int) -> tuple:
    """The arguments of ``_fill_slice`` between the slice and the scratch
    for the draws of ``sample(params, n, seed)`` in slices of `size`: the
    uniforms' and the normals' cursors, the cumulative weights without the
    last, the means and the sigmas. The seed is checked here.

    The stream holds n uniforms, which pick the components, then n standard
    normals, one word per uniform. One cursor reads the uniforms and a second
    the normals, n words further on, so each slice draws both of its parts
    where the one-shot draw has them. With a single slice the uniform cursor
    ends where the normals start and is the normal cursor too.
    """
    uniforms = make_rng(seed)
    normals = uniforms if size >= n else _stream_at(seed, n)
    edges = list(itertools.accumulate(params.weights[:-1]))  # np.cumsum's bits
    return uniforms, normals, edges, np.asarray(params.means), np.asarray(params.sigmas)


def _fill_slice(z: np.ndarray, uniforms, normals, edges: list[float], means: np.ndarray,
                sigmas: np.ndarray, scratch: np.ndarray) -> None:
    """Draw the next len(z) points of the streams into z, allocating nothing.

    `scratch` is a contiguous float64 array of at least 2 len(z): its first
    len(z) floats are the float row and the next len(z) the picked
    components, as intps. The uniforms are drawn first, into z, because a
    single slice draws both parts from one cursor, and pick the components.
    The float row then holds the picked sigmas, then the picked means, so
    three slice-sized vectors, z among them, are alive at once.
    """
    m = len(z)
    picked, comp = scratch[:m], scratch[m:2 * m].view(np.intp)[:m]
    uniforms.random(out=z)
    _component_index(edges, z, comp, picked)
    normals.standard_normal(out=z)
    # every index lies in [0, K - 1], so clipping changes none; it spares
    # take the copy of its output that the default mode makes
    np.take(sigmas, comp, out=picked, mode="clip")
    z *= picked
    np.take(means, comp, out=picked, mode="clip")
    z += picked


def sample(params: MixtureParams, n: int, seed: int) -> Dataset:
    """Draw n points: component by weights, then a Gaussian draw. Deterministic
    per seed. The points are one slice of n filled by ``_fill_slice``, so
    three n-sized vectors, the points and two of scratch, are alive at once."""
    n = checked_size(n, "n")
    if n < 1:
        raise MixtureError("need n >= 1 samples")
    z = np.empty(n)
    _fill_slice(z, *_slice_streams(params, n, seed, n), np.empty(2 * n))
    return Dataset._adopt(z)


def unit_variance_pair(mu1: float, mu2: float, v: float = 0.5) -> MixtureParams:
    """The two-component mixture v N(mu1, 1) + (1 - v) N(mu2, 1)."""
    return MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0))


def distances_to_truth(mean_rows, truth_means) -> list[float]:
    """Euclidean distance from each row of means to the true means, label
    permutation resolved by sorting both."""
    t = sorted(truth_means)
    return [math.dist(sorted(m), t) for m in mean_rows]


@functools.cache
def normal_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for E[f(Z)], Z ~ N(0, 1): sum(w * f(nodes)).

    Each rule is solved once per node count and shared as read-only arrays.
    """
    nodes, wts = np.polynomial.hermite_e.hermegauss(n_nodes)
    wts = wts / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


def component_nodes(params: MixtureParams, nodes: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(pi_k, mu_k + sigma_k * nodes) per component: a normal quadrature
    rule's nodes moved onto each component."""
    return [(pi, mu + sig * nodes)
            for pi, mu, sig in zip(params.weights, params.means, params.sigmas)]


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
