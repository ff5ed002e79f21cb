"""Relative reparameterization of mixture parameters.

Components are sorted by a chosen ordering coordinate (means by default); the
smallest becomes the reference and the remaining components are encoded as
nonnegative consecutive gaps. Two encodings are supported:

* ``raw_constrained``: the gaps are stored directly and must stay >= 0.
* ``squared``: the stored coordinates d_i are unconstrained and decode to
  gaps d_i^2, optionally padded by a clearance threshold lambda that keeps
  every decoded gap >= lambda (strong identifiability).

``encode_ordered`` and ``decode_ordered`` are the gap encoding itself, on a
plain vector of values; ``nn`` orders weight rows with them too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import MixtureParams, MixtureError

ENCODINGS = ("raw_constrained", "squared")
ORDER_COORDS = ("mean", "sigma")


class SingularPointError(ValueError):
    """Construction attempted at a point of the singular set under strong identifiability."""


@dataclass(frozen=True)
class ReparamSpec:
    """How to build relative coordinates: ordering block, clearance, gap encoding."""

    ordering_coordinate: str = "mean"
    clearance: float = 0.0
    delta_encoding: str = "squared"

    def __post_init__(self):
        if self.ordering_coordinate not in ORDER_COORDS:
            raise MixtureError(f"ordering_coordinate must be one of {ORDER_COORDS}")
        if self.delta_encoding not in ENCODINGS:
            raise MixtureError(f"delta_encoding must be one of {ENCODINGS}")
        if not self.clearance >= 0:  # NaN is refused too
            raise MixtureError("clearance must be >= 0")


# The paper's relative coordinates (mu1, Delta) of the 2-GMM, in which the
# relative ECM fits and the CLI's fim estimates directly: components ordered
# by mean, raw gap Delta >= 0.
RELATIVE_SPEC = ReparamSpec(delta_encoding="raw_constrained")


@dataclass(frozen=True)
class RelativeParams:
    """Reparameterized coordinates: reference value, encoded gaps, carried blocks.

    ``deltas`` holds raw gaps (raw_constrained) or the unconstrained d_i with
    gap_i = d_i^2 (squared). ``permutation`` records the sort applied at
    construction; ``weights`` and the non-ordered block are already permuted.
    """

    reference_value: float
    deltas: tuple[float, ...]
    weights: tuple[float, ...]
    other_block: tuple[float, ...]  # sigmas when ordering by mean, means otherwise
    permutation: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.weights)


def encode_ordered(values, clearance: float, encoding: str):
    """Sort values (stably) and encode their consecutive gaps.

    Returns (permutation, sorted values, deltas), a delta being gap - lambda
    (raw_constrained) or sqrt(max(gap - lambda, 0)) (squared). With clearance
    lambda > 0 a gap below lambda lies in the singular set and is refused
    (strong identifiability); with lambda = 0 ties encode as zero gaps.
    """
    perm = tuple(int(i) for i in np.argsort(values, kind="stable"))
    ordered = values[list(perm)]
    gaps = np.diff(ordered)
    if clearance > 0 and np.any(gaps < clearance):
        raise SingularPointError(
            "ordering-coordinate gap below clearance: point is not strongly identifiable"
        )
    if encoding == "squared":
        return perm, ordered, np.sqrt(np.maximum(gaps - clearance, 0.0))
    return perm, ordered, gaps - clearance


def _gaps(deltas, clearance: float, encoding: str) -> np.ndarray:
    d = np.asarray(deltas, dtype=float)
    if encoding == "squared":
        return d * d + clearance
    return d + clearance


def decode_ordered(reference: float, deltas, clearance: float, encoding: str) -> np.ndarray:
    """Inverse of ``encode_ordered``: the sorted values telescope as the
    reference plus the cumulative sum of the decoded gaps."""
    return reference + np.concatenate([[0.0], np.cumsum(_gaps(deltas, clearance, encoding))])


def decoded_gaps(rel: RelativeParams, spec: ReparamSpec) -> np.ndarray:
    """Gap between consecutive ordered coordinates, clearance included."""
    return _gaps(rel.deltas, spec.clearance, spec.delta_encoding)


def to_relative(params: MixtureParams, spec: ReparamSpec) -> RelativeParams:
    """Sort components by the ordering coordinate and encode consecutive gaps
    (``encode_ordered``, which refuses a gap below the clearance)."""
    ordered, other = params.means, params.sigmas
    if spec.ordering_coordinate != "mean":
        ordered, other = other, ordered
    perm, ordered, deltas = encode_ordered(np.asarray(ordered), spec.clearance,
                                           spec.delta_encoding)
    return RelativeParams(
        reference_value=float(ordered[0]),
        deltas=tuple(float(x) for x in deltas),
        weights=tuple(params.weights[i] for i in perm),
        other_block=tuple(float(other[i]) for i in perm),
        permutation=perm,
    )


def to_absolute(rel: RelativeParams, spec: ReparamSpec) -> MixtureParams:
    """Decode relative coordinates back to an absolute mixture.

    The ordered coordinate telescopes: theta_k = reference + sum of decoded
    gaps below k. Exact inverse of to_relative when clearance is zero and all
    gaps are positive; the recorded permutation is not undone (the quotient
    map collapses label order).
    """
    ordered = decode_ordered(rel.reference_value, rel.deltas, spec.clearance,
                             spec.delta_encoding)
    if spec.ordering_coordinate == "mean":
        means, sigmas = ordered, rel.other_block
    else:
        means, sigmas = rel.other_block, ordered
    return MixtureParams(
        weights=rel.weights,
        means=tuple(float(x) for x in means),
        sigmas=tuple(float(x) for x in sigmas),
    )


def jacobian(rel: RelativeParams, spec: ReparamSpec) -> np.ndarray:
    """Jacobian d(ordered absolute coords)/d(reference, encoded deltas); K x K.

    Lower triangular: theta_k depends on the reference (entry 1) and every
    encoded delta below it (entry 1 raw, 2 d_i under the squared encoding).
    """
    k = rel.n_components
    jac = np.zeros((k, k))
    jac[:, 0] = 1.0
    d = np.asarray(rel.deltas, dtype=float)
    chain = 2.0 * d if spec.delta_encoding == "squared" else np.ones_like(d)
    for j in range(1, k):
        jac[j:, j] = chain[j - 1]
    return jac


@dataclass(frozen=True)
class SingularityReport:
    """Proximity of a mixture point to the elimination / overlap singular sets."""

    elimination_hits: tuple[tuple[int, float], ...]
    overlap_hits: tuple[tuple[int, int, float], ...]

    @property
    def is_identifiable(self) -> bool:
        return not self.elimination_hits and not self.overlap_hits


def classify_singularities(params: MixtureParams, tol: float = 1e-8) -> SingularityReport:
    """Flag near-zero weights (elimination) and coincident components (overlap).

    An overlap hit requires both means and sigmas of a pair to coincide within
    tol: with distinct sigmas the components stay distinguishable.
    """
    if not tol > 0:  # NaN is refused too
        raise MixtureError("tol must be positive")
    elim = tuple(
        (k, abs(pi)) for k, pi in enumerate(params.weights) if abs(pi) <= tol
    )
    overlaps = []
    k = params.n_components
    for i in range(k):
        for j in range(i + 1, k):
            dmu = abs(params.means[i] - params.means[j])
            dsig = abs(params.sigmas[i] - params.sigmas[j])
            if dmu <= tol and dsig <= tol:
                overlaps.append((i, j, max(dmu, dsig)))
    return SingularityReport(elimination_hits=elim, overlap_hits=tuple(overlaps))
