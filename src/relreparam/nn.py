"""Toy feed-forward networks: singularity taxonomy and row reparameterization.

Three singular sets are detected on each hidden layer's incoming weight rows
V_i (with outgoing scalar weights w_i): elimination (w_i V_i vanishes),
overlap (V_i = +-V_j, only the summed outgoing weight identifiable), and, on
identity-activation layers only, linear dependence (some V_k in the span of
two other rows).

Row reparameterization orders the rows of a weight matrix by one designated
column and encodes each subsequent entry in that column as
previous + d^2 + lambda, with the mixtures' gap encoding
(``reparam.encode_ordered``, squared).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import MixtureError
from .reparam import decode_ordered, encode_ordered

ACTIVATIONS = ("tanh", "relu", "identity")


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


@dataclass(frozen=True)
class MLPParams:
    """Per-layer weights/biases with a shared pointwise activation; last layer linear."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise MixtureError(f"activation must be one of {ACTIVATIONS}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise MixtureError("need matching nonempty weight/bias tuples")
        ws = tuple(np.asarray(w, dtype=float) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=float) for b in self.biases)
        for k, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise MixtureError(f"layer {k}: weight must be 2-D with bias matching its width")
            if k > 0 and ws[k - 1].shape[1] != w.shape[0]:
                raise MixtureError(f"layer {k}: input width does not match previous layer")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def depth(self) -> int:
        return len(self.weights)


def forward(mlp: MLPParams, x: np.ndarray) -> np.ndarray:
    """Propagate inputs through every layer; the final layer is affine."""
    h = np.asarray(x, dtype=float)
    if h.ndim == 1:
        h = h[None, :]
    if h.shape[1] != mlp.weights[0].shape[0]:
        raise MixtureError("input width does not match first layer")
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w + b
        h = z if k == mlp.depth - 1 else _apply_activation(mlp.activation, z)
    return h


@dataclass(frozen=True)
class NNSingularityReport:
    """Detected proximity to the three singular sets, per hidden layer."""

    elimination: tuple[tuple[int, int, float], ...]           # (layer, unit, |w_i|*|V_i|)
    overlap: tuple[tuple[int, int, int, int, float], ...]     # (layer, i, j, sign, gap)
    linear_dependence: tuple[tuple[int, tuple[int, int, int], float], ...]

    @property
    def is_identifiable(self) -> bool:
        return not (self.elimination or self.overlap or self.linear_dependence)


def detect_singularities(mlp: MLPParams, tol: float = 1e-6) -> NNSingularityReport:
    """Scan hidden layers for elimination / overlap / linear-dependence hits.

    For hidden layer k the incoming rows are the columns of W_k (one per
    unit) and the outgoing weights are the rows of W_{k+1}. Tolerances are
    relative to the layer's Frobenius norm. Linear dependence is only
    meaningful when the activation is the identity.

    Each layer is scanned in array passes: one norm pass per singular set,
    one batched SVD giving an orthonormal basis of every pair's span, and
    one projection pass over all pairs per target unit. Hits come in the
    order of the per-triple ``lstsq`` loop this replaces (target unit, then
    pairs in lexicographic order), with residuals equal to its within
    rounding; the tests keep that loop as the oracle. The working set is
    O(units^2 * fan_in) per layer.
    """
    if not tol > 0:  # NaN is refused too
        raise MixtureError("tol must be positive")
    elim, over, lindep = [], [], []
    for k in range(mlp.depth - 1):
        w_in = mlp.weights[k]       # (fan_in, units): column i feeds unit i
        w_out = mlp.weights[k + 1]  # (units, fan_out): row i carries unit i onward
        bound = tol * max(float(np.linalg.norm(w_in)), 1.0)
        fan_in, units = w_in.shape
        prod = np.linalg.norm(w_out, axis=1) * np.linalg.norm(w_in, axis=0)
        elim.extend((k, int(i), float(prod[i])) for i in np.flatnonzero(prod <= bound))
        first, second = np.triu_indices(units, 1)
        gap_plus = np.linalg.norm(w_in[:, first] - w_in[:, second], axis=0)
        gap_minus = np.linalg.norm(w_in[:, first] + w_in[:, second], axis=0)
        gap = np.minimum(gap_plus, gap_minus)
        over.extend((k, int(first[p]), int(second[p]), 1 if gap_plus[p] <= gap_minus[p] else -1,
                     float(gap[p])) for p in np.flatnonzero(gap <= bound))
        if mlp.activation != "identity":
            continue
        pairs = np.stack([w_in[:, first].T, w_in[:, second].T], axis=2)  # (P, fan_in, 2)
        u, s, _ = np.linalg.svd(pairs, full_matrices=False)
        # lstsq's rcond=None rank cut: without it a parallel pair keeps a
        # rounding-noise direction and generic targets turn into hits
        keep = s > np.finfo(float).eps * max(fan_in, 2) * s[:, :1]
        u = u * keep[:, None, :]
        for kk in range(units):
            target = w_in[:, kk]
            coef = target @ u                                   # (P, rank)
            resid = np.linalg.norm(target - (u @ coef[:, :, None])[:, :, 0], axis=1)
            hit = (resid <= bound) & (first != kk) & (second != kk)
            lindep.extend((k, (int(first[p]), int(second[p]), kk), float(resid[p]))
                          for p in np.flatnonzero(hit))
    return NNSingularityReport(elimination=tuple(elim), overlap=tuple(over),
                               linear_dependence=tuple(lindep))


def report_lines(report: NNSingularityReport) -> list[str]:
    """One human-readable line per hit."""
    lines = []
    for layer, unit, norm in report.elimination:
        lines.append(f"elimination layer={layer} unit={unit} norm={norm:.3e}")
    for layer, i, j, sign, gap in report.overlap:
        lines.append(f"overlap layer={layer} units=({i},{j}) sign={sign:+d} gap={gap:.3e}")
    for layer, triple, resid in report.linear_dependence:
        lines.append(f"linear_dependence layer={layer} units={triple} residual={resid:.3e}")
    if not lines:
        lines.append("identifiable: no singularity hits")
    return lines


@dataclass(frozen=True)
class RowReparam:
    """Encoded form of a weight matrix under row reparameterization."""

    reference_row: np.ndarray
    encoded: np.ndarray        # rows 2..n with the ordering column replaced by d_i
    column: int
    clearance: float
    permutation: tuple[int, ...]


def reparameterize_rows(w: np.ndarray, clearance: float = 0.0, column: int = 0) -> RowReparam:
    """Sort rows by one column and encode that column's gaps as d^2 + lambda."""
    w = np.asarray(w, dtype=float)
    if not clearance >= 0:  # NaN is refused too
        raise MixtureError("clearance must be >= 0")
    if not 0 <= column < w.shape[1]:
        raise MixtureError("ordering column out of range")
    order, _, deltas = encode_ordered(w[:, column], clearance, "squared")
    sorted_w = w[list(order)]
    encoded = sorted_w[1:].copy()
    encoded[:, column] = deltas
    return RowReparam(reference_row=sorted_w[0].copy(), encoded=encoded,
                      column=column, clearance=clearance, permutation=order)


def decode_rows(rep: RowReparam) -> np.ndarray:
    """Reconstruct the (row-permuted) weight matrix from its encoded form."""
    rows = np.vstack([rep.reference_row, rep.encoded])
    rows[:, rep.column] = decode_ordered(rep.reference_row[rep.column],
                                         rep.encoded[:, rep.column], rep.clearance, "squared")
    return rows
