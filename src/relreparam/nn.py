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

from .gmm import MixtureError, checked_size
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
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise MixtureError(f"layer {k}: weights and biases must be finite")
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


# The dependence screen takes its targets in blocks of at most this many
# (target, pair) cells, and of at least one target.
_SCREEN_CELLS = 1 << 16


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: elementwise squares and row sums, no BLAS."""
    return np.sqrt((rows * rows).sum(axis=1))


def _pair_bases(cols: np.ndarray, norms: np.ndarray, first: np.ndarray,
                second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A two-column modified Gram-Schmidt basis (q1, q2) of every pair's span.

    The larger-norm column goes first (the first of the pair on a tie); a
    zero column spans nothing. The second column, orthogonalised against
    q1, is dropped (q2 = 0) unless its norm exceeds eps * max(fan_in, 2)
    times the larger norm: ``lstsq``'s ``rcond=None`` rank cut. Without it a
    parallel pair would keep a rounding-noise direction, and generic targets
    would turn into hits.
    """
    swap = norms[second] > norms[first]
    lead, lag = np.where(swap, second, first), np.where(swap, first, second)
    x1, x2, n1 = cols[lead], cols[lag], norms[lead][:, None]
    q1 = np.divide(x1, n1, out=np.zeros_like(x1), where=n1 > 0)
    r = x2 - (q1 * x2).sum(axis=1)[:, None] * q1
    nr = _row_norms(r)[:, None]
    keep = nr > np.finfo(float).eps * max(cols.shape[1], 2) * n1
    q2 = np.divide(r, nr, out=np.zeros_like(r), where=keep)
    return q1, q2


def _residuals(t: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Row-wise ||(t - c1 q1) - (q2 . r1) q2||, r1 = t - c1 q1, c1 = q1 . t:
    the sequential (modified Gram-Schmidt) residual of t off span(q1, q2)."""
    r1 = t - (q1 * t).sum(axis=1)[:, None] * q1
    return _row_norms(r1 - (q2 * r1).sum(axis=1)[:, None] * q2)


def _dependence_hits(cols: np.ndarray, first: np.ndarray, second: np.ndarray,
                     norms: np.ndarray, bound: float) -> list[tuple[int, int, int, float]]:
    """(i, j, target, residual) for every target unit whose column lies
    within `bound` of span(column i, column j), i < j, neither of them the
    target; in target order, then pair order."""
    units, fan_in = cols.shape
    q1, q2 = _pair_bases(cols, norms, first, second)
    q12 = (q1 * q2).sum(axis=1)
    slack = 32.0 * (fan_in + 2) * np.finfo(float).eps  # see detect_singularities
    hits = []
    block = max(1, _SCREEN_CELLS // len(first))
    for lo in range(0, units, block):
        targets = cols[lo:lo + block]
        t2 = (targets * targets).sum(axis=1)[:, None]
        c1 = np.einsum("kf,pf->kp", targets, q1, optimize=False)
        c2 = np.einsum("kf,pf->kp", targets, q2, optimize=False) - c1 * q12
        screen = t2 - c1 * c1 - c2 * c2
        unit = np.arange(lo, lo + len(targets))[:, None]
        kept = ((screen <= bound * bound + slack * (t2 + bound * bound))
                & (first != unit) & (second != unit))
        kk, pp = np.nonzero(kept)
        resid = _residuals(targets[kk], q1[pp], q2[pp])
        hit = resid <= bound
        pp = pp[hit]
        hits.extend(zip(first[pp].tolist(), second[pp].tolist(), (kk[hit] + lo).tolist(),
                        resid[hit].tolist()))
    return hits


def detect_singularities(mlp: MLPParams, tol: float = 1e-6) -> NNSingularityReport:
    """Scan hidden layers for elimination / overlap / linear-dependence hits.

    For hidden layer k the incoming rows are the columns of W_k (one per
    unit) and the outgoing weights are the rows of W_{k+1}. Tolerances are
    relative to the layer's Frobenius norm. Linear dependence is only
    meaningful when the activation is the identity.

    Each layer is scanned in array passes of elementwise products and row
    sums, so no BLAS or LAPACK call is made and the report has the same
    bits under any OpenBLAS kernel and numpy SIMD level. Every norm is the
    square root of a row sum. For linear dependence, every pair of units
    gets a two-column modified Gram-Schmidt basis (q1, q2) (Bjorck, BIT 7, 1967;
    ``_pair_bases``), and one ``np.einsum`` screen (no ``optimize``, so no
    BLAS) over every (target, pair) cell computes |t|^2 - c1^2 - c2^2 with
    c1 = q1.t and c2 = q2.t - c1 (q1.q2), the sequential coefficient. Only
    the kept cells get the exact sequential residual
    ||(t - c1 q1) - (q2.r1) q2||, and only it is compared with the bound or
    reported.

    The screen keeps a cell when its value is at most
    bound^2 + 32 (n + 2) eps (|t|^2 + bound^2), n = fan_in, so it keeps
    every cell whose residual is within the bound. With u = eps/2 and
    barring underflow and overflow: each step is a length-n dot product or
    an elementwise operation on vectors of norm at most ~|t|, since
    |q1|^2 and |q2|^2 are 1 within (n + 4)u (or 0) whether or not q2 is
    orthogonal to q1, and |c1|, |c2| <= ~|t|. The standard bounds on
    floating-point dot products (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1) then put the computed screen value within
    (9n + 10)u|t|^2 of |t|^2 - c1^2 - c2^2; that differs from the exact
    squared residual off the computed basis, |t|^2 - c1^2 (2 - |q1|^2)
    - c2^2 (2 - |q2|^2), by at most 2(n + 4)u|t|^2; and the computed
    residual's square is within (7n + 14)u|t|^2 of that. The sum,
    (18n + 32)u|t|^2 = (9n + 16) eps |t|^2, is under a third of the slack.

    Hits come in the order of the per-triple ``lstsq`` loop this replaced
    (target unit, then pairs in lexicographic order), with residuals equal
    to its within rounding; the tests keep that loop as an oracle, and the
    same residual without the screen as another. Targets are screened in
    blocks of at most ``_SCREEN_CELLS`` cells, so the working set is
    O(units^2 * fan_in) per layer.
    """
    if not 0 < tol < np.inf:  # NaN is refused too
        raise MixtureError("tol must be positive and finite")
    elim, over, lindep = [], [], []
    for k in range(mlp.depth - 1):
        cols = np.ascontiguousarray(mlp.weights[k].T)  # (units, fan_in): row i feeds unit i
        w_out = mlp.weights[k + 1]  # (units, fan_out): row i carries unit i onward
        sq = (cols * cols).sum(axis=1)
        norms = np.sqrt(sq)
        bound = tol * max(float(np.sqrt(sq.sum())), 1.0)
        prod = _row_norms(w_out) * norms
        elim.extend((k, int(i), float(prod[i])) for i in np.flatnonzero(prod <= bound))
        first, second = np.triu_indices(len(cols), 1)
        gap_plus = _row_norms(cols[first] - cols[second])
        gap_minus = _row_norms(cols[first] + cols[second])
        gap = np.minimum(gap_plus, gap_minus)
        over.extend((k, int(first[p]), int(second[p]), 1 if gap_plus[p] <= gap_minus[p] else -1,
                     float(gap[p])) for p in np.flatnonzero(gap <= bound))
        if mlp.activation == "identity" and len(first):
            lindep.extend((k, (i, j, target), resid) for i, j, target, resid
                          in _dependence_hits(cols, first, second, norms, bound))
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
    if w.ndim != 2:
        raise MixtureError("weight matrix must be 2-D")
    if not clearance >= 0:  # NaN is refused too
        raise MixtureError("clearance must be >= 0")
    column = checked_size(column, "column")
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
