"""Conversion between sparse and full SOCP dual solutions.

Both SOCP duals certify a bound xi through a matrix identity

    Q_0 + sum_k y_k Q_k - xi H_0 = sum W^{ij} (+ sum_i w_i e_i e_i')

where each W^{ij} is PSD and supported on rows/columns {i, j}.  The full
dual ranges (i, j) over all pairs; the sparse dual only over the
aggregate pattern, with scalar diagonal terms w_i for isolated vertices.
The two maps below regroup the right-hand side between these forms
without touching y or xi, so the certified bound is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AggregatePattern, HomogenizedData
from .sparsemat import stack_entries


class RecoveryError(ValueError):
    """Raised when a dual solution cannot be converted consistently."""


@dataclass
class DualSolution:
    """One SOCP dual point: multipliers y, bound xi, PSD pair blocks W,
    and diagonal weights w on isolated vertices.

    W maps an upper-triangular pair (i, j) to a symmetric 2x2 array
    [[W_ii, W_ij], [W_ij, W_jj]]; w maps a vertex to a scalar.
    """

    y: np.ndarray
    xi: float
    W: dict
    w: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        norm = {}
        for (i, j), blk in self.W.items():
            if i >= j:
                raise RecoveryError(f"W key ({i},{j}) must have i < j")
            norm[(i, j)] = np.asarray(blk, dtype=float).reshape(2, 2)
        self.W = norm
        self.w = {int(i): float(v) for i, v in self.w.items()}

    def validate(self, tol: float = 1e-10) -> None:
        if self.y.size and float(self.y.min()) < -tol:
            raise RecoveryError(f"negative multiplier {self.y.min():.3e}")
        for key, blk in self.W.items():
            if abs(blk[0, 1] - blk[1, 0]) > tol * (1.0 + abs(blk).max()):
                raise RecoveryError(f"W{key} not symmetric")
            scale = max(1.0, float(abs(blk).max()))
            if np.linalg.eigvalsh((blk + blk.T) / 2)[0] < -tol * scale:
                raise RecoveryError(f"W{key} not PSD")
        for i, v in self.w.items():
            if v < -tol:
                raise RecoveryError(f"negative diagonal weight w[{i}] = {v:.3e}")


def aggregate_matrix(d: DualSolution, dim: int) -> np.ndarray:
    """Dense sum of all W blocks and diagonal w terms."""
    S = np.zeros((dim, dim))
    for (i, j), blk in d.W.items():
        S[i - 1, i - 1] += blk[0, 0]
        S[j - 1, j - 1] += blk[1, 1]
        S[i - 1, j - 1] += blk[0, 1]
        S[j - 1, i - 1] += blk[0, 1]
    for i, v in d.w.items():
        S[i - 1, i - 1] += v
    return S


def dual_residual(d: DualSolution, data: HomogenizedData) -> float:
    """Max-abs violation of the dual matrix identity.

    Works on the stored positions only.  Each position sums its terms in
    the order of the dense form, Q_0 + y_1 Q_1 + ... + y_m Q_m - xi H_0
    against the W blocks in dict order and then w (`np.bincount` adds its
    weights in input order), so the value is the dense one bit for bit.
    """
    N = data.dim
    coef = np.concatenate([[1.0], d.y[np.arange(data.m)], [-d.xi]])
    if not np.isfinite(coef).all():
        return float("nan")  # as the dense form, where inf * 0 is nan
    k, i, j, v = stack_entries((*data.Q, data.H0))
    ab = np.array(list(d.W), dtype=np.intp).reshape(len(d.W), 2)
    blk = np.array(list(d.W.values()), dtype=float).reshape(len(d.W), 4)
    iso = np.array(list(d.w), dtype=np.intp)
    # W^{ab} adds to (a, a), (b, b) and (a, b), block after block; then w_i to (i, i)
    si = np.concatenate([ab[:, [0, 1, 0]].ravel(), iso])
    sj = np.concatenate([ab[:, [0, 1, 1]].ravel(), iso])
    sv = np.concatenate([blk[:, [0, 3, 1]].ravel(), np.fromiter(d.w.values(), float, iso.size)])
    keys, pos = np.unique(np.concatenate([i, si]) * (N + 1) + np.concatenate([j, sj]), return_inverse=True)
    if not keys.size:
        return 0.0
    lhs = np.bincount(pos[: i.size], weights=coef[k] * v, minlength=keys.size)
    S = np.bincount(pos[i.size :], weights=sv, minlength=keys.size)
    return float(np.abs(lhs - S).max())


def sparse_to_full(d: DualSolution, pattern: AggregatePattern) -> DualSolution:
    """Lift a sparse-pattern dual to one ranging over every pair.

    On-pattern blocks are copied.  Each isolated vertex's diagonal
    weight becomes a rank-one diagonal block on one off-pattern pair
    (the partner with the smallest index), which keeps the aggregate sum
    unchanged; remaining off-pattern pairs carry zero and are omitted.
    """
    W = {key: blk.copy() for key, blk in d.W.items()}
    for i in sorted(d.w):
        if i not in pattern.isolated:
            raise RecoveryError(f"weight on non-isolated vertex {i}")
        j = 1 if i != 1 else 2
        a, b = (i, j) if i < j else (j, i)
        blk = W.setdefault((a, b), np.zeros((2, 2)))
        blk[0 if a == i else 1, 0 if a == i else 1] += d.w[i]
    return DualSolution(d.y.copy(), d.xi, W, {})


def full_to_sparse(
    d: DualSolution, pattern: AggregatePattern, tol: float = 1e-10
) -> DualSolution:
    """Project a full dual down to the aggregate pattern.

    Off-pattern blocks must be diagonal (their off-diagonal entry only
    sees positions where the dual identity forces a zero); their
    diagonal mass moves to w_i for isolated vertices, or folds into the
    smallest on-pattern block touching the vertex otherwise.
    """
    edges = pattern.edges
    incident = {}
    for (i, j) in sorted(edges):
        incident.setdefault(i, (i, j))
        incident.setdefault(j, (i, j))
    W = {key: d.W[key].copy() for key in d.W if key in edges}
    w = {i: 0.0 for i in pattern.isolated}

    def absorb(vertex, mass):
        if mass == 0.0:
            return
        if vertex in pattern.isolated:
            w[vertex] += mass
        else:
            a, b = incident[vertex]
            blk = W.setdefault((a, b), np.zeros((2, 2)))
            blk[0 if a == vertex else 1, 0 if a == vertex else 1] += mass

    for (i, j), blk in d.W.items():
        if (i, j) in edges:
            continue
        scale = max(1.0, float(np.abs(blk).max()))
        if abs(blk[0, 1]) > tol * scale:
            raise RecoveryError(
                f"off-pattern block W({i},{j}) has off-diagonal {blk[0, 1]:.3e}"
            )
        absorb(i, float(blk[0, 0]))
        absorb(j, float(blk[1, 1]))
    if d.w:
        raise RecoveryError("full dual must not carry diagonal weights")
    return DualSolution(d.y.copy(), d.xi, W, w)
