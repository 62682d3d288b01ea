"""Seeded QCQP instance generators.

Two families are provided:

* lattice QCQPs whose data matrices live on a square-lattice graph and
  have nonpositive off-diagonals, a class for which the SDP and SOCP
  relaxations both attain the exact optimal value;
* zero-diagonal QCQPs built from bilinear product constraints plus box
  constraints, a class for which the SDP and SOCP relaxations coincide.

All randomness comes from numpy's PCG64 generator, which is seed-stable
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import QcqpInstance
from .sparsemat import SparseSymMatrix


@dataclass(frozen=True)
class LatticeSpec:
    n_L: int
    m: int
    seed: int

    def __post_init__(self):
        if self.n_L < 2:
            raise ValueError("n_L must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @property
    def n(self) -> int:
        return self.n_L**2


@dataclass(frozen=True)
class ZeroDiagSpec:
    n: int
    m: int
    density: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")


def lattice_edges(n_l: int):
    """Edges of the n_l x n_l lattice graph on vertices 1..n_l^2."""
    return set(zip(*(e.tolist() for e in _lattice_edge_arrays(n_l))))


def _lattice_edge_arrays(n_l: int):
    """(i, j): the lattice edges as sorted arrays, each vertex's right then lower neighbour."""
    a = np.arange(1, n_l * n_l + 1)
    b = np.stack([a + 1, a + n_l], axis=1)
    ok = np.stack([a % n_l != 0, a <= n_l * (n_l - 1)], axis=1)
    return np.broadcast_to(a[:, None], b.shape)[ok], b[ok]


def gen_lattice(spec: LatticeSpec) -> QcqpInstance:
    """Lattice QCQP: min x'P0x s.t. x'Pkx + rk <= 0.

    P0 and Pk (k >= 2) carry uniform [-1, 0] weights on the lattice edges
    and uniform [-1, 1] diagonals; P1 is a positive diagonal matrix so the
    feasible region is bounded; rk < 0 keeps x = 0 feasible; all qk = 0.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    ei, ej = _lattice_edge_arrays(spec.n_L)
    diag = np.arange(1, n + 1)
    rows, cols = np.concatenate([ei, diag]), np.concatenate([ej, diag])
    zeros = np.zeros(n)

    def edge_matrix():
        vals = np.concatenate([rng.uniform(-1.0, 0.0, ei.size), rng.uniform(-1.0, 1.0, n)])
        return SparseSymMatrix.from_arrays(n, rows, cols, vals)

    p0 = edge_matrix()
    constraints = []
    for k in range(1, spec.m + 1):
        if k == 1:
            # uniform over (0, 1]: flip the half-open side of uniform()
            pk = SparseSymMatrix.from_arrays(n, diag, diag, 1.0 - rng.uniform(0.0, 1.0, n))
        else:
            pk = edge_matrix()
        rk = rng.uniform(-1.0, -0.1)
        constraints.append((pk, zeros, rk))
    return QcqpInstance(n, (p0, zeros, 0.0), tuple(constraints))


def gen_zero_diag(spec: ZeroDiagSpec) -> QcqpInstance:
    """Zero-diagonal QCQP mirroring the pooling problem's structural class.

    Every data matrix has a zero diagonal.  Quadratic constraints come in
    pairs encoding bilinear product pins  x_i x_j = x_t  (two opposing
    inequalities), the objective is supported on the pinned products, and
    box constraints 0 <= x_i <= 1 are appended as 2n linear constraints.
    The relaxation is bounded and feasible (x = 0 satisfies everything),
    and its SDP and SOCP relaxations share the optimal value.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    zeros = np.zeros(n)

    all_i, all_j = np.triu_indices(n, 1)  # the pairs i < j in row order, 0-based
    pool_size = max(1, int(round(spec.density * all_i.size)))
    pool_idx = np.sort(rng.choice(all_i.size, size=pool_size, replace=False))
    pool_i, pool_j = (all_i[pool_idx] + 1).tolist(), (all_j[pool_idx] + 1).tolist()

    n_pairs = (spec.m + 1) // 2
    constraints = []
    pinned_pairs = []
    for _ in range(n_pairs):
        p = int(rng.integers(pool_size))
        i, j = pool_i[p], pool_j[p]
        t = int(rng.integers(1, n + 1))
        coef = rng.uniform(0.5, 1.5)
        # coef * x_i x_j - x_t <= 0  and  x_t - coef * x_i x_j <= 0
        p_up = SparseSymMatrix(n, {(i, j): coef / 2.0})
        q_up = np.zeros(n)
        q_up[t - 1] = -0.5
        constraints.append((p_up, q_up, 0.0))
        if len(constraints) < spec.m:
            p_dn = SparseSymMatrix(n, {(i, j): -coef / 2.0})
            constraints.append((p_dn, -q_up, 0.0))
            # only fully pinned products may carry objective weight,
            # otherwise the relaxation is unbounded below
            pinned_pairs.append((i, j))

    # box 0 <= x_i <= 1 as linear-in-Q constraints
    p_zero = SparseSymMatrix(n, {})
    for i in range(1, n + 1):
        lo = np.zeros(n)
        lo[i - 1] = -0.5  # -x_i <= 0
        constraints.append((p_zero, lo, 0.0))
        hi = np.zeros(n)
        hi[i - 1] = 0.5  # x_i - 1 <= 0
        constraints.append((p_zero, hi, -1.0))

    obj_i, obj_j = np.array(sorted(set(pinned_pairs)), dtype=np.intp).reshape(-1, 2).T
    p0 = SparseSymMatrix.from_arrays(n, obj_i, obj_j, rng.uniform(-1.0, 1.0, obj_i.size))
    q0 = rng.uniform(-1.0, 1.0, size=n)
    return QcqpInstance(n, (p0, q0, 0.0), tuple(constraints))
