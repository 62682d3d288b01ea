"""Sparse symmetric matrices stored as an upper-triangular entry map.

Indices are 1-based everywhere in the public interface; off-diagonal
entries are stored once and contribute with factor 2 in inner products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: input entries below this magnitude are treated as structural zeros
STRUCTURAL_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix with explicit upper-triangular nonzeros.

    ``entries`` maps ``(i, j)`` with ``1 <= i <= j <= dim`` to a value.
    Near-zero inputs are dropped at construction so the stored support
    doubles as the symbolic sparsity pattern.
    """

    dim: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        clean = {}
        for (i, j), v in self.entries.items():
            if not (1 <= i <= j <= self.dim):
                raise ValueError(f"index ({i},{j}) outside upper triangle of dim {self.dim}")
            v = float(v)
            if abs(v) > STRUCTURAL_ZERO_TOL:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    def get(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), 0.0)

    def support(self):
        """Stored index pairs (upper triangle, including diagonal)."""
        return set(self.entries)

    def offdiag_support(self):
        return {(i, j) for (i, j) in self.entries if i < j}

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for (i, j), v in self.entries.items():
            a[i - 1, j - 1] = v
            a[j - 1, i - 1] = v
        return a

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(a, a.T, atol=1e-10):
            raise ValueError("matrix is not symmetric")
        n = a.shape[0]
        entries = {
            (i + 1, j + 1): a[i, j]
            for i in range(n)
            for j in range(i, n)
            if abs(a[i, j]) > STRUCTURAL_ZERO_TOL
        }
        return cls(n, entries)

    def inner(self, x: np.ndarray) -> float:
        """Trace inner product self . X against a dense symmetric X (0-based)."""
        total = 0.0
        for (i, j), v in self.entries.items():
            if i == j:
                total += v * x[i - 1, i - 1]
            else:
                total += 2.0 * v * x[i - 1, j - 1]
        return total
