"""Sparse symmetric matrices stored as upper-triangular entry arrays.

Indices are 1-based everywhere in the public interface; off-diagonal
entries are stored once and contribute with factor 2 in inner products.
"""

from __future__ import annotations

import numpy as np

#: input entries below this magnitude are treated as structural zeros
STRUCTURAL_ZERO_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SparseSymMatrix:
    """Symmetric matrix with explicit upper-triangular nonzeros.

    The entries are the read-only arrays ``rows``, ``cols`` and ``vals``
    (1-based, ``1 <= rows[k] <= cols[k] <= dim``) in insertion order.
    ``entries`` is the same data as a dict ``{(i, j): value}``, built on
    first access.  Near-zero inputs are dropped at construction so the
    stored support doubles as the symbolic sparsity pattern.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "_entries")

    def __init__(self, dim: int, entries: dict | None = None):
        entries = {} if entries is None else entries
        ij = np.array(list(entries), dtype=np.intp).reshape(len(entries), 2)
        vals = np.fromiter(entries.values(), float, len(entries))
        self._init(dim, ij[:, 0], ij[:, 1], vals)

    @classmethod
    def from_arrays(cls, dim: int, rows, cols, vals) -> "SparseSymMatrix":
        """The matrix with entries (rows[k], cols[k]) = vals[k], as if inserted
        into a dict in order: a repeated position keeps its first place and
        its last value."""
        out = cls.__new__(cls)
        out._init(dim, rows, cols, vals)
        return out

    def _init(self, dim, rows, cols, vals):
        """Validate and store the entry arrays: the one path of both constructors."""
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=float)
        if not (rows.ndim == cols.ndim == vals.ndim == 1 and rows.size == cols.size == vals.size):
            raise ValueError("rows, cols and vals must be one-dimensional of equal length")
        bad = np.flatnonzero((rows < 1) | (rows > cols) | (cols > dim))
        if bad.size:
            i, j = rows[bad[0]], cols[bad[0]]
            raise ValueError(f"index ({i},{j}) outside upper triangle of dim {dim}")
        keys = rows * (dim + 1) + cols
        sk = np.sort(keys)
        if (sk[1:] == sk[:-1]).any():
            first, last = _first_and_last(keys)
            rows, cols, vals = rows[first], cols[first], vals[last]
        keep = np.abs(vals) > STRUCTURAL_ZERO_TOL
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        set_ = object.__setattr__
        set_(self, "dim", dim)
        set_(self, "rows", _read_only(rows))
        set_(self, "cols", _read_only(cols))
        set_(self, "vals", _read_only(vals))
        set_(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (SparseSymMatrix.from_arrays, (self.dim, self.rows, self.cols, self.vals))

    def __repr__(self):
        return f"SparseSymMatrix(dim={self.dim!r}, entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.entries) == (other.dim, other.entries)

    __hash__ = None

    @property
    def entries(self) -> dict:
        """``{(i, j): value}`` in insertion order."""
        if self._entries is None:
            keys = zip(self.rows.tolist(), self.cols.tolist())
            object.__setattr__(self, "_entries", dict(zip(keys, self.vals.tolist())))
        return self._entries

    def get(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.entries.get((i, j), 0.0)

    def support(self):
        """Stored index pairs (upper triangle, including diagonal)."""
        return set(zip(self.rows.tolist(), self.cols.tolist()))

    def offdiag_support(self):
        off = self.rows != self.cols
        return set(zip(self.rows[off].tolist(), self.cols[off].tolist()))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        a[self.rows - 1, self.cols - 1] = self.vals
        a[self.cols - 1, self.rows - 1] = self.vals
        return a

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(a, a.T, atol=1e-10):
            raise ValueError("matrix is not symmetric")
        i, j = np.triu_indices(a.shape[0])
        return cls.from_arrays(a.shape[0], i + 1, j + 1, a[i, j])

    def inner(self, x: np.ndarray) -> float:
        """Trace inner product self . X against a dense symmetric X (0-based).

        The terms are added one after another in entry order (a cumulative
        sum), as a loop over the entries would.
        """
        r, c = self.rows - 1, self.cols - 1
        terms = np.where(r == c, 1.0, 2.0) * self.vals * x[r, c]
        return 0.0 + float(np.cumsum(terms)[-1]) if terms.size else 0.0


def stack_entries(mats):
    """(k, i, j, v): the stored entries of mats[0], mats[1], ... as flat arrays."""
    k = np.repeat(np.arange(len(mats)), [Q.vals.size for Q in mats])

    def cat(field, dtype):
        return np.concatenate([np.zeros(0, dtype)] + [getattr(Q, field) for Q in mats])

    return k, cat("rows", np.intp), cat("cols", np.intp), cat("vals", float)


def _first_and_last(keys: np.ndarray):
    """For each distinct key in order of first occurrence: where it first and last occurs."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new = np.append(True, sk[1:] != sk[:-1])
    first = order[new]
    last = order[np.append(new[1:], True)]
    place = np.argsort(first)
    return first[place], last[place]
