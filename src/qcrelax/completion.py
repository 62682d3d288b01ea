"""Matrix completion for partially specified symmetric matrices.

Two completion notions are implemented.  For the cone of matrices whose
every 2x2 principal submatrix is PSD, the zero-fill completion (known
entries kept, everything else zero) maximizes the product of all 2x2
principal minors.  For genuine PSD completability over a chordal
pattern, the clique-ordered procedure produces the maximum-determinant
PSD completion, whose inverse vanishes at every unspecified position.

Indices are 1-based throughout, matching the matrix conventions used by
the relaxation builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chordal import CliqueSet, Graph, NotChordalError, is_chordal


class CompletionError(ValueError):
    """Raised on invalid partial-matrix input."""


@dataclass(frozen=True)
class PartialMatrix:
    """Symmetric matrix known on its diagonal and an edge set only.

    `known` maps upper-triangular positions (i, j), 1-based, to values;
    its keys must be exactly the diagonal plus `pattern`.
    """

    dim: int
    known: dict
    pattern: frozenset

    def __post_init__(self):
        edges = set()
        for (i, j) in self.pattern:
            if i > j:
                i, j = j, i
            if not (1 <= i < j <= self.dim):
                raise CompletionError(f"edge ({i},{j}) out of range")
            edges.add((i, j))
        object.__setattr__(self, "pattern", frozenset(edges))
        want = {(i, i) for i in range(1, self.dim + 1)} | edges
        norm = {}
        for (i, j), v in self.known.items():
            if i > j:
                i, j = j, i
            norm[(i, j)] = float(v)
        if set(norm) != want:
            missing = want - set(norm)
            extra = set(norm) - want
            raise CompletionError(
                f"known entries must cover the diagonal and the pattern exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        object.__setattr__(self, "known", norm)


@dataclass(frozen=True)
class Range:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise CompletionError("empty range")

    def __contains__(self, v):
        return self.lo <= v <= self.hi


def zero_fill(p: PartialMatrix) -> np.ndarray:
    """The unique completion that is zero off the known positions."""
    X = np.zeros((p.dim, p.dim))
    for (i, j), v in p.known.items():
        X[i - 1, j - 1] = v
        X[j - 1, i - 1] = v
    return X


def _minors(X: np.ndarray):
    """All 2x2 principal minors (values X_ii*X_jj - X_ij^2), i < j."""
    d = np.diag(X)
    prod = np.outer(d, d) - X * X
    iu = np.triu_indices(X.shape[0], k=1)
    return prod[iu]


def det_T(X: np.ndarray) -> float:
    """Product of all 2x2 principal minors."""
    if X.shape[0] < 2:
        raise CompletionError("need dim >= 2")
    return float(np.prod(_minors(X)))


def log_det_T(X: np.ndarray) -> float:
    """log of det_T, with -inf for any nonpositive minor.

    Large dimensions underflow the plain product, so comparisons should
    happen in the log domain.
    """
    if X.shape[0] < 2:
        raise CompletionError("need dim >= 2")
    m = _minors(X)
    if np.any(m <= 0.0):
        return -np.inf
    return float(np.sum(np.log(m)))


def feasible_range(p: PartialMatrix, i: int, j: int) -> Range:
    """Interval of values at unknown (i, j) keeping the 2x2 minor PSD."""
    if i > j:
        i, j = j, i
    if (i, j) in p.known:
        raise CompletionError(f"position ({i},{j}) is already known")
    dii = p.known[(i, i)]
    djj = p.known[(j, j)]
    if dii < 0 or djj < 0:
        raise CompletionError("negative diagonal entry")
    r = float(np.sqrt(dii * djj))
    return Range(-r, r)


def _in_minor_cone(X: np.ndarray, i, j, tol) -> bool:
    """Nonnegative diagonal, and PSD 2x2 principal submatrices on the 0-based pairs (i[k], j[k])."""
    scale = max(1.0, float(np.abs(X).max(initial=0.0)))
    d = np.diag(X)
    if np.any(d < -tol * scale):
        return False
    return bool(np.all(d[i] * d[j] - X[i, j] * X[i, j] >= -tol * scale * scale))


def in_T_plus(X: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff every 2x2 principal submatrix is PSD (within tol)."""
    return _in_minor_cone(X, *np.triu_indices(X.shape[0], k=1), tol)


def in_T_bar(X: np.ndarray, edges, tol: float = 1e-10) -> bool:
    """PSD 2x2 submatrices on `edges`, nonnegative diagonal elsewhere.

    Edges are 1-based pairs (i, j), in either orientation, with
    1 <= i < j <= n, as `PartialMatrix` takes them.
    """
    e = np.array(list(edges), dtype=int).reshape(-1, 2)
    i, j = e.min(axis=1), e.max(axis=1)
    bad = (i < 1) | (i == j) | (j > X.shape[0])
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise CompletionError(f"edge ({i[k]},{j[k]}) out of range")
    return _in_minor_cone(X, i - 1, j - 1, tol)


def _clique_submatrix(p: PartialMatrix, verts):
    k = len(verts)
    M = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            i, j = verts[a], verts[b]
            key = (i, j) if i <= j else (j, i)
            if key not in p.known:
                raise CompletionError(
                    f"clique position {key} not covered by the pattern"
                )
            M[a, b] = M[b, a] = p.known[key]
    return M


def is_psd_completable(p: PartialMatrix, cs: CliqueSet, tol: float = 1e-10) -> bool:
    """PSD completion exists iff every clique principal submatrix is PSD."""
    if not is_chordal(Graph(p.dim, p.pattern)):
        raise NotChordalError("pattern is not chordal")
    for c in cs.cliques:
        M = _clique_submatrix(p, sorted(c))
        scale = max(1.0, float(np.abs(M).max(initial=0.0)))
        if np.linalg.eigvalsh(M)[0] < -tol * scale:
            return False
    return True


def sdp_complete(p: PartialMatrix, cs: CliqueSet, eps: float = 1e-10) -> np.ndarray:
    """Maximum-determinant PSD completion over a chordal pattern.

    Cliques are visited in running-intersection order; each step fills
    the block between the clique's new vertices and the previously
    placed ones through the separator:

        X[new, old] = X[new, sep] X[sep, sep]^{-1} X[sep, old]

    which zeroes the corresponding entries of the inverse.  Singular
    separator blocks are nudged by eps times the identity.
    """
    if not is_psd_completable(p, cs):
        raise CompletionError("no PSD completion exists")
    n = p.dim
    X = np.zeros((n, n))
    placed = []
    placed_set = set()
    for c in cs.cliques:
        verts = sorted(c)
        M = _clique_submatrix(p, verts)
        idx = [v - 1 for v in verts]
        X[np.ix_(idx, idx)] = M
        sep = [v for v in verts if v in placed_set]
        new = [v for v in verts if v not in placed_set]
        old = [v for v in placed if v not in c]
        if new and old:
            si = [v - 1 for v in sep]
            ni = [v - 1 for v in new]
            oi = [v - 1 for v in old]
            if sep:
                B = X[np.ix_(si, si)]
                scale = max(1.0, float(np.trace(B)) / len(sep))
                try:
                    np.linalg.cholesky(B)
                except np.linalg.LinAlgError:
                    B = B + eps * scale * np.eye(len(sep))
                fill = X[np.ix_(ni, si)] @ np.linalg.solve(B, X[np.ix_(si, oi)])
            else:
                # disjoint component: the max-det completion is block diagonal
                fill = np.zeros((len(new), len(old)))
            X[np.ix_(ni, oi)] = fill
            X[np.ix_(oi, ni)] = fill.T
        for v in new:
            placed.append(v)
            placed_set.add(v)
    return X
