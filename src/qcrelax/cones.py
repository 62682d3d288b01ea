"""Symmetric-cone operations for the interior-point solver.

A ConeLayout groups the scalar coordinates of a standard-form variable
into second-order cones batched by dimension (`soc_groups`), PSD blocks in
svec coordinates batched by matrix side (`psd_groups`) and free
coordinates.  A nonnegative coordinate is the one-dimensional second-order
cone SOC(1), so nonneg blocks land in `soc_groups[1]` and take the SOC
path everywhere.  Each group has a (k, L) take-index array, so every
operation runs once per group on stacked arrays: the SOC formulas on
(k, d) arrays, the PSD ones on (k, side, side) matrix stacks with batched
`eigh`, `cholesky` and `matmul`.  The layout provides the Jordan-algebra
pieces the solver needs: identity element, barrier degree, strict
interior checks, maximum step to the boundary (of one vector, or of a
stack such as the pair (x, s)) and Nesterov-Todd scalings.
The NT scaling of a second-order cone is W = eta (2 q q' - J), and its
inverse (2 Jq (Jq)' - J) / eta has the same form, so `Scaling` builds both
by one formula and keeps them as dense (k, d, d) blocks per group, applied
by one batched matrix-vector product.
`ColumnPattern` is the structural pattern of the KKT block B = A W, fixed
for a solve; `Scaling.scale_columns` fills in its values.

Free coordinates have no associated cone; the solver keeps their dual
slack pinned at zero and they never enter scalings or step lengths.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .program import smat, svec, svec_len


def _t(a):  # the transpose of each matrix in a stack
    return np.swapaxes(a, -1, -2)


def _sqrt_pair(M):
    """M^(1/2) and M^(-1/2) of a stack of symmetric PSD matrices.

    Eigenvalues are floored at 1e-300 so that the inverse root exists.
    """
    lam, U = np.linalg.eigh(M)
    r = np.sqrt(np.maximum(lam, 1e-300))
    return U @ (r[..., :, None] * _t(U)), U @ ((1.0 / r)[..., :, None] * _t(U))


class ConeLayout:
    def __init__(self, blocks):
        """blocks: list of ConeBlock; zero blocks become free coordinates.

        Each coordinate of a nonneg block becomes an SOC(1) cone in `soc_groups[1]`.
        """
        self.dim = sum(b.scalar_len for b in blocks)
        free = []
        soc = {}  # dim -> list of start offsets; a nonneg coordinate is SOC(1)
        psd = {}  # side -> list of start offsets
        off = 0
        for b in blocks:
            L = b.scalar_len
            if b.kind == "nonneg":
                soc.setdefault(1, []).extend(range(off, off + L))
            elif b.kind == "soc":
                soc.setdefault(b.dim, []).append(off)
            elif b.kind == "psd":
                psd.setdefault(b.dim, []).append(off)
            elif b.kind == "zero":
                free.extend(range(off, off + L))
            off += L
        self.free_idx = np.asarray(free, dtype=int)
        self.soc_groups = {d: np.asarray(s, dtype=int) for d, s in sorted(soc.items())}
        self.psd_groups = {n: np.asarray(s, dtype=int) for n, s in sorted(psd.items())}
        self.degree = sum(map(len, soc.values()))
        self.degree += sum(n * len(s) for n, s in psd.items())
        # index matrices for batched access: rows are cones, cols coords
        self._soc_take = {
            d: starts[:, None] + np.arange(d)[None, :] for d, starts in self.soc_groups.items()
        }
        self._psd_take = {
            n: starts[:, None] + np.arange(svec_len(n))[None, :]
            for n, starts in self.psd_groups.items()
        }

    # -- basic vectors -------------------------------------------------------

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        for starts in self.soc_groups.values():
            e[starts] = 1.0
        for side, take in self._psd_take.items():
            e[take] = svec(np.eye(side))
        return e

    def in_interior(self, z: np.ndarray) -> bool:
        for take in self._soc_take.values():
            zz = z[take]
            if np.any(zz[:, 0] - np.linalg.norm(zz[:, 1:], axis=1) <= 0.0):
                return False
        for side, take in self._psd_take.items():
            try:
                np.linalg.cholesky(smat(z[take], side))
            except np.linalg.LinAlgError:
                return False
        return True

    def dot_trace(self, x: np.ndarray, s: np.ndarray) -> float:
        """x . s over cone coordinates only (free coords excluded)."""
        total = 0.0
        for take in (*self._soc_take.values(), *self._psd_take.values()):
            total += float(np.sum(x[take] * s[take]))
        return total

    # -- step to the boundary --------------------------------------------------

    def max_step(self, z: np.ndarray, dz: np.ndarray) -> float:
        """sup { a >= 0 : z + t*dz in cone for all t in [0, a] }.

        z and dz may also be stacks of vectors along a first axis, such as
        the pair (x, s) and its direction (dx, ds): the step is then the
        smallest over the stack, with one pass per cone group for all of it.
        """
        alpha = np.inf
        # np.take keeps each vector's gather C-contiguous, as for a single vector, so
        # the per-cone sums below round alike; z[..., take] would not, and is slower
        for d, take in self._soc_take.items():
            zz, dd = np.take(z, take, axis=-1), np.take(dz, take, axis=-1)
            # no cone is left later than its head reaches zero; for d = 1 that
            # is the exact step, which the double root of the quadratic may
            # lose to rounding, so the quadratic is skipped there
            alpha = min(alpha, _ray_step(zz[..., 0], dd[..., 0]))
            if d > 1:
                a = dd[..., 0] ** 2 - _tail_dot(dd, dd)
                bq = 2.0 * (zz[..., 0] * dd[..., 0] - _tail_dot(zz, dd))
                cq = zz[..., 0] ** 2 - _tail_dot(zz, zz)
                steps = _soc_boundary_steps(a, bq, cq, zz[..., 0], dd[..., 0])
                alpha = min(alpha, float(np.min(steps)))
        for side, take in self._psd_take.items():
            Z, D = (smat(np.take(v, take, axis=-1), side) for v in (z, dz))
            tmin = float(np.min(_psd_boundary_rates(Z, D)))
            if tmin < 0:
                alpha = min(alpha, -1.0 / tmin)
        return alpha

    # -- scalings ---------------------------------------------------------------

    def scaling(self, x: np.ndarray, s: np.ndarray) -> "Scaling":
        return Scaling(self, x, s)


def _tail_dot(u, v):
    """The inner products of the tails u[..., 1:] and v[..., 1:] of each cone.

    einsum takes them about 4 times faster than np.sum over a short last
    axis, and for tails of one or two entries it sums in the same order.
    """
    return np.einsum("...i,...i->...", u[..., 1:], v[..., 1:])


def _ray_step(z, dz):
    """The smallest t > 0 where some coordinate of z + t*dz reaches zero (inf if none)."""
    neg = dz < 0
    return float(np.min(-z[neg] / dz[neg])) if np.any(neg) else np.inf


def _soc_boundary_steps(a, b, c, z0, d0):
    """Per cone, the smallest t > 0 where z + t*d leaves a second-order cone.

    (a, b, c) are arrays of the quadratic coefficients of det(z + t*d);
    c > 0 and z0 > 0 at a strictly interior point, so a cone is left
    exactly when its determinant first hits zero (the head stays positive
    until then).  The roots are taken as q/a and c/q with
    q = -(b + sign(b) sqrt(disc)) / 2, which never subtracts nearly equal
    numbers; for a = 0 the second one is the linear root -c/b.  A cone
    with no positive root gives inf.
    """
    disc = b * b - 4.0 * a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.where(b >= 0.0, 1.0, -1.0) * np.sqrt(np.maximum(disc, 0.0)))
        roots = np.stack(
            [np.where(a != 0.0, q / a, np.inf), np.where(q != 0.0, c / q, np.inf)]
        )
        ok = (roots > 0.0) & (z0 + roots * d0 >= -1e-14 * np.maximum(1.0, np.abs(z0)))
    ok &= disc >= 0.0
    return np.min(np.where(ok, roots, np.inf), axis=0)


def _j(u):
    """J u for each row of a (k, d) stack: the tail's sign reversed."""
    ju = u.copy()
    ju[:, 1:] = -ju[:, 1:]
    return ju


def _soc_blocks(q, eta):
    """The dense (k, d, d) blocks eta (2 q q' - J) of a (k, d) stack.

    These are W's blocks for the pair (q, eta) of a `Scaling`, and W^-1's
    for (Jq, 1/eta).
    """
    blocks = (2.0 * q)[:, :, None] * q[:, None, :]
    blocks -= _j(np.eye(q.shape[1]))
    blocks *= eta[:, None, None]
    return blocks


def _psd_boundary_rates(Z, D):
    """Per block of a stack, the smallest generalized eigenvalue w of (D, Z).

    A block with w < 0 leaves the cone at t = -1/w.  Z is whitened by its
    Cholesky factor, or by its eigenvalues if that factorization fails for
    any block of the stack.
    """
    try:
        Wh = np.linalg.inv(np.linalg.cholesky(Z))
    except np.linalg.LinAlgError:
        lam, U = np.linalg.eigh(Z)
        Wh = (1.0 / np.sqrt(np.maximum(lam, 1e-300)))[..., :, None] * _t(U)
    return np.linalg.eigvalsh(Wh @ D @ _t(Wh))[..., 0]


class Scaling:
    """Nesterov-Todd scaling at an interior pair (x, s).

    W satisfies W s = W^{-1} x = lambda; H = W^2 maps s-space to x-space.
    """

    def __init__(self, layout: ConeLayout, x: np.ndarray, s: np.ndarray):
        self.layout = layout

        self._soc = {}
        for d, take in layout._soc_take.items():
            xx, ss = x[take], s[take]
            detx = xx[:, 0] ** 2 - np.sum(xx[:, 1:] ** 2, axis=1)
            dets = ss[:, 0] ** 2 - np.sum(ss[:, 1:] ** 2, axis=1)
            xb = xx / np.sqrt(detx)[:, None]
            sb = ss / np.sqrt(dets)[:, None]
            gamma = np.sqrt((1.0 + np.sum(xb * sb, axis=1)) / 2.0)
            wb = (xb + _j(sb)) / (2.0 * gamma[:, None])
            # W is P(w)^(1/2): built from the Jordan square root of the
            # scaling point, q = (wb + e) / sqrt(2 (1 + wb_0)), q' J q = 1
            q = wb.copy()
            q[:, 0] += 1.0
            q /= np.sqrt(2.0 * (1.0 + wb[:, 0]))[:, None]
            eta = (detx / dets) ** 0.25
            # W = eta (2 q q' - J) and W^-1 = (2 Jq (Jq)' - J) / eta
            W = _soc_blocks(q, eta)
            self._soc[d] = (W, _soc_blocks(_j(q), 1.0 / eta))

        # psd: W u = svec(R U R) with R the square root of the NT point Wm
        self._psd = {}
        for side, take in layout._psd_take.items():
            X, S = smat(x[take], side), smat(s[take], side)
            Sh, Smh = _sqrt_pair(S)
            M = Sh @ X @ Sh
            Mh, _ = _sqrt_pair((M + _t(M)) / 2.0)
            Wm = Smh @ Mh @ Smh  # the NT point: Wm S Wm = X
            R, Rinv = _sqrt_pair((Wm + _t(Wm)) / 2.0)
            self._psd[side] = (R, Rinv)
        # _map, not apply_W: bench/tracing.py times apply_W as a cones.apply span
        self.lmbda = self._map(s, False)

    def _map(self, u, inverse):
        out = np.zeros_like(u)
        k = 1 if inverse else 0
        lay = self.layout
        for d, take in lay._soc_take.items():
            out[take] = np.einsum("kij,kj->ki", self._soc[d][k], u[take])
        for side, take in lay._psd_take.items():
            R = self._psd[side][k]
            V = R @ smat(u[take], side) @ R
            out[take] = svec((V + _t(V)) / 2.0)
        return out

    def apply_W(self, u):
        return self._map(u, False)

    def apply_Winv(self, u):
        return self._map(u, True)

    def apply_Hinv(self, u):
        return self.apply_Winv(self.apply_Winv(u))

    # -- Jordan products against lambda ----------------------------------------

    def jordan(self, u, v):
        """u o v in scaled coordinates."""
        out = np.zeros_like(u)
        lay = self.layout
        for d, take in lay._soc_take.items():
            uu, vv = u[take], v[take]
            prod = np.empty_like(uu)
            prod[:, 0] = np.sum(uu * vv, axis=1)
            prod[:, 1:] = uu[:, :1] * vv[:, 1:] + vv[:, :1] * uu[:, 1:]
            out[take] = prod
        for side, take in lay._psd_take.items():
            U, V = smat(u[take], side), smat(v[take], side)
            out[take] = svec((U @ V + V @ U) / 2.0)
        return out

    def lam_solve(self, d):
        """Solve lambda o u = d for u."""
        out = np.zeros_like(d)
        lay = self.layout
        for take in lay._soc_take.values():
            lam, rhs = self.lmbda[take], d[take]
            l0, l1 = lam[:, 0], lam[:, 1:]
            dt = l0**2 - np.sum(l1**2, axis=1)
            # invert the arrow matrix Arw(lam)
            u0 = (l0 * rhs[:, 0] - np.sum(l1 * rhs[:, 1:], axis=1)) / dt
            u1 = (rhs[:, 1:] - u0[:, None] * l1) / l0[:, None]
            out[take] = np.concatenate([u0[:, None], u1], axis=1)
        for side, take in lay._psd_take.items():
            w, Q = np.linalg.eigh(smat(self.lmbda[take], side))
            Dt = _t(Q) @ smat(d[take], side) @ Q
            denom = (w[..., :, None] + w[..., None, :]) / 2.0
            U = Q @ (Dt / denom) @ _t(Q)
            out[take] = svec((U + _t(U)) / 2.0)
        return out

    # -- KKT assembly: B = A W -----------------------------------------------------

    def scale_columns(self, pattern: "ColumnPattern") -> np.ndarray:
        """Values of B = A W at this scaling, in the order of `pattern`'s entries.

        The SOC entries, nonneg coordinates among them, are one
        `np.bincount` of the products A[r, l] W[l, k] over the pattern's
        precomputed index maps, with the dense blocks of W that `apply_W`
        reads.  For each psd side group, the congruences R M R of the
        pattern's stack of (row, block) matrices are taken by one batched
        matmul.
        """
        w = [np.zeros(0)] + [W.ravel() for W, _ in self._soc.values()]
        dst, a, src = pattern._products
        vals = [np.bincount(dst, a * np.concatenate(w)[src], minlength=pattern._n_soc)]
        for side, blk, M in pattern._psd:
            R = self._psd[side][0][blk]
            vals.append(svec(R @ M @ R).ravel())
        return np.concatenate(vals)


def _touching(A: sp.coo_matrix, take: np.ndarray):
    """Pairs (row of A, cone of `take`) where the row has an entry in the cone.

    `take` is a (k, L) index array.  Returns the pairs' rows and cones, and
    for every entry of A in those columns: its pair, its position in the
    cone and its value.
    """
    k, L = take.shape
    where = np.full(A.shape[1], -1)
    where[take.ravel()] = np.arange(k * L)
    at = where[A.col]
    hit = at >= 0
    cone, pos = np.divmod(at[hit], L)
    pair, which = np.unique(A.row[hit].astype(np.int64) * k + cone, return_inverse=True)
    rows, cones = np.divmod(pair, k)
    return rows, cones, which, pos, A.data[hit]


class ColumnPattern:
    """Structural pattern of B = A W over the cone columns, fixed for a solve.

    W is block diagonal, so a row of A that touches a cone gives B a dense
    row segment over that cone's columns: a dense d-vector per (row, SOC)
    pair, which for a nonneg coordinate, SOC(1), is its one entry, and a
    dense svec row per (row, PSD block) pair.  Free columns have no
    entries.  `rows` and `cols` list B's entries in the order
    `Scaling.scale_columns` returns their values: the SOC groups first,
    then the PSD side groups.  Entries that happen to be zero at some W,
    such as the off-diagonal SOC entries at W = I, are kept, so the pattern
    is the same at every iteration.

    For the SOC entries, `_products` holds, for every product
    A[r, l] W[l, k], the entry it adds to, the value of A and the position
    of W[l, k] among the scaling's flattened blocks.  For each PSD side
    group, `_psd` holds the stack M of (row, block) matrices smat(row of A
    restricted to the block) and the block of each.

    `pairs` lists, for each group in that order, the rows and cones of its
    (row, cone) pairs and the length L of a cone's columns: each pair's L
    values are consecutive, the pairs sorted by row, then cone.
    """

    def __init__(self, layout: ConeLayout, A: sp.spmatrix):
        A = sp.coo_matrix(A)
        rows, cols, dst, avals, src = ([np.zeros(0, dtype=int)] for _ in range(5))
        self.pairs = []
        n = w0 = 0  # entries and W values so far
        for d, take in layout._soc_take.items():
            r, cone, which, pos, a = _touching(A, take)
            self.pairs.append((r, cone, d))
            rows.append(np.repeat(r, d))
            cols.append(take[cone].ravel())
            k = np.arange(d)
            dst.append((n + which[:, None] * d + k).ravel())
            avals.append(np.repeat(a, d))
            src.append((w0 + (cone[which] * d + pos)[:, None] * d + k).ravel())
            n += r.size * d
            w0 += len(take) * d * d
        self._n_soc = n  # entries in SOC columns
        self._products = tuple(np.concatenate(v) for v in (dst, avals, src))
        self._psd = []
        for side, take in layout._psd_take.items():
            r, cone, which, pos, a = _touching(A, take)
            self.pairs.append((r, cone, take.shape[1]))
            vec = np.zeros((r.size, take.shape[1]))
            np.add.at(vec, (which, pos), a)
            rows.append(np.repeat(r, take.shape[1]))
            cols.append(take[cone].ravel())
            self._psd.append((side, cone, smat(vec, side)))
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
