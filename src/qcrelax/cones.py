"""Symmetric-cone operations for the interior-point solver.

A ConeLayout groups the scalar coordinates of a standard-form variable
into second-order cones, PSD blocks in svec coordinates batched by
matrix side (`psd_groups`) and free coordinates.  A nonnegative
coordinate is the one-dimensional second-order cone SOC(1).  Every
second-order cone, of any dimension, lies in one flat array of the SOC
coordinates in coordinate order (`soc_idx`, with each cone's head at
`soc_heads` and its dimension in `soc_dims`), so each SOC operation is
one pass over all of them: elementwise formulas on the flat array, and
per-cone sums by one `np.bincount` over the cone index.  The PSD
operations run once per side group on (k, side, side) matrix stacks with
batched `eigh`, `cholesky` and `matmul`.  The layout provides the
Jordan-algebra pieces the solver needs: identity element, barrier
degree, strict interior checks, maximum step to the boundary (of one
vector, or of a stack such as the pair (x, s)) and Nesterov-Todd
scalings.
The NT scaling of a second-order cone is W = eta (2 q q' - J), and its
inverse (2 Jq (Jq)' - J) / eta has the same form.  `Scaling` keeps both
in that rank-one form, as flat arrays, and never forms W: W u is one
gather, one per-cone sum and one scatter for all cones (Andersen, Roos &
Terlaky, Math. Prog. 95, 2003, apply the SOC scaling the same way).
`ColumnPattern` is the structural pattern of the KKT block B = A W, fixed
for a solve; `Scaling.scale_columns` fills in its values from the same
rank-one form.  `ConeLayout.clip_spectral` clips the spectral values
v_0 +- |v_bar| of every second-order cone into a band, in closed form from
one per-cone sum; the solver's centrality corrector uses it.

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

        Each coordinate of a nonneg block becomes an SOC(1) cone.
        """
        self.dim = sum(b.scalar_len for b in blocks)
        free, starts, dims = [], [], []  # a nonneg coordinate is SOC(1)
        psd = {}  # side -> list of start offsets
        off = 0
        for b in blocks:
            L = b.scalar_len
            if b.kind == "nonneg":
                starts.extend(range(off, off + L))
                dims.extend([1] * L)
            elif b.kind == "soc":
                starts.append(off)
                dims.append(b.dim)
            elif b.kind == "psd":
                psd.setdefault(b.dim, []).append(off)
            elif b.kind == "zero":
                free.extend(range(off, off + L))
            off += L
        self.free_idx = np.asarray(free, dtype=int)
        # every second-order cone in one flat array, in coordinate order
        self.soc_dims = np.asarray(dims, dtype=int)
        k, n = len(dims), int(self.soc_dims.sum())
        self.soc_heads = np.cumsum(self.soc_dims) - self.soc_dims  # flat position of each head
        self._cone = np.repeat(np.arange(k), self.soc_dims)  # the cone of each flat entry
        self.soc_idx = np.asarray(starts, dtype=int)[self._cone] + (
            np.arange(n) - self.soc_heads[self._cone]
        )
        self._j = -np.ones(n)  # the diagonal of J: 1 on the heads, -1 on the tails
        self._j[self.soc_heads] = 1.0
        self._head_at = self.soc_idx[self.soc_heads]  # the coordinate of each head
        self._multi = self.soc_dims > 1
        # the SOC coordinates as a slice when they are one run, as in every lowering
        # without PSD blocks or free columns inside it: a view, not a gather
        lo = int(self.soc_idx[0]) if n else 0
        run = np.array_equal(self.soc_idx, np.arange(lo, lo + n))
        self._soc_at = slice(lo, lo + n) if run else self.soc_idx
        self.psd_groups = {n: np.asarray(s, dtype=int) for n, s in sorted(psd.items())}
        self.degree = k + sum(n * len(s) for n, s in psd.items())
        self._psd_take = {
            n: starts[:, None] + np.arange(svec_len(n))[None, :]
            for n, starts in self.psd_groups.items()
        }
        self._conic = np.delete(np.arange(self.dim), self.free_idx)

    def _cone_sums(self, w):
        """Per cone, the sum of the flat SOC array w; a stack of them gives a stack.

        One `np.bincount` over the cone index: on the 723 cones of F-SOCP (P)
        at n_L = 6 it takes 4.2 us against 8.5 us for `np.add.reduceat` over
        the heads (one thread of a 2-core Xeon VM).  It adds each cone's
        entries in order, alike for one vector and for a stack.
        """
        k = self.soc_dims.size
        if w.ndim == 1:
            return np.bincount(self._cone, w, minlength=k)
        m = w.shape[0]
        cone = (self._cone + k * np.arange(m)[:, None]).ravel()
        return np.bincount(cone, w.ravel(), minlength=m * k).reshape(m, k)

    def _jdot(self, u, v):
        """Per cone, u' J v of flat SOC arrays (or stacks): the heads' product less the tails'."""
        return self._cone_sums(self._j * u * v)

    # -- basic vectors -------------------------------------------------------

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self._head_at] = 1.0
        for side, take in self._psd_take.items():
            e[take] = svec(np.eye(side))
        return e

    def in_interior(self, z: np.ndarray) -> bool:
        """Whether z is strictly inside the cone; a non-finite entry never is."""
        if not np.isfinite(z).all():
            return False
        zz = z[self._soc_at]
        if np.any(zz[self.soc_heads] <= 0.0) or np.any(self._jdot(zz, zz) <= 0.0):
            return False
        for side, take in self._psd_take.items():
            try:
                np.linalg.cholesky(smat(z[take], side))
            except np.linalg.LinAlgError:
                return False
        return True

    def dot_trace(self, x: np.ndarray, s: np.ndarray) -> float:
        """x . s over cone coordinates only (free coords excluded)."""
        return float(x[self._conic] @ s[self._conic])

    def clip_spectral(self, v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """v with each second-order cone's spectral values clipped into [lo, hi].

        A cone's v = (v_0, v_bar) has the spectral values v_0 +- |v_bar| on
        the frame (1, +-v_bar / |v_bar|) / 2; SOC(1) has the one value v_0.
        Clipping both and putting them back gives the head (l_1 + l_2) / 2
        and the tail v_bar (l_1 - l_2) / (2 |v_bar|), for every dimension
        from one per-cone sum.  A cone whose values are both in the band
        comes back bit for bit, and an SOC(1) coordinate as `np.clip` gives
        it.  PSD and free coordinates pass through unchanged.
        """
        out = v.copy()
        vv = v[self._soc_at]
        v0 = vv[self.soc_heads]
        sq = vv * vv
        sq[self.soc_heads] = 0.0
        nrm = np.sqrt(self._cone_sums(sq))  # |v_bar| per cone
        l1, l2 = v0 + nrm, v0 - nrm
        c1, c2 = np.clip(l1, lo, hi), np.clip(l2, lo, hi)
        moved = (c1 != l1) | (c2 != l2)
        head = np.where(moved, (c1 + c2) / 2.0, v0)
        tail = np.ones_like(nrm)
        np.divide(c1 - c2, 2.0 * nrm, out=tail, where=moved & (nrm > 0.0))
        clipped = vv * tail[self._cone]
        clipped[self.soc_heads] = head
        out[self._soc_at] = clipped
        return out

    # -- step to the boundary --------------------------------------------------

    def max_step(self, z: np.ndarray, dz: np.ndarray) -> float:
        """sup { a >= 0 : z + t*dz in cone for all t in [0, a] }.

        z and dz may also be stacks of vectors along a first axis, such as
        the pair (x, s) and its direction (dx, ds): the step is then the
        smallest over the stack, with one pass over all second-order cones
        and one per PSD side group for all of it.
        """
        # np.take: on a stack it gathers about 3 times faster than z[..., idx]
        z0, d0 = np.take(z, self._head_at, axis=-1), np.take(dz, self._head_at, axis=-1)
        # no cone is left later than its head reaches zero; for d = 1 that is
        # the exact step, which the double root of the quadratic may lose to
        # rounding, so the quadratic's steps only count for d > 1
        alpha = _ray_step(z0, d0)
        if self._multi.any():
            zz, dd = z[..., self._soc_at], dz[..., self._soc_at]
            a, bq, cq = self._jdot(dd, dd), 2.0 * self._jdot(zz, dd), self._jdot(zz, zz)
            steps = _soc_boundary_steps(a, bq, cq, z0, d0)
            alpha = min(alpha, float(np.min(steps, where=self._multi, initial=np.inf)))
        for side, take in self._psd_take.items():
            Z, D = (smat(np.take(v, take, axis=-1), side) for v in (z, dz))
            tmin = float(np.min(_psd_boundary_rates(Z, D)))
            if tmin < 0:
                alpha = min(alpha, -1.0 / tmin)
        return alpha

    # -- scalings ---------------------------------------------------------------

    def scaling(self, x: np.ndarray, s: np.ndarray) -> "Scaling":
        return Scaling(self, x, s)


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
    On the second-order cones W = eta (2 q q' - J) and
    W^-1 = (2 Jq (Jq)' - J) / eta are kept in rank-one form, never as
    matrices: each direction is three flat arrays (v, a, b) over the
    layout's flat SOC coordinates, and the map is u -> a (v'u) - b u per
    cone, with (v, a, b) = (q, 2 eta q, eta J) for W and
    (Jq, 2 Jq / eta, J / eta) for W^-1.  That is one gather, one per-cone
    sum and one scatter for all second-order cones at once.  The PSD
    blocks keep the square root R of the NT point and its inverse, per
    side group.
    """

    def __init__(self, layout: ConeLayout, x: np.ndarray, s: np.ndarray):
        self.layout = lay = layout
        heads, cone, j = lay.soc_heads, lay._cone, lay._j
        xx, ss = x[lay._soc_at], s[lay._soc_at]
        detx, dets = lay._jdot(xx, xx), lay._jdot(ss, ss)
        xb = xx / np.sqrt(detx)[cone]
        sb = ss / np.sqrt(dets)[cone]
        gamma = np.sqrt((1.0 + lay._cone_sums(xb * sb)) / 2.0)
        wb = (xb + j * sb) / (2.0 * gamma)[cone]
        # W is P(w)^(1/2): built from the Jordan square root of the
        # scaling point, q = (wb + e) / sqrt(2 (1 + wb_0)), q' J q = 1
        q = wb.copy()
        q[heads] += 1.0
        q /= np.sqrt(2.0 * (1.0 + wb[heads]))[cone]
        eta = ((detx / dets) ** 0.25)[cone]
        jq = j * q
        # W u = eta (2 q (q'u) - J u) and W^-1 u = (2 Jq ((Jq)'u) - J u) / eta
        self._soc = ((q, 2.0 * eta * q, eta * j), (jq, 2.0 * jq / eta, j / eta))

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
        v, a, b = self._soc[k]
        uu = u[lay._soc_at]
        out[lay._soc_at] = a * lay._cone_sums(v * uu)[lay._cone] - b * uu
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
        """H^-1 u = W^-1 W^-1 u.

        The solver takes its H^-1 products from a W^-1 u it already holds,
        so nothing in the package calls this; it stays because the
        benchmark's tracing wraps it and its smoke test looks it up.
        """
        return self.apply_Winv(self.apply_Winv(u))

    # -- Jordan products against lambda ----------------------------------------

    def jordan(self, u, v):
        """u o v in scaled coordinates."""
        out = np.zeros_like(u)
        lay = self.layout
        heads, cone = lay.soc_heads, lay._cone
        uu, vv = u[lay._soc_at], v[lay._soc_at]
        # tails u_0 v_i + v_0 u_i, heads u'v
        prod = uu[heads][cone] * vv + vv[heads][cone] * uu
        prod[heads] = lay._cone_sums(uu * vv)
        out[lay._soc_at] = prod
        for side, take in lay._psd_take.items():
            U, V = smat(u[take], side), smat(v[take], side)
            out[take] = svec((U @ V + V @ U) / 2.0)
        return out

    def lam_solve(self, d):
        """Solve lambda o u = d for u."""
        out = np.zeros_like(d)
        lay = self.layout
        heads, cone = lay.soc_heads, lay._cone
        lam, rhs = self.lmbda[lay._soc_at], d[lay._soc_at]
        l0 = lam[heads]
        # invert the arrow matrix Arw(lam)
        u0 = lay._jdot(lam, rhs) / lay._jdot(lam, lam)
        u = (rhs - u0[cone] * lam) / l0[cone]
        u[heads] = u0
        out[lay._soc_at] = u
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

        On the second-order cones, nonneg coordinates among them, the row
        segment of B for a (row r, cone) pair is  2 eta t q - eta J A_r
        over the cone, with t = A_r . q; one `np.bincount` over the
        pattern's entries of A gives every pair's t.  For each psd side
        group, the congruences R M R of the pattern's stack of (row, block)
        matrices are taken by one batched matmul.
        """
        q, a, b = self._soc[0]
        pair, at, seg, a_pair, a_at, a_val = pattern._soc
        t = np.bincount(a_pair, a_val * q[a_at], minlength=pattern._n_soc_pairs)
        vals = [a[at] * t[pair] - b[at] * seg]
        for side, blk, M in pattern._psd:
            R = self._psd[side][0][blk]
            vals.append(svec(R @ M @ R).ravel())
        return np.concatenate(vals)


def _touching(A: sp.coo_matrix, cone_of: np.ndarray, pos_of: np.ndarray, group: np.ndarray):
    """Pairs (row of A, cone) where the row has an entry in the cone.

    cone_of[j] is the cone of column j, -1 if it has none, pos_of[j] the
    position that the caller reads back for it, and group[c] the group of
    cone c.  The pairs are sorted by group, then row, then cone.  Returns
    the pairs' rows and cones, and for every entry of A in cone columns:
    its pair, the position of its column and its value.
    """
    cone = cone_of[A.col]
    hit = cone >= 0
    cone, rows = cone[hit], A.row[hit].astype(np.int64)
    k = group.size
    key = (group[cone] * A.shape[0] + rows) * k + cone
    pair, which = np.unique(key, return_inverse=True)
    rows, cones = np.divmod(pair, k)
    return rows % A.shape[0], cones, which, pos_of[A.col[hit]], A.data[hit]


class ColumnPattern:
    """Structural pattern of B = A W over the cone columns, fixed for a solve.

    W is block diagonal, so a row of A that touches a cone gives B a dense
    row segment over that cone's columns: a dense d-vector per (row, SOC)
    pair, which for a nonneg coordinate, SOC(1), is its one entry, and a
    dense svec row per (row, PSD block) pair.  Free columns have no
    entries.  `rows` and `cols` list B's entries in the order
    `Scaling.scale_columns` returns their values: the SOC pairs first,
    then the PSD side groups.  Entries that happen to be zero at some W,
    such as the off-diagonal SOC entries at W = I, are kept, so the pattern
    is the same at every iteration.

    The SOC entries take W in its rank-one form, so no product with an
    entry of W is stored: `_soc` holds, for every entry of B, its pair,
    its position in the layout's flat SOC coordinates and the pair's
    dense segment of A there (zero where A has no entry), and, for every
    entry of A in an SOC column, its pair, its flat position and its
    value.  For each PSD side group, `_psd` holds the stack M of
    (row, block) matrices smat(row of A restricted to the block) and the
    block of each.

    `pairs` lists, for each group in that order, the rows and cones of its
    (row, cone) pairs and the length L of a cone's columns: the SOC pairs
    are grouped by cone dimension, then the PSD pairs by side.  Each
    pair's L values are consecutive, the pairs of a group sorted by row,
    then cone.
    """

    def __init__(self, layout: ConeLayout, A: sp.spmatrix):
        A = sp.coo_matrix(A)
        lay = layout
        # SOC columns: their cone and flat position
        cone_of = np.full(A.shape[1], -1)
        pos_of = np.zeros(A.shape[1], dtype=int)
        cone_of[lay.soc_idx] = lay._cone
        pos_of[lay.soc_idx] = np.arange(lay.soc_idx.size)
        # SOC pairs grouped by dimension, so that each group has one segment length
        r, cone, which, a_at, a = _touching(A, cone_of, pos_of, lay.soc_dims)
        L = lay.soc_dims[cone]
        head = lay.soc_heads[cone]  # flat position of each pair's cone head
        first = np.cumsum(L) - L  # each pair's first entry
        pair = np.repeat(np.arange(r.size), L)
        at = head[pair] + np.arange(pair.size) - first[pair]
        seg = np.bincount(first[which] + a_at - head[which], a, minlength=pair.size)
        self._soc = (pair, at, seg, which, a_at, a)
        self._n_soc_pairs = r.size
        self.pairs = [(r[L == d], cone[L == d], d) for d in np.unique(L)]
        rows, cols = [r[pair]], [lay.soc_idx[at]]
        self._psd = []
        for side, take in layout._psd_take.items():
            k, n = take.shape
            cone_of[:] = -1
            cone_of[take.ravel()] = np.repeat(np.arange(k), n)
            pos_of[take.ravel()] = np.tile(np.arange(n), k)
            r, cone, which, pos, a = _touching(A, cone_of, pos_of, np.zeros(k, dtype=int))
            self.pairs.append((r, cone, n))
            vec = np.zeros((r.size, n))
            np.add.at(vec, (which, pos), a)
            rows.append(np.repeat(r, n))
            cols.append(take[cone].ravel())
            self._psd.append((side, cone, smat(vec, side)))
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
