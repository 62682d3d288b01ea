"""Symmetric-cone operations for the interior-point solver.

A ConeLayout groups the scalar coordinates of a standard-form variable
into nonnegative coordinates, batched second-order cones of equal
dimension, PSD blocks (svec coordinates) and free coordinates.  It
provides the Jordan-algebra pieces the solver needs: identity element,
barrier degree, strict interior checks, maximum step to the boundary and
Nesterov-Todd scalings.

Free coordinates have no associated cone; the solver keeps their dual
slack pinned at zero and they never enter scalings or step lengths.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .program import smat, svec


class ConeLayout:
    def __init__(self, blocks, free_as_zero: bool = False):
        """blocks: list of ConeBlock; zero blocks become free coordinates."""
        self.blocks = list(blocks)
        self.dim = sum(b.scalar_len for b in blocks)
        self.free = []  # coordinate indices
        nn = []
        soc = {}  # dim -> list of start offsets
        psd = []  # (start, side)
        off = 0
        for b in blocks:
            L = b.scalar_len
            if b.kind == "nonneg":
                nn.extend(range(off, off + L))
            elif b.kind == "soc":
                soc.setdefault(b.dim, []).append(off)
            elif b.kind == "psd":
                psd.append((off, b.dim))
            elif b.kind == "zero":
                self.free.extend(range(off, off + L))
            off += L
        self.nn_idx = np.asarray(nn, dtype=int)
        self.soc_groups = {d: np.asarray(starts, dtype=int) for d, starts in sorted(soc.items())}
        self.psd_blocks = psd
        self.free_idx = np.asarray(self.free, dtype=int)
        self.degree = len(nn) + sum(len(s) for s in soc.values()) + sum(side for _, side in psd)
        # index matrices for batched soc access: rows are cones, cols coords
        self._soc_take = {
            d: starts[:, None] + np.arange(d)[None, :] for d, starts in self.soc_groups.items()
        }

    # -- basic vectors -------------------------------------------------------

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.nn_idx] = 1.0
        for d, starts in self.soc_groups.items():
            e[starts] = 1.0
        for start, side in self.psd_blocks:
            e[start : start + side * (side + 1) // 2] = svec(np.eye(side))
        return e

    def in_interior(self, z: np.ndarray, margin: float = 0.0) -> bool:
        if self.nn_idx.size and np.min(z[self.nn_idx]) <= margin:
            return False
        for d, take in self._soc_take.items():
            zz = z[take]
            head = zz[:, 0]
            tail_norm = np.linalg.norm(zz[:, 1:], axis=1)
            if np.any(head - tail_norm <= margin):
                return False
        for start, side in self.psd_blocks:
            M = smat(z[start : start + side * (side + 1) // 2], side)
            try:
                sla.cholesky(M - margin * np.eye(side), lower=True)
            except sla.LinAlgError:
                return False
        return True

    def dot_trace(self, x: np.ndarray, s: np.ndarray) -> float:
        """x . s over cone coordinates only (free coords excluded)."""
        total = float(x[self.nn_idx] @ s[self.nn_idx]) if self.nn_idx.size else 0.0
        for d, take in self._soc_take.items():
            total += float(np.sum(x[take] * s[take]))
        for start, side in self.psd_blocks:
            L = side * (side + 1) // 2
            total += float(x[start : start + L] @ s[start : start + L])
        return total

    # -- step to the boundary --------------------------------------------------

    def max_step(self, z: np.ndarray, dz: np.ndarray) -> float:
        """sup { a >= 0 : z + t*dz in cone for all t in [0, a] }."""
        alpha = np.inf
        if self.nn_idx.size:
            zi, di = z[self.nn_idx], dz[self.nn_idx]
            neg = di < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-zi[neg] / di[neg])))
        for d, take in self._soc_take.items():
            zz, dd = z[take], dz[take]
            a = dd[:, 0] ** 2 - np.sum(dd[:, 1:] ** 2, axis=1)
            bq = 2.0 * (zz[:, 0] * dd[:, 0] - np.sum(zz[:, 1:] * dd[:, 1:], axis=1))
            cq = zz[:, 0] ** 2 - np.sum(zz[:, 1:] ** 2, axis=1)
            alpha = min(alpha, float(np.min(_soc_boundary_steps(a, bq, cq, zz[:, 0], dd[:, 0]))))
        for start, side in self.psd_blocks:
            L = side * (side + 1) // 2
            Z = smat(z[start : start + L], side)
            D = smat(dz[start : start + L], side)
            if np.all(D == 0.0):
                continue
            try:
                w = sla.eigh(D, Z, eigvals_only=True)
                tmin = float(w[0])
            except (sla.LinAlgError, ValueError):
                # fall back to explicit whitening of Z
                lam, U = np.linalg.eigh(Z)
                lam = np.maximum(lam, 1e-300)
                Zmh = U @ np.diag(1.0 / np.sqrt(lam)) @ U.T
                tmin = float(np.linalg.eigvalsh(Zmh @ D @ Zmh)[0])
            if tmin < 0:
                alpha = min(alpha, -1.0 / tmin)
        return alpha

    # -- scalings ---------------------------------------------------------------

    def scaling(self, x: np.ndarray, s: np.ndarray) -> "Scaling":
        return Scaling(self, x, s)


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


class Scaling:
    """Nesterov-Todd scaling at an interior pair (x, s).

    W satisfies W s = W^{-1} x = lambda; H = W^2 maps s-space to x-space.
    """

    def __init__(self, layout: ConeLayout, x: np.ndarray, s: np.ndarray):
        self.layout = layout
        self.lmbda = np.zeros(layout.dim)

        idx = layout.nn_idx
        if idx.size:
            self._nn_w = np.sqrt(x[idx] / s[idx])
            self.lmbda[idx] = np.sqrt(x[idx] * s[idx])
        else:
            self._nn_w = np.zeros(0)

        self._soc = {}
        for d, take in layout._soc_take.items():
            xx, ss = x[take], s[take]
            detx = xx[:, 0] ** 2 - np.sum(xx[:, 1:] ** 2, axis=1)
            dets = ss[:, 0] ** 2 - np.sum(ss[:, 1:] ** 2, axis=1)
            xb = xx / np.sqrt(detx)[:, None]
            sb = ss / np.sqrt(dets)[:, None]
            gamma = np.sqrt((1.0 + np.sum(xb * sb, axis=1)) / 2.0)
            # J reverses the sign of the tail
            jsb = sb.copy()
            jsb[:, 1:] = -jsb[:, 1:]
            wb = (xb + jsb) / (2.0 * gamma[:, None])
            # W is P(w)^(1/2): built from the Jordan square root of the
            # scaling point, q = (wb + e) / sqrt(2 (1 + wb_0)), q' J q = 1
            q = wb.copy()
            q[:, 0] += 1.0
            q /= np.sqrt(2.0 * (1.0 + wb[:, 0]))[:, None]
            eta = (detx / dets) ** 0.25
            self._soc[d] = (q, eta)
            self.lmbda[take] = self._soc_apply(d, q, eta, ss)

        self._psd = []
        for start, side in layout.psd_blocks:
            L = side * (side + 1) // 2
            X = smat(x[start : start + L], side)
            S = smat(s[start : start + L], side)
            ls, Us = np.linalg.eigh(S)
            ls = np.maximum(ls, 1e-300)
            Sh = Us @ (np.sqrt(ls)[:, None] * Us.T)
            Smh = Us @ ((1.0 / np.sqrt(ls))[:, None] * Us.T)
            M = Sh @ X @ Sh
            lm, Um = np.linalg.eigh((M + M.T) / 2.0)
            lm = np.maximum(lm, 1e-300)
            Mh = Um @ (np.sqrt(lm)[:, None] * Um.T)
            Wm = Smh @ Mh @ Smh  # the NT point: Wm S Wm = X
            lw, Uw = np.linalg.eigh((Wm + Wm.T) / 2.0)
            lw = np.maximum(lw, 1e-300)
            R = Uw @ (np.sqrt(lw)[:, None] * Uw.T)
            Rinv = Uw @ ((1.0 / np.sqrt(lw))[:, None] * Uw.T)
            self._psd.append((start, side, R, Rinv))
            Lam = R @ S @ R
            self.lmbda[start : start + L] = svec((Lam + Lam.T) / 2.0)

    # soc helpers: W u = eta (2 wb (wb.u) - J u)
    @staticmethod
    def _soc_apply(d, wb, eta, u):
        dot = np.sum(wb * u, axis=1)
        ju = u.copy()
        ju[:, 1:] = -ju[:, 1:]
        return eta[:, None] * (2.0 * wb * dot[:, None] - ju)

    @staticmethod
    def _soc_apply_inv(d, wb, eta, u):
        jw = wb.copy()
        jw[:, 1:] = -jw[:, 1:]
        dot = np.sum(jw * u, axis=1)
        ju = u.copy()
        ju[:, 1:] = -ju[:, 1:]
        return (2.0 * jw * dot[:, None] - ju) / eta[:, None]

    def _map(self, u, nn_fn, soc_fn, psd_fn):
        out = np.zeros_like(u)
        lay = self.layout
        if lay.nn_idx.size:
            out[lay.nn_idx] = nn_fn(u[lay.nn_idx])
        for d, take in lay._soc_take.items():
            wb, eta = self._soc[d]
            out[take] = soc_fn(d, wb, eta, u[take])
        for start, side, R, Rinv in self._psd:
            L = side * (side + 1) // 2
            U = smat(u[start : start + L], side)
            V = psd_fn(U, R, Rinv)
            out[start : start + L] = svec((V + V.T) / 2.0)
        return out

    def apply_W(self, u):
        return self._map(u, lambda v: self._nn_w * v, self._soc_apply, lambda U, R, Ri: R @ U @ R)

    def apply_Winv(self, u):
        return self._map(
            u, lambda v: v / self._nn_w, self._soc_apply_inv, lambda U, R, Ri: Ri @ U @ Ri
        )

    def apply_H(self, u):
        return self.apply_W(self.apply_W(u))

    def apply_Hinv(self, u):
        return self.apply_Winv(self.apply_Winv(u))

    # -- Jordan products against lambda ----------------------------------------

    def jordan(self, u, v):
        """u o v in scaled coordinates."""
        out = np.zeros_like(u)
        lay = self.layout
        if lay.nn_idx.size:
            out[lay.nn_idx] = u[lay.nn_idx] * v[lay.nn_idx]
        for d, take in lay._soc_take.items():
            uu, vv = u[take], v[take]
            prod = np.empty_like(uu)
            prod[:, 0] = np.sum(uu * vv, axis=1)
            prod[:, 1:] = uu[:, :1] * vv[:, 1:] + vv[:, :1] * uu[:, 1:]
            out[take] = prod
        for start, side, _, _ in self._psd:
            L = side * (side + 1) // 2
            U = smat(u[start : start + L], side)
            V = smat(v[start : start + L], side)
            out[start : start + L] = svec((U @ V + V @ U) / 2.0)
        return out

    def lam_jordan(self, v):
        return self.jordan(self.lmbda, v)

    def lam_solve(self, d):
        """Solve lambda o u = d for u."""
        out = np.zeros_like(d)
        lay = self.layout
        if lay.nn_idx.size:
            out[lay.nn_idx] = d[lay.nn_idx] / self.lmbda[lay.nn_idx]
        for dd, take in lay._soc_take.items():
            lam = self.lmbda[take]
            rhs = d[take]
            l0 = lam[:, 0]
            l1 = lam[:, 1:]
            dt = l0**2 - np.sum(l1**2, axis=1)
            # invert the arrow matrix Arw(lam)
            r0 = rhs[:, 0]
            r1 = rhs[:, 1:]
            u0 = (l0 * r0 - np.sum(l1 * r1, axis=1)) / dt
            u1 = (r1 - u0[:, None] * l1) / l0[:, None]
            out[take] = np.concatenate([u0[:, None], u1], axis=1)
        for start, side, _, _ in self._psd:
            L = side * (side + 1) // 2
            Lam = smat(self.lmbda[start : start + L], side)
            D = smat(d[start : start + L], side)
            w, Q = np.linalg.eigh(Lam)
            Dt = Q.T @ D @ Q
            denom = (w[:, None] + w[None, :]) / 2.0
            Ut = Dt / denom
            U = Q @ Ut @ Q.T
            out[start : start + L] = svec((U + U.T) / 2.0)
        return out

    # -- KKT assembly: B = A W -----------------------------------------------------

    def scale_columns(self, A: sp.csr_matrix) -> sp.csr_matrix:
        """Return B = A W restricted to cone columns (free columns zeroed).

        Nonneg and soc columns are handled with a sparse scaling matrix;
        psd columns with per-row congruences (rows touching psd blocks are
        assumed few relative to the block size).
        """
        lay = self.layout
        p, q = A.shape
        data, ri, ci = [], [], []
        if lay.nn_idx.size:
            ri.append(lay.nn_idx)
            ci.append(lay.nn_idx)
            data.append(self._nn_w)
        for d, take in lay._soc_take.items():
            wb, eta = self._soc[d]
            k = wb.shape[0]
            # dense symmetric d x d blocks: eta (2 wb wb' - J), J = diag(1, -1, ..)
            blocks = 2.0 * wb[:, :, None] * wb[:, None, :]
            jdiag = -np.ones(d)
            jdiag[0] = 1.0
            blocks[:, np.arange(d), np.arange(d)] -= jdiag[None, :]
            blocks *= eta[:, None, None]
            rows = np.broadcast_to(take[:, :, None], (k, d, d))
            cols = np.broadcast_to(take[:, None, :], (k, d, d))
            ri.append(rows.ravel())
            ci.append(cols.ravel())
            data.append(blocks.ravel())
        W = sp.csr_matrix(
            (np.concatenate(data) if data else np.zeros(0),
             (np.concatenate(ri) if ri else np.zeros(0, dtype=int),
              np.concatenate(ci) if ci else np.zeros(0, dtype=int))),
            shape=(q, q),
        )
        B = (A @ W).tolil() if self._psd else A @ W
        for start, side, R, Rinv in self._psd:
            L = side * (side + 1) // 2
            sub = A[:, start : start + L]
            touched = np.unique(sub.nonzero()[0])
            for r in touched:
                vec = np.asarray(sub[r].todense()).ravel()
                M = smat(vec, side)
                B[r, start : start + L] = svec(R @ M @ R)
        return sp.csr_matrix(B)
