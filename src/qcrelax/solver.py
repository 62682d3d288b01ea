"""Primal-dual interior-point solver for the standard conic forms.

Solves  (P) min c'x s.t. Ax = b, x in K  together with its dual
(D) max b'y s.t. c - A'y in K  through the homogeneous self-dual
embedding, with Nesterov-Todd scaling and a Mehrotra predictor-corrector
step.  K may mix NonNeg, SecondOrder and Psd blocks; Zero blocks (which
only the (D) lowering produces) are treated as free coordinates whose
dual slack is pinned at zero.

Each Newton system is the scaled augmented KKT system
K = [[D, B'], [B, 0]]  with B = A W, where W is the NT scaling on cone
columns and the identity on free ones, and D is 1 on cone columns and 0
on free ones (see _KktSolver).  The solve has iterative refinement
against K, and a small diagonal ridge only when a factorization fails
(for example on rank-deficient rows such as redundant pinning
constraints).  A factorization fails when SuperLU or the dense LU raises,
or when the first real solve with it, the (-c, b) system of each step, is
not finite or grows so much that K must be singular to working precision;
no separate probe solve is made.  The system's sparsity pattern and the
index maps into it are built once per solve (see _KktPattern); each
iteration only computes values.

A layout with PSD blocks and no free column (F-SDP and S-SDP in the (P)
form) is solved through the normal equations M = B B', the Schur
complement of K's identity block, whose pattern follows the cone blocks
that rows share: each iteration forms M from B's values by dense
per-block products and factors it alone.  When the first solve of an
iteration leaves the constraint rows off, as M's conditioning, the square
of B's, allows near a degenerate optimum, the solve factors K itself from
then on, in SuperLU's COLAMD order.  Every other layout factors K:
constraint rows that are dense against the others (the quadratic
constraints of S-SOCP in the (P) form) are kept out of the sparse LU and
enter through a small dense Schur complement, so each iteration assembles
the sparse part K_s and the dense rows' columns E directly, and the whole
KKT matrix is never built.  The
fill-reducing ordering of every sparse factor, of M or K_s, follows from
the structure with no trial factorization: symmetric minimum degree,
computed by the first factorization, after which the matrix is laid out
in that order (see _KktPattern); only K after the switch from M takes
COLAMD.

On layouts without PSD blocks (the SOCP relaxations, their duals and LPs)
a Mehrotra step that reaches the boundary before alpha = 1 gets one
multiple-centrality corrector (Gondzio, 1996): the complementarity
products that the step would reach a little past its step length are
clipped into a band around sigma mu, and the direction towards the
clipped products, one more solve with the step's factor, is added if it
lengthens the step (see _centrality_corrector).  It trades that solve for
the factorizations of the iterations it saves.  PSD layouts take none: a
clip of a PSD block needs an eigendecomposition, and their iterations are
dominated by cone work rather than by the factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import ColumnPattern, ConeLayout
from .program import StandardForm

#: tau/kappa ratio below which the embedding is read as an infeasibility certificate
INFEASIBILITY_RATIO = 1e-10

#: first diagonal ridge added to the equilibrated KKT matrix when its factorization fails
RIDGE = 1e-12

#: a constraint row is dense if its KKT column has more than this many times the median row's entries
DENSE_ROW = 10

#: dense rows are split off only if the sparse part keeps at most this share of the KKT entries
SPLIT_SHARE = 0.25

#: iterative refinement steps at most per Newton solve
MAX_REFINE = 8

#: the centrality corrector aims at the trial step min(1, TRIAL_SCALE * alpha + TRIAL_SHIFT)
#: for the Mehrotra direction's step alpha to the boundary, an aim that grows with
#: alpha where Gondzio's (Comput. Optim. Appl. 6, 1996) is alpha + 0.1.  The iteration
#: counts barely move with the aim: the four SOCP builders x (P, D) x n_L 3-5 x seeds
#: 0-1 took 674, 675, 672 and 684 iterations at alpha + 0.2, alpha + 0.3, 2 alpha and
#: 1.5 alpha + 0.1
TRIAL_SCALE, TRIAL_SHIFT = 1.5, 0.1

#: the band [lo, hi] sigma mu into which the corrector moves the complementarity
#: products at the trial step (Gondzio, Comput. Optim. Appl. 6, 1996: beta_min = 0.1,
#: beta_max = 10)
CENTRAL_BAND = (0.1, 10.0)

#: the corrected direction is kept only if its step to the boundary is at least this
#: many times the Mehrotra direction's
ACCEPT_GAIN = 1.01

#: a factor fails if the first solve with it, in equilibrated units, exceeds its
#: right-hand side this many times.  The equilibrated K has entries of at most 1, so
#: cond(K) is at least that ratio.  A pivot at rounding level in an exactly singular K
#: gives about 1 / eps, and a factor made regular by the first ridge at most 1 / RIDGE.
#: On the six relaxations of the lattices (n_L 3-24, both forms) no first solve
#: exceeded 2e3
SINGULAR = 1e-2 / np.finfo(float).eps

#: SuperLU's supernode settings for every factorization: no relaxed supernodes
#: and panels of one column.  Relaxed supernodes pay off on dense fronts, but these
#: KKT factors hold 8-15 entries per column, so the dense-block work costs more than
#: it saves.  On mid-solve factors (one BLAS thread, best of 30) F-SOCP (P) at n_L = 6
#: went from 2.37 to 1.76 ms per factorization and from 0.23 to 0.15 ms per solve,
#: S-SOCP (P) at n_L = 24 from 1.79 to 1.26 ms and 0.35 to 0.21 ms
_UNRELAXED = dict(relax=1, panel_size=1)

#: SuperLU settings for every factorization, of K_s or M, in a symmetric ordering:
#: _UNRELAXED's supernodes, and prefer diagonal pivots.  The threshold is small, as
#: SuperLU's symmetric mode intends: at 0.01, off-diagonal pivots on the zero (2,2)
#: block let the later factors of S-SOCP (P) at n_L = 24 grow to 10 times the fill
#: of the first factorization (1.9 times at 1e-3), and below 1e-3 F-SOCP (P) solves
#: fail
_SYMMETRIC = dict(_UNRELAXED, diag_pivot_thresh=1e-3, options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class SolverConfig:
    tol_gap: float = 1e-8
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.99

    def __post_init__(self):
        # a bool is no number here, though True would compare as 1
        tols = (self.tol_gap, self.tol_primal, self.tol_dual)
        if not all(not isinstance(t, (bool, np.bool_)) and np.isfinite(t) and t > 0 for t in tols):
            raise ValueError("tolerances must be finite and positive")
        if not (0.0 < self.step_fraction < 1.0):
            raise ValueError("step_fraction must lie in (0, 1)")
        it = self.max_iterations
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1:
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass
class Solution:
    status: str  # Optimal | PrimalInfeasible | DualInfeasible | IterationLimit | NumericalFailure
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    primal_obj: float
    dual_obj: float
    iterations: int
    residuals: tuple  # (primal, dual, gap)
    mu_trace: list = field(default_factory=list)


def residuals(sf: StandardForm, sol: Solution) -> tuple:
    """(primal, dual, gap) of a candidate point in standard-form semantics."""
    A, b, c = sf.A, sf.b, sf.c
    return _residuals(A @ sol.x - b, A.T @ sol.y + sol.s - c, b, c, sol.x, sol.y)


def _residuals(rp, rd, b, c, x, y) -> tuple:
    """Relative primal and dual residuals and duality gap of (x, y, s).

    rp = A x - b and rd = A'y + s - c are the point's residual vectors.
    """
    pr = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
    dr = np.linalg.norm(rd) / (1.0 + np.linalg.norm(c))
    cx, by = float(c @ x), float(b @ y)
    gap = abs(cx - by) / (1.0 + abs(cx) + abs(by))
    return (float(pr), float(dr), gap)


def _drop_duplicate_rows(A: sp.csr_matrix, b: np.ndarray):
    """Remove exact duplicates of [A | b] rows; returns (A, b, kept_indices).

    Two rows are duplicates if they store the same column indices and the
    same value bits in the same order, and their b values are equal (so 0.0
    equals -0.0, and a NaN equals nothing).  The first of each set of
    duplicates is kept, in row order.  Rows are compared in one np.unique
    per row length that more than one row has, on the bytes of the rows'
    indices, value bits and b.
    """
    p = A.shape[0]
    lengths = np.diff(A.indptr)
    first = np.arange(p)  # the first row equal to each row
    # adding 0.0 turns -0.0 into 0.0, so that equal b values have equal bits
    bkey = (np.asarray(b, dtype=float) + 0.0).view(np.int64)
    sizes = np.bincount(lengths)
    for n in np.flatnonzero(sizes > 1):
        rows = np.flatnonzero(lengths == n)
        at = A.indptr[rows][:, None] + np.arange(n)
        key = np.column_stack([
            A.indices[at].astype(np.int64),
            A.data[at].astype(float, copy=False).view(np.int64),
            bkey[rows],
        ])
        # each row as one opaque value, compared as bytes
        key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        _, idx, inv = np.unique(key, return_index=True, return_inverse=True)
        first[rows] = rows[idx[inv]]
    first[np.isnan(b)] = np.flatnonzero(np.isnan(b))
    keep = np.flatnonzero(first == np.arange(p))
    if keep.size == p:
        return A, b, None
    warnings.warn(f"dropped {p - keep.size} duplicate constraint rows", stacklevel=3)
    return A[keep], b[keep], keep


class _KktPattern:
    """The Newton system's sparsity pattern, built once per solve, and its factor ordering.

    The Newton subsystem  Hinv u - A' v = g (cone rows), -A_F' v = g_F,
    A u = h  is solved through the symmetric indefinite form

        [[ D,  B' ]  [W^-1 u]   [W g]
         [ B,  0  ]] [  -v  ] = [ h ]

    with B = A W, where W is the identity on the free columns F, so that
    B's free columns are A_F's, and D is 1 on cone columns and 0 on free
    ones: a free column is a column of B with no barrier term.  On free
    coordinates W^-1 u and W g read u_F and g_F.  KKT positions [0, q) are
    the columns of A and [q, q + p) its rows.  B's structural pattern on
    the cone columns (cones.ColumnPattern) depends only on A and the cone
    layout, so K's pattern is fixed for the solve.

    Dense constraint rows are found here too.  A constraint row is dense
    if its KKT column has more than DENSE_ROW times the median constraint
    row's entries, so at least half of the rows stay sparse; columns of A
    are never dense.  They are split off only if the sparse part
    K_s keeps at most SPLIT_SHARE of K's entries: in S-SOCP (P) the
    quadratic-constraint rows span the whole aggregate pattern and hold
    85% of the entries, while in F-SOCP (n_L 4 to 8) they hold 24-52%
    and splitting them made its solves 16-28% slower.  The (2,2) block is
    zero, so the block between two dense rows is too, and K is
    [[K_s, E], [E', 0]] up to a symmetric permutation; `sparse` and `dense`
    are the KKT positions of the two parts, `sparse` in K_s's order.
    Without dense rows, E has no columns and K_s is K.

    K itself is never built.  K_s's CSC pattern and E's scatter map are
    built here, every entry taking its value through `_src` from
    [1 (D on the cone columns), A_F, B on the cone columns].  `assemble`
    fills them in at one scaling: B's values from `Scaling.scale_columns`,
    then the symmetric equilibration Q K Q with
    Q = diag(1/sqrt(max_j |K_ij|)), where K's column maxima are those of
    K_s's columns and E's rows, and of E's columns.

    `factor(ks, e, ridge)` factors K + ridge I and returns its solve: it
    adds the ridge to K_s, factors K_s with SuperLU, and, with dense rows,
    forms Z = K_s^-1 E by one multi-column solve and a dense LU of the
    Schur complement S = ridge I - E' Z, so that each solve is a block
    elimination.  It orders K_s's factors from the KKT structure, with no
    trial factorization, by symmetric minimum degree on K_s + K_s' with
    diagonal pivots preferred.  COLAMD orders for the pattern of K'K and
    leaves the row pivots free: at W = I, MMD's factors hold 36k entries
    against COLAMD's 968k on F-SOCP (P) at n_L = 6, 49k against 416k on
    S-SOCP (D) at n_L = 16, and 22k against 43k on the sparse part of
    S-SOCP (P) at n_L = 16.  Computing the MMD order costs more than a
    numeric factorization, so only the first factorization computes it, and
    its factor is used; K_s is then laid out again in that order, so every
    later `assemble` gives P K_s P' and SuperLU factors it in its natural
    order.

    PSD blocks with no free column (F-SDP and S-SDP in the (P) form) take
    the normal equations instead (`normal`).  D is then the identity, so
    eliminating it from K leaves M = B B', and M_rs can be nonzero only
    where rows r and s touch a common cone; that pattern is fixed for the
    solve and far smaller than K's: on S-SDP at n_L = 12, M is 2308² with
    405k entries and an MMD factor of 0.47M, where K's COLAMD factor held
    5.3M.  `assemble` then gives (M, B, eq) (see _normal_system), with no
    K built and no sparse product, and `factor` factors M alone, in an MMD
    order cached as K_s's is.  `leave_normal` switches to K's pattern, in
    COLAMD's order, for the rest of the solve.
    """

    def __init__(self, A, layout: ConeLayout):
        p, q = A.shape
        free = layout.free_idx
        # one transpose per solve: each A.T builds a new CSC matrix object
        self.A, self.AT, self.free_idx = A, A.T, free
        self.p, self.q = p, q
        self.n = p + q
        # the SuperLU ordering of the next factorization; MMD becomes NATURAL once decided
        self.permc_spec = "MMD_AT_PLUS_A"
        self.columns = ColumnPattern(layout, A)
        # PSD blocks and no free column: F-SDP and S-SDP in the (P) form
        self.normal = bool(layout.psd_groups) and not free.size
        if self.normal:
            self._normal_pattern()
        else:
            self._augmented_pattern()

    def _augmented_pattern(self):
        """K_s's pattern, the dense rows and E's scatter map."""
        q, n, free = self.q, self.n, self.free_idx
        br, bc = self.columns.rows, self.columns.cols
        af = sp.coo_matrix(self.A[:, free])
        af.sum_duplicates()
        fc = free[af.col]
        # values: [1 (D on the cone columns), A_F, B]; each block of B and A_F appears twice
        diag = np.delete(np.arange(q), free)
        a_at = diag.size + np.arange(af.nnz)
        b_at = diag.size + af.nnz + np.arange(br.size)
        rows = np.concatenate([diag, q + br, bc, q + af.row, fc])
        cols = np.concatenate([diag, bc, q + br, fc, q + af.row])
        src = np.concatenate([np.arange(diag.size), b_at, b_at, a_at, a_at])
        self._const = np.concatenate([np.ones(diag.size), af.data])
        self.dense = self._dense_rows(np.bincount(cols, minlength=n))
        is_dense = np.isin(np.arange(n), self.dense)
        self.sparse = np.flatnonzero(~is_dense)
        # each KKT position's row and column in K_s, or its column in E
        at = np.where(is_dense, np.cumsum(is_dense), np.cumsum(~is_dense)) - 1
        # K_s: the entries in no dense row or column
        ks = ~is_dense[rows] & ~is_dense[cols]
        self._set_pattern(at[rows[ks]], at[cols[ks]], src[ks])
        # E: the entries in a dense column (E' repeats them), filled in as E'
        # so that the entries of each dense row are contiguous
        e = is_dense[cols] & ~is_dense[rows]
        self._e_src = src[e]
        self._e_at = at[cols[e]] * self.sparse.size + at[rows[e]]

    def _normal_pattern(self):
        """M's pattern, the per-block products that give its values, and B's CSR pattern.

        M_rs is stored where rows r and s touch a common cone, and on the
        whole diagonal, for the ridge.  The cones of each group are bucketed
        by the number t of rows that touch them: a bucket's B values form a
        (k, t, L) stack V, gathered by its (k, t) pair indices, and the
        entries of V V' add into M's entries through `_g_entry`.
        """
        p = self.p
        # M's rows, in M's order, by KKT position; no row is dense
        self.sparse, self.dense = self.q + np.arange(p), np.empty(0, dtype=int)
        self._e_at = np.empty(0, dtype=int)
        ii, jj, self._blocks = [np.arange(p)], [np.arange(p)], []
        off = 0  # B's values so far
        for r, cone, L in self.columns.pairs:
            counts = np.bincount(cone)
            by_cone = np.argsort(cone, kind="stable")  # rows ascending within a cone
            first = np.cumsum(counts) - counts
            for t in np.unique(counts[counts > 0]):
                pairs = by_cone[first[counts == t][:, None] + np.arange(t)]
                rows = r[pairs]
                ii.append(np.repeat(rows, t, axis=1).ravel())
                jj.append(np.tile(rows, t).ravel())
                self._blocks.append((off, r.size, L, pairs))
            off += r.size * L
        key, self._g_entry = np.unique(
            np.concatenate(ii).astype(np.int64) * p + np.concatenate(jj), return_inverse=True
        )
        self._m_diag, self._g_entry = self._g_entry[:p], self._g_entry[p:]
        i, j = np.divmod(key, p)
        self._set_pattern(i, j, np.arange(key.size))
        br, bc = self.columns.rows, self.columns.cols
        self._b_src = np.lexsort((bc, br))
        self._b_row = br[self._b_src]
        self._b_indices = bc[self._b_src].astype(np.intc)
        counts = np.bincount(br, minlength=p)
        self._b_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intc)

    def leave_normal(self):
        """Factor the augmented K from the next factorization on, in SuperLU's COLAMD order.

        On these PSD (P) systems MMD costs more than it saves: on S-SDP at
        n_L = 12 (seeds 1 and 2, one BLAS thread) the four factorizations of
        K after the switch took 4.2 and 7.2 s in MMD order against 1.7 and
        1.8 s with COLAMD, whose whole solves took 3.7 and 3.8 s.
        """
        self.normal = False
        self.permc_spec = "COLAMD"
        self._augmented_pattern()

    def _dense_rows(self, counts):
        """KKT positions of the constraint rows split off from the sparse factorization.

        `counts` holds the number of entries in each KKT column.
        """
        rows = counts[self.q : self.q + self.p]
        if rows.size == 0:
            return np.empty(0, dtype=int)
        dense = self.q + np.flatnonzero(rows > DENSE_ROW * np.median(rows))
        # no two dense rows share an entry, so each entry of theirs is in E or E'
        if counts.sum() - 2 * counts[dense].sum() > SPLIT_SHARE * counts.sum():
            return np.empty(0, dtype=int)
        return dense

    def _set_pattern(self, r, c, src):
        """K_s's CSC pattern from the rows, columns and value sources of its entries."""
        order = np.lexsort((r, c))
        # gathers through intp indices are about 3 times faster than through
        # the int32 `indices` that SuperLU reads
        self._row = r[order]
        self.indices = self._row.astype(np.intc)
        counts = np.bincount(c, minlength=self.sparse.size)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intc)
        self._src = src[order]
        self._col = c[order]
        self._nonempty = np.flatnonzero(counts)

    def _move(self, at):
        """Lay K_s (or M) out again as P K_s P', row and column i at at[i]; E's rows follow."""
        sparse = np.empty_like(self.sparse)
        sparse[at] = self.sparse
        self.sparse = sparse
        self._set_pattern(at[self._row], at[self._col], self._src)
        row = self._e_at % sparse.size
        self._e_at += at[row] - row

    def assemble(self, scaling):
        """(K_s, E, eq): the equilibrated KKT system at `scaling`, and eq by KKT position.

        With the normal equations it is (M, B, eq) instead (see _normal_system).
        """
        vals = scaling.scale_columns(self.columns)
        if self.normal:
            return self._normal_system(vals)
        vals = np.concatenate([self._const, vals])
        data = vals[self._src]
        et = np.zeros(self.dense.size * self.sparse.size)
        et[self._e_at] = vals[self._e_src]
        et = et.reshape(self.dense.size, self.sparse.size)
        cmax = np.zeros(self.sparse.size)
        cmax[self._nonempty] = np.maximum.reduceat(np.abs(data), self.indptr[self._nonempty])
        abs_et = np.abs(et)
        eq = np.empty(self.n)
        eq[self.sparse] = np.maximum(cmax, abs_et.max(axis=0, initial=0.0))
        eq[self.dense] = abs_et.max(axis=1, initial=0.0)
        eq = 1.0 / np.sqrt(np.maximum(eq, 1e-12))
        eq_s = eq[self.sparse]
        data *= eq_s[self._row] * eq_s[self._col]
        et *= eq[self.dense][:, None] * eq_s
        ks = sp.csc_matrix((data, self.indices, self.indptr), shape=(self.sparse.size,) * 2)
        return ks, et.T, eq

    def _normal_system(self, vals):
        """(M, B, eq) from B's values: M = B B' by per-block products, both equilibrated.

        eq is 1 on the cone columns and 1 / ||B_r|| on row r, so that the
        equilibrated K has rows of unit norm in B, entries of at most 1, and
        M = B B' of it a unit diagonal.  M is laid out as `sparse` gives its
        rows; B keeps the rows in their order.
        """
        g = [np.zeros(0)]
        for off, size, L, pairs in self._blocks:
            V = vals[off : off + size * L].reshape(size, L)[pairs]
            g.append((V @ np.swapaxes(V, 1, 2)).ravel())
        m = np.bincount(self._g_entry, np.concatenate(g), minlength=self._src.size)
        eq = np.ones(self.n)
        eq[self.q :] = 1.0 / np.sqrt(np.maximum(m[self._m_diag], 1e-24))
        eq_m = eq[self.sparse]
        data = m[self._src] * eq_m[self._row] * eq_m[self._col]
        mat = sp.csc_matrix((data, self.indices, self.indptr), shape=(self.p,) * 2)
        b_data = vals[self._b_src] * eq[self.q + self._b_row]
        b = sp.csr_matrix((b_data, self._b_indices, self._b_indptr), shape=(self.p, self.q))
        return mat, b, eq

    def factor(self, ks, e, ridge):
        """Factor K + ridge I from (K_s, E), or (M, B), laid out as `assemble` gives them now.

        Returns a function that solves with the factors.  The factors are
        not checked here: `_KktSolver` reads the first real solve with them
        as their guard.  The first factorization computes the MMD order and
        lays K_s, or M, out again in it; the returned solve keeps the layout
        that the system was assembled in.  Every factorization keeps
        SuperLU's supernodes unrelaxed (see _UNRELAXED).

        With the normal equations, K + ridge I = [[(1 + r) I, B'], [B, r I]]
        for r = ridge, and its Schur complement M - r (1 + r) I is factored
        (see _normal_solve).
        """
        sparse = self.sparse
        if self.normal and ridge:
            ks = ks - ridge * (1.0 + ridge) * sp.eye(ks.shape[0], format="csc")
        elif ridge:
            ks = ks + ridge * sp.eye(ks.shape[0], format="csc")
        if self.permc_spec == "COLAMD":
            lu = spla.splu(ks, **_UNRELAXED)
        else:
            lu = spla.splu(ks, permc_spec=self.permc_spec, **_SYMMETRIC)
        if self.permc_spec == "MMD_AT_PLUS_A":
            # SuperLU factored K_s[o][:, o], o = argsort(perm_c); perm_c is
            # int32, cast so that the relaid `_row` stays intp
            self._move(lu.perm_c.astype(np.intp))
            self.permc_spec = "NATURAL"
        if self.normal:
            # one transpose per factor: each e.T builds a new matrix object
            return partial(_normal_solve, lu, e, e.T, ridge, sparse - self.q)
        if not e.shape[1]:
            return partial(_sparse_solve, lu, sparse)
        z = lu.solve(e)
        schur = ridge * np.eye(e.shape[1]) - e.T @ z
        schur_lu, piv, info = la.lapack.dgetrf(schur)
        if info != 0:
            raise RuntimeError("Schur complement of the dense rows is singular")
        return partial(_block_solve, lu, e, z, (schur_lu, piv), sparse, self.dense)


def _normal_solve(lu, b, bt, ridge, rows, r):
    """x of [[(1 + ridge) I, B'], [B, ridge I]] x = r through the factored Schur complement
    S: t = B r_1 - (1 + ridge) r_2, x_2 = S^-1 t, x_1 = (r_1 - B' x_2) / (1 + ridge).

    S is laid out as rows[k] gives its row k.
    """
    q = b.shape[1]
    t = b @ r[:q] - (1.0 + ridge) * r[q:]
    x = np.empty_like(r)
    x[q + rows] = lu.solve(t[rows])
    x[:q] = (r[:q] - bt @ x[q:]) / (1.0 + ridge)
    return x


def _sparse_solve(lu, sparse, r):
    """x[sparse] = K_s^-1 r[sparse], where K_s is all of K."""
    x = np.empty_like(r)
    x[sparse] = lu.solve(r[sparse])
    return x


def _block_solve(lu, e, z, schur_lu, sparse, dense, r):
    """Block elimination: w = K_s^-1 r_s, S y = r_d - E' w, x_s = w - Z y, x_d = y."""
    w = lu.solve(r[sparse])
    y = la.lu_solve(schur_lu, r[dense] - e.T @ w, check_finite=False)
    x = np.empty_like(r)
    x[sparse] = w - z @ y
    x[dense] = y
    return x


class _KktSolver:
    """Factorization of the scaled Newton system for one NT scaling.

    The system is the one of _KktPattern, K = [[D, B'], [B, 0]] with
    B = A W and D = 1 on cone columns, 0 on free ones.  Working with B
    instead of the normal equations B B' keeps the condition number from
    being squared, which is what limits accuracy near convergence; the
    PSD (P) layouts, whose K is far larger than B B', take the normal
    equations until the first solve of an iteration leaves the constraint
    rows A u = h off by more than solve2's target, and K itself from that
    iteration on (see _KktPattern).  The
    (2,2) block is zero, so the system is not quasi-definite: SuperLU
    factors it with threshold pivoting, in the column order that the pattern
    decides.  `_KktPattern.assemble` gives (K_s, E, eq), and
    `_KktPattern.factor` returns `lu_solve`: block elimination with a dense
    LU of S = -E' Z, Z = K_s^-1 E, with dense rows, and the sparse solve
    of K_s = K without them.  The Schur step is like the normal equations
    on the dense rows alone, and the iterative refinement of `solve2`
    still checks every solve against the unsplit system, through A.  A
    ridge is only introduced when a factorization fails.

    The constructor factors and at once solves the first system (g, h)
    with `solve2`; `first` holds its solution (the step solves (-c, b)
    first at every iteration).  That first real solve is the factor's
    guard, so no probe solve is made.  A factorization fails if SuperLU
    or the Schur complement's LU raises, or if the unrefined solution of
    the first system, in equilibrated units (Q K Q x = Q r with
    Q = diag(eq), so that Q K Q has entries of at most 1), is not finite
    or exceeds its right-hand side SINGULAR times.  The predictor and
    corrector solves reuse the factor unguarded; _hsde stops with
    NumericalFailure if their directions are not finite.  The refinement of
    `solve2` works in the caller's units, on the residuals of the unscaled
    system through A and W, against a target of 1e-11 (1 + |g| + |h|).
    The residual's H^-1 u comes from the W^-1 u that the equilibrated
    solve gives as its first block, carried through the refinement beside
    u: one W^-1 product per residual, where W^-1 W^-1 u would take two.
    """

    def __init__(self, pattern: _KktPattern, scaling, g, h):
        self.pattern = pattern
        self.scaling = scaling
        self.ok = False
        ridge = 0.0
        for _ in range(6):
            # assembled on every try: a failed try may have changed the layout
            ks, e, self.eq = pattern.assemble(scaling)
            try:
                self.lu_solve = pattern.factor(ks, e, ridge)
                self.first = self.solve2(g, h)
                if self.bounded and pattern.normal and not self.rows_met:
                    # M has lost the constraint rows: K itself from this iteration on
                    pattern.leave_normal()
                    continue
                if self.bounded:
                    self.ok = True
                    return
            except RuntimeError:
                pass
            ridge = RIDGE if ridge == 0.0 else ridge * 1e4

    def _raw_solve(self, g, h):
        """(u, w, v) from the factors alone, and whether the solve passes the guard.

        w is the equilibrated solve's own first block: W^-1 u on the cone
        coordinates and u_F on the free ones.
        """
        sc, free, q = self.scaling, self.pattern.free_idx, self.pattern.q
        rhs = np.concatenate([sc.apply_W(g), h])
        rhs[free] = g[free]
        rhs *= self.eq
        sol = self.lu_solve(rhs)
        # false for a non-finite solution too
        bounded = np.linalg.norm(sol) <= SINGULAR * np.linalg.norm(rhs)
        sol *= self.eq
        w = sol[:q]
        u = sc.apply_W(w)
        u[free] = w[free]
        return u, w, -sol[q:], bounded

    def solve2(self, g, h):
        """Solve  Hinv u - A' v = g (cone rows), -A_F' v = g_F,  A u = h.

        Hinv is zero on free coordinates, so the refinement's residual in g
        is one formula for both kinds of rows.  Its Hinv u is W^-1 w, from
        the w = W^-1 u that each raw solve returns beside u, carried through
        the refinement: one W^-1 product per residual.  `bounded` records
        whether the unrefined solve passed the guard, and `rows_met` whether
        the refined solve meets the target in the constraint rows A u = h.
        """
        A, AT, sc = self.pattern.A, self.pattern.AT, self.scaling
        u, w, v, self.bounded = self._raw_solve(g, h)
        target = 1e-11 * (1.0 + np.linalg.norm(g) + np.linalg.norm(h))
        prev = np.inf
        for _ in range(MAX_REFINE):
            r_g = g - (sc.apply_Winv(w) - AT @ v)
            r_h = h - A @ u
            err = np.linalg.norm(r_g) + np.linalg.norm(r_h)
            if not np.isfinite(err) or err <= target or err >= 0.5 * prev:
                break
            prev = err
            du, dw, dv, _ = self._raw_solve(r_g, r_h)
            u = u + du
            w = w + dw
            v = v + dv
        self.rows_met = np.linalg.norm(r_h) <= target
        return u, v


def solve(sf: StandardForm, cfg: SolverConfig | None = None) -> Solution:
    cfg = cfg or SolverConfig()
    A = sp.csr_matrix(sf.A)
    b = np.asarray(sf.b, dtype=float)
    c = np.asarray(sf.c, dtype=float)
    p_full, q = A.shape
    if b.shape != (p_full,) or c.shape != (q,):
        raise ValueError("inconsistent standard-form dimensions")
    layout = ConeLayout(sf.K)
    if layout.dim != q:
        raise ValueError("cone dimensions do not match the number of columns")

    A, b, kept = _drop_duplicate_rows(A, b)
    p = A.shape[0]

    sol = _hsde(A, b, c, layout, cfg)

    if kept is not None:
        y_full = np.zeros(p_full)
        y_full[kept] = sol.y
        sol.y = y_full

    if sf.form == "D":
        # the caller's problem is the maximization side of the pair
        sol.primal_obj, sol.dual_obj = sol.dual_obj, sol.primal_obj
        if sol.status == "PrimalInfeasible":
            sol.status = "DualInfeasible"
        elif sol.status == "DualInfeasible":
            sol.status = "PrimalInfeasible"
        pr, dr, gp = sol.residuals
        sol.residuals = (dr, pr, gp)
    return sol


def _finite(*parts) -> bool:
    """Whether every entry of a Newton direction is finite.

    Only the first solve of an iteration is guarded by _KktSolver; the
    predictor and corrector solves reuse its factor and are checked here,
    before a non-finite direction reaches the step length.
    """
    return all(np.isfinite(part).all() for part in parts)


def _centrality_corrector(sc, direction, boundary, step, alpha, target, tau, kappa):
    """One multiple-centrality corrector on the step's factor: (step, alpha) to take.

    Gondzio's corrector (Comput. Optim. Appl. 6, 1996; Colombo & Gondzio,
    Comput. Optim. Appl. 41, 2008) looks at the complementarity products
    that the Mehrotra step (dx, dy, ds, dtau, dkap) would reach at the
    trial step a = min(1, TRIAL_SCALE alpha + TRIAL_SHIFT), past its step
    alpha to the boundary: v = (lambda + a W^-1 dx) o (lambda + a W ds) in
    scaled coordinates, which is W^-1 (x + a dx) o W (s + a ds), and
    (tau + a dtau)(kappa + a dkap).  The spectral values of each cone's
    v, and the tau-kappa product, are clipped into the band
    CENTRAL_BAND times target = sigma mu (ConeLayout.clip_spectral) to
    give t, and the direction of the complementarity right-hand side
    t - v, with no residual term, is added to the step: the products that
    stray furthest from the central path, which cut the step short, are
    pulled back into the band.  The added direction is one refined solve
    with the step's factor.  The sum is kept if its step to the boundary is
    at least ACCEPT_GAIN alpha, and otherwise, or if it is not finite, the
    Mehrotra step stays.
    """
    dx, _, ds, dtau, dkap = step
    a = min(1.0, TRIAL_SCALE * alpha + TRIAL_SHIFT)
    lo, hi = (beta * target for beta in CENTRAL_BAND)
    lam = sc.lmbda
    v = sc.jordan(lam + a * sc.apply_Winv(dx), lam + a * sc.apply_W(ds))
    vt = (tau + a * dtau) * (kappa + a * dkap)
    t = sc.layout.clip_spectral(v, lo, hi)
    corr = direction(0.0, sc.lam_solve(t - v), min(max(vt, lo), hi) - vt)
    if not _finite(*corr):
        return step, alpha
    trial = tuple(p + d for p, d in zip(step, corr))
    alpha_c = boundary(trial)
    if alpha_c >= ACCEPT_GAIN * alpha:
        return trial, alpha_c
    return step, alpha


def _hsde(A, b, c, layout: ConeLayout, cfg: SolverConfig) -> Solution:
    p, q = A.shape
    nu = layout.degree
    free = layout.free_idx
    e = layout.identity()

    theta = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(c)))
    x = theta * e
    s = theta * e
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0

    mu_trace = []
    res = (np.inf, np.inf, np.inf)
    pattern = _KktPattern(A, layout)
    AT = pattern.AT

    def converged(res):
        pres, dres, gap = res
        return pres <= cfg.tol_primal and dres <= cfg.tol_dual and gap <= cfg.tol_gap

    def make(status, iters):
        if status in ("Optimal", "IterationLimit", "NumericalFailure"):
            xx, yy, ss = x / tau, y / tau, s / tau
        else:
            # infeasibility certificate, normalized for readability
            scale = max(1.0, np.linalg.norm(x), np.linalg.norm(y))
            xx, yy, ss = x / scale, y / scale, s / scale
        return Solution(
            status=status,
            x=xx,
            y=yy,
            s=ss,
            primal_obj=float(c @ xx),
            dual_obj=float(b @ yy),
            iterations=iters,
            residuals=res,
            mu_trace=mu_trace,
        )

    for it in range(cfg.max_iterations):
        # embedding residuals, from one product with A and one with A' per iteration
        ax, aty_s = A @ x, AT @ y + s
        rx = aty_s - c * tau
        ry = ax - b * tau
        # divided by tau they are the residuals of (x, y, s) / tau; a point that
        # meets the tolerances is judged again on the public definition, bit for bit
        xt, yt = x / tau, y / tau
        res = _residuals(ry / tau, rx / tau, b, c, xt, yt)
        if converged(res):
            res = _residuals(A @ xt - b, AT @ yt + s / tau - c, b, c, xt, yt)
            if converged(res):
                return make("Optimal", it)
        if tau < INFEASIBILITY_RATIO * max(1.0, kappa):
            # certificate quality decides between the two infeasible
            # statuses: a Farkas ray must actually satisfy its homogeneous
            # equations, not merely have the right objective sign
            by, cx = float(b @ y), float(c @ x)
            pq = np.linalg.norm(aty_s)
            dq = np.linalg.norm(ax)
            if by > 1e-12 and pq <= 1e-6 * by:
                return make("PrimalInfeasible", it)
            if cx < -1e-12 and dq <= -1e-6 * cx:
                return make("DualInfeasible", it)
            return make("NumericalFailure", it)

        rt = float(c @ x) - float(b @ y) + kappa

        sc = layout.scaling(x, s)
        lam = sc.lmbda
        mu = (layout.dot_trace(x, s) + tau * kappa) / (nu + 1)
        mu_trace.append(float(mu))

        kkt = _KktSolver(pattern, sc, -c, b)
        if not kkt.ok:
            return make("NumericalFailure", it)
        u2, v2 = kkt.first
        den = float(c @ u2) - float(b @ v2) - kappa / tau
        if den >= 0.0:
            # c'u2 - b'v2 equals -|Winv u2|^2 exactly; the direct form can
            # lose its sign to cancellation when the true value is tiny
            den = -float(np.sum(sc.apply_Winv(u2) ** 2)) - kappa / tau
        if den >= 0.0:
            return make("NumericalFailure", it)

        def direction(eta, dtilde, dg):
            # W^-1 dtilde is zero on free coordinates
            g = eta * rx + sc.apply_Winv(dtilde)
            u1, v1 = kkt.solve2(g, -eta * ry)
            num = -eta * rt - float(c @ u1) + float(b @ v1) - dg / tau
            dtau = num / den
            dx = u1 + dtau * u2
            dy = v1 + dtau * v2
            # recover ds from the dual Newton row itself; the algebraic form
            # Winv dtilde - Hinv dx amplifies solve error by cond(W) and lets
            # the dual residual drift once mu is small
            ds = -eta * rx - AT @ dy + c * dtau
            ds[free] = 0.0
            dkap = (dg - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkap

        xs = np.stack([x, s])

        def boundary(step):
            dx, _, ds, dtau, dkap = step
            a = layout.max_step(xs, np.stack([dx, ds]))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkap < 0:
                a = min(a, -kappa / dkap)
            return a

        # predictor
        lam2 = sc.jordan(lam, lam)
        pred = direction(1.0, -lam, -tau * kappa)
        if not _finite(*pred):
            return make("NumericalFailure", it)
        dx_a, _, ds_a, dt_a, dk_a = pred
        alpha_a = min(1.0, boundary(pred))
        mu_aff = (
            layout.dot_trace(x + alpha_a * dx_a, s + alpha_a * ds_a)
            + (tau + alpha_a * dt_a) * (kappa + alpha_a * dk_a)
        ) / (nu + 1)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector
        corr = sc.jordan(sc.apply_Winv(dx_a), sc.apply_W(ds_a))
        dcomb = sc.lam_solve(sigma * mu * e - lam2 - corr)
        dg = sigma * mu - tau * kappa - dt_a * dk_a
        step = direction(1.0 - sigma, dcomb, dg)
        if not _finite(*step):
            return make("NumericalFailure", it)
        alpha = boundary(step)
        if alpha < 1.0 and not layout.psd_groups:
            step, alpha = _centrality_corrector(
                sc, direction, boundary, step, alpha, sigma * mu, tau, kappa
            )
        dx, dy, ds, dtau, dkap = step

        alpha = min(1.0, cfg.step_fraction * alpha)
        for _ in range(30):
            xn, sn = x + alpha * dx, s + alpha * ds
            tn, kn = tau + alpha * dtau, kappa + alpha * dkap
            if tn > 0 and kn > 0 and layout.in_interior(xn) and layout.in_interior(sn):
                break
            alpha *= 0.5
        else:
            return make("NumericalFailure", it)

        x, s = xn, sn
        y = y + alpha * dy
        tau, kappa = tn, kn

    return make("IterationLimit", cfg.max_iterations)
