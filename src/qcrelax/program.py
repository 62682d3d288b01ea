"""Conic programs and their lowering to the standard forms (P) and (D).

A ConicProgram is an affine conic problem over scalar variables grouped
in blocks.  Each block is a run of `count` equal cones of one domain
(free, nonneg, soc, psd), laid out one after another from the block's
start, so a relaxation declares one block per variable family (one soc
block for all its 2x2 minors, say) and reads each family's columns off
that start.  On top of the blocks the program may carry affine
second-order-cone constraints, linear equalities and linear
inequalities.

The rows of each of the three sections (equalities, soc rows,
inequalities) are kept as chunks of COO arrays: row (counted from 0
inside the chunk), column, value and one right-hand side per row, plus
the list of soc dimensions.  `ConicProgram.add_rows` appends one chunk,
so a builder emits thousands of rows with a few numpy operations;
`add_eq`, `add_ineq` and `add_soc_constraint` turn one dict row (or one
constraint of dict rows) into a chunk.  Repeated columns inside a row are
summed and zero coefficients dropped when the rows are lowered.

Lowering targets the two standard forms

    (P)  min c'x   s.t.  Ax = b, x in K
    (D)  max b'y   s.t.  c - A'y in K

with K a product of NonNeg, SecondOrder, Psd and (for (D)) Zero blocks.
PSD variables use svec coordinates: upper triangle row-major with
off-diagonal entries scaled by sqrt(2), so inner products are plain dot
products.

Both forms read the program as matrices over its variables v: the
equalities E v = h, the soc rows S v + s, the inequalities G v <= g and
the objective vector.  The (P) columns are tied to v by one affine map

    v = T x + f

with a 1 in T for each cone-variable column, +1 and -1 on the positive
and negative columns of a split free variable, and 1/a on the auxiliary
soc column u_r of a free variable substituted through its defining row
u_r = a v_j + const (f_j = -const/a).  Then

    A = [E T; I_aux - S T; I_slack + G T],  b = [h - E f; s + S f; g - G f]

(less the defining soc rows), c = T'obj up to the sense, and obj'f joins
the objective constant.  (D) takes y = v, so its map is (I, 0), and
A' = [-I on the cone variables; -S; G; E].  `variable_values` applies
the map kept in `StandardForm.recover`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

SQRT2 = math.sqrt(2.0)


class LoweringError(ValueError):
    """Program cannot be expressed in the requested standard form."""


@dataclass(frozen=True)
class ConeBlock:
    kind: str  # "nonneg" | "soc" | "psd" | "zero"
    dim: int  # psd: matrix side, otherwise scalar count

    def __post_init__(self):
        if self.kind not in ("nonneg", "soc", "psd", "zero"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("cone dimension must be positive")

    @property
    def scalar_len(self) -> int:
        if self.kind == "psd":
            return self.dim * (self.dim + 1) // 2
        return self.dim


def svec_len(side: int) -> int:
    return side * (side + 1) // 2


class SvecIndex(NamedTuple):
    """The svec layout of one matrix side, as read-only index arrays."""

    rows: np.ndarray  # row of each svec coordinate (0-based, rows <= cols)
    cols: np.ndarray  # its column
    scale: np.ndarray  # 1 on the diagonal, sqrt(2) off it
    pos: np.ndarray  # (side, side): svec coordinate of (i, j) and of (j, i)


@functools.lru_cache(maxsize=256)
def svec_index(side: int) -> SvecIndex:
    rows, cols = np.triu_indices(side)
    scale = np.where(rows == cols, 1.0, SQRT2)
    pos = np.empty((side, side), dtype=int)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    for arr in (rows, cols, scale, pos):
        arr.flags.writeable = False
    return SvecIndex(rows, cols, scale, pos)


def svec(mat: np.ndarray) -> np.ndarray:
    """svec of a symmetric matrix, or of each matrix in a (..., side, side) stack."""
    ix = svec_index(mat.shape[-1])
    return mat[..., ix.rows, ix.cols] * ix.scale


def smat(vec: np.ndarray, side: int) -> np.ndarray:
    """Inverse of svec; a (..., L) stack gives a (..., side, side) stack."""
    ix = svec_index(side)
    vec = np.asarray(vec)
    out = np.empty(vec.shape[:-1] + (side, side))
    out[..., ix.rows, ix.cols] = out[..., ix.cols, ix.rows] = vec / ix.scale
    return out


@dataclass(frozen=True)
class VarBlock:
    """A run of `count` equal cones, laid out one after another from `start`."""

    key: tuple
    kind: str  # "free" | "nonneg" | "soc" | "psd"
    dim: int  # of each cone; psd: its side
    start: int
    count: int = 1

    @property
    def scalar_len(self) -> int:
        return self.count * (svec_len(self.dim) if self.kind == "psd" else self.dim)

    @property
    def span(self) -> slice:
        return slice(self.start, self.start + self.scalar_len)


class ConicProgram:
    """Affine conic program; immutable by convention once built.

    The constraints are the equalities E v = h, the soc constraints
    S_k v + s_k in SecondOrder(soc_dims[k]) and the inequalities G v <= g,
    each section stored as the chunks `add_rows` appended.
    """

    SECTIONS = ("eq", "soc", "ineq")

    def __init__(self, sense: str = "min", metadata: dict | None = None):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self.metadata = dict(metadata or {})
        self.var_blocks: list[VarBlock] = []
        self._index: dict[tuple, VarBlock] = {}
        self.num_vars = 0
        # per section: chunks (row, col, val, rhs), rows counted inside the chunk
        self.chunks: dict[str, list[tuple]] = {kind: [] for kind in self.SECTIONS}
        self.soc_dims: list[int] = []  # the soc rows, in order, split into cones
        self.objective: dict = {}
        self.objective_const = 0.0

    def add_var_block(self, key, kind, dim, count=1) -> VarBlock:
        """Declare `count` cones of kind `kind` and dimension `dim` (psd: side) under `key`."""
        key = tuple(key)
        if key in self._index:
            raise ValueError(f"duplicate variable block {key}")
        if kind not in ("free", "nonneg", "soc", "psd"):
            raise ValueError(f"unknown variable kind {kind!r}")
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (dim, count)):
            raise ValueError("block dim and count must be nonnegative integers")
        if kind in ("soc", "psd") and dim < 1:
            raise ValueError(f"a {kind} block needs dim >= 1")
        blk = VarBlock(key, kind, int(dim), self.num_vars, int(count))
        self.var_blocks.append(blk)
        self._index[key] = blk
        self.num_vars += blk.scalar_len
        return blk

    def block(self, key) -> VarBlock:
        return self._index[tuple(key)]

    def index(self, key, offset: int = 0) -> int:
        blk = self.block(key)
        if not (0 <= offset < blk.scalar_len):
            raise IndexError(f"offset {offset} out of range for block {key}")
        return blk.start + offset

    def add_rows(self, kind, row, col, val, rhs, soc_dims=None):
        """Append len(rhs) rows to section `kind` ("eq", "soc" or "ineq").

        Entry k adds val[k] at column col[k] of row row[k], counted from 0
        inside this chunk; repeated columns in a row add up.  For "soc" the
        rows form cones of the dimensions `soc_dims`, in order.
        """
        # copies, so the caller may reuse its arrays
        row = np.array(row, dtype=np.intp)
        col = np.array(col, dtype=np.intp)
        val = np.array(val, dtype=float)
        rhs = np.array(rhs, dtype=float)
        if kind not in self.SECTIONS:
            raise ValueError(f"unknown row section {kind!r}")
        if not (row.ndim == col.ndim == val.ndim == rhs.ndim == 1):
            raise ValueError("row chunk arrays must be one-dimensional")
        if not (row.size == col.size == val.size):
            raise ValueError("row, col and val must have matching lengths")
        if row.size and not (0 <= row.min() and row.max() < rhs.size):
            raise ValueError(f"row index out of range for a chunk of {rhs.size} rows")
        if col.size and not (0 <= col.min() and col.max() < self.num_vars):
            raise ValueError(f"column index out of range for {self.num_vars} variables")
        if kind == "soc":
            dims = np.asarray(() if soc_dims is None else soc_dims, dtype=np.intp)
            if dims.ndim != 1 or dims.sum() != rhs.size or (dims < 2).any():
                raise ValueError("soc constraint needs matching rows/consts, dim >= 2")
            self.soc_dims += dims.tolist()
        elif soc_dims is not None:
            raise ValueError(f"soc_dims given for section {kind!r}")
        self.chunks[kind].append((row, col, val, rhs))

    def _add_dict_rows(self, kind, rows, rhs, soc_dims=None):
        lens = [len(r) for r in rows]
        self.add_rows(
            kind,
            np.repeat(np.arange(len(rows)), lens),
            [j for r in rows for j in r],
            [v for r in rows for v in r.values()],
            rhs,
            soc_dims,
        )

    def add_soc_constraint(self, rows, consts):
        self._add_dict_rows("soc", rows, consts, [len(rows)])

    def add_eq(self, row, rhs):
        self._add_dict_rows("eq", [row], [rhs])

    def add_ineq(self, row, rhs):
        self._add_dict_rows("ineq", [row], [rhs])

    def num_rows(self, kind) -> int:
        return sum(chunk[3].size for chunk in self.chunks[kind])

    def set_objective(self, coeffs, const=0.0):
        self.objective = dict(coeffs)
        self.objective_const = float(const)

    # -- inventory ----------------------------------------------------------

    def cone_inventory(self) -> dict:
        inv = {"nonneg": 0, "soc": 0, "psd": 0, "free": 0}
        for blk in self.var_blocks:
            inv[blk.kind] += blk.count if blk.kind in ("soc", "psd") else blk.scalar_len
        inv["soc"] += len(self.soc_dims)
        return inv


@dataclass
class StandardForm:
    A: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray
    K: list  # of ConeBlock
    form: str  # "P" | "D"
    obj_sign: float = 1.0
    obj_const: float = 0.0
    # (T, f): a sparse (num_vars x columns) matrix and a dense vector; the
    # program variables are T @ x + f for (P) and T @ y + f for (D)
    recover: tuple | None = None
    meta: dict = field(default_factory=dict)


def _section_matrix(prog: ConicProgram, kind: str) -> tuple:
    """(M, rhs) of one row section, its chunks stacked into one CSR matrix."""
    empty = (np.zeros(0, np.intp),) * 2 + (np.zeros(0),) * 2
    rows, cols, vals, rhs = zip(*(prog.chunks[kind] or [empty]))
    starts = np.cumsum([0] + [r.size for r in rhs[:-1]])
    row = np.concatenate([r + start for r, start in zip(rows, starts)])
    rhs = np.concatenate(rhs)
    M = sp.csr_matrix(
        (np.concatenate(vals), (row, np.concatenate(cols))), shape=(rhs.size, prog.num_vars)
    )
    # the conversion sums repeated columns; zeros, given or summed, are dropped
    M.eliminate_zeros()
    return M, rhs


def _row_matrices(prog: ConicProgram) -> tuple:
    """The program's rows as matrices over its variables v.

    Returns (E, h, S, s, G, g, obj): the equalities E v = h, the soc rows
    S v + s of all constraints in order, the inequalities G v <= g and the
    dense objective vector.
    """
    out = []
    for kind in ("eq", "soc", "ineq"):
        out += _section_matrix(prog, kind)
    obj = np.zeros(prog.num_vars)
    obj[list(prog.objective)] = list(prog.objective.values())
    return (*out, obj)


def _free_mask(prog: ConicProgram) -> np.ndarray:
    free = np.zeros(prog.num_vars, dtype=bool)
    for blk in prog.var_blocks:
        if blk.kind == "free":
            free[blk.span] = True
    return free


# one shared instance per (kind, dim): F-SOCP at n_L = 16 has 32,896 equal
# soc cones, and building each one took a large share of its lowering
_cone_block = functools.lru_cache(maxsize=256)(ConeBlock)


def _cone_blocks(prog: ConicProgram) -> list:
    """The cones of the non-free blocks, `count` of each; an empty block adds none."""
    K = []
    for blk in prog.var_blocks:
        if blk.kind != "free" and blk.scalar_len:
            K += [_cone_block(blk.kind, blk.dim)] * blk.count
    return K


def _soc_and_slack_blocks(prog: ConicProgram) -> list:
    """One soc block per soc constraint, then one nonneg block for the inequalities.

    The soc blocks are listed by runs of equal dimension, one cache lookup per run.
    """
    dims = np.asarray(prog.soc_dims, dtype=int)
    first = np.flatnonzero(np.diff(dims, prepend=-1))  # where each run starts
    runs = np.diff(first, append=dims.size)
    K = []
    for d, n in zip(dims[first].tolist(), runs.tolist()):
        K += [_cone_block("soc", d)] * n
    if prog.num_rows("ineq"):
        K.append(ConeBlock("nonneg", prog.num_rows("ineq")))
    return K


def to_standard_form(prog: ConicProgram, form: str) -> StandardForm:
    if form not in ("P", "D"):
        raise LoweringError(f"form must be 'P' or 'D', got {form!r}")
    lower = _lower_primal if form == "P" else _lower_dual
    return lower(prog, *_row_matrices(prog))


def _lower_primal(prog, E, h, S, s, G, g, obj) -> StandardForm:
    # A free scalar v_j with a soc row u_r = a*v_j + const (the first such
    # row) is the auxiliary cone coordinate u_r in disguise: v_j = u_r/a -
    # const/a.  Splitting it into a difference of nonnegatives instead
    # would degrade the scaling near convergence.  Other free scalars split.
    free = _free_mask(prog)
    single = np.flatnonzero(np.diff(S.indptr) == 1)
    single = single[free[S.indices[S.indptr[single]]]]
    sub, first = np.unique(S.indices[S.indptr[single]], return_index=True)
    r = single[first]
    a = S.data[S.indptr[r]]
    cone = np.flatnonzero(~free)
    free[sub] = False
    split = np.flatnonzero(free)

    K = _cone_blocks(prog)
    if split.size:
        K += [ConeBlock("nonneg", split.size)] * 2
    K += _soc_and_slack_blocks(prog)

    # columns: the cone variables, the positive and the negative parts of
    # the split variables, the auxiliary soc coordinates, the slacks
    nx = cone.size + 2 * split.size
    var = np.concatenate([cone, split, split, sub])
    col = np.concatenate([np.arange(nx), nx + r])
    val = np.concatenate([np.ones(cone.size + split.size), -np.ones(split.size), 1.0 / a])
    T = sp.csr_matrix((val, (var, col)), shape=(prog.num_vars, nx + S.shape[0] + G.shape[0]))
    f = np.zeros(prog.num_vars)
    f[sub] = -s[r] / a

    # rows [E T; I_aux - S T; I_slack + G T], less the soc rows that define
    # a substituted variable
    M = sp.vstack([E, -S, G], format="csr")
    nE = E.shape[0]
    J = sp.block_diag([sp.csr_matrix((nE, nx)), sp.identity(M.shape[0] - nE)], format="csr")
    keep = np.delete(np.arange(M.shape[0]), nE + r)
    A = (J + M @ T)[keep]
    A.sort_indices()

    # program objective = sign * c'x + obj_const
    sign = -1.0 if prog.sense == "max" else 1.0
    return StandardForm(
        A=A,
        b=(np.concatenate([h, s, g]) - M @ f)[keep],
        c=sign * (T.T @ obj),
        K=K,
        form="P",
        obj_sign=sign,
        obj_const=float(prog.objective_const + obj @ f),
        recover=(T, f),
        meta=dict(prog.metadata),
    )


def _lower_dual(prog, E, h, S, s, G, g, obj) -> StandardForm:
    K = _cone_blocks(prog)
    K += _soc_and_slack_blocks(prog)
    if E.shape[0]:
        K.append(ConeBlock("zero", E.shape[0]))

    # A' = [-I on the cone variables; -S; G; E]
    p = prog.num_vars
    cone = np.flatnonzero(~_free_mask(prog))
    At = sp.vstack([-sp.identity(p, format="csr")[cone], -S, G, E], format="csr")
    # program objective = sign * b'y + obj_const
    sign = 1.0 if prog.sense == "max" else -1.0
    return StandardForm(
        A=sp.csr_matrix(At.T),
        b=sign * obj,
        c=np.concatenate([np.zeros(cone.size), s, g, h]),
        K=K,
        form="D",
        obj_sign=sign,
        obj_const=prog.objective_const,
        recover=(sp.identity(p, format="csr"), np.zeros(p)),
        meta=dict(prog.metadata),
    )


def variable_values(sf: StandardForm, solution) -> np.ndarray:
    """Program-space variable values from a solver Solution."""
    T, f = sf.recover
    return T @ (solution.x if sf.form == "P" else solution.y) + f


def program_objective(sf: StandardForm, solution) -> float:
    """Objective of the original program implied by a standard-form solution."""
    # primal_obj is c'x for (P) and b'y for (D), per the solver's convention
    return sf.obj_sign * solution.primal_obj + sf.obj_const


# -- exports ----------------------------------------------------------------


def standard_form_to_json(sf: StandardForm) -> str:
    coo = sf.A.tocoo()
    doc = {
        "form": sf.form,
        "A": list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())),
        "b": np.asarray(sf.b, dtype=float).tolist(),
        "c": np.asarray(sf.c, dtype=float).tolist(),
        "cones": [{"kind": blk.kind, "dim": blk.dim} for blk in sf.K],
    }
    return json.dumps(doc, indent=1)


def export_sdpa(sf: StandardForm, path) -> None:
    """Write a (P)-form pure-SDP problem in SDPA sparse format (.dat-s).

    Encodes the problem as the SDPA dual  max F0 . Y, Fi . Y = c_i, Y >= 0
    with Y = the standard-form variable, F0 = -C (our objective is a
    minimization) and Fi the constraint rows.  NonNeg blocks become
    diagonal (negative-size) SDPA blocks.
    """
    if sf.form != "P":
        raise LoweringError("SDPA export requires the (P) form")
    for blk in sf.K:
        if blk.kind not in ("psd", "nonneg"):
            raise LoweringError("SDPA export supports pure-SDP programs only (psd/nonneg blocks)")

    # per standard-form column: SDPA block number, 0-based (i, j), divisor
    parts = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    for k, blk in enumerate(sf.K, start=1):
        if blk.kind == "psd":
            ix = svec_index(blk.dim)
            parts.append((np.full(ix.rows.size, k), ix.rows, ix.cols, ix.scale))
        else:
            diag = np.arange(blk.dim)
            parts.append((np.full(blk.dim, k), diag, diag, np.ones(blk.dim)))
    bno, ii, jj, div = (np.concatenate(a) for a in zip(*parts))

    # F0 = -C as row 0, then the constraint rows; nonzeros in (row, column) order
    A = sp.csr_matrix(sf.A, copy=True)
    A.sum_duplicates()
    c = np.asarray(sf.c, dtype=float)
    ccols = np.flatnonzero(c)
    arow = np.repeat(np.arange(1, A.shape[0] + 1), np.diff(A.indptr))
    row = np.concatenate([np.zeros(ccols.size, dtype=int), arow])
    col = np.concatenate([ccols, A.indices])
    val = np.concatenate([-c[ccols], A.data])
    keep = val != 0.0
    row, col = row[keep], col[keep]
    val = val[keep] / div[col]

    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]} =mDIM\n")
        fh.write(f"{len(sf.K)} =nBLOCK\n")
        sizes = (blk.dim if blk.kind == "psd" else -blk.dim for blk in sf.K)
        fh.write(" ".join(str(s) for s in sizes) + " =bLOCKsTRUCT\n")
        fh.write(" ".join(repr(float(v)) for v in sf.b) + "\n")
        fh.writelines(
            f"{r} {b} {i} {j} {v!r}\n"
            for r, b, i, j, v in zip(
                row.tolist(),
                bno[col].tolist(),
                (ii[col] + 1).tolist(),
                (jj[col] + 1).tolist(),
                val.tolist(),
            )
        )
