"""Conic programs and their lowering to the standard forms (P) and (D).

A ConicProgram is an affine conic problem over scalar variables grouped
in blocks.  Each block has a domain (free, nonneg, soc, psd); on top of
that the program may carry affine second-order-cone constraints, linear
equalities and linear inequalities.

Lowering targets the two standard forms

    (P)  min c'x   s.t.  Ax = b, x in K
    (D)  max b'y   s.t.  c - A'y in K

with K a product of NonNeg, SecondOrder, Psd and (for (D)) Zero blocks.
PSD variables use svec coordinates: upper triangle row-major with
off-diagonal entries scaled by sqrt(2), so inner products are plain dot
products.
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
    key: tuple
    kind: str  # "free" | "nonneg" | "soc" | "psd"
    dim: int  # psd: side
    start: int

    @property
    def scalar_len(self) -> int:
        if self.kind == "psd":
            return svec_len(self.dim)
        return self.dim


class ConicProgram:
    """Affine conic program; immutable by convention once built."""

    def __init__(self, sense: str = "min", metadata: dict | None = None):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self.metadata = dict(metadata or {})
        self.var_blocks: list[VarBlock] = []
        self._index: dict[tuple, VarBlock] = {}
        self.num_vars = 0
        self.soc_constraints: list[tuple] = []  # (rows: list[dict], consts: list[float])
        self.equalities: list[tuple] = []  # (row: dict, rhs: float)
        self.inequalities: list[tuple] = []  # row . v <= rhs
        self.objective: dict = {}
        self.objective_const = 0.0

    def add_var_block(self, key, kind, dim) -> VarBlock:
        key = tuple(key)
        if key in self._index:
            raise ValueError(f"duplicate variable block {key}")
        blk = VarBlock(key, kind, dim, self.num_vars)
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

    def add_soc_constraint(self, rows, consts):
        if len(rows) != len(consts) or len(rows) < 2:
            raise ValueError("soc constraint needs matching rows/consts, dim >= 2")
        self.soc_constraints.append(([dict(r) for r in rows], [float(v) for v in consts]))

    def add_eq(self, row, rhs):
        self.equalities.append((dict(row), float(rhs)))

    def add_ineq(self, row, rhs):
        self.inequalities.append((dict(row), float(rhs)))

    def set_objective(self, coeffs, const=0.0):
        self.objective = dict(coeffs)
        self.objective_const = float(const)

    # -- inventory ----------------------------------------------------------

    def cone_inventory(self) -> dict:
        inv = {"nonneg": 0, "soc": 0, "psd": 0, "free": 0}
        for blk in self.var_blocks:
            if blk.kind == "psd":
                inv["psd"] += 1
            elif blk.kind == "soc":
                inv["soc"] += 1
            elif blk.kind == "nonneg":
                inv["nonneg"] += blk.dim
            else:
                inv["free"] += blk.dim
        inv["soc"] += len(self.soc_constraints)
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
    recover: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _rows_to_csr(rows, ncols):
    data, ri, ci = [], [], []
    for r, row in enumerate(rows):
        for cidx, v in row.items():
            if v != 0.0:
                ri.append(r)
                ci.append(cidx)
                data.append(float(v))
    return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), ncols))


def _substitutable_free_vars(prog: ConicProgram):
    """Free scalars with a defining soc row of the shape  u_r = a*v_j + f.

    Such a variable is represented directly by the auxiliary cone
    coordinate in the (P) lowering (v_j = (u_r - f)/a substituted in all
    its other occurrences) instead of being split into a difference of
    nonnegatives, which degrades the scaling near convergence.
    Returns {var_index: (constraint_idx, row_idx, coef, const)}.
    """
    free_idx = set()
    for blk in prog.var_blocks:
        if blk.kind == "free":
            free_idx.update(range(blk.start, blk.start + blk.scalar_len))
    if not free_idx:
        return {}
    subs = {}
    for ci, (rows, consts) in enumerate(prog.soc_constraints):
        for ri, row in enumerate(rows):
            if len(row) != 1:
                continue
            (j, a), = row.items()
            if j in free_idx and j not in subs and a != 0.0:
                subs[j] = (ci, ri, float(a), float(consts[ri]))
    return subs


def to_standard_form(prog: ConicProgram, form: str) -> StandardForm:
    if form not in ("P", "D"):
        raise LoweringError(f"form must be 'P' or 'D', got {form!r}")
    if form == "P":
        return _lower_primal(prog)
    return _lower_dual(prog)


def _lower_primal(prog: ConicProgram) -> StandardForm:
    subs = _substitutable_free_vars(prog)
    sub_by_row = {(ci, ri): (j, a, f) for j, (ci, ri, a, f) in subs.items()}

    K: list[ConeBlock] = []
    col_of: dict[int, tuple] = {}  # prog var index -> ("col", c) | ("split", cp, cn)
    ncols = 0

    for blk in prog.var_blocks:
        if blk.kind == "free":
            continue
        kind = blk.kind
        K.append(ConeBlock(kind, blk.dim))
        for o in range(blk.scalar_len):
            col_of[blk.start + o] = ("col", ncols + o)
        ncols += blk.scalar_len

    split_vars = [
        j
        for blk in prog.var_blocks
        if blk.kind == "free"
        for j in range(blk.start, blk.start + blk.scalar_len)
        if j not in subs
    ]
    if split_vars:
        pos0 = ncols
        K.append(ConeBlock("nonneg", len(split_vars)))
        ncols += len(split_vars)
        neg0 = ncols
        K.append(ConeBlock("nonneg", len(split_vars)))
        ncols += len(split_vars)
        for k, j in enumerate(split_vars):
            col_of[j] = ("split", pos0 + k, neg0 + k)

    aux_start = {}
    for ci, (rows, consts) in enumerate(prog.soc_constraints):
        aux_start[ci] = ncols
        K.append(ConeBlock("soc", len(rows)))
        ncols += len(rows)
    for j, (ci, ri, a, f) in subs.items():
        # v_j = (u_{ci,ri} - f) / a
        col_of[j] = ("aux", aux_start[ci] + ri, a, f)

    nslack = len(prog.inequalities)
    slack0 = ncols
    if nslack:
        K.append(ConeBlock("nonneg", nslack))
        ncols += nslack

    def emit(row_dict, target_row):
        """Expand a program row into standard-form columns; returns rhs shift."""
        shift = 0.0
        for j, v in row_dict.items():
            loc = col_of[j]
            if loc[0] == "col":
                target_row[loc[1]] = target_row.get(loc[1], 0.0) + v
            elif loc[0] == "split":
                target_row[loc[1]] = target_row.get(loc[1], 0.0) + v
                target_row[loc[2]] = target_row.get(loc[2], 0.0) - v
            else:  # substituted: v_j = (u - f)/a
                _, ucol, a, f = loc
                target_row[ucol] = target_row.get(ucol, 0.0) + v / a
                shift -= v * f / a
        return shift

    rows, rhs = [], []
    for row, r in prog.equalities:
        out = {}
        shift = emit(row, out)
        rows.append(out)
        rhs.append(r - shift)
    for ci, (crows, consts) in enumerate(prog.soc_constraints):
        for ri, (crow, cconst) in enumerate(zip(crows, consts)):
            if (ci, ri) in sub_by_row:
                continue  # this row defines the substituted variable
            out = {aux_start[ci] + ri: 1.0}
            shift = emit({j: -v for j, v in crow.items()}, out)
            rows.append(out)
            rhs.append(cconst - shift)
    for k, (row, u) in enumerate(prog.inequalities):
        out = {slack0 + k: 1.0}
        shift = emit(row, out)
        rows.append(out)
        rhs.append(u - shift)

    cvec = np.zeros(ncols)
    const = prog.objective_const
    for j, v in prog.objective.items():
        loc = col_of[j]
        if loc[0] == "col":
            cvec[loc[1]] += v
        elif loc[0] == "split":
            cvec[loc[1]] += v
            cvec[loc[2]] -= v
        else:
            _, ucol, a, f = loc
            cvec[ucol] += v / a
            const += -v * f / a

    sign = 1.0
    if prog.sense == "max":
        # program objective = -(c'x) + const, the shift is unaffected
        cvec = -cvec
        sign = -1.0

    recover = []
    for j in range(prog.num_vars):
        recover.append(col_of.get(j, ("zero",)))

    A = _rows_to_csr(rows, ncols)
    return StandardForm(
        A=A,
        b=np.asarray(rhs),
        c=cvec,
        K=K,
        form="P",
        obj_sign=sign,
        obj_const=const,
        recover=recover,
        meta=dict(prog.metadata),
    )


def _lower_dual(prog: ConicProgram) -> StandardForm:
    p = prog.num_vars
    K: list[ConeBlock] = []
    at_rows = []  # rows of A' (each a dict over y indices)
    cparts = []

    for blk in prog.var_blocks:
        if blk.kind == "free":
            continue
        K.append(ConeBlock(blk.kind, blk.dim))
        for o in range(blk.scalar_len):
            at_rows.append({blk.start + o: -1.0})
            cparts.append(0.0)
    for rows, consts in prog.soc_constraints:
        K.append(ConeBlock("soc", len(rows)))
        for row, cst in zip(rows, consts):
            at_rows.append({j: -v for j, v in row.items()})
            cparts.append(cst)
    if prog.inequalities:
        K.append(ConeBlock("nonneg", len(prog.inequalities)))
        for row, u in prog.inequalities:
            at_rows.append(dict(row))
            cparts.append(u)
    if prog.equalities:
        K.append(ConeBlock("zero", len(prog.equalities)))
        for row, h in prog.equalities:
            at_rows.append(dict(row))
            cparts.append(h)

    At = _rows_to_csr(at_rows, p)
    A = sp.csr_matrix(At.T)
    obj = np.zeros(p)
    for j, v in prog.objective.items():
        obj[j] = v
    if prog.sense == "max":
        b = obj
        sign = 1.0
    else:
        b = -obj
        sign = -1.0
    recover = [("col", j) for j in range(p)]
    return StandardForm(
        A=A,
        b=b,
        c=np.asarray(cparts),
        K=K,
        form="D",
        obj_sign=sign,
        obj_const=prog.objective_const,
        recover=recover,
        meta=dict(prog.metadata),
    )


def variable_values(sf: StandardForm, solution) -> np.ndarray:
    """Program-space variable values from a solver Solution."""
    if sf.form == "P":
        src = solution.x
    else:
        src = solution.y
    out = np.zeros(len(sf.recover))
    for j, loc in enumerate(sf.recover):
        if loc[0] == "col":
            out[j] = src[loc[1]]
        elif loc[0] == "split":
            out[j] = src[loc[1]] - src[loc[2]]
        elif loc[0] == "aux":
            _, ucol, a, f = loc
            out[j] = (src[ucol] - f) / a
    return out


def program_objective(sf: StandardForm, solution) -> float:
    """Objective of the original program implied by a standard-form solution."""
    # primal_obj is c'x for (P) and b'y for (D), per the solver's convention
    return sf.obj_sign * solution.primal_obj + sf.obj_const


# -- exports ----------------------------------------------------------------


def standard_form_to_json(sf: StandardForm) -> str:
    coo = sf.A.tocoo()
    doc = {
        "form": sf.form,
        "A": [[int(i), int(j), float(v)] for i, j, v in zip(coo.row, coo.col, coo.data)],
        "b": [float(v) for v in sf.b],
        "c": [float(v) for v in sf.c],
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
