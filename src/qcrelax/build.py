"""Builders for the four conic relaxations of a homogenized QCQP.

Given lifted data Q_0..Q_m over S^{n+1}, the relaxations are

* F-SDP:  min Q_0 . X  s.t. Q_k . X <= 0, H_0 . X = 1, X PSD;
* S-SDP:  the clique-decomposed form with one PSD block per maximal
  clique of the chordal extension, overlap equalities and pinning
  (F-SDP is built as the S-SDP with the one clique {1..N});
* F-SOCP: X restricted to the cone of matrices whose 2x2 principal
  minors are PSD, one SecondOrder(3) constraint per pair;
* S-SOCP: 2x2 minors only for pairs in the aggregate pattern, plus
  nonnegativity of the diagonal at isolated vertices.

Duals of the two SOCP relaxations maximize xi subject to the entrywise
matrix equality  Q_0 + sum_k Q_k y_k - H_0 xi = sum W^{ij} (+ sum w_i
e_i e_i').  Every builder returns a ConicProgram whose metadata carries
what the extractors need to map solver output back to matrix entries.
"""

from __future__ import annotations

import numpy as np

from .chordal import ChordalExtension, CliqueSet, OverlapSet
from .model import AggregatePattern, HomogenizedData, aggregate_pattern
from .program import ConicProgram, svec_index
from .sparsemat import SparseSymMatrix


class DecompositionError(ValueError):
    """Matrix support leaves the extended pattern."""


class BuildError(ValueError):
    """Builder inputs are inconsistent."""


def _all_pairs(dim):
    return [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]


def _svec_pos(side, i, j):
    """svec position of the 1-based entry (i, j)."""
    return int(svec_index(side).pos[i - 1, j - 1])


# -- SDP relaxations ---------------------------------------------------------


def decompose_data(Qk: SparseSymMatrix, cs: CliqueSet):
    """Split Qk into per-clique matrices summing exactly to Qk.

    Each entry goes wholly to the first clique (in the stored order)
    whose vertex set covers both indices.
    """
    parts = [dict() for _ in cs.cliques]
    for (i, j), v in Qk.entries.items():
        for u, c in enumerate(cs.cliques):
            if i in c and j in c:
                parts[u][(i, j)] = v
                break
        else:
            raise DecompositionError(f"entry ({i},{j}) not covered by any clique")
    return [SparseSymMatrix(Qk.dim, p) for p in parts]


def build_ssdp(
    data: HomogenizedData, ext: ChordalExtension, cs: CliqueSet, u: OverlapSet
) -> ConicProgram:
    N = data.dim
    cliques = [sorted(c) for c in cs.cliques]
    prog = ConicProgram(
        "min",
        {"kind": "ssdp", "dim": N, "m": data.m, "cliques": cliques},
    )
    local = []  # per clique: vertex -> local 1-based position
    for uidx, verts in enumerate(cliques, start=1):
        prog.add_var_block(("X", uidx), "psd", len(verts))
        local.append({v: k + 1 for k, v in enumerate(verts)})

    def entry_col(uidx, i, j):
        loc = local[uidx - 1]
        return prog.index(("X", uidx), _svec_pos(len(loc), loc[i], loc[j]))

    def row(Q: SparseSymMatrix):
        out = {}
        for uidx, part in enumerate(decompose_data(Q, cs), start=1):
            for (i, j), v in part.entries.items():
                k = entry_col(uidx, i, j)
                out[k] = out.get(k, 0.0) + (v if i == j else np.sqrt(2.0) * v)
        return out

    prog.set_objective(row(data.Q[0]))
    for Qk in data.Q[1:]:
        prog.add_ineq(row(Qk), 0.0)
    for uidx, c in enumerate(cs.cliques, start=1):
        if 1 in c:
            prog.add_eq({entry_col(uidx, 1, 1): 1.0}, 1.0)
    for (i, j, a, b) in sorted(u.entries):
        prog.add_eq({entry_col(a, i, j): 1.0, entry_col(b, i, j): -1.0}, 0.0)
    return prog


def build_fsdp(data: HomogenizedData) -> ConicProgram:
    """The clique SDP with the one clique {1..N}: a single PSD block X."""
    whole = CliqueSet((frozenset(range(1, data.dim + 1)),))
    prog = build_ssdp(data, None, whole, OverlapSet(frozenset()))
    prog.metadata["kind"] = "fsdp"
    return prog


# -- SOCP relaxations --------------------------------------------------------


def _build_socp(data: HomogenizedData, pairs, isolated, kind):
    N = data.dim
    pairs = sorted(pairs)
    isolated = sorted(isolated)
    prog = ConicProgram(
        "min",
        {"kind": kind, "dim": N, "m": data.m, "pairs": pairs, "isolated": isolated},
    )
    # diagonal nonnegativity is implied by the minors for covered vertices
    # and required at isolated ones; declaring all of them nonneg keeps the
    # solution set and avoids free-variable splitting in the (P) lowering
    for i in range(1, N + 1):
        prog.add_var_block(("d", i), "nonneg", 1)
    if pairs:
        prog.add_var_block(("off",), "free", len(pairs))
    off_col = {pair: prog.index(("off",), k) for k, pair in enumerate(pairs)}
    allowed = set(pairs)

    for (i, j) in pairs:
        di, dj = prog.index(("d", i)), prog.index(("d", j))
        prog.add_soc_constraint(
            [{di: 0.5, dj: 0.5}, {di: 0.5, dj: -0.5}, {off_col[(i, j)]: 1.0}],
            [0.0, 0.0, 0.0],
        )

    def row(Q: SparseSymMatrix):
        out = {}
        for (i, j), v in Q.entries.items():
            if i == j:
                out[prog.index(("d", i))] = out.get(prog.index(("d", i)), 0.0) + v
            else:
                if (i, j) not in allowed:
                    raise BuildError(f"data entry ({i},{j}) outside the pattern")
                k = off_col[(i, j)]
                out[k] = out.get(k, 0.0) + 2.0 * v
        return out

    prog.set_objective(row(data.Q[0]))
    for Qk in data.Q[1:]:
        prog.add_ineq(row(Qk), 0.0)
    prog.add_eq(row(data.H0), 1.0)
    return prog


def build_fsocp(data: HomogenizedData) -> ConicProgram:
    return _build_socp(data, _all_pairs(data.dim), [], "fsocp")


def build_ssocp(data: HomogenizedData, pattern: AggregatePattern) -> ConicProgram:
    _check_pattern(data, pattern)
    return _build_socp(data, sorted(pattern.edges), sorted(pattern.isolated), "ssocp")


def _check_pattern(data, pattern):
    actual = aggregate_pattern(data)
    if pattern.edges != actual.edges or pattern.dim != actual.dim:
        raise BuildError("pattern does not match the aggregate pattern of the data")


# -- dual SOCPs ---------------------------------------------------------------


def _build_dual(data: HomogenizedData, pairs, isolated, kind):
    """max xi  s.t.  Q_0 + sum y_k Q_k - H_0 xi = sum W^{ij} + sum w_i e_i e_i'.

    W^{ij} = [[p, r], [r, s]] is carried as the SecondOrder(3) variable
    (h, g, r) with p = h + g, s = h - g; w_i appears only at isolated
    vertices.  The matrix equality is written entrywise over the
    positions that can be nonzero.
    """
    N = data.dim
    pairs = sorted(pairs)
    isolated = sorted(isolated)
    prog = ConicProgram(
        "max",
        {"kind": kind, "dim": N, "m": data.m, "pairs": pairs, "isolated": isolated},
    )
    m = data.m
    if m:
        prog.add_var_block(("y",), "nonneg", m)
    prog.add_var_block(("xi",), "free", 1)
    for (i, j) in pairs:
        prog.add_var_block(("W", i, j), "soc", 3)
    if isolated:
        prog.add_var_block(("w",), "nonneg", len(isolated))
    w_col = {v: prog.index(("w",), k) for k, v in enumerate(isolated)}

    # left-hand coefficients per matrix position
    lhs = {}
    for k, Qk in enumerate(data.Q):
        for pos, v in Qk.entries.items():
            r = lhs.setdefault(pos, {})
            if k == 0:
                r[None] = r.get(None, 0.0) + v
            else:
                col = prog.index(("y",), k - 1)
                r[col] = r.get(col, 0.0) + v
    xi_col = prog.index(("xi",))
    for pos, v in data.H0.entries.items():
        r = lhs.setdefault(pos, {})
        r[xi_col] = r.get(xi_col, 0.0) - v

    positions = [(i, i) for i in range(1, N + 1)] + pairs
    pairset = set(pairs)
    incident = [[] for _ in range(N + 1)]  # pairs at each vertex, in sorted order
    for pair in pairs:
        for v in pair:
            incident[v].append(pair)
    for pos in positions:
        i, j = pos
        row = dict(lhs.get(pos, {}))
        const = row.pop(None, 0.0)
        if i == j:
            for (a, b) in incident[i]:  # p = h + g of W^{ab} at i = a, s = h - g at i = b
                row[prog.index(("W", a, b), 0)] = -1.0
                row[prog.index(("W", a, b), 1)] = -1.0 if a == i else 1.0
            if i in w_col:
                row[w_col[i]] = row.get(w_col[i], 0.0) - 1.0
        else:
            if pos not in pairset:
                raise BuildError(f"data entry {pos} outside the pattern")
            row[prog.index(("W", i, j), 2)] = row.get(prog.index(("W", i, j), 2), 0.0) - 1.0
        # lhs coefficients + const = cone terms, moved to  row . v = -const
        prog.add_eq(row, -const)
    prog.set_objective({xi_col: 1.0})
    return prog


def build_dual_fsocp(data: HomogenizedData) -> ConicProgram:
    return _build_dual(data, _all_pairs(data.dim), [], "dual_fsocp")


def build_dual_ssocp(data: HomogenizedData, pattern: AggregatePattern) -> ConicProgram:
    _check_pattern(data, pattern)
    return _build_dual(data, sorted(pattern.edges), sorted(pattern.isolated), "dual_ssocp")


# -- extraction ---------------------------------------------------------------


def extract_entries(prog: ConicProgram, values: np.ndarray) -> dict:
    """Matrix entries {(i, j): value} implied by program-space values.

    For the full SDP (one clique) this is every upper-triangular position;
    for the clique SDP and the SOCPs it covers the stored pattern only.
    """
    kind = prog.metadata["kind"]
    N = prog.metadata["dim"]
    out = {}
    if kind in ("fsdp", "ssdp"):
        for uidx, verts in enumerate(prog.metadata["cliques"], start=1):
            out.update(_psd_entries(prog, ("X", uidx), verts, values))
    elif kind in ("fsocp", "ssocp"):
        for i in range(1, N + 1):
            out[(i, i)] = values[prog.index(("d", i))]
        for k, (i, j) in enumerate(prog.metadata["pairs"]):
            out[(i, j)] = values[prog.index(("off",), k)]
    else:
        raise BuildError(f"no matrix extraction for kind {kind!r}")
    return out


def _psd_entries(prog, key, verts, values):
    """{(i, j): value} of the psd block `key`, whose rows are the vertices `verts`."""
    blk = prog.block(key)
    ix = svec_index(blk.dim)
    vals = values[blk.start : blk.start + blk.scalar_len] / ix.scale
    verts = np.asarray(verts)
    a, b = verts[ix.rows], verts[ix.cols]
    i, j = np.minimum(a, b), np.maximum(a, b)
    return dict(zip(zip(i.tolist(), j.tolist()), vals.tolist()))


def extract_dual_parts(prog: ConicProgram, values: np.ndarray):
    """(y, xi, W, w) from a dual-program value vector.

    W maps (i, j) to a dense 2x2 block; w maps isolated vertices to
    scalars.
    """
    kind = prog.metadata["kind"]
    if kind not in ("dual_fsocp", "dual_ssocp"):
        raise BuildError(f"no dual extraction for kind {kind!r}")
    m = prog.metadata["m"]
    y = np.array([values[prog.index(("y",), k)] for k in range(m)]) if m else np.zeros(0)
    xi = float(values[prog.index(("xi",))])
    W = {}
    for (i, j) in prog.metadata["pairs"]:
        h = values[prog.index(("W", i, j), 0)]
        g = values[prog.index(("W", i, j), 1)]
        r = values[prog.index(("W", i, j), 2)]
        W[(i, j)] = np.array([[h + g, r], [r, h - g]])
    w = {
        v: float(values[prog.index(("w",), k)])
        for k, v in enumerate(prog.metadata["isolated"])
    }
    return y, xi, W, w
