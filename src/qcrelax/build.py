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
from .model import AggregatePattern, HomogenizedData, aggregate_pairs
from .program import SQRT2, ConicProgram, svec_index
from .sparsemat import stack_entries


class DecompositionError(ValueError):
    """Matrix support leaves the extended pattern."""


class BuildError(ValueError):
    """Builder inputs are inconsistent."""


def _all_pairs(dim) -> np.ndarray:
    """Every pair i < j of 1..dim as a sorted (pairs, 2) array."""
    return np.stack(np.triu_indices(dim, 1), axis=1) + 1


def _pair_index(N, pairs: np.ndarray, i, j) -> np.ndarray:
    """Position of each (i[k], j[k]) in the sorted (n, 2) array `pairs`."""
    keys = pairs[:, 0] * (N + 1) + pairs[:, 1]
    want = i * (N + 1) + j
    at = np.searchsorted(keys, want)
    miss = np.flatnonzero(np.append(keys, -1)[at] != want)
    if miss.size:
        raise BuildError(f"data entry ({i[miss[0]]},{j[miss[0]]}) outside the pattern")
    return at


# -- SDP relaxations ---------------------------------------------------------


def _clique_incidence(cs: CliqueSet, N: int) -> np.ndarray:
    """(cliques, N + 1) booleans: clique u holds vertex v."""
    inc = np.zeros((len(cs.cliques), N + 1), dtype=bool)
    for u, c in enumerate(cs.cliques):
        inc[u, list(c)] = True
    return inc


def _first_clique(inc: np.ndarray, i, j) -> np.ndarray:
    """0-based index of the first clique holding both i[k] and j[k]."""
    cover = inc[:, i] & inc[:, j]
    u = cover.argmax(axis=0)
    miss = np.flatnonzero(~cover[u, np.arange(u.size)])
    if miss.size:
        raise DecompositionError(f"entry ({i[miss[0]]},{j[miss[0]]}) not covered by any clique")
    return u


def build_ssdp(
    data: HomogenizedData, ext: ChordalExtension, cs: CliqueSet, u: OverlapSet
) -> ConicProgram:
    N = data.dim
    cliques = [sorted(c) for c in cs.cliques]
    prog = ConicProgram(
        "min",
        {"kind": "ssdp", "dim": N, "m": data.m, "cliques": cliques},
    )
    for uidx, verts in enumerate(cliques, start=1):
        prog.add_var_block(("X", uidx), "psd", len(verts))
    inc = _clique_incidence(cs, N)
    local = inc.cumsum(axis=1) - 1  # position of vertex v among the sorted clique u
    side = inc.sum(axis=1)
    start = np.array([blk.start for blk in prog.var_blocks], dtype=np.intp)

    def entry_col(u, i, j):
        """Column of the svec coordinate (i, j) of the 0-based clique block u."""
        a, b = local[u, i], local[u, j]
        a, b = np.minimum(a, b), np.maximum(a, b)
        return start[u] + a * side[u] - a * (a - 1) // 2 + (b - a)

    # each data entry goes to the first clique holding both its indices,
    # found once per distinct position (the m + 1 matrices share most)
    k, i, j, v = stack_entries(data.Q)
    pos, at = np.unique(i * (N + 1) + j, return_inverse=True)
    pi, pj = np.divmod(pos, N + 1)
    col = entry_col(_first_clique(inc, pi, pj), pi, pj)[at]
    val = np.where(i == j, v, SQRT2 * v)
    obj = k == 0
    prog.set_objective(dict(zip(col[obj].tolist(), val[obj].tolist())))
    prog.add_rows("ineq", k[~obj] - 1, col[~obj], val[~obj], np.zeros(data.m))

    # X_11 = 1 in every clique holding vertex 1, then one row per overlap
    pin = np.flatnonzero(inc[:, 1])
    ov = np.array(sorted(u.entries), dtype=np.intp).reshape(-1, 4)
    oi, oj, oa, ob = ov.T
    rows = pin.size + np.arange(ov.shape[0])
    prog.add_rows(
        "eq",
        np.concatenate([np.arange(pin.size), rows, rows]),
        np.concatenate([start[pin], entry_col(oa - 1, oi, oj), entry_col(ob - 1, oi, oj)]),
        np.repeat([1.0, 1.0, -1.0], [pin.size, rows.size, rows.size]),
        np.repeat([1.0, 0.0], [pin.size, rows.size]),
    )
    return prog


def build_fsdp(data: HomogenizedData) -> ConicProgram:
    """The clique SDP with the one clique {1..N}: a single PSD block X."""
    whole = CliqueSet((frozenset(range(1, data.dim + 1)),))
    prog = build_ssdp(data, None, whole, OverlapSet(frozenset()))
    prog.metadata["kind"] = "fsdp"
    return prog


# -- SOCP relaxations --------------------------------------------------------


def _metadata(data, P, isolated, kind):
    pairs = list(zip(P[:, 0].tolist(), P[:, 1].tolist()))
    return {"kind": kind, "dim": data.dim, "m": data.m, "pairs": pairs, "isolated": sorted(isolated)}


def _build_socp(data: HomogenizedData, pairs, isolated, kind):
    """The SOCP relaxation with one 2x2 minor per pair; `pairs` lists pairs i < j in sorted order."""
    N = data.dim
    P = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    prog = ConicProgram("min", _metadata(data, P, isolated, kind))
    # diagonal nonnegativity is implied by the minors for covered vertices
    # and required at isolated ones; declaring all of them nonneg keeps the
    # solution set and avoids free-variable splitting in the (P) lowering
    n = len(P)
    d = prog.add_var_block(("d",), "nonneg", 1, N).start - 1  # X_ii at d + i
    o = prog.add_var_block(("off",), "free", n).start  # X_ij of the k-th pair at o + k
    di, dj, off = d + P[:, 0], d + P[:, 1], o + np.arange(n)

    # pair k: soc rows 3k..3k+2 = ((X_ii + X_jj)/2, (X_ii - X_jj)/2, X_ij)
    prog.add_rows(
        "soc",
        (3 * np.arange(n)[:, None] + [0, 0, 1, 1, 2]).ravel(),
        np.column_stack([di, dj, di, dj, off]).ravel(),
        np.tile([0.5, 0.5, 0.5, -0.5, 1.0], n),
        np.zeros(3 * n),
        np.full(n, 3),
    )

    def terms(mats):
        """(k, col, val) of Q . X for each Q in mats: 2 Q_ij on each off-diagonal."""
        k, i, j, v = stack_entries(mats)
        col, two = d + i, i != j
        col[two] = o + _pair_index(N, P, i[two], j[two])
        return k, col, np.where(two, 2.0 * v, v)

    _, col, val = terms(data.Q[:1])
    prog.set_objective(dict(zip(col.tolist(), val.tolist())))
    prog.add_rows("ineq", *terms(data.Q[1:]), np.zeros(data.m))
    prog.add_rows("eq", *terms([data.H0]), [1.0])
    return prog


def build_fsocp(data: HomogenizedData) -> ConicProgram:
    return _build_socp(data, _all_pairs(data.dim), [], "fsocp")


def build_ssocp(data: HomogenizedData, pattern: AggregatePattern) -> ConicProgram:
    return _build_socp(data, _pattern_pairs(data, pattern), pattern.isolated, "ssocp")


def _pattern_pairs(data, pattern) -> np.ndarray:
    """The pattern's edges as a sorted (n, 2) array; they must be the data's aggregate pattern."""
    P = aggregate_pairs(data)
    if pattern.dim != data.dim or len(pattern.edges) != len(P) or not pattern.edges.issuperset(
        zip(P[:, 0].tolist(), P[:, 1].tolist())
    ):
        raise BuildError("pattern does not match the aggregate pattern of the data")
    return P


# -- dual SOCPs ---------------------------------------------------------------


def _build_dual(data: HomogenizedData, pairs, isolated, kind):
    """max xi  s.t.  Q_0 + sum y_k Q_k - H_0 xi = sum W^{ij} + sum w_i e_i e_i'.

    W^{ij} = [[p, r], [r, s]] is carried as the SecondOrder(3) variable
    (h, g, r) with p = h + g, s = h - g; w_i appears only at isolated
    vertices.  The matrix equality is written entrywise over the
    positions that can be nonzero.  `pairs` lists pairs i < j in sorted
    order.
    """
    N = data.dim
    P = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    prog = ConicProgram("max", _metadata(data, P, isolated, kind))
    m, n = data.m, len(P)
    y = prog.add_var_block(("y",), "nonneg", m).start - 1  # y_k at y + k
    xi = prog.add_var_block(("xi",), "free", 1).start
    W = prog.add_var_block(("W",), "soc", 3, n).start + 3 * np.arange(n)  # (h, g, r) per pair
    iso = np.array(prog.metadata["isolated"], dtype=np.intp)
    w = prog.add_var_block(("w",), "nonneg", iso.size).start + np.arange(iso.size)

    # rows: position (i, i) at i - 1, the k-th pair at N + k
    k, i, j, v = stack_entries((*data.Q, data.H0))
    row = i - 1
    row[i != j] = N + _pair_index(N, P, i[i != j], j[i != j])
    # Q_0 is the constant: lhs coefficients + const = cone terms, moved to
    # row . v = -const (-0.0 where Q_0 has no entry)
    const = np.zeros(N + n)
    const[row[k == 0]] = v[k == 0]
    lhs = k > 0
    col = np.where(k <= m, y + k, xi)[lhs]  # y_{k-1}, or xi for H_0
    val = np.where(k <= m, v, -v)[lhs]

    # cone terms: -(h + g) of W^{ab} at (a, a), -(h - g) at (b, b), -r at (a, b);
    # -w_i at (i, i) for an isolated vertex i
    a, b = P[:, 0] - 1, P[:, 1] - 1
    ones = np.ones(n)
    prog.add_rows(
        "eq",
        np.concatenate([row[lhs], a, a, b, b, N + np.arange(n), iso - 1]),
        np.concatenate([col, W, W + 1, W, W + 1, W + 2, w]),
        np.concatenate([val, -ones, -ones, -ones, ones, -ones, -np.ones(iso.size)]),
        -const,
    )
    prog.set_objective({xi: 1.0})
    return prog


def build_dual_fsocp(data: HomogenizedData) -> ConicProgram:
    return _build_dual(data, _all_pairs(data.dim), [], "dual_fsocp")


def build_dual_ssocp(data: HomogenizedData, pattern: AggregatePattern) -> ConicProgram:
    return _build_dual(data, _pattern_pairs(data, pattern), pattern.isolated, "dual_ssocp")


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
        out.update(zip(((i, i) for i in range(1, N + 1)), values[prog.block(("d",)).span]))
        out.update(zip(map(tuple, prog.metadata["pairs"]), values[prog.block(("off",)).span]))
    else:
        raise BuildError(f"no matrix extraction for kind {kind!r}")
    return out


def _psd_entries(prog, key, verts, values):
    """{(i, j): value} of the psd block `key`, whose rows are the vertices `verts`."""
    blk = prog.block(key)
    ix = svec_index(blk.dim)
    vals = values[blk.span] / ix.scale
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
    y = np.array(values[prog.block(("y",)).span], dtype=float)
    xi = float(values[prog.block(("xi",)).start])
    h, g, r = np.reshape(values[prog.block(("W",)).span], (-1, 3)).T
    blocks = np.stack([h + g, r, r, h - g], axis=1).reshape(-1, 2, 2)
    W = dict(zip(map(tuple, prog.metadata["pairs"]), blocks))
    w = dict(zip(prog.metadata["isolated"], map(float, values[prog.block(("w",)).span])))
    return y, xi, W, w
