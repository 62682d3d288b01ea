import numpy as np
import pytest
import scipy.sparse as sp

from qcrelax.build import (
    BuildError,
    DecompositionError,
    _build_dual,
    build_dual_fsocp,
    build_dual_ssocp,
    build_fsdp,
    build_fsocp,
    build_ssdp,
    build_ssocp,
    extract_dual_parts,
    extract_entries,
)
from qcrelax.chordal import (
    CliqueSet,
    Graph,
    OverlapSet,
    chordal_extension,
    chordal_parts,
    maximal_cliques,
    overlap_set,
)
from qcrelax.generators import LatticeSpec, ZeroDiagSpec, gen_lattice, gen_zero_diag, lattice_edges
from qcrelax.model import HomogenizedData, QcqpInstance, aggregate_pattern, homogenize
from qcrelax.program import (
    ConicProgram,
    program_objective,
    svec_index,
    to_standard_form,
    variable_values,
)
from qcrelax.solver import SolverConfig, solve
from qcrelax.sparsemat import SparseSymMatrix

CFG = SolverConfig()


def one_var_instance():
    # min -x^2 s.t. x^2 <= 1; relaxation value -1
    p0 = SparseSymMatrix(1, {(1, 1): -1.0})
    p1 = SparseSymMatrix(1, {(1, 1): 1.0})
    return QcqpInstance(1, (p0, np.zeros(1), 0.0), ((p1, np.zeros(1), -1.0),))


def lattice_setup(nl=3, m=5, seed=0):
    data = homogenize(gen_lattice(LatticeSpec(nl, m, seed)))
    pat = aggregate_pattern(data)
    g = Graph(data.dim, pat.edges)
    ext = chordal_extension(g)
    cs = maximal_cliques(ext)
    return data, pat, ext, cs, overlap_set(cs)


def solve_obj(prog, form="P"):
    sf = to_standard_form(prog, form)
    sol = solve(sf, CFG)
    assert sol.status == "Optimal", sol.status
    return program_objective(sf, sol), sf, sol


def test_one_variable_exactness():
    data = homogenize(one_var_instance())
    obj, _, _ = solve_obj(build_fsdp(data))
    assert obj == pytest.approx(-1.0, abs=1e-7)
    obj, _, _ = solve_obj(build_fsocp(data))
    assert obj == pytest.approx(-1.0, abs=1e-7)


def test_fsocp_soc_count():
    data, pat, *_ = lattice_setup(3)
    prog = build_fsocp(data)
    N = data.dim
    assert prog.cone_inventory()["soc"] == N * (N - 1) // 2


def test_ssocp_cone_structure():
    for nl in range(2, 6):
        data, pat, *_ = lattice_setup(nl, m=4, seed=1)
        prog = build_ssocp(data, pat)
        inv = prog.cone_inventory()
        assert inv["soc"] == 2 * nl * (nl - 1)
        # one nonnegative diagonal per matrix vertex
        assert inv["nonneg"] == data.dim


def test_decompose_rejects_uncovered_entries():
    # pattern {(1,2)} but data touching (1,3)
    q = SparseSymMatrix(3, {(1, 3): 1.0})
    data = HomogenizedData(3, (q,), SparseSymMatrix(3, {(1, 1): 1.0}))
    g = Graph(3, frozenset({(1, 2)}))
    ext = chordal_extension(g)
    cs = maximal_cliques(ext)
    with pytest.raises(DecompositionError):
        build_ssdp(data, ext, cs, overlap_set(cs))


def test_ssdp_has_one_block_per_clique():
    data, pat, ext, cs, u = lattice_setup(3)
    prog = build_ssdp(data, ext, cs, u)
    assert prog.cone_inventory()["psd"] == len(cs)


def test_all_relaxations_agree_on_small_lattice():
    data, pat, ext, cs, u = lattice_setup(3, m=5, seed=3)
    progs = [
        build_fsdp(data),
        build_ssdp(data, ext, cs, u),
        build_fsocp(data),
        build_ssocp(data, pat),
        build_dual_fsocp(data),
        build_dual_ssocp(data, pat),
    ]
    objs = [solve_obj(p)[0] for p in progs]
    ref = objs[0]
    assert max(objs) - min(objs) <= 1e-6 * (1 + abs(ref))


def test_extract_entries_full_sdp():
    data, *_ = lattice_setup(3)
    prog = build_fsdp(data)
    obj, sf, sol = solve_obj(prog)
    entries = extract_entries(prog, variable_values(sf, sol))
    N = data.dim
    assert len(entries) == N * (N + 1) // 2
    assert entries[(1, 1)] == pytest.approx(1.0, abs=1e-6)
    # objective reproduced from the extracted matrix
    X = np.zeros((N, N))
    for (i, j), v in entries.items():
        X[i - 1, j - 1] = X[j - 1, i - 1] = v
    assert data.Q[0].inner(X) == pytest.approx(obj, abs=1e-5)


def test_sparse_entries_agree_with_full():
    data, pat, ext, cs, u = lattice_setup(3, m=4, seed=5)
    pf = build_fsocp(data)
    ps = build_ssocp(data, pat)
    _, sff, solf = solve_obj(pf)
    _, sfs, sols = solve_obj(ps)
    ef = extract_entries(pf, variable_values(sff, solf))
    es = extract_entries(ps, variable_values(sfs, sols))
    assert set(es) <= set(ef)
    assert es.keys() == {(i, i) for i in range(1, data.dim + 1)} | pat.edges


def test_dual_extraction_shapes():
    data, pat, *_ = lattice_setup(3)
    prog = build_dual_ssocp(data, pat)
    obj, sf, sol = solve_obj(prog)
    y, xi, W, w = extract_dual_parts(prog, variable_values(sf, sol))
    assert y.shape == (data.m,)
    assert np.all(y >= -1e-8)
    assert xi == pytest.approx(obj, abs=1e-7)
    assert set(W) == pat.edges
    assert set(w) == set(pat.isolated)
    for blk in W.values():
        assert blk.shape == (2, 2)
        assert np.linalg.eigvalsh(blk)[0] >= -1e-7


def test_socp_off_pattern_data_rejected():
    q = SparseSymMatrix(3, {(1, 3): 1.0, (1, 1): 1.0})
    from qcrelax.model import HomogenizedData

    data = HomogenizedData(3, (q,), SparseSymMatrix(3, {(1, 1): 1.0}))
    pat_edges = frozenset({(1, 2)})
    from qcrelax.model import AggregatePattern

    pat = AggregatePattern(3, pat_edges, frozenset({3}))
    with pytest.raises(BuildError):
        build_ssocp(data, pat)


# -- the dict-row builders, kept as the oracles of the bulk-row ones ----------


def reference_decompose(Qk, cs):
    parts = [dict() for _ in cs.cliques]
    for (i, j), v in Qk.entries.items():
        for u, c in enumerate(cs.cliques):
            if i in c and j in c:
                parts[u][(i, j)] = v
                break
        else:
            raise DecompositionError(f"entry ({i},{j}) not covered by any clique")
    return [SparseSymMatrix(Qk.dim, p) for p in parts]


def reference_build_ssdp(data, cs, u, kind="ssdp"):
    """One dict per row: each data entry split over the cliques entry by entry."""
    N = data.dim
    cliques = [sorted(c) for c in cs.cliques]
    prog = ConicProgram("min", {"kind": kind, "dim": N, "m": data.m, "cliques": cliques})
    local = []
    for uidx, verts in enumerate(cliques, start=1):
        prog.add_var_block(("X", uidx), "psd", len(verts))
        local.append({v: k + 1 for k, v in enumerate(verts)})

    def entry_col(uidx, i, j):
        loc = local[uidx - 1]
        pos = svec_index(len(loc)).pos[loc[i] - 1, loc[j] - 1]
        return prog.index(("X", uidx), int(pos))

    def row(Q):
        out = {}
        for uidx, part in enumerate(reference_decompose(Q, cs), start=1):
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


def reference_build_socp(data, pairs, isolated, kind):
    """One dict per soc row and per data row."""
    N = data.dim
    pairs, isolated = sorted(pairs), sorted(isolated)
    meta = {"kind": kind, "dim": N, "m": data.m, "pairs": pairs, "isolated": isolated}
    prog = ConicProgram("min", meta)
    for i in range(1, N + 1):
        prog.add_var_block(("d", i), "nonneg", 1)
    if pairs:
        prog.add_var_block(("off",), "free", len(pairs))
    off_col = {pair: prog.index(("off",), k) for k, pair in enumerate(pairs)}
    for (i, j) in pairs:
        di, dj = prog.index(("d", i)), prog.index(("d", j))
        prog.add_soc_constraint(
            [{di: 0.5, dj: 0.5}, {di: 0.5, dj: -0.5}, {off_col[(i, j)]: 1.0}],
            [0.0, 0.0, 0.0],
        )

    def row(Q):
        out = {}
        for (i, j), v in Q.entries.items():
            k = prog.index(("d", i)) if i == j else off_col[(i, j)]
            out[k] = out.get(k, 0.0) + (v if i == j else 2.0 * v)
        return out

    prog.set_objective(row(data.Q[0]))
    for Qk in data.Q[1:]:
        prog.add_ineq(row(Qk), 0.0)
    prog.add_eq(row(data.H0), 1.0)
    return prog


def reference_build_dual(data, pairs, isolated, kind):
    """One dict per matrix position, filled through `prog.index`."""
    N = data.dim
    pairs, isolated = sorted(pairs), sorted(isolated)
    meta = {"kind": kind, "dim": N, "m": data.m, "pairs": pairs, "isolated": isolated}
    prog = ConicProgram("max", meta)
    m = data.m
    if m:
        prog.add_var_block(("y",), "nonneg", m)
    prog.add_var_block(("xi",), "free", 1)
    for (i, j) in pairs:
        prog.add_var_block(("W", i, j), "soc", 3)
    if isolated:
        prog.add_var_block(("w",), "nonneg", len(isolated))
    w_col = {v: prog.index(("w",), k) for k, v in enumerate(isolated)}
    lhs = {}
    for k, Qk in enumerate(data.Q):
        for pos, v in Qk.entries.items():
            r = lhs.setdefault(pos, {})
            col = None if k == 0 else prog.index(("y",), k - 1)
            r[col] = r.get(col, 0.0) + v
    xi_col = prog.index(("xi",))
    for pos, v in data.H0.entries.items():
        r = lhs.setdefault(pos, {})
        r[xi_col] = r.get(xi_col, 0.0) - v
    incident = [[] for _ in range(N + 1)]
    for pair in pairs:
        for v in pair:
            incident[v].append(pair)
    for pos in [(i, i) for i in range(1, N + 1)] + pairs:
        i, j = pos
        row = dict(lhs.get(pos, {}))
        const = row.pop(None, 0.0)
        if i == j:
            for (a, b) in incident[i]:
                row[prog.index(("W", a, b), 0)] = -1.0
                row[prog.index(("W", a, b), 1)] = -1.0 if a == i else 1.0
            if i in w_col:
                row[w_col[i]] = row.get(w_col[i], 0.0) - 1.0
        else:
            col = prog.index(("W", i, j), 2)
            row[col] = row.get(col, 0.0) - 1.0
        prog.add_eq(row, -const)  # -0.0 where Q_0 has no entry
    prog.set_objective({xi_col: 1.0})
    return prog


def builder_pairs(data):
    """(name, bulk-row program, dict-row oracle program) for the six builders."""
    pat = aggregate_pattern(data)
    _, cs, u = chordal_parts(pat)
    N = data.dim
    pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    edges, iso = sorted(pat.edges), sorted(pat.isolated)
    whole = CliqueSet((frozenset(range(1, N + 1)),))
    no_overlaps = OverlapSet(frozenset())
    yield "fsdp", build_fsdp(data), reference_build_ssdp(data, whole, no_overlaps, "fsdp")
    yield "ssdp", build_ssdp(data, None, cs, u), reference_build_ssdp(data, cs, u)
    yield "fsocp", build_fsocp(data), reference_build_socp(data, pairs, [], "fsocp")
    yield "ssocp", build_ssocp(data, pat), reference_build_socp(data, edges, iso, "ssocp")
    yield "dual_fsocp", build_dual_fsocp(data), reference_build_dual(data, pairs, [], "dual_fsocp")
    yield "dual_ssocp", build_dual_ssocp(data, pat), reference_build_dual(
        data, edges, iso, "dual_ssocp"
    )


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def csr_same_bytes(a, b):
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    return a.shape == b.shape and all(
        same_bytes(getattr(a, name), getattr(b, name)) for name in ("indptr", "indices", "data")
    )


@pytest.mark.parametrize(
    "inst",
    [LatticeSpec(nl, 20, seed) for nl in (3, 4, 5, 6) for seed in (0, 1)]
    + [ZeroDiagSpec(8, 5, 0.3, 0), ZeroDiagSpec(12, 4, 0.4, 1)],
    ids=str,
)
def test_builders_are_byte_identical_to_the_dict_row_oracles(inst):
    gen = gen_lattice if isinstance(inst, LatticeSpec) else gen_zero_diag
    for name, prog, want_prog in builder_pairs(homogenize(gen(inst))):
        assert prog.metadata == want_prog.metadata, name
        for form in ("P", "D"):
            got, want = to_standard_form(prog, form), to_standard_form(want_prog, form)
            assert csr_same_bytes(got.A, want.A), (name, form)
            assert same_bytes(got.b, want.b) and same_bytes(got.c, want.c), (name, form)
            assert got.K == want.K, (name, form)
            assert csr_same_bytes(got.recover[0], want.recover[0]), (name, form)
            assert same_bytes(got.recover[1], want.recover[1]), (name, form)
            assert (got.obj_sign, got.obj_const) == (want.obj_sign, want.obj_const)
            assert type(got.obj_const) is type(want.obj_const) is float


def test_dual_rhs_keeps_the_sign_of_zero():
    # a position where Q_0 has no entry gets the rhs -0.0, as the dict rows gave it
    data, pat, *_ = lattice_setup(3, m=3, seed=0)
    edges, iso = sorted(pat.edges), sorted(pat.isolated)
    got = to_standard_form(build_dual_ssocp(data, pat), "P").b
    want = to_standard_form(reference_build_dual(data, edges, iso, "dual_ssocp"), "P").b
    assert np.signbit(got[got == 0.0]).any()
    assert same_bytes(np.signbit(got), np.signbit(want))


def hand_built_data():
    """m = 0 and one edge (1, 2), so vertices 3 and 4 are isolated."""
    q0 = SparseSymMatrix(4, {(1, 1): 1.0, (1, 2): 0.5, (3, 3): 2.0})
    return HomogenizedData(4, (q0,), SparseSymMatrix(4, {(1, 1): 1.0}))


def socp_programs(data):
    pat = aggregate_pattern(data)
    yield build_fsocp(data)
    yield build_ssocp(data, pat)
    yield build_dual_fsocp(data)
    yield build_dual_ssocp(data, pat)


def reference_extract_entries(prog, values):
    """The SOCP entries read one scalar at a time through `prog.index`."""
    N = prog.metadata["dim"]
    out = {(i, i): values[prog.index(("d",), i - 1)] for i in range(1, N + 1)}
    for k, (i, j) in enumerate(prog.metadata["pairs"]):
        out[(i, j)] = values[prog.index(("off",), k)]
    return out


def reference_extract_dual_parts(prog, values):
    """(y, xi, W, w) read one scalar at a time through `prog.index`."""
    m = prog.metadata["m"]
    y = np.array([values[prog.index(("y",), k)] for k in range(m)], dtype=float)
    xi = float(values[prog.index(("xi",))])
    W = {}
    for k, (i, j) in enumerate(prog.metadata["pairs"]):
        h, g, r = (values[prog.index(("W",), 3 * k + o)] for o in range(3))
        W[(i, j)] = np.array([[h + g, r], [r, h - g]])
    w = {v: float(values[prog.index(("w",), t)]) for t, v in enumerate(prog.metadata["isolated"])}
    return y, xi, W, w


@pytest.mark.parametrize(
    "data",
    [hand_built_data()]
    + [homogenize(gen_lattice(LatticeSpec(nl, 5, 0))) for nl in (2, 3)]
    + [homogenize(gen_zero_diag(ZeroDiagSpec(8, 5, 0.3, 0)))],
    ids=["hand-built", "lattice-2", "lattice-3", "zero-diag-8"],
)
def test_extractors_read_the_exact_columns(data):
    rng = np.random.default_rng(7)
    for prog in socp_programs(data):
        keys = [blk.key for blk in prog.var_blocks]
        values = rng.standard_normal(prog.num_vars)
        if prog.metadata["kind"].startswith("dual"):
            assert keys == [("y",), ("xi",), ("W",), ("w",)]
            got, want = extract_dual_parts(prog, values), reference_extract_dual_parts(prog, values)
            assert same_bytes(got[0], want[0])
            assert type(got[1]) is float and got[1] == want[1]
            assert list(got[2]) == list(want[2])
            assert all(same_bytes(got[2][key], want[2][key]) for key in want[2])
            assert list(got[3].items()) == list(want[3].items())
            assert all(type(v) is float for v in got[3].values())
        else:
            assert keys == [("d",), ("off",)]
            got, want = extract_entries(prog, values), reference_extract_entries(prog, values)
            assert list(got.items()) == list(want.items())
            assert all(type(v) is np.float64 for v in got.values())


def test_hand_built_data_has_isolated_vertices_and_no_constraint():
    data = hand_built_data()
    assert data.m == 0 and aggregate_pattern(data).isolated == {3, 4}


def test_dual_off_pattern_data_rejected():
    q = SparseSymMatrix(3, {(1, 3): 1.0, (1, 1): 1.0})
    data = HomogenizedData(3, (q,), SparseSymMatrix(3, {(1, 1): 1.0}))
    with pytest.raises(BuildError):
        _build_dual(data, [(1, 2)], [3], "dual_ssocp")
