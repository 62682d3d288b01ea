import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrelax.build import (
    build_dual_fsocp,
    build_dual_ssocp,
    build_fsdp,
    build_fsocp,
    build_ssdp,
    build_ssocp,
)
from qcrelax.chordal import chordal_parts
from qcrelax.generators import LatticeSpec, gen_lattice
from qcrelax.model import aggregate_pattern, homogenize
from qcrelax.program import (
    ConeBlock,
    ConicProgram,
    LoweringError,
    StandardForm,
    _row_matrices,
    export_sdpa,
    program_objective,
    smat,
    standard_form_to_json,
    svec,
    svec_index,
    svec_len,
    to_standard_form,
    variable_values,
)
from qcrelax.solver import SolverConfig, solve


def loop_svec(mat):
    """Entry-by-entry svec, kept as the oracle of the indexed one."""
    side = mat.shape[0]
    out = np.empty(svec_len(side))
    k = 0
    for i in range(side):
        out[k] = mat[i, i]
        k += 1
        for j in range(i + 1, side):
            out[k] = math.sqrt(2.0) * mat[i, j]
            k += 1
    return out


def loop_smat(vec, side):
    """Entry-by-entry smat, kept as the oracle of the indexed one."""
    out = np.zeros((side, side))
    k = 0
    for i in range(side):
        out[i, i] = vec[k]
        k += 1
        for j in range(i + 1, side):
            out[i, j] = out[j, i] = vec[k] / math.sqrt(2.0)
            k += 1
    return out


@pytest.mark.parametrize("side", [*range(1, 10), 65])
def test_svec_smat_match_loop_oracles(side):
    rng = np.random.default_rng(side)
    mats = rng.standard_normal((2, 3, side, side))
    mats = mats + np.swapaxes(mats, -1, -2)
    vecs = rng.standard_normal((2, 3, svec_len(side)))
    # bit-identical to the loops, for one matrix and for a stack
    assert np.array_equal(svec(mats[0, 0]), loop_svec(mats[0, 0]))
    assert np.array_equal(smat(vecs[0, 0], side), loop_smat(vecs[0, 0], side))
    got_v, got_m = svec(mats), smat(vecs, side)
    assert got_v.shape == (2, 3, svec_len(side)) and got_m.shape == (2, 3, side, side)
    for a in range(2):
        for b in range(3):
            assert np.array_equal(got_v[a, b], loop_svec(mats[a, b]))
            assert np.array_equal(got_m[a, b], loop_smat(vecs[a, b], side))


def test_svec_index_positions():
    ix = svec_index(4)
    for k, (i, j) in enumerate(zip(ix.rows, ix.cols)):
        assert i <= j and ix.pos[i, j] == ix.pos[j, i] == k
    assert not ix.pos.flags.writeable


def test_svec_round_trip():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        v = svec(a)
        assert v.shape == (svec_len(n),)
        assert np.allclose(smat(v, n), a)
        # trace inner product becomes a plain dot product
        b = rng.standard_normal((n, n))
        b = (b + b.T) / 2
        assert float(svec(a) @ svec(b)) == pytest.approx(np.trace(a @ b))


def lp_program():
    # min x1 + x2 s.t. x1 + 2 x2 >= 2, x >= 0
    prog = ConicProgram("min")
    prog.add_var_block(("x",), "nonneg", 2)
    prog.add_ineq({prog.index(("x",), 0): -1.0, prog.index(("x",), 1): -2.0}, -2.0)
    prog.set_objective({prog.index(("x",), 0): 1.0, prog.index(("x",), 1): 1.0})
    return prog


def test_lowering_both_forms_agree():
    prog = lp_program()
    cfg = SolverConfig()
    objs = {}
    for form in ("P", "D"):
        sf = to_standard_form(prog, form)
        sol = solve(sf, cfg)
        assert sol.status == "Optimal"
        objs[form] = program_objective(sf, sol)
    assert objs["P"] == pytest.approx(1.0, abs=1e-7)
    assert objs["D"] == pytest.approx(1.0, abs=1e-7)


def test_max_sense_sign_handling():
    # max x s.t. x <= 3, x >= 0
    prog = ConicProgram("max")
    prog.add_var_block(("x",), "nonneg", 1)
    prog.add_ineq({0: 1.0}, 3.0)
    prog.set_objective({0: 1.0}, const=1.0)
    for form in ("P", "D"):
        sf = to_standard_form(prog, form)
        sol = solve(sf, SolverConfig())
        assert sol.status == "Optimal"
        assert program_objective(sf, sol) == pytest.approx(4.0, abs=1e-7)


def test_variable_values_recover_program_space():
    prog = lp_program()
    for form in ("P", "D"):
        sf = to_standard_form(prog, form)
        sol = solve(sf, SolverConfig())
        v = variable_values(sf, sol)
        assert v.shape == (2,)
        assert v[0] + 2 * v[1] >= 2 - 1e-6
        assert v.sum() == pytest.approx(1.0, abs=1e-6)


def test_affine_soc_constraint_lowering():
    # min t s.t. t >= ||(u - 1, 2)||, free u pinned by an equality
    prog = ConicProgram("min")
    prog.add_var_block(("t",), "nonneg", 1)
    prog.add_var_block(("u",), "free", 1)
    t, u = prog.index(("t",)), prog.index(("u",))
    prog.add_soc_constraint([{t: 1.0}, {u: 1.0}, {}], [0.0, -1.0, 2.0])
    prog.add_eq({u: 1.0}, 4.0)
    prog.set_objective({t: 1.0})
    for form in ("P", "D"):
        sf = to_standard_form(prog, form)
        sol = solve(sf, SolverConfig())
        assert sol.status == "Optimal"
        assert program_objective(sf, sol) == pytest.approx(np.sqrt(13.0), abs=1e-6)


def test_psd_variable_block():
    # min tr(diag(1,2) X) s.t. tr X = 1, X psd
    prog = ConicProgram("min")
    prog.add_var_block(("X",), "psd", 2)
    d = np.diag([1.0, 2.0])
    tr = np.eye(2)
    prog.set_objective(dict(enumerate(svec(d))))
    prog.add_eq(dict(enumerate(svec(tr))), 1.0)
    for form in ("P", "D"):
        sf = to_standard_form(prog, form)
        sol = solve(sf, SolverConfig())
        assert sol.status == "Optimal"
        assert program_objective(sf, sol) == pytest.approx(1.0, abs=1e-7)


def test_cone_inventory():
    prog = ConicProgram("min")
    prog.add_var_block(("X",), "psd", 3)
    prog.add_var_block(("d",), "nonneg", 2)
    prog.add_var_block(("u",), "free", 1)
    prog.add_var_block(("t",), "soc", 3, 3)
    prog.add_var_block(("e",), "nonneg", 0)
    prog.add_soc_constraint([{0: 1.0}, {1: 1.0}], [0.0, 0.0])
    inv = prog.cone_inventory()
    assert inv == {"nonneg": 2, "soc": 4, "psd": 1, "free": 1}
    # a run of three cones lowers to three cones, and the empty block to none
    soc3, soc2 = ConeBlock("soc", 3), ConeBlock("soc", 2)
    want = [ConeBlock("psd", 3), ConeBlock("nonneg", 2), soc3, soc3, soc3, soc2]
    assert to_standard_form(prog, "D").K == want


def test_add_var_block_rejects_bad_blocks():
    prog = ConicProgram("min")
    prog.add_var_block(("x",), "nonneg", 2)
    bad = [
        ("sco", 3, 1),  # unknown kind
        ("zero", 3, 1),  # a cone of the standard forms, not a variable kind
        ("soc", 0, 1),
        ("psd", 0, 2),
        ("nonneg", -1, 1),
        ("soc", 3, -1),
        ("nonneg", 2.0, 1),
        ("soc", 3, 1.5),
        ("free", "2", 1),
        ("nonneg", None, 1),
    ]
    for kind, dim, count in bad:
        with pytest.raises(ValueError):
            prog.add_var_block(("y",), kind, dim, count)
    with pytest.raises(ValueError, match="duplicate"):
        prog.add_var_block(("x",), "nonneg", 1)
    # a rejected block leaves the program as it was
    assert [blk.key for blk in prog.var_blocks] == [("x",)] and prog.num_vars == 2
    with pytest.raises(KeyError):
        prog.block(("y",))
    # empty runs are blocks too, with no column
    assert prog.add_var_block(("y",), "soc", 3, 0).span == slice(2, 2)
    assert prog.add_var_block(("z",), "free", 0).span == slice(2, 2)
    assert prog.num_vars == 2
    run = prog.add_var_block(("W",), "psd", 2, 3)
    assert (run.start, run.scalar_len, run.span) == (2, 9, slice(2, 11))


def test_export_sdpa_format(tmp_path):
    prog = ConicProgram("min")
    prog.add_var_block(("X",), "psd", 2)
    prog.set_objective(dict(enumerate(svec(np.diag([1.0, 2.0])))))
    prog.add_eq(dict(enumerate(svec(np.eye(2)))), 1.0)
    sf = to_standard_form(prog, "P")
    path = tmp_path / "prob.dat-s"
    export_sdpa(sf, path)
    lines = path.read_text().strip().splitlines()
    m = int(lines[0].split()[0])
    nblock = int(lines[1].split()[0])
    assert m >= 1 and nblock >= 1
    # entry lines are "matno block i j value" with i <= j
    for line in lines[4:]:
        parts = line.split()
        assert len(parts) == 5
        assert int(parts[2]) <= int(parts[3])


def test_export_sdpa_matches_entrywise_oracle(tmp_path):
    # two psd blocks and the nonneg slack of an inequality
    prog = ConicProgram("min")
    prog.add_var_block(("X",), "psd", 3)
    prog.add_var_block(("Y",), "psd", 2)
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((4, prog.num_vars)) * (rng.random((4, prog.num_vars)) < 0.6)
    prog.set_objective(dict(enumerate(dense[0])))
    prog.add_eq(dict(enumerate(dense[1])), 1.0)
    prog.add_eq(dict(enumerate(dense[2])), 0.0)
    prog.add_ineq(dict(enumerate(dense[3])), 2.0)
    sf = to_standard_form(prog, "P")
    want = []
    mats = [-sf.c] + list(sf.A.toarray())
    for r, vec in enumerate(mats):
        off = 0
        for bno, blk in enumerate(sf.K, start=1):
            if blk.kind == "psd":
                pos = [(i, j) for i in range(blk.dim) for j in range(i, blk.dim)]
            else:
                pos = [(i, i) for i in range(blk.dim)]
            for k, (i, j) in enumerate(pos):
                v = float(vec[off + k])
                if v != 0.0:
                    v = v / math.sqrt(2.0) if i != j else v
                    want.append(f"{r} {bno} {i + 1} {j + 1} {v!r}")
            off += blk.scalar_len
    path = tmp_path / "prob.dat-s"
    export_sdpa(sf, path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["3 =mDIM", "3 =nBLOCK", "3 2 -1 =bLOCKsTRUCT"]
    assert lines[4:] == want


def test_bad_form_rejected():
    with pytest.raises(LoweringError):
        to_standard_form(lp_program(), "X")


# -- the dict-walking lowering, kept as the oracle of the affine map ----------


def reference_rows_to_csr(rows, ncols):
    data, ri, ci = [], [], []
    for r, row in enumerate(rows):
        for cidx, v in row.items():
            if v != 0.0:
                ri.append(r)
                ci.append(cidx)
                data.append(float(v))
    return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), ncols))


def program_rows(prog):
    """The program's rows as one {column: value} dict each, read from its row matrices.

    Returns (equalities, soc_constraints, inequalities): lists of (row, rhs),
    of (rows, consts) per soc constraint and of (row, rhs).
    """
    E, h, S, s, G, g, _ = _row_matrices(prog)

    def dicts(M):
        bounds = zip(M.indptr[:-1].tolist(), M.indptr[1:].tolist())
        return [dict(zip(M.indices[a:b].tolist(), M.data[a:b].tolist())) for a, b in bounds]

    socs, start, soc_rows = [], 0, dicts(S)
    for dim in prog.soc_dims:
        socs.append((soc_rows[start : start + dim], s[start : start + dim].tolist()))
        start += dim
    return list(zip(dicts(E), h.tolist())), socs, list(zip(dicts(G), g.tolist()))


def reference_substitutable_free_vars(prog, soc_constraints):
    free_idx = set()
    for blk in prog.var_blocks:
        if blk.kind == "free":
            free_idx.update(range(blk.start, blk.start + blk.scalar_len))
    subs = {}
    for ci, (rows, consts) in enumerate(soc_constraints):
        for ri, row in enumerate(rows):
            if len(row) != 1:
                continue
            (j, a), = row.items()
            if j in free_idx and j not in subs and a != 0.0:
                subs[j] = (ci, ri, float(a), float(consts[ri]))
    return subs


def reference_lower_primal(prog):
    """(P) by expanding every program row into columns, one tagged variable at a time."""
    equalities, soc_constraints, inequalities = program_rows(prog)
    subs = reference_substitutable_free_vars(prog, soc_constraints)
    sub_by_row = {(ci, ri): (j, a, f) for j, (ci, ri, a, f) in subs.items()}
    K, col_of, ncols = [], {}, 0
    for blk in prog.var_blocks:
        if blk.kind == "free" or not blk.scalar_len:
            continue
        K += [ConeBlock(blk.kind, blk.dim)] * blk.count
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
        neg0 = ncols + len(split_vars)
        K += [ConeBlock("nonneg", len(split_vars))] * 2
        ncols += 2 * len(split_vars)
        for k, j in enumerate(split_vars):
            col_of[j] = ("split", pos0 + k, neg0 + k)
    aux_start = {}
    for ci, (rows, _) in enumerate(soc_constraints):
        aux_start[ci] = ncols
        K.append(ConeBlock("soc", len(rows)))
        ncols += len(rows)
    for j, (ci, ri, a, f) in subs.items():
        col_of[j] = ("aux", aux_start[ci] + ri, a, f)  # v_j = (u - f) / a
    slack0 = ncols
    if inequalities:
        K.append(ConeBlock("nonneg", len(inequalities)))
        ncols += len(inequalities)

    def emit(row_dict, target_row):
        shift = 0.0
        for j, v in row_dict.items():
            loc = col_of[j]
            if loc[0] == "col":
                target_row[loc[1]] = target_row.get(loc[1], 0.0) + v
            elif loc[0] == "split":
                target_row[loc[1]] = target_row.get(loc[1], 0.0) + v
                target_row[loc[2]] = target_row.get(loc[2], 0.0) - v
            else:
                _, ucol, a, f = loc
                target_row[ucol] = target_row.get(ucol, 0.0) + v / a
                shift -= v * f / a
        return shift

    rows, rhs = [], []
    for row, r in equalities:
        out = {}
        shift = emit(row, out)
        rows.append(out)
        rhs.append(r - shift)
    for ci, (crows, consts) in enumerate(soc_constraints):
        for ri, (crow, cconst) in enumerate(zip(crows, consts)):
            if (ci, ri) in sub_by_row:
                continue
            out = {aux_start[ci] + ri: 1.0}
            shift = emit({j: -v for j, v in crow.items()}, out)
            rows.append(out)
            rhs.append(cconst - shift)
    for k, (row, u) in enumerate(inequalities):
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
        cvec = -cvec
        sign = -1.0
    recover = [col_of[j] for j in range(prog.num_vars)]
    A = reference_rows_to_csr(rows, ncols)
    return StandardForm(A, np.asarray(rhs), cvec, K, "P", sign, const, recover)


def reference_lower_dual(prog):
    """(D) by listing the rows of A' as dicts over the program variables."""
    equalities, soc_constraints, inequalities = program_rows(prog)
    p = prog.num_vars
    K, at_rows, cparts = [], [], []
    for blk in prog.var_blocks:
        if blk.kind == "free" or not blk.scalar_len:
            continue
        K += [ConeBlock(blk.kind, blk.dim)] * blk.count
        for o in range(blk.scalar_len):
            at_rows.append({blk.start + o: -1.0})
            cparts.append(0.0)
    for rows, consts in soc_constraints:
        K.append(ConeBlock("soc", len(rows)))
        for row, cst in zip(rows, consts):
            at_rows.append({j: -v for j, v in row.items()})
            cparts.append(cst)
    if inequalities:
        K.append(ConeBlock("nonneg", len(inequalities)))
        for row, u in inequalities:
            at_rows.append(dict(row))
            cparts.append(u)
    if equalities:
        K.append(ConeBlock("zero", len(equalities)))
        for row, h in equalities:
            at_rows.append(dict(row))
            cparts.append(h)
    A = sp.csr_matrix(reference_rows_to_csr(at_rows, p).T)
    obj = np.zeros(p)
    for j, v in prog.objective.items():
        obj[j] = v
    b, sign = (obj, 1.0) if prog.sense == "max" else (-obj, -1.0)
    recover = [("col", j) for j in range(p)]
    return StandardForm(A, b, np.asarray(cparts), K, "D", sign, prog.objective_const, recover)


def reference_variable_values(sf, solution):
    src = solution.x if sf.form == "P" else solution.y
    out = np.zeros(len(sf.recover))
    for j, loc in enumerate(sf.recover):
        if loc[0] == "col":
            out[j] = src[loc[1]]
        elif loc[0] == "split":
            out[j] = src[loc[1]] - src[loc[2]]
        else:
            _, ucol, a, f = loc
            out[j] = (src[ucol] - f) / a
    return out


def lower_both_ways(prog, form):
    """(new, reference) standard forms and their variable values at one random point."""
    got = to_standard_form(prog, form)
    want = (reference_lower_primal if form == "P" else reference_lower_dual)(prog)
    rng = np.random.default_rng(0)
    m, n = got.A.shape
    point = SimpleNamespace(x=rng.standard_normal(n), y=rng.standard_normal(m))
    return got, want, variable_values(got, point), reference_variable_values(want, point)


def lattice_programs(nl):
    data = homogenize(gen_lattice(LatticeSpec(nl, 20, 0)))
    pattern = aggregate_pattern(data)
    yield build_fsdp(data)
    yield build_ssdp(data, *chordal_parts(pattern))
    yield build_fsocp(data)
    yield build_ssocp(data, pattern)
    yield build_dual_fsocp(data)
    yield build_dual_ssocp(data, pattern)


@pytest.mark.parametrize("form", ["P", "D"])
@pytest.mark.parametrize("nl", [3, 4, 5, 6])
def test_lowering_is_byte_identical_to_the_dict_walking_oracle(nl, form):
    for prog in lattice_programs(nl):
        got, want, got_v, want_v = lower_both_ways(prog, form)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.A, name), getattr(want.A, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.A.shape == want.A.shape
        for a, b in ((got.b, want.b), (got.c, want.c), (got_v, want_v)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.K == want.K
        assert (got.obj_sign, got.obj_const) == (want.obj_sign, want.obj_const)
        assert type(got.obj_const) is float


def mixed_program(sense):
    """Every column kind: cone variables, a split free variable, two
    variables substituted through soc rows with a != 1 and a nonzero
    constant (one pair sharing the equality and objective rows)."""
    prog = ConicProgram(sense)
    x = prog.add_var_block(("x",), "nonneg", 2).start
    X = prog.add_var_block(("X",), "psd", 2).start
    u = prog.add_var_block(("u",), "free", 3).start
    t = prog.add_var_block(("t",), "soc", 3).start
    # u is substituted with a = 3, u + 1 with a = 2.5, u + 2 is split
    prog.add_soc_constraint(
        [{x: 1.5, X: 0.25}, {u: 3.0}, {u + 1: -0.5, x + 1: 2.0}], [0.5, 0.7, -1.3]
    )
    prog.add_soc_constraint(
        [{x + 1: 1.0}, {u + 1: 2.5}, {u + 2: 1.0, X + 2: 1.1}], [2.0, -0.3, 0.0]
    )
    prog.add_eq({x: 1.0, u: 0.3, u + 1: 1.7, u + 2: -2.2, t: 0.9}, 4.0)
    prog.add_eq({X: 1.0, X + 2: 1.0, u + 1: 0.6}, 1.0)
    prog.add_ineq({u: -1.1, x: 0.4, t + 2: 1.9}, 3.0)
    prog.add_ineq({u + 2: 0.8, X + 1: -0.35}, 5.5)
    prog.set_objective({x: 1.0, u: -0.75, u + 1: 1.25, u + 2: 0.5, t + 1: -0.2}, const=0.125)
    return prog


def cones_only_program(sense):
    """No equalities and no inequalities: only soc constraints, one of them
    defining a substituted variable."""
    prog = ConicProgram(sense)
    d = prog.add_var_block(("d",), "nonneg", 2).start
    w = prog.add_var_block(("w",), "free", 1).start
    prog.add_soc_constraint(
        [{d: 0.5, d + 1: 0.5}, {d: 0.5, d + 1: -0.5}, {w: -4.0}], [1.0, 0.0, 0.6]
    )
    prog.set_objective({d: 1.0, w: 3.0}, const=-2.0)
    return prog


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("make", [mixed_program, cones_only_program])
@pytest.mark.parametrize("form", ["P", "D"])
def test_hand_written_lowering_matches_the_oracle(make, sense, form):
    # v/a and v*(1/a) may differ in the last bit, so values agree to 1e-15
    got, want, got_v, want_v = lower_both_ways(make(sense), form)
    assert got.A.shape == want.A.shape and got.K == want.K
    assert np.array_equal(got.A.indptr, want.A.indptr)
    assert np.array_equal(got.A.indices, want.A.indices)
    for a, b in ((got.A.data, want.A.data), (got.b, want.b), (got.c, want.c), (got_v, want_v)):
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)
    assert got.obj_sign == want.obj_sign
    assert got.obj_const == pytest.approx(want.obj_const, rel=1e-15, abs=0)


# -- bulk row chunks against one dict per row ---------------------------------


@st.composite
def row_programs(draw):
    """Var blocks over n <= 8 scalars and row groups, each given as dict rows or one chunk.

    Coefficients are multiples of 0.5, so repeated columns sum exactly in any order.
    """
    kinds = st.sampled_from([("free", 1), ("free", 2), ("nonneg", 2), ("soc", 3), ("psd", 2)])
    blocks = draw(st.lists(kinds, min_size=1, max_size=4))
    while sum(svec_len(d) if k == "psd" else d for k, d in blocks) > 8:
        blocks.pop()
    n = sum(svec_len(d) if k == "psd" else d for k, d in blocks)
    coef = st.integers(-4, 4).map(lambda v: v / 2)
    # repeated columns, explicit zeros and pairs that cancel all come up often
    entry = st.tuples(st.integers(0, n - 1), coef)
    row = st.lists(entry, max_size=5)
    groups = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(ConicProgram.SECTIONS))
        dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)) if kind == "soc" else None
        nrows = sum(dims) if dims else draw(st.integers(1, 3))
        rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
        rhs = draw(st.lists(coef, min_size=nrows, max_size=nrows))
        groups.append((kind, dims, rows, rhs, draw(st.booleans())))
    objective = draw(st.dictionaries(st.integers(0, n - 1), coef, max_size=n))
    return blocks, groups, objective, draw(st.sampled_from(["min", "max"]))


def summed(entries):
    out = {}
    for j, v in entries:
        out[j] = out.get(j, 0.0) + v
    return out


def add_dict_rows(prog, kind, dims, rows, rhs):
    if kind == "soc":
        start = 0
        for dim in dims:
            prog.add_soc_constraint(
                [summed(r) for r in rows[start : start + dim]], rhs[start : start + dim]
            )
            start += dim
    else:
        for r, h in zip(rows, rhs):
            (prog.add_eq if kind == "eq" else prog.add_ineq)(summed(r), h)


def make_row_program(spec, bulk):
    blocks, groups, objective, sense = spec
    prog = ConicProgram(sense)
    for k, (kind, dim) in enumerate(blocks):
        prog.add_var_block((kind, k), kind, dim)
    for kind, dims, rows, rhs, as_chunk in groups:
        if bulk and as_chunk:
            entries = [(r, j, v) for r, row in enumerate(rows) for j, v in row]
            r, j, v = (list(col) for col in zip(*entries)) if entries else ([], [], [])
            prog.add_rows(kind, r, j, v, rhs, dims)
        else:
            add_dict_rows(prog, kind, dims, rows, rhs)
    prog.set_objective(objective, const=0.5)
    return prog


def dense_rows(spec, kind):
    """The rows of one section as a dense matrix, summed entry by entry."""
    blocks, groups, *_ = spec
    n = sum(svec_len(d) if k == "psd" else d for k, d in blocks)
    out = [np.zeros((len(rows), n)) for k, _, rows, _, _ in groups if k == kind]
    for mat, rows in zip(out, (rows for k, _, rows, _, _ in groups if k == kind)):
        for r, row in enumerate(rows):
            for j, v in row:
                mat[r, j] += v
    return np.vstack(out) if out else np.zeros((0, n))


@settings(max_examples=150, deadline=None)
@given(row_programs())
def test_bulk_chunks_lower_like_one_dict_per_row(spec):
    mixed, dicts = make_row_program(spec, bulk=True), make_row_program(spec, bulk=False)
    assert np.array_equal(mixed.soc_dims, dicts.soc_dims)
    got, want = _row_matrices(mixed), _row_matrices(dicts)
    for kind, (M, W) in zip(ConicProgram.SECTIONS, zip(got[0:6:2], want[0:6:2])):
        assert csr_bytes(M) == csr_bytes(W)
        # repeated columns summed, zeros (given or summed) dropped, columns sorted
        assert np.array_equal(M.toarray(), dense_rows(spec, kind))
        assert M.has_sorted_indices and np.all(M.data != 0.0)
    for a, b in zip(got[1:6:2], want[1:6:2]):
        assert a.tobytes() == b.tobytes()
    for form in ("P", "D"):
        a, b = to_standard_form(mixed, form), to_standard_form(dicts, form)
        assert csr_bytes(a.A) == csr_bytes(b.A) and a.K == b.K
        assert a.b.tobytes() == b.b.tobytes() and a.c.tobytes() == b.c.tobytes()
        assert csr_bytes(a.recover[0]) == csr_bytes(b.recover[0])
        assert a.recover[1].tobytes() == b.recover[1].tobytes()
        assert (a.obj_sign, a.obj_const) == (b.obj_sign, b.obj_const)


def csr_bytes(M):
    M = sp.csr_matrix(M)
    return M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


def test_add_rows_rejects_bad_chunks():
    prog = ConicProgram("min")
    prog.add_var_block(("x",), "nonneg", 3)
    good = dict(row=[0, 0, 1], col=[0, 2, 1], val=[1.0, 2.0, 3.0], rhs=[0.0, 1.0])
    prog.add_rows("eq", **good)
    bad = [
        ("eq", dict(good, col=[0, 3, 1]), "column"),  # column past the last variable
        ("eq", dict(good, col=[0, -1, 1]), "column"),
        ("eq", dict(good, row=[0, 2, 1]), "row index"),  # row past the chunk's rhs
        ("ineq", dict(good, val=[1.0, 2.0]), "lengths"),
        ("ineq", dict(good, col=[0, 1]), "lengths"),
        ("soc", dict(good, soc_dims=[1, 1]), "dim >= 2"),
        ("soc", dict(good, soc_dims=[3]), "dim >= 2"),  # dims must cover the rows
        ("soc", dict(good), "dim >= 2"),  # soc needs its dims
        ("eq", dict(good, soc_dims=[2]), "soc_dims"),
        ("cone", dict(good), "section"),
    ]
    for kind, kwargs, match in bad:
        with pytest.raises(ValueError, match=match):
            prog.add_rows(kind, **kwargs)
    with pytest.raises(ValueError, match="dim >= 2"):
        prog.add_soc_constraint([{0: 1.0}], [0.0])
    with pytest.raises(ValueError):
        prog.add_soc_constraint([{0: 1.0}, {1: 1.0}], [0.0])
    # a rejected chunk leaves the program as it was
    assert prog.num_rows("eq") == 2 and prog.num_rows("soc") == 0 and prog.soc_dims.size == 0
    assert prog.num_rows("ineq") == 0


def reference_standard_form_to_json(sf):
    """The entry-by-entry JSON export, kept as the oracle of the column one."""
    coo = sf.A.tocoo()
    doc = {
        "form": sf.form,
        "A": [[int(i), int(j), float(v)] for i, j, v in zip(coo.row, coo.col, coo.data)],
        "b": [float(v) for v in sf.b],
        "c": [float(v) for v in sf.c],
        "cones": [{"kind": blk.kind, "dim": blk.dim} for blk in sf.K],
    }
    return json.dumps(doc, indent=1)


@pytest.mark.parametrize("form", ["P", "D"])
def test_json_export_matches_the_entrywise_oracle(form):
    progs = [*lattice_programs(3), mixed_program("max"), cones_only_program("min")]
    for prog in progs:
        sf = to_standard_form(prog, form)
        assert standard_form_to_json(sf) == reference_standard_form_to_json(sf)
