import math

import numpy as np
import pytest

from qcrelax.program import (
    ConeBlock,
    ConicProgram,
    LoweringError,
    export_sdpa,
    program_objective,
    smat,
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
    prog.add_soc_constraint([{0: 1.0}, {1: 1.0}], [0.0, 0.0])
    inv = prog.cone_inventory()
    assert inv == {"nonneg": 2, "soc": 1, "psd": 1, "free": 1}


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
