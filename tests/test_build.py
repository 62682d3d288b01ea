import numpy as np
import pytest

from qcrelax.build import (
    BuildError,
    DecompositionError,
    build_dual_fsocp,
    build_dual_ssocp,
    build_fsdp,
    build_fsocp,
    build_ssdp,
    build_ssocp,
    decompose_data,
    extract_dual_parts,
    extract_entries,
)
from qcrelax.chordal import (
    Graph,
    chordal_extension,
    maximal_cliques,
    overlap_set,
)
from qcrelax.generators import LatticeSpec, gen_lattice, lattice_edges
from qcrelax.model import QcqpInstance, aggregate_pattern, homogenize
from qcrelax.program import program_objective, to_standard_form, variable_values
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
    g = Graph(3, frozenset({(1, 2)}))
    ext = chordal_extension(g)
    cs = maximal_cliques(ext)
    with pytest.raises(DecompositionError):
        decompose_data(q, cs)


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
