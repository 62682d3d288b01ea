import numpy as np
import pytest

from qcrelax.build import build_dual_ssocp, extract_dual_parts
from qcrelax.generators import LatticeSpec, gen_lattice
from qcrelax.model import AggregatePattern, HomogenizedData, aggregate_pattern, homogenize
from qcrelax.program import program_objective, to_standard_form, variable_values
from qcrelax.recovery import (
    DualSolution,
    RecoveryError,
    aggregate_matrix,
    dual_residual,
    full_to_sparse,
    sparse_to_full,
)
from qcrelax.solver import SolverConfig, solve
from qcrelax.sparsemat import SparseSymMatrix


def psd_block(a, b, c):
    return np.array([[a, c], [c, b]])


def test_validation():
    d = DualSolution(np.array([1.0]), 0.0, {(1, 2): psd_block(1, 1, 0.5)})
    d.validate()
    bad = DualSolution(np.array([-1.0]), 0.0, {})
    with pytest.raises(RecoveryError):
        bad.validate()
    notpsd = DualSolution(np.array([]), 0.0, {(1, 2): psd_block(1, 1, 2.0)})
    with pytest.raises(RecoveryError):
        notpsd.validate()
    negw = DualSolution(np.array([]), 0.0, {}, {3: -1.0})
    with pytest.raises(RecoveryError):
        negw.validate()


def test_identity_map_when_pattern_is_complete():
    dim = 3
    edges = frozenset({(1, 2), (1, 3), (2, 3)})
    pat = AggregatePattern(dim, edges, frozenset())
    W = {e: psd_block(1.0, 1.0, 0.3) for e in edges}
    d = DualSolution(np.array([0.5]), -2.0, W)
    f = sparse_to_full(d, pat)
    assert f.xi == d.xi and f.w == {}
    for e in edges:
        assert np.array_equal(f.W[e], d.W[e])
    back = full_to_sparse(f, pat)
    assert back.xi == d.xi
    for e in edges:
        assert np.array_equal(back.W[e], d.W[e])
    assert all(v == 0.0 for v in back.w.values())


def test_sparse_to_full_places_isolated_mass_once():
    # empty pattern, diagonal objective: w carries all the mass
    dim = 3
    pat = AggregatePattern(dim, frozenset(), frozenset({1, 2, 3}))
    d = DualSolution(np.array([]), 0.0, {}, {1: 2.0, 2: 3.0, 3: 4.0})
    f = sparse_to_full(d, pat)
    assert f.w == {}
    S = aggregate_matrix(f, dim)
    assert np.allclose(S, np.diag([2.0, 3.0, 4.0]))


def test_sparse_to_full_matches_dual_identity():
    # Q0 diagonal nonneg, no constraints, xi = 0, w_i = Q0_ii
    dim = 3
    q0 = SparseSymMatrix(dim, {(1, 1): 2.0, (2, 2): 3.0, (3, 3): 4.0})
    data = HomogenizedData(dim, (q0,), SparseSymMatrix(dim, {(1, 1): 1.0}))
    pat = AggregatePattern(dim, frozenset(), frozenset({1, 2, 3}))
    d = DualSolution(np.array([]), 0.0, {}, {1: 2.0, 2: 3.0, 3: 4.0})
    assert dual_residual(d, data) <= 1e-12
    f = sparse_to_full(d, pat)
    assert dual_residual(f, data) <= 1e-12


def test_full_to_sparse_diagonal_redistribution():
    dim = 4
    pat = AggregatePattern(dim, frozenset({(1, 2)}), frozenset({3, 4}))
    W = {
        (1, 2): psd_block(1.0, 1.0, 0.2),
        (3, 4): psd_block(0.5, 0.7, 0.0),  # off-pattern, diagonal
        (1, 3): psd_block(0.1, 0.3, 0.0),  # mixed: 1 on-pattern, 3 isolated
    }
    d = DualSolution(np.array([]), 1.0, W)
    s = full_to_sparse(d, pat)
    assert s.w[3] == pytest.approx(0.5 + 0.3)
    assert s.w[4] == pytest.approx(0.7)
    # vertex 1's mass folded into its on-pattern block
    assert s.W[(1, 2)][0, 0] == pytest.approx(1.0 + 0.1)
    assert np.abs(
        aggregate_matrix(s, dim) - aggregate_matrix(d, dim)
    ).max() <= 1e-12


def test_full_to_sparse_rejects_offpattern_coupling():
    pat = AggregatePattern(3, frozenset({(1, 2)}), frozenset({3}))
    d = DualSolution(np.array([]), 0.0, {(1, 3): psd_block(1.0, 1.0, 0.5)})
    with pytest.raises(RecoveryError):
        full_to_sparse(d, pat)


def test_round_trip_preserves_aggregate():
    rng = np.random.default_rng(8)
    dim = 5
    edges = frozenset({(1, 2), (2, 3)})
    pat = AggregatePattern(dim, edges, frozenset({4, 5}))
    W = {e: psd_block(*rng.uniform(0.5, 1.0, 2), 0.1) for e in edges}
    w = {4: 0.7, 5: 1.1}
    d = DualSolution(rng.uniform(0, 1, 3), -0.5, W, w)
    f = sparse_to_full(d, pat)
    s = full_to_sparse(f, pat)
    f2 = sparse_to_full(s, pat)
    assert s.xi == d.xi == f2.xi
    assert np.abs(
        aggregate_matrix(f2, dim) - aggregate_matrix(f, dim)
    ).max() <= 1e-12
    assert np.abs(
        aggregate_matrix(s, dim) - aggregate_matrix(d, dim)
    ).max() <= 1e-12


def test_end_to_end_lattice_dual():
    data = homogenize(gen_lattice(LatticeSpec(3, 5, 0)))
    pat = aggregate_pattern(data)
    prog = build_dual_ssocp(data, pat)
    sf = to_standard_form(prog, "P")
    sol = solve(sf, SolverConfig())
    assert sol.status == "Optimal"
    y, xi, W, w = extract_dual_parts(prog, variable_values(sf, sol))
    d = DualSolution(y, xi, W, w)
    d.validate(tol=1e-6)
    assert dual_residual(d, data) <= 1e-8
    f = sparse_to_full(d, pat)
    assert f.xi == xi  # bitwise
    assert dual_residual(f, data) <= 1e-8
    assert program_objective(sf, sol) == pytest.approx(xi)


# -- the sparse dual residual against the dense form it replaced --------------


def dense_dual_residual(d, data):
    """max |Q_0 + sum_k y_k Q_k - xi H_0 - sum W - sum w| over the n x n matrices."""
    lhs = data.Q[0].to_dense()
    for k in range(1, len(data.Q)):
        lhs = lhs + d.y[k - 1] * data.Q[k].to_dense()
    lhs = lhs - d.xi * data.H0.to_dense()
    return float(np.abs(lhs - aggregate_matrix(d, data.dim)).max())


def test_dual_residual_matches_the_dense_form_on_solved_duals():
    for n_l, seed in ((3, 0), (4, 1), (5, 2)):
        data = homogenize(gen_lattice(LatticeSpec(n_l, 5, seed)))
        pat = aggregate_pattern(data)
        prog = build_dual_ssocp(data, pat)
        sf = to_standard_form(prog, "P")
        sol = solve(sf, SolverConfig())
        d = DualSolution(*extract_dual_parts(prog, variable_values(sf, sol)))
        f = sparse_to_full(d, pat)
        for dual in (d, f, full_to_sparse(f, pat)):
            assert dual_residual(dual, data) == dense_dual_residual(dual, data)
        assert dual_residual(f, data) == dual_residual(d, data)


def test_dual_residual_matches_the_dense_form_on_random_duals():
    rng = np.random.default_rng(7)
    data = homogenize(gen_lattice(LatticeSpec(4, 6, 3)))
    N = data.dim
    pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    for trial in range(20):
        pick = rng.choice(len(pairs), size=rng.integers(0, 40), replace=False)
        W = {pairs[p]: rng.standard_normal((2, 2)) for p in pick}
        w = {int(i): float(rng.standard_normal()) for i in rng.choice(np.arange(1, N + 1), 3)}
        d = DualSolution(rng.standard_normal(data.m), float(rng.standard_normal()), W, w)
        assert dual_residual(d, data) == dense_dual_residual(d, data)
    # no stored position at all, and a non-finite multiplier
    empty = HomogenizedData(2, (SparseSymMatrix(2, {}),), SparseSymMatrix(2, {}))
    assert dual_residual(DualSolution([], 0.0, {}), empty) == 0.0
    d = DualSolution(np.full(data.m, np.inf), 0.0, {})
    with np.errstate(invalid="ignore"):  # inf * 0 off the support
        assert np.isnan(dual_residual(d, data)) and np.isnan(dense_dual_residual(d, data))
