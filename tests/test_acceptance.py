"""End-to-end acceptance gate.

Each test prints an explicit PASS line so the run log doubles as a
checklist.  The heavy lattice sweep is computed once per session and
shared across the equivalence criteria.
"""

import time

import numpy as np
import pytest

from qcrelax.build import (
    build_dual_ssocp,
    build_fsdp,
    build_fsocp,
    build_ssdp,
    build_ssocp,
    extract_dual_parts,
)
from qcrelax.chordal import Graph, chordal_extension, chordal_parts, maximal_cliques
from qcrelax.completion import (
    PartialMatrix,
    feasible_range,
    in_T_plus,
    log_det_T,
    sdp_complete,
    zero_fill,
)
from qcrelax.generators import LatticeSpec, ZeroDiagSpec, gen_lattice, gen_zero_diag
from qcrelax.model import aggregate_pattern, homogenize
from qcrelax.program import ConeBlock, StandardForm, program_objective, to_standard_form, variable_values
from qcrelax.recovery import (
    DualSolution,
    aggregate_matrix,
    dual_residual,
    full_to_sparse,
    sparse_to_full,
)
from qcrelax.solver import SolverConfig, solve

CFG = SolverConfig()

LATTICE_CASES = [
    (nl, 3 + (idx % 8), idx) for idx, nl in enumerate([3, 4, 5, 6] * 5)
]  # 20 instances, n_L in {3,4,5,6}, m in {3,...,10}


def _solve(prog):
    sf = to_standard_form(prog, "P")
    sol = solve(sf, CFG)
    assert sol.status == "Optimal", f"{prog.metadata}: {sol.status}"
    return program_objective(sf, sol)


@pytest.fixture(scope="module")
def lattice_sweep():
    out = []
    t0 = time.perf_counter()
    for nl, m, seed in LATTICE_CASES:
        data = homogenize(gen_lattice(LatticeSpec(nl, m, seed)))
        pat = aggregate_pattern(data)
        objs = {
            "fsdp": _solve(build_fsdp(data)),
            "fsocp": _solve(build_fsocp(data)),
            "ssocp": _solve(build_ssocp(data, pat)),
            "ssdp": _solve(build_ssdp(data, *chordal_parts(pat))),
        }
        out.append(((nl, m, seed), objs))
    return out, time.perf_counter() - t0


def test_01_full_and_sparse_socp_equivalence(lattice_sweep):
    sweep, elapsed = lattice_sweep
    for key, objs in sweep:
        ref = objs["fsocp"]
        assert abs(objs["fsocp"] - objs["ssocp"]) <= 1e-6 * (1 + abs(ref)), key
    assert elapsed <= 120.0, f"sweep took {elapsed:.1f}s"
    print(f"\ncriterion 01 PASS: F-SOCP = S-SOCP on 20 lattice instances "
          f"({elapsed:.1f}s total)")


def test_02_lattice_sdp_socp_exactness(lattice_sweep):
    sweep, _ = lattice_sweep
    for key, objs in sweep:
        ref = objs["fsdp"]
        assert abs(objs["fsdp"] - objs["fsocp"]) <= 1e-6 * (1 + abs(ref)), key
    print("\ncriterion 02 PASS: F-SDP = F-SOCP on the lattice class")


def test_03_clique_sdp_parity(lattice_sweep):
    sweep, _ = lattice_sweep
    checked = 0
    for key, objs in sweep:
        ref = objs["fsdp"]
        assert abs(objs["ssdp"] - objs["fsdp"]) <= 1e-6 * (1 + abs(ref)), key
        checked += 1
    assert checked >= 10
    print(f"\ncriterion 03 PASS: S-SDP = F-SDP on {checked} instances (n_L <= 6)")


def _random_partial(rng):
    dim = int(rng.integers(2, 7))
    pool = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    k = int(rng.integers(0, len(pool)))
    sel = [pool[t] for t in rng.choice(len(pool), size=k, replace=False)]
    d = rng.uniform(0.2, 2.0, size=dim)
    known = {(i + 1, i + 1): d[i] for i in range(dim)}
    for (i, j) in sel:
        cap = np.sqrt(d[i - 1] * d[j - 1])
        known[(i, j)] = rng.uniform(-cap, cap)
    return PartialMatrix(dim, known, frozenset(sel)), pool


def test_04_zero_fill_maximizes_minor_product():
    rng = np.random.default_rng(100)
    for _ in range(50):
        p, pool = _random_partial(rng)
        base = log_det_T(zero_fill(p))
        unknown = [e for e in pool if e not in p.pattern]
        samples = rng.uniform(-1.0, 1.0, size=(1000, max(1, len(unknown))))
        for row in samples:
            Y = zero_fill(p)
            for t, (i, j) in enumerate(unknown):
                r = feasible_range(p, i, j)
                Y[i - 1, j - 1] = Y[j - 1, i - 1] = r.lo + (row[t] + 1) / 2 * (
                    r.hi - r.lo
                )
            assert base >= log_det_T(Y) - 1e-9
    print("\ncriterion 04 PASS: zero fill maximizes det_T over 50x1000 samples")


def test_05_zero_fill_lands_in_minor_cone():
    rng = np.random.default_rng(101)
    for _ in range(50):
        p, _ = _random_partial(rng)
        assert in_T_plus(zero_fill(p))
    print("\ncriterion 05 PASS: zero fill of every sampled member is in T_+")


def test_06_dual_recovery():
    data = homogenize(gen_lattice(LatticeSpec(4, 6, 11)))
    pat = aggregate_pattern(data)
    prog = build_dual_ssocp(data, pat)
    sf = to_standard_form(prog, "P")
    sol = solve(sf, CFG)
    assert sol.status == "Optimal"
    y, xi, W, w = extract_dual_parts(prog, variable_values(sf, sol))
    d = DualSolution(y, xi, W, w)
    full = sparse_to_full(d, pat)
    assert full.xi == xi  # bitwise
    assert dual_residual(full, data) <= 1e-8
    back = full_to_sparse(full, pat)
    assert back.xi == xi
    round_trip = sparse_to_full(back, pat)
    diff = np.abs(
        aggregate_matrix(round_trip, data.dim) - aggregate_matrix(full, data.dim)
    ).max()
    assert diff <= 1e-12
    print(f"\ncriterion 06 PASS: dual recovery residual ok, round trip diff {diff:.1e}")


def test_07_cone_count_formulas():
    for nl in range(2, 9):
        data = homogenize(gen_lattice(LatticeSpec(nl, 3, nl)))
        pat = aggregate_pattern(data)
        sparse = build_ssocp(data, pat)
        assert sparse.cone_inventory()["soc"] == 2 * nl * (nl - 1)
        full = build_fsocp(data)
        n = nl * nl
        assert full.cone_inventory()["soc"] == (n + 1) * n // 2
    print("\ncriterion 07 PASS: SOC counts 2 n_L (n_L - 1) and (n+1)n/2 for n_L in 2..8")


def test_08_zero_diagonal_exactness():
    for seed in range(10):
        inst = gen_zero_diag(ZeroDiagSpec(6 + (seed % 5), 4, 0.4, seed))
        data = homogenize(inst)
        a = _solve(build_fsdp(data))
        b = _solve(build_fsocp(data))
        assert abs(a - b) <= 1e-6 * (1 + abs(a)), (seed, a, b)
    print("\ncriterion 08 PASS: F-SDP = F-SOCP on 10 zero-diagonal instances")


def test_09_sdp_completion():
    rng = np.random.default_rng(102)
    chain = [(1, 2), (2, 3), (3, 4)]
    cs = maximal_cliques(chordal_extension(Graph(4, frozenset(chain))))
    known = {(i, i): 1.0 for i in range(1, 5)}
    known.update({(1, 2): 0.3, (2, 3): -0.4, (3, 4): 0.2})
    p = PartialMatrix(4, known, frozenset(chain))
    X = sdp_complete(p, cs)
    assert np.linalg.eigvalsh(X)[0] >= -1e-10
    for (i, j), v in p.known.items():
        assert X[i - 1, j - 1] == v  # known entries untouched
    Xi = np.linalg.inv(X)
    off = [(1, 3), (1, 4), (2, 4)]
    assert max(abs(Xi[i - 1, j - 1]) for i, j in off) <= 1e-6
    best = np.linalg.det(X)
    accepted = 0
    while accepted < 1000:
        Y = zero_fill(p)
        for (i, j) in off:
            Y[i - 1, j - 1] = Y[j - 1, i - 1] = rng.uniform(-1.0, 1.0)
        if np.linalg.eigvalsh(Y)[0] >= 0.0:
            accepted += 1
            assert np.linalg.det(Y) <= best + 1e-9
    print("\ncriterion 09 PASS: max-det completion beats 1000 sampled completions")


def test_10_sparse_socp_is_faster_at_scale():
    data = homogenize(gen_lattice(LatticeSpec(8, 20, 0)))
    pat = aggregate_pattern(data)
    times = {}
    for name, prog in (("fsocp", build_fsocp(data)), ("ssocp", build_ssocp(data, pat))):
        sf = to_standard_form(prog, "P")
        t0 = time.perf_counter()
        sol = solve(sf, CFG)
        times[name] = time.perf_counter() - t0
        assert sol.status == "Optimal", (name, sol.status)
    assert times["ssocp"] < times["fsocp"]
    print(f"\ncriterion 10 PASS: S-SOCP {times['ssocp']:.2f}s < "
          f"F-SOCP {times['fsocp']:.2f}s at n_L = 8")


def test_11_solver_reference_suite():
    import scipy.sparse as sp

    def sf(A, b, c, K):
        return StandardForm(
            sp.csr_matrix(np.atleast_2d(np.asarray(A, float))),
            np.asarray(b, float), np.asarray(c, float), tuple(K),
            "P", 1.0, 0.0, None, {},
        )

    cases = [
        (sf([[1.0, -1.0]], [1.0], [1.0, 0.0], [ConeBlock("nonneg", 2)]), 1.0),
        (
            sf([[0, 1, 0], [0, 0, 1]], [3, 4], [1, 0, 0], [ConeBlock("soc", 3)]),
            5.0,
        ),
        (sf([[1.0, 0.0, 1.0]], [1.0], [1.0, 0.0, 2.0], [ConeBlock("psd", 2)]), 1.0),
    ]
    for prob, opt in cases:
        sol = solve(prob, CFG)
        assert sol.status == "Optimal"
        assert sol.iterations <= 50
        assert all(r <= 1e-8 for r in sol.residuals)
        assert abs(sol.primal_obj - opt) <= 1e-6
    print("\ncriterion 11 PASS: reference suite solved to 1e-8 within 50 iterations")
