import dataclasses
import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qcrelax import solver as solver_mod
from qcrelax.build import (
    build_dual_fsocp, build_dual_ssocp, build_fsdp, build_fsocp, build_ssdp, build_ssocp,
    extract_entries,
)
from qcrelax.chordal import chordal_parts
from qcrelax.completion import PartialMatrix, is_psd_completable
from qcrelax.cones import ConeLayout, Scaling
from qcrelax.generators import LatticeSpec, gen_lattice
from qcrelax.model import aggregate_pattern, homogenize
from qcrelax.program import ConeBlock, StandardForm, to_standard_form, variable_values
from qcrelax.solver import (
    Solution, SolverConfig, _KktPattern, _KktSolver, residuals, solve,
)


def make_sf(A, b, c, K, form="P"):
    A = sp.csr_matrix(np.atleast_2d(np.asarray(A, dtype=float)))
    return StandardForm(
        A, np.asarray(b, dtype=float), np.asarray(c, dtype=float),
        tuple(K), form, 1.0, 0.0, None, {},
    )


def lp_ref():
    # min x s.t. x - s = 1, x, s >= 0
    return make_sf([[1.0, -1.0]], [1.0], [1.0, 0.0], [ConeBlock("nonneg", 2)])


def soc_ref():
    # min t s.t. (t, 3, 4) in SOC
    return make_sf(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [3.0, 4.0], [1.0, 0.0, 0.0],
        [ConeBlock("soc", 3)],
    )


def sdp_ref():
    # min tr(diag(1,2) X) s.t. tr X = 1 (svec layout, off-diagonal x sqrt2)
    return make_sf([[1.0, 0.0, 1.0]], [1.0], [1.0, 0.0, 2.0], [ConeBlock("psd", 2)])


REFERENCE = [(lp_ref, 1.0), (soc_ref, 5.0), (sdp_ref, 1.0)]

BUILDERS = [build_fsocp, build_ssocp, build_dual_fsocp, build_dual_ssocp, build_fsdp, build_ssdp]


@pytest.mark.parametrize("factory,opt", REFERENCE)
def test_reference_suite(factory, opt):
    sol = solve(factory(), SolverConfig())
    assert sol.status == "Optimal"
    assert sol.iterations <= 50
    assert all(r <= 1e-8 for r in sol.residuals)
    assert sol.primal_obj == pytest.approx(opt, abs=1e-6)


def test_residuals_definition():
    sf = lp_ref()
    sol = solve(sf, SolverConfig())
    pr, dr, gap = residuals(sf, sol)
    assert pr == pytest.approx(
        np.linalg.norm(sf.A @ sol.x - sf.b) / (1 + np.linalg.norm(sf.b))
    )
    assert dr <= 1e-8 and gap <= 1e-8
    # perturbing one coordinate moves the primal residual proportionally
    step = np.array([1e-3, 0.0])
    bad = Solution(sol.status, sol.x + step, sol.y, sol.s, 0, 0, 0, (0, 0, 0))
    pr2, _, _ = residuals(sf, bad)
    expect = np.linalg.norm(sf.A @ (sol.x + step) - sf.b) / (1 + np.linalg.norm(sf.b))
    assert pr2 == pytest.approx(expect, rel=1e-9)
    assert pr2 == pytest.approx(1e-3 / 2, abs=1e-6)
    # the solver reports the residuals of this definition, bit for bit
    for builder, nl in itertools.product(BUILDERS, (3, 4)):
        sf = _lattice_sf(builder, nl)
        sol = solve(sf)
        assert sol.status == "Optimal"
        assert sol.residuals == residuals(sf, sol)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_gap=-1.0)
    for bad in (math.nan, math.inf):
        for name in ("tol_gap", "tol_primal", "tol_dual"):
            with pytest.raises(ValueError):
                SolverConfig(**{name: bad})
    with pytest.raises(ValueError):
        SolverConfig(step_fraction=1.0)
    for bad in (0, 2.5):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=bad)


def test_config_rejects_bools():
    # bool is an int subclass: True would run one iteration or be a tolerance of 1.0
    for flag in (True, False, np.True_, np.False_):
        for name in ("tol_gap", "tol_primal", "tol_dual", "max_iterations"):
            with pytest.raises(ValueError):
                SolverConfig(**{name: flag})
    cfg = SolverConfig(tol_gap=1, tol_dual=np.float64(1e-6), max_iterations=np.int64(1))
    assert solve(lp_ref(), cfg).iterations == 1


def test_primal_infeasible():
    sf = make_sf([[1.0]], [-1.0], [1.0], [ConeBlock("nonneg", 1)])
    assert solve(sf, SolverConfig()).status == "PrimalInfeasible"


def test_dual_infeasible():
    # min -x with only x >= 0: unbounded below
    sf = make_sf(np.zeros((0, 1)), [], [-1.0], [ConeBlock("nonneg", 1)])
    assert solve(sf, SolverConfig()).status == "DualInfeasible"


def test_form_d_status_flip():
    # (D) semantics: infeasibility roles swap relative to the (P) data
    sf = make_sf([[1.0]], [-1.0], [1.0], [ConeBlock("nonneg", 1)], form="D")
    assert solve(sf, SolverConfig()).status == "DualInfeasible"


def test_duplicate_rows_dropped_with_warning():
    A = [[1.0, -1.0], [1.0, -1.0]]
    sf = make_sf(A, [1.0, 1.0], [1.0, 0.0], [ConeBlock("nonneg", 2)])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sol = solve(sf, SolverConfig())
    assert sol.status == "Optimal"
    assert any("duplicate" in str(w.message) for w in rec)
    assert sol.y.shape == (2,)


def test_dimension_mismatch_raises():
    A = sp.csr_matrix(np.ones((1, 2)))
    sf = StandardForm(A, np.ones(1), np.ones(3), (ConeBlock("nonneg", 2),),
                      "P", 1.0, 0.0, None, {})
    with pytest.raises(ValueError):
        solve(sf, SolverConfig())


def _vertex_lp_opt(A, b, c):
    """Brute-force LP oracle: enumerate basic feasible points of
    {x >= 0, Ax = b} by solving every square subsystem."""
    m, n = A.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b)
        if np.all(xb >= -1e-9):
            x = np.zeros(n)
            x[list(cols)] = xb
            best = min(best, float(c @ x))
    return best


def test_random_lps_against_vertex_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(10):
        m, n = 2, 4
        A = rng.uniform(-1, 1, size=(m, n))
        x0 = rng.uniform(0.5, 1.5, size=n)  # feasible by construction
        b = A @ x0
        c = rng.uniform(-1, 1, size=n)
        opt = _vertex_lp_opt(A, b, c)
        sf = make_sf(A, b, c, [ConeBlock("nonneg", n)])
        sol = solve(sf, SolverConfig())
        if opt == np.inf or sol.status != "Optimal":
            # unbounded instances are detected, not compared
            assert sol.status in ("Optimal", "DualInfeasible")
            continue
        assert sol.primal_obj == pytest.approx(opt, abs=1e-6)


def test_mu_monotone_within_safeguard():
    for factory, _ in REFERENCE:
        sol = solve(factory(), SolverConfig())
        mus = sol.mu_trace
        for a, b in zip(mus, mus[1:]):
            assert b <= 10.0 * a


def test_weak_duality_at_solution():
    for factory, _ in REFERENCE:
        sf = factory()
        sol = solve(sf, SolverConfig())
        assert float(sf.c @ sol.x) - float(sf.b @ sol.y) >= -1e-6


def test_mixed_cone_problem():
    # min x + t, x >= 2, t >= ||(x, 1)||; optimum at x = 2, t = sqrt(5)
    A = [
        [1.0, -1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    b = [2.0, 0.0, 1.0]
    c = [1.0, 0.0, 1.0, 0.0, 0.0]
    K = [ConeBlock("nonneg", 2), ConeBlock("soc", 3)]
    sol = solve(make_sf(A, b, c, K), SolverConfig())
    assert sol.status == "Optimal"
    assert sol.primal_obj == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-6)


def test_one_dimensional_cones_step_like_nonneg_coordinates():
    # S-SOCP with its nonneg blocks redeclared as SOC(1): the same cone, so the same solve
    sf = _lattice_sf(build_ssocp, 8)
    K = []
    for blk in sf.K:
        K += [ConeBlock("soc", 1)] * blk.dim if blk.kind == "nonneg" else [blk]
    soc1 = solve(dataclasses.replace(sf, K=tuple(K)))
    ref = solve(sf)
    assert soc1.status == ref.status == "Optimal"
    assert soc1.iterations == ref.iterations
    assert soc1.primal_obj == pytest.approx(ref.primal_obj, rel=1e-9)


# -- KKT ordering ----------------------------------------------------------------


class _SpyPattern(_KktPattern):
    """Records every KKT pattern a solve builds, and counts its factorizations."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0
        _SpyPattern.made.append(self)

    def factor(self, ks, e, ridge):
        self.calls += 1
        return super().factor(ks, e, ridge)


class _ColamdPattern(_SpyPattern):
    """A pattern whose factorizations take SuperLU's COLAMD order every time."""

    def factor(self, ks, e, ridge):
        self.calls += 1
        assert not e.shape[1]  # no dense rows
        if ridge:
            ks = ks + ridge * sp.eye(ks.shape[0], format="csc")
        lu = solver_mod.spla.splu(ks, relax=1, panel_size=1)
        return partial(solver_mod._sparse_solve, lu, self.sparse)


@pytest.fixture
def spy(monkeypatch):
    _SpyPattern.made = []
    monkeypatch.setattr(solver_mod, "_KktPattern", _SpyPattern)
    return _SpyPattern.made


def _lattice_sf(builder, nl, seed=0, form="P"):
    data = homogenize(gen_lattice(LatticeSpec(nl, 20, seed)))
    if builder in (build_fsocp, build_fsdp, build_dual_fsocp):
        prog = builder(data)
    elif builder is build_ssdp:
        prog = builder(data, *chordal_parts(aggregate_pattern(data)))
    else:
        prog = builder(data, aggregate_pattern(data))
    return to_standard_form(prog, form)


def test_fsocp_takes_cached_mmd_ordering(spy, splu_calls, monkeypatch):
    sf = _lattice_sf(build_fsocp, 4)
    sol = solve(sf)
    (pattern,) = spy
    assert sol.status == "Optimal"
    assert pattern.permc_spec == "NATURAL"
    # COLAMD on every factorization reaches the same solution
    splu_calls.clear()
    monkeypatch.setattr(solver_mod, "_KktPattern", _ColamdPattern)
    ref = solve(sf)
    assert spy[1].calls == ref.iterations
    assert [spec for spec, *_ in splu_calls] == ["COLAMD"] * ref.iterations
    assert ref.status == "Optimal"
    assert sol.iterations == ref.iterations
    assert sol.primal_obj == pytest.approx(ref.primal_obj, abs=1e-9)


@pytest.fixture
def splu_calls(monkeypatch):
    """(permc_spec, dim, nnz, factor nnz) of every SuperLU factorization, in call order."""
    calls = []
    splu = solver_mod.spla.splu

    def spy(mat, *args, **kwargs):
        lu = splu(mat, *args, **kwargs)
        calls.append((kwargs.get("permc_spec") or "COLAMD", mat.shape[0], mat.nnz, lu.nnz))
        return lu

    monkeypatch.setattr(solver_mod.spla, "splu", spy)
    return calls


@pytest.mark.parametrize(
    "builder,nl,seed",
    [(build_fsocp, 4, 0), (build_ssocp, 20, 0), (build_ssocp, 24, 1)],
    ids=["fsocp-4", "ssocp-20", "ssocp-24-seed1"],
)
def test_decides_once_at_the_first_factorization(splu_calls, builder, nl, seed):
    sol = solve(_lattice_sf(builder, nl, seed))
    assert sol.status == "Optimal"
    specs = [spec for spec, *_ in splu_calls]
    # the first factor computes the MMD order and is used; later ones are laid out in it
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (sol.iterations - 1)
    # small diagonal-pivot thresholds keep later factors near the decision's fill
    decision = splu_calls[0][3]
    assert max(fill for *_, fill in splu_calls[1:]) <= 3 * decision


@pytest.mark.parametrize(
    "builder,form", [(build_fsocp, "P"), (build_ssocp, "P"), (build_ssocp, "D"), (build_fsdp, "P")]
)
def test_kkt_pattern_is_fixed_for_a_solve(splu_calls, builder, form):
    sf = _lattice_sf(builder, 4, form=form)
    assert form == "P" or ConeLayout(sf.K).free_idx.size  # (D) has free columns
    sol = solve(sf)
    assert sol.status == "Optimal"
    # none of these solves needs a ridge, which would add diagonal entries
    assert len(splu_calls) >= sol.iterations
    assert len({(dim, nnz) for _, dim, nnz, _ in splu_calls}) == 1


#: (builder, n_L, form, whether the solve starts on the normal equations); PSD
#: blocks with no free column, F-SDP and S-SDP in the (P) form, do
STRUCTURES = [
    pytest.param(build_ssocp, 4, "P", False, id="ssocp-4-P"),
    pytest.param(build_ssocp, 4, "D", False, id="ssocp-4-D"),
    pytest.param(build_fsdp, 4, "D", False, id="fsdp-4-D"),
    pytest.param(build_fsdp, 4, "P", True, id="fsdp-4-P"),
    pytest.param(build_ssdp, 5, "P", True, id="ssdp-5-P"),
]


@pytest.mark.parametrize("builder,nl,form,normal", STRUCTURES)
def test_ordering_follows_the_kkt_structure(spy, splu_calls, builder, nl, form, normal):
    sol = solve(_lattice_sf(builder, nl, form=form))
    (pattern,) = spy
    assert sol.status == "Optimal"
    specs = [spec for spec, *_ in splu_calls]
    dims = [dim for _, dim, *_ in splu_calls]
    # M's factorizations come first, then K's
    on_m = dims.count(pattern.p) if normal else 0
    assert dims[:on_m] == [pattern.p] * on_m
    assert set(dims[on_m:]) <= {pattern.sparse.size}
    # the first factorization computes the MMD order, the later ones reuse it
    mmd = specs[:on_m] if normal else specs
    assert mmd[0] == "MMD_AT_PLUS_A" and set(mmd[1:]) == {"NATURAL"}
    if normal:
        # one factorization of M per iteration; an iteration whose first solve
        # misses the constraint rows factors K too, and so do the ones after it,
        # in COLAMD's order
        switched = on_m < len(dims)
        assert specs[on_m:] == ["COLAMD"] * (len(dims) - on_m)
        assert pattern.normal != switched
        assert pattern.permc_spec == ("COLAMD" if switched else "NATURAL")
        assert len(dims) == sol.iterations + switched
        assert on_m >= sol.iterations - 3
        if builder is build_fsdp:
            assert not switched  # no augmented factorization
    else:
        assert not pattern.normal and pattern.permc_spec == "NATURAL"


@pytest.mark.parametrize("builder,nl,form,normal", STRUCTURES)
def test_no_factor_is_discarded(spy, splu_calls, builder, nl, form, normal):
    sol = solve(_lattice_sf(builder, nl, form=form))
    (pattern,) = spy
    assert sol.status == "Optimal"
    # no ridge retry: one factorization per iteration, each one SuperLU call, but
    # for the factor of M discarded where the normal equations give way to K
    switched = normal and not pattern.normal
    assert pattern.calls == sol.iterations + switched
    assert len(splu_calls) == sol.iterations + switched


def _decided(sf, scaling):
    """A natural-layout KKT pattern of sf, and one that has decided its order at `scaling`."""
    natural, pattern = _kkt_pattern(sf), _kkt_pattern(sf)
    ks, e, _ = pattern.assemble(scaling)
    pattern.factor(ks, e, 0.0)
    assert pattern.permc_spec == "NATURAL"
    return natural, pattern


def test_cached_order_gathers_the_permuted_matrix():
    # S-SOCP (P) has dense rows, (D) has none
    for form, n_dense in (("P", 20), ("D", 0)):
        sf = _lattice_sf(build_ssocp, 8, form=form)
        layout = ConeLayout(sf.K)
        natural, pattern = _decided(sf, _ssocp_scaling(layout, False))
        assert pattern.dense.size == n_dense
        # the decided layout is a permutation o of the natural one, and not the identity
        o = np.searchsorted(natural.sparse, pattern.sparse)
        assert np.array_equal(natural.sparse[o], pattern.sparse)
        assert not np.array_equal(o, np.arange(o.size))
        sc = _ssocp_scaling(layout, True)
        ks0, e0, eq0 = natural.assemble(sc)
        ks, e, eq = pattern.assemble(sc)
        want = ks0[o][:, o]
        want.sort_indices()
        assert np.array_equal(ks.indptr, want.indptr)
        assert np.array_equal(ks.indices, want.indices)
        assert np.array_equal(ks.data, want.data)
        assert np.array_equal(e, e0[o])
        assert np.array_equal(eq, eq0)


def test_ridge_is_added_after_the_permutation():
    # the ridge goes onto K_s in the decided layout: P (K + rI) P' = P K P' + rI
    sf = _lattice_sf(build_fsocp, 4)
    layout = ConeLayout(sf.K)
    natural, pattern = _decided(sf, _ssocp_scaling(layout, False))
    assert pattern.dense.size == 0
    sc = _ssocp_scaling(layout, True)
    kkt, _, _ = natural.assemble(sc)
    ks, e, _ = pattern.assemble(sc)
    r = np.linspace(0.0, 29.0, pattern.n)
    x = pattern.factor(ks, e, 0.5)(r)
    np.testing.assert_allclose((kkt + 0.5 * sp.eye(pattern.n)) @ x, r, atol=1e-10)


@pytest.mark.parametrize("builder,nl,form,normal", STRUCTURES)
def test_every_factorization_keeps_supernodes_unrelaxed(monkeypatch, spy, builder, nl, form, normal):
    options = []
    splu = solver_mod.spla.splu

    def record(mat, **kwargs):
        options.append((kwargs.get("relax"), kwargs.get("panel_size")))
        return splu(mat, **kwargs)

    monkeypatch.setattr(solver_mod.spla, "splu", record)
    sol = solve(_lattice_sf(builder, nl, form=form))
    (pattern,) = spy
    assert sol.status == "Optimal"
    # one more where the normal equations give way to K
    assert options == [(1, 1)] * (sol.iterations + (normal and not pattern.normal))


@pytest.mark.parametrize(
    "bad_solve",
    [lambda r: np.full_like(r, np.nan), lambda r: r / np.finfo(float).eps],
    ids=["nan", "singular"],
)
def test_first_solve_guards_the_factor(monkeypatch, bad_solve):
    sf = _lattice_sf(build_ssocp, 4)
    layout = ConeLayout(sf.K)
    pattern = _kkt_pattern(sf)
    ridges = []
    factor = _KktPattern.factor

    def stub(self, ks, e, ridge):
        ridges.append(ridge)
        lu_solve = factor(self, ks, e, ridge)
        return bad_solve if len(ridges) == 1 else lu_solve

    monkeypatch.setattr(_KktPattern, "factor", stub)
    kkt = _KktSolver(pattern, _ssocp_scaling(layout, True), -sf.c, sf.b)
    assert kkt.ok
    assert ridges == [0.0, solver_mod.RIDGE]  # exactly one ridge retry
    u, v = kkt.first
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    np.testing.assert_allclose(sf.A @ u, sf.b, atol=1e-8 * np.linalg.norm(sf.b))


@pytest.mark.parametrize("builder", [build_fsdp, build_ssocp])
@pytest.mark.parametrize("later", [1, 2], ids=["predictor", "corrector"])
def test_non_finite_direction_is_a_numerical_failure(monkeypatch, builder, later):
    # the factor of the third iteration passes its guard on the first solve,
    # then returns NaN from the predictor's solve on, or the corrector's
    init, solve2 = _KktSolver.__init__, _KktSolver.solve2
    made = []

    def stub_init(self, *args):
        self.solves = 0
        init(self, *args)
        made.append(self)
        if len(made) == 3:
            lu_solve = self.lu_solve
            self.lu_solve = lambda r: np.full_like(r, np.nan) if self.solves > later else lu_solve(r)

    def counted(self, g, h):
        self.solves += 1
        return solve2(self, g, h)

    monkeypatch.setattr(_KktSolver, "__init__", stub_init)
    monkeypatch.setattr(_KktSolver, "solve2", counted)
    sol = solve(_lattice_sf(builder, 3))
    assert sol.status == "NumericalFailure"
    assert sol.iterations == 2 and len(made) == 3
    assert made[2].ok and made[2].solves == later + 1


def test_every_triangular_solve_is_made_by_solve2(monkeypatch, spy):
    # the factor's finiteness guard reads the first real solve: no probe solve
    depth = {"solve2": 0, "factor": 0}
    outside, in_solve2, in_factor = [], [], []

    class CountingLU:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            if depth["solve2"]:
                in_solve2.append(rhs.ndim)
            elif depth["factor"]:
                in_factor.append(rhs.ndim)
            else:
                outside.append(rhs.ndim)
            return self._lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def entered(name, method):
        def wrapper(*args, **kwargs):
            depth[name] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[name] -= 1

        return wrapper

    splu = solver_mod.spla.splu
    monkeypatch.setattr(solver_mod.spla, "splu", lambda *a, **k: CountingLU(splu(*a, **k)))
    monkeypatch.setattr(_KktSolver, "solve2", entered("solve2", _KktSolver.solve2))
    monkeypatch.setattr(_SpyPattern, "factor", entered("factor", _SpyPattern.factor))
    sol = solve(_lattice_sf(build_ssocp, 8))
    (pattern,) = spy
    assert sol.status == "Optimal"
    assert pattern.dense.size == 20 and pattern.calls == sol.iterations
    assert outside == []
    # Z = K_s^-1 E, one multi-column solve per factorization
    assert in_factor == [2] * sol.iterations
    # (-c, b), the predictor and the corrector, each with its refinement
    assert len(in_solve2) >= 3 * sol.iterations and set(in_solve2) == {1}


def _count_correctors(monkeypatch):
    """Spy on the centrality corrector: per call, the Mehrotra step's alpha, the alpha
    taken and whether the corrector was kept."""
    tried = []
    corrector = solver_mod._centrality_corrector

    def counted(sc, direction, boundary, step, alpha, *args):
        out = corrector(sc, direction, boundary, step, alpha, *args)
        tried.append((alpha, out[1], out[0] is not step))
        return out

    monkeypatch.setattr(solver_mod, "_centrality_corrector", counted)
    return tried


@pytest.mark.parametrize("builder,form", [(build_fsocp, "P"), (build_ssocp, "D")])
def test_refinement_residual_takes_one_winv_product(monkeypatch, builder, form):
    # each raw solve applies W to g and to its solution w = W^-1 u; each refinement
    # residual takes H^-1 u = W^-1 w from the carried w, and apply_Hinv is not called
    sf = _lattice_sf(builder, 4, form=form)
    counts = {"W": 0, "Winv": 0, "raw": 0}
    per_solve2 = []
    tried = _count_correctors(monkeypatch)
    scaling_map, raw_solve, solve2 = Scaling._map, _KktSolver._raw_solve, _KktSolver.solve2

    def counted_map(self, u, inverse):
        counts["Winv" if inverse else "W"] += 1
        return scaling_map(self, u, inverse)

    def counted_raw_solve(self, g, h):
        counts["raw"] += 1
        return raw_solve(self, g, h)

    def counted_solve2(self, g, h):
        before = dict(counts)
        out = solve2(self, g, h)
        per_solve2.append({k: counts[k] - before[k] for k in counts})
        return out

    def no_hinv(self, u):
        raise AssertionError("apply_Hinv called")

    monkeypatch.setattr(Scaling, "_map", counted_map)
    monkeypatch.setattr(Scaling, "apply_Hinv", no_hinv)
    monkeypatch.setattr(_KktSolver, "_raw_solve", counted_raw_solve)
    monkeypatch.setattr(_KktSolver, "solve2", counted_solve2)
    sol = solve(sf)
    # (-c, b), the predictor and the corrector, and one solve per centrality corrector
    assert sol.status == "Optimal" and tried
    assert len(per_solve2) == 3 * sol.iterations + len(tried)
    for c in per_solve2:
        assert c["W"] == 2 * c["raw"]
        # a residual follows every raw solve but the one after the last refinement step
        assert c["Winv"] == min(c["raw"], solver_mod.MAX_REFINE)
    assert any(c["raw"] > 1 for c in per_solve2)
    # the refined (u, v) meet the Newton system in the caller's units, with H^-1 u
    # taken from u itself, at a mid-solve scaling and for a second right-hand side
    sc = _mid_solve_scaling(sf)
    pattern = _kkt_pattern(sf)
    A, free = pattern.A, pattern.free_idx
    kkt = _KktSolver(pattern, sc, -sf.c, sf.b)
    assert kkt.ok
    rng = np.random.default_rng(16)
    g, h = rng.standard_normal(pattern.q), rng.standard_normal(pattern.p)
    for (g, h), (u, v) in [((-sf.c, sf.b), kkt.first), ((g, h), kkt.solve2(g, h))]:
        hinv_u = sc.apply_Winv(sc.apply_Winv(u))
        assert not hinv_u[free].any()
        err = np.linalg.norm(g - (hinv_u - A.T @ v)) + np.linalg.norm(h - A @ u)
        assert err <= 1e-11 * (1.0 + np.linalg.norm(g) + np.linalg.norm(h))


@pytest.mark.parametrize("form", ["P", "D"])
@pytest.mark.parametrize("builder", [build_fsdp, build_ssdp])
def test_psd_layouts_take_no_centrality_corrector(monkeypatch, builder, form):
    calls = []
    solve2 = _KktSolver.solve2

    def counted(self, g, h):
        calls.append(1)
        return solve2(self, g, h)

    monkeypatch.setattr(_KktSolver, "solve2", counted)
    tried = _count_correctors(monkeypatch)
    sol = solve(_lattice_sf(builder, 3, form=form))
    assert sol.status == "Optimal"
    assert tried == [] and len(calls) == 3 * sol.iterations


@pytest.mark.parametrize("builder,form", [(build_fsocp, "P"), (build_ssocp, "P"), (build_dual_ssocp, "D")])
def test_centrality_corrector_runs_on_short_steps(monkeypatch, builder, form):
    # tried only when the Mehrotra step to the boundary is short of 1, and kept only
    # if it lengthens that step by ACCEPT_GAIN
    steps = _count_correctors(monkeypatch)
    boundaries = []
    max_step = ConeLayout.max_step

    def recorded(self, z, dz):
        boundaries.append(max_step(self, z, dz))
        return boundaries[-1]

    monkeypatch.setattr(ConeLayout, "max_step", recorded)
    sol = solve(_lattice_sf(builder, 4, form=form))
    assert sol.status == "Optimal" and steps
    for alpha, taken, kept in steps:
        assert alpha < 1.0
        assert taken >= solver_mod.ACCEPT_GAIN * alpha if kept else taken == alpha
    assert any(kept for *_, kept in steps)
    # one step to the boundary for the predictor and one for the Mehrotra direction
    # per iteration, and one for each corrector
    assert len(boundaries) == 2 * sol.iterations + len(steps)


def test_non_finite_centrality_corrector_keeps_the_step(monkeypatch):
    # the factor of the third iteration returns NaN from its fourth solve on, the
    # centrality corrector's: the Mehrotra step is taken and the solve goes on
    init, solve2 = _KktSolver.__init__, _KktSolver.solve2
    made = []

    def stub_init(self, *args):
        self.solves = 0
        init(self, *args)
        made.append(self)
        if len(made) == 3:
            lu_solve = self.lu_solve
            self.lu_solve = lambda r: np.full_like(r, np.nan) if self.solves > 3 else lu_solve(r)

    def counted(self, g, h):
        self.solves += 1
        return solve2(self, g, h)

    monkeypatch.setattr(_KktSolver, "__init__", stub_init)
    monkeypatch.setattr(_KktSolver, "solve2", counted)
    sf = _lattice_sf(build_ssocp, 3)
    sol = solve(sf)
    assert made[2].solves == 4
    assert sol.status == "Optimal" and sol.iterations > 3
    assert sol.residuals == residuals(sf, sol)


def test_ridge_retry_with_cached_order(splu_calls):
    # duplicate rows make the KKT matrix exactly singular, so only a ridge helps
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    layout = ConeLayout([ConeBlock("nonneg", 3)])
    sc = layout.scaling(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 1.0]))
    pattern = _SpyPattern(A, layout)
    assert _KktSolver(pattern, sc, np.ones(3), np.arange(3.0)).ok  # the decision, itself after a ridge retry
    assert pattern.permc_spec == "NATURAL"
    pattern.calls = 0
    splu_calls.clear()
    kkt = _KktSolver(pattern, sc, np.ones(3), np.arange(3.0))
    assert kkt.ok
    assert pattern.calls >= 2  # at least one ridge retry
    assert {spec for spec, *_ in splu_calls} == {"NATURAL"}
    g, h = np.array([1.0, -1.0, 0.5]), A @ np.array([1.0, 2.0, 1.0])
    u, v = kkt.solve2(g, h)
    np.testing.assert_allclose(A @ u, h, atol=1e-6)


# -- dense constraint rows ---------------------------------------------------------


def _kkt_pattern(sf):
    """The KKT pattern that `solve` builds for sf."""
    A, _, _ = solver_mod._drop_duplicate_rows(sp.csr_matrix(sf.A), sf.b)
    return _KktPattern(A, ConeLayout(sf.K))


@pytest.mark.parametrize("nl", [8, 16, 24])
def test_ssocp_splits_off_its_quadratic_constraint_rows(nl):
    sf = _lattice_sf(build_ssocp, nl)
    # the m = 20 quadratic-constraint rows are the rows of A that touch more
    # than two diagonal columns (the first `dim` ones); an edge row touches
    # two, the ball row only diagonal ones
    n_diag = sf.meta["dim"]
    quad = np.flatnonzero(np.diff((sf.A[:, :n_diag] != 0).tocsr().indptr) > 2)
    pattern = _kkt_pattern(sf)
    assert quad.size == 20
    np.testing.assert_array_equal(pattern.dense, pattern.q + quad)
    # the ball row is among them though it touches only about 15% of the cone columns
    assert min(np.diff(sf.A.indptr)[quad]) < 0.2 * pattern.q


@pytest.mark.parametrize("nl", [3, 4])
@pytest.mark.parametrize("builder", BUILDERS)
def test_free_columns_join_the_first_block(builder, nl):
    # a (D) form's free columns are columns of B with no diagonal entry: no third block
    sf = _lattice_sf(builder, nl, form="D")
    free = ConeLayout(sf.K).free_idx
    assert free.size
    pattern = _kkt_pattern(sf)
    p, q = pattern.A.shape
    assert pattern.n == p + q
    ks, e, _ = pattern.assemble(_ssocp_scaling(ConeLayout(sf.K), False))
    assert e.shape[1] == 0 and ks.shape == (p + q,) * 2
    diag = np.empty(pattern.n)
    diag[pattern.sparse] = ks.diagonal()
    assert not diag[free].any() and not diag[q:].any()
    assert np.all(np.delete(diag[:q], free) > 0.0)


@pytest.mark.parametrize(
    "builder,form",
    [(build_fsocp, "P"), (build_ssocp, "D"), (build_dual_ssocp, "P"), (build_fsdp, "P"), (build_ssdp, "P")],
)
@pytest.mark.parametrize("nl", [3, 4, 5, 6])
def test_other_relaxations_factor_the_whole_system(builder, form, nl):
    pattern = _kkt_pattern(_lattice_sf(builder, nl, form=form))
    assert pattern.dense.size == 0
    if builder in (build_fsdp, build_ssdp):
        # the normal equations: M's rows are all constraint rows
        assert pattern.normal
        np.testing.assert_array_equal(pattern.sparse, pattern.q + np.arange(pattern.p))
    else:
        assert pattern.sparse.size == pattern.n


def _ssocp_scaling(layout, interior):
    if not interior:
        e = layout.identity()
        return layout.scaling(e, e)
    rng = np.random.default_rng(4)
    x, s = (
        layout.identity() * rng.uniform(0.1, 10.0, layout.dim)
        + rng.uniform(-0.3, 0.3, layout.dim) / np.sqrt(layout.dim)
        for _ in range(2)
    )
    assert layout.in_interior(x) and layout.in_interior(s)
    return layout.scaling(x, s)


@pytest.mark.parametrize("interior", [False, True])
@pytest.mark.parametrize("ridge", [0.0, 1e-6])
def test_block_elimination_matches_a_full_factorization(monkeypatch, interior, ridge):
    sf = _lattice_sf(build_ssocp, 8)
    pattern = _kkt_pattern(sf)
    # with no row taken as dense, K_s is the whole of K
    monkeypatch.setattr(_KktPattern, "_dense_rows", lambda self, counts: np.empty(0, dtype=int))
    whole = _kkt_pattern(sf)
    assert pattern.dense.size == 20 and whole.dense.size == 0
    sc = _ssocp_scaling(ConeLayout(sf.K), interior)
    ks, e, eq = pattern.assemble(sc)
    kkt, e0, eq0 = whole.assemble(sc)
    assert ks.shape == (pattern.n - 20,) * 2 and e.shape == (pattern.n - 20, 20)
    assert kkt.shape == (pattern.n,) * 2 and e0.shape == (pattern.n, 0)
    # both assemblies equilibrate the same K
    assert np.array_equal(eq, eq0)
    r = np.random.default_rng(5).standard_normal(pattern.n)
    want = spla.splu(sp.csc_matrix(kkt + ridge * sp.eye(pattern.n))).solve(r)
    got = pattern.factor(ks, e, ridge)(r)  # the decision
    ks, e, _ = pattern.assemble(sc)
    again = pattern.factor(ks, e, ridge)(r)  # in the decided layout
    for x in (got, again):
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_split_solve_matches_the_unsplit_solve(monkeypatch):
    sf = _lattice_sf(build_ssocp, 8)
    assert _kkt_pattern(sf).dense.size == 20
    sol = solve(sf)
    monkeypatch.setattr(_KktPattern, "_dense_rows", lambda self, counts: np.empty(0, dtype=int))
    assert _kkt_pattern(sf).dense.size == 0
    ref = solve(sf)
    assert sol.status == ref.status == "Optimal"
    assert sol.iterations == ref.iterations
    assert sol.primal_obj == pytest.approx(ref.primal_obj, abs=1e-9)


def test_singular_schur_complement_takes_the_ridge_retry(splu_calls):
    # four dense rows over 40 nonneg columns, two of them equal, so the
    # sparse part is regular and the Schur complement singular
    rng = np.random.default_rng(2)
    q = 40
    dense = rng.uniform(0.5, 1.5, (3, q))
    sparse = np.eye(q)[::2]
    A = sp.csr_matrix(np.vstack([dense[:1], dense, sparse]))
    layout = ConeLayout([ConeBlock("nonneg", q)])
    sc = layout.scaling(rng.uniform(0.5, 2.0, q), rng.uniform(0.5, 2.0, q))
    pattern = _KktPattern(A, layout)
    np.testing.assert_array_equal(pattern.dense, q + np.arange(4))
    ks, e, _ = pattern.assemble(sc)
    assert e.shape == (pattern.n - 4, 4)
    with pytest.raises(RuntimeError):
        pattern.factor(ks, e, 0.0)
    # the retry in the deciding iteration: MMD succeeds on K_s, then S is singular
    pattern = _KktPattern(A, layout)
    splu_calls.clear()
    solver = _KktSolver(pattern, sc, np.ones(q), np.ones(A.shape[0]))
    assert solver.ok
    specs = [spec for spec, *_ in splu_calls]
    assert specs[0] == "MMD_AT_PLUS_A" and len(specs) >= 2  # at least one ridge retry
    assert set(specs[1:]) == {"NATURAL"}
    g, h = rng.standard_normal(q), A @ rng.uniform(0.5, 2.0, q)
    u, v = solver.solve2(g, h)
    np.testing.assert_allclose(A @ u, h, atol=1e-6)


# -- normal equations ----------------------------------------------------------------


def _mid_solve_scaling(sf, iterations=4):
    """The NT scaling at the iterate that `iterations` steps of the solver reach."""
    sol = solve(sf, SolverConfig(max_iterations=iterations))
    assert sol.status == "IterationLimit"
    return ConeLayout(sf.K).scaling(sol.x, sol.s)


@pytest.mark.parametrize("ridge", [0.0, solver_mod.RIDGE])
@pytest.mark.parametrize("builder,nl", [(build_fsdp, 4), (build_ssdp, 5)], ids=["fsdp-4", "ssdp-5"])
def test_normal_equations_solve_the_augmented_system(builder, nl, ridge):
    sf = _lattice_sf(builder, nl)
    sc = _mid_solve_scaling(sf)
    pattern = _kkt_pattern(sf)
    assert pattern.normal
    p, q = pattern.p, pattern.q
    # the equilibrated augmented K = [[I, B'], [B, 0]], from B's values alone
    B = np.zeros((p, q))
    B[pattern.columns.rows, pattern.columns.cols] = sc.scale_columns(pattern.columns)
    r = np.random.default_rng(6).standard_normal(pattern.n)
    for _ in range(2):  # the decision, then in the decided layout
        m, b, eq = pattern.assemble(sc)
        np.testing.assert_allclose(b.toarray(), eq[q:, None] * B, rtol=1e-15)
        assert np.all(eq[:q] == 1.0)
        kkt = np.block([[np.eye(q), b.toarray().T], [b.toarray(), np.zeros((p, p))]])
        want = np.linalg.solve(kkt + ridge * np.eye(pattern.n), r)
        got = pattern.factor(m, b, ridge)(r)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert pattern.permc_spec == "NATURAL"


def test_normal_equations_are_b_b_transpose():
    sf = _lattice_sf(build_ssdp, 5)
    sc = _mid_solve_scaling(sf)
    pattern = _kkt_pattern(sf)
    m, b, _ = pattern.assemble(sc)
    np.testing.assert_allclose(m.toarray(), (b @ b.T).toarray(), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(m.diagonal(), 1.0, rtol=1e-14)
    # M is stored only where two rows touch a common cone, and on the diagonal
    touch = sp.csr_matrix((np.ones(pattern.columns.rows.size),
                           (pattern.columns.rows, pattern.columns.cols)), shape=b.shape)
    shared = ((touch @ touch.T) + sp.eye(pattern.p)).tocsc()
    shared.sort_indices()
    np.testing.assert_array_equal(m.indptr, shared.indptr)
    np.testing.assert_array_equal(m.indices, shared.indices)


@pytest.mark.parametrize("form", ["P", "D"])
@pytest.mark.parametrize("builder", BUILDERS)
def test_only_psd_primal_forms_take_the_normal_equations(monkeypatch, builder, form):
    sf = _lattice_sf(builder, 3, form=form)
    normal = builder in (build_fsdp, build_ssdp) and form == "P"
    assert _kkt_pattern(sf).normal == normal
    if not normal:
        # an SOCP solve, or a (D) form, never computes M
        def fail(self, vals):
            raise AssertionError("normal equations taken")

        monkeypatch.setattr(_KktPattern, "_normal_system", fail)
    assert solve(sf).status == "Optimal"


def _drop_duplicate_rows_loop(A, b):
    """The row-by-row reference of _drop_duplicate_rows, without its warning."""
    seen, keep = set(), []
    for r in range(A.shape[0]):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        key = (A.indices[lo:hi].tobytes(), A.data[lo:hi].tobytes(), float(b[r]))
        if key not in seen:
            seen.add(key)
            keep.append(r)
    return keep


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_rows_match_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    base = sp.random(30, 12, density=0.25, random_state=seed, format="csr")
    base.data = np.round(base.data * 4)  # few distinct values, so rows collide
    A0 = sp.vstack([base, base[:10], base[5:15], sp.csr_matrix((3, 12))]).tocsr()
    b0 = np.round(rng.uniform(-1, 1, A0.shape[0]))
    b0[30:35] += 1.0  # equal in A to rows 0-4, not in b
    b0[rng.choice(A0.shape[0], 3)] = np.nan
    b0[rng.choice(A0.shape[0], 3)] = -0.0
    order = rng.permutation(A0.shape[0])
    A, b = A0[order], b0[order]
    want = _drop_duplicate_rows_loop(A, b)
    assert 0 < len(want) < A.shape[0]
    with pytest.warns(UserWarning, match=f"dropped {A.shape[0] - len(want)} duplicate"):
        A2, b2, kept = solver_mod._drop_duplicate_rows(A, b)
    np.testing.assert_array_equal(kept, want)
    assert (A2 != A[want]).nnz == 0
    np.testing.assert_array_equal(b2, b[want])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver_mod._drop_duplicate_rows(A2, b2)[2] is None


@pytest.mark.parametrize("nl,seed", [(3, 2), (4, 0)])
def test_ssdp_solution_keeps_its_clique_blocks_psd(nl, seed):
    # near a degenerate optimum M loses the constraint rows, among them the ones
    # that make overlapping clique blocks agree; the switch to K keeps them exact
    data = homogenize(gen_lattice(LatticeSpec(nl, 20, seed)))
    ext, cs, overlaps = chordal_parts(aggregate_pattern(data))
    prog = build_ssdp(data, ext, cs, overlaps)
    sf = to_standard_form(prog, "P")
    sol = solve(sf)
    assert sol.status == "Optimal"
    entries = extract_entries(prog, variable_values(sf, sol))
    partial_matrix = PartialMatrix(prog.metadata["dim"], entries, ext.extended.edges)
    assert is_psd_completable(partial_matrix, cs)
