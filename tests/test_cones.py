import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qcrelax.build import build_ssocp
from qcrelax.cones import ColumnPattern, ConeLayout, _soc_boundary_steps
from qcrelax.generators import LatticeSpec, gen_lattice
from qcrelax.model import aggregate_pattern, homogenize
from qcrelax.program import ConeBlock, smat, svec, to_standard_form
from qcrelax.solver import _KktPattern


def scalar_boundary_step(a, b, c, z0, d0):
    """Textbook-root form of one cone's boundary step, kept as the oracle."""
    roots = []
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            sq = np.sqrt(disc)
            roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
    elif b != 0.0:
        roots = [-c / b]
    pos = [t for t in roots if t > 0.0 and z0 + t * d0 >= -1e-14 * max(1.0, abs(z0))]
    return min(pos) if pos else np.inf


# (a, b, c, z0, d0)
EDGE_CASES = [
    (0.0, -2.0, 4.0, 3.0, -1.0),  # a = 0: linear root -c/b = 2
    (0.0, 2.0, 4.0, 3.0, 1.0),  # a = 0, root negative
    (0.0, 0.0, 4.0, 3.0, 0.0),  # a = b = 0: never leaves
    (-1.0, 0.0, 4.0, 3.0, 0.0),  # b = 0: roots +-2
    (1.0, 0.0, 4.0, 3.0, 1.0),  # b = 0, disc < 0
    (1.0, 1.0, 1.0, 3.0, 1.0),  # disc < 0
    (1.0, -1.0, 1.0, 3.0, 1.0),  # disc < 0 with a positive vertex
    (1.0, -4.0, 4.0, 3.0, 1.0),  # tangent: double root 2
    (1.0, -3.0, 2.0, 3.0, -1.0),  # roots 1 and 2
    (1.0, -3.0, 2.0, 1.5, -1.0),  # head goes negative before the second root
    (-2.0, 1.0, 3.0, 2.0, -4.0),  # the positive root fails the head check
]


@pytest.mark.parametrize("case", EDGE_CASES)
def test_soc_boundary_steps_edge_cases(case):
    got = _soc_boundary_steps(*(np.array([v]) for v in case))[0]
    want = scalar_boundary_step(*case)
    if np.isinf(want):
        assert np.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-14)


def test_soc_boundary_steps_match_scalar_on_random_cones():
    rng = np.random.default_rng(0)
    d, k = 5, 400
    z = rng.standard_normal((k, d))
    z[:, 0] = np.linalg.norm(z[:, 1:], axis=1) + rng.uniform(0.01, 1.0, k)
    dz = rng.standard_normal((k, d))
    dz[::7, 0] = np.linalg.norm(dz[::7, 1:], axis=1)  # a = 0 on some cones
    dz[::11] = z[::11]  # never leaves the cone
    a = dz[:, 0] ** 2 - np.sum(dz[:, 1:] ** 2, axis=1)
    b = 2.0 * (z[:, 0] * dz[:, 0] - np.sum(z[:, 1:] * dz[:, 1:], axis=1))
    c = z[:, 0] ** 2 - np.sum(z[:, 1:] ** 2, axis=1)
    got = _soc_boundary_steps(a, b, c, z[:, 0], dz[:, 0])
    want = np.array([scalar_boundary_step(*args) for args in zip(a, b, c, z[:, 0], dz[:, 0])])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert fin.sum() > k // 2
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-9)


def test_soc_boundary_steps_small_root_without_cancellation():
    # roots 1e-8 and 1e8: the textbook form loses the small one to cancellation
    a, b, c = 1.0, -(1e8 + 1e-8), 1.0
    got = _soc_boundary_steps(*(np.array([v]) for v in (a, b, c, 1.0, 1.0)))[0]
    assert got == pytest.approx(1e-8, rel=1e-15)
    assert abs(scalar_boundary_step(a, b, c, 1.0, 1.0) - 1e-8) > 1e-15


def test_max_step_over_soc_groups():
    layout = ConeLayout([ConeBlock("soc", 3), ConeBlock("soc", 3), ConeBlock("nonneg", 2)])
    z = np.array([2.0, 1.0, 0.0, 1.0, 0.0, 0.5, 1.0, 1.0])
    dz = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.25])
    # first cone: head 2 - t meets tail norm 1 at t = 1; nonneg leaves at t = 4
    assert layout.max_step(z, dz) == pytest.approx(1.0)
    assert layout.max_step(z, np.zeros(8)) == np.inf


def test_max_step_of_one_dimensional_socs_is_the_exact_step():
    # the double root of a d = 1 cone's determinant often rounds to disc < 0,
    # or to two roots about sqrt(eps) apart
    layout = ConeLayout([ConeBlock("soc", 1)] * 1000)
    rng = np.random.default_rng(0)
    for _ in range(20):
        z, dz = rng.uniform(0.1, 2.0, 1000), rng.standard_normal(1000)
        neg = dz < 0
        exact = np.min(-z[neg] / dz[neg])
        assert exact * (1.0 - 1e-7) <= layout.max_step(z, dz) <= exact


# nonneg, soc, two psd blocks of side 2, a psd block of side 3, free columns
MIXED = [
    ConeBlock("nonneg", 2),
    ConeBlock("soc", 3),
    ConeBlock("psd", 2),
    ConeBlock("zero", 2),
    ConeBlock("psd", 2),
    ConeBlock("psd", 3),
]
PSD3 = slice(13, 19)  # the side-3 block's svec coordinates


def soc_cones(layout):
    """The coordinates of each second-order cone, read from the layout's flat arrays."""
    return np.split(layout.soc_idx, layout.soc_heads[1:])[: layout.soc_heads.size]


def interior_point(layout, rng):
    """A random strictly interior point, with zeros on the free coordinates."""
    z = np.zeros(layout.dim)
    for t in soc_cones(layout):
        tail = rng.standard_normal(t.size - 1)
        z[t[1:]] = tail
        z[t[0]] = np.linalg.norm(tail) + rng.uniform(0.1, 1.0)
    for side, take in layout._psd_take.items():
        G = rng.standard_normal((len(take), side, side))
        z[take] = svec(G @ np.swapaxes(G, -1, -2) + 0.5 * np.eye(side))
    return z


def test_mixed_layout_groups():
    layout = ConeLayout(MIXED)
    assert layout.dim == 19
    assert list(layout.free_idx) == [8, 9]
    assert {n: list(s) for n, s in layout.psd_groups.items()} == {2: [5, 10], 3: [13]}
    assert layout.degree == 2 + 1 + 2 + 2 + 3
    e = layout.identity()
    assert np.array_equal(e[PSD3], svec(np.eye(3)))
    assert layout.in_interior(e)


def mixed_A(layout, rng):
    """A random constraint matrix on the MIXED layout with the edge cases of B = A W."""
    A = rng.standard_normal((6, layout.dim)) * (rng.random((6, layout.dim)) < 0.5)
    A[:, PSD3] = 0.0  # no row touches the side-3 block
    A[0, 5:8] = A[0, 10:13] = 1.0  # a row touching both side-2 blocks
    A[1, 5:8] = A[1, 10:13] = 0.0  # a row touching neither
    A[2, :] = 0.0  # an empty row
    A[3, layout.free_idx] = 1.5  # a row touching the free columns
    return A


def structural_pattern(layout, A):
    """Every (row, column) where B = A W can be nonzero: the row's cone segments."""
    cones = [list(t) for t in soc_cones(layout)]
    cones += [list(t) for take in layout._psd_take.values() for t in take]
    return {(r, j) for r in range(A.shape[0]) for c in cones if A[r, c].any() for j in c}


def test_scale_columns_matches_dense_reference():
    layout = ConeLayout(MIXED)
    rng = np.random.default_rng(5)
    sc = layout.scaling(interior_point(layout, rng), interior_point(layout, rng))
    A = mixed_A(layout, rng)
    pat = ColumnPattern(layout, sp.csr_matrix(A))
    B = sp.csr_matrix((sc.scale_columns(pat), (pat.rows, pat.cols)), shape=A.shape)
    # row r of B is W applied to row r of A; W leaves free coordinates at zero
    want = np.array([sc.apply_W(row) for row in A])
    assert not want[:, PSD3].any() and not want[:, layout.free_idx].any()
    np.testing.assert_allclose(B.toarray(), want, rtol=1e-12, atol=1e-12)
    # the stored pattern is the structural one, once per entry, at every scaling
    entries = set(zip(pat.rows.tolist(), pat.cols.tolist()))
    assert len(entries) == pat.rows.size == B.nnz
    assert entries == structural_pattern(layout, A)
    e = layout.identity()
    ident = layout.scaling(e, e).scale_columns(pat)
    B0 = sp.csr_matrix((ident, (pat.rows, pat.cols)), shape=A.shape)
    assert np.array_equal(B0.indptr, B.indptr) and np.array_equal(B0.indices, B.indices)
    # at W = I the values are those of A, and its zeros stay stored
    np.testing.assert_allclose(ident, A[pat.rows, pat.cols], rtol=1e-14, atol=0.0)
    assert np.any(ident == 0.0)


def reference_kkt(A, B, free_idx):
    """The sp.bmat assembly of [[D, B'], [B, 0]] with row-max equilibration, kept as the oracle.

    B's free columns are A's, and D is 1 on the cone columns and 0 on the free ones.
    """
    p, q = A.shape
    B = sp.lil_matrix(B)
    B[:, free_idx] = A[:, free_idx]
    d = np.ones(q)
    d[free_idx] = 0.0
    kkt = sp.bmat([[sp.diags(d), B.T], [B, None]], format="csc")
    rmax = np.maximum(abs(kkt).max(axis=1).toarray().ravel(), 1e-12)
    eq = 1.0 / np.sqrt(rmax)
    D = sp.diags(eq)
    return (D @ kkt @ D).tocsc(), eq


def whole_kkt(pattern, ks, e):
    """K rebuilt from its sparse part K_s and its dense-row columns E."""
    kkt = np.zeros((pattern.n, pattern.n))
    kkt[np.ix_(pattern.sparse, pattern.sparse)] = ks.toarray()
    kkt[np.ix_(pattern.sparse, pattern.dense)] = e
    kkt[np.ix_(pattern.dense, pattern.sparse)] = e.T
    return kkt


def scaling_at(layout, at_identity, rng):
    """The scaling at W = I, or at a random interior pair."""
    if at_identity:
        return layout.scaling(layout.identity(), layout.identity())
    return layout.scaling(interior_point(layout, rng), interior_point(layout, rng))


def check_kkt_assembly(layout, sc, A, nd):
    """(K_s, E, eq) at scaling sc against the sp.bmat oracle; nd rows of A are dense."""
    B = [sc.apply_W(row) for row in A]
    want, want_eq = reference_kkt(sp.csr_matrix(A), B, layout.free_idx)
    pattern = _KktPattern(sp.csr_matrix(A), layout)
    ks, e, eq = pattern.assemble(sc)
    n = layout.dim + A.shape[0]
    assert want.shape == (pattern.n, pattern.n) == (n, n)
    assert ks.shape == (n - nd, n - nd) and e.shape == (n - nd, nd)
    np.testing.assert_allclose(eq, want_eq, rtol=1e-12)
    np.testing.assert_allclose(whole_kkt(pattern, ks, e), want.toarray(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("at_identity", [True, False])
def test_kkt_assembly_matches_bmat_oracle(at_identity):
    layout = ConeLayout(MIXED)
    rng = np.random.default_rng(9)
    sc = scaling_at(layout, at_identity, rng)
    check_kkt_assembly(layout, sc, mixed_A(layout, rng), 0)


@pytest.mark.parametrize("at_identity", [True, False])
def test_kkt_assembly_with_dense_rows_matches_bmat_oracle(at_identity):
    # S-SOCP in the (P) form: its 20 quadratic-constraint rows are dense
    data = homogenize(gen_lattice(LatticeSpec(8, 20, 0)))
    sf = to_standard_form(build_ssocp(data, aggregate_pattern(data)), "P")
    layout = ConeLayout(sf.K)
    sc = scaling_at(layout, at_identity, np.random.default_rng(9))
    check_kkt_assembly(layout, sc, sf.A.toarray(), 20)


def test_scaling_identities_on_psd_groups():
    layout = ConeLayout(MIXED)
    rng = np.random.default_rng(6)
    x, s = interior_point(layout, rng), interior_point(layout, rng)
    sc = layout.scaling(x, s)
    cone = np.setdiff1d(np.arange(layout.dim), layout.free_idx)
    np.testing.assert_allclose(sc.apply_W(s)[cone], sc.lmbda[cone], rtol=1e-10)
    np.testing.assert_allclose(sc.apply_Winv(x)[cone], sc.lmbda[cone], rtol=1e-10)
    d = rng.standard_normal(layout.dim)
    d[layout.free_idx] = 0.0
    np.testing.assert_allclose(sc.jordan(sc.lmbda, sc.lam_solve(d)), d, atol=1e-10)


# a nonneg block beside SOC(1), SOC(2), SOC(3) and SOC(5) cones, and a psd block
EVERY_SOC = [
    ConeBlock("nonneg", 2),
    ConeBlock("soc", 1),
    ConeBlock("soc", 3),
    ConeBlock("psd", 3),
    ConeBlock("soc", 2),
    ConeBlock("soc", 5),
    ConeBlock("soc", 3),
]


def test_nt_scaling_on_every_soc_dimension():
    layout = ConeLayout(EVERY_SOC)
    # nonneg coordinates are SOC(1) cones
    assert list(layout.soc_idx[layout.soc_heads[layout.soc_dims == 1]]) == [0, 1, 2]
    rng = np.random.default_rng(11)
    x, s = interior_point(layout, rng), interior_point(layout, rng)
    sc = layout.scaling(x, s)
    eye = np.eye(layout.dim)
    W = np.array([sc.apply_W(u) for u in eye]).T
    Winv = np.array([sc.apply_Winv(u) for u in eye]).T
    # W is symmetric and block diagonal over the cones, and apply_Winv inverts it
    blocks = soc_cones(layout) + [t for take in layout._psd_take.values() for t in take]
    on_block = np.zeros(W.shape, dtype=bool)
    for t in blocks:
        on_block[np.ix_(t, t)] = True
    assert not W[~on_block].any() and not Winv[~on_block].any()
    np.testing.assert_allclose(W, W.T, rtol=0.0, atol=1e-14 * np.abs(W).max())
    np.testing.assert_allclose(W @ Winv, eye, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(W @ s, sc.lmbda, rtol=1e-12)
    np.testing.assert_allclose(Winv @ x, sc.lmbda, rtol=1e-12)
    # lambda = W s takes the same path as every product with W
    assert np.array_equal(sc.lmbda, sc.apply_W(s))
    # W J W = sqrt(det x / det s) J on each SOC; for d = 1 this reads w^2 = x / s
    for t in soc_cones(layout):
        J = np.diag([1.0] + [-1.0] * (t.size - 1))
        det_x = x[t[0]] ** 2 - x[t[1:]] @ x[t[1:]]
        det_s = s[t[0]] ** 2 - s[t[1:]] @ s[t[1:]]
        Wc = W[np.ix_(t, t)]
        want = np.sqrt(det_x / det_s) * J
        np.testing.assert_allclose(Wc @ J @ Wc, want, rtol=1e-12, atol=1e-12)


# EVERY_SOC with a side group of three psd 3 blocks and a psd 2 group, and an
# SOC(12) whose tail sums run past eight terms
JOINT = EVERY_SOC + [
    ConeBlock("psd", 3), ConeBlock("psd", 2), ConeBlock("soc", 12), ConeBlock("psd", 3),
]


def test_joint_step_of_a_stacked_pair_is_the_smaller_step():
    layout = ConeLayout(JOINT)
    assert len(layout._psd_take[3]) == 3
    rng = np.random.default_rng(12)
    for _ in range(30):
        x, s = interior_point(layout, rng), interior_point(layout, rng)
        dx, ds = rng.standard_normal((2, layout.dim)) * rng.uniform(0.1, 10.0, (2, 1))
        want = min(layout.max_step(x, dx), layout.max_step(s, ds))
        assert layout.max_step(np.stack([x, s]), np.stack([dx, ds])) == want
    zero = np.zeros((2, layout.dim))
    assert layout.max_step(np.stack([x, s]), zero) == np.inf


def test_joint_step_with_the_eigh_fallback():
    # an indefinite x block sends its side group to the eigh whitening; stacked
    # with s, s's blocks take that path too
    layout = ConeLayout(JOINT)
    rng = np.random.default_rng(13)
    bad = layout._psd_take[3][1]
    for _ in range(10):
        x, s = interior_point(layout, rng), interior_point(layout, rng)
        x[bad] = svec(np.diag([-0.5, 1.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(smat(x[layout._psd_take[3]], 3))
        dx, ds = 0.1 * rng.standard_normal((2, layout.dim))
        dx[bad] = 0.0
        ds[layout._psd_take[3]] *= 100.0  # s's psd 3 blocks bind
        single = layout.max_step(x, dx), layout.max_step(s, ds)
        assert single[1] < single[0]
        got = layout.max_step(np.stack([x, s]), np.stack([dx, ds]))
        assert got == pytest.approx(single[1], rel=1e-12)


def test_in_interior_rejects_one_bad_block_in_a_side_group():
    layout = ConeLayout([ConeBlock("psd", 3)] * 4)
    rng = np.random.default_rng(7)
    z = interior_point(layout, rng)
    assert layout.in_interior(z)
    for bad in range(4):
        zb = z.copy()
        take = layout._psd_take[3][bad]
        M = smat(zb[take], 3)
        lam, U = np.linalg.eigh(M)
        lam[0] = -1e-3 * lam[-1]  # exactly one negative eigenvalue
        zb[take] = svec(U @ np.diag(lam) @ U.T)
        assert not layout.in_interior(zb)


def test_psd_max_step_matches_generalized_eigh():
    layout = ConeLayout([ConeBlock("psd", 3), ConeBlock("psd", 4), ConeBlock("psd", 3)])
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = interior_point(layout, rng)
        dz = rng.standard_normal(layout.dim)
        want = np.inf
        for side, take in layout._psd_take.items():
            for t in take:
                w = sla.eigh(smat(dz[t], side), smat(z[t], side), eigvals_only=True)[0]
                if w < 0:
                    want = min(want, -1.0 / w)
        assert layout.max_step(z, dz) == pytest.approx(want, rel=1e-10)
    assert layout.max_step(z, np.zeros(layout.dim)) == np.inf


def test_in_interior_rejects_non_finite_points():
    # every coordinate of every kind: nonneg, SOC head and tail, PSD, free
    layout = ConeLayout(MIXED)
    z = interior_point(layout, np.random.default_rng(14))
    assert layout.in_interior(z)
    for i in range(layout.dim):
        for bad in (np.nan, np.inf, -np.inf):
            zb = z.copy()
            zb[i] = bad
            assert not layout.in_interior(zb), (i, bad)


# cone dimensions interleaved in coordinate order with PSD blocks and free coordinates
INTERLEAVED = [
    ConeBlock("soc", 3),
    ConeBlock("nonneg", 2),
    ConeBlock("zero", 1),
    ConeBlock("soc", 12),
    ConeBlock("psd", 2),
    ConeBlock("soc", 1),
    ConeBlock("soc", 5),
]


def nt_soc_block(x, s):
    """The dense NT scaling eta (2 q q' - J) of one second-order cone."""
    J = np.diag([1.0] + [-1.0] * (x.size - 1))
    det_x, det_s = x @ J @ x, s @ J @ s
    xb, sb = x / np.sqrt(det_x), s / np.sqrt(det_s)
    wb = (xb + J @ sb) / np.sqrt(2.0 * (1.0 + xb @ sb))
    q = (wb + np.eye(x.size)[0]) / np.sqrt(2.0 * (1.0 + wb[0]))
    return (det_x / det_s) ** 0.25 * (2.0 * np.outer(q, q) - J)


def dense_operator(fn, L):
    """The matrix of a linear map on R^L, column by column."""
    return np.column_stack([fn(u) for u in np.eye(L)])


def assert_close(got, want):
    """Agreement to 1e-12 relative to the largest entry of want."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_flat_soc_path_matches_dense_oracles():
    layout = ConeLayout(INTERLEAVED)
    assert list(layout.soc_dims) == [3, 1, 1, 12, 1, 5]
    assert list(layout.free_idx) == [5]
    rng = np.random.default_rng(15)
    x, s = interior_point(layout, rng), interior_point(layout, rng)
    sc = layout.scaling(x, s)
    n = layout.dim
    psd = layout._psd_take[2][0]
    # dense W: the rank-one blocks per cone, R U R on the PSD block, zero on free coordinates
    W = np.zeros((n, n))
    for t in soc_cones(layout):
        W[np.ix_(t, t)] = nt_soc_block(x[t], s[t])
    X, S = smat(x[psd], 2), smat(s[psd], 2)
    Sh = sla.sqrtm(S).real
    Shi = np.linalg.inv(Sh)
    R = sla.sqrtm(Shi @ sla.sqrtm(Sh @ X @ Sh).real @ Shi).real
    W[np.ix_(psd, psd)] = dense_operator(lambda u: svec(R @ smat(u, 2) @ R), psd.size)
    cone = np.setdiff1d(np.arange(n), layout.free_idx)
    Winv = np.zeros((n, n))
    Winv[np.ix_(cone, cone)] = np.linalg.inv(W[np.ix_(cone, cone)])
    u, v = rng.standard_normal((2, n))
    assert_close(sc.apply_W(u), W @ u)
    assert_close(sc.apply_Winv(u), Winv @ u)
    assert_close(sc.lmbda, W @ s)
    # Jordan product and its inverse against lambda: Arw per cone, the Lyapunov map on PSD
    lam = sc.lmbda
    arw = np.zeros((n, n))
    for t in soc_cones(layout):
        arw[np.ix_(t, t)] = lam[t[0]] * np.eye(t.size)
        arw[t[0], t] = arw[t, t[0]] = lam[t]
    L = smat(lam[psd], 2)
    arw[np.ix_(psd, psd)] = dense_operator(
        lambda w: svec((L @ smat(w, 2) + smat(w, 2) @ L) / 2.0), psd.size
    )
    assert_close(sc.jordan(lam, u), arw @ u)
    assert_close(sc.jordan(u, v)[cone], sc.jordan(v, u)[cone])
    want = np.zeros(n)
    want[cone] = np.linalg.solve(arw[np.ix_(cone, cone)], u[cone])
    assert_close(sc.lam_solve(u), want)
    assert not sc.jordan(lam, u)[layout.free_idx].any()
    assert not sc.lam_solve(u)[layout.free_idx].any()
    assert layout.dot_trace(u, v) == pytest.approx(u[cone] @ v[cone], rel=1e-12)
    # B = A W over a pattern whose rows touch the cones in every combination
    A = rng.standard_normal((8, n)) * (rng.random((8, n)) < 0.4)
    A[0] = 0.0
    A[1, :] = 1.0
    pat = ColumnPattern(layout, sp.csr_matrix(A))
    B = sp.csr_matrix((sc.scale_columns(pat), (pat.rows, pat.cols)), shape=A.shape)
    assert_close(B.toarray(), A @ W)
    assert set(zip(pat.rows.tolist(), pat.cols.tolist())) == structural_pattern(layout, A)
