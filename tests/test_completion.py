import numpy as np
import pytest

from qcrelax.chordal import Graph, NotChordalError, chordal_extension, maximal_cliques
from qcrelax.completion import (
    CompletionError,
    PartialMatrix,
    Range,
    det_T,
    feasible_range,
    in_T_bar,
    in_T_plus,
    is_psd_completable,
    log_det_T,
    sdp_complete,
    zero_fill,
)


def diag_partial(values, edges=(), known_off=None):
    dim = len(values)
    known = {(i + 1, i + 1): v for i, v in enumerate(values)}
    known.update(known_off or {})
    return PartialMatrix(dim, known, frozenset(edges))


def cliques_for(dim, edges):
    return maximal_cliques(chordal_extension(Graph(dim, frozenset(edges))))


def random_partial(rng, dim, edges):
    """A partial matrix lying in the SOC-minor cone for the given edges."""
    d = rng.uniform(0.2, 2.0, size=dim)
    known = {(i + 1, i + 1): d[i] for i in range(dim)}
    for (i, j) in edges:
        cap = np.sqrt(d[i - 1] * d[j - 1])
        known[(i, j)] = rng.uniform(-cap, cap)
    return PartialMatrix(dim, known, frozenset(edges))


def test_partial_matrix_validation():
    with pytest.raises(CompletionError):
        PartialMatrix(2, {(1, 1): 1.0}, frozenset())  # missing (2,2)
    with pytest.raises(CompletionError):
        PartialMatrix(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.0}, frozenset())


def test_zero_fill_examples():
    assert np.array_equal(zero_fill(diag_partial([1.0, 4.0])), np.diag([1.0, 4.0]))
    p = diag_partial([1.0, 1.0, 1.0], edges=[(1, 2)], known_off={(1, 2): 0.5})
    X = zero_fill(p)
    assert X[0, 1] == 0.5
    assert X[0, 2] == 0.0 and X[1, 2] == 0.0
    # fully specified pattern: output equals input
    full = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
    off = {e: 0.1 for e in full}
    q = diag_partial([1.0, 1.0, 1.0], edges=full, known_off=off)
    Y = zero_fill(q)
    for (i, j) in full:
        assert Y[i - 1, j - 1] == 0.1


def test_det_T_values():
    assert det_T(np.eye(4)) == 1.0
    assert det_T(np.diag([1.0, 4.0])) == 4.0
    for x in np.linspace(-2, 2, 9):
        m = np.array([[1.0, x], [x, 4.0]])
        assert det_T(m) == pytest.approx(4.0 - x * x)
    # maximized at the zero fill
    assert det_T(np.diag([1.0, 4.0])) >= max(
        det_T(np.array([[1.0, x], [x, 4.0]])) for x in np.linspace(-2, 2, 101)
    )


def test_log_det_T():
    assert log_det_T(np.eye(3)) == 0.0
    assert log_det_T(np.array([[1.0, 2.0], [2.0, 1.0]])) == -np.inf


def test_feasible_range():
    p = diag_partial([1.0, 4.0])
    r = feasible_range(p, 1, 2)
    assert (r.lo, r.hi) == (-2.0, 2.0)
    p0 = diag_partial([0.0, 4.0])
    r0 = feasible_range(p0, 1, 2)
    assert (r0.lo, r0.hi) == (0.0, 0.0)
    # every value in the range keeps the 2x2 minor PSD
    for v in np.linspace(r.lo, r.hi, 101):
        assert 1.0 * 4.0 - v * v >= -1e-12
    with pytest.raises(CompletionError):
        feasible_range(diag_partial([-1.0, 4.0]), 1, 2)


def test_in_T_plus():
    assert in_T_plus(np.eye(3))
    assert not in_T_plus(np.array([[1.0, 2.0], [2.0, 1.0]]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.standard_normal((5, 5))
        assert in_T_plus(g @ g.T)  # PSD implies all minors PSD


def test_in_T_bar():
    assert in_T_bar(np.diag([1.0, 2.0]), set())
    assert not in_T_bar(np.diag([1.0, -2.0]), set())
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4))
    P = g @ g.T
    for edges in (set(), {(1, 2)}, {(1, 2), (3, 4)}):
        assert in_T_bar(P, edges)
    # edges outside 1 <= i < j <= n are rejected, as PartialMatrix rejects them
    X = np.array([[1.0, 5.0, 0.0], [5.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert not in_T_bar(X, [(2, 1)])
    for edges in ([(0, 3)], [(2, 2)], [(1, 4)]):
        with pytest.raises(CompletionError):
            in_T_bar(X, edges)


def _in_T_bar_loop(X, edges, tol=1e-10):
    """The entry-by-entry check, kept as the oracle of the vectorized one."""
    scale = max(1.0, float(np.abs(X).max(initial=0.0)))
    if any(X[i, i] < -tol * scale for i in range(X.shape[0])):
        return False
    for (i, j) in edges:
        i, j = min(i, j) - 1, max(i, j) - 1
        if X[i, i] * X[j, j] - X[i, j] * X[i, j] < -tol * scale * scale:
            return False
    return True


def test_in_T_plus_is_in_T_bar_over_all_pairs():
    rng = np.random.default_rng(4)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(1, 7))
        d = rng.uniform(0.0, 2.0, n)
        # X_ij = +-sqrt(d_i d_j) puts every minor on the boundary; a random factor moves it off
        X = np.sqrt(np.outer(d, d)) * rng.choice([-1.0, 1.0], (n, n))
        if trial % 3:
            X *= rng.uniform(0.5, 1.5, (n, n))
        if trial % 5 == 0:
            X[rng.integers(n), rng.integers(n)] *= -1.0
        if trial % 4 == 0:  # a diagonal entry at the tolerance below zero, or twice it
            X[0, 0] = -1e-10 * max(1.0, np.abs(X).max()) * (1 + (trial % 8 == 0))
        X = np.triu(X) + np.triu(X, 1).T
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        got = in_T_plus(X)
        assert got == in_T_bar(X, pairs) == in_T_bar(X, [(j, i) for i, j in pairs])
        assert got == _in_T_bar_loop(X, pairs)
        for k in range(len(pairs) + 1):
            sel = pairs[:k]
            assert in_T_bar(X, sel) == _in_T_bar_loop(X, sel)
        seen.add((got, bool(np.any(np.diag(X) < 0))))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}


def test_zero_fill_of_T_bar_member_is_in_T_plus():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pool = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        k = int(rng.integers(0, len(pool) + 1))
        sel = [pool[t] for t in rng.choice(len(pool), size=k, replace=False)]
        p = random_partial(rng, dim, sel)
        X = zero_fill(p)
        assert in_T_bar(X, sel)
        assert in_T_plus(X)


def test_zero_fill_maximizes_det_T():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pool = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        k = int(rng.integers(0, len(pool)))
        sel = [pool[t] for t in rng.choice(len(pool), size=k, replace=False)]
        p = random_partial(rng, dim, sel)
        base = log_det_T(zero_fill(p))
        unknown = [e for e in pool if e not in p.pattern]
        for _ in range(20):
            Y = zero_fill(p)
            for (i, j) in unknown:
                r = feasible_range(p, i, j)
                Y[i - 1, j - 1] = Y[j - 1, i - 1] = rng.uniform(r.lo, r.hi)
            assert base >= log_det_T(Y) - 1e-9


def test_is_psd_completable():
    chain = [(1, 2), (2, 3)]
    cs = cliques_for(3, chain)
    good = diag_partial([1.0, 1.0, 1.0], chain, {(1, 2): 0.5, (2, 3): 0.5})
    assert is_psd_completable(good, cs)
    bad = diag_partial([1.0, 1.0, 1.0], chain, {(1, 2): 1.5, (2, 3): 0.5})
    assert not is_psd_completable(bad, cs)
    c4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
    pc4 = diag_partial([1.0] * 4, c4, {e: 0.0 for e in c4})
    with pytest.raises(NotChordalError):
        is_psd_completable(pc4, cs)


def test_is_psd_completable_matches_grid_search():
    rng = np.random.default_rng(4)
    chain = [(1, 2), (2, 3)]
    cs = cliques_for(3, chain)
    for _ in range(30):
        p = random_partial(rng, 3, chain)
        claimed = is_psd_completable(p, cs)
        X = zero_fill(p)
        found = False
        for v in np.arange(-2.0, 2.0001, 0.05):
            X[0, 2] = X[2, 0] = v
            if np.linalg.eigvalsh(X)[0] >= -1e-9:
                found = True
                break
        assert claimed == found


def test_sdp_complete_chain():
    chain = [(1, 2), (2, 3)]
    cs = cliques_for(3, chain)
    p = diag_partial([1.0, 1.0, 1.0], chain, {(1, 2): 0.5, (2, 3): 0.5})
    X = sdp_complete(p, cs)
    assert X[0, 2] == pytest.approx(0.25)
    # independent 1-d maximization of det over the free entry
    from scipy.optimize import minimize_scalar

    f = lambda v: -np.linalg.det(
        np.array([[1.0, 0.5, v], [0.5, 1.0, 0.5], [v, 0.5, 1.0]])
    )
    res = minimize_scalar(f, bounds=(-1.0, 1.0), method="bounded")
    assert X[0, 2] == pytest.approx(res.x, abs=1e-5)


def test_sdp_complete_full_pattern_is_identity_map():
    full = [(1, 2), (1, 3), (2, 3)]
    cs = cliques_for(3, full)
    p = diag_partial([2.0, 2.0, 2.0], full, {e: 0.3 for e in full})
    X = sdp_complete(p, cs)
    for (i, j), v in p.known.items():
        assert X[i - 1, j - 1] == pytest.approx(v)


def test_sdp_complete_properties():
    rng = np.random.default_rng(5)
    chain = [(1, 2), (2, 3), (3, 4)]
    cs = cliques_for(4, chain)
    p = diag_partial(
        [1.0, 1.0, 1.0, 1.0], chain, {(1, 2): 0.3, (2, 3): -0.4, (3, 4): 0.2}
    )
    X = sdp_complete(p, cs)
    assert np.linalg.eigvalsh(X)[0] >= -1e-10
    for (i, j), v in p.known.items():
        assert X[i - 1, j - 1] == pytest.approx(v, abs=1e-12)
    # inverse vanishes off the pattern
    Xi = np.linalg.inv(X)
    for (i, j) in [(1, 3), (1, 4), (2, 4)]:
        assert abs(Xi[i - 1, j - 1]) <= 1e-6
    # beats rejection-sampled PSD completions in determinant
    best = np.linalg.det(X)
    count = 0
    while count < 1000:
        Y = zero_fill(p)
        for (i, j) in [(1, 3), (1, 4), (2, 4)]:
            Y[i - 1, j - 1] = Y[j - 1, i - 1] = rng.uniform(-1.0, 1.0)
        if np.linalg.eigvalsh(Y)[0] >= 0.0:
            count += 1
            assert np.linalg.det(Y) <= best + 1e-9


def test_sdp_complete_disconnected_components():
    edges = [(1, 2), (3, 4)]
    cs = cliques_for(4, edges)
    p = diag_partial([1.0, 1.0, 1.0, 1.0], edges, {(1, 2): 0.5, (3, 4): -0.5})
    X = sdp_complete(p, cs)
    assert X[0, 2] == 0.0 and X[1, 3] == 0.0


def test_range_rejects_inverted_bounds():
    with pytest.raises(CompletionError):
        Range(1.0, -1.0)
