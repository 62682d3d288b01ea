import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrelax.sparsemat import SparseSymMatrix


def test_upper_triangle_enforced():
    with pytest.raises(ValueError):
        SparseSymMatrix(3, {(2, 1): 1.0})
    with pytest.raises(ValueError):
        SparseSymMatrix(3, {(1, 4): 1.0})


def test_structural_zeros_dropped():
    m = SparseSymMatrix(2, {(1, 1): 1.0, (1, 2): 0.0})
    assert m.support() == {(1, 1)}
    assert m.get(1, 2) == 0.0
    assert m.get(2, 1) == 0.0


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2
    m = SparseSymMatrix.from_dense(a)
    assert np.allclose(m.to_dense(), a)


def test_inner_matches_trace_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2
    x = rng.standard_normal((4, 4))
    x = (x + x.T) / 2
    m = SparseSymMatrix.from_dense(a)
    assert m.inner(x) == pytest.approx(np.trace(a @ x), rel=1e-12)


def test_offdiag_support():
    m = SparseSymMatrix(3, {(1, 1): 2.0, (1, 3): -1.0})
    assert m.offdiag_support() == {(1, 3)}


# -- dict and array construction against the entry loop they replaced ---------


def reference_clean(dim, entries):
    """The dict constructor's validation as an entry-by-entry loop."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    clean = {}
    for (i, j), v in entries.items():
        if not (1 <= i <= j <= dim):
            raise ValueError(f"index ({i},{j}) outside upper triangle of dim {dim}")
        v = float(v)
        if abs(v) > 1e-12:
            clean[(i, j)] = v
    return clean


def reference_inner(entries, x):
    total = 0.0
    for (i, j), v in entries.items():
        if i == j:
            total += v * x[i - 1, i - 1]
        else:
            total += 2.0 * v * x[i - 1, j - 1]
    return total


def outcome(make):
    try:
        return make()
    except ValueError as exc:
        return str(exc)


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-12, 1e-12 * 1.5, np.nan, np.inf, -np.inf]),
    st.floats(-10.0, 10.0),
)


def test_inner_with_opposite_infinities_is_nan_like_the_loop():
    m = SparseSymMatrix(3, {(1, 1): np.inf, (2, 3): np.inf, (3, 3): -np.inf})
    x = np.eye(3)
    with np.errstate(invalid="ignore"):
        assert np.isnan(m.inner(x)) and np.isnan(reference_inner(m.entries, x))


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(-1, 6),
    trips=st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), VALUES), max_size=25),
    seed=st.integers(0, 2**16),
)
def test_dict_and_array_construction_match_the_entry_loop(dim, trips, seed):
    # the arrays may repeat a position; as a dict, the last value wins at the first place
    entries = {(i, j): v for i, j, v in trips}
    want = outcome(lambda: reference_clean(dim, entries))
    rows, cols = (np.array([t[k] for t in trips], dtype=int) for k in (0, 1))
    vals = np.array([t[2] for t in trips], dtype=float)
    for make in (
        lambda: SparseSymMatrix(dim, entries),
        lambda: SparseSymMatrix.from_arrays(dim, rows, cols, vals),
    ):
        got = outcome(make)
        if isinstance(want, str):
            assert got == want
            continue
        assert list(got.entries.items()) == list(want.items())
        assert got == SparseSymMatrix(dim, want) and got.support() == set(want)
        assert got.offdiag_support() == {(i, j) for (i, j) in want if i < j}
        assert [got.get(j, i) for (i, j) in want] == list(want.values())
        assert not any(a.flags.writeable for a in (got.rows, got.cols, got.vals))
        x = np.random.default_rng(seed).standard_normal((dim, dim))
        x = x + x.T
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 give NaN on both sides
            inner, ref = got.inner(x), reference_inner(want, x)
        assert inner == ref or (np.isnan(inner) and np.isnan(ref))
        dense = np.zeros((dim, dim))
        for (i, j), v in want.items():
            dense[i - 1, j - 1] = dense[j - 1, i - 1] = v
        assert np.array_equal(got.to_dense(), dense, equal_nan=True)
