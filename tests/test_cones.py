import numpy as np
import pytest

from qcrelax.cones import ConeLayout, _soc_boundary_steps
from qcrelax.program import ConeBlock


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
