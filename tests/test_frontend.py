"""The array-backed front end against the dict-based one it replaced.

The oracles below are the entry-by-entry generators, homogenization,
aggregate pattern and JSON writer, kept verbatim in their dict form.  The
array code must give the same entries, values and insertion order, and
the same bytes downstream.
"""

import json

import numpy as np
import pytest

from qcrelax.build import (
    build_dual_fsocp,
    build_dual_ssocp,
    build_fsdp,
    build_fsocp,
    build_ssdp,
    build_ssocp,
)
from qcrelax.chordal import Graph, chordal_extension, maximal_cliques, overlap_set
from qcrelax.generators import LatticeSpec, ZeroDiagSpec, gen_lattice, gen_zero_diag, lattice_edges
from qcrelax.model import (
    AggregatePattern,
    HomogenizedData,
    QcqpInstance,
    aggregate_pattern,
    homogenize,
    instance_from_dict,
    save_instance,
)
from qcrelax.program import to_standard_form
from qcrelax.sparsemat import SparseSymMatrix

# -- the dict-based oracles ----------------------------------------------------


def reference_lattice_edges(n_l):
    edges = set()
    for il in range(1, n_l + 1):
        for jl in range(1, n_l):  # horizontal
            a = (il - 1) * n_l + jl
            edges.add((a, a + 1))
    for il in range(1, n_l):  # vertical
        for jl in range(1, n_l + 1):
            a = (il - 1) * n_l + jl
            edges.add((a, a + n_l))
    return edges


def reference_gen_lattice(spec):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    edges = sorted(reference_lattice_edges(spec.n_L))
    zeros = np.zeros(n)

    def edge_matrix():
        entries = {}
        for (i, j) in edges:
            entries[(i, j)] = rng.uniform(-1.0, 0.0)
        for i in range(1, n + 1):
            entries[(i, i)] = rng.uniform(-1.0, 1.0)
        return SparseSymMatrix(n, entries)

    p0 = edge_matrix()
    constraints = []
    for k in range(1, spec.m + 1):
        if k == 1:
            entries = {(i, i): 1.0 - rng.uniform(0.0, 1.0) for i in range(1, n + 1)}
            pk = SparseSymMatrix(n, entries)
        else:
            pk = edge_matrix()
        rk = rng.uniform(-1.0, -0.1)
        constraints.append((pk, zeros, rk))
    return QcqpInstance(n, (p0, zeros, 0.0), tuple(constraints))


def reference_gen_zero_diag(spec):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    zeros = np.zeros(n)
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pool_size = max(1, int(round(spec.density * len(all_pairs))))
    pool_idx = rng.choice(len(all_pairs), size=pool_size, replace=False)
    pool = [all_pairs[i] for i in sorted(pool_idx)]
    n_pairs = (spec.m + 1) // 2
    constraints = []
    pinned_pairs = []
    for _ in range(n_pairs):
        i, j = pool[int(rng.integers(len(pool)))]
        t = int(rng.integers(1, n + 1))
        coef = rng.uniform(0.5, 1.5)
        p_up = SparseSymMatrix(n, {(i, j): coef / 2.0})
        q_up = np.zeros(n)
        q_up[t - 1] = -0.5
        constraints.append((p_up, q_up, 0.0))
        if len(constraints) < spec.m:
            p_dn = SparseSymMatrix(n, {(i, j): -coef / 2.0})
            constraints.append((p_dn, -q_up, 0.0))
            pinned_pairs.append((i, j))
    p_zero = SparseSymMatrix(n, {})
    for i in range(1, n + 1):
        lo = np.zeros(n)
        lo[i - 1] = -0.5
        constraints.append((p_zero, lo, 0.0))
        hi = np.zeros(n)
        hi[i - 1] = 0.5
        constraints.append((p_zero, hi, -1.0))
    obj_entries = {}
    for (i, j) in sorted(set(pinned_pairs)):
        obj_entries[(i, j)] = rng.uniform(-1.0, 1.0)
    q0 = rng.uniform(-1.0, 1.0, size=n)
    p0 = SparseSymMatrix(n, obj_entries)
    return QcqpInstance(n, (p0, q0, 0.0), tuple(constraints))


def reference_homogenize(instance):
    n = instance.n
    qs = []
    for pk, qk, rk in instance.data():
        entries = {}
        if abs(rk) > 0:
            entries[(1, 1)] = rk
        for j in range(n):
            if qk[j] != 0.0:
                entries[(1, j + 2)] = qk[j]
        for (i, j), v in pk.entries.items():
            entries[(i + 1, j + 1)] = v
        qs.append(SparseSymMatrix(n + 1, entries))
    h0 = SparseSymMatrix(n + 1, {(1, 1): 1.0})
    return HomogenizedData(n + 1, tuple(qs), h0)


def reference_aggregate_pattern(data):
    edges = set()
    for qk in data.Q:
        edges |= qk.offdiag_support()
    touched = {v for e in edges for v in e}
    isolated = frozenset(range(1, data.dim + 1)) - touched
    return AggregatePattern(data.dim, frozenset(edges), isolated)


def reference_instance_to_dict(inst):
    def block(p, q, r):
        trips = [[i, j, v] for (i, j), v in sorted(p.entries.items())]
        return {"P": trips, "q": list(map(float, q)), "r": float(r)}

    return {
        "n": inst.n,
        "m": inst.m,
        "objective": block(*inst.objective),
        "constraints": [block(*c) for c in inst.constraints],
    }


# -- comparisons ----------------------------------------------------------------


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_matrix(got, want):
    assert got.dim == want.dim
    assert list(got.entries.items()) == list(want.entries.items())
    for name in ("rows", "cols", "vals"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name


def assert_same_instance(got, want):
    assert (got.n, got.m) == (want.n, want.m)
    for (pa, qa, ra), (pb, qb, rb) in zip(got.data(), want.data(), strict=True):
        assert_same_matrix(pa, pb)
        assert same_bytes(qa, qb) and ra == rb


def assert_same_front_end(got, want):
    assert_same_instance(got, want)
    data, want_data = homogenize(got), reference_homogenize(want)
    assert data.dim == want_data.dim
    for qa, qb in zip(data.Q + (data.H0,), want_data.Q + (want_data.H0,), strict=True):
        assert_same_matrix(qa, qb)
    assert aggregate_pattern(data) == reference_aggregate_pattern(want_data)


ZERO_DIAG_SPECS = [
    ZeroDiagSpec(8, 5, 0.3, 0),
    ZeroDiagSpec(12, 4, 0.4, 1),
    ZeroDiagSpec(10, 7, 1.0, 2),
    ZeroDiagSpec(20, 9, 0.1, 3),
    ZeroDiagSpec(6, 1, 0.5, 4),
    ZeroDiagSpec(2, 3, 1.0, 5),
]


@pytest.mark.parametrize("n_l", range(2, 17))
def test_lattice_front_end_matches_the_dict_oracles(n_l):
    for seed in range(3):
        spec = LatticeSpec(n_l, 20, seed)
        assert_same_front_end(gen_lattice(spec), reference_gen_lattice(spec))


@pytest.mark.parametrize("spec", ZERO_DIAG_SPECS, ids=str)
def test_zero_diag_front_end_matches_the_dict_oracles(spec):
    assert_same_front_end(gen_zero_diag(spec), reference_gen_zero_diag(spec))


def test_lattice_edges_match_the_loop():
    for n_l in range(2, 9):
        assert lattice_edges(n_l) == reference_lattice_edges(n_l)


@pytest.mark.parametrize(
    "inst",
    [gen_lattice(LatticeSpec(9, 20, 2)), gen_zero_diag(ZeroDiagSpec(12, 4, 0.4, 1))],
    ids=["lattice", "zero-diag"],
)
def test_json_writer_and_reader_match_the_dict_oracles(inst, tmp_path):
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    want = json.dumps(reference_instance_to_dict(inst), indent=1, sort_keys=True) + "\n"
    assert path.read_text() == want
    d = json.loads(want)
    back = instance_from_dict(d)
    for (p, q, r), block in zip(back.data(), [d["objective"], *d["constraints"]], strict=True):
        trips = {(int(i), int(j)): float(v) for i, j, v in block["P"]}
        assert_same_matrix(p, SparseSymMatrix(inst.n, trips))
        assert same_bytes(q, np.asarray(block["q"], dtype=float)) and r == block["r"]


def test_json_reader_keeps_the_last_of_repeated_triplets():
    block = {"P": [[1, 2, 1.0], [1, 1, 2.0], [1, 2, 3.0]], "q": [0.0, 0.0], "r": 0.0}
    inst = instance_from_dict({"n": 2, "m": 0, "objective": block, "constraints": []})
    assert list(inst.objective[0].entries.items()) == [((1, 2), 3.0), ((1, 1), 2.0)]


def form_bytes(sf):
    T, f = sf.recover
    parts = [sf.A.indptr, sf.A.indices, sf.A.data, sf.b, sf.c, T.indptr, T.indices, T.data, f]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, parts)] + [
        sf.K, sf.obj_sign, sf.obj_const, sf.meta
    ]


def six_builders(data):
    pat = aggregate_pattern(data)
    cs = maximal_cliques(chordal_extension(Graph(pat.dim, pat.edges)))
    return {
        "fsdp": build_fsdp(data),
        "ssdp": build_ssdp(data, None, cs, overlap_set(cs)),
        "fsocp": build_fsocp(data),
        "ssocp": build_ssocp(data, pat),
        "dual_fsocp": build_dual_fsocp(data),
        "dual_ssocp": build_dual_ssocp(data, pat),
    }


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(nl, 20, seed) for nl in (3, 4) for seed in (0, 1)] + ZERO_DIAG_SPECS[:2],
    ids=str,
)
def test_standard_forms_match_the_dict_front_end(spec):
    lattice = isinstance(spec, LatticeSpec)
    gen = gen_lattice if lattice else gen_zero_diag
    ref = reference_gen_lattice if lattice else reference_gen_zero_diag
    got = six_builders(homogenize(gen(spec)))
    want = six_builders(reference_homogenize(ref(spec)))
    for name in got:
        for form in ("P", "D"):
            a, b = to_standard_form(got[name], form), to_standard_form(want[name], form)
            assert form_bytes(a) == form_bytes(b), (name, form)
