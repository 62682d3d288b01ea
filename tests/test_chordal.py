import itertools
import random

import pytest

from qcrelax.chordal import (
    _mcs_ordering,
    ChordalExtension,
    Graph,
    NotChordalError,
    chordal_extension,
    chordal_parts,
    is_chordal,
    maximal_cliques,
    overlap_set,
)
from qcrelax.generators import LatticeSpec, ZeroDiagSpec, gen_lattice, gen_zero_diag, lattice_edges
from qcrelax.model import aggregate_pattern, homogenize


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    g = Graph(3, frozenset({(2, 1)}))
    assert (1, 2) in g.edges


def test_chordality_basics():
    # C4 is the smallest non-chordal graph
    c4 = Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    assert not is_chordal(c4)
    tri = Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert is_chordal(tri)
    tree = Graph(5, frozenset({(1, 2), (1, 3), (3, 4), (3, 5)}))
    assert is_chordal(tree)


def test_extension_of_chordal_graph_adds_nothing():
    tree = Graph(5, frozenset({(1, 2), (1, 3), (3, 4), (3, 5)}))
    ext = chordal_extension(tree)
    assert ext.added_edges == frozenset()


def test_extension_makes_chordal():
    for nl in (2, 3, 4):
        g = Graph(nl * nl, frozenset(lattice_edges(nl)))
        ext = chordal_extension(g)
        assert is_chordal(ext.extended)
        assert ext.base.edges <= ext.extended.edges


def _zero_diag_pattern(n, m, density, seed):
    """Off-diagonal support of the P blocks of a zero-diagonal instance.

    Without the homogenizing vertex the pattern falls apart into several
    components, so its clique tree has several roots.
    """
    inst = gen_zero_diag(ZeroDiagSpec(n, m, density, seed))
    edges = {e for pk, _, _ in inst.data() for e in pk.entries if e[0] != e[1]}
    return Graph(n, frozenset(edges))


PATTERNS = [
    *(pytest.param(Graph(nl * nl, frozenset(lattice_edges(nl))), id=f"lattice-{nl}")
      for nl in range(2, 9)),
    *(pytest.param(_zero_diag_pattern(*spec), id="zerodiag-{}-{}-{}-{}".format(*spec))
      for spec in ((12, 15, 0.3, 0), (16, 31, 0.3, 1), (20, 41, 0.2, 0), (20, 41, 0.2, 1))),
]


@pytest.mark.parametrize("g", PATTERNS)
def test_cliques_are_maximal_and_cover(g):
    ext = chordal_extension(g)
    cs = maximal_cliques(ext)
    adj = ext.extended.adjacency()
    assert len(set(cs.cliques)) == len(cs.cliques)
    covered = set()
    for c in cs.cliques:
        for i, j in itertools.combinations(sorted(c), 2):
            assert j in adj[i]
            covered.add((i, j))
        assert not any(c < d for d in cs.cliques)
    assert covered >= ext.extended.edges
    assert set().union(*cs.cliques) == set(range(1, g.vertex_count + 1))
    # every maximal clique of a chordal graph is some v with its later neighbours
    pos = {v: k for k, v in enumerate(ext.ordering)}
    candidates = {frozenset({v} | {u for u in adj[v] if pos[u] > pos[v]}) for v in adj}
    assert set(cs.cliques) == {c for c in candidates if not any(c < d for d in candidates)}


@pytest.mark.parametrize("g", PATTERNS)
def test_running_intersection_property(g):
    cliques = maximal_cliques(chordal_extension(g)).cliques
    assert len(set(cliques)) == len(cliques)
    for r in range(1, len(cliques)):
        before = set().union(*cliques[:r])
        sep = cliques[r] & before
        if sep:
            assert any(sep <= c for c in cliques[:r])


def test_cliques_need_a_perfect_elimination_ordering():
    c4 = Graph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    with pytest.raises(NotChordalError):
        maximal_cliques(ChordalExtension(c4, frozenset(), (1, 2, 3, 4)))
    # a chordal path whose middle vertex goes first: its neighbours 1, 3 are not adjacent
    path = Graph(3, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(NotChordalError):
        maximal_cliques(ChordalExtension(path, frozenset(), (2, 1, 3)))
    assert len(maximal_cliques(ChordalExtension(path, frozenset(), (1, 2, 3)))) == 2


def test_overlap_chains():
    # two triangles sharing edge (2,3)
    g = Graph(4, frozenset({(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}))
    cs = maximal_cliques(chordal_extension(g))
    u = overlap_set(cs)
    shared = {(i, j) for (i, j, _, _) in u.entries}
    assert shared == {(2, 2), (2, 3), (3, 3)}
    assert all(a < b for (_, _, a, b) in u.entries)


def test_overlap_excludes_pinned_corner():
    g = Graph(3, frozenset({(1, 2), (1, 3)}))
    cs = maximal_cliques(chordal_extension(g))
    u = overlap_set(cs)
    assert (1, 1) not in {(i, j) for (i, j, _, _) in u.entries}


def test_chordal_parts_of_a_pattern():
    class Pattern:
        dim = 4
        edges = frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})

    ext, cs, overlaps = chordal_parts(Pattern())
    assert ext.base == Graph(4, Pattern.edges)
    assert len(ext.added_edges) == 1
    assert cs == maximal_cliques(ext)
    assert overlaps == overlap_set(cs)


def _mcs_by_scan(g):
    """Maximum cardinality search by a scan of the unvisited vertices at each step."""
    adj = g.adjacency()
    weights = {v: 0 for v in adj}
    order = []
    remaining = set(adj)
    while remaining:
        best = max(weights[u] for u in remaining)
        v = min(u for u in remaining if weights[u] == best)
        order.append(v)
        remaining.remove(v)
        for u in adj[v] & remaining:
            weights[u] += 1
    return order


def _min_degree_by_scan(g):
    """(ordering, fill) of minimum-degree elimination by a scan at each step."""
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    remaining = set(adj)
    order, fill = [], set()
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        remaining.remove(v)
        later = sorted(adj[v] & remaining)
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                i, j = later[a], later[b]
                if j not in adj[i]:
                    adj[i].add(j)
                    adj[j].add(i)
                    fill.add((i, j))
    return tuple(order), frozenset(fill)


def _random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ))


def _homogenized_lattice(nl):
    pattern = aggregate_pattern(homogenize(gen_lattice(LatticeSpec(nl, 5, 0))))
    return Graph(pattern.dim, pattern.edges)


HEAP_CASES = [
    *(pytest.param(Graph(nl * nl, frozenset(lattice_edges(nl))), id=f"lattice-{nl}")
      for nl in (3, 8, 13, 16)),
    *(pytest.param(_homogenized_lattice(nl), id=f"homogenized-{nl}") for nl in (4, 8)),
    *(pytest.param(_random_graph(n, p, seed), id=f"random-{n}-{p}-{seed}")
      for n, p, seed in ((12, 0.2, 0), (30, 0.1, 1), (40, 0.15, 2), (60, 0.05, 3), (25, 0.5, 4))),
    pytest.param(Graph(5, frozenset({(1, 2), (1, 3), (3, 4), (3, 5)})), id="tree"),
]


@pytest.mark.parametrize("g", HEAP_CASES)
def test_heap_searches_make_the_scans_choices(g):
    # the lazy heaps pick the same vertex at every step as a scan of the
    # remaining vertices does, so the orderings and the fill are identical
    assert _mcs_ordering(g) == _mcs_by_scan(g)
    ext = chordal_extension(g)
    if is_chordal(g):
        assert ext.added_edges == frozenset()
        assert list(ext.ordering) == _mcs_by_scan(g)[::-1]
    else:
        assert (ext.ordering, ext.added_edges) == _min_degree_by_scan(g)
