import itertools

import pytest

from qcrelax.chordal import (
    Graph,
    chordal_extension,
    chordal_parts,
    is_chordal,
    maximal_cliques,
    overlap_set,
)
from qcrelax.generators import lattice_edges


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


def test_cliques_are_maximal_and_cover():
    g = Graph(9, frozenset(lattice_edges(3)))
    ext = chordal_extension(g)
    cs = maximal_cliques(ext)
    adj = ext.extended.adjacency()
    covered = set()
    for c in cs.cliques:
        for i, j in itertools.combinations(sorted(c), 2):
            assert j in adj[i]
            covered.add((i, j))
        assert not any(c < d for d in cs.cliques)
    assert covered >= ext.extended.edges
    assert set().union(*cs.cliques) == set(range(1, 10))


def test_running_intersection_property():
    g = Graph(16, frozenset(lattice_edges(4)))
    cs = maximal_cliques(chordal_extension(g))
    cliques = cs.cliques
    for r in range(1, len(cliques)):
        before = set().union(*cliques[:r])
        sep = cliques[r] & before
        if sep:
            assert any(sep <= c for c in cliques[:r])


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
