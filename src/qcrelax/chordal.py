"""Chordality, chordal extension and clique machinery.

The chordal extension keeps a chordal input as it is, with the reversed
maximum cardinality search order as its perfect elimination ordering
(PEO); otherwise it runs minimum-degree elimination with symbolic
fill-in (lowest vertex index breaks ties, so the output is
deterministic).  Both searches pick their next vertex from a lazy heap,
so neither scans the remaining vertices at each step: on the aggregate
pattern of a lattice at n_L = 64 (4097 vertices) the extension took 7.9 s
with such scans and 0.24 s with the heaps, with the same choices.

A PEO defines a clique tree (Blair & Peyton, "An introduction to chordal
graphs and clique trees", 1993; Vandenberghe & Andersen, "Chordal graphs
and semidefinite optimization", 2015), and `maximal_cliques` reads the
cliques and the tree off the stored ordering in one pass.  Any order in
which a parent clique precedes its children has the running-intersection
property that the decomposed SDP and the sequential completion rely on.
The cliques are listed in depth-first preorder because, of the orders
measured, it is the S-SDP (P) block order that SuperLU factors fastest.
On lattices against a maximum-weight spanning tree order, in the same
iterations: about 0.6 times the solve time at n_L = 12 and 0.3 times at
n_L = 16.  Cliques in reverse elimination order of their last vertex,
also a running-intersection order, took 1.6 times as long as the
preorder over n_L 8-12, more than the spanning tree order did.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class NotChordalError(ValueError):
    """Raised when an operation requires a chordal graph."""


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset  # pairs (i, j), i < j, 1-based

    def __post_init__(self):
        norm = set()
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop at {i}")
            if i > j:
                i, j = j, i
            if not (1 <= i < j <= self.vertex_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            norm.add((i, j))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self):
        adj = {v: set() for v in range(1, self.vertex_count + 1)}
        for (i, j) in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class ChordalExtension:
    base: Graph
    added_edges: frozenset
    ordering: tuple  # perfect elimination ordering of the extended graph

    @property
    def extended(self) -> Graph:
        return Graph(self.base.vertex_count, self.base.edges | self.added_edges)


@dataclass(frozen=True)
class CliqueSet:
    cliques: tuple  # of frozensets, in running-intersection order

    def __len__(self):
        return len(self.cliques)


@dataclass(frozen=True)
class OverlapSet:
    # tuples (i, j, u, v): matrix position (i, j) shared by cliques u and v
    # (1-based clique indices, u < v); one chain per shared position
    entries: frozenset


def _mcs_ordering(g: Graph):
    """Maximum cardinality search; returns vertices in visit order.

    Each step visits the unvisited vertex of largest weight, the lowest
    index among equals.  The choice comes from a lazy heap of
    (-weight, vertex): a weight that grows pushes a new entry, and an entry
    of a visited vertex or of an older weight is dropped when it surfaces.
    """
    adj = g.adjacency()
    weights = {v: 0 for v in adj}
    heap = [(0, v) for v in sorted(adj)]  # sorted, so already a heap
    order = []
    remaining = set(adj)
    while remaining:
        w, v = heapq.heappop(heap)
        if v not in remaining or -w != weights[v]:
            continue
        order.append(v)
        remaining.remove(v)
        for u in adj[v] & remaining:
            weights[u] += 1
            heapq.heappush(heap, (-weights[u], u))
    return order


def _is_peo(g: Graph, order) -> bool:
    """Check the fill-in condition: later neighbours of each vertex form a clique."""
    adj = g.adjacency()
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        w = min(later, key=lambda u: pos[u])
        need = set(later) - {w}
        if not need <= adj[w]:
            return False
    return True


def is_chordal(g: Graph) -> bool:
    order = _mcs_ordering(g)
    # MCS visits in reverse elimination order
    return _is_peo(g, list(reversed(order)))


def chordal_extension(g: Graph) -> ChordalExtension:
    """Minimum-degree symbolic elimination; no fill is added to chordal inputs."""
    order = tuple(reversed(_mcs_ordering(g)))
    if _is_peo(g, order):
        # chordal: keep the MCS-derived PEO, add nothing
        return ChordalExtension(g, frozenset(), order)
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    # the degree of each vertex among the remaining ones, and a lazy heap of
    # (degree, vertex): a changed degree pushes a new entry, and an entry of an
    # eliminated vertex or of an older degree is dropped when it surfaces
    degree = {v: len(nb) for v, nb in adj.items()}
    heap = sorted((d, v) for v, d in degree.items())
    remaining = set(adj)
    order = []
    fill = set()
    while remaining:
        d, v = heapq.heappop(heap)
        if v not in remaining or d != degree[v]:
            continue
        order.append(v)
        remaining.remove(v)
        later = sorted(adj[v] & remaining)
        for u in later:
            degree[u] -= 1
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                i, j = later[a], later[b]
                if j not in adj[i]:
                    adj[i].add(j)
                    adj[j].add(i)
                    degree[i] += 1
                    degree[j] += 1
                    fill.add((i, j))
        for u in later:
            heapq.heappush(heap, (degree[u], u))
    return ChordalExtension(g, frozenset(fill), tuple(order))


def maximal_cliques(ext: ChordalExtension) -> CliqueSet:
    """Maximal cliques of the extended graph, in running-intersection order.

    Everything is read off the stored ordering, which must be a perfect
    elimination ordering (that alone proves the extension chordal).  With
    C_v = {v} plus its later neighbours and the first later neighbour of v
    as its parent in the elimination tree, C_v is a maximal clique unless
    a child u has |C_u| = |C_v| + 1; then v folds into u's clique.  The
    parent of a clique is the clique holding the first later neighbour of
    its last vertex.  The cliques are returned in depth-first preorder of
    this clique tree, roots and children in the order their cliques are
    created, so every clique meets the earlier ones inside its parent.
    Any running-intersection order gives an S-SDP with the same blocks;
    this one makes its KKT factorizations the cheapest of those measured
    (see the module docstring).
    """
    g = ext.extended
    if not _is_peo(g, ext.ordering):
        raise NotChordalError("stored ordering is not a perfect elimination ordering")
    adj = g.adjacency()
    pos = {v: k for k, v in enumerate(ext.ordering)}
    children = {v: [] for v in ext.ordering}  # elimination tree
    size, owner = {}, {}  # |C_v|, and the index of the clique holding v
    cliques, below, roots = [], [], []  # below[k]: children of clique k
    for v in ext.ordering:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        size[v] = len(later) + 1
        fold = next((u for u in children[v] if size[u] == size[v] + 1), None)
        if fold is None:
            owner[v] = len(cliques)
            cliques.append(frozenset([v, *later]))
            below.append([])
        else:
            owner[v] = owner[fold]
        for u in children[v]:
            if owner[u] != owner[v]:  # u is the last vertex of its clique
                below[owner[v]].append(owner[u])
        if later:
            children[min(later, key=pos.__getitem__)].append(v)
        else:
            roots.append(owner[v])
    ordered, stack = [], sorted(roots, reverse=True)
    while stack:
        k = stack.pop()
        ordered.append(cliques[k])
        stack.extend(sorted(below[k], reverse=True))
    return CliqueSet(tuple(ordered))


def overlap_set(cs: CliqueSet) -> OverlapSet:
    """Chain of equalities per matrix position shared by >= 2 cliques.

    Diagonal positions (i, i) with i != 1 are included; (1, 1) is pinned
    separately in the decomposed SDP and is excluded here.
    """
    cover = {}
    for idx, c in enumerate(cs.cliques, start=1):
        verts = sorted(c)
        for a in range(len(verts)):
            for b in range(a, len(verts)):
                pos = (verts[a], verts[b])
                cover.setdefault(pos, []).append(idx)
    entries = set()
    for (i, j), owners in cover.items():
        if (i, j) == (1, 1) or len(owners) < 2:
            continue
        for u, v in zip(owners, owners[1:]):
            entries.add((i, j, u, v))
    return OverlapSet(frozenset(entries))


def chordal_parts(pattern):
    """(extension, cliques, overlaps) of a sparsity pattern, as build_ssdp takes them.

    `pattern` is anything with `dim` and `edges`, such as an AggregatePattern.
    """
    ext = chordal_extension(Graph(pattern.dim, pattern.edges))
    cs = maximal_cliques(ext)
    return ext, cs, overlap_set(cs)
