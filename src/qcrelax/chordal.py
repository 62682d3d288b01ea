"""Chordality, chordal extension and clique machinery.

The chordal extension uses minimum-degree elimination with symbolic
fill-in (lowest vertex index breaks ties, so the output is
deterministic).  Maximal cliques are read off the elimination ordering
and arranged so that the running-intersection property holds, which is
what the decomposed SDP and the sequential completion rely on.
"""

from __future__ import annotations

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
    """Maximum cardinality search; returns vertices in visit order."""
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
    if is_chordal(g):
        # keep the MCS-derived PEO, add nothing
        order = tuple(reversed(_mcs_ordering(g)))
        return ChordalExtension(g, frozenset(), order)
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    remaining = set(adj)
    order = []
    fill = set()
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
    return ChordalExtension(g, frozenset(fill), tuple(order))


def maximal_cliques(ext: ChordalExtension) -> CliqueSet:
    """Maximal cliques of the extended graph, in running-intersection order."""
    g = ext.extended
    if not is_chordal(g):
        raise NotChordalError("extension is not chordal")
    adj = g.adjacency()
    pos = {v: k for k, v in enumerate(ext.ordering)}
    if not _is_peo(g, list(ext.ordering)):
        raise NotChordalError("stored ordering is not a perfect elimination ordering")
    candidates = []
    for v in ext.ordering:
        c = frozenset({v} | {u for u in adj[v] if pos[u] > pos[v]})
        candidates.append(c)
    cliques = []
    for c in candidates:
        if c not in cliques and not any(c < d for d in candidates):
            cliques.append(c)
    return CliqueSet(tuple(_rip_order(cliques)))


def _rip_order(cliques):
    """Order cliques along a clique tree so running intersection holds.

    Builds a maximum-weight spanning forest on intersection sizes (Prim,
    deterministic tie-break) and emits a preorder traversal per component.
    """
    p = len(cliques)
    if p <= 1:
        return list(cliques)
    unvisited = set(range(p))
    ordered = []
    while unvisited:
        root = min(unvisited)
        comp = [root]
        unvisited.remove(root)
        frontier = True
        while frontier:
            best = None
            for cand in sorted(unvisited):
                w = max((len(cliques[cand] & cliques[t]) for t in comp), default=0)
                if w > 0 and (best is None or w > best[0]):
                    best = (w, cand)
            if best is None:
                frontier = False
            else:
                comp.append(best[1])
                unvisited.remove(best[1])
        ordered.extend(cliques[i] for i in comp)
    return ordered


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
