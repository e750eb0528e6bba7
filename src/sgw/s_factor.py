"""Prime s-decomposition of a connected signed graph.

The decomposition runs on top of the ordinary prime factorization: edges
start out colored by ordinary factor, a BFS from the all-zero base vertex
visits every edge once, compares its sign with the sign of its projection
onto the base layer of its current (merged) color, and either switches the
far endpoint, accepts it, or merges the colors of all up-edges at that
endpoint.  The surviving colors are the s-prime factors; their signatures
are read off the base layers, and the recorded switch set realizes a
signature equivalent to the input for which the product of the factors is
an exact edge-for-edge reconstruction.

S-primality is read from the same merge pass.  The prime s-decomposition
is unique, so a graph is s-prime exactly when the pass leaves one color;
``is_s_prime`` stops there and builds no factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import SignedGraph, bfs_order
from .factor_ordinary import DisjointSet, factorize
from .product import CoordinateSystem

@dataclass(frozen=True)
class SDecomposition:
    factors: tuple[SignedGraph, ...]
    coords: CoordinateSystem
    switch_set: frozenset  # applied to the input to realize the product signature
    factor_of_edge: dict  # (u, v) with u < v -> final merged color index


def s_decompose(g: SignedGraph, debug_trace: Optional[list] = None) -> SDecomposition:
    """Prime s-decomposition of a connected signed graph with >= 1 edge.

    ``debug_trace``, if given, collects (event, data) tuples mirroring the
    bookkeeping of the decomposition (including the Done set, which plays
    no role in the computation itself).
    """
    od = factorize(g)
    k = len(od.factors)
    ocoords = od.coords.coords
    merger, switched = _merge_colors(g, od, debug_trace)

    # assemble final factors from merged colors, base layers through vertex 0
    classes = []
    seen_roots = {}
    for j in range(k):
        r = merger.find(j)
        if r not in seen_roots:
            seen_roots[r] = len(classes)
            classes.append([])
        classes[seen_roots[r]].append(j)

    osizes = [f.n for f in od.factors]

    def merged_coord(u: int, members: list[int]) -> int:
        # mixed-radix index over the ordinary coordinates in the class
        idx = 0
        for j in members:
            idx = idx * osizes[j] + ocoords[u][j]
        return idx

    factors = []
    for members in classes:
        size = 1
        for j in members:
            size *= osizes[j]
        layer = [u for u in range(g.n)
                 if all(ocoords[u][j] == 0 for j in range(k) if j not in members)]
        fedges = []
        lset = set(layer)
        for u in layer:
            for w, s in g.adjacency[u]:
                if u < w and w in lset:
                    if switched[u] != switched[w]:
                        s = -s
                    fedges.append((merged_coord(u, members), merged_coord(w, members), s))
        factors.append(SignedGraph(size, fedges))

    coords = tuple(
        tuple(merged_coord(u, members) for members in classes) for u in range(g.n)
    )
    factor_of_edge = {
        (u, v): seen_roots[merger.find(od.edge_color[(u, v)])] for u, v, _ in g.edges
    }
    return SDecomposition(
        factors=tuple(factors),
        coords=CoordinateSystem(tuple(factors), coords),
        switch_set=frozenset(v for v in range(g.n) if switched[v]),
        factor_of_edge=factor_of_edge,
    )


def is_s_prime(g: SignedGraph) -> bool:
    """True iff the connected signed graph ``g`` (with >= 1 edge) is s-prime:
    the merge pass of ``s_decompose`` joins all its ordinary colors."""
    od = factorize(g)
    k = len(od.factors)
    if k == 1:
        return True
    merger, _ = _merge_colors(g, od, None)
    return all(merger.find(j) == 0 for j in range(k))


def _merge_colors(g: SignedGraph, od, debug_trace: Optional[list]):
    """The BFS merge pass over the ordinary colors of ``od``.

    Returns the color merger and the per-vertex switched flags.  A vertex
    is switched at most once, before it joins S, so an edge's current
    sign is its input sign times -1 when exactly one end is switched.
    """
    k = len(od.factors)
    ocoords = od.coords.coords
    oindex = od.coords.index
    order, dist = bfs_order(g, 0)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i

    merger = DisjointSet(k)
    members = {j: [j] for j in range(k)}  # per class root, ascending

    def project_edge(x: int, y: int, cls: list[int]) -> tuple[int, int]:
        # zero out every ordinary coordinate outside the merged color
        cx = [0] * k
        cy = [0] * k
        for j in cls:
            cx[j] = ocoords[x][j]
            cy[j] = ocoords[y][j]
        return oindex[tuple(cx)], oindex[tuple(cy)]

    in_s = [False] * g.n
    switched = [False] * g.n

    for x in order:
        in_s[x] = True
        for y, s in g.adjacency[x]:
            if pos[y] < pos[x]:  # handled from y
                continue
            i = merger.find(od.edge_color[(min(x, y), max(x, y))])
            xp, yp = project_edge(x, y, members[i])
            flips = switched[x] ^ switched[y] ^ switched[xp] ^ switched[yp]
            same = (s == g.sign(xp, yp)) != flips
            if not same and not in_s[y]:
                switched[y] = True
                in_s[y] = True
                if debug_trace is not None:
                    debug_trace.append(("switch", y))
            elif same and not in_s[y]:
                in_s[y] = True
            elif not same and in_s[y]:
                merged = [i]
                for z, _ in g.adjacency[y]:
                    if dist[z] < dist[y]:
                        merged.append(merger.find(od.edge_color[(min(y, z), max(y, z))]))
                joined = False
                for c in merged[1:]:
                    joined |= merger.union(merged[0], c)
                if joined:
                    members = {}
                    for j in range(k):
                        members.setdefault(merger.find(j), []).append(j)
                if debug_trace is not None:
                    debug_trace.append(("merge", y, tuple(sorted(set(merged)))))
        if debug_trace is not None:
            debug_trace.append(("done", x))
    return merger, switched
