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

ColorMerger = DisjointSet  # disjoint-set structure over ordinary factor indices


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
    merger, sign, switched = _merge_colors(g, od, debug_trace)

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
            for w, _ in g.adjacency[u]:
                if u < w and w in lset:
                    fedges.append((merged_coord(u, members), merged_coord(w, members),
                                   sign[(u, w)]))
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
    merger, _, _ = _merge_colors(g, od, None)
    return all(merger.find(j) == 0 for j in range(k))


def _merge_colors(g: SignedGraph, od, debug_trace: Optional[list]):
    """The BFS merge pass over the ordinary colors of ``od``.

    Returns the color merger, the running edge signs (both orientations)
    after the switches, and the per-vertex switched flags.
    """
    k = len(od.factors)
    ocoords = od.coords.coords
    oindex = od.coords.index
    order, dist = bfs_order(g, 0)

    merger = ColorMerger(k)
    sign = {}
    for u, v, s in g.edges:
        sign[(u, v)] = s
        sign[(v, u)] = s

    def class_members(i: int) -> list[int]:
        return [j for j in range(k) if merger.find(j) == i]

    def project_edge(x: int, y: int, members: list[int]) -> tuple[int, int]:
        # zero out every ordinary coordinate outside the merged color
        cx = [0] * k
        cy = [0] * k
        for j in members:
            cx[j] = ocoords[x][j]
            cy[j] = ocoords[y][j]
        return oindex[tuple(cx)], oindex[tuple(cy)]

    def do_switch(y: int):
        for w, _ in g.adjacency[y]:
            sign[(y, w)] = -sign[(y, w)]
            sign[(w, y)] = sign[(y, w)]

    in_s = [False] * g.n
    switched = [False] * g.n
    treated = set()

    for x in order:
        in_s[x] = True
        for y, _ in g.adjacency[x]:
            key = (min(x, y), max(x, y))
            if key in treated:
                continue
            i = merger.find(od.edge_color[key])
            xp, yp = project_edge(x, y, class_members(i))
            same = sign[(x, y)] == sign[(xp, yp)]
            if not same and not in_s[y]:
                do_switch(y)
                switched[y] = not switched[y]
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
                for c in merged[1:]:
                    merger.union(merged[0], c)
                if debug_trace is not None:
                    debug_trace.append(("merge", y, tuple(sorted(set(merged)))))
            treated.add(key)
        if debug_trace is not None:
            debug_trace.append(("done", x))
    return merger, sign, switched
