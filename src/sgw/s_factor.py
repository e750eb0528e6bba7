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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import SignedGraph, bfs_order, is_connected
from .errors import DisconnectedError, NoEdgesError
from .factor_ordinary import DisjointSet, OrdinaryDecomposition, factorize
from .product import CoordinateSystem
from .switching import equivalent, switch

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
    if g.m == 0:
        raise NoEdgesError("cannot decompose an edgeless graph")
    if not is_connected(g):
        raise DisconnectedError("decomposition needs a connected graph")

    od = factorize(g)
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
    """Decide s-primality via the layer-equivalence / balanced-square test.

    The graph is not s-prime iff some grouping of its ordinary prime
    factors into an A-side and a B-side has (1) all A-layers pairwise
    switching-equivalent and (2) every 4-cycle spanned by two copies of an
    A-edge balanced.  With k ordinary factors there are 2^(k-1) - 1
    nontrivial groupings to try.
    """
    if g.m == 0:
        raise NoEdgesError("s-primality needs at least one edge")
    if not is_connected(g):
        raise DisconnectedError("s-primality needs a connected graph")

    od = factorize(g)
    k = len(od.factors)
    if k == 1:
        return True
    ocoords = od.coords.coords
    oindex = od.coords.index
    osizes = [f.n for f in od.factors]

    # fix factor 0 on the A-side to halve the groupings
    for mask in range(0, (1 << (k - 1)) - 1):
        a_side = [0] + [j for j in range(1, k) if mask >> (j - 1) & 1]
        if _lemma_conditions(g, ocoords, oindex, osizes, od, a_side):
            return False
    return True


def _lemma_conditions(g, ocoords, oindex, osizes, od, a_side) -> bool:
    k = len(osizes)
    b_side = [j for j in range(k) if j not in a_side]

    def a_index(u):
        idx = 0
        for j in a_side:
            idx = idx * osizes[j] + ocoords[u][j]
        return idx

    a_size = 1
    for j in a_side:
        a_size *= osizes[j]

    # group vertices into A-layers keyed by their B-side coordinates
    layers = {}
    for u in range(g.n):
        key = tuple(ocoords[u][j] for j in b_side)
        layers.setdefault(key, [None] * a_size)[a_index(u)] = u

    base_key = tuple(0 for _ in b_side)
    base = _layer_graph(g, layers[base_key], od, a_side)
    for key, verts in layers.items():
        if key == base_key:
            continue
        if equivalent(base, _layer_graph(g, verts, od, a_side)) is None:
            return False

    # every square spanned by two copies of an A-edge must be balanced
    a_set = set(a_side)
    for u, v, s_uv in g.edges:
        if od.edge_color[(u, v)] not in a_set:
            continue
        for u2, s_u2 in g.adjacency[u]:
            if od.edge_color[(min(u, u2), max(u, u2))] in a_set:
                continue
            cv2 = list(ocoords[u2])
            for j in a_side:
                cv2[j] = ocoords[v][j]
            v2 = oindex[tuple(cv2)]
            if s_uv * s_u2 * g.sign(u2, v2) * g.sign(v, v2) != 1:
                return False
    return True


def _layer_graph(g, verts, od, a_side) -> SignedGraph:
    a_set = set(a_side)
    pos = {u: i for i, u in enumerate(verts)}
    edges = []
    for u in verts:
        for w, s in g.adjacency[u]:
            if w in pos and u < w and od.edge_color[(u, w)] in a_set:
                edges.append((pos[u], pos[w], s))
    return SignedGraph(len(verts), edges)
