"""Prime factorization of a connected ordinary graph with coordinates.

Signs are ignored here; the factors come back as all-positive SignedGraph
values.  The approach is edge-color refinement: a union-find over edges is
seeded with the local square rules (adjacent edges lying in no unique
chordless square, or in a triangle or chorded square, get the same color;
opposite edges of chordless squares get the same color, joined once per
square at its least corner).  Then a coordinate system is extracted and
verified by exact reconstruction.

Coordinates: for each color c, the base layer is the c-colored component
of vertex 0, and a vertex's c-th coordinate is the index of its nearest
base-layer vertex.  One BFS started from the whole base layer at once
computes them: each base-layer vertex labels itself, and every other
vertex takes the label of its shortest-path predecessors.  Its nearest
base-layer vertices are the union of its predecessors', so a tie (two
nearest vertices) shows first at a vertex whose predecessors carry
different labels, and every vertex reached through it is tied too.  Any
tie rejects the coloring.  With k <= log2(n) colors this costs
O(k * (n + m)).

Any verification failure merges the offending colors and retries, so the
result is always a genuine product decomposition; termination is immediate
since the color count strictly drops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import SignedGraph, is_connected
from .errors import DisconnectedError, InternalInvariantViolation, NoEdgesError
from .product import CoordinateSystem


class DisjointSet:
    """Union-find with path compression (used for edge-color merging)."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class OrdinaryDecomposition:
    factors: tuple[SignedGraph, ...]  # all-positive, each with >= 1 edge
    coords: CoordinateSystem
    edge_color: dict  # (u, v) with u < v -> factor index


class _MergeHint(Exception):
    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def factorize(g: SignedGraph) -> OrdinaryDecomposition:
    """Unique prime decomposition of the underlying graph of ``g``."""
    if g.m == 0:
        raise NoEdgesError("cannot factorize an edgeless graph")
    if not is_connected(g):
        raise DisconnectedError("factorization needs a connected graph")

    eid = {}
    for idx, (u, v, _) in enumerate(g.edges):
        eid[(u, v)] = idx
        eid[(v, u)] = idx
    adj = [set(g.neighbors(u)) for u in range(g.n)]

    ds = DisjointSet(g.m)
    _seed_square_rules(g, adj, eid, ds)

    while True:
        try:
            return _coordinatize(g, eid, ds)
        except _MergeHint as hint:
            if not ds.union(hint.a, hint.b):
                raise InternalInvariantViolation("merge made no progress")


def is_prime_ordinary(g: SignedGraph) -> bool:
    """True iff the underlying graph has a single prime factor."""
    if not is_connected(g):
        raise DisconnectedError("primality needs a connected graph")
    return len(factorize(g).factors) == 1


def _seed_square_rules(g, adj, eid, ds):
    for x in range(g.n):
        nbrs = g.neighbors(x)
        for a in range(len(nbrs)):
            y = nbrs[a]
            for b in range(a + 1, len(nbrs)):
                z = nbrs[b]
                exy, exz = eid[(x, y)], eid[(x, z)]
                if z in adj[y]:  # triangle: one layer
                    ds.union(exy, exz)
                    continue
                chordless = []
                chorded = False
                for w in adj[y] & adj[z]:
                    if w == x:
                        continue
                    if w in adj[x]:
                        chorded = True
                    else:
                        chordless.append(w)
                # each chordless square is met from all four corners with
                # the same two opposite-edge unions; make them at the least
                if x < y and x < z:
                    for w in chordless:
                        if x < w:
                            ds.union(exy, eid[(z, w)])
                            ds.union(exz, eid[(y, w)])
                if chorded or len(chordless) != 1:
                    ds.union(exy, exz)


def _coordinatize(g, eid, ds) -> OrdinaryDecomposition:
    # color classes in order of first edge appearance
    roots = []
    root_pos = {}
    for idx in range(g.m):
        r = ds.find(idx)
        if r not in root_pos:
            root_pos[r] = len(roots)
            roots.append(r)
    k = len(roots)
    color = {}
    for (u, v, _s) in g.edges:
        c = root_pos[ds.find(eid[(u, v)])]
        color[(u, v)] = c
        color[(v, u)] = c

    # layer of each color through vertex 0, ordered by BFS
    layer_verts: list[list[int]] = []
    for c in range(k):
        seen = {0}
        order = [0]
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w, _ in g.adjacency[u]:
                if color[(u, w)] == c and w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        layer_verts.append(order)

    sizes = [len(lv) for lv in layer_verts]
    total = 1
    for s in sizes:
        total *= s
    if total != g.n:
        raise _MergeHint(ds.find(0), ds.find(_largest_other(ds, g.m)))

    # coordinates via nearest-vertex projections onto the base layers
    per_color = []
    for lv in layer_verts:
        labels = _nearest_labels(g, lv)
        if labels is None:
            raise _MergeHint(roots[0], roots[1 % k] if k > 1 else roots[0])
        per_color.append(labels)
    coords = list(zip(*per_color))
    if len(set(coords)) != g.n:
        raise _MergeHint(roots[0], roots[min(1, k - 1)])

    # factor graphs from the base layers
    pos_in_layer = [
        {w: i for i, w in enumerate(lv)} for lv in layer_verts
    ]
    factors = []
    for c in range(k):
        verts = layer_verts[c]
        pos = pos_in_layer[c]
        vset = set(verts)
        fedges = []
        for u in verts:
            for w, _ in g.adjacency[u]:
                if w in vset and u < w and color[(u, w)] == c:
                    fedges.append((pos[u], pos[w], 1))
        factors.append(SignedGraph(len(verts), fedges))

    # every edge must move exactly one coordinate, along its own color
    for u, v, _s in g.edges:
        diffs = [c for c in range(k) if coords[u][c] != coords[v][c]]
        if len(diffs) != 1:
            a, b = (diffs + [color[(u, v)], color[(u, v)]])[:2]
            raise _MergeHint(roots[a], roots[b])
        c = diffs[0]
        if c != color[(u, v)]:
            raise _MergeHint(roots[c], roots[color[(u, v)]])
        if not factors[c].has_edge(coords[u][c], coords[v][c]):
            raise _MergeHint(roots[c], roots[(c + 1) % k] if k > 1 else roots[c])

    # exact reconstruction: edge count of the product must match
    expected = 0
    for c in range(k):
        copies = g.n // sizes[c]
        expected += factors[c].m * copies
    if expected != g.m:
        raise _MergeHint(roots[0], roots[min(1, k - 1)])

    if k == 1 and factors[0].n != g.n:
        raise InternalInvariantViolation("single-color layer misses vertices")

    cs = CoordinateSystem(tuple(factors), tuple(coords))
    return OrdinaryDecomposition(tuple(factors), cs, {
        (u, v): color[(u, v)] for u, v, _ in g.edges
    })


def _nearest_labels(g, layer):
    """Index in ``layer`` of each vertex's unique nearest layer vertex.

    One BFS from every layer vertex at once.  The nearest layer vertices
    of u are the union of those of its shortest-path predecessors, so
    some vertex has two of them exactly when some vertex sees two
    predecessors with different labels; then the result is None.
    """
    label = [-1] * g.n
    dist = [-1] * g.n
    for i, w in enumerate(layer):
        label[w] = i
        dist[w] = 0
    queue = deque(layer)
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        lab = label[v]
        for u, _ in g.adjacency[v]:
            if dist[u] < 0:
                dist[u] = dv
                label[u] = lab
                queue.append(u)
            elif dist[u] == dv and label[u] != lab:
                return None
    return label


def _largest_other(ds, m):
    for idx in range(m):
        if ds.find(idx) != ds.find(0):
            return idx
    return 0
