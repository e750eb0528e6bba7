"""Prime factorization of a connected ordinary graph with coordinates.

Signs are ignored here; the factors come back as all-positive SignedGraph
values.  The approach is edge-color refinement: a union-find over edges
is joined in up to four passes, and after each one a coordinate system
is extracted and verified by exact reconstruction.  The first coloring
that passes is returned; its colors are a tuple indexed by edge id, the
position of the edge in g.edges.

Coordinates: for each color c, the base layer is the c-colored component
of vertex 0, in BFS order, and a vertex's c-th coordinate is the index
of its projection onto that layer.  One sweep in the BFS order from
vertex 0 computes them all.  A base-layer vertex takes its index in its
layer and 0 elsewhere.  Any other vertex u copies the tuple of a
down-neighbor p (one level nearer to 0), whose edge up has color c, and
takes coordinate c from a down-neighbor q whose edge has another color.
If there is no such q, the coloring is rejected.  (In a product the base
layers meet only at 0; where they meet elsewhere, the later layer's
index wins.)  The sweep only proposes coordinates: the exact
check that follows (distinct tuples, every edge moving its own
coordinate along an edge of its factor, the product's edge count) holds
exactly when the proposal is a color-preserving isomorphism onto the
product of the base layers, so it alone decides.  In a product the
sweep finds the projections: distance from 0 is the sum of the factor
distances, so a vertex off the base layers has a down-neighbor along
each of its two or more nonzero coordinates, q agrees with u in
coordinate c, and p and q come earlier in the order.  One look at each
edge and one k-tuple per vertex, O(m + k * n).

The passes.  Every join of every pass is inside the product relation
sigma: two opposite edges of a 4-cycle (theta-related when the cycle is
chordless, on two triangles when it has a chord), two edges of a
triangle, two adjacent edges on no common chordless square (tau), or
two adjacent edges on two squares.  So every coloring is at least as
fine as sigma.  Every product coloring is at least as coarse as sigma,
the relation of the prime factorization (Feder, "Product graph
representations", J. Graph Theory 16, 1992), so the first coloring that
coordinatizes is sigma's.

1. From the root.  Edges 0y and 0z are joined unless y and z are not
   adjacent and have one common neighbour besides 0, the fourth corner
   of the one 4-cycle through them.  Every other edge uw is taken at
   each end u with d(w) >= d(u), d the distance from 0, and joined to
   an edge nearer to 0: with p the least neighbour of u one level down,
   to px when N(p) & N(w) = {u, x}, the opposite edge of the one
   4-cycle u p x w, and to up otherwise, as up and uw then lie on no
   4-cycle or on two.  So every edge chains down to an edge at 0, and
   the coloring is sigma when the classes at 0 are sigma's: in a
   product, when the rule at 0 joins the edges of each factor there, as
   it does for cycles, complete graphs and K2.  One set intersection
   per edge end, O(m * max degree).
2. All corners.  At every vertex, adjacent edges lying in no unique
   chordless square, or in a triangle or chorded square, are joined, and
   opposite edges of each chordless square are joined once, at its least
   corner.  O(sum of deg^2 * max degree).
3. Theta at the star.  The square rules see only squares: in M x K2,
   M a Mobius ladder, they keep M's rungs apart from its rim.  This pass
   joins each edge 0y at vertex 0 with every edge in the
   Djokovic-Winkler relation theta to it, one BFS per neighbour y.
   Every sigma class meets the star at 0, as every factor's layer
   through 0 has an edge there, and the joins lie in sigma, so the
   coloring is tried.  O(deg(0) * m).
4. Theta on the tree.  Sigma is the closure of theta and tau, and theta
   need only relate each edge to the edges of one spanning tree (Feder).
   Pass 2 contains tau, and the star is the start of factorize's BFS
   tree from 0, so joining the other tree edges pc (p the least
   neighbour of c one level down) gives sigma, which must coordinatize.
   Nothing proves that the star suffices, so this pass stays as the
   complete last one.  Two BFS per tree edge, O(n * m).

A graph of prime order is prime, as factor orders multiply to n, so its
one pass joins every edge into a single color.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt, prod
from typing import Optional

from .core import DisjointSet, SignedGraph, bfs_order, is_connected
from .errors import DisconnectedError, InternalInvariantViolation, NoEdgesError
from .product import CoordinateSystem


@dataclass(frozen=True)
class OrdinaryDecomposition:
    factors: tuple[SignedGraph, ...]  # all-positive, each with >= 1 edge
    coords: CoordinateSystem
    edge_color: tuple[int, ...]  # per edge id (g.edges order): its factor index


def factorize(g: SignedGraph) -> OrdinaryDecomposition:
    """Unique prime decomposition of the underlying graph of ``g``."""
    if g.m == 0:
        raise NoEdgesError("cannot factorize an edgeless graph")
    order, dist = bfs_order(g, 0)
    if len(order) < g.n:
        raise DisconnectedError("factorization needs a connected graph")

    # per vertex: neighbor -> edge id; g.edges is sorted, so in g.adjacency's order
    eid = [{} for _ in range(g.n)]
    for idx, (u, v, _) in enumerate(g.edges):
        eid[u][v] = eid[v][u] = idx

    ds = DisjointSet(g.m)
    passes = ([_one_color] if _is_prime(g.n)  # factor orders multiply to n
              else [_seed_from_root, _seed_square_rules, _theta_star, _theta_tree])
    for join in passes:
        join(g, eid, ds, order, dist)
        dec = _coordinatize(g, eid, ds, order, dist)
        if dec is not None:
            return dec
    raise InternalInvariantViolation("the product relation did not coordinatize")


def is_prime_ordinary(g: SignedGraph) -> bool:
    """True iff the underlying graph has a single prime factor."""
    if not is_connected(g):
        raise DisconnectedError("primality needs a connected graph")
    return len(factorize(g).factors) == 1


def _one_color(g, eid, ds, order, dist):
    """The one pass for a graph of prime order (see the module docstring)."""
    for idx in range(1, g.m):
        ds.union(0, idx)


def _seed_from_root(g, eid, ds, order, dist):
    """Pass 1 (see the module docstring)."""
    for y, z in combinations(eid[0], 2):
        if z in eid[y] or len(eid[y].keys() & eid[z].keys()) != 2:
            ds.union(eid[0][y], eid[0][z])
    for u in range(1, g.n):
        down = dist[u] - 1
        at = eid[u]
        for p in at:
            if dist[p] == down:
                break
        at_p, up = eid[p], at[p]
        for w, e in at.items():
            if dist[w] > down:
                common = at_p.keys() & eid[w].keys()
                if len(common) == 2:  # the one 4-cycle u p x w
                    a, b = common
                    ds.union(e, at_p[b if a == u else a])
                else:
                    ds.union(e, up)


def _seed_square_rules(g, eid, ds, order, dist):
    """Pass 2 (see the module docstring)."""
    for x in range(g.n):
        at = eid[x]
        nbrs = list(at)
        for a, y in enumerate(nbrs):
            at_y = eid[y]
            for z in nbrs[a + 1:]:
                exy, exz = at[y], at[z]
                if z in at_y:  # triangle: one layer
                    ds.union(exy, exz)
                    continue
                chordless = []
                chorded = False
                for w in at_y.keys() & eid[z].keys():
                    if w == x:
                        continue
                    if w in at:
                        chorded = True
                    else:
                        chordless.append(w)
                # each chordless square is met from all four corners with
                # the same two opposite-edge unions; make them at the least
                if x < y and x < z:
                    for w in chordless:
                        if x < w:
                            ds.union(exy, eid[z][w])
                            ds.union(exz, at_y[w])
                if chorded or len(chordless) != 1:
                    ds.union(exy, exz)


def _coordinatize(g, eid, ds, order, dist) -> Optional[OrdinaryDecomposition]:
    """The decomposition colored by ``ds``, or None if it is no product.

    ``order`` and ``dist`` are a BFS from vertex 0."""
    # color classes in order of first edge appearance
    color = ds.labels()

    # layer of each color through vertex 0, ordered by BFS
    layer_verts: list[list[int]] = []
    for c in range(max(color) + 1):
        seen = {0}
        layer = [0]
        for u in layer:
            for w, e in eid[u].items():
                if color[e] == c and w not in seen:
                    seen.add(w)
                    layer.append(w)
        layer_verts.append(layer)

    if prod(len(lv) for lv in layer_verts) != g.n:
        return None

    coords = _sweep_coords(eid, color, layer_verts, order, dist)
    if coords is None or len(set(coords)) != g.n:
        return None

    # factor graphs from the base layers; a layer vertex's label is its
    # index in the layer, and its c-colored edges stay in the layer
    factors = []
    for c, verts in enumerate(layer_verts):
        pos = {u: i for i, u in enumerate(verts)}
        fedges = [(pos[u], pos[w], 1) for u in verts
                  for w, e in eid[u].items() if u < w and color[e] == c]
        factors.append(SignedGraph(len(verts), fedges))

    # every edge must move exactly one coordinate, along its own color
    for (u, v, _s), c in zip(g.edges, color):
        cu, cv = coords[u], coords[v]
        if (cu[:c] != cv[:c] or cu[c + 1:] != cv[c + 1:]
                or not factors[c].has_edge(cu[c], cv[c])):
            return None

    # exact reconstruction: edge count of the product must match
    if sum(f.m * (g.n // f.n) for f in factors) != g.m:
        return None

    cs = CoordinateSystem(tuple(factors), tuple(coords))
    return OrdinaryDecomposition(tuple(factors), cs, tuple(color))


def _sweep_coords(eid, color, layer_verts, order, dist):
    """Coordinates from one sweep in BFS order, or None (module docstring).

    A base-layer vertex takes its index in its layer.  Any other vertex
    copies the tuple of a down-neighbor p, whose edge has color c, and
    takes coordinate c from a down-neighbor whose edge has another color.
    """
    zero = (0,) * len(layer_verts)
    coords = [zero] + [None] * (len(order) - 1)
    for c, layer in enumerate(layer_verts):
        for i, u in enumerate(layer[1:], 1):
            coords[u] = zero[:c] + (i,) + zero[c + 1:]
    for u in order:
        if coords[u] is None:
            down = dist[u] - 1
            below = [(w, color[e]) for w, e in eid[u].items() if dist[w] == down]
            p, c = below[0]
            for q, cq in below:
                if cq != c:
                    cp = coords[p]
                    coords[u] = cp[:c] + (coords[q][c],) + cp[c + 1:]
                    break
            else:
                return None
    return coords


def _theta_star(g, eid, ds, order, dist):
    """Pass 3: theta from each edge at vertex 0, whose distances are ``dist``."""
    for c, e in eid[0].items():
        _theta_join(g, ds, e, dist, bfs_order(g, c)[1])


def _theta_tree(g, eid, ds, order, dist):
    """Pass 4: theta from the other edges of the BFS tree ``order``."""
    for c in order[len(eid[0]) + 1:]:
        p = next(w for w in eid[c] if dist[w] == dist[c] - 1)
        _theta_join(g, ds, eid[p][c], bfs_order(g, p)[1], bfs_order(g, c)[1])


def _theta_join(g, ds, e, dp, dc):
    """Join edge ``e`` = pc with every edge theta-related to it.

    Edges xy and pc are theta-related iff d(x, p) + d(y, c) differs from
    d(x, c) + d(y, p), that is, iff d(., c) - d(., p) differs at x and y;
    ``dp`` and ``dc`` are the distances from p and from c.
    """
    for idx, (x, y, _s) in enumerate(g.edges):
        if dc[x] - dp[x] != dc[y] - dp[y]:
            ds.union(e, idx)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
