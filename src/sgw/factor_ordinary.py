"""Prime factorization of a connected ordinary graph with coordinates.

Signs are ignored here; the factors come back as all-positive SignedGraph
values.  Edges are joined into color classes in up to four passes, and
after each one the coloring is coordinatized and verified by exact
reconstruction; the first that passes is returned.  Colors are indexed by
edge id, the position of the edge in g.edges, and numbered by first edge.

Coordinates: for each color c, the base layer is the c-colored component
of vertex 0, in BFS order, and a vertex's c-th coordinate is the index of
its projection onto that layer.  A vertex holds them as one integer, its
rank: their row-major mixed-radix number, as product_many numbers
vertices, digit c weighing stride[c], the product of the later layers'
sizes.  One sweep in BFS order from 0 computes all ranks.  A base-layer
vertex takes its index times stride[c] (where layers meet beyond 0, the
later one wins).  Any other vertex u copies the rank of a down-neighbor p
(one level nearer to 0), whose edge up has color c, with digit c from a
down-neighbor q whose edge has another color; with no such q, the coloring
is rejected.  In a product this finds the projections: distance from 0 is
the sum of the factor distances, so u has a down-neighbor along each of
its two or more nonzero coordinates, and q agrees with u in coordinate c.
The sweep only proposes; the exact check (distinct ranks, each edge moving
its own digit along an edge of its factor, the product's edge count)
holds exactly when the ranks are a color-preserving isomorphism onto the
product of the base layers.  An edge uv of color c keeps every other digit
iff rank v - rank u = (digit c of v - digit c of u) * stride[c], as mixed
radix is a bijection.  One look at each edge, O(m + n).

The passes.  Each pass yields joins (e, t) of edge ids, which one
union-find takes in turn (DisjointSet.join); its classes are the coloring.
Every join lies in the product relation sigma: two opposite edges of a
4-cycle (theta-related when the cycle is chordless, on two triangles when
it has a chord), two edges of a triangle, two adjacent edges on no common
chordless square (tau), two adjacent edges on two squares, or two
theta-related edges.  So every coloring is at least as fine as sigma, and
every product coloring is at least as coarse (Feder, "Product graph
representations", J. Graph Theory 16, 1992): the first coloring that
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
   it does for cycles, complete graphs and K2.  u runs in BFS order, so
   px and up, one level nearer to 0 or at 0, are joined before uw, and
   uw's first join hangs it under that edge's parent with no find; only
   the rule at 0 and a level edge's second end merge two classes.  One
   set intersection per edge end, O(m * max degree).
2. Tau.  At every vertex x, edges xy and xz are joined when no
   chordless square x y w z holds them: y and z are adjacent, or every
   common neighbour w != x of theirs is adjacent to x.
   O(sum of deg^2 * max degree).
3. Theta at the star.  Passes 1 and 2 see only squares: in M x K2, M a
   Mobius ladder, they keep M's rungs apart from its rim.  This pass
   joins each edge 0y with every edge in the Djokovic-Winkler relation
   theta to it, one BFS per neighbour y.  Every sigma class meets the
   star at 0, as every factor's layer through 0 has an edge there, so
   the coloring is tried.  O(deg(0) * m).
4. Theta on the tree.  Sigma is the closure of theta and tau, and theta
   need only relate each edge to the edges of one spanning tree (Feder).
   Pass 2 is tau, and the star starts factorize's BFS tree from 0, so
   joining the other tree edges pc (p the least neighbour of c one level
   down) gives sigma.  The star can fall short: on a prime graph of 8
   vertices, the least such order, passes 1 to 3 leave two colors.  Two
   BFS per tree edge, O(n * m).

A graph of prime order is prime, as factor orders multiply to n: its one
pass joins every edge to edge 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt, prod

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
    color, sizes, rank, pairs = _product_coloring(g, *_prologue(g))
    coords = list(product(*map(range, sizes)))  # indexed by rank
    factors = tuple(SignedGraph(size, [(a, b, 1) for a, b in edges if a < b])
                    for size, edges in zip(sizes, pairs))
    cs = CoordinateSystem(factors, tuple(coords[r] for r in rank))
    return OrdinaryDecomposition(factors, cs, tuple(color))


def is_prime_ordinary(g: SignedGraph) -> bool:
    """True iff the underlying graph has a single prime factor."""
    if not is_connected(g):
        raise DisconnectedError("primality needs a connected graph")
    return len(factorize(g).factors) == 1


def _product_coloring(g: SignedGraph, eid, order, dist):
    """Sigma's coloring of ``g`` as ``_coordinatize`` returns it, from what
    ``_prologue`` gives."""
    ds = DisjointSet(g.m)
    # factor orders multiply to n: a graph of prime order has one color
    passes = [_one_color] if _is_prime(g.n) else [_root_joins, _tau, _theta_star, _theta_tree]
    for joins in passes:
        ds.join(joins(g, eid, order, dist))
        found = _coordinatize(g, eid, ds.labels(), order, dist)
        if found is not None:
            return found
    raise InternalInvariantViolation("the product relation did not coordinatize")


def _prologue(g: SignedGraph):
    """Per vertex, neighbor -> edge id, and the BFS order and distances from 0."""
    if g.m == 0:
        raise NoEdgesError("cannot factorize an edgeless graph")
    order, dist = bfs_order(g, 0)
    if len(order) < g.n:
        raise DisconnectedError("factorization needs a connected graph")
    # g.edges is sorted, so each vertex's map is in g.adjacency's order
    eid = [{} for _ in range(g.n)]
    for idx, (u, v, _) in enumerate(g.edges):
        eid[u][v] = eid[v][u] = idx
    return eid, order, dist


def _one_color(g, eid, order, dist):
    """The one pass for a graph of prime order: every edge with edge 0."""
    return ((e, 0) for e in range(1, g.m))


def _root_joins(g, eid, order, dist):
    """Pass 1 (module docstring): joins (e, t), t joined before e."""
    star = eid[0]
    for y, z in combinations(star, 2):
        if z in eid[y] or len(eid[y].keys() & eid[z].keys()) != 2:
            yield star[y], star[z]
    keys = [at.keys() for at in eid]
    for u in order[1:]:
        down = dist[u] - 1
        at = eid[u]
        p = next(w for w in at if dist[w] == down)
        at_p, near, up = eid[p], keys[p], at[p]
        for w, e in at.items():
            if dist[w] > down:
                common = near & keys[w]
                if len(common) == 2:  # the one 4-cycle u p x w
                    a, b = common
                    yield e, at_p[b if a == u else a]
                else:
                    yield e, up


def _tau(g, eid, order, dist):
    """Pass 2: xy with xz when no chordless square x y w z holds them."""
    for x, at in enumerate(eid):
        nbrs = list(at)
        for a, y in enumerate(nbrs):
            at_y = eid[y]
            for z in nbrs[a + 1:]:
                for w in () if z in at_y else at_y.keys() & eid[z].keys():
                    if w != x and w not in at:  # the square x y w z
                        break
                else:
                    yield at[y], at[z]


def _coordinatize(g, eid, color, order, dist):
    """(color, sizes, rank, pairs) if ``color`` is a product coloring, else None:
    layer sizes, ranks, factor edges (i, j) -> sign both ways by layer index."""
    layers = []  # of each color through vertex 0, ordered by BFS
    for c in range(max(color) + 1):
        seen = {0}
        layer = [0]
        for u in layer:
            for w, e in eid[u].items():
                if color[e] == c and w not in seen:
                    seen.add(w)
                    layer.append(w)
        layers.append(layer)
    sizes = [len(layer) for layer in layers]
    if prod(sizes) != g.n:
        return None
    stride = [prod(sizes[c + 1:]) for c in range(len(sizes))]
    rank = _sweep(eid, color, layers, stride, order, dist)
    if rank is None or len(set(rank)) != g.n:
        return None

    # factor c: the c-colored edges of its layer, which stay in the layer
    pairs = []
    for c, layer in enumerate(layers):
        pos = {u: i for i, u in enumerate(layer)}
        pairs.append({(pos[u], pos[w]): g.edges[e][2] for u in layer
                      for w, e in eid[u].items() if color[e] == c})
    # exact reconstruction: edge count of the product must match
    if sum(len(p) // 2 * (g.n // s) for p, s in zip(pairs, sizes)) != g.m:
        return None
    # every edge must move exactly its own color's digit, along its factor
    digit = list(zip(stride, sizes, pairs))
    for (u, v, _s), c in zip(g.edges, color):
        st, size, edges = digit[c]
        ru, rv = rank[u], rank[v]
        du, dv = ru // st % size, rv // st % size
        if rv - ru != (dv - du) * st or (du, dv) not in edges:
            return None
    return color, sizes, rank, pairs


def _sweep(eid, color, layers, stride, order, dist):
    """Each vertex's rank from one sweep in BFS order, or None (module docstring)."""
    rank = [0] + [-1] * (len(order) - 1)
    for c, layer in enumerate(layers):
        for i, u in enumerate(layer[1:], 1):
            rank[u] = i * stride[c]
    for u in order:
        if rank[u] < 0:
            p = -1
            for q, e in eid[u].items():
                if dist[q] == dist[u] - 1:
                    if p < 0:
                        p, c = q, color[e]
                    elif color[e] != c:  # rank p with q's digit c
                        st, size, rp = stride[c], len(layers[c]), rank[p]
                        rank[u] = rp + (rank[q] // st % size - rp // st % size) * st
                        break
            else:
                return None
    return rank


def _theta_star(g, eid, order, dist):
    """Pass 3: theta from each edge at vertex 0, whose distances are ``dist``."""
    for c, e in eid[0].items():
        yield from _theta_joins(g, e, dist, bfs_order(g, c)[1])


def _theta_tree(g, eid, order, dist):
    """Pass 4: theta from the other edges of the BFS tree ``order``."""
    for c in order[len(eid[0]) + 1:]:
        p = next(w for w in eid[c] if dist[w] == dist[c] - 1)
        yield from _theta_joins(g, eid[p][c], bfs_order(g, p)[1], bfs_order(g, c)[1])


def _theta_joins(g, e, dp, dc):
    """Edge ``e`` = pc with every edge xy theta-related to it, that is, with
    d(., c) - d(., p) different at x and y; ``dp`` and ``dc`` are the
    distances from p and from c."""
    for idx, (x, y, _s) in enumerate(g.edges):
        if dc[x] - dp[x] != dc[y] - dp[y]:
            yield idx, e


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
