"""Prime s-decomposition of a connected signed graph.

The decomposition runs on top of the ordinary prime factorization, one
color per ordinary factor, and rests on one rule: colors i != j join when
some square spanned by an i-edge and a j-edge is negative.  The classes
of the joined colors are the s-prime factors.  Each factor is the input's
own layer of its class through vertex 0, signs included; the switch set
balances the input's signs times those of the product of the factors,
so switching the input by it gives that product edge for edge.

Each square is read once, at its corner x of least mixed-radix rank over
the ordinary coordinates: x's neighbors y, z of higher rank and different
colors span it, and its fourth corner has rank y + z - x.

Why the rule is sound.  Call a square mixed when its two edge colors lie
in different classes.

1. The joins never cross a factor of any s-decomposition.  If a switching
   of the input is a product of factors that group the ordinary colors,
   every square spanned by edges of two different factors is positive in
   that product, and switching keeps the sign of every cycle.
2. Base-layer cycles and mixed squares span the cycle space.  Order the
   classes 1..r and take the comb-shaped spanning tree that reaches a
   vertex from vertex 0 by moving coordinate 1 along a spanning tree of
   its layer, then coordinate 2, and so on.  The fundamental cycle of a
   non-tree edge of class c runs through a ladder of mixed squares,
   spanned by the edge's copies and the tree path in the classes after
   c, down to a cycle inside one class-c layer.  A cycle in a class-c
   layer in turn equals its copy in the base layer through vertex 0 plus
   the mixed squares of another ladder.
3. So the ratio of the input's signs to the product's is balanced: both
   agree on the base layers, which are the factors, and both are positive
   on mixed squares, the product's as a product and the input's because
   a negative one would have joined its colors.  An unbalanced ratio is a
   bug.
4. Each factor is s-prime.  A split of a class into two groups a and b
   that made its factor a product would, by point 1, leave every base
   layer square spanned by an a-edge and a b-edge positive.  By the ladder
   of point 2 every such square of the input has the sign of its base
   layer copy, so no join would cross the split, yet the class is joined.

S-primality reads the same joins: a graph is s-prime exactly when they
leave one class, and ``is_s_prime`` stops there and builds no factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SignedGraph
from .errors import InternalInvariantViolation
from .factor_ordinary import factorize
from .product import CoordinateSystem
from .switching import _switch_flags


@dataclass(frozen=True)
class SDecomposition:
    factors: tuple[SignedGraph, ...]
    coords: CoordinateSystem
    switch_set: frozenset  # applied to the input to realize the product signature
    factor_of_edge: dict  # (u, v) with u < v -> final merged color index


def s_decompose(g: SignedGraph) -> SDecomposition:
    """Prime s-decomposition of a connected signed graph with >= 1 edge."""
    od = factorize(g)
    ocoords = od.coords.coords
    osizes = [f.n for f in od.factors]
    root = _joined_colors(g, od)
    roots = sorted(set(root))
    classes = [[j for j, r in enumerate(root) if r == c] for c in roots]
    class_of = [roots.index(r) for r in root]

    def merged_coord(u: int, members: list[int]) -> int:
        # mixed-radix index over the ordinary coordinates in the class
        idx = 0
        for j in members:
            idx = idx * osizes[j] + ocoords[u][j]
        return idx

    coords = tuple(
        tuple(merged_coord(u, members) for members in classes) for u in range(g.n)
    )
    factor_of_edge = {(u, v): class_of[od.edge_color[(u, v)]] for u, v, _ in g.edges}

    # factor c: the input's class-c edges whose other coordinates are 0
    fedges = [[] for _ in classes]
    for u, v, s in g.edges:
        c = factor_of_edge[(u, v)]
        cu = coords[u]
        if sum(cu) == cu[c]:
            fedges[c].append((cu[c], coords[v][c], s))
    factors = tuple(
        SignedGraph(math.prod(osizes[j] for j in members), edges)
        for members, edges in zip(classes, fedges)
    )

    # the input's signs times the product's, in the input's adjacency order
    ratio = {}
    for u, v, s in g.edges:
        c = factor_of_edge[(u, v)]
        ratio[(u, v)] = ratio[(v, u)] = s * factors[c].sign(coords[u][c], coords[v][c])
    x, _, bad = _switch_flags(
        g, [[(v, ratio[(u, v)]) for v, _ in adj] for u, adj in enumerate(g.adjacency)]
    )
    if bad is not None:
        raise InternalInvariantViolation("the s-factors' product is no switching of the input")
    return SDecomposition(
        factors=factors,
        coords=CoordinateSystem(factors, coords),
        switch_set=x,
        factor_of_edge=factor_of_edge,
    )


def is_s_prime(g: SignedGraph) -> bool:
    """True iff the connected signed graph ``g`` (with >= 1 edge) is s-prime:
    negative squares join all its ordinary colors into one."""
    return set(_joined_colors(g, factorize(g))) == {0}


def _joined_colors(g: SignedGraph, od) -> list[int]:
    """Least color of each ordinary color's class under the joins.

    Colors i != j join when a square spanned by an i-edge and a j-edge is
    negative.  Vertices are handled by the mixed-radix rank of their
    ordinary coordinates; each square is read at its least corner x, from
    x's neighbors y and z of higher rank, and its fourth corner is y + z - x.
    """
    k = len(od.factors)
    root = list(range(k))
    if k == 1:
        return root
    rank = [0] * g.n
    for u, c in enumerate(od.coords.coords):
        for f, cj in zip(od.factors, c):
            rank[u] = rank[u] * f.n + cj
    at = [0] * g.n  # vertex of each rank
    for u, r in enumerate(rank):
        at[r] = u
    sign = [dict(adj) for adj in g.adjacency]  # per vertex: neighbor -> sign
    joins_left = k - 1
    for x, u in enumerate(at):
        above = [(rank[v], v, od.edge_color[(u, v) if u < v else (v, u)], s)
                 for v, s in g.adjacency[u] if rank[v] > x]
        for a, (y, vy, i, s_xy) in enumerate(above):
            for z, vz, j, s_xz in above[a + 1:]:
                if root[i] == root[j]:
                    continue
                w = at[y + z - x]
                if s_xy * s_xz * sign[vy][w] * sign[vz][w] < 0:
                    # at most log2(n) colors: relabel the whole list, so
                    # the test per square stays two list reads
                    lo, hi = sorted((root[i], root[j]))
                    root = [lo if r == hi else r for r in root]
                    joins_left -= 1
                    if not joins_left:
                        return root
    return root
