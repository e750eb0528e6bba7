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
    factor_of_edge: tuple[int, ...]  # per edge id (g.edges order): its s-prime factor


def s_decompose(g: SignedGraph) -> SDecomposition:
    """Prime s-decomposition of a connected signed graph with >= 1 edge."""
    od = factorize(g)
    ocols = list(zip(*od.coords.coords))
    osizes = [f.n for f in od.factors]
    root = _joined_colors(g, od)
    roots = sorted(set(root))
    classes = [[j for j, r in enumerate(root) if r == c] for c in roots]
    class_of = [roots.index(r) for r in root]
    coords = tuple(zip(*(_mixed_radix(ocols, osizes, members) for members in classes)))
    edge_class = tuple(class_of[c] for c in od.edge_color)

    # factor c: the input's class-c edges whose other coordinates are 0
    fsign = [{} for _ in classes]  # per factor: (a, b) and (b, a) -> sign
    for (u, v, s), c in zip(g.edges, edge_class):
        cu = coords[u]
        if sum(cu) == cu[c]:
            a, b = cu[c], coords[v][c]
            fsign[c][a, b] = fsign[c][b, a] = s
    factors = tuple(
        SignedGraph(math.prod(osizes[j] for j in members),
                    [(a, b, s) for (a, b), s in signs.items() if a < b])
        for members, signs in zip(classes, fsign)
    )

    # the input's signs times the product's, in g.adjacency's order
    ratio = [[] for _ in range(g.n)]
    for (u, v, s), c in zip(g.edges, edge_class):
        r = s * fsign[c][coords[u][c], coords[v][c]]
        ratio[u].append((v, r))
        ratio[v].append((u, r))
    x, _, bad = _switch_flags(g, ratio)
    if bad is not None:
        raise InternalInvariantViolation("the s-factors' product is no switching of the input")
    return SDecomposition(
        factors=factors,
        coords=CoordinateSystem(factors, coords),
        switch_set=x,
        factor_of_edge=edge_class,
    )


def is_s_prime(g: SignedGraph) -> bool:
    """True iff the connected signed graph ``g`` (with >= 1 edge) is s-prime:
    negative squares join all its ordinary colors into one."""
    return set(_joined_colors(g, factorize(g))) == {0}


def _mixed_radix(cols, sizes, members) -> list[int]:
    """Each vertex's mixed-radix index over the coordinate columns ``members``."""
    col = cols[members[0]]
    for j in members[1:]:
        col = [a * sizes[j] + b for a, b in zip(col, cols[j])]
    return col


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
    rank = _mixed_radix(list(zip(*od.coords.coords)), [f.n for f in od.factors], root)
    at = [0] * g.n  # vertex of each rank
    for u, r in enumerate(rank):
        at[r] = u
    sign = [dict(adj) for adj in g.adjacency]  # per vertex: neighbor -> sign
    above = [[] for _ in range(g.n)]  # per vertex: its edges to higher rank
    for (u, v, s), c in zip(g.edges, od.edge_color):
        if rank[u] < rank[v]:
            above[u].append((rank[v], v, c, s))
        else:
            above[v].append((rank[u], u, c, s))
    joins_left = k - 1
    for x, u in enumerate(at):
        for a, (y, vy, i, s_xy) in enumerate(above[u]):
            for z, vz, j, s_xz in above[u][a + 1:]:
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
