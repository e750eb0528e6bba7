"""Prime s-decomposition of a connected signed graph.

The decomposition runs on top of the ordinary prime factorization, one
color per ordinary factor, and rests on one rule: colors i != j join when
some square spanned by an i-edge and a j-edge is negative.  The classes
of the joined colors are the s-prime factors.  Each factor is the input's
own layer of its class through vertex 0, signs included; the switch set
balances the input's signs times those of the product of the factors,
so switching the input by it gives that product edge for edge.

Both functions read the ordinary coloring as factor_ordinary verifies
it, a color per edge, the layer sizes and each vertex's rank, and build
no coordinate tuples or ordinary factors; s_decompose reads each
factor's signs off its base layer by the s-rank, the rank regrouped by
class.

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
   bug.  So s_decompose runs the ratio pass first with each color its own
   class: balanced, it makes the input a switching of the product of its
   ordinary base layers, so by point 1 no colors join.  Only an
   unbalanced one runs the square scan, then the pass once more.
4. Each factor is s-prime.  A split of a class into two groups a and b
   that made its factor a product would, by point 1, leave every base
   layer square spanned by an a-edge and a b-edge positive.  By the ladder
   of point 2 every such square of the input has the sign of its base
   layer copy, so no join would cross the split, yet the class is joined.

S-primality reads the same joins: a graph is s-prime exactly when they
leave one class, and ``is_s_prime`` stops there and builds no factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .core import SignedGraph, is_connected
from .errors import InternalInvariantViolation
from .factor_ordinary import _is_prime, _product_coloring
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
    color, sizes, rank, _ = _product_coloring(g)
    adjacency = g.adjacency
    # each color its own class first; the squares only after an unbalanced ratio
    for scan in (False, True):
        root = _joined_colors(g, color, sizes, rank) if scan else list(range(len(sizes)))
        roots = sorted(set(root))
        classes = [[j for j, r in enumerate(root) if r == c] for c in roots]
        class_of = [roots.index(r) for r in root]
        edge_class = tuple(class_of[c] for c in color)

        # the s-rank: each rank's ordinary digits regrouped class by class,
        # digit j weighing place[j]; a table by rank, built digit by digit
        grouped = [j for members in classes for j in members]
        place = [prod(sizes[i] for i in grouped[grouped.index(j) + 1:]) for j in range(len(sizes))]
        srank = [0]
        for size, w in zip(sizes, place):
            srank = [r + d for r in srank for d in range(0, size * w, w)]
        srank = [srank[r] for r in rank]
        at = dict(zip(srank, range(g.n)))  # vertex of each s-rank

        # factor c: the input's layer of class c through vertex 0, the
        # vertices of s-rank i * stride, whose edges all have class c
        digit = []  # per class: its stride, its size and (i, j) -> sign
        for members in classes:
            stride, size = place[members[-1]], prod(sizes[j] for j in members)
            digit.append((stride, size, {
                (i, srank[v] // stride): s for i in range(size) for v, s in adjacency[at[i * stride]]
                if srank[v] < size * stride and not srank[v] % stride}))

        # the input's signs times the product's, in g.adjacency's order
        ratio = [[] for _ in range(g.n)]
        for (u, v, s), c in zip(g.edges, edge_class):
            stride, size, signs = digit[c]
            r = s * signs[srank[u] // stride % size, srank[v] // stride % size]
            ratio[u].append((v, r))
            ratio[v].append((u, r))
        x, _, bad = _switch_flags(g, ratio)
        if bad is None:
            break
    else:
        raise InternalInvariantViolation("the s-factors' product is no switching of the input")
    # distinct pairs renumbered one to one from the input's: canonical once sorted
    factors = tuple(SignedGraph._canonical(size, sorted(
        (a, b, s) for (a, b), s in signs.items() if a < b)) for _, size, signs in digit)
    scoords = list(product(*(range(f.n) for f in factors)))  # indexed by s-rank
    cs = CoordinateSystem(factors, tuple(scoords[r] for r in srank))
    return SDecomposition(factors, cs, switch_set=x, factor_of_edge=edge_class)


def is_s_prime(g: SignedGraph) -> bool:
    """True iff the connected signed graph ``g`` (with >= 1 edge) is s-prime:
    negative squares join all its ordinary colors into one.  A connected
    graph of prime order is, as factor orders multiply to n."""
    if _is_prime(g.n) and is_connected(g):
        return True
    return set(_joined_colors(g, *_product_coloring(g)[:3])) == {0}


def _joined_colors(g: SignedGraph, color, sizes, rank) -> list[int]:
    """Least color of each ordinary color's class under the joins.

    Colors i != j join when a square spanned by an i-edge and a j-edge is
    negative.  Each square is read at its corner x of least rank, from
    the edges xy and xz to higher ranks; its fourth corner is y + z - x.
    """
    k = len(sizes)
    root = list(range(k))
    if k == 1:
        return root
    above = [[] for _ in range(g.n)]  # per rank: (higher rank, color, sign)
    sign = [{} for _ in range(g.n)]  # per rank: higher rank -> sign
    for (u, v, s), c in zip(g.edges, color):
        x, y = rank[u], rank[v]
        if x > y:
            x, y = y, x
        above[x].append((y, c, s))
        sign[x][y] = s
    joins_left = k - 1
    for x, edges in enumerate(above):
        for a, (y, i, s_xy) in enumerate(edges):
            at_y = sign[y]
            for z, j, s_xz in edges[a + 1:]:
                if root[i] != root[j] and s_xy * s_xz * at_y[y + z - x] * sign[z][y + z - x] < 0:
                    # at most log2(n) colors: relabel the whole list, so
                    # the test per square stays two list reads
                    lo, hi = sorted((root[i], root[j]))
                    root = [lo if r == hi else r for r in root]
                    joins_left -= 1
                    if not joins_left:
                        return root
    return root
