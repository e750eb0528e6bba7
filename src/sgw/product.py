"""Cartesian products of signed graphs and coordinate bookkeeping.

The product vertex set is the cartesian product of the factor vertex sets;
an edge changes exactly one coordinate along an edge of the corresponding
factor and inherits its sign.  Product vertex ids are row-major in factor
order (for two factors: id = idx_a * n_b + idx_b), so coordinate systems
serialize portably.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import SignedGraph
from .errors import EmptyListError, IndexOutOfRangeError


@dataclass(frozen=True)
class CoordinateSystem:
    """Bijection between product vertices and factor-coordinate tuples."""

    factors: tuple[SignedGraph, ...]
    coords: tuple[tuple[int, ...], ...]  # per product vertex

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Product vertex of each coordinate tuple, built on first use."""
        return {c: v for v, c in enumerate(self.coords)}

    def vertex(self, coord: Sequence[int]) -> int:
        return self.index[tuple(coord)]

    def __reduce__(self):
        # the fields alone: a read ``index`` sits in the instance dict,
        # and a loaded copy rebuilds it on first read
        return CoordinateSystem, (self.factors, self.coords)


def cartesian_product(a: SignedGraph, b: SignedGraph) -> tuple[SignedGraph, CoordinateSystem]:
    """Signed Cartesian product with row-major vertex numbering."""
    return product_many([a, b])


def product_many(gs: Sequence[SignedGraph]) -> tuple[SignedGraph, CoordinateSystem]:
    """Signed Cartesian product of all factors at once, row-major ids.

    With ``stride`` the product of the sizes after factor i, the copies
    of factor i's edges are u * stride + base for every base whose
    coordinate i is 0.
    """
    if not gs:
        raise EmptyListError("need at least one factor")
    n = math.prod(f.n for f in gs)
    edges = []
    stride = n
    for f in gs if n else ():  # an empty factor leaves no vertex
        block, stride = stride, stride // f.n
        bases = [hi + lo for hi in range(0, n, block) for lo in range(stride)]
        for u, v, s in f.edges:
            us, vs = u * stride, v * stride
            edges.extend((base + us, base + vs, s) for base in bases)
    # each copy keeps u < v, and no two copies share a pair: sorted, the
    # edges are canonical
    edges.sort()
    coords = tuple(itertools.product(*(range(f.n) for f in gs)))
    return SignedGraph._canonical(n, edges), CoordinateSystem(tuple(gs), coords)


def layer(cs: CoordinateSystem, i: int, anchor: int):
    """Vertices and induced edges of the factor-``i`` layer through ``anchor``.

    The layer fixes every coordinate except ``i``; its induced edges are the
    copies of factor-``i`` edges at that anchor.
    """
    if not (0 <= i < len(cs.factors)):
        raise IndexOutOfRangeError(f"factor index {i}")
    if not (0 <= anchor < len(cs.coords)):
        raise IndexOutOfRangeError(f"anchor {anchor}")
    base = list(cs.coords[anchor])
    verts = []
    for a in range(cs.factors[i].n):
        base[i] = a
        verts.append(cs.vertex(base))
    edges = []
    for u, v, _ in cs.factors[i].edges:
        base[i] = u
        pu = cs.vertex(base)
        base[i] = v
        pv = cs.vertex(base)
        edges.append((min(pu, pv), max(pu, pv)))
    return verts, edges


def project_vertex(cs: CoordinateSystem, u: int, i: int, anchor: int) -> int:
    """Vertex matching ``anchor`` on all coordinates except ``i`` and ``u`` on ``i``."""
    if not (0 <= i < len(cs.factors)):
        raise IndexOutOfRangeError(f"factor index {i}")
    c = list(cs.coords[anchor])
    c[i] = cs.coords[u][i]
    return cs.vertex(c)
