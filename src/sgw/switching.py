"""Switching, balance, switching equivalence and cycle classification.

Switching a vertex set X flips the sign of every edge with exactly one
endpoint in X.  Two signatures of the same underlying graph are equivalent
when one arises from the other by switching; equivalence is decided in
O(n+m) by propagating switch flags over a spanning forest, the one pass
that balance and the canonical form read too.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from .core import SignedGraph, is_connected
from .errors import DifferentUnderlyingGraphError, NotACycleError


class CycleClass(enum.Enum):
    BC_EVEN = "BC_even"
    BC_ODD = "BC_odd"
    UC_EVEN = "UC_even"
    UC_ODD = "UC_odd"


def switch(g: SignedGraph, x: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in ``x``."""
    xs = frozenset(x)
    # new signs on the same sorted pairs: the edges stay canonical
    return SignedGraph._canonical(
        g.n,
        [
            (u, v, -s if (u in xs) != (v in xs) else s)
            for u, v, s in g.edges
        ],
    )


def _switch_flags(g: SignedGraph, adjacency=None):
    """Switch flags pushed over a BFS spanning forest of ``g``.

    Each component is rooted at its least vertex, unflagged; neighbors
    are visited ascending, and a tree edge uv flags v when exactly one of
    "u is flagged" and "uv is negative" holds, so switching the flagged
    set X makes every tree edge positive.  ``adjacency`` stands in for
    ``g.adjacency``: the same neighbors under other signs.  Returns X,
    the BFS parents (-1 at a root) and the first non-tree edge (u, v)
    that X leaves negative, None when the signing is balanced.
    """
    adjacency = g.adjacency if adjacency is None else adjacency
    flag = [None] * g.n
    parent = [-1] * g.n
    bad = None
    for root in range(g.n):
        if flag[root] is not None:
            continue
        flag[root] = False
        queue = [root]
        for u in queue:
            fu = flag[u]
            for v, s in adjacency[u]:
                fv = flag[v]
                if fv is None:
                    flag[v] = fu != (s < 0)
                    parent[v] = u
                    queue.append(v)
                elif bad is None and (fu != fv) != (s < 0):
                    bad = (u, v)
    return frozenset(v for v in range(g.n) if flag[v]), parent, bad


def is_balanced(g: SignedGraph):
    """Decide balance by BFS potential assignment per component.

    Returns ``(True, X)`` with ``switch(g, X)`` all-positive, or
    ``(False, cycle)`` where ``cycle`` is a closed walk of sign -1.
    """
    x, parent, bad = _switch_flags(g)
    if bad is None:
        return True, x
    # close a walk through the BFS tree: X makes its tree edges positive
    # and leaves uv negative, so its sign is -1
    u, v = bad
    return False, _tree_walk(parent, u) + _tree_walk(parent, v)[::-1][1:] + [u]


def _tree_walk(parent: list[int], u: int) -> list[int]:
    """Path u, parent(u), ..., root in the BFS forest."""
    path = [u]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def equivalent(g1: SignedGraph, g2: SignedGraph) -> Optional[frozenset]:
    """Switch set taking g1 to g2 edge-for-edge, or None.

    Those are the switch sets that balance the signing s1 * s2, which is
    negative where the two signs differ.
    """
    if g1.n != g2.n or g1.underlying_edges() != g2.underlying_edges():
        raise DifferentUnderlyingGraphError("inputs must share an underlying graph")
    # equal underlying graphs list the same neighbors in the same order
    product = [
        [(v, s * t) for (v, s), (_, t) in zip(a1, a2)]
        for a1, a2 in zip(g1.adjacency, g2.adjacency)
    ]
    x, _, bad = _switch_flags(g1, product)
    return x if bad is None else None


def canonical_form(g: SignedGraph) -> tuple[SignedGraph, frozenset]:
    """Deterministic representative of the switching class of ``g``.

    Per component: BFS from the smallest vertex id, neighbors ascending,
    switch so every BFS-tree edge becomes positive.  The result depends
    only on the switching class; the returned set realizes it.
    """
    x = _switch_flags(g)[0]
    return switch(g, x), x


def classify_cycle(g: SignedGraph) -> CycleClass:
    """Class of a single signed cycle by (length parity, negative parity)."""
    if g.n < 3 or g.m != g.n or any(len(row) != 2 for row in g.adjacency):
        raise NotACycleError("input is not a single cycle")
    if not is_connected(g):
        raise NotACycleError("input is not connected")
    neg = len(g.negative_edges())
    if neg % 2 == 0:
        return CycleClass.BC_EVEN if g.n % 2 == 0 else CycleClass.BC_ODD
    return CycleClass.UC_EVEN if g.n % 2 == 0 else CycleClass.UC_ODD
