"""Signed-graph value type and basic accessors.

A signed graph is a simple loopless undirected graph with a +1/-1 sign on
every edge.  Vertices are dense integers 0..n-1.  Instances are immutable
after construction; every operation in the library is a pure function over
them.  The module also holds ``bfs_from``, the one traversal behind BFS
order, components and the search orders, and the union-find that
factorization and the target orbits share.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Sequence

from .errors import (
    BadParameterError,
    BadSignError,
    DuplicateEdgeError,
    LoopEdgeError,
    NotAWalkError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int, int]  # (u, v, sign) with u < v in canonical form


class SignedGraph:
    """Immutable simple loopless graph with signed edges.

    The edge list is kept in canonical order (u < v, lexicographic) so that
    serialized output is reproducible.  The adjacency lists (neighbors
    ascending), the sign map behind ``has_edge``/``sign`` and the hash are
    built on first read: a graph only passed on by its edges builds none.
    """

    # the lazy slots stay empty until adjacency/has_edge/sign/__hash__ fill them
    __slots__ = ("n", "edges", "_adjacency", "_sign", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if type(n) is not int or n < 0:
            raise BadParameterError(f"vertex count {n!r} is not a non-negative int")
        canon = []
        seen = set()
        for u, v, s in edges:
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u!r},{v!r}) needs int ids in 0..{n - 1}")
            if type(s) is not int or s not in (1, -1):
                raise BadSignError(f"sign {s!r} on edge ({u},{v})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DuplicateEdgeError(f"edge ({u},{v}) given twice")
            seen.add((u, v))
            canon.append((u, v, s))
        canon.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))

    @classmethod
    def _canonical(cls, n: int, edges: Sequence[Edge]) -> "SignedGraph":
        """Graph on edges already canonical, unvalidated, with no adjacency yet.

        ``edges`` must be what ``__init__`` would have made of them: every
        (u, v, s) has ints 0 <= u < v < n and s the int 1 or -1, no pair
        twice, the whole sorted.  Only functions that derive the edges
        from graphs that already hold these invariants may call it:
        ``switching.switch`` (new signs, same pairs),
        ``product.product_many`` (distinct copies of factor edges, sorted)
        and ``s_factor.s_decompose`` (a base layer's edges, renumbered one
        to one, sorted).
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", tuple(edges))
        return g

    def __reduce__(self):
        # rebuilt through __init__, so a loaded graph is validated again and
        # the lazy slots are never stored
        return SignedGraph, (self.n, self.edges)

    def __setattr__(self, name, value):
        raise AttributeError("SignedGraph is immutable")

    # -- accessors -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    # The lazy slots are read in try blocks, not through __getattr__: a
    # class with __getattr__ makes every attribute read of its instances,
    # n and edges included, take CPython's slow path.  Reading adjacency
    # is a property call, so loops over vertices read it once.

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: its (neighbor, sign) pairs, neighbors ascending."""
        try:
            return self._adjacency
        except AttributeError:
            pass
        # sorted edges reach each vertex's lower neighbors first, then its
        # higher ones, both ascending: the lists come out sorted
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, s))
        object.__setattr__(self, "_adjacency", tuple(map(tuple, adj)))
        return self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        try:
            return (u, v) in self._sign
        except AttributeError:
            return (u, v) in self._fill_sign()

    def sign(self, u: int, v: int) -> int:
        try:
            sign = self._sign
        except AttributeError:
            sign = self._fill_sign()
        try:
            return sign[(u, v)]
        except KeyError:
            raise NotAWalkError(f"({u},{v}) is not an edge") from None

    def _fill_sign(self) -> dict[tuple[int, int], int]:
        sign = {}
        for u, v, s in self.edges:
            sign[(u, v)] = s
            sign[(v, u)] = s
        object.__setattr__(self, "_sign", sign)
        return sign

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(v for v, _ in self.adjacency[u])

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def negative_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, s in self.edges if s == -1)

    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v, _ in self.edges)

    def with_signs(self, sign_of: dict[tuple[int, int], int]) -> "SignedGraph":
        """Same underlying graph with signs replaced by ``sign_of[(u, v)]``."""
        try:
            edges = [(u, v, sign_of[(u, v)]) for u, v, _ in self.edges]
        except KeyError as exc:
            raise BadParameterError(f"no sign for edge {exc.args[0]}") from None
        return SignedGraph(self.n, edges)

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.edges))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, m={self.m}, neg={len(self.negative_edges())})"


def build(n: int, edges: Iterable[tuple[int, int, int]]) -> SignedGraph:
    """Validate and construct a signed graph (see SignedGraph for invariants)."""
    return SignedGraph(n, edges)


def walk_sign(g: SignedGraph, walk: Sequence[int]) -> int:
    """Product of edge signs along a walk, edges counted with multiplicity."""
    if len(walk) < 2:
        raise NotAWalkError("a walk needs at least one edge")
    s = 1
    for u, v in zip(walk, walk[1:]):
        s *= g.sign(u, v)
    return s


def bfs_from(g: SignedGraph, sources: Iterable[int], dist: list[int]) -> list[int]:
    """The vertices newly reached from ``sources``: the unreached sources
    first, as given, then a FIFO BFS with neighbors ascending.  Each gets
    its distance from the nearest source in ``dist`` (-1 marks the
    unreached), so calls that share ``dist`` extend each other."""
    adjacency = g.adjacency
    order = []
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            order.append(s)
    for u in order:  # the list grows as the queue
        d = dist[u] + 1
        for v, _ in adjacency[u]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return order


def connected_components(g: SignedGraph) -> list[list[int]]:
    """Vertex partition into connected components, BFS order inside each."""
    dist = [-1] * g.n
    return [bfs_from(g, [root], dist) for root in range(g.n) if dist[root] < 0]


def is_connected(g: SignedGraph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bfs_order(g: SignedGraph, root: int = 0) -> tuple[list[int], list[int]]:
    """BFS order and distances from ``root``, neighbors explored ascending.

    Unreachable vertices get distance -1 and do not appear in the order.
    """
    dist = [-1] * g.n
    return bfs_from(g, [root], dist), dist


class DisjointSet:
    """Union-find with path compression; each class is rooted at its least
    member (used for edge-color merging and for vertex orbits)."""

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

    def join(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Union each pair (x, y) in turn, with no find where parents
        decide it.  A root x whose partner's parent is less than x is hung
        under that parent: x is the least of its class, so the merged
        class stays rooted at its least member, y's root.  A pair whose
        parents are one member is in one class already."""
        parent, union = self.parent, self.union
        for x, y in pairs:
            p = parent[y]
            if p < x and parent[x] == x:
                parent[x] = p
            elif parent[x] != p:
                union(x, y)

    def labels(self) -> list[int]:
        """Each member's class number, classes numbered by least member.

        One pass in member order: a parent is never greater than its
        child, so its label is known first."""
        fresh = count()
        label = []
        for x, p in enumerate(self.parent):
            label.append(next(fresh) if p == x else label[p])
        return label
