"""Independent oracles and random generators shared by the test suite.

Everything here is deliberately naive and separate from the library's
algorithms so that agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

import random
from itertools import combinations

from sgw.core import SignedGraph


def random_signature(rng: random.Random, edges):
    return [(u, v, rng.choice((1, -1))) for (u, v) in edges]


def random_connected_signed_graph(
    rng: random.Random, n_min: int, n_max: int
) -> SignedGraph:
    """Random spanning tree plus a random subset of extra edges."""
    n = rng.randint(n_min, n_max)
    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    extra = [
        (u, v) for u, v in combinations(range(n), 2) if (u, v) not in pairs
    ]
    for uv in extra:
        if rng.random() < 0.4:
            pairs.add(uv)
    return SignedGraph(n, random_signature(rng, sorted(pairs)))


def switched_signs(g: SignedGraph, mask: int):
    """Edge signs of g after switching the vertex set encoded by mask."""
    out = {}
    for u, v, s in g.edges:
        if (mask >> u & 1) != (mask >> v & 1):
            s = -s
        out[(u, v)] = s
    return out


def _partitions_into(n: int, k: int):
    """Restricted-growth strings over n items using exactly k blocks."""
    rgs = [0] * n

    def extend(i: int, used: int):
        if i == n:
            if used == k:
                yield tuple(rgs)
            return
        # cannot reach k blocks if too few items remain
        if used + (n - i) < k:
            return
        for c in range(min(used + 1, k)):
            rgs[i] = c
            yield from extend(i + 1, max(used, c + 1))

    yield from extend(0, 0)


def naive_chromatic_number(g: SignedGraph) -> int:
    """Minimum color count over all partitions x all switchings.

    A partition is a valid signed coloring under a switching when it is
    proper and every color pair sees a single edge sign.
    """
    if g.n == 0:
        raise ValueError("need at least one vertex")
    # vertex 0 never switches; the tables cover every class member once
    tables = [switched_signs(g, m << 1) for m in range(1 << (g.n - 1))]
    for k in range(1, g.n + 1):
        for blocks in _partitions_into(g.n, k):
            if any(blocks[u] == blocks[v] for u, v, _ in g.edges):
                continue
            for signs in tables:
                pair_sign = {}
                for u, v, _ in g.edges:
                    key = (min(blocks[u], blocks[v]), max(blocks[u], blocks[v]))
                    s = signs[(u, v)]
                    if pair_sign.setdefault(key, s) != s:
                        break
                else:
                    return k
    raise AssertionError("unreachable: identity partition always works")


def delete_vertices(g: SignedGraph, drop) -> SignedGraph:
    """Induced subgraph on the vertices outside ``drop``."""
    keep = [v for v in range(g.n) if v not in set(drop)]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[u], pos[v], s) for u, v, s in g.edges if u in pos and v in pos
    ]
    return SignedGraph(len(keep), edges)


def reconstruct_product(factors, coords) -> SignedGraph:
    """Graph defined by a coordinate system: edges move one coordinate
    along an edge of that factor and take its sign."""
    n = len(coords)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            diff = [i for i in range(len(factors)) if coords[u][i] != coords[v][i]]
            if len(diff) != 1:
                continue
            i = diff[0]
            a, b = coords[u][i], coords[v][i]
            if factors[i].has_edge(a, b):
                edges.append((u, v, factors[i].sign(a, b)))
    return SignedGraph(n, edges)


def _bfs_distances(nbrs, root):
    """Distance from ``root`` to every vertex it reaches; keys in BFS order."""
    dist = {root: 0}
    queue = [root]
    for u in queue:
        for v in nbrs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def nearest_layer_positions(g: SignedGraph, layer):
    """Position in ``layer`` of each vertex's nearest layer vertex, from one
    BFS per layer vertex; None when some vertex has two nearest ones."""
    nbrs = {u: sorted(v for v, _ in g.adjacency[u]) for u in range(g.n)}
    dists = [_bfs_distances(nbrs, w) for w in layer]
    out = []
    for u in range(g.n):
        row = [d[u] for d in dists]
        best = min(row)
        if row.count(best) != 1:
            return None
        out.append(row.index(best))
    return out


def nearest_projection_coords(g: SignedGraph, edge_color):
    """Coordinates of a connected graph under an edge coloring.

    The base layer of color c is the c-colored component of vertex 0 in
    BFS order, neighbors ascending; a vertex's c-th coordinate is the
    position of its nearest base-layer vertex.  None on any tie.
    """
    per_color = []
    for c in range(max(edge_color.values()) + 1):
        nbrs = {u: [] for u in range(g.n)}
        for (u, v), col in edge_color.items():
            if col == c:
                nbrs[u].append(v)
                nbrs[v].append(u)
        for lst in nbrs.values():
            lst.sort()
        positions = nearest_layer_positions(g, list(_bfs_distances(nbrs, 0)))
        if positions is None:
            return None
        per_color.append(positions)
    return [tuple(c) for c in zip(*per_color)]
