"""Independent oracles, random generators and the digest that pins exact
outputs, shared by the test suite.

Each oracle answers its question by a naive method of its own, such as
exhaustive search, one BFS per vertex or a closure over all pairs, and
not by the library's algorithm for it, so that agreement is meaningful
evidence of correctness.  Some rest on library primitives that other
tests check on their own: ``SignedGraph``, ``is_connected``,
``equivalent`` and ``canonical_form``, and in ``lemma_is_s_prime`` the
ordinary ``factorize``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from itertools import combinations

from sgw.core import SignedGraph, is_connected
from sgw.errors import (
    DisconnectedError,
    NoEdgesError,
    OrderTooLargeError,
    TooLargeError,
)
from sgw.factor_ordinary import OrdinaryDecomposition
from sgw.factor_ordinary import factorize as _factorize
from sgw.homomorphism import ISOMORPHISM_ORDER_CAP, TARGET_ORDER_CAP
from sgw.switching import canonical_form, equivalent


def pair_keyed(g: SignedGraph, colors) -> dict:
    """Per-edge values in g.edges order, such as ``edge_color`` or
    ``factor_of_edge``, keyed by vertex pairs as the references here
    read and return them."""
    return dict(zip(g.underlying_edges(), colors))


def factorize(g: SignedGraph) -> OrdinaryDecomposition:
    """The library's factorization with a pair-keyed ``edge_color``, the
    form that ``lemma_is_s_prime`` reads."""
    od = _factorize(g)
    return dataclasses.replace(od, edge_color=pair_keyed(g, od.edge_color))


def digest(obj) -> str:
    """sha256 of ``obj`` in one canonical form, for pinning a library
    output exactly: a graph as (n, edges), a set sorted, any other list or
    tuple in its order, each as a tuple; None and ints as they are."""
    return hashlib.sha256(repr(_canonical(obj)).encode()).hexdigest()


def _canonical(obj):
    if isinstance(obj, SignedGraph):
        return obj.n, _canonical(obj.edges)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(map(_canonical, obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(map(_canonical, obj))
    if obj is None or isinstance(obj, int):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


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


def wagner() -> SignedGraph:
    """The Mobius ladder M8 (the Wagner graph): an 8-cycle and its four
    long diagonals."""
    return SignedGraph(8, [(i, i + 1, 1) for i in range(7)] + [(0, 7, 1)]
                       + [(i, i + 4, 1) for i in range(4)])


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


def product_relation_classes(g: SignedGraph):
    """Edge classes of the product relation of a connected graph, as the
    closure of theta and tau over all pairs of edges (Feder 1992).

    Edges xy and uv are theta-related when d(x, u) + d(y, v) differs from
    d(x, v) + d(y, u); edges ab and ac are tau-related when no chordless
    square a b w c contains them."""
    nbrs = {u: sorted(v for v, _ in g.adjacency[u]) for u in range(g.n)}
    dist = [_bfs_distances(nbrs, u) for u in range(g.n)]
    edges = g.underlying_edges()
    related = []
    for i, (x, y) in enumerate(edges):
        for j, (u, v) in enumerate(edges[:i]):
            if dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]:
                related.append((i, j))
            elif len({x, y} ^ {u, v}) == 2:
                (a,) = {x, y} & {u, v}
                b, c = {x, y} ^ {u, v}
                if c in nbrs[b] or not any(
                        w != a and w not in nbrs[a] and c in nbrs[w] for w in nbrs[b]):
                    related.append((i, j))
    classes = {}
    for e, comp in zip(edges, _components(len(edges), related)):
        classes.setdefault(comp, set()).add(e)
    return {frozenset(cls) for cls in classes.values()}


def _components(n, pairs):
    """Component id of every vertex of the graph ``(range(n), pairs)``."""
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * n
    for root in range(n):
        if comp[root] < 0:
            comp[root] = root
            stack = [root]
            while stack:
                u = stack.pop()
                for v in nbrs[u]:
                    if comp[v] < 0:
                        comp[v] = root
                        stack.append(v)
    return comp


def splits_as_product(n, pairs, in_a):
    """Whether the edge 2-coloring ``in_a`` of ``(range(n), pairs)`` is the
    factor coloring of a Cartesian product.

    The candidate factors are the a- and b-colored layers through vertex
    0.  A vertex's a-coordinate is where its b-layer meets the base
    a-layer, and its b-coordinate where its a-layer meets the base
    b-layer; the split passes only if these coordinates are a bijection
    onto the two base layers' product that maps the product's edge set
    exactly onto ``pairs``.
    """
    a_pairs = [e for e, a in zip(pairs, in_a) if a]
    b_pairs = [e for e, a in zip(pairs, in_a) if not a]
    # early exit: in a product of two layers with edges, every vertex
    # has edges of both classes
    for cls in (a_pairs, b_pairs):
        if len({v for e in cls for v in e}) < n:
            return False
    comp_a, comp_b = _components(n, a_pairs), _components(n, b_pairs)
    base_a = [v for v in range(n) if comp_a[v] == comp_a[0]]
    base_b = [v for v in range(n) if comp_b[v] == comp_b[0]]
    if len(base_a) * len(base_b) != n:
        return False
    coords = []
    for v in range(n):
        xa = [w for w in base_a if comp_b[w] == comp_b[v]]
        xb = [w for w in base_b if comp_a[w] == comp_a[v]]
        if len(xa) != 1 or len(xb) != 1:
            return False
        coords.append((xa[0], xb[0]))
    vertex = {c: v for v, c in enumerate(coords)}
    if len(vertex) != n:
        return False
    in_base_a, in_base_b = set(base_a), set(base_b)
    product = set()
    for x, y in a_pairs:
        if x in in_base_a and y in in_base_a:
            product |= {frozenset((vertex[x, b], vertex[y, b])) for b in base_b}
    for x, y in b_pairs:
        if x in in_base_b and y in in_base_b:
            product |= {frozenset((vertex[a, x], vertex[a, y])) for a in base_a}
    return product == {frozenset(e) for e in pairs}


def brute_force_is_prime(g: SignedGraph) -> bool:
    """Primality of the underlying graph: no split of its edges into two
    non-empty classes is a product coloring.  Exhaustive, so m <= 12."""
    pairs = g.underlying_edges()
    m = len(pairs)
    if m > 12:
        raise ValueError("exhaustive primality check capped at 12 edges")
    # the last edge always lies in the b class, so each split is met once
    return not any(
        splits_as_product(g.n, pairs, [mask >> i & 1 for i in range(m)])
        for mask in range(1, 1 << (m - 1))
    )


def scan_search(g, order, allowed, full, root_domain):
    """The chronological reference for ``homomorphism._search``: the same
    variable and value order, choosing each variable by rescanning all n
    positions, and backtracking one depth at a time where ``_search``
    jumps back over the depths that played no part in a failure, and
    without the arc consistency ``_search`` maintains after its first
    turn.  Both decide the same, ``_search`` in no more turns.  That
    propagation changes domain sizes and so the variable order, and
    ``_search`` may return another valid map than this search's first
    one: it does on one pair of the search oracle tests.

    Backtracking with forward checking over literal bitmask domains.

    Variables are chosen dynamically, smallest domain first (the root is
    forced first); forward checking prunes every unassigned neighbor on
    each assignment, so domains always reflect all assigned neighbors.
    The search is iterative: ``stack`` holds one [variable, untried
    literals, undo list of the literal being tried] frame per assigned
    variable plus the one being tried.  A generator: it yields None after
    every turn of g.n + 1 nodes and returns the {vertex: literal} map, or
    None.
    """
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    nbrs = [[(pos[w], s) for w, s in g.adjacency[v] if w in pos] for v in order]
    domains = [full] * n
    domains[0] = root_domain
    lits = [-1] * n
    width = full.bit_length()
    turn = g.n + 1
    stack = [[0, root_domain, ()]]
    left = turn - 1  # the root node
    while stack:
        frame = stack[-1]
        i, rest, undo = frame
        lits[i] = -1
        for j, old in undo:
            domains[j] = old
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        lit = low.bit_length() - 1
        undo = []
        frame[1] = rest ^ low
        frame[2] = undo
        for j, s in nbrs[i]:
            if lits[j] >= 0:
                continue
            old = domains[j]
            new = old & allowed[s][lit]
            if new != old:
                undo.append((j, old))
                domains[j] = new
                if not new:
                    break
        else:  # no domain wiped out
            lits[i] = lit
            if len(stack) == n:
                return {order[i]: lits[i] for i in range(n)}
            left -= 1
            if not left:
                yield None
                left = turn
            # smallest domain among the unassigned variables
            best, best_size = -1, width + 1
            for j in range(n):
                if lits[j] < 0:
                    size = domains[j].bit_count()
                    if size < best_size:
                        best, best_size = j, size
                        if size <= 1:
                            break
            stack.append([best, domains[best], ()])
    return None


def permutation_targets(k: int) -> tuple[SignedGraph, ...]:
    """Reference for ``homomorphism.enumerate_targets``: canonicalize a
    new graph for every permutation of every star-normalized signing.

    All signed K_k up to switching isomorphism, one canonical member each.

    Every switching class of a signed complete graph has a unique
    representative with all vertex-0 edges positive (switch exactly the
    other endpoints of the negative ones), so the classes are enumerated
    by signing the edges inside 1..k-1 and deduplicated under vertex
    permutations followed by re-canonicalization.
    """
    if not 1 <= k <= TARGET_ORDER_CAP:
        raise OrderTooLargeError(f"target order {k} outside 1..{TARGET_ORDER_CAP}")
    star = [(0, v, 1) for v in range(1, k)]
    inner = [(u, v) for u in range(1, k) for v in range(u + 1, k)]
    reps = {}
    for bits in range(1 << len(inner)):
        edges = star + [
            (u, v, -1 if bits >> i & 1 else 1) for i, (u, v) in enumerate(inner)
        ]
        g = SignedGraph(k, edges)
        key = min(
            canonical_form(
                SignedGraph(k, [(perm[u], perm[v], s) for u, v, s in g.edges])
            )[0].edges
            for perm in itertools.permutations(range(k))
        )
        reps.setdefault(key, SignedGraph(k, key))
    return tuple(reps[key] for key in sorted(reps))


def permutation_orbits(h: SignedGraph) -> list[int]:
    """Reference for the root domain of ``homomorphism._LiteralOrbits``: a
    new graph and an ``equivalent`` call for every edge-preserving
    permutation.

    One target vertex per orbit of the switching-automorphism group.
    """
    orbit = list(range(h.n))
    for perm in itertools.permutations(range(h.n)):
        # a bijection sending every edge to an edge is an automorphism
        if any(not h.has_edge(perm[u], perm[v]) for u, v, _ in h.edges):
            continue
        permuted = SignedGraph(h.n, [(perm[u], perm[v], s) for u, v, s in h.edges])
        if equivalent(permuted, h) is None:
            continue
        for u in range(h.n):
            ru, rp = orbit[u], orbit[perm[u]]
            if ru != rp:
                lo, hi = min(ru, rp), max(ru, rp)
                orbit = [lo if o == hi else o for o in orbit]
    return sorted({orbit[u] for u in range(h.n)})


def switching_automorphisms(h: SignedGraph) -> list[tuple[tuple[int, ...], int]]:
    """Every (permutation, switch set as a bitmask) pair that maps h onto
    itself, found by trying all h.n! * 2^h.n of them."""
    found = []
    for perm in itertools.permutations(range(h.n)):
        if any(not h.has_edge(perm[u], perm[v]) for u, v, _ in h.edges):
            continue
        for flips in range(1 << h.n):
            if all(h.sign(perm[u], perm[v]) == (-s if (flips >> u ^ flips >> v) & 1 else s)
                   for u, v, s in h.edges):
                found.append((perm, flips))
    return found


def stabilizer_reps(h: SignedGraph, automorphisms, fixed: int) -> int:
    """Reference for ``homomorphism._LiteralOrbits.reps``: the least
    literal 2 t + b of each orbit of the automorphisms that fix every
    vertex of the bitmask ``fixed`` and switch none of them."""
    orbit = list(range(2 * h.n))
    for perm, flips in automorphisms:
        if any(fixed >> a & 1 and (perm[a] != a or flips >> a & 1) for a in range(h.n)):
            continue
        for lit in range(2 * h.n):
            t, b = lit >> 1, lit & 1
            ru, rp = orbit[lit], orbit[2 * perm[t] + (b ^ (flips >> t & 1))]
            if ru != rp:
                lo, hi = min(ru, rp), max(ru, rp)
                orbit = [lo if o == hi else o for o in orbit]
    return sum(1 << lit for lit in range(2 * h.n) if orbit[lit] == lit)


def pairwise_edge_masks(h: SignedGraph) -> dict[int, list[int]]:
    """Reference for ``homomorphism._edge_masks``: one ``has_edge`` call
    per ordered pair of target vertices.

    allowed[sigma][lit]: bitmask of neighbor literals compatible with an
    edge of source sign sigma when this endpoint carries literal lit.
    """
    nl = 2 * h.n
    allowed = {1: [0] * nl, -1: [0] * nl}
    for tu in range(h.n):
        for bu in (0, 1):
            lit = 2 * tu + bu
            for tv in range(h.n):
                if tv == tu or not h.has_edge(tu, tv):
                    continue
                pi = h.sign(tu, tv)
                for bv in (0, 1):
                    eff = -1 if (bu ^ bv) else 1
                    allowed[pi * eff][lit] |= 1 << (2 * tv + bv)
    return allowed


def backtrack_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Reference for ``homomorphism.signed_isomorphic``: a degree-pruned
    backtracking over bijections that builds the permuted graph at every
    complete bijection and asks ``equivalent``.

    True iff some vertex bijection plus a switching takes g1 to g2.
    """
    if g1.n > ISOMORPHISM_ORDER_CAP or g2.n > ISOMORPHISM_ORDER_CAP:
        raise TooLargeError(f"isomorphism capped at {ISOMORPHISM_ORDER_CAP} vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(map(g1.degree, range(g1.n))) != sorted(map(g2.degree, range(g2.n))):
        return False
    order = sorted(range(g1.n), key=g1.degree, reverse=True)
    image = [-1] * g1.n
    used = [False] * g2.n

    def extend(i: int) -> bool:
        if i == g1.n:
            permuted = SignedGraph(
                g1.n, [(image[u], image[v], s) for u, v, s in g1.edges]
            )
            if permuted.underlying_edges() != g2.underlying_edges():
                return False
            return equivalent(permuted, g2) is not None
        v = order[i]
        for t in range(g2.n):
            if used[t] or g1.degree(v) != g2.degree(t):
                continue
            if any(
                image[w] >= 0 and g2.has_edge(t, image[w]) != g1.has_edge(v, w)
                for w in range(g1.n)
            ):
                continue
            image[v] = t
            used[t] = True
            if extend(i + 1):
                return True
            image[v] = -1
            used[t] = False
        return False

    return extend(0)


def lemma_is_s_prime(g: SignedGraph) -> bool:
    """Reference for ``s_factor.is_s_prime``: decide s-primality via the
    layer-equivalence / balanced-square test.

    The graph is not s-prime iff some grouping of its ordinary prime
    factors into an A-side and a B-side has (1) all A-layers pairwise
    switching-equivalent and (2) every 4-cycle spanned by two copies of an
    A-edge balanced.  With k ordinary factors there are 2^(k-1) - 1
    nontrivial groupings to try.
    """
    if g.m == 0:
        raise NoEdgesError("s-primality needs at least one edge")
    if not is_connected(g):
        raise DisconnectedError("s-primality needs a connected graph")

    od = factorize(g)
    k = len(od.factors)
    if k == 1:
        return True
    ocoords = od.coords.coords
    oindex = od.coords.index
    osizes = [f.n for f in od.factors]

    # fix factor 0 on the A-side to halve the groupings
    for mask in range(0, (1 << (k - 1)) - 1):
        a_side = [0] + [j for j in range(1, k) if mask >> (j - 1) & 1]
        if _lemma_conditions(g, ocoords, oindex, osizes, od, a_side):
            return False
    return True


def _lemma_conditions(g, ocoords, oindex, osizes, od, a_side) -> bool:
    k = len(osizes)
    b_side = [j for j in range(k) if j not in a_side]

    def a_index(u):
        idx = 0
        for j in a_side:
            idx = idx * osizes[j] + ocoords[u][j]
        return idx

    a_size = 1
    for j in a_side:
        a_size *= osizes[j]

    # group vertices into A-layers keyed by their B-side coordinates
    layers = {}
    for u in range(g.n):
        key = tuple(ocoords[u][j] for j in b_side)
        layers.setdefault(key, [None] * a_size)[a_index(u)] = u

    base_key = tuple(0 for _ in b_side)
    base = _layer_graph(g, layers[base_key], od, a_side)
    for key, verts in layers.items():
        if key == base_key:
            continue
        if equivalent(base, _layer_graph(g, verts, od, a_side)) is None:
            return False

    # every square spanned by two copies of an A-edge must be balanced
    a_set = set(a_side)
    for u, v, s_uv in g.edges:
        if od.edge_color[(u, v)] not in a_set:
            continue
        for u2, s_u2 in g.adjacency[u]:
            if od.edge_color[(min(u, u2), max(u, u2))] in a_set:
                continue
            cv2 = list(ocoords[u2])
            for j in a_side:
                cv2[j] = ocoords[v][j]
            v2 = oindex[tuple(cv2)]
            if s_uv * s_u2 * g.sign(u2, v2) * g.sign(v, v2) != 1:
                return False
    return True


def _layer_graph(g, verts, od, a_side) -> SignedGraph:
    a_set = set(a_side)
    pos = {u: i for i, u in enumerate(verts)}
    edges = []
    for u in verts:
        for w, s in g.adjacency[u]:
            if w in pos and u < w and od.edge_color[(u, w)] in a_set:
                edges.append((pos[u], pos[w], s))
    return SignedGraph(len(verts), edges)
