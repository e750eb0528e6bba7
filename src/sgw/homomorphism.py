"""Signed homomorphism search and exact signed chromatic numbers.

A signed homomorphism is a vertex map plus a switch set on the source; it
is valid when, after switching, every source edge lands on a target edge
of the same sign.  The chromatic number is the least order of a target
admitting a homomorphism; restricting targets to complete signed graphs
is sound because absent target edges can be signed arbitrarily without
invalidating a homomorphism.

The solver assigns each source vertex a (target vertex, switch bit)
literal with bitmask forward checking, always branching on a vertex with
the smallest domain.  It keeps the unassigned vertices bucketed by
domain size, as one bitmask per size, so choosing the next vertex reads
at most 2 h.n buckets instead of scanning every vertex: a search node
costs O(degree + h.n) bitmask operations, not O(n).  Symmetries used:
the switch bit of the first vertex of each component is pinned to 0,
and the image of that vertex is restricted to one representative per
orbit of the target's switching-automorphism group.  Those orbits come
from the module's one switching-isomorphism search, which walks the
target's edges in BFS order and also answers ``signed_isomorphic``.  An
unbalanced source is refuted against a balanced target without search.

The search is iterative, with an explicit stack, so its depth is not
bounded by Python's recursion limit.  It is also resumable: it pauses
after every turn of g.n + 1 nodes (one backtrack-free descent) and
resumes where it stopped.  ``chromatic_number`` runs the targets of an
order round-robin, one turn each, so a hard-to-refute target cannot
starve an easy satisfiable one and no search is ever restarted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import SignedGraph, bfs_order, connected_components
from .errors import (
    BoundExceededError,
    OrderTooLargeError,
    TooLargeError,
    VertexOutOfRangeError,
)
from .factor_ordinary import DisjointSet
from .switching import is_balanced

TARGET_ORDER_CAP = 7


@dataclass(frozen=True)
class SignedHomomorphism:
    map: tuple[int, ...]  # source vertex -> target vertex
    switch_set: frozenset  # source vertices switched before mapping


@dataclass(frozen=True)
class ChromaticCertificate:
    k: int
    target: SignedGraph
    hom: SignedHomomorphism
    lower_bound_evidence: dict


def validate(g: SignedGraph, h: SignedGraph, phi: SignedHomomorphism) -> bool:
    """Edge-by-edge check of the homomorphism conditions."""
    if len(phi.map) != g.n:
        return False
    if any(not 0 <= t < h.n for t in phi.map):
        return False
    xs = phi.switch_set
    for u, v, s in g.edges:
        tu, tv = phi.map[u], phi.map[v]
        if tu == tv or not h.has_edge(tu, tv):
            return False
        if (u in xs) != (v in xs):
            s = -s
        if h.sign(tu, tv) != s:
            return False
    return True


# -- search -----------------------------------------------------------


def _edge_masks(h: SignedGraph) -> dict[int, list[int]]:
    """allowed[sigma][lit]: bitmask of neighbor literals compatible with an
    edge of source sign sigma when this endpoint carries literal lit."""
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


def _switching_key(neg, perm, edges, tree) -> int:
    """Switching-class key of the signing (a, b) -> neg[perm[a]][perm[b]]
    of a complete graph, for ``enumerate_targets``.

    ``neg`` is a 0/1 matrix (1 for a negative edge) and ``tree`` is the
    star at 0 as (vertex, parent) pairs.  The signing is switched so that
    every star edge is positive, and bit i of the key is set when
    ``edges[i]`` is then negative, so bit (u, v) is s(u, v) s(0, u) s(0, v)
    read as a sign.  Two signings have the same key exactly when they are
    switching equivalent.
    """
    flip = [0] * len(perm)
    for v, p in tree:
        flip[v] = flip[p] ^ neg[perm[p]][perm[v]]
    key = 0
    for i, (u, v) in enumerate(edges):
        if neg[perm[u]][perm[v]] ^ flip[u] ^ flip[v]:
            key |= 1 << i
    return key


def _switching_isomorphisms(g1: SignedGraph, g2: SignedGraph):
    """Every switching isomorphism from g2 onto g1, as the tuple of g1
    vertices indexed by g2 vertex.

    g2's vertices are placed in BFS order, one component after another,
    so every vertex but a component root has an earlier neighbour, its
    BFS parent.  A vertex's image is an unused neighbour of its parent's
    image with the same degree (a root may take any unused vertex of its
    degree), and the tree edge forces its switch flag.  Each other edge
    back to a placed vertex must land on a g1 edge whose sign, after
    switching both ends, is the g2 sign.  With g1.m == g2.m a map sending
    every g2 edge onto a g1 edge is onto, so non-edges need no check.
    The search keeps an explicit stack of candidate lists.
    """
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return
    if not n:
        yield ()
        return
    order = [a for comp in connected_components(g2) for a in comp]
    pos = {a: i for i, a in enumerate(order)}
    # (placed neighbour, 1 if the edge is negative), the BFS parent first
    back = [sorted(((b, int(s < 0)) for b, s in g2.adjacency[a] if pos[b] < pos[a]),
                   key=lambda e: pos[e[0]]) for a in order]
    neg1 = [{t: int(s < 0) for t, s in g1.adjacency[u]} for u in range(n)]
    image = [-1] * n
    flip = [0] * n
    used = [False] * n

    def candidates(i: int) -> list[tuple[int, int]]:
        degree = g2.degree(order[i])
        if not back[i]:
            return [(t, 0) for t in reversed(range(n))
                    if not used[t] and g1.degree(t) == degree]
        (p, sp), rest = back[i][0], back[i][1:]
        out = []
        for t, s in reversed(g1.adjacency[image[p]]):
            if used[t] or g1.degree(t) != degree:
                continue
            f = flip[p] ^ int(s < 0) ^ sp
            row = neg1[t]
            if all(image[b] in row and row[image[b]] ^ flip[b] ^ f == sb
                   for b, sb in rest):
                out.append((t, f))
        return out

    stack = [candidates(0)]
    while stack:
        a = order[len(stack) - 1]
        if image[a] >= 0:
            used[image[a]] = False
            image[a] = -1
        if not stack[-1]:
            stack.pop()
            continue
        image[a], flip[a] = stack[-1].pop()
        used[image[a]] = True
        if len(stack) < n:
            stack.append(candidates(len(stack)))
        else:
            yield tuple(image)


def _switching_automorphism_orbits(h: SignedGraph) -> list[int]:
    """One target vertex per orbit of the switching-automorphism group,
    the least of each orbit."""
    orbits = DisjointSet(h.n)
    for perm in _switching_isomorphisms(h, h):
        for u in range(h.n):
            orbits.union(u, perm[u])
    return sorted({orbits.find(u) for u in range(h.n)})


@lru_cache(maxsize=256)
def _target_search_data(h: SignedGraph):
    return _edge_masks(h), _switching_automorphism_orbits(h), is_balanced(h)[0]


def find_homomorphism(g: SignedGraph, h: SignedGraph) -> Optional[SignedHomomorphism]:
    """Complete backtracking search; None only if no homomorphism exists.

    Runs the resumable search of ``_search_turns`` through all its turns,
    without pausing.  The search is iterative, so a component of any
    size is searched without hitting Python's recursion limit.
    """
    for phi in _search_turns(g, h):
        pass
    return phi or None


def _search_turns(g: SignedGraph, h: SignedGraph):
    """Resumable complete search for a homomorphism g -> h.

    Yields None after every turn of g.n + 1 search nodes (one
    backtrack-free descent), so a caller can pause the search between
    turns and resume it later without repeating work.  The last value it
    yields is the homomorphism, or False when there is none.  An
    unbalanced g is refuted at once against a balanced h: switching keeps
    the sign of every closed walk, and a homomorphism maps a negative
    closed walk onto a negative closed walk.
    """
    if g.n == 0:
        yield SignedHomomorphism((), frozenset())
        return
    if h.n == 0 or (g.m > 0 and h.m == 0):
        yield False
        return
    allowed, orbit_reps, balanced = _target_search_data(h)
    if balanced and not is_balanced(g)[0]:
        yield False
        return
    full = (1 << (2 * h.n)) - 1
    root_domain = 0
    for t in orbit_reps:
        root_domain |= 1 << (2 * t)  # switch bit pinned to 0
    assignment = [0] * g.n
    for comp in connected_components(g):
        root = max(comp, key=lambda v: (g.degree(v), -v))
        order, _ = bfs_order(g, root)  # covers exactly this component
        sol = yield from _search(g, order, allowed, full, root_domain)
        if sol is None:
            yield False
            return
        for v, lit in sol.items():
            assignment[v] = lit
    yield SignedHomomorphism(
        tuple(lit >> 1 for lit in assignment),
        frozenset(v for v in range(g.n) if assignment[v] & 1),
    )


def _search(g, order, allowed, full, root_domain):
    """Backtracking with forward checking over literal bitmask domains.

    Variables are chosen dynamically, smallest domain first, ties to the
    lowest BFS position (the root is forced first); forward checking
    prunes every unassigned neighbor on each assignment, so domains
    always reflect all assigned neighbors.  ``bysize[s]`` is a bitmask of
    the positions off the stack whose domain has s literals, so the next
    variable is the lowest bit of the first non-empty bucket and a node
    costs O(degree + 2 h.n) bitmask operations, not O(n).  The buckets
    are updated lazily: only a literal that survives forward checking
    moves its narrowed neighbors between buckets, and backtracking over
    it moves them back, so a wiped-out literal costs nothing extra.  The
    search is iterative: ``stack`` holds one [variable, untried literals,
    undo list of the literal being tried] frame per assigned variable
    plus the one being tried.  A generator: it yields None after every
    turn of g.n + 1 nodes and returns the {vertex: literal} map, or None.
    """
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    nbrs = [[(pos[w], s) for w, s in g.adjacency[v] if w in pos] for v in order]
    domains = [full] * n
    domains[0] = root_domain
    lits = [-1] * n
    width = full.bit_length()
    bysize = [0] * (width + 1)
    bysize[width] = (1 << n) - 2  # every position but the root
    turn = g.n + 1
    stack = [[0, root_domain, ()]]
    left = turn - 1  # the root node
    while stack:
        frame = stack[-1]
        i, rest, undo = frame
        if lits[i] >= 0:  # the last literal survived: undo its bucket moves
            lits[i] = -1
            for j, old in undo:
                bit = 1 << j
                bysize[domains[j].bit_count()] ^= bit
                bysize[old.bit_count()] |= bit
                domains[j] = old
        else:
            for j, old in undo:
                domains[j] = old
        if not rest:
            stack.pop()
            bysize[domains[i].bit_count()] |= 1 << i
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
            for j, old in undo:
                bit = 1 << j
                bysize[old.bit_count()] ^= bit
                bysize[domains[j].bit_count()] |= bit
            # smallest domain among the unassigned variables
            size = 1
            while not bysize[size]:
                size += 1
            bucket = bysize[size]
            low = bucket & -bucket
            bysize[size] = bucket ^ low
            best = low.bit_length() - 1
            stack.append([best, domains[best], ()])
    return None


# -- target enumeration and chromatic number --------------------------


@lru_cache(maxsize=None)
def enumerate_targets(k: int) -> tuple[SignedGraph, ...]:
    """All signed K_k up to switching isomorphism, one canonical member each.

    Every switching class of a signed complete graph has a unique member
    with all vertex-0 edges positive (switch exactly the other endpoints
    of the negative ones), so a class is a signing of the inner edges
    inside 1..k-1, read as a bitmask.  A vertex permutation sends it to
    the class with key s'(u, v) = s(u, v) s(0, u) s(0, v) on the inner
    edges, integer arithmetic that builds no graph.  The walk takes the
    lowest signing not yet seen, maps it under all k! permutations, marks
    the whole orbit seen and keeps the orbit member with the least edge
    tuple; the representatives come out sorted by edge tuple.  The class
    counts 1, 1, 2, 3, 7, 16, 54 are the numbers of two-graphs.
    """
    if not 1 <= k <= TARGET_ORDER_CAP:
        raise OrderTooLargeError(f"target order {k} outside 1..{TARGET_ORDER_CAP}")
    star = [(v, 0) for v in range(1, k)]
    inner = [(u, v) for u in range(1, k) for v in range(u + 1, k)]

    def edges_of(bits):
        return tuple((0, v, 1) for v in range(1, k)) + tuple(
            (u, v, -1 if bits >> i & 1 else 1) for i, (u, v) in enumerate(inner)
        )

    seen = bytearray(1 << len(inner))
    reps = []
    for bits in range(1 << len(inner)):
        if seen[bits]:
            continue
        neg = [[0] * k for _ in range(k)]
        for i, (u, v) in enumerate(inner):
            neg[u][v] = neg[v][u] = bits >> i & 1
        orbit = {
            _switching_key(neg, perm, inner, star)
            for perm in itertools.permutations(range(k))
        }
        for image in orbit:
            seen[image] = 1
        reps.append(min(map(edges_of, orbit)))
    return tuple(SignedGraph(k, edges) for edges in sorted(reps))


def underlying_chromatic_lower_bound(g: SignedGraph) -> int:
    """Lower bound for chi_s: exact chi of the underlying graph for
    n <= 20 (ascending k-colorability with backtracking), otherwise a
    greedy clique size, raised to 3 when the underlying graph is not
    bipartite."""
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    k = _greedy_clique(g)
    if g.n <= 20:
        while not _colorable(g, k):
            k += 1
        return k
    if k < 3 and not _bipartite(g):
        return 3
    return k


def _bipartite(g: SignedGraph) -> bool:
    """BFS 2-coloring of the underlying graph, one component at a time."""
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for v, _ in g.adjacency[u]:
                if side[v] < 0:
                    side[v] = side[u] ^ 1
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def _greedy_clique(g: SignedGraph) -> int:
    best = 1
    for v in sorted(range(g.n), key=g.degree, reverse=True):
        clique = [v]
        for w in sorted(g.neighbors(v), key=g.degree, reverse=True):
            if all(g.has_edge(w, u) for u in clique):
                clique.append(w)
        best = max(best, len(clique))
    return best


def _colorable(g: SignedGraph, k: int) -> bool:
    """Backtracking proper k-coloring, new colors introduced in order."""
    order = sorted(range(g.n), key=g.degree, reverse=True)
    color = [-1] * g.n

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        limit = min(used + 1, k)
        for c in range(limit):
            if all(color[w] != c for w in g.neighbors(v)):
                color[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
                color[v] = -1
        return False

    return place(0, 0)


def chromatic_number(
    g: SignedGraph, lo: Optional[int] = None, hi: Optional[int] = None
) -> ChromaticCertificate:
    """Exact signed chromatic number with a homomorphism certificate.

    Searches target orders ascending from max(lo, underlying chi).  Raises
    BoundExceededError, carrying the best-known interval, when the search
    passes ``hi`` (or the enumeration cap) without finding a target.
    """
    if g.n == 0:
        raise TooLargeError("chromatic number needs at least one vertex")
    base = underlying_chromatic_lower_bound(g)
    start = max(lo or 1, base, 1)
    cap = min(hi, TARGET_ORDER_CAP) if hi is not None else TARGET_ORDER_CAP
    exhausted = {}
    for k in range(start, cap + 1):
        targets = enumerate_targets(k)
        # one resumable search per target, run round-robin a turn at a
        # time; the first satisfied target wins, and a search that runs
        # out of literals refutes its target
        running = [(target, _search_turns(g, target)) for target in targets]
        while running:
            still = []
            for target, search in running:
                phi = next(search)
                if phi is None:
                    still.append((target, search))
                elif phi:
                    return ChromaticCertificate(
                        k=k,
                        target=target,
                        hom=phi,
                        lower_bound_evidence={
                            "underlying_chromatic": base,
                            "exhausted_orders": exhausted,
                        },
                    )
            running = still
        exhausted[k] = len(targets)
    proved_lo = max(start, *(k + 1 for k in exhausted)) if exhausted else start
    raise BoundExceededError(lo=proved_lo, hi=None)


# -- signed isomorphism and s-redundant sets --------------------------

ISOMORPHISM_ORDER_CAP = 10


def signed_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff some vertex bijection plus a switching takes g1 to g2."""
    if g1.n > ISOMORPHISM_ORDER_CAP or g2.n > ISOMORPHISM_ORDER_CAP:
        raise TooLargeError(f"isomorphism capped at {ISOMORPHISM_ORDER_CAP} vertices")
    return next(_switching_isomorphisms(g1, g2), None) is not None


def is_s_redundant(g: SignedGraph, s: Sequence[int]) -> bool:
    """Direct check of the s-redundancy condition.

    For every z in S and every non-adjacent pair x, y of neighbors of z
    outside S, some w outside S must close a balanced 4-cycle x w y z.
    """
    sset = set(s)
    if any(not 0 <= v < g.n for v in sset):
        raise VertexOutOfRangeError("S must be a subset of the vertex set")
    for z in sset:
        outside = [x for x in g.neighbors(z) if x not in sset]
        for i, x in enumerate(outside):
            for y in outside[i + 1:]:
                if g.has_edge(x, y):
                    continue
                if not any(
                    w != z
                    and w not in sset
                    and g.has_edge(y, w)
                    and g.sign(z, x) * g.sign(x, w) * g.sign(w, y) * g.sign(y, z) == 1
                    for w in g.neighbors(x)
                ):
                    return False
    return True
