"""Signed homomorphism search and exact signed chromatic numbers.

A signed homomorphism is a vertex map plus a switch set on the source; it
is valid when, after switching, every source edge lands on a target edge
of the same sign.  The chromatic number is the least order of a target
admitting a homomorphism; restricting targets to complete signed graphs
is sound because absent target edges can be signed arbitrarily without
invalidating a homomorphism.

The solver assigns each source vertex a (target vertex, switch bit)
literal over bitmask domains, always branching on a vertex with the
smallest domain.  It keeps the unassigned vertices bucketed by
domain size, as one bitmask per size, so choosing the next vertex reads
at most 2 h.n buckets instead of scanning every vertex: a search node
costs O(degree + h.n) bitmask operations, not O(n).  Symmetries used:
the target's switching automorphisms, with the switch of any whole
component, act on literals, and every vertex tries only the least
literal of each orbit of the stabilizer of the literals already on the
path.  At the first vertex of a component that is one target vertex per
orbit, with switch bit 0; once the stabilizer is trivial the vertex
tries its whole domain.  The orbits come from the module's one
switching-isomorphism search, which walks the target's edges in BFS
order and also answers ``signed_isomorphic``; it finds one automorphism
per coset along a stabilizer chain and never the whole group.  An
unbalanced source is refuted against a balanced target without search.

One revision rule narrows every domain: a vertex cuts a neighbour's
domain to the literals that some literal left to it allows.  Each new
literal revises every unassigned neighbour, which is forward checking;
where the search has already failed, each narrowed neighbour of a vertex
wiped out before revises that vertex in turn, which is arc consistency.
On a failure the search backjumps (forward checking with
conflict-directed backjumping, FC-CBJ; Prosser, Computational
Intelligence 9, 1993).  Every vertex records the stack depths whose
literals narrowed its domain; a revision that wipes out a domain blames
the narrowers of both its ends, and a vertex that runs out of literals
blames them together with its own narrowers, then returns straight to
the deepest depth blamed.  The depths in between played no part in the
failure, so their remaining subtrees hold no solution and are skipped.
Undo restores domains newest first.  The search decides as chronological
backtracking does, but its map may differ from that search's first one;
the CLI and the verify suites validate every map.

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

from .core import DisjointSet, SignedGraph, bfs_from, connected_components
from .errors import (
    BadParameterError,
    BoundExceededError,
    OrderTooLargeError,
    TooLargeError,
    VertexOutOfRangeError,
)
from .switching import _switch_flags, is_balanced

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
    """masks[sigma][lit]: bitmask of neighbor literals compatible with an
    edge of source sign sigma when this endpoint carries literal lit."""
    nl = 2 * h.n
    masks = {1: [0] * nl, -1: [0] * nl}
    for tu, row in enumerate(h.adjacency):
        for tv, pi in row:
            b0, b1 = 1 << (2 * tv), 2 << (2 * tv)  # tv with switch bit 0, 1
            # equal switch bits keep the target sign pi, unequal ones flip it
            masks[pi][2 * tu] |= b0
            masks[-pi][2 * tu] |= b1
            masks[pi][2 * tu + 1] |= b1
            masks[-pi][2 * tu + 1] |= b0
    return masks


def _switching_key(neg, perm, edges) -> int:
    """Switching-class key of the signing (a, b) -> neg[perm[a]][perm[b]]
    of a complete graph, for ``enumerate_targets``.

    ``neg`` is a 0/1 matrix (1 for a negative edge).  The signing is
    switched so that every edge at vertex 0 is positive, and bit i of the
    key is set when ``edges[i]`` is then negative, so bit (u, v) is
    s(u, v) s(0, u) s(0, v) read as a sign.  Two signings have the same key
    exactly when they are switching equivalent.
    """
    flip = [neg[perm[0]][p] for p in perm]
    key = 0
    for i, (u, v) in enumerate(edges):
        if neg[perm[u]][perm[v]] ^ flip[u] ^ flip[v]:
            key |= 1 << i
    return key


def _switching_isomorphisms(g1: SignedGraph, g2: SignedGraph, pins=()):
    """Every switching isomorphism from g2 onto g1, as the pair (image,
    flip) of tuples indexed by g2 vertex: the g1 vertex it goes to and
    whether it is switched.

    ``pins`` holds (a, t, f) triples: g2 vertex a must go to t with flip
    f.  The pinned vertices are placed first, then the rest in BFS order
    from them, then each remaining component in BFS order from its least
    vertex, so every vertex but a pin or a component root has an earlier
    neighbour, its BFS parent.  A vertex's image is an unused neighbour of
    its parent's image with the same degree (an unpinned root may take any
    unused vertex of its degree, with flip 0), and the tree edge forces its
    switch flag.  Each other edge back to a placed vertex must land on a
    g1 edge whose sign, after switching both ends, is the g2 sign.  With
    g1.m == g2.m a map sending every g2 edge onto a g1 edge is onto, so
    non-edges need no check.  The search keeps an explicit stack of
    candidate lists.
    """
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return
    if not n:
        yield (), ()
        return
    pinned = {a: (t, f) for a, t, f in pins}
    dist = [-1] * n
    order = bfs_from(g2, pinned, dist)
    for a in range(n):
        order += bfs_from(g2, [a], dist)
    pos = [0] * n
    for i, a in enumerate(order):
        pos[a] = i
    # (placed neighbour, 1 if the edge is negative) in placing order, so
    # the BFS parent first
    adjacency1, adjacency2 = g1.adjacency, g2.adjacency
    back = [[] for _ in range(n)]
    for i, a in enumerate(order):
        for b, s in adjacency2[a]:
            if pos[b] > i:
                back[pos[b]].append((a, int(s < 0)))
    sign1 = [dict(row) for row in adjacency1]
    degree1 = [len(row) for row in sign1]
    image = [-1] * n
    flip = [0] * n
    used = [False] * n

    def candidates(i: int) -> list[tuple[int, int]]:
        a = order[i]
        if a in pinned:
            choices, checks = [pinned[a]], back[i]
        elif not back[i]:
            choices, checks = [(t, 0) for t in reversed(range(n))], ()
        else:
            (p, sp), checks = back[i][0], back[i][1:]
            choices = [(t, flip[p] ^ int(s < 0) ^ sp)
                       for t, s in reversed(adjacency1[image[p]])]
        degree = len(adjacency2[a])
        return [(t, f) for t, f in choices
                if not used[t] and degree1[t] == degree
                and all(image[b] in sign1[t] and (sign1[t][image[b]] < 0) ^ flip[b] ^ f == sb
                        for b, sb in checks)]

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
            yield tuple(image), tuple(flip)


def _join(classes, image, flip):
    """Join each literal's class with that of its image under (image, flip)."""
    for a, (t, f) in enumerate(zip(image, flip)):
        classes.union(2 * a, 2 * t + f)
        classes.union(2 * a + 1, 2 * t + 1 - f)


class _LiteralOrbits(dict):
    """Orbits of pointwise literal stabilizers in a target's symmetry group.

    The group is h's switching automorphisms together with the switch of
    any whole component; (image, flip) acts on the literal 2 t + b as
    t -> image[t], b -> b ^ flip[t].  An element fixes the literals of a
    set T of target vertices exactly when it fixes each vertex of T and
    switches none of them, so its pointwise stabilizer G_T depends on T
    alone.  The dict maps T, a vertex bitmask, to the bitmask of the least
    literal of each orbit of G_T, computed when first looked up; it is the
    full literal mask exactly when G_T is trivial.

    No group is stored, only the orbit partition per T asked for and per
    T on its stabilizer chain.  When the search pinning T finds no map
    but the identity, G_T holds nothing but the switches of the components
    that miss T, and its orbits are the pairs 2 t, 2 t + 1 of their
    vertices.  Otherwise the orbits of G_T come from those of G_{T + u}:
    they are joined by the switch of each component that misses T and by
    one automorphism fixing T for each image of the literal 2 u that its
    class has not reached yet, which is one automorphism per coset of
    G_{T + u}.  A literal no such automorphism reaches rules out its whole
    class, since every class is an orbit of a subgroup of G_T.  Any u
    outside T is sound.  The one taken is the least vertex moved by the
    first map of that search other than the identity.  It lies outside T,
    which every pinned map fixes, and that map is in G_T but not in
    G_{T + u}, so every step of the chain shrinks the group, and the map
    is the first automorphism of the coset pass.
    """

    def __init__(self, h: SignedGraph):
        super().__init__()
        self.h = h
        self.components = connected_components(h)
        self.least = {}  # T -> least literal of each literal's orbit

    def __missing__(self, fixed: int) -> int:
        mask = 0
        for lit, rep in enumerate(self._orbits(fixed)):
            if lit == rep:
                mask |= 1 << lit
        self[fixed] = mask
        return mask

    def _free(self, fixed: int):
        """The vertices of the components that miss T."""
        for comp in self.components:
            if not any(fixed >> a & 1 for a in comp):
                yield from comp

    def _orbits(self, fixed: int) -> tuple[int, ...]:
        h = self.h
        adjacency = h.adjacency
        identity = tuple(range(h.n))
        chain = []
        while fixed not in self.least:
            pins = [(a, a, 0) for a in range(h.n) if fixed >> a & 1]
            maps = _switching_isomorphisms(h, h, pins)
            moving = next((m for m in maps if m[0] != identity), None)
            if moving is None:  # G_T only switches the components missing T
                least = list(range(2 * h.n))
                for a in self._free(fixed):
                    least[2 * a + 1] = 2 * a
                self.least[fixed] = tuple(least)
                break
            u = next(a for a in range(h.n) if moving[0][a] != a)
            chain.append((fixed, pins, u, moving))
            fixed |= 1 << u
        least = self.least[fixed]
        for fixed, pins, u, moving in reversed(chain):
            classes = DisjointSet(2 * h.n)
            for lit, rep in enumerate(least):
                classes.union(lit, rep)
            for a in self._free(fixed):
                classes.union(2 * a, 2 * a + 1)
            _join(classes, *moving)
            # u's image t has u's degree and u's edges to T, their signs
            # switched by f
            ties = {a: s for a, s in adjacency[u] if fixed >> a & 1}
            settled = [2 * u]  # and then the literals found out of reach
            for t in ([t for t, _ in adjacency[min(ties)]] if ties else range(h.n)):
                if fixed >> t & 1 or len(adjacency[t]) != len(adjacency[u]):
                    continue
                signs = {a: s for a, s in adjacency[t] if fixed >> a & 1}
                for f in (0, 1):
                    if signs != {a: -s if f else s for a, s in ties.items()} or (
                            classes.find(2 * t + f) in {classes.find(x) for x in settled}):
                        continue
                    found = next(_switching_isomorphisms(h, h, pins + [(u, t, f)]), None)
                    if found is None:
                        settled.append(2 * t + f)
                    else:
                        _join(classes, *found)
            least = tuple(classes.find(lit) for lit in range(2 * h.n))
            self.least[fixed] = least
        return least


def _fill_support(support: dict[int, int], domain: int) -> int:
    """Fill ``support[domain]``, the union of the single-literal entries
    ``support[1 << lit]`` over the literals of domain."""
    union, rest = 0, domain
    while rest:
        low = rest & -rest
        union |= support[low]
        rest ^= low
    support[domain] = union
    return union


@lru_cache(maxsize=256)
def _target_search_data(h: SignedGraph):
    # support[sigma][D]: the literals some literal of D allows across an
    # edge of source sign sigma, seeded with the single-literal masks
    support = {s: {1 << lit: mask for lit, mask in enumerate(masks)}
               for s, masks in _edge_masks(h).items()}
    return _LiteralOrbits(h), is_balanced(h)[0], support


def find_homomorphism(g: SignedGraph, h: SignedGraph) -> Optional[SignedHomomorphism]:
    """Complete backtracking search; None only if no homomorphism exists.
    The map found need not be the chronological search's first one.

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
    reps, balanced, support = _target_search_data(h)
    if balanced and not is_balanced(g)[0]:
        yield False
        return
    full = (1 << (2 * h.n)) - 1
    # one BFS per component from its first vertex in the order of degree
    # descending, then id ascending (the sort is stable)
    dist = [-1] * g.n
    roots = sorted(range(g.n), key=[len(row) for row in g.adjacency].__getitem__, reverse=True)
    orders = [bfs_from(g, [root], dist) for root in roots if dist[root] < 0]
    orders.sort(key=min)
    pos = [0] * g.n  # BFS position within the vertex's component
    for order in orders:
        for i, v in enumerate(order):
            pos[v] = i
    assignment = [0] * g.n
    for order in orders:
        sol = yield from _search(g, order, full, reps, support, pos)
        if sol is None:
            yield False
            return
        for v, lit in sol.items():
            assignment[v] = lit
    yield SignedHomomorphism(
        tuple(lit >> 1 for lit in assignment),
        frozenset(v for v in range(g.n) if assignment[v] & 1),
    )


def _search(g, order, full, reps, support, pos):
    """Forward checking with conflict-directed backjumping (FC-CBJ), and
    arc consistency where the search has failed, over literal bitmask
    domains, as one revision rule.

    Variables are chosen dynamically, smallest domain first, ties to the
    lowest BFS position (the root is forced first).  ``bysize[s]`` is a
    bitmask of the positions off the stack whose domain has s literals,
    so the next variable is the lowest mark of the first non-empty
    bucket and a node costs O(degree + 2 h.n) bitmask operations, not
    O(n).  Every domain change moves its position between buckets at
    once, so one undo loop restores domains and buckets alike.

    One rule narrows every domain: a source position with domain D and
    explanation e cuts each neighbour k in its scope, across an edge of
    sign s, to ``domains[k] & support[s][D]``, the literals of k that
    some literal of D allows, and adds e to ``narrowed[k]``.  The literal
    just tried at position i is the first source, with D its one literal,
    e the current depth and every unassigned neighbour in scope: forward
    checking, so domains always reflect all assigned neighbours.  A
    position wiped out before in this search is hot, and a neighbour of a
    hot one is warm.  Each warm position a revision narrows is queued and
    is in turn a source, with its domain and ``narrowed``, whose scope is
    its unassigned hot neighbours: arc consistency (MAC; Sabin and
    Freuder, PPCP 1994) only where the search has already failed
    (Stergiou, ECAI 2008).  A position a revision wipes out turns hot.

    Backjumping (Prosser 1993): ``narrowed[j]`` is the bitmask of the
    stack depths whose literals narrowed position j's domain, and each
    frame carries a conflict set, a bitmask of depths above it.  The
    source's explanation accounts for what its revision cuts from k, so
    a revision that wipes k out gives the frame's set ``narrowed[k] | e``
    without the current depth: the literals at those depths alone leave
    k no literal.  For forward checking that is ``narrowed[k]``, which never
    holds the current depth's bit before the new literal revises k.
    When a frame runs out of literals it also takes its own
    ``narrowed``, which explains every literal missing from its domain;
    the literals at the depths of the set then admit no solution,
    whatever the depths between them hold.  So the search pops back to
    the deepest depth in the set, skipping the subtrees of the depths in
    between, which hold no solution, and merges the rest of the set into
    that frame.  An empty set refutes the component at once.  Undo
    restores each position's domain, bucket and ``narrowed`` from one
    entry per revision, newest first, so a position revised twice in one
    node gets back its value from before the node; a jump undoes the
    frames it passes over in the same loop, one a pass.  The search
    decides as chronological backtracking does, but which positions are
    hot depends on its history, so its map may differ from that search's
    first one.

    A variable tries only ``reps[T]`` of its domain, one literal per orbit
    of the target symmetries that fix every literal on the path, T being
    the path's target vertices as a bitmask (``_LiteralOrbits``).  Those
    symmetries map the domains onto themselves and so the solutions
    under a literal onto those under its orbit's least literal, which is
    tried first: the search decides as it would without them.  Once
    ``reps[T]`` is the full mask the rest of the path costs nothing
    extra.  The pruning needs no term in the conflict sets.  A literal
    skipped as a non-representative is the image of a tried one under an
    element of G_T, the stabilizer of T, and every element of G_T fixes
    every literal on the path; so it maps the tried literal's nogood, the
    literals at the depths of its conflict set, onto the skipped
    literal's, with the same depths.  The domains stay G_T-invariant, so
    a skipped literal's representative is in the domain too: every
    revision's source domain is invariant, the new literal's too, as G_T
    fixes it, and G_T maps the support of an invariant domain onto
    itself.

    The search is iterative: ``stack`` holds one [variable, untried
    literals, undo list of the literal being tried, T above it or None
    once the symmetries are trivial, conflict set, depth as a bit] frame
    per assigned variable plus the one being tried.  A generator: it
    yields None after every turn of g.n + 1 nodes and returns the
    {vertex: literal} map, or None.
    """
    n = len(order)
    # ``order`` is a whole component, so it holds every neighbour
    nbrs = [[(pos[w], s) for w, s in row] for row in map(g.adjacency.__getitem__, order)]
    domains = [full] * n
    narrowed = [0] * n  # depths whose literals narrowed each domain
    lits = [-1] * n
    hot = warm = 0  # positions wiped out before, and their neighbours
    width = full.bit_length()
    bysize = [0] * (width + 1)
    bysize[width] = (1 << n) - 2  # every position but the root
    turn = g.n + 1
    root = reps[0]
    stack = [[0, root, (), 0 if root != full else None, 0, 1]]
    left = turn - 1  # the root node
    back = n  # the depth a backjump returns to, n when none is under way
    while True:
        frame = stack[-1]
        i, rest, undo, fixed, conflict, mark = frame
        lits[i] = -1
        for j, old, was in reversed(undo):
            bit = 1 << j
            bysize[domains[j].bit_count()] ^= bit
            bysize[old.bit_count()] |= bit
            domains[j] = old
            narrowed[j] = was
        if len(stack) > back + 1:  # a backjump passes over this frame
            stack.pop()
            bysize[domains[i].bit_count()] |= 1 << i
            continue
        back = n
        if not rest:
            stack.pop()
            bysize[domains[i].bit_count()] |= 1 << i
            conflict |= narrowed[i]
            if not conflict:
                return None
            back = conflict.bit_length() - 1
            stack[back][4] |= conflict ^ (1 << back)
            continue
        low = rest & -rest
        lit = low.bit_length() - 1
        undo = []
        frame[1] = rest ^ low
        frame[2] = undo
        lits[i] = lit
        # the new literal revises every unassigned neighbour, then each
        # queued warm position j its unassigned hot ones
        j, dj, nj, scope, queue = i, low, mark, -1, 0
        while True:
            for k, s in nbrs[j]:
                if not scope >> k & 1 or lits[k] >= 0:
                    continue
                old = domains[k]
                try:
                    new = old & support[s][dj]
                except KeyError:
                    new = old & _fill_support(support[s], dj)
                if new != old:
                    if not new:  # wiped out by k's and j's narrowers
                        frame[4] = conflict | (narrowed[k] | nj) & (mark - 1)
                        if not hot >> k & 1:
                            hot |= 1 << k
                            for w, _ in nbrs[k]:
                                warm |= 1 << w
                        lits[i] = -1
                        queue = 0
                        break
                    bit = 1 << k
                    bysize[old.bit_count()] ^= bit
                    bysize[new.bit_count()] |= bit
                    undo.append((k, old, narrowed[k]))
                    domains[k] = new
                    narrowed[k] |= nj
                    queue |= bit & warm
            if not queue:
                break
            low = queue & -queue
            queue ^= low
            j = low.bit_length() - 1
            dj, nj, scope = domains[j], narrowed[j], hot
        if lits[i] < 0:
            continue
        if len(stack) == n:
            return {order[i]: lits[i] for i in range(n)}
        left -= 1
        if not left:
            yield None
            left = turn
        # smallest domain among the unassigned variables
        size = 1
        while not bysize[size]:
            size += 1
        bucket = bysize[size]
        low = bucket & -bucket
        bysize[size] = bucket ^ low
        best = low.bit_length() - 1
        if fixed is not None:
            fixed |= 1 << (lit >> 1)
            below = reps[fixed]
            if below != full:
                stack.append([best, domains[best] & below, (), fixed, 0, mark << 1])
                continue
        stack.append([best, domains[best], (), None, 0, mark << 1])


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
            _switching_key(neg, perm, inner)
            for perm in itertools.permutations(range(k))
        }
        for image in orbit:
            seen[image] = 1
        reps.append(min(map(edges_of, orbit)))
    return tuple(SignedGraph(k, edges) for edges in sorted(reps))


def underlying_chromatic_lower_bound(g: SignedGraph) -> int:
    """Lower bound for chi_s from the underlying graph: a greedy clique
    size, raised to 3 when the underlying graph is not bipartite.  It is
    a bound, not the underlying chi: the odd wheel W5 gets 3, not 4."""
    if g.n == 0:
        return 0
    k = _greedy_clique(g)
    if k < 3:
        # bipartite exactly when the all-negative signing is balanced
        all_negative = [[(v, -1) for v, _ in a] for a in g.adjacency]
        if _switch_flags(g, all_negative)[2] is not None:
            return 3
    return k


def _greedy_clique(g: SignedGraph) -> int:
    best = 1
    adjacency = g.adjacency
    degree = [len(row) for row in adjacency].__getitem__
    for v in sorted(range(g.n), key=degree, reverse=True):
        clique = [v]
        for w in sorted([w for w, _ in adjacency[v]], key=degree, reverse=True):
            if all(g.has_edge(w, u) for u in clique):
                clique.append(w)
        best = max(best, len(clique))
    return best


def chromatic_number(g: SignedGraph, hi: Optional[int] = None) -> ChromaticCertificate:
    """Exact signed chromatic number with a homomorphism certificate.

    Searches target orders ascending from the underlying lower bound,
    which may lie below the underlying chi; the evidence records every
    order searched and refuted.  Raises BoundExceededError, carrying the
    proven lower bound, when the search passes ``hi`` (or the
    enumeration cap) without finding a target.
    """
    if g.n == 0:
        raise BadParameterError("chromatic number needs at least one vertex")
    base = underlying_chromatic_lower_bound(g)  # >= 1, as g has a vertex
    cap = min(hi, TARGET_ORDER_CAP) if hi is not None else TARGET_ORDER_CAP
    exhausted = {}
    for k in range(base, cap + 1):
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
    # every order from base to cap is refuted
    raise BoundExceededError(lo=max(base, cap + 1), hi=None)


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
