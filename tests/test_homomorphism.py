import hashlib
import random
from collections import defaultdict
from itertools import permutations

import pytest

from sgw.constructions import build_grid, grid_edges, make
from sgw.core import bfs_order, build, connected_components
from sgw.errors import (
    BadParameterError,
    BoundExceededError,
    OrderTooLargeError,
    TooLargeError,
    VertexOutOfRangeError,
)
from sgw.homomorphism import (
    SignedHomomorphism,
    _edge_masks,
    _LiteralOrbits,
    _search,
    _search_turns,
    _target_search_data,
    chromatic_number,
    enumerate_targets,
    find_homomorphism,
    is_s_redundant,
    signed_isomorphic,
    underlying_chromatic_lower_bound,
    validate,
)
from sgw.product import cartesian_product
from sgw.switching import equivalent, is_balanced, switch

from oracles import (
    backtrack_isomorphic,
    naive_chromatic_number,
    pairwise_edge_masks,
    permutation_orbits,
    permutation_targets,
    random_connected_signed_graph,
    random_signature,
    scan_search,
    stabilizer_reps,
    switching_automorphisms,
)


def root_orbits(h):
    """One target vertex per orbit of the switching-automorphism group,
    the least of each: the vertices of the root domain's even literals."""
    root = _LiteralOrbits(h)[0]
    return [t for t in range(h.n) if root >> (2 * t) & 1]


def disjoint_union(a, b):
    return build(a.n + b.n, list(a.edges)
                 + [(u + a.n, v + a.n, s) for u, v, s in b.edges])


def brute_force_hom(g, h):
    """Exhaustive search over all maps and switch bits, vertex 0 first,
    dropping a partial map as soon as it breaks an edge; ground truth."""
    n = g.n
    lits = []

    def fits(v, t, b):
        for u, s in g.adjacency[v]:
            if u < v:
                tu, bu = divmod(lits[u], 2)
                if tu == t or not h.has_edge(tu, t) or h.sign(tu, t) != (
                        s if bu == b else -s):
                    return False
        return True

    def extend():
        if len(lits) == n:
            return SignedHomomorphism(
                tuple(lit // 2 for lit in lits),
                frozenset(v for v in range(n) if lits[v] % 2),
            )
        for lit in range(2 * h.n):
            if fits(len(lits), *divmod(lit, 2)):
                lits.append(lit)
                found = extend()
                if found is not None:
                    return found
                lits.pop()
        return None

    return extend()


def search_calls(g, h):
    """The arguments ``_search_turns`` passes to ``_search``, one tuple per
    component of g (the balance shortcut aside)."""
    reps, _, support = _target_search_data(h)
    full = (1 << (2 * h.n)) - 1
    pos = [0] * g.n
    for comp in connected_components(g):
        root = max(comp, key=lambda v: (g.degree(v), -v))
        order = bfs_order(g, root)[0]
        for i, v in enumerate(order):
            pos[v] = i
        yield g, order, full, reps, support, pos


def unpruned(g, order, full, reps, support, pos):
    """``_search`` arguments for the trivial group: every variable tries
    its whole domain, the root included."""
    return g, order, full, defaultdict(lambda: full), support, pos


def search_oracle_pairs():
    """(source, target) pairs of the search oracle tests: small random
    sources, disconnected ones and cycle products into every target of
    order <= 4, and signed grids into SPal5*."""
    rng = random.Random(103)
    sources = [random_connected_signed_graph(rng, 1, 9) for _ in range(300)]
    sources += [
        disjoint_union(random_connected_signed_graph(rng, 1, 4),
                       random_connected_signed_graph(rng, 1, 5))
        for _ in range(40)
    ]
    sources += [
        cartesian_product(make(a, p), make(b, q))[0]
        for a in ("BC", "UC") for p in (3, 4)
        for b in ("BC", "UC") for q in (3, 4, 5)
    ]
    targets = [t for k in (1, 2, 3, 4) for t in enumerate_targets(k)]
    pairs = [(g, h) for g in sources for h in targets]
    for side in (5, 8, 13, 17, 20):
        pairs.append((random_grid(rng, side), make("SPal5_star")))
    return pairs


def drain(search):
    """Every value a search generator yields, and the value it returns."""
    yielded = []
    while True:
        try:
            yielded.append(next(search))
        except StopIteration as stop:
            return yielded, stop.value


def random_grid(rng, side):
    return build_grid(side, side,
                      [rng.choice((1, -1)) for _ in grid_edges(side, side)])


class TestValidate:
    def test_accepts_identity_on_target(self):
        t = make("UC", 4)
        phi = SignedHomomorphism(tuple(range(4)), frozenset())
        assert validate(t, t, phi)

    def test_rejects_wrong_sign(self):
        g = build(2, [(0, 1, -1)])
        h = build(2, [(0, 1, 1)])
        assert not validate(g, h, SignedHomomorphism((0, 1), frozenset()))
        # switching one endpoint fixes it
        assert validate(g, h, SignedHomomorphism((0, 1), frozenset({0})))

    def test_rejects_collapsed_edge_and_bad_shapes(self):
        g = build(2, [(0, 1, 1)])
        h = build(2, [(0, 1, 1)])
        assert not validate(g, h, SignedHomomorphism((0, 0), frozenset()))
        assert not validate(g, h, SignedHomomorphism((0,), frozenset()))
        assert not validate(g, h, SignedHomomorphism((0, 5), frozenset()))


class TestFindHomomorphism:
    def test_agrees_with_brute_force(self):
        rng = random.Random(51)
        targets = enumerate_targets(2) + enumerate_targets(3)
        for _ in range(60):
            g = random_connected_signed_graph(rng, 2, 4)
            h = targets[rng.randrange(len(targets))]
            found = find_homomorphism(g, h)
            expected = brute_force_hom(g, h)
            assert (found is None) == (expected is None)
            if found is not None:
                assert validate(g, h, found)

    def test_propagation_decides_as_brute_force(self):
        # arc consistency runs only after a wipe-out, so sources dense
        # enough to fail somewhere, into every target of order <= 5
        rng = random.Random(139)
        targets = [t for k in range(1, 6) for t in enumerate_targets(k)]
        answers = []
        for _ in range(30):
            g = random_connected_signed_graph(rng, 1, 9)
            for h in targets:
                found = find_homomorphism(g, h)
                expected = brute_force_hom(g, h)
                assert (found is None) == (expected is None)
                if found is not None:
                    assert validate(g, h, found) and validate(g, h, expected)
                answers.append(found is None)
        assert min(answers.count(True), answers.count(False)) >= 100

    @pytest.mark.parametrize("n,edges,target", [
        (7, [(0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 3, -1), (1, 4, -1), (2, 6, 1),
             (3, 5, 1), (4, 5, -1), (4, 6, 1), (5, 6, -1)], 1),
        (7, [(0, 1, -1), (0, 2, 1), (0, 3, -1), (0, 4, 1), (0, 6, -1), (1, 5, 1),
             (2, 3, -1), (2, 5, -1), (2, 6, 1), (3, 4, 1), (4, 6, 1), (5, 6, -1)], 5),
        (7, [(0, 1, -1), (0, 3, -1), (0, 6, -1), (1, 2, -1), (1, 3, 1), (1, 4, 1),
             (1, 5, -1), (2, 3, -1), (2, 4, -1), (2, 6, -1), (3, 5, -1), (4, 6, 1),
             (5, 6, 1)], 3),
    ], ids=["wipe_out_a", "wipe_out_b", "revision"])
    def test_blame_covers_revisions(self, n, edges, target):
        # satisfiable pairs that the search refutes if a revision's wipe-out
        # leaves the revising neighbour's narrowers out of the blame (the
        # first two), or if a revision adds only the current depth to the
        # revised position's narrowers; random pairs hit either case about
        # once in 10^5
        g = build(n, edges)
        h = enumerate_targets(5)[target]
        found = find_homomorphism(g, h)
        assert brute_force_hom(g, h) is not None
        assert found is not None and validate(g, h, found)

    def test_disconnected_source(self):
        g = build(4, [(0, 1, 1), (2, 3, -1)])
        (h,) = enumerate_targets(2)  # the negative edge needs a switch
        phi = find_homomorphism(g, h)
        assert phi is not None and validate(g, h, phi)

    def test_empty_cases(self):
        assert find_homomorphism(build(0, []), make("K_plus", 2)) is not None
        assert find_homomorphism(build(2, [(0, 1, 1)]), build(1, [])) is None

    def test_edge_cases_take_one_turn(self):
        # no special case decides these: the generic search does, at once
        empty, edgeless = build(0, []), build(3, [])
        assert list(_search_turns(empty, make("K_plus", 2))) == [
            SignedHomomorphism((), frozenset())]
        assert list(_search_turns(make("UC", 5), empty)) == [False]
        assert list(_search_turns(make("UC", 5), edgeless)) == [False]
        assert list(_search_turns(edgeless, edgeless)) == [
            SignedHomomorphism((0, 0, 0), frozenset())]

    def test_disconnected_sources_agree_with_brute_force(self):
        # the search runs one component after another inside one target's
        # search; every other oracle test uses connected sources
        # (n <= 5 keeps the exhaustive oracle to 6^5 maps per target)
        rng = random.Random(73)
        targets = [t for k in (1, 2, 3) for t in enumerate_targets(k)]
        for _ in range(30):
            a = random_connected_signed_graph(rng, 1, 3)
            b = random_connected_signed_graph(rng, 1, 5 - a.n)
            g = disjoint_union(a, b)
            for h in targets:
                found = find_homomorphism(g, h)
                assert (found is None) == (brute_force_hom(g, h) is None)
                if found is not None:
                    assert validate(g, h, found)

    @pytest.mark.parametrize("side,seed", [(40, 79), (100, 101)],
                             ids=["40x40", "100x100"])
    def test_large_grid_does_not_recurse(self, side, seed):
        # side**2 vertices in one component: past Python's recursion limit
        g = random_grid(random.Random(seed), side)
        target = make("SPal5_star")
        phi = find_homomorphism(g, target)
        assert phi is not None and validate(g, target, phi)

    @pytest.mark.parametrize("target", [
        make("BC", 12),
        random_grid(random.Random(113), 4),
        build(1500, [(v, v + 1, s) for v, s in
                     enumerate(random.Random(127).choices((1, -1), k=1499))]),
        build(1501, [(v, v + 1, 1) for v in range(1499)]),
        build(1502, [(v, v + 1, 1) for v in range(1499)]),
        build(1503, [(v, v + 1, 1) for v in range(1499)]
              + [(1498, 1500, 1), (0, 1501, 1), (0, 1502, 1)]),
    ], ids=["BC_12", "grid_4x4", "path_1500", "path_1500_K1", "path_1500_2K1",
            "broom_1503"])
    def test_large_sparse_target(self, target):
        # the target's switching automorphisms come from a search along
        # its edges, so a large sparse target costs no n! permutation walk;
        # where the symmetry left sits away from the fixed vertices (in
        # another component, or at both ends of a long path), the
        # stabilizer chain steps there, not along the path one vertex a step
        source = make("K_plus", 2)
        phi = find_homomorphism(source, target)
        assert phi is not None and validate(source, target, phi)
        assert len(_target_search_data(target)[0].least) <= 8

    def test_unbalanced_source_into_balanced_target(self):
        # refuted by balance alone; an exhaustive search ran over a minute
        rng = random.Random(97)
        signs = [rng.choice((1, -1)) for _ in range(201)]
        if signs.count(-1) % 2 == 0:
            signs[-1] = -signs[-1]
        g = build(201, [(v, (v + 1) % 201, signs[v]) for v in range(201)])
        assert find_homomorphism(g, make("K_plus", 3)) is None
        assert find_homomorphism(switch(g, range(0, 201, 2)),
                                 make("K_plus", 3)) is None

    def test_bucketed_selection_matches_scan_selection(self):
        # same arguments, the same literal map or None, and no more turns
        # than the chronological reference that rescans every position per
        # node: backjumping skips only subtrees that hold no solution, and
        # arc consistency removes only literals that extend to none; that
        # the map is the same is no theorem but holds on all these pairs.
        # Both run with the trivial group, so every domain is tried whole
        for g, h in search_oracle_pairs():
            masks = _edge_masks(h)
            for args in search_calls(g, h):
                full = args[2]  # the root domain too
                turns, found = drain(_search(*unpruned(*args)))
                scan_turns, scan_found = drain(scan_search(*args[:2], masks, full, full))
                assert found == scan_found
                assert len(turns) <= len(scan_turns)

    def test_stabilizer_pruning_matches_unpruned_search(self):
        # the subtree under a literal outside its orbit's least member is a
        # symmetric copy of one searched before it: the pruned search
        # decides the same, in no more turns, and finds the same map
        for g, h in search_oracle_pairs():
            assignment = {}
            for args in search_calls(g, h):
                turns, found = drain(_search(*args))
                full_turns, full_found = drain(_search(*unpruned(*args)))
                assert len(turns) <= len(full_turns)
                assert found == full_found
                if found is None:
                    break
                assignment.update(found)
            else:
                phi = SignedHomomorphism(
                    tuple(assignment[v] >> 1 for v in range(g.n)),
                    frozenset(v for v in range(g.n) if assignment[v] & 1))
                assert validate(g, h, phi)
                # the library passes _search these arguments, roots included
                assert find_homomorphism(g, h) == phi

    def test_backjumping_shortens_order_four_refutations(self):
        # BC5□UC5 maps to no signed K4.  Chronological backtracking took
        # 1,732 turns to refute K4- and 2,688 for the class with two
        # negative triangles; backjumping over the depths that played no
        # part in a wipe-out took 3 and 1,673, and arc consistency around
        # the vertices wiped out before takes 2 and 57
        g = cartesian_product(make("BC", 5), make("UC", 5))[0]
        k4_minus, two_negative, balanced = enumerate_targets(4)
        assert signed_isomorphic(k4_minus, make("K_minus", 4))
        assert is_balanced(balanced)[0] and not is_balanced(two_negative)[0]
        turns = list(_search_turns(g, k4_minus))
        assert turns[-1] is False and len(turns) <= 10
        turns = list(_search_turns(g, two_negative))
        assert turns[-1] is False and len(turns) <= 100

    @pytest.mark.parametrize("left,right,turns", [
        (("BC", 5), ("UC", 5), [2, 57, 1]),
        (("BC", 5), ("UC", 6), [1, 93, 1]),
        (("UC", 6), ("UC", 5), [2, 212, 1]),
    ], ids=["BC5xUC5", "BC5xUC6", "UC6xUC5"])
    def test_order_four_turn_lists(self, left, right, turns):
        # every order-4 refutation's yields, one count per target: any
        # change to what propagation prunes or to its undo shows here.
        # These searches revise some position twice within one node in
        # hundreds of frames, so undo must restore newest first
        g = cartesian_product(make(*left), make(*right))[0]
        runs = [list(_search_turns(g, t)) for t in enumerate_targets(4)]
        assert [len(run) for run in runs] == turns
        assert all(run[-1] is False for run in runs)

    @pytest.mark.parametrize("left,right", [
        (("BC", 7), ("UC", 5)), (("UC", 7), ("BC", 5)), (("UC", 5), ("BC", 7)),
    ], ids=["BC7xUC5", "UC7xBC5", "UC5xBC7"])
    def test_length_seven_products_refute_order_four(self, left, right):
        # each took 10-37 s with backjumping alone
        g = cartesian_product(make(*left), make(*right))[0]
        cert = chromatic_number(g)
        assert cert.k == 5 and validate(g, cert.target, cert.hom)
        assert cert.lower_bound_evidence["exhausted_orders"][4] == 3


class TestEnumerateTargets:
    def test_counts(self):
        # the numbers of two-graphs on k points (Mallows-Sloane 1975)
        assert [len(enumerate_targets(k)) for k in range(1, 8)] == [
            1, 1, 2, 3, 7, 16, 54,
        ]

    def test_matches_permutation_oracle(self):
        for k in range(1, 6):
            assert enumerate_targets(k) == permutation_targets(k)

    def test_order_six_matches_permutation_oracle(self):
        # at k = 6 the oracle canonicalizes 2^10 * 6! graphs, close to a
        # minute of work, so the sha256 of its output is pinned instead
        edges = repr(tuple(t.edges for t in enumerate_targets(6)))
        assert hashlib.sha256(edges.encode()).hexdigest() == (
            "88ca5e66e03aef006f56b83428506bb05aa136c13856925992695b5bde14405f"
        )

    def test_targets_are_complete_and_pairwise_inequivalent(self):
        for k in (2, 3, 4, 5):
            ts = enumerate_targets(k)
            for t in ts:
                assert t.m == k * (k - 1) // 2
            for i, a in enumerate(ts):
                for b in ts[i + 1:]:
                    assert not signed_isomorphic(a, b)

    def test_every_signature_hits_a_representative(self):
        pairs = [(u, v) for u in range(3) for v in range(u + 1, 3)]
        ts = enumerate_targets(3)
        for bits in range(8):
            g = build(3, [(u, v, -1 if bits >> i & 1 else 1)
                          for i, (u, v) in enumerate(pairs)])
            assert sum(1 for t in ts if signed_isomorphic(g, t)) == 1

    def test_order_cap(self):
        with pytest.raises(OrderTooLargeError):
            enumerate_targets(8)
        with pytest.raises(OrderTooLargeError):
            enumerate_targets(0)


class TestSwitchingAutomorphismOrbits:
    def test_targets_match_permutation_oracle(self):
        for k in range(1, 7):
            for h in enumerate_targets(k):
                assert root_orbits(h) == permutation_orbits(h)

    def test_order_seven_matches_permutation_oracle(self):
        # the oracle builds a graph and runs ``equivalent`` for each of
        # 54 * 7! permutations, so the sha256 of the agreed output is pinned
        orbits = repr([root_orbits(h) for h in enumerate_targets(7)])
        assert hashlib.sha256(orbits.encode()).hexdigest() == (
            "cd95ce76361ae4971c8c457fef43be836e285d13c55fdebf8506bbfb77d531f6"
        )

    def test_spal5_star_matches_permutation_oracle(self):
        h = make("SPal5_star")
        assert root_orbits(h) == permutation_orbits(h)

    def test_random_graphs_match_permutation_oracle(self):
        # connected and disconnected, sparse and dense, up to 7 vertices
        rng = random.Random(107)
        graphs = [random_connected_signed_graph(rng, 1, 7) for _ in range(100)]
        graphs += [
            disjoint_union(random_connected_signed_graph(rng, 1, 3),
                           random_connected_signed_graph(rng, 1, 4))
            for _ in range(40)
        ]
        for _ in range(20):
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            graphs.append(build(n, random_signature(rng, pairs)))
        for h in graphs:
            assert root_orbits(h) == permutation_orbits(h)


class TestLiteralOrbits:
    def test_empty_path_is_the_root_domain(self):
        # the least literal of each orbit of the whole group, against every
        # switching automorphism tried; order 7 stays on the sha256 pin
        for h in [t for k in range(1, 7) for t in enumerate_targets(k)] + [
                make("SPal5_star")]:
            expected = stabilizer_reps(h, switching_automorphisms(h), 0)
            assert _LiteralOrbits(h)[0] == expected

    def test_every_fixed_set_matches_brute_force(self):
        # every subset T of the vertices of the targets of order <= 5 and
        # of small random graphs, some disconnected (each component of
        # which can be switched alone)
        rng = random.Random(131)
        graphs = [t for k in range(1, 6) for t in enumerate_targets(k)]
        graphs += [random_connected_signed_graph(rng, 1, 5) for _ in range(12)]
        graphs += [
            disjoint_union(random_connected_signed_graph(rng, 1, 2),
                           random_connected_signed_graph(rng, 1, 3))
            for _ in range(8)
        ]
        graphs += [build(4, [(0, 1, 1), (2, 3, -1)]), build(3, [])]
        for h in graphs:
            automorphisms = switching_automorphisms(h)
            expected = [stabilizer_reps(h, automorphisms, fixed)
                        for fixed in range(1 << h.n)]
            # asked upwards, the first chain starts with nothing known;
            # asked downwards, chains stop at supersets already known
            for sets in (range(1 << h.n), reversed(range(1 << h.n))):
                orbits = _LiteralOrbits(h)
                for fixed in sets:
                    assert orbits[fixed] == expected[fixed]

    def test_orbit_pass_walks_no_group(self):
        # K9+ has 9! switching automorphisms (twice that with the global
        # switch); one per coset of each stabilizer is at most 9 + 8 + ...
        for name in ("K_plus", "K_minus"):
            h = make(name, 9)
            assert root_orbits(h) == [0]
            orbits = _LiteralOrbits(h)
            assert orbits[0] == 1
            # both literals of 0 and 1, and of 2 as the least of the rest
            assert orbits[0b11] == (1 << 6) - 1


class TestEdgeMasks:
    def test_match_pairwise_loop(self):
        rng = random.Random(137)
        path = build(200, [(v, v + 1, rng.choice((1, -1))) for v in range(199)])
        graphs = [t for k in range(1, 8) for t in enumerate_targets(k)]
        for h in graphs + [make("SPal5_star"), path]:
            assert _edge_masks(h) == pairwise_edge_masks(h)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "name,length,expected",
        [("BC", 4, 2), ("BC", 3, 3), ("UC", 4, 4), ("UC", 3, 3),
         ("BC", 6, 2), ("UC", 5, 3), ("BC", 400, 2), ("UC", 201, 3),
         ("BC", 201, 3)],
    )
    def test_cycles(self, name, length, expected):
        cert = chromatic_number(make(name, length))
        assert cert.k == expected
        assert validate(make(name, length), cert.target, cert.hom)

    def test_matches_naive_oracle_sample(self):
        rng = random.Random(57)
        for _ in range(40):
            g = random_connected_signed_graph(rng, 2, 5)
            cert = chromatic_number(g)
            assert cert.k == naive_chromatic_number(g)

    def test_disconnected_sources_match_naive_oracle(self):
        rng = random.Random(83)
        for _ in range(30):
            a = random_connected_signed_graph(rng, 1, 4)
            b = random_connected_signed_graph(rng, 1, 7 - a.n)
            g = disjoint_union(a, b)
            cert = chromatic_number(g)
            assert cert.k == naive_chromatic_number(g)
            assert validate(g, cert.target, cert.hom)

    def test_long_path_does_not_recurse(self):
        # 1500 vertices in one component: past Python's recursion limit
        rng = random.Random(89)
        g = build(1500, [(v, v + 1, rng.choice((1, -1))) for v in range(1499)])
        cert = chromatic_number(g)
        assert cert.k == 2
        assert validate(g, cert.target, cert.hom)

    def test_certificate_evidence_covers_smaller_orders(self):
        cert = chromatic_number(make("UC", 4))
        base = cert.lower_bound_evidence["underlying_chromatic"]
        exhausted = cert.lower_bound_evidence["exhausted_orders"]
        for k in range(1, cert.k):
            assert k < base or k in exhausted

    def test_lo_hi_window(self):
        with pytest.raises(BoundExceededError) as exc:
            chromatic_number(make("UC", 4), hi=3)
        assert exc.value.lo >= 4

    def test_raised_lo_is_the_proven_bound(self):
        # the underlying bound alone for BC4, and one past the refuted
        # orders 2 and 3 for UC4
        for name, hi, lo in (("BC", 1, 2), ("UC", 3, 4)):
            with pytest.raises(BoundExceededError) as exc:
                chromatic_number(make(name, 4), hi=hi)
            assert (exc.value.lo, exc.value.hi) == (lo, None)

    def test_needs_a_vertex(self):
        # a bad argument, not a resource guard: the CLI exits 2, not 4
        with pytest.raises(BadParameterError):
            chromatic_number(build(0, []))

    def test_underlying_lower_bound(self):
        assert underlying_chromatic_lower_bound(make("K_plus", 5)) == 5
        assert underlying_chromatic_lower_bound(make("BC", 5)) == 3
        assert underlying_chromatic_lower_bound(build(3, [])) == 1
        assert underlying_chromatic_lower_bound(build(0, [])) == 0
        # a bound, not the underlying chi: the odd wheel has clique 3, chi 4
        assert underlying_chromatic_lower_bound(_odd_wheel()) == 3

    def test_odd_wheel_refutes_the_order_below(self):
        w5 = _odd_wheel()
        cert = chromatic_number(w5)
        assert cert.k == 4 == naive_chromatic_number(w5)
        assert validate(w5, cert.target, cert.hom)
        assert cert.lower_bound_evidence["exhausted_orders"] == {3: 2}

    def test_underlying_lower_bound_sees_odd_cycles_past_20(self):
        # the greedy clique gives 2 on all three; only the ones with an
        # odd cycle are lifted to 3
        uc6_uc5, _ = cartesian_product(make("UC", 6), make("UC", 5))
        assert uc6_uc5.n == 30
        assert underlying_chromatic_lower_bound(uc6_uc5) == 3
        assert underlying_chromatic_lower_bound(make("BC", 22)) == 2
        assert underlying_chromatic_lower_bound(make("UC", 23)) == 3


def _odd_wheel():
    """W5: a hub joined to every vertex of a positive 5-cycle."""
    rim = [(v, v % 5 + 1, 1) for v in range(1, 6)]
    return build(6, rim + [(0, v, 1) for v in range(1, 6)])


class TestSignedIsomorphic:
    def test_relabeled_switched_copy(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_connected_signed_graph(rng, 2, 6)
            perm = list(range(g.n))
            rng.shuffle(perm)
            x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            h = switch(
                build(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges]), x
            )
            assert signed_isomorphic(g, h)

    def test_distinguishes_classes(self):
        assert not signed_isomorphic(make("BC", 4), make("UC", 4))
        assert not signed_isomorphic(make("BC", 4), make("BC", 5))

    def test_empty_graphs(self):
        assert signed_isomorphic(build(0, []), build(0, []))

    def test_switching_iso_beyond_permutation(self):
        # two triangles joined by a bridge, with the unbalanced triangle on
        # opposite sides: not a switch of each other, but isomorphic
        bones = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        a = build(6, [(u, v, -1 if (u, v) == (0, 1) else 1) for u, v in bones])
        b = build(6, [(u, v, -1 if (u, v) == (4, 5) else 1) for u, v in bones])
        assert equivalent(a, b) is None
        assert signed_isomorphic(a, b)

    def test_matches_backtracking_oracle(self):
        # relabelled-and-switched copies, the same with one edge flipped or
        # deleted, disjoint unions, and degree-preserving edge swaps
        rng = random.Random(127)

        def relabel_switch(g):
            perm = list(range(g.n))
            rng.shuffle(perm)
            x = [v for v in range(g.n) if rng.random() < 0.5]
            return switch(build(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges]), x)

        def flip_one(g):
            i = rng.randrange(g.m)
            return build(g.n, [(u, v, -s if j == i else s)
                               for j, (u, v, s) in enumerate(g.edges)])

        def drop_one(g):
            i = rng.randrange(g.m)
            return build(g.n, g.edges[:i] + g.edges[i + 1:])

        def swap_edges(g):
            # ab, cd -> ac, bd keeps every degree; None when no swap fits
            for _ in range(20):
                (a, b, s), (c, d, t) = rng.sample(g.edges, 2)
                if len({a, b, c, d}) == 4 and not g.has_edge(a, c) \
                        and not g.has_edge(b, d):
                    rest = [e for e in g.edges if e[:2] not in ((a, b), (c, d))]
                    return build(g.n, rest + [(a, c, s), (b, d, t)])
            return None

        pairs = []
        for _ in range(150):
            g = random_connected_signed_graph(rng, 2, 8)
            h = relabel_switch(g)
            pairs += [(g, h), (g, flip_one(h)), (g, drop_one(h))]
        for _ in range(60):
            a = random_connected_signed_graph(rng, 2, 4)
            b = random_connected_signed_graph(rng, 2, 4)
            g = disjoint_union(a, b)
            h = relabel_switch(disjoint_union(b, a))
            pairs += [(g, h), (g, flip_one(h))]
        while len(pairs) < 750:
            g = random_connected_signed_graph(rng, 4, 8)
            h = swap_edges(g)
            if h is not None:
                pairs.append((g, relabel_switch(h)))
        answers = [signed_isomorphic(g, h) for g, h in pairs]
        assert answers == [backtrack_isomorphic(g, h) for g, h in pairs]
        assert min(answers.count(True), answers.count(False)) >= 100

    def test_order_cap(self):
        with pytest.raises(TooLargeError):
            signed_isomorphic(make("K_plus", 11), make("K_plus", 11))


class TestSRedundant:
    def test_vacuous_set(self):
        # neighbors of the K4 vertex in S are pairwise adjacent
        assert is_s_redundant(make("K_plus", 4), [0])

    def test_cycle_vertex_not_redundant(self):
        # in C5, neighbors of z are non-adjacent and no w closes a square
        assert not is_s_redundant(make("BC", 5), [0])

    def test_square_closure(self):
        g, = [make("BC", 4)]
        # z=0 has neighbors 1, 3; w=2 closes the all-positive square
        assert is_s_redundant(g, [0])
        # making the square unbalanced destroys redundancy
        assert not is_s_redundant(make("UC", 4), [0])

    def test_bad_set_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            is_s_redundant(make("BC", 4), [7])
