import random

import pytest

from sgw import factor_ordinary
from sgw.constructions import make
from sgw.core import SignedGraph, bfs_order, build, is_connected
from sgw.errors import DisconnectedError, InternalInvariantViolation, NoEdgesError
from sgw.factor_ordinary import (
    DisjointSet,
    OrdinaryDecomposition,
    factorize,
    is_prime_ordinary,
)
from sgw.product import CoordinateSystem, product_many
from sgw.s_factor import s_decompose

from oracles import (
    brute_force_is_prime,
    digest,
    nearest_layer_positions,
    nearest_projection_coords,
    pair_keyed,
    product_relation_classes,
    random_connected_signed_graph,
    random_signature,
    reconstruct_product,
    wagner,
)


THETA_STAR_PINS = {  # per m: input and output digests
    3: ("fe0e3005b96b007cced59d27cba77ef25d94b42b26cbafe586162f61e4760eb5",
        "0e6ebc25b5f1936b3a6860aecfb4c2c5626edbef72ee65f9e71faadc5a074060"),
    16: ("7fea57d5018feb412e8279f9d08e710657ee612de48a8d03fea615a040878273",
         "3a91377f7548da6614187e63a9b1497123c444ac24928e4fb28d23a1ef3d34db"),
}


PASSES = ("_root_joins", "_tau", "_theta_star", "_theta_tree")  # factorize's, in order


def all_positive(g: SignedGraph) -> SignedGraph:
    return g.with_signs({(u, v): 1 for u, v, _ in g.edges})


def circulant(p: int, b: int) -> SignedGraph:
    pairs = {(min(i, (i + d) % p), max(i, (i + d) % p))
             for i in range(p) for d in (1, b)}
    return SignedGraph(p, [(u, v, 1) for u, v in sorted(pairs)])


def toggle_edge(rng: random.Random, g: SignedGraph) -> SignedGraph:
    """g with one random vertex pair's adjacency flipped."""
    u, v = sorted(rng.sample(range(g.n), 2))
    pairs = {(a, b) for a, b, _ in g.edges} ^ {(u, v)}
    return SignedGraph(g.n, [(a, b, 1) for a, b in sorted(pairs)])


def signed_prism(g: SignedGraph) -> SignedGraph:
    """Two copies of g joined by the rungs (v, 0)(v, 1), vertex (v, i) being
    2v + i; a negative edge of g crosses between the copies.  Its
    underlying graph is g's times K2 when g is balanced, and a twisted
    product, such as the Mobius ladder, when it is not."""
    edges = [(2 * v, 2 * v + 1, 1) for v in range(g.n)]
    for u, v, s in g.edges:
        edges += [(2 * u + i, 2 * v + (i if s > 0 else 1 - i), 1) for i in (0, 1)]
    return SignedGraph(2 * g.n, [(min(a, b), max(a, b), s) for a, b, s in edges])


def relabel(rng: random.Random, g: SignedGraph) -> SignedGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SignedGraph(g.n, [(min(perm[u], perm[v]), max(perm[u], perm[v]), s)
                             for u, v, s in g.edges])


def edge_ids(g: SignedGraph):
    """Per vertex, neighbor -> edge id, as factorize builds them."""
    eid = [{} for _ in range(g.n)]
    for idx, (u, v, _) in enumerate(g.edges):
        eid[u][v] = eid[v][u] = idx
    return eid


def union_labels(m: int, pairs):
    """DisjointSet.labels after a plain union of each pair."""
    ds = DisjointSet(m)
    for x, y in pairs:
        ds.union(x, y)
    return ds.labels()


def coordinatize_with(g: SignedGraph, classes):
    """Run the coordinate extraction on g under a hand-made edge coloring."""
    eid = edge_ids(g)
    ds = DisjointSet(g.m)
    for (a, b), *rest in classes:
        for u, v in rest:
            ds.union(eid[a][b], eid[u][v])
    return factor_ordinary._coordinatize(g, eid, ds.labels(), *bfs_order(g, 0))


def decoded(found) -> OrdinaryDecomposition:
    """The extraction's (color, sizes, rank, pairs) as a decomposition: each
    rank decoded digit by digit, the last digit least significant, and
    each factor built from its pairs."""
    color, sizes, rank, pairs = found

    def digits(r):
        out = []
        for size in reversed(sizes):
            r, d = divmod(r, size)
            out.append(d)
        assert r == 0
        return tuple(reversed(out))

    factors = tuple(SignedGraph(size, [(a, b, 1) for a, b in edges if a < b])
                    for size, edges in zip(sizes, pairs))
    return OrdinaryDecomposition(factors, CoordinateSystem(factors, tuple(map(digits, rank))),
                                 tuple(color))


def coordinatized(g: SignedGraph, color):
    """The library's coordinate extraction on g under the edge coloring
    ``color``, a color per edge id, as a decomposition, or None."""
    ds = DisjointSet(g.m)
    first = {}
    for idx, c in enumerate(color):
        ds.union(first.setdefault(c, idx), idx)
    found = factor_ordinary._coordinatize(g, edge_ids(g), ds.labels(), *bfs_order(g, 0))
    return None if found is None else decoded(found)


class TestDisjointSet:
    def test_union_find(self):
        ds = DisjointSet(5)
        assert ds.union(0, 1)
        assert ds.union(3, 4)
        assert not ds.union(1, 0)  # already joined
        assert ds.find(0) == ds.find(1)
        assert ds.find(3) == ds.find(4)
        assert ds.find(0) != ds.find(3)
        ds.union(1, 4)
        assert ds.find(0) == ds.find(3)
        assert ds.find(2) == 2

    def test_join_matches_union(self):
        # join hangs a root under its partner's parent when that is less;
        # the classes, numbered by least member, must come out the same
        rng = random.Random(83)
        for _ in range(500):
            n = rng.randint(1, 30)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            ds, cut = DisjointSet(n), rng.randint(0, len(pairs))
            ds.join(pairs[:cut])
            ds.join(iter(pairs[cut:]))
            assert ds.labels() == union_labels(n, pairs)
            assert all(p <= x for x, p in enumerate(ds.parent))


class TestFactorize:
    def test_c4_splits_into_two_k2(self):
        dec = factorize(make("BC", 4))
        assert sorted(f.n for f in dec.factors) == [2, 2]
        assert all(f.negative_edges() == () for f in dec.factors)

    def test_signs_ignored(self):
        # UC4 has the same underlying graph as C4, so it still splits
        dec = factorize(make("UC", 4))
        assert sorted(f.n for f in dec.factors) == [2, 2]

    @pytest.mark.parametrize("name,n", [("BC", 3), ("BC", 5), ("BC", 6),
                                        ("K_plus", 4), ("K_plus", 5)])
    def test_primes(self, name, n):
        assert is_prime_ordinary(make(name, n))

    def test_edge_color_partitions_edges(self):
        g, _ = product_many([make("BC", 3), make("K_plus", 2)])
        dec = factorize(g)
        assert type(dec.edge_color) is tuple and len(dec.edge_color) == g.m
        assert set(dec.edge_color) == set(range(len(dec.factors)))

    def test_coordinates_reconstruct_underlying(self):
        rng = random.Random(13)
        for _ in range(40):
            factors = [
                random_connected_signed_graph(rng, 2, 4) for _ in range(2)
            ]
            g, _ = product_many(factors)
            dec = factorize(g)
            rebuilt = reconstruct_product(dec.factors, dec.coords.coords)
            assert rebuilt == all_positive(g)

    def test_recovers_prime_factor_counts(self):
        rng = random.Random(17)
        for _ in range(30):
            parts = []
            while len(parts) < 2:
                cand = random_connected_signed_graph(rng, 2, 5)
                if is_prime_ordinary(cand):
                    parts.append(cand)
            g, _ = product_many(parts)
            dec = factorize(g)
            assert sorted(f.n for f in dec.factors) == sorted(p.n for p in parts)

    def test_hypercube_q3(self):
        g, _ = product_many([make("K_plus", 2)] * 3)
        dec = factorize(g)
        assert [f.n for f in dec.factors] == [2, 2, 2]

    def test_errors(self):
        with pytest.raises(NoEdgesError):
            factorize(build(3, []))
        with pytest.raises(DisconnectedError):
            factorize(build(4, [(0, 1, 1), (2, 3, 1)]))
        with pytest.raises(DisconnectedError):
            is_prime_ordinary(build(4, [(0, 1, 1), (2, 3, 1)]))

    def test_no_coloring_that_coordinatizes_is_a_bug(self, monkeypatch):
        # sigma always coordinatizes, so the last pass failing is a bug
        monkeypatch.setattr(factor_ordinary, "_coordinatize", lambda *args: None)
        with pytest.raises(InternalInvariantViolation, match="did not coordinatize"):
            factorize(make("BC", 4))


class TestCoordinates:
    def test_match_nearest_projection_oracle(self):
        rng = random.Random(29)
        graphs = []
        for _ in range(60):
            factors = [
                rng.choice((make("BC", rng.randint(3, 7)),
                            make("K_plus", rng.randint(2, 5))))
                for _ in range(rng.randint(2, 3))
            ]
            g, _ = product_many(factors)
            flipped = toggle_edge(rng, g)
            graphs += [g, random_connected_signed_graph(rng, 2, 12)]
            if is_connected(flipped):
                graphs.append(flipped)
        graphs += [circulant(p, b) for p in (11, 13, 29, 31, 101)
                   for b in (2, 3, 5, 7)]
        for g in graphs:
            dec = factorize(g)
            assert list(dec.coords.coords) == nearest_projection_coords(
                g, pair_keyed(g, dec.edge_color))

    def test_tie_rejects_coloring(self):
        # C6 with {01, 34} colored apart from the rest: the layers through 0
        # are [0, 1] and [0, 5, 4], so 2 x 3 = 6 vertices, but vertex 2 is
        # at distance 2 from both 0 and 4
        g = make("BC", 6)
        assert coordinatize_with(g, [[(0, 1), (3, 4)],
                                     [(1, 2), (2, 3), (4, 5), (0, 5)]]) is None
        assert nearest_layer_positions(g, [0, 5, 4]) is None

    def test_sweep_matches_frozen_coordinates_on_any_coloring(self, monkeypatch):
        # the sweep alone may reject, when a vertex has no second color
        # below it; the exact check decides the rest, so the result on
        # every coloring, product or not, is pinned where it equalled the
        # frozen extraction's: a decomposition or None
        rejected = []
        sweep = factor_ordinary._sweep

        def recording(eid, color, layers, stride, order, dist):
            rank = sweep(eid, color, layers, stride, order, dist)
            rejected.append(rank is None)
            return rank

        monkeypatch.setattr(factor_ordinary, "_sweep", recording)
        rng = random.Random(61)
        graphs = [random_connected_signed_graph(rng, 2, 10) for _ in range(100)]
        graphs += [relabel(rng, product_many([random_connected_signed_graph(rng, 2, 4)
                                              for _ in range(rng.randint(2, 3))])[0])
                   for _ in range(300)]
        assert digest(graphs) == "37b7743b1020a88f6d1dc30035dc3b4b48b2128dc4b4d31218c1d779c72f6873"
        colorings = [(make("BC", 6), [0, 1, 1, 1, 0, 1])]  # the tie above
        for g in graphs:
            sigma = list(factorize(g).edge_color)
            k = max(sigma) + 1
            parts = rng.randint(1, 4)
            colorings.append((g, [rng.randrange(parts) for _ in range(g.m)]))
            c = rng.choice(sigma)  # one class split in two
            colorings.append((g, [k if x == c and rng.random() < 0.5 else x for x in sigma]))
            if k >= 2:  # two classes merged, and one edge moved to another
                i, j = rng.sample(range(k), 2)
                colorings.append((g, [i if x == j else x for x in sigma]))
                e = rng.randrange(g.m)
                colorings.append((g, [x if d != e else (x + 1) % k
                                      for d, x in enumerate(sigma)]))
        found = [coordinatized(g, color) for g, color in colorings]
        # sigma's variants are outputs too, so each coloring is pinned with its result
        outputs = [(color, dec and (dec.factors, dec.coords.coords, dec.edge_color))
                   for (_, color), dec in zip(colorings, found)]
        assert digest(outputs) == "3533dd545c5a4fe2dac1a4c79a0ff3f7fad29d8f6fda6c5a3087a0f2bb9d0616"
        assert sum(dec is not None for dec in found) >= 300
        assert sum(rejected) >= 10

    def test_other_digit_check_refuses_a_moved_edge(self):
        # C3 x C3, vertex (a, b) being 3a + b, with edge (4, 5) moved to
        # (2, 4): colored by the coordinate each old edge changes, and the
        # new edge 0, it passes the sweep, the distinct ranks, the edge
        # count and the factor pairs, but (0, 2) -> (1, 1) changes both
        # digits, which only the other-digit half of the edge test sees
        g, _ = product_many([make("BC", 3)] * 2)
        edges = sorted({(u, v) for u, v, _ in g.edges} - {(4, 5)} | {(2, 4)})
        moved = SignedGraph(9, [(u, v, 1) for u, v in edges])
        color = [0 if (u, v) == (2, 4) or u // 3 != v // 3 else 1 for u, v in edges]
        assert factor_ordinary._coordinatize(moved, edge_ids(moved), color,
                                             *bfs_order(moved, 0)) is None

    def test_layer_sizes_not_multiplying_to_n_raise_first(self, monkeypatch):
        def unreachable(eid, color, layers, stride, order, dist):
            raise AssertionError("projection ran after a size mismatch")

        monkeypatch.setattr(factor_ordinary, "_sweep", unreachable)
        # {01} alone: layers of 2 and 6 vertices, 12 != 6
        g = make("BC", 6)
        assert coordinatize_with(g, [[(0, 1)],
                                     [(0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]]) is None


class TestProductRelation:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("other", ["K2", "P3", "C5", "M3"])
    def test_mobius_ladder_products_factor(self, n, other):
        # the square rules leave the Mobius ladder's rungs apart from its
        # rim, so the seed coloring of M x H is no product coloring
        mobius = signed_prism(make("UC", n))
        h = {"K2": make("K_plus", 2), "P3": build(3, [(0, 1, 1), (1, 2, 1)]),
             "C5": make("BC", 5), "M3": signed_prism(make("UC", 3))}[other]
        g, _ = product_many([mobius, h])
        dec = factorize(g)
        assert sorted(f.n for f in dec.factors) == sorted([mobius.n, h.n])
        assert not is_prime_ordinary(g)
        assert len(s_decompose(g).factors) >= 2

    def test_prime_order_is_one_color_without_seeding(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a graph of prime order was colored")

        for name in PASSES:
            monkeypatch.setattr(factor_ordinary, name, unreachable)
        for g in (circulant(31, 7), circulant(101, 5), make("K_plus", 5)):
            dec = factorize(g)
            assert [f.n for f in dec.factors] == [g.n]
            assert set(dec.edge_color) == {0}

    def test_coloring_is_feder_product_relation(self):
        rng = random.Random(43)
        graphs = [random_connected_signed_graph(rng, 2, 10) for _ in range(80)]
        graphs += [relabel(rng, signed_prism(random_connected_signed_graph(rng, 2, 6)))
                   for _ in range(40)]
        for _ in range(40):
            g = relabel(rng, product_many([random_connected_signed_graph(rng, 2, 4)
                                           for _ in range(rng.randint(2, 3))])[0])
            flipped = toggle_edge(rng, g)
            graphs += [g] + [flipped] * is_connected(flipped)
        # twisted prisms times a factor, where the seeds are sometimes no
        # product coloring
        graphs += [relabel(rng, product_many([
            signed_prism(random_connected_signed_graph(rng, 3, 6)),
            random_connected_signed_graph(rng, 2, 3)])[0]) for _ in range(60)]
        for g in graphs:
            classes = {}
            for e, c in zip(g.underlying_edges(), factorize(g).edge_color):
                classes.setdefault(c, set()).add(e)
            assert {frozenset(cls) for cls in classes.values()} == product_relation_classes(g)

    def test_theta_recovers_square_rule_coloring(self, monkeypatch):
        # tau alone (adjacent edges on no common chordless square are
        # joined), with no pass from the root, leaves it to the theta pass
        # to reach sigma
        rng = random.Random(41)
        graphs = []
        for _ in range(120):
            factors = [random_connected_signed_graph(rng, 2, 4)
                       for _ in range(rng.randint(1, 3))]
            graphs.append(relabel(rng, product_many(factors)[0]))
        expected = [factorize(g).edge_color for g in graphs]

        theta_runs = []
        theta_star = factor_ordinary._theta_star

        def counting(g, *args):
            theta_runs.append(g)
            yield from theta_star(g, *args)

        # no pass from the root: every edge its own color
        monkeypatch.setattr(factor_ordinary, "_root_joins", lambda *args: iter(()))
        monkeypatch.setattr(factor_ordinary, "_theta_star", counting)
        for g, edge_color in zip(graphs, expected):
            assert factorize(g).edge_color == edge_color
        assert len(theta_runs) > len(graphs) // 2


class TestThetaStar:
    @pytest.mark.parametrize("m", [3, 16, 128])
    def test_theta_stops_at_the_star(self, monkeypatch, m):
        # the square rules keep M8's rungs apart from its rim, so theta
        # runs, and its joins at the star at 0 already give sigma: one
        # BFS for factorize, then one per neighbor of 0, not n
        runs = []

        def counting(g, root):
            runs.append(root)
            return bfs_order(g, root)

        monkeypatch.setattr(factor_ordinary, "bfs_order", counting)
        g, _ = product_many([wagner(), make("BC", m)])
        dec = factorize(g)
        assert sorted(f.n for f in dec.factors) == sorted([8, m])
        assert runs == [0] + list(g.neighbors(0))
        if m <= 16:
            # pinned where the coloring and coordinates equalled all-corners'
            inputs, outputs = THETA_STAR_PINS[m]
            assert digest(g) == inputs
            assert digest([dec.edge_color, dec.coords.coords]) == outputs

    def test_the_tree_is_needed(self, monkeypatch):
        # a prime graph on 8 vertices, the least order at which the star
        # can fall short (no connected graph on 4 or 6 vertices does): the
        # root, tau and the star each leave the same two colors, which do
        # not coordinatize, and only the rest of the tree joins them
        g = build(8, [(u, v, 1) for u, v in ((0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6),
                                               (3, 5), (3, 7), (4, 5), (5, 6), (6, 7))])
        assert brute_force_is_prime(g)
        passes = recorded_passes(monkeypatch, g)
        assert [name for name, *_ in passes] == list(PASSES)
        two = [0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1]
        assert [color for *_, color in passes] == [two] * 3 + [[0] * 11]
        assert coordinatized(g, two) is None
        assert [(f.n, f.m) for f in factorize(g).factors] == [(8, 11)]

    def test_full_theta_when_the_star_is_refused(self, monkeypatch):
        # the star does not always suffice (test_the_tree_is_needed): with
        # its coloring never tried, the rest of the tree must still give sigma
        refused = []
        theta_star, theta_tree = factor_ordinary._theta_star, factor_ordinary._theta_tree

        def refusing(g, *args):
            yield from theta_star(g, *args)  # joined, its coloring skipped
            refused.append(g)
            yield from theta_tree(g, *args)

        monkeypatch.setattr(factor_ordinary, "_theta_star", lambda *args: iter(()))
        monkeypatch.setattr(factor_ordinary, "_theta_tree", refusing)
        rng = random.Random(67)

        def twisted_prism():  # of a randomly signed cycle
            n = rng.randint(3, 7)
            cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            return relabel(rng, signed_prism(build(n, random_signature(rng, cycle))))

        graphs = [product_many([wagner(), make("BC", m)])[0] for m in (3, 4, 5)]
        graphs += [twisted_prism() for _ in range(60)]
        graphs += [relabel(rng, product_many([
            twisted_prism(), random_connected_signed_graph(rng, 2, 3)])[0]) for _ in range(40)]
        graphs += [relabel(rng, product_many([
            wagner(), random_connected_signed_graph(rng, 2, 4)])[0]) for _ in range(30)]
        assert digest(graphs) == "cfff8968b1524b2b7058d3515f6bd3d4358239ae51c4b2e24b16d02138f91aab"
        # pinned where coloring, coordinates and factors equalled all-corners'
        outputs = []
        for g in graphs:
            new = factorize(g)
            outputs.append((new.edge_color, new.coords.coords, new.factors))
        assert digest(outputs) == "d2e46ab8b546db6c44eadeda443298671747f584a110cb7c5049a5a2de11c18f"
        assert len(refused) >= 50


def recorded_passes(monkeypatch, g: SignedGraph):
    """Per pass that factorize runs on g, with the prime-order shortcut off:
    its name, its joins in order, as (edge, edge) pairs, and the coloring
    tried after it."""
    passes = []
    coordinatize = factor_ordinary._coordinatize

    def recording(name, joins_of):
        def joins(*args):
            passes.append([name, []])
            for join in joins_of(*args):
                passes[-1][1].append(join)
                yield join
        return joins

    def tried(g, eid, color, order, dist):
        passes[-1].append(color)
        return coordinatize(g, eid, color, order, dist)

    with monkeypatch.context() as patch:
        for name in PASSES:
            patch.setattr(factor_ordinary, name, recording(name, getattr(factor_ordinary, name)))
        patch.setattr(factor_ordinary, "_coordinatize", tried)
        patch.setattr(factor_ordinary, "_is_prime", lambda n: False)
        factor_ordinary._product_coloring(g, *factor_ordinary._prologue(g))
    return passes


def closure(g: SignedGraph, joins):
    """The union-find over g's edges after ``joins``, and the number of
    second joins of an edge off vertex 0 that merged two classes."""
    star = len(g.neighbors(0))
    ds, met, merges = DisjointSet(g.m), set(range(star)), 0
    for e, t in joins:
        assert t in met  # labelled before it is copied
        merges += ds.union(e, t) and e in met and e >= star
        met.add(e)
    return ds, merges


def parity_graphs(rng: random.Random):
    graphs = [random_connected_signed_graph(rng, 2, 12) for _ in range(600)]
    for _ in range(250):
        g = relabel(rng, product_many([random_connected_signed_graph(rng, 2, 4)
                                       for _ in range(rng.randint(2, 3))])[0])
        flipped = toggle_edge(rng, g)
        graphs += [g] + [flipped] * is_connected(flipped)
    for _ in range(150):
        prism = relabel(rng, signed_prism(random_connected_signed_graph(rng, 2, 6)))
        graphs += [prism, relabel(rng, product_many([
            prism, random_connected_signed_graph(rng, 2, 3)])[0])]
    graphs += [circulant(p, b) for p in (11, 13, 17, 19, 23, 29, 31,
                                         12, 15, 16, 20, 21, 24, 27, 30, 32, 35)
               for b in range(2, p // 2 + 1)]
    return graphs


class TestRootPass:
    def test_matches_all_corners(self, monkeypatch):
        # factorize returns the first coloring that coordinatizes, sigma's,
        # pinned where it equalled the all-corners factorization's; the
        # count shows that the fallback passes still run
        fallbacks = []
        tau = factor_ordinary._tau

        def counting(g, *args):
            fallbacks.append(g)
            return tau(g, *args)

        monkeypatch.setattr(factor_ordinary, "_tau", counting)
        graphs = parity_graphs(random.Random(47))
        assert digest(graphs) == "7efb4862364171e25bae30c326463f6aba3b78250792ee19c671af353e4e5c25"
        # pinned where coloring, coordinates and factors equalled all-corners'
        outputs = []
        for g in graphs:
            new = factorize(g)
            outputs.append((new.edge_color, new.coords.coords, new.factors))
        assert digest(outputs) == "603fddaa5de2eb1b0447d58acabac22d78d985e4f0f8357370dcd2f29640e0d2"
        assert len(graphs) >= 1500
        assert 0 < len(fallbacks) < len(graphs) // 4

    def test_joins_lie_in_the_product_relation(self, monkeypatch):
        # each join of every pass that runs checked against the naive
        # (theta | tau)*; the coloring after pass 1 is its joins' closure
        rng = random.Random(53)
        graphs = [g for g in parity_graphs(rng)[::4] if g.m <= 40]
        fallbacks, ran = 0, set()
        for g in graphs:
            passes = recorded_passes(monkeypatch, g)
            edges = g.underlying_edges()
            sigma = {e: cls for cls in product_relation_classes(g) for e in cls}
            for name, joins, _ in passes:
                ran.add(name)
                for x, y in joins:
                    assert sigma[edges[x]] is sigma[edges[y]]
            _, joins, color = passes[0]
            assert closure(g, joins)[0].labels() == color
            fallbacks += len(passes) > 1
        assert len(graphs) >= 300
        assert 0 < fallbacks < len(graphs) // 4
        assert ran >= {"_tau", "_theta_star"}  # natural fallbacks

    def test_level_edges_union_labels(self, monkeypatch):
        # odd cycles and complete graphs have level edges, both ends at one
        # distance from 0: the second end's join meets two labelled edges
        # and takes the union; elsewhere such a join merges two labels
        rng = random.Random(71)
        k, c = (lambda p: make("K_plus", p)), (lambda n: make("BC", n))
        products = [relabel(rng, product_many(parts)[0]) for parts in (
            [c(5), c(7)], [k(3), c(5)], [k(4), k(3), c(5)], [c(3), c(3), c(5)],
            [k(5), c(7)], [c(9), k(2)], [k(3), k(3), k(3)])]
        for g in products:
            _, joins, color = recorded_passes(monkeypatch, g)[0]
            star = len(g.neighbors(0))
            assert sum(e >= star for e, _ in joins) > g.m - star  # second ends
            classes = {}
            for e, col in zip(g.underlying_edges(), color):
                classes.setdefault(col, set()).add(e)
            assert {frozenset(cls) for cls in classes.values()} == product_relation_classes(g)
        merged = 0
        for g in parity_graphs(random.Random(73)):
            _, joins, color = recorded_passes(monkeypatch, g)[0]
            ds, merges = closure(g, joins)
            assert ds.labels() == color
            merged += merges > 0
        assert merged >= 50

    def test_refused_labels_seed_the_fallback(self, monkeypatch):
        # pass 1 without its joins at every other edge of one class splits
        # that class, so its coloring is finer than sigma and refused;
        # passes 2-4 start from its classes and still end at sigma
        seeded, tried = [], []
        root_joins, tau = factor_ordinary._root_joins, factor_ordinary._tau
        coordinatize = factor_ordinary._coordinatize

        def split(g, *args):
            joins = list(root_joins(g, *args))
            color = union_labels(g.m, joins)
            c = max(color, key=color.count)
            half = set([e for e, x in enumerate(color) if x == c][1::2])
            return iter([(e, t) for e, t in joins if e not in half and t not in half])

        def trying(g, eid, color, order, dist):
            tried.append(color)
            return coordinatize(g, eid, color, order, dist)

        def recording(g, *args):
            seeded.append((g, tried[-1]))
            return tau(g, *args)

        monkeypatch.setattr(factor_ordinary, "_root_joins", split)
        monkeypatch.setattr(factor_ordinary, "_coordinatize", trying)
        monkeypatch.setattr(factor_ordinary, "_tau", recording)
        rng = random.Random(79)
        graphs = [relabel(rng, product_many([random_connected_signed_graph(rng, 2, 4)
                                             for _ in range(rng.randint(1, 3))])[0])
                  for _ in range(80)]
        graphs += [product_many([wagner(), make("BC", 4)])[0]]
        graphs = [g for g in graphs if not factor_ordinary._is_prime(g.n)]
        assert digest(graphs) == "7bb61f8520331c6a48aedfa7d71738a3093b64cd9112cd57525b2e4d5c8d6b9e"
        # pinned where the coloring and coordinates equalled all-corners'
        outputs = []
        for g in graphs:
            new = factorize(g)
            outputs.append((new.edge_color, new.coords.coords))
        assert digest(outputs) == "b244e648ed24a378c63c7b681c651105f005ee00006cad8eb87287a46c9efce1"
        assert len(seeded) == len(graphs) >= 60
        for g, labels in seeded:
            eid, order, dist = edge_ids(g), *bfs_order(g, 0)
            assert labels == union_labels(g.m, split(g, eid, order, dist))

    def test_decides_products_alone(self, monkeypatch):
        # the decompose benchmark's shapes, and K4 x C6, whose edges at 0
        # lie on one 4-cycle and on a triangle
        def unreachable(*args):
            raise AssertionError("the pass from the root fell back")

        for name in PASSES[1:]:
            monkeypatch.setattr(factor_ordinary, name, unreachable)
        rng = random.Random(59)
        k2, c = make("K_plus", 2), lambda n: make("BC", n)
        for parts in ([c(8)] * 3, [k2] * 6 + [c(5)],
                      [make("K_plus", 5), make("K_plus", 6), c(11)],
                      [c(7), c(11), c(13)], [make("K_plus", 4), c(6)]):
            g, _ = product_many(parts)
            for h in (g, build(g.n, random_signature(rng, g.underlying_edges())),
                      relabel(rng, g)):
                dec = factorize(h)
                assert sorted(f.n for f in dec.factors) == sorted(p.n for p in parts)


class TestPrimalityOracle:
    def test_oracle_on_known_graphs(self):
        for g in (make("BC", 3), make("BC", 5), make("K_plus", 4),
                  build(2, [(0, 1, 1)])):
            assert brute_force_is_prime(g)
        for parts in ([make("K_plus", 2)] * 2, [make("BC", 3), make("K_plus", 2)],
                      [make("K_plus", 2)] * 3):
            assert not brute_force_is_prime(product_many(parts)[0])

    def test_is_prime_matches_exhaustive_split_check(self, monkeypatch):
        # the oracle tries every split of the edges into two classes, so
        # a fallback that stopped at a coarser product would show
        merges = []
        theta_star = factor_ordinary._theta_star

        def counting(g, *args):
            merges.append(g)
            yield from theta_star(g, *args)

        monkeypatch.setattr(factor_ordinary, "_theta_star", counting)
        rng = random.Random(37)
        graphs = [random_connected_signed_graph(rng, 2, 8) for _ in range(100)]
        # twisted prisms (the Mobius ladder among them): the square rules'
        # coloring is not a product coloring, so factorize joins in theta
        graphs += [relabel(rng, signed_prism(random_connected_signed_graph(rng, 2, 4)))
                   for _ in range(60)]
        graphs += [relabel(rng, signed_prism(build(4, random_signature(
            rng, [(0, 1), (1, 2), (2, 3), (0, 3)])))) for _ in range(40)]
        for parts in ([make("BC", 3), make("K_plus", 2)],
                      [make("BC", 4), make("K_plus", 2)],
                      [make("K_plus", 2)] * 3):
            g, _ = product_many(parts)
            graphs.append(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    pairs = {(a, b) for a, b, _ in g.edges} ^ {(u, v)}
                    graphs.append(SignedGraph(g.n, [(a, b, 1) for a, b in sorted(pairs)]))
        graphs = [g for g in graphs if 0 < g.m <= 12 and is_connected(g)]
        for g in graphs:
            assert is_prime_ordinary(g) == brute_force_is_prime(g)
        assert sum(not brute_force_is_prime(g) for g in graphs) > 3
        assert len(merges) >= 10
