import itertools
import random
from collections import Counter

import pytest

from sgw.constructions import make
from sgw.core import SignedGraph, build
from sgw.errors import DisconnectedError, InternalInvariantViolation, NoEdgesError
from sgw.factor_ordinary import _product_coloring, _prologue, factorize
from sgw.homomorphism import signed_isomorphic
from sgw.product import product_many
from sgw import s_factor
from sgw.s_factor import is_s_prime, s_decompose
from sgw.switching import canonical_form, switch

from test_factor_ordinary import parity_graphs

from oracles import (
    digest,
    lemma_is_s_prime,
    random_connected_signed_graph,
    random_signature,
    reconstruct_product,
)


def decompose_inputs(seeds):
    """The graphs that the decompose benchmark's operations for ``seeds``
    hand to s_decompose: each product or graph, switched by the
    operation's first random set.  The benchmark's seeded construction is
    copied here, so that its workloads may change without moving this
    test's pins."""
    graphs = []
    for seed in seeds:
        rng = random.Random(f"decompose/{seed}")
        unbalanced = itertools.cycle((True, False))

        def cycle(n):
            odd = next(unbalanced)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            if (signs.count(-1) % 2 == 1) != odd:
                signs[rng.randrange(n)] *= -1
            return SignedGraph(n, [(i, (i + 1) % n, signs[i]) for i in range(n)])

        def complete(p, sign=None):
            if sign is None:
                sign = -1 if next(unbalanced) else 1
            return SignedGraph(p, [(u, v, sign) for u in range(p) for v in range(u + 1, p)])

        def random_signs(g):
            return SignedGraph(g.n, random_signature(rng, g.underlying_edges()))

        k2 = complete(2, 1)
        products = [
            [cycle(8) for _ in range(4)],
            [k2] * 6 + [cycle(5), cycle(5)],
            [k2] * 7 + [cycle(7)],
            [complete(5), complete(6), cycle(11)],
            [cycle(7), cycle(11), cycle(13)],
            [cycle(31), cycle(37)],
        ]
        inputs = [product_many(factors)[0] for factors in products] + [
            flip_one(rng, product_many([cycle(10) for _ in range(3)])[0]),
            flip_one(rng, product_many([complete(5), cycle(11), cycle(13)])[0]),
            random_signs(product_many([cycle(9), cycle(11), complete(5, 1)])[0]),
            random_signs(product_many([k2] * 8)[0]),
        ]
        for p, b in ((503, 97), (1009, 211)):
            edges = sorted({(min(i, (i + d) % p), max(i, (i + d) % p))
                            for i in range(p) for d in (1, b)})
            inputs.append(SignedGraph(p, random_signature(random.Random(f"circulant/{p}"), edges)))
        for g in inputs:
            # each operation draws its switch set, then a set for its check
            x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            graphs.append(switch(g, x))
            for _ in range(g.n):
                rng.random()
    return graphs


def random_s_prime(rng, n_min=2, n_max=5):
    while True:
        g = random_connected_signed_graph(rng, n_min, n_max)
        if is_s_prime(g):
            return g


def flip_one(rng, g):
    i = rng.randrange(g.m)
    return SignedGraph(g.n, [(u, v, -s if j == i else s) for j, (u, v, s) in enumerate(g.edges)])


def each_color_apart(g, color, sizes, rank):
    """``_joined_colors`` that joins nothing."""
    return list(range(len(sizes)))


def not_called(*args):
    raise AssertionError("called")


class TestLandmarks:
    def test_uc4_is_s_prime(self):
        assert is_s_prime(make("UC", 4))

    def test_positive_c4_splits_into_k2_squared(self):
        dec = s_decompose(make("BC", 4))
        assert len(dec.factors) == 2
        k2p = make("K_plus", 2)
        assert all(signed_isomorphic(f, k2p) for f in dec.factors)

    def test_uc3_times_bc4_factor_sizes(self):
        g, _ = product_many([make("UC", 3), make("BC", 4)])
        dec = s_decompose(g)
        assert sorted(f.n for f in dec.factors) == [2, 2, 3]

    def test_single_edge_is_s_prime(self):
        assert is_s_prime(build(2, [(0, 1, 1)]))
        assert is_s_prime(build(2, [(0, 1, -1)]))

    def test_primes_stay_prime(self):
        for g in (make("BC", 5), make("UC", 5), make("K_minus", 4)):
            assert is_s_prime(g)


class TestSDecompose:
    def test_reconstruction_identity(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_connected_signed_graph(rng, 2, 8)
            dec = s_decompose(g)
            rebuilt = reconstruct_product(dec.factors, dec.coords.coords)
            assert rebuilt == switch(g, dec.switch_set)

    def test_factor_of_edge_covers_all_edges(self):
        g, _ = product_many([make("UC", 3), make("BC", 4)])
        dec = s_decompose(g)
        assert type(dec.factor_of_edge) is tuple and len(dec.factor_of_edge) == g.m
        assert set(dec.factor_of_edge) == set(range(len(dec.factors)))

    def test_factors_are_s_prime(self):
        rng = random.Random(31)
        for _ in range(25):
            parts = [random_s_prime(rng) for _ in range(2)]
            g, _ = product_many(parts)
            dec = s_decompose(g)
            assert all(is_s_prime(f) for f in dec.factors)

    def test_switching_input_keeps_factor_multiset(self):
        rng = random.Random(33)
        parts = [make("UC", 3), make("UC", 4)]
        g, _ = product_many(parts)
        base = s_decompose(g)
        for _ in range(10):
            x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            dec = s_decompose(switch(g, x))
            assert sorted(f.n for f in dec.factors) == sorted(
                f.n for f in base.factors
            )
            for f, b in zip(
                sorted(dec.factors, key=lambda f: f.n),
                sorted(base.factors, key=lambda f: f.n),
            ):
                assert signed_isomorphic(f, b)

    def test_unbalanced_ratio_is_a_bug(self, monkeypatch):
        # C5 x C7 with one edge flipped is s-prime: with its two colors
        # kept apart, the base layers' product is no switching of it; so
        # are the decompose benchmark's perturbed products
        g = flip_one(random.Random(34), product_many([make("BC", 5), make("BC", 7)])[0])
        scans = []
        monkeypatch.setattr(s_factor, "_joined_colors",
                            lambda *args: scans.append(1) or each_color_apart(*args))
        for h in [g] + decompose_inputs((1,))[6:10]:
            with pytest.raises(InternalInvariantViolation, match="no switching"):
                s_decompose(h)
        assert len(scans) == 5

    def test_balanced_ratio_reads_no_square(self, monkeypatch):
        # the decompose benchmark's six product signatures, switched: their
        # s-prime factors are the factors of each product
        monkeypatch.setattr(s_factor, "_joined_colors", not_called)
        found = [s_decompose(g) for g in decompose_inputs((1,))[:6]]
        assert [sorted((f.n, f.m) for f in dec.factors) for dec in found] == [
            [(8, 8)] * 4, [(2, 1)] * 6 + [(5, 5)] * 2, [(2, 1)] * 7 + [(7, 7)],
            [(5, 10), (6, 15), (11, 11)], [(7, 7), (11, 11), (13, 13)], [(31, 31), (37, 37)]]

    def test_unbalanced_ratio_takes_the_scanned_classes(self):
        # products of three factors with one edge flipped, which joins
        # every color, or with the copies of one first-factor edge flipped
        # at second coordinate 0, which joins the first two factors alone
        rng = random.Random(35)
        kinds = Counter()
        for i in range(60):
            parts = [random_connected_signed_graph(rng, 2, 4) for _ in range(3)]
            g, cs = product_many(parts)
            if i % 2:
                u, v, _ = rng.choice(parts[0].edges)
                flipped = {(cs.vertex((u, 0, c)), cs.vertex((v, 0, c))) for c in range(parts[2].n)}
                g = SignedGraph(g.n, [(a, b, -s if (a, b) in flipped else s) for a, b, s in g.edges])
            else:
                g = flip_one(rng, g)
            g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            color, sizes, rank, _ = _product_coloring(g, *_prologue(g))
            root = s_factor._joined_colors(g, color, sizes, rank)
            roots = sorted(set(root))
            assert s_decompose(g).factor_of_edge == tuple(roots.index(root[c]) for c in color)
            kinds[len(roots) == 1, len(roots) == len(sizes)] += 1
        assert kinds[True, False] >= 25 and kinds[False, False] >= 25

    def test_errors(self):
        with pytest.raises(NoEdgesError):
            s_decompose(build(2, []))
        with pytest.raises(DisconnectedError):
            s_decompose(build(4, [(0, 1, 1), (2, 3, -1)]))
        with pytest.raises(NoEdgesError):
            is_s_prime(build(1, []))
        with pytest.raises(DisconnectedError):
            is_s_prime(build(4, [(0, 1, 1), (2, 3, -1)]))
        # prime orders, which need no coloring when connected
        with pytest.raises(NoEdgesError):
            is_s_prime(build(5, []))
        with pytest.raises(DisconnectedError):
            is_s_prime(build(5, [(0, 1, 1)]))


class TestSPrimality:
    def test_matches_lemma_oracle(self):
        rng = random.Random(41)
        graphs = [random_connected_signed_graph(rng, 2, 9) for _ in range(200)]
        for _ in range(100):
            parts = [random_connected_signed_graph(rng, 2, 4) for _ in range(rng.randint(2, 3))]
            g, _ = product_many(parts)
            g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            signs = SignedGraph(g.n, random_signature(rng, g.underlying_edges()))
            graphs += [g, flip_one(rng, g), signs]
        answers = Counter()
        for g in graphs:
            prime = is_s_prime(g)
            assert prime == lemma_is_s_prime(g)
            if len(factorize(g).factors) >= 2:
                answers[prime] += 1
        assert min(answers[True], answers[False]) >= 50

    def test_prime_order_needs_no_coloring(self, monkeypatch):
        graphs = [make("UC", 7), make("K_minus", 5), decompose_inputs((1,))[-1]]
        monkeypatch.setattr(s_factor, "_product_coloring", not_called)
        assert all(is_s_prime(g) for g in graphs)

    def test_ten_factor_cube(self):
        q10, _ = product_many([make("K_plus", 2)] * 10)
        assert q10.n == 1024
        assert not is_s_prime(q10)
        assert len(s_decompose(q10).factors) == 10
        flipped = flip_one(random.Random(43), q10)
        assert is_s_prime(flipped)
        assert len(s_decompose(flipped).factors) == 1


def _base_layer(g, coords, c):
    """The input's layer of factor c through vertex 0, numbered by the
    c-th coordinate, with the input's signs."""
    layer = {u for u in range(g.n)
             if all(x == 0 for d, x in enumerate(coords[u]) if d != c)}
    return [(coords[u][c], coords[v][c], s) for u, v, s in g.edges
            if u in layer and v in layer]


class TestNegativeSquares:
    def test_matches_the_merge_pass(self):
        rng = random.Random(1200)
        graphs = [random_connected_signed_graph(rng, 2, 9) for _ in range(300)]
        for _ in range(200):
            parts = [random_connected_signed_graph(rng, 2, 4) for _ in range(rng.randint(2, 3))]
            g, _ = product_many(parts)
            g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            signs = SignedGraph(g.n, random_signature(rng, g.underlying_edges()))
            graphs += [g, flip_one(rng, g), signs]
        assert len(graphs) >= 900
        assert digest(graphs) == "9075b29d49806f6988897c2ac76f61c107a95ce881b715ebbcbc9508c91e4d3c"
        # the switch sets and the factor of each edge, pinned where they
        # equalled those of the BFS merge pass; the whole output, pinned
        # with each s-factor labelled in BFS order of its class layer
        fixed, outputs = [], []
        for g in graphs:
            dec = s_decompose(g)
            fixed.append((dec.switch_set, dec.factor_of_edge))
            outputs.append((dec.coords.coords, dec.factor_of_edge,
                            [canonical_form(f)[0] for f in dec.factors]))
            assert is_s_prime(g) == (len(dec.factors) == 1)
            rebuilt = reconstruct_product(dec.factors, dec.coords.coords)
            assert rebuilt == switch(g, dec.switch_set)
        assert digest(fixed) == "c094eb1fab5c780fa4974c5f15b277379240d3d792aa13c1d8ae93b70b27fef0"
        assert digest(outputs) == "fc98964419c38f556e32f0951750bb3983844145d5a423eed4d58a1f36093d41"

    def test_a_join_stays_local(self):
        rng = random.Random(1201)
        g, cs = product_many([make("UC", 5), make("BC", 7), make("UC", 3)])
        # the copies of UC5's edge 01 at BC7 coordinate 0, one per UC3 vertex
        flipped = {(cs.vertex((0, 0, c)), cs.vertex((1, 0, c))) for c in range(3)}
        g = SignedGraph(g.n, [(u, v, -s if (u, v) in flipped else s) for u, v, s in g.edges])
        g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
        dec = s_decompose(g)
        # the flips make the UC5-BC7 squares at them negative, but each
        # UC5-UC3 square holds two flipped edges or none
        assert sorted(f.n for f in dec.factors) == [3, 35]
        assert not is_s_prime(g)
        coords = dec.coords.coords
        for c, f in enumerate(dec.factors):
            assert f == SignedGraph(f.n, _base_layer(g, coords, c))
        # so the switch set leaves every base-layer vertex unswitched
        on_base = [u for u, cu in enumerate(coords) if sum(x > 0 for x in cu) <= 1]
        assert dec.switch_set.isdisjoint(on_base)


class TestClassLayers:
    def test_factor_vertices_in_bfs_order_of_their_class_layer(self):
        # vertex i of s-factor c is the i-th vertex that a BFS from vertex
        # 0 over the edges of class c reaches: on a balanced product, on a
        # partial join (UC5 x K3+ with one sign toggled, times BC5) and on
        # an s-prime perturbed product
        rng = random.Random(1500)
        balanced, _ = product_many([make("UC", 3), make("BC", 4), make("UC", 5)])
        balanced = switch(balanced, [v for v in range(balanced.n) if rng.random() < 0.5])
        p, _ = product_many([make("UC", 5), make("K_plus", 3)])
        toggled = SignedGraph(p.n, [(u, v, -s if j == 0 else s) for j, (u, v, s) in enumerate(p.edges)])
        partial, _ = product_many([toggled, make("BC", 5)])
        shapes = []
        for g in (balanced, partial, decompose_inputs((1,))[6]):
            dec = s_decompose(g)
            shapes.append([f.n for f in dec.factors])
            class_of = {(u, v): c for (u, v, _), c in zip(g.edges, dec.factor_of_edge)}
            for c, f in enumerate(dec.factors):
                layer, seen = [0], {0}
                for u in layer:
                    for w, _ in g.adjacency[u]:
                        if w not in seen and class_of[min(u, w), max(u, w)] == c:
                            seen.add(w)
                            layer.append(w)
                at = [dec.coords.vertex([i if d == c else 0 for d in range(len(dec.factors))])
                      for i in range(f.n)]
                assert at == layer
                assert f == SignedGraph(f.n, _base_layer(g, dec.coords.coords, c))
        assert shapes == [[5, 2, 2, 3], [5, 15], [1000]]

    def test_classes_that_do_not_coordinatize_are_a_bug(self, monkeypatch):
        # only the second coordinatization, of the joined colors, is refused
        monkeypatch.setattr(s_factor, "_coordinatize", lambda *args: None)
        assert len(s_decompose(product_many([make("UC", 3), make("BC", 4)])[0]).factors) == 3
        with pytest.raises(InternalInvariantViolation, match="joined colors did not coordinatize"):
            s_decompose(make("UC", 4))


class TestPerturbedParityProducts:
    def test_lemma_and_reconstruction(self):
        # the factorization parity set's products (relabelled, some with an
        # edge toggled, twisted prisms times a graph), switched at random,
        # with one sign flipped and with random signs
        rng = random.Random(1400)
        products = [g for g in parity_graphs(random.Random(47))[600:]
                    if g.n <= 40 and len(factorize(g).factors) >= 2][::3]
        answers = Counter()
        for g in products:
            g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            for h in (g, flip_one(rng, g),
                      SignedGraph(g.n, random_signature(rng, g.underlying_edges()))):
                prime = is_s_prime(h)
                assert prime == lemma_is_s_prime(h)
                dec = s_decompose(h)
                assert prime == (len(dec.factors) == 1)
                assert reconstruct_product(dec.factors, dec.coords.coords) == switch(h, dec.switch_set)
                answers[prime] += 1
        assert min(answers[True], answers[False]) >= 40


class TestPairKeyedParity:
    def test_matches_the_pair_keyed_decomposition(self):
        # products relabelled at random, so that the ordinary coordinates'
        # rank is not the vertex number
        rng = random.Random(1300)
        graphs = [random_connected_signed_graph(rng, 2, 9) for _ in range(80)]
        for _ in range(40):
            parts = [random_connected_signed_graph(rng, 2, 4) for _ in range(rng.randint(2, 3))]
            g, _ = product_many(parts)
            perm = rng.sample(range(g.n), g.n)
            g = SignedGraph(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges])
            g = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            signs = SignedGraph(g.n, random_signature(rng, g.underlying_edges()))
            graphs += [g, flip_one(rng, g), signs]
        assert len(graphs) == 200
        graphs += decompose_inputs((1, 2, 3))
        assert digest(graphs) == "78b777fc9b1665d61cf4b5d221801f220de91608960de77802c25a238c505e5a"
        # the switch sets and the factor of each edge, pinned where every
        # field equalled the pair-keyed decomposition's; the whole output,
        # pinned with each s-factor labelled in BFS order of its class layer
        fixed, outputs = [], []
        for g in graphs:
            dec = s_decompose(g)
            fixed.append((dec.switch_set, dec.factor_of_edge))
            outputs.append((dec.factors, dec.coords.factors, dec.coords.coords,
                            dec.switch_set, dec.factor_of_edge))
        assert digest(fixed) == "139668ded0775dc3a8a342666de9b94e7f47b0d7f987a81e382d0c58e0722bf7"
        assert digest(outputs) == "49ef01c0fe185179477b218f2225a4f9ceca341069a9871ef71b079b7c8d874e"
