import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from sgw.constructions import make
from sgw.core import SignedGraph, build
from sgw.errors import DisconnectedError, InternalInvariantViolation, NoEdgesError
from sgw.factor_ordinary import factorize
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
    hand to s_decompose: each product or graph, switched."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    graphs = []
    for seed in seeds:
        for op in workloads.build("decompose", seed):
            graph, factors, x, _ = op.inputs
            graphs.append(switch(product_many(list(factors))[0] if factors else graph, x))
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
        # kept apart, the base layers' product is no switching of it
        g = flip_one(random.Random(34), product_many([make("BC", 5), make("BC", 7)])[0])
        monkeypatch.setattr(s_factor, "_joined_colors", each_color_apart)
        with pytest.raises(InternalInvariantViolation, match="no switching"):
            s_decompose(g)

    def test_errors(self):
        with pytest.raises(NoEdgesError):
            s_decompose(build(2, []))
        with pytest.raises(DisconnectedError):
            s_decompose(build(4, [(0, 1, 1), (2, 3, -1)]))
        with pytest.raises(NoEdgesError):
            is_s_prime(build(1, []))
        with pytest.raises(DisconnectedError):
            is_s_prime(build(4, [(0, 1, 1), (2, 3, -1)]))


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
        # pinned where the coordinates, the factor of each edge and each
        # factor's switching class equalled those of the BFS merge pass
        outputs = []
        for g in graphs:
            dec = s_decompose(g)
            outputs.append((dec.coords.coords, dec.factor_of_edge,
                            [canonical_form(f)[0] for f in dec.factors]))
            assert is_s_prime(g) == (len(dec.factors) == 1)
            rebuilt = reconstruct_product(dec.factors, dec.coords.coords)
            assert rebuilt == switch(g, dec.switch_set)
        assert digest(outputs) == "09b98a8520122d0f44fa241920d83fc6755845880590710be840a01b2dc66ae4"

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
        # pinned where every field equalled the pair-keyed decomposition's
        outputs = []
        for g in graphs:
            dec = s_decompose(g)
            outputs.append((dec.factors, dec.coords.factors, dec.coords.coords,
                            dec.switch_set, dec.factor_of_edge))
        assert digest(outputs) == "7d10f1f5c2d7fe4193f150dc0312128c3f8a78a79dac4dce6ffd3f053da7251b"
