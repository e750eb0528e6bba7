import random
from collections import Counter

import pytest

from sgw.constructions import make
from sgw.core import SignedGraph, build
from sgw.errors import DisconnectedError, NoEdgesError
from sgw.factor_ordinary import factorize
from sgw.homomorphism import signed_isomorphic
from sgw.product import product_many
from sgw.s_factor import is_s_prime, s_decompose
from sgw.switching import switch

from oracles import (
    lemma_is_s_prime,
    random_connected_signed_graph,
    random_signature,
    reconstruct_product,
)


def random_s_prime(rng, n_min=2, n_max=5):
    while True:
        g = random_connected_signed_graph(rng, n_min, n_max)
        if is_s_prime(g):
            return g


def flip_one(rng, g):
    i = rng.randrange(g.m)
    return SignedGraph(g.n, [(u, v, -s if j == i else s) for j, (u, v, s) in enumerate(g.edges)])


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
        assert set(dec.factor_of_edge) == set(g.underlying_edges())
        assert set(dec.factor_of_edge.values()) == set(range(len(dec.factors)))

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

    def test_debug_trace_records_done_events(self):
        trace = []
        s_decompose(make("BC", 4), debug_trace=trace)
        done = [v for ev, *rest in trace if ev == "done" for v in rest]
        assert sorted(done) == [0, 1, 2, 3]

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
