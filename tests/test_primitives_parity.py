"""The one switching-flag pass and the k-ary product, pinned byte for byte
where they matched the separate searches and the pairwise fold they
replaced, including the canonical representative and the witness walks.
The graphs that switch, canonical_form and product_many build without
validation against the graphs __init__ builds from the same edges."""

import random
from itertools import combinations

import pytest

from sgw.core import SignedGraph
from sgw.errors import NotAWalkError
from sgw.homomorphism import underlying_chromatic_lower_bound
from sgw.product import cartesian_product, product_many
from sgw.switching import canonical_form, equivalent, is_balanced, switch

from oracles import digest, random_signature


def _random_graph(rng: random.Random, n: int) -> SignedGraph:
    """Any simple graph on n vertices: edgeless, sparse and disconnected,
    or dense."""
    p = rng.choice((0.0, 0.15, 0.35, 0.7))
    pairs = [uv for uv in combinations(range(n), 2) if rng.random() < p]
    return SignedGraph(n, random_signature(rng, pairs))


def test_matches_the_separate_searches_and_the_fold():
    rng = random.Random(1100)
    small = []  # graphs on at most 5 vertices, drawn as product factors
    inputs, outputs = [], []
    for i in range(1300):
        g = _random_graph(rng, i % 13)
        x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        resigned = SignedGraph(g.n, random_signature(rng, g.underlying_edges()))
        inputs.append((g, x, resigned))
        outputs.append((is_balanced(g), canonical_form(g),
                        [equivalent(g, h) for h in (switch(g, x), resigned)]))
        if g.m:
            outputs.append(underlying_chromatic_lower_bound(g))
        if g.n <= 5:
            small.append(g)
        if i % 3 == 0 and small:
            factors = [rng.choice(small) for _ in range(rng.randint(1, 3))]
            a, b = rng.choice(small), rng.choice(small)
            inputs.append((factors, a, b))
            for product, cs in (product_many(factors), cartesian_product(a, b)):
                outputs.append((product, cs.factors, cs.coords))
    assert digest(inputs) == "396a4a52fbb5aea0be0b1d42c9ee8162c6f60c77ae5f76bea90e20bf5f40457f"
    assert digest(outputs) == "6fe309f7e6253f4f82f5bddda112477eca1006582cc371558e4aa3a04421390b"


def _same_as_validated(g: SignedGraph):
    """``g`` against ``SignedGraph(g.n, list(g.edges))``, accessor by accessor."""
    ref = SignedGraph(g.n, list(g.edges))
    assert type(g.edges) is tuple and g.edges == ref.edges
    assert g.adjacency == ref.adjacency == tuple(
        tuple(sorted([(v, s) for u, v, s in g.edges if u == w]
                     + [(u, s) for u, v, s in g.edges if v == w]))
        for w in range(g.n)
    )
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == ref.has_edge(u, v)
            if ref.has_edge(u, v):
                assert g.sign(u, v) == ref.sign(u, v)
            else:
                with pytest.raises(NotAWalkError):
                    g.sign(u, v)
    assert hash(g) == hash(ref) and g == ref and ref == g


def _derived_graphs(seed: int, rounds: int):
    """Random inputs, each with its switch set and a short factor list."""
    rng = random.Random(seed)
    small = []  # the first graph, on 0 vertices, is one
    for i in range(rounds):
        g = _random_graph(rng, i % 9)
        if g.n <= 4:
            small.append(g)
        x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        factors = [rng.choice(small) for _ in range(rng.randint(1, 3))]
        yield g, x, factors


def test_unvalidated_graphs_match_validated_ones():
    for g, x, factors in _derived_graphs(1500, 400):
        _same_as_validated(switch(g, x))
        canon, y = canonical_form(g)
        _same_as_validated(canon)
        assert canon == switch(g, y)
        _same_as_validated(product_many(factors)[0])
    # lazy fields filled in the other order: hash first, then the sign map
    for g, x, factors in _derived_graphs(1501, 60):
        for h in (switch(g, x), product_many(factors)[0]):
            assert hash(h) == hash(SignedGraph(h.n, h.edges))
            assert all(h.sign(u, v) == s for u, v, s in h.edges)


def test_derived_graphs_skip_validation(monkeypatch):
    inputs = list(_derived_graphs(1502, 200))
    built = []
    init = SignedGraph.__init__

    def counting_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(SignedGraph, "__init__", counting_init)
    SignedGraph(2, [(0, 1, 1)])
    assert built == [2]  # the counter sees __init__
    built.clear()
    for g, x, factors in inputs:
        switch(g, x)
        canonical_form(g)
        product_many(factors)
        cartesian_product(factors[0], factors[-1])
    assert built == []
