"""The one switching-flag pass and the k-ary product against the separate
searches and the pairwise fold they replace: the same outputs, byte for
byte, including the canonical representative and the witness walks."""

import random
from itertools import combinations

from sgw.core import SignedGraph
from sgw.homomorphism import _greedy_clique, underlying_chromatic_lower_bound
from sgw.product import cartesian_product, product_many
from sgw.switching import canonical_form, equivalent, is_balanced, switch

from oracles import (
    bfs_bipartite,
    bfs_canonical_form,
    bfs_equivalent,
    bfs_is_balanced,
    fold_product_many,
    pairwise_cartesian_product,
    random_signature,
)


def _random_graph(rng: random.Random, n: int) -> SignedGraph:
    """Any simple graph on n vertices: edgeless, sparse and disconnected,
    or dense."""
    p = rng.choice((0.0, 0.15, 0.35, 0.7))
    pairs = [uv for uv in combinations(range(n), 2) if rng.random() < p]
    return SignedGraph(n, random_signature(rng, pairs))


def _same_product(new, old):
    (g, cs), (g_old, cs_old) = new, old
    assert g.n == g_old.n and g.edges == g_old.edges
    assert cs.factors == cs_old.factors and cs.coords == cs_old.coords


def test_matches_the_separate_searches_and_the_fold():
    rng = random.Random(1100)
    small = []  # graphs on at most 5 vertices, drawn as product factors
    for i in range(1300):
        g = _random_graph(rng, i % 13)
        assert is_balanced(g) == bfs_is_balanced(g)
        assert canonical_form(g) == bfs_canonical_form(g)
        x = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        resigned = SignedGraph(g.n, random_signature(rng, g.underlying_edges()))
        for h in (switch(g, x), resigned):
            assert equivalent(g, h) == bfs_equivalent(g, h)
        if g.m:
            k = _greedy_clique(g)
            old_rule = 3 if k < 3 and not bfs_bipartite(g) else k
            assert underlying_chromatic_lower_bound(g) == old_rule
        if g.n <= 5:
            small.append(g)
        if i % 3 == 0 and small:
            factors = [rng.choice(small) for _ in range(rng.randint(1, 3))]
            _same_product(product_many(factors), fold_product_many(factors))
            a, b = rng.choice(small), rng.choice(small)
            _same_product(cartesian_product(a, b), pairwise_cartesian_product(a, b))
