import copy
import pickle
from collections import deque

import pytest
from hypothesis import given, strategies as st

from sgw.core import (
    SignedGraph,
    bfs_from,
    bfs_order,
    build,
    connected_components,
    is_connected,
    walk_sign,
)
from sgw.errors import (
    BadParameterError,
    BadSignError,
    DuplicateEdgeError,
    LoopEdgeError,
    NotAWalkError,
    VertexOutOfRangeError,
)
from sgw.product import product_many
from sgw.switching import canonical_form, switch

from oracles import random_connected_signed_graph
import random


def edge_lists(max_n=7):
    """Hypothesis strategy for (n, edge list) with valid simple edges."""

    def make(data):
        n, pairs = data
        return n, [(u, v, s) for ((u, v), s) in pairs]

    def pairs_for(n):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return st.lists(
            st.tuples(st.sampled_from(all_pairs), st.sampled_from((1, -1))),
            unique_by=lambda e: e[0],
            max_size=len(all_pairs),
        )

    return (
        st.integers(min_value=2, max_value=max_n)
        .flatmap(lambda n: st.tuples(st.just(n), pairs_for(n)))
        .map(make)
    )


class TestConstruction:
    def test_canonical_edge_order(self):
        g = SignedGraph(3, [(2, 1, -1), (0, 2, 1), (1, 0, 1)])
        assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, -1))

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            SignedGraph(2, [(1, 1, 1)])

    def test_duplicate_rejected_in_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            SignedGraph(3, [(0, 1, 1), (1, 0, -1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph(2, [(0, 2, 1)])
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph(2, [(-1, 0, 1)])

    @pytest.mark.parametrize("edge", [(False, True, 1), (0, True, 1),
                                      (0.0, 1, 1), ("0", 1, 1)])
    def test_non_int_vertex_ids_rejected(self, edge):
        # a bool compares equal to its int, and a float or string would
        # reach the adjacency build; each is refused as out of range
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph(2, [edge])

    def test_bad_sign_rejected(self):
        with pytest.raises(BadSignError):
            SignedGraph(2, [(0, 1, 0)])
        with pytest.raises(BadSignError):
            SignedGraph(2, [(0, 1, "+")])

    @pytest.mark.parametrize("n", [-2, -1, 2.0, True, "3", None])
    def test_vertex_count_must_be_non_negative_int(self, n):
        with pytest.raises(BadParameterError):
            SignedGraph(n, [])

    @pytest.mark.parametrize("s", [1.0, -1.0, True, False, 2])
    def test_sign_must_be_int_one_or_minus_one(self, s):
        with pytest.raises(BadSignError):
            SignedGraph(2, [(0, 1, s)])

    def test_immutable(self):
        g = build(2, [(0, 1, 1)])
        with pytest.raises(AttributeError):
            g.n = 5

    @given(edge_lists())
    def test_edge_order_irrelevant(self, data):
        n, edges = data
        g1 = SignedGraph(n, edges)
        g2 = SignedGraph(n, list(reversed([(v, u, s) for u, v, s in edges])))
        assert g1 == g2 and hash(g1) == hash(g2)

    @given(edge_lists())
    def test_adjacency_lists_every_edge_ascending(self, data):
        n, edges = data
        g = SignedGraph(n, edges)
        expected = [[] for _ in range(n)]
        for u, v, s in edges:
            expected[u].append((v, s))
            expected[v].append((u, s))
        assert g.adjacency == tuple(tuple(sorted(a)) for a in expected)


def eager_adjacency(g):
    """Each vertex's (neighbor, sign) pairs, neighbors ascending, built
    from the edge list at once."""
    rows = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        rows[u].append((v, s))
        rows[v].append((u, s))
    return tuple(tuple(sorted(row)) for row in rows)


class TestLazyAdjacency:
    def _graphs(self):
        """One graph from each constructor, none of them read yet."""
        edges = [(0, 1, 1), (0, 3, -1), (1, 2, -1), (2, 3, 1), (3, 4, -1)]  # canonical
        yield SignedGraph(5, edges)
        yield SignedGraph._canonical(5, edges)
        yield switch(build(5, edges), {0, 2})
        yield product_many([build(5, edges), build(2, [(0, 1, -1)])])[0]
        yield canonical_form(build(5, edges))[0]

    def test_built_on_first_read(self):
        for g in self._graphs():
            hash(g)
            g.has_edge(0, 1)
            with pytest.raises(AttributeError):
                g._adjacency  # the other lazy slots leave it empty
            adjacency = g.adjacency
            assert adjacency == eager_adjacency(g)
            assert g.adjacency is adjacency  # built once
            assert g.neighbors(3) == tuple(v for v, _ in adjacency[3])
            assert g.degree(3) == len(adjacency[3])


class TestPickling:
    """Copies and pickles go through __init__, whether or not the lazy
    adjacency, sign map and hash have been built."""

    def _graphs(self):
        yield build(0, [])
        yield build(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1)])
        yield build(5, [(3, 4, -1)])

    @pytest.mark.parametrize("fill", [False, True, "adjacency"])
    def test_round_trips(self, fill):
        for g in self._graphs():
            if fill == "adjacency":
                g.adjacency
            elif fill:
                hash(g)
                g.has_edge(0, 1)
            for h in (
                pickle.loads(pickle.dumps(g)),
                copy.deepcopy(g),
                copy.copy(g),
            ):
                assert h == g and hash(h) == hash(g)
                assert h.adjacency == g.adjacency
                assert all(
                    h.has_edge(u, v) == g.has_edge(u, v)
                    for u in range(g.n)
                    for v in range(g.n)
                )
                with pytest.raises(AttributeError):
                    h.n = 1
                with pytest.raises(AttributeError):
                    h.adjacency = g.adjacency

    def test_pickle_stores_only_the_edges(self):
        g = build(3, [(0, 1, 1), (1, 2, -1)])
        before = pickle.dumps(g)
        g.sign(0, 1)
        hash(g)
        g.adjacency
        assert pickle.dumps(g) == before

    def test_loading_validates_again(self):
        # a pickle of a graph with an edge out of range is refused on load
        class Forged:
            def __reduce__(self):
                return SignedGraph, (2, ((0, 2, 1),))

        with pytest.raises(VertexOutOfRangeError):
            pickle.loads(pickle.dumps(Forged()))


class TestAccessors:
    def setup_method(self):
        self.g = build(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1)])

    def test_m_and_degrees(self):
        assert self.g.m == 4
        assert [self.g.degree(v) for v in range(4)] == [2, 2, 2, 2]

    def test_sign_symmetric(self):
        assert self.g.sign(1, 2) == -1
        assert self.g.sign(2, 1) == -1

    def test_sign_missing_edge(self):
        with pytest.raises(NotAWalkError):
            self.g.sign(0, 2)

    def test_neighbors_sorted(self):
        assert self.g.neighbors(0) == (1, 3)
        assert self.g.neighbors(2) == (1, 3)

    def test_negative_and_underlying(self):
        assert self.g.negative_edges() == ((0, 3), (1, 2))
        assert self.g.underlying_edges() == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_with_signs(self):
        flipped = self.g.with_signs(
            {(u, v): -s for u, v, s in self.g.edges}
        )
        assert flipped.underlying_edges() == self.g.underlying_edges()
        assert all(
            flipped.sign(u, v) == -self.g.sign(u, v)
            for u, v, _ in self.g.edges
        )

    def test_with_signs_missing_a_pair(self):
        with pytest.raises(BadParameterError):
            self.g.with_signs({(u, v): s for u, v, s in self.g.edges[1:]})


class TestWalks:
    def test_walk_sign_multiplies(self):
        g = build(3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)])
        assert walk_sign(g, [0, 1, 2]) == -1
        assert walk_sign(g, [0, 1, 2, 0]) == 1
        # edges count with multiplicity
        assert walk_sign(g, [0, 2, 0]) == 1

    def test_walk_needs_an_edge(self):
        g = build(2, [(0, 1, 1)])
        with pytest.raises(NotAWalkError):
            walk_sign(g, [0])

    def test_walk_rejects_non_edges(self):
        g = build(3, [(0, 1, 1)])
        with pytest.raises(NotAWalkError):
            walk_sign(g, [0, 2])


class TestTraversal:
    def test_components(self):
        g = build(5, [(0, 1, 1), (3, 4, -1)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]
        assert not is_connected(g)

    def test_connected_small(self):
        assert is_connected(build(1, []))
        assert is_connected(build(0, []))
        assert not is_connected(build(2, []))

    def test_bfs_order_and_distances(self):
        g = build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
        order, dist = bfs_order(g, 0)
        assert order == [0, 1, 2, 3]
        assert dist == [0, 1, 1, 2]

    def test_bfs_unreachable(self):
        g = build(3, [(0, 1, 1)])
        order, dist = bfs_order(g, 0)
        assert 2 not in order and dist[2] == -1

    def test_bfs_from_places_sources_first(self):
        # path 0-1-2-3-4: the unreached sources lead, in the order given,
        # and a source met twice or reached already is skipped
        g = build(5, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1)])
        dist = [-1] * 5
        assert bfs_from(g, [4, 0, 4], dist) == [4, 0, 3, 1, 2]
        assert dist == [0, 1, 2, 1, 0]  # from the nearest source
        assert bfs_from(g, [2, 1], dist) == []

    def test_bfs_from_shares_distances(self):
        # a second call on the same list reaches only the new vertices,
        # counting from its own sources
        g = build(6, [(0, 1, 1), (1, 2, 1), (3, 4, -1), (4, 5, 1)])
        dist = [-1] * 6
        assert bfs_from(g, [1], dist) == [1, 0, 2]
        assert bfs_from(g, [0, 5], dist) == [5, 4, 3]
        assert dist == [1, 0, 1, 2, 1, 0]

    def test_traversals_match_a_deque_bfs(self):
        def reference(g, root, seen):
            order, queue = [root], deque([root])
            seen[root] = 0
            while queue:
                u = queue.popleft()
                for v in sorted(g.neighbors(u)):
                    if seen[v] < 0:
                        seen[v] = seen[u] + 1
                        order.append(v)
                        queue.append(v)
            return order

        rng = random.Random(61)
        disconnected = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            p = rng.random()
            g = build(n, [(u, v, rng.choice((1, -1))) for u in range(n)
                          for v in range(u + 1, n) if rng.random() < p])
            root = rng.randrange(n)
            dist = [-1] * n
            assert bfs_order(g, root) == (reference(g, root, dist), dist)
            seen = [-1] * n
            comps = [reference(g, r, seen) for r in range(n) if seen[r] < 0]
            assert connected_components(g) == comps
            disconnected += len(comps) > 1
        assert 50 <= disconnected <= 150

    def test_random_connected_generator_is_connected(self):
        rng = random.Random(7)
        for _ in range(50):
            assert is_connected(random_connected_signed_graph(rng, 2, 7))
