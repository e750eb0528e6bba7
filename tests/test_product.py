import pickle
import random

import pytest

from sgw.constructions import make
from sgw.core import build
from sgw.errors import EmptyListError, IndexOutOfRangeError
from sgw.homomorphism import signed_isomorphic
from sgw.s_factor import s_decompose
from sgw.factor_ordinary import factorize
from sgw.product import (
    CoordinateSystem,
    cartesian_product,
    layer,
    product_many,
    project_vertex,
)

from oracles import random_connected_signed_graph, reconstruct_product


class TestCartesianProduct:
    def test_k2_square(self):
        k2p = make("K_plus", 2)
        k2m = make("K_minus", 2)
        g, cs = cartesian_product(k2p, k2m)
        # row-major: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
        assert g.n == 4 and g.m == 4
        assert g.sign(0, 1) == -1 and g.sign(2, 3) == -1  # copies of K2-
        assert g.sign(0, 2) == 1 and g.sign(1, 3) == 1  # copies of K2+
        assert cs.coords == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_row_major_ids(self):
        a = build(3, [(0, 1, 1)])
        b = build(2, [(0, 1, -1)])
        g, cs = cartesian_product(a, b)
        for ia in range(3):
            for ib in range(2):
                assert cs.vertex((ia, ib)) == ia * 2 + ib

    def test_matches_reconstruction_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            a = random_connected_signed_graph(rng, 2, 4)
            b = random_connected_signed_graph(rng, 2, 4)
            g, cs = cartesian_product(a, b)
            assert reconstruct_product(cs.factors, cs.coords) == g

    def test_commutative_up_to_isomorphism(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_connected_signed_graph(rng, 2, 3)
            b = random_connected_signed_graph(rng, 2, 3)
            ab, _ = cartesian_product(a, b)
            ba, _ = cartesian_product(b, a)
            assert signed_isomorphic(ab, ba)


class TestProductMany:
    def test_single_factor(self):
        g = make("UC", 4)
        prod, cs = product_many([g])
        assert prod == g
        assert cs.coords == tuple((v,) for v in range(4))

    def test_three_factors_flattened(self):
        gs = [make("K_plus", 2), make("K_minus", 2), make("BC", 3)]
        prod, cs = product_many(gs)
        assert prod.n == 12
        assert reconstruct_product(cs.factors, cs.coords) == prod
        # mixed-radix row-major coordinates
        assert cs.vertex((1, 0, 2)) == 1 * 6 + 0 * 3 + 2

    def test_associative_on_vertices(self):
        gs = [make("BC", 3), make("K_plus", 2)]
        left, _ = product_many(gs)
        pair, _ = cartesian_product(*gs)
        assert left == pair

    def test_empty_rejected(self):
        with pytest.raises(EmptyListError):
            product_many([])


class TestCoordinateSystem:
    def test_index_is_built_on_first_read(self):
        g, cs = product_many([make("BC", 3), make("K_plus", 2)])
        assert all("index" not in vars(c)
                   for c in (cs, factorize(g).coords, s_decompose(g).coords))
        same = CoordinateSystem(cs.factors, cs.coords)
        assert cs == same and hash(cs) == hash(same)
        assert pickle.loads(pickle.dumps(cs)) == cs
        assert "index" not in vars(cs)
        assert cs.vertex((2, 1)) == 5
        assert vars(cs)["index"] == {c: v for v, c in enumerate(cs.coords)}
        assert cs == same and hash(cs) == hash(same)
        loaded = pickle.loads(pickle.dumps(cs))
        assert loaded == cs and loaded.vertex([1, 0]) == 2

    def test_pickle_leaves_out_the_index(self):
        # the bytes are the same before and after the index is read, and a
        # loaded copy builds its own on first read
        _, cs = product_many([make("BC", 8)] * 4)
        before = pickle.dumps(cs)
        assert cs.vertex((1, 2, 3, 4)) == 1 * 512 + 2 * 64 + 3 * 8 + 4
        assert pickle.dumps(cs) == before
        loaded = pickle.loads(before)
        assert loaded == cs and hash(loaded) == hash(cs)
        assert "index" not in vars(loaded)
        assert loaded.vertex((7, 0, 0, 1)) == 7 * 512 + 1
        assert vars(loaded)["index"] == cs.index


class TestLayersAndProjection:
    def setup_method(self):
        self.a = make("BC", 3)
        self.b = make("K_minus", 2)
        self.g, self.cs = cartesian_product(self.a, self.b)

    def test_layer_vertices_and_edges(self):
        verts, edges = layer(self.cs, 0, anchor=1)
        # factor-0 layer through (0,1): second column
        assert verts == [1, 3, 5]
        assert set(edges) == {(1, 3), (3, 5), (1, 5)}

    def test_layer_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            layer(self.cs, 2, 0)
        with pytest.raises(IndexOutOfRangeError):
            layer(self.cs, 0, 99)

    def test_project_vertex(self):
        # vertex (2,1)=5 projected on factor 1 through anchor (0,0)=0
        assert project_vertex(self.cs, 5, 1, 0) == 1
        assert project_vertex(self.cs, 5, 0, 0) == 4

    def test_project_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            project_vertex(self.cs, 0, 5, 0)
