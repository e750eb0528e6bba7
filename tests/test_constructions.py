import math
import random

import pytest

from sgw.constructions import (
    K18_NEGATIVE_EDGES,
    _with_switch_set,
    build_grid,
    coloring_target,
    fig1c_grid,
    grid4_hom_spal5,
    grid_edges,
    grid_hom_spal5star,
    kpq_coloring,
    make,
    property_P_check,
)
from sgw.core import build
from sgw.errors import (
    BadParameterError,
    InternalInvariantViolation,
    NotAGridError,
    TooManyRowsError,
)
from sgw.homomorphism import validate
from sgw.product import cartesian_product
from sgw.switching import classify_cycle, CycleClass


class TestMake:
    def test_cycles(self):
        bc = make("BC", 5)
        uc = make("UC", 5)
        assert classify_cycle(bc) == CycleClass.BC_ODD
        assert classify_cycle(uc) == CycleClass.UC_ODD
        assert uc.negative_edges() == ((0, 1),)

    def test_complete(self):
        kp = make("K_plus", 4)
        km = make("K_minus", 4)
        assert kp.m == km.m == 6
        assert kp.negative_edges() == ()
        assert len(km.negative_edges()) == 6

    def test_k4_mixed(self):
        g = make("K4_mixed")
        assert g.n == 4 and g.m == 6
        assert g.negative_edges() == ((0, 1),)

    def test_spal5(self):
        g = make("SPal5")
        assert g.n == 5 and g.m == 10
        assert len(g.negative_edges()) == 5
        assert g.sign(0, 1) == 1 and g.sign(0, 2) == -1

    def test_spal5_star(self):
        g = make("SPal5_star")
        assert g.n == 6 and g.m == 15
        assert g.degree(5) == 5
        assert all(g.sign(i, 5) == 1 for i in range(5))

    def test_k18_data(self):
        g = make("K18")
        assert (g.n, g.m, len(g.negative_edges())) == (18, 153, 69)
        assert g.negative_edges() == K18_NEGATIVE_EDGES

    def test_parameter_errors(self):
        with pytest.raises(BadParameterError):
            make("BC", 2)
        with pytest.raises(BadParameterError):
            make("K_plus", 0)
        with pytest.raises(BadParameterError):
            make("SPal5", 3)
        with pytest.raises(BadParameterError):
            make("BC")
        with pytest.raises(BadParameterError):
            make("nonsense")

    def test_non_integer_parameters_rejected(self):
        for name, param in (("K_plus", 2.0), ("K_minus", "3"), ("BC", 4.0), ("UC", None)):
            with pytest.raises(BadParameterError):
                make(name, param)


class TestPropertyP:
    def test_spal5_star_has_p(self):
        assert property_P_check(make("SPal5_star"))

    def test_smaller_targets_lack_p(self):
        assert not property_P_check(make("SPal5"))
        assert not property_P_check(make("K_plus", 2))
        assert not property_P_check(make("K_minus", 4))


class TestGrids:
    def test_grid_edges_shape(self):
        edges = grid_edges(3, 4)
        assert len(edges) == 3 * 3 + 2 * 4  # horizontal + vertical
        assert (0, 1) in edges and (0, 4) in edges

    def test_build_grid_default_positive(self):
        g = build_grid(2, 3)
        assert g.n == 6 and g.negative_edges() == ()

    def test_build_grid_sign_inputs(self):
        edges = grid_edges(2, 2)
        by_map = build_grid(2, 2, {e: -1 for e in edges})
        by_seq = build_grid(2, 2, [-1] * len(edges))
        assert by_map == by_seq
        with pytest.raises(BadParameterError):
            build_grid(2, 2, [1])
        with pytest.raises(BadParameterError):
            build_grid(0, 2)

    def test_build_grid_sign_map_missing_an_edge(self):
        with pytest.raises(BadParameterError, match=r"\(0, 2\)"):
            build_grid(2, 2, {(0, 1): 1})

    def test_fig1c_shape(self):
        g = fig1c_grid()
        assert g.n == 12
        # vertical edges all positive, five negative horizontals overall
        assert all(g.sign(u, v) == 1 for u, v in g.underlying_edges()
                   if v - u == 4)
        assert len(g.negative_edges()) == 5

    def test_non_grid_rejected(self):
        with pytest.raises(NotAGridError):
            grid_hom_spal5star(make("BC", 4), 2, 2)
        with pytest.raises(NotAGridError):
            grid4_hom_spal5(build_grid(2, 3), 3, 2)


class TestGridHomomorphisms:
    def test_fig1c_into_spal5_star(self):
        g = fig1c_grid()
        hom = grid_hom_spal5star(g, 3, 4)
        assert validate(g, make("SPal5_star"), hom)

    def test_random_grids_into_spal5_star(self):
        rng = random.Random(67)
        target = make("SPal5_star")
        for _ in range(30):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            signs = [rng.choice((1, -1)) for _ in grid_edges(n, m)]
            g = build_grid(n, m, signs)
            assert validate(g, target, grid_hom_spal5star(g, n, m))

    def test_random_grids_into_spal5(self):
        rng = random.Random(71)
        target = make("SPal5")
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            signs = [rng.choice((1, -1)) for _ in grid_edges(n, m)]
            g = build_grid(n, m, signs)
            assert validate(g, target, grid4_hom_spal5(g, n, m))

    def test_spal5_row_cap(self):
        with pytest.raises(TooManyRowsError):
            grid4_hom_spal5(build_grid(5, 2), 5, 2)

    def test_switch_set_from_the_vertex_map(self):
        # the 2 x 2 grid's square goes onto hub edges of SPal5*, all
        # positive: a positive square is mapped, a negative one is not
        target = make("SPal5_star")
        g = build_grid(2, 2)
        hom = _with_switch_set(g, target, (5, 0, 1, 5))
        assert hom.switch_set == frozenset() and validate(g, target, hom)
        with pytest.raises(InternalInvariantViolation):
            _with_switch_set(build_grid(2, 2, [-1, 1, 1, 1]), target, (5, 0, 1, 5))
        with pytest.raises(InternalInvariantViolation):  # edge 01 onto 5 5
            _with_switch_set(g, target, (5, 5, 1, 5))


class TestKpqColoring:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3),
                                     (4, 2), (4, 3), (5, 4), (6, 5)])
    def test_coloring_validates_with_expected_count(self, p, q):
        g, _ = cartesian_product(make("K_plus", p), make("K_minus", q))
        colors, switch_set = kpq_coloring(p, q)
        assert len(set(colors)) == math.ceil(p * q / 2)
        target, hom = coloring_target(g, colors, switch_set)
        assert validate(g, target, hom)
        assert target.n == math.ceil(p * q / 2)

    def test_parameter_guard(self):
        with pytest.raises(BadParameterError):
            kpq_coloring(1, 3)

    def test_coloring_target_rejects_improper(self):
        g = build(2, [(0, 1, 1)])
        with pytest.raises(InternalInvariantViolation):
            coloring_target(g, [0, 0], frozenset())

    def test_coloring_target_rejects_mixed_pair_signs(self):
        g = build(3, [(0, 1, 1), (1, 2, -1)])
        with pytest.raises(InternalInvariantViolation):
            coloring_target(g, [0, 1, 0], frozenset())
