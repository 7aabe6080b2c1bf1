from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdepth.graphs import Graph, mask_of
from srdepth.monomials import (
    MonomialIdeal,
    divides,
    minimalize,
    mul,
    parse_ideal,
    polarize,
    power,
    product,
    symbolic_power,
)
from srdepth.verify import construct_example

from conftest import random_graph
from helpers import (
    colon,
    colon_square_structure,
    edge_ideal,
    format_ideal,
    format_monomial,
    intersection,
    is_subideal_of,
    isolate,
    symbolic_square_by_covers,
    variable_power_ideal,
)

ZERO2 = MonomialIdeal(2, ())
UNIT2 = MonomialIdeal(2, ((0, 0),))


def M(*exps):
    return tuple(exps)


def monomial_strategy(n, max_exp=3):
    return st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)


def ideal_strategy(n=4, max_gens=5):
    return st.lists(monomial_strategy(n), min_size=0, max_size=max_gens).map(
        lambda gens: minimalize(gens, n))


class TestMinimalize:
    def test_drops_multiples(self):
        # (x, xy, x^2) = (x)
        a = minimalize([M(1, 0), M(1, 1), M(2, 0)], 2)
        assert a.gens == (M(1, 0),)

    def test_antichain_kept(self):
        a = minimalize([M(2, 0), M(0, 2), M(1, 1)], 2)
        assert a.gens == (M(0, 2), M(1, 1), M(2, 0))

    def test_unit_absorbs(self):
        a = minimalize([M(0, 0), M(1, 1)], 2)
        assert a.is_unit()

    def test_duplicates(self):
        assert minimalize([M(1, 0), M(1, 0)], 2).gens == (M(1, 0),)

    @settings(max_examples=40, deadline=None)
    @given(ideal_strategy())
    def test_result_is_antichain(self, a):
        for g, h in itertools.combinations(a.gens, 2):
            assert not divides(g, h) and not divides(h, g)

    def test_matches_bruteforce_antichain(self):
        # mixed degrees with repeats: the kept set is every generator that no
        # other distinct generator divides
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 12))]
            gens += rng.sample(gens, min(len(gens), 3))
            expected = sorted({g for g in gens if not any(h != g and divides(h, g) for h in gens)})
            assert minimalize(gens, n).gens == tuple(expected), gens

    def test_equal_degree_square_is_the_products(self):
        # every generator of the square of an edge ideal has degree 4
        i = edge_ideal(construct_example("cycle", t=14).complement())
        assert power(i, 2).gens == tuple(sorted({mul(a, b) for a in i.gens for b in i.gens}))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1,),))
        with pytest.raises(ValueError):
            MonomialIdeal(1, ((-1,),))


class TestArithmetic:
    def test_product_example(self):
        # (x, y) * (x, z) = (x^2, xy, xz, yz)
        a = minimalize([M(1, 0, 0), M(0, 1, 0)], 3)
        b = minimalize([M(1, 0, 0), M(0, 0, 1)], 3)
        assert product(a, b).gens == (M(0, 1, 1), M(1, 0, 1), M(1, 1, 0), M(2, 0, 0))

    def test_product_with_zero(self):
        a = minimalize([M(1, 0)], 2)
        assert product(a, ZERO2).is_zero()

    def test_power_square(self):
        i = edge_ideal(Graph.from_edges(3, [(0, 1), (1, 2)]))
        sq = power(i, 2)
        assert sq == product(i, i)
        assert sq.gens and all(sum(g) == 4 for g in sq.gens)

    def test_power_bad_exponent(self):
        with pytest.raises(ValueError):
            power(MonomialIdeal(1, ((0,),)), 0)

    def test_colon_example(self):
        # (x^2 y, y z) : y = (x^2, z)
        a = minimalize([M(2, 1, 0), M(0, 1, 1)], 3)
        assert colon(a, M(0, 1, 0)).gens == (M(0, 0, 1), M(2, 0, 0))

    def test_colon_by_nonmember_keeps(self):
        a = minimalize([M(1, 1)], 2)
        assert colon(a, M(0, 0)) == a

    def test_colon_zero(self):
        assert colon(ZERO2, M(1, 0)).is_zero()

    def test_intersection_example(self):
        # (x) cap (y) = (xy)
        a = minimalize([M(1, 0)], 2)
        b = minimalize([M(0, 1)], 2)
        assert intersection(a, b).gens == (M(1, 1),)

    def test_intersection_with_zero(self):
        assert intersection(ZERO2, UNIT2).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            product(ZERO2, MonomialIdeal(3, ()))
        with pytest.raises(ValueError):
            colon(ZERO2, M(1, 0, 0))

    @settings(max_examples=40, deadline=None)
    @given(ideal_strategy(), monomial_strategy(4))
    def test_colon_contains_original(self, a, m):
        # a subseteq (a : m), and (a*m : m) = a when m != 0
        c = colon(a, m)
        assert is_subideal_of(a, c)
        am = product(a, MonomialIdeal(4, (m,)))
        assert colon(am, m) == a

    @settings(max_examples=40, deadline=None)
    @given(ideal_strategy(), ideal_strategy())
    def test_intersection_membership(self, a, b):
        c = intersection(a, b)
        assert is_subideal_of(c, a) and is_subideal_of(c, b)
        assert is_subideal_of(product(a, b), c)


class TestEdgeIdeal:
    def test_path(self):
        i = edge_ideal(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert i.gens == (M(0, 1, 1), M(1, 1, 0))

    def test_edgeless(self):
        assert edge_ideal(Graph(3, (0, 0, 0))).is_zero()


def symbolic_square(g):
    return symbolic_power(g, power(edge_ideal(g), 2))


class TestSymbolicPower:
    def test_triangle_symbolic_square(self):
        # I(K3)^(2) = I^2 + (xyz)
        k3 = construct_example("complete", t=3)
        i = edge_ideal(k3)
        expected = minimalize(list(power(i, 2).gens) + [M(1, 1, 1)], 3)
        assert symbolic_square(k3) == expected

    def test_c6_complement_symbolic_square(self):
        # complement of C6: extra generators are its two triangles
        g = construct_example("cycle", t=6).complement()
        i = edge_ideal(g)
        tri = [M(1, 0, 1, 0, 1, 0), M(0, 1, 0, 1, 0, 1)]
        assert symbolic_square(g) == minimalize(list(power(i, 2).gens) + tri, 6)

    def test_triangle_free_equals_square(self):
        for g in (construct_example("cycle", t=4),
                  construct_example("cycle", t=6),
                  construct_example("bipartite", a=3, b=3)):
            assert symbolic_square(g) == power(edge_ideal(g), 2)

    def test_edgeless_is_zero(self):
        g = Graph(3, (0, 0, 0))
        assert symbolic_square(g).is_zero()
        assert symbolic_square_by_covers(g).is_zero()

    def test_matches_cover_oracle_on_dense_graphs(self):
        # criterion 3b covers p <= 0.8; dense G^c are where the bounds bite
        rng = random.Random(41)
        for p in (0.8, 0.9):
            for _ in range(8):
                g = random_graph(rng, rng.randint(4, 8), p)
                assert symbolic_square(g) == symbolic_square_by_covers(g), (p, g.edges())
        k6 = construct_example("complete", t=6)
        assert symbolic_square(k6) == symbolic_square_by_covers(k6)

    def test_sandwich(self):
        # I^2 in I^(2) in I, for the runtime route and the cover oracle alike
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            if g.num_edges() == 0:
                continue
            i = edge_ideal(g)
            for sym in (symbolic_square(g), symbolic_square_by_covers(g)):
                assert is_subideal_of(power(i, 2), sym)
                assert is_subideal_of(sym, i)

    def test_variable_power_ideal(self):
        a = variable_power_ideal(3, mask_of([0, 2]), 2)
        assert a.gens == (M(0, 0, 2), M(1, 0, 1), M(2, 0, 0))


class TestPolarization:
    def test_squarefree_unchanged(self):
        i = edge_ideal(construct_example("cycle", t=4))
        p = polarize(i)
        assert p.ideal == i and p.new_var_count == 0
        assert p.var_map == ((0,), (1,), (2,), (3,))

    def test_square_of_variable(self):
        p = polarize(MonomialIdeal(1, ((2,),)))
        assert p.ideal.num_vars == 2
        assert p.ideal.gens == (M(1, 1),)
        assert p.new_var_count == 1 and p.var_map == ((0, 1),)

    def test_mixed_example(self):
        # (x^2 y, y^2): x -> x0 x1, y -> y0 y1, copies consecutive original-first
        a = minimalize([M(2, 1), M(0, 2)], 2)
        p = polarize(a)
        assert p.ideal.num_vars == 4
        assert p.var_map == ((0, 1), (2, 3))
        assert p.ideal.gens == (M(0, 0, 1, 1), M(1, 1, 1, 0))

    def test_depolarize_round_trip(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            a = minimalize(gens, n)
            if a.is_unit():
                continue
            p = polarize(a)
            assert p.ideal.is_squarefree()
            # collapse each generator's split copies back to the source ring
            back = sorted(tuple(sum(g[j] for j in copies) for copies in p.var_map) for g in p.ideal.gens)
            assert tuple(back) == a.gens

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            polarize(UNIT2)


class TestColonSquareStructure:
    def test_matches_generic_colon(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randint(3, 7), 0.5)
            edges = g.edges()
            if not edges:
                continue
            i, j = rng.choice(edges)
            union = g.adj[i] | g.adj[j]
            removable = union & ~(1 << i) & ~(1 << j)
            a = removable & rng.randrange(1 << g.n)
            structural = colon_square_structure(g, a, i, j)
            sq = power(edge_ideal(isolate(g, a)), 2)
            xi = tuple(1 if k == i else 0 for k in range(g.n))
            xj = tuple(1 if k == j else 0 for k in range(g.n))
            assert structural == colon(sq, mul(xi, xj))
            checked += 1

    def test_precondition_errors(self):
        g = construct_example("cycle", t=4)
        with pytest.raises(ValueError):
            colon_square_structure(g, 0, 0, 2)  # not an edge
        with pytest.raises(ValueError):
            colon_square_structure(g, mask_of([0]), 0, 1)  # removes an endpoint
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            colon_square_structure(path, mask_of([3]), 0, 1)  # outside neighborhoods


class TestParseFormat:
    def test_parse_example(self):
        a = parse_ideal("x1^2*x3\nx2\n")
        assert a.num_vars == 3
        assert a.gens == (M(0, 1, 0), M(2, 0, 1))

    def test_parse_num_vars_override(self):
        assert parse_ideal("x1", num_vars=3).gens == (M(1, 0, 0),)

    def test_parse_unit_and_comments(self):
        a = parse_ideal("# the unit ideal\n1\n", num_vars=2)
        assert a.is_unit()

    def test_parse_zero(self):
        assert parse_ideal("0\n", num_vars=2).is_zero()
        assert parse_ideal("", num_vars=2).is_zero()

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_ideal("y1")
        with pytest.raises(ValueError, match="index must be >= 1"):
            parse_ideal("x0")
        with pytest.raises(ValueError, match="num_vars"):
            parse_ideal("x5", num_vars=3)

    def test_repeated_variable_accumulates(self):
        assert parse_ideal("x1*x1^2").gens == ((3,),)

    def test_format_examples(self):
        assert format_monomial(M(2, 0, 1)) == "x1^2*x3"
        assert format_monomial(M(0, 0)) == "1"
        assert format_ideal(ZERO2) == "0\n"
        assert format_ideal(UNIT2) == "1\n"

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
            a = minimalize(gens, n)
            assert parse_ideal(format_ideal(a), num_vars=n) == a
