from __future__ import annotations

import itertools

import pytest

from srdepth.complexes import (
    SimplicialComplex,
    clique_complex,
    cliques_by_size,
    complex_from_squarefree_ideal,
    stanley_reisner_ideal,
)
from srdepth.graphs import Graph, GuardError, bits, mask_of
from srdepth.monomials import MonomialIdeal, minimalize
from srdepth.verify import construct_example

from conftest import masks_to_tuples, oracle_cliques
from helpers import edge_ideal, from_faces, induced_subgraph, is_cone, link, reduced_betti, restrict

C4 = construct_example("cycle", t=4)
C6 = construct_example("cycle", t=6)
K3 = construct_example("complete", t=3)
FIG1 = construct_example("figure1")


class TestCliqueComplex:
    def test_c4_faces(self):
        c = clique_complex(C4)
        # empty face, 4 vertices, 4 edges, no triangles
        assert len(c.faces) == 9
        assert c.dim() == 1

    def test_k3_full_simplex(self):
        c = clique_complex(K3)
        assert len(c.faces) == 8
        assert mask_of([0, 1, 2]) in c.faces

    def test_figure1_triangle(self):
        c = clique_complex(FIG1)
        assert mask_of([1, 3, 5]) in c.faces  # the 2-4-6 triangle

    def test_matches_bruteforce_cliques(self, small_corpus):
        for g in small_corpus[:25]:
            assert masks_to_tuples(set(clique_complex(g).faces)) == oracle_cliques(g)

    def test_cliques_by_size_within_a_vertex_set(self, small_corpus):
        # the groups hold the cliques inside x by size, each once, up to kmax
        for i, g in enumerate(small_corpus[:25]):
            x = mask_of(range(0, g.n, 1 + i % 3))
            inside = sorted(f for f in map(mask_of, oracle_cliques(g)) if f & ~x == 0)
            for kmax in range(g.n + 1):
                groups = cliques_by_size(g.adj, x, kmax)
                assert [len(set(group)) for group in groups] == [len(group) for group in groups]
                assert all(f.bit_count() == k for k, group in enumerate(groups) for f in group)
                assert sorted(f for group in groups for f in group) == [f for f in inside if f.bit_count() <= kmax]

    def test_guard(self):
        with pytest.raises(GuardError):
            clique_complex(Graph(25, (0,) * 25))


class TestComplexValue:
    def test_void_and_irrelevant_distinct(self):
        void = SimplicialComplex(2, frozenset())
        irr = SimplicialComplex(2, frozenset({0}))
        assert void.is_void and not irr.is_void
        assert void != irr

    def test_nonvoid_needs_empty_face(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, frozenset({1}))

    def test_rejects_faces_not_closed_under_subsets(self):
        with pytest.raises(ValueError, match="subsets"):
            SimplicialComplex(2, frozenset({0, 0b11}))

    def test_downward_closure_constructor(self):
        c = from_faces(3, [mask_of([0, 1, 2])])
        assert len(c.faces) == 8

    def test_downward_closure_after_constructors(self, small_corpus):
        for g in small_corpus[:15]:
            c = clique_complex(g)
            for f in c.faces:
                for v in bits(f):
                    assert (f ^ (1 << v)) in c.faces


class TestRestrictAndLink:
    def test_restrict_c6_odd_vertices(self):
        r = restrict(clique_complex(C6), mask_of([0, 2, 4]))
        assert r.n == 3
        assert r.faces == frozenset({0, 1, 2, 4})  # three isolated vertices

    def test_restrict_full_identity(self):
        c = clique_complex(FIG1)
        assert restrict(c, FIG1.full_mask) == c

    def test_restrict_k3_edge(self):
        r = restrict(clique_complex(K3), mask_of([0, 1]))
        assert r.faces == frozenset({0, 1, 2, 3})

    def test_restrict_empty(self):
        r = restrict(clique_complex(K3), 0)
        assert r.faces == frozenset({0})

    def test_link_vertex_of_c6(self):
        lk = link(clique_complex(C6), mask_of([0]))
        assert lk.faces == frozenset({0, 1 << 1, 1 << 5})

    def test_link_of_empty_face(self):
        c = clique_complex(C4)
        assert link(c, 0) == c

    def test_link_in_full_simplex(self):
        lk = link(clique_complex(K3), mask_of([0]))
        assert lk.faces == frozenset({0, 1 << 1, 1 << 2, mask_of([1, 2])})

    def test_link_of_nonface_rejected(self):
        with pytest.raises(ValueError):
            link(clique_complex(C4), mask_of([0, 2]))

    def test_link_is_clique_complex_of_neighborhood(self, small_corpus):
        for g in small_corpus[:20]:
            c = clique_complex(g)
            for v in range(g.n):
                lk = link(c, 1 << v)
                sub, labels = induced_subgraph(g, g.adj[v])
                expected = {mask_of(labels[u] for u in bits(f))
                            for f in clique_complex(sub).faces}
                assert lk.faces == frozenset(expected)


class TestCone:
    def test_star_apex(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert is_cone(clique_complex(star)) == 0

    def test_c6_not_cone(self):
        assert is_cone(clique_complex(C6)) is None

    def test_vertex_with_empty_face(self):
        c = SimplicialComplex(1, frozenset({0, 1}))
        assert is_cone(c) == 0

    def test_cone_has_zero_homology(self, small_corpus):
        for g in small_corpus[:20]:
            c = clique_complex(g)
            apex = is_cone(c)
            if apex is not None:
                assert reduced_betti(c) == {}


class TestStanleyReisner:
    def test_figure1_ideal(self):
        ideal = stanley_reisner_ideal(clique_complex(FIG1))
        assert ideal.gens == (
            (0, 0, 1, 0, 0, 1),  # x3 x6
            (0, 1, 0, 0, 1, 0),  # x2 x5
        )

    def test_full_simplex_zero_ideal(self):
        assert stanley_reisner_ideal(clique_complex(K3)).is_zero()

    def test_c4_ideal(self):
        ideal = stanley_reisner_ideal(clique_complex(C4))
        assert ideal.gens == ((0, 1, 0, 1), (1, 0, 1, 0))

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            stanley_reisner_ideal(SimplicialComplex(3, frozenset()))

    def test_equals_complement_edge_ideal(self, medium_corpus):
        for g in medium_corpus:
            assert stanley_reisner_ideal(clique_complex(g)) == edge_ideal(g.complement())


class TestFromIdeal:
    def test_two_generator_example(self):
        ideal = minimalize([(0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)], 6)
        c = complex_from_squarefree_ideal(ideal)
        assert c.n == 6
        bad = (mask_of([1, 4]), mask_of([2, 5]))
        for size in range(7):
            for combo in itertools.combinations(range(6), size):
                m = mask_of(combo)
                expected = not any(b & ~m == 0 for b in bad)
                assert (m in c.faces) == expected

    def test_zero_ideal_full_simplex(self):
        c = complex_from_squarefree_ideal(MonomialIdeal(3, ()))
        assert len(c.faces) == 8

    def test_variable_generator_ghost_vertex(self):
        c = complex_from_squarefree_ideal(MonomialIdeal(1, ((1,),)))
        assert c.faces == frozenset({0})

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            complex_from_squarefree_ideal(MonomialIdeal(2, ((0, 0),)))

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError, match="squarefree"):
            complex_from_squarefree_ideal(MonomialIdeal(1, ((2,),)))

    def test_round_trip(self, medium_corpus):
        for g in medium_corpus[:25]:
            c = clique_complex(g)
            assert complex_from_squarefree_ideal(stanley_reisner_ideal(c)) == c
