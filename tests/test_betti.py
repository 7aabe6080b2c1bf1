from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdepth import betti, homology
from srdepth.betti import (
    SUBSET_SCAN_LIMIT,
    BettiTable,
    DepthResult,
    depth_monomial_quotient,
    depth_stanley_reisner,
    graded_betti_table,
    graph_betti_table,
    graph_depth,
    guard_parsed_ideal,
    kappa_via_betti,
    second_power_depths,
)
from srdepth.complexes import (
    CLIQUE_COMPLEX_LIMIT,
    NONFACE_SCAN_LIMIT,
    SimplicialComplex,
    clique_complex,
    complex_from_squarefree_ideal,
    stanley_reisner_ideal,
)
from srdepth.graphs import (Graph, GuardError, bits, is_chordal, mask_of, vertex_connectivity,
                            vertex_connectivity_bruteforce)
from srdepth.homology import GF2, GF3, RATIONAL, FieldSpec
from srdepth.monomials import MonomialIdeal, minimalize, parse_ideal, polarize
from srdepth.verify import construct_example, random_chordal_graph

from conftest import (K6_JOIN_TRIANGLES, graph_corpus, masks_to_tuples, oracle_betti_table, oracle_hochster_table,
                      random_graph)
from helpers import edge_ideal, from_faces, kappa_by_ascending_scan, link, reduced_betti, second_powers

C4 = construct_example("cycle", t=4)
C6 = construct_example("cycle", t=6)
FIG1 = construct_example("figure1")


class TestBettiTable:
    def test_c4_table(self):
        t = graded_betti_table(clique_complex(C4))
        # H_0 of the two diagonals, H_1 of the whole square
        assert t.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        assert t.projective_dimension() == 2
        assert t.regularity() == 2

    def test_complete_graph_table(self):
        t = graded_betti_table(clique_complex(construct_example("complete", t=4)))
        assert t.entries == {(0, 0): 1}
        assert t.projective_dimension() == 0

    def test_c6_table_row_one(self):
        t = graded_betti_table(clique_complex(C6))
        # beta_{1,2} counts the complement's edges
        assert t[(1, 2)] == C6.complement().num_edges() == 9

    def test_matches_bruteforce_oracle(self, small_corpus):
        for g in small_corpus[:18]:
            t = graded_betti_table(clique_complex(g), RATIONAL)
            assert t.entries == oracle_betti_table(g)

    def test_field_choice_changes_nothing_small(self, small_corpus):
        for g in small_corpus[:12]:
            c = clique_complex(g)
            assert graded_betti_table(c, GF2).entries == graded_betti_table(c, GF3).entries

    def test_csv_format(self):
        t = BettiTable(4, {(0, 0): 1, (1, 2): 2, (2, 4): 1})
        assert t.to_csv() == "i,j,beta\n0,0,1\n1,2,2\n2,4,1\n"

    def test_triangle_format(self):
        out = BettiTable(4, {(0, 0): 1, (1, 2): 2, (2, 4): 1}).to_triangle()
        lines = out.splitlines()
        assert lines[0].split() == ["0", "1", "2"]
        assert lines[1].split() == ["0:", "1", ".", "."]
        assert lines[2].split() == ["1:", ".", "2", "."]
        assert lines[3].split() == ["2:", ".", ".", "1"]

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            graded_betti_table(SimplicialComplex(2, frozenset()))

    def test_guard_and_override(self):
        big = Graph(SUBSET_SCAN_LIMIT + 1, (0,) * (SUBSET_SCAN_LIMIT + 1))
        with pytest.raises(GuardError):
            graded_betti_table(clique_complex(big))


@pytest.fixture(scope="module")
def oracle_graphs() -> list[tuple[Graph, dict]]:
    """Seeded graphs at n = 7..9 and p = 0.2, 0.5, 0.8 with their sympy Hochster tables."""
    rng = random.Random(43)
    graphs = [random_graph(rng, n, p) for n in (7, 8, 9) for p in (0.2, 0.5, 0.8)]
    return [(g, oracle_betti_table(g)) for g in graphs]


@pytest.fixture(scope="module")
def oracle_complexes() -> list[tuple[SimplicialComplex, dict]]:
    """Non-flag complexes with their sympy Hochster tables."""
    # x1 is a ghost vertex; then the hollow triangle, then seeded random ideals
    ghost = complex_from_squarefree_ideal(MonomialIdeal.from_squarefree_masks(6, [0b1, 0b1110, 0b10100, 0b111010]))
    assert 0b1 not in ghost.faces and 0b10 in ghost.faces
    complexes = [ghost, from_faces(3, [0b011, 0b101, 0b110])]
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(4, 7)
        gens = [mask_of(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(2, 6))]
        complexes.append(complex_from_squarefree_ideal(MonomialIdeal.from_squarefree_masks(n, gens)))
    return [(c, oracle_hochster_table(c.n, masks_to_tuples(c.faces))) for c in complexes]


@pytest.fixture(scope="module")
def split_complexes() -> list[tuple[SimplicialComplex, dict]]:
    """Complexes whose 1-skeleton splits, with their sympy Hochster tables."""
    # x7 joins x2 to the component of x1 and x6, x8 joins x3 and x5; x4 is isolated
    several = from_faces(9, [0b100001, 0b1000010, 0b10000100, 0b101100000, 0b1000, 0b10010000])
    # x1 and x5 are ghost vertices
    ghosted = from_faces(8, [0b100010, 0b1100, 0b1001000, 0b11000000, 0b10001000, 0b10100000])
    no_edges = from_faces(6, [0b10, 0b1000, 0b10000])
    assert 0b1 not in ghosted.faces and 0b10000 not in ghosted.faces and not no_edges.faces_by_size()[2:]
    complexes = [several, ghosted, no_edges, from_faces(3, [])]
    rng = random.Random(59)
    for _ in range(6):
        n = rng.randint(6, 8)
        live = rng.sample(range(n), n - rng.randint(1, 2))  # the others are ghost vertices
        complexes.append(from_faces(n, [mask_of(rng.sample(live, rng.randint(1, 3)))
                                        for _ in range(rng.randint(2, 4))]))
    return [(c, oracle_hochster_table(c.n, masks_to_tuples(c.faces))) for c in complexes]


class TestHochsterWalk:
    """graded_betti_table's Hochster sum and graph_betti_table against the sympy Hochster sum."""

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF3, FieldSpec(5)], ids=["QQ", "GF2", "GF3", "GF5"])
    def test_graphs_match_oracle(self, field, oracle_graphs):
        for g, expected in oracle_graphs:
            assert graph_betti_table(g, field).entries == expected, g
            assert graded_betti_table(clique_complex(g), field).entries == expected, g

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF3, FieldSpec(7)], ids=["QQ", "GF2", "GF3", "GF7"])
    def test_non_flag_complexes_match_oracle(self, field, oracle_complexes):
        for c, expected in oracle_complexes:
            assert graded_betti_table(c, field).entries == expected, sorted(c.faces)

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF3, FieldSpec(5)], ids=["QQ", "GF2", "GF3", "GF5"])
    def test_split_one_skeletons_match_oracle(self, field, split_complexes):
        # several components, isolated and ghost vertices, no edges at all
        for c, expected in split_complexes:
            assert graded_betti_table(c, field).entries == expected, sorted(c.faces)

    def test_kept_subset_below_a_cone(self):
        # in C4 the subset {0, 1, 2} is a cone on 1, with no homology, yet the
        # whole vertex set, one vertex more, carries beta_{2,4}
        for field in (RATIONAL, GF2, GF3):
            assert graph_betti_table(C4, field).entries == oracle_betti_table(C4) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    @pytest.mark.parametrize("u", [0, 4, 8])
    def test_prune_skips_subsets_on_a_universal_vertex(self, monkeypatch, u):
        # u is isolated in G^c, so it lies in no minimal non-face and every
        # subset holding u is a cone on u: the sum must never rank a face on u
        rng = random.Random(53)
        g = random_graph(rng, 9, 0.5)
        g = Graph.from_edges(9, g.edges() + [tuple(sorted((u, v))) for v in range(9) if v != u])
        expected = oracle_betti_table(g)
        built, reduced = _record_ranks(monkeypatch)
        assert graded_betti_table(clique_complex(g), RATIONAL).entries == expected
        (faces,) = built
        on_u = _columns_on(faces, u)
        assert on_u and reduced
        assert not any(id(col) in on_u for col in reduced)

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF3], ids=["QQ", "GF2", "GF3"])
    def test_counts_fill_their_fields(self, field):
        # a triangle-free graph on all n vertices has H_1 of rank |E| - n + 1,
        # which needs more bits than a narrow packed field holds
        k55, k56 = construct_example("bipartite", a=5, b=5), construct_example("bipartite", a=5, b=6)
        assert graph_betti_table(k56, field)[(9, 11)] == 30 - 11 + 1 == 20
        assert graph_betti_table(k55, field)[(8, 10)] == 25 - 10 + 1 == 16

    @pytest.mark.parametrize("field", [RATIONAL, GF2, GF3], ids=["QQ", "GF2", "GF3"])
    def test_sums_fill_their_fields(self, field):
        # the widest sums the default guard admits: on 14 vertices and no edges
        # every j-subset adds its j - 1 components to beta_{j-1,j}, the table
        # of I(K_14), whose largest entry 21,021 exceeds 2^14
        table = graph_betti_table(Graph.from_edges(14, []), field)
        expected = {(i, i + 1): i * math.comb(14, i + 1) for i in range(1, 14)}
        assert table.entries == {(0, 0): 1, **expected}
        assert max(expected.values()) == 7 * 3003 == 21021 > 1 << 14


def _record_ranks(monkeypatch) -> tuple[list, list]:
    """Record the FaceColumns each table builds and every column it hands to betti_from_sizes."""
    built, reduced = [], []

    class Recording(homology.FaceColumns):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def recording_sizes(columns_by_size, *args):
        reduced.extend(col for group in columns_by_size for col in group)
        return homology.betti_from_sizes(columns_by_size, *args)

    monkeypatch.setattr(betti, "FaceColumns", Recording)
    monkeypatch.setattr(betti, "betti_from_sizes", recording_sizes)
    return built, reduced


def _record_cores(monkeypatch) -> list[tuple[int, list[int], int]]:
    """Record (x, closed neighbourhoods, core) for every strong-collapse core a table takes."""
    cores, strong_core = [], betti._strong_core

    def recording_core(x, closed):
        core = strong_core(x, closed)
        cores.append((x, closed, core))
        return core

    monkeypatch.setattr(betti, "_strong_core", recording_core)
    return cores


def _record_rankings(monkeypatch) -> list[list[int]]:
    """Record, for each betti_from_sizes call, the faces whose boundary columns were built for it."""
    faces, rankings = [], []
    build, rank = betti.boundary_columns, betti.betti_from_sizes

    def recording_build(faces_k, *args):
        faces.extend(faces_k)
        return build(faces_k, *args)

    def recording_rank(*args):
        rankings.append(faces[:])
        faces.clear()
        return rank(*args)

    monkeypatch.setattr(betti, "boundary_columns", recording_build)
    monkeypatch.setattr(betti, "betti_from_sizes", recording_rank)
    return rankings


def _columns_on(faces: homology.FaceColumns, u: int) -> set[int]:
    """The ids of the columns of u's faces."""
    return {id(col) for k in range(1, len(faces.by_size)) for f, col in faces.columns(k).items() if f >> u & 1}


class TestGraphBettiTable:
    @pytest.mark.parametrize("field", [GF2, GF3, RATIONAL], ids=["GF2", "GF3", "QQ"])
    def test_matches_complex_table(self, field):
        # the complement's edges stand in for the clique complex's minimal non-faces
        for g in graph_corpus(seed=41, count=40, n_max=9, n_min=1):
            assert graph_betti_table(g, field) == graded_betti_table(clique_complex(g), field)

    def test_guard_and_override(self):
        big = construct_example("complete", t=SUBSET_SCAN_LIMIT + 1)
        with pytest.raises(GuardError):
            graph_betti_table(big)
        assert graph_betti_table(big, allow_large=True).entries == {(0, 0): 1}

    def test_clique_guard_before_the_scan(self):
        # with no edges nothing is ranked, so only the guard at the top refuses n = 25
        start = time.perf_counter()
        with pytest.raises(GuardError, match="clique complex"):
            graph_betti_table(Graph.from_edges(CLIQUE_COMPLEX_LIMIT + 1, []), allow_large=True)
        assert time.perf_counter() - start < 1


class TestDepth:
    @pytest.mark.parametrize("g,depth", [
        (C6, 2),
        (FIG1, 4),
        (construct_example("complete", t=5), 5),
        (construct_example("multipartite", t=2), 3),
        (construct_example("multipartite", t=3), 3),
        (construct_example("bipartite", a=5, b=5), 2),
        (construct_example("joined_cycles", t=5), 2),
        (Graph(3, (0, 0, 0)), 1),  # three isolated vertices: connected-but-barely quotient
    ])
    def test_known_depths(self, g, depth):
        res = graph_depth(g)
        assert res.depth == depth
        assert res.depth + res.projective_dimension == g.n

    def test_witness_recomputes(self, medium_corpus):
        # squarefree witness: a = -1 on a face F, 0 elsewhere, and the link of
        # F has reduced homology in degree ell with depth = |F| + ell + 1
        for g in medium_corpus[:20]:
            res = graph_depth(g)
            a, ell = res.witness
            assert len(a) == g.n and set(a) <= {-1, 0}
            face = mask_of(j for j in range(g.n) if a[j] == -1)
            assert face.bit_count() + ell + 1 == res.depth
            assert reduced_betti(link(clique_complex(g), face)).get(ell, 0) > 0

    def test_pruned_scan_matches_full_table(self, medium_corpus):
        for g in medium_corpus[:20]:
            c = clique_complex(g)
            assert depth_stanley_reisner(c).projective_dimension == \
                graded_betti_table(c).projective_dimension()

    def test_depth_at_most_kappa_plus_one(self, medium_corpus):
        for g in medium_corpus:
            assert graph_depth(g).depth <= vertex_connectivity(g).kappa + 1

    def test_chordal_equality(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_chordal_graph(rng, rng.randint(2, 9))
            assert graph_depth(g).depth == vertex_connectivity(g).kappa + 1

    def test_full_simplex(self):
        c = clique_complex(construct_example("complete", t=3))
        res = depth_stanley_reisner(c)
        assert res == DepthResult(3, 0, ((-1, -1, -1), -1))
        assert reduced_betti(link(c, 0b111)).get(-1, 0) == 1


def _record_column_builds(monkeypatch) -> tuple[list[int], set[int]]:
    """Face sizes whose boundary columns get built, and sizes the scans read."""
    built: list[int] = []
    read: set[int] = set()
    build, scan = homology.boundary_columns, betti.betti_from_sizes

    def counting_build(faces_k, faces_km1, characteristic):
        built.append(faces_k[0].bit_count() if faces_k else -1)
        return build(faces_k, faces_km1, characteristic)

    def recording_scan(columns_by_size, *args):
        read.update(range(len(columns_by_size)))
        return scan(columns_by_size, *args)

    monkeypatch.setattr(homology, "boundary_columns", counting_build)
    monkeypatch.setattr(betti, "betti_from_sizes", recording_scan)
    return built, read


class TestLazyColumns:
    def test_depth_skips_the_large_faces(self, monkeypatch):
        # every scanned G_a holds the six universal vertices, so only faces of
        # the two triangles count; the link of G_a = {} is the two triangles,
        # which collapse to two points, so it is ranked on the empty face and
        # two vertices alone and gives depth 6 + 0 + 1
        g = K6_JOIN_TRIANGLES
        assert len(clique_complex(g).faces_by_size()) == 10
        built, read = _record_column_builds(monkeypatch)
        for field in (GF2, GF3):
            built.clear()
            read.clear()
            assert graph_depth(g, field).depth == 7
            assert built == [0, 1] and read == {0, 1}

    def test_each_size_built_once_and_read(self, monkeypatch):
        rng = random.Random(17)
        graphs = [random_graph(rng, 11, p) for p in (0.7, 0.8, 0.9) for _ in range(3)]
        built, read = _record_column_builds(monkeypatch)
        for g in graphs:
            built.clear()
            read.clear()
            graph_depth(g, GF3)
            assert len(built) == len(set(built)) and set(built) == read


@st.composite
def small_graphs(draw, n_max=7):
    n = draw(st.integers(min_value=1, max_value=n_max))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


class TestDepthRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_graphs())
    def test_engine_matches_hochster_table(self, g):
        for field in (GF2, GF3, RATIONAL):
            assert graph_depth(g, field).depth == g.n - graph_betti_table(g, field).projective_dimension()

    # graph_depth ranks each link on the strong-collapse core of its clique's
    # common neighbours; depth_stanley_reisner filters the link's own faces
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_graphs(n_max=9), st.booleans())
    def test_graph_route_matches_complex_route(self, g, dense):
        if dense:
            g = g.complement()
        c = clique_complex(g)
        for field in (GF2, GF3, FieldSpec(5), RATIONAL):
            assert graph_depth(g, field) == depth_stanley_reisner(c, field)

    # the scan visits the cliques G_a by size, then by mask, and keeps the
    # first whose link attains the depth; the universal vertices U lie in
    # every G_a, so the link of F + U is that of F in g less U.  In the
    # example, {1, 4} and {0, 5} both attain the depth; {1, 4} has the
    # smaller mask, but {0, 5} comes first by lowest vertex.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_graphs(n_max=9), st.booleans())
    @example(Graph.from_edges(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4), (3, 5), (4, 5)]), False)
    def test_witness_is_the_first_attaining_clique(self, g, dense):
        if dense:
            g = g.complement()
        c = clique_complex(g)
        universal = mask_of(v for v in range(g.n) if g.adj[v] | 1 << v == g.full_mask)
        res = graph_depth(g)
        first = None
        for f in sorted((f for f in c.faces if f & universal == universal), key=lambda f: (f.bit_count(), f)):
            ells = [ell for ell in reduced_betti(link(c, f)) if f.bit_count() + ell + 1 == res.depth]
            if ells:
                first = (tuple(-(f >> j & 1) for j in range(g.n)), min(ells))
                break
        assert res.witness == first

    # the polarization oracle scans all 2^m vertex subsets of an m-variable
    # ring, and I(G^c)^2 needs up to 2n variables (about 25 s at n = 7)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_graphs(n_max=5))
    def test_square_matches_polarized_table(self, g):
        square = second_powers(g)[1]
        if square.is_zero():
            return
        pol = complex_from_squarefree_ideal(polarize(square).ideal)
        for field in (GF2, GF3, RATIONAL):
            pd = graded_betti_table(pol, field).projective_dimension()
            assert depth_monomial_quotient(square, field).depth == g.n - pd


@st.composite
def relabelled_graphs(draw, n_max=9):
    """A graph and a copy of it under a random permutation of its labels."""
    g = draw(small_graphs(n_max=n_max))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestRelabel:
    # graph_betti_table runs on g relabelled in a degeneracy order;
    # graded_betti_table sums over the clique complex in the labels it is given
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(relabelled_graphs())
    def test_table_ignores_labels(self, pair):
        g, h = pair
        expected = oracle_betti_table(g) if g.n <= 7 else None
        for field in (GF2, GF3, RATIONAL):
            table = graph_betti_table(g, field)
            assert graph_betti_table(h, field) == table
            assert graded_betti_table(clique_complex(g), field) == table
            assert graded_betti_table(clique_complex(h), field) == table
            if expected is not None:
                assert table.entries == expected


def join(g: Graph, h: Graph) -> Graph:
    """g and h side by side, every vertex of g joined to every vertex of h: Delta(g) * Delta(h)."""
    return Graph.from_edges(g.n + h.n, [*g.edges(), *((g.n + u, g.n + v) for u, v in h.edges()),
                                        *((u, g.n + v) for u in range(g.n) for v in range(h.n))])


def cross_polytope(m: int) -> Graph:
    """The complement of a perfect matching on 2m vertices; its clique complex is the (m-1)-sphere."""
    g = Graph.from_edges(2, [])
    for _ in range(m - 1):
        g = join(g, Graph.from_edges(2, []))
    return g


# a G(9, 0.7), the first random graph of a seeded search whose table ranks a
# conflict: its strong-collapse core keeps faces of size 3
RANKED_CONFLICT = Graph.from_edges(9, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6), (1, 8), (2, 3),
    (2, 4), (2, 5), (2, 8), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7), (6, 7), (6, 8), (7, 8)])

# a G(9, 0.6) from a seeded search: of its four ranked conflicts two share a
# core, and two of its three cores have 8 vertices but different homology
SHARED_CORES = Graph.from_edges(9, [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (2, 8), (3, 4),
    (3, 5), (3, 7), (4, 6), (4, 7), (5, 6), (5, 8), (6, 7), (6, 8), (7, 8)])


@st.composite
def recurrence_graphs(draw):
    """Random graphs, cross-polytopes and joins of two random graphs, at n <= 10."""
    kind = draw(st.sampled_from(["random", "cross-polytope", "join"]))
    if kind == "random":
        return draw(small_graphs(n_max=10))
    if kind == "cross-polytope":
        return cross_polytope(draw(st.integers(min_value=1, max_value=5)))
    g = draw(small_graphs(n_max=6))
    return join(g, draw(small_graphs(n_max=10 - g.n)))


FOUR_FIELDS = pytest.mark.parametrize("field", [RATIONAL, GF2, GF3, FieldSpec(5)], ids=["QQ", "GF2", "GF3", "GF5"])


class TestMayerVietoris:
    """graph_betti_table's subset recurrence against the plain Hochster sum and the sympy oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(recurrence_graphs())
    def test_matches_hochster_sum(self, g):
        c = clique_complex(g)
        for field in (GF2, GF3, FieldSpec(5), RATIONAL):
            assert graph_betti_table(g, field) == graded_betti_table(c, field), (g.n, g.edges())

    @FOUR_FIELDS
    @pytest.mark.parametrize("m", [3, 4])
    def test_cross_polytope_is_a_complete_intersection(self, field, m):
        # I(G^c) = (x_1 y_1, ..., x_m y_m): the Koszul complex, beta_{i,2i} = C(m, i).
        # A w with homology is a union of antipodal pairs, so a conflict x is
        # a cone on its top vertex v: nb = w, and rank i_k = dim H_k(w) != 0
        table = graph_betti_table(cross_polytope(m), field)
        assert table.entries == {(i, 2 * i): math.comb(m, i) for i in range(m + 1)}

    @FOUR_FIELDS
    def test_suspended_pentagon_ranks_its_conflicts(self, monkeypatch, field):
        # Delta is the 2-sphere.  For a pentagon vertex v with neighbours a
        # and b, and one more pentagon vertex c, w = {poles, a, b, c} and
        # nb = {poles, a, b} both span circles, and i_1 maps the one onto the
        # other: with v on top, a conflict that no count resolves.  But
        # Delta|_x is a disc, which strong collapses take to one vertex, so
        # the conflict's ranks are all 0, with no column reduced and no
        # complex built
        g = join(construct_example("cycle", t=5), Graph.from_edges(2, []))
        built, reduced = _record_ranks(monkeypatch)
        cores = _record_cores(monkeypatch)
        assert graph_betti_table(g, field).entries == oracle_betti_table(g)
        assert cores and all(core.bit_count() == 1 for _, _, core in cores)
        assert not built and not reduced

    @pytest.fixture(scope="class")
    def ranked_conflict_oracle(self):
        return oracle_betti_table(RANKED_CONFLICT)

    @FOUR_FIELDS
    def test_conflict_core_ranks_its_faces(self, monkeypatch, field, ranked_conflict_oracle):
        # some conflict's strong-collapse core keeps faces of size 3; each
        # distinct core is ranked once, on the columns of its own cliques,
        # and no FaceColumns is built
        built, reduced = _record_ranks(monkeypatch)
        cores = _record_cores(monkeypatch)
        rankings = _record_rankings(monkeypatch)
        assert graph_betti_table(RANKED_CONFLICT, field).entries == ranked_conflict_oracle
        assert not built and reduced
        ranked = [(x, closed, core) for x, closed, core in cores if core.bit_count() > 1]
        distinct = {core for _, _, core in ranked}
        assert len(rankings) == len(distinct)
        closed = cores[0][1]  # the relabelled graph's closed neighbourhoods
        for faces in rankings:
            core = functools.reduce(operator.or_, faces)
            assert core in distinct
            assert sorted(faces) == [f for f in betti._submasks(core) if all(closed[u] & f == f for u in bits(f))]
        assert max(f.bit_count() for faces in rankings for f in faces) >= 3
        # each core lies in its subset, some core is a proper part of it, and
        # no vertex of a core is dominated there (tested pair by pair)
        assert ranked and any(core != x for x, _, core in ranked)
        for x, closed, core in ranked:
            assert core & ~x == 0
            for u, other in itertools.permutations(bits(core), 2):
                assert closed[u] & core & ~closed[other]

    @FOUR_FIELDS
    def test_equal_cores_share_one_ranking(self, monkeypatch, field):
        # one core is reached twice and ranked once; two other cores have 8
        # vertices each and different homology, so each needs its own ranks
        expected = graded_betti_table(clique_complex(SHARED_CORES), field)
        cores = _record_cores(monkeypatch)
        rankings = _record_rankings(monkeypatch)
        assert graph_betti_table(SHARED_CORES, field) == expected
        ranked = [core for _, _, core in cores if core.bit_count() > 1]
        assert len(rankings) == len(set(ranked)) < len(ranked)
        sizes = [core.bit_count() for core in set(ranked)]
        assert len(set(sizes)) < len(sizes)

    @pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
    def test_matches_hochster_sum_at_benchmark_sizes(self, field):
        # n = 11-12 at the fuzz probabilities: larger cosets than the
        # Hypothesis property reaches, and the unstored last block
        rng = random.Random(23)
        for n in (11, 12):
            for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
                g = random_graph(rng, n, p)
                assert graph_betti_table(g, field) == graded_betti_table(clique_complex(g), field), (n, p)


def join_universal(g: Graph, u: int) -> Graph:
    """g plus u vertices adjacent to every other vertex."""
    n = g.n + u
    return Graph.from_edges(n, [*g.edges(), *((v, w) for w in range(g.n, n) for v in range(w))])


def generator_route(g: Graph, field: FieldSpec = GF2) -> tuple[int, int]:
    """Depths of S/I^(2) and S/I^2 from the built ideals, through depth_monomial_quotient."""
    symb, square = second_powers(g, allow_large=True)
    return (depth_monomial_quotient(symb, field, allow_large=True).depth,
            depth_monomial_quotient(square, field, allow_large=True).depth)


class TestSecondPowerDepths:
    FIELDS = (RATIONAL, GF2, GF3, FieldSpec(5))

    def test_matches_generator_route(self):
        for g in graph_corpus(seed=131, count=36, n_max=8, n_min=3):
            for field in self.FIELDS:
                assert second_power_depths(g, field) == generator_route(g, field), (g.edges(), field)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_graphs(), st.sampled_from([0, 2, 3, 5]))
    def test_property_matches_generator_route(self, g, p):
        field = FieldSpec(p)
        assert second_power_depths(g, field) == generator_route(g, field)

    def test_matches_polarized_tables(self):
        # an oracle that shares no code with the depth scan: polarization keeps
        # the graded Betti numbers, so each depth is n - pd of the Hochster
        # table of the polarized complex of the built ideal
        for g in graph_corpus(seed=151, count=60, n_max=5, n_min=2):
            for field in (GF2, GF3, RATIONAL):
                expected = tuple(g.n if i.is_zero() else g.n - graded_betti_table(
                    complex_from_squarefree_ideal(polarize(i).ideal), field).projective_dimension()
                    for i in second_powers(g))
                assert second_power_depths(g, field) == expected, (g.edges(), field)

    def test_complete_graph(self):
        # I = 0, so both quotients are S
        for n in range(1, 8):
            assert second_power_depths(construct_example("complete", t=n)) == (n, n)

    def test_complement_of_perfect_matching(self):
        # I is generated by k disjoint edges, a complete intersection, and
        # G^c has no triangle: S/I^(2) = S/I^2 is Cohen-Macaulay of dimension k
        for k in range(1, 5):
            g = Graph.from_edges(2 * k, [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k)
                                         if not (i % 2 == 0 and j == i + 1)])
            for field in self.FIELDS:
                assert second_power_depths(g, field) == (k, k)
                if k <= 3:  # the generator route takes seconds from k = 4
                    assert generator_route(g, field) == (k, k)

    def test_universal_vertices_are_forced(self):
        # a universal vertex of G is isolated in G^c: its variable is in no
        # generator, so a_j < 0 for every degree, and it adds 1 to each depth
        for g in (C6, FIG1, construct_example("path", t=5), construct_example("bipartite", a=2, b=3)):
            depths = second_power_depths(g)
            for u in (1, 2):
                joined = join_universal(g, u)
                assert second_power_depths(joined) == (depths[0] + u, depths[1] + u) == generator_route(joined)

    def test_guard_counts_non_universal_vertices(self):
        c11 = construct_example("cycle", t=11)
        with pytest.raises(GuardError, match="^second-power scan limited to 10 non-universal vertices, "
                                             "got 11; override to force$"):
            second_power_depths(c11)
        assert second_power_depths(c11, allow_large=True) == (1, 0)
        # 12 universal vertices of 14; the polarized-size guard allowed this too
        assert second_power_depths(join_universal(Graph.from_edges(2, []), 12)) == (13, 13)
        start = time.perf_counter()
        with pytest.raises(GuardError, match="face enumeration limited to n <= 20"):
            second_power_depths(construct_example("cycle", t=21), allow_large=True)
        assert time.perf_counter() - start < 1.0


class TestKappaViaBetti:
    def test_matches_flow_kappa(self, small_corpus, medium_corpus):
        for g in small_corpus + medium_corpus:
            kappa = kappa_by_ascending_scan(g)
            assert vertex_connectivity(g).kappa == kappa
            for field in (GF2, GF3, FieldSpec(5), RATIONAL):
                assert kappa_via_betti(g, field) == kappa

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_graphs(n_max=9))
    def test_strand_matches_flow_and_bruteforce(self, g):
        kappa = vertex_connectivity(g).kappa
        assert vertex_connectivity_bruteforce(g).kappa == kappa
        for field in (GF2, GF3, FieldSpec(5), RATIONAL):
            assert kappa_via_betti(g, field) == kappa, (g.n, g.edges())

    def test_kappa_reads_one_graph_table(self, monkeypatch):
        # kappa is the linear strand of one graph table: the only boundary
        # columns built are those the table ranks at its conflicts
        tables, inside, outside, depth = [], [], [], [0]
        table_of, build = betti.graph_betti_table, homology.boundary_columns

        def counting_table(*args, **kwargs):
            tables.append(args)
            depth[0] += 1
            try:
                return table_of(*args, **kwargs)
            finally:
                depth[0] -= 1

        def counting_build(*args):
            (inside if depth[0] else outside).append(args)
            return build(*args)

        monkeypatch.setattr(betti, "graph_betti_table", counting_table)
        monkeypatch.setattr(homology, "boundary_columns", counting_build)
        monkeypatch.setattr(betti, "boundary_columns", counting_build, raising=False)
        for field in (GF2, GF3, RATIONAL):
            tables.clear()
            assert kappa_via_betti(RANKED_CONFLICT, field) == vertex_connectivity(RANKED_CONFLICT).kappa
            assert tables == [(RANKED_CONFLICT, field)]
        assert inside and not outside

    def test_read_off_the_linear_strand(self):
        # n less the largest j with beta_{j-1,j} != 0, or n - 1 with none:
        # C4 has beta_{1,2} = 2 from its diagonals and beta_{2,4} off the strand
        assert betti.kappa_from_table(BettiTable(4, {(0, 0): 1, (1, 2): 2, (2, 4): 1})) == 2
        assert betti.kappa_from_table(BettiTable(4, {(0, 0): 1})) == 3
        path = {(0, 0): 1, (1, 2): 3, (2, 3): 2}  # P4: 3 non-edges, 2 separated triples
        assert graph_betti_table(construct_example("path", t=4)).entries == path
        assert betti.kappa_from_table(BettiTable(4, path)) == 1

    def test_complete_graph(self):
        assert kappa_via_betti(construct_example("complete", t=4)) == 3

    def test_disconnected(self):
        assert kappa_via_betti(Graph(3, (0, 0, 0))) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph is undefined"):
            kappa_via_betti(Graph(0, ()))

    def test_k1(self):
        # K1 is complete: kappa = n - 1 = 0, as flow and brute force give
        assert kappa_via_betti(Graph(1, (0,))) == 0

    def test_guard_and_override(self):
        path = construct_example("path", t=SUBSET_SCAN_LIMIT + 1)
        with pytest.raises(GuardError):
            kappa_via_betti(path)
        assert kappa_via_betti(path, allow_large=True) == 1


class TestMonomialQuotientDepth:
    def test_single_square(self):
        # S/(x^2) in one variable has depth 0
        assert depth_monomial_quotient(MonomialIdeal(1, ((2,),))).depth == 0

    def test_zero_ideal(self):
        assert depth_monomial_quotient(MonomialIdeal(4, ())).depth == 4

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            depth_monomial_quotient(MonomialIdeal(2, ((0, 0),)))

    def test_squarefree_agrees_with_direct_scan(self, small_corpus):
        for g in small_corpus[:20]:
            i = edge_ideal(g.complement())
            direct = graph_depth(g).depth
            assert depth_monomial_quotient(i).depth == direct

    def test_maximal_ideal_power(self):
        # S/(x,y)^2 in two variables has depth 0
        i = parse_ideal("x1^2\nx1*x2\nx2^2\n")
        assert depth_monomial_quotient(i).depth == 0

    def test_principal_monomial(self):
        # S/(x1*x2^2) is a hypersurface ring: depth n - 1
        i = parse_ideal("x1*x2^2", num_vars=3)
        assert depth_monomial_quotient(i).depth == 2

    def test_guard(self):
        gens = [tuple(9 if i == j else 0 for i in range(2)) for j in range(2)]
        with pytest.raises(GuardError, match="polarized"):
            depth_monomial_quotient(minimalize(gens, 2))

    @pytest.mark.parametrize("allow_large", [False, True])
    def test_parsed_guard_raises_as_the_full_guard(self, allow_large):
        # over the face-enumeration limit, the guard on parsed generators raises
        # what depth_monomial_quotient raises on the minimalized ideal, so a
        # redundant generator of high exponent does not count toward rho
        def error_of(call):
            try:
                call()
            except ValueError as e:
                return type(e), str(e)
            return None

        rng = random.Random(12)
        for _ in range(80):
            n = rng.randint(NONFACE_SCAN_LIMIT + 1, NONFACE_SCAN_LIMIT + 6)
            gens = [{j: rng.randint(0, 20) for j in rng.sample(range(n), rng.randint(0, 3))}
                    for _ in range(rng.randint(0, 4))]
            gens += [{0: 1}] * rng.randint(0, 1)
            ideal = minimalize([tuple(e.get(i, 0) for i in range(n)) for e in gens], n)
            expected = error_of(lambda: depth_monomial_quotient(ideal, allow_large=allow_large))
            assert error_of(lambda: guard_parsed_ideal(n, gens, allow_large)) == expected, gens

    def test_face_guard_before_the_radical(self):
        # the radical's length-n tuples take seconds at this n
        n = 300_000
        start = time.perf_counter()
        with pytest.raises(GuardError, match="face enumeration limited"):
            depth_monomial_quotient(MonomialIdeal(n, ((0,) * (n - 1) + (1,),)), allow_large=True)
        assert time.perf_counter() - start < 1.0

    def test_parsed_guard_leaves_small_rings(self):
        # x1 divides x1^17: the minimal ideal (x1) polarizes to one variable
        guard_parsed_ideal(1, [{0: 1}, {0: 17}], False)
        guard_parsed_ideal(NONFACE_SCAN_LIMIT, [{}], False)

    def test_polarized_generators_are_minimal_nonfaces(self, small_corpus):
        # the polarization oracle reads Betti numbers off this complex, whose
        # minimal non-faces must be the polarized generators
        for g in small_corpus[:25]:
            symb, square = second_powers(g)
            for ideal in (symb, square):
                if ideal.is_zero():
                    continue
                pol = polarize(ideal).ideal
                assert stanley_reisner_ideal(complex_from_squarefree_ideal(pol)) == pol

    def test_matches_polarized_betti_table(self, small_corpus):
        # independent oracle: polarization keeps the graded Betti numbers, so
        # depth S/I = n - pd of the full Hochster table of the polarized complex
        rng = random.Random(8)
        ideals = [i for g in small_corpus[:30] if g.n <= 5 for i in second_powers(g) if not i.is_zero()]
        # depth 1 is attained only at |G_a| = 1 with Delta_a = {emptyset},
        # after G_a = {} has already given 2
        ideals.append(parse_ideal("x2*x3*x4\nx2*x3^2\nx2^2*x3\nx1*x3^2*x4\n"))
        while len(ideals) < 40:
            n = rng.randint(2, 4)
            gens = [tuple(rng.choice((0, 1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            ideal = minimalize(gens, n)
            if not (ideal.is_unit() or ideal.is_squarefree()):
                ideals.append(ideal)
        for ideal in ideals:
            pol = complex_from_squarefree_ideal(polarize(ideal).ideal)
            for field in (GF2, GF3, RATIONAL):
                pd = graded_betti_table(pol, field).projective_dimension()
                assert depth_monomial_quotient(ideal, field).depth == ideal.num_vars - pd, ideal

    def test_witness_in_polarized_ring(self):
        # polarization is only the test oracle: the witness degree a has one
        # coordinate per variable of S, -1 <= a_j < rho_j, and Delta_a built
        # from its definition has reduced homology in degree ell
        ideals = [parse_ideal("x1^2", num_vars=1), parse_ideal("x1^2\nx1*x2\nx2^2\n"),
                  parse_ideal("x1*x2^2\nx2*x3^3", num_vars=4), *second_powers(C6)]
        for ideal in ideals:
            assert ideal.num_vars < polarize(ideal).ideal.num_vars
            assert_witness_recomputes(ideal, depth_monomial_quotient(ideal), GF2)

    @pytest.mark.parametrize("text, num_vars", [
        ("x1^2*x2", None),  # rho_j > 1 only on x1, which G_a = {x1} can hold
        ("x1^3*x2\nx2*x3", None),
        ("x1^2*x2\nx2*x3", 5),  # x4 and x5 are in no generator: forced into every G_a
        ("x1^2\nx2*x3\nx3*x4", None),  # a squared ghost among squarefree generators
        ("x2^2*x3\nx1*x2\nx3*x4", 6),
    ])
    def test_link_shortcut_and_forced_variables(self, text, num_vars):
        # Delta_a is read as the link of G_a where a is 0 off G_a and masked
        # elsewhere; the polarized Hochster table is the oracle
        ideal = parse_ideal(text, num_vars=num_vars)
        pol = complex_from_squarefree_ideal(polarize(ideal).ideal)
        for field in (RATIONAL, GF2, GF3):
            res = depth_monomial_quotient(ideal, field)
            assert res.depth == ideal.num_vars - graded_betti_table(pol, field).projective_dimension()
            assert_witness_recomputes(ideal, res, field)


def assert_witness_recomputes(ideal: MonomialIdeal, res: DepthResult, field: FieldSpec) -> None:
    """Delta_a built from Takayama's definition at the witness a has reduced homology in degree ell."""
    a, ell = res.witness
    n = ideal.num_vars
    assert len(a) == n
    rho = ideal.max_exponents()
    assert all(-1 <= a[j] < rho[j] for j in range(n))
    neg = mask_of(j for j in range(n) if a[j] < 0)
    faces = {f for f in range(1 << n) if f & neg == 0 and all(
        any(not (f | neg) >> j & 1 and b[j] > a[j] for j in range(n)) for b in ideal.gens)}
    assert neg.bit_count() + ell + 1 == res.depth
    assert reduced_betti(SimplicialComplex(n, frozenset(faces)), field).get(ell, 0) > 0
