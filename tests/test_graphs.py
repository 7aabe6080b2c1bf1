from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdepth import graphs
from srdepth.betti import kappa_via_betti
from srdepth.graphs import (
    BRUTE_FORCE_LIMIT,
    ConnectivityResult,
    Graph,
    GuardError,
    ParseError,
    bits,
    format_edge_list,
    is_chordal,
    is_connected,
    mask_of,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from srdepth.homology import GF2, GF3, RATIONAL, FieldSpec
from srdepth.verify import construct_example, random_chordal_graph

from conftest import PINNED_KAPPA, graph_corpus, random_graph
from helpers import (induced_subgraph, kappa_by_ascending_scan, minimal_vertex_covers, minimum_st_separators,
                     reached_within)

C6 = construct_example("cycle", t=6)
FIG1 = construct_example("figure1")
K4 = construct_example("complete", t=4)
# kappa 3: from s = 4, k = floor((n - s + 1) / 2) = 2, and the only
# 3-separator {1, 4, 5} leaves {0, 2, 7} and {3, 6}, so only |C| = k finds it
COMPONENT_BOUND = Graph.from_edges(8, [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 4), (1, 6), (1, 7), (2, 4), (2, 5),
                                       (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)])
# kappa 2: the only 2-separator {3, 5} leaves {0, 2, 4} and {1, 6, 7}, and ESU
# reaches each through a child that keeps what is left of its parent's extension set
CARRIED_EXTENSION = Graph.from_edges(8, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5),
                                         (3, 4), (3, 5), (3, 7), (5, 6), (5, 7), (6, 7)])


def graph_strategy(n_max=9):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=n_max))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Graph.from_edges(n, chosen)
    return st.composite(build)()


def encode_graph6(g):
    """graph6 text of g: the size field, then the upper triangle column by column, 6 bits a byte."""
    size = [g.n] if g.n < 63 else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    flags = [g.has_edge(u, v) for v in range(1, g.n) for u in range(v)]
    flags += [False] * (-len(flags) % 6)
    body = [sum(f << 5 - i for i, f in enumerate(flags[k:k + 6])) for k in range(0, len(flags), 6)]
    return "".join(chr(63 + x) for x in size + body)


class TestParsing:
    def test_edge_list_c6(self):
        g = parse_edge_list("6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6")
        assert g.num_edges() == 6
        assert sorted(g.edges()) == sorted(C6.edges())

    def test_isolated_vertices(self):
        g = parse_edge_list("2\n")
        assert g.n == 2 and g.num_edges() == 0

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("3\n1 2\n1 2\n2 3")
        assert g.num_edges() == 2

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n3\n\n1 2\n# middle\n2 3\n")
        assert g.num_edges() == 2

    @pytest.mark.parametrize("text,fragment", [
        ("3\n1 2 3", "line 2"),
        ("3\n1 4", "out of range"),
        ("3\n2 2", "loop"),
        ("", "vertex count"),
        ("x\n", "line 1"),
    ])
    def test_edge_list_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_edge_list(text)

    # frozen with networkx.to_graph6_bytes
    @pytest.mark.parametrize("g6,n,edges", [
        ("EhEG", 6, [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]),
        ("C~", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ("IheA@GUAo", 10, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7),
                           (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]),
    ])
    def test_graph6(self, g6, n, edges):
        g = parse_graph6(g6)
        assert g.n == n
        assert sorted(g.edges()) == sorted(edges)

    def test_graph6_header_and_dispatch(self):
        assert parse_graph(">>graph6<<C~\n", "graph6").num_edges() == 6

    def test_graph6_length_mismatch(self):
        with pytest.raises(ParseError, match="length mismatch"):
            parse_graph6("EhE")

    @pytest.mark.parametrize("line", ["C~ ~", ">>graph6<<C~ ~", "C~\x7f"])
    def test_graph6_bad_byte_offset(self, line):
        # the offset counts from the first byte after the header; whitespace
        # around the line is stripped, so the bad byte is an inner one
        with pytest.raises(ParseError, match="out of range at offset 2$"):
            parse_graph6(line)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=70).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n * (n - 1) // 2) - 1))))
    def test_graph6_round_trip(self, n_and_bits):
        # n >= 63 takes the 4-byte size field
        n, edge_bits = n_and_bits
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if edge_bits >> k & 1])
        assert parse_graph6(encode_graph6(g)) == g

    def test_format_round_trip(self):
        assert parse_edge_list(format_edge_list(FIG1)).edges() == FIG1.edges()


class TestBasicOps:
    def test_complement_c6_edges(self):
        # derived by enumerating all 15 pairs and removing the cycle edges
        expected = sorted(set(itertools.combinations(range(6), 2)) - set(C6.edges()))
        assert sorted(C6.complement().edges()) == expected
        assert len(expected) == 9

    def test_complement_complete(self):
        assert K4.complement().num_edges() == 0

    def test_c5_self_complementary(self):
        c5 = construct_example("cycle", t=5)
        expected = sorted(set(itertools.combinations(range(5), 2)) - set(c5.edges()))
        assert sorted(c5.complement().edges()) == expected
        assert c5.complement().num_edges() == 5

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(n_max=12))
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    def test_induced_path(self):
        sub, labels = induced_subgraph(C6, mask_of([0, 1, 2]))
        assert labels == (0, 1, 2)
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_induced_full_is_identity(self):
        sub, labels = induced_subgraph(FIG1, FIG1.full_mask)
        assert sub == FIG1 and labels == tuple(range(6))

    def test_figure1_minus_2_and_5_connected(self):
        sub, _ = induced_subgraph(FIG1, FIG1.full_mask & ~mask_of([1, 4]))  # vertices x2 and x5
        assert sub.n == 4 and is_connected(sub)

    def test_neighborhoods(self):
        assert set(bits(C6.adj[0])) == {1, 5}
        assert set(bits(C6.closed_neighborhood(0))) == {0, 1, 5}
        iso = Graph.from_edges(3, [(0, 1)])
        assert iso.adj[2] == 0
        assert set(bits(iso.closed_neighborhood(2))) == {2}
        assert K4.closed_neighborhood(0) == K4.full_mask

    def test_validation(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize("adj, vertex", [((-1, 0, 0), 1), ((0, 0b1000, 0), 2), ((0, 0, -8), 3)])
    def test_row_out_of_range(self, adj, vertex):
        # a negative row has bits at and above n, like a neighbour >= n
        with pytest.raises(ValueError, match=f"neighbor out of range at vertex {vertex}"):
            Graph(3, adj)

    def test_range_check_is_linear(self):
        # a check quadratic in n takes seconds here; the linear one ~0.02 s
        start = time.perf_counter()
        g = Graph.from_edges(200_000, [(0, 1)])
        assert time.perf_counter() - start < 1.0
        assert g.num_edges() == 1


class TestConnectivity:
    @pytest.mark.parametrize("g,expected", [
        (C6, 2),
        (K4, 3),
        (FIG1, 4),
        (construct_example("multipartite", t=2), 4),
        (Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]), 0),  # K3 + isolated vertex
        (Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)]), 1),  # a tree
        (Graph.from_edges(1, []), 0),  # K1 is complete, n - 1 = 0
    ])
    def test_known_values(self, g, expected):
        assert vertex_connectivity(g).kappa == expected
        if g.n <= BRUTE_FORCE_LIMIT:
            assert vertex_connectivity_bruteforce(g).kappa == expected

    @staticmethod
    def assert_witness(g, res):
        assert (res.witness is None) == g.is_complete()
        if res.witness is not None:
            assert res.witness.bit_count() == res.kappa
            assert not is_connected(g, g.full_mask & ~res.witness)

    def test_witness_contract(self):
        # kappa = delta on C6, FIG1 and K_{2,3}; below it in most pinned graphs
        graphs = [C6, FIG1, construct_example("bipartite", a=2, b=3), K4, Graph(1, (0,))]
        for g in graphs + [g for g, _ in PINNED_KAPPA.values()]:
            for scan in (vertex_connectivity, vertex_connectivity_bruteforce):
                res = scan(g)
                assert res.kappa == kappa_by_ascending_scan(g)
                self.assert_witness(g, res)

    @staticmethod
    def record_component_side(monkeypatch) -> list:
        calls = []
        search = graphs._separator_by_components

        def recording(g, size, k):
            calls.append((size, k))
            return search(g, size, k)

        monkeypatch.setattr(graphs, "_separator_by_components", recording)
        return calls

    # brute-force kappa proves that no (s - 1)-separator exists from the
    # vertex side where k = floor((n - s + 1) / 2) > s, else from the
    # component side
    @pytest.mark.parametrize("g, kappa, component_side", [
        pytest.param(construct_example("cycle", t=8), 2, False, id="c8"),  # s = 2, k = 3
        pytest.param(construct_example("path", t=7), 1, False, id="p7"),  # s = 1, k = 3
        pytest.param(construct_example("bipartite", a=5, b=5), 5, True, id="k5,5"),  # s = 5, k = 3
        pytest.param(C6, 2, True, id="c6"),  # s = 2, k = 2
        pytest.param(COMPONENT_BOUND, 3, True, id="component_bound"),
        pytest.param(CARRIED_EXTENSION, 2, True, id="carried_extension"),
    ])
    def test_bruteforce_sides(self, monkeypatch, g, kappa, component_side):
        calls = self.record_component_side(monkeypatch)
        res = vertex_connectivity_bruteforce(g)
        assert bool(calls) == component_side
        assert all(k == (g.n - size) // 2 <= size + 1 for size, k in calls)
        assert res.kappa == kappa == kappa_by_ascending_scan(g)
        self.assert_witness(g, res)

    def test_bruteforce_on_dense_graphs(self, monkeypatch):
        # where the component side runs: n = 8-12, p >= 0.6
        calls = self.record_component_side(monkeypatch)
        rng = random.Random(8)
        component_side = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(8, 12), rng.choice((0.6, 0.7, 0.8, 0.9)))
            before = len(calls)
            res = vertex_connectivity_bruteforce(g)
            assert res.kappa == kappa_by_ascending_scan(g), format_edge_list(g)
            self.assert_witness(g, res)
            component_side += len(calls) > before
        assert component_side == 245  # the others are complete, or kappa is small

    @settings(max_examples=300, deadline=None)
    @given(graph_strategy(n_max=10).flatmap(lambda g: st.tuples(st.just(g), st.one_of(
        st.integers(min_value=0, max_value=g.full_mask),
        st.sampled_from([0, g.full_mask] + [1 << v for v in range(g.n)]),
        st.sampled_from([1 << u | 1 << v for u, v in itertools.combinations(range(g.n), 2)
                         if not g.has_edge(u, v)] or [0])))))
    @example((C6, 0))
    @example((C6, 1 << 3))
    @example((C6, 1 << 0 | 1 << 2))
    @example((C6, C6.full_mask))
    @example((Graph.from_edges(4, [(0, 1), (2, 3)]), 0b1111))
    def test_is_connected_matches_search(self, g_within):
        g, within = g_within
        assert is_connected(g, within) == (reached_within(g, within & -within, within) == within)

    def test_complete_graph_has_no_witness(self):
        res = vertex_connectivity(K4)
        assert res == ConnectivityResult(3, None)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity(Graph(0, ()))
        with pytest.raises(ValueError):
            vertex_connectivity_bruteforce(Graph(0, ()))

    def test_flow_equals_bruteforce_on_corpus(self, small_corpus, medium_corpus):
        for g in graph_corpus(seed=5, count=80, n_max=10) + small_corpus + medium_corpus:
            kappa = kappa_by_ascending_scan(g)
            assert vertex_connectivity(g).kappa == kappa
            assert vertex_connectivity_bruteforce(g).kappa == kappa

    # the search down from a least degree: past a first minimal separator
    # above kappa + 1, down to kappa = 0, and on a complete graph
    @pytest.mark.parametrize("name", PINNED_KAPPA)
    def test_pinned_kappa(self, name):
        g, kappa = PINNED_KAPPA[name]
        assert kappa_by_ascending_scan(g) == kappa
        assert vertex_connectivity(g).kappa == kappa
        assert vertex_connectivity_bruteforce(g).kappa == kappa
        for field in (GF2, GF3, FieldSpec(5), RATIONAL):
            assert kappa_via_betti(g, field) == kappa

    @settings(max_examples=80, deadline=None)
    @given(graph_strategy(n_max=9))
    @example(Graph(1, (0,)))
    def test_property_matches_ascending_scan(self, g):
        kappa = kappa_by_ascending_scan(g)
        assert vertex_connectivity(g).kappa == kappa
        assert vertex_connectivity_bruteforce(g).kappa == kappa
        for field in (GF2, GF3, FieldSpec(5), RATIONAL):
            assert kappa_via_betti(g, field) == kappa

    def test_cut_is_the_minimum_separator_closest_to_s(self, small_corpus, medium_corpus):
        # every maximum flow leaves the same residual reach, whose cut is the
        # minimum separator with the least s-side component
        pairs = 0
        for g in graph_corpus(seed=23, count=700, n_max=9, n_min=3) + small_corpus + medium_corpus:
            for s, t in itertools.permutations(range(g.n), 2):
                if g.has_edge(s, t):
                    continue
                sides = minimum_st_separators(g, s, t)
                flow, cut = graphs._min_vertex_cut(g, s, t)
                assert flow == next(iter(sides)).bit_count(), (format_edge_list(g), s, t)
                assert cut in sides and all(sides[cut] & ~side == 0 for side in sides.values()), \
                    (format_edge_list(g), s, t, cut)
                pairs += 1
        assert pairs == 12_994

    def test_cut_steps_back_through_a_flow_path(self):
        # 1-based, s = 3 and t = 7 with flow path 3-2-4-1-7: the last search
        # reaches the exit of 2 only by the step from the exit of 4 back to
        # its own entry; without that step the cut is {1, 2}
        g = Graph.from_edges(7, [(0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (2, 5), (4, 5)])
        assert graphs._min_vertex_cut(g, 2, 6) == (1, mask_of([0]))

    def test_cap_stops_the_flow(self, small_corpus, medium_corpus):
        # below the cap the cut is the uncapped one; from the cap on, no cut
        capped = 0
        for g in small_corpus + medium_corpus:
            for s, t in itertools.combinations(range(g.n), 2):
                if g.has_edge(s, t):
                    continue
                flow, cut = graphs._min_vertex_cut(g, s, t)
                for cap in range(flow + 2):
                    expected = (flow, cut) if flow < cap else (cap, None)
                    assert graphs._min_vertex_cut(g, s, t, cap) == expected, (format_edge_list(g), s, t, cap)
                capped += flow + 1
        assert capped

    def test_flow_stops_at_evens_bound(self, monkeypatch):
        # the scan stops once its first vertex reaches the best cut found, yet
        # kappa and the witness are those of the first minimum pair of all pairs
        cut = graphs._min_vertex_cut
        calls = []

        def counting_cut(g, s, t, cap=None):
            calls.append((s, t))
            return cut(g, s, t, cap)

        monkeypatch.setattr(graphs, "_min_vertex_cut", counting_cut)
        rng = random.Random(61)
        skipped = 0
        for _ in range(150):
            n = rng.randint(3, 11)
            g = random_graph(rng, n, rng.choice((0.4, 0.6, 0.8, 0.9)))
            if g.is_complete() or not is_connected(g):
                continue
            best = None
            pairs = [(s, t) for s, t in itertools.combinations(range(n), 2) if not g.has_edge(s, t)]
            for s, t in pairs:
                value, witness = cut(g, s, t)
                if best is None or value < best[0]:
                    best = (value, witness)
            calls.clear()
            assert vertex_connectivity(g) == ConnectivityResult(*best), format_edge_list(g)
            assert len(calls) <= (best[0] + 1) * (n - 1)
            skipped += len(pairs) - len(calls)
        assert skipped

    def test_kappa_at_most_min_degree(self, medium_corpus):
        for g in medium_corpus:
            if not g.is_complete():
                mindeg = min(row.bit_count() for row in g.adj)
                assert vertex_connectivity(g).kappa <= mindeg

    def test_kappa_drops_by_at_most_one(self, small_corpus):
        for g in small_corpus:
            if g.is_complete() or g.n < 3:
                continue
            k = vertex_connectivity(g).kappa
            for v in range(g.n):
                sub, _ = induced_subgraph(g, g.full_mask & ~(1 << v))
                assert vertex_connectivity(sub).kappa >= k - 1

    def test_bruteforce_guard(self):
        with pytest.raises(GuardError):
            vertex_connectivity_bruteforce(Graph(BRUTE_FORCE_LIMIT + 1,
                                                 (0,) * (BRUTE_FORCE_LIMIT + 1)))


class TestChordal:
    def test_trees_are_chordal(self):
        ok, peo = is_chordal(Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)]))
        assert ok and len(peo) == 5

    def test_cycle_not_chordal(self):
        assert is_chordal(C6) == (False, None)

    def test_figure1_not_chordal(self):
        assert is_chordal(FIG1) == (False, None)

    def test_peo_witness_is_valid(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_chordal_graph(rng, rng.randint(2, 10))
            ok, peo = is_chordal(g)
            assert ok
            pos = {v: i for i, v in enumerate(peo)}
            for i, v in enumerate(peo):
                later = [u for u in bits(g.adj[v]) if pos[u] > i]
                for a, b in itertools.combinations(later, 2):
                    assert g.has_edge(a, b)

    def test_random_nonchordal_detected(self):
        # C4 plus chords elsewhere still has an induced 4-cycle
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_chordal(g)[0] is False


class TestMinimalVertexCovers:
    """The brute-force covers behind the symbolic-square oracle in helpers."""

    def test_triangle(self):
        k3 = construct_example("complete", t=3)
        assert minimal_vertex_covers(k3) == [mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])]

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert minimal_vertex_covers(g) == [1, 2]

    def test_c4(self):
        c4 = construct_example("cycle", t=4)
        assert minimal_vertex_covers(c4) == [mask_of([0, 2]), mask_of([1, 3])]

    def test_each_cover_minimal(self, medium_corpus):
        for g in medium_corpus[:20]:
            for c in minimal_vertex_covers(g):
                assert all((c >> u & 1) or (c >> v & 1) for u, v in g.edges())
                for v in bits(c):
                    smaller = c ^ (1 << v)
                    assert not all((smaller >> a & 1) or (smaller >> b & 1)
                                   for a, b in g.edges())
