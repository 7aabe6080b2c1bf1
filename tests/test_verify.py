from __future__ import annotations

import json
import math
import random

import pytest

from srdepth.graphs import Graph, GuardError, vertex_connectivity
from srdepth.homology import GF3
from srdepth.verify import (
    CSV_HEADER,
    BoundSet,
    FuzzFailure,
    bounds,
    ceil_div,
    construct_example,
    fuzz_campaign,
    search_depth2,
    verify_graph,
)

from conftest import graph_corpus, random_graph
from helpers import is_subideal_of, lemma_arithmetic, second_powers


class TestBounds:
    def test_n6_k2(self):
        # C6 territory: ceil(2/6) = 1
        assert bounds(6, 2) == BoundSet(upper=3, lower_depth=2, lower_symbolic=1,
                                        lower_square=0, depth2_kappa_cap=3)

    def test_n6_k4(self):
        # figure-1 territory: ceil(4/2) = 2
        assert bounds(6, 4) == BoundSet(upper=5, lower_depth=3, lower_symbolic=2,
                                        lower_square=1, depth2_kappa_cap=3)

    def test_n10_k6(self):
        # joined pentagons: ceil(6/6) = 1, cap = 6
        b = bounds(10, 6)
        assert b.lower_depth == 2 and b.depth2_kappa_cap == 6

    def test_k_zero(self):
        b = bounds(5, 0)
        assert b.upper == 1 and b.lower_depth == 1 and b.lower_square == -1

    @pytest.mark.parametrize("n,k", [(4, 3), (4, -1), (3, 2)])
    def test_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            bounds(n, k)

    def test_ceil_div(self):
        assert ceil_div(4, 2) == 2
        assert ceil_div(5, 2) == 3
        assert ceil_div(0, 3) == 0
        assert ceil_div(7, 3) == math.ceil(7 / 3)


class TestLemma:
    def test_full_sweep_small(self):
        for n in range(2, 40):
            for k in range(0, n - 1):
                if 3 * k > 2 * n - 2:
                    assert lemma_arithmetic(n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lemma_arithmetic(6, 5)
        with pytest.raises(ValueError):
            lemma_arithmetic(6, 3)  # 3k = 9 <= 2n - 2 = 10


class TestConstructors:
    def test_figure1_shape(self):
        g = construct_example("figure1")
        assert g.n == 6 and g.num_edges() == 13
        assert vertex_connectivity(g).kappa == 4

    def test_cycle_path_complete(self):
        assert construct_example("cycle", t=5).num_edges() == 5
        assert construct_example("path", t=5).num_edges() == 4
        assert construct_example("complete", t=5).num_edges() == 10

    def test_bipartite_multipartite(self):
        assert construct_example("bipartite", a=2, b=3).num_edges() == 6
        g = construct_example("multipartite", t=2)
        assert g.n == 6 and g.num_edges() == 12

    def test_joined_cycles(self):
        g = construct_example("joined_cycles", t=5)
        assert g.n == 10
        assert g.num_edges() == 5 + 5 + 20
        assert vertex_connectivity(g).kappa == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            construct_example("cycle", t=2)
        with pytest.raises(ValueError):
            construct_example("joined_cycles", t=4)
        with pytest.raises(ValueError):
            construct_example("moebius")


class TestVerifyGraph:
    def test_c6_with_powers(self):
        r = verify_graph(construct_example("cycle", t=6), include_powers=True)
        assert r.kappa == 2 and r.depth == 2
        assert r.depth_symbolic_square == 1 and r.depth_square == 0
        assert r.all_pass()
        names = {c.name for c in r.checks}
        assert {"symbolic_square_lower_bound", "square_lower_bound"} <= names

    def test_figure1(self):
        r = verify_graph(construct_example("figure1"))
        assert r.kappa == 4 and r.depth == 4
        assert not r.is_chordal
        assert r.all_pass()

    def test_complete_graph_skips(self):
        r = verify_graph(construct_example("complete", t=4), include_powers=True)
        assert r.bounds is None
        by_name = {c.name: c for c in r.checks}
        assert by_name["depth_lower_bound"].status == "skipped"
        assert by_name["chordal_equality"].status == "pass"
        assert r.all_pass()

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_graph(Graph(1, (0,)))

    def test_table_checks_run_up_to_the_subset_guard(self):
        # one table per graph answers kappa, beta_{1,2} and pd at every n the
        # guard admits, with no size skip
        rng = random.Random(61)
        for n in (11, 13, 14):
            for p in (0.3, 0.7):
                g = random_graph(rng, n, p)
                r = verify_graph(g, GF3)
                by_name = {c.name: c.status for c in r.checks}
                assert r.all_pass() and r.kappa == vertex_connectivity(g).kappa, (n, p)
                for name in ("kappa_betti_equals_graph", "beta12_equals_complement_edges",
                             "table_depth_consistent"):
                    assert by_name[name] == "pass", (n, p, name)

    def test_json_deterministic_and_timing_free(self):
        g = construct_example("cycle", t=5)
        a = json.dumps(verify_graph(g).to_dict(), indent=2)
        b = json.dumps(verify_graph(g).to_dict(), indent=2)
        assert a == b
        assert "timings" not in json.loads(a)
        assert "timings" in verify_graph(g).to_dict(include_timings=True)

    def test_csv_row(self):
        r = verify_graph(construct_example("cycle", t=6), include_powers=True)
        row = r.csv_row()
        assert row == "6,6,2,0,2,1,0,2,1"
        assert len(row.split(",")) == len(CSV_HEADER.split(","))


class TestSecondPowers:
    def test_guard_count_is_polarized_size(self):
        # the guard's count, n plus the non-isolated vertices of G^c, is the
        # polarized ring size of both second powers
        for g in graph_corpus(seed=61, count=40, n_max=9):
            gc = g.complement()
            count = g.n + sum(1 for row in gc.adj if row)
            for ideal in second_powers(g, allow_large=True):
                if not ideal.is_zero():
                    assert sum(max(e, 1) for e in ideal.max_exponents()) == count

    def test_guard_before_building(self):
        c9 = construct_example("cycle", t=9)
        with pytest.raises(GuardError, match="polarized ring has 18 variables"):
            second_powers(c9)
        symb, square = second_powers(c9, allow_large=True)
        assert square.gens and is_subideal_of(square, symb)

    def test_complete_graph_has_zero_powers(self):
        # zero ideals have no polarized scan, so n = 20 passes the guard
        symb, square = second_powers(construct_example("complete", t=20))
        assert symb.is_zero() and square.is_zero()


class TestFuzz:
    def test_all_profile(self):
        reports = fuzz_campaign(n_max=7, count=25, seed=1)
        assert len(reports) == 25
        assert all(r.all_pass() for r in reports)

    def test_powers_profile(self):
        reports = fuzz_campaign(n_max=6, count=8, seed=2, profile="powers")
        assert all(r.depth_square is not None or
                   any(c.status == "skipped" for c in r.checks) for r in reports)

    def test_powers_profile_reaches_the_scan_limit(self):
        # the profile's limit is the second-power scan's, so no power check skips
        reports = fuzz_campaign(n_max=10, count=6, seed=0, profile="powers")
        assert max(r.n for r in reports) > 8
        assert all(c.status != "skipped" or c.detail == "complete graph" for r in reports for c in r.checks
                   if c.name.endswith("square_lower_bound"))
        with pytest.raises(GuardError, match="profile powers limited to n <= 10"):
            fuzz_campaign(n_max=11, count=1, seed=0, profile="powers")

    def test_chordal_profile(self):
        for r in fuzz_campaign(n_max=9, count=20, seed=3, profile="chordal"):
            assert r.is_chordal
            assert r.depth == r.kappa + 1

    def test_determinism(self):
        a = [r.to_dict() for r in fuzz_campaign(n_max=6, count=10, seed=7)]
        b = [r.to_dict() for r in fuzz_campaign(n_max=6, count=10, seed=7)]
        assert a == b

    def test_profile_and_guard_errors(self):
        with pytest.raises(ValueError):
            fuzz_campaign(n_max=5, count=1, seed=0, profile="bogus")
        with pytest.raises(GuardError):
            fuzz_campaign(n_max=11, count=1, seed=0)

    def test_fuzz_failure_message_has_edge_list(self):
        g = construct_example("cycle", t=4)
        r = verify_graph(g)
        err = FuzzFailure(g, r)
        assert "4" in str(err) and "1 2" in str(err)


class TestSearchDepth2:
    def test_n4(self):
        res = search_depth2(4, budget=30, seed=5)
        assert res.cap == 2
        assert res.over_cap == []
        # C4 has depth 2 and kappa 2, so the cap is attained
        assert res.cap_attained and res.max_kappa == 2

    def test_n6(self):
        res = search_depth2(6, budget=60, seed=5)
        assert res.cap == 3
        assert res.over_cap == []
        assert res.max_kappa is not None and res.max_kappa <= 3

    def test_examples_recompute(self):
        from srdepth.betti import graph_depth
        res = search_depth2(5, budget=40, seed=9)
        for kappa, edges in res.realized.items():
            g = Graph.from_edges(5, edges)
            assert graph_depth(g).depth == 2
            assert vertex_connectivity(g).kappa == kappa

    def test_to_dict_one_based(self):
        res = search_depth2(4, budget=10, seed=5)
        d = res.to_dict()
        for edges in d["realized"].values():
            for u, v in edges:
                assert 1 <= u <= 4 and 1 <= v <= 4

    def test_guard(self):
        with pytest.raises(GuardError):
            search_depth2(11, budget=1, seed=0)
