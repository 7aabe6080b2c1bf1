"""Acceptance gate: every release criterion, one printed pass/fail line each.

Lines are written past pytest's capture so the verdicts always appear in the
run log, green or red.
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

from srdepth.betti import depth_monomial_quotient, depth_stanley_reisner, graded_betti_table, graph_depth
from srdepth.cli import main
from srdepth.complexes import clique_complex, complex_from_squarefree_ideal
from srdepth.graphs import Graph, bits, vertex_connectivity, vertex_connectivity_bruteforce
from srdepth.homology import GF2, GF3, RATIONAL
from srdepth.monomials import minimalize, mul, power, symbolic_power
from srdepth.verify import construct_example, fuzz_campaign

from conftest import graph_corpus, random_graph
from helpers import (colon, colon_square_structure, edge_ideal, isolate, lemma_arithmetic, second_powers,
                     symbolic_square_by_covers)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {criterion} failed{suffix}"


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class TestCriterion1Goldens:
    def test_worked_example_goldens(self):
        failures = []
        worst = 0.0

        def check(label, fn, expected):
            nonlocal worst
            got, dt = timed(fn)
            worst = max(worst, dt)
            if got != expected or dt >= 5.0:
                failures.append(f"{label}: got {got} in {dt:.2f}s, want {expected}")

        c6 = construct_example("cycle", t=6)
        check("C6 depth", lambda: graph_depth(c6).depth, 2)
        check("C6 symbolic square depth",
              lambda: depth_monomial_quotient(second_powers(c6)[0]).depth, 1)
        check("C6 square depth",
              lambda: depth_monomial_quotient(power(edge_ideal(c6.complement()), 2)).depth, 0)
        fig1 = construct_example("figure1")
        check("figure1 kappa", lambda: vertex_connectivity(fig1).kappa, 4)
        check("figure1 depth", lambda: graph_depth(fig1).depth, 4)
        for t in (2, 3):
            g = construct_example("multipartite", t=t)
            check(f"K_{t},{t},{t} depth", lambda g=g: graph_depth(g).depth, 3)
            check(f"K_{t},{t},{t} kappa", lambda g=g: vertex_connectivity(g).kappa, 2 * t)
        k55 = construct_example("bipartite", a=5, b=5)
        check("K_5,5 kappa", lambda: vertex_connectivity(k55).kappa, 5)
        check("K_5,5 depth", lambda: graph_depth(k55).depth, 2)
        jc = construct_example("joined_cycles", t=5)
        check("joined 5-cycles kappa", lambda: vertex_connectivity(jc).kappa, 6)
        check("joined 5-cycles depth", lambda: graph_depth(jc).depth, 2)
        check("joined 5-cycles attains cap", lambda: (2 * jc.n - 2) // 3, 6)

        report("1 worked-example goldens", not failures,
               "; ".join(failures) or f"12 goldens, slowest {worst:.2f}s")


class TestCriterion2TheoremFuzz:
    def test_theorem_fuzz(self):
        t0 = time.perf_counter()
        problems = []
        try:
            reports = fuzz_campaign(n_max=8, count=300, seed=20240)
            assert len(reports) == 300
            reports = fuzz_campaign(n_max=7, count=100, seed=20241, profile="powers")
            assert len(reports) == 100
            chordal = fuzz_campaign(n_max=9, count=100, seed=20242, profile="chordal")
            assert all(r.depth == r.kappa + 1 for r in chordal)
        except AssertionError as exc:
            problems.append(str(exc))
        dt = time.perf_counter() - t0
        if dt >= 600:
            problems.append(f"runtime {dt:.0f}s over 10 min budget")
        report("2 theorem fuzz", not problems,
               "; ".join(problems) or f"500 graphs verified in {dt:.1f}s")


class TestCriterion3OracleEquivalences:
    def test_flow_kappa_equals_bruteforce(self):
        bad = [g for g in graph_corpus(seed=31, count=200, n_max=10)
               if vertex_connectivity(g).kappa != vertex_connectivity_bruteforce(g).kappa]
        report("3a flow kappa = brute-force kappa", not bad,
               f"{len(bad)} mismatches of 200" if bad else "200 graphs n<=10")

    def test_symbolic_square_equals_square_plus_triangles(self):
        # the runtime's square-plus-triangles route against the intersection
        # of the squared minimal primes P_C^2, C a minimal vertex cover
        bad = 0
        for g in graph_corpus(seed=32, count=100, n_max=8):
            if g.num_edges() == 0:
                continue
            if symbolic_power(g, power(edge_ideal(g), 2)) != symbolic_square_by_covers(g):
                bad += 1
        report("3b symbolic square = square + triangles", bad == 0,
               f"{bad} mismatches" if bad else "100 graphs n<=8")

    def test_colon_structure_equals_generic_colon(self):
        rng = random.Random(33)
        bad = checked = 0
        while checked < 100:
            g = random_graph(rng, rng.randint(3, 7), rng.choice((0.3, 0.5, 0.7)))
            edges = g.edges()
            if not edges:
                continue
            i, j = rng.choice(edges)
            removable = (g.adj[i] | g.adj[j]) & ~(1 << i) & ~(1 << j)
            a = removable & rng.randrange(1 << g.n)
            xi = tuple(1 if k == i else 0 for k in range(g.n))
            xj = tuple(1 if k == j else 0 for k in range(g.n))
            generic = colon(power(edge_ideal(isolate(g, a)), 2), mul(xi, xj))
            if colon_square_structure(g, a, i, j) != generic:
                bad += 1
            checked += 1
        report("3c colon structure = generic colon", bad == 0,
               f"{bad} mismatches" if bad else "100 instances n<=7")

    def test_polarization_depth_equals_direct(self):
        rng = random.Random(34)
        bad = checked = 0
        while checked < 50:
            n = rng.randint(2, 7)
            gens = [tuple(1 if rng.random() < 0.4 else 0 for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            ideal = minimalize(gens, n)
            if ideal.is_unit() or ideal.is_zero():
                continue
            via_polarization = depth_monomial_quotient(ideal).depth
            c = complex_from_squarefree_ideal(ideal)
            direct = depth_stanley_reisner(c).depth
            # both depths run the local-cohomology engine; the Hochster
            # table's pd is independent of it (Auslander-Buchsbaum)
            via_table = n - graded_betti_table(c).projective_dimension()
            if not via_polarization == direct == via_table:
                bad += 1
            checked += 1
        report("3d polarization depth = direct depth", bad == 0,
               f"{bad} mismatches" if bad else "50 squarefree ideals")


class TestCriterion4LemmaSweep:
    def test_lemma_sweep(self):
        def sweep():
            return all(lemma_arithmetic(n, k)
                       for n in range(2, 61)
                       for k in range(0, n - 1) if 3 * k > 2 * n - 2)
        ok, dt = timed(sweep)
        report("4 lemma arithmetic sweep n<=60", ok and dt < 1.0,
               f"ok={ok} in {dt:.3f}s")


class TestCriterion5FieldDependence:
    def test_fields_agree_on_corpus(self):
        mismatches = []
        for g in graph_corpus(seed=51, count=60, n_max=7):
            c = clique_complex(g)
            t2 = graded_betti_table(c, GF2).entries
            t3 = graded_betti_table(c, GF3).entries
            tq = graded_betti_table(c, RATIONAL).entries
            if not (t2 == t3 == tq):
                mismatches.append(g)
        report("5 GF(2)/GF(3)/QQ Betti agreement", not mismatches,
               f"{len(mismatches)} mismatching graphs" if mismatches else "60 graphs n<=7")


class TestCriterion6Determinism:
    def test_jobs_byte_identical(self, capsys):
        outs = []
        for jobs in ("1", "8"):
            code = main(["verify", "--name", "figure1", "--format", "json",
                         "--jobs", jobs])
            assert code == 0
            outs.append(capsys.readouterr().out)
        ok = outs[0] == outs[1] and json.loads(outs[0])["depth"] == 4
        report("6 determinism across --jobs", ok,
               "byte-identical JSON" if ok else "outputs differ")


class TestCriterion7ScaleCeiling:
    def test_12_vertex_full_table(self):
        g = random_graph(random.Random(71), 12, 0.5)
        table, dt = timed(lambda: graded_betti_table(clique_complex(g)))
        consistent = table.projective_dimension() == 12 - graph_depth(g).depth
        report("7 scale ceiling 12-vertex table", dt < 60 and consistent,
               f"{dt:.1f}s, pd={table.projective_dimension()}")
