"""Shared corpora and independent oracles for the test suite.

The homology oracle here deliberately shares no code with the package: it
works on vertex tuples, builds dense boundary matrices, and takes ranks with
sympy's dense ``DomainMatrix`` over the rationals.
"""

from __future__ import annotations

import itertools
import random

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from srdepth.graphs import Graph, bits


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def graph_corpus(seed: int, count: int, n_max: int, n_min: int = 2) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        out.append(random_graph(rng, n, rng.choice((0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))))
    return out


def two_copies_at_a_vertex(g: Graph) -> Graph:
    """Two copies of g that share vertex 0 and nothing else."""
    shift = [0] + list(range(g.n, 2 * g.n - 1))
    return Graph.from_edges(2 * g.n - 1, g.edges() + [(shift[u], shift[v]) for u, v in g.edges()])


# K6 joined with two disjoint triangles: the clique complex has 9-vertex
# faces, and kappa = 6 lies below the least degree 8
K6_JOIN_TRIANGLES = Graph.from_edges(12, [(u, v) for u, v in itertools.combinations(range(12), 2)
                                          if u < 6 or (u < 9) == (v < 9)])

# name: (graph, kappa), where a kappa scan that starts from a least degree
# has to search down, plus the smallest edge cases.  In two K_{3,3} sharing a
# vertex, the neighbourhood of vertex 1 is a minimal separator of size 3.
PINNED_KAPPA = {
    "k6_join_triangles": (K6_JOIN_TRIANGLES, 6),
    "two_k4_at_a_vertex": (two_copies_at_a_vertex(Graph.from_edges(4, itertools.combinations(range(4), 2))), 1),
    "two_k33_at_a_vertex": (two_copies_at_a_vertex(Graph.from_edges(6, itertools.product(range(3), range(3, 6)))), 1),
    "k3_and_isolated_vertex": (Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]), 0),
    "edgeless_2": (Graph.from_edges(2, []), 0),
    "k2": (Graph.from_edges(2, [(0, 1)]), 1),
}


def masks_to_tuples(faces: set[int]) -> set[tuple[int, ...]]:
    return {tuple(bits(f)) for f in faces}


def oracle_reduced_betti(faces: set[tuple[int, ...]]) -> dict[int, int]:
    """Reduced Betti numbers over QQ via dense sympy ranks.

    ``faces`` are sorted vertex tuples and must include () unless void.
    """
    if not faces:
        return {}
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for group in by_dim.values():
        group.sort()
    top = max(by_dim)

    def brank(d: int) -> int:
        rows = by_dim.get(d - 1, [])
        cols = by_dim.get(d, [])
        if not rows or not cols:
            return 0
        m = [[QQ(0)] * len(cols) for _ in rows]
        idx = {f: i for i, f in enumerate(rows)}
        for j, f in enumerate(cols):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                m[idx[sub]][j] = QQ((-1) ** pos)
        return DomainMatrix(m, (len(rows), len(cols)), QQ).rank()

    ranks = {d: brank(d) for d in range(0, top + 2)}
    dims = {}
    for d in range(-1, top + 1):
        val = len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if val:
            dims[d] = val
    return dims


def oracle_cliques(g: Graph) -> set[tuple[int, ...]]:
    """All cliques by brute subset enumeration (independent of the package)."""
    out = {()}
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                out.add(combo)
    return out


def oracle_hochster_table(n: int, faces: set[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """Graded Betti table of a complex on n vertices, summed over every vertex subset."""
    table: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        for w in itertools.combinations(range(n), j):
            wset = set(w)
            rest = {f for f in faces if set(f) <= wset}
            for ell, d in oracle_reduced_betti(rest).items():
                key = (j - ell - 1, j)
                table[key] = table.get(key, 0) + d
    return table


def oracle_betti_table(g: Graph) -> dict[tuple[int, int], int]:
    """Graded Betti table of g's clique complex by brute force over every vertex subset."""
    return oracle_hochster_table(g.n, oracle_cliques(g))


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return graph_corpus(seed=2024, count=60, n_max=7)


@pytest.fixture(scope="session")
def medium_corpus() -> list[Graph]:
    return graph_corpus(seed=99, count=40, n_max=9)
