"""Test oracles built on the package's value types.

The CLI never calls these: downward closure, restriction, links and cones of
complexes, reduced Betti numbers of a whole complex, edge ideals, ideal
membership, intersections, colon ideals and the colon structure of
(I^2 : x_i x_j), the symbolic square through minimal vertex covers, the
generators of the second powers of an edge ideal (the oracle of the
degree-complex depths), the ideal text printer, induced subgraphs, graphs
with a vertex set isolated, vertex connectivity and the minimum s-t
separators by ascending separator scans, and the kappa > (2n-2)/3
arithmetic lemma.
Unlike the sympy oracle in ``conftest.py``, they reuse package code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from srdepth.betti import guard_polarized_scan
from srdepth.complexes import SimplicialComplex, guard_face_enumeration
from srdepth.graphs import Graph, bits, mask_of
from srdepth.homology import GF2, FieldSpec, betti_from_sizes
from srdepth.monomials import (Monomial, MonomialIdeal, divides, minimalize, monomial_from_mask, mul, power,
                               symbolic_power)


def from_faces(n: int, faces: Iterable[int]) -> SimplicialComplex:
    """Downward closure of the given face masks (plus the empty face)."""
    closed: set[int] = {0}
    stack = list(faces)
    while stack:
        f = stack.pop()
        if f in closed:
            continue
        closed.add(f)
        for b in bits(f):
            stack.append(f ^ (1 << b))
    return SimplicialComplex(n, frozenset(closed))


def restrict(c: SimplicialComplex, w: int) -> SimplicialComplex:
    """Faces contained in w, re-indexed to the universe w."""
    verts = tuple(bits(w))
    index = {v: i for i, v in enumerate(verts)}
    out = set()
    for f in c.faces:
        if f & ~w == 0:
            out.add(mask_of(index[v] for v in bits(f)))
    return SimplicialComplex(len(verts), frozenset(out))


def link(c: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is a face."""
    if sigma not in c.faces:
        raise ValueError("link of a non-face")
    out = frozenset(f ^ sigma for f in c.faces if f & sigma == sigma)
    return SimplicialComplex(c.n, out)


def is_cone(c: SimplicialComplex) -> Optional[int]:
    """Smallest apex vertex (sigma + apex is a face for every face), if any."""
    for v in range(c.n):
        b = 1 << v
        if all((f | b) in c.faces for f in c.faces):
            return v
    return None


def reduced_betti(c: SimplicialComplex, field: FieldSpec = GF2) -> dict[int, int]:
    """Nonzero reduced Betti numbers by degree; void -> {}, {emptyset} -> {-1: 1}."""
    return betti_from_sizes(c.faces_by_size(), field)


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Edge ideal of g: one generator x_u x_v per edge, labels as in g."""
    gens = [monomial_from_mask(g.n, (1 << u) | (1 << v)) for u, v in g.edges()]
    return MonomialIdeal(g.n, tuple(sorted(gens)))


def contains(a: MonomialIdeal, m: Monomial) -> bool:
    return any(divides(g, m) for g in a.gens)


def is_subideal_of(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(contains(b, g) for g in a.gens)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.num_vars != b.num_vars:
        raise ValueError("ideals live in different rings")
    return minimalize([lcm(x, y) for x in a.gens for y in b.gens], a.num_vars)


def variable_power_ideal(n: int, vars_mask: int, m: int) -> MonomialIdeal:
    """(x_i : i in vars_mask)^m, generated by all degree-m monomials."""
    gens = []
    for combo in itertools.combinations_with_replacement(bits(vars_mask), m):
        e = [0] * n
        for v in combo:
            e[v] += 1
        gens.append(tuple(e))
    return MonomialIdeal(n, tuple(sorted(gens)))


def minimal_vertex_covers(g: Graph) -> list[int]:
    """All inclusion-minimal vertex covers, by increasing size over every subset.

    Sorted by (size, vertex list).  The edgeless graph has the one cover 0.
    """
    covers: list[int] = []
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            m = mask_of(combo)
            if all(m >> u & 1 or m >> v & 1 for u, v in g.edges()):
                if not any(c & ~m == 0 for c in covers):
                    covers.append(m)
    return covers


def symbolic_square_by_covers(g: Graph) -> MonomialIdeal:
    """I(g)^(2) as the intersection of P_C^2 over the minimal vertex covers C.

    P_C, generated by the variables of C, runs over the minimal primes of the
    edge ideal; the edgeless graph's one cover is empty, so its square is 0.
    """
    out = MonomialIdeal(g.n, ((0,) * g.n,))
    for c in minimal_vertex_covers(g):
        out = intersection(out, variable_power_ideal(g.n, c, 2))
    return out


def second_powers(g: Graph, *, allow_large: bool = False) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The symbolic square and the square of the edge ideal of the complement.

    The generator route to their depths, through ``depth_monomial_quotient``.
    Its guards are raised before either ideal is built: each has a generator
    (x_i x_j)^2 for every edge of G^c and no exponent above 2, so both
    polarize to n plus the non-isolated vertices of G^c; the depth engine
    then enumerates faces on the n variables.
    """
    gc = g.complement()
    if gc.num_edges():
        guard_polarized_scan(g.n + sum(1 for row in gc.adj if row), allow_large)
        guard_face_enumeration(g.n)
    square = power(edge_ideal(gc), 2)
    return symbolic_power(gc, square), square


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / gcd(a, b), the colon of principal monomials."""
    return tuple(max(x - y, 0) for x, y in zip(a, b))


def colon(a: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """(a : m), exact for monomial ideals via per-generator division."""
    if len(m) != a.num_vars:
        raise ValueError("monomial lives in a different ring")
    return minimalize([quotient(g, m) for g in a.gens], a.num_vars)


def colon_square_structure(g_c: Graph, a: int, i: int, j: int) -> MonomialIdeal:
    """Structural form of (I(g_c - a)^2 : x_i x_j).

    Returns the edge ideal of g_c - a, plus the cross products of the two
    neighborhoods, plus the squares of the common neighbors; equality with
    the generic colon is a tested identity, not an assumption.
    """
    if not g_c.has_edge(i, j):
        raise ValueError("{i, j} must be an edge")
    if a >> i & 1 or a >> j & 1:
        raise ValueError("endpoints may not be removed")
    if a & ~(g_c.adj[i] | g_c.adj[j]):
        raise ValueError("removed set must lie in the union of the two neighborhoods")
    n = g_c.n
    keep = g_c.full_mask & ~a
    ni = g_c.adj[i] & keep
    nj = g_c.adj[j] & keep
    gens = list(edge_ideal(isolate(g_c, a)).gens)
    for p in bits(ni):
        for q in bits(nj):
            if p != q:
                gens.append(mul(monomial_from_mask(n, 1 << p), monomial_from_mask(n, 1 << q)))
    for k in bits(ni & nj):
        e = [0] * n
        e[k] = 2
        gens.append(tuple(e))
    return minimalize(gens, n)


def format_monomial(m: Monomial) -> str:
    if not any(m):
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_ideal(a: MonomialIdeal) -> str:
    """The ideal text format that ``parse_ideal`` reads; the zero ideal is ``0``."""
    if a.is_zero():
        return "0\n"
    return "\n".join(format_monomial(g) for g in a.gens) + "\n"


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep``, re-indexed; returns (graph, old labels)."""
    verts = tuple(bits(keep))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(g.adj[v] & keep):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(verts), tuple(adj)), verts


def isolate(g: Graph, a: int) -> Graph:
    """g with every edge at a vertex of ``a`` removed; the labels are kept."""
    return Graph(g.n, tuple(0 if a >> v & 1 else row & ~a for v, row in enumerate(g.adj)))


def reached_within(g: Graph, start: int, rest: int) -> int:
    """The vertices of rest that a search from the start mask reaches inside rest."""
    reached = frontier = start
    while frontier:
        for v in bits(frontier):
            frontier |= g.adj[v] & rest
        frontier &= ~reached
        reached |= frontier
    return reached


def kappa_by_ascending_scan(g: Graph) -> int:
    """Least |X| over X of size 0, 1, ..., n - 2 with G - X disconnected, else n - 1.

    Every removal set is tried in size order, with its own search for what X
    leaves connected; the package's kappa scans start from a least degree
    and search down, so this is their reference.
    """
    for k in range(g.n - 1):
        for combo in itertools.combinations(range(g.n), k):
            rest = g.full_mask & ~mask_of(combo)
            if reached_within(g, rest & -rest, rest) != rest:
                return k
    return max(g.n - 1, 0)


def minimum_st_separators(g: Graph, s: int, t: int) -> dict[int, int]:
    """Every least-size set X, avoiding non-adjacent s and t, with t off the
    s-side component of G - X, mapped to that component.

    The sets are tried in size order, each with its own search from s; the
    reference for the cut ``graphs._min_vertex_cut`` reads off a flow.
    """
    others = [v for v in range(g.n) if v not in (s, t)]
    for k in range(len(others) + 1):
        found = {}
        for combo in itertools.combinations(others, k):
            x = mask_of(combo)
            side = reached_within(g, 1 << s, g.full_mask & ~x)
            if not side >> t & 1:
                found[x] = side
        if found:
            return found
    raise ValueError("s and t are adjacent")


def lemma_arithmetic(n: int, k: int) -> bool:
    """Exact-rational check that 3k - 2n + 3 >= k / (2(n-k-1)) - 1.

    Defined for 0 <= k <= n - 2 with k > (2n-2)/3; always true there, so a
    False return is a suite failure.
    """
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n - 2, got (n, k) = ({n}, {k})")
    if 3 * k <= 2 * n - 2:
        raise ValueError(f"need k > (2n-2)/3, got (n, k) = ({n}, {k})")
    return Fraction(3 * k - 2 * n + 3) >= Fraction(k, 2 * (n - k - 1)) - 1
