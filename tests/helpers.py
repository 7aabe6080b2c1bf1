"""Test oracles built on the package's value types.

The CLI never calls these: restriction, links and cones of complexes,
reduced Betti numbers of a whole complex, ideal membership, colon ideals and
the colon structure of (I^2 : x_i x_j), the ideal text printer, induced
subgraphs, and the kappa > (2n-2)/3 arithmetic lemma.  Unlike the sympy
oracle in ``conftest.py``, they reuse package code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from srdepth.complexes import SimplicialComplex
from srdepth.graphs import Graph, bits, mask_of
from srdepth.homology import GF2, FaceColumns, FieldSpec, betti_from_sizes
from srdepth.monomials import Monomial, MonomialIdeal, divides, edge_ideal, minimalize, monomial_from_mask, mul


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
    if c.is_void:
        return {}
    faces = FaceColumns(c.faces_by_size(), field)
    grouped = [list(faces.columns(k).values()) for k in range(len(faces.by_size))]
    return betti_from_sizes(grouped, field)


def contains(a: MonomialIdeal, m: Monomial) -> bool:
    return any(divides(g, m) for g in a.gens)


def is_subideal_of(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(contains(b, g) for g in a.gens)


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
    gens = list(edge_ideal(g_c, exclude=a).gens)
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
