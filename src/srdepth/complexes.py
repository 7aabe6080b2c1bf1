"""Simplicial complexes on an indexed vertex universe, as bitmask face sets.

The void complex (no faces) and the irrelevant complex {emptyset} are
distinct values.  Universe elements that are not faces ("ghost vertices")
are allowed; they arise from degree-1 monomial generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GuardError, bits, mask_of
from .monomials import MonomialIdeal

CLIQUE_COMPLEX_LIMIT = 24
NONFACE_SCAN_LIMIT = 20


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face collection; ``faces`` holds every face mask."""

    n: int
    faces: frozenset[int]

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        for f in self.faces:
            if f & ~full:
                raise ValueError("face outside the vertex universe")
        if self.faces and 0 not in self.faces:
            raise ValueError("a non-void complex must contain the empty face")
        for f in self.faces:
            rest = f
            while rest:
                low = rest & -rest
                if f ^ low not in self.faces:
                    raise ValueError("faces are not closed under taking subsets")
                rest ^= low

    @property
    def is_void(self) -> bool:
        return not self.faces

    def dim(self) -> int:
        """-1 for {emptyset}; raises on the void complex."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.faces) - 1

    def faces_by_size(self) -> list[list[int]]:
        """Face masks grouped by vertex count, each group sorted."""
        if self.is_void:
            return []
        grouped: list[list[int]] = [[] for _ in range(self.dim() + 2)]
        for f in self.faces:
            grouped[f.bit_count()].append(f)
        for group in grouped:
            group.sort()
        return grouped


def guard_clique_complex(n: int) -> None:
    """Raise GuardError before the clique complex of an n-vertex graph is built."""
    if n > CLIQUE_COMPLEX_LIMIT:
        raise GuardError(f"clique complex limited to n <= {CLIQUE_COMPLEX_LIMIT}")


def cliques_by_size(adj: Sequence[int], x: int, kmax: int) -> list[list[int]]:
    """The cliques inside x with at most kmax vertices, grouped by size; group 0 is the empty one.

    Each clique grows by the vertices of x above its top vertex that are
    adjacent to all of it, so it is found once, from its lower vertices.
    """
    groups, frontier = [[0]], [(0, x)]  # (clique, the vertices that extend it)
    while len(groups) <= kmax:
        grown = []
        for clique, cand in frontier:
            while cand:
                low = cand & -cand
                cand ^= low
                grown.append((clique | low, cand & adj[low.bit_length() - 1]))
        if not grown:
            break
        groups.append([clique for clique, _ in grown])
        frontier = grown
    return groups


def clique_complex(g: Graph) -> SimplicialComplex:
    """All cliques of g, including the empty face and all singletons."""
    guard_clique_complex(g.n)
    faces = itertools.chain.from_iterable(cliques_by_size(g.adj, g.full_mask, g.n))
    # closed under subsets by construction, so __post_init__'s checks are skipped
    c = object.__new__(SimplicialComplex)
    object.__setattr__(c, "n", g.n)
    object.__setattr__(c, "faces", frozenset(faces))
    return c


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal non-faces."""
    if c.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    if c.n > NONFACE_SCAN_LIMIT:
        raise GuardError(f"non-face scan limited to n <= {NONFACE_SCAN_LIMIT}")
    gens = []
    for size in range(1, c.n + 1):
        for combo in itertools.combinations(range(c.n), size):
            m = mask_of(combo)
            if m in c.faces:
                continue
            if all((m ^ (1 << v)) in c.faces for v in combo):
                gens.append(m)
    return MonomialIdeal.from_squarefree_masks(c.n, gens)


def guard_face_enumeration(n: int) -> None:
    """Raise GuardError before a walk over the 2^n squarefree monomials in n variables."""
    if n > NONFACE_SCAN_LIMIT:
        raise GuardError(f"face enumeration limited to n <= {NONFACE_SCAN_LIMIT}")


def complex_from_squarefree_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces are the squarefree monomials outside the ideal.

    Inverse of ``stanley_reisner_ideal``; degree-1 generators produce ghost
    vertices.
    """
    if ideal.is_unit():
        raise ValueError("the unit ideal corresponds to no complex")
    if not ideal.is_squarefree():
        raise ValueError("ideal is not squarefree")
    n = ideal.num_vars
    guard_face_enumeration(n)
    gen_masks = ideal.support_masks()
    nonface = bytearray(1 << n)
    for m in gen_masks:
        nonface[m] = 1
    for m in range(1 << n):
        if nonface[m]:
            continue
        for v in bits(m):
            if nonface[m ^ (1 << v)]:
                nonface[m] = 1
                break
    return SimplicialComplex(n, frozenset(m for m in range(1 << n) if not nonface[m]))
