"""Graded Betti tables of Stanley-Reisner rings and depth of monomial quotients.

The (i, j) Betti number of K[Delta] is the sum over size-j vertex subsets W
of dim H_{j-i-1}(Delta|_W) (Hochster's formula).  Depth is the smallest i
with H^i_m(S/I) != 0, read off Takayama's formula
dim H^i_m(S/I)_a = dim H_{i-|G_a|-1}(Delta_a) in the n variables of S, where
G_a = {j : a_j < 0}; for a squarefree I, Delta_a is the link of G_a.

Both scans skip complexes that are cones, as when some vertex lies in no
enclosed minimal non-face, and a complex whose minimal non-faces all have at
least q vertices has vanishing reduced homology below degree q - 2.

The Hochster scan walks the vertex subsets depth first, each W's children
being W + {v} for v above W's top vertex.  Delta|_{W+v} adds to Delta|_W just
the faces whose top vertex is v, and W + v adds to W just the minimal
non-faces whose top vertex is v, so a child extends its parent's face counts,
echelon forms and cover test by those alone.  A child's subtree is walked only
if each vertex it leaves uncovered lies in a minimal non-face inside W + v
plus the vertices above v.  The prune is exact: adding those non-faces to
W + v gives a subset in the subtree that passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import (NONFACE_SCAN_LIMIT, SimplicialComplex, clique_complex, complex_from_squarefree_ideal,
                        guard_face_enumeration, stanley_reisner_ideal)
from .graphs import Graph, GuardError, bits, mask_of
from .homology import GF2, FaceColumns, FieldSpec, betti_from_sizes, boundary_columns, boundary_rank
from .monomials import MonomialIdeal, edge_ideal

SUBSET_SCAN_LIMIT = 14
POLARIZED_SCAN_LIMIT = 16


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of a quotient of an n-variable polynomial ring."""

    n: int
    entries: dict[tuple[int, int], int]

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def to_csv(self) -> str:
        lines = ["i,j,beta"]
        for (i, j) in sorted(self.entries):
            lines.append(f"{i},{j},{self.entries[(i, j)]}")
        return "\n".join(lines) + "\n"

    def to_triangle(self) -> str:
        """Text triangle with columns i and rows j - i."""
        pd = self.projective_dimension()
        reg = self.regularity()
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(pd)))
        header = "      " + " ".join(f"{i:>{width}}" for i in range(pd + 1))
        lines = [header]
        for r in range(reg + 1):
            cells = []
            for i in range(pd + 1):
                v = self.entries.get((i, i + r), 0)
                cells.append(f"{v:>{width}}" if v else f"{'.':>{width}}")
            lines.append(f"{r:>4}: " + " ".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DepthResult:
    """Depth and projective dimension with the attaining local cohomology.

    ``witness`` is (a, ell) with H_ell(Delta_a) != 0 and depth = |G_a| + ell + 1;
    a has one entry per variable of S, with -1 for every negative a_j.
    """

    depth: int
    projective_dimension: int
    witness: tuple[tuple[int, ...], int]


def _active_generators(w: int, gen_masks: list[int]) -> tuple[int, int]:
    """(union of the supports of the generators inside w, their least support size, 0 if none)."""
    outside = ~w
    cover, gmin = 0, w.bit_length()  # no generator inside w is larger
    for gm in gen_masks:
        if gm & outside == 0:
            cover |= gm
            size = gm.bit_count()
            if size < gmin:
                gmin = size
    return cover, gmin if cover else 0  # a zero cover: no generator, or only the empty one


def guard_subset_scan(n: int, allow_large: bool) -> None:
    """Raise GuardError before a 2^n subset scan over the size limit."""
    if n > SUBSET_SCAN_LIMIT and not allow_large:
        raise GuardError(f"subset scan limited to n <= {SUBSET_SCAN_LIMIT}; override to force")


def guard_polarized_scan(m: int, allow_large: bool) -> None:
    """Raise GuardError before a depth scan of an ideal whose polarization has m variables."""
    if m > POLARIZED_SCAN_LIMIT and not allow_large:
        raise GuardError(
            f"polarized ring has {m} variables, over the {POLARIZED_SCAN_LIMIT} limit; override to force")


def _filtered_sizes(w: int, faces: FaceColumns, kmax: int, masks: tuple[int, ...] = ()) -> list[list]:
    """Boundary columns of the faces inside w that contain none of the masks, by size up to kmax.

    The selected faces form a subcomplex, so the first empty size ends it and
    no larger size has its columns built.
    """
    not_w = ~w
    out = []
    for k, group in enumerate(faces.by_size[: kmax + 1]):
        inside = [f for f in group if f & not_w == 0]
        if masks:
            inside = [f for f in inside if all(f & m != m for m in masks)]
        if not inside:
            break
        column = faces.columns(k)
        out.append([column[f] for f in inside])
    return out


def _hochster_table(c: SimplicialComplex, gen_masks: list[int], field: FieldSpec) -> BettiTable:
    """Betti table of K[c] by a depth-first walk over vertex subsets; gen_masks are c's minimal non-faces.

    The children of w are w | {v} for v above w's top vertex.  A child copies
    w's face counts, ranks, per-size pivots, cover (the union of the generators
    inside w) and least generator size, and adds to the copies only the faces
    and generators inside it whose top vertex is v.  It passes the cover test
    iff its cover is all of it.  Its subtree is walked only if each vertex it
    leaves uncovered lies in a generator inside it plus the vertices above v,
    which is exactly when adding those generators gives a subset that passes.
    """
    n = c.n
    by_size = c.faces_by_size()
    faces = FaceColumns(by_size, field)
    top = len(by_size)
    # by_top[v][k - 2]: (face, column) of the size-k faces whose top vertex is v, k >= 2
    by_top: list[list[list]] = [[[] for _ in range(2, top)] for _ in range(n)]
    for k in range(2, top):
        for f, col in faces.columns(k).items():
            by_top[f.bit_length() - 1][k - 2].append((f, col))
    vertices = set(by_size[1]) if top > 1 else set()
    gens_by_top = [[(gm, gm.bit_count()) for gm in gen_masks if gm.bit_length() == v + 1] for v in range(n)]
    gens_at = [[gm for gm in gen_masks if gm >> u & 1] for u in range(n)]  # the generators holding u
    entries = {(0, 0): 1}

    def walk(w: int, cover: int, gmin: int, f: list[int], r: list[int], pivots: list[dict]) -> None:
        for v in range(w.bit_length(), n):
            x = w | 1 << v
            outside = ~x
            cx, gx = cover, gmin
            for gm, size in gens_by_top[v]:
                if gm & outside == 0:
                    cx |= gm
                    if size < gx:
                        gx = size
            if cx != x:
                missing = (2 << v) - 1 & outside  # outside every subset in x's subtree
                if any(all(gm & missing for gm in gens_at[u]) for u in bits(x & ~cx)):
                    continue
            fx, rx, px = f[:], r[:], pivots[:]
            if 1 << v in vertices:
                # every vertex maps onto the empty face, so d_1 has rank 1
                fx[1] += 1
                rx[1] = 1
                for k, group in enumerate(by_top[v], 2):
                    new = [col for face, col in group if face & outside == 0]
                    if not new:
                        break  # a size-(k+1) face with top v contains a size-k one
                    fx[k] += len(new)
                    px[k] = dict(pivots[k])
                    rx[k] += boundary_rank(new, field, px[k])
            if cx == x:
                j = x.bit_count()
                for ell in range(gx - 2, min(j, top - 1)):
                    d = fx[ell + 1] - rx[ell + 1] - rx[ell + 2]
                    if d:
                        key = (j - ell - 1, j)
                        entries[key] = entries.get(key, 0) + d
            walk(x, cx, gx, fx, rx, px)

    walk(0, 0, n + 1, [1] + [0] * top, [0] * (top + 1), [{} for _ in range(top)])
    return BettiTable(c.n, entries)


def graded_betti_table(c: SimplicialComplex, field: FieldSpec = GF2, *,
                       allow_large: bool = False) -> BettiTable:
    """Exact Betti table by scanning every vertex subset."""
    if c.is_void:
        raise ValueError("the void complex has no Betti table")
    guard_subset_scan(c.n, allow_large)
    return _hochster_table(c, stanley_reisner_ideal(c).support_masks(), field)


def graph_betti_table(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> BettiTable:
    """Betti table of S/I(G^c): the clique complex's minimal non-faces are the non-edges."""
    guard_subset_scan(g.n, allow_large)
    return _hochster_table(clique_complex(g), edge_ideal(g.complement()).support_masks(), field)


def _takayama_depth(c: SimplicialComplex, ideal: MonomialIdeal, field: FieldSpec) -> DepthResult:
    """Depth of S/I for c = Delta(sqrt I): the least |G_a| + 1 + ell with H_ell(Delta_a) != 0.

    G_a runs over the faces of c by increasing size, each a_j off G_a over
    0 .. rho_j - 1 (rho_j the largest exponent of x_j), and Delta_a keeps the faces
    of c disjoint from G_a containing no mask {j not in G_a : b_j > a_j}, b a generator.
    """
    n = c.n
    if ideal.is_zero():
        return DepthResult(n, 0, ((-1,) * n, -1))
    rho = ideal.max_exponents()
    levels = [[mask_of(j for j, e in enumerate(b) if e > t) for b in ideal.gens] for t in range(max(rho))]
    forced = mask_of(j for j in range(n) if rho[j] == 0)  # x_j in no generator: a_j < 0
    by_size = c.faces_by_size()
    # every Delta_a avoids G_a, which holds the forced vertices
    faces = FaceColumns([[f for f in group if f & forced == 0] for group in by_size], field)
    best, witness = n + 1, None
    for size, group in enumerate(by_size):
        if size >= best:
            break  # ell >= -1, so no larger G_a can do better
        for g in (f for f in group if f & forced == forced):
            rest = ((1 << n) - 1) & ~g
            vary = [j for j in bits(rest) if rho[j] > 1]
            for values in itertools.product(*(range(rho[j]) for j in vary)):
                raised = dict(zip(vary, values))
                a = [-1 if g >> j & 1 else raised.get(j, 0) for j in range(n)]
                masks = [0] * len(ideal.gens)
                for t, level in enumerate(levels):
                    at = mask_of(j for j in bits(rest) if a[j] == t)
                    masks = [m | (lv & at) for m, lv in zip(masks, level)]
                cover, gmin = _active_generators(rest, masks)
                ell_hi = best - size - 2
                if gmin == 0 or cover != rest or ell_hi < gmin - 2:
                    continue  # Delta_a is void or a cone, or cannot beat best
                # only masks that are faces of c can lie in a face of Delta_a,
                # and a one-vertex mask just removes its vertex
                free = rest & ~mask_of(m.bit_length() - 1 for m in masks if m & (m - 1) == 0)
                inner = tuple(m for m in masks if m & (m - 1) and m in c.faces)
                dims = betti_from_sizes(_filtered_sizes(free, faces, ell_hi + 2, inner),
                                        field, gmin - 2, ell_hi)
                if dims:
                    best = size + 1 + min(dims)
                    witness = (tuple(a), min(dims))
    return DepthResult(best, n - best, witness)


def depth_stanley_reisner(c: SimplicialComplex, field: FieldSpec = GF2, *,
                          allow_large: bool = False) -> DepthResult:
    """Depth and projective dimension of the Stanley-Reisner quotient."""
    if c.is_void:
        raise ValueError("the void complex has no depth")
    guard_subset_scan(c.n, allow_large)
    return _takayama_depth(c, stanley_reisner_ideal(c), field)


def graph_depth(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> DepthResult:
    """Depth of S/I(G^c): the clique complex's minimal non-faces are the non-edges."""
    guard_subset_scan(g.n, allow_large)
    return _takayama_depth(clique_complex(g), edge_ideal(g.complement()), field)


def kappa_via_betti(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> int:
    """Vertex connectivity read off Betti vanishing.

    Smallest |X| whose removal leaves nonzero degree-0 reduced homology of
    the clique complex restricted to the other vertices, or n - 1 when no
    removal of at most n - 2 vertices does.  The 1-skeleton of the clique
    complex is g, and d_1 maps each vertex onto the empty face, so it has
    rank 1: with k = |X|, dim H_0 = (n - k) - 1 - rank d_2, where d_2 is
    the boundary map of the edges disjoint from X.
    """
    n = g.n
    if n < 2:
        raise ValueError("kappa via Betti numbers needs n >= 2")
    guard_subset_scan(n, allow_large)
    edges = sorted(1 << u | 1 << v for u, v in g.edges())
    columns = list(zip(edges, boundary_columns(edges, [1 << v for v in range(n)], field.characteristic)))
    for k in range(n - 1):
        for combo in itertools.combinations(range(n), k):
            x = mask_of(combo)
            if n - k - 1 - boundary_rank([col for e, col in columns if e & x == 0], field):
                return k
    return n - 1


def guard_parsed_ideal(n: int, gens: Sequence[Mapping[int, int]], allow_large: bool) -> None:
    """Raise depth_monomial_quotient's error for an ideal in over NONFACE_SCAN_LIMIT variables.

    gens are the parsed {variable: exponent} generators.  In such a ring only
    the zero ideal gets a depth, so a parser can call this before it builds
    exponent tuples of length n.  Below the limit it does nothing and leaves
    the checks to depth_monomial_quotient.  rho_j is taken over the generators
    that no other one strictly divides, the minimal ones, as there.
    """
    if n <= NONFACE_SCAN_LIMIT or not gens:
        return
    gens = [{j: x for j, x in e.items() if x} for e in gens]
    if not all(gens):
        raise ValueError("the unit ideal quotient is zero; depth undefined")
    rho: dict[int, int] = {}
    for g in gens:
        if any(h != g and all(g.get(j, 0) >= x for j, x in h.items()) for h in gens):
            continue
        for j, x in g.items():
            rho[j] = max(rho.get(j, 1), x)
    guard_polarized_scan(n + sum(x - 1 for x in rho.values()), allow_large)
    guard_face_enumeration(n)


def depth_monomial_quotient(ideal: MonomialIdeal, field: FieldSpec = GF2, *,
                            allow_large: bool = False) -> DepthResult:
    """Depth of S/I for a monomial ideal, on the complex of its radical.

    The guard counts the variables of the polarization of I, the sum of
    max(rho_j, 1); this also bounds the number of degrees a scanned by 2^16.
    """
    if ideal.is_unit():
        raise ValueError("the unit ideal quotient is zero; depth undefined")
    if ideal.is_zero():
        return DepthResult(ideal.num_vars, 0, ((-1,) * ideal.num_vars, -1))
    guard_polarized_scan(sum(max(e, 1) for e in ideal.max_exponents()), allow_large)
    guard_face_enumeration(ideal.num_vars)  # before the radical's length-n tuples
    radical = MonomialIdeal.from_squarefree_masks(ideal.num_vars, ideal.support_masks())
    return _takayama_depth(complex_from_squarefree_ideal(radical), ideal, field)
