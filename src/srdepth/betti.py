"""Graded Betti tables of Stanley-Reisner rings and the depth invariants
derived from them.

The (i, j) Betti number of K[Delta] is the sum over size-j vertex subsets W
of dim H_{j-i-1}(Delta|_W) (Hochster's formula); projective dimension is the
largest |W| - ell - 1 with nonvanishing homology and depth follows from
Auslander-Buchsbaum (depth + pd = n).

Restrictions whose vertices are not all covered by enclosed minimal
non-faces are cones and contribute nothing, and a restriction whose minimal
non-faces all have at least q vertices has vanishing reduced homology below
degree q - 2; both facts prune the 2^n scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, clique_complex, complex_from_squarefree_ideal, stanley_reisner_ideal
from .graphs import Graph, GuardError, mask_of
# boundary_rank is unused here; perfbench's tracer test patches the
# srdepth.betti.boundary_rank binding, so the import stays.
from .homology import GF2, FieldSpec, betti_from_sizes, boundary_rank  # noqa: F401
from .monomials import MonomialIdeal, Polarization, polarize

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
    """Depth and projective dimension with the attaining restriction.

    ``witness`` is a (subset mask, homological degree) pair with nonzero
    reduced homology and pd = |W| - ell - 1; the mask lives in the ring the
    scan ran in (the enlarged ring for polarized quotients).
    """

    depth: int
    projective_dimension: int
    witness: tuple[int, int]


def _active_generators(w: int, gen_masks: list[int]) -> tuple[bool, int, int]:
    """(any generator inside w, union of their supports, min support size)."""
    cover = 0
    gmin = 0
    has = False
    for gm in gen_masks:
        if gm & ~w == 0:
            cover |= gm
            size = gm.bit_count()
            if not has or size < gmin:
                gmin = size
            has = True
    return has, cover, gmin


def guard_subset_scan(n: int, allow_large: bool) -> None:
    """Raise GuardError before a 2^n subset scan over the size limit."""
    if n > SUBSET_SCAN_LIMIT and not allow_large:
        raise GuardError(f"subset scan limited to n <= {SUBSET_SCAN_LIMIT}; override to force")


def _filtered_sizes(w: int, faces_by_size: list[list[int]], kmax: int) -> list[list[int]]:
    not_w = ~w
    filt = [[f for f in group if f & not_w == 0] for group in faces_by_size[: kmax + 1]]
    while filt and not filt[-1]:
        filt.pop()
    return filt


def _complex_scan_data(c: SimplicialComplex) -> tuple[list[int], list[list[int]]]:
    gen_masks = [mask for mask in stanley_reisner_ideal(c).support_masks()]
    return gen_masks, c.faces_by_size()


def graded_betti_table(c: SimplicialComplex, field: FieldSpec = GF2, *,
                       allow_large: bool = False) -> BettiTable:
    """Exact Betti table by scanning every vertex subset."""
    if c.is_void:
        raise ValueError("the void complex has no Betti table")
    guard_subset_scan(c.n, allow_large)
    gen_masks, faces_by_size = _complex_scan_data(c)
    entries = {(0, 0): 1}
    for w in range(1, 1 << c.n):
        has, cover, gmin = _active_generators(w, gen_masks)
        if not has or w & ~cover:
            continue
        j = w.bit_count()
        filt = _filtered_sizes(w, faces_by_size, j)
        dims = betti_from_sizes(filt, field, ell_lo=gmin - 2)
        for ell, d in dims.items():
            key = (j - ell - 1, j)
            entries[key] = entries.get(key, 0) + d
    return BettiTable(c.n, entries)


def _depth_scan(n: int, gen_masks: list[int], faces_by_size: list[list[int]],
                field: FieldSpec) -> tuple[int, tuple[int, int]]:
    """Projective dimension: max |W| - ell - 1 over nonvanishing homology.

    Scans subset sizes downward; a size-s subset cannot contribute more than
    s - gmin + 1, which bounds when the scan may stop.
    """
    if not gen_masks:
        return 0, (0, -1)
    gmin_global = min(m.bit_count() for m in gen_masks)
    top = len(faces_by_size) - 1
    best = 0
    witness = (0, -1)
    for s in range(n, 0, -1):
        if best >= s - gmin_global + 1:
            break
        for combo in itertools.combinations(range(n), s):
            w = mask_of(combo)
            has, cover, gmin = _active_generators(w, gen_masks)
            if not has or w & ~cover:
                continue
            ell_hi = s - best - 2
            ell_lo = gmin - 2
            if ell_hi < ell_lo:
                continue
            filt = _filtered_sizes(w, faces_by_size, min(top, s, ell_hi + 2))
            dims = betti_from_sizes(filt, field, ell_lo, ell_hi)
            if dims:
                ell = min(dims)
                if s - ell - 1 > best:
                    best = s - ell - 1
                    witness = (w, ell)
    return best, witness


def depth_stanley_reisner(c: SimplicialComplex, field: FieldSpec = GF2, *,
                          allow_large: bool = False) -> DepthResult:
    """Depth and projective dimension of the Stanley-Reisner quotient."""
    if c.is_void:
        raise ValueError("the void complex has no depth")
    guard_subset_scan(c.n, allow_large)
    gen_masks, faces_by_size = _complex_scan_data(c)
    pd, witness = _depth_scan(c.n, gen_masks, faces_by_size, field)
    return DepthResult(c.n - pd, pd, witness)


def graph_depth(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> DepthResult:
    """Depth of the Stanley-Reisner ring of the clique complex of g."""
    return depth_stanley_reisner(clique_complex(g), field, allow_large=allow_large)


def kappa_via_betti(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> int:
    """Vertex connectivity read off Betti vanishing.

    Smallest |W| whose removal leaves nonzero degree-0 reduced homology of
    the restricted clique complex, or n - 1 when no removal of at most
    n - 2 vertices does.
    """
    if g.n < 2:
        raise ValueError("kappa via Betti numbers needs n >= 2")
    guard_subset_scan(g.n, allow_large)
    skeleton = clique_complex(g).faces_by_size()[:3]
    for k in range(g.n - 1):
        for combo in itertools.combinations(range(g.n), k):
            rest = g.full_mask & ~mask_of(combo)
            if betti_from_sizes(_filtered_sizes(rest, skeleton, 2), field, 0, 0):
                return k
    return g.n - 1


def depth_monomial_quotient(ideal: MonomialIdeal, field: FieldSpec = GF2, *,
                            allow_large: bool = False) -> DepthResult:
    """Depth of S/I for a monomial ideal, via polarization.

    Polarizes, runs the Stanley-Reisner depth scan in the enlarged ring on
    the polarized generators (the minimal non-faces of its complex) and
    subtracts the number of split variables; exact for every monomial ideal
    and the identity on squarefree ones.
    """
    if ideal.is_unit():
        raise ValueError("the unit ideal quotient is zero; depth undefined")
    if ideal.is_zero():
        return DepthResult(ideal.num_vars, 0, (0, -1))
    pol: Polarization = polarize(ideal)
    m = pol.ideal.num_vars
    if m > POLARIZED_SCAN_LIMIT and not allow_large:
        raise GuardError(
            f"polarized ring has {m} variables, over the {POLARIZED_SCAN_LIMIT} limit; override to force")
    comp = complex_from_squarefree_ideal(pol.ideal)
    pd, witness = _depth_scan(m, pol.ideal.support_masks(), comp.faces_by_size(), field)
    depth = m - pd - pol.new_var_count
    return DepthResult(depth, ideal.num_vars - depth, witness)
