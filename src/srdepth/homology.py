"""Reduced simplicial homology dimensions over GF(p) or the rationals.

Faces with k vertices have dimension k - 1; the empty face is the single
size-0 face and the augmentation map realizes reduced homology.  Boundary
signs follow lexicographic face order and removed-vertex position; any
consistent convention yields the same ranks.

There are two column forms and two rank kernels: GF(2) columns are row
bitmasks, and every other field uses sparse {row: coefficient} dicts,
eliminated over GF(p) for every odd prime p and fraction-free on integers
over the rationals (Bareiss, Math. Comp. 22, 1968).

Faces reach the kernels one way: ``betti_from_sizes`` takes a complex's
faces grouped by size and builds the boundary columns of each size whose
rank its degree window needs, with rows indexed in the complex's own group
of faces one vertex smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence


# Trial division up to the square root of this bound stays in milliseconds.
FIELD_LIMIT = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: a prime characteristic, or 0 for exact rationals."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        p = self.characteristic
        if p != 0 and not (p < FIELD_LIMIT and _is_prime(p)):
            raise ValueError(f"characteristic must be 0 or a prime below 2^31, got {p}")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
RATIONAL = FieldSpec(0)


def rank_gf2(columns: Sequence[int]) -> int:
    """Rank of a GF(2) matrix given as integer column bitmasks."""
    echelon: dict[int, int] = {}  # lowest row bit -> pivot column
    for v in columns:
        while v:
            low = v & -v
            p = echelon.get(low)
            if p is None:
                echelon[low] = v
                break
            v ^= p
    return len(echelon)


def rank_sparse(columns: Sequence[dict[int, int]], characteristic: int) -> int:
    """Rank over GF(p) (p prime) or the rationals (characteristic 0).

    Columns are sparse {row: coefficient} dicts of ints, nonzero mod p;
    input is not modified.  Over GF(p) each pivot is scaled to lead with 1.
    Over the rationals elimination is fraction-free: work = a * work - c *
    pivot, with a/c the ratio of the pivot's and work's leading entries in
    lowest terms, after which work is divided by the gcd of its entries.
    """
    p = characteristic
    echelon: dict[int, tuple[int, dict]] = {}  # top row -> (lead, rest of the pivot column)
    for col in columns:
        work = dict(col)
        while work:
            r = max(work)
            c = work.pop(r)
            piv = echelon.get(r)
            if piv is None:
                if p:
                    inv = pow(c, -1, p)
                    echelon[r] = (1, {k: v * inv % p for k, v in work.items()})
                else:
                    echelon[r] = (c, work)
                break
            lead, rest = piv
            if not p:
                g = gcd(lead, c)
                a, c = lead // g, c // g
                if a != 1:
                    work = {k: a * v for k, v in work.items()}
            for k, v in rest.items():
                nv = work.get(k, 0) - c * v
                if p:
                    nv %= p
                if nv:
                    work[k] = nv
                elif k in work:
                    del work[k]
            if not p:
                g = gcd(*work.values())
                if g > 1:
                    work = {k: v // g for k, v in work.items()}
    return len(echelon)


def boundary_columns(faces_k: Sequence[int], faces_km1: Sequence[int], characteristic: int):
    """Sparse boundary columns from size-k faces to size-(k-1) faces.

    GF(2) gives integer bitmask columns and any other field {row: sign}
    dicts, with -1 taken mod p.
    """
    row_index = {f: i for i, f in enumerate(faces_km1)}
    cols = []
    if characteristic == 2:
        for f in faces_k:
            col, rest = 0, f
            while rest:
                low = rest & -rest
                col |= 1 << row_index[f ^ low]
                rest ^= low
            cols.append(col)
        return cols
    minus = characteristic - 1 if characteristic else -1
    for f in faces_k:
        col, rest, sign = {}, f, 1
        while rest:
            low = rest & -rest
            col[row_index[f ^ low]] = sign
            sign = minus if sign == 1 else 1
            rest ^= low
        cols.append(col)
    return cols


def boundary_rank(columns: Sequence, field: FieldSpec) -> int:
    """Rank of the columns in the field's kernel."""
    if not columns:
        return 0
    p = field.characteristic
    if p == 2:
        return rank_gf2(columns)
    return rank_sparse(columns, p)


def betti_from_sizes(faces_by_size: Sequence[Sequence[int]], field: FieldSpec,
                     ell_lo: int = -1, ell_hi: Optional[int] = None) -> dict[int, int]:
    """Reduced homology dimensions of a complex from its face masks grouped by size.

    Group k holds the size-k faces, f_k of them, and every subset of a face
    is in its group.  Only degrees in [ell_lo, ell_hi] are computed; dim
    H_ell equals f_{ell+1} - rank d_{ell+1} - rank d_{ell+2}, and only the
    boundary columns of those ranks are built.  d_1 maps every vertex to the
    empty face, so its rank is 1 if there is a vertex, with no elimination.
    """
    top = len(faces_by_size) - 1
    if ell_hi is None:
        ell_hi = top - 1
    ell_hi = min(ell_hi, top - 1)
    if ell_hi < ell_lo:
        return {}
    p = field.characteristic
    ranks: dict[int, int] = {}
    for k in range(max(ell_lo + 1, 1), min(ell_hi + 2, top) + 1):
        ranks[k] = (boundary_rank(boundary_columns(faces_by_size[k], faces_by_size[k - 1], p), field) if k > 1
                    else min(len(faces_by_size[1]), 1))
    dims = {}
    for ell in range(ell_lo, ell_hi + 1):
        k = ell + 1
        d = len(faces_by_size[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if d:
            dims[ell] = d
    return dims
