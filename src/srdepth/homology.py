"""Reduced simplicial homology dimensions over GF(p), plus an exact
rational mode used as a test oracle.

Faces with k vertices have dimension k - 1; the empty face is the single
size-0 face and the augmentation map realizes reduced homology.  Boundary
signs follow lexicographic face order and removed-vertex position; any
consistent convention yields the same ranks.

``FaceColumns`` builds each face's boundary column once per complex, the
first time a scan reads its size, with rows indexed in the whole complex's
group of faces one vertex smaller.  A subcomplex (the faces inside a vertex
set, possibly minus those containing given masks) selects its columns as
they are: every row such a column touches is a face of the subcomplex, so
only the rank step runs per subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    pivots: dict[int, int] = {}
    rank = 0
    for v in columns:
        while v:
            low = v & -v
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                rank += 1
                break
            v ^= p
    return rank


def rank_sparse(columns: Sequence[dict[int, int]], characteristic: int) -> int:
    """Rank over GF(p) (p odd prime) or the rationals (characteristic 0).

    Columns are sparse {row: coefficient} dicts; input is not modified.
    """
    p = characteristic
    pivots: dict[int, dict] = {}
    rank = 0
    for col in columns:
        if p:
            work = {r: c % p for r, c in col.items() if c % p}
        else:
            work = {r: Fraction(c) for r, c in col.items() if c}
        while work:
            r = max(work)
            c = work.pop(r)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(c, -1, p) if p else 1 / c
                norm = {k: (v * inv % p if p else v * inv) for k, v in work.items()}
                pivots[r] = norm
                rank += 1
                break
            for k, v in piv.items():
                nv = work.get(k, 0) - c * v
                if p:
                    nv %= p
                if nv:
                    work[k] = nv
                elif k in work:
                    del work[k]
    return rank


def boundary_columns(faces_k: Sequence[int], faces_km1: Sequence[int], characteristic: int):
    """Sparse boundary columns from size-k faces to size-(k-1) faces.

    For GF(2) returns integer bitmask columns, otherwise {row: sign} dicts.
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
    for f in faces_k:
        col, rest, sign = {}, f, 1
        while rest:  # vertices in ascending order, signs alternating from +1
            low = rest & -rest
            col[row_index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        cols.append(col)
    return cols


class FaceColumns:
    """Faces of one complex grouped by size, with boundary columns built per size on first read."""

    def __init__(self, faces_by_size: Sequence[Sequence[int]], field: FieldSpec) -> None:
        self.by_size = faces_by_size
        self.field = field
        self._columns: dict[int, dict] = {}

    def columns(self, k: int) -> dict:
        """Boundary column of each size-k face, keyed by the face; rows index the size-(k-1) faces."""
        cols = self._columns.get(k)
        if cols is None:
            group, below = self.by_size[k], self.by_size[k - 1] if k else ()
            cols = self._columns[k] = dict(zip(group, boundary_columns(group, below, self.field.characteristic)))
        return cols


def boundary_rank(columns: Sequence, field: FieldSpec) -> int:
    if not columns:
        return 0
    if field.characteristic == 2:
        return rank_gf2(columns)
    return rank_sparse(columns, field.characteristic)


def betti_from_sizes(columns_by_size: Sequence[Sequence], field: FieldSpec,
                     ell_lo: int = -1, ell_hi: Optional[int] = None) -> dict[int, int]:
    """Reduced homology dimensions from boundary columns grouped by face size.

    f_k is the length of group k.  Only degrees in [ell_lo, ell_hi] are
    computed; dim H_ell equals f_{ell+1} - rank d_{ell+1} - rank d_{ell+2}.
    """
    top = len(columns_by_size) - 1
    if ell_hi is None:
        ell_hi = top - 1
    ell_hi = min(ell_hi, top - 1)
    if ell_hi < ell_lo:
        return {}
    ranks: dict[int, int] = {}
    for k in range(max(ell_lo + 1, 1), min(ell_hi + 2, top) + 1):
        ranks[k] = boundary_rank(columns_by_size[k], field)
    dims = {}
    for ell in range(ell_lo, ell_hi + 1):
        k = ell + 1
        d = len(columns_by_size[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if d:
            dims[ell] = d
    return dims

