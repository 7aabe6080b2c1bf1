"""Reduced simplicial homology dimensions over GF(p), plus an exact
rational mode used as a test oracle.

Faces with k vertices have dimension k - 1; the empty face is the single
size-0 face and the augmentation map realizes reduced homology.  Boundary
signs follow lexicographic face order and removed-vertex position; any
consistent convention yields the same ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import SimplicialComplex
from .graphs import bits


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


@dataclass(frozen=True)
class BettiVector:
    """dims[ell] = dim of reduced homology in degree ell (absent = 0)."""

    dims: dict[int, int]

    def __getitem__(self, ell: int) -> int:
        return self.dims.get(ell, 0)

    def total(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiVector):
            return NotImplemented
        keys = set(self.dims) | set(other.dims)
        return all(self[k] == other[k] for k in keys)

    def __hash__(self) -> int:  # pragma: no cover - dict field, unhashable anyway
        raise TypeError("BettiVector is not hashable")


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
        work = dict(col)
        if p:
            work = {r: c % p for r, c in work.items() if c % p}
        else:
            work = {r: Fraction(c) for r, c in work.items() if c}
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
    if characteristic == 2:
        cols = []
        for f in faces_k:
            col = 0
            for v in bits(f):
                col |= 1 << row_index[f ^ (1 << v)]
            cols.append(col)
        return cols
    cols = []
    for f in faces_k:
        col = {}
        for pos, v in enumerate(bits(f)):
            col[row_index[f ^ (1 << v)]] = -1 if pos % 2 else 1
        cols.append(col)
    return cols


def boundary_rank(faces_k: Sequence[int], faces_km1: Sequence[int], field: FieldSpec) -> int:
    if not faces_k or not faces_km1:
        return 0
    cols = boundary_columns(faces_k, faces_km1, field.characteristic)
    if field.characteristic == 2:
        return rank_gf2(cols)
    return rank_sparse(cols, field.characteristic)


def betti_from_sizes(faces_by_size: Sequence[Sequence[int]], field: FieldSpec,
                     ell_lo: int = -1, ell_hi: Optional[int] = None) -> dict[int, int]:
    """Reduced homology dimensions from faces grouped by vertex count.

    Only degrees in [ell_lo, ell_hi] are computed; dim H_ell equals
    f_{ell+1} - rank d_{ell+1} - rank d_{ell+2}.
    """
    top = len(faces_by_size) - 1
    if ell_hi is None:
        ell_hi = top - 1
    ell_hi = min(ell_hi, top - 1)
    if ell_hi < ell_lo:
        return {}
    counts = [len(group) for group in faces_by_size]

    def group(k: int) -> Sequence[int]:
        return faces_by_size[k] if 0 <= k <= top else ()

    ranks: dict[int, int] = {}
    for k in range(max(ell_lo + 1, 1), ell_hi + 3):
        ranks[k] = boundary_rank(group(k), group(k - 1), field)
    dims = {}
    for ell in range(ell_lo, ell_hi + 1):
        k = ell + 1
        f = counts[k] if k <= top else 0
        d = f - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if d:
            dims[ell] = d
    return dims


def reduced_betti(c: SimplicialComplex, field: FieldSpec = GF2) -> BettiVector:
    """Reduced Betti numbers; void -> all zero, {emptyset} -> H_{-1} = 1."""
    if c.is_void:
        return BettiVector({})
    return BettiVector(betti_from_sizes(c.faces_by_size(), field))
