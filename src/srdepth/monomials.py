"""Exact monomial-ideal arithmetic: minimal generators, products,
intersections, symbolic squares of edge ideals, polarization.

A monomial is an exponent tuple of length ``num_vars``.  An ideal is kept
as its unique minimal (divisibility-antichain) generating set, sorted.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import graphs
from .graphs import Graph, GuardError, bits

Monomial = tuple[int, ...]

SYMBOLIC_POWER_LIMIT = 3


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def degree(a: Monomial) -> int:
    return sum(a)


def support_mask(a: Monomial) -> int:
    m = 0
    for i, e in enumerate(a):
        if e:
            m |= 1 << i
    return m


def monomial_from_mask(n: int, mask: int) -> Monomial:
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, as a sorted antichain of exponent tuples."""

    num_vars: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if len(g) != self.num_vars:
                raise ValueError("generator length mismatch")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent")

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, ((0,) * n,))

    @classmethod
    def from_squarefree_masks(cls, n: int, masks: Iterable[int]) -> "MonomialIdeal":
        return minimalize([monomial_from_mask(n, m) for m in masks], n)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def support_masks(self) -> list[int]:
        return [support_mask(g) for g in self.gens]

    def max_exponents(self) -> tuple[int, ...]:
        out = [0] * self.num_vars
        for g in self.gens:
            for i, e in enumerate(g):
                if e > out[i]:
                    out[i] = e
        return tuple(out)


def minimalize(gens: Sequence[Monomial], n: int) -> MonomialIdeal:
    """Divisibility-minimal antichain of the given generators, sorted."""
    ordered = sorted(set(gens), key=lambda g: (degree(g), g))
    kept: list[Monomial] = []
    for g in ordered:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return MonomialIdeal(n, tuple(sorted(kept)))


def _check_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.num_vars != b.num_vars:
        raise ValueError("ideals live in different rings")


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_ring(a, b)
    return minimalize([mul(x, y) for x in a.gens for y in b.gens], a.num_vars)


def power(a: MonomialIdeal, m: int) -> MonomialIdeal:
    if m < 1:
        raise ValueError("power exponent must be >= 1")
    out = a
    for _ in range(m - 1):
        out = product(out, a)
    return out


def intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_ring(a, b)
    if a.is_zero() or b.is_zero():
        return MonomialIdeal.zero(a.num_vars)
    return minimalize([lcm(x, y) for x in a.gens for y in b.gens], a.num_vars)


def intersect_many(ideals: Sequence[MonomialIdeal], n: int) -> MonomialIdeal:
    out = MonomialIdeal.unit(n)
    for ideal in ideals:
        out = intersection(out, ideal)
    return out


def edge_ideal(g: Graph, exclude: int = 0) -> MonomialIdeal:
    """Edge ideal of g, labels preserved; vertices in ``exclude`` dropped."""
    gens = []
    for u, v in g.edges():
        if not (exclude >> u & 1 or exclude >> v & 1):
            gens.append(monomial_from_mask(g.n, (1 << u) | (1 << v)))
    return MonomialIdeal(g.n, tuple(sorted(gens)))


def variable_power_ideal(n: int, vars_mask: int, m: int) -> MonomialIdeal:
    """(x_i : i in vars_mask)^m, generated by all degree-m monomials."""
    vs = list(bits(vars_mask))
    gens = []
    for combo in itertools.combinations_with_replacement(vs, m):
        e = [0] * n
        for v in combo:
            e[v] += 1
        gens.append(tuple(e))
    return MonomialIdeal(n, tuple(sorted(gens)))


def symbolic_power(g: Graph, m: int) -> MonomialIdeal:
    """m-th symbolic power of the edge ideal of g, via minimal primes.

    Minimal primes of an edge ideal are generated by the minimal vertex
    covers; the symbolic power is the intersection of their m-th powers.
    """
    if m < 1 or m > SYMBOLIC_POWER_LIMIT:
        raise GuardError(f"symbolic power limited to m <= {SYMBOLIC_POWER_LIMIT}")
    if g.num_edges() == 0:
        return MonomialIdeal.zero(g.n)
    if m == 1:
        return edge_ideal(g)
    covers = graphs.minimal_vertex_covers(g)
    return intersect_many([variable_power_ideal(g.n, c, m) for c in covers], g.n)


@dataclass(frozen=True)
class Polarization:
    """Squarefree ideal in an enlarged ring, with the variable split map."""

    ideal: MonomialIdeal
    new_var_count: int
    var_map: tuple[tuple[int, ...], ...]  # original var -> its split copies


def polarize(a: MonomialIdeal) -> Polarization:
    """Replace x_i^e by a product of e split copies of x_i.

    Split copies of each variable are consecutive, original-first; a
    squarefree input comes back unchanged with no new variables.
    """
    if a.is_unit():
        raise ValueError("cannot polarize the unit ideal")
    exps = a.max_exponents()
    var_map: list[tuple[int, ...]] = []
    next_index = 0
    for e in exps:
        copies = max(e, 1)
        var_map.append(tuple(range(next_index, next_index + copies)))
        next_index += copies
    big_n = next_index
    gens = []
    for g in a.gens:
        mask = 0
        for i, e in enumerate(g):
            for j in range(e):
                mask |= 1 << var_map[i][j]
        gens.append(monomial_from_mask(big_n, mask))
    pol = MonomialIdeal(big_n, tuple(sorted(gens)))
    return Polarization(pol, big_n - a.num_vars, tuple(var_map))


_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_ideal(text: str, num_vars: int | None = None) -> MonomialIdeal:
    """Ideal text format: one generator per line, e.g. ``x1^2*x3``.

    A line ``1`` denotes the unit generator, a line ``0`` contributes no
    generator; blank lines and ``#`` comments are skipped.  ``num_vars``
    defaults to the largest index seen.
    """
    raw_gens: list[dict[int, int]] = []
    max_var = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "1":
            raw_gens.append({})
            continue
        if line == "0":  # zero ideal marker
            continue
        exps: dict[int, int] = {}
        for term in line.split("*"):
            m = _TERM_RE.match(term.strip())
            if not m:
                raise ValueError(f"line {lineno}: bad term {term.strip()!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"line {lineno}: variable index must be >= 1")
            exps[idx - 1] = exps.get(idx - 1, 0) + int(m.group(2) or 1)
            max_var = max(max_var, idx)
        raw_gens.append(exps)
    n = max_var if num_vars is None else num_vars
    if n < max_var:
        raise ValueError(f"num_vars={n} but generator uses x{max_var}")
    gens = [tuple(e.get(i, 0) for i in range(n)) for e in raw_gens]
    return minimalize(gens, n)

