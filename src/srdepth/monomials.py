"""Exact monomial-ideal arithmetic: minimal generators, products, the
symbolic square of an edge ideal, polarization.

The CLI reads the second-power depths off the clique complex
(``betti.second_power_depths``); ``power`` and ``symbolic_power`` build the
ideals themselves, for the tests' generator route and the benchmark's tracer.

A monomial is an exponent tuple of length ``num_vars``.  An ideal is kept
as its unique minimal (divisibility-antichain) generating set, sorted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graphs import Graph, bits

Monomial = tuple[int, ...]


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


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
    """Divisibility-minimal antichain of the given generators, sorted.

    A monomial divides another of its degree only when they are equal, so each
    generator is tested against the kept ones of strictly lower degree.
    """
    ordered = sorted(set(gens), key=lambda g: (degree(g), g))
    kept: list[Monomial] = []
    lower: list[Monomial] = []
    deg = None
    for g in ordered:
        if degree(g) != deg:
            deg, lower = degree(g), kept[:]
        if not any(divides(h, g) for h in lower):
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


def symbolic_power(g: Graph, square: MonomialIdeal) -> MonomialIdeal:
    """Symbolic square I^(2) of the edge ideal I of g, given ``square`` = I^2.

    For an edge ideal, I^(2) = I^2 + (x_i x_j x_k : {i, j, k} a triangle of g)
    (Sullivant, "Combinatorial symbolic powers", J. Algebra 2008).
    """
    # each triangle once, as an edge u < v and a common neighbour w > v
    triangles = [monomial_from_mask(g.n, 1 << u | 1 << v | 1 << w)
                 for u, v in g.edges() for w in bits(g.adj[u] & g.adj[v] & ~((2 << v) - 1))]
    return minimalize(list(square.gens) + triangles, g.n)


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


def parse_ideal(text: str, num_vars: int | None = None,
                check: Callable[[int, list[dict[int, int]]], None] = lambda n, gens: None) -> MonomialIdeal:
    """Ideal text format: one generator per line, e.g. ``x1^2*x3``.

    A line ``1`` denotes the unit generator, a line ``0`` contributes no
    generator; blank lines and ``#`` comments are skipped.  ``num_vars``
    defaults to the largest index seen.  check(n, gens) runs on the ring's
    variable count and the generators as 0-based {variable: exponent} dicts
    before any exponent tuple is built.
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
    check(n, raw_gens)
    gens = [tuple(e.get(i, 0) for i in range(n)) for e in raw_gens]
    return minimalize(gens, n)

