"""Graded Betti tables of Stanley-Reisner rings and depth of monomial quotients.

The (i, j) Betti number of K[Delta] is the sum over size-j vertex subsets W
of dim H_{j-i-1}(Delta|_W) (Hochster's formula).  Depth is the smallest i
with H^i_m(S/I) != 0, read off Takayama's formula
dim H^i_m(S/I)_a = dim H_{i-|G_a|-1}(Delta_a) in the n variables of S, where
G_a = {j : a_j < 0}; for a squarefree I, Delta_a is the link of G_a.

One scan computes every depth: G_a runs over faces by size, and a caller
yields the degree complexes Delta_a for each, which the scan ranks as they
come, each on its own faces.  For a graph, Delta_a is the link of the
clique G_a, the clique complex on its common neighbours, so graph_depth
builds no ideal and filters no faces: it yields the cliques of that
neighbourhood's strong-collapse core, which has the link's homology, and
nothing where the core is one vertex.

The depths of S/I^(2) and S/I^2 for I = I(G^c) are read off Delta = Delta(G)
itself, with no ideal built (Minh-Trung, "Cohen-Macaulayness of monomial
ideals and symbolic powers of Stanley-Reisner ideals", Adv. Math. 226, 2011,
section 1).  For a with a_j >= 0 off G_a, Delta_a(I^(2)) is generated by
F - G_a for the facets F of Delta containing G_a with sum_{j not in F} a_j
<= 1, and Delta_a(I^2) = {H in lk G_a : x^a not in I^2 S[x_T^-1]},
T = H + G_a.

Graph tables, where Delta = Delta(G) is flag, come from a recurrence over
the vertex subsets, one block per top vertex.  With v the top vertex of x
and w = x - v, Delta|_x is Delta|_w glued along the link Delta|_{w & N(v)}
to a cone, so the reduced Mayer-Vietoris sequence gives x's reduced
homology from that of w and of w & N(v), two smaller subsets, and the ranks
of the maps between them.  The w with one link s form a coset s + 2^R, R
the vertices below v off N(v); where s spans an acyclic link, gluing
changes nothing, so v's block starts as a copy of the blocks below it and
only the cosets of links with homology are visited.  Their ranks are
counts, except at a conflict, a subset where both have homology in one
degree k >= 1, which is ranked on the cliques of its strong-collapse core,
each distinct core once per table.  The sums per
subset size are counted per coset, not summed per subset, and the last
block, read by nothing, is not stored: the recurrence holds a list of
2^(n-1) packed dimensions while it builds one table.  Vertex connectivity
is read off a graph table's linear strand.

The tables of other complexes (graded_betti_table, which the tests also use
to check graph tables) are the plain Hochster sum, over the subsets W that
the minimal non-faces inside W cover: any other Delta|_W is a cone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import (NONFACE_SCAN_LIMIT, SimplicialComplex, cliques_by_size, complex_from_squarefree_ideal,
                        guard_clique_complex, guard_face_enumeration, stanley_reisner_ideal)
from .graphs import Graph, GuardError, bits, mask_of
from .homology import GF2, FieldSpec, betti_from_sizes
from .homology import boundary_rank  # noqa: F401  perfbench's tracer test patches this binding
from .monomials import MonomialIdeal

SUBSET_SCAN_LIMIT = 14
POLARIZED_SCAN_LIMIT = 16
POWERS_SCAN_LIMIT = 10


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


def guard_subset_scan(n: int, allow_large: bool) -> None:
    """Raise GuardError before a 2^n subset scan over the size limit."""
    if n > SUBSET_SCAN_LIMIT and not allow_large:
        raise GuardError(f"subset scan limited to n <= {SUBSET_SCAN_LIMIT}; override to force")


def guard_polarized_scan(m: int, allow_large: bool) -> None:
    """Raise GuardError before a depth scan of an ideal whose polarization has m variables."""
    if m > POLARIZED_SCAN_LIMIT and not allow_large:
        raise GuardError(
            f"polarized ring has {m} variables, over the {POLARIZED_SCAN_LIMIT} limit; override to force")


def _unpack(n: int, acc: list[int], width: int) -> BettiTable:
    """The table whose beta_{j-k,j} is field k, of the given width, of acc[j]; beta_{0,0} = 1."""
    field_mask = (1 << width) - 1
    entries = {(0, 0): 1}
    for j, sums in enumerate(acc):
        for k in range(j + 1):
            d = sums >> k * width & field_mask
            if d:
                entries[j - k, j] = d
    return BettiTable(n, entries)


def graded_betti_table(c: SimplicialComplex, field: FieldSpec = GF2, *,
                       allow_large: bool = False) -> BettiTable:
    """Exact Betti table by Hochster's formula, summed over every vertex subset W.

    A vertex of W in no minimal non-face inside W makes Delta|_W a cone, with
    no reduced homology, so only the W those non-faces cover are ranked, each
    on its own faces.
    """
    if c.is_void:
        raise ValueError("the void complex has no Betti table")
    guard_subset_scan(c.n, allow_large)
    gen_masks = stanley_reisner_ideal(c).support_masks()
    by_size = c.faces_by_size()
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << c.n):
        outside, cover = ~w, 0
        for gm in gen_masks:
            if gm & outside == 0:
                cover |= gm
        if cover != w:
            continue
        inside = []
        for group in by_size:
            group = [f for f in group if f & outside == 0]
            if not group:
                break  # a size-(k+1) face inside w contains a size-k one
            inside.append(group)
        j = w.bit_count()
        for ell, d in betti_from_sizes(inside, field).items():
            key = (j - ell - 1, j)
            entries[key] = entries.get(key, 0) + d
    return BettiTable(c.n, entries)


def _submasks(mask: int) -> list[int]:
    """Every submask of mask, ascending."""
    out = [0]
    while mask:
        low = mask & -mask
        out += [r | low for r in out]
        mask ^= low
    return out


def _strong_core(x: int, closed: Sequence[int]) -> int:
    """x less vertices dominated in the graph on x, one at a time, until none is.

    closed[u] is u's closed neighbourhood.  u is dominated iff the closed
    neighbourhoods of u's closed neighbours in the core meet in more than u;
    a deletion can make only the deleted vertex's neighbours dominated, so
    only they are tested again.
    """
    core = todo = x
    while todo:
        u = todo & -todo
        todo ^= u
        near = closed[u.bit_length() - 1] & core
        common, rest = near, near ^ u
        while rest and common != u:
            y = rest & -rest
            common &= closed[y.bit_length() - 1]
            rest ^= y
        if common != u:
            core ^= u
            todo |= near & core
    return core


def graph_betti_table(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> BettiTable:
    """Betti table of S/I(G^c) by a Mayer-Vietoris recurrence over the vertex subsets of g.

    With Delta = Delta(g), x = w + v and v the top vertex of x, Delta|_x is
    Delta|_w glued to the cone over v on Delta|_nb, nb = w & N(v), along
    Delta|_nb.  The cone is acyclic, so the reduced Mayer-Vietoris sequence
    gives dim H_k(x) = dim H_k(w) - rank i_k + dim H_{k-1}(nb) - rank i_{k-1}
    for the maps i_k: H_k(nb) -> H_k(w) induced by inclusion (Hatcher,
    Algebraic Topology, section 2.2).  Every rank but the conflicting ones is
    known without linear algebra:

    - rank i_{-1} is 1 when w = nb = {} (x is one vertex) and 0 otherwise;
    - rank i_0 is t - 1 for the t >= 1 components of g[w] that nb meets.
      t = 1 with no search when g[w] or g[nb] is connected (dim H_0 = 0);
      else t = c(w) - c(w - U), U the union of those components, which one
      reachability sweep from nb finds, and c(y) = dim H_0(y) + 1 for y != {};
    - rank i_k is 0 when H_k(nb) or H_k(w) is 0.

    dims[x] packs dim H_{j-1}(x) in field j of 2n + 1 bits, so with
    R = (t - 1) << (2n + 1) the recurrence is one packed expression,
    dims[w] - R + ((dims[nb] - R) << (2n + 1)).  Block v holds
    dims[w + v] for w below v.  With L = N(v) below v and the rest below v
    off L, w = s + r for s = nb inside L and r inside the rest:

    - where dims[s] = 0 the link is acyclic and dims[x] = dims[w], so the
      block starts as a copy of dims[:2^v];
    - s = {} adds 1 to dim H_0 (v is isolated in x), with no checks;
    - any other s with dims[s] != 0 has its coset visited, and only its w
      with a disconnected g[w] or some H_k(w) != 0, k >= 1, can take a rank.

    A conflict, some k >= 1 with both nonzero, is a cone on v when nb = w,
    with no homology.  Any other conflict strips dominated vertices from x
    one at a time (a strong collapse, which keeps reduced homology over
    every field: Barmak-Minian, DCG 47, 2012).  A one-vertex core is
    acyclic; any other is ranked on its own cliques.  Its reduced homology
    is that of every x it comes from, so a core is ranked once per table
    and its packed dims reused.

    acc[j] sums dims[x] over |x| = j.  Block v adds to acc[j + 1] the old
    acc[j], plus (sum_k links_k C(|rest|, j - k)) << (2n + 1) for
    links_k = sum of dims[s] over |s| = k, plus the ranks' fixes over
    |w| = j, so only the visited w cost a step.  Nothing reads the last
    block, which is not stored: the list holds 2^(n-1) ints while the
    table is built.

    The table does not depend on the labels, so the recurrence runs on g
    relabelled in a smallest-last degeneracy order (Matula-Beck, J. ACM 30,
    1983): a least-degree vertex of what is left, the lowest on ties, takes
    the highest free label.  The top vertex of x then has few neighbours in
    x, so its cosets are few and large, and far fewer subsets conflict.

    The subset guard and the clique complex's ceiling, which allow_large
    does not lift, are checked before the scan starts.
    """
    guard_subset_scan(g.n, allow_large)
    guard_clique_complex(g.n)
    n = g.n
    degree = [row.bit_count() for row in g.adj]  # in g less the labelled vertices
    left, label = list(range(n)), [0] * n
    for free in range(n - 1, -1, -1):
        v = min(left, key=degree.__getitem__)
        left.remove(v)
        label[v] = free
        for u in left:
            degree[u] -= g.adj[v] >> u & 1
    adj = [0] * n
    for u, row in enumerate(g.adj):
        adj[label[u]] = sum(1 << label[w] for w in bits(row))
    closed = [adj[u] | 1 << u for u in range(n)]
    width = 2 * n + 1
    field_mask = (1 << width) - 1
    h0_field = field_mask << width  # dim H_0
    one_h0 = 1 << width
    above = 1 << 2 * width  # packed dims at least this have some dim H_k != 0, k >= 1
    # lows + dims sets the top bit of each field >= 2 that is nonzero (a field is below 2^n)
    lows = sum(field_mask >> 1 << j * width for j in range(2, n + 2))
    tops = sum(1 << (j + 1) * width - 1 for j in range(2, n + 2))
    acc = [1] + [0] * n  # acc[j]: the sum of dims[x] over the subsets x of size j so far
    ranked: dict[int, int] = {}  # packed dims of each core ranked so far

    def from_scratch(core: int) -> int:
        """Packed dims of a core, ranked on its own cliques; equal cores share one ranking."""
        xd = ranked.get(core)
        if xd is None:
            found = betti_from_sizes(cliques_by_size(adj, core, n), field)
            xd = ranked[core] = sum(d << (ell + 1) * width for ell, d in found.items())
        return xd

    dims = [1]  # the empty set: dim H_{-1} = 1
    for v in range(n):
        base = 1 << v
        link = adj[v] & base - 1
        rest = base - 1 ^ link
        stored = v < n - 1  # the last block is only summed
        if stored:
            dims *= 2  # block v starts as dims[w] at x = w + v
        subs = _submasks(rest) if stored else None  # the last block may need none
        links = [0] * (link.bit_count() + 1)  # links[k]: the sum of dims[s] over s inside link, |s| = k
        fix = [0] * (v + 1)  # fix[j]: the sum of dims[x] - dims[w] over |w| = j
        s = 0
        while True:
            nd = dims[s]
            if s == 0:
                links[0] = 1
                fix[0] = -1 - one_h0  # x = {v}: w = nb = {}, and i_{-1} is onto
                if stored:
                    for r in subs:
                        dims[base | r] += one_h0  # v is isolated in x
                    dims[base] = 0
            elif nd:
                links[s.bit_count()] += nd
                if subs is None:
                    subs = _submasks(rest)
                top, shifted = base | s, nd << width
                if stored:
                    for r in subs:
                        dims[top | r] += shifted
                nd_h0 = nd & h0_field
                nd_high = (nd + lows) & tops
                # only a disconnected g[w] or some H_k(w) != 0, k >= 1, can take a rank
                special = (h0_field if nd_h0 else 0) | (-above if nd_high else 0)
                for r in [r for r in subs if dims[s | r] & special]:
                    w = s | r
                    wd = dims[w]
                    xd = wd + shifted
                    if nd_h0 and wd & h0_field:
                        # g[nb] and g[w] are disconnected, so nb may meet t > 1 components of g[w]:
                        # t = c(w) - c(w - reach), reach the union of the components nb meets
                        reach = frontier = s
                        while frontier:
                            grow = 0
                            while frontier:
                                low = frontier & -frontier
                                grow |= adj[low.bit_length() - 1]
                                frontier ^= low
                            frontier = grow & w & ~reach
                            reach |= frontier
                        apart = w ^ reach
                        t = (wd >> width & field_mask) + 1 - ((dims[apart] >> width & field_mask) + 1 if apart else 0)
                        xd -= (t - 1 << width) * (1 + one_h0)
                    if (wd + lows) & nd_high:
                        if r == 0:
                            xd = 0  # nb = w: x is a cone on v
                        else:
                            core = _strong_core(w | base, closed)
                            xd = from_scratch(core) if core & core - 1 else 0
                    if xd != wd + shifted:  # the ranks' part; the links' part is counted below
                        fix[w.bit_count()] += xd - wd - shifted
                        if stored:
                            dims[top | r] = xd
            s = (s - link) & link
            if not s:
                break
        m = rest.bit_count()
        for k, total in enumerate(links):
            if total:  # C(m, j - k) of the w with |w| = j have a link s of size k
                for i in range(m + 1):
                    fix[k + i] += math.comb(m, i) * total << width
        for j in range(v, -1, -1):
            acc[j + 1] += acc[j] + fix[j]
    return _unpack(n, acc, width)


def _depth_scan(by_size: Sequence[Sequence[int]], field: FieldSpec, complexes) -> tuple[int, tuple]:
    """Least |G_a| + 1 + ell with H_ell(Delta_a) != 0, G_a over a complex's faces grouped by size.

    complexes(ga, kmax) yields (key, faces) for the degrees a with negative
    part ga, the faces of Delta_a or of a complex with its reduced homology,
    as a set that may leave out those of size over kmax.  Only degrees
    ell <= kmax - 2 can beat the best depth, so each Delta_a is ranked on
    its faces of size <= kmax alone.  Depth is at most the largest face
    size, the dimension of S/I, and at least |G_a|, so the scan stops once
    |G_a| reaches the best depth found.  The witness (key, ell) is the
    first Delta_a that attains the depth and its least nonzero degree.  A
    Delta_a that is a cone up to size kmax has no homology in the degrees
    read, so it never sets the depth or the witness, and callers yield
    cones with no test.
    """
    best, witness = len(by_size), None
    for size, group in enumerate(by_size):
        if size >= best:
            break
        for ga in group:
            for key, selected in complexes(ga, best - size):
                kmax = best - size  # best may have fallen since complexes(ga) started
                grouped: list[list[int]] = [[] for _ in range(kmax + 1)]
                for f in selected:
                    if f.bit_count() <= kmax:
                        grouped[f.bit_count()].append(f)
                while not grouped[-1]:
                    grouped.pop()  # the empty face is always selected
                dims = betti_from_sizes(grouped, field, -1, kmax - 2)
                if dims:
                    best = size + 1 + min(dims)
                    witness = (key, min(dims))
    return best, witness


def _takayama_depth(c: SimplicialComplex, ideal: MonomialIdeal, field: FieldSpec) -> DepthResult:
    """Depth of S/I for c = Delta(sqrt I): the least |G_a| + 1 + ell with H_ell(Delta_a) != 0.

    A variable in no generator has a_j < 0 in every degree and c is a cone
    over it, so it lies in every G_a and adds 1; the scan runs on the faces of
    c avoiding those.  Off G_a each a_j runs over 0 .. rho_j - 1 (rho_j the
    largest exponent of x_j).  Delta_a is the link of G_a less the faces that
    contain a mask {j not in G_a : b_j > a_j}, b a generator: a mask m with
    m + G_a not a face holds no face of the link, and an empty mask leaves
    Delta_a void.  Where a is 0 off G_a each mask is supp b - G_a, and no
    face of the link holds one, so Delta_a is the whole link.
    """
    n = c.n
    if ideal.is_zero():
        return DepthResult(n, 0, ((-1,) * n, -1))
    rho = ideal.max_exponents()
    forced = mask_of(j for j in range(n) if rho[j] == 0)  # x_j in no generator: a_j < 0
    by_size = [[f for f in group if f & forced == 0] for group in c.faces_by_size()]
    # levels[i][t]: the variables where generator i exceeds t, so a mask is the
    # sum over t of levels[i][t] & {j : a_j = t}; a squarefree ideal reads links only
    top = max(rho)
    levels = [[mask_of(j for j, e in enumerate(b) if e > t) for t in range(top)]
              for b in ideal.gens] if top > 1 else []

    def complexes(ga: int, kmax: int):
        neg = ga | forced
        link = {f for group in by_size[: kmax + 1] for f in group if f & ga == 0 and f | ga in c.faces}
        vary = [j for j in range(n) if rho[j] > 1 and not neg >> j & 1]
        for values in itertools.product(*(range(rho[j]) for j in vary)):
            raised = dict(zip(vary, values))
            a = tuple(-1 if neg >> j & 1 else raised.get(j, 0) for j in range(n))
            if not any(values):
                yield a, link
                continue
            at = [mask_of(j for j in range(n) if a[j] == t) for t in range(top)]
            masks = {sum(map(operator.and_, lv, at)) for lv in levels}
            masks = [m for m in masks if m | ga in c.faces]
            if 0 not in masks:
                yield a, {f for f in link if all(f & m != m for m in masks)}

    depth, witness = _depth_scan(by_size, field, complexes)
    free = forced.bit_count()
    return DepthResult(free + depth, n - free - depth, witness)


def depth_stanley_reisner(c: SimplicialComplex, field: FieldSpec = GF2, *,
                          allow_large: bool = False) -> DepthResult:
    """Depth and projective dimension of the Stanley-Reisner quotient."""
    if c.is_void:
        raise ValueError("the void complex has no depth")
    guard_subset_scan(c.n, allow_large)
    return _takayama_depth(c, stanley_reisner_ideal(c), field)


def graph_depth(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> DepthResult:
    """Depth of S/I(G^c) by the depth scan on Delta = Delta(g), whose minimal non-faces are the non-edges.

    A universal vertex of g is in no generator, so it lies in every G_a and
    adds 1; a complete g has I = 0.  Every other rho_j is 1, so a is -1 on
    G_a and 0 elsewhere, and Delta_a is the link of the clique G_a: the
    clique complex of g on the common neighbours of G_a, less the universal
    vertices.  That has the reduced homology of the clique complex on its
    strong-collapse core (Barmak-Minian, DCG 47, 2012), which is yielded in
    its place.  A one-vertex core is acyclic, and with kmax <= 1 a link with
    a vertex is a cone in the degrees the scan reads, so neither is yielded.
    """
    guard_subset_scan(g.n, allow_large)
    guard_clique_complex(g.n)
    n, adj, full = g.n, g.adj, g.full_mask
    forced = mask_of(v for v in range(n) if adj[v] | 1 << v == full)
    if forced == full:
        return DepthResult(n, 0, ((-1,) * n, -1))
    others = full & ~forced
    by_size = [sorted(group) for group in cliques_by_size(adj, others, n)]
    closed = [row | 1 << v for v, row in enumerate(adj)]

    def complexes(ga: int, kmax: int):
        common = others  # the link's vertices
        for v in bits(ga):
            common &= adj[v]
        if common:
            if kmax <= 1:
                return
            common = _strong_core(common, closed)
            if not common & common - 1:
                return
        neg = ga | forced
        core = itertools.chain.from_iterable(cliques_by_size(adj, common, kmax))
        yield tuple(-(neg >> j & 1) for j in range(n)), set(core)

    depth, witness = _depth_scan(by_size, field, complexes)
    free = forced.bit_count()
    return DepthResult(free + depth, n - free - depth, witness)


def guard_second_powers(n: int, m: int, allow_large: bool) -> None:
    """Raise GuardError before the second-power scan of an n-vertex graph with m non-universal vertices."""
    if m > POWERS_SCAN_LIMIT and not allow_large:
        raise GuardError(f"second-power scan limited to {POWERS_SCAN_LIMIT} non-universal vertices, "
                         f"got {m}; override to force")
    guard_face_enumeration(n)


def second_power_depths(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> tuple[int, int]:
    """Depths of S/I^(2) and S/I^2 for I = I(G^c), from degree complexes on Delta = Delta(G).

    A vertex of G^c with no edge is universal in G; its variable is in no
    generator and adds 1 to both depths, so the scan runs on the other m
    vertices, where every rho_j is 2 and a_j is 0 or 1 off G_a.  With
    A = supp(a) (Minh-Trung, Adv. Math. 226, 2011, section 1):

    - Delta_a(I^(2)) is generated by F - G_a for the maximal cliques F
      containing G_a with |A - F| <= 1; only supports A inside some F plus
      one vertex select any F, and a family of F with a common vertex off
      G_a generates a cone.
    - Delta_a(I^2) holds H in lk G_a iff x^a is not in I^2 S[x_T^-1],
      T = H + G_a.  There I = (x_j : j in N) + I(G^c - T - N), N the
      neighbours of T in G^c, so with B = A & N and C = A - T - N, x^a is in
      it iff |B| >= 2, or B is not empty and C spans an edge of G^c, or
      G^c[C] has two disjoint edges.

    I^(2) = I^2 + (the triangles of G^c) (Sullivant, "Combinatorial symbolic
    powers", J. Algebra 319, 2008), so where G^c has no triangle the two
    quotients are one ring: the symbolic depth is returned for both, and the
    square is scanned only where G^c has a triangle.
    """
    gc = g.complement()
    support = mask_of(v for v in range(g.n) if gc.adj[v])
    m = support.bit_count()
    if not m:
        return g.n, g.n  # I = 0
    guard_second_powers(g.n, m, allow_large)
    index = {v: i for i, v in enumerate(bits(support))}
    h = Graph.from_edges(m, [(index[u], index[v]) for u, v in g.edges() if support >> u & support >> v & 1])
    hc = h.complement().adj
    full = h.full_mask
    by_size = [sorted(group) for group in cliques_by_size(h.adj, full, m)]
    nbr = {0: 0}  # a clique's neighbours in G^c, none of them inside it
    for group in by_size[1:]:
        for f in group:
            low = f & -f
            nbr[f] = nbr[f ^ low] | hc[low.bit_length() - 1]
    facets = [f for group in by_size[1:] for f in group if not full & ~nbr[f] & ~f]

    def symbolic(ga: int, kmax: int):
        star = [f for f in facets if f & ga == ga]
        supports = set()  # the subsets of each F - G_a, plus at most one vertex off F
        for f in star:
            extras = [0, *(1 << v for v in bits(full & ~f))]
            supports.update(sub | e for sub in _submasks(f ^ ga) for e in extras)
        seen = set()
        for a in sorted(supports, key=int.bit_count):
            family = tuple(f ^ ga for f in star if (a & ~f).bit_count() <= 1)
            if family in seen:
                continue
            seen.add(family)
            common = full
            for s in family:
                common &= s
            if common:
                continue  # a cone
            yield a, {sub for s in family for sub in _submasks(s)}

    free = g.n - m
    depth_symbolic = free + _depth_scan(by_size, field, symbolic)[0]
    if not any(hc[u] & hc[v] for u in range(m) for v in bits(hc[u])):
        return depth_symbolic, depth_symbolic  # G^c has no triangle: I^(2) = I^2
    # edge[s], matched[s]: G^c restricted to s has an edge, two disjoint edges
    edge, matched = bytearray(1 << m), bytearray(1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        r, nb = s ^ low, hc[low.bit_length() - 1] & s
        edge[s] = edge[r] or nb != 0
        matched[s] = matched[r] or any(edge[r & ~(1 << u)] for u in bits(nb))

    def square(ga: int, kmax: int):
        # the neighbours of G_a in G^c lie in N for every T, so A holds at
        # most one of them (else |B| >= 2 for every T), and which one does
        # not matter; the link's vertices are the others off G_a, and its
        # faces the cliques among them.  A larger A keeps fewer faces, so the
        # supports are walked depth first, each adding one vertex to a
        # smaller one and testing only the faces that one kept.
        near = nbr[ga]
        lk = full & ~ga & ~near
        link = [(f, nbr[f | ga]) for group in by_size[: kmax + 1] for f in group if f & ~lk == 0]
        verts = [*bits(lk), *bits(near & -near)]
        seen = set()
        stack = [(0, 0, link)]
        while stack:
            a, first, kept = stack.pop()
            selected = frozenset(f for f, _ in kept)
            if selected not in seen:
                seen.add(selected)
                yield a, selected
            for i in range(first, len(verts)):
                grown = a | 1 << verts[i]
                child = []
                for f, nb in kept:
                    x = grown & ~f  # A - T
                    b = x & nb
                    if not (b & (b - 1) or (edge[x ^ b] if b else matched[x])):
                        child.append((f, nb))
                if child:  # else Delta_a is void, and so is every larger support's
                    stack.append((grown, i + 1, child))

    return depth_symbolic, free + _depth_scan(by_size, field, square)[0]


def kappa_from_table(table: BettiTable) -> int:
    """Vertex connectivity of g from the table of S/I(G^c), g on table.n vertices.

    By Hochster's formula beta_{j-1,j} sums c(g[W]) - 1 over |W| = j, so it
    is nonzero iff some j vertices induce a disconnected graph.  Such a W is
    what removing the separator V - W leaves, so the largest such j is
    n - kappa; with none, g is complete and kappa is n - 1.
    """
    return table.n - max((j for i, j in table.entries if j - i == 1), default=1)


def kappa_via_betti(g: Graph, field: FieldSpec = GF2, *, allow_large: bool = False) -> int:
    """Vertex connectivity read off the linear strand of graph_betti_table, under its guards."""
    if g.n == 0:
        raise ValueError("vertex connectivity of the empty graph is undefined")
    return kappa_from_table(graph_betti_table(g, field, allow_large=allow_large))


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
