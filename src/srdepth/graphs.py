"""Finite simple graphs as adjacency bitmask rows.

Vertices are 0-indexed internally; all parsing and printing is 1-indexed.
Vertex sets are plain ints used as bitmasks over ``range(n)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

BRUTE_FORCE_LIMIT = 16


class ParseError(ValueError):
    """Malformed graph input (bad line, vertex out of range, loop, ...)."""


class GuardError(ValueError):
    """An operation was asked to exceed its size guard."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:  # a neighbour >= n, or a negative row
                raise ValueError(f"neighbor out of range at vertex {v + 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v + 1}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {u + 1},{v + 1}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based vertex pairs; duplicates collapse."""
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range: {max(u, v) + 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted 0-based edge list."""
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if u > v:
                    out.append((v, u))
        return out

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def is_complete(self) -> bool:
        return all(self.adj[v] == self.full_mask ^ (1 << v) for v in range(self.n))

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.adj)))


@dataclass(frozen=True)
class ConnectivityResult:
    """Vertex connectivity with a minimum separator witness.

    ``witness`` is None exactly for complete graphs (kappa = n - 1 by
    convention); otherwise it is a mask of size ``kappa`` whose removal
    disconnects the graph (the empty mask for disconnected graphs).
    """

    kappa: int
    witness: Optional[int]


def is_connected(g: Graph, within: Optional[int] = None) -> bool:
    """Whether g[within] (all of g by default) is connected, by one sweep
    from its lowest vertex; an empty or one-vertex ``within`` is."""
    within = g.full_mask if within is None else within
    reached = frontier = within & -within
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & within & ~reached
        reached |= frontier
    return reached == within


def _min_vertex_cut(g: Graph, s: int, t: int, cap: Optional[int] = None) -> tuple[int, Optional[int]]:
    """Fewest vertices separating non-adjacent s from t, with a cut mask; (cap, None) if that is >= cap.

    Menger via unit-capacity max-flow on the vertex-split digraph, where each
    v has an entry and an exit, searched from the exit of s to the entry of t
    straight off ``g.adj``.  The flow is ``prev[v]``, the vertex before v on
    a flow path, or -1 if v is on none (always for s and t).  The residual
    steps are: the entry of v to its own exit if v is on no path, else back
    to the exit of prev[v]; the exit of v to the entry of every neighbour,
    and back to its own entry if v is on a path.  Each augmenting path sets
    prev[v] for every entry it passes: to the vertex whose exit it came from,
    or -1 if it came from v's own exit.  The cut is what the last, failed
    breadth-first search reached the entry of but not the exit of: the
    minimum s-t separator closest to s, the same for every maximum flow.
    A flow that reaches cap stops there.
    """
    prev = [-1] * g.n
    came_in = [-1] * g.n  # came_in[v]: the vertex whose exit reached the entry of v
    came_out = [-1] * g.n  # came_out[u]: the vertex whose entry reached the exit of u
    flow = 0
    while cap is None or flow < cap:
        seen_in, seen_out = 0, 1 << s
        exits = [s]  # the search's queue: the loop reads what it appends
        for u in exits:
            new = (g.adj[u] | (1 << u if prev[u] >= 0 else 0)) & ~seen_in
            seen_in |= new
            for v in bits(new):
                came_in[v] = u
                w = v if prev[v] < 0 else prev[v]
                if not seen_out >> w & 1:
                    seen_out |= 1 << w
                    came_out[w] = v
                    exits.append(w)
            if seen_in >> t & 1:
                break
        else:
            return flow, seen_in & ~seen_out
        u = came_in[t]
        while u != s:
            v = came_out[u]
            u = came_in[v]
            prev[v] = -1 if u == v else u
        flow += 1
    return cap, None


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Exact vertex connectivity by max-flow over non-adjacent pairs.

    Pairs (s, t) with s < t go in lexicographic order and stop at Even's
    bound: a minimum separator misses one of 0..kappa, which it cuts off from
    some t, so the loop ends once s reaches the least cut found.  A pair's
    flow stops there too, as a cut no smaller cannot replace the best.  The
    witness is the closest-to-s minimum separator of the first pair whose cut
    is least.  A complete graph has no such pair: kappa = n - 1, no witness.
    """
    if g.n == 0:
        raise ValueError("vertex connectivity of the empty graph is undefined")
    if not is_connected(g):
        return ConnectivityResult(0, 0)
    best = (g.n - 1, None)  # no pair's cut reaches n - 1
    for s in range(g.n):
        if s >= best[0]:
            break
        for t in range(s + 1, g.n):
            if g.has_edge(s, t):
                continue
            value, cut = _min_vertex_cut(g, s, t, best[0])
            if value < best[0]:
                best = (value, cut)
    return ConnectivityResult(*best)


def _separator_by_components(g: Graph, size: int, k: int) -> Optional[int]:
    """N(C) for the first connected C of at most k vertices with |N(C)| <= size, or None.

    Each C grows from its lowest vertex v by ESU's exclusive-neighbourhood
    rule (Wernicke, IEEE/ACM TCBB 3, 2006): a child adds a vertex w of the
    parent's extension set and extends by what is left of that set plus the
    neighbours of w above v that are in neither C nor N(C), so every
    connected C is reached once.  N(C) is carried as a running union of
    adjacency rows, so no candidate needs a search.
    """
    adj = g.adj
    for v in range(g.n):
        above = g.full_mask & -2 << v
        stack = [(1 << v, adj[v], adj[v] & above)]
        while stack:
            c, nb, ext = stack.pop()
            if nb.bit_count() <= size:
                return nb
            if c.bit_count() < k:
                while ext:
                    b = ext & -ext
                    ext ^= b
                    row = adj[b.bit_length() - 1]
                    stack.append((c | b, (nb | row) & ~(c | b), ext | row & above & ~(c | nb)))
    return None


def vertex_connectivity_bruteforce(g: Graph) -> ConnectivityResult:
    """Oracle: vertex connectivity by testing vertex sets for separation, n <= 16.

    X starts as the neighbourhood N(v) of a least-degree vertex v, which
    separates unless g is complete (kappa = n - 1, no witness).  One pass
    drops each vertex of X in turn if X still separates without it.  From
    N(v) that leaves X inclusion-minimal, since every dropped vertex keeps its
    edge to v.  Then, with s = |X|, a separator of size s - 1 is sought: one
    found is shrunk in turn, and none found makes s the connectivity and X
    the witness.  If X separates and |V - X| >= 3, some X + u separates, so a
    size with no separator has none below it, and only the sets just below
    kappa are searched in full, from the smaller side of the cut.

    The vertex side is the C(n, s - 1) sets in ``itertools.combinations``
    order, each with a search.  The component side runs where
    k = floor((n - s + 1) / 2) <= s: some (s - 1)-separator exists iff some
    connected C with |C| <= k has |N(C)| <= s - 1.  One way, grow a smaller
    separator to size s - 1 (|V - X| >= 3 as s <= n - 2); the smallest
    component C of what is left has at most k vertices and N(C) inside X.
    The other way, |C + N(C)| <= (n + s - 1) / 2 < n, so N(C) separates C
    from the rest.  Those C are enumerated with their neighbourhoods, with
    no search (``_separator_by_components``).
    """
    if g.n == 0:
        raise ValueError("vertex connectivity of the empty graph is undefined")
    if g.n > BRUTE_FORCE_LIMIT:
        raise GuardError(f"brute-force connectivity limited to n <= {BRUTE_FORCE_LIMIT}")
    full = g.full_mask
    x = g.adj[min(range(g.n), key=lambda v: g.adj[v].bit_count())]
    if x.bit_count() == g.n - 1:
        return ConnectivityResult(g.n - 1, None)
    while True:
        for u in bits(x):
            if not is_connected(g, full & ~(x ^ 1 << u)):
                x ^= 1 << u
        size = x.bit_count()
        k = (g.n - size + 1) // 2
        if not size:
            smaller = None
        elif k <= size:
            smaller = _separator_by_components(g, size - 1, k)
        else:
            below = (mask_of(c) for c in itertools.combinations(range(g.n), size - 1))
            smaller = next((w for w in below if not is_connected(g, full & ~w)), None)
        if smaller is None:
            return ConnectivityResult(size, x)
        x = smaller


def is_chordal(g: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality via maximum cardinality search.

    Returns (True, perfect elimination ordering) or (False, None).  In the
    returned ordering, the later neighbors of each vertex form a clique.
    """
    n = g.n
    if n == 0:
        return True, ()
    weight = [0] * n
    visited = 0
    mcs_order = []
    for _ in range(n):
        v = max((u for u in range(n) if not visited >> u & 1), key=lambda u: (weight[u], -u))
        mcs_order.append(v)
        visited |= 1 << v
        for u in bits(g.adj[v] & ~visited):
            weight[u] += 1
    peo = tuple(reversed(mcs_order))
    position = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [u for u in bits(g.adj[v]) if position[u] > i]
        if not later:
            continue
        u = min(later, key=lambda x: position[x])
        rest = mask_of(w for w in later if w != u)
        if rest & ~g.closed_neighborhood(u):
            return False, None
    return True, peo


def parse_edge_list(text: str, check: Callable[[int], None] = lambda n: None) -> Graph:
    """Edge-list format: first line n, then 1-based "u v" lines; '#' comments.
    check(n) runs on the declared vertex count before the graph is built."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: vertex out of range in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: loop edge {u}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError("empty input: missing vertex count line")
    check(n)
    return Graph.from_edges(n, edges)


def parse_graph6(line: str, check: Callable[[int], None] = lambda n: None) -> Graph:
    """One graph in standard graph6 encoding (read-only ingestion).
    check(n) runs on the size field's vertex count before the graph is built."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    bad = next((i for i, x in enumerate(data) if not 0 <= x <= 63), None)
    if bad is not None:
        raise ParseError(f"graph6 byte out of range at offset {bad}")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        body = data[8:]
    else:
        raise ParseError("truncated graph6 size field")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError(f"graph6 length mismatch for n={n}: got {len(body)} data bytes")
    check(n)
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return Graph.from_edges(n, (p for k, p in enumerate(pairs) if body[k // 6] >> 5 - k % 6 & 1))


def parse_graph(text: str, fmt: str = "edge-list", check: Callable[[int], None] = lambda n: None) -> Graph:
    if fmt == "edge-list":
        return parse_edge_list(text, check)
    if fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty graph6 input")
        return parse_graph6(lines[0], check)
    raise ValueError(f"unknown graph format {fmt!r}")


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
