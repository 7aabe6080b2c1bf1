"""Bound formulas, per-graph verification of the depth/connectivity
inequalities, example-graph constructors, fuzz campaigns, and the depth-2
frontier search.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional

from . import graphs as gr
from .betti import GuardError, graph_betti_table, graph_depth, guard_subset_scan, kappa_from_table
from .betti import second_power_depths
from .graphs import Graph
from .homology import GF2, FieldSpec

FUZZ_N_LIMIT_ALL = 10
FUZZ_N_LIMIT_POWERS = 10
FUZZ_N_LIMIT_CHORDAL = 12
SEARCH_N_LIMIT = 10

EDGE_PROBABILITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundSet:
    """The four bound values attached to a pair (n, kappa)."""

    upper: int
    lower_depth: int
    lower_symbolic: int
    lower_square: int
    depth2_kappa_cap: int


def bounds(n: int, k: int) -> BoundSet:
    """Integer-exact bounds for a non-complete graph on n vertices with kappa = k."""
    if not 0 <= k <= n - 2:
        raise ValueError(f"kappa must satisfy 0 <= k <= n - 2, got (n, k) = ({n}, {k})")
    base = ceil_div(k, 2 * (n - k - 1))
    return BoundSet(
        upper=k + 1,
        lower_depth=base + 1,
        lower_symbolic=base,
        lower_square=base - 1,
        depth2_kappa_cap=(2 * n - 2) // 3,
    )


def construct_example(name: str, **params: int) -> Graph:
    """Named constructors for the example graphs used throughout."""
    if name == "figure1":
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                 (2, 4), (4, 6), (2, 6), (3, 5), (1, 5), (1, 3), (1, 4)]
        return Graph.from_edges(6, [(u - 1, v - 1) for u, v in edges])
    if name == "cycle":
        t = params["t"]
        if t < 3:
            raise ValueError("cycle needs t >= 3")
        return Graph.from_edges(t, [(i, (i + 1) % t) for i in range(t)])
    if name == "path":
        t = params["t"]
        return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])
    if name == "complete":
        t = params["t"]
        return Graph.from_edges(t, [(i, j) for i in range(t) for j in range(i + 1, t)])
    if name == "bipartite":
        a, b = params["a"], params["b"]
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if name == "multipartite":
        t = params["t"]
        edges = []
        for i in range(3 * t):
            for j in range(i + 1, 3 * t):
                if i // t != j // t:
                    edges.append((i, j))
        return Graph.from_edges(3 * t, edges)
    if name == "joined_cycles":
        t = params["t"]
        if t < 5:
            raise ValueError("joined cycles need t >= 5")
        edges = [(i, (i + 1) % t) for i in range(t)]
        edges += [(t + i, t + (i + 1) % t) for i in range(t)]
        edges += [(i, t + j) for i in range(t) for j in range(t) if i != j]
        return Graph.from_edges(2 * t, edges)
    raise ValueError(f"unknown example {name!r}")


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""


@dataclass
class VerificationReport:
    n: int
    edge_count: int
    kappa: int
    is_chordal: bool
    depth: int
    depth_symbolic_square: Optional[int]
    depth_square: Optional[int]
    bounds: Optional[BoundSet]
    checks: list[Check]
    field_characteristic: int
    timings: dict[str, float] = dc_field(default_factory=dict)

    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = asdict(self)
        timings = out.pop("timings")
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in timings.items()}
        return out

    def csv_row(self) -> str:
        return ",".join(str(x) for x in (
            self.n, self.edge_count, self.kappa, int(self.is_chordal), self.depth,
            "" if self.depth_symbolic_square is None else self.depth_symbolic_square,
            "" if self.depth_square is None else self.depth_square,
            self.field_characteristic, int(self.all_pass())))


CSV_HEADER = "n,edges,kappa,chordal,depth,depth_symbolic,depth_square,field,all_pass"


def _power_check(name: str, depth: int, lower: Optional[int]) -> Check:
    """Lower-bound check of a second power's depth (lower is None for a complete graph)."""
    if lower is None:
        return Check(name, "skipped", "complete graph")
    return Check(name, "pass" if depth >= lower else "fail", f"depth={depth} lower={lower}")


def verify_graph(g: Graph, field: FieldSpec = GF2, include_powers: bool = False, *,
                 allow_large: bool = False) -> VerificationReport:
    """Compute the invariants of one graph and evaluate every inequality."""
    if g.n < 2:
        raise ValueError("verification needs n >= 2")
    guard_subset_scan(g.n, allow_large)
    checks: list[Check] = []
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    conn = gr.vertex_connectivity(g)
    kappa = conn.kappa
    timings["kappa_flow"] = time.perf_counter() - t0

    if g.n <= gr.BRUTE_FORCE_LIMIT:
        brute = gr.vertex_connectivity_bruteforce(g)
        ok = brute.kappa == kappa
        checks.append(Check("kappa_flow_equals_bruteforce", "pass" if ok else "fail",
                            f"flow={kappa} brute={brute.kappa}"))
    else:
        checks.append(Check("kappa_flow_equals_bruteforce", "skipped", "skipped: size"))

    table = graph_betti_table(g, field, allow_large=allow_large)
    kb = kappa_from_table(table)
    checks.append(Check("kappa_betti_equals_graph", "pass" if kb == kappa else "fail",
                        f"betti={kb} graph={kappa}"))

    chordal, _ = gr.is_chordal(g)

    t0 = time.perf_counter()
    depth = graph_depth(g, field, allow_large=allow_large).depth
    timings["depth"] = time.perf_counter() - t0

    complete = g.is_complete()
    bset = None if complete else bounds(g.n, kappa)

    checks.append(Check("depth_le_kappa_plus_1", "pass" if depth <= kappa + 1 else "fail",
                        f"depth={depth} kappa={kappa}"))

    if complete:
        checks.append(Check("depth_lower_bound", "skipped", "complete graph"))
    else:
        ok = depth >= bset.lower_depth
        checks.append(Check("depth_lower_bound", "pass" if ok else "fail",
                            f"depth={depth} lower={bset.lower_depth}"))

    if chordal:
        ok = depth == kappa + 1
        checks.append(Check("chordal_equality", "pass" if ok else "fail",
                            f"depth={depth} kappa={kappa}"))
    else:
        checks.append(Check("chordal_equality", "skipped", "not chordal"))

    if depth == 2 and not complete:
        ok = kappa <= bset.depth2_kappa_cap
        checks.append(Check("depth2_kappa_cap", "pass" if ok else "fail",
                            f"kappa={kappa} cap={bset.depth2_kappa_cap}"))
    else:
        checks.append(Check("depth2_kappa_cap", "skipped", "depth != 2"))

    expect = g.complement().num_edges()
    got = table[(1, 2)]
    checks.append(Check("beta12_equals_complement_edges", "pass" if got == expect else "fail",
                        f"beta(1,2)={got} edges(G^c)={expect}"))
    pd_table = table.projective_dimension()
    ok = pd_table == g.n - depth
    checks.append(Check("table_depth_consistent", "pass" if ok else "fail",
                        f"pd(table)={pd_table} pd(scan)={g.n - depth}"))

    depth_symbolic = depth_square = None
    if include_powers:
        t0 = time.perf_counter()
        try:
            depth_symbolic, depth_square = second_power_depths(g, field, allow_large=allow_large)
        except GuardError as exc:
            skip = f"skipped: size ({exc})"
            checks.append(Check("symbolic_square_lower_bound", "skipped", skip))
            checks.append(Check("square_lower_bound", "skipped", skip))
        else:
            checks.append(_power_check("symbolic_square_lower_bound", depth_symbolic,
                                       None if complete else bset.lower_symbolic))
            checks.append(_power_check("square_lower_bound", depth_square,
                                       None if complete else bset.lower_square))
        timings["powers"] = time.perf_counter() - t0

    return VerificationReport(
        n=g.n, edge_count=g.num_edges(), kappa=kappa, is_chordal=chordal, depth=depth,
        depth_symbolic_square=depth_symbolic, depth_square=depth_square, bounds=bset,
        checks=checks, field_characteristic=field.characteristic, timings=timings)


class FuzzFailure(AssertionError):
    """A fuzzed graph violated a guaranteed inequality."""

    def __init__(self, graph: Graph, report: VerificationReport):
        self.graph = graph
        self.report = report
        failed = [c.name for c in report.checks if c.status == "fail"]
        super().__init__(
            f"checks failed: {failed}; offending graph:\n{gr.format_edge_list(graph)}")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_chordal_graph(rng: random.Random, n: int) -> Graph:
    """Connected chordal graph by attaching each vertex to a clique subset.

    The reverse insertion order is a perfect elimination ordering by
    construction.
    """
    edges: list[tuple[int, int]] = []
    cliques: list[list[int]] = [[0]]
    for v in range(1, n):
        base = rng.choice(cliques)
        size = rng.randint(1, len(base))
        attach = sorted(rng.sample(base, size))
        edges.extend((u, v) for u in attach)
        cliques.append(attach + [v])
    return Graph.from_edges(n, edges)


def fuzz_campaign(n_max: int, count: int, seed: int, profile: str = "all",
                  field: FieldSpec = GF2) -> list[VerificationReport]:
    """Seeded stream of random graphs, all fully verified.

    Raises FuzzFailure at the first graph with a failing check.
    """
    limits = {"all": FUZZ_N_LIMIT_ALL, "powers": FUZZ_N_LIMIT_POWERS,
              "chordal": FUZZ_N_LIMIT_CHORDAL}
    if profile not in limits:
        raise ValueError(f"unknown profile {profile!r}")
    if n_max > limits[profile]:
        raise GuardError(f"profile {profile} limited to n <= {limits[profile]}")
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        if profile == "chordal":
            g = random_chordal_graph(rng, n)
        else:
            g = random_graph(rng, n, rng.choice(EDGE_PROBABILITIES))
        report = verify_graph(g, field, include_powers=(profile == "powers"))
        if not report.all_pass():
            raise FuzzFailure(g, report)
        reports.append(report)
    return reports


@dataclass
class SearchResult:
    """Realized (kappa, example) pairs with depth exactly 2 on n vertices."""

    n: int
    cap: int
    realized: dict[int, list[tuple[int, int]]]  # kappa -> 0-based edge list
    max_kappa: Optional[int]
    cap_attained: bool
    over_cap: list[int]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cap": self.cap,
            "realized": {str(k): [[u + 1, v + 1] for u, v in e]
                         for k, e in sorted(self.realized.items())},
            "max_kappa": self.max_kappa,
            "cap_attained": self.cap_attained,
            "over_cap": self.over_cap,
        }


def _search_candidates(n: int, budget: int, rng: random.Random) -> list[Graph]:
    cands: list[Graph] = []
    if n >= 3:
        cands.append(construct_example("cycle", t=n))
    for a in range(1, n // 2 + 1):
        b = n - a
        base = construct_example("bipartite", a=a, b=b)
        cands.append(base)
        # peel edges at one hub vertex to walk kappa downward
        for removed in range(1, b):
            keep = [(u, v) for u, v in base.edges() if not (u == 0 and v >= a + removed)]
            cands.append(Graph.from_edges(n, keep))
    if n % 2 == 0 and n // 2 >= 5:
        cands.append(construct_example("joined_cycles", t=n // 2))
    for _ in range(budget):
        cands.append(random_graph(rng, n, rng.choice(EDGE_PROBABILITIES)))
    return cands


def search_depth2(n: int, budget: int, seed: int, field: FieldSpec = GF2) -> SearchResult:
    """Record every realized kappa among graphs on n vertices with depth 2."""
    if n > SEARCH_N_LIMIT:
        raise GuardError(f"depth-2 search limited to n <= {SEARCH_N_LIMIT}")
    rng = random.Random(seed)
    cap = (2 * n - 2) // 3
    realized: dict[int, list[tuple[int, int]]] = {}
    seen: set[frozenset] = set()
    for g in _search_candidates(n, budget, rng):
        key = frozenset(g.edges())
        if key in seen:
            continue
        seen.add(key)
        if g.is_complete() or g.n < 2:
            continue
        depth = graph_depth(g, field).depth
        if depth != 2:
            continue
        kappa = gr.vertex_connectivity(g).kappa
        if kappa not in realized:
            realized[kappa] = g.edges()
    kappas = sorted(realized)
    return SearchResult(
        n=n, cap=cap, realized=realized,
        max_kappa=kappas[-1] if kappas else None,
        cap_attained=bool(kappas) and kappas[-1] >= cap,
        over_cap=[k for k in kappas if k > cap])
