"""Output checks for benchmark operations, run untimed after the calls.

Two kinds of check:

* invariants that hold for every seed and need no recording: every
  ``verify`` check passes; beta_{0,0} = 1, beta_{1,2} = |E(G^c)|, the
  Hilbert-series identity and pd = n - graph_depth for Betti tables; the
  depth bounds of the paper for ``powers``, and equal square and
  symbolic-square depths when G^c is triangle-free;
* for the default seed, equality with the answers recorded in
  ``answers.json`` (depth and kappa; the three power depths; full tables).

A check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path
from typing import Optional

from srdepth.betti import graph_depth
from srdepth.graphs import Graph
from srdepth.homology import FieldSpec

from workloads import Input

ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"


def _adjacency(inp: Input) -> list[int]:
    adj = [0] * inp.n
    for u, v in inp.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def clique_counts(inp: Input) -> list[int]:
    """f[k] = number of k-vertex cliques, f[0] = 1 for the empty face."""
    adj = _adjacency(inp)
    counts = [1]

    def grow(size: int, cand: int) -> None:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            grow(size + 1, cand & adj[v])

    grow(0, (1 << inp.n) - 1)
    return counts


def _connected(adj: list[int], keep: int) -> bool:
    start = keep & -keep
    seen, frontier = start, start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & keep & ~seen
        seen |= new
        frontier |= new
    return seen == keep


def _complement(inp: Input) -> tuple[tuple[int, int], ...]:
    present = set(inp.edges)
    return tuple((u, v) for u in range(inp.n) for v in range(u + 1, inp.n) if (u, v) not in present)


def kappa_bruteforce(inp: Input) -> int:
    """Smallest vertex cut, or n - 1 for a complete graph; for small n."""
    adj = _adjacency(inp)
    full = (1 << inp.n) - 1
    for k in range(inp.n - 1):
        for cut in range(full + 1):
            if cut.bit_count() == k and not _connected(adj, full & ~cut):
                return k
    return inp.n - 1


def answer_of(workload: str, data) -> object:
    """The part of an output that ``answers.json`` records."""
    if workload == "verify":
        return [data["depth"], data["kappa"]]
    if workload == "powers":
        return [data["depth"], data["depth_symbolic_square"], data["depth_square"]]
    return data


def _check_verify(inp: Input, data: dict) -> Optional[str]:
    if (data["n"], data["edge_count"]) != (inp.n, len(inp.edges)):
        return f"size {data['n']}/{data['edge_count']} for n={inp.n} m={len(inp.edges)}"
    failed = [c["name"] for c in data["checks"] if c["status"] not in ("pass", "skipped")]
    if failed or not data["checks"]:
        return f"verify checks failed: {failed or 'none reported'}"
    if not 1 <= data["depth"] <= len(clique_counts(inp)) - 1:
        return f"depth {data['depth']} outside [1, clique number]"
    return None


def _check_powers(inp: Input, data: dict) -> Optional[str]:
    n = inp.n
    d, ds, dq = data["depth"], data["depth_symbolic_square"], data["depth_square"]
    if len(inp.edges) == n * (n - 1) // 2:
        return None if (d, ds, dq) == (n, n, n) else f"complete graph depths {d},{ds},{dq}"
    k = kappa_bruteforce(inp)
    base = -(-k // (2 * (n - k - 1)))
    if not base + 1 <= d <= min(k + 1, len(clique_counts(inp)) - 1):
        return f"depth {d} outside [{base + 1}, min(kappa+1, clique number)], kappa={k}"
    if not max(base, 1) <= ds <= n:
        return f"symbolic-square depth {ds} below {max(base, 1)}"
    if not max(base - 1, 0) <= dq <= n:
        return f"square depth {dq} below {max(base - 1, 0)}"
    # I^(2) = I^2 for the edge ideal of a triangle-free graph, here G^c.
    triangle_free = len(clique_counts(Input(0, "G^c", n, _complement(inp), 2))) <= 3
    if triangle_free and ds != dq:
        return f"G^c is triangle-free, yet symbolic-square depth {ds} != square depth {dq}"
    return None


def _check_betti(inp: Input, data: dict) -> Optional[str]:
    n = inp.n
    table = {tuple(int(x) for x in key.split(",")): v for key, v in data.items()}
    if any(not isinstance(v, int) or v <= 0 for v in table.values()):
        return "non-positive Betti number"
    if table.get((0, 0)) != 1:
        return f"beta(0,0) = {table.get((0, 0))}"
    complement_edges = n * (n - 1) // 2 - len(inp.edges)
    if table.get((1, 2), 0) != complement_edges:
        return f"beta(1,2) = {table.get((1, 2), 0)}, |E(G^c)| = {complement_edges}"
    # Hilbert series: sum_ij (-1)^i beta_ij t^j = sum_F t^|F| (1-t)^(n-|F|).
    f = clique_counts(inp)
    for j in range(n + 1):
        lhs = sum((-1) ** i * v for (i, jj), v in table.items() if jj == j)
        rhs = sum(f[k] * (-1) ** (j - k) * comb(n - k, j - k) for k in range(min(j, len(f) - 1) + 1))
        if lhs != rhs:
            return f"Hilbert series coefficient t^{j}: table {lhs}, faces {rhs}"
    pd = max(i for i, _ in table)
    depth = graph_depth(Graph.from_edges(n, inp.edges), FieldSpec(inp.field)).depth
    if pd != n - depth:
        return f"pd(table) = {pd}, n - graph_depth = {n - depth}"
    return None


_CHECKS = {"verify": _check_verify, "powers": _check_powers, "betti_table": _check_betti}


def check(workload: str, inp: Input, rc: int, out: str, recorded=None) -> Optional[str]:
    """Reason the output of one operation is wrong, or None."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        data = json.loads(out)
        reason = _CHECKS[workload](inp, data)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    if reason is None and recorded is not None and answer_of(workload, data) != recorded:
        reason = f"answer {answer_of(workload, data)} differs from recorded {recorded}"
    return reason


def load_recorded(workload: str, seed: int, inputs_sha256: str) -> Optional[list]:
    """Recorded answers for this pool, None when the seed has none.

    Raises ValueError when answers exist for the seed but were recorded for
    other inputs, so a changed generator cannot pass silently.
    """
    saved = json.loads(ANSWERS_PATH.read_text())
    if saved["seed"] != seed:
        return None
    entry = saved["workloads"][workload]
    if entry["inputs_sha256"] != inputs_sha256:
        raise ValueError(f"{ANSWERS_PATH.name} was recorded for other {workload} inputs")
    return entry["answers"]
