"""Seeded inputs for the three benchmark workloads.

Every input is a graph file in the edge-list format the CLI reads (first
line n, then 1-based "u v" pairs).  The graphs are generated here, from the
seed alone, so the program under test receives nothing but the files.

Operations follow a fixed cycle of slots.  Each slot fixes the vertex count
n and the edge density p (and, for ``betti_table``, the field); the graph has
p * C(n, 2) edges, rounded, and the seed only draws which.  Every cycle has
the same mix of slots, which keeps the share of cheap and expensive
operations the same for every seed and every whole number of cycles; fixing
the edge count, not just its mean, narrows the cost spread within a slot.
Both keep the latency quantiles of a heavy-tailed workload steady from seed
to seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

# The fuzz campaign's edge probabilities, srdepth.verify.EDGE_PROBABILITIES.
EDGE_PROBABILITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

DEFAULT_SEED = 0

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # inputs, span files and the run log; never committed


@dataclass(frozen=True)
class Spec:
    """One workload: CLI verb, vertex counts per cycle and pool size."""

    verb: str
    sizes: tuple[int, ...]  # vertex counts, one per slot of a cycle row
    named: tuple[str, ...]  # named graphs appended to every cycle
    pool: int  # graphs generated per run, whole cycles; more than a run uses at this commit


WORKLOADS = {
    "verify": Spec("verify", (10, 11, 12), ("figure1", "c6", "k5,5", "jc5"), 1000),
    # n = 4 twice per row: the cost of a powers operation grows about
    # 4-fold per non-universal vertex, and with equal shares the median
    # sat on the gap between the ~10 ms and ~40 ms groups.
    "powers": Spec("powers", (4, 4, 5, 6), (), 1176),
    "betti_table": Spec("betti", (11, 12, 13), (), 420),
}


@dataclass(frozen=True)
class Input:
    """One generated graph and the CLI arguments that run it."""

    index: int
    label: str  # "random n=.. p=.." or the graph's name
    n: int
    edges: tuple[tuple[int, int], ...]  # 0-based, u < v
    field: int

    def text(self) -> str:
        return f"{self.n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in self.edges)

    def filename(self) -> str:
        return f"g{self.index:05d}.txt"


def named_graph(name: str) -> tuple[int, list[tuple[int, int]]]:
    """The CLI's built-in graphs figure1, cN, kA,B and jcT, built here."""
    if name == "figure1":
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 4),
                 (4, 6), (2, 6), (3, 5), (1, 5), (1, 3), (1, 4)]
        return 6, [(u - 1, v - 1) for u, v in pairs]
    if name.startswith("jc"):
        t = int(name[2:])
        edges = [(i, (i + 1) % t) for i in range(t)]
        edges += [(t + i, t + (i + 1) % t) for i in range(t)]
        edges += [(i, t + j) for i in range(t) for j in range(t) if i != j]
        return 2 * t, edges
    if name.startswith("c"):
        t = int(name[1:])
        return t, [(i, (i + 1) % t) for i in range(t)]
    if name.startswith("k") and "," in name:
        a, b = (int(x) for x in name[1:].split(","))
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    raise ValueError(f"unknown named graph {name!r}")


def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def slot_count(spec: Spec) -> int:
    return len(spec.sizes) * len(EDGE_PROBABILITIES) + len(spec.named)


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's pool of inputs, a pure function of (workload, seed).

    Slot s of a cycle: the first len(sizes) * 7 slots are random graphs
    with n = sizes[s % len(sizes)] and p = EDGE_PROBABILITIES[s // len(sizes)],
    then the named graphs.  ``betti_table`` runs GF(3) on one (n, p) slot in
    three, on a diagonal, so that every n and every p meet GF(3).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    per_cycle = slot_count(spec)
    k = len(spec.sizes)
    out = []
    for index in range(spec.pool):
        s = index % per_cycle
        if s < k * len(EDGE_PROBABILITIES):
            n, p = spec.sizes[s % k], EDGE_PROBABILITIES[s // k]
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, round(p * len(pairs)))
            label = f"random n={n} p={p}"
        else:
            label = spec.named[s - k * len(EDGE_PROBABILITIES)]
            n, edges = named_graph(label)
        field = 2
        if workload == "betti_table" and (s // k + s % k) % 3 == 2:
            field = 3
        out.append(Input(index, label, n, _norm(edges), field))
    return out


def argv_for(workload: str, inp: Input, directory: Path) -> list[str]:
    argv = [WORKLOADS[workload].verb, "--input", str(directory / inp.filename()),
            "--format", "json"]
    if workload == "betti_table":
        argv += ["--field", str(inp.field)]
    return argv


def write_inputs(inputs: list[Input], directory: Path) -> None:
    """Write the pool, leaving files that already hold the right graph.

    Set-up time is measured over several fresh interpreters in a row; after
    the first, the files are in place, and skipping the rewrite keeps the
    shared disk's write latency, which is not the program's, out of it.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for inp in inputs:
        path, text = directory / inp.filename(), inp.text()
        try:
            if path.read_text() == text:
                continue
        except FileNotFoundError:
            pass
        path.write_text(text)


def digest(inputs: list[Input]) -> str:
    """Fingerprint of a pool, stored next to recorded answers."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(f"{inp.field}|{inp.text()}".encode())
    return h.hexdigest()
