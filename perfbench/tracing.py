"""Spans around calls into srdepth's public functions, from outside the
program.

``Tracer.install`` replaces each traced function at every ``srdepth.*``
module binding that refers to it (``betti`` imports ``betti_from_sizes`` and
``boundary_rank`` by name, ``cli`` reaches ``verify_graph`` through the
module), and ``uninstall`` puts the originals back.  Spans (name, start, end,
parent, operation id) stay in memory in flat arrays and are written out at
the end.  Self time is a span's duration minus the part of it that its
child spans cover; counts come from arguments and return values.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Sequence

# Public functions traced, by module.  cli.main is the root of every
# operation, so module self times add up to the operation time.
TARGETS = {
    "cli": ("main",),
    "graphs": ("parse_graph", "vertex_connectivity", "vertex_connectivity_bruteforce"),
    "complexes": ("clique_complex", "stanley_reisner_ideal", "complex_from_squarefree_ideal"),
    "homology": ("betti_from_sizes", "boundary_rank", "boundary_columns", "rank_gf2", "rank_sparse"),
    "betti": ("graded_betti_table", "graph_depth", "depth_stanley_reisner",
              "depth_monomial_quotient", "kappa_via_betti"),
    "monomials": ("polarize", "power", "symbolic_power"),
    "verify": ("verify_graph",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Counts taken from each call: name -> (traced function, value of one call).
COUNTS: dict[str, tuple[str, Callable]] = {
    "homology.boundary_rank.columns": ("homology.boundary_rank", lambda args, result: len(args[0])),
    "homology.betti_from_sizes.nonzero": ("homology.betti_from_sizes", lambda args, result: bool(result)),
    "monomials.polarize.vars": ("monomials.polarize", lambda args, result: result.ideal.num_vars),
}

# Past this many spans the traced pass stops early (25 bytes per span).
MAX_SPANS = 2_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(FUNCTIONS)
        self.name_id = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name in COUNTS}
        self.current_op = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, nid: int, fn: Callable, counters: list[tuple[str, Callable]]) -> Callable:
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for key, value in counters:
                counts[key] += value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "srdepth" or name.startswith("srdepth."))]
        for nid, qualname in enumerate(FUNCTIONS):
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"srdepth.{mod_name}"], fn_name)
            counters = [(key, value) for key, (target, value) in COUNTS.items() if target == qualname]
            wrapper = self._wrap(nid, original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name_id", self.name_id), ("parent", self.parent), ("op", self.op),
                   ("start", self.start), ("end", self.end)]
        header = {"names": self.names, "count": len(self),
                  "columns": [[name, col.typecode, col.itemsize] for name, col in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)


def read_spans(path: Path) -> list[tuple[str, float, float, int, int]]:
    """Inverse of ``Tracer.write``: (name, start, end, parent, op) tuples."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, typecode, _ in header["columns"]:
            cols[name] = array(typecode)
            cols[name].fromfile(fh, header["count"])
    names = header["names"]
    return [(names[cols["name_id"][i]], cols["start"][i], cols["end"][i],
             cols["parent"][i], cols["op"][i]) for i in range(header["count"])]


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> array:
    """Duration of each span minus the time its children cover.

    Spans are indexed in start order (as a tracer appends them), so each
    parent precedes its children and siblings arrive by start time.  A
    child's interval is clipped to its parent, and overlap between siblings
    is counted once.
    """
    count = len(starts)
    covered = array("d", [0.0]) * count
    reach = array("d", [float("-inf")]) * count  # end of each parent's covered part so far
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    for i in range(count):
        covered[i] = ends[i] - starts[i] - covered[i]
    return covered


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation calls and self milliseconds of each function and module,
    plus the counts; every value is a mean over ``ops`` operations."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    for nid, s in zip(tracer.name_id, selfs):
        calls[nid] += 1
        self_s[nid] += s
    out: dict[str, float] = {}
    modules: dict[str, float] = {mod: 0.0 for mod in TARGETS}
    for nid, qualname in enumerate(tracer.names):
        out[f"{qualname}.calls"] = calls[nid] / ops
        out[f"{qualname}.self_ms"] = self_s[nid] * 1e3 / ops
        modules[qualname.split(".")[0]] += self_s[nid] * 1e3 / ops
    for mod, ms in modules.items():
        out[f"{mod}.self_ms"] = ms
    calls_of = {qualname: calls[nid] for nid, qualname in enumerate(tracer.names)}
    out["homology.boundary_rank.columns"] = tracer.counts["homology.boundary_rank.columns"] / ops
    nonzero = tracer.counts["homology.betti_from_sizes.nonzero"]
    out["homology.betti_from_sizes.nonzero_frac"] = nonzero / max(calls_of["homology.betti_from_sizes"], 1)
    out["monomials.polarize.vars"] = (tracer.counts["monomials.polarize.vars"]
                                      / max(calls_of["monomials.polarize"], 1))
    out["trace.self_ms"] = sum(modules.values())
    return out



UNITS = {
    "homology.boundary_rank.columns": "columns/op",
    "homology.betti_from_sizes.nonzero_frac": "fraction",
    "monomials.polarize.vars": "vars/call",
}


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("self_ms"):
        return "ms/op"
    return UNITS[name]
