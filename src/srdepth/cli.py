"""Command-line surface: one verb per capability.

Subcommands: depth, betti, kappa, powers, verify (alias example), fuzz,
search-depth2, ideal-depth.  Exit status 0 on success, 1 when a verification
check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shutil
import sys
from pathlib import Path
from typing import Callable, Optional

from . import graphs as gr
from . import monomials as mono
from . import verify as ver
from .betti import (depth_monomial_quotient, graph_betti_table, graph_depth, guard_parsed_ideal,
                    guard_subset_scan, kappa_via_betti, second_power_depths)
from .complexes import guard_clique_complex
from .graphs import Graph
from .homology import FieldSpec

_EXAMPLE_RE = re.compile(r"^(c|p|k|jc)(\d+(?:,\d+)*)$")
_FAMILIES = {"c": "cycle", "p": "path", "k": "complete", "jc": "joined_cycles"}


def resolve_example(name: str, check: Callable[[int], None] = lambda n: None) -> Graph:
    """Names: figure1, cN (cycle), pN (path), kN (complete), kA,B
    (bipartite), kT,T,T (tripartite), jcT (joined cycles).  check(n) runs on
    the vertex count the name gives before the graph is built."""
    low = name.lower()
    m = _EXAMPLE_RE.match(low)
    kind, nums = (m.group(1), [int(x) for x in m.group(2).split(",")]) if m else ("", [])
    if low in ("figure1", "fig1"):
        n, family, params = 6, "figure1", {}
    elif len(nums) == 1:
        n, family, params = nums[0] * (2 if kind == "jc" else 1), _FAMILIES[kind], {"t": nums[0]}
    elif kind == "k" and len(nums) == 2:
        n, family, params = sum(nums), "bipartite", {"a": nums[0], "b": nums[1]}
    elif kind == "k" and len(nums) == 3 and len(set(nums)) == 1:
        n, family, params = 3 * nums[0], "multipartite", {"t": nums[0]}
    else:
        raise ValueError(f"unknown example name {name!r}")
    check(n)
    return ver.construct_example(family, **params)


def load_graph(args: argparse.Namespace) -> Graph:
    """The --name or --input graph; the guards on n run on its declared vertex count before it is built."""
    def guard(n: int) -> None:
        guard_subset_scan(n, args.allow_large)
        guard_clique_complex(n)

    if args.name:
        return resolve_example(args.name, guard)
    if not args.input:
        raise ValueError("provide exactly one of --input or --name")
    path = Path(args.input)
    text = path.read_text()
    fmt = args.input_format
    if fmt == "auto":
        fmt = "graph6" if path.suffix in (".g6", ".graph6") else "edge-list"
    return gr.parse_graph(text, fmt, guard)


def field_of(args: argparse.Namespace) -> FieldSpec:
    return FieldSpec(args.field)


def overrides_of(args: argparse.Namespace) -> list[str]:
    return ["allow-large"] if getattr(args, "allow_large", False) else []


def _header(args: argparse.Namespace) -> str:
    over = overrides_of(args)
    return f"# guard overrides: {', '.join(over)}\n" if over else ""


def render_report(report: ver.VerificationReport, args: argparse.Namespace) -> str:
    if args.format == "json":
        payload = report.to_dict(include_timings=args.timings)
        if overrides_of(args):
            payload = {"guard_overrides": overrides_of(args), **payload}
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return _header(args) + ver.CSV_HEADER + "\n" + report.csv_row() + "\n"
    lines = []
    if overrides_of(args):
        lines.append(f"guard overrides: {', '.join(overrides_of(args))}")
    lines += [
        f"n = {report.n}, edges = {report.edge_count}, field = GF({report.field_characteristic})"
        if report.field_characteristic else
        f"n = {report.n}, edges = {report.edge_count}, field = QQ",
        f"kappa = {report.kappa}",
        f"chordal = {'yes' if report.is_chordal else 'no'}",
        f"depth = {report.depth}",
    ]
    if report.depth_symbolic_square is not None:
        lines.append(f"depth (symbolic square) = {report.depth_symbolic_square}")
    if report.depth_square is not None:
        lines.append(f"depth (square) = {report.depth_square}")
    if report.bounds is not None:
        b = report.bounds
        lines.append(f"bounds: upper = {b.upper}, lower depth/symbolic/square = "
                     f"{b.lower_depth}/{b.lower_symbolic}/{b.lower_square}, "
                     f"depth-2 kappa cap = {b.depth2_kappa_cap}")
    for c in report.checks:
        suffix = f" ({c.detail})" if c.detail else ""
        lines.append(f"check {c.name}: {c.status}{suffix}")
    return "\n".join(lines) + "\n"


def cmd_depth(args: argparse.Namespace) -> int:
    g = load_graph(args)
    r = graph_depth(g, field_of(args), allow_large=args.allow_large)
    a, ell = r.witness
    face = [j + 1 for j in range(g.n) if a[j] < 0]
    if args.format == "json":
        print(json.dumps({"n": g.n, "depth": r.depth,
                          "projective_dimension": r.projective_dimension,
                          "witness_face": face,
                          "witness_degree": ell}, indent=2))
    else:
        sys.stdout.write(_header(args))
        print(f"depth = {r.depth}")
        print(f"projective dimension = {r.projective_dimension}")
        print(f"witness: F = {{{', '.join(map(str, face))}}}, degree = {ell} "
              "(reduced homology of lk F; depth = |F| + degree + 1)")
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    g = load_graph(args)
    table = graph_betti_table(g, field_of(args), allow_large=args.allow_large)
    if args.format == "json":
        payload = {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_header(args) + table.to_csv())
    else:
        sys.stdout.write(_header(args) + table.to_triangle())
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    g = load_graph(args)
    conn = gr.vertex_connectivity(g)
    kb = kappa_via_betti(g, field_of(args), allow_large=args.allow_large)
    witness = sorted(v + 1 for v in gr.bits(conn.witness)) if conn.witness is not None else None
    if args.format == "json":
        print(json.dumps({"kappa": conn.kappa, "kappa_via_betti": kb,
                          "separator": witness}, indent=2))
    else:
        sys.stdout.write(_header(args))
        print(f"kappa = {conn.kappa}")
        print(f"kappa via Betti vanishing = {kb}")
        print("separator = " + ("none (complete graph)" if witness is None else str(witness)))
    return 0 if conn.kappa == kb else 1


def cmd_powers(args: argparse.Namespace) -> int:
    g = load_graph(args)
    field = field_of(args)
    d2, d3 = second_power_depths(g, field, allow_large=args.allow_large)
    d1 = graph_depth(g, field, allow_large=args.allow_large).depth
    if args.format == "json":
        print(json.dumps({"depth": d1, "depth_symbolic_square": d2, "depth_square": d3}, indent=2))
    else:
        sys.stdout.write(_header(args))
        print(f"depth = {d1}")
        print(f"depth (symbolic square) = {d2}")
        print(f"depth (square) = {d3}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args)
    report = ver.verify_graph(g, field_of(args), include_powers=args.powers,
                              allow_large=args.allow_large)
    sys.stdout.write(render_report(report, args))
    return 0 if report.all_pass() else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        reports = ver.fuzz_campaign(args.n, args.count, args.seed, args.profile,
                                    field_of(args))
    except ver.FuzzFailure as exc:
        print(str(exc), file=sys.stderr)
        sys.stdout.write(render_report(exc.report, args))
        return 1
    if args.format == "json":
        print(json.dumps([r.to_dict(include_timings=args.timings) for r in reports], indent=2))
    elif args.format == "csv":
        print(ver.CSV_HEADER)
        for r in reports:
            print(r.csv_row())
    else:
        print(f"{len(reports)} graphs verified, all checks passing")
    return 0


def cmd_search_depth2(args: argparse.Namespace) -> int:
    result = ver.search_depth2(args.n, args.budget, args.seed, field_of(args))
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"n = {result.n}, depth-2 kappa cap = {result.cap}")
        for k in sorted(result.realized):
            edges = " ".join(f"{u + 1}-{v + 1}" for u, v in result.realized[k])
            print(f"kappa = {k}: {edges}")
        print(f"max kappa found = {result.max_kappa}, cap attained = {result.cap_attained}")
        if result.over_cap:
            print(f"OVER CAP (theorem violation!): {result.over_cap}")
    return 1 if result.over_cap else 0


def cmd_ideal_depth(args: argparse.Namespace) -> int:
    text = Path(args.ideal).read_text()
    ideal = mono.parse_ideal(text, args.nvars,
                             lambda n, gens: guard_parsed_ideal(n, gens, args.allow_large))
    r = depth_monomial_quotient(ideal, field_of(args), allow_large=args.allow_large)
    if args.format == "json":
        print(json.dumps({"num_vars": ideal.num_vars, "depth": r.depth,
                          "projective_dimension": r.projective_dimension}, indent=2))
    else:
        sys.stdout.write(_header(args))
        print(f"ring has {ideal.num_vars} variables")
        print(f"depth = {r.depth}")
        print(f"projective dimension = {r.projective_dimension}")
    return 0


def int_at_least(low: int, name: str = "int"):
    """argparse type for an integer flag with a lower bound; usage errors
    call a non-integer an invalid ``name`` value."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = name
    return parse


def _verb(sub, name: str, func, help: str, formats: tuple[str, ...], *,
          graph: bool = True, allow_large: bool = True, aliases: tuple[str, ...] = ()
          ) -> argparse.ArgumentParser:
    """One subcommand with the options every handler reads, plus those its
    arguments switch on: a graph source, and the size-guard override."""
    p = sub.add_parser(name, help=help, aliases=list(aliases))
    p.set_defaults(func=func)
    p.add_argument("--field", type=int, default=2,
                   help="coefficient field characteristic: a prime, or 0 for exact rationals")
    p.add_argument("--format", choices=formats, default="text")
    if allow_large:
        p.add_argument("--allow-large", action="store_true",
                       help="override size guards (echoed in the output header)")
    if graph:
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="graph file (edge list, or graph6 with .g6 suffix)")
        source.add_argument("--name", help="built-in example name, e.g. c6, figure1, k5,5, jc5")
        p.add_argument("--input-format", choices=("auto", "edge-list", "graph6"), default="auto")
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built anew on every call.  argparse makes a
    HelpFormatter for every option it adds, and each one reads the terminal
    size; here it is read once, and every parser formats at that width, as
    HelpFormatter's own default does."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="sr-depth", formatter_class=formatter,
                                     description="Exact depth/connectivity invariants of "
                                                 "clique complexes and edge ideals")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter))
    text_json, with_csv = ("text", "json"), ("text", "json", "csv")
    timings_help = "include timings in JSON reports"

    _verb(sub, "depth", cmd_depth, "depth of the clique-complex quotient ring", text_json)
    _verb(sub, "betti", cmd_betti, "graded Betti table", with_csv)
    _verb(sub, "kappa", cmd_kappa, "vertex connectivity, two ways", text_json)
    _verb(sub, "powers", cmd_powers, "depths of the square and symbolic square", text_json)

    p = _verb(sub, "verify", cmd_verify, "verify every inequality on one graph", with_csv,
              aliases=("example",))
    p.add_argument("--jobs", type=int_at_least(1, "positive_int"), default=1,
                   help="accepted for N >= 1 and changes nothing: verify checks one graph in one process")
    p.add_argument("--timings", action="store_true", help=timings_help)
    p.add_argument("--powers", action="store_true", help="include second-power depth checks")

    p = _verb(sub, "fuzz", cmd_fuzz, "seeded random verification campaign", with_csv,
              graph=False, allow_large=False)
    p.add_argument("--timings", action="store_true", help=timings_help)
    p.add_argument("--n", type=int_at_least(2), required=True, help="maximum vertex count")
    p.add_argument("--count", type=int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=("all", "chordal", "powers"), default="all")

    p = _verb(sub, "search-depth2", cmd_search_depth2, "depth-2 kappa frontier search", text_json,
              graph=False, allow_large=False)
    p.add_argument("--n", type=int_at_least(2), required=True)
    p.add_argument("--budget", type=int_at_least(0), default=200, help="number of random graphs to try")
    p.add_argument("--seed", type=int, default=0)

    p = _verb(sub, "ideal-depth", cmd_ideal_depth, "depth of a monomial quotient from an ideal file",
              text_json, graph=False)
    p.add_argument("--ideal", required=True, help="file with one generator per line, e.g. x1^2*x3")
    p.add_argument("--nvars", type=int_at_least(0), default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and GuardError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
