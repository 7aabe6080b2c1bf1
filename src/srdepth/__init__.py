"""Exact invariants of clique complexes and edge ideals: graded Betti
tables, depth, vertex connectivity, second powers, and a verification CLI.

The package holds what the ``sr-depth`` CLI runs, plus the Stanley-Reisner,
polarization and second-power generator routes that the benchmark's tracer
names; oracles that only the tests use, the edge-ideal builder among them,
live in ``tests/helpers.py``.
"""

from .graphs import (
    ConnectivityResult,
    Graph,
    GuardError,
    ParseError,
    is_chordal,
    parse_graph,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from .complexes import (
    SimplicialComplex,
    clique_complex,
    complex_from_squarefree_ideal,
    stanley_reisner_ideal,
)
from .homology import GF2, GF3, RATIONAL, FieldSpec
from .betti import (
    BettiTable,
    DepthResult,
    depth_monomial_quotient,
    depth_stanley_reisner,
    graded_betti_table,
    graph_depth,
    kappa_via_betti,
    second_power_depths,
)
from .monomials import (
    MonomialIdeal,
    Polarization,
    minimalize,
    parse_ideal,
    polarize,
    power,
    product,
    symbolic_power,
)
from .verify import (
    BoundSet,
    FuzzFailure,
    SearchResult,
    VerificationReport,
    bounds,
    construct_example,
    fuzz_campaign,
    search_depth2,
    verify_graph,
)

__version__ = "0.1.0"
