"""Ramsey numbers of matchings, verified exhaustively at desk scale.

The library computes maximum matchings and Gallai-Edmonds decompositions,
builds the Cockayne-Lorimer critical colorings, certifies the block structure
of free colorings at the extremal order, enumerates colorings of small
complete graphs up to symmetry, and verifies the Ramsey and star-critical
values for matchings by exhaustive search.
"""

from .coloring import (
    ColorLedger,
    EdgeColoring,
    MatchParams,
    ProofLedger,
    StructureWitness,
    check_structure,
    color_class,
    coloring_from_map,
    construct_critical,
    contract_partition,
    critical_parts,
    find_monochromatic_matching,
    find_structure,
    is_free,
    lift_matching,
    matching_profile,
    proof_ledger,
)
from .gallai_edmonds import (
    GEDecomposition,
    VerificationReport,
    decompose,
    matching_number_from_decomposition,
    verify_decomposition,
)
from .graph import (
    Graph,
    complete_graph,
    connected_components,
    graph_from_edges,
    induced_subgraph,
    is_connected,
)
from .matching import (
    Matching,
    brute_force_matching_number,
    has_matching_of_size,
    is_factor_critical,
    is_valid_matching,
    matching_number,
    maximum_matching,
)
from .search import (
    SearchReport,
    enumerate_colorings,
    enumerate_critical,
    enumerate_graphs,
    free_coloring_classes,
    ramsey_value,
    verify_ramsey_exhaustive,
)
from .star import (
    StarReport,
    construct_star_free,
    star_critical_value,
    verify_star_exhaustive,
)

__all__ = [
    "ColorLedger",
    "EdgeColoring",
    "GEDecomposition",
    "Graph",
    "MatchParams",
    "Matching",
    "ProofLedger",
    "SearchReport",
    "StarReport",
    "StructureWitness",
    "VerificationReport",
    "brute_force_matching_number",
    "check_structure",
    "color_class",
    "coloring_from_map",
    "complete_graph",
    "connected_components",
    "construct_critical",
    "construct_star_free",
    "contract_partition",
    "critical_parts",
    "decompose",
    "enumerate_colorings",
    "enumerate_critical",
    "enumerate_graphs",
    "find_monochromatic_matching",
    "find_structure",
    "free_coloring_classes",
    "graph_from_edges",
    "has_matching_of_size",
    "induced_subgraph",
    "is_connected",
    "is_factor_critical",
    "is_free",
    "is_valid_matching",
    "lift_matching",
    "matching_number",
    "matching_number_from_decomposition",
    "matching_profile",
    "maximum_matching",
    "proof_ledger",
    "ramsey_value",
    "star_critical_value",
    "verify_decomposition",
    "verify_ramsey_exhaustive",
    "verify_star_exhaustive",
]

__version__ = "0.1.0"
