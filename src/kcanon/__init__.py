"""Kirchhoff resistor-network signatures for graph symmetry detection,
isomorphism screening, and canonical labeling."""

from .graph import Graph, load_graph, parse_edge_list, parse_json, relabel
from .solver import (
    LaplacianSystem,
    PairCurrents,
    VoltageProfile,
    build_system,
    effective_resistance,
    pair_currents,
    solve_pair,
    solve_pair_pseudoinverse,
    solve_pair_universal_sink,
)
from .signatures import (
    CanonicalLabeling,
    Fingerprint,
    IsoVerdict,
    OrbitPartition,
    canonical_labeling,
    fingerprint,
    iso_screen,
    orbit_partition,
)

__all__ = [
    "Graph",
    "load_graph",
    "parse_edge_list",
    "parse_json",
    "relabel",
    "LaplacianSystem",
    "PairCurrents",
    "VoltageProfile",
    "build_system",
    "effective_resistance",
    "pair_currents",
    "solve_pair",
    "solve_pair_pseudoinverse",
    "solve_pair_universal_sink",
    "CanonicalLabeling",
    "Fingerprint",
    "IsoVerdict",
    "OrbitPartition",
    "canonical_labeling",
    "fingerprint",
    "iso_screen",
    "orbit_partition",
]

__version__ = "0.1.0"
