"""Spectral radius ratio tracking for evolving networks.

The ratio of the adjacency spectral radius to the mean degree, together with
the coefficient of variation of the degree sequence, measured while a network
grows by preferential attachment or is rewired from a regular lattice.
"""

from .ba import BAConfig, ba_evolve
from .errors import EdgeListParseError, GraphError, NetspectraError, NotConvergedError
from .experiment import SweepRow, run_ba_condition, run_sweep, run_ws_condition
from .graph import DegreeStats, Graph, degree_stats, parse_edge_list, write_edge_list
from .metrics import (
    AveragedSummary,
    EvolutionRecord,
    pearson,
    snapshot,
)
from .spectral import (
    PowerIterationConfig,
    SpectralResult,
    power_iteration,
    spectral_radius_ratio,
)
from .ws import RewireEvent, WSConfig, ws_evolve, ws_rewire

__version__ = "0.1.0"

__all__ = [
    "AveragedSummary",
    "BAConfig",
    "DegreeStats",
    "EdgeListParseError",
    "EvolutionRecord",
    "Graph",
    "GraphError",
    "NetspectraError",
    "NotConvergedError",
    "PowerIterationConfig",
    "RewireEvent",
    "SpectralResult",
    "SweepRow",
    "WSConfig",
    "ba_evolve",
    "degree_stats",
    "parse_edge_list",
    "pearson",
    "power_iteration",
    "run_ba_condition",
    "run_sweep",
    "run_ws_condition",
    "snapshot",
    "spectral_radius_ratio",
    "write_edge_list",
    "ws_evolve",
    "ws_rewire",
]
