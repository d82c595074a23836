"""Spectral radius ratio tracking for evolving networks.

The ratio of the adjacency spectral radius to the mean degree, together with
the coefficient of variation of the degree sequence, measured while a network
grows by preferential attachment or is rewired from a regular lattice.
"""

from .ba import BAConfig, ba_evolve, ba_initialize, select_targets
from .errors import EdgeListParseError, GraphError, NetspectraError, NotConvergedError
from .experiment import SweepRow, derive_seed, run_ba_condition, run_sweep, run_ws_condition
from .graph import DegreeStats, Graph, degree_stats, parse_edge_list, write_edge_list
from .metrics import (
    AveragedSummary,
    EvolutionRecord,
    average_runs,
    pearson,
    run_correlations,
    snapshot,
    summarize_final,
)
from .spectral import (
    PowerIterationConfig,
    SpectralResult,
    power_iteration,
    spectral_radius_ratio,
)
from .ws import RewireEvent, WSConfig, initial_edges, ws_evolve, ws_initialize, ws_rewire

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
    "average_runs",
    "ba_evolve",
    "ba_initialize",
    "degree_stats",
    "derive_seed",
    "initial_edges",
    "parse_edge_list",
    "pearson",
    "power_iteration",
    "run_ba_condition",
    "run_correlations",
    "run_sweep",
    "run_ws_condition",
    "select_targets",
    "snapshot",
    "spectral_radius_ratio",
    "summarize_final",
    "write_edge_list",
    "ws_evolve",
    "ws_initialize",
    "ws_rewire",
]
