"""Redundant quorum cycle routing for optical mesh networks.

Pipeline: search a minimal r-redundant cyclic quorum base, route one
closed cycle per quorum on a physical topology, deploy light-trails on
the cycles, then measure resource use and exhaustive link-fault
coverage across randomized node mappings.
"""

from .topology import (BUNDLED, NodeMapping, Topology, TopologyError,
                       bundled_topology, find_bridges, generate_mappings,
                       load_topology, parse_topology, relabel,
                       serialize_topology, topology_to_json)
from .quorums import (InfeasibleRedundancyError, QuorumBase, QuorumSet,
                      SearchBudget, SearchBudgetExhausted, SearchResult,
                      VerificationReport, bundled_base, difference_counts,
                      generate_quorums, is_r_redundant, load_base,
                      pair_coverage, save_base, search_min_base,
                      verify_quorum_set)
from .routing import (CycleRoute, InsertionInfeasibleError, NoReturnPathError,
                      RoutingError, RoutingInfeasibleError, close_cycle,
                      insert_missing, ratio_bfs, route_all, route_cycle)
from .lighttrail import (DeploymentPlan, FaultModel, TrailMode, links_used,
                         missing_pairs, served_pairs_plan)
from .faultsim import enumerate_faults, evaluate
from .report import (CISummary, ExperimentError, ExperimentSpec,
                     InsufficientSamplesError, ResultRow, emit,
                     load_experiment_spec, mean_ci, parse_rows_csv,
                     run_experiment)

__version__ = "0.1.0"

__all__ = [
    "BUNDLED", "CISummary", "CycleRoute", "DeploymentPlan", "ExperimentError",
    "ExperimentSpec", "FaultModel", "InfeasibleRedundancyError",
    "InsertionInfeasibleError", "InsufficientSamplesError",
    "NoReturnPathError", "NodeMapping", "QuorumBase",
    "QuorumSet", "ResultRow", "RoutingError", "RoutingInfeasibleError",
    "SearchBudget", "SearchBudgetExhausted", "SearchResult",
    "Topology", "TopologyError", "TrailMode", "VerificationReport",
    "bundled_base", "bundled_topology", "close_cycle", "difference_counts",
    "emit", "enumerate_faults", "evaluate", "find_bridges",
    "generate_mappings", "generate_quorums", "insert_missing",
    "is_r_redundant", "links_used", "load_base", "load_experiment_spec",
    "load_topology", "mean_ci", "missing_pairs", "pair_coverage",
    "parse_rows_csv", "parse_topology", "ratio_bfs", "relabel", "route_all",
    "route_cycle", "run_experiment", "save_base", "search_min_base",
    "serialize_topology", "served_pairs_plan",
    "topology_to_json", "verify_quorum_set",
]
