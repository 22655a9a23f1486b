"""Connectivity-probability simulation for one-dimensional highway vehicle
networks: random traffic snapshots, per-vehicle range policies, graph
construction, spectral/walk/traversal connectivity verdicts, closed-form
models, and a seeded Monte-Carlo harness."""

from .connectivity import (
    AnalyticModel,
    SpectralResult,
    analytic_pc,
    analytic_pc_chain_mixed,
    component_count,
    consecutive_chain,
    eigenvalues_symmetric,
    is_connected_exponent,
    is_connected_laplacian,
    min_range_for_target,
    oracle_components,
    oracle_reachable,
)
from .graphs import Adjacency, Laplacian, build_adjacency, laplacian, project, symmetrize
from .montecarlo import (
    ConnectivityEstimate,
    ExperimentSpec,
    MethodDisagreement,
    TrialRecord,
    compare_methods,
    run_trial,
    sweep,
)
from .ranges import (
    FixedRange,
    RangeAssignment,
    RangePolicy,
    TwoTierRange,
    UniformRange,
    assign_ranges,
    mean_range,
    policy_label,
    power_proxy,
)
from .traffic import (
    HeadwayVector,
    SpacingMatrix,
    TrafficScenario,
    sample_headways,
    spacing_matrix,
    vehicle_count,
)

__version__ = "0.2.0"
