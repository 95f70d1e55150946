"""Resolution experiments for capacity-expansion studies.

Build a system case at fine resolution, aggregate it spatially and
temporally, optimize investments there, translate them back down, re-run
operations at full resolution, and score the result against the
high-resolution baseline.

Progress is logged through the ``gridres`` logger, which has only a
NullHandler here: a library call prints nothing unless the application
configures logging, as the ``gridres`` CLI does.
"""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .model import (
    CaseError,
    Region,
    ResourceCluster,
    Series,
    Site,
    StorageCluster,
    SystemCase,
    ThermalParams,
    ThermalUnit,
    TransmissionLine,
    Violation,
    validate,
)
from .caseio import load_system, write_case
from .spatial import RegionPartition, aggregate_spatial
from .temporal import (
    TemporalReduction,
    apply_temporal,
    cluster_timesteps,
    select_extreme_periods,
)
from .expansion import (
    BuildOptions,
    ExpansionSolution,
    build_expansion_lp,
    build_operations_lp,
    extract_prices,
    extract_solution,
)
from .lp import LinearProgram, Solution, solve_simplex
from .benders import BendersResult, solve_benders
from .translate import (
    Portfolio,
    SiteAllocation,
    allocate_storage,
    allocate_thermal,
    allocate_vre,
    build_portfolio,
    redistrict_transmission,
    retire_units,
    translate_solution,
)
from .metrics import (
    DispatchedBuild,
    MetricsReport,
    build_report,
    cost_recovery,
    financials,
    mse_lines,
    mse_regional,
    phase_compare,
    phase_summary,
    sco,
)
from .syngen import SynthConfig, generate
from .pipeline import (
    Combo,
    ConfigError,
    ExperimentReport,
    PartitionSpec,
    RunConfig,
    run_case,
    run_ladder,
)

__all__ = [
    "BendersResult",
    "BuildOptions",
    "CaseError",
    "Combo",
    "ConfigError",
    "DispatchedBuild",
    "ExpansionSolution",
    "ExperimentReport",
    "LinearProgram",
    "MetricsReport",
    "PartitionSpec",
    "Portfolio",
    "Region",
    "RegionPartition",
    "ResourceCluster",
    "RunConfig",
    "Series",
    "Site",
    "SiteAllocation",
    "Solution",
    "StorageCluster",
    "SynthConfig",
    "SystemCase",
    "TemporalReduction",
    "ThermalParams",
    "ThermalUnit",
    "TransmissionLine",
    "Violation",
    "aggregate_spatial",
    "allocate_storage",
    "allocate_thermal",
    "allocate_vre",
    "apply_temporal",
    "build_expansion_lp",
    "build_operations_lp",
    "build_portfolio",
    "build_report",
    "cluster_timesteps",
    "cost_recovery",
    "extract_prices",
    "extract_solution",
    "financials",
    "generate",
    "load_system",
    "mse_lines",
    "mse_regional",
    "phase_compare",
    "phase_summary",
    "redistrict_transmission",
    "retire_units",
    "run_case",
    "run_ladder",
    "sco",
    "select_extreme_periods",
    "solve_benders",
    "solve_simplex",
    "translate_solution",
    "validate",
    "write_case",
]

__version__ = "0.1.0"
