"""RENUVER core: the paper's Algorithms 1-4."""

from repro.core.candidates import Candidate
from repro.core.donor_scan import VectorizedEngine, string_clamp_limits
from repro.core.renuver import (
    ImputationResult,
    Renuver,
    RenuverConfig,
)
from repro.core.report import (
    BudgetEvent,
    CellOutcome,
    Degradation,
    ImputationReport,
    OutcomeStatus,
)
from repro.core.selection import (
    Cluster,
    build_cluster_plan,
    cluster_by_rhs_threshold,
    select_rfds_for_attribute,
)
from repro.core.verification import relevant_rfds

__all__ = [
    "BudgetEvent",
    "Candidate",
    "CellOutcome",
    "Cluster",
    "Degradation",
    "ImputationReport",
    "ImputationResult",
    "OutcomeStatus",
    "Renuver",
    "RenuverConfig",
    "VectorizedEngine",
    "build_cluster_plan",
    "cluster_by_rhs_threshold",
    "relevant_rfds",
    "select_rfds_for_attribute",
    "string_clamp_limits",
]
