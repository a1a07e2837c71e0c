"""repro — a reproduction of RENUVER (Breve et al., EDBT 2022).

RENUVER imputes missing values in relational data by exploiting relaxed
functional dependencies (RFDs): dependencies whose attribute comparisons
are distance-based rather than strict equalities.  RFDs whose RHS is the
missing attribute generate and rank candidate tuples; RFDs whose LHS
contains the imputed attribute verify that each imputation keeps the
instance semantically consistent.

Quickstart::

    from repro import (
        load_dataset, discover_rfds, DiscoveryConfig, Renuver,
        inject_missing, score_imputation, dataset_validator,
    )

    clean = load_dataset("restaurant")
    rfds = discover_rfds(clean, DiscoveryConfig(threshold_limit=6)).all_rfds
    dirty = inject_missing(clean, rate=0.02, seed=7)
    result = Renuver(rfds).impute(dirty.relation)
    print(score_imputation(result.relation, dirty,
                           dataset_validator("restaurant")))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.baselines import (
    BaseImputer,
    DenialConstraint,
    DerandImputer,
    GreyKNNImputer,
    HolocleanLiteImputer,
    MeanModeImputer,
    discover_dcs,
    fd_as_dc,
)
from repro.core import (
    BudgetEvent,
    Candidate,
    CellOutcome,
    Cluster,
    Degradation,
    ImputationReport,
    ImputationResult,
    OutcomeStatus,
    Renuver,
    RenuverConfig,
)
from repro.dataset import (
    MISSING,
    Attribute,
    AttributeType,
    Relation,
    is_missing,
    read_csv,
    read_csv_text,
    write_csv,
)
from repro.datasets import (
    dataset_names,
    dataset_validator,
    load_dataset,
)
from repro.discovery import DiscoveryConfig, DiscoveryResult, discover_rfds
from repro.distance import (
    DistanceFunction,
    DistancePattern,
    PatternCalculator,
    levenshtein,
)
from repro.evaluation import (
    DatasetValidator,
    DeltaRule,
    InjectionResult,
    RegexRule,
    Scores,
    ValueSetRule,
    build_injection_suite,
    compare_approaches,
    inject_missing,
    load_rule_file,
    run_experiment,
    save_rule_file,
    score_imputation,
)
from repro.exceptions import (
    BudgetExceededError,
    ReproError,
)
from repro.extensions import (
    ImputationSession,
    MultiSourceRenuver,
    config_with_suggested_limits,
    suggest_threshold_limits,
)
from repro.rfd import (
    RFD,
    Constraint,
    holds,
    holds_all,
    load_rfds,
    make_rfd,
    parse_rfd,
    save_rfds,
)
from repro.robustness import (
    ChaosConfig,
    ChaosInjector,
    ChaosKill,
    JournalWriter,
    load_journal,
    replay_journal,
)
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    configure_logging,
    get_logger,
)

__version__ = "1.0.0"

__all__ = [
    "MISSING",
    "Attribute",
    "AttributeType",
    "BaseImputer",
    "BudgetEvent",
    "BudgetExceededError",
    "Candidate",
    "CellOutcome",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosKill",
    "Cluster",
    "Constraint",
    "DatasetValidator",
    "Degradation",
    "DeltaRule",
    "DenialConstraint",
    "DerandImputer",
    "DiscoveryConfig",
    "DiscoveryResult",
    "DistanceFunction",
    "DistancePattern",
    "GreyKNNImputer",
    "HolocleanLiteImputer",
    "ImputationReport",
    "ImputationResult",
    "ImputationSession",
    "InjectionResult",
    "JournalWriter",
    "MeanModeImputer",
    "MetricsRegistry",
    "MultiSourceRenuver",
    "OutcomeStatus",
    "PatternCalculator",
    "RFD",
    "RegexRule",
    "Relation",
    "Renuver",
    "RenuverConfig",
    "ReproError",
    "Scores",
    "Telemetry",
    "Tracer",
    "ValueSetRule",
    "build_injection_suite",
    "compare_approaches",
    "config_with_suggested_limits",
    "configure_logging",
    "dataset_names",
    "dataset_validator",
    "discover_dcs",
    "discover_rfds",
    "fd_as_dc",
    "get_logger",
    "holds",
    "holds_all",
    "inject_missing",
    "is_missing",
    "levenshtein",
    "load_dataset",
    "load_journal",
    "load_rfds",
    "load_rule_file",
    "make_rfd",
    "parse_rfd",
    "read_csv",
    "read_csv_text",
    "replay_journal",
    "run_experiment",
    "save_rfds",
    "save_rule_file",
    "score_imputation",
    "suggest_threshold_limits",
    "write_csv",
    "__version__",
]
