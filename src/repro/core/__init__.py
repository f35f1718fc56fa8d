"""The paper's experiments and operator guidance (core contribution)."""

from .store import (
    MeasurementRun,
    ObservationRows,
    ObservationStore,
    QueryObservation,
)
from .combinations import COMBINATIONS, FIGURE6_INTERVALS_MIN, Combination
from .deployment import (
    AuthoritativeSpec,
    DeployedAuthoritative,
    Deployment,
    build_zone,
)
from .experiment import (
    DEFAULT_DOMAIN,
    ExperimentConfig,
    ExperimentResult,
    TestbedExperiment,
    run_campaign,
    run_combination,
)
from .parallel import partition_probes, run_parallel
from .planner import (
    ClientLatency,
    DeploymentEvaluation,
    DeploymentPlanner,
    SelectionModel,
    sidn_style_designs,
)
from .resilience import (
    AttackScenario,
    ResilienceEvaluator,
    ResilienceReport,
    SiteLoad,
)
from .results import load_run, save_run

__all__ = [
    "AttackScenario",
    "AuthoritativeSpec",
    "COMBINATIONS",
    "ClientLatency",
    "Combination",
    "DEFAULT_DOMAIN",
    "DeployedAuthoritative",
    "Deployment",
    "DeploymentEvaluation",
    "DeploymentPlanner",
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURE6_INTERVALS_MIN",
    "MeasurementRun",
    "ObservationRows",
    "ObservationStore",
    "QueryObservation",
    "partition_probes",
    "run_parallel",
    "ResilienceEvaluator",
    "ResilienceReport",
    "SelectionModel",
    "SiteLoad",
    "TestbedExperiment",
    "build_zone",
    "load_run",
    "run_campaign",
    "run_combination",
    "save_run",
    "sidn_style_designs",
]
