"""The paper's experiments and operator guidance (core contribution)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "combinations": "COMBINATIONS FIGURE6_INTERVALS_MIN Combination",
    "deployment": "AuthoritativeSpec DeployedAuthoritative Deployment build_zone",
    "experiment": "DEFAULT_DOMAIN ExperimentConfig ExperimentResult "
    "TestbedExperiment run_campaign run_combination",
    "parallel": "partition_probes run_parallel",
    "planner": "ClientLatency DeploymentEvaluation DeploymentPlanner "
    "SelectionModel sidn_style_designs",
    "resilience": "AttackScenario ResilienceEvaluator ResilienceReport SiteLoad",
    "results": "load_run save_run",
    "store": "MeasurementRun ObservationStore QueryObservation",
})
