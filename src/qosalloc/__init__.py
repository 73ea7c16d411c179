"""Closed-loop QoS bandwidth allocation.

A service's response to a bandwidth allocation is predicted by kernel
regression over a bounded profile of past (allocation, response) records;
the cheapest allocation predicted to meet the QoS target is applied; the
measured result replaces the nearest opposite-class record once the profile
is full. The package also ships a discrete-epoch multi-link simulator that
closes the loop, kNN and unbounded-profile baselines, and an experiment
harness with deterministic, auditable outputs.
"""

from .baselines import KnnPredictor, PredictorKind
from .controller import (
    ConfigError,
    QosConfig,
    QosController,
    compute_erab,
    quantize,
)
from .harness import (
    MetricsReport,
    ScenarioConfig,
    ScenarioResult,
    SeedSpec,
    Variant,
    compare_predictors,
    dump_scenario,
    load_scenario,
    run_scenario,
    seed_profile_generate,
)
from .netsim import EndOfRun, LinkSpec, ServiceSpec, Simulator
from .predictor import (
    DEFAULT_SIGMA2,
    EmptyProfileError,
    GrnnPredictor,
    KernelParams,
    Prediction,
    predict,
    predict_batch,
    variation_bound,
)
from .profile import Profile, ProfileFormatError, ProfileRecord, UpdateResult, classify
from .search import AllocationResult, SearchGrid, membership_c_form, search

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ConfigError",
    "DEFAULT_SIGMA2",
    "EmptyProfileError",
    "EndOfRun",
    "GrnnPredictor",
    "KernelParams",
    "KnnPredictor",
    "LinkSpec",
    "MetricsReport",
    "Prediction",
    "PredictorKind",
    "Profile",
    "ProfileFormatError",
    "ProfileRecord",
    "QosConfig",
    "QosController",
    "ScenarioConfig",
    "ScenarioResult",
    "SearchGrid",
    "SeedSpec",
    "ServiceSpec",
    "Simulator",
    "UpdateResult",
    "Variant",
    "classify",
    "compare_predictors",
    "compute_erab",
    "dump_scenario",
    "load_scenario",
    "membership_c_form",
    "predict",
    "predict_batch",
    "quantize",
    "run_scenario",
    "search",
    "seed_profile_generate",
    "variation_bound",
]
