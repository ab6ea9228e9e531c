"""Constrained attack-resilient estimation.

Joint input/state estimation for linear time-varying systems under
actuator attacks, with the estimates projected onto known inequality
constraints, a chi-square/CUSUM attack detector, and a seeded simulation
harness for the vehicle case study. `care_step` is the core per-step
entry point; `simulate`, `monte_carlo` and `run_ensemble` drive whole
scenarios.
"""

from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .detector import (
    DetectorConfig,
    DetectorState,
    chi2_cdf,
    chi2_quantile,
    cusum_update,
    detection_statistic,
    false_negative_rate,
)
from .ensemble import EnsembleResult, run_ensemble
from .estimator import (
    AttackEstimate,
    AttackUnidentifiableError,
    EstimatorState,
    Prediction,
    StepOutput,
    TimeUpdated,
    UnconstrainedUpdate,
    care_step,
    estimate_attack,
    initial_state,
    measurement_update,
    predict,
    time_update,
)
from .harness import (
    FilterRun,
    RunMetrics,
    SimulationResult,
    monte_carlo,
    simulate,
)
from .model import ConstraintSet, NoiseSpec, SystemModel, ValidationReport, validate
from .projection import (
    ActiveSetLimitError,
    InfeasibleConstraintsError,
    ProjectionResult,
    project,
    project_attack,
    project_state,
)
from .vehicle import (
    VehicleParams,
    attack_input,
    attack_signal,
    bicycle_matrices,
    build_constraints,
    slip_angle,
    steering_angle,
    vehicle_constraints,
    vehicle_model,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSetLimitError",
    "AttackEstimate",
    "AttackUnidentifiableError",
    "ConfigError",
    "ConstraintSet",
    "DetectorConfig",
    "DetectorState",
    "EnsembleResult",
    "EstimatorState",
    "FilterRun",
    "InfeasibleConstraintsError",
    "NoiseSpec",
    "Prediction",
    "ProjectionResult",
    "RunMetrics",
    "ScenarioConfig",
    "SimulationResult",
    "StepOutput",
    "SystemModel",
    "TimeUpdated",
    "UnconstrainedUpdate",
    "ValidationReport",
    "VehicleParams",
    "attack_input",
    "attack_signal",
    "bicycle_matrices",
    "build_constraints",
    "care_step",
    "chi2_cdf",
    "chi2_quantile",
    "cusum_update",
    "detection_statistic",
    "estimate_attack",
    "false_negative_rate",
    "initial_state",
    "load_config",
    "measurement_update",
    "monte_carlo",
    "parse_config",
    "predict",
    "project",
    "project_attack",
    "project_state",
    "run_ensemble",
    "simulate",
    "slip_angle",
    "steering_angle",
    "time_update",
    "validate",
    "vehicle_constraints",
    "vehicle_model",
]
