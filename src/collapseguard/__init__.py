"""collapseguard: simulation and verification toolkit for contraction-regulated
recursive training loops.

The package splits into numeric plumbing (``numerics``), exponential-family
estimation (``expfam``), contraction and rate machinery (``contraction``),
error-dynamics and workflow Monte-Carlo (``dynamics``), the learnable sample
filter (``filtering``), and the config-driven experiment harness
(``experiments``/``cli``).
"""

from .contraction import (
    ContractionFn,
    ContractionMap,
    LyapunovMetric,
    RegulatorFn,
    check_matrix_contraction,
    check_regulation,
    fit_decay_rate,
    limsup_bound,
    measure_concentration,
    recurrence_simulate,
)
from .dynamics import (
    NoiseSchedule,
    SampleSchedule,
    TrialStats,
    run_dynamics_trials,
    run_workflow_trials,
)
from .errors import (
    BoundaryError,
    CheckFailureError,
    CollapseGuardError,
    DegenerateSelectionError,
    InputValidationError,
    SimulationOverflowError,
)
from .expfam import (
    ExpFamilyModel,
    Parameter,
    estimate,
    inverse_mean_map,
    mean_map,
    sample,
    weighted_estimate,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    compare_runs,
    config_hash,
    emit_plot,
    run_checks,
    run_experiment,
)
from .filtering import (
    FilterHandle,
    FilterParams,
    LabeledDataset,
    PCATransform,
    TrainConfig,
    TrainingSpec,
    fit_pca,
    forward_batch,
    label_by_distance,
    load_filter_checkpoint,
    loss_gradient,
    oracle_pullback_weights,
    save_filter_checkpoint,
    simulate_drift_training_data,
    train_filter,
)
from .numerics import RngState, sym_eig

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CheckFailureError",
    "CollapseGuardError",
    "ContractionFn",
    "ContractionMap",
    "DegenerateSelectionError",
    "ExpFamilyModel",
    "ExperimentConfig",
    "FilterHandle",
    "FilterParams",
    "InputValidationError",
    "LabeledDataset",
    "LyapunovMetric",
    "NoiseSchedule",
    "PCATransform",
    "Parameter",
    "RegulatorFn",
    "ResultTable",
    "RngState",
    "SampleSchedule",
    "SimulationOverflowError",
    "TrainConfig",
    "TrainingSpec",
    "TrialStats",
    "check_matrix_contraction",
    "check_regulation",
    "compare_runs",
    "config_hash",
    "emit_plot",
    "estimate",
    "fit_decay_rate",
    "fit_pca",
    "forward_batch",
    "inverse_mean_map",
    "label_by_distance",
    "limsup_bound",
    "load_filter_checkpoint",
    "loss_gradient",
    "mean_map",
    "measure_concentration",
    "oracle_pullback_weights",
    "recurrence_simulate",
    "run_checks",
    "run_dynamics_trials",
    "run_experiment",
    "run_workflow_trials",
    "sample",
    "save_filter_checkpoint",
    "simulate_drift_training_data",
    "sym_eig",
    "train_filter",
    "weighted_estimate",
]
