"""Sparse 3-mode tensor completion with PID-adjusted stochastic gradient descent.

A biased Tucker factorization is fit to the observed cells of a large, mostly
missing tensor (e.g. road segment x day x time-slot traffic speeds); per-entry
residuals are run through a discrete proportional-integral-derivative
adjustment before each SGD update to speed up convergence.
"""

from .datasets import (
    CsvSchema,
    IndexMapping,
    SyntheticSpec,
    export_imputed,
    generate_synthetic,
    identity_mapping,
    load_csv,
    load_mapping,
    missing_indices,
    save_mapping,
    write_records_csv,
)
from .errors import ConfigError, DataError, DivergenceError
from .evaluation import (
    ExperimentConfig,
    ExperimentSummary,
    RepeatResult,
    run_experiment,
    write_summary_csv,
    write_summary_json,
)
from .model import (
    InstanceGradient,
    Ranks,
    RegWeights,
    TuckerFactors,
    init_factors,
    instance_gradient,
    load_checkpoint,
    predict,
    predict_batch,
    reconstruct_dense,
    regularized_loss,
    rmse,
    save_checkpoint,
)
from .pid import PidGains, PidState, adjust
from .solver import (
    EpochRecord,
    Hyperparams,
    TrainReport,
    sgd_step,
    train,
    validation_converged,
    write_trace,
)
from .sparse import DataSplit, SparseTensor, from_records, split

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsvSchema",
    "DataError",
    "DataSplit",
    "DivergenceError",
    "EpochRecord",
    "ExperimentConfig",
    "ExperimentSummary",
    "Hyperparams",
    "IndexMapping",
    "InstanceGradient",
    "PidGains",
    "PidState",
    "Ranks",
    "RegWeights",
    "RepeatResult",
    "SparseTensor",
    "SyntheticSpec",
    "TrainReport",
    "TuckerFactors",
    "adjust",
    "export_imputed",
    "from_records",
    "generate_synthetic",
    "identity_mapping",
    "init_factors",
    "instance_gradient",
    "load_checkpoint",
    "load_csv",
    "load_mapping",
    "missing_indices",
    "predict",
    "predict_batch",
    "reconstruct_dense",
    "regularized_loss",
    "rmse",
    "run_experiment",
    "save_checkpoint",
    "save_mapping",
    "sgd_step",
    "split",
    "train",
    "validation_converged",
    "write_records_csv",
    "write_summary_csv",
    "write_summary_json",
    "write_trace",
]
