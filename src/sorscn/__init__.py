"""Self-organizing recurrent stochastic configuration networks.

Block reservoirs grown under a supervisory inequality, projection-based
online readout updates, and sensitivity-driven pruning/regrowth for
nonstationary time series — plus ESN/RSCN baselines and a reproducible
experiment harness.
"""

from .construct import (
    CandidateScore,
    ConstructionConfig,
    build_initial,
    propose_block,
    refit_readout,
)
from .datastream import (
    Normalization,
    Segment,
    SeriesDataset,
    SyntheticStreamSpec,
    fit_normalization,
    generate_synthetic,
    load_csv,
    make_validation,
    split_and_washout,
)
from .errors import (
    AllTrialsFailed,
    ConfigError,
    ConstantStateWarning,
    ConstructionStalledWarning,
    CorruptFile,
    DegenerateMatrix,
    DimensionMismatch,
    EmptyFile,
    EmptyWindow,
    InvalidThresholdWarning,
    MissingColumn,
    NoCandidateFound,
    NonNumericCell,
    SorscnError,
    VersionMismatch,
    WashoutTooLarge,
    ZeroStateNorm,
    ZeroVariance,
)
from .experiment import (
    DatasetConfig,
    ExperimentConfig,
    ExperimentReport,
    ModelConfig,
    RunConfig,
    TrialRecord,
    compare_variants,
    grid_search,
    nrmse,
    run_experiment,
)
from .model_io import load_model, save_model
from .online_update import project_step
from .reservoir import (
    EnsembleModel,
    StateMatrix,
    StructureEvent,
    SubReservoir,
    harvest_states,
    new_random_block,
    scale_spectral,
    spectral_radius,
)
from .self_organize import (
    ErrorInterval,
    SensitivityReport,
    StreamConfig,
    WindowVerdict,
    calibrate_interval,
    compute_correlation_scores,
    compute_sensitivity,
    prune,
    regrow,
    run_stream,
    select_blocks,
)

__version__ = "0.1.0"
