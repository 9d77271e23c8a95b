"""Loss-engineered nowcasting of auroral electron energy flux on a
synthetic polar world: data synthesis, feature pipeline, a minimal
reverse-mode autodiff engine, three architectures, five losses, training,
and the evaluation protocol."""

__version__ = "0.1.0"

from .geomodel import (  # noqa: F401
    DRIVER_NAMES,
    DriverSeries,
    GridMap,
    GridSpec,
    ObsTable,
    Region,
    WorldParams,
    gen_drivers,
    newell_cf,
    sample_traces,
)
from .ingest import (  # noqa: F401
    CleaningReport,
    FeatureSchema,
    FeatureTable,
    Holdout,
    build_features,
    clean_targets,
    log_transform,
    read_drivers_csv,
    read_observations_csv,
    split_by_holdout,
)
from .losses import (  # noqa: F401
    DEFAULT_TAIL_TERMS,
    DistWeights,
    LossSpec,
    TailTerm,
    fit_dist_weights,
    mse,
)
from .models import (  # noqa: F401
    BaselineArch,
    ConvDecoderArch,
    Model,
    MultiTaskArch,
    build_model,
    forward_baseline,
    forward_convdecoder,
    forward_multitask,
    load_checkpoint,
    save_checkpoint,
)
from .train import (  # noqa: F401
    AdamState,
    SparseSample,
    SparseSamples,
    TrainConfig,
    adam_step,
    build_sparse_samples,
    train_model,
)
