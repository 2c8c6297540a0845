"""Point-cloud robustness toolkit.

Density-aware anchor sampling, self-entropy training objectives for an
attention point-cloud classifier, a parametric corruption suite, and the
training/evaluation harness that measures robustness as error rates.
"""

from .autodiff import NonFiniteError, Tensor, backward, finite_diff_check
from .cloudio import CloudFormatError
from .config import ConfigError
from .corruption import ALL_KINDS, CorruptionSpec, apply_corruption, corruption_suite
from .data import SyntheticDatasetSpec, gen_dataset
from .evaluate import EvalReport, PredictionRecord, evaluate, report_from_log
from .geometry import NeighborTable, PointCloud, normalize_unit_sphere
from .losses import (
    LossConfig,
    attention_sem_loss,
    channel_sem_loss,
    row_entropy,
    smoothed_cross_entropy,
    total_loss,
)
from .model import (
    BaselineParams,
    CheckpointFormatError,
    ForwardTrace,
    ModelParams,
    forward,
    init_baseline,
    init_model,
    load_checkpoint,
    neighbor_embed,
    save_checkpoint,
    self_attention_layer,
)
from .sampling import (
    DensityProfile,
    InfeasibleSampleError,
    SampleSpec,
    das_sample,
    density_profile,
    fps_sample,
    random_sample,
    sample_anchors,
    weighted_sample_without_replacement,
)
from .train import TrainConfig, TrainingDiverged, TrainResult, train

__all__ = [
    "ALL_KINDS",
    "BaselineParams",
    "CheckpointFormatError",
    "CloudFormatError",
    "ConfigError",
    "CorruptionSpec",
    "DensityProfile",
    "EvalReport",
    "ForwardTrace",
    "InfeasibleSampleError",
    "LossConfig",
    "ModelParams",
    "NeighborTable",
    "NonFiniteError",
    "PointCloud",
    "PredictionRecord",
    "SampleSpec",
    "SyntheticDatasetSpec",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "apply_corruption",
    "attention_sem_loss",
    "backward",
    "channel_sem_loss",
    "corruption_suite",
    "das_sample",
    "density_profile",
    "evaluate",
    "finite_diff_check",
    "forward",
    "fps_sample",
    "gen_dataset",
    "init_baseline",
    "init_model",
    "load_checkpoint",
    "neighbor_embed",
    "normalize_unit_sphere",
    "random_sample",
    "report_from_log",
    "row_entropy",
    "sample_anchors",
    "save_checkpoint",
    "self_attention_layer",
    "smoothed_cross_entropy",
    "total_loss",
    "train",
    "weighted_sample_without_replacement",
]
