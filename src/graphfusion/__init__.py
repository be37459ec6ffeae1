"""Infrared and visible image fusion with cross-modality graph interaction.

The public surface: a small float32 autograd (:class:`Tensor`,
:class:`Tape`, :mod:`graphfusion.ops`), the fusion network
(:func:`init_params`, :func:`forward`, checkpoints), training objectives
and quality metrics, a deterministic trainer, and a CLI (``graphfusion``).
"""

from .config import FusionConfig, write_default_config
from .gradcheck import check_parameter_groups
from .images import ImagePair, pair_directory, read_image, write_image
from .network import (
    count_parameters,
    forward,
    fuse_arrays,
    init_params,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from .reference import reference_forward, reference_loss
from .tensor import ShapeError, Tape, Tensor
from .trainer import TrainLog, TrainingDiverged, sample_crops, train

__version__ = "0.1.0"

__all__ = [
    "FusionConfig",
    "ImagePair",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrainLog",
    "TrainingDiverged",
    "check_parameter_groups",
    "count_parameters",
    "forward",
    "fuse_arrays",
    "init_params",
    "load_checkpoint",
    "pair_directory",
    "parameter_shapes",
    "read_image",
    "reference_forward",
    "reference_loss",
    "sample_crops",
    "save_checkpoint",
    "train",
    "write_default_config",
    "write_image",
    "__version__",
]
