"""Per-modality feature extraction with structure-salience attention.

Each branch runs two 3x3 conv + ReLU stages on its single-channel input,
then a salience stage: a 3x3 conv followed by sliding max and average pools
(window 3, stride 1, padding 1, size-preserving) whose responses are
combined per modality, multiplicatively for infrared (salient structures
gate each other) and additively for visible (texture accumulates).  The
combined map is reweighted per channel by a squeeze-excite style bottleneck
(global average pool, 1x1 conv down to C/r, ReLU, 1x1 conv back to C,
sigmoid); on the pooled (N, C, 1, 1) map a 1x1 conv is a fully connected
layer.
"""

from __future__ import annotations

from typing import Mapping

from . import ops
from .config import FusionConfig
from .tensor import ShapeError, Tensor

MODALITIES = ("ir", "vis")


def feature_depth(config: FusionConfig) -> int:
    """How many backbone stages (conv1, conv2, salience) the network reads.

    With the graph on, loop i reads stage min(i, depth), so stages beyond
    ``config.loops`` are never read and neither built nor parameterized.
    Without the graph the head reads only the deepest stage.
    """
    depth = 3 if config.use_salience else 2
    return min(depth, config.loops) if config.use_graph else depth


def channel_attention(x: Tensor, params: Mapping[str, Tensor], prefix: str) -> Tensor:
    """Per-channel weights in (0, 1), (N, C, 1, 1), from a squeeze-excite bottleneck."""
    pooled = ops.global_avgpool(x)
    hidden = ops.relu(ops.conv2d(pooled, params[f"{prefix}.fc1.weight"], params[f"{prefix}.fc1.bias"]))
    return ops.sigmoid(ops.conv2d(hidden, params[f"{prefix}.fc2.weight"], params[f"{prefix}.fc2.bias"]))


def salience(x: Tensor, params: Mapping[str, Tensor], modality: str) -> Tensor:
    """Structure-salience stage for one modality; preserves (N, C, H, W)."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    prefix = f"salience.{modality}"
    y = ops.conv2d(x, params[f"{prefix}.conv.weight"], params[f"{prefix}.conv.bias"], padding=1)
    peaks = ops.maxpool2d(y, 3, padding=1)
    smooth = ops.avgpool2d(y, 3, padding=1)
    if modality == "ir":
        combined = ops.mul(peaks, smooth)
    else:
        combined = ops.add(peaks, smooth)
    weight = channel_attention(combined, params, prefix)
    return ops.mul(combined, weight)


def extract(image: Tensor, params: Mapping[str, Tensor], modality: str, config: FusionConfig) -> list[Tensor]:
    """Run one branch on a (N, 1, H, W) image in [0, 1].

    Returns the first :func:`feature_depth` stage outputs, all (N, C, H, W).
    """
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    if image.ndim != 4 or image.shape[1] != 1:
        raise ShapeError(f"extract: expected (N, 1, H, W) input, got {image.shape}")
    depth = feature_depth(config)
    prefix = f"extract.{modality}"
    feats = []
    x = image
    for name in ("conv1", "conv2")[:depth]:
        x = ops.relu(ops.conv2d(x, params[f"{prefix}.{name}.weight"], params[f"{prefix}.{name}.bias"], padding=1))
        feats.append(x)
    if depth > 2:
        feats.append(salience(x, params, modality))
    return feats
