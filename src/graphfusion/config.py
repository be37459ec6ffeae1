"""Run configuration: one dataclass, JSON in, JSON out."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

# Side of the Gaussian SSIM window in the loss and the metrics; a training
# crop must be at least this large.
SSIM_WINDOW = 11

_FIELD_DOC = {
    "channels": "feature channels C throughout the network",
    "nodes": "graph nodes per modality and loop (pyramid scales 1, 2, 4, ...)",
    "loops": "number of chained graph loops",
    "use_salience": "enable the structure-salience stage after the second conv",
    "use_graph": "enable cross-modality graph interaction (off: deep features pass through)",
    "use_leader": "enable leader-gated delivery of node state into the next loop",
    "reduction": "channel reduction ratio of the salience attention bottleneck",
    "alpha": "weight of the edge-alignment loss term",
    "beta": "weight of the structural-similarity loss term",
    "lr": "Adam learning rate",
    "weight_decay": "decay rate; decoupled weight decay, or per-step slope in lr_linear mode",
    "decay_mode": "'weight_decay' or 'lr_linear'",
    "batch": "training crops per step",
    "epochs": "passes over the crop grid",
    "crop": "square training crop side",
    "stride": "crop grid stride in pixels",
    "seed": "seed for init, shuffling, and any synthetic data",
    "edge_loss_squared": "square the mean absolute edge residual instead of using it directly",
    "share_loop_params": "reuse loop 1 graph parameters in every loop",
}


@dataclass
class FusionConfig:
    """Everything the network, losses, and trainer need, JSON-serializable."""

    channels: int = 16
    nodes: int = 3
    loops: int = 3
    use_salience: bool = True
    use_graph: bool = True
    use_leader: bool = True
    reduction: int = 4
    alpha: float = 10.0
    beta: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 2e-4
    decay_mode: str = "weight_decay"
    batch: int = 2
    epochs: int = 100
    crop: int = 64
    stride: int = 8
    seed: int = 0
    edge_loss_squared: bool = False
    share_loop_params: bool = False

    def validate(self) -> "FusionConfig":
        if self.channels < 1:
            raise ValueError(f"channels must be positive, got {self.channels}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be positive, got {self.nodes}")
        if self.loops < 1:
            raise ValueError(f"loops must be positive, got {self.loops}")
        if self.reduction < 1 or self.channels % self.reduction:
            raise ValueError(
                f"channels ({self.channels}) must be divisible by reduction ({self.reduction})"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"loss weights must be non-negative, got {self.alpha}, {self.beta}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.decay_mode not in ("weight_decay", "lr_linear"):
            raise ValueError(f"decay_mode must be 'weight_decay' or 'lr_linear', got {self.decay_mode!r}")
        for field in ("batch", "epochs", "crop", "stride"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")
        if self.crop < SSIM_WINDOW:
            raise ValueError(f"crop ({self.crop}) must be at least the SSIM window ({SSIM_WINDOW})")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FusionConfig":
        """Build and validate a config from plain data, such as parsed JSON.

        Each value must have the type of its field's default; a bool is not
        an int, and an int is accepted (as a float) for a float field.
        """
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key.startswith("_"):
                continue
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            kind = type(defaults[key])
            if kind is float and type(value) is int:
                value = float(value)
            if type(value) is not kind:
                raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
            kwargs[key] = value
        return cls(**kwargs).validate()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FusionConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FusionConfig":
        return cls.from_json(Path(path).read_text())


def write_default_config(path: str | Path) -> None:
    """Write the default config with a field-by-field ``_doc`` block."""
    payload = {"_doc": _FIELD_DOC}
    payload.update(FusionConfig().to_dict())
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
