"""Run configuration: one dataclass, JSON in, JSON out."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

# Side of the Gaussian SSIM window in the loss and the metrics; a training
# crop must be at least this large.
SSIM_WINDOW = 11

# Keys that were once fields.  Config files and checkpoints written then hold
# them, so each is accepted at the one value whose behaviour remains, and
# dropped; any other value asks for a behaviour that is gone.
_RETIRED_KEYS = {"decay_mode": "weight_decay", "edge_loss_squared": False}

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
    "weight_decay": "decoupled weight decay rate",
    "batch": "training crops per step",
    "epochs": "passes over the crop grid",
    "crop": "square training crop side",
    "stride": "crop grid stride in pixels",
    "seed": "seed for init, shuffling, and any synthetic data",
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
    batch: int = 2
    epochs: int = 100
    crop: int = 64
    stride: int = 8
    seed: int = 0
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
        for field in ("alpha", "beta", "lr", "weight_decay"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field} must be finite, got {getattr(self, field)}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"loss weights must be non-negative, got {self.alpha}, {self.beta}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        for field in ("batch", "epochs", "crop", "stride"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.crop < SSIM_WINDOW:
            raise ValueError(f"crop ({self.crop}) must be at least the SSIM window ({SSIM_WINDOW})")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FusionConfig":
        """Build and validate a config from plain data, such as parsed JSON.

        Each value must have the type of its field's default; a bool is not
        an int, and an int is accepted (as a float) for a float field.  A
        retired key is dropped when it holds its surviving value and is an
        error otherwise.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key.startswith("_"):
                continue
            if key in _RETIRED_KEYS:
                kept = _RETIRED_KEYS[key]
                if type(value) is not type(kept) or value != kept:
                    raise ValueError(f"config key {key!r} is retired; only {kept!r} is accepted, got {value!r}")
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
        try:
            data = json.loads(text)
        except RecursionError as exc:  # the parser recurses once per nested array or object
            raise ValueError(f"config JSON nests too deeply: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FusionConfig":
        return cls.from_json(Path(path).read_text())


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes go to a temporary file next to ``path``, reach the disk
    (``os.fsync``) and only then replace it, so neither an interrupted write
    nor a power cut after the rename leaves a partial file under ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_default_config(path: str | Path) -> None:
    """Write the default config with a field-by-field ``_doc`` block, through :func:`write_atomic`."""
    payload = {"_doc": _FIELD_DOC}
    payload.update(FusionConfig().to_dict())
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode())
