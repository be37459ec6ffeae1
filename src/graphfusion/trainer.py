"""Deterministic crop-based training with bias-corrected Adam.

Each epoch enumerates every crop window of every pair on a fixed stride
grid, shuffles the list with an epoch-specific seed, and walks it in
batches, cropping each batch as the loop reaches it.  All arithmetic is
float32 numpy with no parallelism, so a fixed (config, data) pair
reproduces checkpoints bit for bit.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import FusionConfig
from .images import ImagePair
from .losses import loss_components
from .network import forward, init_params, save_checkpoint
from .tensor import Tape, Tensor

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the total loss stops being finite."""


@dataclass
class AdamState:
    """First/second moment estimates per parameter, plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: Mapping[str, Tensor]) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(t.data) for name, t in params.items()},
        v={name: np.zeros_like(t.data) for name, t in params.items()},
    )


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One update over every parameter from its accumulated gradient.

    Decoupled weight decay shrinks the parameter by ``lr * weight_decay``
    before the bias-corrected Adam delta is applied.  A parameter with no
    gradient is an error: every parameter must participate in the loss.
    """
    state.t += 1
    b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
    lr32 = np.float32(lr)
    bc1 = np.float32(1.0 - ADAM_BETA1**state.t)
    bc2 = np.float32(1.0 - ADAM_BETA2**state.t)
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name} has no gradient")
        g = p.grad
        if weight_decay:
            p.data -= lr32 * np.float32(weight_decay) * p.data
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (np.float32(1.0) - b1) * g
        v *= b2
        v += (np.float32(1.0) - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= lr32 * m_hat / (np.sqrt(v_hat) + np.float32(ADAM_EPS))


def crop_windows(pairs: Sequence[ImagePair], crop: int, stride: int) -> list[tuple[int, int, int]]:
    """(pair index, row, col) for every stride-grid window; small pairs skip."""
    windows = []
    for idx, pair in enumerate(pairs):
        h, w = pair.shape
        if h < crop or w < crop:
            log.warning("pair %r is %dx%d, smaller than crop %d, skipping", pair.pair_id, h, w, crop)
            continue
        for y in range(0, h - crop + 1, stride):
            for x in range(0, w - crop + 1, stride):
                windows.append((idx, y, x))
    return windows


class CropBatches(Sequence[tuple[np.ndarray, np.ndarray]]):
    """An epoch's (ir, vis) crop batches, each (n, 1, crop, crop), stacked when read.

    Only the shuffled window index is held, so an epoch over many large
    pairs holds one batch of crops at a time.
    """

    def __init__(self, pairs: Sequence[ImagePair], windows: list[tuple[int, int, int]], crop: int, batch: int):
        self._pairs, self._windows, self._crop = pairs, windows, crop
        self._starts = range(0, len(windows), batch)

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        start, crop = self._starts[k], self._crop
        chunk = self._windows[start : start + self._starts.step]
        ir = np.stack([self._pairs[p].infrared[y : y + crop, x : x + crop] for p, y, x in chunk])
        vis = np.stack([self._pairs[p].visible[y : y + crop, x : x + crop] for p, y, x in chunk])
        return ir[:, None], vis[:, None]


def sample_crops(pairs: Sequence[ImagePair], crop: int, stride: int, batch: int, seed: int) -> CropBatches:
    """One shuffled epoch of (ir, vis) crop batches, each (n, 1, crop, crop)."""
    windows = crop_windows(pairs, crop, stride)
    if not windows:
        raise ValueError(f"no {crop}x{crop} windows available in any pair")
    order = np.random.default_rng(seed).permutation(len(windows))
    return CropBatches(pairs, [windows[i] for i in order], crop, batch)


@dataclass
class LogRecord:
    step: int
    total: float
    mse: float
    edge: float
    ssim: float
    lr: float


@dataclass
class TrainLog:
    records: list[LogRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("step", "total", "mse", "edge", "ssim", "lr"))
        for r in self.records:
            writer.writerow([r.step, repr(r.total), repr(r.mse), repr(r.edge), repr(r.ssim), repr(r.lr)])
        return buf.getvalue()


def train(
    pairs: Sequence[ImagePair],
    config: FusionConfig,
    checkpoint_path: str | Path | None = None,
    max_steps: int | None = None,
    log_every: int | None = None,
    params: dict[str, Tensor] | None = None,
) -> tuple[dict[str, Tensor], TrainLog]:
    """Optimize the fusion network on crop batches drawn from ``pairs``.

    A checkpoint is rewritten after every epoch when a path is given.
    ``max_steps`` (at least 1) caps the total number of updates for short
    runs.  Passing ``params`` resumes from existing weights instead of
    initializing.
    """
    config.validate()
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"train: max_steps must be at least 1, got {max_steps}")
    if params is None:
        params = init_params(config)
    state = init_adam(params)
    train_log = TrainLog()
    step = 0
    done = False
    for epoch in range(config.epochs):
        batches = sample_crops(pairs, config.crop, config.stride, config.batch, config.seed + epoch)
        for ir_arr, vis_arr in batches:
            ir = Tensor(ir_arr)
            vis = Tensor(vis_arr)
            with Tape() as tape:
                fused = forward(ir, vis, params, config)
                parts = loss_components(fused, ir, vis, config)
                values = {k: float(t.data) for k, t in parts.items()}
                if not all(np.isfinite(v) for v in values.values()):
                    raise TrainingDiverged(f"non-finite loss at step {step}: {values}")
                tape.backward(parts["total"])
                adam_step(params, state, config.lr, config.weight_decay)
                tape.clear()
            record = LogRecord(
                step=step,
                total=values["total"],
                mse=values["mse"],
                edge=values["edge"],
                ssim=values["ssim"],
                lr=config.lr,
            )
            train_log.records.append(record)
            if log_every and step % log_every == 0:
                print(
                    f"step {record.step} total {record.total:.6f} mse {record.mse:.6f} "
                    f"edge {record.edge:.6f} ssim {record.ssim:.6f} lr {record.lr:.2e}",
                    flush=True,
                )
            step += 1
            if max_steps is not None and step >= max_steps:
                done = True
                break
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, config)
        if done:
            break
    return params, train_log
