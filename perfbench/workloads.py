"""The three workloads: inputs from a seed, a timed closed loop, checks.

A workload object carries its sizes, so the benchmark's tests can run the
same code on smaller inputs.  ``setup`` builds the inputs and warms up,
``measure`` runs whole operations until the time is spent (at least one
round), and ``check`` verifies the outputs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from graphfusion import FusionConfig, ImagePair, cli, images, metrics, network, trainer
from graphfusion.reference import reference_forward, reference_loss

import checks


@dataclass
class Outcome:
    """What one timed loop did."""

    op_times: list[float]  # wall time of each end-to-end operation
    n_ops: int  # operations the per-layer metrics are divided by
    attempted: int  # steps, frames plus scored pairs, or gradcheck groups
    wall: float = 0.0  # timed wall clock the per-layer spans should add up to
    layer: dict[str, float] = field(default_factory=dict)  # spans taken by the workload itself


# ---------------------------------------------------------------------------
# synthetic inputs


def infrared(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Dim vertical ramp with a few hot Gaussian targets and sensor noise."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    yy /= h - 1
    xx /= w - 1
    img = 0.1 + 0.1 * yy
    for _ in range(int(rng.integers(2, 6))):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        spread = rng.uniform(0.002, 0.02)
        img = img + rng.uniform(0.4, 0.8) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / spread)
    img = img + rng.normal(0.0, 0.01, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def visible(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Oriented stripe texture over a ramp, a dark occluder, sensor noise."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    yy /= h - 1
    xx /= w - 1
    fx, fy = rng.uniform(2.0, 12.0, size=2)
    img = 0.4 + 0.2 * xx + 0.2 * np.sin(2 * np.pi * (fx * xx + fy * yy) + rng.uniform(0, 2 * np.pi))
    cy, cx = rng.uniform(0.3, 0.7, size=2)
    img = img - 0.3 * ((np.abs(yy - cy) < 0.1) & (np.abs(xx - cx) < 0.15))
    img = img + rng.normal(0.0, 0.01, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_pairs(rng: np.random.Generator, count: int, h: int, w: int) -> list[ImagePair]:
    return [ImagePair(f"pair{i:03d}", infrared(rng, h, w), visible(rng, h, w)) for i in range(count)]


class _StepClock(io.TextIOBase):
    """Stdout stand-in that stamps each ``step ...`` line ``train`` prints after a step."""

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("step "):
            self.stamps.append(perf_counter())
        return len(text)


# ---------------------------------------------------------------------------
# train-64


@dataclass
class Train:
    """``graphfusion.train`` with the default config on synthetic pairs."""

    kind = "train"
    pairs: int = 2
    size: tuple[int, int] = (72, 72)
    min_steps: int = 12  # enough steps for a steady median on a noisy host
    config: FusionConfig = field(default_factory=FusionConfig)

    def steps_per_epoch(self) -> int:
        c = self.config
        windows = self.pairs * math.prod((s - c.crop) // c.stride + 1 for s in self.size)
        return -(-windows // c.batch)

    def setup(self, seed: int, workdir: Path) -> dict:
        data = make_pairs(np.random.default_rng(seed), self.pairs, *self.size)
        start = perf_counter()
        trainer.train(data, self.config, max_steps=1)  # warm-up step
        return {"pairs": data, "step_s": perf_counter() - start, "checkpoint": workdir / "train.ckpt"}

    def measure(self, state: dict, seconds: float) -> Outcome:
        # Whole epochs, at least two so an epoch end falls inside the run.
        per_epoch = self.steps_per_epoch()
        epochs = max(2, -(-self.min_steps // per_epoch), round(seconds / (per_epoch * state["step_s"])))
        clock = _StepClock()
        start = perf_counter()
        with contextlib.redirect_stdout(clock):
            params, log = trainer.train(
                state["pairs"], self.config, checkpoint_path=state["checkpoint"],
                max_steps=epochs * per_epoch, log_every=1,
            )
        wall = perf_counter() - start
        stamps = [start] + clock.stamps
        state.update(params=params, log=log)
        steps = len(log.records)
        return Outcome([b - a for a, b in zip(stamps, stamps[1:])], steps, steps, wall=wall)

    def check(self, state: dict) -> None:
        c = self.config
        losses = [r.total for r in state["log"].records]
        checks.check_training(losses, self.steps_per_epoch(), {k: t.data for k, t in state["params"].items()})
        # Step 0 ran on the first batch of epoch 0 with freshly initialized weights.
        ir, vis = trainer.sample_crops(state["pairs"], c.crop, c.stride, c.batch, c.seed)[0]
        init = {k: t.data for k, t in network.init_params(c).items()}
        checks.check_loss_matches_reference(losses[0], reference_loss(ir, vis, init, c))


# ---------------------------------------------------------------------------
# fuse-vga


@dataclass
class Fuse:
    """The ``graphfusion eval`` flow on non-square frames through files."""

    kind = "fuse"
    pairs: int = 2
    size: tuple[int, int] = (480, 640)
    small: tuple[int, int] = (40, 56)  # reference-checked pair, also the warm-up

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        data = make_pairs(rng, self.pairs, *self.size)
        small = make_pairs(rng, 1, *self.small)[0]
        paths = []
        for pair in data:
            ir_path, vis_path = workdir / f"{pair.pair_id}.ir.pgm", workdir / f"{pair.pair_id}.vis.pgm"
            images.write_image(ir_path, pair.infrared)
            images.write_image(vis_path, pair.visible)
            paths.append((ir_path, vis_path, workdir / f"{pair.pair_id}.fused.pgm"))
        checkpoint = workdir / "fuse.ckpt"
        config = FusionConfig()
        network.save_checkpoint(checkpoint, network.init_params(config, seed=seed), config)
        start = perf_counter()
        params, config = network.load_checkpoint(checkpoint)
        load_s = perf_counter() - start
        network.fuse_arrays(small.infrared, small.visible, params, config)  # warm-up
        return {"paths": paths, "params": params, "config": config, "small": small, "load_s": load_s, "frames": []}

    def measure(self, state: dict, seconds: float) -> Outcome:
        params, config = state["params"], state["config"]
        frame_times = []
        start = perf_counter()
        while not frame_times or perf_counter() - start < seconds:
            ir_path, vis_path, out_path = state["paths"][len(frame_times) % len(state["paths"])]
            t0 = perf_counter()
            ir = images.read_image(ir_path)
            vis = images.read_image(vis_path)
            fused = network.fuse_arrays(ir, vis, params, config)
            images.write_image(out_path, fused)
            frame_times.append(perf_counter() - t0)
            scores = metrics.compute_metrics(ir, vis, fused)
            state["frames"].append((ir.shape, fused, out_path, scores))
        n = len(frame_times)
        layer = {"network.load_checkpoint_s": state["load_s"]}
        return Outcome(frame_times, n, 2 * n, wall=sum(frame_times), layer=layer)

    def check(self, state: dict) -> None:
        for shape, fused, out_path, scores in state["frames"]:
            checks.check_frame(fused, shape, images.read_image(out_path))
            checks.check_metric_ranges(scores)
        small = state["small"]
        fused = network.fuse_arrays(small.infrared, small.visible, state["params"], state["config"])
        arrays = {k: t.data for k, t in state["params"].items()}
        ref = reference_forward(small.infrared[None, None], small.visible[None, None], arrays, state["config"])
        checks.check_matches_reference_forward(fused, ref[0, 0])
        checks.check_self_similarity(metrics.metric_ssim(small.infrared, small.infrared))


# ---------------------------------------------------------------------------
# gradcheck-8


@dataclass
class Gradcheck:
    """``graphfusion gradcheck`` as the README documents it, seeded."""

    kind = "gradcheck"
    size: int = 8
    channels: int = 8
    nodes: int = 3
    loops: int = 3

    def config(self, seed: int) -> FusionConfig:
        # The config the CLI builds from these flags.
        return FusionConfig(channels=self.channels, nodes=self.nodes, loops=self.loops,
                            reduction=min(4, self.channels), seed=seed)

    def setup(self, seed: int, workdir: Path) -> dict:
        # Warm-up: the same command on a one-node, one-loop network; its verdict
        # is not checked (2-channel nets can fail, see CHANGES.md).
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["gradcheck", "--size", str(self.size), "--channels", "2", "--nodes", "1",
                      "--loops", "1", "--samples", "1", "--seed", str(seed)])
        return {"seed": seed}

    def argv(self, seed: int) -> list[str]:
        return ["gradcheck", "--size", str(self.size), "--channels", str(self.channels),
                "--nodes", str(self.nodes), "--loops", str(self.loops), "--seed", str(seed)]

    def measure(self, state: dict, seconds: float) -> Outcome:
        times, runs = [], []
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            out = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv(state["seed"]))
            times.append(perf_counter() - t0)
            runs.append((code, out.getvalue()))
        state["runs"] = runs
        groups = checks.expected_groups(self.config(state["seed"]))
        return Outcome(times, len(times), groups * len(times), wall=sum(times))

    def check(self, state: dict) -> None:
        for code, output in state["runs"]:
            checks.check_gradcheck_output(code, output, self.config(state["seed"]))


WORKLOADS = {"train-64": Train, "fuse-vga": Fuse, "gradcheck-8": Gradcheck}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
