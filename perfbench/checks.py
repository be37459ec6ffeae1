"""Correctness checks, run outside the timed region.

Each check raises :class:`CheckFailed` with a message naming what is
wrong.  They compare with computations made apart from the code under
test (the float64 reference, a round trip through the image files, an
independent count of parameter groups) or test properties the method must
have (finite values, ranges, a falling loss).
"""

from __future__ import annotations

import math
import re

import numpy as np

from graphfusion import FusionConfig

LOSS_RTOL = 1e-4  # float32 tape against the float64 reference objective
FUSE_ATOL = 1e-4  # float32 fused frame against reference_forward
GRADCHECK_TOL = 1e-2  # the gradcheck CLI default, never raised


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_loss_matches_reference(tape_loss: float, reference: float) -> None:
    err = abs(tape_loss - reference)
    require(
        err <= LOSS_RTOL * max(abs(reference), 1.0),
        f"tape loss {tape_loss!r} differs from reference_loss {reference!r} by {err:.3e}",
    )


def check_training(losses: list[float], steps_per_epoch: int, params: dict[str, np.ndarray]) -> None:
    """Finite losses and parameters, and a lower mean loss in the last epoch than the first.

    Both epochs visit the same crops, so the comparison measures learning.
    """
    require(all(math.isfinite(v) for v in losses), f"non-finite training loss in {losses}")
    bad = [name for name, a in params.items() if not np.all(np.isfinite(a))]
    require(not bad, f"non-finite parameters after training: {bad}")
    require(len(losses) >= 2 * steps_per_epoch, f"{len(losses)} steps do not cover two epochs")
    first = float(np.mean(losses[:steps_per_epoch]))
    last = float(np.mean(losses[-steps_per_epoch:]))
    require(last < first, f"mean loss did not fall: first epoch {first:.6f}, last epoch {last:.6f}")


def check_frame(fused: np.ndarray, shape: tuple[int, int], read_back: np.ndarray) -> None:
    """A fused frame: right shape, finite, in [0, 1], and stored as its 8-bit quantization."""
    require(fused.shape == shape, f"fused frame has shape {fused.shape}, input is {shape}")
    require(bool(np.all(np.isfinite(fused))), "fused frame has non-finite pixels")
    require(float(fused.min()) >= 0.0 and float(fused.max()) <= 1.0, "fused frame leaves [0, 1]")
    expected = np.floor(np.clip(fused.astype(np.float64), 0.0, 1.0) * 255.0 + 0.5)
    stored = np.rint(read_back.astype(np.float64) * 255.0)
    require(
        read_back.shape == shape and np.array_equal(stored, expected),
        "written frame does not read back as the quantized fused frame",
    )


def check_matches_reference_forward(fused: np.ndarray, reference: np.ndarray) -> None:
    require(fused.shape == reference.shape, f"shape {fused.shape} vs reference {reference.shape}")
    err = float(np.max(np.abs(fused.astype(np.float64) - reference)))
    require(err <= FUSE_ATOL, f"fused frame differs from reference_forward by {err:.3e}")


def check_metric_ranges(values: dict[str, float]) -> None:
    limits = {"EN": (0.0, 8.0), "CC": (-1.0, 1.0), "SSIM": (-1.0, 1.0), "Qabf": (0.0, 1.0), "AG": (0.0, math.inf)}
    for name, (lo, hi) in limits.items():
        v = values.get(name, math.nan)
        require(lo <= v <= hi, f"metric {name} = {v!r} outside [{lo}, {hi}]")


def check_self_similarity(ssim: float) -> None:
    require(abs(ssim - 1.0) <= 1e-6, f"SSIM of a source against itself is {ssim!r}, not 1")


def expected_groups(config: FusionConfig) -> int:
    """Parameter groups (layers) of a config, counted from the paper's architecture.

    Per modality: two extraction convs, a salience conv and two FC layers;
    per graph loop one 1x1 conv per node, one intra edge conv (two or more
    nodes), one update conv, one leader conv, and per node one delivery conv
    in every loop that feeds a next one; across modalities one inter edge
    conv per loop; then one mixing conv per modality and two head convs.
    """
    per_modality = 2 + (3 if config.use_salience else 0)
    shared = 2
    if config.use_graph:
        stored = 1 if config.share_loop_params else config.loops
        for loop in range(1, stored + 1):
            delivers = config.use_leader and (loop < config.loops or (config.share_loop_params and config.loops > 1))
            per_modality += config.nodes + (config.nodes >= 2) + 2 + (config.nodes if delivers else 0)
            shared += 1
        per_modality += 1
    return 2 * per_modality + shared


_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s+rel_err (\S+)")


def check_gradcheck_output(code: int, output: str, config: FusionConfig) -> None:
    """The CLI passed every group of the config under the default tolerance."""
    rows = [m.groups() for m in map(_LINE.match, output.splitlines()) if m]
    failed = [name for status, name, _ in rows if status == "FAIL"]
    over = [name for _, name, err in rows if not float(err) < GRADCHECK_TOL]
    want = expected_groups(config)
    require(code == 0, f"gradcheck exited {code}")
    require(not failed and not over, f"gradcheck groups failed: {failed + over}")
    require(len(rows) == want, f"gradcheck reported {len(rows)} groups, the config has {want}")
    require(output.rstrip().endswith("gradcheck passed"), "gradcheck did not report a pass")


def check_counts_repeat(stored: dict, measured: dict, what: str) -> None:
    changed = {k: (stored[k], v) for k, v in measured.items() if k in stored and stored[k] != v}
    require(not changed, f"{what} counts changed between runs (before, now): {changed}")
