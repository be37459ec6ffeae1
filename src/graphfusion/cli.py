"""Command-line interface.

Subcommands: ``init-config``, ``train``, ``fuse``, ``eval``, ``gradcheck``.
Exit codes: 0 on success, 1 when a verification (gradcheck, divergence
guard) fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import SSIM_WINDOW, FusionConfig, write_default_config
from .gradcheck import check_parameter_groups
from .images import luma_chroma_to_rgb, pair_directory, read_image, rgb_to_chroma, to_gray, write_image
from .losses import loss_total
from .metrics import MetricReport, compute_metrics
from .network import CheckpointError, forward, fuse_arrays, init_params, load_checkpoint
from .reference import reference_loss
from .tensor import Tensor
from .trainer import TrainingDiverged, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write the documented default config")
    p.add_argument("path", type=Path)
    p.add_argument("--force", action="store_true", help="overwrite an existing file")

    p = sub.add_parser("train", help="train on a directory of image pairs")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--ir-dir", type=Path, required=True)
    p.add_argument("--vis-dir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint path, rewritten per epoch")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--epochs", type=int, default=None, help="override the config epoch count")
    p.add_argument("--log", type=Path, default=None, help="write the step log as CSV")
    p.add_argument("--log-every", type=int, default=50)

    p = sub.add_parser("fuse", help="fuse one image pair")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--ir", type=Path, required=True)
    p.add_argument("--vis", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--color", action="store_true", help="reattach visible chroma; needs a P6 visible image")

    p = sub.add_parser("eval", help="fuse a directory and report quality metrics")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--ir-dir", type=Path, required=True)
    p.add_argument("--vis-dir", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True, help="CSV output path")
    p.add_argument("--json", type=Path, default=None, help="also write the report as JSON")

    p = sub.add_parser("gradcheck", help="complex-step check of every parameter group")
    p.add_argument("--size", type=int, default=8, help="side of the random test pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--loops", type=int, default=3)
    p.add_argument("--samples", type=int, default=6, help="probed elements per parameter tensor")
    p.add_argument("--tol", type=float, default=1e-2, help="largest passing error per group, in (0, 1)")

    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_init_config(args: argparse.Namespace) -> int:
    if args.path.exists() and not args.force:
        return _fail(f"{args.path} exists, pass --force to overwrite")
    write_default_config(args.path)
    print(f"wrote {args.path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    try:
        config = FusionConfig.load(args.config)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load config {args.config}: {exc}")
    if args.seed is not None:
        config.seed = args.seed
    if args.epochs is not None:
        config.epochs = args.epochs
    try:
        config.validate()
        pairs = pair_directory(args.ir_dir, args.vis_dir)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        _, train_log = train(
            pairs, config, checkpoint_path=args.out, log_every=args.log_every
        )
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail(str(exc))
    if args.log is not None:
        args.log.write_text(train_log.to_csv())
    print(f"trained {len(train_log.records)} steps, checkpoint at {args.out}")
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    try:
        params, config = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError, ValueError) as exc:
        return _fail(f"cannot load checkpoint {args.checkpoint}: {exc}")
    try:
        ir = to_gray(read_image(args.ir))
        vis_img = read_image(args.vis)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    vis = to_gray(vis_img)
    if ir.shape != vis.shape:
        return _fail(f"size mismatch: infrared {ir.shape} vs visible {vis.shape}")
    if args.color and vis_img.ndim != 3:
        return _fail("--color needs a P6 visible image")
    fused = fuse_arrays(ir, vis, params, config)
    if args.color:
        cb, cr = rgb_to_chroma(vis_img)
        write_image(args.out, luma_chroma_to_rgb(fused, cb, cr))
    else:
        write_image(args.out, fused)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        params, config = load_checkpoint(args.checkpoint)
        pairs = pair_directory(args.ir_dir, args.vis_dir)
    except (OSError, CheckpointError, ValueError) as exc:
        return _fail(str(exc))
    # SSIM needs a full window; check every pair before fusing any.
    for pair in pairs:
        h, w = pair.infrared.shape
        if min(h, w) < SSIM_WINDOW:
            return _fail(
                f"pair {pair.pair_id!r}: image {h}x{w} smaller than the SSIM window {SSIM_WINDOW}x{SSIM_WINDOW}"
            )
    report = MetricReport()
    for pair in pairs:
        fused = fuse_arrays(pair.infrared, pair.visible, params, config)
        report.add(pair.pair_id, compute_metrics(pair.infrared, pair.visible, fused))
    args.report.write_text(report.to_csv())
    if args.json is not None:
        args.json.write_text(report.to_json())
    mean = report.mean()
    print(f"evaluated {len(report.rows)} pairs -> {args.report}")
    print("mean: " + " ".join(f"{k}={v:.4f}" for k, v in mean.items()))
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.size < 4:
        return _fail("--size must be at least 4")
    if args.samples < 1:
        return _fail("--samples must be at least 1")
    # The error is relative to each group's gradient scale, so a tolerance of
    # 1 or more accepts derivatives that are entirely wrong.
    if not 0.0 < args.tol < 1.0:
        return _fail(f"--tol must be between 0 and 1 (exclusive), got {args.tol:g}")
    config = FusionConfig(
        channels=args.channels,
        nodes=args.nodes,
        loops=args.loops,
        # The largest bottleneck ratio up to 4 that divides the channel count.
        reduction=next(r for r in (4, 3, 2, 1) if args.channels % r == 0),
        seed=args.seed,
    )
    try:
        config.validate()
    except ValueError as exc:
        return _fail(str(exc))
    params = init_params(config)
    rng = np.random.default_rng(args.seed)
    ir = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, args.size, args.size)).astype(np.float32))
    vis = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, args.size, args.size)).astype(np.float32))
    window = SSIM_WINDOW if args.size >= SSIM_WINDOW else max(3, args.size - (1 - args.size % 2))

    def objective() -> Tensor:
        fused = forward(ir, vis, params, config)
        return loss_total(fused, ir, vis, config, ssim_window=window)

    def objective64(arrays) -> np.ndarray:
        return reference_loss(ir.data, vis.data, arrays, config, ssim_window=window)

    reports = check_parameter_groups(
        objective,
        params,
        samples_per_tensor=args.samples,
        seed=args.seed,
        reference=objective64,
    )
    worst = 0.0
    failed = 0
    # A group whose probed derivatives are all exactly 0 on both sides (dead
    # ReLU units, say) compares nothing: it passes, but is flagged.
    unchecked = [group for group in sorted(reports) if reports[group].scale == 0.0]
    for group in sorted(reports):
        rep = reports[group]
        status = "PASS" if rep.error < args.tol else "FAIL"
        failed += status == "FAIL"
        worst = max(worst, rep.error)
        print(
            f"{status} {group:<28s} rel_err {rep.error:.3e}"
            f" (scale {rep.scale:.3e}, {rep.samples} samples)"
            + (" unchecked: all probed derivatives are 0" if group in unchecked else "")
        )
    if unchecked:
        print(f"unchecked, all probed derivatives 0: {', '.join(unchecked)}")
    print(f"worst rel_err {worst:.3e} over {len(reports)} groups, tolerance {args.tol:g}")
    if failed:
        print(f"gradcheck FAILED for {failed} group(s)", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


_COMMANDS = {
    "init-config": cmd_init_config,
    "train": cmd_train,
    "fuse": cmd_fuse,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
