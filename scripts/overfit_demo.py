#!/usr/bin/env python3
"""Overfit the network on one synthetic pair and watch the loss collapse.

A sanity experiment: with a single 64x64 pair the objective should drop by
an order of magnitude within a few hundred steps, and with the structural
terms disabled (--pixel-only) the fused image should approach the pixel
mean of the two inputs.  Writes the pair, the fused image before and after
training, and the step log.

    python3 scripts/overfit_demo.py --out-dir runs/overfit --steps 300
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from graphfusion import FusionConfig, ImagePair, fuse_arrays, init_params, train, write_image


def synthetic_pair(size: int) -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / (size - 1)
    ir = np.clip(
        0.7 * np.exp(-((yy - 0.3) ** 2 + (xx - 0.6) ** 2) / 0.05) + 0.15 * yy, 0.02, 0.98
    )
    vis = np.clip(
        0.4 + 0.3 * np.sin(2.0 * np.pi * 3 * xx) * np.cos(2.0 * np.pi * 2 * yy) * (yy > 0.4),
        0.02,
        0.98,
    )
    return ir.astype(np.float32), vis.astype(np.float32)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--channels", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log-every", type=int, default=25)
    parser.add_argument(
        "--pixel-only", action="store_true", help="drop the edge and structure terms"
    )
    args = parser.parse_args()

    config = replace(
        FusionConfig(),
        channels=args.channels,
        reduction=next(r for r in (4, 3, 2, 1) if args.channels % r == 0),
        crop=args.size,
        epochs=args.steps,
        seed=args.seed,
    )
    if args.pixel_only:
        config = replace(config, alpha=0.0, beta=0.0)
    ir, vis = synthetic_pair(args.size)
    pair = ImagePair("demo", ir, vis)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_image(args.out_dir / "ir.pgm", ir)
    write_image(args.out_dir / "vis.pgm", vis)
    write_image(
        args.out_dir / "fused_init.pgm",
        np.clip(fuse_arrays(ir, vis, init_params(config, seed=config.seed), config), 0.0, 1.0),
    )

    params, log = train(
        [pair],
        config,
        checkpoint_path=args.out_dir / "overfit.ckpt",
        max_steps=args.steps,
        log_every=args.log_every,
    )
    (args.out_dir / "log.csv").write_text(log.to_csv())
    fused = np.clip(fuse_arrays(ir, vis, params, config), 0.0, 1.0)
    write_image(args.out_dir / "fused.pgm", fused)

    first, last = log.records[0], log.records[-1]
    print(f"loss {first.total:.5f} -> {last.total:.5f} over {len(log.records)} steps")
    mad = float(np.abs(fused - (ir + vis) / 2.0).mean())
    print(f"mean absolute distance to the pixel mean: {mad:.4f}")
    print(f"artifacts in {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
