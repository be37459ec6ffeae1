"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from graphfusion.images import read_image
from graphfusion.network import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_make_toy_data_writes_pairs(tmp_path):
    out = tmp_path / "toy"
    proc = run_script("make_toy_data.py", "--out", str(out), "--pairs", "2", "--size", "24")
    assert proc.returncode == 0, proc.stderr
    for side in ("ir", "vis"):
        files = sorted(p.name for p in (out / side).iterdir())
        assert files == ["pair000.pgm", "pair001.pgm"]
        for name in files:
            assert read_image(out / side / name).shape == (24, 24)


def test_overfit_demo_trains_and_writes_artifacts(tmp_path):
    out = tmp_path / "overfit"
    proc = run_script(
        "overfit_demo.py", "--out-dir", str(out), "--steps", "2", "--size", "16", "--channels", "4"
    )
    assert proc.returncode == 0, proc.stderr
    assert "over 2 steps" in proc.stdout
    for name in ("ir.pgm", "vis.pgm", "fused_init.pgm", "fused.pgm"):
        assert read_image(out / name).shape == (16, 16)
    rows = (out / "log.csv").read_text().splitlines()
    assert rows[0].startswith("step,total") and len(rows) == 3
    params, config = load_checkpoint(out / "overfit.ckpt")
    assert config.channels == 4 and config.crop == 16
    assert params["head.conv2.weight"].shape == (1, 4, 3, 3)
