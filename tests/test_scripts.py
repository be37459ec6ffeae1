"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def digest(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("digest") / "digest.json"
    proc = run_script("numerics_digest.py", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


def test_numerics_digest_of_a_tree_against_itself_reads_identical(digest):
    proc = run_script("numerics_digest.py", "--compare", str(digest), str(digest))
    assert proc.returncode == 0, proc.stdout
    *lines, summary = proc.stdout.splitlines()
    # 4 losses, 130 parameter gradients, the record count, the ReLU signs,
    # the 480x640 fuse, the checkpoint and the gradcheck report.
    assert summary == "139 identical, 0 differ, 0 flipped ReLUs"
    assert [line for line in lines if not line.endswith(": identical")] == []
    digested = {"loss.total", "tape.records", "relu.signs", "fuse_arrays.480x640", "checkpoint.default"}
    digested.add("gradcheck.report")
    assert {f"{name}: identical" for name in digested} <= set(lines)


def test_numerics_digest_names_exactly_the_perturbed_array(digest, tmp_path):
    entries = json.loads(digest.read_text())
    arrays = dict(np.load(digest.with_suffix(".npz")))
    name = "grad.graph.mix.vis.weight"
    grad = arrays[name].copy()
    # Doubling the largest entry moves it by exactly the largest |entry|.
    grad.flat[np.abs(grad).argmax()] *= 2
    arrays[name] = grad
    entries[name]["sha256"] = hashlib.sha256(grad.tobytes()).hexdigest()
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(entries))
    np.savez(perturbed.with_suffix(".npz"), **arrays)
    proc = run_script("numerics_digest.py", "--compare", str(digest), str(perturbed))
    assert proc.returncode == 1, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert summary == f"138 identical, 1 differ, 0 flipped ReLUs, largest relative |d| 1.000e+00 ({name})"
    (line,) = [line for line in lines if not line.endswith(": identical")]
    assert line.startswith(f"{name}: max |d| ") and line.endswith(" (1.000e+00)")


def test_numerics_digest_summary_names_the_largest_relative_difference(digest, tmp_path):
    # Three arrays move by 1/4, 1 and 1/2 of their largest entry, and the
    # checkpoint, which has no ratio, differs too; the summary names the
    # array that moved most against its own largest entry.
    entries = json.loads(digest.read_text())
    arrays = dict(np.load(digest.with_suffix(".npz")))
    moves = {"grad.graph.mix.vis.weight": 0.25, "grad.head.conv1.weight": 1.0, "loss.total": 0.5}
    for name, factor in moves.items():
        array = arrays[name].copy()
        array.flat[np.abs(array).argmax()] *= 1 + factor
        arrays[name] = array
        entries[name]["sha256"] = hashlib.sha256(array.tobytes()).hexdigest()
    entries["checkpoint.default"]["sha256"] = "0" * 64
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(entries))
    np.savez(moved.with_suffix(".npz"), **arrays)
    proc = run_script("numerics_digest.py", "--compare", str(digest), str(moved))
    assert proc.returncode == 1, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert summary == "135 identical, 4 differ, 0 flipped ReLUs, largest relative |d| 1.000e+00 (grad.head.conv1.weight)"
    ratios = {line.split(":")[0]: line.rsplit(" (", 1)[1] for line in lines if " max |d| " in line}
    assert ratios == {"grad.graph.mix.vis.weight": "2.500e-01)", "grad.head.conv1.weight": "1.000e+00)", "loss.total": "5.000e-01)"}


def test_numerics_digest_shows_both_values_of_a_changed_count_and_checkpoint(digest, tmp_path):
    entries = json.loads(digest.read_text())
    records = entries["tape.records"]["text"]
    entries["tape.records"] = {"sha256": hashlib.sha256(b"1").hexdigest(), "text": "1"}
    before = entries["checkpoint.default"]["sha256"]
    entries["checkpoint.default"]["sha256"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(entries))
    np.savez(changed.with_suffix(".npz"), **np.load(digest.with_suffix(".npz")))
    proc = run_script("numerics_digest.py", "--compare", str(digest), str(changed))
    assert proc.returncode == 1, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert summary == "137 identical, 2 differ, 0 flipped ReLUs"
    assert [line for line in lines if not line.endswith(": identical")] == [
        f"checkpoint.default: sha256 {before} -> {'0' * 64}",
        f"tape.records: {records} -> 1",
    ]


def test_numerics_digest_counts_flipped_relu_inputs(digest, tmp_path):
    entries = json.loads(digest.read_text())
    arrays = dict(np.load(digest.with_suffix(".npz")))
    inputs = entries["relu.signs"]["inputs"]
    signs = np.unpackbits(arrays["relu.signs"], count=inputs).astype(bool)
    assert signs.any() and not signs.all()
    signs[[0, inputs // 2, inputs - 1]] ^= True
    arrays["relu.signs"] = np.packbits(signs)
    entries["relu.signs"]["sha256"] = hashlib.sha256(arrays["relu.signs"].tobytes()).hexdigest()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(entries))
    np.savez(edited.with_suffix(".npz"), **arrays)
    proc = run_script("numerics_digest.py", "--compare", str(digest), str(edited))
    assert proc.returncode == 1, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert summary == "138 identical, 1 differ, 3 flipped ReLUs"
    assert [line for line in lines if not line.endswith(": identical")] == [f"relu.signs: 3 of {inputs} flipped sign"]
