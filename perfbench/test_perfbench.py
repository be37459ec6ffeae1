"""The benchmark's own tests: checks catch wrong outputs, spans reach every layer.

    python3 -m pytest perfbench -q

The workloads run here on small inputs; the sizes the benchmark uses are
the dataclass defaults in ``workloads.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from graphfusion import FusionConfig, cli, parameter_shapes  # noqa: E402
from graphfusion.gradcheck import default_group  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SMALL = {
    "train-64": workloads.Train(
        pairs=1, size=(24, 24), min_steps=4, config=FusionConfig(channels=4, reduction=2, crop=16, stride=8)
    ),
    "fuse-vga": workloads.Fuse(pairs=1, size=(24, 40), small=(12, 20)),
    "gradcheck-8": workloads.Gradcheck(size=6, channels=4, nodes=2, loops=3),
}

TAPE = {"tensor.records", "tensor.backward_s", "tensor.clear_s"}
FORWARD = {
    *(f"ops.{op}.{what}" for op in ("conv2d", "sigmoid", "upsample_bilinear", "adaptive_avgpool2d",
                                    "concat_channels", "other") for what in ("calls", "fwd_s")),
    "ops.conv2d.gflop", "backbone.extract_s", "network.forward_s", "network.head_s", "graph.run_graph_s",
    *(f"graph.{s}_s" for s in ("generate_nodes", "difference_edges", "pass_message", "update_node",
                               "form_leader", "deliver")),
}
BACKWARD = {f"ops.{op}.bwd_s" for op in ("conv2d", "sigmoid", "upsample_bilinear", "adaptive_avgpool2d",
                                         "concat_channels", "other")}
TIMING = {"trace.op_s"}
# The per-layer metrics each workload must move, so must read non-zero.
USES = {
    "train-64": TAPE | FORWARD | BACKWARD | TIMING | {
        "losses.loss_components_s", "trainer.adam_step_s", "trainer.sample_crops_s",
        "network.save_checkpoint_s",
    },
    "fuse-vga": FORWARD | TIMING | {
        "backbone.peak_mb", "graph.peak_mb", "images.read_image_s", "images.write_image_s",
        "network.load_checkpoint_s", "metrics.compute_metrics_s",
    },
    "gradcheck-8": TAPE | FORWARD | BACKWARD | TIMING | {
        "reference.calls", "reference.reference_loss_s", "gradcheck.analytic_s", "gradcheck.probes",
    },
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each small workload, set up, measured under the tracer and checked."""
    out = {}
    for name, workload in SMALL.items():
        state = workload.setup(3, tmp_path_factory.mktemp(name))
        tracer = Tracer(peak_memory=workload.kind == "fuse").install()
        try:
            outcome = workload.measure(state, 0.0)
        finally:
            tracer.remove()
        workload.check(state)
        metrics = tracer.metrics(workload.kind, outcome.n_ops, outcome.op_times, outcome.wall, outcome.layer)
        out[name] = (outcome, {k: v["value"] for k, v in metrics.items()}, tracer)
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layers_used_by_a_workload_read_nonzero(traced, name):
    _, values, _ = traced[name]
    assert set(values) == set(PER_LAYER)
    assert [k for k in sorted(USES[name]) if not values[k] > 0] == []


def test_layers_a_workload_bypasses_read_zero(traced):
    _, fuse, _ = traced["fuse-vga"]
    assert [k for k in BACKWARD | TAPE if fuse[k]] == []
    for name in ("train-64", "gradcheck-8"):
        assert traced[name][1]["backbone.peak_mb"] == 0
        assert traced[name][1]["images.read_image_s"] == 0


def test_top_level_spans_add_up_to_the_operation(traced):
    for name, (outcome, values, _) in traced.items():
        per_op = outcome.wall / outcome.n_ops
        assert abs(values["trace.unaccounted_s"]) < 0.1 * per_op, name


def test_tracer_restores_every_binding(traced):
    from graphfusion import network, ops, tensor, trainer

    assert network.extract.__module__ == "graphfusion.backbone"
    assert trainer.forward is network.forward
    assert ops.conv2d.__module__ == "graphfusion.ops" and not hasattr(ops.conv2d, "__wrapped__")
    assert tensor.Tape.backward.__qualname__ == "Tape.backward"


def test_exact_counts_repeat(traced, tmp_path):
    workload = SMALL["train-64"]
    state = workload.setup(3, tmp_path)
    tracer = Tracer().install()
    try:
        outcome = workload.measure(state, 0.0)
    finally:
        tracer.remove()
    first = traced["train-64"][2].exact_counts(traced["train-64"][0].n_ops)
    assert tracer.exact_counts(outcome.n_ops) == first
    assert isinstance(first["tensor.records"], int) and isinstance(first["ops.conv2d.flop"], int)


def test_stored_counts_catch_a_change(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HERE", tmp_path / "bench")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    counts = {"tensor.records": 10, "ops.conv2d": 4, "ops.conv2d.flop": 100, "reference.calls": 0,
              "gradcheck.probes": 0}
    run.check_counts("w", 1, counts)
    run.check_counts("w", 2, counts)
    with pytest.raises(checks.CheckFailed):
        run.check_counts("w", 1, {**counts, "ops.conv2d": 5})
    run.check_counts("w", 3, {**counts, "reference.calls": 7})
    with pytest.raises(checks.CheckFailed):
        run.check_counts("w", 3, {**counts, "reference.calls": 8})
    # Changed sources may change the counts.
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    run.check_counts("w", 1, {**counts, "ops.conv2d": 5})


# ---------------------------------------------------------------------------
# every check fails on a deliberately wrong output


def test_loss_reference_check():
    checks.check_loss_matches_reference(15.0, 15.0 + 1e-5)
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_matches_reference(15.0, 15.01)


def test_training_check():
    params = {"w": np.ones(3, dtype=np.float32)}
    checks.check_training([3.0, 2.9, 2.5, 2.4], 2, params)
    with pytest.raises(checks.CheckFailed):
        checks.check_training([3.0, float("nan"), 2.5, 2.4], 2, params)
    with pytest.raises(checks.CheckFailed):
        checks.check_training([3.0, 2.9, 2.5, 2.4], 2, {"w": np.array([1.0, np.inf], dtype=np.float32)})
    with pytest.raises(checks.CheckFailed):
        checks.check_training([2.5, 2.4, 3.0, 2.9], 2, params)
    with pytest.raises(checks.CheckFailed):
        checks.check_training([3.0, 2.9, 2.5], 2, params)


def test_frame_check():
    from graphfusion import images

    rng = np.random.default_rng(0)
    fused = rng.uniform(0.0, 1.0, size=(6, 10)).astype(np.float32)
    read_back = images.dequantize(images.quantize(fused))
    checks.check_frame(fused, (6, 10), read_back)
    with pytest.raises(checks.CheckFailed):
        checks.check_frame(fused, (10, 6), read_back)
    for wrong in (np.where(fused > 0.5, np.nan, fused), fused + 0.6, fused - 0.6):
        with pytest.raises(checks.CheckFailed):
            checks.check_frame(wrong.astype(np.float32), (6, 10), read_back)
    off_by_one = read_back.copy()
    off_by_one[2, 3] = (np.rint(off_by_one[2, 3] * 255) + (1 if off_by_one[2, 3] < 0.5 else -1)) / 255
    with pytest.raises(checks.CheckFailed):
        checks.check_frame(fused, (6, 10), off_by_one)


def test_reference_forward_check():
    ref = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    checks.check_matches_reference_forward(ref.astype(np.float32), ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_matches_reference_forward((ref + 1e-3).astype(np.float32), ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_matches_reference_forward(ref.T.astype(np.float32), ref.T[:, :2])


def test_metric_range_and_self_similarity_checks():
    good = {"EN": 6.5, "AG": 0.02, "CC": 0.4, "SCD": 0.9, "Qabf": 0.3, "SSIM": 0.6}
    checks.check_metric_ranges(good)
    for key, value in (("EN", 8.5), ("AG", -0.1), ("CC", 1.2), ("Qabf", -0.01), ("SSIM", float("nan"))):
        with pytest.raises(checks.CheckFailed):
            checks.check_metric_ranges({**good, key: value})
    checks.check_self_similarity(1.0 - 1e-9)
    with pytest.raises(checks.CheckFailed):
        checks.check_self_similarity(0.999)


def test_expected_groups_counts_the_architecture():
    for config in (
        FusionConfig(),
        FusionConfig(channels=8, nodes=3, loops=3),
        FusionConfig(nodes=1, loops=1, use_salience=False),
        FusionConfig(nodes=2, loops=4, use_leader=False),
        FusionConfig(nodes=3, loops=3, share_loop_params=True),
        FusionConfig(use_graph=False),
    ):
        want = len({default_group(name) for name in parameter_shapes(config)})
        assert checks.expected_groups(config) == want, config


def test_gradcheck_output_check():
    workload = workloads.Gradcheck(size=4, channels=2, nodes=1, loops=1)
    config = workload.config(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workload.argv(0) + ["--samples", "1"])
    text = out.getvalue()
    checks.check_gradcheck_output(code, text, config)
    first = next(line for line in text.splitlines() if line.startswith("PASS"))
    wrong = [
        (1, text),
        (code, text.replace(first, "FAIL" + first[4:])),
        (code, text.replace(first + "\n", "")),
        (code, text.replace(first, first.split(" rel_err")[0] + " rel_err 2.000e-02 (scale 1)")),
        (code, text.replace("gradcheck passed", "")),
    ]
    for wrong_code, wrong_text in wrong:
        with pytest.raises(checks.CheckFailed):
            checks.check_gradcheck_output(wrong_code, wrong_text, config)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-64", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
