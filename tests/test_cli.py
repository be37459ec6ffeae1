"""End-to-end coverage of every subcommand and the exit-code contract."""

import json

import numpy as np
import pytest

from graphfusion import cli, ops
from graphfusion.config import FusionConfig
from graphfusion.gradcheck import check_parameter_groups
from graphfusion.images import parse_netpbm, read_image, write_image
from graphfusion.metrics import METRIC_COLUMNS
from graphfusion.network import init_params, load_checkpoint, save_checkpoint
from graphfusion.tensor import Tensor, accumulate, record_op


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Three 16x16 pairs, a small config file, and an untrained checkpoint."""
    root = tmp_path_factory.mktemp("toy")
    ir_dir = root / "ir"
    vis_dir = root / "vis"
    ir_dir.mkdir()
    vis_dir.mkdir()
    rng = np.random.default_rng(42)
    for stem in ("p0", "p1", "p2"):
        write_image(ir_dir / f"{stem}.pgm", rng.uniform(size=(16, 16)).astype(np.float32))
        write_image(vis_dir / f"{stem}.pgm", rng.uniform(size=(16, 16)).astype(np.float32))

    config = FusionConfig(
        channels=4, nodes=2, loops=3, reduction=4, batch=2, epochs=1, crop=16, stride=8, seed=0
    )
    config_path = root / "config.json"
    config_path.write_text(config.to_json())

    ckpt = root / "init.ckpt"
    save_checkpoint(ckpt, init_params(config, seed=0), config)
    return {"root": root, "ir": ir_dir, "vis": vis_dir, "config": config_path, "ckpt": ckpt}


class TestInitConfig:
    def test_writes_documented_defaults(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        assert cli.main(["init-config", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        loaded = FusionConfig.load(path)
        assert loaded == FusionConfig()
        assert set(doc["_doc"]) == {k for k in doc if not k.startswith("_")}

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}")
        assert cli.main(["init-config", str(path)]) == 2
        assert "--force" in capsys.readouterr().err
        assert cli.main(["init-config", str(path), "--force"]) == 0


class TestTrain:
    def test_trains_and_writes_artifacts(self, toy, tmp_path, capsys):
        ckpt = tmp_path / "trained.ckpt"
        log = tmp_path / "log.csv"
        code = cli.main(
            [
                "train",
                "--config", str(toy["config"]),
                "--ir-dir", str(toy["ir"]),
                "--vis-dir", str(toy["vis"]),
                "--out", str(ckpt),
                "--log", str(log),
                "--log-every", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # 3 pairs x 1 window, batch 2 -> 2 steps in the single epoch.
        assert "trained 2 steps" in out
        assert "step 0 total" in out
        params, config = load_checkpoint(ckpt)
        assert config.channels == 4
        lines = log.read_text().splitlines()
        assert lines[0] == "step,total,mse,edge,ssim,lr"
        assert len(lines) == 3

    def test_seed_and_epoch_overrides(self, toy, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        base = [
            "train",
            "--config", str(toy["config"]),
            "--ir-dir", str(toy["ir"]),
            "--vis-dir", str(toy["vis"]),
        ]
        assert cli.main(base + ["--out", str(a), "--seed", "7", "--epochs", "2"]) == 0
        assert cli.main(base + ["--out", str(b), "--seed", "7", "--epochs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        _, config = load_checkpoint(a)
        assert config.seed == 7 and config.epochs == 2

    def test_bad_config_path_is_usage_error(self, toy, tmp_path, capsys):
        code = cli.main(
            [
                "train",
                "--config", str(tmp_path / "missing.json"),
                "--ir-dir", str(toy["ir"]),
                "--vis-dir", str(toy["vis"]),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        assert "cannot load config" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("use_graph", "false"), ("channels", "16")])
    def test_mistyped_config_value_is_usage_error(self, toy, tmp_path, capsys, key, value):
        data = json.loads(toy["config"].read_text())
        data[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = cli.main(
            [
                "train",
                "--config", str(bad),
                "--ir-dir", str(toy["ir"]),
                "--vis-dir", str(toy["vis"]),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_empty_data_dir_is_usage_error(self, toy, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli.main(
            [
                "train",
                "--config", str(toy["config"]),
                "--ir-dir", str(empty),
                "--vis-dir", str(toy["vis"]),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFuse:
    def test_writes_valid_gray_output(self, toy, tmp_path, capsys):
        out = tmp_path / "fused.pgm"
        code = cli.main(
            [
                "fuse",
                "--checkpoint", str(toy["ckpt"]),
                "--ir", str(toy["ir"] / "p0.pgm"),
                "--vis", str(toy["vis"] / "p0.pgm"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n16 16\n255\n")
        assert parse_netpbm(blob).shape == (16, 16)

    def test_color_mode_reattaches_chroma(self, toy, tmp_path):
        rng = np.random.default_rng(1)
        rgb = rng.uniform(size=(16, 16, 3)).astype(np.float32)
        vis_path = tmp_path / "color.ppm"
        write_image(vis_path, rgb)
        out = tmp_path / "fused.ppm"
        code = cli.main(
            [
                "fuse",
                "--checkpoint", str(toy["ckpt"]),
                "--ir", str(toy["ir"] / "p0.pgm"),
                "--vis", str(vis_path),
                "--out", str(out),
                "--color",
            ]
        )
        assert code == 0
        assert read_image(out).shape == (16, 16, 3)

    def test_color_mode_requires_p6_visible(self, toy, tmp_path, capsys):
        code = cli.main(
            [
                "fuse",
                "--checkpoint", str(toy["ckpt"]),
                "--ir", str(toy["ir"] / "p0.pgm"),
                "--vis", str(toy["vis"] / "p0.pgm"),
                "--out", str(tmp_path / "x.ppm"),
                "--color",
            ]
        )
        assert code == 2
        assert "P6" in capsys.readouterr().err

    def test_size_mismatch_rejected(self, toy, tmp_path, capsys):
        small = tmp_path / "small.pgm"
        write_image(small, np.zeros((8, 8), dtype=np.float32))
        code = cli.main(
            [
                "fuse",
                "--checkpoint", str(toy["ckpt"]),
                "--ir", str(toy["ir"] / "p0.pgm"),
                "--vis", str(small),
                "--out", str(tmp_path / "x.pgm"),
            ]
        )
        assert code == 2
        assert "size mismatch" in capsys.readouterr().err

    def test_corrupt_checkpoint_rejected(self, toy, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX not a checkpoint")
        code = cli.main(
            [
                "fuse",
                "--checkpoint", str(bad),
                "--ir", str(toy["ir"] / "p0.pgm"),
                "--vis", str(toy["vis"] / "p0.pgm"),
                "--out", str(tmp_path / "x.pgm"),
            ]
        )
        assert code == 2
        assert "cannot load checkpoint" in capsys.readouterr().err


class TestEval:
    def test_report_layout(self, toy, tmp_path, capsys):
        report = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        code = cli.main(
            [
                "eval",
                "--checkpoint", str(toy["ckpt"]),
                "--ir-dir", str(toy["ir"]),
                "--vis-dir", str(toy["vis"]),
                "--report", str(report),
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "evaluated 3 pairs" in out
        assert "mean:" in out
        lines = report.read_text().splitlines()
        assert lines[0] == "pair_id," + ",".join(METRIC_COLUMNS)
        assert [l.split(",")[0] for l in lines[1:]] == ["p0", "p1", "p2", "mean"]
        doc = json.loads(json_path.read_text())
        assert set(doc["pairs"]) == {"p0", "p1", "p2"}
        for column in METRIC_COLUMNS:
            vals = [doc["pairs"][p][column] for p in ("p0", "p1", "p2")]
            assert doc["mean"][column] == pytest.approx(np.mean(vals), rel=1e-12)

    def test_missing_directory_is_usage_error(self, toy, tmp_path, capsys):
        code = cli.main(
            [
                "eval",
                "--checkpoint", str(toy["ckpt"]),
                "--ir-dir", str(tmp_path / "nope"),
                "--vis-dir", str(toy["vis"]),
                "--report", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_pairs_below_ssim_window_rejected_before_fusing(self, toy, tmp_path, capsys, monkeypatch):
        ir_dir, vis_dir = tmp_path / "ir", tmp_path / "vis"
        ir_dir.mkdir()
        vis_dir.mkdir()
        rng = np.random.default_rng(0)
        for stem in ("a", "tiny"):
            write_image(ir_dir / f"{stem}.pgm", rng.uniform(size=(8, 8)).astype(np.float32))
            write_image(vis_dir / f"{stem}.pgm", rng.uniform(size=(8, 8)).astype(np.float32))
        fused = []
        monkeypatch.setattr(cli, "fuse_arrays", lambda *args: fused.append(args))
        report = tmp_path / "r.csv"
        code = cli.main(
            [
                "eval",
                "--checkpoint", str(toy["ckpt"]),
                "--ir-dir", str(ir_dir),
                "--vis-dir", str(vis_dir),
                "--report", str(report),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "'a'" in captured.err and "8x8" in captured.err and "11x11" in captured.err
        assert not fused
        assert not report.exists()


class TestGradcheck:
    ARGS = ["gradcheck", "--size", "6", "--channels", "4", "--nodes", "2", "--loops", "2", "--samples", "2"]

    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert "worst rel_err" in out
        assert "FAIL" not in out

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        assert cli.main(self.ARGS + ["--tol", "1e-14"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "gradcheck FAILED" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1"])
    def test_tolerance_outside_unit_interval_rejected(self, tol, capsys):
        # The error is relative to the group scale, so at 1 or more a check
        # cannot fail; the usage error comes before any probe.
        argv = ["gradcheck", "--size", "5", "--channels", "2", "--nodes", "1", "--loops", "1",
                "--samples", "1", "--tol", tol]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert captured.out == ""

    def test_wrong_backward_fails_with_exit_1(self, capsys, monkeypatch):
        # A sigmoid whose backward is 5% too large: the float64 reference is
        # untouched, so every group that a sigmoid gate feeds must fail.
        def sigmoid_with_wrong_backward(x):
            half = np.float32(0.5)
            out = half * np.tanh(half * x.data) + half

            def backward(g):
                accumulate(x, np.float32(1.05) * g * out * (1.0 - out))

            return record_op(out, (x,), backward)

        monkeypatch.setattr(ops, "sigmoid", sigmoid_with_wrong_backward)
        assert cli.main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "gradcheck FAILED" in captured.err

    def test_tiny_size_rejected(self, capsys):
        assert cli.main(["gradcheck", "--size", "2"]) == 2
        assert "--size" in capsys.readouterr().err

    def test_zero_samples_rejected(self, capsys):
        # With no samples a group would be checked against nothing and pass.
        argv = ["gradcheck", "--size", "5", "--channels", "2", "--nodes", "1", "--loops", "1", "--samples", "0"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "passed" not in captured.out
        params = {"w": Tensor(np.ones(3, dtype=np.float32), requires_grad=True)}
        with pytest.raises(ValueError, match="samples_per_tensor"):
            check_parameter_groups(lambda: ops.reduce_sum(params["w"]), params, lambda a: 0.0, samples_per_tensor=0)

    @pytest.mark.parametrize(
        "channels,seed", [(2, 1), (2, 2), (2, 3), (6, 1)], ids=["1", "2", "3", "6-channels"]
    )
    def test_two_channel_net_passes(self, channels, seed, capsys):
        # Two channels leave many ReLU and max-pool inputs exactly tied, so
        # probes sit on kinks; the reference must take the tape's branch there.
        # Six channels take bottleneck ratio 3, the largest up to 4 dividing 6.
        argv = ["gradcheck", "--size", "5", "--channels", str(channels), "--nodes", "1", "--loops", "3",
                "--samples", "1", "--seed", str(seed)]
        assert cli.main(argv) == 0, capsys.readouterr().out

    def test_all_zero_group_is_flagged_not_failed(self, capsys):
        # At seed 0 both hidden units of salience.ir.fc1 are dead, so the tape
        # and the reference agree on exactly 0 and the layer is never compared.
        argv = ["gradcheck", "--size", "8", "--channels", "8", "--nodes", "3", "--loops", "3"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.split()[1] == "salience.ir.fc1")
        assert row.startswith("PASS") and row.endswith("unchecked: all probed derivatives are 0")
        flagged = [line for line in lines if line.startswith("unchecked")]
        assert len(flagged) == 1 and "salience.ir.fc1" in flagged[0]
        assert lines.index(flagged[0]) < len(lines) - 2
        assert lines[-1] == "gradcheck passed"


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])
        assert exc.value.code == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
