"""Optimizer math, crop sampling, determinism, and the training loop."""

import dataclasses

import numpy as np
import pytest

from graphfusion import trainer
from graphfusion.config import FusionConfig
from graphfusion.images import ImagePair
from graphfusion.network import NetworkParams, init_params, load_checkpoint
from graphfusion.tensor import Tensor
from graphfusion.trainer import (
    TrainingDiverged,
    TrainLog,
    LogRecord,
    adam_step,
    crop_windows,
    init_adam,
    learning_rate,
    sample_crops,
    train,
)


def tiny_config(**overrides) -> FusionConfig:
    base = dict(channels=4, nodes=2, loops=3, reduction=4, crop=16, stride=8, batch=2, epochs=4)
    base.update(overrides)
    return dataclasses.replace(FusionConfig(), **base)


def make_pair(seed=0, h=24, w=24, pair_id="t0") -> ImagePair:
    rng = np.random.default_rng(seed)
    return ImagePair(
        pair_id=pair_id,
        infrared=rng.uniform(size=(h, w)).astype(np.float32),
        visible=rng.uniform(size=(h, w)).astype(np.float32),
    )


class TestCropSampling:
    def test_stride_grid_window_count(self):
        pair = make_pair(h=72, w=72)
        windows = crop_windows([pair], crop=64, stride=8)
        assert windows == [(0, 0, 0), (0, 0, 8), (0, 8, 0), (0, 8, 8)]

    def test_exact_fit_yields_single_window(self):
        pair = make_pair(h=64, w=64)
        assert crop_windows([pair], crop=64, stride=8) == [(0, 0, 0)]

    def test_small_pairs_skipped_with_warning(self, caplog):
        small = make_pair(h=32, w=32, pair_id="small")
        big = make_pair(h=64, w=64, pair_id="big")
        with caplog.at_level("WARNING"):
            windows = crop_windows([small, big], crop=64, stride=8)
        assert windows == [(1, 0, 0)]
        assert "small" in caplog.text

    def test_batches_cover_every_window_once(self):
        pair = make_pair(h=32, w=24)
        batches = sample_crops([pair], crop=16, stride=8, batch=2, seed=0)
        # 3 rows x 2 cols of windows = 6 crops -> 3 full batches of 2.
        assert [b[0].shape for b in batches] == [(2, 1, 16, 16)] * 3

    def test_partial_final_batch_kept(self):
        pair = make_pair(h=24, w=24)
        batches = sample_crops([pair], crop=16, stride=8, batch=4, seed=0)
        # 2x2 windows with batch 4 fit one batch; batch 3 leaves a remainder.
        assert [b[0].shape[0] for b in batches] == [4]
        batches = sample_crops([pair], crop=16, stride=8, batch=3, seed=0)
        assert [b[0].shape[0] for b in batches] == [3, 1]

    def test_shuffle_is_seeded(self):
        pair = make_pair(h=40, w=40)
        a = sample_crops([pair], 16, 8, 2, seed=5)
        b = sample_crops([pair], 16, 8, 2, seed=5)
        c = sample_crops([pair], 16, 8, 2, seed=6)
        for (ia, _), (ib, _) in zip(a, b):
            np.testing.assert_array_equal(ia, ib)
        assert any(not np.array_equal(ia, ic) for (ia, _), (ic, _) in zip(a, c))

    def test_no_windows_is_error(self):
        with pytest.raises(ValueError, match="no 64x64 windows"):
            sample_crops([make_pair(h=32, w=32)], 64, 8, 2, seed=0)

    def test_crops_slice_the_source_images(self):
        pair = make_pair(h=24, w=24)
        (ir, vis), *_ = sample_crops([pair], crop=16, stride=8, batch=1, seed=1)
        found = False
        for y in (0, 8):
            for x in (0, 8):
                if np.array_equal(ir[0, 0], pair.infrared[y : y + 16, x : x + 16]):
                    np.testing.assert_array_equal(vis[0, 0], pair.visible[y : y + 16, x : x + 16])
                    found = True
        assert found


def single_param(value, grad) -> NetworkParams:
    # np.array (not asarray): Tensor aliases float32 input, and adam_step
    # mutates in place, so the caller's array must stay untouched.
    t = Tensor(np.array(value, dtype=np.float32), requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float32)
    return NetworkParams(tensors={"w": t}, seed=0)


class TestAdam:
    def test_first_step_closed_form(self):
        # With t=1 the bias corrections cancel: delta = lr * g / (|g| + eps).
        params = single_param([1.0, -2.0, 0.5], [0.3, -0.1, 0.0])
        state = init_adam(params)
        adam_step(params, state, lr=0.01)
        g = np.array([0.3, -0.1, 0.0])
        expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["w"].data, expected, rtol=1e-5, atol=1e-7)
        assert state.t == 1

    def test_decoupled_weight_decay_shrinks_before_update(self):
        params = single_param([2.0], [0.0])
        state = init_adam(params)
        adam_step(params, state, lr=0.1, weight_decay=0.5)
        # Zero gradient: only the decay acts, multiplicatively.
        np.testing.assert_allclose(params["w"].data, [2.0 * (1.0 - 0.1 * 0.5)], rtol=1e-6)

    def test_two_steps_match_float64_mirror(self):
        rng = np.random.default_rng(3)
        p0 = rng.standard_normal(5).astype(np.float32)
        g1 = rng.standard_normal(5).astype(np.float32)
        g2 = rng.standard_normal(5).astype(np.float32)
        params = single_param(p0, g1)
        state = init_adam(params)
        adam_step(params, state, lr=0.02, weight_decay=0.1)
        params["w"].grad = g2.copy()
        adam_step(params, state, lr=0.02, weight_decay=0.1)

        p = p0.astype(np.float64)
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in ((1, g1.astype(np.float64)), (2, g2.astype(np.float64))):
            p = p - 0.02 * 0.1 * p
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            p = p - 0.02 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(params["w"].data, p, rtol=1e-5, atol=1e-6)

    def test_missing_gradient_is_error(self):
        params = single_param([1.0], [0.0])
        params["w"].grad = None
        with pytest.raises(ValueError, match="has no gradient"):
            adam_step(params, init_adam(params), lr=0.01)


class TestLearningRate:
    def test_weight_decay_mode_keeps_lr_constant(self):
        config = tiny_config(lr=1e-3, weight_decay=2e-4, decay_mode="weight_decay")
        assert learning_rate(config, 0) == 1e-3
        assert learning_rate(config, 10_000) == 1e-3

    def test_linear_mode_decays_to_zero(self):
        config = tiny_config(lr=1e-3, weight_decay=0.01, decay_mode="lr_linear")
        assert learning_rate(config, 0) == 1e-3
        assert learning_rate(config, 50) == pytest.approx(1e-3 * 0.5)
        assert learning_rate(config, 100) == 0.0
        assert learning_rate(config, 200) == 0.0


class TestTrainLoop:
    def test_max_steps_caps_updates(self):
        config = tiny_config(epochs=100)
        _, log = train([make_pair()], config, max_steps=3)
        assert len(log.records) == 3
        assert [r.step for r in log.records] == [0, 1, 2]

    def test_epochs_cap_when_smaller(self):
        config = tiny_config(epochs=2, batch=4)
        # One pair, 2x2 windows, batch 4 -> one step per epoch.
        _, log = train([make_pair()], config, max_steps=100)
        assert len(log.records) == 2

    def test_bit_identical_reruns(self, tmp_path):
        config = tiny_config(epochs=100, seed=11)
        pair = make_pair(seed=4)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        params1, log1 = train([pair], config, checkpoint_path=p1, max_steps=10)
        params2, log2 = train([pair], config, checkpoint_path=p2, max_steps=10)
        assert p1.read_bytes() == p2.read_bytes()
        for name in params1.names():
            np.testing.assert_array_equal(params1[name].data, params2[name].data)
        assert [r.total for r in log1.records] == [r.total for r in log2.records]

    def test_checkpoint_matches_returned_params(self, tmp_path):
        config = tiny_config(epochs=1)
        path = tmp_path / "model.ckpt"
        params, _ = train([make_pair()], config, checkpoint_path=path, max_steps=2)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_resume_continues_from_given_params(self):
        config = tiny_config(epochs=100)
        params = init_params(config, seed=0)
        before = {n: t.data.copy() for n, t in params.items()}
        returned, _ = train([make_pair()], config, max_steps=1, params=params)
        assert returned is params
        assert any(not np.array_equal(before[n], params[n].data) for n in params.names())

    def test_loss_decreases_over_short_run(self):
        config = tiny_config(epochs=100, lr=2e-3)
        _, log = train([make_pair()], config, max_steps=30)
        first = log.records[0].total
        last = np.mean([r.total for r in log.records[-5:]])
        assert last < first

    def test_nan_parameter_raises_diverged(self):
        config = tiny_config(epochs=1)
        params = init_params(config, seed=0)
        params["head.conv2.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite loss at step 0"):
            train([make_pair()], config, max_steps=1, params=params)

    def test_crop_below_ssim_window_rejected_before_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran before the config was checked")

        monkeypatch.setattr(trainer, "forward", no_forward)
        with pytest.raises(ValueError, match=r"crop \(10\) must be at least the SSIM window \(11\)"):
            train([make_pair()], tiny_config(crop=10), max_steps=1)

    def test_crop_equal_to_ssim_window_trains(self):
        _, log = train([make_pair()], tiny_config(crop=11), max_steps=1)
        assert np.isfinite(log.records[0].total)

    @pytest.mark.parametrize("loops", [1, 2])
    def test_graph_shallower_than_backbone_trains(self, loops):
        # Loop i reads backbone stage i, so fewer than three loops leave the
        # later stages unread; a parameter of theirs would get no gradient
        # and adam_step would reject it.
        _, log = train([make_pair()], tiny_config(loops=loops, use_salience=True), max_steps=1)
        assert np.isfinite(log.records[0].total)

    def test_log_csv_layout(self):
        log = TrainLog(records=[LogRecord(step=0, total=1.5, mse=0.5, edge=0.05, ssim=0.9, lr=1e-3)])
        lines = log.to_csv().splitlines()
        assert lines[0] == "step,total,mse,edge,ssim,lr"
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[1]) == 1.5
        assert float(fields[5]) == 1e-3

    def test_records_track_weighted_total(self):
        config = tiny_config(epochs=1)
        _, log = train([make_pair()], config, max_steps=1)
        r = log.records[0]
        assert r.total == pytest.approx(r.mse + config.alpha * r.edge + config.beta * r.ssim, rel=1e-5)
        assert r.lr == config.lr
