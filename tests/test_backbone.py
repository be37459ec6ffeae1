"""Feature-extraction branch behavior, including the salience stage."""

import dataclasses

import numpy as np
import pytest

from graphfusion import ops
from graphfusion import reference as ref
from graphfusion.backbone import channel_attention, extract, feature_depth, salience
from graphfusion.config import FusionConfig
from graphfusion.network import init_params
from graphfusion.tensor import ShapeError, Tensor


def small_config(**overrides) -> FusionConfig:
    # Three loops, so the graph reads all three stages, salience included.
    base = dict(channels=4, nodes=2, loops=3, reduction=4)
    base.update(overrides)
    return dataclasses.replace(FusionConfig(), **base)


def test_extract_preserves_spatial_size_and_widens_channels():
    config = small_config()
    params = init_params(config, seed=0)
    image = Tensor(np.random.default_rng(1).uniform(size=(2, 1, 6, 5)).astype(np.float32))
    feats = extract(image, params, "ir", config)
    assert [t.shape for t in feats] == [(2, 4, 6, 5)] * 3


def test_extract_without_salience_passes_f2_through():
    # Without salience the deepest stage, the one the head reads, is the
    # conv2 map itself, with nothing applied after it.
    config = small_config(use_salience=False)
    params = init_params(config, seed=0)
    image = Tensor(np.random.default_rng(2).uniform(size=(1, 1, 5, 5)).astype(np.float32))
    f1, f2 = extract(image, params, "vis", config)
    conv2 = ops.conv2d(f1, params["extract.vis.conv2.weight"], params["extract.vis.conv2.bias"], padding=1)
    np.testing.assert_array_equal(f2.data, ops.relu(conv2).data)


@pytest.mark.parametrize(
    "overrides,depth",
    [
        ({}, 3),
        ({"loops": 5}, 3),
        ({"loops": 2}, 2),
        ({"loops": 1}, 1),
        ({"loops": 1, "use_salience": False}, 1),
        ({"loops": 1, "use_graph": False}, 3),
        ({"loops": 1, "use_graph": False, "use_salience": False}, 2),
    ],
)
def test_extract_builds_only_the_stages_the_network_reads(overrides, depth):
    config = small_config(**overrides)
    params = init_params(config, seed=0)
    image = Tensor(np.random.default_rng(3).uniform(size=(1, 1, 5, 5)).astype(np.float32))
    assert feature_depth(config) == depth
    assert len(extract(image, params, "ir", config)) == depth
    assert ("extract.ir.conv2.weight" in params) == (depth > 1)
    assert ("salience.ir.conv.weight" in params) == (depth > 2)


def test_extract_rejects_multichannel_input():
    config = small_config()
    params = init_params(config, seed=0)
    with pytest.raises(ShapeError):
        extract(Tensor.zeros((1, 2, 5, 5)), params, "ir", config)


def test_extract_rejects_unknown_modality():
    config = small_config()
    params = init_params(config, seed=0)
    with pytest.raises(ValueError, match="unknown modality"):
        extract(Tensor.zeros((1, 1, 5, 5)), params, "thermal", config)


def _constant_salience_params(config: FusionConfig, level: float):
    """Zero the salience conv kernel and pin its bias so its output is
    ``level`` everywhere, and zero the bottleneck so attention is exactly
    sigmoid(0) = 0.5."""
    params = init_params(config, seed=0)
    for m in ("ir", "vis"):
        params[f"salience.{m}.conv.weight"].data[:] = 0.0
        params[f"salience.{m}.conv.bias"].data[:] = level
        params[f"salience.{m}.fc1.weight"].data[:] = 0.0
        params[f"salience.{m}.fc2.weight"].data[:] = 0.0
    return params


def test_salience_combines_multiplicatively_for_infrared():
    config = small_config()
    level = 0.7
    params = _constant_salience_params(config, level)
    x = Tensor(np.random.default_rng(3).uniform(size=(1, 4, 5, 5)).astype(np.float32))
    out = salience(x, params, "ir")
    # max pool and avg pool of a constant map are both the constant, the
    # infrared branch multiplies them, and the zeroed bottleneck gates by 0.5.
    expected = np.float32(level) * np.float32(level) * 0.5
    np.testing.assert_allclose(out.data, np.full((1, 4, 5, 5), expected), rtol=1e-6)


def test_salience_combines_additively_for_visible():
    config = small_config()
    level = 0.7
    params = _constant_salience_params(config, level)
    x = Tensor(np.random.default_rng(3).uniform(size=(1, 4, 5, 5)).astype(np.float32))
    out = salience(x, params, "vis")
    expected = (np.float32(level) + np.float32(level)) * 0.5
    np.testing.assert_allclose(out.data, np.full((1, 4, 5, 5), expected), rtol=1e-6)


def test_channel_attention_shape_and_range():
    config = small_config(channels=8, reduction=4)
    params = init_params(config, seed=5)
    x = Tensor(np.random.default_rng(4).standard_normal((3, 8, 4, 4)).astype(np.float32))
    att = channel_attention(x, params, "salience.ir")
    assert att.shape == (3, 8, 1, 1)
    assert np.all(att.data > 0.0) and np.all(att.data < 1.0)


def test_channel_attention_bottleneck_width():
    config = small_config(channels=8, reduction=4)
    params = init_params(config, seed=0)
    assert params["salience.ir.fc1.weight"].shape == (2, 8, 1, 1)
    assert params["salience.ir.fc2.weight"].shape == (8, 2, 1, 1)


def test_channel_attention_matches_reference_matmuls():
    # The 1x1 convs against the float64 oracle's matmuls of the (O, C) weights.
    config = small_config(channels=16, reduction=4)
    params = init_params(config, seed=6)
    x = np.random.default_rng(7).standard_normal((2, 16, 5, 4)).astype(np.float32)
    att = channel_attention(Tensor(x), params, "salience.vis")
    arrays = {n: t.data.astype(np.float64) for n, t in params.items()}
    want = ref._channel_attention(x.astype(np.float64), arrays, "salience.vis")
    assert att.shape == want.shape == (2, 16, 1, 1)
    np.testing.assert_allclose(att.data, want, rtol=1e-5, atol=1e-6)


def test_salience_responds_per_channel():
    # Raising one input channel must not change the attention-weighted
    # output of channels whose conv taps ignore it when the kernel is
    # diagonal; build such a kernel explicitly.
    config = small_config()
    params = init_params(config, seed=0)
    w = np.zeros((4, 4, 3, 3), dtype=np.float32)
    for c in range(4):
        w[c, c, 1, 1] = 1.0
    params["salience.ir.conv.weight"].data[:] = w
    params["salience.ir.conv.bias"].data[:] = 0.0
    base = Tensor(np.full((1, 4, 5, 5), 0.4, dtype=np.float32))
    bumped = base.numpy()
    bumped[0, 2] += 0.3
    out_base = salience(base, params, "ir")
    out_bumped = salience(Tensor(bumped), params, "ir")
    # Channel 2's salience map changes before attention; others only move
    # through the shared bottleneck weights, i.e. by a scalar factor.
    assert not np.allclose(out_base.data[0, 2], out_bumped.data[0, 2])
    ratio = out_bumped.data[0, 0] / out_base.data[0, 0]
    np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-5)
