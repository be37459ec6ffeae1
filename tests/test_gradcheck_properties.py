"""Property-based complex-step checks for every differentiable op.

Each property draws randomized shapes and values, then compares the tape
gradient of every element of every input against the complex-step
derivative of a float64 re-implementation of the same scalar: the
``reference.py`` helpers, which share no code with ``ops``, or plain numpy.
The float64 side takes every kink on the real part, as the tape does.
Inputs to non-smooth ops (relu, absolute, maximum, maxpool, sqrt, div)
still keep every element away from the nearest kink, tie or pole.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from graphfusion import ops, reference as ref
from graphfusion.reference import _SAMPLE_AXES
from graphfusion.tensor import Tensor, accumulate, record_op

from conftest import away_from, oracle_error, separated_values, weighted_error

THRESHOLD = 1e-5

common = settings(max_examples=30, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
small = st.integers(min_value=1, max_value=4)
spatial = st.integers(min_value=2, max_value=6)


def grad_tensor(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def conv2d_gradient_error(rng, x_shape, kern_shape, padding) -> float:
    """Worst error of conv2d's tape gradients against complex step through ``reference._conv``."""
    inputs = [grad_tensor(rng, x_shape), grad_tensor(rng, kern_shape), grad_tensor(rng, kern_shape[:1])]
    coeffs = rng.standard_normal(ops.conv2d(*inputs, padding=padding).shape).astype(np.float32)
    conv, conv_ref = (partial(f, padding=padding) for f in (ops.conv2d, ref._conv))
    return weighted_error(conv, conv_ref, inputs, coeffs)


def scaled_square(x: Tensor, factor: float) -> Tensor:
    """``x * x`` whose backward is ``factor`` times the true one."""

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * (2 * factor) * x.data)

    return record_op(x.data * x.data, (x,), backward)


def test_oracle_rejects_a_backward_off_by_five_percent():
    rng = np.random.default_rng(0)
    x = grad_tensor(rng, (2, 3, 4, 4))
    coeffs = rng.standard_normal(x.shape).astype(np.float32)
    errors = [weighted_error(lambda a: scaled_square(a, factor), np.square, [x], coeffs) for factor in (1.0, 1.05)]
    assert errors[0] < THRESHOLD < errors[1]


# A kernel size and a padding below it.
kernels = st.sampled_from([1, 3]).flatmap(lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=k - 1)))


@common
@given(seed=seeds, n=small, c=small, oc=small, hw=spatial, kernel=kernels)
def test_conv2d_gradients(seed, n, c, oc, hw, kernel):
    k, padding = kernel
    if hw + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    assert conv2d_gradient_error(rng, (n, c, hw, hw), (oc, c, k, k), padding) < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=3, max_value=6), window=st.sampled_from([2, 3]))
def test_maxpool_gradients(seed, n, c, hw, window):
    rng = np.random.default_rng(seed)
    x = Tensor(separated_values(rng, (n, c, hw, hw)), requires_grad=True)
    out_shape = ops.maxpool2d(x, window, padding=1).shape
    coeffs = rng.standard_normal(out_shape).astype(np.float32)
    maxpool, maxpool_ref = (partial(f, window=window, padding=1) for f in (ops.maxpool2d, ref._maxpool))
    err = weighted_error(maxpool, maxpool_ref, [x], coeffs)
    assert err < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=3, max_value=6))
def test_avgpool_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    out_shape = ops.avgpool2d(x, 3, padding=1).shape
    coeffs = rng.standard_normal(out_shape).astype(np.float32)
    err = weighted_error(lambda a: ops.avgpool2d(a, 3, padding=1), lambda a: ref._avgpool(a, 3, padding=1), [x], coeffs)
    assert err < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial, out=st.integers(min_value=1, max_value=4))
def test_adaptive_avgpool_gradients(seed, n, c, hw, out):
    out = min(out, hw)  # output grid may not exceed the input
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    coeffs = rng.standard_normal((n, c, out, out)).astype(np.float32)
    err = weighted_error(
        lambda a: ops.adaptive_avgpool2d(a, out, out), lambda a: ref._adaptive_avgpool(a, out, out), [x], coeffs
    )
    assert err < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=2, max_value=4), scale=st.integers(min_value=1, max_value=3))
def test_upsample_gradients(seed, n, c, hw, scale):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    size = hw * scale
    coeffs = rng.standard_normal((n, c, size, size)).astype(np.float32)
    err = weighted_error(lambda a: ops.upsample_bilinear(a, size, size), lambda a: ref._upsample(a, size, size), [x], coeffs)
    assert err < THRESHOLD


@common
@given(seed=seeds, n=small, feat=st.sampled_from([1, 4, 16, 17]), out=st.integers(min_value=1, max_value=5))
def test_squeeze_excite_conv_gradients(seed, n, feat, out):
    # A 1x1 conv of a pooled (N, C, 1, 1) map against the reference's matmul
    # of its (O, C) weights, on both sides of conv2d's channel threshold.
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, feat, 1, 1))
    w = grad_tensor(rng, (out, feat, 1, 1))
    b = grad_tensor(rng, (out,))
    coeffs = rng.standard_normal((n, out, 1, 1)).astype(np.float32)

    def f64(x, w, b):
        return ref._fc(x[..., 0, 0], w[..., 0, 0], b)[..., None, None]

    assert weighted_error(lambda x, w, b: ops.conv2d(x, w, b), f64, [x, w, b], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_sigmoid_gradients(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-4.0, 4.0, size=n).astype(np.float32), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    assert weighted_error(ops.sigmoid, ref._sigmoid, [x], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_relu_gradients_away_from_kink(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(away_from(rng, (n,), 0.0), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    assert weighted_error(ops.relu, ref._relu, [x], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_absolute_gradients_away_from_kink(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(away_from(rng, (n,), 0.0), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    assert weighted_error(ops.absolute, ref._abs, [x], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_sqrt_gradients(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.2, 2.0, size=n).astype(np.float32), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    assert weighted_error(ops.sqrt, np.sqrt, [x], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=10))
def test_binary_arithmetic_gradients(seed, n):
    rng = np.random.default_rng(seed)
    a = grad_tensor(rng, (n,))
    b = Tensor(away_from(rng, (n,), 0.0, margin=0.3), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)

    for op, op64 in ((ops.add, np.add), (ops.sub, np.subtract), (ops.mul, np.multiply), (ops.div, np.divide)):
        assert weighted_error(op, op64, [a, b], coeffs) < THRESHOLD, op.__name__


@common
@given(seed=seeds, n=st.integers(min_value=2, max_value=10))
def test_maximum_gradients_with_separated_operands(seed, n):
    rng = np.random.default_rng(seed)
    vals = separated_values(rng, (2, n))
    a = Tensor(vals[0], requires_grad=True)
    b = Tensor(vals[1], requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    # The float64 side takes its branch on the real part, with ties to u, as the tape does.
    assert weighted_error(ops.maximum, lambda u, v: np.where(u.real >= v.real, u, v), [a, b], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial)
def test_broadcast_mul_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    gate = grad_tensor(rng, (n, c, 1, 1))
    coeffs = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    assert weighted_error(ops.mul, np.multiply, [x, gate], coeffs) < THRESHOLD


@common
@given(seed=seeds, n=small, hw=spatial, parts=st.integers(min_value=2, max_value=3))
def test_concat_scale_shift_gradients(seed, n, hw, parts):
    rng = np.random.default_rng(seed)
    pieces = [grad_tensor(rng, (n, 2, hw, hw)) for _ in range(parts)]
    coeffs = rng.standard_normal((n, 2 * parts, hw, hw)).astype(np.float32)

    def f(*ts):
        return ops.shift(ops.scale(ops.concat_channels(list(ts)), -0.7), 0.3)

    def f64(*arrays):
        return ref._cat(arrays) * np.float32(-0.7) + np.float32(0.3)

    assert weighted_error(f, f64, pieces, coeffs) < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial)
def test_reductions_and_global_pool_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    assert oracle_error(ops.reduce_mean, [x], lambda a: a.mean(axis=_SAMPLE_AXES)) < THRESHOLD
    err = oracle_error(
        lambda a: ops.reduce_sum(ops.global_avgpool(a)),
        [x],
        lambda a: ref._adaptive_avgpool(a, 1, 1).sum(axis=_SAMPLE_AXES),
    )
    assert err < THRESHOLD


@common
@given(seed=seeds, hw=st.integers(min_value=4, max_value=6))
def test_smooth_composite_pipeline_gradients(seed, hw):
    # Chains conv -> sigmoid -> avgpool -> upsample -> mean of squares, a
    # smooth stand-in for the full network's op composition.
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (1, 2, hw, hw))
    kern = grad_tensor(rng, (2, 2, 3, 3))
    bias = grad_tensor(rng, (2,))

    def f(a, k, b):
        y = ops.sigmoid(ops.conv2d(a, k, b, padding=1))
        y = ops.avgpool2d(y, 3, padding=1)
        y = ops.upsample_bilinear(y, hw * 2, hw * 2)
        return ops.reduce_mean(ops.mul(y, y))

    def f64(a, k, b):
        y = ref._sigmoid(ref._conv(a, k, b, padding=1))
        y = ref._avgpool(y, 3, padding=1)
        y = ref._upsample(y, hw * 2, hw * 2)
        return (y * y).mean(axis=_SAMPLE_AXES)

    assert oracle_error(f, [x, kern, bias], f64) < THRESHOLD
