"""Property-based finite-difference checks for every differentiable op.

Each property draws randomized shapes and values, then compares analytic
gradients against central differences for every element of every input.
The conv2d properties difference a float64 convolution of their own.
Inputs to non-smooth ops (relu, absolute, maximum, maxpool, sqrt, div) are
constructed to keep every probe at least an order of magnitude away from
the nearest kink or pole, so the finite-difference reference is valid.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from graphfusion import ops
from graphfusion.gradcheck import gradient_check
from graphfusion.tensor import Tape, Tensor

from conftest import away_from, separated_values

THRESHOLD = 1e-3

common = settings(max_examples=30, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
small = st.integers(min_value=1, max_value=4)
spatial = st.integers(min_value=2, max_value=6)


def weighted(out: Tensor, coeffs: np.ndarray) -> Tensor:
    """Scalarize with fixed random coefficients so output grads vary."""
    return ops.reduce_sum(ops.mul(out, Tensor(coeffs)))


def grad_tensor(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


def conv64(x, kern, bias, stride, padding):
    """float64 convolution as one einsum over strided windows of the padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, kern.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, kern) + bias[None, :, None, None]


def conv2d_gradient_error(rng, x_shape, kern_shape, stride, padding) -> float:
    """Worst error of conv2d's tape gradients against float64 central differences.

    The numeric side differentiates :func:`conv64`, which shares no code with
    ``ops.conv2d``, so it does not move when conv2d sums its float32 products
    in another order; a float32 difference quotient sits at the 1e-3 noise
    floor on these shapes.  The error is measured as in ``gradient_check``:
    per input, the worst absolute difference over the larger infinity norm.
    """
    inputs = [grad_tensor(rng, x_shape), grad_tensor(rng, kern_shape), grad_tensor(rng, kern_shape[:1])]
    with Tape() as tape:
        out = ops.conv2d(*inputs, stride=stride, padding=padding)
        coeffs = rng.standard_normal(out.shape).astype(np.float32)
        tape.backward(weighted(out, coeffs))
        analytic = [t.grad.astype(np.float64).reshape(-1) for t in inputs]
        tape.clear()
    arrays = [t.data.astype(np.float64) for t in inputs]
    coeffs64 = coeffs.astype(np.float64)
    eps = 1e-3
    worst = 0.0
    for grad, arr in zip(analytic, arrays):
        flat = arr.reshape(-1)
        numeric = np.empty(flat.size)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = np.sum(conv64(*arrays, stride, padding) * coeffs64)
            flat[j] = orig - eps
            lo = np.sum(conv64(*arrays, stride, padding) * coeffs64)
            flat[j] = orig
            numeric[j] = (hi - lo) / (2.0 * eps)
        scale = max(np.max(np.abs(grad)), np.max(np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(grad - numeric))) / scale)
    return worst


@common
@given(seed=seeds, n=small, c=small, oc=small, hw=spatial, k=st.sampled_from([1, 3]), padding=st.sampled_from([0, 1]))
def test_conv2d_gradients(seed, n, c, oc, hw, k, padding):
    if hw + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    assert conv2d_gradient_error(rng, (n, c, hw, hw), (oc, c, k, k), 1, padding) < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=3, max_value=6))
def test_conv2d_stride2_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    assert conv2d_gradient_error(rng, (n, c, hw, hw), (2, c, 3, 3), 2, 1) < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=3, max_value=6), window=st.sampled_from([2, 3]))
def test_maxpool_gradients(seed, n, c, hw, window):
    rng = np.random.default_rng(seed)
    x = Tensor(separated_values(rng, (n, c, hw, hw)), requires_grad=True)
    out_shape = ops.maxpool2d(x, window, 1, 1).shape
    coeffs = rng.standard_normal(out_shape).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.maxpool2d(a, window, 1, 1), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=3, max_value=6), stride=st.sampled_from([1, 2]))
def test_avgpool_gradients(seed, n, c, hw, stride):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    out_shape = ops.avgpool2d(x, 3, stride, 1).shape
    coeffs = rng.standard_normal(out_shape).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.avgpool2d(a, 3, stride, 1), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial, out=st.integers(min_value=1, max_value=4))
def test_adaptive_avgpool_gradients(seed, n, c, hw, out):
    out = min(out, hw)  # output grid may not exceed the input
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    coeffs = rng.standard_normal((n, c, out, out)).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.adaptive_avgpool2d(a, out, out), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=st.integers(min_value=2, max_value=4), scale=st.integers(min_value=1, max_value=3))
def test_upsample_gradients(seed, n, c, hw, scale):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    coeffs = rng.standard_normal((n, c, hw * scale, hw * scale)).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.upsample_bilinear(a, hw * scale, hw * scale), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, feat=st.integers(min_value=1, max_value=6), out=st.integers(min_value=1, max_value=5))
def test_fully_connected_gradients(seed, n, feat, out):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, feat))
    w = grad_tensor(rng, (out, feat))
    b = grad_tensor(rng, (out,))
    coeffs = rng.standard_normal((n, out)).astype(np.float32)
    res = gradient_check(lambda a, ww, bb: weighted(ops.fully_connected(a, ww, bb), coeffs), [x, w, b])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_sigmoid_gradients(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-4.0, 4.0, size=n).astype(np.float32), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.sigmoid(a), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_relu_gradients_away_from_kink(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(away_from(rng, (n,), 0.0), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.relu(a), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_absolute_gradients_away_from_kink(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(away_from(rng, (n,), 0.0), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.absolute(a), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_sqrt_gradients(seed, n):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.2, 2.0, size=n).astype(np.float32), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    res = gradient_check(lambda a: weighted(ops.sqrt(a), coeffs), [x])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=st.integers(min_value=1, max_value=10))
def test_binary_arithmetic_gradients(seed, n):
    rng = np.random.default_rng(seed)
    a = grad_tensor(rng, (n,))
    b = Tensor(away_from(rng, (n,), 0.0, margin=0.3), requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)

    for op in (ops.add, ops.sub, ops.mul, ops.div):
        res = gradient_check(lambda u, v, op=op: weighted(op(u, v), coeffs), [a, b])
        assert res.max_rel_error < THRESHOLD, op.__name__


@common
@given(seed=seeds, n=st.integers(min_value=2, max_value=10))
def test_maximum_gradients_with_separated_operands(seed, n):
    rng = np.random.default_rng(seed)
    vals = separated_values(rng, (2, n))
    a = Tensor(vals[0], requires_grad=True)
    b = Tensor(vals[1], requires_grad=True)
    coeffs = rng.standard_normal(n).astype(np.float32)
    res = gradient_check(lambda u, v: weighted(ops.maximum(u, v), coeffs), [a, b])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial)
def test_broadcast_mul_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    gate = grad_tensor(rng, (n, c, 1, 1))
    coeffs = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    res = gradient_check(lambda a, g: weighted(ops.mul(a, g), coeffs), [x, gate])
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, hw=spatial, parts=st.integers(min_value=2, max_value=3))
def test_concat_reshape_scale_shift_gradients(seed, n, hw, parts):
    rng = np.random.default_rng(seed)
    pieces = [grad_tensor(rng, (n, 2, hw, hw)) for _ in range(parts)]
    coeffs = rng.standard_normal((n, 2 * parts, hw, hw)).astype(np.float32)

    def f(*ts):
        cat = ops.concat_channels(list(ts))
        flat = ops.reshape(cat, (cat.size,))
        back = ops.reshape(flat, cat.shape)
        return weighted(ops.shift(ops.scale(ops.negate(back), -0.7), 0.3), coeffs)

    res = gradient_check(f, pieces)
    assert res.max_rel_error < THRESHOLD


@common
@given(seed=seeds, n=small, c=small, hw=spatial)
def test_reductions_and_global_pool_gradients(seed, n, c, hw):
    rng = np.random.default_rng(seed)
    x = grad_tensor(rng, (n, c, hw, hw))
    res = gradient_check(lambda a: ops.reduce_mean(a), [x])
    assert res.max_rel_error < THRESHOLD
    res = gradient_check(lambda a: ops.reduce_sum(ops.global_avgpool(a)), [x])
    assert res.max_rel_error < THRESHOLD


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
        y = ops.avgpool2d(y, 3, 1, 1)
        y = ops.upsample_bilinear(y, hw * 2, hw * 2)
        return ops.reduce_mean(ops.mul(y, y))

    # The four-op chain accumulates more float32 rounding than a single op,
    # so probe with a larger step: noise scales down with epsilon while the
    # smooth composite keeps truncation error negligible at this size.
    res = gradient_check(f, [x, kern, bias], epsilon=3e-3)
    assert res.max_rel_error < THRESHOLD
