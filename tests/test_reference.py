"""Kink conventions and the probe axis of the float64 reference.

The gradcheck reads derivatives of the reference as ``f(x + i h).imag / h``.
At a tie a non-smooth helper must take the branch the tape op takes, so the
complex-step derivative equals the tape gradient there, not a mixture of
the two one-sided slopes.  Many such probes ride one call as the rows of a
leading probe axis, and each row must equal the unbatched call.
"""

import numpy as np
import pytest

from graphfusion import ops, reference
from graphfusion.config import FusionConfig
from graphfusion.losses import gradient_magnitude
from graphfusion.network import init_params
from graphfusion.tensor import Tape, Tensor

H = 1e-30


def complex_step_grad(fn, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(coeffs * fn(x))``, one complex step per element of ``x``."""
    grad = np.zeros(x.size)
    for j in range(x.size):
        z = x.astype(np.complex128)
        z.reshape(-1)[j] += 1j * H
        grad[j] = (coeffs * fn(z)).sum().imag / H
    return grad.reshape(x.shape)


def tape_grad(op, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    t = Tensor(x.astype(np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(ops.reduce_sum(ops.mul(op(t), Tensor(coeffs.astype(np.float32)))))
    return t.grad


@pytest.mark.parametrize(
    "helper, op, slopes", [("_relu", "relu", [0.0, 0.0, 0.0, 1.0]), ("_abs", "absolute", [-1.0, 0.0, 0.0, 1.0])]
)
def test_slope_is_zero_at_zero(helper, op, slopes):
    x = np.array([-1.5, 0.0, 0.0, 2.0])
    coeffs = np.array([0.3, -0.7, 1.1, 0.9])
    want = tape_grad(getattr(ops, op), x, coeffs)
    np.testing.assert_array_equal(want, np.float32(coeffs) * np.float32(slopes))
    np.testing.assert_allclose(complex_step_grad(getattr(reference, helper), x, coeffs), want, rtol=1e-7)


@pytest.mark.parametrize("window, stride, padding", [(2, 2, 0), (3, 1, 1)])
def test_maxpool_tie_routes_to_first_maximum(window, stride, padding):
    x = np.full((1, 1, 4, 4), 0.25)
    out_shape = ops.maxpool2d(Tensor(x.astype(np.float32)), window, stride, padding).shape
    coeffs = np.random.default_rng(0).uniform(0.5, 1.5, size=out_shape)
    want = tape_grad(lambda t: ops.maxpool2d(t, window, stride, padding), x, coeffs)
    got = complex_step_grad(lambda z: reference._maxpool(z, window, stride, padding), x, coeffs)
    if stride == window:
        # Disjoint windows: each sends its whole gradient to its top-left element.
        assert np.count_nonzero(want) == coeffs.size
        np.testing.assert_array_equal(want[..., ::window, ::window] != 0, True)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_sobel_magnitude_is_flat_where_it_is_zero():
    # A constant image: the Sobel responses vanish inside and not at the
    # zero-padded border, so both branches of the square root are probed.
    x = np.full((1, 1, 6, 6), 0.5)
    coeffs = np.random.default_rng(1).uniform(0.5, 1.5, size=x.shape)
    mag = reference._sobel_magnitude(x)
    assert np.all(mag[..., 1:-1, 1:-1] == 0.0) and np.all(mag[..., 0, :] > 0.0)
    want = tape_grad(gradient_magnitude, x, coeffs)
    got = complex_step_grad(reference._sobel_magnitude, x, coeffs)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# the probe axis of reference_loss

CONFIG = FusionConfig(channels=4, nodes=2, loops=3, reduction=4)
PROBED = ("extract.ir.conv2.weight", "salience.vis.fc1.bias", "graph.loop2.update.ir.weight")


@pytest.fixture
def loss_inputs():
    rng = np.random.default_rng(5)
    arrays = {name: t.data.astype(np.float64) for name, t in init_params(CONFIG, seed=3).items()}
    ir = rng.uniform(size=(2, 1, 6, 6))
    vis = rng.uniform(size=(2, 1, 6, 6))
    return rng, arrays, ir, vis


def probe_stack(rng, a: np.ndarray, k: int) -> np.ndarray:
    """``k`` complex copies of ``a``, each with a complex step on its own random element."""
    stack = np.broadcast_to(a, (k,) + a.shape).astype(np.complex128)
    for row in range(k):
        stack.reshape(k, -1)[row, rng.integers(a.size)] += 1j * H
    return stack


def loss(arrays, ir, vis):
    return reference.reference_loss(ir, vis, arrays, CONFIG, ssim_window=5)


def test_plain_arrays_give_scalars(loss_inputs):
    _, arrays, ir, vis = loss_inputs
    assert type(loss(arrays, ir, vis)) is np.float64
    assert type(loss({k: a.astype(np.complex128) for k, a in arrays.items()}, ir, vis)) is np.complex128
    fused = reference.reference_forward(ir, vis, arrays, CONFIG)
    assert fused.dtype == np.float64 and fused.shape == ir.shape


def assert_rows_match(got, arrays, ir, vis):
    for row in range(got.shape[0]):
        one = {name: a[row % a.shape[0]] if name in PROBED else a for name, a in arrays.items()}
        want = loss(one, ir, vis)
        assert got[row].real == pytest.approx(want.real, rel=1e-13)
        assert got[row].imag / H == pytest.approx(want.imag / H, rel=1e-10, abs=1e-14)


def test_probe_axis_gives_one_loss_per_row(loss_inputs):
    rng, arrays, ir, vis = loss_inputs
    batched = {**arrays, **{name: probe_stack(rng, arrays[name], 5) for name in PROBED}}
    got = loss(batched, ir, vis)
    assert got.shape == (5,)
    assert np.all(got.imag != 0)
    assert_rows_match(got, batched, ir, vis)


def test_length_one_probe_axis_broadcasts(loss_inputs):
    rng, arrays, ir, vis = loss_inputs
    batched = dict(arrays)
    batched[PROBED[0]] = probe_stack(rng, arrays[PROBED[0]], 1)
    batched[PROBED[1]] = probe_stack(rng, arrays[PROBED[1]], 4)
    batched[PROBED[2]] = arrays[PROBED[2]][None]
    got = loss(batched, ir, vis)
    assert got.shape == (4,)
    assert_rows_match(got, batched, ir, vis)
