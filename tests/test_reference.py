"""Kink conventions of the float64 reference under complex-step probes.

The gradcheck reads derivatives of the reference as ``f(x + i h).imag / h``.
At a tie a non-smooth helper must take the branch the tape op takes, so the
complex-step derivative equals the tape gradient there, not a mixture of
the two one-sided slopes.
"""

import numpy as np
import pytest

from graphfusion import ops, reference
from graphfusion.losses import gradient_magnitude
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
