"""Differentiable training objectives.

The total objective is ``mse + alpha * edge + beta * ssim`` where

* ``mse`` pulls the fused image toward the per-pixel source mean,
* ``edge`` aligns the fused Sobel magnitude with the elementwise max of
  the source magnitudes (mean absolute residual),
* ``ssim`` is ``(1 - SSIM(fused, ir)) + (1 - SSIM(fused, vis))`` with the
  standard Gaussian-windowed SSIM (window 11, sigma 1.5, K1=0.01,
  K2=0.03, dynamic range 1).

With ``alpha = beta = 0`` the total is the MSE tensor itself, so the
reduction is exact, not merely numerically close.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .config import SSIM_WINDOW, FusionConfig
from .tensor import ShapeError, Tensor

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]], dtype=np.float32)
SOBEL_Y = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [-1.0, -2.0, -1.0]], dtype=np.float32)

SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _single_channel(name: str, t: Tensor) -> None:
    if t.ndim != 4 or t.shape[1] != 1:
        raise ShapeError(f"{name}: expected (N, 1, H, W), got {t.shape}")


def gradient_magnitude(img: Tensor) -> Tensor:
    """Sobel gradient magnitude with zero same-padding, sqrt(Gx^2 + Gy^2).

    Constant regions give exactly zero (the sqrt subgradient at zero is
    zero, so the result stays differentiable for training).
    """
    _single_channel("gradient_magnitude", img)
    zero = Tensor(np.zeros(1, dtype=np.float32))
    gx = ops.conv2d(img, Tensor(SOBEL_X.reshape(1, 1, 3, 3)), zero, 1, 1)
    gy = ops.conv2d(img, Tensor(SOBEL_Y.reshape(1, 1, 3, 3)), zero, 1, 1)
    return ops.sqrt(ops.add(ops.mul(gx, gx), ops.mul(gy, gy)))


def gaussian_window(window: int, sigma: float) -> np.ndarray:
    """Normalized 2-d Gaussian weights, float32, summing to 1."""
    half = (window - 1) / 2.0
    coords = np.arange(window, dtype=np.float64) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return (k / k.sum()).astype(np.float32)


def ssim(x: Tensor, y: Tensor, window: int = SSIM_WINDOW) -> Tensor:
    """Mean structural similarity over valid Gaussian windows, as a scalar.

    Both inputs are (N, 1, H, W) with H, W >= window.  Identical inputs
    give exactly 1 (numerator and denominator coincide bitwise).
    The (co)variances are of each input minus its per-sample mean, a
    constant added back to the local means: the same function, without
    float32 ``blur(x^2) - blur(x)^2`` cancelling to +-1e-7 where it is 0.
    """
    _single_channel("ssim", x)
    _single_channel("ssim", y)
    if x.shape != y.shape:
        raise ShapeError(f"ssim: shape mismatch {x.shape} vs {y.shape}")
    h, w = x.shape[2], x.shape[3]
    if h < window or w < window:
        raise ShapeError(f"ssim: image {h}x{w} smaller than window {window}")
    kernel = Tensor(gaussian_window(window, SSIM_SIGMA).reshape(1, 1, window, window))
    zero = Tensor(np.zeros(1, dtype=np.float32))

    def blur(t: Tensor) -> Tensor:
        return ops.conv2d(t, kernel, zero)

    def centred(t: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """``t`` less its per-sample mean, the blur of that, and the local mean of ``t``."""
        mean = Tensor(t.data.mean(axis=(1, 2, 3), keepdims=True, dtype=np.float64))
        tc = ops.sub(t, mean)
        d = blur(tc)
        return tc, d, ops.add(d, mean)

    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    (xc, dx, mu_x), (yc, dy, mu_y) = centred(x), centred(y)
    mu_xx = ops.mul(mu_x, mu_x)
    mu_yy = ops.mul(mu_y, mu_y)
    mu_xy = ops.mul(mu_x, mu_y)
    var_x = ops.sub(blur(ops.mul(xc, xc)), ops.mul(dx, dx))
    var_y = ops.sub(blur(ops.mul(yc, yc)), ops.mul(dy, dy))
    cov = ops.sub(blur(ops.mul(xc, yc)), ops.mul(dx, dy))
    num = ops.mul(ops.shift(ops.scale(mu_xy, 2.0), c1), ops.shift(ops.scale(cov, 2.0), c2))
    den = ops.mul(ops.shift(ops.add(mu_xx, mu_yy), c1), ops.shift(ops.add(var_x, var_y), c2))
    return ops.reduce_mean(ops.div(num, den))


def loss_mse(fused: Tensor, ir: Tensor, vis: Tensor) -> Tensor:
    """Mean squared deviation of the fusion from the source mean image."""
    target = ops.scale(ops.add(ir, vis), 0.5)
    d = ops.sub(fused, target)
    return ops.reduce_mean(ops.mul(d, d))


def loss_edge(fused: Tensor, ir: Tensor, vis: Tensor) -> Tensor:
    """Mean |grad(fused) - max(grad(ir), grad(vis))|."""
    target = ops.maximum(gradient_magnitude(ir), gradient_magnitude(vis))
    return ops.reduce_mean(ops.absolute(ops.sub(gradient_magnitude(fused), target)))


def loss_ssim(fused: Tensor, ir: Tensor, vis: Tensor, window: int = SSIM_WINDOW) -> Tensor:
    """(1 - SSIM(fused, ir)) + (1 - SSIM(fused, vis)); zero at equality."""
    a = ops.shift(ops.negate(ssim(fused, ir, window)), 1.0)
    b = ops.shift(ops.negate(ssim(fused, vis, window)), 1.0)
    return ops.add(a, b)


def loss_components(
    fused: Tensor, ir: Tensor, vis: Tensor, config: FusionConfig, ssim_window: int = SSIM_WINDOW
) -> dict[str, Tensor]:
    """All loss terms plus their weighted total, on one tape."""
    mse = loss_mse(fused, ir, vis)
    edge = loss_edge(fused, ir, vis)
    sim = loss_ssim(fused, ir, vis, window=ssim_window)
    total = mse
    if config.alpha:
        total = ops.add(total, ops.scale(edge, config.alpha))
    if config.beta:
        total = ops.add(total, ops.scale(sim, config.beta))
    return {"mse": mse, "edge": edge, "ssim": sim, "total": total}
