"""Objective anchors: exact zeros, weighting, and oracle comparisons."""

import dataclasses

import numpy as np
import pytest

from graphfusion import losses, ops, reference
from graphfusion.config import FusionConfig
from graphfusion.losses import (
    gaussian_window,
    gradient_magnitude,
    loss_components,
    loss_edge,
    loss_mse,
    loss_ssim,
    ssim,
)
from graphfusion.reference import _SAMPLE_AXES
from graphfusion.tensor import ShapeError, Tensor

from conftest import oracle_error


def img(data) -> Tensor:
    arr = np.asarray(data, dtype=np.float32)
    return Tensor(arr.reshape(1, 1, *arr.shape))


def rand_img(rng, h=12, w=12, lo=0.0, hi=1.0) -> Tensor:
    return img(rng.uniform(lo, hi, size=(h, w)).astype(np.float32))


def weights(alpha=10.0, beta=0.5) -> FusionConfig:
    return dataclasses.replace(FusionConfig(), alpha=alpha, beta=beta)


class TestExactZeros:
    def test_mse_zero_at_source_mean(self, rng):
        ir = rand_img(rng)
        vis = rand_img(rng)
        # Same float32 expression the loss uses: (ir + vis) * 0.5.
        fused = Tensor((ir.data + vis.data) * np.float32(0.5))
        assert loss_mse(fused, ir, vis).item() == 0.0

    def test_ssim_identical_images_is_exactly_one(self, rng):
        x = rand_img(rng)
        assert ssim(x, x).item() == 1.0

    def test_ssim_loss_zero_when_all_equal(self, rng):
        x = rand_img(rng)
        assert loss_ssim(x, x, x).item() == 0.0

    def test_edge_loss_zero_for_matching_gradients(self, rng):
        x = rand_img(rng)
        flat = img(np.zeros((12, 12)))
        assert loss_edge(x, x, flat).item() == 0.0


class TestWeighting:
    def _inject(self, monkeypatch, p, q, r):
        monkeypatch.setattr(losses, "loss_mse", lambda f, i, v: Tensor(np.float32(p)))
        monkeypatch.setattr(losses, "loss_edge", lambda f, i, v: Tensor(np.float32(q)))
        monkeypatch.setattr(losses, "loss_ssim", lambda f, i, v, window=11: Tensor(np.float32(r)))

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (10.0, 0.5, 0.3 + 10.0 * 0.07 + 0.5 * 0.11),
            (10.0, 0.0, 0.3 + 10.0 * 0.07),
            (0.0, 0.5, 0.3 + 0.5 * 0.11),
            (0.0, 0.0, 0.3),
        ],
    )
    def test_total_combines_injected_components(self, monkeypatch, rng, alpha, beta, expected):
        self._inject(monkeypatch, 0.3, 0.07, 0.11)
        x = rand_img(rng)
        comps = loss_components(x, x, x, weights(alpha=alpha, beta=beta))
        assert comps["total"].item() == pytest.approx(expected, rel=1e-6)

    def test_zero_weights_return_the_mse_tensor_itself(self, rng):
        ir, vis, fused = rand_img(rng), rand_img(rng), rand_img(rng)
        comps = loss_components(fused, ir, vis, weights(alpha=0.0, beta=0.0))
        assert comps["total"] is comps["mse"]

    def test_constant_image_closed_form(self):
        # For constant images every component has a closed form: the MSE is
        # a squared offset, the edge residual scales the all-ones gradient
        # map, and SSIM reduces to (2ab + c1) / (a^2 + b^2 + c1).
        a, b, f = 0.2, 0.6, 0.7
        ir = img(np.full((16, 16), a))
        vis = img(np.full((16, 16), b))
        fused = img(np.full((16, 16), f))
        comps = loss_components(fused, ir, vis, weights())

        mse = (f - (a + b) / 2.0) ** 2
        gm1 = gradient_magnitude(img(np.ones((16, 16)))).data
        edge = float(np.mean(gm1)) * abs(f - max(a, b))
        c1 = losses.SSIM_K1**2

        def s(u, v):
            return (2.0 * u * v + c1) / (u * u + v * v + c1)

        sim = (1.0 - s(f, a)) + (1.0 - s(f, b))
        assert comps["mse"].item() == pytest.approx(mse, rel=1e-5)
        assert comps["edge"].item() == pytest.approx(edge, rel=1e-5)
        assert comps["ssim"].item() == pytest.approx(sim, rel=1e-4, abs=1e-6)
        assert comps["total"].item() == pytest.approx(mse + 10.0 * edge + 0.5 * sim, rel=1e-4)


class TestOracles:
    def test_gradient_magnitude_matches_brute_sobel(self, rng):
        x = rng.uniform(size=(8, 8)).astype(np.float32)
        got = gradient_magnitude(img(x)).data[0, 0]
        want = reference._sobel_magnitude(x.astype(np.float64).reshape(1, 1, 8, 8))[0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_ssim_matches_float64_reference(self, rng):
        x = rng.uniform(size=(1, 1, 14, 14)).astype(np.float32)
        y = rng.uniform(size=(1, 1, 14, 14)).astype(np.float32)
        got = ssim(Tensor(x), Tensor(y)).item()
        want = reference._ssim_mean(x.astype(np.float64), y.astype(np.float64), window=11)
        assert got == pytest.approx(want, abs=1e-5)

    def test_gaussian_window_normalized_and_symmetric(self):
        k = gaussian_window(11, 1.5)
        assert k.shape == (11, 11)
        assert k.sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(k, k.T, atol=0)
        np.testing.assert_allclose(k, k[::-1, ::-1], atol=0)
        assert k[5, 5] == k.max()


class TestLossGradients:
    def test_mse_gradients(self, rng):
        fused = rand_img(rng, 6, 6)
        ir = rand_img(rng, 6, 6)
        vis = rand_img(rng, 6, 6)
        for t in (fused, ir, vis):
            t.requires_grad = True

        def mse64(f, i, v):
            return ((f - 0.5 * (i + v)) ** 2).mean(axis=_SAMPLE_AXES)

        assert oracle_error(loss_mse, [fused, ir, vis], mse64) < 1e-5

    def test_ssim_gradients(self, rng):
        x = rand_img(rng, 12, 12)
        y = rand_img(rng, 12, 12)
        x.requires_grad = True
        y.requires_grad = True
        assert oracle_error(ssim, [x, y], lambda a, b: reference._ssim_mean(a, b, 11)) < 1e-5

    def test_edge_loss_gradients_on_separated_ramps(self):
        # Ramps with well-separated slopes keep every probe away from the
        # absolute-value and maximum kinks and the sqrt pole; the margins
        # are asserted before differentiating so the construction cannot
        # silently decay.
        cols = np.arange(10, dtype=np.float32).reshape(1, 10)
        rows = np.arange(10, dtype=np.float32).reshape(10, 1)
        ir = img(0.01 * cols + 0.005 * rows)
        vis = img(0.03 * cols + 0.005 * rows)
        fused = img(0.2 * cols + 0.1 * rows)
        margin = 0.02
        gm_f = gradient_magnitude(fused).data
        gm_i = gradient_magnitude(ir).data
        gm_v = gradient_magnitude(vis).data
        assert np.min(np.abs(gm_v - gm_i)) > margin
        assert np.min(np.abs(gm_f - np.maximum(gm_i, gm_v))) > margin
        assert np.min(gm_i) > margin and np.min(gm_f) > margin
        for t in (fused, ir, vis):
            t.requires_grad = True

        def edge64(f, i, v):
            target = np.maximum(reference._sobel_magnitude(i), reference._sobel_magnitude(v))
            return reference._abs(reference._sobel_magnitude(f) - target).mean(axis=_SAMPLE_AXES)

        assert oracle_error(loss_edge, [fused, ir, vis], edge64) < 1e-5

    def test_total_loss_backward_reaches_all_inputs(self, rng):
        from graphfusion.tensor import Tape

        fused = rand_img(rng)
        ir = rand_img(rng)
        vis = rand_img(rng)
        for t in (fused, ir, vis):
            t.requires_grad = True
        with Tape() as tape:
            tape.backward(loss_components(fused, ir, vis, weights(), ssim_window=11)["total"])
        for t in (fused, ir, vis):
            assert t.grad is not None and np.any(t.grad != 0.0)
        tape.clear()


class TestShapeContracts:
    def test_ssim_rejects_small_images(self, rng):
        x = rand_img(rng, 8, 8)
        with pytest.raises(ShapeError, match="smaller than window"):
            ssim(x, x, window=11)

    def test_single_channel_enforced(self):
        bad = Tensor.zeros((1, 2, 12, 12))
        with pytest.raises(ShapeError):
            gradient_magnitude(bad)
        with pytest.raises(ShapeError):
            ssim(bad, bad)

    def test_ssim_rejects_shape_mismatch(self, rng):
        with pytest.raises(ShapeError, match="mismatch"):
            ssim(rand_img(rng, 12, 12), rand_img(rng, 12, 13))
