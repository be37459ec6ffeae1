"""Hand-verifiable values and exactness guarantees for the tensor ops."""

import numpy as np
import pytest

from graphfusion import ops
from graphfusion.tensor import ShapeError, Tape, Tensor

from conftest import (
    oracle_adaptive,
    oracle_avgpool,
    oracle_conv,
    oracle_maxpool,
    oracle_upsample,
    tensor,
)


class TestTensorBasics:
    def test_scalar_tensor_keeps_zero_dim_shape(self):
        t = Tensor(np.float32(3.5))
        assert t.shape == ()
        assert t.item() == 3.5

    def test_data_is_float32_contiguous(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2).T)
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            tensor([1.0, 2.0]).item()

    def test_backward_requires_scalar_loss(self):
        x = tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = ops.scale(x, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(y)
        tape.clear()

    def test_tape_clear_resets_grads(self):
        x = tensor([2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ops.reduce_sum(x))
        assert x.grad is not None
        tape.clear()
        assert x.grad is None


class TestConv2d:
    def test_ones_kernel_counts_window_coverage(self):
        x = Tensor.full((1, 1, 3, 3), 1.0)
        k = Tensor.full((1, 1, 3, 3), 1.0)
        b = Tensor.zeros((1,))
        out = ops.conv2d(x, k, b, padding=1)
        expected = [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_delta_kernel_is_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 5), dtype=np.float32))
        k = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        out = ops.conv2d(x, Tensor(k), Tensor.zeros((3,)), padding=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_bias_broadcasts_per_output_channel(self):
        x = Tensor.zeros((1, 1, 2, 2))
        k = Tensor.zeros((3, 1, 1, 1))
        out = ops.conv2d(x, k, tensor([1.0, 2.0, 3.0]))
        assert out.shape == (1, 3, 2, 2)
        np.testing.assert_array_equal(out.data[0, :, 0, 0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "shape,kspec,stride,padding",
        [
            ((1, 1, 4, 4), (1, 1, 3, 3), 1, 0),
            ((2, 3, 5, 6), (4, 3, 3, 3), 1, 1),
            ((1, 2, 7, 5), (3, 2, 1, 1), 1, 0),
            ((1, 2, 8, 8), (2, 2, 3, 3), 2, 1),
            ((1, 1, 9, 9), (1, 1, 5, 5), 2, 2),
            ((2, 3, 7, 6), (2, 3, 1, 1), 2, 0),
            # No window reaches the last two rows and the last column.
            ((1, 2, 8, 7), (3, 2, 3, 3), 3, 0),
        ],
    )
    def test_matches_loop_oracle(self, rng, shape, kspec, stride, padding):
        x = rng.standard_normal(shape).astype(np.float32)
        k = rng.standard_normal(kspec).astype(np.float32)
        b = rng.standard_normal(kspec[0]).astype(np.float32)
        out = ops.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
        expected = oracle_conv(x, k, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize(
        "shape,kspec,stride,padding",
        [
            ((1, 2, 8, 7), (3, 2, 3, 3), 3, 0),
            ((2, 2, 7, 6), (2, 2, 1, 1), 2, 1),
            # The network's convs: 3x3, stride 1, padding 1.
            ((2, 3, 6, 5), (4, 3, 3, 3), 1, 1),
            # Padding of kh - 1 or more: the border cells are all padding.
            ((1, 2, 5, 4), (3, 2, 1, 1), 1, 1),
            # The SSIM blur: 11x11, no padding.
            ((1, 1, 13, 12), (1, 1, 11, 11), 1, 0),
            ((1, 2, 9, 8), (2, 2, 5, 5), 2, 2),
        ],
    )
    def test_strided_gradients_match_loop_adjoint(self, rng, shape, kspec, stride, padding):
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal(kspec).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(kspec[0]).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, k, b, stride=stride, padding=padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx, dk, db = x.grad.copy(), k.grad.copy(), b.grad.copy()
        tape.clear()

        # Each output cell (y, xx) reads padded rows y*stride + i, cols xx*stride + j.
        kh, kw = kspec[2], kspec[3]
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        dxp = np.zeros_like(xp)
        dk_ref = np.zeros(kspec)
        for y in range(out.shape[2]):
            for xx in range(out.shape[3]):
                rows = slice(y * stride, y * stride + kh)
                cols = slice(xx * stride, xx * stride + kw)
                gy = g[:, :, y, xx].astype(np.float64)
                dxp[:, :, rows, cols] += np.einsum("no,ocij->ncij", gy, k.data.astype(np.float64))
                dk_ref += np.einsum("no,ncij->ocij", gy, xp[:, :, rows, cols])
        h, w = shape[2], shape[3]
        dx_ref = dxp[:, :, padding : padding + h, padding : padding + w]
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, g.sum(axis=(0, 2, 3)), rtol=1e-5, atol=1e-5)
        if stride == 3:
            # Rows 6-7 and column 6 lie past the last window.
            assert not dx[:, :, 6:, :].any() and not dx[:, :, :, 6:].any()

    def test_rejects_channel_mismatch(self):
        x = Tensor.zeros((1, 2, 4, 4))
        k = Tensor.zeros((1, 3, 3, 3))
        with pytest.raises(ShapeError):
            ops.conv2d(x, k, Tensor.zeros((1,)))

    def test_rejects_kernel_larger_than_padded_input(self):
        x = Tensor.zeros((1, 1, 2, 2))
        k = Tensor.zeros((1, 1, 5, 5))
        with pytest.raises(ShapeError):
            ops.conv2d(x, k, Tensor.zeros((1,)))


class TestPooling:
    def test_maxpool_picks_window_max(self):
        x = tensor([[[[1.0, 3.0], [4.0, 2.0]]]])
        out = ops.maxpool2d(x, window=2, stride=2)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_maxpool_padding_never_wins(self):
        x = Tensor.full((1, 1, 3, 3), -5.0)
        out = ops.maxpool2d(x, window=3, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), -5.0))

    def test_avgpool_constant_field_exact_through_padding(self):
        x = Tensor.full((1, 2, 5, 5), 0.73)
        out = ops.avgpool2d(x, window=3, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 5, 5), np.float32(0.73)))

    def test_avgpool_corner_averages_valid_cells_only(self):
        x = tensor([[np.arange(1.0, 10.0).reshape(3, 3)]])
        out = ops.avgpool2d(x, window=3, stride=1, padding=1)
        # Top-left window sees cells {1, 2, 4, 5}: mean 3, not (1+2+4+5)/9.
        assert out.data[0, 0, 0, 0] == 3.0
        assert out.data[0, 0, 1, 1] == 5.0

    @pytest.mark.parametrize("window,stride,padding", [(2, 2, 0), (3, 1, 1), (3, 2, 1), (2, 1, 0)])
    def test_pools_match_loop_oracles(self, rng, window, stride, padding):
        x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
        mx = ops.maxpool2d(Tensor(x), window, stride, padding)
        av = ops.avgpool2d(Tensor(x), window, stride, padding)
        np.testing.assert_allclose(mx.data, oracle_maxpool(x, window, stride, padding), rtol=1e-6)
        np.testing.assert_allclose(av.data, oracle_avgpool(x, window, stride, padding), rtol=1e-5, atol=1e-6)

    def test_adaptive_ramp_bin_means(self):
        x = tensor([[np.arange(16.0).reshape(4, 4)]])
        out = ops.adaptive_avgpool2d(x, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adaptive_identity_when_sizes_match(self, rng):
        x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
        out = ops.adaptive_avgpool2d(Tensor(x), 3, 3)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("out_hw", [(1, 1), (2, 2), (3, 5), (5, 3)])
    def test_adaptive_matches_loop_oracle(self, rng, out_hw):
        x = rng.standard_normal((2, 2, 5, 7)).astype(np.float32)
        out = ops.adaptive_avgpool2d(Tensor(x), *out_hw)
        np.testing.assert_allclose(out.data, oracle_adaptive(x, *out_hw), rtol=1e-5, atol=1e-6)

    def test_global_avgpool_shape_and_value(self):
        x = tensor([[np.arange(4.0).reshape(2, 2), np.full((2, 2), 2.0)]])
        out = ops.global_avgpool(x)
        assert out.shape == (1, 2, 1, 1)
        np.testing.assert_array_equal(out.data.reshape(2), [1.5, 2.0])

    def test_pool_rejects_bad_window(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d(Tensor.zeros((1, 1, 4, 4)), window=0, stride=1)


class TestUpsample:
    def test_row_interpolation_weights(self):
        x = tensor([[[[0.0, 3.0], [0.0, 3.0]]]])
        out = ops.upsample_bilinear(x, 2, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 1.0, 2.0, 3.0], atol=1e-6)

    def test_corners_are_preserved(self, rng):
        x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        out = ops.upsample_bilinear(Tensor(x), 7, 5)
        assert out.data[0, 0, 0, 0] == x[0, 0, 0, 0]
        # Far corner lands on t=1 and goes through a + t*(b-a): near-exact.
        np.testing.assert_allclose(out.data[0, 0, -1, -1], x[0, 0, -1, -1], rtol=1e-6)

    def test_rejects_downscaling(self):
        with pytest.raises(ShapeError):
            ops.upsample_bilinear(Tensor.zeros((1, 1, 4, 4)), 2, 2)

    def test_constant_field_exact(self):
        x = Tensor.full((1, 2, 3, 3), 0.37)
        out = ops.upsample_bilinear(x, 8, 11)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 8, 11), np.float32(0.37)))

    @pytest.mark.parametrize("out_hw", [(3, 4), (4, 4), (5, 9), (6, 13)])
    def test_matches_loop_oracle(self, rng, out_hw):
        x = rng.standard_normal((2, 2, 3, 4)).astype(np.float32)
        out = ops.upsample_bilinear(Tensor(x), *out_hw)
        np.testing.assert_allclose(out.data, oracle_upsample(x, *out_hw), rtol=1e-5, atol=1e-6)

    def test_single_pixel_broadcasts(self):
        x = tensor([[[[2.5]]]])
        out = ops.upsample_bilinear(x, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.5))


class TestElementwiseAndReductions:
    def test_sigmoid_fixed_points(self):
        out = ops.sigmoid(tensor([0.0, 50.0, -50.0]))
        np.testing.assert_allclose(out.data, [0.5, 1.0, 0.0], atol=1e-6)

    def test_sigmoid_gradient_at_zero(self):
        x = tensor([0.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ops.reduce_sum(ops.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.25], atol=1e-7)
        tape.clear()

    def test_relu_clamps_negatives(self):
        out = ops.relu(tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_maximum_elementwise(self):
        out = ops.maximum(tensor([1.0, 5.0]), tensor([2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [2.0, 5.0])

    def test_binary_op_broadcasting_and_grads(self):
        a = tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        b = tensor(np.full((1, 3, 1, 1), 2.0), requires_grad=True)
        with Tape() as tape:
            tape.backward(ops.reduce_sum(ops.mul(a, b)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3, 2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((1, 3, 1, 1), 8.0))
        tape.clear()

    def test_div_and_reciprocal_rule(self):
        a = tensor([6.0], requires_grad=True)
        b = tensor([2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ops.reduce_sum(ops.div(a, b)))
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])
        tape.clear()

    def test_sqrt_and_absolute(self):
        np.testing.assert_allclose(ops.sqrt(tensor([4.0, 9.0])).data, [2.0, 3.0])
        np.testing.assert_array_equal(ops.absolute(tensor([-1.5, 2.0])).data, [1.5, 2.0])

    def test_reduce_mean_scalar_shape(self):
        out = ops.reduce_mean(tensor(np.ones((2, 3))))
        assert out.shape == ()
        assert out.item() == 1.0

    def test_reduce_sum_accumulates_in_float64(self):
        # Pure float32 accumulation of 2**20 copies of 0.1 drifts visibly;
        # a float64 accumulator rounded once stays at the nearest float32.
        x = Tensor.full((1024, 1024), 0.1)
        exact = np.float32(1024 * 1024 * np.float64(np.float32(0.1)))
        assert ops.reduce_sum(x).data == exact

    def test_concat_channels_layout_and_grad(self):
        a = tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        b = tensor(np.full((1, 3, 2, 2), 2.0), requires_grad=True)
        with Tape() as tape:
            cat = ops.concat_channels([a, b])
            assert cat.shape == (1, 5, 2, 2)
            tape.backward(ops.reduce_sum(ops.mul(cat, cat)))
        np.testing.assert_array_equal(a.grad, np.full((1, 2, 2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((1, 3, 2, 2), 4.0))
        tape.clear()

    def test_reshape_rejects_size_change(self):
        with pytest.raises(ShapeError):
            ops.reshape(tensor(np.ones((2, 3))), (4, 2))

    def test_scale_shift_negate(self):
        x = tensor([1.0, -2.0])
        np.testing.assert_array_equal(ops.scale(x, 3.0).data, [3.0, -6.0])
        np.testing.assert_array_equal(ops.shift(x, 1.0).data, [2.0, -1.0])
        np.testing.assert_array_equal(ops.negate(x).data, [-1.0, 2.0])

    def test_fully_connected_matches_matmul(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        w = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = ops.fully_connected(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-5, atol=1e-6)

    def test_fully_connected_flattens_trailing_dims(self, rng):
        x = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        out = ops.fully_connected(Tensor(x), Tensor(w), Tensor(np.zeros(4, np.float32)))
        assert out.shape == (2, 4)


class TestNoRecording:
    def test_probe_leaves_tape_empty(self):
        from graphfusion.tensor import no_recording

        x = tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with no_recording():
                ops.scale(x, 2.0)
            assert len(tape) == 0
            y = ops.scale(x, 2.0)
            assert len(tape) == 1
            tape.backward(ops.reduce_sum(y))
        tape.clear()
