"""Hand-verifiable values and exactness guarantees for the tensor ops."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from graphfusion import ops
from graphfusion.tensor import ShapeError, Tape, Tensor, accumulate

from conftest import (
    oracle_adaptive,
    oracle_avgpool,
    oracle_conv,
    oracle_maxpool,
    oracle_upsample,
    tensor,
)


def loop_conv64(x, k, g, stride, padding):
    """Float64 conv output, input gradient and kernel gradient, one output cell at a time.

    Each output cell (y, xx) reads padded rows y*stride + i and columns
    xx*stride + j; ``g`` is the output gradient.
    """
    n, c, h, w = x.shape
    oc, _, kh, kw = k.shape
    k = k.astype(np.float64)
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    dxp = np.zeros_like(xp)
    dk = np.zeros(k.shape)
    for y in range(oh):
        for xx in range(ow):
            window = xp[:, :, y * stride : y * stride + kh, xx * stride : xx * stride + kw]
            gy = g[:, :, y, xx].astype(np.float64)
            out[:, :, y, xx] = np.einsum("ncij,ocij->no", window, k)
            dxp[:, :, y * stride : y * stride + kh, xx * stride : xx * stride + kw] += np.einsum("no,ocij->ncij", gy, k)
            dk += np.einsum("no,ncij->ocij", gy, window)
    return out, dxp[:, :, padding : padding + h, padding : padding + w], dk


def taped_conv(x, k, g, stride, padding):
    """conv2d's output and its input and kernel gradients for output gradient ``g``."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape() as tape:
        out = ops.conv2d(xt, kt, Tensor.zeros((k.shape[0],)), stride=stride, padding=padding)
        tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
    result = out.data, xt.grad, kt.grad
    tape.clear()
    return result


def run_in_thread(fn):
    """``fn()`` run on a new thread, which starts with no conv workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and result
    return result[0]


def conv_case(rng, shape, kspec, stride, padding):
    x = rng.standard_normal(shape).astype(np.float32)
    k = rng.standard_normal(kspec).astype(np.float32)
    oh = (shape[2] + 2 * padding - kspec[2]) // stride + 1
    ow = (shape[3] + 2 * padding - kspec[3]) // stride + 1
    g = rng.standard_normal((shape[0], kspec[0], oh, ow)).astype(np.float32)
    return x, k, g


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

    def test_first_gradient_is_a_contiguous_copy_of_its_delta(self):
        x = Tensor.zeros((3, 2), requires_grad=True)
        delta = np.arange(6, dtype=np.float32).reshape(2, 3).T
        accumulate(x, delta)
        assert x.grad.flags["C_CONTIGUOUS"] and x.grad.dtype == np.float32
        delta[...] = -1.0
        np.testing.assert_array_equal(x.grad, [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        accumulate(x, np.ones((3, 2), dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


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

        _, dx_ref, dk_ref = loop_conv64(x.data, k.data, g, stride, padding)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, g.sum(axis=(0, 2, 3)), rtol=1e-5, atol=1e-5)
        if stride == 3:
            # Rows 6-7 and column 6 lie past the last window.
            assert not dx[:, :, 6:, :].any() and not dx[:, :, :, 6:].any()

    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("fill", [0.0, -np.inf])
    def test_framing_matches_np_pad(self, rng, padding, fill):
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        framed = ops._framed(a, padding, fill)
        width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        np.testing.assert_array_equal(framed, np.pad(a, width, constant_values=np.float32(fill)))
        assert framed.dtype == np.float32
        assert (framed is a) == (padding == 0)

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


class TestBandedConv:
    """The banded tap gather behind conv2d: every band, stride and kernel size, and the per-thread workspace."""

    CASES = [
        ((2, 3, 9, 7), (4, 3, 3, 3), 1, 1),
        ((1, 2, 9, 8), (2, 2, 5, 5), 2, 2),
        # No window reaches the last two rows and the last column.
        ((1, 2, 8, 7), (3, 2, 3, 3), 3, 0),
        ((2, 3, 7, 6), (2, 3, 1, 1), 1, 0),
        ((2, 3, 7, 6), (2, 3, 1, 1), 2, 1),
        # The SSIM blur: 11x11, single channel, no padding.
        ((2, 1, 15, 13), (1, 1, 11, 11), 1, 0),
    ]

    @pytest.mark.parametrize("cap", [2, 1])
    @pytest.mark.parametrize("shape,kspec,stride,padding", CASES)
    def test_matches_float64_loop(self, rng, monkeypatch, shape, kspec, stride, padding, cap):
        # The workspace shrunk to ``cap`` output rows of the forward gather,
        # so every pass runs several bands and most end on a short one
        # (TestConv2d covers the default workspace, one band per sample).
        c, kh, kw = kspec[1:]
        ow = (shape[3] + 2 * padding - kw) // stride + 1
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", cap * c * kh * kw * ow)
        x, k, g = conv_case(rng, shape, kspec, stride, padding)
        out, dx, dk = taped_conv(x, k, g, stride, padding)
        out_ref, dx_ref, dk_ref = loop_conv64(x, k, g, stride, padding)
        np.testing.assert_allclose(out, out_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-5, atol=1e-5)
        if stride == 3:
            assert not dx[:, :, 6:, :].any() and not dx[:, :, :, 6:].any()

    def test_bands_cover_each_sample_in_order_with_a_short_last_band(self, rng, monkeypatch):
        # Output 7x5 from a 9x7 map; a cap of 3 rows of 27 taps x 5 columns
        # gives bands of 3, 3 and 1 rows per sample.
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 3 * 27 * 5)
        xp = rng.standard_normal((2, 3, 9, 7)).astype(np.float32)
        bands = [(s, cols.start, cols.stop, taps.shape) for s, cols, taps in ops._bands(xp, 3, 3, 1, 7, 5)]
        rows = [(0, 15, (27, 15)), (15, 30, (27, 15)), (30, 35, (27, 5))]
        assert bands == [(s, *r) for s in range(2) for r in rows]

    def test_workspace_cap_bounds_the_band_but_never_below_one_row(self, rng, monkeypatch):
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 10)
        xp = rng.standard_normal((1, 2, 4, 6)).astype(np.float32)
        shapes = [taps.shape for _, _, taps in ops._bands(xp, 3, 3, 1, 2, 4)]
        assert shapes == [(18, 4), (18, 4)]

    def test_no_stale_workspace_after_a_larger_call(self, rng, monkeypatch):
        # The larger call fills the workspace with bands of 4 rows x 12
        # columns x 27 taps; NaN then stands for its stale rows.  The smaller
        # call's bands are 12 rows x 4 columns, then a short one of 2 rows,
        # and each must write every tap it reads.
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 4 * 27 * 12)
        big = conv_case(rng, (1, 3, 12, 12), (2, 3, 3, 3), 1, 1)
        small = conv_case(rng, (2, 3, 14, 4), (2, 3, 3, 3), 1, 1)
        taped_conv(*big, 1, 1)
        ops._WORKSPACE.buf[...] = np.nan
        got = taped_conv(*small, 1, 1)
        fresh = run_in_thread(lambda: taped_conv(*small, 1, 1))
        for a, b, ref in zip(got, fresh, loop_conv64(*small, 1, 1)):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(a, ref, rtol=1e-5, atol=1e-5)

    def test_workspace_is_per_thread(self, rng, monkeypatch):
        # Four threads on different shapes, more than there are cores, with
        # small bands and a short switch interval, so their gathers interleave.
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 2 * 36 * 12)
        cases = [
            (conv_case(rng, (2, 4, 12, 12), (3, 4, 3, 3), 1, 1), 1, 1),
            (conv_case(rng, (1, 2, 17, 9), (5, 2, 5, 5), 2, 2), 2, 2),
            (conv_case(rng, (2, 3, 10, 7), (2, 3, 1, 1), 1, 0), 1, 0),
            (conv_case(rng, (1, 1, 14, 13), (1, 1, 11, 11), 1, 0), 1, 0),
        ]
        serial = [taped_conv(*case, stride, padding) for case, stride, padding in cases]
        start = threading.Barrier(len(cases), timeout=60)
        results: list = [None] * len(cases)

        def work(i):
            case, stride, padding = cases[i]
            start.wait()
            results[i] = [taped_conv(*case, stride, padding) for _ in range(20)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, runs in zip(serial, results):
            assert runs is not None
            for got in runs:
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_vga_forward_makes_no_full_frame_temporary(self):
        # No tape: the padded input and the output are the only full-frame
        # arrays besides the input; 8 MB covers the workspace and the rest.
        n, c, h, w = 1, 16, 480, 640
        k = Tensor(np.full((c, c, 3, 3), 0.01, dtype=np.float32))
        b = Tensor.zeros((c,))
        tracemalloc.start()
        try:
            x = Tensor(np.ones((n, c, h, w), dtype=np.float32))
            ops.conv2d(x, k, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame = 4 * n * c
        assert peak < frame * h * w + frame * (h + 2) * (w + 2) + frame * h * w + (8 << 20)


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
        np.testing.assert_array_equal(mx.data, oracle_maxpool(x, window, stride, padding))
        np.testing.assert_allclose(av.data, oracle_avgpool(x, window, stride, padding), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "shape,window,stride,padding",
        [
            ((2, 2, 6, 7), 2, 1, 0),
            ((2, 2, 6, 7), 2, 2, 0),
            ((2, 2, 6, 7), 2, 1, 1),
            ((2, 2, 6, 7), 2, 2, 1),
            ((2, 2, 6, 7), 3, 1, 0),
            ((2, 2, 6, 7), 3, 2, 0),
            ((2, 2, 6, 7), 3, 1, 1),
            ((2, 2, 6, 7), 3, 2, 1),
            # 289 taps: the tap index no longer fits in one byte.
            ((1, 2, 19, 18), 17, 1, 1),
        ],
    )
    def test_maxpool_gradient_at_ties_goes_to_first_maximum(self, rng, shape, window, stride, padding):
        # Three levels make ties common; channel 1 is all equal, and its
        # corner windows also hold -inf padding when padding is 1.
        x = rng.integers(0, 3, size=shape).astype(np.float32)
        x[:, 1] = -1.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.maxpool2d(t, window, stride, padding)
            # Quarter steps keep every float32 sum exact.
            g = rng.integers(1, 9, size=out.shape).astype(np.float32) / 4
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx = t.grad.copy()
        tape.clear()

        n, c, h, w = shape
        xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        dxp = np.zeros_like(xp)
        for nn in range(n):
            for cc in range(c):
                for y in range(out.shape[2]):
                    for xx in range(out.shape[3]):
                        win = xp[nn, cc, y * stride : y * stride + window, xx * stride : xx * stride + window]
                        i, j = divmod(int(np.argmax(win)), window)  # first maximum in row-major order
                        dxp[nn, cc, y * stride + i, xx * stride + j] += g[nn, cc, y, xx]
        np.testing.assert_array_equal(dx, dxp[:, :, padding : padding + h, padding : padding + w])

    def test_maxpool_nan_window_outputs_nan_and_routes_to_earlier_maximum(self):
        x = tensor([[[[1.0, 2.0], [np.nan, 0.5]]]], requires_grad=True)
        with Tape() as tape:
            out = ops.maxpool2d(x, window=2, stride=2)
            tape.backward(ops.reduce_sum(out))
        assert np.isnan(out.data[0, 0, 0, 0])
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])
        tape.clear()

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

    @pytest.mark.parametrize("op", [ops.maxpool2d, ops.avgpool2d])
    def test_pool_size_error_names_padded_size(self, op):
        with pytest.raises(ShapeError, match=r"padded input 4x5 smaller than window 5"):
            op(Tensor.zeros((1, 1, 2, 3)), window=5, stride=1, padding=1)


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
