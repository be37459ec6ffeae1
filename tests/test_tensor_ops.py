"""Hand-verifiable values and exactness guarantees for the tensor ops."""

import inspect
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphfusion import ops
from graphfusion.config import FusionConfig
from graphfusion.losses import loss_components
from graphfusion.network import forward, fuse_arrays, init_params
from graphfusion.tensor import ShapeError, Tape, Tensor, accumulate, active_tape

from conftest import (
    loop_conv_f64,
    oracle_adaptive,
    oracle_avgpool,
    oracle_conv,
    oracle_maxpool,
    oracle_upsample,
    tensor,
)


def taped_conv(x, k, g, padding):
    """conv2d's output and its input and kernel gradients for output gradient ``g``."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape() as tape:
        out = ops.conv2d(xt, kt, Tensor.zeros((k.shape[0],)), padding=padding)
        tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
    result = out.data, xt.grad, kt.grad
    tape.clear()
    return result


def run_in_thread(fn):
    """``fn()`` run on a new thread."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and result
    return result[0]


def conv_case(rng, shape, kspec, padding):
    x = rng.standard_normal(shape).astype(np.float32)
    k = rng.standard_normal(kspec).astype(np.float32)
    oh, ow = (shape[d] + 2 * padding - kspec[d] + 1 for d in (2, 3))
    g = rng.standard_normal((shape[0], kspec[0], oh, ow)).astype(np.float32)
    return x, k, g


def fancy_index_upsample(x, out_h, out_w):
    """Corner-aligned bilinear upsampling by fancy-index gathers, ``a + t * (b - a)`` per axis."""
    n, c, h, w = x.shape

    def grid(size, out):
        if out == 1 or size == 1:
            idx = np.zeros(out, dtype=np.intp)
            return idx, idx.copy(), np.zeros(out, dtype=np.float32)
        pos = np.arange(out, dtype=np.float64) * (size - 1) / (out - 1)
        i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
        return i0, i0 + 1, (pos - i0).astype(np.float32)

    r0, r1, tr = grid(h, out_h)
    c0, c1, tc = grid(w, out_w)
    a, b = x[:, :, r0, :], x[:, :, r1, :]
    rows = a + tr[None, None, :, None] * (b - a)
    left, right = rows[:, :, :, c0], rows[:, :, :, c1]
    return left + tc[None, None, None, :] * (right - left)


def eager_maxpool(x, g, window, padding):
    """Max pooling output and input gradient, with the winning-tap map built alongside the maximum.

    The taps are scanned in row-major order; a tap wins a cell only where it
    is strictly greater than the running maximum.  ``g`` is the output
    gradient, added into each winning tap's cell.
    """
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=np.float32)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    oh, ow = h + 2 * padding - window + 1, w + 2 * padding - window + 1

    def tap(a, idx):
        i, j = divmod(idx, window)
        return a[:, :, i : i + oh, j : j + ow]

    out = tap(xp, 0).copy()
    arg = np.zeros(out.shape, dtype=np.int64)
    for idx in range(1, window * window):
        arg[tap(xp, idx) > out] = idx
        out = np.maximum(out, tap(xp, idx))
    dxp = np.zeros(xp.shape, dtype=np.float32)
    for idx in range(window * window):
        tap(dxp, idx)[...] += g * (arg == idx)
    return out, dxp[:, :, padding : padding + h, padding : padding + w]


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

    def test_second_backward_adds_the_same_gradient_again(self):
        # d/dx sum(3 x x) = 6 x.  Intermediates hold no gradient after a
        # backward, so a second replay adds 6 x once more to the leaf.
        x = tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.scale(ops.mul(x, x), 3.0))
            tape.backward(loss)
            np.testing.assert_array_equal(x.grad, [6.0, 12.0])
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [12.0, 24.0])
        tape.clear()

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
        "shape,kspec,padding",
        [
            ((1, 1, 4, 4), (1, 1, 3, 3), 0),
            ((2, 3, 5, 6), (4, 3, 3, 3), 1),
            ((1, 2, 7, 5), (3, 2, 1, 1), 0),
        ],
        # Fixed ids keep each case's name as rows come and go.
        ids=["shape0-kspec0-1-0", "shape1-kspec1-1-1", "shape2-kspec2-1-0"],
    )
    def test_matches_loop_oracle(self, rng, shape, kspec, padding):
        x = rng.standard_normal(shape).astype(np.float32)
        k = rng.standard_normal(kspec).astype(np.float32)
        b = rng.standard_normal(kspec[0]).astype(np.float32)
        out = ops.conv2d(Tensor(x), Tensor(k), Tensor(b), padding=padding)
        expected = oracle_conv(x, k, b, padding=padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize(
        "shape,kspec,padding",
        [
            # The network's convs: 3x3, padding 1.
            ((2, 3, 6, 5), (4, 3, 3, 3), 1),
            # The SSIM blur: 11x11, no padding.
            ((1, 1, 13, 12), (1, 1, 11, 11), 0),
        ],
    )
    def test_gradients_match_loop_adjoint(self, rng, shape, kspec, padding):
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal(kspec).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(kspec[0]).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, k, b, padding=padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx, dk, db = x.grad.copy(), k.grad.copy(), b.grad.copy()
        tape.clear()

        _, dx_ref, dk_ref = loop_conv_f64(x.data, k.data, g, padding)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, g.sum(axis=(0, 2, 3)), rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("padding", [0, 1, 3])
    @pytest.mark.parametrize("fill", [0.0, -np.inf])
    def test_framing_matches_np_pad(self, rng, padding, fill):
        # Convs read a frame of zeros, max pooling one of -inf.
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        framed = ops._framed(a, padding, fill=fill)
        width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        np.testing.assert_array_equal(framed, np.pad(a, width, constant_values=np.float32(fill)))
        assert framed.dtype == np.float32
        assert np.shares_memory(framed, a) == (padding == 0)

    @pytest.mark.parametrize(
        "shape,kspec,padding",
        [
            # The graph's edge conv, on both sides of _VIEW_CHANNELS.
            ((2, 16, 9, 7), (16, 16, 3, 3), 1),
            ((2, 4, 9, 7), (4, 4, 3, 3), 1),
            # No frame.
            ((2, 16, 6, 5), (3, 16, 1, 1), 0),
        ],
        ids=["shape0-kspec0-1-1", "shape1-kspec1-1-1", "shape2-kspec2-1-0"],
    )
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("bands", ["default", "short"])
    def test_minus_equals_sub_then_conv_bit_for_bit(self, rng, monkeypatch, shape, kspec, padding, with_bias, bands):
        # The difference is formed in each band's frame, not on the tape; the
        # output and every gradient equal those of ``conv2d(sub(x, m), ...)``.
        # ``None`` for the bias equals a bias of zeros.  Short bands of 4 rows
        # end every forward, kernel gradient and input gradient here on a
        # shorter band, on both sides.
        if bands == "short":
            TestBandedConv.shrink_bands(monkeypatch, 4, shape, kspec, padding)
        x, k, g = conv_case(rng, shape, kspec, padding)
        m = rng.standard_normal(shape).astype(np.float32)
        b = rng.standard_normal(kspec[0]).astype(np.float32) if with_bias else np.zeros(kspec[0], np.float32)

        def run(fused):
            ts = [Tensor(a, requires_grad=True) for a in (x, m, k, b)]
            xt, mt, kt, bt = ts
            with Tape() as tape:
                if fused:
                    out = ops.conv2d(xt, kt, bt if with_bias else None, padding=padding, minus=mt)
                else:
                    out = ops.conv2d(ops.sub(xt, mt), kt, bt, padding=padding)
                records = len(tape)
                tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
            result = [out.data] + [t.grad for t in ts]
            tape.clear()
            return records, result

        (fused_records, got), (_, want) = run(True), run(False)
        assert fused_records == 1
        for name, a, w in zip(("out", "x", "minus", "kernel", "bias"), got, want):
            if name == "bias" and not with_bias:
                assert a is None
            else:
                np.testing.assert_array_equal(a, w, err_msg=name)

    def test_minus_frees_no_difference_map(self, rng):
        # Taped, the output is the only new array held, as without ``minus``.
        x, m = (Tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True) for _ in range(2))
        k = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            tracemalloc.start()
            try:
                out = ops.conv2d(x, k, None, padding=1, minus=m)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            tape.backward(ops.reduce_sum(out))
        tape.clear()
        assert held < out.data.nbytes + (64 << 10)

    def test_rejects_a_minus_of_another_shape(self):
        with pytest.raises(ShapeError, match="conv2d: minus shape"):
            ops.conv2d(Tensor.zeros((1, 2, 4, 4)), Tensor.zeros((1, 2, 3, 3)), None, minus=Tensor.zeros((1, 2, 4, 5)))

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

    @pytest.mark.parametrize(
        "kspec,padding",
        [
            ((2, 2, 3, 2), 0),
            ((2, 2, 3, 2), 1),
            # Padding of k or more: the border outputs read only padding.
            ((2, 2, 1, 1), 1),
            ((2, 2, 3, 3), 3),
            ((2, 2, 3, 3), -1),
        ],
    )
    def test_rejects_a_bad_kernel_before_allocating(self, kspec, padding):
        # A 1x2x512x512 input: its frame or output would be megabytes.
        x, k = Tensor.zeros((1, 2, 512, 512)), Tensor.zeros(kspec)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=rf"conv2d: kernel shape \({', '.join(map(str, kspec))}\)"):
                ops.conv2d(x, k, None, padding=padding)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_padding_is_keyword_only(self):
        x, k, b = Tensor.zeros((1, 2, 4, 4)), Tensor.zeros((2, 2, 3, 3)), Tensor.zeros((2,))
        with pytest.raises(TypeError):
            ops.conv2d(x, k, b, 1, 1)
        with pytest.raises(TypeError):
            ops.conv2d(x, k, b, 1)
        for pool in (ops.maxpool2d, ops.avgpool2d):
            with pytest.raises(TypeError):
                pool(x, 3, 1, 1)
            with pytest.raises(TypeError):
                pool(x, 3, 1)


def closure_arrays(fn):
    """The arrays a closure holds, directly or in a list or tuple."""
    held = []
    for cell in fn.__closure__:
        value = cell.cell_contents
        held += [a for a in (value if isinstance(value, (list, tuple)) else [value]) if isinstance(a, np.ndarray)]
    return held


class TestConvParts:
    """conv2d over a sequence of tensors, read as their concatenation along channels."""

    @pytest.mark.parametrize(
        "widths", [(1, 2), (5, 12), (16, 16, 16)], ids=["gather-1+2", "view-5+12", "view-3x16"]
    )
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1)])
    @pytest.mark.parametrize("bands", ["default", "short"])
    def test_equals_concat_then_conv_bit_for_bit(self, rng, monkeypatch, widths, k, padding, bands):
        # The output and the kernel, bias and every part's gradient equal
        # those of ``conv2d(concat_channels(parts))``.  Short bands of 3 rows
        # end each sample's forward and kernel gradient on a 1-row band.
        shape, oc = (2, sum(widths), 7 + k - 1 - 2 * padding, 6), 3 if sum(widths) < 16 else 16
        if bands == "short":
            TestBandedConv.shrink_bands(monkeypatch, 3, shape, (oc, shape[1], k, k), padding)
        x, kern, g = conv_case(rng, shape, (oc, shape[1], k, k), padding)
        xs = np.split(x, np.cumsum(widths)[:-1], axis=1)
        b = rng.standard_normal(oc).astype(np.float32)

        def run(parted):
            ts = [Tensor(a, requires_grad=True) for a in (*xs, kern, b)]
            *parts, kt, bt = ts
            with Tape() as tape:
                out = ops.conv2d(parts if parted else ops.concat_channels(parts), kt, bt, padding=padding)
                records = len(tape)
                tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
            result = [out.data] + [t.grad for t in ts]
            tape.clear()
            return records, result

        (records, got), (_, want) = run(True), run(False)
        assert records == 1
        names = ["out", *(f"part{i}" for i in range(len(widths))), "kernel", "bias"]
        for name, a, w in zip(names, got, want):
            assert a.shape == w.shape and a.tobytes() == w.tobytes(), name

    def test_a_tensor_in_two_parts_gets_both_gradients(self, rng):
        # Its two channel blocks of the input gradient add up in part order,
        # as ``concat_channels`` hands them out.
        x, kern, g = conv_case(rng, (1, 4, 5, 5), (2, 4, 3, 3), 1)

        def run(parted):
            xt, kt = Tensor(x[:, :2], requires_grad=True), Tensor(kern, requires_grad=True)
            with Tape() as tape:
                out = ops.conv2d([xt, xt] if parted else ops.concat_channels([xt, xt]), kt, None, padding=1)
                tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
            result = out.data, xt.grad, kt.grad
            tape.clear()
            return result

        for a, w in zip(run(True), run(False)):
            assert a.tobytes() == w.tobytes()

    def test_record_keeps_the_parts_not_their_concatenation(self, rng):
        parts = [Tensor(rng.standard_normal((1, c, 4, 4)).astype(np.float32), requires_grad=True) for c in (2, 3)]
        kernel = Tensor(rng.standard_normal((2, 5, 3, 3)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            ops.conv2d(parts, kernel, None, padding=1)
            held = closure_arrays(tape._records[-1][1])
        tape.clear()
        assert {id(a) for a in held} == {id(parts[0].data), id(parts[1].data), id(kernel.data)}
        assert all(a.shape[:2] != (1, 5) for a in held)

    @pytest.mark.parametrize(
        "parts,match",
        [
            ([], "need at least one input tensor"),
            ([(1, 2, 4, 4), (2, 2, 4, 4)], "input parts differ beyond channels"),
            ([(1, 2, 4, 4), (1, 2, 5, 4)], "input parts differ beyond channels"),
            ([(1, 2, 4, 4), (1, 2, 4, 5)], "input parts differ beyond channels"),
            ([(1, 2, 4, 4), (1, 3, 4, 4)], "input has 5 channels"),
        ],
        ids=["empty", "batch", "height", "width", "channels"],
    )
    def test_rejects_parts_that_do_not_concatenate(self, parts, match):
        with pytest.raises(ShapeError, match=f"conv2d: {match}"):
            ops.conv2d([Tensor.zeros(s) for s in parts], Tensor.zeros((1, 4, 3, 3)), None, padding=1)

    def test_rejects_minus_with_a_sequence(self):
        x = [Tensor.zeros((1, 2, 4, 4)), Tensor.zeros((1, 2, 4, 4))]
        with pytest.raises(ShapeError, match="conv2d: minus needs one input tensor"):
            ops.conv2d(x, Tensor.zeros((1, 4, 3, 3)), None, padding=1, minus=Tensor.zeros((1, 4, 4, 4)))


class TestBandedConv:
    """The band loop behind conv2d on both sides of ``_VIEW_CHANNELS``: per-tap GEMMs over
    views of each band's own framed rows, and one GEMM over gathered taps for a thin forward."""

    # Fixed ids keep each case's name as rows come and go.
    CASES = [
        pytest.param((2, 3, 9, 7), (4, 3, 3, 3), 1, id="shape0-kspec0-1-1"),
        pytest.param((2, 3, 7, 6), (2, 3, 1, 1), 0, id="shape3-kspec3-1-0"),
        # The SSIM blur: 11x11, single channel, no padding.
        pytest.param((2, 1, 15, 13), (1, 1, 11, 11), 0, id="shape5-kspec5-1-0"),
        # Either side of the channel threshold; the input gradient of the
        # 15-channel case runs on the view side, and of the 17-channel one
        # on the gather side.
        pytest.param((2, 15, 9, 7), (17, 15, 3, 3), 1, id="shape6-kspec6-1-1"),
        pytest.param((2, 16, 9, 7), (4, 16, 3, 3), 1, id="shape7-kspec7-1-1"),
        pytest.param((1, 17, 9, 8), (15, 17, 3, 3), 1, id="shape8-kspec8-1-1"),
        # The graph's leader conv: 48 channels, 1x1.
        pytest.param((2, 48, 7, 6), (16, 48, 1, 1), 0, id="shape9-kspec9-1-0"),
        # Thin inputs: the forward gathers, the kernel gradient takes views.
        pytest.param((2, 2, 9, 7), (4, 2, 3, 3), 1, id="thin2-3x3-1"),
        pytest.param((2, 4, 8, 7), (5, 4, 3, 3), 1, id="thin4-3x3-1"),
        pytest.param((1, 8, 9, 6), (3, 8, 3, 3), 1, id="thin8-3x3-1"),
    ]

    @staticmethod
    def shrink_bands(monkeypatch, rows, shape, kspec, padding):
        """Bands of ``rows`` output rows, gathered or viewed, so most passes end on a short band."""
        oc, c, k, _ = kspec
        wp = shape[3] + 2 * padding
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", rows * c * k * k * (wp - k + 1))
        monkeypatch.setattr(ops, "_BAND_FLOATS", rows * max(c, oc) * wp)

    @pytest.mark.parametrize("cap", [2, 1])
    @pytest.mark.parametrize("shape,kspec,padding", CASES)
    def test_matches_float64_loop(self, rng, monkeypatch, shape, kspec, padding, cap):
        # TestConv2d covers the default band sizes, one band per sample.
        self.shrink_bands(monkeypatch, cap, shape, kspec, padding)
        x, k, g = conv_case(rng, shape, kspec, padding)
        out, dx, dk = taped_conv(x, k, g, padding)
        out_ref, dx_ref, dk_ref = loop_conv_f64(x, k, g, padding)
        np.testing.assert_allclose(out, out_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-5, atol=1e-5)

    def test_bands_cover_each_sample_in_order_with_a_short_last_band(self):
        bands = [(s, r0, r) for s, r0, r, _ in ops._band_frames(np.zeros((2, 1, 7, 4), np.float32), 1, 0, 3)]
        assert bands == [(s, r0, r) for s in range(2) for r0, r in ((0, 3), (3, 3), (6, 1))]

    @pytest.mark.parametrize("cap", [2, 1])
    def test_thin_minus_matches_float64_loop(self, rng, monkeypatch, cap):
        # A thin kernel gradient of ``x - m`` reads views of each band's
        # frame of the difference, as a wide one does.
        shape, kspec, padding = (2, 3, 9, 7), (4, 3, 3, 3), 1
        self.shrink_bands(monkeypatch, cap, shape, kspec, padding)
        x, k, g = conv_case(rng, shape, kspec, padding)
        m = rng.standard_normal(shape).astype(np.float32)
        xt, mt, kt = (Tensor(a, requires_grad=True) for a in (x, m, k))
        with Tape() as tape:
            out = ops.conv2d(xt, kt, None, padding=padding, minus=mt)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        out_ref, dx_ref, dk_ref = loop_conv_f64(x - m, k, g, padding)
        for got, want in ((out.data, out_ref), (xt.grad, dx_ref), (mt.grad, -dx_ref), (kt.grad, dk_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        tape.clear()

    def test_workspace_cap_bounds_the_band_but_never_below_one_row(self, rng, monkeypatch):
        # A 10-float cap holds no whole row of 2x3x3 taps, so the thin
        # forward frames one-row bands, and gathers each one's taps in the
        # row order of ``kernel.reshape(oc, -1)``.
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 10)
        band_frames, bands = ops._band_frames, []

        def recording(*args, **kwargs):
            for band in band_frames(*args, **kwargs):
                bands.append(band[:3])
                yield band

        monkeypatch.setattr(ops, "_band_frames", recording)
        a, m = (rng.standard_normal((2, 2, 4, 6)).astype(np.float32) for _ in range(2))
        k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        for padding, minus in ((0, None), (1, None), (1, m)):
            bands.clear()
            out = ops.conv2d(Tensor(a), Tensor(k), None, padding=padding, minus=None if minus is None else Tensor(minus))
            assert bands == [(s, r0, 1) for s in range(2) for r0 in range(2 + 2 * padding)]
            want = oracle_conv(a if minus is None else a - minus, k, np.zeros(3), padding)
            np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)

    @staticmethod
    def nan_empty(monkeypatch):
        """Make ``np.empty`` fill float arrays with NaN, so a frame cell left unwritten shows."""
        real_empty = np.empty

        def empty(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", empty)

    @pytest.mark.parametrize("padding,tail", [(0, 0), (1, 2), (2, 0), (0, 4)])
    def test_band_frame_is_rows_of_the_framed_map(self, rng, monkeypatch, padding, tail):
        # Every kernel size the padding allows and every band height, so
        # bands start on every row; every cell of a frame is written, as the
        # buffer holds NaN when it is made.  With nothing to frame a band is
        # a view of the map's rows.
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        m = rng.standard_normal(a.shape).astype(np.float32)
        width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        hp, wp = 4 + 2 * padding, 5 + 2 * padding
        cases = [(minus, np.pad(inner, width)) for minus, inner in ((None, a), (m, a - m))]
        self.nan_empty(monkeypatch)
        for minus, framed in cases:
            view = minus is None and not (padding or tail)
            for k in range(padding + 1, hp + 1):
                for rows in range(1, hp - k + 2):
                    for s, r0, r, flat in ops._band_frames(a, k, padding, rows, tail, minus):
                        size = (r + k - 1) * wp
                        assert flat.shape == (3, size + tail)
                        assert np.shares_memory(flat, a) == view
                        np.testing.assert_array_equal(flat[:, :size], framed[s, :, r0 : r0 + r + k - 1].reshape(3, -1))
                        assert not flat[:, size:].any()

    @pytest.mark.parametrize("channels", [ops._VIEW_CHANNELS - 1, ops._VIEW_CHANNELS])
    @pytest.mark.parametrize("minus", [False, True])
    @pytest.mark.parametrize("k,padding", [(3, 0), (3, 1), (5, 2)])
    def test_short_band_after_taller_ones_holds_only_its_frame(self, rng, channels, minus, k, padding):
        # The frame buffer is shared by every band of a call.  Earlier, taller
        # bands fill it with large values; the short last band of each sample
        # still yields exactly its framed rows and a zero tail, with the tail
        # each side of the channel threshold gives it.
        tail = k - 1 if channels >= ops._VIEW_CHANNELS else 0
        a = (1e30 * (1 + rng.random((2, channels, 11, 6)))).astype(np.float32)
        m = rng.standard_normal(a.shape).astype(np.float32) if minus else None
        framed = np.pad(a if m is None else a - m, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        wp, oh = 6 + 2 * padding, 11 + 2 * padding - k + 1
        last = []
        for s, r0, r, flat in ops._band_frames(a, k, padding, 4, tail, m):
            if r0 + r == oh:
                last.append(r)
                size = (r + k - 1) * wp
                np.testing.assert_array_equal(flat[:, :size], framed[s, :, r0:].reshape(channels, -1))
                assert not flat[:, size:].any()
        assert len(last) == 2 and max(last) < 4

    @staticmethod
    def whole_frame_correlate(a, kernel, padding, bias=None, minus=None):
        """The view side's band loop reading one zero frame of the whole map, flattened per plane.

        The same bands and tap GEMMs as ``ops._correlate``; only the frame
        differs, which ``_correlate`` writes afresh for each band.
        """
        n, c, h, w = a.shape
        oc, _, k, _ = kernel.shape
        wp = w + 2 * padding
        oh, ow = h + 2 * padding - k + 1, wp - k + 1
        d = a if minus is None else a - minus
        flat = np.pad(d, ((0, 0), (0, 0), (padding, padding), (padding, padding))).reshape(n, c, -1)
        flat = np.concatenate([flat, np.zeros((n, c, k - 1), np.float32)], axis=2)
        weights = kernel.transpose(2, 3, 0, 1).reshape(k * k, oc, c)
        out = np.empty((n, oc, oh, ow), np.float32)
        bands = -(-oh // max(1, ops._BAND_FLOATS // (max(oc, c) * wp)))
        for s, r0, r, _ in ops._band_frames(a, k, padding, -(-oh // bands)):
            total = np.empty((oc, r * wp), np.float32)
            if bias is not None:
                total[...] = bias.reshape(oc, 1)
            for t in range(k * k):
                i, j = divmod(t, k)
                start = (r0 + i) * wp + j
                part = weights[t] @ flat[s, :, start : start + r * wp]
                if t == 0 and bias is None:
                    total[...] = part
                else:
                    total += part
            out[s, :, r0 : r0 + r] = total.reshape(oc, r, wp)[:, :, :ow]
        return out

    @pytest.mark.parametrize("minus", [False, True])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2)])
    def test_band_frames_equal_one_whole_frame(self, rng, monkeypatch, k, padding, minus):
        # 13 output rows in bands of 3, so the last band holds one row; each
        # band frames its own rows, edges and tail included.  The input
        # gradient, a correlation of the output gradient framed by
        # ``k - 1 - padding``, runs its own bands and is compared too.  The
        # kernel gradient reads the forward's band frames, at the forward's
        # band height, through the output gradient's rows copied onto the
        # frame's pitch: it equals the float64 loop.
        c = 16
        h, w = 12 - 2 * padding + k, 9
        monkeypatch.setattr(ops, "_BAND_FLOATS", 3 * c * (w + 2 * padding))
        x, kern, g = conv_case(rng, (2, c, h, w), (c, c, k, k), padding)
        m = rng.standard_normal(x.shape).astype(np.float32) if minus else None
        b = rng.standard_normal(c).astype(np.float32)
        assert ops._band_rows(c, 13, w + 2 * padding) == 3
        assert [r for _, _, r, _ in ops._band_frames(x[:1], k, padding, 3)][-1] == 1
        ts = [Tensor(a, requires_grad=True) for a in (x, m) if a is not None]
        kt = Tensor(kern, requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(ts[0], kt, Tensor(b), padding=padding, minus=ts[1] if minus else None)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        assert out.data.tobytes() == self.whole_frame_correlate(x, kern, padding, b, m).tobytes()
        dx = self.whole_frame_correlate(g, kern[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - padding)
        assert ts[0].grad.tobytes() == dx.tobytes()
        if minus:
            assert ts[1].grad.tobytes() == (-dx).tobytes()
        dk_ref = loop_conv_f64(x if m is None else x - m, kern, g, padding)[2]
        np.testing.assert_allclose(kt.grad, dk_ref, rtol=1e-5, atol=1e-5)
        tape.clear()

    def test_no_stale_workspace_after_a_larger_call(self, rng, monkeypatch):
        # On each side of the channel threshold, the larger call runs bands
        # of 4 rows of 12 columns; the smaller call's bands hold more rows of
        # 4 columns (12 and then 2 rows gathered, two of 7 on the view side).
        # No buffer outlives a call, so the smaller call equals itself on a
        # fresh thread and the float64 loop.
        for channels in (3, 16):
            monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 4 * channels * 9 * 12)
            monkeypatch.setattr(ops, "_BAND_FLOATS", 4 * channels * 14)
            big = conv_case(rng, (1, channels, 12, 12), (2, channels, 3, 3), 1)
            small = conv_case(rng, (2, channels, 14, 4), (2, channels, 3, 3), 1)
            taped_conv(*big, 1)
            got = taped_conv(*small, 1)
            fresh = run_in_thread(lambda: taped_conv(*small, 1))
            for a, b, ref in zip(got, fresh, loop_conv_f64(*small, 1)):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_allclose(a, ref, rtol=1e-5, atol=1e-5)

    def test_workspace_is_per_thread(self, rng, monkeypatch):
        # A call's band buffers are its own.  Four threads on different
        # shapes, more than there are cores, with
        # small bands and a short switch interval, so their bands interleave;
        # two run forward on the view side and two gather.
        monkeypatch.setattr(ops, "_WORKSPACE_FLOATS", 2 * 36 * 12)
        monkeypatch.setattr(ops, "_BAND_FLOATS", 2 * 16 * 14)
        cases = [
            (conv_case(rng, (2, 16, 12, 12), (3, 16, 3, 3), 1), 1),
            (conv_case(rng, (1, 17, 17, 9), (5, 17, 5, 5), 2), 2),
            (conv_case(rng, (2, 3, 10, 7), (2, 3, 1, 1), 0), 0),
            (conv_case(rng, (1, 1, 14, 13), (1, 1, 11, 11), 0), 0),
        ]
        serial = [taped_conv(*case, padding) for case, padding in cases]
        start = threading.Barrier(len(cases), timeout=60)
        results: list = [None] * len(cases)

        def work(i):
            case, padding = cases[i]
            start.wait()
            results[i] = [taped_conv(*case, padding) for _ in range(20)]

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

    def test_forward_does_not_depend_on_band_height(self, rng, monkeypatch):
        # A 16->16 conv sums the same nine 16-long tap products in tap order
        # whatever the band height, so one-row, two-row and default bands
        # agree bit for bit.  BLAS picks its kernel by shape, so this is not
        # promised for every conv: a 32->16 conv moved by up to 1e-5 (of
        # outputs up to about 60) between 2-row and 7-row bands.
        for c, bound in ((16, 0.0), (32, 1e-6)):
            x, k, _ = conv_case(rng, (1, c, 48, 64), (16, c, 3, 3), 1)
            b = Tensor(rng.standard_normal(16).astype(np.float32))
            want = ops.conv2d(Tensor(x), Tensor(k), b, padding=1).data
            for rows in (1, 2, 3, 7):
                monkeypatch.setattr(ops, "_BAND_FLOATS", rows * c * 66)
                got = ops.conv2d(Tensor(x), Tensor(k), b, padding=1).data
                np.testing.assert_allclose(got, want, rtol=0, atol=bound * np.abs(want).max())

    def test_thin_input_equals_one_gathered_gemm(self, rng):
        # Below _VIEW_CHANNELS the forward is one GEMM of gathered taps
        # plus the bias, exactly.
        x, k, _ = conv_case(rng, (2, 15, 10, 9), (16, 15, 3, 3), 1)
        b = rng.standard_normal(16).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        taps = np.stack([xp[:, :, i : i + 10, j : j + 9] for i in range(3) for j in range(3)], axis=2)
        want = np.matmul(k.reshape(16, -1), taps.reshape(2, 15 * 9, 90)).reshape(2, 16, 10, 9)
        want += b.reshape(1, 16, 1, 1)
        np.testing.assert_array_equal(ops.conv2d(Tensor(x), Tensor(k), Tensor(b), padding=1).data, want)

    def test_taped_conv_keeps_its_input_not_its_frame(self, rng):
        # After a taped forward, the output is the only new array held: the
        # band buffers die with the call.
        x = Tensor(rng.standard_normal((1, 16, 64, 64)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor.zeros((16,))
        with Tape() as tape:
            tracemalloc.start()
            try:
                out = ops.conv2d(x, k, b, padding=1)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            tape.backward(ops.reduce_sum(out))
        tape.clear()
        assert held < out.data.nbytes + (64 << 10)

    def test_vga_forward_makes_no_full_frame_temporary(self):
        # No tape: each band frames only its own rows, so the output is the
        # only full-frame array besides the input; 2 MB covers the band
        # buffers and the rest.
        n, c, h, w = 1, 16, 480, 640
        k = Tensor(np.full((c, c, 3, 3), 0.01, dtype=np.float32))
        b = Tensor.zeros((c,))
        x = Tensor(np.ones((n, c, h, w), dtype=np.float32))
        tracemalloc.start()
        try:
            ops.conv2d(x, k, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * c * h * w + (2 << 20)

    def test_thin_vga_forward_makes_no_whole_frame(self):
        # No tape, 1 -> 16 channels as in the backbone's first conv: each band
        # gathers its taps from its own framed rows, so besides the output
        # the call holds only the taps buffer (``_WORKSPACE_FLOATS`` floats)
        # and one band's frame: 19.86 MiB in all for an 18.75 MiB output.  A
        # whole frame of the input would add 1.18 MiB.  The call runs on a
        # fresh thread, so no buffer an earlier call left could hide.
        x = Tensor(np.ones((1, 1, 480, 640), dtype=np.float32))
        k = Tensor(np.full((16, 1, 3, 3), 0.1, dtype=np.float32))

        def measure():
            tracemalloc.start()
            try:
                out = ops.conv2d(x, k, None, padding=1)
                return out.data.nbytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        size, peak = run_in_thread(measure)
        assert peak <= size + 4 * ops._WORKSPACE_FLOATS + (512 << 10)

    @pytest.mark.parametrize("channels,bound", [(16, 0.563), (8, 0.552), (1, 0.533)], ids=["c16", "c8", "c1"])
    def test_kernel_gradient_frames_no_whole_map(self, rng, channels, bound):
        # The input needs no gradient, so the backward is the kernel gradient
        # alone: besides the 0.25 MiB output gradient it holds one band's
        # framed rows of the input, as the view side of the forward frames
        # them, and that band's rows of the output gradient on the frame's
        # pitch, at every input width.  16, 8 and 1 channels peak at 0.536,
        # 0.526 and 0.507 MiB, and each bound (in MiB) is 5% above its
        # reading.  A frame of the whole 16x258x258 input reads 4.32 MiB, and
        # a 1 MiB taps buffer, as the thin forward gathers into, 1.37 MiB.
        x = Tensor(rng.standard_normal((1, channels, 256, 256)).astype(np.float32))
        k = Tensor(rng.standard_normal((1, channels, 3, 3)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.conv2d(x, k, None, padding=1))
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        tape.clear()
        assert peak < bound * (1 << 20)


class TestPooling:
    def test_maxpool_picks_window_max(self):
        x = tensor([[[[1.0, 3.0], [4.0, 2.0]]]])
        out = ops.maxpool2d(x, window=2)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_maxpool_padding_never_wins(self):
        x = Tensor.full((1, 1, 3, 3), -5.0)
        out = ops.maxpool2d(x, window=3, padding=1)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), -5.0))

    def test_avgpool_constant_field_exact_through_padding(self):
        x = Tensor.full((1, 2, 5, 5), 0.73)
        out = ops.avgpool2d(x, window=3, padding=1)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 5, 5), np.float32(0.73)))

    def test_untaped_vga_avgpool_peak(self):
        # The zero frame of the input and the output are the only full-size
        # arrays; the frame of ones and the counts are one plane each.  That
        # peak reads 2.134 maps of 1x16x480x640; the bound is 5% above it.
        n, c, h, w = 1, 16, 480, 640
        x = Tensor(np.ones((n, c, h, w), dtype=np.float32))
        tracemalloc.start()
        try:
            ops.avgpool2d(x, 3, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 2.134 * 4 * n * c * h * w

    def test_avgpool_corner_averages_valid_cells_only(self):
        x = tensor([[np.arange(1.0, 10.0).reshape(3, 3)]])
        out = ops.avgpool2d(x, window=3, padding=1)
        # Top-left window sees cells {1, 2, 4, 5}: mean 3, not (1+2+4+5)/9.
        assert out.data[0, 0, 0, 0] == 3.0
        assert out.data[0, 0, 1, 1] == 5.0

    # Fixed ids keep each case's name as rows come and go.
    @pytest.mark.parametrize("window,padding", [(3, 1), (2, 0)], ids=["3-1-1", "2-1-0"])
    def test_pools_match_loop_oracles(self, rng, window, padding):
        x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
        mx = ops.maxpool2d(Tensor(x), window, padding=padding)
        av = ops.avgpool2d(Tensor(x), window, padding=padding)
        np.testing.assert_array_equal(mx.data, oracle_maxpool(x, window, padding))
        np.testing.assert_allclose(av.data, oracle_avgpool(x, window, padding), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "hw,window,padding",
        [((1, 1), 3, 1), ((1, 1), 2, 1), ((1, 2), 3, 1)],
        ids=["hw0-3-1-1", "hw1-2-1-1", "hw2-3-1-1"],
    )
    def test_avgpool_on_one_row_maps_matches_loop_oracle(self, rng, hw, window, padding):
        # Windows overhang the map on every side, so each window sums only
        # its in-map taps; the gradient is the oracle's adjoint, cell by cell.
        x = rng.standard_normal((2, 3, *hw)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.avgpool2d(t, window, padding=padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx = t.grad.copy()
        tape.clear()
        np.testing.assert_allclose(out.data, oracle_avgpool(x, window, padding), rtol=1e-5, atol=1e-6)
        want = np.zeros(x.shape)
        for k in np.ndindex(*x.shape):
            unit = np.zeros(x.shape)
            unit[k] = 1.0
            want[k] = np.sum(oracle_avgpool(unit, window, padding) * g)
        np.testing.assert_allclose(dx, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "window,padding", [(3, 1), (2, 0), (3, 0), (2, 1)], ids=["3-1-1", "2-1-0", "3-1-0", "2-1-1"]
    )
    def test_avgpool_gradient_matches_scatter_oracle(self, rng, window, padding):
        # The scanned backward against the per-tap scatter it replaced: each
        # output cell hands its gradient over its count to the in-map taps.
        x = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.avgpool2d(t, window, padding=padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx = t.grad.copy()
        tape.clear()
        h, w = x.shape[2:]
        want = np.zeros(x.shape)
        for y, xx in np.ndindex(*out.shape[2:]):
            rows = range(max(y - padding, 0), min(y - padding + window, h))
            cols = range(max(xx - padding, 0), min(xx - padding + window, w))
            share = g[:, :, y, xx].astype(np.float64) / (len(rows) * len(cols))
            for r in rows:
                for c in cols:
                    want[:, :, r, c] += share
        np.testing.assert_allclose(dx, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "shape,window,padding",
        [
            ((2, 2, 6, 7), 2, 0),
            ((2, 2, 6, 7), 2, 1),
            ((2, 2, 6, 7), 3, 0),
            ((2, 2, 6, 7), 3, 1),
            # 289 taps: the tap index no longer fits in one byte.
            ((1, 2, 19, 18), 17, 1),
        ],
        ids=["shape0-2-1-0", "shape2-2-1-1", "shape4-3-1-0", "shape6-3-1-1", "shape8-17-1-1"],
    )
    def test_maxpool_gradient_at_ties_goes_to_first_maximum(self, rng, shape, window, padding):
        # Three levels make ties common; channel 1 is all equal, and its
        # corner windows also hold -inf padding when padding is 1.
        x = rng.integers(0, 3, size=shape).astype(np.float32)
        x[:, 1] = -1.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.maxpool2d(t, window, padding=padding)
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
                        win = xp[nn, cc, y : y + window, xx : xx + window]
                        i, j = divmod(int(np.argmax(win)), window)  # first maximum in row-major order
                        dxp[nn, cc, y + i, xx + j] += g[nn, cc, y, xx]
        np.testing.assert_array_equal(dx, dxp[:, :, padding : padding + h, padding : padding + w])

    def test_maxpool_nan_window_outputs_nan_and_routes_to_earlier_maximum(self):
        x = tensor([[[[1.0, 2.0], [np.nan, 0.5]]]], requires_grad=True)
        with Tape() as tape:
            out = ops.maxpool2d(x, window=2)
            tape.backward(ops.reduce_sum(out))
        assert np.isnan(out.data[0, 0, 0, 0])
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])
        tape.clear()

    @pytest.mark.parametrize("window,padding", [(2, 0), (3, 1)], ids=["2-1-0", "3-1-1"])
    def test_maxpool_equals_eager_scan_with_ties_and_nans(self, rng, window, padding):
        # Three levels make ties common; NaNs land anywhere in a window,
        # including its first tap, and channel 1 is all equal.
        x = rng.integers(0, 3, size=(2, 3, 7, 8)).astype(np.float32)
        x[rng.random(x.shape) < 0.08] = np.nan
        x[:, 1] = 1.0
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ops.maxpool2d(t, window, padding=padding)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tape.backward(ops.reduce_sum(ops.mul(out, Tensor(g))))
        dx = t.grad.copy()
        tape.clear()
        want_out, want_dx = eager_maxpool(x, g, window, padding)
        assert np.isnan(want_out).any()
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(dx, want_dx)

    def test_vga_maxpool_keeps_no_index_map(self):
        # No tape: the framed input and the output are the only arrays made,
        # with no winning-tap map or comparison mask beside them.
        n, c, h, w = 1, 16, 480, 640
        x = Tensor(np.ones((n, c, h, w), dtype=np.float32))
        tracemalloc.start()
        try:
            ops.maxpool2d(x, 3, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame = 4 * n * c
        assert peak < frame * (h + 2) * (w + 2) + frame * h * w + (1 << 20)

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
            ops.maxpool2d(Tensor.zeros((1, 1, 4, 4)), window=0)

    @pytest.mark.parametrize("op", [ops.maxpool2d, ops.avgpool2d])
    def test_pool_size_error_names_padded_size(self, op):
        with pytest.raises(ShapeError, match=r"padded input 4x5 smaller than window 5"):
            op(Tensor.zeros((1, 1, 2, 3)), window=5, padding=1)


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

    def test_equals_fancy_index_formula(self, rng):
        # One input row, one input column, one output row, equal sizes and
        # non-integer scales, then random shapes with batch 1 and 2.
        cases = [
            ((2, 3, 1, 5), (4, 13)),
            ((2, 3, 6, 1), (17, 3)),
            ((1, 2, 1, 1), (1, 7)),
            ((2, 2, 3, 4), (3, 4)),
            ((2, 2, 3, 7), (10, 11)),
            ((2, 4, 5, 5), (480, 33)),
        ]
        for _ in range(40):
            n, c, h, w = (int(v) for v in rng.integers(1, [3, 4, 7, 7]))
            cases.append(((n, c, h, w), (h + int(rng.integers(0, 20)), w + int(rng.integers(0, 20)))))
        for shape, out_hw in cases:
            x = rng.standard_normal(shape).astype(np.float32)
            out = ops.upsample_bilinear(Tensor(x), *out_hw).data
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, fancy_index_upsample(x, *out_hw), err_msg=f"{shape} -> {out_hw}")

    def test_vga_upsample_makes_one_full_frame_temporary(self):
        # No tape: the output, plus 1 MB for the row pass and the
        # interpolation grids.
        x = Tensor(np.random.default_rng(0).standard_normal((1, 16, 4, 4)).astype(np.float32))
        tracemalloc.start()
        try:
            ops.upsample_bilinear(x, 480, 640)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 480 * 640 + (1 << 20)


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

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(xs=st.lists(st.floats(width=32), max_size=40), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_relu_backward_masks_as_its_input_would(self, xs, seed):
        # The backward masks by ``out > 0``; that is ``x > 0`` bit for bit,
        # for ±0, NaN, ±inf and subnormals as well.  The forward product and
        # sum may overflow or meet inf - inf; only the gradient is compared.
        tiny = np.finfo(np.float32).smallest_subnormal
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-39, -1e-39]
        x = np.array(specials + xs, dtype=np.float32)
        g = np.random.default_rng(seed).standard_normal(x.size).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape, np.errstate(over="ignore", invalid="ignore"):
            tape.backward(ops.reduce_sum(ops.mul(ops.relu(xt), Tensor(g))))
        assert xt.grad.tobytes() == (g * (x > 0)).tobytes()
        tape.clear()

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

    def test_split_channels_inverts_concat_and_routes_grads(self, rng):
        x = tensor(rng.standard_normal((2, 5, 3, 3)), requires_grad=True)
        coeffs = rng.standard_normal(x.shape).astype(np.float32)
        with Tape() as tape:
            a, b, c = ops.split_channels(x, [2, 1, 2])
            assert ops.concat_channels([a, b, c]).data.tobytes() == x.data.tobytes()
            # Part b is unused, so its channel's gradient stays zero.
            loss = ops.add(
                ops.reduce_sum(ops.mul(a, tensor(coeffs[:, :2]))), ops.reduce_sum(ops.mul(c, tensor(coeffs[:, 3:])))
            )
            tape.backward(loss)
        want = coeffs.copy()
        want[:, 2] = 0.0
        np.testing.assert_array_equal(x.grad, want)
        tape.clear()

    @pytest.mark.parametrize("sizes", [[], [2, 2], [3, 3], [0, 5], [6, -1]])
    def test_split_channels_rejects_sizes_that_do_not_split(self, sizes):
        with pytest.raises(ShapeError, match="split_channels: sizes"):
            ops.split_channels(tensor(np.zeros((1, 5, 2, 2))), sizes)

    def test_scale_and_shift(self, rng):
        x = tensor([1.0, -2.0])
        np.testing.assert_array_equal(ops.scale(x, 3.0).data, [3.0, -6.0])
        np.testing.assert_array_equal(ops.shift(x, 1.0).data, [2.0, -1.0])
        # Scaling by -1 negates exactly, infinities, zeros and subnormals
        # included; a NaN stays a NaN.
        y = np.array([1.5, -0.0, 0.0, np.inf, -np.inf, 1e-45, -3e-39], dtype=np.float32)
        y = np.concatenate([y, rng.standard_normal(64).astype(np.float32)])
        assert ops.scale(tensor(y), -1.0).data.tobytes() == np.negative(y).tobytes()
        assert np.isnan(ops.scale(tensor([np.nan]), -1.0).data).all()


def composed_gate_add(total, s, b4, sign, source):
    """``gate_add`` from the public ops, with the edge as a map of its own; ``b4`` is the bias as (1, C, 1, 1)."""
    edge = ops.add(s, b4) if sign > 0 else ops.sub(b4, s)
    return ops.add(total, ops.mul(ops.sigmoid(edge), source))


def gate_operands(rng, shape):
    """Total, pre-bias response, bias and source arrays.

    The response holds 0 and both saturated ends; the bias is per channel.
    """
    total, s, source = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    s *= 4.0
    s.reshape(-1)[:3] = (0.0, 50.0, -50.0)
    bias = rng.uniform(-1.0, 1.0, size=shape[1]).astype(np.float32)
    return total, s, bias, source


def taped_gate(fn, arrays, requires, coeffs, reread):
    """Output and input gradients of ``fn`` under a weighted sum.

    With ``reread`` a later op also reads ``s``, the bias and the source, so
    their gradients exist before ``fn``'s backward adds into them.
    """
    ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    with Tape() as tape:
        out = fn(*ts)
        loss = ops.reduce_sum(ops.mul(out, Tensor(coeffs)))
        if reread:
            loss = ops.add(loss, ops.reduce_sum(ops.mul(ts[1], ts[3])))
            loss = ops.add(loss, ops.reduce_sum(ts[2]))
        tape.backward(loss)
    grads = [t.grad for t in ts]
    tape.clear()
    return out.data, grads


def assert_gate_grads_match(got_grads, want_grads):
    """Map gradients bit for bit; the bias, summed in another order, to 1e-6 of its largest entry.

    The composition's bias is a (1, C, 1, 1) leaf; its gradient is compared as (C,).
    """
    for name, g, w in zip(("total", "s", "bias", "source"), got_grads, want_grads):
        assert (g is None) == (w is None), name
        if w is None:
            continue
        if name == "bias":
            w = w.reshape(-1)
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-6 * np.abs(w).max(), err_msg=name)
        else:
            np.testing.assert_array_equal(g, w, err_msg=name)


class TestGateAdd:
    @pytest.mark.parametrize("chunk", [11, None])
    @pytest.mark.parametrize(
        "requires", [(1, 1, 1, 1), (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 1, 1), (0, 0, 1, 0)]
    )
    @pytest.mark.parametrize("reread", [False, True])
    def test_equals_composed_ops_bit_for_bit(self, rng, monkeypatch, chunk, requires, reread):
        # 6 planes of 6300 elements: by default two chunks of 5 planes and 1,
        # or chunks of 11 within each plane, with a short last one.
        if chunk is not None:
            monkeypatch.setattr(ops, "_CHUNK_FLOATS", chunk)
        shape = (2, 3, 70, 90)
        arrays = gate_operands(rng, shape)
        composed_arrays = (*arrays[:2], arrays[2].reshape(1, -1, 1, 1), arrays[3])
        coeffs = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
        for sign in (1, -1):
            want, want_grads = taped_gate(
                lambda t, s, b, src: composed_gate_add(t, s, b, sign, src), composed_arrays, requires, coeffs, reread
            )
            got, got_grads = taped_gate(
                lambda t, s, b, src: ops.gate_add(t, s, b, sign, src), arrays, requires, coeffs, reread
            )
            np.testing.assert_array_equal(got, want)
            assert_gate_grads_match(got_grads, want_grads)

    def test_one_operand_in_every_role_equals_composed_ops(self, rng, monkeypatch):
        # One map as total, s and source: gradients accumulate as in the
        # composition, total, source, s.
        monkeypatch.setattr(ops, "_CHUNK_FLOATS", 7)
        _, x, bias, _ = gate_operands(rng, (1, 2, 5, 9))
        coeffs = rng.uniform(-1.0, 1.0, size=x.shape).astype(np.float32)
        for sign in (1, -1):
            want, want_grads = taped_gate(
                lambda t, b: composed_gate_add(t, t, b, sign, t), [x, bias.reshape(1, -1, 1, 1)], [1, 1], coeffs, False
            )
            got, got_grads = taped_gate(
                lambda t, b: ops.gate_add(t, t, b, sign, t), [x, bias], [1, 1], coeffs, False
            )
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_grads[0], want_grads[0])
            bound = 1e-6 * np.abs(want_grads[1]).max()
            np.testing.assert_allclose(got_grads[1], want_grads[1].reshape(-1), rtol=0, atol=bound)

    def test_zero_total_and_unit_source_give_the_sigmoid(self, rng):
        x = Tensor(gate_operands(rng, (1, 3, 5, 10))[1])
        zeros, ones, no_bias = Tensor.zeros(x.shape), Tensor.full(x.shape, 1.0), Tensor.zeros((3,))
        np.testing.assert_array_equal(ops.gate_add(zeros, x, no_bias, 1, ones).data, ops.sigmoid(x).data)
        np.testing.assert_array_equal(
            ops.gate_add(zeros, x, no_bias, -1, ones).data, ops.sigmoid(ops.scale(x, -1.0)).data
        )

    def test_one_record_and_no_public_sigmoid(self, rng, monkeypatch):
        # A profiler wraps the public ops, so a gate recomputed through
        # ops.sigmoid would count as an extra sigmoid forward.
        def no_sigmoid(x):
            raise AssertionError("gate_add called ops.sigmoid")

        monkeypatch.setattr(ops, "sigmoid", no_sigmoid)
        total, s, bias, source = (Tensor(a, requires_grad=True) for a in gate_operands(rng, (1, 2, 4, 4)))
        with Tape() as tape:
            out = ops.gate_add(total, s, bias, -1, source)
            assert len(tape) == 1
            tape.backward(ops.reduce_sum(out))
        assert all(t.grad is not None for t in (total, s, bias, source))
        tape.clear()

    @pytest.mark.parametrize("operand", ["s", "source", "bias", "sign"])
    def test_rejects_a_mismatched_operand_before_allocating(self, operand):
        shape = (1, 16, 480, 640)
        operands = {name: Tensor.zeros(shape) for name in ("total", "s", "source")}
        operands.update(bias=Tensor.zeros((16,)), sign=1)
        bad = {"s": Tensor.zeros((1, 16, 480, 641)), "bias": Tensor.zeros((15,)), "sign": 0}
        operands[operand] = bad.get(operand, bad["s"])
        message = "sign must be" if operand == "sign" else f"{operand} shape"
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=f"gate_add: {message}"):
                ops.gate_add(**operands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_vga_call_keeps_no_gate_or_message_map(self):
        # No tape: the output, one chunk of gate and 1 MB for the rest.  The
        # composed ops make an edge map, a gate map and a message map
        # besides the output.
        shape = (1, 16, 480, 640)
        total, s, source = (Tensor.full(shape, v) for v in (1.0, 0.5, 2.0))
        bias = Tensor.full((16,), 0.25)
        tracemalloc.start()
        try:
            ops.gate_add(total, s, bias, -1, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * total.size + 4 * ops._CHUNK_FLOATS + (1 << 20)

    @pytest.mark.parametrize("planes,size,chunk", [(6, 6300, 32768), (6, 6300, 11), (5, 4, 8), (3, 10, 10)])
    def test_chunks_tile_the_planes_in_order(self, monkeypatch, planes, size, chunk):
        monkeypatch.setattr(ops, "_CHUNK_FLOATS", chunk)
        seen = np.zeros((planes, size), dtype=int)
        order = np.arange(planes * size).reshape(planes, size)
        last = -1
        for rows, cols in ops._chunks(planes, size):
            part = order[rows, cols]
            assert 0 < part.size <= chunk and part.flags.c_contiguous
            assert part.reshape(-1)[0] == last + 1
            last = part.reshape(-1)[-1]
            seen[rows, cols] += 1
        assert (seen == 1).all()


def usable_cpus(monkeypatch, cpus):
    """Make the process's affinity set hold ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_starts(monkeypatch):
    """The threads started from now on, listed as ``threading.Thread.start`` is called."""
    starts, start = [], threading.Thread.start

    def counting(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


def same_bytes(got, want):
    """Each array of ``got`` holds the bytes of ``want``'s, ``None`` where it is ``None``."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), i


class TestSharedBands:
    """A large call's bands and chunks shared with one helper thread write the bytes one thread writes."""

    @staticmethod
    def shared_and_single(monkeypatch, fn):
        """``fn()`` sharing every band or chunk loop on two CPUs, then ``fn()`` at one usable CPU.

        Checks that the first call started helper threads and the second none.
        """
        monkeypatch.setattr(ops, "_SHARE_FLOATS", 1)
        starts = count_starts(monkeypatch)
        usable_cpus(monkeypatch, 2)
        shared = fn()
        helpers = len(starts)
        usable_cpus(monkeypatch, 1)
        single = fn()
        assert helpers > 0 and len(starts) == helpers
        return shared, single

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("form", ["one", "minus", "parts"])
    def test_conv_forward_is_the_single_thread_bytes(self, rng, monkeypatch, form, bias):
        # Batch 2, 11 output rows in bands of 3, 3, 3 and 2.
        x, k, _ = conv_case(rng, (2, 16, 11, 9), (16, 16, 3, 3), 1)
        m = rng.standard_normal(x.shape).astype(np.float32)
        b = Tensor(rng.standard_normal(16).astype(np.float32)) if bias else None
        monkeypatch.setattr(ops, "_BAND_FLOATS", 3 * 16 * 11)
        assert ops._band_rows(16, 11, 11) == 3
        inputs = {"one": Tensor(x), "minus": Tensor(x), "parts": [Tensor(x[:, :5]), Tensor(x[:, 5:])]}[form]
        minus = Tensor(m) if form == "minus" else None
        shared, single = self.shared_and_single(
            monkeypatch, lambda: [ops.conv2d(inputs, Tensor(k), b, padding=1, minus=minus).data]
        )
        same_bytes(shared, single)

    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 1), (5, 2)])
    def test_taped_conv_gradients_are_the_single_thread_bytes(self, rng, monkeypatch, k, padding):
        # The input gradient correlates the output gradient on the view side
        # and is shared; the kernel gradient stays on the calling thread.
        case = conv_case(rng, (2, 16, 10, 7), (17, 16, k, k), padding)
        monkeypatch.setattr(ops, "_BAND_FLOATS", 3 * 17 * (7 + 2 * padding))
        shared, single = self.shared_and_single(monkeypatch, lambda: list(taped_conv(*case, padding)))
        same_bytes(shared, single)

    @pytest.mark.parametrize("chunk", [700, 2400])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_gate_add_forward_is_the_single_thread_bytes(self, rng, monkeypatch, sign, chunk):
        # Planes of 1200 floats: chunks of part of a row, or of two whole
        # rows, long enough that numpy lets go of the GIL within a chunk.
        total, s, bias, source = gate_operands(rng, (2, 5, 30, 40))
        monkeypatch.setattr(ops, "_CHUNK_FLOATS", chunk)
        shared, single = self.shared_and_single(
            monkeypatch, lambda: [ops.gate_add(*map(Tensor, (total, s, bias)), sign, Tensor(source)).data]
        )
        same_bytes(shared, single)

    def test_fuse_is_the_single_thread_bytes(self, rng, monkeypatch):
        # Every view-side conv and every message of a 40x56 fuse shares
        # bands of 4 rows and chunks of 256 floats.
        config = FusionConfig()
        params = init_params(config, seed=0)
        ir, vis = (rng.uniform(size=(40, 56)).astype(np.float32) for _ in range(2))
        monkeypatch.setattr(ops, "_BAND_FLOATS", 4 * config.channels * 58)
        monkeypatch.setattr(ops, "_CHUNK_FLOATS", 256)
        shared, single = self.shared_and_single(monkeypatch, lambda: [fuse_arrays(ir, vis, params, config)])
        same_bytes(shared, single)

    def test_taped_step_records_and_gradients_are_the_single_thread_ones(self, rng, monkeypatch):
        # Only the calling thread records: the default step makes its 332
        # records with sharing forced on, and the same loss and gradients.
        config = FusionConfig()
        params = init_params(config, seed=0)
        ir, vis = (Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32)) for _ in range(2))
        monkeypatch.setattr(ops, "_BAND_FLOATS", 4 * config.channels * 34)

        def step():
            with Tape() as tape:
                loss = loss_components(forward(ir, vis, params, config), ir, vis, config)["total"]
                records = len(tape)
                tape.backward(loss)
            grads = [params[name].grad for name in sorted(params)]
            tape.clear()
            for t in params.values():
                t.grad = None
            return [np.array(records), loss.data] + grads

        shared, single = self.shared_and_single(monkeypatch, step)
        assert int(shared[0]) == 332
        same_bytes(shared, single)

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_helper_keeps_the_callers_error_state(self, monkeypatch, state):
        # Sums past the float32 range overflow on both threads: under
        # ``over="raise"`` the call raises as one thread's does, and under
        # ``"ignore"`` the helper warns of nothing either.
        x = Tensor(np.full((1, 16, 12, 5), 3e38, np.float32))
        k = Tensor(np.ones((16, 16, 3, 3), np.float32))
        monkeypatch.setattr(ops, "_BAND_FLOATS", 16 * 7)

        def call():
            with np.errstate(over=state):
                try:
                    return [ops.conv2d(x, k, None, padding=1).data]
                except FloatingPointError:
                    return [None]

        shared, single = self.shared_and_single(monkeypatch, call)
        assert (single[0] is None) == (state == "raise")
        same_bytes(shared, single)

    def test_error_in_a_helper_band_reaches_the_caller(self, rng, monkeypatch):
        # The caller waits on its first band until the helper has framed
        # one, which then raises: the call raises it after the join, and
        # no thread is left.
        x, k, _ = conv_case(rng, (2, 16, 12, 5), (16, 16, 3, 3), 1)
        monkeypatch.setattr(ops, "_SHARE_FLOATS", 1)
        monkeypatch.setattr(ops, "_BAND_FLOATS", 16 * 7)
        usable_cpus(monkeypatch, 2)
        caller, helper_framed = threading.current_thread(), threading.Event()
        band_frames = ops._band_frames

        def failing(*args, **kwargs):
            for band in band_frames(*args, **kwargs):
                if threading.current_thread() is not caller:
                    helper_framed.set()
                    raise RuntimeError(f"band {band[:2]} failed")
                assert helper_framed.wait(timeout=60)
                yield band

        monkeypatch.setattr(ops, "_band_frames", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"band \(\d+, \d+\) failed"):
            ops.conv2d(Tensor(x), Tensor(k), None, padding=1)
        assert threading.active_count() == before

    def test_error_on_the_calling_thread_is_raised_after_the_join(self, rng, monkeypatch):
        # The helper holds its first band until the caller has framed one,
        # which raises: the call raises it once the helper has stopped.
        x, k, _ = conv_case(rng, (2, 16, 12, 5), (16, 16, 3, 3), 1)
        monkeypatch.setattr(ops, "_SHARE_FLOATS", 1)
        monkeypatch.setattr(ops, "_BAND_FLOATS", 16 * 7)
        usable_cpus(monkeypatch, 2)
        caller, caller_framed = threading.current_thread(), threading.Event()
        band_frames = ops._band_frames

        def failing(*args, **kwargs):
            for band in band_frames(*args, **kwargs):
                if threading.current_thread() is caller:
                    caller_framed.set()
                    raise RuntimeError("caller's band failed")
                assert caller_framed.wait(timeout=60)
                yield band

        monkeypatch.setattr(ops, "_band_frames", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="caller's band failed"):
            ops.conv2d(Tensor(x), Tensor(k), None, padding=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "cpus,threshold,helpers",
        [
            pytest.param(1, 1, 0, id="one-usable-cpu"),
            pytest.param(2, None, 0, id="below-threshold"),
            pytest.param(2, 1, 1, id="two-usable-cpus"),
        ],
    )
    def test_helper_starts_only_for_large_outputs_on_two_cpus(self, rng, monkeypatch, cpus, threshold, helpers):
        # The 2x16x12x5 output (1920 floats) is far below the default threshold.
        x, k, _ = conv_case(rng, (2, 16, 12, 5), (16, 16, 3, 3), 1)
        total, s, bias, source = gate_operands(rng, (2, 16, 12, 5))
        monkeypatch.setattr(ops, "_BAND_FLOATS", 16 * 7)
        monkeypatch.setattr(ops, "_CHUNK_FLOATS", 60)
        if threshold is not None:
            monkeypatch.setattr(ops, "_SHARE_FLOATS", threshold)
        usable_cpus(monkeypatch, cpus)
        starts = count_starts(monkeypatch)
        ops.conv2d(Tensor(x), Tensor(k), None, padding=1)
        ops.gate_add(*map(Tensor, (total, s, bias)), 1, Tensor(source))
        assert len(starts) == 2 * helpers

    @pytest.mark.parametrize("count,helpers", [(2, 1), (1, 0), (None, 0)])
    def test_cpu_count_where_there_is_no_affinity(self, rng, monkeypatch, count, helpers):
        x, k, _ = conv_case(rng, (2, 16, 12, 5), (16, 16, 3, 3), 1)
        monkeypatch.setattr(ops, "_SHARE_FLOATS", 1)
        monkeypatch.setattr(ops, "_BAND_FLOATS", 16 * 7)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        starts = count_starts(monkeypatch)
        ops.conv2d(Tensor(x), Tensor(k), None, padding=1)
        assert len(starts) == helpers


class TestOneTapePerThread:
    def test_second_tape_on_a_thread_raises_and_the_first_keeps_recording(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            ops.scale(x, 2.0)
            with pytest.raises(RuntimeError, match="already recording"):
                with Tape():
                    pass
            assert active_tape() is tape
            y = ops.scale(x, 3.0)
            assert len(tape) == 2
            tape.backward(ops.reduce_sum(y))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        tape.clear()
        assert active_tape() is None

    def test_two_threads_each_record_on_their_own_tape(self):
        # The barrier holds both tapes open at once; each records only its own thread's ops.
        barrier = threading.Barrier(2, timeout=30)
        xs = [tensor([1.0, 2.0], requires_grad=True) for _ in range(2)]
        counts = {}

        def record(i):
            with Tape() as tape:
                barrier.wait()
                y = ops.scale(xs[i], i + 2.0)
                for _ in range(i):
                    y = ops.scale(y, -1.0)
                barrier.wait()
                counts[i] = len(tape)
                tape.backward(ops.reduce_sum(y))

        threads = [threading.Thread(target=record, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert counts == {0: 1, 1: 2}
        np.testing.assert_array_equal(xs[0].grad, [2.0, 2.0])
        np.testing.assert_array_equal(xs[1].grad, [-3.0, -3.0])

    def test_op_with_no_active_tape_records_nothing(self):
        x = tensor([1.0], requires_grad=True)
        with Tape() as tape:
            pass
        y = ops.scale(x, 2.0)
        assert active_tape() is None
        assert len(tape) == 0 and not y.requires_grad


# Every public op under a tape: the shapes of its inputs by name, a call, and
# the arrays its record keeps for the backward, by input name ("out" is the
# output).  Conv2d's kernel gradient reads ``x`` and ``minus`` and its input
# gradient the kernel; sigmoid, sqrt and relu differentiate from their output.
MAP = (1, 2, 4, 4)
KEEPS = {
    "conv2d": (
        dict(x=MAP, kernel=(3, 2, 3, 3), bias=(3,), minus=MAP),
        lambda x, kernel, bias, minus: ops.conv2d(x, kernel, bias, padding=1, minus=minus),
        {"x", "kernel", "minus"},
    ),
    "maxpool2d": (dict(x=MAP), lambda x: ops.maxpool2d(x, 3, padding=1), set()),
    "avgpool2d": (dict(x=MAP), lambda x: ops.avgpool2d(x, 3, padding=1), set()),
    "adaptive_avgpool2d": (dict(x=MAP), lambda x: ops.adaptive_avgpool2d(x, 2, 3), set()),
    "global_avgpool": (dict(x=MAP), ops.global_avgpool, set()),
    "upsample_bilinear": (dict(x=(1, 2, 2, 3)), lambda x: ops.upsample_bilinear(x, 4, 5), set()),
    "add": (dict(a=MAP, b=(1, 2, 1, 1)), ops.add, set()),
    "sub": (dict(a=MAP, b=(1, 2, 1, 1)), ops.sub, set()),
    "mul": (dict(a=MAP, b=(1, 2, 1, 1)), ops.mul, {"a", "b"}),
    "div": (dict(a=MAP, b=(1, 2, 1, 1)), ops.div, {"a", "b"}),
    "maximum": (dict(a=MAP, b=MAP), ops.maximum, set()),
    "scale": (dict(x=MAP), lambda x: ops.scale(x, 3.0), set()),
    "shift": (dict(x=MAP), lambda x: ops.shift(x, 3.0), set()),
    "concat_channels": (dict(a=MAP, b=(1, 3, 4, 4)), lambda a, b: ops.concat_channels([a, b]), set()),
    "split_channels": (dict(x=(2, 5, 4, 4)), lambda x: ops.split_channels(x, [2, 3])[1], set()),
    "sigmoid": (dict(x=MAP), ops.sigmoid, {"out"}),
    "gate_add": (
        dict(total=MAP, s=MAP, bias=(2,), source=MAP),
        lambda total, s, bias, source: ops.gate_add(total, s, bias, -1, source),
        {"s", "source"},
    ),
    "relu": (dict(x=MAP), ops.relu, {"out"}),
    "sqrt": (dict(x=MAP), ops.sqrt, {"out"}),
    "absolute": (dict(x=MAP), ops.absolute, {"x"}),
    "reduce_sum": (dict(x=MAP), ops.reduce_sum, set()),
    "reduce_mean": (dict(x=MAP), ops.reduce_mean, set()),
}


def live_arrays(rng, name, taped):
    """Weak references, by name, to the arrays of an op call's inputs and output, and a loss when taped.

    Every tensor of the call goes out of scope on return, so only what the
    tape holds keeps an array alive.
    """
    shapes, call, _ = KEEPS[name]
    tensors = {
        k: Tensor(rng.uniform(1.0, 2.0, size=shape).astype(np.float32), requires_grad=True)
        for k, shape in shapes.items()
    }
    out = call(**tensors)
    loss = ops.reduce_sum(out) if taped else None
    refs = {k: weakref.ref(t.data) for k, t in tensors.items()}
    refs["out"] = weakref.ref(out.data)
    return refs, loss


def survivors(refs):
    return {k for k, ref in refs.items() if ref() is not None}


class TestRecordKeepsWhatItsBackwardReads:
    def test_table_covers_every_public_op(self):
        public = [n for n, fn in vars(ops).items() if inspect.isfunction(fn) and fn.__module__ == ops.__name__]
        assert sorted(KEEPS) == sorted(n for n in public if not n.startswith("_"))

    @pytest.mark.parametrize("name", sorted(KEEPS))
    def test_taped_op_keeps_only_the_arrays_its_backward_reads(self, rng, name):
        with Tape() as tape:
            refs, loss = live_arrays(rng, name, taped=True)
            assert survivors(refs) == KEEPS[name][2]
            tape.backward(loss)
        tape.clear()
        assert survivors(refs) == set()

    @pytest.mark.parametrize("name", sorted(KEEPS))
    def test_untaped_op_keeps_nothing(self, rng, name):
        refs, _ = live_arrays(rng, name, taped=False)
        assert survivors(refs) == set()
