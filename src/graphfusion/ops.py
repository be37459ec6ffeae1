"""Differentiable operations over :class:`~graphfusion.tensor.Tensor`.

Every op validates shapes up front, computes its forward result in float32,
and registers a backward closure via :func:`record_op`.  Image tensors use
the layout (batch, channels, height, width).  Binary elementwise ops accept
equal shapes or a limited broadcast: same rank with each dimension either
matching or 1 on one side (this covers per-channel weights of shape
(N, C, 1, 1) against feature maps).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .tensor import ShapeError, Tensor, accumulate, record_op


def _require_4d(name: str, t: Tensor) -> None:
    if t.ndim != 4:
        raise ShapeError(f"{name}: expected a 4-d (N,C,H,W) tensor, got shape {t.shape}")


def _framed(a: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """A (N, C, H, W) map inside a border of ``padding`` cells of ``fill``."""
    if not padding:
        return a
    n, c, h, w = a.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    out = np.zeros(shape, dtype=a.dtype) if fill == 0.0 else np.full(shape, fill, dtype=a.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = a
    return out


def _tap(a: np.ndarray, i: int, j: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """View of the ``oh`` x ``ow`` cells that window tap (i, j) reads in a (..., H, W) map."""
    return a[..., i : i + (oh - 1) * stride + 1 : stride, j : j + (ow - 1) * stride + 1 : stride]


# ---------------------------------------------------------------------------
# convolution and pooling

# Float32 taps per band of output rows: 1 MB, so a band's gather is still in
# a 2 MB per-core L2 cache when its GEMM reads it.  On a Xeon with 2 MB of L2
# per core (OpenBLAS 0.3.31, one thread), a 1x16x480x640 16->16 3x3 conv took
# 62-65 ms with 1 MB bands, 70 ms with 256 KB and 97-114 ms with 4 MB bands,
# which spill out of L2; a 32->16 conv took 128-130 ms against 176-178 ms.
# A multi-channel conv's forward is bit-identical across band sizes, as each
# output cell is the same c*kh*kw-long dot product of a GEMM.  A conv with
# one output channel is a matrix-vector product, whose summation order BLAS
# may change with the band width: a 2x1x64x64 11x11 blur moved by up to
# 7.6e-6 between 10-row and 40-row bands.
_WORKSPACE_FLOATS = 1 << 18
_WORKSPACE = threading.local()


def _bands(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Yield ``(sample, columns, taps)`` per band of output rows of a padded (N, C, H, W) map.

    ``taps`` is the band's (c*kh*kw, rows*ow) window cells, gathered into
    this thread's workspace, which the next band overwrites; ``columns``
    slices the band out of a flattened output plane.  A band holds the
    whole output rows that fit in ``_WORKSPACE_FLOATS``, at least one, so
    the gather is still in cache when the band's GEMM reads it.
    """
    n, c = xp.shape[:2]
    k = c * kh * kw
    rows = max(1, min(oh, _WORKSPACE_FLOATS // (k * ow)))
    if getattr(_WORKSPACE, "buf", np.empty(0)).size < k * rows * ow:
        _WORKSPACE.buf = np.empty(max(_WORKSPACE_FLOATS, k * rows * ow), dtype=np.float32)
    for s in range(n):
        for r0 in range(0, oh, rows):
            r = min(rows, oh - r0)
            taps = _WORKSPACE.buf[: k * r * ow].reshape(c, kh * kw, r, ow)
            for t in range(kh * kw):
                taps[:, t] = _tap(xp[s, :, r0 * stride :], *divmod(t, kw), stride, r, ow)
            yield s, slice(r0 * ow, (r0 + r) * ow), taps.reshape(k, r * ow)


def _correlate(xp: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """Strided cross-correlation of an already padded (N, C, H, W) map.

    One ``(oc, c*kh*kw) @ (c*kh*kw, rows*ow)`` GEMM per band of output rows
    (:func:`_bands`), written into the output, the only full-frame array made.
    """
    (n, _, h, w), (oc, _, kh, kw) = xp.shape, kernel.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    out = np.empty((n, oc, oh * ow), dtype=np.float32)
    weights = kernel.reshape(oc, -1)
    for s, columns, taps in _bands(xp, kh, kw, stride, oh, ow):
        np.matmul(weights, taps, out=out[s, :, columns])
    return out.reshape(n, oc, oh, ow)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding.

    ``kernel`` has shape (out_ch, in_ch, kh, kw), ``bias`` shape (out_ch,).
    Output spatial size is ``(H + 2*padding - kh) // stride + 1``; with
    ``padding = (k - 1) // 2`` and stride 1 an odd kernel preserves size.

    The forward pass and the input gradient are :func:`_correlate`.  The
    input gradient is the transposed convolution: the output gradient,
    spread ``stride`` cells apart and framed by ``kh - 1`` and ``kw - 1``
    zeros, correlated with the flipped, channel-swapped kernel, then
    cropped (rows and columns no window reaches get zero gradient).  The
    transposed kernel gradient is one ``taps @ g_band.T`` GEMM per band of
    the same gather (:func:`_bands`); BLAS runs it faster than the untransposed one.
    """
    _require_4d("conv2d", x)
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be 4-d, got shape {kernel.shape}")
    n, c, h, w = x.shape
    oc, kc, kh, kw = kernel.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels (dim 1) but kernel expects {kc}")
    if bias.shape != (oc,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({oc},)")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/padding ({stride}, {padding})")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: padded input {h + 2 * padding}x{w + 2 * padding} smaller than kernel {kh}x{kw}"
        )

    xp = _framed(x.data, padding)
    out = _correlate(xp, kernel.data, stride)
    out += bias.data.reshape(1, oc, 1, 1)
    oh, ow = out.shape[2], out.shape[3]

    def backward(g: np.ndarray) -> None:
        if bias.requires_grad:
            accumulate(bias, g.sum(axis=(0, 2, 3)))
        if kernel.requires_grad:
            gk, gm = np.zeros((c * kh * kw, oc), dtype=np.float32), g.reshape(n, oc, oh * ow)
            for s, columns, taps in _bands(xp, kh, kw, stride, oh, ow):
                gk += taps @ gm[s, :, columns].T
            accumulate(kernel, gk.T.reshape(oc, c, kh, kw))
        if x.requires_grad:
            spread = np.zeros((n, oc, h + 2 * padding + kh - 1, w + 2 * padding + kw - 1), dtype=np.float32)
            _tap(spread, kh - 1, kw - 1, stride, oh, ow)[...] = g
            dxp = _correlate(spread, kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1)
            accumulate(x, dxp[:, :, padding : padding + h, padding : padding + w])

    return record_op(out, (x, kernel, bias), backward)


def _check_pool_args(name: str, x: Tensor, window: int, stride: int, padding: int) -> None:
    _require_4d(name, x)
    if window < 1 or stride < 1:
        raise ShapeError(f"{name}: window and stride must be positive, got ({window}, {stride})")
    if padding < 0 or padding >= window:
        raise ShapeError(f"{name}: padding must satisfy 0 <= padding < window, got {padding}")
    h, w = x.shape[2], x.shape[3]
    if h + 2 * padding < window or w + 2 * padding < window:
        raise ShapeError(f"{name}: padded input {h + 2 * padding}x{w + 2 * padding} smaller than window {window}")


def maxpool2d(x: Tensor, window: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling; ties resolve to the first maximum in row-major scan order.

    The forward visits the taps in row-major order and keeps only their
    running maximum.  The backward replays that scan to find each window's
    winning tap: a tap's index is stored only where it is strictly greater
    than the running maximum, so an earlier tap keeps a tie.  It then adds
    the output gradient into each tap's view where that tap won.  A window
    holding a NaN outputs NaN, but its gradient goes to the window's first
    maximum before the NaN (or to the NaN itself when it is the first tap).
    """
    _check_pool_args("maxpool2d", x, window, stride, padding)
    h, w = x.shape[2], x.shape[3]
    xp = _framed(x.data, padding, -np.inf)  # padded cells can never win the max
    oh = (h + 2 * padding - window) // stride + 1
    ow = (w + 2 * padding - window) // stride + 1
    out = _tap(xp, 0, 0, stride, oh, ow).copy()
    for idx in range(1, window * window):
        np.maximum(out, _tap(xp, *divmod(idx, window), stride, oh, ow), out=out)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        best = _tap(xp, 0, 0, stride, oh, ow).copy()
        arg = np.zeros(best.shape, dtype=np.min_scalar_type(window * window - 1))
        for idx in range(1, window * window):
            tap = _tap(xp, *divmod(idx, window), stride, oh, ow)
            np.putmask(arg, tap > best, idx)
            np.maximum(best, tap, out=best)
        dxp = np.zeros(xp.shape, dtype=np.float32)
        for idx in range(window * window):
            tap = _tap(dxp, *divmod(idx, window), stride, oh, ow)
            tap += g * (arg == idx)
        accumulate(x, dxp[:, :, padding : padding + h, padding : padding + w])

    return record_op(out, (x,), backward)


def _bins(starts: np.ndarray, stops: np.ndarray, size: int) -> np.ndarray:
    """0/1 matrix whose row i marks the cells ``starts[i] <= k < stops[i]`` of an axis."""
    k = np.arange(size)
    return ((k >= starts[:, None]) & (k < stops[:, None])).astype(np.float32)


def _separable(rows: np.ndarray, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Apply ``rows`` along the height axis and ``cols`` along the width axis."""
    return rows @ x @ cols.T


def _mean_pool(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Mean over the cells each (row, column) bin pair of the 0/1 matrices marks."""
    counts = np.outer(rows.sum(axis=1), cols.sum(axis=1))
    out = _separable(rows, x.data, cols) / counts

    def backward(g: np.ndarray) -> None:
        accumulate(x, _separable(rows.T, g / counts, cols.T))

    return record_op(out, (x,), backward)


def avgpool2d(x: Tensor, window: int, stride: int, padding: int = 0) -> Tensor:
    """Average pooling; padded cells are excluded from each window's divisor."""
    _check_pool_args("avgpool2d", x, window, stride, padding)

    def windows(size: int) -> np.ndarray:
        # Window bounds in unpadded coordinates, so padded cells never count.
        starts = np.arange((size + 2 * padding - window) // stride + 1) * stride - padding
        return _bins(starts, starts + window, size)

    return _mean_pool(x, windows(x.shape[2]), windows(x.shape[3]))


def adaptive_avgpool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an ``out_h`` x ``out_w`` grid of near-equal bins.

    Bin ``i`` along a dimension of size ``s`` covers rows
    ``floor(i*s/out) .. ceil((i+1)*s/out) - 1``; bins may overlap by one row
    when sizes do not divide evenly.
    """
    _require_4d("adaptive_avgpool2d", x)
    h, w = x.shape[2], x.shape[3]
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"adaptive_avgpool2d: output grid must be positive, got ({out_h}, {out_w})")
    if out_h > h or out_w > w:
        raise ShapeError(
            f"adaptive_avgpool2d: output grid ({out_h}, {out_w}) exceeds input ({h}, {w})"
        )

    def bins(size: int, out: int) -> np.ndarray:
        i = np.arange(out)
        return _bins(size * i // out, -(-size * (i + 1) // out), size)

    return _mean_pool(x, bins(h, out_h), bins(w, out_w))


def global_avgpool(x: Tensor) -> Tensor:
    """Spatial mean per channel, shape (N, C, 1, 1)."""
    return adaptive_avgpool2d(x, 1, 1)


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Corner-aligned bilinear upsampling.

    Output pixel ``o`` samples input coordinate ``o * (in - 1) / (out - 1)``
    (coordinate 0 when ``out == 1``).  Interpolation uses the form
    ``a + t * (b - a)`` so constant inputs reproduce exactly.  Each axis is
    one ``np.take`` of the far neighbours, updated in place, and one of the
    near neighbours, so the output and one temporary of its size are the
    only full-size arrays made.
    """
    _require_4d("upsample_bilinear", x)
    n, c, h, w = x.shape
    if out_h < h or out_w < w:
        raise ShapeError(f"upsample_bilinear: output ({out_h}, {out_w}) smaller than input ({h}, {w})")

    def grid(size: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if out == 1 or size == 1:
            idx = np.zeros(out, dtype=np.intp)
            return idx, idx.copy(), np.zeros(out, dtype=np.float32)
        pos = np.arange(out, dtype=np.float64) * (size - 1) / (out - 1)
        i0 = np.floor(pos).astype(np.intp)
        i0 = np.minimum(i0, size - 2)
        t = (pos - i0).astype(np.float32)
        return i0, i0 + 1, t

    r0, r1, tr = grid(h, out_h)
    c0, c1, tc = grid(w, out_w)

    def lerp(a: np.ndarray, i0: np.ndarray, i1: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
        near = np.take(a, i0, axis=axis)
        out = np.take(a, i1, axis=axis)
        out -= near
        out *= t
        out += near
        return out

    out = lerp(lerp(x.data, r0, r1, tr[:, None], 2), c0, c1, tc, 3)

    def backward(g: np.ndarray) -> None:
        # Per-axis interpolation matrices carry the same (1 - t, t) weights
        # as the forward pass; the adjoint applies their transposes.
        ah = np.zeros((out_h, h), dtype=np.float32)
        np.add.at(ah, (np.arange(out_h), r0), 1.0 - tr)
        np.add.at(ah, (np.arange(out_h), r1), tr)
        aw = np.zeros((out_w, w), dtype=np.float32)
        np.add.at(aw, (np.arange(out_w), c0), 1.0 - tc)
        np.add.at(aw, (np.arange(out_w), c1), tc)
        accumulate(x, _separable(ah.T, g, aw.T))

    return record_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# dense layer


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``flatten(x) @ weight.T + bias``.

    ``x`` is (N, ...) and is flattened per sample; ``weight`` is
    (out_features, in_features), ``bias`` (out_features,).
    """
    if x.ndim < 2:
        raise ShapeError(f"fully_connected: input must have a batch dimension, got shape {x.shape}")
    if weight.ndim != 2:
        raise ShapeError(f"fully_connected: weight must be 2-d, got shape {weight.shape}")
    n = x.shape[0]
    feat = x.size // n
    of, inf_ = weight.shape
    if inf_ != feat:
        raise ShapeError(f"fully_connected: input has {feat} features but weight expects {inf_}")
    if bias.shape != (of,):
        raise ShapeError(f"fully_connected: bias shape {bias.shape} != ({of},)")
    xf = x.data.reshape(n, feat)
    out = xf @ weight.data.T + bias.data

    def backward(g: np.ndarray) -> None:
        if bias.requires_grad:
            accumulate(bias, g.sum(axis=0))
        if weight.requires_grad:
            accumulate(weight, g.T @ xf)
        if x.requires_grad:
            accumulate(x, (g @ weight.data).reshape(x.shape))

    return record_op(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _broadcast_check(name: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    if a.ndim != b.ndim:
        raise ShapeError(f"{name}: rank mismatch {a.shape} vs {b.shape}")
    out = []
    for dim, (da, db) in enumerate(zip(a.shape, b.shape)):
        if da != db and 1 not in (da, db):
            raise ShapeError(f"{name}: dim {dim} mismatch {a.shape} vs {b.shape}")
        out.append(max(da, db))
    return tuple(out)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    axes = tuple(i for i, (gs, s) in enumerate(zip(grad.shape, shape)) if s == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("add", a, b)
    out = a.data + b.data

    def backward(g: np.ndarray) -> None:
        accumulate(a, _unbroadcast(g, a.shape))
        accumulate(b, _unbroadcast(g, b.shape))

    return record_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("sub", a, b)
    out = a.data - b.data

    def backward(g: np.ndarray) -> None:
        accumulate(a, _unbroadcast(g, a.shape))
        accumulate(b, _unbroadcast(-g, b.shape))

    return record_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("mul", a, b)
    out = a.data * b.data

    def backward(g: np.ndarray) -> None:
        accumulate(a, _unbroadcast(g * b.data, a.shape))
        accumulate(b, _unbroadcast(g * a.data, b.shape))

    return record_op(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; the caller keeps the denominator away from zero."""
    _broadcast_check("div", a, b)
    out = a.data / b.data

    def backward(g: np.ndarray) -> None:
        accumulate(a, _unbroadcast(g / b.data, a.shape))
        accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return record_op(out, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first argument."""
    _broadcast_check("maximum", a, b)
    out = np.maximum(a.data, b.data)
    take_a = a.data >= b.data

    def backward(g: np.ndarray) -> None:
        accumulate(a, _unbroadcast(g * take_a, a.shape))
        accumulate(b, _unbroadcast(g * ~take_a, b.shape))

    return record_op(out, (a, b), backward)


def negate(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        accumulate(x, -g)

    return record_op(-x.data, (x,), backward)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar."""
    s32 = np.float32(s)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * s32)

    return record_op(x.data * s32, (x,), backward)


def shift(x: Tensor, c: float) -> Tensor:
    """Add a python scalar."""

    def backward(g: np.ndarray) -> None:
        accumulate(x, g)

    return record_op(x.data + np.float32(c), (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View the same elements under a new shape (sizes must match)."""
    target = tuple(int(s) for s in shape)
    if int(np.prod(target, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {target}")
    out = x.data.reshape(target)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g.reshape(x.shape))

    return record_op(out, (x,), backward)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-d tensors along the channel dimension."""
    if not tensors:
        raise ShapeError("concat_channels: need at least one tensor")
    for t in tensors:
        _require_4d("concat_channels", t)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ShapeError(f"concat_channels: incompatible shapes {ref} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, o0, o1 in zip(tensors, offsets[:-1], offsets[1:]):
            accumulate(t, g[:, o0:o1])

    return record_op(out, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def _logistic(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``0.5 * tanh(0.5 x) + 0.5``, which cannot overflow, into ``out``."""
    half = np.float32(0.5)
    np.multiply(x, half, out=out)
    np.tanh(out, out=out)
    out *= half
    out += half
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function (:func:`_logistic`)."""
    out = _logistic(x.data, np.empty_like(x.data))  # an array even when 0-d

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * out * (1.0 - out))

    return record_op(out, (x,), backward)


# Float32 elements per chunk of gate_add: 128 KB, so each operand's chunk and
# the chunk's gate stay in a 2 MB per-core L2 cache between their passes.
_CHUNK_FLOATS = 1 << 15


def gate_add(total: Tensor, edge: Tensor, source: Tensor) -> Tensor:
    """``total + sigmoid(edge) * source``, one graph message added into a sum.

    All three operands have one shape.  The forward walks the flattened
    arrays in chunks of ``_CHUNK_FLOATS``, so the output is the only
    full-size array made: neither the gate nor the message is stored, and
    the backward recomputes the gate chunk by chunk.  Every element rounds
    as in ``add(total, mul(sigmoid(edge), source))``, and the gradients
    accumulate in that composition's order (total, source, edge), so the
    results are bit-identical to it.
    """
    for name, t in (("edge", edge), ("source", source)):
        if t.shape != total.shape:
            raise ShapeError(f"gate_add: {name} shape {t.shape} differs from total shape {total.shape}")
    out = np.empty_like(total.data)
    t_flat, e_flat, s_flat, o_flat = (a.reshape(-1) for a in (total.data, edge.data, source.data, out))
    gate = np.empty(min(_CHUNK_FLOATS, out.size), dtype=np.float32)
    for lo in range(0, out.size, _CHUNK_FLOATS):
        part = slice(lo, lo + _CHUNK_FLOATS)
        message = _logistic(e_flat[part], gate[: o_flat[part].size])
        message *= s_flat[part]
        np.add(t_flat[part], message, out=o_flat[part])

    def backward(g: np.ndarray) -> None:
        accumulate(total, g)
        # (is the edge, flat gradient, fresh): a gradient made here is written, not added to.
        sinks = []
        for is_edge, t in ((False, source), (True, edge)):
            if t.requires_grad:
                fresh = t.grad is None
                if fresh:
                    t.grad = np.empty_like(t.data)
                sinks.append((is_edge, t.grad.reshape(-1), fresh))
        if not sinks:
            return
        g_flat = g.reshape(-1)
        buf = np.empty((2, min(_CHUNK_FLOATS, g_flat.size)), dtype=np.float32)
        for lo in range(0, g_flat.size, _CHUNK_FLOATS):
            part = slice(lo, lo + _CHUNK_FLOATS)
            gc = g_flat[part]
            sig, d = _logistic(e_flat[part], buf[0, : gc.size]), buf[1, : gc.size]
            for is_edge, grad, fresh in sinks:
                if is_edge:
                    np.multiply(gc, s_flat[part], out=d)
                    d *= sig
                    d *= 1.0 - sig
                else:
                    np.multiply(gc, sig, out=d)
                if fresh:
                    grad[part] = d
                else:
                    grad[part] += d

    return record_op(out, (total, edge, source), backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * (x.data > 0))

    return record_op(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root of non-negative input.

    The subgradient at exactly zero is taken as zero, so magnitudes of
    constant fields backpropagate cleanly instead of dividing by zero.
    """
    if np.any(x.data < 0):
        raise ShapeError("sqrt: negative input")
    out = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        safe = np.where(out > 0, out, np.float32(1.0))
        accumulate(x, np.where(out > 0, g / (2.0 * safe), np.float32(0.0)))

    return record_op(out, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    """Elementwise |x|; the subgradient at zero is zero."""
    out = np.abs(x.data)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * np.sign(x.data))

    return record_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements as a 0-d tensor.

    The accumulation runs in float64 and rounds once at the end, keeping the
    stored scalar within one float32 ulp of the true sum (finite-difference
    checks rely on this).
    """
    out = np.float32(np.sum(x.data, dtype=np.float64))

    def backward(g: np.ndarray) -> None:
        accumulate(x, np.broadcast_to(g, x.shape).astype(np.float32))

    return record_op(np.asarray(out), (x,), backward)


def reduce_mean(x: Tensor) -> Tensor:
    """Mean of all elements as a 0-d tensor (float64 accumulation)."""
    inv = np.float32(1.0 / x.size)
    out = np.float32(np.sum(x.data, dtype=np.float64) / x.size)

    def backward(g: np.ndarray) -> None:
        accumulate(x, np.broadcast_to(g * inv, x.shape).astype(np.float32))

    return record_op(np.asarray(out), (x,), backward)
