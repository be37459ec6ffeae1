"""Differentiable operations over :class:`~graphfusion.tensor.Tensor`.

Every op validates shapes up front, computes its forward result in float32,
and registers a backward closure via :func:`record_op`.  A closure names
no :class:`Tensor`: it holds its inputs' gradient slots and shapes and
only the arrays its backward reads, so under a tape a map that no
backward reads is freed once the forward code drops it.  Image tensors use
the layout (batch, channels, height, width).  Binary elementwise ops accept
equal shapes or a limited broadcast: same rank with each dimension either
matching or 1 on one side (this covers per-channel weights of shape
(N, C, 1, 1) against feature maps).
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .tensor import ShapeError, Tensor, accumulate, record_op


def _require_4d(name: str, t: Tensor) -> None:
    if t.ndim != 4:
        raise ShapeError(f"{name}: expected a 4-d (N,C,H,W) tensor, got shape {t.shape}")


def _framed(a: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """Each plane of ``a`` framed by ``padding`` cells of ``fill``: (N, C, H+2p, W+2p).

    The pools' whole-map frame: average pooling reads a frame of zeros,
    max pooling one of -inf, which never wins a max.  Without padding it is
    ``a`` itself.  Convs frame one band of rows at a time (:func:`_band_frames`).
    """
    if not padding:
        return a
    n, c, h, w = a.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    # ``np.zeros`` gets its zeros from the allocator; ``np.full`` would add a pass.
    out = np.zeros(shape, dtype=a.dtype) if fill == 0 else np.full(shape, fill, dtype=a.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = a
    return out


def _tap(a: np.ndarray, i: int, j: int, oh: int, ow: int) -> np.ndarray:
    """View of the ``oh`` x ``ow`` cells that window tap (i, j) reads in a (..., H, W) map."""
    return a[..., i : i + oh, j : j + ow]


# ---------------------------------------------------------------------------
# convolution and pooling

# conv2d computes a band of output rows at a time.  A band reads only its
# own r + k - 1 framed rows (_band_frames), written into buffers that the
# call allocates once and reuses for each band; no buffer outlives a call, so
# calls on different threads share none.  A large call's view side shares
# its bands with one helper thread (_shared), which sets up buffers of its
# own.  The kernel gradient, and a correlation (the forward,
# or the input gradient, which correlates the output gradient) from
# _VIEW_CHANNELS input channels up, make one GEMM per kernel tap over a
# shifted view of the band's frame, summed into a buffer: the tap's (oc x c)
# weights times the view for a correlation, the band's output gradient times
# the view's transpose for the kernel gradient (kn2row: Vasudevan, Anderson &
# Gregg, ASAP 2017).  So BLAS's own packing is the only copy of the frame.
# A correlation of thinner inputs gathers all c*k*k taps of a band and makes
# one GEMM (im2col: Chellapilla, Puri & Simard, 2006), as GEMMs with K = c
# are then too small.  One OpenBLAS 0.3.31 thread on a Xeon with 2 MB of L2
# per core, 480x640 3x3 convs to 16 channels, gather against views (best of
# 5-7): from 1 channel 10.4 against 153 ms, from 4 17.0 against 23.6, from 8
# 35.2 against 34.6, from 15 75.2 against 44.4, from 16 80.7 against 45.7
# and from 32 155 against 80 ms; the 11x11 SSIM blur of a 2x1x64x64 map 0.84
# against 3.99 ms.  The network convolves 1 or at least 16 channels, so the
# threshold sits at its width.  A kernel gradient's tap GEMMs sum over the
# band's r*Wp cells whatever c, so it takes views at every width.
_VIEW_CHANNELS = 16

# Output floats per band of the per-tap sums, bounded by the larger of the
# two channel counts: 64K, so the band, the tap product added into it and
# the view a GEMM reads stay in L2.  A 16->16 conv's tap GEMMs then also
# stay under OpenBLAS's small-matrix size, where it reads the view without
# packing it.  On the Xeon above, a 1x16x480x640 16->16 3x3 conv took
# 52-54 ms with 16K and 32K bands, 43.7 and 43.8 ms with 48K and 64K, and
# 56-57 ms with 96K and 128K (best of 7).
_BAND_FLOATS = 1 << 16

# Float32 taps per band of a thin correlation's gather: 1 MB, so a band's
# gather is still in a 2 MB per-core L2 cache when its GEMM reads it.  What
# gathers is every correlation of fewer than _VIEW_CHANNELS channels: in the
# default network the 1-channel ones (the backbone's first conv, the Sobel
# and SSIM kernels, the input gradient of the head's last conv).  On one
# thread of the same Xeon, medians of 63 with 256 KB, 512 KB and 1 MB caps:
# a 1->16 3x3 forward at 1x1x480x640 took 6.3-7.2, 6.0-6.2 and 5.8-6.0 ms
# (two runs each; the quartiles of the caps overlap).  A forward with
# several output channels is bit-identical across band sizes, as each output
# cell is the same c*kh*kw-long dot product of a GEMM.  A conv with one
# output channel is a matrix-vector product, whose summation order BLAS may
# change with the band width: a 2x1x64x64 11x11 blur moved by up to 7.6e-6
# between 10-row and 40-row bands.  Each gathering call allocates its taps
# buffer, of at most 1 MB, so the buffer counts in its peak.
_WORKSPACE_FLOATS = 1 << 18

# Output floats from which a wide correlation's bands and gate_add's forward
# chunks are shared with a helper thread (_shared): 1M, past the break-even
# of both.  A 16->16 3x3 forward and a gate_add at 1x16xHxW, one OpenBLAS
# thread, 2 vCPUs shared with other tenants, one thread against shared
# (medians of 5-280, two rounds): 131K floats 0.91-1.33 against 1.41-1.82
# ms and 0.36-0.40 against 0.64-0.68 ms; 262K 2.7 against 2.5-2.6 ms and
# 0.88-0.95 against 1.14-1.25 ms; 524K 4.7-5.3 against 3.8-6.1 ms and
# 1.6 against 1.8-2.2 ms; 1M 9.4-10.8 against 7.1-7.6 ms and 4.0-4.3
# against 3.3-3.9 ms; 4.9M (480x640) 40-47 against 28-31 ms and 18-19
# against 15 ms.  A default training step's 2x16x64x64 maps (131K) stay
# on one thread.
_SHARE_FLOATS = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or ``os.cpu_count()`` where there is none."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _shared(run: Callable[[Iterable], None], items: Iterable, floats: int) -> None:
    """Call ``run(todo)`` on this thread, and for a large output on one helper thread too, sharing one ``todo`` of ``items``.

    ``run`` sets up its own buffers and writes each item it pulls into a
    disjoint slice of the output, so every output byte is the one a single
    ``run(iter(items))`` writes, whichever thread takes the item.  The
    helper is started only for an output of ``floats >= _SHARE_FLOATS``
    when the process may run on two or more CPUs, and is joined before
    this returns: no thread, lock or buffer outlives the call.  The helper
    runs in a copy of the caller's context, so numpy's error state is the
    caller's, and it runs only numpy on arrays, never an op, so only the
    calling thread touches a tape.  An exception on either thread stops
    both after their current item and is raised here after the join.
    """
    items = iter(items)
    if floats < _SHARE_FLOATS or _usable_cpus() < 2:
        run(items)
        return
    lock, failed = threading.Lock(), []

    def todo():
        while not failed:
            with lock:
                item = next(items, None)
            if item is None:
                return
            yield item

    def helper() -> None:
        try:
            run(todo())
        except BaseException as error:
            failed.append(error)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        run(todo())
    except BaseException:
        failed.append(None)
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _channel_parts(a) -> tuple[list[np.ndarray], tuple[int, int, int, int]]:
    """``a``'s channel parts and the (N, C, H, W) shape of their concatenation.

    ``a`` is one (N, C, H, W) map, its only part, or a sequence of maps of
    one N, H and W, read as their concatenation along channels.
    """
    parts = [a] if isinstance(a, np.ndarray) else list(a)
    n, _, h, w = parts[0].shape
    return parts, (n, sum(p.shape[1] for p in parts), h, w)


def _band_starts(n: int, oh: int, rows: int) -> list[tuple[int, int]]:
    """The ``(s, r0)`` start of every band of ``rows`` output rows, each sample's in order."""
    return [(s, r0) for s in range(n) for r0 in range(0, oh, rows)]


def _band_frames(a, k: int, padding: int, rows: int, tail: int = 0, minus: np.ndarray | None = None, bands=None):
    """Yield ``(s, r0, r, flat)`` per band of at most ``rows`` output rows of a k x k correlation of ``a`` (less ``minus``).

    ``a`` is a map or its channel parts (:func:`_channel_parts`).  The
    bands are the ``(s, r0)`` starts that ``bands`` yields, in its order,
    or every band of each sample in order (:func:`_band_starts`); the
    last band of a sample may be short, and a band holds at least one
    row.  ``flat`` is the band's ``r + k - 1`` rows of the map framed by
    ``padding`` zeros, as :func:`_framed`'s, flat per channel, then
    ``tail`` zeros: (C, (r+k-1)*Wp + tail), with framed cell (r0 + y, x)
    at ``y * Wp + x``.  A kernel tap over whole rows of the band is then a
    2-d slice, and the tail keeps the slices of the last rows in bounds.
    With nothing to frame (one part, and no padding, tail or ``minus``)
    ``flat`` is a view of the map's rows.  Otherwise it is the start of
    each row of one buffer, made once per generator at a full band's
    pitch, whose side columns and tail are zeroed once: a band copies only
    its map cells, part by part into their channels, its padding rows
    where it reaches the map's top or bottom, and its tail when it is
    short.  Each band overwrites the last one's, so parts are never
    concatenated beyond one band.  No band's frame depends on the bands
    framed before it, so two generators, each with its own buffer, may
    frame the bands they pull from one shared ``bands``.
    """
    parts, (n, c, h, w) = _channel_parts(a)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    wp = w + 2 * padding
    oh = h + 2 * padding - k + 1
    rows = max(1, min(oh, rows))
    framed = bool(padding or tail) or minus is not None or len(parts) > 1
    if framed:
        size = (rows + k - 1) * wp
        buf = np.empty((c, size + tail), dtype=np.float32)
        sides = buf[:, :size].reshape(c, rows + k - 1, wp)
        sides[:, :, :padding] = sides[:, :, padding + w :] = 0
        buf[:, size:] = 0
    for s, r0 in _band_starts(n, oh, rows) if bands is None else bands:
        r = min(rows, oh - r0)
        size = (r + k - 1) * wp
        if not framed:
            yield s, r0, r, parts[0][s, :, r0 : r0 + r + k - 1].reshape(c, size)
            continue
        flat = buf[:, : size + tail]
        frame = flat[:, :size].reshape(c, r + k - 1, wp)
        # Frame rows lo .. hi-1 hold input rows lo-padding .. hi-padding-1.
        lo, hi = max(r0, padding), min(r0 + r + k - 1, padding + h)
        if lo > r0:
            frame[:, : lo - r0] = 0
        if hi < r0 + r + k - 1:
            frame[:, hi - r0 :] = 0
        src = slice(lo - padding, hi - padding)
        for part, c0, c1 in zip(parts, offsets[:-1], offsets[1:]):
            cells = frame[c0:c1, lo - r0 : hi - r0, padding : padding + w]
            if minus is None:
                cells[...] = part[s, :, src]
            else:
                np.subtract(part[s, :, src], minus[s, c0:c1, src], out=cells)
        if tail and r < rows:
            flat[:, size:] = 0
        yield s, r0, r, flat


def _band_rows(channels: int, oh: int, wp: int) -> int:
    """Output rows per band of the view side: ``oh`` rows split evenly into bands of ``_BAND_FLOATS`` floats of ``channels`` channels.

    Bands of one height: a short last band costs as many GEMM calls as a
    full one (2x16x64x64: 1.78 ms with bands of 62 and 2 rows, 1.26 ms with 32).
    """
    bands = -(-oh // max(1, _BAND_FLOATS // (channels * wp)))
    return -(-oh // bands)


def _correlate(
    a,
    kernel: np.ndarray,
    padding: int,
    bias: np.ndarray | None = None,
    minus: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation of a (N, C, H, W) map framed by ``padding`` zeros with a square kernel, plus ``bias``.

    ``a`` is the map or its channel parts (:func:`_channel_parts`).  With
    ``minus`` it correlates ``a - minus``, which is formed only inside each
    band's frame.

    Every band of output rows reads only its own ``rows + k - 1`` framed
    rows (:func:`_band_frames`), so no full-size frame is made.  From
    ``_VIEW_CHANNELS`` input channels up, a band is the sum over kernel taps
    of one ``(oc, c) @ (c, rows*Wp)`` GEMM each, whose right side is a slice
    of the band's frame, still in cache.  A band is computed on its pitched
    grid of ``Wp`` columns per row and copied into the output without the
    columns past ``ow``; the taps of a kept column never leave its frame
    row, so the columns past ``ow`` and the frame's tail cannot reach a kept
    one.  Thinner inputs gather each band's window taps from its frame into
    a buffer of ``_WORKSPACE_FLOATS`` floats (at least one row) and make one
    ``(oc, c*k*k) @ (c*k*k, rows*ow)`` GEMM per band, straight into the
    output.  The bias is added band by band.  The view side hands its bands
    to :func:`_shared`: for an output of ``_SHARE_FLOATS`` floats up, a
    helper thread pulls bands from the same list, with a frame and sums
    buffer of its own, and writes the rows of the bands it takes, which
    hold the bytes this thread would write.  The thin side stays on this
    thread, as its taps buffer is the call's largest.  The band buffers
    live as long as this call.
    """
    (n, c, h, w), (oc, _, k, _) = _channel_parts(a)[1], kernel.shape
    wp = w + 2 * padding
    oh, ow = h + 2 * padding - k + 1, wp - k + 1
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    if c < _VIEW_CHANNELS:
        weights = kernel.reshape(oc, -1)
        rows = max(1, min(oh, _WORKSPACE_FLOATS // (c * k * k * ow)))
        buf = np.empty(c * k * k * rows * ow, dtype=np.float32)
        for s, r0, r, flat in _band_frames(a, k, padding, rows, minus=minus):
            taps = buf[: c * k * k * r * ow].reshape(c, k, k, r, ow)
            frame = flat.reshape(c, r + k - 1, wp)
            taps[...] = np.lib.stride_tricks.sliding_window_view(frame, (k, k), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
            band = out[s, :, r0 : r0 + r]
            np.matmul(weights, taps.reshape(c * k * k, r * ow), out=band.reshape(oc, r * ow))
            if bias is not None:
                band += bias.reshape(oc, 1, 1)
        return out

    weights = kernel.transpose(2, 3, 0, 1).reshape(k * k, oc, c)
    rows = _band_rows(max(oc, c), oh, wp)

    def run(bands) -> None:
        sums = np.empty((2, oc * rows * wp), dtype=np.float32)
        for s, r0, r, flat in _band_frames(a, k, padding, rows, k - 1, minus, bands):
            total, part = sums[:, : oc * r * wp].reshape(2, oc, r * wp)
            if bias is not None:
                total[...] = bias.reshape(oc, 1)
            for t in range(k * k):
                i, j = divmod(t, k)
                view = flat[:, i * wp + j : i * wp + j + r * wp]
                if t == 0 and bias is None:
                    np.matmul(weights[t], view, out=total)
                else:
                    np.matmul(weights[t], view, out=part)
                    total += part
            out[s, :, r0 : r0 + r] = total.reshape(oc, r, wp)[:, :, :ow]

    _shared(run, _band_starts(n, oh, rows), out.size)
    return out


def _kernel_gradient(a, g: np.ndarray, k: int, padding: int, minus: np.ndarray | None = None) -> np.ndarray:
    """The (oc, c, k, k) gradient of the kernel of a k x k correlation of ``a`` (less ``minus``) for output gradient ``g``.

    ``a``, a map or its channel parts, is framed by ``padding`` zeros, as
    :func:`_correlate` frames it.  Whatever its width, each band reads the
    frames the view side of the forward reads (:func:`_band_frames` at
    :func:`_band_rows`'s height, with a ``k - 1`` tail), and its rows of
    ``g`` are copied once onto the frame's row pitch ``Wp``, zero past
    column ``ow``.  Each tap is then one ``(oc, r*Wp) @ (r*Wp, c)`` GEMM of
    those rows against the tap's slice of the frame, summed into a
    (k*k, oc, c) buffer; the zero columns drop the slice's cells that no
    output reads (as products with zero, so an inf in such a cell gives
    NaN).  A 1x1 kernel reads ``g``'s rows as they are: its frame has no
    extra columns.  The sums run over bands, so the result moves with the
    band height.  On one thread, 3x3 kernel gradients to 16 channels took
    0.71 ms this way and 0.96 ms from gathered taps at 2x16x64x64, 24.4
    and 33.3 ms at 1x16x480x640, 0.51-0.72 and 0.93-1.09 ms at 2x8x64x64,
    and 0.25-0.42 and 0.14-0.21 ms at 2x1x64x64 (medians of 60, three
    rounds).  The band buffers live as long as this call.
    """
    (_, c, _, w), (_, oc, oh, ow) = _channel_parts(a)[1], g.shape
    wp = w + 2 * padding
    rows = _band_rows(max(oc, c), oh, wp)
    gk = np.zeros((k * k, oc, c), dtype=np.float32)
    if wp > ow:
        pitched = np.empty((oc, rows, wp), dtype=np.float32)
        pitched[:, :, ow:] = 0
    for s, r0, r, flat in _band_frames(a, k, padding, rows, k - 1, minus):
        if wp > ow:
            pitched[:, :r, :ow] = g[s, :, r0 : r0 + r]
            rows_g = pitched[:, :r].reshape(oc, r * wp)
        else:
            rows_g = g[s, :, r0 : r0 + r].reshape(oc, r * wp)
        for t in range(k * k):
            i, j = divmod(t, k)
            gk[t] += rows_g @ flat[:, i * wp + j : i * wp + j + r * wp].T
    return gk.reshape(k, k, oc, c).transpose(2, 3, 0, 1)


def conv2d(
    x: Tensor | Sequence[Tensor],
    kernel: Tensor,
    bias: Tensor | None,
    *,
    padding: int = 0,
    minus: Tensor | None = None,
) -> Tensor:
    """2-d stride-1 cross-correlation of ``x``, or of ``x - minus``, with a square kernel and zero padding.

    ``x`` is one (N, C, H, W) tensor, or a sequence of tensors of one N, H
    and W that the conv reads as their concatenation along channels, in
    order, without making it: each band's frame copies its rows from the
    parts (:func:`_band_frames`).  ``kernel`` has shape (out_ch, in_ch, k, k)
    with ``0 <= padding < k``, ``bias`` shape (out_ch,) or None for none.
    Output spatial size is ``H + 2*padding - k + 1``; with
    ``padding = (k - 1) // 2`` an odd kernel preserves size.  ``minus``, of
    ``x``'s shape, is subtracted from ``x`` inside the frame the
    correlation reads, so the difference is never a map of its own; it
    rounds as ``sub(x, minus)``.  It needs ``x`` to be one tensor.

    The forward pass and the input gradient are :func:`_correlate`.  The
    input gradient is the transposed convolution: a correlation of the
    output gradient, framed by ``k - 1 - padding`` zeros, with the flipped,
    channel-swapped kernel.  It is made once over all channels; each part
    of ``x`` is handed its channels of it, in order, and ``minus`` its
    negation.  So a sequence's gradients equal those of a conv over
    ``concat_channels`` of it, bit for bit.  The kernel gradient is
    :func:`_kernel_gradient`, which frames each band of ``x`` (less
    ``minus``) again from its own rows, as the forward did, and makes one
    GEMM per tap over views of that frame at every input width.  The op keeps
    the arrays of ``x``'s parts, ``minus`` and the kernel, never a frame or
    a concatenation.
    """
    parts = [x] if isinstance(x, Tensor) else list(x)
    if not parts:
        raise ShapeError("conv2d: need at least one input tensor")
    for t in parts:
        _require_4d("conv2d", t)
    n, _, h, w = parts[0].shape
    if any(t.shape[0] != n or t.shape[2:] != (h, w) for t in parts):
        raise ShapeError(f"conv2d: input parts differ beyond channels: {[t.shape for t in parts]}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be 4-d, got shape {kernel.shape}")
    c = sum(t.shape[1] for t in parts)
    oc, kc, k, kw = kernel.shape
    if kc != c:
        raise ShapeError(f"conv2d: input has {c} channels (dim 1) but kernel expects {kc}")
    if kw != k or not 0 <= padding < k:
        raise ShapeError(f"conv2d: kernel shape {kernel.shape} needs square taps and 0 <= padding < {k}, got {padding}")
    if bias is not None and bias.shape != (oc,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({oc},)")
    if minus is not None and not isinstance(x, Tensor):
        raise ShapeError("conv2d: minus needs one input tensor, not a sequence")
    if minus is not None and minus.shape != x.shape:
        raise ShapeError(f"conv2d: minus shape {minus.shape} differs from input shape {x.shape}")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(f"conv2d: padded input {h + 2 * padding}x{w + 2 * padding} smaller than kernel {k}x{k}")

    x_data = x.data if isinstance(x, Tensor) else [t.data for t in parts]
    weights, minus_data = kernel.data, None if minus is None else minus.data
    out = _correlate(x_data, weights, padding, None if bias is None else bias.data, minus_data)
    inputs = tuple(t for t in (*parts, kernel, bias, minus) if t is not None)
    # Each part's slot and the end of its channels.
    x_slots = [(t.slot, int(end)) for t, end in zip(parts, np.cumsum([t.shape[1] for t in parts]))]
    kernel_slot, bias_slot, minus_slot = (None if t is None else t.slot for t in (kernel, bias, minus))

    def backward(g: np.ndarray) -> None:
        if bias_slot is not None and bias_slot.requires_grad:
            accumulate(bias_slot, g.sum(axis=(0, 2, 3)))
        if kernel_slot.requires_grad:
            accumulate(kernel_slot, _kernel_gradient(x_data, g, k, padding, minus_data))
        if any(slot.requires_grad for slot, _ in x_slots) or (minus_slot is not None and minus_slot.requires_grad):
            dx = _correlate(g, weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - padding)
            start = 0
            for slot, end in x_slots:
                accumulate(slot, dx[:, start:end])
                start = end
            if minus_slot is not None and minus_slot.requires_grad:
                accumulate(minus_slot, -dx)

    return record_op(out, inputs, backward)


def _check_pool_args(name: str, x: Tensor, window: int, padding: int) -> None:
    _require_4d(name, x)
    if window < 1:
        raise ShapeError(f"{name}: window must be positive, got {window}")
    if padding < 0 or padding >= window:
        raise ShapeError(f"{name}: padding must satisfy 0 <= padding < window, got {padding}")
    h, w = x.shape[2], x.shape[3]
    if h + 2 * padding < window or w + 2 * padding < window:
        raise ShapeError(f"{name}: padded input {h + 2 * padding}x{w + 2 * padding} smaller than window {window}")


def _scan(ap: np.ndarray, window: int, combine: np.ufunc) -> np.ndarray:
    """``combine`` over the window taps of a framed (N, C, Hp, Wp) map, in row-major tap order."""
    oh, ow = ap.shape[2] - window + 1, ap.shape[3] - window + 1
    out = _tap(ap, 0, 0, oh, ow).copy()
    for idx in range(1, window * window):
        combine(out, _tap(ap, *divmod(idx, window), oh, ow), out=out)
    return out


def maxpool2d(x: Tensor, window: int, *, padding: int = 0) -> Tensor:
    """Stride-1 max pooling; ties resolve to the first maximum in row-major scan order.

    The forward is the :func:`_scan` of ``np.maximum`` over the map framed
    by -inf.  The backward replays that scan to find each window's
    winning tap: a tap's index is stored only where it is strictly greater
    than the running maximum, so an earlier tap keeps a tie.  It then adds
    the output gradient, masked to where each tap won, into that tap's view
    of the framed gradient, through two buffers it reuses per tap.  A window
    holding a NaN outputs NaN, but its gradient goes to the window's first
    maximum before the NaN (or to the NaN itself when it is the first tap).
    """
    _check_pool_args("maxpool2d", x, window, padding)
    n, c, h, w = x.shape
    xp = _framed(x.data, padding, fill=-np.inf)
    out = _scan(xp, window, np.maximum)
    oh, ow = out.shape[2], out.shape[3]
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        if not slot.requires_grad:
            return
        best = _tap(xp, 0, 0, oh, ow).copy()
        arg = np.zeros(best.shape, dtype=np.min_scalar_type(window * window - 1))
        won, step = np.empty(best.shape, dtype=bool), np.empty_like(arg)
        for idx in range(1, window * window):
            tap = _tap(xp, *divmod(idx, window), oh, ow)
            # ``arg`` is below ``idx`` everywhere, so a maximum sets it to
            # ``idx`` exactly where the tap wins.  At 2x16x64x64 np.putmask
            # took 0.88 ms a tap, these two calls 0.03 ms.
            np.multiply(np.greater(tap, best, out=won), arg.dtype.type(idx), out=step)
            np.maximum(arg, step, out=arg)
            np.maximum(best, tap, out=best)
        dxp = np.zeros(xp.shape, dtype=np.float32)
        routed = np.empty_like(g)
        for idx in range(window * window):
            tap = _tap(dxp, *divmod(idx, window), oh, ow)
            # A masked ``np.add(tap, g, out=tap, where=...)`` into the strided
            # view was 6x slower than this product (12.4 against 2.0 ms).
            tap += np.multiply(g, np.equal(arg, idx, out=won), out=routed)
        accumulate(slot, dxp[:, :, padding : padding + h, padding : padding + w])

    return record_op(out, (x,), backward)


def avgpool2d(x: Tensor, window: int, *, padding: int = 0) -> Tensor:
    """Stride-1 average pooling; padded cells are excluded from each window's divisor.

    The forward is the :func:`_scan` of ``np.add`` over the zero-framed map,
    divided by the same scan over a zero-framed plane of ones: each window's
    count of cells inside the map, an exact small integer.  The backward is
    the transposed window sum, as ``conv2d``'s input gradient is: the same
    scan over the output gradient divided by those counts, framed by
    ``window - 1 - padding`` zeros.
    """
    _check_pool_args("avgpool2d", x, window, padding)
    h, w = x.shape[2], x.shape[3]
    ones = _framed(np.ones((1, 1, h, w), dtype=np.float32), padding)
    counts = _scan(ones, window, np.add)
    out = _scan(_framed(x.data, padding), window, np.add)
    out /= counts
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        share = _framed(g / counts, window - 1 - padding)
        accumulate(slot, _scan(share, window, np.add))

    return record_op(out, (x,), backward)


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
        """0/1 matrix whose row i marks the cells of bin i along an axis of ``size`` cells."""
        i, cells = np.arange(out), np.arange(size)
        starts, stops = size * i // out, -(-size * (i + 1) // out)
        return ((cells >= starts[:, None]) & (cells < stops[:, None])).astype(np.float32)

    # The mean over each (row, column) bin pair: the row bins along the
    # height, the column bins along the width, divided by the bin's cells.
    rows, cols = bins(h, out_h), bins(w, out_w)
    counts = np.outer(rows.sum(axis=1), cols.sum(axis=1))
    out = rows @ x.data @ cols.T / counts
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, rows.T @ (g / counts) @ cols)

    return record_op(out, (x,), backward)


def global_avgpool(x: Tensor) -> Tensor:
    """Spatial mean per channel, shape (N, C, 1, 1)."""
    return adaptive_avgpool2d(x, 1, 1)


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Corner-aligned bilinear upsampling.

    Output pixel ``o`` samples input coordinate ``o * (in - 1) / (out - 1)``
    (coordinate 0 when ``out == 1``).  Interpolation uses the form
    ``a + t * (b - a)`` so constant inputs reproduce exactly.  Each axis
    takes ``b - a`` of every pair of neighbouring input cells, then writes
    the outputs between each pair as ``(b - a) * t`` and adds ``a`` in
    place, so the output is the only full-size array made.  That costs two
    ufunc calls per input interval, so it suits the small pooled grids the
    network upsamples from (1, 2 and 4 cells a side): from an 8x8 grid to
    480x640 it is already slower than a full-size gather (21.5 against 19.7 ms).
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

    def lerp(a: np.ndarray, i0: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
        src = np.moveaxis(a, axis, -1)
        diff = src[..., 1:] - src[..., :-1] if src.shape[-1] > 1 else src - src
        out = np.empty(src.shape[:-1] + (t.size,), dtype=np.float32)
        # Outputs lo:hi of interval q lie between input cells q and q + 1.
        bounds = np.searchsorted(i0, np.arange(diff.shape[-1] + 1))
        for q, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.multiply(diff[..., q, None], t[lo:hi], out=out[..., lo:hi])
            out[..., lo:hi] += src[..., q, None]
        return np.moveaxis(out, -1, axis)

    out = lerp(lerp(x.data, r0, tr, 2), c0, tc, 3)
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        # Per-axis interpolation matrices carry the same (1 - t, t) weights
        # as the forward pass; the adjoint applies their transposes.
        ah = np.zeros((out_h, h), dtype=np.float32)
        np.add.at(ah, (np.arange(out_h), r0), 1.0 - tr)
        np.add.at(ah, (np.arange(out_h), r1), tr)
        aw = np.zeros((out_w, w), dtype=np.float32)
        np.add.at(aw, (np.arange(out_w), c0), 1.0 - tc)
        np.add.at(aw, (np.arange(out_w), c1), tc)
        accumulate(slot, ah.T @ g @ aw)

    return record_op(out, (x,), backward)


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
    a_slot, b_slot, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        accumulate(a_slot, _unbroadcast(g, a_shape))
        accumulate(b_slot, _unbroadcast(g, b_shape))

    return record_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("sub", a, b)
    out = a.data - b.data
    a_slot, b_slot, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        accumulate(a_slot, _unbroadcast(g, a_shape))
        accumulate(b_slot, _unbroadcast(-g, b_shape))

    return record_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("mul", a, b)
    a_data, b_data = a.data, b.data
    out = a_data * b_data
    a_slot, b_slot, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        accumulate(a_slot, _unbroadcast(g * b_data, a_shape))
        accumulate(b_slot, _unbroadcast(g * a_data, b_shape))

    return record_op(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; the caller keeps the denominator away from zero."""
    _broadcast_check("div", a, b)
    a_data, b_data = a.data, b.data
    out = a_data / b_data
    a_slot, b_slot, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        accumulate(a_slot, _unbroadcast(g / b_data, a_shape))
        accumulate(b_slot, _unbroadcast(-g * a_data / (b_data * b_data), b_shape))

    return record_op(out, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first argument."""
    _broadcast_check("maximum", a, b)
    out = np.maximum(a.data, b.data)
    take_a = a.data >= b.data
    a_slot, b_slot, a_shape, b_shape = a.slot, b.slot, a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        accumulate(a_slot, _unbroadcast(g * take_a, a_shape))
        accumulate(b_slot, _unbroadcast(g * ~take_a, b_shape))

    return record_op(out, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar."""
    s32, slot = np.float32(s), x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, g * s32)

    return record_op(x.data * s32, (x,), backward)


def shift(x: Tensor, c: float) -> Tensor:
    """Add a python scalar."""
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, g)

    return record_op(x.data + np.float32(c), (x,), backward)


def split_channels(x: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Split a 4-d tensor along the channel dimension into parts of ``sizes`` channels.

    The inverse of :func:`concat_channels`.  Each part is an op of its own,
    whose backward hands :func:`~graphfusion.tensor.accumulate` a gradient
    of ``x``'s shape that is zero outside the part's channels.
    """
    _require_4d("split_channels", x)
    if not sizes or min(sizes) < 1 or sum(sizes) != x.shape[1]:
        raise ShapeError(f"split_channels: sizes {list(sizes)} do not split {x.shape[1]} channels")
    slot, shape = x.slot, x.shape
    offsets = np.cumsum([0] + list(sizes))
    parts = []
    for o0, o1 in zip(offsets[:-1], offsets[1:]):

        def backward(g: np.ndarray, o0: int = o0, o1: int = o1) -> None:
            d = np.zeros(shape, dtype=np.float32)
            d[:, o0:o1] = g
            accumulate(slot, d)

        parts.append(record_op(x.data[:, o0:o1].copy(), (x,), backward))
    return parts


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
    slots = [t.slot for t in tensors]

    def backward(g: np.ndarray) -> None:
        for slot, o0, o1 in zip(slots, offsets[:-1], offsets[1:]):
            accumulate(slot, g[:, o0:o1])

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
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, g * out * (1.0 - out))

    return record_op(out, (x,), backward)


# Float32 elements per chunk of gate_add: 128 KB, so each operand's chunk and
# the chunk's gate stay in a 2 MB per-core L2 cache between their passes.
_CHUNK_FLOATS = 1 << 15


def _chunks(planes: int, size: int):
    """Yield ``(rows, cols)`` slices that tile a (planes, size) array row-major.

    A chunk holds at most ``_CHUNK_FLOATS`` floats: whole rows, or part of
    one row when a row is longer.  Either way it is contiguous.
    """
    per = _CHUNK_FLOATS // max(size, 1)
    if per:
        for r0 in range(0, planes, per):
            yield slice(r0, r0 + per), slice(None)
    else:
        for r in range(planes):
            for c0 in range(0, size, _CHUNK_FLOATS):
                yield slice(r, r + 1), slice(c0, c0 + _CHUNK_FLOATS)


def gate_add(total: Tensor, s: Tensor, bias: Tensor, sign: int, source: Tensor) -> Tensor:
    """``total + sigmoid(sign * s + bias) * source``, one graph message added into a sum.

    ``total``, ``s`` and ``source`` are (N, C, H, W) maps of one shape and
    ``bias`` is per channel, (C,); ``sign`` is 1 or -1.  The edge
    ``sign * s + bias`` rounds as ``add(s, b)`` or ``sub(b, s)`` with ``b``
    the bias as a (1, C, 1, 1) tensor.  The forward walks the maps in
    chunks of at most ``_CHUNK_FLOATS`` floats (:func:`_chunks`), so the
    output is the only full-size array made: neither the edge, the gate nor
    the message is stored, and the backward recomputes the edge and gate
    chunk by chunk from ``s`` and ``source``, the only arrays the op keeps.
    Every element rounds as in ``add(total, mul(sigmoid(edge), source))``.
    For an output of ``_SHARE_FLOATS`` floats up the forward's chunks are
    shared with a helper thread (:func:`_shared`), which computes the
    chunks it takes in a gate buffer of its own, so the bytes do not
    change.  The backward, which sums the bias's gradient per row in
    float64, runs on the calling thread alone.  It fills whole gradient
    maps for ``source`` and ``s`` (``sign`` times the edge gradient) and,
    like every op, leaves storing them to
    :func:`~graphfusion.tensor.accumulate`, in that composition's order
    (total, source, s): the gradients are bit-identical to it, also when
    one tensor plays several roles.  Only ``bias``'s gradient, a sum of the
    edge gradient per channel, is summed in another order: per chunk, then
    in float64.
    """
    _require_4d("gate_add", total)
    for name, t in (("s", s), ("source", source)):
        if t.shape != total.shape:
            raise ShapeError(f"gate_add: {name} shape {t.shape} differs from total shape {total.shape}")
    n, c, h, w = total.shape
    if bias.shape != (c,):
        raise ShapeError(f"gate_add: bias shape {bias.shape} != ({c},)")
    if sign not in (1, -1):
        raise ShapeError(f"gate_add: sign must be 1 or -1, got {sign}")
    planes, size = n * c, h * w
    out = np.empty_like(total.data)
    t2, s2, src2, o2 = (a.reshape(planes, size) for a in (total.data, s.data, source.data, out))
    b2 = np.tile(bias.data, n).reshape(planes, 1)
    total_slot, s_slot, bias_slot, source_slot = (t.slot for t in (total, s, bias, source))

    def edge(rows: slice, cols: slice, buf: np.ndarray) -> np.ndarray:
        """The chunk's edge, written into ``buf``."""
        part = s2[rows, cols]
        e = buf[: part.size].reshape(part.shape)
        if sign > 0:
            return np.add(part, b2[rows], out=e)
        return np.subtract(b2[rows], part, out=e)

    def run(chunks) -> None:
        gate = np.empty(min(_CHUNK_FLOATS, out.size), dtype=np.float32)
        for rows, cols in chunks:
            e = edge(rows, cols, gate)
            message = _logistic(e, e)
            message *= src2[rows, cols]
            np.add(t2[rows, cols], message, out=o2[rows, cols])

    _shared(run, _chunks(planes, size), out.size)

    def backward(g: np.ndarray) -> None:
        accumulate(total_slot, g)
        if not (source_slot.requires_grad or s_slot.requires_grad or bias_slot.requires_grad):
            return
        g2 = g.reshape(planes, size)
        d_source = np.empty((planes, size), dtype=np.float32) if source_slot.requires_grad else None
        # The edge's gradient: its sum per plane goes to the bias, and it
        # times ``sign`` to s.  Negation is exact, so for ``sign = -1`` the
        # last factor ``sig - 1`` gives s's gradient in one product, and
        # subtracting its sum adds the edge's (a + (-d) is a - d).
        d_edge = np.empty((planes, size), dtype=np.float32) if s_slot.requires_grad or bias_slot.requires_grad else None
        sums = np.zeros(planes)
        buf = np.empty(min(_CHUNK_FLOATS, g2.size), dtype=np.float32)
        for rows, cols in _chunks(planes, size):
            gc = g2[rows, cols]
            e = edge(rows, cols, buf)
            sig = _logistic(e, e)
            if d_source is not None:
                np.multiply(gc, sig, out=d_source[rows, cols])
            if d_edge is not None:
                d = d_edge[rows, cols]
                np.multiply(gc, src2[rows, cols], out=d)
                d *= sig
                # ``sig`` is read for the last time here, so the last factor
                # overwrites it.
                if sign > 0:
                    d *= np.subtract(1.0, sig, out=sig)
                    sums[rows] += d.sum(axis=1)
                else:
                    d *= np.subtract(sig, 1.0, out=sig)
                    sums[rows] -= d.sum(axis=1)
        if d_source is not None:
            accumulate(source_slot, d_source.reshape(n, c, h, w))
            d_source = None  # freed before s's map is copied: a map less at the peak
        if d_edge is not None:
            accumulate(s_slot, d_edge.reshape(n, c, h, w))
            accumulate(bias_slot, sums.reshape(n, c).sum(axis=0).astype(np.float32))

    return record_op(out, (total, s, bias, source), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise ``max(x, 0)``.

    The backward masks by ``out > 0``, which is ``x > 0`` for every float,
    ±0 and NaN included, so the op keeps its output, not ``x``.
    """
    out = np.maximum(x.data, 0.0)
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, g * (out > 0))

    return record_op(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root of non-negative input.

    The subgradient at exactly zero is taken as zero, so magnitudes of
    constant fields backpropagate cleanly instead of dividing by zero.
    """
    if np.any(x.data < 0):
        raise ShapeError("sqrt: negative input")
    out = np.sqrt(x.data)
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        safe = np.where(out > 0, out, np.float32(1.0))
        accumulate(slot, np.where(out > 0, g / (2.0 * safe), np.float32(0.0)))

    return record_op(out, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    """Elementwise |x|; the subgradient at zero is zero."""
    x_data = x.data
    out = np.abs(x_data)
    slot = x.slot

    def backward(g: np.ndarray) -> None:
        accumulate(slot, g * np.sign(x_data))

    return record_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements as a 0-d tensor.

    The accumulation runs in float64 and rounds once at the end, keeping the
    stored scalar within one float32 ulp of the true sum.
    """
    out = np.float32(np.sum(x.data, dtype=np.float64))
    slot, shape = x.slot, x.shape

    def backward(g: np.ndarray) -> None:
        accumulate(slot, np.broadcast_to(g, shape).astype(np.float32))

    return record_op(np.asarray(out), (x,), backward)


def reduce_mean(x: Tensor) -> Tensor:
    """Mean of all elements as a 0-d tensor (float64 accumulation)."""
    inv = np.float32(1.0 / x.size)
    out = np.float32(np.sum(x.data, dtype=np.float64) / x.size)
    slot, shape = x.slot, x.shape

    def backward(g: np.ndarray) -> None:
        accumulate(slot, np.broadcast_to(g * inv, shape).astype(np.float32))

    return record_op(np.asarray(out), (x,), backward)
