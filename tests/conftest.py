"""Shared helpers: independent loop-based oracles, a gradient oracle, and kink-free inputs.

The oracle functions here deliberately use plain Python loops over float64
so they share no code (and no bugs) with the library's vectorized float32
implementations.  They are slow and only ever applied to tiny arrays.
:func:`oracle_error` checks tape gradients by complex step against a
float64 re-implementation that the caller supplies.
"""

from __future__ import annotations

import json
import struct
import threading

import numpy as np
import pytest

from graphfusion import ops
from graphfusion.gradcheck import check_parameter_groups
from graphfusion.tensor import Tensor


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=requires_grad)


def separated_values(rng: np.random.Generator, shape, gap: float = 0.05) -> np.ndarray:
    """Random array whose values are pairwise at least ``gap`` apart.

    Used as input to max pooling and ``maximum`` so that no two operands tie
    and every probe sees one clear winner.
    """
    n = int(np.prod(shape))
    base = rng.permutation(n).astype(np.float64) * (2.0 * gap)
    base += rng.uniform(0.0, 0.5 * gap, size=n)
    base -= base.mean()
    return (base.reshape(shape) / max(n * gap, 1.0)).astype(np.float32) * n * gap * 0.1


def away_from(rng: np.random.Generator, shape, forbidden: float, margin: float = 0.05) -> np.ndarray:
    """Random values at least ``margin`` away from ``forbidden`` on either side."""
    raw = rng.uniform(margin, 1.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return (forbidden + sign * raw).astype(np.float32)


def replace_config_blob(src, dst, text: str) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``text`` as its config blob.

    The blob's u32 length sits after the 4-byte magic and the u32 version.
    """
    blob = src.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    encoded = text.encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(encoded)) + encoded + blob[12 + length :])


def rewrite_config_blob(src, dst, **keys) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``keys`` set in its config blob."""
    blob = src.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    config = json.loads(blob[12 : 12 + length])
    config.update(keys)
    replace_config_blob(src, dst, json.dumps(config))


def oracle_error(f, inputs, f64) -> float:
    """Worst error of the tape gradients of ``f(*inputs)`` against complex step through ``f64``.

    ``f64`` is a float64 re-implementation of the scalar ``f`` that also runs
    on complex arrays; any argument may carry a leading probe axis, and it
    returns one value per probe.  Every element of every input is probed.
    Per input the error is the worst ``|a - n|`` over the input's largest
    gradient (see ``check_parameter_groups``); the worst input's is returned.
    """
    params = {str(i): t for i, t in enumerate(inputs)}
    reports = check_parameter_groups(
        lambda: f(*inputs),
        params,
        lambda arrays: f64(*(arrays[name] for name in params)),
        samples_per_tensor=max(t.size for t in inputs),
    )
    return max(r.error for r in reports.values())


def weighted(out: Tensor, coeffs: np.ndarray) -> Tensor:
    """Scalarize with fixed random coefficients so output grads vary."""
    return ops.reduce_sum(ops.mul(out, Tensor(coeffs)))


def weighted64(out: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """:func:`weighted` in float64, summing the trailing axes so a probe axis stays."""
    return (out * coeffs).sum(axis=tuple(range(-coeffs.ndim, 0)))


def weighted_error(op, op64, inputs, coeffs) -> float:
    """:func:`oracle_error` of ``op`` against its float64 form ``op64``, both scalarized by ``coeffs``."""
    return oracle_error(lambda *ts: weighted(op(*ts), coeffs), inputs, lambda *xs: weighted64(op64(*xs), coeffs))


# ---------------------------------------------------------------------------
# float64 loop oracles


def loop_conv_f64(x, k, g, padding=0):
    """Float64 stride-1 conv output, input gradient and kernel gradient, one output cell at a time.

    Each output cell (y, xx) reads padded rows y + i and columns xx + j;
    ``g`` is the output gradient.
    """
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    n, c, h, w = x.shape
    oc, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((n, oc, oh, ow))
    dxp = np.zeros_like(xp)
    dk = np.zeros(k.shape)
    for y in range(oh):
        for xx in range(ow):
            window = xp[:, :, y : y + kh, xx : xx + kw]
            gy = g[:, :, y, xx]
            out[:, :, y, xx] = np.einsum("ncij,ocij->no", window, k)
            dxp[:, :, y : y + kh, xx : xx + kw] += np.einsum("no,ocij->ncij", gy, k)
            dk += np.einsum("no,ncij->ocij", gy, window)
    return out, dxp[:, :, padding : padding + h, padding : padding + w], dk


def oracle_conv(x, k, b, padding=0):
    """Float64 stride-1 conv plus a per-output-channel bias: :func:`loop_conv_f64`'s output."""
    x, k = np.asarray(x), np.asarray(k)
    oh, ow = (x.shape[d] + 2 * padding - k.shape[d] + 1 for d in (2, 3))
    g = np.zeros((x.shape[0], k.shape[0], oh, ow))
    return loop_conv_f64(x, k, g, padding)[0] + np.asarray(b, dtype=np.float64).reshape(1, -1, 1, 1)


def oracle_maxpool(x, window, padding=0):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    oh, ow = h + 2 * padding - window + 1, w + 2 * padding - window + 1
    out = np.zeros((n, c, oh, ow))
    for nn in range(n):
        for cc in range(c):
            for y in range(oh):
                for xx in range(ow):
                    out[nn, cc, y, xx] = xp[nn, cc, y : y + window, xx : xx + window].max()
    return out


def oracle_avgpool(x, window, padding=0):
    """Average over the valid (non-padding) cells of each stride-1 window."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    oh, ow = h + 2 * padding - window + 1, w + 2 * padding - window + 1
    out = np.zeros((n, c, oh, ow))
    for nn in range(n):
        for cc in range(c):
            for y in range(oh):
                for xx in range(ow):
                    vals = []
                    for i in range(window):
                        for j in range(window):
                            r = y + i - padding
                            s = xx + j - padding
                            if 0 <= r < h and 0 <= s < w:
                                vals.append(x[nn, cc, r, s])
                    out[nn, cc, y, xx] = sum(vals) / len(vals)
    return out


def oracle_adaptive(x, out_h, out_w):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for i in range(out_h):
        r0 = h * i // out_h
        r1 = -(-h * (i + 1) // out_h)
        for j in range(out_w):
            c0 = w * j // out_w
            c1 = -(-w * (j + 1) // out_w)
            out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


def oracle_upsample(x, out_h, out_w):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for y in range(out_h):
        py = 0.0 if out_h == 1 or h == 1 else y * (h - 1) / (out_h - 1)
        r0 = min(int(np.floor(py)), h - 2) if h > 1 else 0
        r1 = r0 + 1 if h > 1 else 0
        ty = py - r0
        for xx in range(out_w):
            px = 0.0 if out_w == 1 or w == 1 else xx * (w - 1) / (out_w - 1)
            c0 = min(int(np.floor(px)), w - 2) if w > 1 else 0
            c1 = c0 + 1 if w > 1 else 0
            tx = px - c0
            top = x[:, :, r0, c0] + tx * (x[:, :, r0, c1] - x[:, :, r0, c0])
            bot = x[:, :, r1, c0] + tx * (x[:, :, r1, c1] - x[:, :, r1, c0])
            out[:, :, y, xx] = top + ty * (bot - top)
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that leaves more threads alive than it started with."""
    before = threading.active_count()
    yield
    leaked = threading.active_count() - before
    if leaked > 0:
        pytest.fail(f"{leaked} thread(s) still alive after the test: {threading.enumerate()}")
