"""Float64 reference implementation of the forward pass and objective.

This mirrors the float32 network (:mod:`graphfusion.network`) and losses
(:mod:`graphfusion.losses`) with plain numpy in double precision, driven by
a name -> array mapping instead of the tape machinery.  Two uses:

* Derivative checking by complex step.  Every function here also runs on
  complex128 parameters, so ``reference_loss(p + i h e_j).imag / h`` is the
  derivative along parameter element ``j``, with no subtraction and hence
  no cancellation, even at ``h = 1e-30``.  Each non-smooth point takes its
  branch on the real part with the tape's tie rule: ReLU and |x| have slope
  0 at 0, the Sobel magnitude has gradient 0 where it is 0, and max pooling
  routes to the first maximum of a window in row-major order.  So the probe
  measures the slope the tape computes, even where a probe sits exactly on
  a kink, which a finite difference straddles.

  Many probes ride one call.  Any parameter array may carry one leading
  probe axis of length K (or of length 1, which broadcasts); an array
  without it applies to every probe.  Every helper works on the trailing
  (N, C, H, W) axes and broadcasts the leading ones, so activations stay
  unbatched up to the first layer with a probed parameter, and
  :func:`reference_loss` returns shape ``(K,)``.  With one complex step
  per row this is vector-mode forward differentiation: K derivatives from
  one call.  A conv is one ``matmul`` of per-probe kernels with the
  unrolled windows.

* An independent forward oracle: the float32 network must agree with this
  implementation to within accumulated single-precision rounding.

Every function here intentionally re-derives the semantics (padding rules,
pool divisors, bin edges, window validity) rather than importing them, so
a bug in the production code cannot hide in a shared helper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .config import FusionConfig

Arrays = Mapping[str, np.ndarray]

# The (N, C, H, W) axes of a map; a loss is reduced over these only.
_SAMPLE_AXES = (-4, -3, -2, -1)


def _pad(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    h, w = x.shape[-2:]
    out = np.full(x.shape[:-2] + (h + 2 * padding, w + 2 * padding), value, dtype=x.dtype)
    out[..., padding : padding + h, padding : padding + w] = x
    return out


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """``(..., H, W) -> (..., OH, OW, kh, kw)`` view of every window."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-2, -1))
    return win[..., ::stride, ::stride, :, :]


def _bias(b: np.ndarray) -> np.ndarray:
    """``(..., OC) -> (..., 1, OC, 1, 1)``, to add to a ``(..., N, OC, H, W)`` map."""
    return b[..., None, :, None, None]


def _correlate(x: np.ndarray, k: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Bias-free cross-correlation of ``(..., N, C, H, W)`` with ``(..., OC, C, kh, kw)``."""
    oc, c, kh, kw = k.shape[-4:]
    if padding:
        x = _pad(x, padding)
    win = _windows(x, kh, kw, stride)
    oh, ow = win.shape[-4:-2]
    # (..., N, C, OH, OW, kh, kw) -> (..., N, C * kh * kw, OH * OW), one matrix per sample.
    cols = np.moveaxis(win, (-2, -1), (-4, -3)).reshape(win.shape[:-5] + (c * kh * kw, oh * ow))
    out = k.reshape(k.shape[:-4] + (1, oc, c * kh * kw)) @ cols
    return out.reshape(out.shape[:-1] + (oh, ow))


def _conv(x: np.ndarray, k: np.ndarray, b: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    return _correlate(x, k, stride, padding) + _bias(b)


def _cat(xs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate on the channel axis, broadcasting the leading probe axes."""
    lead = np.broadcast_shapes(*(x.shape[:-3] for x in xs))
    return np.concatenate([np.broadcast_to(x, lead + x.shape[-3:]) for x in xs], axis=-3)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x.real > 0, x, 0)


def _abs(x: np.ndarray) -> np.ndarray:
    return x * np.sign(x.real)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.tanh(0.5 * x) + 0.5


def _maxpool(x: np.ndarray, window: int, stride: int, padding: int) -> np.ndarray:
    if padding:
        x = _pad(x, padding, -np.inf)
    win = _windows(x, window, window, stride)
    flat = win.reshape(win.shape[:-2] + (window * window,))
    first = np.argmax(flat.real, axis=-1)[..., None]
    return np.take_along_axis(flat, first, axis=-1)[..., 0]


def _avgpool(x: np.ndarray, window: int, stride: int, padding: int) -> np.ndarray:
    h, w = x.shape[-2:]
    sums = _windows(_pad(x, padding) if padding else x, window, window, stride).sum(axis=(-2, -1))
    oh, ow = sums.shape[-2:]
    rows = np.minimum(np.arange(oh) * stride + window, h + padding) - np.maximum(np.arange(oh) * stride, padding)
    cols = np.minimum(np.arange(ow) * stride + window, w + padding) - np.maximum(np.arange(ow) * stride, padding)
    return sums / (rows[:, None] * cols[None, :]).astype(np.float64)


def _adaptive_avgpool(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = x.shape[-2:]

    def bounds(size: int, out: int) -> list[tuple[int, int]]:
        return [(size * i // out, -(-size * (i + 1) // out)) for i in range(out)]

    res = np.empty(x.shape[:-2] + (out_h, out_w), dtype=x.dtype)
    for i, (r0, r1) in enumerate(bounds(h, out_h)):
        for j, (c0, c1) in enumerate(bounds(w, out_w)):
            res[..., i, j] = x[..., r0:r1, c0:c1].mean(axis=(-2, -1))
    return res


def _upsample(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = x.shape[-2:]

    def grid(size: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if out == 1 or size == 1:
            idx = np.zeros(out, dtype=np.intp)
            return idx, idx.copy(), np.zeros(out, dtype=np.float64)
        pos = np.arange(out, dtype=np.float64) * (size - 1) / (out - 1)
        i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
        return i0, i0 + 1, pos - i0

    r0, r1, tr = grid(h, out_h)
    c0, c1, tc = grid(w, out_w)
    a = x[..., r0, :]
    rows = a + tr[:, None] * (x[..., r1, :] - a)
    left = rows[..., c0]
    return left + tc * (rows[..., c1] - left)


def _fc(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(..., N, C)`` through ``(..., O, C)`` weights to ``(..., N, O)``."""
    return x @ np.swapaxes(w, -1, -2) + b[..., None, :]


def _channel_attention(x: np.ndarray, p: Arrays, prefix: str) -> np.ndarray:
    pooled = _adaptive_avgpool(x, 1, 1)[..., 0, 0]
    hidden = _relu(_fc(pooled, p[f"{prefix}.fc1.weight"], p[f"{prefix}.fc1.bias"]))
    raw = _fc(hidden, p[f"{prefix}.fc2.weight"], p[f"{prefix}.fc2.bias"])
    return _sigmoid(raw)[..., None, None]


def _salience(x: np.ndarray, p: Arrays, modality: str) -> np.ndarray:
    prefix = f"salience.{modality}"
    y = _conv(x, p[f"{prefix}.conv.weight"], p[f"{prefix}.conv.bias"], 1, 1)
    peaks = _maxpool(y, 3, 1, 1)
    smooth = _avgpool(y, 3, 1, 1)
    combined = peaks * smooth if modality == "ir" else peaks + smooth
    return combined * _channel_attention(combined, p, prefix)


def _extract(image: np.ndarray, p: Arrays, modality: str, config: FusionConfig) -> list[np.ndarray]:
    # Graph loop i reads stage min(i, depth); stages past the last loop are
    # never read, and the network allocates no parameters for them.
    depth = 3 if config.use_salience else 2
    if config.use_graph:
        depth = min(depth, config.loops)
    prefix = f"extract.{modality}"
    feats = []
    x = image
    for name in ("conv1", "conv2")[:depth]:
        x = _relu(_conv(x, p[f"{prefix}.{name}.weight"], p[f"{prefix}.{name}.bias"], 1, 1))
        feats.append(x)
    if depth > 2:
        feats.append(_salience(x, p, modality))
    return feats


_MODALITIES = ("ir", "vis")


def _run_loop(
    feats: Mapping[str, np.ndarray],
    injections: dict[str, list[np.ndarray]] | None,
    p: Arrays,
    prefix: str,
    config: FusionConfig,
    deliver: bool,
) -> tuple[dict[str, np.ndarray], dict[str, list[np.ndarray]] | None]:
    """One graph loop: its leader per modality, and the next loop's injections if ``deliver``."""
    nnodes = config.nodes
    h, w = feats["ir"].shape[-2:]
    cap = min(h, w)
    grids = [min(2**i, cap) for i in range(nnodes)]

    nodes: dict[tuple[str, int], np.ndarray] = {}
    for m in _MODALITIES:
        for o, g in enumerate(grids):
            pooled = _adaptive_avgpool(feats[m], g, g)
            mixed = _conv(pooled, p[f"{prefix}.node{o}.{m}.weight"], p[f"{prefix}.node{o}.{m}.bias"])
            node = _upsample(mixed, h, w)
            if injections is not None:
                # Popped, so a probe-batched call frees each injection once used.
                node = node + injections[m].pop(0)
            nodes[(m, o)] = node

    # Each node sums its gated messages into a running total that starts as
    # the node.  The conv of b - a is minus the bias-free conv of a - b, so
    # one correlation serves both directed edges of a pair.  Pairs come intra
    # first, each in (j, k) order, then inter, so every node adds its sources
    # in ascending order and its inter message last.
    totals = dict(nodes)

    def edge_pair(a: tuple[str, int], b: tuple[str, int], name: str) -> None:
        s = _correlate(nodes[a] - nodes[b], p[f"{prefix}.{name}.weight"], 1, 1)
        bias = _bias(p[f"{prefix}.{name}.bias"])
        totals[b] = totals[b] + _sigmoid(s + bias) * nodes[a]
        totals[a] = totals[a] + _sigmoid(bias - s) * nodes[b]

    for m in _MODALITIES:
        for j in range(nnodes):
            for k in range(j + 1, nnodes):
                edge_pair((m, j), (m, k), f"intra.{m}")
    for o in range(nnodes):
        edge_pair(("ir", o), ("vis", o), "inter")

    updated = {
        (m, o): _relu(_conv(total, p[f"{prefix}.update.{m}.weight"], p[f"{prefix}.update.{m}.bias"], 1, 1))
        for (m, o), total in totals.items()
    }
    leaders = {
        m: _conv(
            _cat([updated[(m, o)] for o in range(nnodes)]),
            p[f"{prefix}.leader.{m}.weight"],
            p[f"{prefix}.leader.{m}.bias"],
        )
        for m in _MODALITIES
    }
    if not deliver:
        return leaders, None
    injections = {}
    for m in _MODALITIES:
        gate = _sigmoid(_adaptive_avgpool(leaders[m], 1, 1))
        injections[m] = [
            _conv(updated[(m, o)], p[f"{prefix}.deliver{o}.{m}.weight"], p[f"{prefix}.deliver{o}.{m}.bias"], 1, 1)
            * gate
            for o in range(nnodes)
        ]
    return leaders, injections


def _run_graph(
    feats_ir: Sequence[np.ndarray], feats_vis: Sequence[np.ndarray], p: Arrays, config: FusionConfig
) -> dict[str, np.ndarray]:
    leaders: dict[str, list[np.ndarray]] = {m: [] for m in _MODALITIES}
    injections = None
    for loop in range(1, config.loops + 1):
        prefix = f"graph.loop{1 if config.share_loop_params else loop}"
        idx = min(loop, len(feats_ir)) - 1
        deliver = config.use_leader and loop < config.loops
        out, injections = _run_loop(
            {"ir": feats_ir[idx], "vis": feats_vis[idx]}, injections, p, prefix, config, deliver
        )
        for m in _MODALITIES:
            leaders[m].append(out[m])
    return {
        m: _conv(_cat(leaders[m]), p[f"graph.mix.{m}.weight"], p[f"graph.mix.{m}.bias"])
        for m in _MODALITIES
    }


def reference_forward(ir: np.ndarray, vis: np.ndarray, arrays: Arrays, config: FusionConfig) -> np.ndarray:
    """Double-precision fused image for (N, 1, H, W) inputs.

    ``(N, 1, H, W)`` for plain parameter arrays, ``(K, N, 1, H, W)`` when
    any carries a probe axis of length K.
    """
    p = {
        name: np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
        for name, a in arrays.items()
    }
    ir = np.asarray(ir, dtype=np.float64)
    vis = np.asarray(vis, dtype=np.float64)
    feats_ir = _extract(ir, p, "ir", config)
    feats_vis = _extract(vis, p, "vis", config)
    if config.use_graph:
        out = _run_graph(feats_ir, feats_vis, p, config)
        g_ir, g_vis = out["ir"], out["vis"]
    else:
        g_ir, g_vis = feats_ir[-1], feats_vis[-1]
    h = _cat([g_ir, g_vis])
    h = _relu(_conv(h, p["head.conv1.weight"], p["head.conv1.bias"], 1, 1))
    return _sigmoid(_conv(h, p["head.conv2.weight"], p["head.conv2.bias"], 1, 1))


def _sobel_magnitude(img: np.ndarray) -> np.ndarray:
    sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    sy = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [-1.0, -2.0, -1.0]])
    gx = _correlate(img, sx.reshape(1, 1, 3, 3), 1, 1)
    gy = _correlate(img, sy.reshape(1, 1, 3, 3), 1, 1)
    u = gx * gx + gy * gy
    return np.where(u.real > 0, np.sqrt(u), 0)


def _ssim_mean(
    x: np.ndarray, y: np.ndarray, window: int, sigma: float = 1.5
) -> np.float64 | np.complex128 | np.ndarray:
    half = (window - 1) / 2.0
    coords = np.arange(window, dtype=np.float64) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    kern = np.outer(g, g)
    kern = (kern / kern.sum()).reshape(1, 1, window, window)

    def blur(t: np.ndarray) -> np.ndarray:
        return _correlate(t, kern)

    c1, c2 = 0.01**2, 0.03**2
    mu_x, mu_y = blur(x), blur(y)
    var_x = blur(x * x) - mu_x * mu_x
    var_y = blur(y * y) - mu_y * mu_y
    cov = blur(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return (num / den).mean(axis=_SAMPLE_AXES)


def reference_loss(
    ir: np.ndarray, vis: np.ndarray, arrays: Arrays, config: FusionConfig, ssim_window: int = 11
) -> np.float64 | np.complex128 | np.ndarray:
    """Double-precision total training objective.

    A scalar ``np.float64`` (a ``float``) for plain real parameters, and an
    ``np.complex128`` when any parameter array is complex.  When any array
    carries a leading probe axis of length K the loss is reduced over batch
    and pixels only and comes back with shape ``(K,)``.
    """
    ir = np.asarray(ir, dtype=np.float64)
    vis = np.asarray(vis, dtype=np.float64)
    fused = reference_forward(ir, vis, arrays, config)
    target = 0.5 * (ir + vis)
    total = ((fused - target) ** 2).mean(axis=_SAMPLE_AXES)
    if config.alpha:
        edges = np.maximum(_sobel_magnitude(ir), _sobel_magnitude(vis))
        resid = _abs(_sobel_magnitude(fused) - edges).mean(axis=_SAMPLE_AXES)
        if config.edge_loss_squared:
            resid = resid * resid
        total = total + config.alpha * resid
    if config.beta:
        sim = (1.0 - _ssim_mean(fused, ir, ssim_window)) + (1.0 - _ssim_mean(fused, vis, ssim_window))
        total = total + config.beta * sim
    return total
