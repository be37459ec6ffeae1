"""Float64 reference implementation of the forward pass and objective.

This mirrors the float32 network (:mod:`graphfusion.network`) and losses
(:mod:`graphfusion.losses`) with plain numpy in double precision, driven by
a name -> array mapping instead of the tape machinery.  Two uses:

* Derivative checking.  Central differences on the float32 network need a
  step large enough to beat rounding noise, but any step that large keeps
  straddling ReLU and |x| kinks somewhere inside a deep network, which
  biases the quotient without shrinking as the step does.  Differences
  taken here at steps around 1e-6 sit far below both effects, so tape
  gradients can be validated at tight tolerance.

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


def _conv(x: np.ndarray, k: np.ndarray, b: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    n, c, h, w = x.shape
    oc, _, kh, kw = k.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    out = np.einsum("nchwij,ocij->nohw", win, k, optimize=True)
    return out + b.reshape(1, oc, 1, 1)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _maxpool(x: np.ndarray, window: int, stride: int, padding: int) -> np.ndarray:
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=-np.inf)
    win = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(2, 3))
    return win[:, :, ::stride, ::stride].max(axis=(4, 5))


def _avgpool(x: np.ndarray, window: int, stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x.shape
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (window, window), axis=(2, 3))
    sums = win[:, :, ::stride, ::stride].sum(axis=(4, 5))
    oh, ow = sums.shape[2], sums.shape[3]
    rows = np.minimum(np.arange(oh) * stride + window, h + padding) - np.maximum(np.arange(oh) * stride, padding)
    cols = np.minimum(np.arange(ow) * stride + window, w + padding) - np.maximum(np.arange(ow) * stride, padding)
    return sums / (rows[:, None] * cols[None, :]).astype(np.float64)


def _adaptive_avgpool(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    n, c, h, w = x.shape

    def bounds(size: int, out: int) -> list[tuple[int, int]]:
        return [(size * i // out, -(-size * (i + 1) // out)) for i in range(out)]

    res = np.empty((n, c, out_h, out_w), dtype=np.float64)
    for i, (r0, r1) in enumerate(bounds(h, out_h)):
        for j, (c0, c1) in enumerate(bounds(w, out_w)):
            res[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return res


def _upsample(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    n, c, h, w = x.shape

    def grid(size: int, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if out == 1 or size == 1:
            idx = np.zeros(out, dtype=np.intp)
            return idx, idx.copy(), np.zeros(out, dtype=np.float64)
        pos = np.arange(out, dtype=np.float64) * (size - 1) / (out - 1)
        i0 = np.minimum(np.floor(pos).astype(np.intp), size - 2)
        return i0, i0 + 1, pos - i0

    r0, r1, tr = grid(h, out_h)
    c0, c1, tc = grid(w, out_w)
    a = x[:, :, r0, :]
    rows = a + tr[None, None, :, None] * (x[:, :, r1, :] - a)
    left = rows[:, :, :, c0]
    return left + tc[None, None, None, :] * (rows[:, :, :, c1] - left)


def _fc(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1) @ w.T + b


def _channel_attention(x: np.ndarray, p: Arrays, prefix: str) -> np.ndarray:
    pooled = _adaptive_avgpool(x, 1, 1)
    hidden = _relu(_fc(pooled, p[f"{prefix}.fc1.weight"], p[f"{prefix}.fc1.bias"]))
    raw = _fc(hidden, p[f"{prefix}.fc2.weight"], p[f"{prefix}.fc2.bias"])
    return _sigmoid(raw).reshape(x.shape[0], x.shape[1], 1, 1)


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


def _run_graph(
    feats_ir: Sequence[np.ndarray], feats_vis: Sequence[np.ndarray], p: Arrays, config: FusionConfig
) -> dict[str, np.ndarray]:
    modalities = ("ir", "vis")
    nnodes = config.nodes
    intra_pairs = [(j, k) for j in range(nnodes) for k in range(j + 1, nnodes)]
    leaders: dict[str, list[np.ndarray]] = {m: [] for m in modalities}
    injections: dict[str, list[np.ndarray]] | None = None

    for loop in range(1, config.loops + 1):
        prefix = f"graph.loop{1 if config.share_loop_params else loop}"
        idx = min(loop, len(feats_ir)) - 1
        feats = {"ir": feats_ir[idx], "vis": feats_vis[idx]}
        h, w = feats["ir"].shape[2], feats["ir"].shape[3]
        cap = min(h, w)
        grids = [min(2**i, cap) for i in range(nnodes)]

        nodes: dict[tuple[str, int], np.ndarray] = {}
        for m in modalities:
            for o, g in enumerate(grids):
                pooled = _adaptive_avgpool(feats[m], g, g)
                mixed = _conv(pooled, p[f"{prefix}.node{o}.{m}.weight"], p[f"{prefix}.node{o}.{m}.bias"])
                node = _upsample(mixed, h, w)
                if injections is not None:
                    node = node + injections[m][o]
                nodes[(m, o)] = node

        edges: dict[tuple, np.ndarray] = {}
        for m in modalities:
            for j, k in intra_pairs:
                d = nodes[(m, j)] - nodes[(m, k)]
                kw_, kb = p[f"{prefix}.intra.{m}.weight"], p[f"{prefix}.intra.{m}.bias"]
                edges[((m, j), (m, k))] = _conv(d, kw_, kb, 1, 1)
                edges[((m, k), (m, j))] = _conv(-d, kw_, kb, 1, 1)
        for o in range(nnodes):
            d = nodes[("ir", o)] - nodes[("vis", o)]
            kw_, kb = p[f"{prefix}.inter.weight"], p[f"{prefix}.inter.bias"]
            edges[(("ir", o), ("vis", o))] = _conv(d, kw_, kb, 1, 1)
            edges[(("vis", o), ("ir", o))] = _conv(-d, kw_, kb, 1, 1)

        updated: dict[tuple[str, int], np.ndarray] = {}
        for m in modalities:
            other = "vis" if m == "ir" else "ir"
            for o in range(nnodes):
                s = nodes[(m, o)].copy()
                srcs = sorted({j for j, k in intra_pairs if k == o} | {k for j, k in intra_pairs if j == o})
                for j in srcs:
                    s += _sigmoid(edges[((m, j), (m, o))]) * nodes[(m, j)]
                s += _sigmoid(edges[((other, o), (m, o))]) * nodes[(other, o)]
                updated[(m, o)] = _relu(
                    _conv(s, p[f"{prefix}.update.{m}.weight"], p[f"{prefix}.update.{m}.bias"], 1, 1)
                )

        for m in modalities:
            cat = np.concatenate([updated[(m, o)] for o in range(nnodes)], axis=1)
            leaders[m].append(_conv(cat, p[f"{prefix}.leader.{m}.weight"], p[f"{prefix}.leader.{m}.bias"]))

        if config.use_leader and loop < config.loops:
            injections = {}
            for m in modalities:
                gate = _sigmoid(_adaptive_avgpool(leaders[m][-1], 1, 1))
                injections[m] = [
                    _conv(
                        updated[(m, o)],
                        p[f"{prefix}.deliver{o}.{m}.weight"],
                        p[f"{prefix}.deliver{o}.{m}.bias"],
                        1,
                        1,
                    )
                    * gate
                    for o in range(nnodes)
                ]
        else:
            injections = None

    return {
        m: _conv(np.concatenate(leaders[m], axis=1), p[f"graph.mix.{m}.weight"], p[f"graph.mix.{m}.bias"])
        for m in modalities
    }


def reference_forward(ir: np.ndarray, vis: np.ndarray, arrays: Arrays, config: FusionConfig) -> np.ndarray:
    """Double-precision fused image for (N, 1, H, W) inputs."""
    p = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    ir = np.asarray(ir, dtype=np.float64)
    vis = np.asarray(vis, dtype=np.float64)
    feats_ir = _extract(ir, p, "ir", config)
    feats_vis = _extract(vis, p, "vis", config)
    if config.use_graph:
        out = _run_graph(feats_ir, feats_vis, p, config)
        g_ir, g_vis = out["ir"], out["vis"]
    else:
        g_ir, g_vis = feats_ir[-1], feats_vis[-1]
    h = np.concatenate([g_ir, g_vis], axis=1)
    h = _relu(_conv(h, p["head.conv1.weight"], p["head.conv1.bias"], 1, 1))
    return _sigmoid(_conv(h, p["head.conv2.weight"], p["head.conv2.bias"], 1, 1))


def _sobel_magnitude(img: np.ndarray) -> np.ndarray:
    sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    sy = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [-1.0, -2.0, -1.0]])
    zero = np.zeros(1)
    gx = _conv(img, sx.reshape(1, 1, 3, 3), zero, 1, 1)
    gy = _conv(img, sy.reshape(1, 1, 3, 3), zero, 1, 1)
    return np.sqrt(gx * gx + gy * gy)


def _ssim_mean(x: np.ndarray, y: np.ndarray, window: int, sigma: float = 1.5) -> float:
    half = (window - 1) / 2.0
    coords = np.arange(window, dtype=np.float64) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    kern = np.outer(g, g)
    kern = (kern / kern.sum()).reshape(1, 1, window, window)
    zero = np.zeros(1)

    def blur(t: np.ndarray) -> np.ndarray:
        return _conv(t, kern, zero)

    c1, c2 = 0.01**2, 0.03**2
    mu_x, mu_y = blur(x), blur(y)
    var_x = blur(x * x) - mu_x * mu_x
    var_y = blur(y * y) - mu_y * mu_y
    cov = blur(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float((num / den).mean())


def reference_loss(
    ir: np.ndarray, vis: np.ndarray, arrays: Arrays, config: FusionConfig, ssim_window: int = 11
) -> float:
    """Double-precision total training objective (scalar float)."""
    ir = np.asarray(ir, dtype=np.float64)
    vis = np.asarray(vis, dtype=np.float64)
    fused = reference_forward(ir, vis, arrays, config)
    target = 0.5 * (ir + vis)
    total = float(((fused - target) ** 2).mean())
    if config.alpha:
        resid = float(
            np.abs(_sobel_magnitude(fused) - np.maximum(_sobel_magnitude(ir), _sobel_magnitude(vis))).mean()
        )
        if config.edge_loss_squared:
            resid = resid * resid
        total += config.alpha * resid
    if config.beta:
        sim = (1.0 - _ssim_mean(fused, ir, ssim_window)) + (1.0 - _ssim_mean(fused, vis, ssim_window))
        total += config.beta * sim
    return total
