"""Fusion quality metrics, computed in float64 on (H, W) arrays in [0, 1].

This module is numpy-only and independent of the autograd stack; the SSIM
here and the differentiable one in :mod:`graphfusion.losses` deliberately
take different code paths so they can cross-check each other.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SSIM_WINDOW
from .images import quantize
from .losses import SOBEL_X, SOBEL_Y, SSIM_K1, SSIM_K2, SSIM_SIGMA, gaussian_window

METRIC_COLUMNS = ("EN", "AG", "CC", "SCD", "Qabf", "SSIM")

# Edge-preservation model constants (strength and orientation sigmoids).
QABF_GAMMA_G = 0.9994
QABF_KAPPA_G = -15.0
QABF_SIGMA_G = 0.5
QABF_GAMMA_A = 0.9879
QABF_KAPPA_A = -22.0
QABF_SIGMA_A = 0.8


def _as_image(img) -> np.ndarray:
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"metrics expect (H, W) arrays, got shape {arr.shape}")
    return arr


def metric_entropy(img) -> float:
    """Shannon entropy in bits of the 8-bit quantized histogram."""
    levels = quantize(_as_image(img))
    counts = np.bincount(levels.reshape(-1), minlength=256).astype(np.float64)
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def metric_average_gradient(img) -> float:
    """Mean magnitude of interior forward differences, sqrt((dx^2+dy^2)/2)."""
    a = _as_image(img)
    h, w = a.shape
    if h < 2 or w < 2:
        raise ValueError(f"average gradient needs at least 2x2, got {h}x{w}")
    dx = a[: h - 1, 1:] - a[: h - 1, : w - 1]
    dy = a[1:, : w - 1] - a[: h - 1, : w - 1]
    return float(np.sqrt((dx * dx + dy * dy) / 2.0).mean())


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; either input constant contributes 0."""
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def metric_correlation(ir, vis, fused) -> float:
    """Mean of corr(fused, ir) and corr(fused, vis)."""
    f = _as_image(fused)
    return 0.5 * (_pearson(f, _as_image(ir)) + _pearson(f, _as_image(vis)))


def metric_scd(ir, vis, fused) -> float:
    """Sum-of-differences correlation: corr(F-A, B) + corr(F-B, A)."""
    a = _as_image(ir)
    b = _as_image(vis)
    f = _as_image(fused)
    return _pearson(f - a, b) + _pearson(f - b, a)


def _correlate_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid correlation ``sum k[i, j] * img[i : i + oh, j : j + ow]``, float64, one tap at a time.

    Summing shifted slices holds two output-sized arrays; a tensordot over
    a sliding window view would copy every window first.
    """
    kh, kw = kernel.shape
    oh, ow = img.shape[0] - kh + 1, img.shape[1] - kw + 1
    out = np.zeros((oh, ow))
    for i, j in np.ndindex(kh, kw):
        out += kernel[i, j] * img[i : i + oh, j : j + ow]
    return out


def _sobel_full(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded same-size correlation with a 3x3 kernel, float64."""
    return _correlate_valid(np.pad(img, 1), kernel)


def _strength_angle(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sx = _sobel_full(img, SOBEL_X)
    sy = _sobel_full(img, SOBEL_Y)
    strength = np.sqrt(sx * sx + sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        angle = np.arctan(sy / sx)
    angle[sx == 0.0] = np.pi / 2.0
    return strength, angle


def _preservation(g_src: np.ndarray, a_src: np.ndarray, g_fused: np.ndarray, a_fused: np.ndarray) -> np.ndarray:
    """Per-pixel edge preservation of one source in the fused image.

    Relative strength is min/max of the two magnitudes (1 when equal); a
    pixel where the fused image carries no edge response preserves nothing
    and scores exactly zero rather than the sigmoid floor.
    """
    hi = np.maximum(g_src, g_fused)
    lo = np.minimum(g_src, g_fused)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_rel = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 0.0)
    a_rel = 1.0 - np.abs(a_src - a_fused) / (np.pi / 2.0)
    qg = QABF_GAMMA_G / (1.0 + np.exp(QABF_KAPPA_G * (g_rel - QABF_SIGMA_G)))
    qa = QABF_GAMMA_A / (1.0 + np.exp(QABF_KAPPA_A * (a_rel - QABF_SIGMA_A)))
    return np.where(g_fused > 0.0, qg * qa, 0.0)


def metric_qabf(ir, vis, fused) -> float:
    """Gradient-based preservation of both sources, weighted by edge strength.

    Returns 0 when both sources are constant (no edges to transfer).
    """
    g_a, a_a = _strength_angle(_as_image(ir))
    g_b, a_b = _strength_angle(_as_image(vis))
    g_f, a_f = _strength_angle(_as_image(fused))
    q_af = _preservation(g_a, a_a, g_f, a_f)
    q_bf = _preservation(g_b, a_b, g_f, a_f)
    denom = float((g_a + g_b).sum())
    if denom == 0.0:
        return 0.0
    return float((q_af * g_a + q_bf * g_b).sum() / denom)


def metric_ssim(x, y, window: int = SSIM_WINDOW) -> float:
    """Gaussian-windowed SSIM over valid windows, dynamic range 1."""
    a = _as_image(x)
    b = _as_image(y)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    h, w = a.shape
    if h < window or w < window:
        raise ValueError(f"ssim: image {h}x{w} smaller than window {window}")
    kern = gaussian_window(window, SSIM_SIGMA).astype(np.float64)
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    mu_x = _correlate_valid(a, kern)
    mu_y = _correlate_valid(b, kern)
    var_x = _correlate_valid(a * a, kern) - mu_x * mu_x
    var_y = _correlate_valid(b * b, kern) - mu_y * mu_y
    cov = _correlate_valid(a * b, kern) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float((num / den).mean())


def compute_metrics(ir, vis, fused) -> dict[str, float]:
    """All columns for one pair; SSIM averages the two source similarities."""
    return {
        "EN": metric_entropy(fused),
        "AG": metric_average_gradient(fused),
        "CC": metric_correlation(ir, vis, fused),
        "SCD": metric_scd(ir, vis, fused),
        "Qabf": metric_qabf(ir, vis, fused),
        "SSIM": 0.5 * (metric_ssim(fused, ir) + metric_ssim(fused, vis)),
    }


@dataclass
class MetricReport:
    """Per-pair metric rows plus their arithmetic mean."""

    rows: list[tuple[str, dict[str, float]]] = field(default_factory=list)

    def add(self, pair_id: str, values: dict[str, float]) -> None:
        missing = [c for c in METRIC_COLUMNS if c not in values]
        if missing:
            raise ValueError(f"metric row {pair_id!r} missing columns {missing}")
        self.rows.append((pair_id, {c: float(values[c]) for c in METRIC_COLUMNS}))

    def mean(self) -> dict[str, float]:
        if not self.rows:
            raise ValueError("cannot aggregate an empty report")
        return {
            c: float(np.mean([values[c] for _, values in self.rows])) for c in METRIC_COLUMNS
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("pair_id",) + METRIC_COLUMNS)
        for pair_id, values in self.rows:
            writer.writerow([pair_id] + [repr(values[c]) for c in METRIC_COLUMNS])
        mean = self.mean()
        writer.writerow(["mean"] + [repr(mean[c]) for c in METRIC_COLUMNS])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"pairs": {pair_id: values for pair_id, values in self.rows}, "mean": self.mean()},
            indent=2,
        )
