"""Metric anchors, closed forms, and brute-force oracle comparisons.

The brute oracles below recompute each metric with explicit Python loops
and share nothing with the library implementations beyond the published
constants.
"""

import math
import tracemalloc

import numpy as np
import pytest

from graphfusion import losses, metrics
from graphfusion.metrics import (
    METRIC_COLUMNS,
    MetricReport,
    compute_metrics,
    metric_average_gradient,
    metric_correlation,
    metric_entropy,
    metric_qabf,
    metric_scd,
    metric_ssim,
)
from graphfusion.tensor import Tensor

from conftest import oracle_conv


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_entropy(img) -> float:
    counts: dict[int, int] = {}
    for v in np.asarray(img, dtype=np.float64).reshape(-1):
        level = int(math.floor(min(max(v, 0.0), 1.0) * 255.0 + 0.5))
        counts[level] = counts.get(level, 0) + 1
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def brute_average_gradient(img) -> float:
    a = np.asarray(img, dtype=np.float64)
    h, w = a.shape
    acc = []
    for y in range(h - 1):
        for x in range(w - 1):
            dx = a[y, x + 1] - a[y, x]
            dy = a[y + 1, x] - a[y, x]
            acc.append(math.sqrt((dx * dx + dy * dy) / 2.0))
    return sum(acc) / len(acc)


def brute_pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    if da == 0.0 or db == 0.0:
        return 0.0
    return num / (da * db)


def brute_sobel_pair(img):
    a = np.asarray(img, dtype=np.float64).reshape(1, 1, *np.shape(img))
    zero = np.zeros(1)
    sx = oracle_conv(a, losses.SOBEL_X.reshape(1, 1, 3, 3), zero, padding=1)[0, 0]
    sy = oracle_conv(a, losses.SOBEL_Y.reshape(1, 1, 3, 3), zero, padding=1)[0, 0]
    return sx, sy


def brute_qabf(ir, vis, fused) -> float:
    def strength_angle(img):
        sx, sy = brute_sobel_pair(img)
        h, w = sx.shape
        g = np.zeros((h, w))
        a = np.zeros((h, w))
        for y in range(h):
            for x in range(w):
                g[y, x] = math.sqrt(sx[y, x] ** 2 + sy[y, x] ** 2)
                a[y, x] = math.pi / 2.0 if sx[y, x] == 0.0 else math.atan(sy[y, x] / sx[y, x])
        return g, a

    def score(gs, as_, gf, af):
        if gf == 0.0:
            return 0.0
        hi, lo = max(gs, gf), min(gs, gf)
        g_rel = lo / hi if hi > 0.0 else 0.0
        a_rel = 1.0 - abs(as_ - af) / (math.pi / 2.0)
        qg = metrics.QABF_GAMMA_G / (1.0 + math.exp(metrics.QABF_KAPPA_G * (g_rel - metrics.QABF_SIGMA_G)))
        qa = metrics.QABF_GAMMA_A / (1.0 + math.exp(metrics.QABF_KAPPA_A * (a_rel - metrics.QABF_SIGMA_A)))
        return qg * qa

    g_a, a_a = strength_angle(ir)
    g_b, a_b = strength_angle(vis)
    g_f, a_f = strength_angle(fused)
    num = 0.0
    den = 0.0
    h, w = g_a.shape
    for y in range(h):
        for x in range(w):
            num += score(g_a[y, x], a_a[y, x], g_f[y, x], a_f[y, x]) * g_a[y, x]
            num += score(g_b[y, x], a_b[y, x], g_f[y, x], a_f[y, x]) * g_b[y, x]
            den += g_a[y, x] + g_b[y, x]
    return 0.0 if den == 0.0 else num / den


def brute_ssim(x, y, window=11, sigma=1.5) -> float:
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    kern = losses.gaussian_window(window, sigma).astype(np.float64)
    c1 = losses.SSIM_K1**2
    c2 = losses.SSIM_K2**2
    h, w = a.shape
    vals = []
    for y0 in range(h - window + 1):
        for x0 in range(w - window + 1):
            wa = a[y0 : y0 + window, x0 : x0 + window]
            wb = b[y0 : y0 + window, x0 : x0 + window]
            mx = (kern * wa).sum()
            my = (kern * wb).sum()
            vx = (kern * wa * wa).sum() - mx * mx
            vy = (kern * wb * wb).sum() - my * my
            cov = (kern * wa * wb).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return sum(vals) / len(vals)


# ---------------------------------------------------------------------------
# anchors


class TestEntropy:
    def test_constant_image_is_zero(self):
        assert metric_entropy(np.full((8, 8), 0.4)) == 0.0

    def test_two_equal_bins_is_one(self):
        img = np.zeros((4, 4))
        img[:, 2:] = 1.0
        assert metric_entropy(img) == 1.0

    def test_all_256_levels_is_eight(self):
        img = (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)
        assert metric_entropy(img) == 8.0

    def test_matches_brute_oracle(self, rng):
        img = rng.uniform(size=(8, 8))
        assert metric_entropy(img) == pytest.approx(brute_entropy(img), abs=1e-6)


class TestAverageGradient:
    def test_ramp_closed_form(self):
        cols = np.arange(10, dtype=np.float64).reshape(1, 10)
        img = np.repeat(0.05 * cols, 8, axis=0)
        assert metric_average_gradient(img) == pytest.approx(0.05 / math.sqrt(2.0), rel=1e-12)

    def test_constant_is_zero(self):
        assert metric_average_gradient(np.full((5, 5), 0.3)) == 0.0

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            metric_average_gradient(np.zeros((1, 8)))

    def test_matches_brute_oracle(self, rng):
        img = rng.uniform(size=(8, 8))
        assert metric_average_gradient(img) == pytest.approx(brute_average_gradient(img), abs=1e-6)


class TestCorrelation:
    def test_self_correlation_is_one(self, rng):
        x = rng.uniform(size=(8, 8))
        assert metric_correlation(x, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_contributes_zero(self, rng):
        x = rng.uniform(size=(8, 8))
        flat = np.full((8, 8), 0.5)
        assert metric_correlation(flat, x, x) == pytest.approx(0.5, abs=1e-12)
        assert metric_correlation(x, x, flat) == 0.0

    def test_matches_brute_oracle(self, rng):
        ir, vis, fused = (rng.uniform(size=(8, 8)) for _ in range(3))
        want = 0.5 * (brute_pearson(fused, ir) + brute_pearson(fused, vis))
        assert metric_correlation(ir, vis, fused) == pytest.approx(want, abs=1e-6)


class TestSCD:
    def test_additive_fusion_of_zero_mean_sources_scores_two(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        a -= a.mean()
        b -= b.mean()
        assert metric_scd(a, b, a + b) == pytest.approx(2.0, abs=1e-6)

    def test_matches_brute_oracle(self, rng):
        ir, vis, fused = (rng.uniform(size=(8, 8)) for _ in range(3))
        want = brute_pearson(fused - ir, vis) + brute_pearson(fused - vis, ir)
        assert metric_scd(ir, vis, fused) == pytest.approx(want, abs=1e-6)


class TestQabf:
    def test_perfect_preservation_plateau_closed_form(self, rng):
        x = rng.uniform(size=(8, 8))
        qg = metrics.QABF_GAMMA_G / (1.0 + math.exp(metrics.QABF_KAPPA_G * (1.0 - metrics.QABF_SIGMA_G)))
        qa = metrics.QABF_GAMMA_A / (1.0 + math.exp(metrics.QABF_KAPPA_A * (1.0 - metrics.QABF_SIGMA_A)))
        assert metric_qabf(x, x, x) == pytest.approx(qg * qa, abs=1e-6)

    def test_edge_free_fusion_preserves_nothing(self, rng):
        # Zero padding means a nonzero constant still has border edges; the
        # only image with no Sobel response anywhere is the zero image.
        x = rng.uniform(size=(8, 8))
        assert metric_qabf(x, x, np.zeros((8, 8))) == 0.0

    def test_edge_free_sources_score_zero(self):
        zero = np.zeros((8, 8))
        assert metric_qabf(zero, zero, zero) == 0.0

    def test_matches_brute_oracle(self, rng):
        ir, vis, fused = (rng.uniform(size=(8, 8)) for _ in range(3))
        assert metric_qabf(ir, vis, fused) == pytest.approx(brute_qabf(ir, vis, fused), abs=1e-6)


class TestMetricSSIM:
    def test_identical_images_score_one(self, rng):
        x = rng.uniform(size=(12, 12))
        assert metric_ssim(x, x) == 1.0

    def test_matches_brute_oracle(self, rng):
        x = rng.uniform(size=(13, 13))
        y = rng.uniform(size=(13, 13))
        assert metric_ssim(x, y) == pytest.approx(brute_ssim(x, y), abs=1e-6)

    def test_cross_checks_differentiable_ssim(self, rng):
        x = rng.uniform(size=(14, 14)).astype(np.float32)
        y = rng.uniform(size=(14, 14)).astype(np.float32)
        t = losses.ssim(Tensor(x.reshape(1, 1, 14, 14)), Tensor(y.reshape(1, 1, 14, 14))).item()
        assert metric_ssim(x, y) == pytest.approx(t, abs=1e-5)

    def test_rejects_small_images(self):
        with pytest.raises(ValueError, match="smaller than window"):
            metric_ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_vga_ssim_copies_no_windows(self, rng):
        # About 10 float64 frames live at once: the two inputs, the five blurred
        # statistics and their temporaries.  Copying every 11x11 window took 119.
        x, y = (rng.uniform(size=(480, 640)).astype(np.float32) for _ in range(2))
        tracemalloc.start()
        try:
            metric_ssim(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * 480 * 640


class TestComputeMetrics:
    def test_returns_every_column(self, rng):
        ir, vis, fused = (rng.uniform(size=(12, 12)) for _ in range(3))
        values = compute_metrics(ir, vis, fused)
        assert tuple(values) == METRIC_COLUMNS

    def test_ssim_column_averages_both_sources(self, rng):
        ir, vis, fused = (rng.uniform(size=(12, 12)) for _ in range(3))
        values = compute_metrics(ir, vis, fused)
        want = 0.5 * (metric_ssim(fused, ir) + metric_ssim(fused, vis))
        assert values["SSIM"] == pytest.approx(want, abs=1e-12)


class TestMetricReport:
    @staticmethod
    def _row(seed):
        rng = np.random.default_rng(seed)
        return {c: float(rng.uniform()) for c in METRIC_COLUMNS}

    def test_csv_header_and_mean_row(self):
        report = MetricReport()
        report.add("a", self._row(0))
        report.add("b", self._row(1))
        lines = report.to_csv().splitlines()
        assert lines[0] == "pair_id,EN,AG,CC,SCD,Qabf,SSIM"
        assert len(lines) == 4
        assert lines[1].startswith("a,") and lines[2].startswith("b,")
        assert lines[3].startswith("mean,")

    def test_csv_values_roundtrip_through_repr(self):
        report = MetricReport()
        row = self._row(2)
        report.add("x", row)
        fields = report.to_csv().splitlines()[1].split(",")
        for c, text in zip(METRIC_COLUMNS, fields[1:]):
            assert float(text) == row[c]

    def test_mean_is_arithmetic(self):
        report = MetricReport()
        r0, r1 = self._row(0), self._row(1)
        report.add("a", r0)
        report.add("b", r1)
        mean = report.mean()
        for c in METRIC_COLUMNS:
            assert mean[c] == pytest.approx((r0[c] + r1[c]) / 2.0, rel=1e-12)

    def test_missing_column_rejected(self):
        report = MetricReport()
        bad = self._row(0)
        del bad["SCD"]
        with pytest.raises(ValueError, match="missing columns"):
            report.add("a", bad)

    def test_empty_report_cannot_aggregate(self):
        with pytest.raises(ValueError):
            MetricReport().mean()

    def test_json_shape(self):
        import json

        report = MetricReport()
        report.add("a", self._row(0))
        doc = json.loads(report.to_json())
        assert set(doc) == {"pairs", "mean"}
        assert set(doc["pairs"]["a"]) == set(METRIC_COLUMNS)
