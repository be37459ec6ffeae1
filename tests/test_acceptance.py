"""Release acceptance suite.

Nine criteria, each a single test that prints one ``[PASS]``/``[FAIL]``
verdict line directly to the terminal (bypassing capture) so a full run
reads as a checklist.  Numeric oracles are closed forms worked out by
hand, the brute-force reference implementations from the unit suite, or
(criterion 2) complex-step derivatives of float64 forms from
``reference.py`` and plain numpy; none of them share code with ``ops``.
"""

import inspect
import zlib
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

import conftest
import test_metrics as brute

import graphfusion.ops as ops
from graphfusion import cli, losses, reference as ref
from graphfusion.config import FusionConfig
from graphfusion.graph import edge_pairs, node_pools, run_graph
from graphfusion.images import ImagePair, parse_netpbm, write_image
from graphfusion.losses import loss_components, loss_mse, loss_ssim
from graphfusion.metrics import (
    QABF_GAMMA_A,
    QABF_GAMMA_G,
    QABF_KAPPA_A,
    QABF_KAPPA_G,
    QABF_SIGMA_A,
    QABF_SIGMA_G,
    metric_average_gradient,
    metric_correlation,
    metric_entropy,
    metric_qabf,
    metric_scd,
    metric_ssim,
)
from graphfusion.network import fuse_arrays, forward, init_params, load_checkpoint, save_checkpoint
from graphfusion.reference import _SAMPLE_AXES
from graphfusion.tensor import Tensor
from graphfusion.trainer import train


class Criterion:
    """Collects sub-checks and prints exactly one verdict line."""

    def __init__(self, capsys, number: int, label: str):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.failures: list[str] = []

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)

    def __enter__(self) -> "Criterion":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.failures.append(f"raised {exc_type.__name__}: {exc}")
        verdict = "FAIL" if self.failures else "PASS"
        note = f" -- {self.failures[0]}" if self.failures else ""
        with self.capsys.disabled():
            print(f"[{verdict}] criterion {self.number}: {self.label}{note}", flush=True)
        if self.failures and exc_type is None:
            raise AssertionError("; ".join(self.failures))
        return False


# ---------------------------------------------------------------------------
# criterion 2 support: one randomized complex-step case per op call
#
# Each factory returns the op, its float64 form and the op's inputs.  The
# float64 form is a ``reference.py`` helper or plain numpy, runs on complex
# arrays that may carry a leading probe axis, and takes each kink on the real
# part as the tape does.


def _u(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape).astype(np.float32), requires_grad=True)


def _case_conv2d(rng):
    x = _u(rng, (1, 2, 5, 5), 0.0, 1.0)
    k = _u(rng, (3, 2, 3, 3), -0.5, 0.5)
    b = _u(rng, (3,), -0.2, 0.2)
    padding = int(rng.integers(0, 2))
    return (
        lambda x, k, b: ops.conv2d(x, k, b, padding=padding),
        lambda x, k, b: ref._conv(x, k, b, padding=padding),
        [x, k, b],
    )


def _case_conv2d_minus(rng):
    # The graph's edge form: the conv of x - m, with or without a bias.
    x, m = _u(rng, (1, 2, 5, 5), 0.0, 1.0), _u(rng, (1, 2, 5, 5), 0.0, 1.0)
    k = _u(rng, (3, 2, 3, 3), -0.5, 0.5)
    padding = int(rng.integers(0, 2))
    if rng.integers(0, 2):
        b = _u(rng, (3,), -0.2, 0.2)
        return (
            lambda x, m, k, b: ops.conv2d(x, k, b, padding=padding, minus=m),
            lambda x, m, k, b: ref._conv(x - m, k, b, padding=padding),
            [x, m, k, b],
        )
    return (
        lambda x, m, k: ops.conv2d(x, k, None, padding=padding, minus=m),
        lambda x, m, k: ref._correlate(x - m, k, padding=padding),
        [x, m, k],
    )


def _case_maxpool2d(rng):
    x = Tensor(conftest.separated_values(rng, (1, 2, 6, 6)), requires_grad=True)
    padding = int(rng.integers(0, 2))
    return lambda x: ops.maxpool2d(x, 3, padding=padding), lambda x: ref._maxpool(x, 3, padding=padding), [x]


def _case_avgpool2d(rng):
    x = _u(rng, (1, 2, 6, 6), 0.0, 1.0)
    padding = int(rng.integers(0, 2))
    return lambda x: ops.avgpool2d(x, 3, padding=padding), lambda x: ref._avgpool(x, 3, padding=padding), [x]


def _case_adaptive_avgpool2d(rng):
    x = _u(rng, (1, 2, 6, 6), 0.0, 1.0)
    oh = int(rng.integers(1, 5))
    ow = int(rng.integers(1, 5))
    return lambda x: ops.adaptive_avgpool2d(x, oh, ow), lambda x: ref._adaptive_avgpool(x, oh, ow), [x]


def _case_global_avgpool(rng):
    x = _u(rng, (2, 3, 4, 4))
    return ops.global_avgpool, lambda x: ref._adaptive_avgpool(x, 1, 1), [x]


def _case_upsample_bilinear(rng):
    x = _u(rng, (1, 2, 3, 4), 0.0, 1.0)
    oh = 3 + int(rng.integers(0, 5))
    ow = 4 + int(rng.integers(0, 5))
    return lambda x: ops.upsample_bilinear(x, oh, ow), lambda x: ref._upsample(x, oh, ow), [x]


def _case_conv2d_squeeze(rng):
    # The squeeze-excite form: a 1x1 conv of a pooled (N, C, 1, 1) map, as
    # ``reference.py`` runs it, a matmul of the (O, C) weights.  16 input
    # channels take conv2d's per-tap path, 4 its gathered forward.
    c = 16 if rng.integers(0, 2) else 4
    x = _u(rng, (2, c, 1, 1))
    k = _u(rng, (4, c, 1, 1), -0.5, 0.5)
    b = _u(rng, (4,), -0.2, 0.2)
    return (
        lambda x, k, b: ops.conv2d(x, k, b),
        lambda x, k, b: ref._fc(x[..., 0, 0], k[..., 0, 0], b)[..., None, None],
        [x, k, b],
    )


def _case_conv2d_parts(rng):
    # The leader's and the head's form: a conv over a sequence of maps, read
    # as their concatenation.  Two 16-channel parts take conv2d's per-tap
    # path, as the leader's 1x1 conv does; thinner parts its gathered forward.
    if rng.integers(0, 2):
        widths, k, padding, side = (16, 16), 1, 0, 2
    else:
        widths, k, side = [int(c) for c in rng.integers(1, 4, size=rng.integers(2, 4))], 3, 4
        padding = int(rng.integers(0, 2))
    parts = [_u(rng, (1, c, side, side), 0.0, 1.0) for c in widths]
    k_t = _u(rng, (2, sum(widths), k, k), -0.5, 0.5)
    b = _u(rng, (2,), -0.2, 0.2)
    return (
        lambda *ts: ops.conv2d(list(ts[:-2]), ts[-2], ts[-1], padding=padding),
        lambda *xs: ref._conv(ref._cat(xs[:-2]), xs[-2], xs[-1], padding=padding),
        [*parts, k_t, b],
    )


def _case_add(rng):
    return ops.add, np.add, [_u(rng, (2, 3, 4, 4)), _u(rng, (2, 3, 4, 4))]


def _case_sub(rng):
    return ops.sub, np.subtract, [_u(rng, (2, 3, 4, 4)), _u(rng, (2, 3, 4, 4))]


def _case_mul(rng):
    a = _u(rng, (2, 3, 4, 4))
    # Alternate full-shape products with the broadcast gate pattern.
    b = _u(rng, (2, 3, 1, 1)) if rng.integers(0, 2) else _u(rng, (2, 3, 4, 4))
    return ops.mul, np.multiply, [a, b]


def _case_div(rng):
    a = _u(rng, (2, 3, 4, 4))
    b = Tensor(conftest.away_from(rng, (2, 3, 4, 4), 0.0, margin=0.3), requires_grad=True)
    return ops.div, np.divide, [a, b]


def _case_maximum(rng):
    a = _u(rng, (2, 3, 4, 4))
    gap = rng.uniform(0.05, 0.5, size=a.shape) * rng.choice([-1.0, 1.0], size=a.shape)
    b = Tensor((a.data + gap).astype(np.float32), requires_grad=True)
    # Ties go to the first argument, as on the tape.
    return ops.maximum, lambda u, v: np.where(u.real >= v.real, u, v), [a, b]


def _case_scale(rng):
    x = _u(rng, (2, 3, 4, 4))
    s = float(rng.uniform(-2.0, 2.0))
    return lambda x: ops.scale(x, s), lambda x: x * s, [x]


def _case_shift(rng):
    x = _u(rng, (2, 3, 4, 4))
    c = float(rng.uniform(-1.0, 1.0))
    return lambda x: ops.shift(x, c), lambda x: x + c, [x]


def _case_concat_channels(rng):
    parts = [_u(rng, (1, c, 3, 3)) for c in (2, 1, 3)]
    return lambda *ts: ops.concat_channels(list(ts)), lambda *xs: ref._cat(xs), parts


def _case_split_channels(rng):
    # The parts come back concatenated in reverse, so every part's backward
    # adds into its own channels of one input gradient.
    sizes = [int(c) for c in rng.integers(1, 4, size=rng.integers(1, 4))]
    x = _u(rng, (2, sum(sizes), 3, 3))
    cuts = np.cumsum(sizes)[:-1]
    return (
        lambda x: ops.concat_channels(ops.split_channels(x, sizes)[::-1]),
        lambda x: ref._cat(np.split(x, cuts, axis=-3)[::-1]),
        [x],
    )


def _case_sigmoid(rng):
    return ops.sigmoid, ref._sigmoid, [_u(rng, (2, 3, 4, 4), -3.0, 3.0)]


def _case_gate_add(rng):
    total, source = _u(rng, (2, 3, 4, 4)), _u(rng, (2, 3, 4, 4))
    s = _u(rng, (2, 3, 4, 4), -3.0, 3.0)
    bias = _u(rng, (3,))
    sign = int(rng.choice([1, -1]))
    return (
        lambda t, s, b, src: ops.gate_add(t, s, b, sign, src),
        lambda t, s, b, src: t + ref._sigmoid(sign * s + ref._bias(b)) * src,
        [total, s, bias, source],
    )


def _case_relu(rng):
    return ops.relu, ref._relu, [Tensor(conftest.away_from(rng, (2, 3, 4, 4), 0.0), requires_grad=True)]


def _case_sqrt(rng):
    return ops.sqrt, np.sqrt, [_u(rng, (2, 3, 4, 4), 0.2, 2.0)]


def _case_absolute(rng):
    return ops.absolute, ref._abs, [Tensor(conftest.away_from(rng, (2, 3, 4, 4), 0.0), requires_grad=True)]


def _case_reduce_sum(rng):
    return ops.reduce_sum, lambda x: x.sum(axis=_SAMPLE_AXES), [_u(rng, (2, 3, 4, 4))]


def _case_reduce_mean(rng):
    return ops.reduce_mean, lambda x: x.mean(axis=_SAMPLE_AXES), [_u(rng, (2, 3, 4, 4))]


OP_CASES = {
    "conv2d": _case_conv2d,
    "conv2d minus": _case_conv2d_minus,
    "conv2d squeeze": _case_conv2d_squeeze,
    "conv2d parts": _case_conv2d_parts,
    "maxpool2d": _case_maxpool2d,
    "avgpool2d": _case_avgpool2d,
    "adaptive_avgpool2d": _case_adaptive_avgpool2d,
    "global_avgpool": _case_global_avgpool,
    "upsample_bilinear": _case_upsample_bilinear,
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "div": _case_div,
    "maximum": _case_maximum,
    "scale": _case_scale,
    "shift": _case_shift,
    "concat_channels": _case_concat_channels,
    "split_channels": _case_split_channels,
    "sigmoid": _case_sigmoid,
    "gate_add": _case_gate_add,
    "relu": _case_relu,
    "sqrt": _case_sqrt,
    "absolute": _case_absolute,
    "reduce_sum": _case_reduce_sum,
    "reduce_mean": _case_reduce_mean,
}


def _public_ops() -> set[str]:
    return {
        name
        for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == ops.__name__
    }


# ---------------------------------------------------------------------------
# criterion 5 support


def _qabf_plateau() -> float:
    """Preservation score when fused gradients match a source exactly."""
    qg = QABF_GAMMA_G / (1.0 + np.exp(QABF_KAPPA_G * (1.0 - QABF_SIGMA_G)))
    qa = QABF_GAMMA_A / (1.0 + np.exp(QABF_KAPPA_A * (1.0 - QABF_SIGMA_A)))
    return float(qg * qa)


# ---------------------------------------------------------------------------
# the criteria


class TestAcceptance:
    def test_criterion_1_gradient_integrity(self, capsys):
        with Criterion(capsys, 1, "full-model gradient check (8x8, C=8, N=3, L=3)") as c:
            started = perf_counter()
            code = cli.main(
                ["gradcheck", "--size", "8", "--channels", "8", "--nodes", "3", "--loops", "3"]
            )
            elapsed = perf_counter() - started
            c.check(code == 0, f"gradcheck exited {code}")
            c.check(elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s")

    def test_criterion_2_per_op_derivative_oracles(self, capsys):
        with Criterion(capsys, 2, "100 randomized derivative cases per tensor op") as c:
            missing = _public_ops() - set(OP_CASES)
            c.check(not missing, f"ops without cases: {sorted(missing)}")

            # Every element of every input against its complex-step derivative,
            # both sides scalarized by the case's random coefficients.  Each
            # case's seed is a checksum of its name, the same in every process.
            worst_by_op = {}
            for name, factory in OP_CASES.items():
                rng = np.random.default_rng(zlib.crc32(name.encode()))
                worst = 0.0
                for _ in range(100):
                    op, op64, inputs = factory(rng)
                    coeffs = rng.uniform(-1.0, 1.0, size=op(*inputs).shape).astype(np.float32)
                    worst = max(worst, conftest.weighted_error(op, op64, inputs, coeffs))
                worst_by_op[name] = worst
            bad = {k: v for k, v in worst_by_op.items() if v >= 1e-5}
            c.check(not bad, f"rel err >= 1e-5: {bad}")

            # Identity and constant-field cases must be exact, not just close.
            rng = np.random.default_rng(7)
            ones = Tensor(np.ones((1, 2, 6, 6), dtype=np.float32))
            c.check(bool(np.all(ops.maxpool2d(ones, 3, padding=1).data == 1.0)), "maxpool constant not exact")
            c.check(bool(np.all(ops.avgpool2d(ones, 3, padding=1).data == 1.0)), "avgpool constant not exact")
            c.check(bool(np.all(ops.adaptive_avgpool2d(ones, 3, 3).data == 1.0)), "adaptive constant not exact")
            c.check(bool(np.all(ops.global_avgpool(ones).data == 1.0)), "global pool constant not exact")
            x = _u(rng, (1, 2, 5, 5), 0.0, 1.0)
            delta = np.zeros((2, 2, 3, 3), dtype=np.float32)
            delta[0, 0, 1, 1] = 1.0
            delta[1, 1, 1, 1] = 1.0
            ident = ops.conv2d(x, Tensor(delta), Tensor(np.zeros(2, np.float32)), padding=1)
            c.check(bool(np.all(ident.data == x.data)), "delta-kernel conv not exact")

    def test_criterion_3_topology_and_symmetry(self, capsys):
        with Criterion(capsys, 3, "18 directed edges at N=3; modality swap is bit-exact") as c:
            # Each pair is two directed edges, one each way.
            for n, expect in ((1, 2), (2, 8), (3, 18), (5, 50)):
                c.check(2 * len(edge_pairs(n)) == expect, f"N={n}: expected {expect} directed edges")
            edges = [edge for a, b, _ in edge_pairs(3) for edge in ((a, b), (b, a))]
            c.check(len(edges) == 18 and len(set(edges)) == 18, "edge list not 18 unique entries")
            intra = sum(1 for src, dst in edges if src[0] == dst[0])
            c.check(intra == 12, f"expected 12 intra-modal edges, got {intra}")
            c.check(len(edges) - intra == 6, f"expected 6 inter-modal edges, got {len(edges) - intra}")

            config = FusionConfig(channels=4, nodes=3, loops=3, reduction=4)
            params = init_params(config, seed=3)
            for name in params:
                if ".ir." in name:
                    twin = name.replace(".ir.", ".vis.")
                    if twin in params:
                        params[twin].data[:] = params[name].data
            rng = np.random.default_rng(5)
            shape = (1, 4, 6, 6)
            stages = [[Tensor(rng.standard_normal(shape).astype(np.float32)) for _ in range(3)] for _ in range(2)]
            f_a, f_b = ([node_pools(t, config.nodes) for t in ts] for ts in stages)
            straight_ir, straight_vis = run_graph(f_a, f_b, (6, 6), params, config)
            swapped_ir, swapped_vis = run_graph(f_b, f_a, (6, 6), params, config)
            c.check(np.array_equal(swapped_ir.data, straight_vis.data), "swap broke ir output")
            c.check(np.array_equal(swapped_vis.data, straight_ir.data), "swap broke vis output")

    def test_criterion_4_loss_anchors(self, capsys, monkeypatch):
        with Criterion(capsys, 4, "loss anchors and component weighting") as c:
            rng = np.random.default_rng(2)
            ir = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 16, 16)).astype(np.float32))
            vis = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 16, 16)).astype(np.float32))
            mean = Tensor((ir.data + vis.data) * np.float32(0.5))
            c.check(loss_mse(mean, ir, vis).item() == 0.0, "mse at the exact mean is nonzero")
            c.check(loss_ssim(ir, ir, ir).item() == 0.0, "ssim loss of identical images is nonzero")

            plain = FusionConfig(alpha=0.0, beta=0.0)
            comps = loss_components(mean, ir, vis, plain)
            c.check(comps["total"] is comps["mse"], "alpha=beta=0 total is not the mse term itself")

            p, q, r = 0.3, 0.07, 0.11
            monkeypatch.setattr(losses, "loss_mse", lambda *a, **k: Tensor(np.float32(p)))
            monkeypatch.setattr(losses, "loss_edge", lambda *a, **k: Tensor(np.float32(q)))
            monkeypatch.setattr(losses, "loss_ssim", lambda *a, **k: Tensor(np.float32(r)))
            for alpha, beta, expect in (
                (10.0, 0.5, p + 10.0 * q + 0.5 * r),
                (10.0, 0.0, p + 10.0 * q),
                (0.0, 0.5, p + 0.5 * r),
                (0.0, 0.0, p),
            ):
                config = FusionConfig(alpha=alpha, beta=beta)
                got = losses.loss_components(mean, ir, vis, config)["total"].item()
                c.check(
                    got == pytest.approx(expect, rel=1e-6),
                    f"alpha={alpha} beta={beta}: total {got} != {expect}",
                )

    def test_criterion_5_metric_oracles(self, capsys):
        with Criterion(capsys, 5, "quality metrics match closed forms and brute-force oracles") as c:
            c.check(metric_entropy(np.full((8, 8), 0.37)) == 0.0, "EN of constant image nonzero")
            two_bins = np.zeros((8, 8))
            two_bins[:, 4:] = 1.0
            c.check(metric_entropy(two_bins) == 1.0, "EN of two equal bins is not exactly 1")

            rng = np.random.default_rng(9)
            x = rng.uniform(0.1, 0.9, size=(8, 8))
            c.check(
                metric_correlation(x, x, x) == pytest.approx(1.0, abs=1e-12),
                "CC(x, x, x) != 1",
            )

            a = rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8))
            a -= a.mean()
            b -= b.mean()
            scd = metric_scd(a, b, a + b)
            c.check(scd == pytest.approx(2.0, abs=1e-6), f"SCD of additive fusion {scd} != 2")

            plateau = metric_qabf(x, x, x)
            c.check(
                plateau == pytest.approx(_qabf_plateau(), abs=1e-6),
                f"Qabf plateau {plateau} != closed form {_qabf_plateau()}",
            )
            c.check(metric_ssim(x, x, window=7) == pytest.approx(1.0, abs=1e-12), "SSIM(x, x) != 1")

            for seed in (11, 12, 13):
                r = np.random.default_rng(seed)
                ir = r.uniform(0.0, 1.0, size=(8, 8))
                vis = r.uniform(0.0, 1.0, size=(8, 8))
                fused = r.uniform(0.0, 1.0, size=(8, 8))
                checks = [
                    ("EN", metric_entropy(fused), brute.brute_entropy(fused)),
                    ("AG", metric_average_gradient(fused), brute.brute_average_gradient(fused)),
                    (
                        "CC",
                        metric_correlation(ir, vis, fused),
                        0.5 * (brute.brute_pearson(fused, ir) + brute.brute_pearson(fused, vis)),
                    ),
                    (
                        "SCD",
                        metric_scd(ir, vis, fused),
                        brute.brute_pearson(fused - ir, vis) + brute.brute_pearson(fused - vis, ir),
                    ),
                    ("Qabf", metric_qabf(ir, vis, fused), brute.brute_qabf(ir, vis, fused)),
                    (
                        "SSIM",
                        0.5 * (metric_ssim(fused, ir, window=7) + metric_ssim(fused, vis, window=7)),
                        0.5 * (brute.brute_ssim(fused, ir, window=7) + brute.brute_ssim(fused, vis, window=7)),
                    ),
                ]
                for name, got, want in checks:
                    c.check(
                        got == pytest.approx(want, abs=1e-6),
                        f"seed {seed} {name}: {got} vs oracle {want}",
                    )

    @pytest.mark.slow
    def test_criterion_6_single_pair_overfit(self, capsys):
        yy, xx = np.mgrid[0:64, 0:64].astype(np.float32) / 63.0
        base = np.clip(
            0.55 * np.exp(-((yy - 0.35) ** 2 + (xx - 0.55) ** 2) / 0.06)
            + 0.25 * yy
            + 0.1 * np.sin(6.28 * 2 * xx),
            0.02,
            0.98,
        ).astype(np.float32)
        ir = np.clip(
            0.7 * np.exp(-((yy - 0.3) ** 2 + (xx - 0.6) ** 2) / 0.05) + 0.15 * yy, 0.02, 0.98
        ).astype(np.float32)
        vis = np.clip(
            0.4 + 0.3 * np.sin(6.28 * 3 * xx) * np.cos(6.28 * 2 * yy) * (yy > 0.4), 0.02, 0.98
        ).astype(np.float32)

        with Criterion(capsys, 6, "single-pair overfit: 90% loss drop; mean-image convergence") as c:
            config = replace(FusionConfig(), epochs=600)
            started = perf_counter()
            _, log = train([ImagePair("same", base, base)], config, max_steps=300)
            elapsed = perf_counter() - started
            drop = log.records[-1].total / log.records[0].total
            c.check(drop <= 0.10, f"loss only fell to {drop:.1%} of its initial value")
            c.check(elapsed < 600.0, f"overfit run took {elapsed:.0f}s, budget 600s")

            config_mse = replace(FusionConfig(), alpha=0.0, beta=0.0, epochs=600)
            started = perf_counter()
            params, _ = train([ImagePair("diff", ir, vis)], config_mse, max_steps=400)
            elapsed = perf_counter() - started
            fused = fuse_arrays(ir, vis, params, config_mse)
            mad = float(np.abs(fused - (ir + vis) / 2.0).mean())
            c.check(mad < 0.05, f"MAD to the mean image is {mad:.4f}")
            c.check(elapsed < 600.0, f"pixel-loss run took {elapsed:.0f}s, budget 600s")

    def test_criterion_7_determinism(self, capsys, tmp_path):
        with Criterion(capsys, 7, "seed-fixed reruns and checkpoint round-trips are bit-exact") as c:
            config = FusionConfig(
                channels=4, nodes=2, loops=3, reduction=4, crop=16, stride=8, batch=2,
                epochs=50, seed=11,
            )
            rng = np.random.default_rng(0)
            pair = ImagePair(
                "p",
                rng.uniform(0.0, 1.0, size=(16, 16)).astype(np.float32),
                rng.uniform(0.0, 1.0, size=(16, 16)).astype(np.float32),
            )
            paths = [tmp_path / "run_a.ckpt", tmp_path / "run_b.ckpt"]
            runs = [train([pair], config, checkpoint_path=p, max_steps=50) for p in paths]
            c.check(
                paths[0].read_bytes() == paths[1].read_bytes(),
                "two 50-step runs wrote different checkpoints",
            )
            for name in runs[0][0]:
                if not np.array_equal(runs[0][0][name].data, runs[1][0][name].data):
                    c.check(False, f"parameter {name} differs between reruns")
                    break
            totals = [[rec.total for rec in log.records] for _, log in runs]
            c.check(totals[0] == totals[1], "loss trajectories differ between reruns")

            params, loaded_config = load_checkpoint(paths[0])
            again = tmp_path / "resaved.ckpt"
            save_checkpoint(again, params, loaded_config)
            c.check(
                again.read_bytes() == paths[0].read_bytes(),
                "checkpoint did not round-trip bit-exactly",
            )

    def test_criterion_8_ablations(self, capsys):
        with Criterion(capsys, 8, "stage toggles and node/loop sweeps all pass gradient checks") as c:
            rng = np.random.default_rng(4)
            ir = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 8, 8)).astype(np.float32))
            vis = Tensor(rng.uniform(0.0, 1.0, size=(1, 1, 8, 8)).astype(np.float32))

            base = FusionConfig(channels=4, reduction=4)
            variants = {
                "no-salience": replace(base, use_salience=False),
                "no-graph": replace(base, use_graph=False),
                "full": base,
            }
            outputs = {}
            for label, config in variants.items():
                params = init_params(config, seed=0)
                names = set(params)
                has_salience = any(n.startswith("salience.") for n in names)
                has_graph = any(n.startswith("graph.") for n in names)
                c.check(has_salience == config.use_salience, f"{label}: salience parameters wrong")
                c.check(has_graph == config.use_graph, f"{label}: graph parameters wrong")
                out = forward(ir, vis, params, config)
                c.check(out.shape == (1, 1, 8, 8), f"{label}: bad output shape {out.shape}")
                outputs[label] = out.data
            c.check(
                not np.array_equal(outputs["no-salience"], outputs["full"]),
                "removing salience did not change the output",
            )
            c.check(
                not np.array_equal(outputs["no-graph"], outputs["full"]),
                "removing the graph did not change the output",
            )

            for nodes in (1, 3, 5):
                for loops in (1, 3, 5):
                    config = replace(base, nodes=nodes, loops=loops)
                    out = forward(ir, vis, init_params(config, seed=1), config)
                    c.check(out.shape == (1, 1, 8, 8), f"N={nodes} L={loops}: bad forward shape")
                    code = cli.main(
                        [
                            "gradcheck",
                            "--size", "5",
                            "--channels", "4",
                            "--nodes", str(nodes),
                            "--loops", str(loops),
                            "--samples", "2",
                        ]
                    )
                    c.check(code == 0, f"N={nodes} L={loops}: gradcheck exited {code}")

    def test_criterion_9_cli_end_to_end(self, capsys, tmp_path):
        with Criterion(capsys, 9, "init-config, train, fuse, eval work end to end") as c:
            config_path = tmp_path / "config.json"
            c.check(cli.main(["init-config", str(config_path)]) == 0, "init-config failed")
            tiny = replace(
                FusionConfig.load(config_path),
                channels=4, nodes=2, loops=3, reduction=4, batch=2, epochs=2, crop=16, stride=8,
            )
            config_path.write_text(tiny.to_json())

            ir_dir = tmp_path / "ir"
            vis_dir = tmp_path / "vis"
            ir_dir.mkdir()
            vis_dir.mkdir()
            rng = np.random.default_rng(21)
            for stem in ("s0", "s1", "s2"):
                write_image(ir_dir / f"{stem}.pgm", rng.uniform(size=(24, 24)).astype(np.float32))
                write_image(vis_dir / f"{stem}.pgm", rng.uniform(size=(24, 24)).astype(np.float32))

            ckpt = tmp_path / "model.ckpt"
            code = cli.main(
                [
                    "train",
                    "--config", str(config_path),
                    "--ir-dir", str(ir_dir),
                    "--vis-dir", str(vis_dir),
                    "--out", str(ckpt),
                ]
            )
            c.check(code == 0, f"train exited {code}")
            c.check(ckpt.exists(), "train wrote no checkpoint")

            fused_path = tmp_path / "fused.pgm"
            code = cli.main(
                [
                    "fuse",
                    "--checkpoint", str(ckpt),
                    "--ir", str(ir_dir / "s0.pgm"),
                    "--vis", str(vis_dir / "s0.pgm"),
                    "--out", str(fused_path),
                ]
            )
            c.check(code == 0, f"fuse exited {code}")
            blob = fused_path.read_bytes()
            c.check(blob.startswith(b"P5\n24 24\n255\n"), "fused output is not a canonical P5 file")
            fused = parse_netpbm(blob)
            c.check(fused.shape == (24, 24), f"fused image shape {fused.shape}")
            c.check(bool(np.all((fused >= 0.0) & (fused <= 1.0))), "fused values leave [0, 1]")

            report = tmp_path / "report.csv"
            code = cli.main(
                [
                    "eval",
                    "--checkpoint", str(ckpt),
                    "--ir-dir", str(ir_dir),
                    "--vis-dir", str(vis_dir),
                    "--report", str(report),
                ]
            )
            c.check(code == 0, f"eval exited {code}")
            lines = report.read_text().splitlines()
            c.check(lines[0] == "pair_id,EN,AG,CC,SCD,Qabf,SSIM", f"bad header {lines[0]!r}")
            ids = [line.split(",")[0] for line in lines[1:]]
            c.check(ids == ["s0", "s1", "s2", "mean"], f"bad row ids {ids}")
            table = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
            c.check(all(np.isfinite(v) for row in table for v in row), "non-finite metric values")
            means = np.mean(table[:3], axis=0)
            c.check(
                np.allclose(table[3], means, rtol=0, atol=1e-9),
                "mean row does not match the column means",
            )
