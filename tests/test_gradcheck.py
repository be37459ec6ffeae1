"""Chunked complex-step probes agree with one probe per reference call."""

import numpy as np
import pytest

from graphfusion import gradcheck, ops
from graphfusion.config import FusionConfig
from graphfusion.losses import loss_total
from graphfusion.network import forward, init_params
from graphfusion.reference import reference_loss
from graphfusion.tensor import ShapeError, Tensor

SAMPLES = 2
CONFIG = FusionConfig(channels=4, nodes=2, loops=2, reduction=4)


def run_check(monkeypatch, chunk: int):
    """Reports, each probe's derivative and group in order, and each reference call's shape."""
    monkeypatch.setattr(gradcheck, "PROBE_CHUNK", chunk)
    params = init_params(CONFIG, seed=0)
    rng = np.random.default_rng(0)
    ir, vis = (Tensor(rng.uniform(size=(1, 1, 5, 5)).astype(np.float32)) for _ in range(2))
    slopes, calls = [], []

    def reference(arrays):
        out = reference_loss(ir.data, vis.data, arrays, CONFIG, ssim_window=5)
        calls.append(out.shape)
        slopes.extend(out.imag / gradcheck.COMPLEX_STEP)
        return out

    reports = gradcheck.check_parameter_groups(
        lambda: loss_total(forward(ir, vis, params, CONFIG), ir, vis, CONFIG, ssim_window=5),
        params,
        reference,
        samples_per_tensor=SAMPLES,
    )
    groups = [gradcheck.default_group(n) for n, t in params.items() for _ in range(min(SAMPLES, t.size))]
    return reports, np.array(slopes), groups, calls


@pytest.mark.parametrize("chunk", [gradcheck.PROBE_CHUNK, 7])
def test_chunked_probes_match_single_probes(monkeypatch, chunk):
    single, want, groups, single_calls = run_check(monkeypatch, 1)
    reports, got, _, calls = run_check(monkeypatch, chunk)
    probes = len(groups)
    assert probes % 7 and probes % gradcheck.PROBE_CHUNK  # each run ends on a short chunk
    assert single_calls == [(1,)] * probes
    assert len(calls) == -(-probes // chunk) and sum(shape[0] for shape in calls) == probes
    assert reports.keys() == single.keys()
    for group, rep in reports.items():
        assert rep.samples == single[group].samples
        assert rep.error == pytest.approx(single[group].error, abs=1e-10)
        assert rep.scale == pytest.approx(single[group].scale, rel=1e-10)
    scales = np.array([max(reports[g].scale, 1e-8) for g in groups])
    assert len(got) == probes
    np.testing.assert_array_less(np.abs(got - want) / scales, 1e-10)


def test_reference_must_return_one_loss_per_probe():
    # A reference that ignores the probe axis would otherwise pair the
    # wrong derivatives with the probes.
    params = {"w": Tensor(np.ones(3, dtype=np.float32), requires_grad=True)}
    with pytest.raises(ShapeError, match="3 probes"):
        gradcheck.check_parameter_groups(
            lambda: ops.reduce_sum(params["w"]), params, lambda arrays: arrays["w"].sum()
        )
