"""Finite-difference verification of tape gradients.

Two entry points:

* :func:`gradient_check` compares every element of the analytic gradient of
  a scalar function against central differences and reports the worst
  per-element relative error.  Meaningful when the finite-difference noise
  floor (float32 rounding of the scalar, divided by ``2 * epsilon``) is well
  below the gradient magnitudes, which holds for the small single-op probes
  used in the tests.

* :func:`check_parameter_groups` samples elements from each parameter of a
  full network and compares the float32 tape gradient against central
  differences of a float64 reference of the same scalar.  Errors are
  normalized by each group's gradient scale and reported once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .tensor import ShapeError, Tape, Tensor, no_recording


@dataclass
class GradCheckResult:
    """Worst-case outcome of a per-element gradient check."""

    max_rel_error: float
    abs_error: float
    input_index: int
    element_index: int
    analytic: float
    numeric: float


def _scalar(f: Callable[..., Tensor], inputs: Sequence[Tensor]) -> float:
    with no_recording():
        out = f(*inputs)
    if out.data.size != 1:
        raise ShapeError(f"gradient_check: function must return a scalar, got shape {out.shape}")
    return float(out.data.reshape(()))


def _analytic_grads(f: Callable[..., Tensor], inputs: Sequence[Tensor]) -> list[np.ndarray]:
    with Tape() as tape:
        out = f(*inputs)
        if out.data.size != 1:
            raise ShapeError(f"gradient_check: function must return a scalar, got shape {out.shape}")
        tape.backward(out)
        grads = []
        for t in inputs:
            if t.grad is None:
                grads.append(np.zeros(t.shape, dtype=np.float64))
            else:
                grads.append(t.grad.astype(np.float64))
        tape.clear()
    return grads


def _central_difference(
    f: Callable[..., Tensor], inputs: Sequence[Tensor], which: int, flat_index: int, epsilon: float
) -> float:
    data = inputs[which].data
    orig = data.flat[flat_index]
    data.flat[flat_index] = orig + np.float32(epsilon)
    hi = float(data.flat[flat_index])
    f_hi = _scalar(f, inputs)
    data.flat[flat_index] = orig - np.float32(epsilon)
    lo = float(data.flat[flat_index])
    f_lo = _scalar(f, inputs)
    data.flat[flat_index] = orig
    # Divide by the realized float32 step, not the nominal one.
    return (f_hi - f_lo) / (hi - lo)


def gradient_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    epsilon: float = 1e-3,
) -> GradCheckResult:
    """Check d(f)/d(input) for every element of every input.

    ``f`` must map the given tensors to a single-element tensor.  Each input
    must have ``requires_grad`` set.  The per-element error is

        ``|a - n| / max(|a|, |n|, scale, 1e-6)``

    where ``scale`` is the infinity norm of that input's gradient (analytic
    or numeric, whichever is larger).  Elements well below an input's
    gradient scale sit under the float32 central-difference noise floor, so
    they are measured against the scale rather than their own magnitude.
    The worst error is returned, with ties broken by absolute error; inputs
    are restored on exit.
    """
    for t in inputs:
        if not t.requires_grad:
            raise ValueError("gradient_check: every probed input needs requires_grad=True")
    analytic = _analytic_grads(f, inputs)
    numeric = [np.zeros(t.shape, dtype=np.float64).reshape(-1) for t in inputs]
    for which, t in enumerate(inputs):
        for j in range(t.size):
            numeric[which][j] = _central_difference(f, inputs, which, j, epsilon)
    worst = GradCheckResult(0.0, 0.0, -1, -1, 0.0, 0.0)
    for which, t in enumerate(inputs):
        a_all = analytic[which].reshape(-1)
        n_all = numeric[which]
        scale = max(np.max(np.abs(a_all)), np.max(np.abs(n_all)), 1e-6)
        for j in range(t.size):
            a = float(a_all[j])
            n = float(n_all[j])
            abs_err = abs(a - n)
            rel = abs_err / max(abs(a), abs(n), scale)
            if rel > worst.max_rel_error or (
                rel == worst.max_rel_error and abs_err > worst.abs_error
            ):
                worst = GradCheckResult(rel, abs_err, which, j, a, n)
    return worst


@dataclass
class GroupReport:
    """Per parameter-group summary from :func:`check_parameter_groups`."""

    group: str
    error: float
    scale: float
    samples: int
    skipped: int = 0


def default_group(name: str) -> str:
    """Group parameters by layer: drop the trailing ``.weight`` / ``.bias``."""
    return name.rsplit(".", 1)[0]


def check_parameter_groups(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    reference: Callable[[Mapping[str, np.ndarray]], float],
    epsilon: float = 1e-6,
    samples_per_tensor: int = 6,
    seed: int = 0,
) -> dict[str, GroupReport]:
    """Sampled finite-difference check of ``f`` against every parameter.

    Analytic gradients come from one taped backward pass of ``f``.  The
    numeric side is central differences of ``reference`` -- a float64
    re-implementation of the same scalar, called with a name -> array
    mapping -- probed on double-precision copies of the parameters so a
    step of ``epsilon`` ~ 1e-6 is representable and rounding noise stays
    far below the 1e-2 tolerances of interest.  Parameters are grouped by
    layer (:func:`default_group`).

    For each parameter tensor the element with the largest analytic
    gradient plus seeded random elements are probed until
    ``samples_per_tensor`` usable probes are collected (or candidates run
    out).  Within each group the reported error is
    ``max |a - n| / max(group gradient scale, 1e-8)`` where the scale is
    the largest ``max(|a|, |n|)`` seen in the group.

    A probe is usable only when central differences at ``epsilon`` and
    ``epsilon / 2`` agree.  Networks with max pooling, ReLU and |x| are
    piecewise smooth: a probe interval that straddles a kink measures a
    mixture of two branch slopes and carries no information about the
    derivative at the point itself, so such elements are skipped (counted
    in ``GroupReport.skipped``) and replacements drawn.  A wrong analytic
    gradient is still caught: its finite differences agree with each other
    while disagreeing with the tape.
    """
    with Tape() as tape:
        out = f()
        if out.data.size != 1:
            raise ShapeError("check_parameter_groups: function must return a scalar")
        tape.backward(out)
        analytic = {
            name: (np.zeros(t.shape, dtype=np.float64) if t.grad is None else t.grad.astype(np.float64))
            for name, t in params.items()
        }
        tape.clear()

    arrays = {name: t.data.astype(np.float64) for name, t in params.items()}

    def probe(name: str, j: int, eps: float) -> float:
        flat = arrays[name].reshape(-1)
        orig = flat[j]
        flat[j] = orig + eps
        hi = reference(arrays)
        flat[j] = orig - eps
        lo = reference(arrays)
        flat[j] = orig
        return (hi - lo) / (2.0 * eps)

    rng = np.random.default_rng(seed)
    pairs: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    skips: dict[str, int] = {}
    for name, t in params.items():
        grads = analytic[name].reshape(-1)
        tensor_scale = float(np.max(np.abs(grads))) if grads.size else 0.0
        candidates = [int(np.argmax(np.abs(grads)))]
        if t.size > 1:
            order = rng.permutation(t.size)
            candidates += [int(i) for i in order if int(i) != candidates[0]]
        group = default_group(name)
        bucket = pairs.setdefault(group, [])
        counts.setdefault(group, 0)
        skips.setdefault(group, 0)
        taken = 0
        budget = 3 * samples_per_tensor
        for j in candidates:
            if taken >= samples_per_tensor or budget <= 0:
                break
            budget -= 1
            n1 = probe(name, j, epsilon)
            n2 = probe(name, j, epsilon / 2)
            gate = max(0.02 * tensor_scale, 0.08 * max(abs(n1), abs(n2)), 1e-9)
            if abs(n1 - n2) > gate:
                skips[group] += 1
                continue
            bucket.append((float(grads[j]), n1))
            counts[group] += 1
            taken += 1

    reports: dict[str, GroupReport] = {}
    for group, ab in pairs.items():
        scale = max((max(abs(a), abs(n)) for a, n in ab), default=0.0)
        denom = max(scale, 1e-8)
        err = max((abs(a - n) for a, n in ab), default=0.0) / denom
        reports[group] = GroupReport(group, err, scale, counts[group], skips[group])
    return reports
