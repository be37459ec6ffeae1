"""Numerical verification of tape gradients.

Two entry points:

* :func:`gradient_check` compares every element of the analytic gradient of
  a scalar function against central differences and reports the worst
  per-element relative error.  Meaningful when the finite-difference noise
  floor (float32 rounding of the scalar, divided by ``2 * epsilon``) is well
  below the gradient magnitudes, which holds for the small single-op probes
  used in the tests.

* :func:`check_parameter_groups` samples elements from each parameter of a
  full network and compares the float32 tape gradient against complex-step
  derivatives of a float64 reference of the same scalar.  Probes run
  ``PROBE_CHUNK`` at a time as the rows of a leading probe axis, each row
  still one complex step on one element.  Errors are normalized by each
  group's gradient scale and reported once per group.
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
    skipped: int = 0  # always 0, as every candidate is probed; perfbench/tracer.py reads it


def default_group(name: str) -> str:
    """Group parameters by layer: drop the trailing ``.weight`` / ``.bias``."""
    return name.rsplit(".", 1)[0]


COMPLEX_STEP = 1e-30
# Probes per reference call, chosen by measurement on the gradcheck CLI at
# size 8, 8 channels, 3 nodes and 3 loops (one BLAS thread): a check takes
# about 9.4 s at 1, 2.7 s at 6 and 2.1 s at 8, and its peak RSS is 2.9% above
# the one-probe-per-call reference's at 6 but 5.8% above it at 8.
PROBE_CHUNK = 6


def check_parameter_groups(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    reference: Callable[[Mapping[str, np.ndarray]], np.ndarray],
    samples_per_tensor: int = 6,
    seed: int = 0,
) -> dict[str, GroupReport]:
    """Sampled complex-step check of ``f`` against every parameter.

    Analytic gradients come from one taped backward pass of ``f``.  The
    numeric side is the complex-step derivative of ``reference`` -- a
    float64 re-implementation of the same scalar that also runs on complex
    arrays, called with a name -> array mapping in which any array may
    carry a leading probe axis of length K, and returning shape ``(K,)``.
    The reference takes every ReLU, max-pool, |x| and sqrt branch on the
    real part with the tape's tie rule, so a probe that sits exactly on a
    kink measures the slope the tape takes there.  Parameters are grouped
    by layer (:func:`default_group`).

    For each parameter tensor the element with the largest analytic
    gradient is probed, then seeded random elements, up to
    ``samples_per_tensor`` probes.  The probes are evaluated in chunks of
    ``PROBE_CHUNK``, one reference call per chunk.  Each tensor probed in a
    chunk gets a complex128 probe axis; row k adds ``i * COMPLEX_STEP`` to
    the element of probe k and its derivative is
    ``reference(arrays)[k].imag / COMPLEX_STEP``: no subtraction and so no
    rounding noise, and no step size to tune.  Tensors no probe of the
    chunk touches stay real and unbatched.

    Within each group the reported error is
    ``max |a - n| / max(group gradient scale, 1e-8)`` where the scale is
    the largest ``max(|a|, |n|)`` seen in the group.  ``GroupReport.skipped``
    is always 0: every candidate is probed.
    """
    if samples_per_tensor < 1:
        raise ValueError(
            f"check_parameter_groups: samples_per_tensor must be at least 1, got {samples_per_tensor}"
        )
    analytic = dict(zip(params, _analytic_grads(lambda *_: f(), list(params.values()))))

    rng = np.random.default_rng(seed)
    probes: list[tuple[str, int]] = []
    for name, t in params.items():
        grads = analytic[name].reshape(-1)
        candidates = [int(np.argmax(np.abs(grads)))]
        if t.size > 1:
            order = rng.permutation(t.size)
            candidates += [int(i) for i in order if int(i) != candidates[0]]
        probes += [(name, j) for j in candidates[:samples_per_tensor]]

    plain = {name: t.data.astype(np.float64) for name, t in params.items()}
    numeric: list[float] = []
    for start in range(0, len(probes), PROBE_CHUNK):
        chunk = probes[start : start + PROBE_CHUNK]
        arrays = dict(plain)
        for row, (name, j) in enumerate(chunk):
            if arrays[name] is plain[name]:
                stack = np.broadcast_to(plain[name], (len(chunk),) + plain[name].shape)
                arrays[name] = stack.astype(np.complex128)
            arrays[name].reshape(len(chunk), -1)[row, j] += 1j * COMPLEX_STEP
        rows = np.asarray(reference(arrays))
        if rows.shape != (len(chunk),):
            raise ShapeError(
                f"check_parameter_groups: reference gave shape {rows.shape} for {len(chunk)} probes"
            )
        numeric += [float(v) for v in rows.imag / COMPLEX_STEP]

    pairs: dict[str, list[tuple[float, float]]] = {}
    for (name, j), n in zip(probes, numeric):
        pairs.setdefault(default_group(name), []).append((float(analytic[name].flat[j]), n))

    reports: dict[str, GroupReport] = {}
    for group, ab in pairs.items():
        scale = max(max(abs(a), abs(n)) for a, n in ab)
        err = max(abs(a - n) for a, n in ab) / max(scale, 1e-8)
        reports[group] = GroupReport(group, err, scale, len(ab))
    return reports
