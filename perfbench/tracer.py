"""Per-layer spans taken from outside the program.

:class:`Tracer` rebinds the module attributes through which callers reach
each layer (``network.extract``, ``trainer.adam_step``, ``ops.conv2d``,
``Tape.backward``, ...) to timing wrappers, and restores them on
:meth:`Tracer.remove`.  The program itself is not changed: a wrapper sits
under exactly the name its caller looks up, so a binding made at import
(``from .network import forward`` in ``trainer``) is wrapped in the
importing module.

Op forward time is self time: an op that calls another op
(``global_avgpool`` calls ``adaptive_avgpool2d``) is charged only for its
own part.  Op backward time is taken by wrapping the closure each op hands
to ``ops.record_op``, and is charged to the innermost op that recorded it.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

from graphfusion import cli, graph, images, metrics, network, ops, tensor, trainer

NAMED_OPS = ("conv2d", "sigmoid", "upsample_bilinear", "adaptive_avgpool2d", "concat_channels")
GRAPH_STAGES = ("generate_nodes", "difference_edges", "pass_message", "update_node", "form_leader", "deliver")

# Every per-layer metric, in BENCHMARK.json order, with its unit.  Times and
# counts are per operation of the workload (train step, fused frame, full
# gradcheck) unless the README says otherwise.
PER_LAYER = {
    "tensor.records": "count",
    "tensor.records_unused": "count",
    "tensor.backward_s": "s",
    "tensor.clear_s": "s",
    **{
        f"ops.{op}.{what}": unit
        for op in NAMED_OPS + ("other",)
        for what, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))
    },
    "ops.conv2d.gflop": "GFLOP",
    "backbone.extract_s": "s",
    "backbone.peak_mb": "MB",
    "graph.run_graph_s": "s",
    **{f"graph.{stage}_s": "s" for stage in GRAPH_STAGES},
    "graph.peak_mb": "MB",
    "network.forward_s": "s",
    "network.head_s": "s",
    "losses.loss_components_s": "s",
    "trainer.adam_step_s": "s",
    "trainer.sample_crops_s": "s",
    "network.save_checkpoint_s": "s",
    "network.load_checkpoint_s": "s",
    "images.read_image_s": "s",
    "images.write_image_s": "s",
    "metrics.compute_metrics_s": "s",
    "reference.calls": "count",
    "reference.reference_loss_s": "s",
    "gradcheck.analytic_s": "s",
    "gradcheck.probes": "count",
    "gradcheck.probes_skipped": "count",
    "trace.op_s": "s",
    "trace.unaccounted_s": "s",
}

# Layer spans that do not nest inside each other, per workload; their sum
# should account for the traced operation's wall time.
TOP_LEVEL = {
    "train": (
        "network.forward",
        "losses.loss_components",
        "tensor.backward",
        "trainer.adam_step",
        "tensor.clear",
        "trainer.sample_crops",
        "network.save_checkpoint",
    ),
    "fuse": ("images.read_image", "network.forward", "images.write_image"),
    "gradcheck": ("gradcheck.analytic", "reference.reference_loss"),
}


def _public_ops() -> list[str]:
    """Every differentiable op: public functions defined in ``ops``."""
    return [
        name
        for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Accumulates seconds and counts per layer key while installed."""

    def __init__(self, peak_memory: bool = False):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.peak_memory = peak_memory
        self._undo: list[tuple[object, str, object]] = []
        self._op_stack: list[list] = []
        self._first_reference: float | None = None

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def install(self) -> "Tracer":
        span = self._span
        self._rebind(network, "extract", span("backbone.extract", self.peak_memory))
        self._rebind(network, "run_graph", span("graph.run_graph", self.peak_memory))
        for stage in GRAPH_STAGES:
            self._rebind(graph, stage, span(f"graph.{stage}"))
        for owner in (network, trainer, cli):
            self._rebind(owner, "forward", span("network.forward"))
        self._rebind(trainer, "loss_components", span("losses.loss_components"))
        self._rebind(trainer, "adam_step", span("trainer.adam_step"))
        self._rebind(trainer, "sample_crops", span("trainer.sample_crops"))
        self._rebind(trainer, "save_checkpoint", span("network.save_checkpoint"))
        self._rebind(images, "read_image", span("images.read_image"))
        self._rebind(images, "write_image", span("images.write_image"))
        self._rebind(metrics, "compute_metrics", span("metrics.compute_metrics"))
        self._rebind(cli, "reference_loss", self._reference)
        self._rebind(cli, "check_parameter_groups", self._check_groups)
        self._rebind(tensor.Tape, "backward", self._backward)
        self._rebind(tensor.Tape, "clear", span("tensor.clear"))
        for name in _public_ops():
            self._rebind(ops, name, functools.partial(self._op, name))
        self._rebind(ops, "record_op", self._record_op)
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, key: str, peak: bool = False):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if peak:
                    tracemalloc.start()
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[key] += perf_counter() - start
                    self.counts[key] += 1
                    if peak:
                        mb = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                        self.peak_mb[key] = max(self.peak_mb[key], mb)

            return wrapper

        return make

    def _op(self, name: str, fn):
        key = f"ops.{name if name in NAMED_OPS else 'other'}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]  # op key, seconds spent in nested ops
            self._op_stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._op_stack.pop()
                if self._op_stack:
                    self._op_stack[-1][1] += elapsed
                self.seconds[f"{key}.fwd"] += elapsed - frame[1]
                self.counts[key] += 1
            if name == "conv2d":
                kernel = args[1]
                self.counts["ops.conv2d.flop"] += 2 * out.size * (kernel.size // kernel.shape[0])
            return out

        return wrapper

    def _record_op(self, fn):
        def record_op(output_data, inputs, backward):
            key = self._op_stack[-1][0] if self._op_stack else "ops.other"

            def timed_backward(grad):
                start = perf_counter()
                backward(grad)
                self.seconds[f"{key}.bwd"] += perf_counter() - start

            return fn(output_data, inputs, timed_backward)

        return record_op

    def _backward(self, fn):
        def backward(tape, loss):
            start = perf_counter()
            fn(tape, loss)
            self.seconds["tensor.backward"] += perf_counter() - start
            self.counts["tensor.records"] += len(tape)
            # A record whose output never got a gradient was skipped in replay.
            self.counts["tensor.records_unused"] += sum(out.grad is None for out, _ in tape._records)

        return backward

    def _reference(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            if self._first_reference is None:
                self._first_reference = start
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds["reference.reference_loss"] += perf_counter() - start
                self.counts["reference.calls"] += 1

        return wrapper

    def _check_groups(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._first_reference = None
            start = perf_counter()
            reports = fn(*args, **kwargs)
            # The taped forward and backward run before the first probe.
            self.seconds["gradcheck.analytic"] += (self._first_reference or perf_counter()) - start
            self.counts["gradcheck.probes"] += sum(r.samples for r in reports.values())
            self.counts["gradcheck.probes_skipped"] += sum(r.skipped for r in reports.values())
            return reports

        return wrapper

    # -- results ----------------------------------------------------------

    def exact_counts(self, n_ops: int) -> dict[str, float]:
        """Counts per operation that must repeat exactly between runs."""
        per_op = {}
        for key in ("tensor.records", "ops.conv2d", "ops.conv2d.flop", "reference.calls", "gradcheck.probes"):
            total = self.counts[key]
            per_op[key] = total // n_ops if total % n_ops == 0 else total / n_ops
        return per_op

    def metrics(self, kind: str, n_ops: int, op_times: list[float], wall: float, extra: dict[str, float]) -> dict:
        """Every per-layer metric, normalized per operation of the workload."""
        s = {k: v / n_ops for k, v in self.seconds.items()}
        c = {k: v / n_ops for k, v in self.counts.items()}
        counts = self.exact_counts(n_ops)
        values = {
            "tensor.records": counts["tensor.records"],
            "tensor.records_unused": c.get("tensor.records_unused", 0),
            "tensor.backward_s": s.get("tensor.backward", 0.0),
            "tensor.clear_s": s.get("tensor.clear", 0.0),
            "ops.conv2d.gflop": counts["ops.conv2d.flop"] / 1e9,
            "backbone.extract_s": s.get("backbone.extract", 0.0),
            "backbone.peak_mb": self.peak_mb.get("backbone.extract", 0.0),
            "graph.peak_mb": self.peak_mb.get("graph.run_graph", 0.0),
            "network.head_s": s.get("network.forward", 0.0)
            - s.get("backbone.extract", 0.0)
            - s.get("graph.run_graph", 0.0),
            "reference.calls": counts["reference.calls"],
            "reference.reference_loss_s": self.seconds.get("reference.reference_loss", 0.0)
            / max(self.counts.get("reference.calls", 0), 1),
            "gradcheck.probes": counts["gradcheck.probes"],
            "gradcheck.probes_skipped": c.get("gradcheck.probes_skipped", 0),
            "trace.op_s": statistics.median(op_times),
            "trace.unaccounted_s": wall / n_ops - sum(s.get(k, 0.0) for k in TOP_LEVEL[kind]),
        }
        values.update(extra)
        for op in NAMED_OPS + ("other",):
            values[f"ops.{op}.calls"] = c.get(f"ops.{op}", 0)
            values[f"ops.{op}.fwd_s"] = s.get(f"ops.{op}.fwd", 0.0)
            values[f"ops.{op}.bwd_s"] = s.get(f"ops.{op}.bwd", 0.0)
        for name, unit in PER_LAYER.items():
            if name not in values and name.endswith("_s"):
                values[name] = s.get(name[:-2], 0.0)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
