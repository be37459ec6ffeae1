"""Dense float32 tensors and a replayable gradient tape.

The autograd model is deliberately small: every differentiable operation
(see :mod:`graphfusion.ops`) records one entry on the :class:`Tape` that
is recording on the calling thread, and records nothing when none is.
A tensor's gradient lives apart from its data, in a :class:`GradSlot`
the tensor shares with the tape, so a record holds its output's slot and
a backward closure that keeps only the arrays it reads: a map no
backward reads is freed once the forward code drops it.  Calling
``tape.backward(loss)`` seeds ``d loss = 1`` and replays the records in
reverse order, accumulating gradients into the slot of every tensor that
requires them; each op output's gradient is dropped once its record has
replayed, so only the leaves keep theirs.  Only this module writes a
gradient: an op's backward computes each input's delta and hands it to
:func:`accumulate`, which copies the first delta into the slot and adds
every later one in place.  One tape records per thread at a time:
entering a second one on a thread that already has one raises
``RuntimeError``.  Tensors touched by no tape are plain immutable values
and are safe to share across threads; parallel work, when any, must use
one tape per thread.  Inside one op, :mod:`graphfusion.ops` may share a
large conv's bands or a message's chunks with a helper thread; the helper
runs no op and touches no tape, and is joined before the op records.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_TLS = threading.local()


def active_tape() -> "Tape | None":
    """The tape recording on this thread, if any."""
    return getattr(_TLS, "tape", None)


class GradSlot:
    """The gradient half of a tensor: ``grad`` and ``requires_grad``.

    A tape record and a backward closure hold a tensor's slot, never the
    tensor, so holding a gradient target keeps no data alive.
    """

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad


class Tensor:
    """A dense N-dimensional float32 array with an optional gradient buffer.

    ``data`` is always a C-contiguous float32 ndarray.  ``grad`` starts as
    None (meaning zero) and is allocated lazily during backward replay.
    After ``Tape.backward`` only leaves hold one: an intermediate's gradient
    lives from its first write until its record has replayed.
    ``requires_grad`` marks leaves (parameters, probed inputs); outputs of
    recorded ops inherit it so gradients can flow through intermediates.
    Both live in the tensor's ``slot`` (:class:`GradSlot`) and read and
    write through it, so the tape can hold them without ``data``.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        # Not ascontiguousarray: that would promote 0-d scalars to shape (1,).
        self.data = np.asarray(data, dtype=np.float32, order="C")
        self.slot = GradSlot(bool(requires_grad))

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.slot.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.slot.requires_grad = bool(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """A defensive copy of the underlying array."""
        return self.data.copy()

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def full(shape, value: float, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=np.float32), requires_grad=requires_grad)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Ordered record of executed operations for reverse-mode replay.

    Used as a context manager::

        with Tape() as tape:
            loss = some_scalar_pipeline(x)
            tape.backward(loss)
        tape.clear()

    Each record pairs an op's output slot with a closure that pushes the
    output's gradient into the slots of the op's inputs; the closure keeps
    only the arrays its backward reads, so the tape holds no op output or
    input for its own sake.  ``backward`` must be given a
    single-element tensor and replays the records newest-first, so a record
    sees the fully accumulated gradient of its output.  It then drops that
    gradient: after ``backward`` only the leaves (tensors no record made)
    hold gradients, and a second ``backward`` adds the same gradients to
    them again.  ``clear`` resets every gradient the tape touched back to
    zero (drops the buffer) and empties the record list, making the tape
    reusable.
    """

    def __init__(self):
        self._records: list[tuple[GradSlot, Callable[[np.ndarray], None]]] = []
        self._touched: list[GradSlot] = []

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a tape is already recording on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TLS.tape = None

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        output: Tensor,
        inputs: Sequence[Tensor],
        backward: Callable[[np.ndarray], None],
    ) -> None:
        """Append one op.  ``backward`` receives d(loss)/d(output).

        Only the slots of ``output`` and ``inputs`` are kept, not the tensors.
        """
        self._records.append((output.slot, backward))
        self._touched.append(output.slot)
        self._touched.extend(t.slot for t in inputs)

    def backward(self, loss: Tensor) -> None:
        """Seed ``d loss = 1`` and replay all records in reverse order.

        Each record's output gradient is dropped once the record has run,
        so afterwards only leaves hold gradients, and calling ``backward``
        again accumulates the same gradients into them once more.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise RuntimeError("loss does not depend on any tensor recorded on this tape")
        loss.grad = np.ones_like(loss.data)
        for output, backward in reversed(self._records):
            if output.grad is None:
                continue
            backward(output.grad)
            # Every record's output is an intermediate, and its gradient was
            # complete when replay reached it.  Its buffer is the seed or
            # ``accumulate``'s copy of its first delta, so nothing else holds
            # it.  Dropping it now frees the buffer as soon as the record's
            # inputs have their share.
            output.grad = None

    def clear(self) -> None:
        """Drop all records and zero every gradient this tape touched."""
        for slot in self._touched:
            slot.grad = None
        self._records.clear()
        self._touched.clear()


def accumulate(slot: GradSlot, delta: np.ndarray) -> None:
    """Add ``delta`` into ``slot.grad`` if the slot participates in gradients.

    A :class:`Tensor` serves as well, since it reads and writes through its slot.
    """
    if not slot.requires_grad:
        return
    if slot.grad is None:
        # A copy, not zeros plus delta: one pass instead of two.  It must be
        # a copy, since ``delta`` may be another tensor's gradient or a view.
        slot.grad = np.array(delta, dtype=np.float32, order="C")
    else:
        slot.grad += delta


def record_op(
    output_data: np.ndarray,
    inputs: Sequence[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Wrap an op's forward result, recording it when a tape is active.

    Without one, ``backward`` is dropped here, and with it what it holds.
    """
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(output_data, requires_grad=needs)
    if needs:
        tape.record(out, inputs, backward)
    return out
