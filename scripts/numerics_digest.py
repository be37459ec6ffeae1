#!/usr/bin/env python3
"""Digest the package's numerics from fixed seeds, or compare two digests.

    python3 scripts/numerics_digest.py --out digest.json
    python3 scripts/numerics_digest.py --compare parent.json change.json

``--out`` runs four things on one BLAS thread:

- a default-config taped step on a batch of two 64x64 crops (init seed 3,
  uniform inputs from seed 0), giving its 4 losses, 130 parameter
  gradients, its tape's record count (``tape.records``) and the sign
  bitmap of every ``ops.relu`` input in call order (``relu.signs``);
- a 480x640 ``fuse_arrays`` of uniform frames with the same parameters;
- ``save_checkpoint`` of those parameters (``checkpoint.default``);
- the README's ``graphfusion gradcheck --size 8 --channels 8 --nodes 3
  --loops 3`` at seed 0, whose report is kept as text.

It writes each result's sha256 to the JSON file, with an array's largest
|entry| or a text itself, and the arrays themselves beside it, under the
same name with ``.npz``.  ``--compare`` prints one line per entry:
"identical", or how it differs: for an array the largest |Δ| over the
largest entry of the first digest, for a one-line text both values, for a
longer text its first differing line, for the checkpoint both digests, for
the ReLU signs how many inputs flipped sign.  A ReLU input within rounding
of 0 can flip with any reordering of a conv's sums, and a flipped unit
moves the gradients behind it, so the summary line counts flipped ReLUs
too.  When arrays of one shape differ, the summary line ends with the
largest of their ratios ("largest relative |d|") and that array's name.
It exits with 1 when any entry differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

# Before numpy loads: OpenBLAS sizes its thread pool once, on import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from graphfusion import FusionConfig, Tape, Tensor, forward, fuse_arrays, init_params, ops, save_checkpoint  # noqa: E402
from graphfusion.cli import main as cli_main  # noqa: E402
from graphfusion.losses import loss_components  # noqa: E402

GRADCHECK = ["gradcheck", "--size", "8", "--channels", "8", "--nodes", "3", "--loops", "3", "--seed", "0"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute() -> tuple[dict[str, np.ndarray], dict[str, str], bytes, np.ndarray]:
    """The digested arrays and texts by entry name, the checkpoint's bytes and the step's ReLU input signs."""
    config = FusionConfig()
    params = init_params(config, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "default.ckpt"
        save_checkpoint(path, params, config)
        checkpoint = path.read_bytes()
    rng = np.random.default_rng(0)
    ir, vis = (Tensor(rng.uniform(0.0, 1.0, size=(2, 1, 64, 64))) for _ in range(2))
    signs, relu = [], ops.relu

    def recording_relu(x: Tensor) -> Tensor:
        signs.append((x.data > 0).ravel())
        return relu(x)

    with Tape() as tape, mock.patch.object(ops, "relu", recording_relu):
        losses = loss_components(forward(ir, vis, params, config), ir, vis, config)
        records = len(tape)
        tape.backward(losses["total"])
    arrays = {f"loss.{name}": t.data for name, t in losses.items()}
    arrays.update((f"grad.{name}", p.grad) for name, p in params.items())
    tape.clear()
    frames = rng.uniform(0.0, 1.0, size=(2, 480, 640))
    arrays["fuse_arrays.480x640"] = fuse_arrays(frames[0], frames[1], params, config)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        cli_main(GRADCHECK)
    texts = {"tape.records": str(records), "gradcheck.report": report.getvalue()}
    return arrays, texts, checkpoint, np.concatenate(signs)


def write(path: Path) -> None:
    arrays, texts, checkpoint, signs = compute()
    entries = {
        name: {"sha256": sha256(a.tobytes()), "max_abs": float(np.abs(a).max())} for name, a in arrays.items()
    }
    entries.update((name, {"sha256": sha256(text.encode()), "text": text}) for name, text in texts.items())
    entries["checkpoint.default"] = {"sha256": sha256(checkpoint)}
    packed = np.packbits(signs)
    entries["relu.signs"] = {"sha256": sha256(packed.tobytes()), "inputs": int(signs.size)}
    path.write_text(json.dumps(entries, indent=1) + "\n")
    np.savez(path.with_suffix(".npz"), **arrays, **{"relu.signs": packed})


def flipped(a: dict, b: dict, arrays_a, arrays_b) -> int | None:
    """How many ReLU inputs have another sign in digest ``b`` than in ``a``; None if the steps differ in inputs."""
    if a["inputs"] != b["inputs"]:
        return None
    return int(np.unpackbits(arrays_a["relu.signs"] ^ arrays_b["relu.signs"]).sum())


def difference(name: str, a: dict, b: dict, arrays_a, arrays_b) -> tuple[str, float | None]:
    """How entry ``name`` of digest ``b`` differs from that of ``a``, and for arrays of one shape the ratio of |Δ| to |entry|."""
    if "text" in a and "\n" not in a["text"] + b["text"]:
        return f"{a['text']} -> {b['text']}", None
    if "text" in a:
        lines_a, lines_b = a["text"].splitlines(), b["text"].splitlines()
        k = next((k for k, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y), min(len(lines_a), len(lines_b)))
        return f"differs from line {k + 1}", None
    if "inputs" in a:
        count = flipped(a, b, arrays_a, arrays_b)
        if count is None:
            return f"inputs {a['inputs']} -> {b['inputs']}", None
        return f"{count} of {a['inputs']} flipped sign", None
    if "max_abs" not in a:
        return f"sha256 {a['sha256']} -> {b['sha256']}", None
    x, y = arrays_a[name], arrays_b[name]
    if x.shape != y.shape:
        return f"shape {x.shape} -> {y.shape}", None
    delta = float(np.abs(x.astype(np.float64) - y).max())
    ratio = delta / a["max_abs"] if a["max_abs"] else float("inf")
    return f"max |d| {delta:.3e} over max |entry| {a['max_abs']:.3e} ({ratio:.3e})", ratio


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    arrays_a, arrays_b = (np.load(p.with_suffix(".npz")) for p in (path_a, path_b))
    differing, flips, worst = 0, None, None
    if "relu.signs" in a and "relu.signs" in b:
        flips = flipped(a["relu.signs"], b["relu.signs"], arrays_a, arrays_b)
    for name in sorted(a.keys() | b.keys()):
        ratio = None
        if name not in a or name not in b:
            line = f"only in {path_a if name in a else path_b}"
        elif a[name]["sha256"] == b[name]["sha256"]:
            line = "identical"
        else:
            line, ratio = difference(name, a[name], b[name], arrays_a, arrays_b)
        if ratio is not None and (worst is None or ratio > worst[0]):
            worst = ratio, name
        differing += line != "identical"
        print(f"{name}: {line}")
    summary = f"{len(a.keys() | b.keys()) - differing} identical, {differing} differ, {'?' if flips is None else flips} flipped ReLUs"
    if worst is not None:
        summary += f", largest relative |d| {worst[0]:.3e} ({worst[1]})"
    print(summary)
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the digest here, and its arrays beside it as .npz")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two digests")
    args = parser.parse_args()
    if args.out is not None:
        write(args.out)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
