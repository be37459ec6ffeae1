#!/usr/bin/env python3
"""Run one benchmark workload in this process and print one JSON line.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a run with every layer wrapped (see ``tracer.py``).
Inputs and checkpoints go to ``perfbench/.work/`` and are removed at exit;
the exact counts a traced run must repeat are kept in ``perfbench/.counts/``.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the sources are missing.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3  # setups per run; setup_s takes their median
SEED_FREE_COUNTS = ("tensor.records", "ops.conv2d", "ops.conv2d.flop")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-64", "fuse-vga", "gradcheck-8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_counts(workload: str, seed: int, counts: dict) -> None:
    """Compare exact counts with the last traced run of the same sources, then store them."""
    import checks

    program = hashlib.sha256(b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest()
    path = HERE / ".counts" / f"{workload}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if stored.get("program") != program:
        stored = {"program": program, "any_seed": {}, "seeds": {}}
    seed_free = {k: counts[k] for k in SEED_FREE_COUNTS}
    seeded = {k: v for k, v in counts.items() if k not in SEED_FREE_COUNTS}
    checks.check_counts_repeat(stored["any_seed"], seed_free, workload)
    checks.check_counts_repeat(stored["seeds"].get(str(seed), {}), seeded, f"{workload} seed {seed}")
    stored["any_seed"] = seed_free
    stored["seeds"][str(seed)] = seeded
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1))
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphfusion").is_dir():
        print(f"error: no graphfusion sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads: the program is single-threaded
    # by design, and a second thread made timings noisier for little gain.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    import_s = perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload]()
    workdir = HERE / ".work"
    setups = []
    for _ in range(SETUPS):
        workloads.fresh_dir(workdir)
        start = perf_counter()
        state = workload.setup(args.seed, workdir)
        setups.append(perf_counter() - start)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(peak_memory=workload.kind == "fuse").install()
    try:
        outcome = workload.measure(state, args.seconds)
    finally:
        if tracer is not None:
            tracer.remove()

    errors = []
    try:
        workload.check(state)
        if tracer is not None:
            check_counts(args.workload, args.seed, tracer.exact_counts(outcome.n_ops))
    except checks.CheckFailed as exc:
        errors.append(str(exc))
    shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = tracer.metrics(workload.kind, outcome.n_ops, outcome.op_times, outcome.wall, outcome.layer)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(outcome.op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    # An operation that goes wrong fails a check, so none is counted as failed.
    result = {"correct": not errors, "attempted": outcome.attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
