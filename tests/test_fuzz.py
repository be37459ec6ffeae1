"""Byte mutations of every reader's input: each loads or raises its own module's error.

A reader of outside bytes may refuse them only with the error its callers
catch (``CheckpointError``, ``ParseError``, or ``ValueError`` from
``FusionConfig``), never with another exception, and within a deadline
per example, so that no mutation makes it size anything from a header.
Through the CLI, the same mutations make ``fuse``, ``eval`` and ``train``
exit 0 or 2, with no traceback.
"""

import contextlib
import io
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphfusion import cli
from graphfusion.config import FusionConfig
from graphfusion.images import ParseError, encode_netpbm, parse_netpbm
from graphfusion.network import CheckpointError, init_params, load_checkpoint, save_checkpoint

fuzz = settings(max_examples=300, deadline=timedelta(milliseconds=500), derandomize=True)


@st.composite
def mutated(draw, blob: bytes, head: int) -> bytes:
    """``blob`` after one to four overwrites, insertions or deletions.

    Half the edits land in the first ``head`` bytes, where the header that
    sizes everything after it lives.
    """
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, min(head, len(out))) | st.integers(0, len(out)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        kind = draw(st.sampled_from(("overwrite", "insert", "delete")))
        if kind == "overwrite":
            out[at : at + len(chunk)] = chunk
        elif kind == "insert":
            out[at:at] = chunk
        else:
            del out[at : at + len(chunk)]
    return bytes(out)


def small_checkpoint() -> bytes:
    config = FusionConfig(channels=4, nodes=1, loops=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        return path.read_bytes()


CHECKPOINT = small_checkpoint()
PGM = encode_netpbm(np.random.default_rng(0).uniform(size=(3, 4)))
PPM = encode_netpbm(np.random.default_rng(1).uniform(size=(2, 3, 3)))
# Header tokens, so that arbitrary headers also hold numbers, comments and
# whitespace runs, not only bytes that fail at the first integer.  The
# longest is past Python's limit of 4300 digits for ``int``.
TOKENS = [b" ", b"\n", b"\t", b"#", b"#c\n", b"0", b"1", b"9", b"255", b"4294967296", b"1" * 4301, b"x", b"P6"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@fuzz
@given(blob=mutated(CHECKPOINT, head=400))
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(workdir, blob):
    path = workdir / "mutated.ckpt"
    path.write_bytes(blob)
    try:
        params, config = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(np.all(np.isfinite(t.data)) for t in params.values())


@fuzz
@given(blob=mutated(PGM, head=16) | mutated(PPM, head=16))
def test_mutated_netpbm_parses_or_raises_parse_error(blob):
    try:
        image = parse_netpbm(blob)
    except ParseError:
        return
    assert image.dtype == np.float32 and 0.0 <= image.min() and image.max() <= 1.0


@fuzz
@given(
    magic=st.sampled_from([b"P5", b"P6"]),
    header=st.binary(max_size=24) | st.lists(st.sampled_from(TOKENS), max_size=12).map(b"".join),
)
def test_arbitrary_netpbm_header_parses_or_raises_parse_error(magic, header):
    try:
        parse_netpbm(magic + header + PPM[-18:])
    except ParseError:
        pass


@fuzz
@given(blob=mutated(FusionConfig().to_json().encode(), head=400))
def test_mutated_config_json_loads_or_raises_value_error(blob):
    try:
        FusionConfig.from_json(blob.decode("latin-1"))
    except ValueError:
        pass


# The CLI runs the network on what it reads, so it gets 16x16 frames: large
# enough for eval's SSIM window, small enough to fuse in milliseconds.
CLI_PGM = encode_netpbm(np.random.default_rng(2).uniform(size=(16, 16)))
CLI_PPM = encode_netpbm(np.random.default_rng(3).uniform(size=(16, 16, 3)))
cli_fuzz = settings(fuzz, max_examples=150)
# One file of the fuse and eval inputs, mutated: (role, bytes).
cli_inputs = (
    mutated(CHECKPOINT, head=400).map(lambda b: ("ckpt", b))
    | mutated(CLI_PGM, head=16).map(lambda b: ("ir", b))
    | mutated(CLI_PPM, head=16).map(lambda b: ("vis", b))
)


def run_cli(argv: list[str]) -> int:
    """``cli.main(argv)``'s exit code, after checking that it printed no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


def cli_files(root: Path, role: str, blob: bytes) -> dict[str, Path]:
    """A checkpoint and one pair under ``root``, as ``eval`` reads them, with the file of ``role`` replaced by ``blob``."""
    files = {"ckpt": root / "model.ckpt", "ir": root / "ir" / "p0.pgm", "vis": root / "vis" / "p0.ppm"}
    for name, data in (("ckpt", CHECKPOINT), ("ir", CLI_PGM), ("vis", CLI_PPM)):
        files[name].parent.mkdir(exist_ok=True)
        files[name].write_bytes(blob if name == role else data)
    return files


@cli_fuzz
@given(case=cli_inputs)
def test_fuse_of_mutated_inputs_exits_0_or_2(workdir, case):
    files = cli_files(workdir, *case)
    argv = ["fuse", "--checkpoint", str(files["ckpt"]), "--ir", str(files["ir"]), "--vis", str(files["vis"])]
    assert run_cli(argv + ["--out", str(workdir / "fused.pgm")]) in (0, 2)


@cli_fuzz
@given(case=cli_inputs)
def test_eval_of_mutated_inputs_exits_0_or_2(workdir, case):
    files = cli_files(workdir, *case)
    argv = ["eval", "--checkpoint", str(files["ckpt"]), "--ir-dir", str(files["ir"].parent)]
    argv += ["--vis-dir", str(files["vis"].parent), "--report", str(workdir / "report.csv")]
    assert run_cli(argv) in (0, 2)


@cli_fuzz
@given(blob=mutated(FusionConfig().to_json().encode(), head=400))
def test_train_with_a_mutated_config_exits_2(workdir, blob):
    # ``train --config`` bounds no size yet, so its data directories are
    # empty: it exits at ``pair_directory``, before anything is sized.
    config, ir, vis = workdir / "train.json", workdir / "no-ir", workdir / "no-vis"
    config.write_bytes(blob)
    ir.mkdir(exist_ok=True)
    vis.mkdir(exist_ok=True)
    argv = ["train", "--config", str(config), "--ir-dir", str(ir), "--vis-dir", str(vis)]
    assert run_cli(argv + ["--out", str(workdir / "trained.ckpt")]) == 2
