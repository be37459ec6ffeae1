"""Byte mutations of every reader's input: each loads or raises its own module's error.

A reader of outside bytes may refuse them only with the error its callers
catch (``CheckpointError``, ``ParseError``, or ``ValueError`` from
``FusionConfig``), never with another exception, and within a deadline
per example, so that no mutation makes it size anything from a header.
"""

import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
