"""Network assembly: parameter table, init, forward pass, checkpoints.

Parameters are a plain ``dict`` from name to Tensor whose layout is a pure
function of the config (see :func:`parameter_shapes`).  Every weight is a
conv kernel.  Initialization is He-normal on the weights (variance
2 / fan_in) with zero biases, drawn in table order from a seeded
generator, so a (config, seed) pair always produces bit-identical
parameters.

Checkpoints are a flat binary format: magic ``IGN1``, a little-endian u32
version (1), a length-prefixed UTF-8 JSON config blob, a u32 tensor count,
then per tensor a length-prefixed name, a u32 rank, u32 dims, and the raw
little-endian float32 data in C order.  The records follow the parameter
table in its order, one per entry: the reader checks each record's name,
rank and dims against the next entry of the stored config's table before
it reads the data, and builds no table, so reading a file costs no more
than the file's own records, whatever size its config describes.
Checkpoints written while the squeeze-excite layers (``salience.*.fc1``,
``salience.*.fc2``) were fully connected store those weights as (out, in);
they load as the (out, in, 1, 1) kernels, which hold the same values in the
same order.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import ops
from .backbone import MODALITIES, extract, feature_depth
from .config import FusionConfig, write_atomic
from .graph import edge_pairs, loop_prefix, node_pools, run_graph
from .tensor import ShapeError, Tensor

CHECKPOINT_MAGIC = b"IGN1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint data."""


def parameter_shapes(config: FusionConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table; the single source of parameter layout."""
    return dict(_layout(config.validate()))


def _layout(config: FusionConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yield :func:`parameter_shapes`' entries in order, one at a time."""
    c = config.channels

    def conv(name: str, out_c: int, in_c: int, k: int) -> Iterator[tuple[str, tuple[int, ...]]]:
        yield f"{name}.weight", (out_c, in_c, k, k)
        yield f"{name}.bias", (out_c,)

    depth = feature_depth(config)
    for m in MODALITIES:
        yield from conv(f"extract.{m}.conv1", c, 1, 3)
        if depth > 1:
            yield from conv(f"extract.{m}.conv2", c, c, 3)
    if depth > 2:
        hidden = c // config.reduction
        for m in MODALITIES:
            yield from conv(f"salience.{m}.conv", c, c, 3)
            yield from conv(f"salience.{m}.fc1", hidden, c, 1)
            yield from conv(f"salience.{m}.fc2", c, hidden, 1)
    if config.use_graph:
        # Each loop adds what ``graph._run_loop`` reads; shared loops all
        # read loop 1's.  One edge conv per pair group, in the order the
        # pairs first use it; two nodes already have every group.
        groups = dict.fromkeys(group for _, _, group in edge_pairs(min(config.nodes, 2)))
        for loop in range(1, 2 if config.share_loop_params else config.loops + 1):
            prefix = loop_prefix(config, loop)
            for o in range(config.nodes):
                for m in MODALITIES:
                    yield from conv(f"{prefix}.node{o}.{m}", c, c, 1)
            for group in groups:
                yield from conv(f"{prefix}.{group}", c, c, 3)
            for m in MODALITIES:
                yield from conv(f"{prefix}.update.{m}", c, c, 3)
            for m in MODALITIES:
                yield from conv(f"{prefix}.leader.{m}", c, config.nodes * c, 1)
            if config.use_leader and loop < config.loops:
                for o in range(config.nodes):
                    for m in MODALITIES:
                        yield from conv(f"{prefix}.deliver{o}.{m}", c, c, 3)
        for m in MODALITIES:
            yield from conv(f"graph.mix.{m}", c, config.loops * c, 1)
    yield from conv("head.conv1", c, 2 * c, 3)
    yield from conv("head.conv2", 1, c, 3)


def count_parameters(config: FusionConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Zero-mean normal with variance 2 / fan_in, float32, for a conv kernel; fan_in is ``in_ch * kh * kw``."""
    if len(shape) != 4:
        raise ShapeError(f"he_normal: unsupported weight shape {shape}")
    std = float(np.sqrt(2.0 / (shape[1] * shape[2] * shape[3])))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def init_params(config: FusionConfig, seed: int | None = None) -> dict[str, Tensor]:
    """Deterministically initialize every parameter the config calls for."""
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = he_normal(rng, shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return tensors


def forward(ir: Tensor, vis: Tensor, params: Mapping[str, Tensor], config: FusionConfig) -> Tensor:
    """Fuse a batch of image pairs; returns (N, 1, H, W) in (0, 1).

    Outside a tape every full-resolution map is freed after its last
    reader.  The graph reads a backbone stage only through its node pools
    (:func:`graph.node_pools`), so each branch's stages are pooled as soon
    as the branch returns them and then dropped: no stage outlives its
    branch.  Under a tape the records keep, until the tape is cleared,
    only the maps that some backward reads; the rest are freed as outside
    a tape.
    """
    if ir.shape != vis.shape:
        raise ShapeError(f"forward: input shapes differ, {ir.shape} vs {vis.shape}")
    if config.use_graph:
        pools = {
            m: [node_pools(stage, config.nodes) for stage in extract(image, params, m, config)]
            for m, image in zip(MODALITIES, (ir, vis))
        }
        g_ir, g_vis = run_graph(pools["ir"], pools["vis"], ir.shape[2:], params, config)
    else:
        g_ir, g_vis = extract(ir, params, "ir", config)[-1], extract(vis, params, "vis", config)[-1]
    h = ops.relu(ops.conv2d([g_ir, g_vis], params["head.conv1.weight"], params["head.conv1.bias"], padding=1))
    return ops.sigmoid(ops.conv2d(h, params["head.conv2.weight"], params["head.conv2.bias"], padding=1))


def fuse_arrays(ir: np.ndarray, vis: np.ndarray, params: Mapping[str, Tensor], config: FusionConfig) -> np.ndarray:
    """Fuse two (H, W) float arrays, finite as float32, outside any tape; returns (H, W)."""
    if ir.shape != vis.shape or ir.ndim != 2:
        raise ShapeError(f"fuse_arrays: need two equal (H, W) arrays, got {ir.shape} and {vis.shape}")
    images = []
    for name, arr in (("ir", ir), ("vis", vis)):
        # Checked after the cast to float32, where a finite float64 beyond its
        # range becomes inf.  One NaN would reach every output pixel through
        # the global pools.
        with np.errstate(over="ignore"):
            image = Tensor(arr.reshape(1, 1, *arr.shape))
        if not np.all(np.isfinite(image.data)):
            raise ValueError(f"fuse_arrays: {name} holds non-finite values")
        images.append(image)
    return forward(*images, params, config).data[0, 0].copy()


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path: str | Path, params: Mapping[str, Tensor], config: FusionConfig) -> None:
    """Write a checkpoint atomically, through :func:`write_atomic`, its records in table order.

    ``params`` must hold exactly the names of the config's table; otherwise
    nothing is written and ``ValueError`` names the difference.
    """
    # Names only: the shapes written are the tensors' own (see load_checkpoint).
    names = [name for name, _ in _layout(config.validate())]
    if params.keys() != set(names):
        missing, unexpected = sorted(set(names) - params.keys()), sorted(params.keys() - set(names))
        raise ValueError(f"parameters differ from the config's table: missing {missing}, unexpected {unexpected}")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    config_bytes = json.dumps(config.to_dict()).encode("utf-8")
    blob += struct.pack("<I", len(config_bytes))
    blob += config_bytes
    blob += struct.pack("<I", len(names))
    for name in names:
        tensor = params[name]
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    write_atomic(path, blob)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint: {what} at byte {self.pos}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], FusionConfig]:
    """Read a checkpoint and the config stored in it.

    Each stored record must be the next entry of the stored config's
    layout (:func:`parameter_shapes`), in name, rank and dims, checked
    before its data is read; an entry with no record is missing.
    A parameter holding a NaN or an infinity is rejected by name as well.
    A stored (o, i) weight is read as the (o, i, 1, 1) kernel its entry
    asks for (see the module docstring).
    """
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    config_len = reader.u32("config length")
    try:
        config = FusionConfig.from_json(reader.take(config_len, "config blob").decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"bad config blob: {exc}") from exc
    layout = _layout(config)
    count = reader.u32("tensor count")
    params: dict[str, Tensor] = {}
    for _ in range(count):
        name_len = reader.u32("name length")
        try:
            name = reader.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"bad parameter name before byte {reader.pos}: {exc}") from exc
        want, shape = next(layout, (None, ()))
        if name != want:
            raise CheckpointError(f"unexpected parameter {name}, expected {want or 'no more parameters'}")
        rank = reader.u32("rank")
        if rank != len(shape) and not (rank == 2 and shape[2:] == (1, 1)):
            raise CheckpointError(f"parameter {name} has rank {rank}, config expects shape {shape}")
        dims = tuple(reader.u32(f"dim of {name}") for _ in range(rank))
        if dims != shape[:rank]:
            raise CheckpointError(f"parameter {name} has shape {dims}, config expects {shape}")
        data = np.frombuffer(reader.take(math.prod(shape) * 4, f"data of {name}"), dtype="<f4")
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"parameter {name} holds non-finite values")
        params[name] = Tensor(data.reshape(shape).astype(np.float32), requires_grad=True)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"trailing bytes after tensor data (byte {reader.pos})")
    if (left := next(layout, None)) is not None:
        raise CheckpointError(f"missing parameter {left[0]}")
    return params, config
