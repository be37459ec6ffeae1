"""Network assembly: parameter table, init, forward pass, checkpoints.

Parameters live in an ordered name -> Tensor map whose layout is a pure
function of the config (see :func:`parameter_shapes`).  Initialization is
He-normal on conv and linear weights (variance 2 / fan_in) with zero
biases, drawn in table order from a seeded generator, so a (config, seed)
pair always produces bit-identical parameters.

Checkpoints are a flat binary format: magic ``IGN1``, a little-endian u32
version (1), a length-prefixed UTF-8 JSON config blob, a u32 tensor count,
then per tensor a length-prefixed name, a u32 rank, u32 dims, and the raw
little-endian float32 data in C order.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .backbone import MODALITIES, extract, feature_depth
from .config import FusionConfig
from .graph import run_graph
from .tensor import ShapeError, Tensor

CHECKPOINT_MAGIC = b"IGN1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint data."""


def parameter_shapes(config: FusionConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table; the single source of parameter layout."""
    config.validate()
    c = config.channels
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name: str, out_c: int, in_c: int, k: int) -> None:
        shapes[f"{name}.weight"] = (out_c, in_c, k, k)
        shapes[f"{name}.bias"] = (out_c,)

    def linear(name: str, out_f: int, in_f: int) -> None:
        shapes[f"{name}.weight"] = (out_f, in_f)
        shapes[f"{name}.bias"] = (out_f,)

    depth = feature_depth(config)
    for m in MODALITIES:
        conv(f"extract.{m}.conv1", c, 1, 3)
        if depth > 1:
            conv(f"extract.{m}.conv2", c, c, 3)
    if depth > 2:
        hidden = c // config.reduction
        for m in MODALITIES:
            conv(f"salience.{m}.conv", c, c, 3)
            linear(f"salience.{m}.fc1", hidden, c)
            linear(f"salience.{m}.fc2", c, hidden)
    if config.use_graph:
        stored_loops = 1 if config.share_loop_params else config.loops
        for i in range(1, stored_loops + 1):
            prefix = f"graph.loop{i}"
            for o in range(config.nodes):
                for m in MODALITIES:
                    conv(f"{prefix}.node{o}.{m}", c, c, 1)
            if config.nodes >= 2:
                for m in MODALITIES:
                    conv(f"{prefix}.intra.{m}", c, c, 3)
            conv(f"{prefix}.inter", c, c, 3)
            for m in MODALITIES:
                conv(f"{prefix}.update.{m}", c, c, 3)
            for m in MODALITIES:
                conv(f"{prefix}.leader.{m}", c, config.nodes * c, 1)
            delivers = config.use_leader and (i < config.loops or (config.share_loop_params and config.loops > 1))
            if delivers:
                for o in range(config.nodes):
                    for m in MODALITIES:
                        conv(f"{prefix}.deliver{o}.{m}", c, c, 3)
        for m in MODALITIES:
            conv(f"graph.mix.{m}", c, config.loops * c, 1)
    conv("head.conv1", c, 2 * c, 3)
    conv("head.conv2", 1, c, 3)
    return shapes


def count_parameters(config: FusionConfig) -> int:
    return sum(int(np.prod(s)) for s in parameter_shapes(config).values())


@dataclass
class NetworkParams:
    """Ordered name -> Tensor map plus the seed that produced it."""

    tensors: dict[str, Tensor]
    seed: int

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __iter__(self):
        return iter(self.tensors)

    def __len__(self) -> int:
        return len(self.tensors)

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Zero-mean normal with variance 2 / fan_in, float32.

    fan_in is ``in_ch * kh * kw`` for conv kernels and ``in_features`` for
    linear weights.
    """
    if len(shape) == 4:
        fan_in = shape[1] * shape[2] * shape[3]
    elif len(shape) == 2:
        fan_in = shape[1]
    else:
        raise ShapeError(f"he_normal: unsupported weight shape {shape}")
    std = float(np.sqrt(2.0 / fan_in))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def init_params(config: FusionConfig, seed: int | None = None) -> NetworkParams:
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
    return NetworkParams(tensors=tensors, seed=seed)


def forward(ir: Tensor, vis: Tensor, params: NetworkParams, config: FusionConfig) -> Tensor:
    """Fuse a batch of image pairs; returns (N, 1, H, W) in (0, 1)."""
    if ir.shape != vis.shape:
        raise ShapeError(f"forward: input shapes differ, {ir.shape} vs {vis.shape}")
    feats_ir = extract(ir, params, "ir", config)
    feats_vis = extract(vis, params, "vis", config)
    if config.use_graph:
        result = run_graph(feats_ir, feats_vis, params, config)
        g_ir, g_vis = result.g_ir, result.g_vis
    else:
        g_ir, g_vis = feats_ir[-1], feats_vis[-1]
    h = ops.concat_channels([g_ir, g_vis])
    h = ops.relu(ops.conv2d(h, params["head.conv1.weight"], params["head.conv1.bias"], 1, 1))
    return ops.sigmoid(ops.conv2d(h, params["head.conv2.weight"], params["head.conv2.bias"], 1, 1))


def fuse_arrays(ir: np.ndarray, vis: np.ndarray, params: NetworkParams, config: FusionConfig) -> np.ndarray:
    """Fuse two (H, W) float arrays outside any tape; returns (H, W)."""
    if ir.shape != vis.shape or ir.ndim != 2:
        raise ShapeError(f"fuse_arrays: need two equal (H, W) arrays, got {ir.shape} and {vis.shape}")
    out = forward(
        Tensor(ir.reshape(1, 1, *ir.shape)),
        Tensor(vis.reshape(1, 1, *vis.shape)),
        params,
        config,
    )
    return out.data[0, 0].copy()


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path: str | Path, params: NetworkParams, config: FusionConfig) -> None:
    """Write a checkpoint atomically.

    The bytes go to a temporary file next to ``path`` that then replaces
    it, so an interrupted write leaves the previous checkpoint intact.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    config_bytes = json.dumps(config.to_dict()).encode("utf-8")
    blob += struct.pack("<I", len(config_bytes))
    blob += config_bytes
    blob += struct.pack("<I", len(params))
    for name, tensor in params.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(bytes(blob))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def load_checkpoint(
    path: str | Path, expected_config: FusionConfig | None = None
) -> tuple[NetworkParams, FusionConfig]:
    """Read a checkpoint; optionally validate against an expected config.

    The stored tensor set is always validated against the stored config's
    parameter table; with ``expected_config`` it must also fit that table,
    so loading into an incompatible architecture fails, naming the first
    offending parameter.
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
        config_data = json.loads(reader.take(config_len, "config blob").decode("utf-8"))
        config = FusionConfig.from_dict(config_data)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"bad config blob: {exc}") from exc
    count = reader.u32("tensor count")
    tensors: dict[str, Tensor] = {}
    for _ in range(count):
        name_len = reader.u32("name length")
        name = reader.take(name_len, "name").decode("utf-8")
        rank = reader.u32("rank")
        shape = tuple(reader.u32(f"dim of {name}") for _ in range(rank))
        n_bytes = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        data = np.frombuffer(reader.take(n_bytes, f"data of {name}"), dtype="<f4").reshape(shape)
        if name in tensors:
            raise CheckpointError(f"duplicate parameter {name}")
        tensors[name] = Tensor(data.astype(np.float32), requires_grad=True)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"trailing bytes after tensor data (byte {reader.pos})")

    params = NetworkParams(tensors=tensors, seed=config.seed)
    _validate_against(params, config)
    if expected_config is not None:
        _validate_against(params, expected_config)
    return params, config


def _validate_against(params: NetworkParams, config: FusionConfig) -> None:
    expected = parameter_shapes(config)
    for name, shape in expected.items():
        if name not in params:
            raise CheckpointError(f"missing parameter {name}")
        have = params[name].shape
        if have != shape:
            raise CheckpointError(f"parameter {name} has shape {have}, config expects {shape}")
    for name in params:
        if name not in expected:
            raise CheckpointError(f"unexpected parameter {name}")
