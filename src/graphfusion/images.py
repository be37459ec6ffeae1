"""Binary netpbm codec (P5/P6, maxval 255) and image-pair discovery.

Pixels map to floats in [0, 1] by dividing by 255; quantization back to
bytes rounds half up.  The writer emits a canonical header
(``P5\\n<w> <h>\\n255\\n``), and reading a canonical file then writing it
reproduces the bytes exactly.  The reader additionally accepts arbitrary
whitespace runs and ``#`` comments between header tokens, which the format
allows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import write_atomic

log = logging.getLogger(__name__)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class ParseError(ValueError):
    """Malformed netpbm input; the message includes the byte offset."""


def quantize(img: np.ndarray) -> np.ndarray:
    """Map floats in [0, 1] to uint8, rounding half up; values are clamped."""
    v = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


def dequantize(raw: np.ndarray) -> np.ndarray:
    return (np.asarray(raw, dtype=np.float32)) / np.float32(255.0)


def rgb_to_luma(rgb: np.ndarray) -> np.ndarray:
    """Rec. 601 luma: 0.299 R + 0.587 G + 0.114 B."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"rgb_to_luma: expected (H, W, 3), got {rgb.shape}")
    r, g, b = LUMA_WEIGHTS
    return (r * rgb[:, :, 0] + g * rgb[:, :, 1] + b * rgb[:, :, 2]).astype(np.float32)


def to_gray(img: np.ndarray) -> np.ndarray:
    """Luma of a (H, W, 3) image; a (H, W) image comes back unchanged."""
    return rgb_to_luma(img) if img.ndim == 3 else img


def rgb_to_chroma(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-range Cb/Cr companions to :func:`rgb_to_luma` (offset 0.5)."""
    y = rgb_to_luma(rgb)
    cb = (rgb[:, :, 2] - y) / 1.772 + 0.5
    cr = (rgb[:, :, 0] - y) / 1.402 + 0.5
    return cb.astype(np.float32), cr.astype(np.float32)


def luma_chroma_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Invert :func:`rgb_to_chroma`; the result is clamped to [0, 1]."""
    r = y + 1.402 * (cr - 0.5)
    b = y + 1.772 * (cb - 0.5)
    g = (y - LUMA_WEIGHTS[0] * r - LUMA_WEIGHTS[2] * b) / LUMA_WEIGHTS[1]
    return np.clip(np.stack([r, g, b], axis=2), 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} (byte {self.pos})")

    def skip_separators(self) -> None:
        blob = self.blob
        while self.pos < len(blob):
            c = blob[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                nl = blob.find(b"\n", self.pos)
                self.pos = len(blob) if nl < 0 else nl + 1
            else:
                return

    def read_int(self, what: str) -> int:
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected integer {what}")
        try:
            return int(self.blob[start : self.pos])
        except ValueError as exc:  # more digits than ``int`` converts
            raise self.error(f"integer {what} has {self.pos - start} digits") from exc


def parse_netpbm(blob: bytes) -> np.ndarray:
    """Decode P5/P6 bytes to float32 in [0, 1]; (H, W) or (H, W, 3)."""
    cur = _Cursor(blob)
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise cur.error(f"bad magic {magic!r}, expected b'P5' or b'P6'")
    cur.pos = 2
    width = cur.read_int("width")
    height = cur.read_int("height")
    maxval = cur.read_int("maxval")
    if width < 1 or height < 1:
        raise cur.error(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise cur.error(f"unsupported maxval {maxval}, only 255")
    if cur.pos >= len(blob) or not blob[cur.pos : cur.pos + 1].isspace():
        raise cur.error("expected single whitespace byte before pixel data")
    cur.pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[cur.pos : cur.pos + need]
    if len(payload) < need:
        cur.pos += len(payload)
        raise cur.error(f"truncated pixel data, need {need} bytes, have {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        raw = raw.reshape(height, width)
    else:
        raw = raw.reshape(height, width, 3)
    return dequantize(raw)


def encode_netpbm(img: np.ndarray) -> bytes:
    """Encode float image in [0, 1] as canonical P5 (2-d) or P6 (H, W, 3)."""
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"encode_netpbm: expected (H, W) or (H, W, 3), got {img.shape}")
    h, w = img.shape[0], img.shape[1]
    header = magic + b"\n" + f"{w} {h}".encode() + b"\n255\n"
    return header + quantize(img).tobytes()


def read_image(path: str | Path) -> np.ndarray:
    return parse_netpbm(Path(path).read_bytes())


def write_image(path: str | Path, img: np.ndarray) -> None:
    """Write ``img`` as canonical netpbm (:func:`encode_netpbm`), through :func:`~graphfusion.config.write_atomic`."""
    write_atomic(path, encode_netpbm(img))


# ---------------------------------------------------------------------------
# pairing


@dataclass
class ImagePair:
    """One infrared/visible pair, both single-channel H x W, floats in [0, 1]."""

    pair_id: str
    infrared: np.ndarray
    visible: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.infrared.shape  # type: ignore[return-value]


def _scan(directory: Path) -> dict[str, Path]:
    found: dict[str, Path] = {}
    for path in sorted(directory.iterdir()):
        if path.suffix.lower() in (".pgm", ".ppm") and path.is_file():
            if path.stem in found:
                raise ValueError(f"duplicate image id {path.stem!r} in {directory}")
            found[path.stem] = path
    return found


def pair_directory(ir_dir: str | Path, vis_dir: str | Path) -> list[ImagePair]:
    """Match images across two directories by base filename.

    Pairs are sorted by id.  Files present on only one side are skipped with
    a warning; an empty intersection or a size mismatch inside a pair is an
    error.
    """
    ir_dir, vis_dir = Path(ir_dir), Path(vis_dir)
    for d in (ir_dir, vis_dir):
        if not d.is_dir():
            raise FileNotFoundError(f"not a directory: {d}")
    ir_files = _scan(ir_dir)
    vis_files = _scan(vis_dir)
    common = sorted(set(ir_files) & set(vis_files))
    for stem in sorted(set(ir_files) ^ set(vis_files)):
        side = "visible" if stem in ir_files else "infrared"
        log.warning("pair %r has no %s counterpart, skipping", stem, side)
    if not common:
        raise ValueError(f"no matching image pairs between {ir_dir} and {vis_dir}")
    pairs = []
    for stem in common:
        ir_gray = to_gray(read_image(ir_files[stem]))
        vis_gray = to_gray(read_image(vis_files[stem]))
        if ir_gray.shape != vis_gray.shape:
            raise ValueError(
                f"pair {stem!r}: size mismatch, infrared {ir_gray.shape} vs visible {vis_gray.shape}"
            )
        pairs.append(ImagePair(pair_id=stem, infrared=ir_gray, visible=vis_gray))
    return pairs
