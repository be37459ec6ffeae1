"""Codec round-trips, header handling, parse errors, and pair discovery."""

import numpy as np
import pytest

from graphfusion.images import (
    ImagePair,
    ParseError,
    dequantize,
    encode_netpbm,
    luma_chroma_to_rgb,
    pair_directory,
    parse_netpbm,
    quantize,
    read_image,
    rgb_to_chroma,
    rgb_to_luma,
    to_gray,
    write_image,
)


class TestQuantization:
    def test_rounds_half_up(self):
        # 0.5/255 sits exactly between 0 and 1 after scaling.
        np.testing.assert_array_equal(quantize(np.array([0.5 / 255.0])), [1])
        np.testing.assert_array_equal(quantize(np.array([0.49 / 255.0])), [0])

    def test_endpoints_and_clamping(self):
        np.testing.assert_array_equal(quantize(np.array([-0.2, 0.0, 1.0, 1.7])), [0, 0, 255, 255])

    def test_dequantize_quantize_is_identity_on_bytes(self):
        raw = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(quantize(dequantize(raw)), raw)


class TestColorTransforms:
    def test_luma_weights(self):
        rgb = np.zeros((1, 1, 3), dtype=np.float32)
        rgb[0, 0] = [1.0, 0.0, 0.0]
        assert rgb_to_luma(rgb)[0, 0] == pytest.approx(0.299)
        rgb[0, 0] = [1.0, 1.0, 1.0]
        assert rgb_to_luma(rgb)[0, 0] == pytest.approx(1.0)

    def test_gray_pixel_has_neutral_chroma(self):
        rgb = np.full((2, 2, 3), 0.3, dtype=np.float32)
        cb, cr = rgb_to_chroma(rgb)
        np.testing.assert_allclose(cb, 0.5, atol=1e-6)
        np.testing.assert_allclose(cr, 0.5, atol=1e-6)

    def test_chroma_roundtrip(self, rng):
        rgb = rng.uniform(0.1, 0.9, size=(4, 5, 3)).astype(np.float32)
        y = rgb_to_luma(rgb)
        cb, cr = rgb_to_chroma(rgb)
        back = luma_chroma_to_rgb(y, cb, cr)
        np.testing.assert_allclose(back, rgb, atol=1e-5)

    def test_luma_rejects_non_rgb(self):
        with pytest.raises(ValueError):
            rgb_to_luma(np.zeros((3, 3)))

    def test_to_gray_takes_luma_of_p6_and_keeps_p5(self, tmp_path, rng):
        write_image(tmp_path / "c.ppm", rng.uniform(size=(4, 5, 3)))
        write_image(tmp_path / "g.pgm", rng.uniform(size=(4, 5)))
        color = read_image(tmp_path / "c.ppm")
        gray = read_image(tmp_path / "g.pgm")
        np.testing.assert_array_equal(to_gray(color), rgb_to_luma(color))
        assert to_gray(gray) is gray


class TestCodec:
    def test_canonical_gray_header(self):
        blob = encode_netpbm(np.zeros((2, 3), dtype=np.float32))
        assert blob.startswith(b"P5\n3 2\n255\n")
        assert len(blob) == len(b"P5\n3 2\n255\n") + 6

    def test_canonical_color_header(self):
        blob = encode_netpbm(np.zeros((2, 3, 3), dtype=np.float32))
        assert blob.startswith(b"P6\n3 2\n255\n")

    def test_byte_level_roundtrip(self, rng):
        img = rng.uniform(0.0, 1.0, size=(5, 7)).astype(np.float32)
        blob = encode_netpbm(img)
        assert encode_netpbm(parse_netpbm(blob)) == blob

    def test_color_roundtrip(self, rng):
        img = rng.uniform(0.0, 1.0, size=(3, 4, 3)).astype(np.float32)
        blob = encode_netpbm(img)
        decoded = parse_netpbm(blob)
        assert decoded.shape == (3, 4, 3)
        assert encode_netpbm(decoded) == blob

    def test_accepts_comments_and_whitespace_runs(self):
        blob = b"P5 # a comment\n  # another\n 2\t2 \n255\n" + bytes([0, 64, 128, 255])
        img = parse_netpbm(blob)
        assert img.shape == (2, 2)
        np.testing.assert_allclose(img.reshape(-1), np.array([0, 64, 128, 255]) / 255.0, atol=1e-7)

    def test_pixel_values_divide_by_255(self):
        blob = b"P5\n1 1\n255\n" + bytes([51])
        assert parse_netpbm(blob)[0, 0] == np.float32(51) / np.float32(255)

    def test_encode_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            encode_netpbm(np.zeros((2, 2, 4)))


class TestParseErrors:
    def test_bad_magic_reports_offset(self):
        with pytest.raises(ParseError, match=r"bad magic.*\(byte 0\)"):
            parse_netpbm(b"P3\n1 1\n255\n0")

    def test_missing_integer(self):
        with pytest.raises(ParseError, match="expected integer width"):
            parse_netpbm(b"P5\nxyz")

    def test_overlong_integer_reports_offset(self):
        # Beyond Python's limit on int's digits, which raises a plain ValueError.
        with pytest.raises(ParseError, match=r"integer width has 5000 digits \(byte 5003\)"):
            parse_netpbm(b"P5 " + b"9" * 5000 + b" 1 255\n")

    def test_unsupported_maxval(self):
        with pytest.raises(ParseError, match="unsupported maxval 65535"):
            parse_netpbm(b"P5\n1 1\n65535\n\x00\x00")

    def test_zero_dimension(self):
        with pytest.raises(ParseError, match="bad dimensions 0x1"):
            parse_netpbm(b"P5\n0 1\n255\n")

    def test_truncated_payload_reports_counts_and_offset(self):
        blob = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
        with pytest.raises(ParseError, match=r"need 4 bytes, have 3 \(byte 14\)"):
            parse_netpbm(blob)

    def test_missing_separator_before_pixels(self):
        with pytest.raises(ParseError, match="whitespace byte before pixel data"):
            parse_netpbm(b"P5\n1 1\n255")


class TestFilesAndPairs:
    def test_write_read_roundtrip(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(4, 6)).astype(np.float32)
        path = tmp_path / "a.pgm"
        write_image(path, img)
        back = read_image(path)
        np.testing.assert_array_equal(quantize(back), quantize(img))

    @staticmethod
    def _make_pair_dirs(tmp_path, ids=("a", "b"), size=(4, 4)):
        ir_dir = tmp_path / "ir"
        vis_dir = tmp_path / "vis"
        ir_dir.mkdir()
        vis_dir.mkdir()
        rng = np.random.default_rng(7)
        for stem in ids:
            write_image(ir_dir / f"{stem}.pgm", rng.uniform(size=size).astype(np.float32))
            write_image(vis_dir / f"{stem}.pgm", rng.uniform(size=size).astype(np.float32))
        return ir_dir, vis_dir

    def test_pairs_sorted_by_id(self, tmp_path):
        ir_dir, vis_dir = self._make_pair_dirs(tmp_path, ids=("zebra", "apple", "mid"))
        pairs = pair_directory(ir_dir, vis_dir)
        assert [p.pair_id for p in pairs] == ["apple", "mid", "zebra"]
        assert all(isinstance(p, ImagePair) and p.shape == (4, 4) for p in pairs)

    def test_unmatched_files_skipped_with_warning(self, tmp_path, caplog):
        ir_dir, vis_dir = self._make_pair_dirs(tmp_path, ids=("a", "b"))
        write_image(ir_dir / "only_ir.pgm", np.zeros((4, 4), dtype=np.float32))
        with caplog.at_level("WARNING"):
            pairs = pair_directory(ir_dir, vis_dir)
        assert [p.pair_id for p in pairs] == ["a", "b"]
        assert "only_ir" in caplog.text

    def test_color_visible_converts_to_luma(self, tmp_path):
        ir_dir = tmp_path / "ir"
        vis_dir = tmp_path / "vis"
        ir_dir.mkdir()
        vis_dir.mkdir()
        write_image(ir_dir / "x.pgm", np.full((2, 2), 0.5, dtype=np.float32))
        rgb = np.zeros((2, 2, 3), dtype=np.float32)
        rgb[:, :, 1] = 1.0
        write_image(vis_dir / "x.ppm", rgb)
        (pair,) = pair_directory(ir_dir, vis_dir)
        assert pair.visible.shape == pair.infrared.shape == (2, 2)
        assert pair.visible.dtype == np.float32
        np.testing.assert_allclose(pair.visible, 0.587, atol=1e-3)

    def test_empty_intersection_is_error(self, tmp_path):
        ir_dir, vis_dir = self._make_pair_dirs(tmp_path, ids=("a",))
        (ir_dir / "a.pgm").rename(ir_dir / "c.pgm")
        with pytest.raises(ValueError, match="no matching image pairs"):
            pair_directory(ir_dir, vis_dir)

    def test_size_mismatch_is_error(self, tmp_path):
        ir_dir, vis_dir = self._make_pair_dirs(tmp_path, ids=("a",))
        write_image(vis_dir / "a.pgm", np.zeros((3, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="size mismatch"):
            pair_directory(ir_dir, vis_dir)

    def test_missing_directory_is_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pair_directory(tmp_path / "nope", tmp_path / "also_nope")
