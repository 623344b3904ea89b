"""Image and pose serialization round trips."""

import json
import tracemalloc

import numpy as np
import pytest

from cubegen import imgio
from cubegen.config import ConfigError
from cubegen.geometry import CameraPose


class TestPpm:
    def test_round_trip_exact_at_8bit(self, rng, tmp_path):
        img = rng.integers(0, 256, size=(12, 17, 3)).astype(np.float64) / 255.0
        path = tmp_path / "x.ppm"
        imgio.write_ppm(path, img)
        back = imgio.read_ppm(path)
        np.testing.assert_allclose(back, img, atol=1e-12)

    def test_quantization_bound(self, rng, tmp_path):
        img = rng.random((8, 8, 3))
        path = tmp_path / "x.ppm"
        imgio.write_ppm(path, img)
        assert np.abs(imgio.read_ppm(path) - img).max() <= 0.5 / 255 + 1e-12

    def test_wrong_channels_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            imgio.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 2)))

    def test_deterministic_bytes(self, rng, tmp_path):
        img = rng.random((6, 6, 3))
        imgio.write_ppm(tmp_path / "a.ppm", img)
        imgio.write_ppm(tmp_path / "b.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


class TestPgmMask:
    def test_mask_round_trip(self, rng, tmp_path):
        mask = (rng.random((9, 9)) < 0.5).astype(np.uint8)
        path = tmp_path / "m.pgm"
        imgio.write_mask_pgm(path, mask)
        *head, body = path.read_bytes().split(b"\n", 3)
        assert head == [b"P5", b"9 9", b"255"]
        np.testing.assert_array_equal(np.frombuffer(body, np.uint8).reshape(9, 9),
                                      255 * mask)

    def test_non_binary_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            imgio.write_mask_pgm(tmp_path / "m.pgm", np.full((4, 4), 2))


class TestNetpbmInput:
    """Only 8-bit binary netpbm is read: a wider maxval or a short pixel
    block fails with the file's name instead of loading wrong values."""

    @pytest.mark.parametrize("maxval", [65535, 0], ids=["16bit", "zero"])
    @pytest.mark.parametrize("magic,channels,reader", [("P6", 3, imgio.read_ppm)])
    def test_maxval_outside_8bit_rejected(self, tmp_path, magic, channels,
                                          reader, maxval):
        path = tmp_path / "wide.pnm"
        path.write_bytes(f"{magic}\n4 3\n{maxval}\n".encode()
                         + bytes(2 * 4 * 3 * channels))
        with pytest.raises(ValueError, match=rf"wide\.pnm.*maxval {maxval}\b"):
            reader(path)

    def test_truncated_p6_rejected(self, rng, tmp_path):
        path = tmp_path / "short.ppm"
        imgio.write_ppm(path, rng.random((5, 6, 3)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=r"short\.ppm.*89 bytes.*6x5x3 needs 90"):
            imgio.read_ppm(path)

    @pytest.mark.parametrize("raw,fields", [
        (b"P6\n4", "'4'"),
        (b"P6\n# no newline", "''"),
        (b"P6\n4 x\n255\n", "'4 x 255'"),
        (b"P6\n0 3\n255\n", "'0 3 255'"),
        (b"P6\n3 0\n255\n", "'3 0 255'"),
    ], ids=["cut-short", "open-comment", "not-a-number", "zero-width", "zero-height"])
    def test_broken_header_rejected_with_its_name(self, tmp_path, raw, fields):
        path = tmp_path / "broken.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=rf"broken\.ppm: P6 header {fields} is not"):
            imgio.read_ppm(path)

    def test_lower_maxval_scales_to_unit_range(self, tmp_path):
        path = tmp_path / "low.ppm"
        path.write_bytes(b"P6\n2 1\n15\n" + bytes([0, 0, 0, 15, 15, 15]))
        np.testing.assert_array_equal(imgio.read_ppm(path), [[[0.0] * 3, [1.0] * 3]])

    def test_wrong_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "gray.pgm"
        imgio.write_pgm(path, rng.random((3, 3)))
        with pytest.raises(ValueError, match="not a P6 file"):
            imgio.read_ppm(path)


class TestPfm:
    @pytest.mark.parametrize("head,match", [
        (b"PX\n2 2\n-1.0\n", r"not a PF or Pf file: .*bad\.pfm"),
        (b"Pf\n2\n-1.0\n", r"bad\.pfm: PFM dimensions '2' are not two positive"),
        (b"PF\n0 2\n-1.0\n", r"bad\.pfm: PFM dimensions '0 2' are not two positive"),
        (b"PF\n2 2\nhalf\n", r"bad\.pfm: PFM scale 'half' is not a number"),
        (b"PF\n2 2\n-1.0\n", r"bad\.pfm: 4 floats of pixel data, 2x2x3 needs 12"),
    ], ids=["magic", "one-dimension", "zero-width", "scale", "short-data"])
    def test_bad_file_rejected_with_its_name(self, tmp_path, head, match):
        path = tmp_path / "bad.pfm"
        path.write_bytes(head + bytes(16))
        with pytest.raises(ValueError, match=match):
            imgio.read_pfm(path)

    def test_color_round_trip_float32_exact(self, rng, tmp_path):
        img = rng.standard_normal((10, 14, 3)).astype(np.float32)
        path = tmp_path / "x.pfm"
        imgio.write_pfm(path, img)
        back = imgio.read_pfm(path)
        np.testing.assert_array_equal(back.astype(np.float32), img)

    def test_gray_round_trip(self, rng, tmp_path):
        img = rng.standard_normal((5, 7, 1)).astype(np.float32)
        path = tmp_path / "g.pfm"
        imgio.write_pfm(path, img)
        back = imgio.read_pfm(path)
        np.testing.assert_array_equal(back[..., 0].astype(np.float32), img[..., 0])

    def test_header_little_endian(self, rng, tmp_path):
        path = tmp_path / "x.pfm"
        imgio.write_pfm(path, np.zeros((3, 4, 3), np.float32))
        head = path.read_bytes()[:32]
        assert head.startswith(b"PF\n4 3\n-1.0\n")


def edge_values() -> np.ndarray:
    """Out-of-range values, negative zero and every 8-bit level and
    half-level, where rounding and clipping decide the byte."""
    k = np.arange(256)
    return np.concatenate([[-1e9, -1.0, -0.5 / 255, -0.0, 0.0, 1.0 + 0.4 / 255,
                            1.5, 1e9], k / 255, (k + 0.5) / 255])


def old_quantized(px) -> bytes:
    """The writers' former bytes: three float temporaries and a copy."""
    return np.clip(np.rint(np.asarray(px) * 255.0), 0, 255).astype(np.uint8).tobytes()


class TestWriterBytes:
    """The one-buffer writers produce the former formulas' bytes, also
    without the preview clip that ``generate`` used to apply first."""

    @pytest.fixture
    def image(self, rng):
        values = rng.permutation(np.tile(edge_values(), 6))
        return values[:len(values) // 36 * 36].reshape(-1, 12, 3)

    def test_ppm(self, image, tmp_path):
        imgio.write_ppm(tmp_path / "x.ppm", image)
        body = (tmp_path / "x.ppm").read_bytes().split(b"\n", 3)[3]
        assert body == old_quantized(image)
        assert body == old_quantized(np.clip(image, 0, 1))

    def test_pgm_from_channel_view(self, image, tmp_path):
        gray = image[..., 1]  # a strided view, as generate passes one channel
        imgio.write_pgm(tmp_path / "x.pgm", gray)
        body = (tmp_path / "x.pgm").read_bytes().split(b"\n", 3)[3]
        assert body == old_quantized(gray)
        assert body == old_quantized(np.clip(gray, 0, 1))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_pfm(self, image, tmp_path, channels):
        px = image[..., :channels]
        imgio.write_pfm(tmp_path / "x.pfm", px)
        old = np.asarray(px, dtype=np.float32)
        if channels == 1:
            old = old[..., 0]
        body = (tmp_path / "x.pfm").read_bytes().split(b"\n", 3)[3]
        assert body == old[::-1].astype("<f4").tobytes()

    def test_ppm_peak_is_one_float_buffer(self, rng, tmp_path):
        image = rng.random((256, 512, 3))
        imgio.write_ppm(tmp_path / "warm.ppm", image[:2])
        tracemalloc.start()
        try:
            imgio.write_ppm(tmp_path / "x.ppm", image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 temporary plus the uint8 image
        assert peak <= 1.25 * image.nbytes, (peak / image.nbytes, peak)


class TestPoses:
    @pytest.mark.parametrize("records,match", [
        ({"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "must hold a JSON list"),
        ([[1, 0, 0, 0, 1, 0, 0, 0, 1]], "pose 0: must be a JSON object"),
        ([{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "hfov_deg": 90}],
         "pose 0: field 'vfov_deg' is missing"),
        ([{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "vfov_deg": 60}],
         "pose 0: field 'hfov_deg' is missing"),
        ([{"hfov_deg": 90, "vfov_deg": 60}], "pose 0: field 'rotation' is missing"),
        ([{"rotation": [1, 0, 0], "hfov_deg": 90, "vfov_deg": 60}],
         "pose 0: field 'rotation' must be a list of 9 numbers"),
        ([{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "hfov_deg": "90",
           "vfov_deg": 60}], "pose 0: field 'hfov_deg' must be a number"),
        ([{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "hfov_deg": 90, "vfov_deg": 60},
          {"rotation": [1, 0.5, 0, 0, 1, 0, 0, 0, 1], "hfov_deg": 90,
           "vfov_deg": 60}], "pose 1: rotation is not orthonormal"),
    ], ids=["not-a-list", "not-an-object", "no-vfov", "no-hfov", "no-rotation", "rotation-of-3",
            "string-fov", "skewed-rotation"])
    def test_bad_record_names_file_pose_and_field(self, tmp_path, records, match):
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(records))
        with pytest.raises(ConfigError, match=rf"poses\.json.*{match}"):
            imgio.read_poses(path)

    def test_round_trip(self, tmp_path):
        a = np.radians(30)
        rot = np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0],
                        [-np.sin(a), 0, np.cos(a)]])
        poses = [CameraPose(np.eye(3), 90.0, 45.0), CameraPose(rot, 70.0, 60.0)]
        path = tmp_path / "poses.json"
        imgio.write_poses(path, poses)
        back = imgio.read_poses(path)
        assert len(back) == 2
        for p, q in zip(poses, back):
            np.testing.assert_allclose(p.rotation, q.rotation, atol=1e-15)
            assert p.hfov_deg == q.hfov_deg and p.vfov_deg == q.vfov_deg
