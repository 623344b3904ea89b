"""Geometry tests: every expected value is either hand-derivable from the
pixel-center formulas or computed by an independent scalar/brute-force oracle
in this file."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cubegen.config import parse_config
from cubegen.continuity import _pad_table
from cubegen.faces import FACES, FACE_AXES, FACE_INDEX
from cubegen import scene as sc
from cubegen import geometry as geo
from cubegen.geometry import (
    CameraPose,
    CubemapVideo,
    PerspectiveFrame,
)

from conftest import smooth_field
import strip_reference


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def yaw_pose(deg, hfov=90.0, vfov=90.0):
    a = np.radians(deg)
    rot = np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]])
    return CameraPose(rot, hfov, vfov)


# ── equirect pixel <-> direction ─────────────────────────────────────────

class TestEquirectPixelMapping:
    def test_center_pixel_looks_forward(self):
        # u=W/2, v=W/4 is half a pixel off exact center; allow one pixel of angle
        for w in (64, 256, 512):
            d = geo.equirect_pixel_to_direction(w // 2, w // 4, w)
            ang = np.arccos(np.clip(d @ np.array([0.0, 0.0, 1.0]), -1, 1))
            assert ang <= 2 * np.pi / w

    def test_left_edge_longitude(self):
        # theta = (0+0.5)/512 * 2pi - pi = -pi + pi/512
        d = geo.equirect_pixel_to_direction(0, 128, 512)
        theta = np.arctan2(d[0], d[2])
        assert np.isclose(theta, -np.pi + np.pi / 512, atol=1e-12)

    def test_round_trip_all_pixels(self):
        w = 64
        u, v = np.meshgrid(np.arange(w), np.arange(w // 2), indexing="xy")
        d = geo.equirect_pixel_to_direction(u, v, w)
        u2, v2 = geo.direction_to_equirect_pixel(d, w)
        np.testing.assert_allclose(u2, u, atol=1e-9)
        np.testing.assert_allclose(v2, v, atol=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            geo.equirect_pixel_to_direction(64, 0, 64)
        with pytest.raises(ValueError):
            geo.equirect_pixel_to_direction(0, 32, 64)


# ── face coordinates ─────────────────────────────────────────────────────

class TestFaceCoords:
    @pytest.mark.parametrize(
        "d,face",
        [((0, 0, 1), "F"), ((1, 0, 0), "R"), ((0, 0, -1), "B"),
         ((-1, 0, 0), "L"), ((0, 1, 0), "U"), ((0, -1, 0), "D")],
    )
    def test_face_centers(self, d, face):
        f, x, y = geo.direction_to_face_coords(np.asarray(d, dtype=np.float64))
        assert FACES[int(f)] == face
        assert np.isclose(x, 0.5) and np.isclose(y, 0.5)

    def test_round_trip_specific(self):
        d = unit([0.5, 0.5, 1.0])
        f, x, y = geo.direction_to_face_coords(d)
        assert FACES[int(f)] == "F"
        back = geo.face_coords_to_direction(int(f), x, y)
        np.testing.assert_allclose(back, d, atol=1e-12)

    def test_round_trip_random_directions(self, rng):
        d = rng.normal(size=(5000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        f, x, y = geo.direction_to_face_coords(d)
        back = geo.face_coords_to_direction(f, x, y)
        np.testing.assert_allclose(back, d, atol=1e-9)

    def test_tie_break_canonical(self):
        # (1,1,1)/sqrt(3): F, R and U all tie; F wins by canonical priority
        f, x, y = geo.direction_to_face_coords(unit([1.0, 1.0, 1.0]))
        assert FACES[int(f)] == "F"

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            geo.direction_to_face_coords(np.array([0.0, 0.0, 2.0]))


# ── perspective -> cubemap ───────────────────────────────────────────────

def coverage(masks):
    return {f: masks[i].mean() for i, f in enumerate(FACES)}


def project(frame, pose, res):
    """(faces, masks) of one frame projected at face resolution ``res``."""
    faces = np.empty((6, res, res, frame.channels))
    return (geo.project_perspective_to_cubemap(frame, pose, faces),
            geo.frustum_masks(pose, res))


class TestProjectPerspective:
    def test_90x90_identity_covers_exactly_front(self):
        masks = geo.frustum_masks(CameraPose(np.eye(3), 90, 90), 64)
        cov = coverage(masks)
        assert cov["F"] == 1.0
        for f in "RBLUD":
            assert cov[f] == 0.0

    def test_yaw_90_covers_right(self):
        masks = geo.frustum_masks(yaw_pose(90.0), 64)
        cov = coverage(masks)
        assert cov["R"] == 1.0
        for f in "FBLUD":
            assert cov[f] == 0.0

    def test_narrow_vfov_band_coverage(self):
        # hfov=90, vfov=45: F rows with |b| <= tan(22.5 deg) are observed
        masks = geo.frustum_masks(CameraPose(np.eye(3), 90, 45), 256)
        cov = coverage(masks)["F"]
        assert abs(cov - np.tan(np.radians(22.5))) <= 1.5 / 256

    def test_matches_scalar_ray_cast_oracle(self):
        # independent oracle: scalar loops, explicit formulas, no shared code
        hfov, vfov, res = 75.0, 50.0, 24
        pose = yaw_pose(30.0, hfov, vfov)
        frame = PerspectiveFrame(np.full((16, 16, 1), 1.0))
        faces, masks = project(frame, pose, res)
        assert faces.shape == (6, res, res, 1) and masks.shape == (6, res, res)
        assert masks.dtype == np.uint8
        th, tv = np.tan(np.radians(hfov) / 2), np.tan(np.radians(vfov) / 2)
        for face in FACES:
            n, r, d = (np.asarray(a, dtype=np.float64) for a in FACE_AXES[face])
            for i in range(res):
                for j in range(res):
                    a = 2 * (j + 0.5) / res - 1
                    b = 2 * (i + 0.5) / res - 1
                    v = n + a * r + b * d
                    v = v / np.linalg.norm(v)
                    cam = pose.rotation.T @ v
                    inside = cam[2] > 0 and abs(cam[0] / cam[2]) <= th and abs(cam[1] / cam[2]) <= tv
                    assert masks[FACE_INDEX[face], i, j] == int(inside), (face, i, j)

    def test_cube_symmetry_permutes_coverage_exactly(self):
        base = geo.frustum_masks(CameraPose(np.eye(3), 73, 100), 64)
        yawed = geo.frustum_masks(yaw_pose(90.0, 73, 100), 64)
        perm = {"F": "R", "R": "B", "B": "L", "L": "F", "U": "U", "D": "D"}
        for f in FACES:
            assert base[FACE_INDEX[f]].sum() == yawed[FACE_INDEX[perm[f]]].sum()

    def test_masked_solid_angle_matches_frustum(self):
        w = geo.face_pixel_solid_angles(256)
        for hfov, vfov in [(90.0, 45.0), (120.0, 60.0), (73.0, 100.0)]:
            masks = geo.frustum_masks(CameraPose(np.eye(3), hfov, vfov), 256)
            total = (w * masks).sum()
            ana = geo.frustum_solid_angle(hfov, vfov)
            assert abs(total - ana) / ana <= 0.01

    def test_degenerate_fov_rejected(self):
        with pytest.raises(ValueError):
            CameraPose(np.eye(3), 0.0, 90.0)
        with pytest.raises(ValueError):
            CameraPose(np.eye(3), 90.0, 180.0)

    def test_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            geo.frustum_masks(CameraPose(np.eye(3), 90, 90), 2)

    @pytest.mark.parametrize("res", [4, 16, 64, 256])
    @pytest.mark.parametrize("rows_per_block", [None, 3])
    def test_rows_facing_away_skipped_bytes_equal(self, monkeypatch, res,
                                                  rows_per_block):
        # against rotating every direction of the cube and testing it, as
        # one (6, R, R, 3) matmul: 60 random poses per R, FoV 10-179
        # degrees, in the default blocks of rows and in blocks of 3 rows
        if rows_per_block:
            monkeypatch.setattr(geo, "_APPLY_BLOCK_PIXELS", rows_per_block * res)
        rng = np.random.default_rng(res)
        dirs = geo.face_directions(res)
        for _ in range(60):
            rot = geo.rotvec_to_matrix(rng.normal(size=3) * rng.uniform(0.0, 3.0))
            pose = CameraPose(rot, *rng.uniform(10.0, 179.0, size=2))
            tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
            tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
            d = dirs @ pose.rotation
            x, y, z = d[..., 0], d[..., 1], d[..., 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                want = (z > 0) & (np.abs(x / z) <= tan_h) & (np.abs(y / z) <= tan_v)
            got = geo.frustum_masks(pose, res)
            assert got.dtype == np.uint8
            assert got.tobytes() == want.astype(np.uint8).tobytes()

    def test_pixel_centre_on_the_side_plane_is_observed(self):
        # R=8, identity pose: face F's pixel centres sit at |x/z| in
        # {1/8, 3/8, 5/8, 7/8} up to rounding.  Pick an hfov whose
        # tan(hfov/2) equals one centre's |x/z| exactly, so the centre lies
        # on the frustum's side plane; the boundary counts as observed.
        res, f, row = 8, FACE_INDEX["F"], 3
        d = geo.face_directions(res)[f, row]
        for col in range(1, res // 2):  # left half, an outer neighbour exists
            edge = abs(d[col, 0] / d[col, 2])
            hfov = float(np.degrees(2.0 * np.arctan(edge)))
            if np.tan(np.radians(hfov) / 2.0) == edge:
                break
        else:
            pytest.fail("no pixel centre of the row lies exactly on a frustum edge")
        masks = geo.frustum_masks(CameraPose(np.eye(3), hfov, 170.0), res)
        assert masks[f, row, col] == 1
        assert masks[f, row, col - 1] == 0  # one pixel further out


# ── cubemap <-> equirect ─────────────────────────────────────────────────

def equirect_cell_weights(width):
    """cos(latitude) of each (W/2, W) equirect pixel centre, read off its
    direction: proportional to the pixel's solid angle."""
    u, v = np.meshgrid(np.arange(width), np.arange(width // 2), indexing="xy")
    y = geo.equirect_pixel_to_direction(u, v, width)[..., 1]
    return np.sqrt(1.0 - y * y)


class TestCubemapEquirect:
    def test_constant_cubemap_constant_equirect(self):
        eq = geo.EquirectTaps.create(8, 64).apply(np.full((6, 8, 8, 2), 0.7))
        assert eq.shape == (32, 64, 2)
        np.testing.assert_allclose(eq, 0.7, atol=1e-12)

    def test_constant_equirect_constant_cubemap(self):
        eq = np.full((32, 64, 1), 0.3)
        faces = geo.equirect_to_cubemap(eq, 16)
        assert faces.shape == (6, 16, 16, 1)
        np.testing.assert_allclose(faces, 0.3, atol=1e-12)

    def test_band_limited_round_trip_cubemap_start(self):
        res, w = 64, 256
        faces = smooth_field(geo.face_directions(res))
        back = geo.equirect_to_cubemap(geo.EquirectTaps.create(res, w).apply(faces), res)
        for i in range(6):
            assert np.abs(back[i] - faces[i]).max() <= 0.02

    def test_band_limited_round_trip_equirect_start(self):
        res, w = 64, 256
        u, v = np.meshgrid(np.arange(w), np.arange(w // 2), indexing="xy")
        eq = smooth_field(geo.equirect_pixel_to_direction(u, v, w))
        back = geo.EquirectTaps.create(res, w).apply(geo.equirect_to_cubemap(eq, res))
        assert np.abs(back - eq).max() <= 0.02

    def test_single_face_solid_angle_fraction(self):
        # area-weighted equirect mean of the F indicator ~= 1/6 of the sphere;
        # oracle: numerical integration of the indicator over equirect cells
        res, w = 64, 512
        faces = np.zeros((6, res, res, 1))
        faces[FACE_INDEX["F"]] = 1.0
        eq = geo.EquirectTaps.create(res, w).apply(faces)
        area = equirect_cell_weights(w)
        measured = (eq[..., 0] * area).sum() / area.sum()

        u, v = np.meshgrid(np.arange(w), np.arange(w // 2), indexing="xy")
        face_idx, _, _ = geo.direction_to_face_coords(
            geo.equirect_pixel_to_direction(u, v, w))
        oracle = (area * (face_idx == 0)).sum() / area.sum()
        assert abs(measured - oracle) <= 0.002
        assert abs(oracle - 1.0 / 6.0) <= 0.002

    def test_minimum_sizes(self):
        eq = np.full((4, 8, 1), 0.5)
        faces = geo.equirect_to_cubemap(eq, 2)
        assert faces.shape == (6, 2, 2, 1)

    def test_width_not_multiple_of_four_rejected(self):
        with pytest.raises(ValueError):
            geo.EquirectTaps.create(4, 30)

    @pytest.mark.parametrize("shape", [(32, 32, 1), (32, 64)])
    def test_equirect_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="equirect grid"):
            geo.equirect_to_cubemap(np.zeros(shape), 8)

    def test_mask_transfer_stays_binary_and_tracks_coverage(self):
        # nearest-neighbor mask resampling: binary output, and the observed
        # sphere fraction matches the cubemap's solid-angle-weighted masks
        masks = geo.frustum_masks(CameraPose(np.eye(3), 90.0, 60.0), 64)
        eq_mask = geo.EquirectTaps.create(64, 256).apply_mask(masks)
        assert set(np.unique(eq_mask)) <= {0, 1}
        area = equirect_cell_weights(256)
        observed = (area * eq_mask).sum() / area.sum()
        w = geo.face_pixel_solid_angles(64)
        expected = (w * masks).sum() / (6 * w.sum())
        assert abs(observed - expected) / expected <= 0.02


# ── tap table against the per-face loops it replaced ─────────────────────

def _ref_bilinear(grid, rows, cols, wrap_cols=False):
    """Bilinear sample of (H, W, C) at fractional (rows, cols); rows clamp,
    and columns clamp too or, with ``wrap_cols``, wrap modulo W."""
    h, w = grid.shape[:2]
    rows = np.clip(rows, 0.0, h - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    r0 = np.minimum(r0, h - 2) if h > 1 else np.zeros_like(r0)
    r1 = np.minimum(r0 + 1, h - 1)
    fr = rows - r0
    if wrap_cols:
        cols = np.mod(cols, w)
        c0 = np.floor(cols).astype(np.intp)
        c1 = np.mod(c0 + 1, w)
        fc = cols - c0
        c0 = np.mod(c0, w)
    else:
        cols = np.clip(cols, 0.0, w - 1.0)
        c0 = np.floor(cols).astype(np.intp)
        c0 = np.minimum(c0, w - 2) if w > 1 else np.zeros_like(c0)
        c1 = np.minimum(c0 + 1, w - 1)
        fc = cols - c0
    fr = fr[..., None]
    fc = fc[..., None]
    top = grid[r0, c0] * (1.0 - fc) + grid[r0, c1] * fc
    bot = grid[r1, c0] * (1.0 - fc) + grid[r1, c1] * fc
    return top * (1.0 - fr) + bot * fr


def _ref_nearest(grid, rows, cols):
    h, w = grid.shape[:2]
    r = np.clip(np.rint(rows).astype(np.intp), 0, h - 1)
    c = np.clip(np.rint(cols).astype(np.intp), 0, w - 1)
    return grid[r, c]


def _ref_face_lookup(width):
    u, v = np.meshgrid(np.arange(width), np.arange(width // 2), indexing="xy")
    return geo.direction_to_face_coords(geo.equirect_pixel_to_direction(u, v, width))


def ref_cubemap_to_equirect(faces, width):
    """Per-face selection loop: every equirect pixel samples its face, with
    taps clamped to that face."""
    res = faces.shape[1]
    face, x, y = _ref_face_lookup(width)
    out = np.zeros((width // 2, width, faces.shape[3]), dtype=np.float64)
    for i in range(6):
        sel = face == i
        if sel.any():
            out[sel] = _ref_bilinear(faces[i], y[sel] * res - 0.5,
                                     x[sel] * res - 0.5)
    return out


def ref_padded_cubemap_to_equirect(faces, width):
    """Per-face selection loop on each face padded by one pixel across its
    edges (the tests' strip-based padding): taps next to a cube edge read
    the neighbouring face."""
    res = faces.shape[1]
    by_name = {f: faces[i] for i, f in enumerate(FACES)}
    face, x, y = _ref_face_lookup(width)
    out = np.zeros((width // 2, width, faces.shape[3]), dtype=np.float64)
    for i, f in enumerate(FACES):
        sel = face == i
        if sel.any():
            padded = strip_reference.pad_face(by_name, f, 1)
            out[sel] = _ref_bilinear(padded, y[sel] * res + 0.5,
                                     x[sel] * res + 0.5)
    return out


def strip_tap_pixels(res, width):
    """(W/2, W) mask of the equirect pixels with a tap in a face's one-pixel
    pad: a face coordinate below 0 or at least R - 1."""
    _, x, y = _ref_face_lookup(width)
    rows, cols = y * res - 0.5, x * res - 0.5
    return (rows < 0) | (rows >= res - 1) | (cols < 0) | (cols >= res - 1)


def assert_resampled(eq, faces, width):
    """Bit-equal to the clamped per-face loop off the cube-edge band, and to
    the padded one, up to the fractions' rounding, on it."""
    strip = strip_tap_pixels(faces.shape[1], width)
    assert np.array_equal(eq[~strip], ref_cubemap_to_equirect(faces, width)[~strip])
    np.testing.assert_allclose(
        eq[strip], ref_padded_cubemap_to_equirect(faces, width)[strip],
        rtol=0, atol=1e-12)


def ref_mask_to_equirect(masks, width):
    res = masks.shape[1]
    face, x, y = _ref_face_lookup(width)
    out = np.zeros((width // 2, width), dtype=np.uint8)
    for i in range(6):
        sel = face == i
        if sel.any():
            out[sel] = _ref_nearest(masks[i], y[sel] * res - 0.5,
                                    x[sel] * res - 0.5)
    return out


def ref_padded_taps(res, width):
    """(face, row, col, row_frac, col_frac) of each equirect pixel's
    top-left tap into the (6, R+2, R+2) faces padded by one pixel, rows
    and columns counted from -1: every pixel's four taps are one square."""
    face, x, y = _ref_face_lookup(width)
    r0, fr = geo._axis_taps(y * res - 0.5, -1, res)
    c0, fc = geo._axis_taps(x * res - 0.5, -1, res)
    return face, r0, c0, fr, fc


def ref_padded_resample(faces, width):
    """The bilinear resample over the faces padded through the pad-1 map,
    in the same operations as ``_Taps.resample``."""
    res, channels = faces.shape[1], faces.shape[3]
    n = res + 2
    padded = faces.reshape(-1, channels)[_pad_table(res, 1).index].reshape(
        6, n, n, channels)
    face, r0, c0, fr, fc = ref_padded_taps(res, width)
    fr, fc = fr[..., None], fc[..., None]
    top = padded[face, r0, c0] * (1.0 - fc) + padded[face, r0, c0 + 1] * fc
    bottom = padded[face, r0 + 1, c0] * (1.0 - fc) + padded[face, r0 + 1, c0 + 1] * fc
    return top * (1.0 - fr) + bottom * fr


def ref_padded_mask(masks, width):
    """Nearest face pixel of each equirect pixel, rounded from its padded
    tap and fractions, the coordinates clamped to the face."""
    res = masks.shape[1]
    face, r0, c0, fr, fc = ref_padded_taps(res, width)
    near_r = np.rint(np.clip(r0 - 1 + fr, 0, res - 1)).astype(np.intp)
    near_c = np.rint(np.clip(c0 - 1 + fc, 0, res - 1)).astype(np.intp)
    return masks[face, near_r, near_c]


class TestEdgePixels:
    """``EquirectTaps`` reads the faces as they are; a pixel whose four taps
    do not lie on one face takes them through the pad-1 map."""

    CASES = [(4, 16), (4, 20), (4, 64), (16, 64), (16, 100), (16, 256),
             (64, 200), (64, 256), (64, 1000)]

    @pytest.mark.parametrize("res,width", CASES)
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_padded_faces_reference(self, rng, res, width, channels):
        taps = geo.EquirectTaps.create(res, width)
        faces = rng.random((6, res, res, channels))
        want = ref_padded_resample(faces, width)
        assert taps.apply(faces).tobytes() == want.tobytes()
        rows = np.concatenate([blk.copy() for _, blk in taps.row_blocks(faces)])
        assert rows.tobytes() == want.tobytes()
        masks = (rng.random((6, res, res)) < 0.5).astype(np.uint8)
        assert (taps.apply_mask(masks).tobytes()
                == ref_padded_mask(masks, width).tobytes())

    @pytest.mark.parametrize("res,width", CASES)
    def test_edge_pixels_are_those_off_one_face_square(self, res, width):
        _, r0, c0, _, _ = ref_padded_taps(res, width)
        off = (np.minimum(r0, c0) < 1) | (np.maximum(r0, c0) > res - 1)
        taps = geo.EquirectTaps.create(res, width)
        assert np.array_equal(taps.edge_pos, np.flatnonzero(off))
        assert taps.edge_taps.shape == (4, off.sum())
        assert (taps.stride, taps.step) == (res, 1)

    @pytest.mark.parametrize("res,width,edges", [(64, 256, 304), (256, 1024, 1184)])
    def test_few_edge_pixels(self, res, width, edges):
        assert geo.EquirectTaps.create(res, width).edge_pos.size == edges


class TestEquirectTaps:
    @pytest.mark.parametrize("res,width", [(1, 8), (2, 8), (4, 16), (64, 256),
                                           (256, 1024), (64, 200)])
    def test_bit_identical_to_per_face_loops(self, rng, res, width):
        faces = rng.random((6, res, res, 3))
        masks = (rng.random((6, res, res)) < 0.5).astype(np.uint8)
        taps = geo.EquirectTaps.create(res, width)
        assert_resampled(taps.apply(faces), faces, width)
        assert np.array_equal(taps.apply_mask(masks),
                              ref_mask_to_equirect(masks, width))

    @pytest.mark.parametrize("res", [64, 256])
    def test_cube_edge_band_error_falls(self, res):
        # seed 7, frame 0 of the synthetic scene, against its analytic value:
        # taps that cross cube edges cut the band's mean error at least 3x
        # against taps clamped to their own face, and leave the rest alone
        width = 4 * res
        scene = sc.SyntheticScene.random(3, 7)
        faces = scene.value(geo.face_directions(res), 0)
        truth = sc.render_equirect_video(scene, width, 1)[0]
        got = geo.EquirectTaps.create(res, width).apply(faces)
        clamped = ref_cubemap_to_equirect(faces, width)
        band = strip_tap_pixels(res, width)
        assert 0 < band.mean() < 0.01
        err, err_clamped = (np.abs(eq - truth)[band].mean() for eq in (got, clamped))
        assert 3.0 * err <= err_clamped, (err, err_clamped)
        assert np.array_equal(got[~band], clamped[~band])

    def test_build_peak_bounded_by_table(self):
        # built in blocks of rows: the whole-grid directions and face
        # coordinates never exist at once
        tracemalloc.start()
        try:
            taps = geo.EquirectTaps.create(256, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sum(a.nbytes for a in (taps.index, taps.row_frac, taps.col_frac))
        assert peak <= 2.5 * table, (peak / table, peak, table)

    @pytest.mark.parametrize("res,width", [(1, 8), (2, 8), (4, 16), (7, 28),
                                           (16, 64), (33, 132), (64, 256),
                                           (256, 1024)])
    def test_nearest_derived_from_taps_equals_rounded_coords(self, res, width):
        # the mask index, rounded from the bilinear tap and its fraction,
        # is the per-face nearest pixel of the clamped coordinates, exactly
        face, x, y = _ref_face_lookup(width)
        flat = np.arange(6 * res * res).reshape(6, res, res)
        want = np.empty(face.shape, dtype=np.intp)
        for i in range(6):
            sel = face == i
            want[sel] = _ref_nearest(flat[i], y[sel] * res - 0.5, x[sel] * res - 0.5)
        taps = geo.EquirectTaps.create(res, width)
        assert np.array_equal(taps._nearest, want.ravel())

    def test_one_table_serves_many_frames(self, rng):
        res, width = 8, 32
        taps = geo.EquirectTaps.create(res, width)
        out = np.empty((3, width // 2, width, 2))
        video = rng.random((3, 6, res, res, 2))
        for t in range(3):
            taps.apply(video[t], out=out[t])
            assert_resampled(out[t], video[t], width)

    def test_wrong_face_grids_rejected(self):
        taps = geo.EquirectTaps.create(8, 32)
        with pytest.raises(ValueError):
            taps.apply(np.zeros((5, 8, 8, 1)))
        with pytest.raises(ValueError):
            taps.apply(np.zeros((6, 8, 8)))
        with pytest.raises(ValueError):
            taps.apply_mask(np.zeros((6, 4, 4), np.uint8))
        for out in (np.empty((16, 32, 2)), np.empty((16, 16, 1)), np.empty((32, 16, 1))):
            with pytest.raises(ValueError, match="out must be"):
                taps.apply(np.zeros((6, 8, 8, 1)), out=out)


# ── direction stack and frustum-only projection against the per-face code ──

def ref_face_pixel_directions(face, res):
    """Per-face meshgrid formula that the cached direction stack replaced."""
    c = (np.arange(res) + 0.5) / res
    y, x = np.meshgrid(c, c, indexing="ij")
    return geo.face_coords_to_direction(FACES.index(face), x, y)


def ref_project(frame, pose, res):
    """Full-grid per-face projection: every face pixel samples the frame,
    then the pixels outside the frustum are zeroed."""
    tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
    h, w = frame.height, frame.width
    faces = np.empty((6, res, res, frame.channels))
    masks = np.empty((6, res, res), dtype=np.uint8)
    for i, f in enumerate(FACES):
        d_cam = ref_face_pixel_directions(f, res) @ pose.rotation
        x, y, z = d_cam[..., 0], d_cam[..., 1], d_cam[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            px = np.where(z > 0, x / z, np.inf)
            py = np.where(z > 0, -y / z, np.inf)
        inside = (z > 0) & (np.abs(px) <= tan_h) & (np.abs(py) <= tan_v)
        cols = np.where(inside, (px / tan_h + 1.0) / 2.0 * w - 0.5, 0.0)
        rows = np.where(inside, (py / tan_v + 1.0) / 2.0 * h - 0.5, 0.0)
        sampled = _ref_bilinear(frame.pixels, rows, cols)
        faces[i] = np.where(inside[..., None], sampled, 0.0)
        masks[i] = inside
    return faces, masks


def in_place_divide_project(frame, pose, res):
    """The projection as it divided the interleaved (x, -y, z) stack in
    place; the two-plane form is pinned to it bit for bit."""
    tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
    d_cam = geo.face_directions(res) @ pose.rotation
    np.negative(d_cam[..., 1], out=d_cam[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        d_cam[..., :2] /= d_cam[..., 2:]
        px, py, z = np.moveaxis(d_cam, -1, 0)
        inside = (z > 0) & (np.abs(px) <= tan_h) & (np.abs(py) <= tan_v)
    cols = (px[inside] / tan_h + 1.0) / 2.0 * frame.width - 0.5
    rows = (py[inside] / tan_v + 1.0) / 2.0 * frame.height - 0.5
    faces = np.zeros((6, res, res, frame.channels))
    faces[inside] = _ref_bilinear(frame.pixels, rows, cols)
    return faces, inside.astype(np.uint8)


def ref_equirect_to_cubemap(eq, res):
    faces = np.empty((6, res, res, eq.shape[2]))
    for i, f in enumerate(FACES):
        u, v = geo.direction_to_equirect_pixel(ref_face_pixel_directions(f, res),
                                               eq.shape[1])
        faces[i] = _ref_bilinear(eq, v, u, wrap_cols=True)
    return faces


def _projection_case(name):
    """(frames, poses) of one projection case."""
    if name == "demo":
        cfg = parse_config(Path(__file__).parents[1] / "configs" / "demo.json")
        _, frames, poses = sc.synth_scene(cfg)
        return frames, poses
    rng = np.random.default_rng(5)
    channels = 1 if name == "gray" else 3
    frame = PerspectiveFrame(rng.random((24, 40, channels)))
    yaw = geo.rotvec_to_matrix([0.0, 0.3, 0.0])
    pose = {
        "up": CameraPose(yaw @ geo.rotvec_to_matrix([-np.pi / 2, 0.0, 0.0]), 90, 60),
        "down": CameraPose(yaw @ geo.rotvec_to_matrix([np.pi / 2, 0.0, 0.0]), 90, 60),
        "hfov179": CameraPose(yaw, 179.0, 90.0),
        "gray": CameraPose(yaw, 100.0, 70.0),
    }[name]
    return [frame], [pose]


class TestDirectionStack:
    @pytest.mark.parametrize("res", [1, 4, 16, 64, 256])
    def test_face_views_equal_meshgrid_formula(self, res):
        for f in FACES:
            got = geo.face_directions(res)[FACE_INDEX[f]]
            assert got.tobytes() == ref_face_pixel_directions(f, res).tobytes()
        # the stack built a face at a time is the six-face formula's bytes
        c = (np.arange(res) + 0.5) / res
        y, x = np.meshgrid(c, c, indexing="ij")
        stacked = geo.face_coords_to_direction(np.arange(6)[:, None, None], x, y)
        assert geo.face_directions(res).tobytes() == stacked.tobytes()

    def test_stack_built_a_face_at_a_time(self):
        # no temporary is stack-sized: the build, uncached, peaks below
        # twice the stack
        tracemalloc.start()
        try:
            dirs = geo.face_directions.__wrapped__(256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * dirs.nbytes, (peak, dirs.nbytes)

    def test_read_only_and_cached(self):
        dirs = geo.face_directions(8)
        assert dirs.shape == (6, 8, 8, 3)
        assert geo.face_directions(8) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            geo.face_directions(8)[FACE_INDEX["U"]][...] = 0.0

    @pytest.mark.parametrize("res", [4, 64, 256])
    @pytest.mark.parametrize("case", ["demo", "up", "down", "hfov179", "gray"])
    def test_projection_equals_full_grid_reference(self, res, case):
        frames, poses = _projection_case(case)
        for frame, pose in zip(frames, poses):
            faces, masks = project(frame, pose, res)
            assert masks.dtype == np.uint8 and masks.any()
            for ref in (ref_project, in_place_divide_project):
                ref_faces, ref_masks = ref(frame, pose, res)
                assert np.array_equal(masks, ref_masks)
                assert faces.tobytes() == ref_faces.tobytes()

    def test_projection_equals_in_place_divide_on_the_boundary(self):
        # an hfov whose tan(hfov/2) equals a pixel centre's |x/z| exactly puts
        # that centre of face F on the frustum's side plane
        res, f, row = 8, FACE_INDEX["F"], 3
        ratios = np.abs(geo.face_directions(res)[f, row, :, 0]
                        / geo.face_directions(res)[f, row, :, 2])
        for edge in ratios:
            hfov = float(np.degrees(2.0 * np.arctan(edge)))
            if np.tan(np.radians(hfov) / 2.0) == edge:
                break
        else:
            pytest.fail("no pixel centre of the row lies exactly on a frustum edge")
        frame = PerspectiveFrame(np.random.default_rng(2).random((6, 9, 3)))
        pose = CameraPose(np.eye(3), hfov, 170.0)
        faces, masks = project(frame, pose, res)
        ref_faces, ref_masks = in_place_divide_project(frame, pose, res)
        assert masks[f, row][ratios == edge].all()
        assert np.array_equal(masks, ref_masks)
        assert faces.tobytes() == ref_faces.tobytes()

    @pytest.mark.parametrize("res", [2, 16, 64])
    def test_equirect_to_cubemap_equals_per_face_loop(self, rng, res):
        eq = rng.random((32, 64, 3))
        got = geo.equirect_to_cubemap(eq, res)
        assert got.shape == (6, res, res, 3)
        assert np.array_equal(got, ref_equirect_to_cubemap(eq, res))

    def test_one_sample_axes(self, rng):
        # on an axis of one sample both bilinear taps are that sample
        pose = CameraPose(geo.rotvec_to_matrix([0.1, 0.2, 0.0]), 100.0, 80.0)
        for shape in [(1, 5, 3), (4, 1, 3), (1, 1, 2)]:
            frame = PerspectiveFrame(rng.random(shape))
            faces, masks = project(frame, pose, 16)
            ref_faces, ref_masks = in_place_divide_project(frame, pose, 16)
            assert masks.any() and np.array_equal(masks, ref_masks)
            assert faces.tobytes() == ref_faces.tobytes()
        eq = rng.random((1, 2, 3))
        assert (geo.equirect_to_cubemap(eq, 5).tobytes()
                == ref_equirect_to_cubemap(eq, 5).tobytes())


def _resampled(res: int) -> list[bytes]:
    """Bytes of the three resamplers at face resolution ``res``: projection
    of a wide frame, equirect->cube, and the tap table's cube->equirect."""
    rng = np.random.default_rng(res)
    frame = PerspectiveFrame(rng.random((res // 2 + 3, res + 5, 3)))
    pose = CameraPose(geo.rotvec_to_matrix([0.3, -0.2, 0.1]), 170.0, 170.0)
    faces, _ = project(frame, pose, res)
    eq = geo.equirect_to_cubemap(rng.random((2 * res, 4 * res, 3)), res)
    taps = geo.EquirectTaps.create(res, 4 * res)
    return [a.tobytes() for a in (faces, eq, taps.apply(rng.random((6, res, res, 3))))]


@pytest.mark.parametrize("block,res", [(1, 8), (7, 8), (7, 16),
                                       (1 << 13, 128), (1 << 15, 128)])
def test_resample_block_size_changes_no_byte(monkeypatch, block, res):
    # the reference resamples in one block larger than every sample count;
    # at R=128 each resampler takes more than 2^15 samples
    monkeypatch.setattr(geo, "_APPLY_BLOCK_PIXELS", 1 << 30)
    ref = _resampled(res)
    monkeypatch.setattr(geo, "_APPLY_BLOCK_PIXELS", block)
    assert _resampled(res) == ref


# ── input validation ─────────────────────────────────────────────────────

def _video(shape=(2, 6, 4, 4, 1)):
    """(shape, frame) of a video whose frames, computed on read, are each
    filled with the frame's index."""
    return shape, lambda t, out: out.fill(t)


class TestCubemapVideoValidation:
    @pytest.mark.parametrize("video,match", [
        pytest.param(_video((6, 4, 4, 1)), "shape must be", id="ndim"),
        pytest.param(_video((2, 5, 4, 4, 1)), "shape must be", id="five-faces"),
        pytest.param(_video((2, 6, 4, 3, 1)), "shape must be", id="non-square"),
    ])
    def test_rejected(self, video, match):
        with pytest.raises(ValueError, match=match):
            CubemapVideo(*video)

    def test_read_computes_the_frames_it_names(self):
        video = CubemapVideo(*_video((4, 6, 4, 4, 1)))
        assert video.shape == (4, 6, 4, 4, 1)
        window = video[1:3]
        assert window.shape == (2, 6, 4, 4, 1) and window.dtype == np.float64
        assert (window[0] == 1.0).all() and (window[1] == 2.0).all()
        assert not window.flags.writeable
        assert video[:].shape == video.shape


class TestPerspectiveFrameValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        px = np.full((4, 6, 3), 0.5)
        px[2, 3, 1] = value
        with pytest.raises(ValueError, match="finite"):
            PerspectiveFrame(px)

    @pytest.mark.parametrize("value", [1.5, -0.25])
    def test_out_of_range_rejected(self, value):
        px = np.full((4, 6, 3), 0.5)
        px[1, 2, 0] = value
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PerspectiveFrame(px)


# ── rotations against scipy ──────────────────────────────────────────────

class TestRotationHelpers:
    def _random_rotvecs(self, rng, angles):
        axes = rng.normal(size=(len(angles), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        return axes * np.asarray(angles)[:, None]

    def _angles(self, rng):
        near_zero = [0.0, 1e-12, 1e-8, 1e-5, 9.9e-5, 1e-4, 1e-3, 2e-3]
        near_pi = [np.pi - d for d in (1e-9, 1e-7, 1e-4, 1e-2)]
        return near_zero + near_pi + list(rng.uniform(0.0, np.pi, 40))

    def test_rotvec_to_matrix_matches_scipy(self, rng):
        Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
        for vec in self._random_rotvecs(rng, self._angles(rng)):
            np.testing.assert_allclose(geo.rotvec_to_matrix(vec),
                                       Rotation.from_rotvec(vec).as_matrix(),
                                       rtol=0, atol=1e-12)

    def test_matrix_to_rotvec_matches_scipy(self, rng):
        Rotation = pytest.importorskip("scipy.spatial.transform").Rotation
        for vec in self._random_rotvecs(rng, self._angles(rng)):
            mat = Rotation.from_rotvec(vec).as_matrix()
            np.testing.assert_allclose(geo.matrix_to_rotvec(mat),
                                       Rotation.from_matrix(mat).as_rotvec(),
                                       rtol=0, atol=1e-12)

    def test_round_trip_and_identity(self, rng):
        assert np.array_equal(geo.rotvec_to_matrix(np.zeros(3)), np.eye(3))
        assert np.array_equal(geo.matrix_to_rotvec(np.eye(3)), np.zeros(3))
        for vec in self._random_rotvecs(rng, rng.uniform(0.0, np.pi - 1e-3, 20)):
            np.testing.assert_allclose(
                geo.matrix_to_rotvec(geo.rotvec_to_matrix(vec)), vec,
                rtol=0, atol=1e-12)


# ── trajectories ─────────────────────────────────────────────────────────

def geodesic_angle(ra, rb):
    rel = ra.T @ rb
    c = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    return np.arccos(c)


class TestTrajectory:
    def test_identical_anchors(self):
        a = yaw_pose(10.0, 70.0, 50.0)
        poses = geo.sample_trajectory([a, a], 5)
        assert len(poses) == 5
        for p in poses:
            np.testing.assert_allclose(p.rotation, a.rotation, atol=1e-12)
            assert p.hfov_deg == a.hfov_deg and p.vfov_deg == a.vfov_deg

    def test_midpoint_of_quarter_yaw(self):
        poses = geo.sample_trajectory([yaw_pose(0.0), yaw_pose(90.0)], 3)
        np.testing.assert_allclose(poses[1].rotation, yaw_pose(45.0).rotation, atol=1e-9)

    def test_endpoints_exact(self):
        a, b = yaw_pose(5.0, 60.0, 60.0), yaw_pose(80.0, 100.0, 80.0)
        poses = geo.sample_trajectory([a, b], 9)
        assert poses[0] is a and poses[-1] is b

    def test_uniform_step_within_segments(self):
        anchors = [yaw_pose(0.0, 60, 60), yaw_pose(40.0, 90, 70), yaw_pose(120.0, 120, 80)]
        poses = geo.sample_trajectory(anchors, 27)
        steps = [geodesic_angle(poses[i].rotation, poses[i + 1].rotation)
                 for i in range(26)]
        # uniform arc-length spacing => every step equals total/(N-1)
        np.testing.assert_allclose(steps, np.radians(120.0) / 26, atol=1e-9)

    def test_fov_interpolates(self):
        poses = geo.sample_trajectory([yaw_pose(0.0, 60, 40), yaw_pose(90.0, 120, 80)], 5)
        np.testing.assert_allclose([p.hfov_deg for p in poses], [60, 75, 90, 105, 120])

    def test_antipodal_rejected(self):
        with pytest.raises(ValueError):
            geo.sample_trajectory([yaw_pose(0.0), yaw_pose(180.0)], 4)

    def test_too_few_anchors_rejected(self):
        with pytest.raises(ValueError):
            geo.sample_trajectory([yaw_pose(0.0)], 4)
