"""Projections among perspective frames, equirectangular grids, and cubemaps.

A cubemap is one stacked array: six (R, R, C) faces in the canonical order
:data:`cubegen.faces.FACES`, so one frame is (6, R, R, C) and a video is a
plain (N, 6, R, R, C) float64 array.  Every layer indexes that layout
directly; face ``f`` of frame ``t`` is ``video[t, FACE_INDEX[f]]``.  A video
that nothing needs whole, the synthetic truth or the masked conditional, is
a :class:`CubemapVideo`: it reads like such an array and computes a frame's
pixels each time a read names it.

All mappings use pixel-center sampling (offset 0.5).  Images are sampled
bilinearly; binary masks nearest-neighbor.  The equirectangular longitude
seam wraps, latitude clamps at the poles.  Frustum boundary pixels count as
observed.  See :mod:`cubegen.faces` for the frozen axis convention.

The (6, R, R, 3) pixel-center directions of the cube depend only on R, so
:func:`face_directions` builds them once per R as one read-only stack that
projection, resampling and the synthetic scene share.

Every bilinear resample is one tap table (a flat top-left tap, a row
stride, two fractions) and one blocked loop, ``_Taps.resample``, over a
(P, C) pixel array: projection builds the table per frame on the perspective
frame, :func:`equirect_to_cubemap` on the equirect grid with its first
column appended, and :class:`EquirectTaps`, built once per (R, W), on the
six faces themselves.  A sample whose four taps are not one grid square
also has its own four taps, which the loop reads after each block: the few
equirect pixels next to a cube edge take theirs through the pad-1 map of
:mod:`cubegen.continuity`, so their taps cross onto the neighbouring face.
A frame is resampled from its faces as they are, with no padded copy, and
can be a block of equirect rows at a time (:meth:`EquirectTaps.row_blocks`),
so no equirect frame need be held whole.

Rotations convert between matrices and rotation vectors with plain numpy
(Rodrigues one way, the unit quaternion the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .continuity import _pad_table
from .faces import FACES, FACE_AXES

__all__ = [
    "CameraPose",
    "PerspectiveFrame",
    "CubemapVideo",
    "equirect_pixel_to_direction",
    "direction_to_equirect_pixel",
    "direction_to_face_coords",
    "face_coords_to_direction",
    "face_directions",
    "frustum_masks",
    "project_perspective_to_cubemap",
    "EquirectTaps",
    "equirect_to_cubemap",
    "rotvec_to_matrix",
    "matrix_to_rotvec",
    "sample_trajectory",
    "face_pixel_solid_angles",
    "frustum_solid_angle",
]

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-7
_TAP_BLOCK_PIXELS = 1 << 16  # equirect pixels per block of EquirectTaps.create
# samples per _Taps.resample block, taps per row block, directions per
# frustum_masks block
_APPLY_BLOCK_PIXELS = 1 << 15


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rotation plus a symmetric pinhole frustum.

    ``rotation`` maps camera coordinates (camera looks down +z, +y up,
    +x right) into world coordinates.  FoVs are full angles in degrees,
    strictly inside (0, 180).
    """

    rotation: np.ndarray
    hfov_deg: float
    vfov_deg: float

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=_ORTHO_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1")
        for name, fov in (("hfov_deg", self.hfov_deg), ("vfov_deg", self.vfov_deg)):
            if not 0.0 < fov < 180.0:
                raise ValueError(f"{name} must lie in (0, 180), got {fov}")
        object.__setattr__(self, "rotation", rot)

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(v) for v in self.rotation.flat],
            "hfov_deg": float(self.hfov_deg),
            "vfov_deg": float(self.vfov_deg),
        }


@dataclass(frozen=True)
class PerspectiveFrame:
    """A single perspective image, pixels in [0, 1], shape (H, W, C)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be (H, W, C) with H, W >= 1, got {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError("pixels must be finite (no NaN or inf)")
        lo, hi = px.min(), px.max()
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"pixels must lie in [0, 1], got [{lo:g}, {hi:g}]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


class CubemapVideo:
    """An (N, 6, R, R, C) cube video read by frame: ``frame(t, out)`` writes
    frame ``t``'s (6, R, R, C) float64 pixels, faces in canonical order, into
    ``out``.  A read, ``video[s:e]``, computes every frame it names into a
    new read-only (e-s, 6, R, R, C) array with the bytes of the same slice of
    the whole array; nothing else holds pixels."""

    def __init__(self, shape, frame):
        if len(shape) != 5 or shape[1] != 6 or shape[2] != shape[3]:
            raise ValueError(f"shape must be (N, 6, R, R, C), got {shape}")
        self.shape = tuple(shape)
        self._frame = frame

    def __getitem__(self, frames: slice) -> np.ndarray:
        ts = range(*frames.indices(self.shape[0]))
        out = np.empty((len(ts), *self.shape[1:]))
        for k, t in enumerate(ts):
            self._frame(t, out[k])
        out.flags.writeable = False
        return out


# ---------------------------------------------------------------------------
# pixel <-> direction mappings
# ---------------------------------------------------------------------------

def equirect_pixel_to_direction(u, v, width: int) -> np.ndarray:
    """Unit direction of equirect pixel center (u=col, v=row); shape (..., 3).

    Longitude theta = (u+0.5)/W * 2*pi - pi, latitude = pi/2 - (v+0.5)/(W/2) * pi;
    theta = 0, lat = 0 looks down +z.
    """
    if width < 2 or width % 2:
        raise ValueError(f"width must be even and >= 2, got {width}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    height = width // 2
    if np.any(u < 0) or np.any(u >= width) or np.any(v < 0) or np.any(v >= height):
        raise ValueError("pixel index out of range")
    theta = (u + 0.5) / width * (2.0 * np.pi) - np.pi
    lat = np.pi / 2.0 - (v + 0.5) / height * np.pi
    cl = np.cos(lat)
    return np.stack([cl * np.sin(theta), np.sin(lat), cl * np.cos(theta)], axis=-1)


def direction_to_equirect_pixel(d, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Fractional (u, v) equirect pixel coordinates of unit direction(s)."""
    d = _check_unit(d)
    theta = np.arctan2(d[..., 0], d[..., 2])
    lat = np.arcsin(np.clip(d[..., 1], -1.0, 1.0))
    u = (theta + np.pi) / (2.0 * np.pi) * width - 0.5
    v = (np.pi / 2.0 - lat) / np.pi * (width / 2.0) - 0.5
    return u, v


def _check_unit(d) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.shape[-1] != 3:
        raise ValueError("direction must have a trailing axis of size 3")
    norm2 = np.sum(d * d, axis=-1)
    if np.any(np.abs(norm2 - 1.0) > 2.0 * _UNIT_TOL):
        raise ValueError("direction is not unit-norm")
    return d


# Outward-normal dot products in canonical order; argmax tie-breaks F,R,B,L,U,D.
_NORMALS = np.asarray([FACE_AXES[f][0] for f in FACES])  # (6, 3)
_RIGHTS = np.asarray([FACE_AXES[f][1] for f in FACES])
_DOWNS = np.asarray([FACE_AXES[f][2] for f in FACES])


def direction_to_face_coords(d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map unit direction(s) to (face index, x, y) with x, y in [0, 1].

    The face is the one whose outward normal has the largest (positive) dot
    product; ties resolve to the earliest face in canonical order.  Exactly
    on an edge the winning coordinate is 0.0 or 1.0.
    """
    d = _check_unit(d)
    dots = d @ _NORMALS.T  # (..., 6)
    face = np.argmax(dots, axis=-1)
    n_dot = np.take_along_axis(dots, face[..., None], axis=-1)[..., 0]
    a = np.sum(d * _RIGHTS[face], axis=-1) / n_dot
    b = np.sum(d * _DOWNS[face], axis=-1) / n_dot
    return face, (a + 1.0) / 2.0, (b + 1.0) / 2.0


def face_coords_to_direction(face, x, y) -> np.ndarray:
    """Inverse of :func:`direction_to_face_coords`; accepts face index or name."""
    if isinstance(face, str):
        face = FACES.index(face)
    face = np.asarray(face)
    a = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
    b = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    v = _NORMALS[face] + a[..., None] * _RIGHTS[face] + b[..., None] * _DOWNS[face]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@lru_cache(maxsize=4)
def face_directions(resolution: int) -> np.ndarray:
    """Read-only (6, R, R, 3) unit directions of every cube-face pixel
    center, faces in canonical order; built once per R, a face at a time."""
    c = (np.arange(resolution) + 0.5) / resolution
    y, x = np.meshgrid(c, c, indexing="ij")
    dirs = np.empty((6, resolution, resolution, 3))
    for i in range(6):
        dirs[i] = face_coords_to_direction(i, x, y)
    dirs.flags.writeable = False
    return dirs


# ---------------------------------------------------------------------------
# bilinear tap tables
# ---------------------------------------------------------------------------

def _axis_taps(coords: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower tap, counted from the first sample, and fraction of coordinates
    on an axis sampled at first, ..., last; they clamp to [first, last], and
    the upper tap is the next sample.  The fraction is ``a - tap`` on the
    coordinate itself, so padding a grid changes no fraction off the pad."""
    a = np.clip(coords, first, last)
    tap = np.maximum(np.minimum(np.floor(a), last - 1), first)
    return (tap - first).astype(np.intp), a - tap


@dataclass(frozen=True)
class _Taps:
    """Bilinear taps into a grid flattened row-major: ``index`` is each
    sample's top-left tap, the next column ``step`` and the next row
    ``stride`` further on (0 on an axis of one sample), and the fractions
    weight the upper taps.  The samples at ``edge_pos``, sorted, whose four
    taps are not one grid square, have them (top-left, top-right,
    bottom-left, bottom-right) in the (4, k) ``edge_taps``: what their
    ``index`` gives is overwritten."""

    index: np.ndarray
    row_frac: np.ndarray
    col_frac: np.ndarray
    stride: int
    step: int
    edge_pos: np.ndarray
    edge_taps: np.ndarray

    def resample(self, pixels: np.ndarray, out: np.ndarray,
                 start: int = 0) -> np.ndarray:
        """Write the bilinear samples of taps [start, start + len(out)) of
        the (P, C) float64 pixels the taps index into ``out``, (len(out), C)."""
        channels, n = pixels.shape[1], len(out)
        flat = pixels.reshape(-1)  # channel c of pixel k is flat[c:][k * channels]
        d, s = self.step * channels, self.stride * channels
        # In blocks whose buffers stay in cache and whose numpy calls, each
        # run without the GIL, are long enough that two threads resampling
        # at once both make progress.
        block = max(1, _APPLY_BLOCK_PIXELS // channels)
        buffers = np.empty((5, min(n, block)))
        taps = np.empty(min(n, block), dtype=np.intp)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            blk = slice(start + lo, start + hi)
            tap = np.multiply(self.index[blk], channels, out=taps[:hi - lo])
            _bilinear(flat, ((0, tap), (d, tap), (s, tap), (s + d, tap)),
                      self.row_frac[blk], self.col_frac[blk], buffers,
                      out, slice(lo, hi))
            # The block's samples whose taps are not one grid square: the
            # same operations again, on their own four taps.
            a, b = np.searchsorted(self.edge_pos, (blk.start, blk.stop))
            if a < b:
                pos = self.edge_pos[a:b]
                _bilinear(flat, [(0, k) for k in self.edge_taps[:, a:b] * channels],
                          self.row_frac[pos], self.col_frac[pos], buffers,
                          out, pos - start)
        return out


def _bilinear(flat: np.ndarray, corners, row_frac: np.ndarray,
              col_frac: np.ndarray, buffers: np.ndarray, out: np.ndarray,
              rows) -> None:
    """Write ``out[rows]``, channel by channel, from the flat pixels: each
    of the four ``corners`` (top-left, top-right, bottom-left,
    bottom-right) is an (offset, taps) pair, channel c of a sample's corner
    being ``flat[c + offset:][taps]``.  ``buffers`` is (5, >= len(taps))
    scratch.  top * (1 - fr) + bottom * fr, each (1 - fc) * left + fc *
    right.  mode="clip" skips the default's buffering; only an edge
    sample's ``index``, whose result is overwritten, can run past the end."""
    fr, fc = row_frac, col_frac
    t, p, b, wr, wc = buffers[:, :fr.size]
    np.subtract(1.0, fr, out=wr)
    np.subtract(1.0, fc, out=wc)
    (o0, i0), (o1, i1), (o2, i2), (o3, i3) = corners
    for c in range(out.shape[1]):
        np.take(flat[c + o0:], i0, out=t, mode="clip")
        t *= wc
        np.take(flat[c + o1:], i1, out=p, mode="clip")
        p *= fc
        t += p
        np.take(flat[c + o2:], i2, out=b, mode="clip")
        b *= wc
        np.take(flat[c + o3:], i3, out=p, mode="clip")
        p *= fc
        b += p
        t *= wr
        b *= fr
        t += b
        out[rows, c] = t


_NO_EDGES = {"edge_pos": np.empty(0, np.intp),
             "edge_taps": np.empty((4, 0), np.intp)}


def _grid_taps(rows: np.ndarray, cols: np.ndarray, height: int, width: int) -> _Taps:
    """Taps of (rows, cols) into a (height, width) grid, clamped at its borders."""
    r0, fr = _axis_taps(rows, 0, height - 1)
    c0, fc = _axis_taps(cols, 0, width - 1)
    return _Taps(index=r0 * width + c0, row_frac=fr, col_frac=fc,
                 stride=width if height > 1 else 0, step=1 if width > 1 else 0,
                 **_NO_EDGES)


def _nearest_pixel(face, row, col, row_frac, col_frac, res: int) -> np.ndarray:
    """Flat (6*R*R) index of the face pixel nearest to the bilinear point
    at tap (row, col) of ``face`` plus the fractions.  ``row + row_frac``
    is the row coordinate exactly where it is >= 0 (an exact subtraction
    gave the fraction) and <= 0 below, so rounding it clamped to the face
    gives the nearest row; so for columns."""
    near_r = np.rint(np.clip(row + row_frac, 0, res - 1)).astype(np.intp)
    near_c = np.rint(np.clip(col + col_frac, 0, res - 1)).astype(np.intp)
    return (face * res + near_r) * res + near_c


@dataclass(frozen=True)
class EquirectTaps(_Taps):
    """Fixed cube->equirect resampling table for one (R, W): taps of the
    (W/2, W) equirect pixels, row-major, into the (6*R*R) stack of faces.
    Face coordinates run from -1 to R, so a pixel next to a cube edge has
    taps on the neighbouring face and none is clamped: such an edge pixel,
    one whose four taps are not one square of its own face, reads them
    through the pad-1 map from ``edge_taps``, and its ``index`` holds its
    nearest face pixel.  Masks take the nearest face pixel, derived from the
    taps."""

    resolution: int
    width: int

    @classmethod
    def create(cls, resolution: int, width: int) -> "EquirectTaps":
        if width % 4:
            raise ValueError(f"equirect width must be a multiple of 4, got {width}")
        res, height, n = resolution, width // 2, resolution + 2
        padded = _pad_table(res, 1).index  # (6, n*n) stack pixel of each padded pixel
        index = np.empty(height * width, dtype=np.intp)
        row_frac = np.empty(height * width)
        col_frac = np.empty_like(row_frac)
        edge_pos, edge_taps = [], []
        # Built in blocks of equirect rows, so the per-pixel directions and
        # face coordinates never exist for the whole grid at once.
        block = max(1, _TAP_BLOCK_PIXELS // width)
        for top in range(0, height, block):
            u, v = np.meshgrid(np.arange(width),
                               np.arange(top, min(top + block, height)), indexing="xy")
            face, x, y = direction_to_face_coords(
                equirect_pixel_to_direction(u, v, width))
            # taps counted from row and column -1 of the face padded by one
            r0, fr = _axis_taps(y * res - 0.5, -1, res)
            c0, fc = _axis_taps(x * res - 0.5, -1, res)
            face, r0, c0, fr, fc = (a.ravel() for a in (face, r0, c0, fr, fc))
            out = slice(top * width, top * width + u.size)
            index[out] = (face * res + r0 - 1) * res + c0 - 1
            row_frac[out] = fr
            col_frac[out] = fc
            pos = np.flatnonzero((np.minimum(r0, c0) < 1) | (np.maximum(r0, c0) > res - 1))
            f, r, c = face[pos], r0[pos], c0[pos]
            edge_taps.append([padded[f, (r + i) * n + c + j]
                              for i in (0, 1) for j in (0, 1)])
            index[out][pos] = _nearest_pixel(f, r - 1, c - 1, fr[pos], fc[pos], res)
            edge_pos.append(pos + out.start)
        return cls(index=index, row_frac=row_frac, col_frac=col_frac,
                   stride=res, step=1, edge_pos=np.concatenate(edge_pos),
                   edge_taps=np.concatenate(edge_taps, axis=1),
                   resolution=res, width=width)

    def _check(self, grids: np.ndarray, ndim: int) -> None:
        res = self.resolution
        if grids.ndim != ndim or grids.shape[:3] != (6, res, res):
            raise ValueError(f"need (6, {res}, {res}) face grids, got {grids.shape}")

    def apply(self, faces, out: np.ndarray | None = None, top: int = 0) -> np.ndarray:
        """Bilinear resample of (6, R, R, C) faces onto the (W/2, W, C)
        equirect grid, or into ``out`` onto its rows [top, top + len(out))."""
        faces = np.ascontiguousarray(faces, dtype=np.float64)
        self._check(faces, 4)
        height, width, channels = self.width // 2, self.width, faces.shape[3]
        out = np.empty((height - top, width, channels)) if out is None else out
        if (out.ndim != 3 or out.shape[1:] != (width, channels)
                or not 0 <= top <= top + len(out) <= height):
            raise ValueError(f"out must be (rows, {width}, {channels}) within the "
                             f"{height} rows from row {top}, got {out.shape}")
        self.resample(faces.reshape(-1, channels),
                      out.reshape(-1, channels, copy=False), top * width)
        return out

    def row_blocks(self, faces):
        """Resample (6, R, R, C) faces onto the (W/2, W, C) equirect grid a
        block of rows at a time: yield ``(top, rows)``, ``rows`` the grid's
        rows [top, top + len(rows)) in one buffer that the next block
        overwrites."""
        faces = np.ascontiguousarray(faces, dtype=np.float64)
        self._check(faces, 4)
        height, width = self.width // 2, self.width
        step = max(1, _APPLY_BLOCK_PIXELS // width)
        buf = np.empty((min(step, height), width, faces.shape[3]))
        for top in range(0, height, step):
            yield top, self.apply(faces, buf[:height - top], top)

    def apply_mask(self, masks) -> np.ndarray:
        """Nearest-neighbor transfer of (6, R, R) binary masks onto a
        (W/2, W) uint8 grid."""
        masks = np.asarray(masks, dtype=np.uint8)
        self._check(masks, 3)
        return np.take(masks.ravel(), self._nearest).reshape(
            self.width // 2, self.width)

    @cached_property
    def _nearest(self) -> np.ndarray:
        """Flat (6*R*R) index of each equirect pixel's nearest face pixel,
        derived on the first mask transfer, which ``generate`` never makes:
        rounded from each tap and its fractions, and an edge pixel's index."""
        res = self.resolution
        near = _nearest_pixel(*np.unravel_index(self.index, (6, res, res)),
                              self.row_frac, self.col_frac, res)
        near[self.edge_pos] = self.index[self.edge_pos]
        return near


# ---------------------------------------------------------------------------
# projection operations
# ---------------------------------------------------------------------------

def frustum_masks(pose: CameraPose, resolution: int) -> np.ndarray:
    """(6, R, R) uint8 observation masks of a pose: 1 where the cube pixel
    center lies inside the FoV frustum, boundary inclusive.  The cached
    direction stack is rotated into the camera frame by its per-row matmul,
    in blocks of face rows, and a block with no row facing the camera is
    skipped.

    Along a face row, a direction's camera z has the sign of a linear
    function, so a row whose two end pixels have z <= 0 has no pixel in
    front of the camera (one within rounding of z = 0 fails the FoV test).
    A block holds about :data:`_APPLY_BLOCK_PIXELS` directions, so its
    temporaries stay small, and at small R the whole stack is one block."""
    if resolution < 4:
        raise ValueError(f"face resolution must be >= 4, got {resolution}")
    tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
    rows = face_directions(resolution).reshape(-1, resolution, 3)  # (6R, R, 3)
    w = pose.rotation[:, 2]  # camera z of a direction d is d @ w
    facing = np.maximum(rows[:, 0] @ w, rows[:, -1] @ w) > 0
    masks = np.zeros((6 * resolution, resolution), np.uint8)
    step = max(1, _APPLY_BLOCK_PIXELS // resolution)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, len(rows), step):
            if not facing[a:a + step].any():
                continue
            d = rows[a:a + step] @ pose.rotation  # R^T d
            x, y, z = d[..., 0], d[..., 1], d[..., 2]
            masks[a:a + step] = ((z > 0) & (np.abs(x / z) <= tan_h)
                                 & (np.abs(y / z) <= tan_v))
    return masks.reshape(6, resolution, resolution)


def project_perspective_to_cubemap(frame: PerspectiveFrame, pose: CameraPose,
                                   masks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Project one perspective frame onto a cubemap: write the (6, R, R, C)
    faces into ``out`` and return it.

    Pixels inside the FoV frustum by ``masks``, the pose's
    :func:`frustum_masks`, sample the frame bilinearly; every other pixel is
    0.  Only their directions are rotated into the camera frame, so the
    frustum test is not repeated.
    """
    inside = masks.astype(bool)
    tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
    x, y, z = (face_directions(masks.shape[-1])[inside] @ pose.rotation).T
    cols = (x / z / tan_h + 1.0) / 2.0 * frame.width - 0.5
    rows = (-y / z / tan_v + 1.0) / 2.0 * frame.height - 0.5
    taps = _grid_taps(rows, cols, frame.height, frame.width)
    out.fill(0.0)
    out[inside] = taps.resample(frame.pixels.reshape(-1, frame.channels),
                                np.empty((rows.size, frame.channels)))
    return out


def equirect_to_cubemap(eq: np.ndarray, resolution: int) -> np.ndarray:
    """Resample a (W/2, W, C) equirectangular grid onto (6, R, R, C) cube
    faces."""
    eq = np.asarray(eq, dtype=np.float64)
    if eq.ndim != 3 or eq.shape[1] != 2 * eq.shape[0]:
        raise ValueError(f"equirect grid must be (W/2, W, C), got {eq.shape}")
    if resolution < 1:
        raise ValueError("face resolution must be >= 1")
    height, width, channels = eq.shape
    u, v = direction_to_equirect_pixel(face_directions(resolution), width)
    # Column W repeats column 0, so the longitude seam is an ordinary tap.
    grid = np.concatenate((eq, eq[:, :1]), axis=1).reshape(-1, channels)
    taps = _grid_taps(v.ravel(), np.mod(u, width).ravel(), height, width + 1)
    out = np.empty((6, resolution, resolution, channels))
    taps.resample(grid, out.reshape(-1, channels))
    return out


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rotvec_to_matrix(vec) -> np.ndarray:
    """(3, 3) rotation matrix of a rotation vector (unit axis times angle),
    by the Rodrigues formula; a Taylor series takes over near angle 0."""
    v = np.asarray(vec, dtype=np.float64)
    theta = float(np.linalg.norm(v))
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if theta < 1e-4:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0        # sin(x) / x
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0       # (1 - cos(x)) / x^2
    else:
        a = np.sin(theta) / theta
        b = 2.0 * np.sin(theta / 2.0) ** 2 / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def matrix_to_rotvec(rot) -> np.ndarray:
    """Rotation vector of a (3, 3) rotation matrix, angle in [0, pi].

    Goes through the unit quaternion, read off whichever of the trace and
    the three diagonal entries is largest, so it stays accurate as the angle
    approaches pi.
    """
    m = np.asarray(rot, dtype=np.float64)
    diag = np.diag(m)
    trace = diag.sum()
    q = np.empty(4)  # (x, y, z, w)
    i = int(np.argmax(diag))
    if trace > diag[i]:
        q[:3] = m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]
        q[3] = 1.0 + trace
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q[i] = 1.0 - trace + 2.0 * m[i, i]
        q[j] = m[j, i] + m[i, j]
        q[k] = m[k, i] + m[i, k]
        q[3] = m[k, j] - m[j, k]
    q /= np.linalg.norm(q)
    if q[3] < 0:
        q = -q
    angle = 2.0 * np.arctan2(np.linalg.norm(q[:3]), q[3])
    if angle <= 1e-3:  # angle / sin(angle / 2), Taylor series
        scale = 2.0 + angle ** 2 / 12.0 + 7.0 * angle ** 4 / 2880.0
    else:
        scale = angle / np.sin(angle / 2.0)
    return scale * q[:3]


# ---------------------------------------------------------------------------
# camera trajectories
# ---------------------------------------------------------------------------

def sample_trajectory(anchors: list[CameraPose], n_frames: int) -> list[CameraPose]:
    """Interpolate anchor poses into ``n_frames`` poses.

    Rotations follow piecewise slerp sampled at uniform arc length over the
    whole path; FoVs interpolate linearly with the same parameter.  The first
    and last outputs equal the first and last anchors exactly.
    """
    if len(anchors) < 2:
        raise ValueError("need at least 2 anchors")
    if n_frames < 2:
        raise ValueError("need at least 2 frames")

    rots = [a.rotation for a in anchors]
    rel_vecs = []
    for ra, rb in zip(rots[:-1], rots[1:]):
        vec = matrix_to_rotvec(ra.T @ rb)
        ang = np.linalg.norm(vec)
        if ang > np.pi - 1e-9:
            raise ValueError("consecutive anchors are antipodal; slerp ill-defined")
        rel_vecs.append(vec)
    seg_len = np.array([np.linalg.norm(v) for v in rel_vecs])
    total = seg_len.sum()

    if total < 1e-12:
        # Rotations never move: parameterize uniformly by anchor index so
        # FoV interpolation still works.
        cum = np.arange(len(anchors), dtype=np.float64)
        total_param = cum[-1]
    else:
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        total_param = total

    out = []
    for i in range(n_frames):
        if i == 0:
            out.append(anchors[0])
            continue
        if i == n_frames - 1:
            out.append(anchors[-1])
            continue
        s = total_param * i / (n_frames - 1)
        k = int(np.searchsorted(cum, s, side="right") - 1)
        k = min(k, len(anchors) - 2)
        span = cum[k + 1] - cum[k]
        t = (s - cum[k]) / span if span > 0 else 0.0
        rot = rots[k] @ rotvec_to_matrix(t * rel_vecs[k])
        hf = (1 - t) * anchors[k].hfov_deg + t * anchors[k + 1].hfov_deg
        vf = (1 - t) * anchors[k].vfov_deg + t * anchors[k + 1].vfov_deg
        out.append(CameraPose(rot, hf, vf))
    return out


# ---------------------------------------------------------------------------
# solid-angle accounting (used by invariants and metrics)
# ---------------------------------------------------------------------------

def face_pixel_solid_angles(resolution: int) -> np.ndarray:
    """(R, R) midpoint-rule solid angle of each cube-face pixel."""
    c = (np.arange(resolution) + 0.5) / resolution * 2.0 - 1.0
    b, a = np.meshgrid(c, c, indexing="ij")
    da = 2.0 / resolution
    return da * da / np.power(1.0 + a * a + b * b, 1.5)


def frustum_solid_angle(hfov_deg: float, vfov_deg: float) -> float:
    """Analytic solid angle of a symmetric rectangular frustum."""
    h = np.radians(hfov_deg)
    v = np.radians(vfov_deg)
    return float(4.0 * np.arcsin(np.sin(h / 2.0) * np.sin(v / 2.0)))
