"""Projections among perspective frames, equirectangular grids, and cubemaps.

A cubemap is one stacked array: six (R, R, C) faces in the canonical order
:data:`cubegen.faces.FACES`, so one frame is (6, R, R, C) with (6, R, R)
binary masks, and a video, :class:`CubemapVideo`, is (N, 6, R, R, C) with
(N, 6, R, R) masks.  Every layer indexes that layout directly; face ``f`` of
frame ``t`` is ``pixels[t, FACE_INDEX[f]]``.

All mappings use pixel-center sampling (offset 0.5).  Images are sampled
bilinearly; binary masks nearest-neighbor.  The equirectangular longitude
seam wraps, latitude clamps at the poles.  Frustum boundary pixels count as
observed.  See :mod:`cubegen.faces` for the frozen axis convention.

The (6, R, R, 3) pixel-center directions of the cube depend only on R, so
:func:`face_directions` builds them once per R as one read-only stack that
projection, resampling and the synthetic scene share.

Every bilinear resample is one tap table (a flat top-left tap, a row
stride, two fractions) and one blocked apply: projection builds it per frame
on the perspective frame, :func:`equirect_to_cubemap` on the equirect grid
with its first column appended, and :class:`EquirectTaps`, built once per
(R, W) and applied per frame, on the six faces padded by one pixel through
the pad-1 map of :mod:`cubegen.continuity`, so cube taps cross cube edges.

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
    "face_pixel_directions",
    "project_perspective_to_cubemap",
    "EquirectTaps",
    "cubemap_to_equirect",
    "equirect_to_cubemap",
    "rotvec_to_matrix",
    "matrix_to_rotvec",
    "sample_trajectory",
    "equirect_pixel_solid_angles",
    "face_pixel_solid_angles",
    "frustum_solid_angle",
]

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-7
_TAP_BLOCK_PIXELS = 1 << 16  # equirect pixels per block of EquirectTaps.create
_APPLY_BLOCK_PIXELS = 1 << 15  # output samples per block of _Taps.resample


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CameraPose":
        rot = np.asarray(obj["rotation"], dtype=np.float64).reshape(3, 3)
        return cls(rot, float(obj["hfov_deg"]), float(obj["vfov_deg"]))


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


@dataclass(frozen=True)
class CubemapVideo:
    """A cubemap video as one stacked array: ``pixels`` (N, 6, R, R, C)
    float64 and binary observation ``masks`` (N, 6, R, R) uint8, faces in
    canonical order.  Shapes and masks are checked once, here."""

    pixels: np.ndarray
    masks: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        mk = np.asarray(self.masks)
        if px.ndim != 5 or px.shape[1] != 6 or px.shape[2] != px.shape[3]:
            raise ValueError(f"pixels must be (N, 6, R, R, C), got {px.shape}")
        if mk.shape != px.shape[:4]:
            raise ValueError(f"masks must be {px.shape[:4]}, got {mk.shape}")
        if not ((mk == 0) | (mk == 1)).all():
            raise ValueError("masks must be binary")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "masks", mk.astype(np.uint8, copy=False))

    @property
    def num_frames(self) -> int:
        return self.pixels.shape[0]

    @property
    def resolution(self) -> int:
        return self.pixels.shape[2]

    @property
    def channels(self) -> int:
        return self.pixels.shape[4]


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
    center, faces in canonical order; built once per resolution."""
    c = (np.arange(resolution) + 0.5) / resolution
    y, x = np.meshgrid(c, c, indexing="ij")
    dirs = face_coords_to_direction(np.arange(6)[:, None, None], x, y)
    dirs.flags.writeable = False
    return dirs


def face_pixel_directions(face: str, resolution: int) -> np.ndarray:
    """(R, R, 3) unit directions of pixel centers of one cube face: a
    read-only view of :func:`face_directions`."""
    return face_directions(resolution)[FACES.index(face)]


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
    weight the upper taps."""

    index: np.ndarray
    row_frac: np.ndarray
    col_frac: np.ndarray
    stride: int
    step: int

    def resample(self, pixels: np.ndarray, out: np.ndarray,
                 gather: np.ndarray | None = None) -> np.ndarray:
        """Write the bilinear samples of every channel of the (P, C) float64
        pixels into ``out`` (len(index), C).  The taps index the P pixels,
        or, given ``gather``, the grid ``pixels[gather]``."""
        channels = pixels.shape[1]
        plane = np.empty(len(pixels) if gather is None else gather.size)
        if gather is not None:
            flat, gather = pixels.reshape(-1), gather.reshape(-1) * channels
        n, d, s = self.index.size, self.step, self.stride
        # Channel by channel, in blocks whose four 256 KB buffers stay in
        # cache and whose numpy calls, each run without the GIL, are long
        # enough that two threads resampling at once both make progress:
        # top * (1 - fr) + bottom * fr, each (1 - fc) * left + fc * right.
        # Indices are in range; mode="clip" skips the default's buffering.
        block = _APPLY_BLOCK_PIXELS
        buffers = np.empty((4, min(n, block)))
        for c in range(channels):
            if gather is None:
                np.copyto(plane, pixels[:, c])
            else:  # channel c of pixel k is flat[c:][k * channels]
                np.take(flat[c:], gather, out=plane, mode="clip")
            for lo in range(0, n, block):
                blk = slice(lo, lo + block)
                idx, fr, fc = self.index[blk], self.row_frac[blk], self.col_frac[blk]
                t, p, b, wb = buffers[:, :idx.size]
                np.subtract(1.0, fc, out=wb)
                np.take(plane, idx, out=t, mode="clip")
                t *= wb
                np.take(plane[d:], idx, out=p, mode="clip")
                p *= fc
                t += p
                np.take(plane[s:], idx, out=b, mode="clip")
                b *= wb
                np.take(plane[s + d:], idx, out=p, mode="clip")
                p *= fc
                b += p
                np.subtract(1.0, fr, out=wb)
                t *= wb
                b *= fr
                t += b
                out[blk, c] = t
        return out


def _grid_taps(rows: np.ndarray, cols: np.ndarray, height: int, width: int) -> _Taps:
    """Taps of (rows, cols) into a (height, width) grid, clamped at its borders."""
    r0, fr = _axis_taps(rows, 0, height - 1)
    c0, fc = _axis_taps(cols, 0, width - 1)
    return _Taps(index=r0 * width + c0, row_frac=fr, col_frac=fc,
                 stride=width if height > 1 else 0, step=1 if width > 1 else 0)


@dataclass(frozen=True)
class EquirectTaps(_Taps):
    """Fixed cube->equirect resampling table for one (R, W): taps of the
    (W/2, W) equirect pixels, row-major, into the (6, R+2, R+2) faces padded
    by one pixel, which ``gather`` (the pad-1 map) copies from the (6*R*R)
    faces.  Face coordinates run from -1 to R there, so a tap next to a cube
    edge reads the neighbouring face and none is clamped.  Masks take the
    nearest face pixel, derived from the taps."""

    resolution: int
    width: int
    gather: np.ndarray

    @classmethod
    def create(cls, resolution: int, width: int) -> "EquirectTaps":
        if width % 4:
            raise ValueError(f"equirect width must be a multiple of 4, got {width}")
        res, height, n = resolution, width // 2, resolution + 2
        index = np.empty(height * width, dtype=np.intp)
        row_frac = np.empty(height * width)
        col_frac = np.empty_like(row_frac)
        # Built in blocks of equirect rows, so the per-pixel directions and
        # face coordinates never exist for the whole grid at once.
        block = max(1, _TAP_BLOCK_PIXELS // width)
        for top in range(0, height, block):
            u, v = np.meshgrid(np.arange(width),
                               np.arange(top, min(top + block, height)), indexing="xy")
            face, x, y = direction_to_face_coords(
                equirect_pixel_to_direction(u, v, width))
            r0, fr = _axis_taps(y * res - 0.5, -1, res)
            c0, fc = _axis_taps(x * res - 0.5, -1, res)
            out = slice(top * width, top * width + u.size)
            index[out] = ((face * n + r0) * n + c0).ravel()
            row_frac[out] = fr.ravel()
            col_frac[out] = fc.ravel()
        return cls(index=index, row_frac=row_frac, col_frac=col_frac,
                   stride=n, step=1, resolution=res, width=width,
                   gather=_pad_table(res, 1).index)

    def _check(self, grids: np.ndarray, ndim: int) -> None:
        res = self.resolution
        if grids.ndim != ndim or grids.shape[:3] != (6, res, res):
            raise ValueError(f"need (6, {res}, {res}) face grids, got {grids.shape}")

    def apply(self, faces, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear resample of (6, R, R, C) faces onto a (W/2, W, C) grid;
        writes into ``out`` when given, which must have that shape."""
        faces = np.asarray(faces, dtype=np.float64)
        self._check(faces, 4)
        shape = (self.width // 2, self.width, faces.shape[3])
        out = np.empty(shape) if out is None else out
        if out.shape != shape:
            raise ValueError(f"out must be {shape}, got {out.shape}")
        self.resample(faces.reshape(-1, shape[2]),
                      out.reshape(-1, shape[2], copy=False), self.gather)
        return out

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
        derived on the first mask transfer, which ``generate`` never makes.
        ``tap - 1 + row_frac`` is the row coordinate exactly where it is
        >= 0 (an exact subtraction gave the fraction) and <= 0 below, so
        rounding it clamped to the face gives the nearest row; so for columns."""
        res, n = self.resolution, self.resolution + 2
        face, r0, c0 = np.unravel_index(self.index, (6, n, n))
        near_r = np.rint(np.clip(r0 - 1 + self.row_frac, 0, res - 1)).astype(np.intp)
        near_c = np.rint(np.clip(c0 - 1 + self.col_frac, 0, res - 1)).astype(np.intp)
        return (face * res + near_r) * res + near_c


# ---------------------------------------------------------------------------
# projection operations
# ---------------------------------------------------------------------------

def project_perspective_to_cubemap(frame: PerspectiveFrame, pose: CameraPose,
                                   resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Project one perspective frame onto a cubemap with observation masks.

    The cached direction stack is rotated into the camera frame by one
    matmul; only pixels inside the FoV frustum (boundary inclusive) sample
    the frame bilinearly and get mask 1, everything else is 0 with mask 0.
    Returns the (6, R, R, C) faces and the (6, R, R) uint8 masks.
    """
    if resolution < 4:
        raise ValueError(f"face resolution must be >= 4, got {resolution}")
    tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
    d_cam = face_directions(resolution) @ pose.rotation  # R^T d, (6, R, R, 3)
    x, y, z = np.moveaxis(d_cam, -1, 0)
    # (x, -y) / z as two contiguous planes: dividing the interleaved stack
    # in place writes strided and is slower
    with np.errstate(divide="ignore", invalid="ignore"):
        px = x / z
        py = np.negative(y)
        py /= z
        inside = z > 0
        del d_cam, x, y, z  # the stack is freed before the bounds are tested
        inside &= (np.abs(px) <= tan_h) & (np.abs(py) <= tan_v)
    cols = (px[inside] / tan_h + 1.0) / 2.0 * frame.width - 0.5
    rows = (py[inside] / tan_v + 1.0) / 2.0 * frame.height - 0.5
    del px, py  # freed before the faces are allocated
    taps = _grid_taps(rows, cols, frame.height, frame.width)
    faces = np.zeros((6, resolution, resolution, frame.channels))
    faces[inside] = taps.resample(frame.pixels.reshape(-1, frame.channels),
                                  np.empty((rows.size, frame.channels)))
    return faces, inside.astype(np.uint8)


def cubemap_to_equirect(faces: np.ndarray, width: int) -> np.ndarray:
    """Resample (6, R, R, C) faces onto a (W/2, W, C) equirectangular grid.

    Builds the (R, W) tap table for one frame; callers resampling many
    frames build :class:`EquirectTaps` once and apply it per frame."""
    faces = np.asarray(faces)
    return EquirectTaps.create(faces.shape[1], width).apply(faces)


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

def equirect_pixel_solid_angles(width: int) -> np.ndarray:
    """(H, W) midpoint-rule solid angle of each equirect pixel; sums to ~4*pi."""
    height = width // 2
    v = np.arange(height)
    lat = np.pi / 2.0 - (v + 0.5) / height * np.pi
    band = np.cos(lat) * (np.pi / height) * (2.0 * np.pi / width)
    return np.repeat(band[:, None], width, axis=1)


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
