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

Cube->equirect resampling depends only on (R, W), so it is a fixed tap
table, :class:`EquirectTaps`: for every equirect pixel the flat index of its
top-left bilinear tap in the (6*R*R) flattened faces and its row and column
fractions; masks take the nearest pixel, rounded from those.  Build it once
per run and apply it frame by frame; :func:`cubemap_to_equirect` is a
one-shot caller of it.

Rotations convert between matrices and rotation vectors with plain numpy
(Rodrigues one way, the unit quaternion the other).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
_APPLY_BLOCK_PIXELS = 1 << 13  # equirect pixels per block of EquirectTaps.apply


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
# resampling helpers
# ---------------------------------------------------------------------------

def _clamped_taps(coords: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower tap index and fraction of fractional coords on an axis of n
    samples that clamps at both ends; the upper tap is index + 1 (n > 1)."""
    coords = np.clip(coords, 0.0, n - 1.0)
    i0 = np.floor(coords).astype(np.intp)
    i0 = np.minimum(i0, n - 2) if n > 1 else np.zeros_like(i0)
    return i0, coords - i0


def _bilinear(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              wrap_cols: bool = False) -> np.ndarray:
    """Bilinear sample of (H, W, C) at fractional (rows, cols); rows clamp."""
    h, w = grid.shape[:2]
    r0, fr = _clamped_taps(rows, h)
    r1 = np.minimum(r0 + 1, h - 1)

    if wrap_cols:
        cols = np.mod(cols, w)
        c0 = np.floor(cols).astype(np.intp)
        c1 = np.mod(c0 + 1, w)
        fc = cols - c0
        c0 = np.mod(c0, w)
    else:
        c0, fc = _clamped_taps(cols, w)
        c1 = np.minimum(c0 + 1, w - 1)

    fr = fr[..., None]
    fc = fc[..., None]
    top = grid[r0, c0] * (1.0 - fc) + grid[r0, c1] * fc
    bot = grid[r1, c0] * (1.0 - fc) + grid[r1, c1] * fc
    return top * (1.0 - fr) + bot * fr


@dataclass(frozen=True)
class EquirectTaps:
    """Fixed cube->equirect resampling table for one (R, W).

    Entries run over the (W/2, W) equirect pixels in row-major order and
    index the (6, R, R) faces flattened to (6*R*R):
    ``index`` is the top-left bilinear tap (the other taps sit one column
    and one face row further on) and ``row_frac``/``col_frac`` its
    fractions.  The tap plus its fraction is the clamped face coordinate
    itself, so the nearest face pixel, used for masks, is derived from them.
    """

    resolution: int
    width: int
    index: np.ndarray
    row_frac: np.ndarray
    col_frac: np.ndarray

    @classmethod
    def create(cls, resolution: int, width: int) -> "EquirectTaps":
        if width % 4:
            raise ValueError(f"equirect width must be a multiple of 4, got {width}")
        res, height = resolution, width // 2
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
            rows = y * res - 0.5
            cols = x * res - 0.5
            r0, fr = _clamped_taps(rows, res)
            c0, fc = _clamped_taps(cols, res)
            out = slice(top * width, top * width + u.size)
            index[out] = (face * (res * res) + r0 * res + c0).ravel()
            row_frac[out] = fr.ravel()
            col_frac[out] = fc.ravel()
        return cls(resolution=res, width=width, index=index,
                   row_frac=row_frac, col_frac=col_frac)

    def _check(self, grids: np.ndarray, ndim: int) -> None:
        res = self.resolution
        if grids.ndim != ndim or grids.shape[:3] != (6, res, res):
            raise ValueError(f"need (6, {res}, {res}) face grids, got {grids.shape}")

    def apply(self, faces, out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear resample of (6, R, R, C) faces onto a (W/2, W, C) grid;
        writes into ``out`` when given."""
        faces = np.asarray(faces)
        self._check(faces, 4)
        res, width = self.resolution, self.width
        channels = faces.shape[3]
        if out is None:
            out = np.empty((width // 2, width, channels), dtype=np.float64)
        # At R == 1 both taps of an axis are pixel 0 (see _clamped_taps).
        step_c, step_r = (1, res) if res > 1 else (0, 0)
        # One channel at a time, in blocks of equirect rows whose four work
        # buffers stay in cache and are reused, so a frame allocates one
        # channel plane and four blocks.  In place, but the same products and
        # sums in the same order as _bilinear, so the result is bit-identical.
        rows = max(1, _APPLY_BLOCK_PIXELS // width)
        top, tap, bot, w = np.empty((4, rows * width))
        src = np.empty(6 * res * res)
        for c in range(channels):
            np.copyto(src.reshape(faces.shape[:3]), faces[..., c])
            for r0 in range(0, width // 2, rows):
                r1 = min(r0 + rows, width // 2)
                blk = slice(r0 * width, r1 * width)
                n = (r1 - r0) * width
                idx, fr, fc = self.index[blk], self.row_frac[blk], self.col_frac[blk]
                t, p, b, wb = top[:n], tap[:n], bot[:n], w[:n]
                np.subtract(1.0, fc, out=wb)
                np.take(src, idx, out=t)
                t *= wb
                np.take(src[step_c:], idx, out=p)
                p *= fc
                t += p
                np.take(src[step_r:], idx, out=b)
                b *= wb
                np.take(src[step_r + step_c:], idx, out=p)
                p *= fc
                b += p
                np.subtract(1.0, fr, out=wb)
                t *= wb
                b *= fr
                t += b
                out[r0:r1, :, c] = t.reshape(r1 - r0, width)
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
        """Flat index of the nearest face pixel of every equirect pixel,
        derived on the first mask transfer, which ``generate`` never makes.
        ``r0 + row_frac`` is exactly the clamped row coordinate (the
        fraction was taken from it by an exact subtraction), so rounding it
        gives the nearest row; the same holds for columns."""
        res = self.resolution
        r0, c0 = np.divmod(self.index % (res * res), res)
        near_r = np.rint(r0 + self.row_frac).astype(np.intp) - r0
        near_c = np.rint(c0 + self.col_frac).astype(np.intp) - c0
        return self.index + near_r * res + near_c


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
    faces = np.zeros((6, resolution, resolution, frame.channels))
    faces[inside] = _bilinear(frame.pixels, rows, cols)
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
    u, v = direction_to_equirect_pixel(face_directions(resolution), eq.shape[1])
    return _bilinear(eq, v, u, wrap_cols=True)


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
