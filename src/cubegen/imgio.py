"""Portable pixmap/floatmap/graymap I/O and pose JSON serialization.

Formats: binary P6 (8-bit RGB), P5 (8-bit gray; masks use values {0, 255}),
and PFM ("PF" color / "Pf" gray, little-endian, bottom-to-top scanlines as
the format specifies).  All writers produce deterministic bytes.  Each
image writer takes a whole image or, given the image's height, one block of
its rows, which it writes at the block's place in the file, so an image
written block by block, first block first, has the bytes of one written
whole and is never held whole.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .artifacts import _is_number
from .config import ConfigError
from .geometry import CameraPose

__all__ = [
    "write_ppm", "read_ppm",
    "write_pgm",
    "write_pfm", "read_pfm",
    "write_mask_pgm",
    "write_poses", "read_poses",
]


def write_ppm(path, pixels: np.ndarray, top: int = 0,
              height: int | None = None) -> None:
    """8-bit binary P6 from float pixels in [0, 1], shape (H, W, 3); given
    ``height``, rows [top, top + H) of it (see :func:`_write_rows`)."""
    px = np.asarray(pixels)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError(f"P6 needs (H, W, 3) pixels, got {px.shape}")
    _write_netpbm(path, "P6", px, top, height)


def _write_netpbm(path, magic: str, px: np.ndarray, top: int,
                  height: int | None) -> None:
    """Rows [top, top + H) of a binary netpbm image ``height`` rows tall,
    top to bottom, one byte per sample."""
    h, w = px.shape[:2]
    height = h if height is None else height
    _write_rows(path, f"{magic}\n{w} {height}\n255\n".encode("ascii"),
                _quantize(px), top * math.prod(px.shape[1:]), top, top + h, height)


def _write_rows(path, header: bytes, data: np.ndarray, offset: int,
                top: int, end: int, height: int) -> None:
    """Write the ``data`` of image rows [top, end) ``offset`` bytes after the
    ``header`` of an image ``height`` rows tall.  The block at row 0
    creates the file and writes the header; any other writes into the file
    that block created, so an image written a block of rows at a time,
    first block first, holds the bytes of writing it whole."""
    if not 0 <= top <= end <= height:
        raise ValueError(f"rows [{top}, {end}) are not rows of an image "
                         f"{height} rows tall")
    with open(path, "wb" if top == 0 else "r+b") as fh:
        if top == 0:
            fh.write(header)
        fh.seek(len(header) + offset)
        fh.write(data)


def _quantize(values: np.ndarray) -> np.ndarray:
    """C-ordered uint8 ``clip(rint(values * 255), 0, 255)``, through one
    float temporary rounded and clipped in place."""
    q = np.multiply(values, 255.0, order="C")
    np.rint(q, out=q)
    np.clip(q, 0, 255, out=q)
    return q.astype(np.uint8)


def read_ppm(path) -> np.ndarray:
    """(H, W, 3) float pixels in [0, 1] of an 8-bit binary P6 file."""
    return _read_netpbm(path, b"P6", 3)


def write_pgm(path, gray: np.ndarray, top: int = 0,
              height: int | None = None) -> None:
    """8-bit binary P5 from float gray values in [0, 1], shape (H, W); given
    ``height``, rows [top, top + H) of it (see :func:`_write_rows`)."""
    g = np.asarray(gray)
    if g.ndim != 2:
        raise ValueError(f"P5 needs (H, W) pixels, got {g.shape}")
    _write_netpbm(path, "P5", g, top, height)


def write_mask_pgm(path, mask: np.ndarray) -> None:
    """Binary mask as P5 with values {0, 255}."""
    m = np.asarray(mask)
    if not ((m == 0) | (m == 1)).all():
        raise ValueError("mask must be binary")
    write_pgm(path, m.astype(np.float64))


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """(H, W, channels) samples / maxval of a binary netpbm file, which must
    be ``magic`` with two positive dimensions and one byte per sample
    (maxval 1..255) and hold all of its W*H*channels samples."""
    raw = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line, maybe the file's last
            end = raw.find(b"\n", pos)
            pos = len(raw) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[:1] != [magic]:
        raise ValueError(f"not a {magic.decode()} file: {path}")
    if (len(fields) < 4 or not all(f.isdigit() for f in fields[1:])
            or not int(fields[1]) * int(fields[2])):
        raise ValueError(f"{path}: {magic.decode()} header "
                         f"{b' '.join(fields[1:]).decode(errors='replace')!r} is "
                         "not a positive width and height and a maxval")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: maxval {maxval} is outside 1..255; only "
                         "8-bit samples are read")
    count = w * h * channels
    if len(raw) - pos < count:
        raise ValueError(f"{path}: {len(raw) - pos} bytes of pixel data, "
                         f"{w}x{h}x{channels} needs {count}")
    img = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    return img.reshape(h, w, channels).astype(np.float64) / maxval


def write_pfm(path, pixels: np.ndarray, top: int = 0,
              height: int | None = None) -> None:
    """Little-endian PFM; (H, W, 3) writes "PF", (H, W) or (H, W, 1) "Pf".
    Given ``height``, the pixels are rows [top, top + H) of an image that
    tall (see :func:`_write_rows`); the file holds rows bottom to top."""
    px = np.asarray(pixels)
    if px.ndim == 3 and px.shape[2] == 1:
        px = px[..., 0]
    if px.ndim == 2:
        magic = "Pf"
    elif px.ndim == 3 and px.shape[2] == 3:
        magic = "PF"
    else:
        raise ValueError(f"PFM needs 1 or 3 channels, got shape {px.shape}")
    h, w = px.shape[:2]
    height = h if height is None else height
    _write_rows(path, f"{magic}\n{w} {height}\n-1.0\n".encode("ascii"),
                px[::-1].astype("<f4", order="C"),
                (height - top - h) * math.prod(px.shape[1:]) * 4, top, top + h,
                height)


def read_pfm(path) -> np.ndarray:
    """(H, W, 3) or (H, W, 1) float pixels of a "PF" or "Pf" file, which
    must give two positive dimensions and a numeric scale and hold all
    W*H*channels floats."""
    parts = Path(path).read_bytes().split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"PF", b"Pf"):
        raise ValueError(f"not a PF or Pf file: {path}")
    magic, dims, data = parts[0], parts[1].split(), parts[3]
    if len(dims) != 2 or not all(d.isdigit() and int(d) > 0 for d in dims):
        raise ValueError(f"{path}: PFM dimensions {parts[1].decode(errors='replace')!r} "
                         "are not two positive integers")
    try:
        scale = float(parts[2])
    except ValueError:
        raise ValueError(f"{path}: PFM scale {parts[2].decode(errors='replace')!r} "
                         "is not a number") from None
    w, h = (int(v) for v in dims)
    channels = 3 if magic == b"PF" else 1
    if len(data) < 4 * w * h * channels:
        raise ValueError(f"{path}: {len(data) // 4} floats of pixel data, "
                         f"{w}x{h}x{channels} needs {w * h * channels}")
    dtype = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(data, dtype=dtype, count=w * h * channels)
    img = img.reshape(h, w, channels)[::-1]
    return img.astype(np.float64) * (abs(scale) if abs(scale) != 1.0 else 1.0)


def write_poses(path, poses: list) -> None:
    obj = [p.to_json_dict() for p in poses]
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_poses(path) -> list:
    """Camera poses of a JSON list of {rotation (9 numbers, row-major),
    hfov_deg, vfov_deg} records; a bad record raises ``ConfigError`` naming
    the file, the pose index and the field."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, list):
        raise ConfigError(f"pose file {path} must hold a JSON list of poses")
    return [_pose(record, f"pose file {path}, pose {i}") for i, record in enumerate(obj)]


def _pose(record, where: str) -> CameraPose:
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    for key in ("rotation", "hfov_deg", "vfov_deg"):
        if key not in record:
            raise ConfigError(f"{where}: field '{key}' is missing")
    rot = record["rotation"]
    if not (isinstance(rot, list) and len(rot) == 9 and all(map(_is_number, rot))):
        raise ConfigError(f"{where}: field 'rotation' must be a list of 9 numbers")
    for key in ("hfov_deg", "vfov_deg"):
        if not _is_number(record[key]):
            raise ConfigError(f"{where}: field '{key}' must be a number")
    try:  # the pose's own checks name the field: rotation, hfov_deg, vfov_deg
        return CameraPose(np.reshape(np.asarray(rot, dtype=np.float64), (3, 3)),
                          float(record["hfov_deg"]), float(record["vfov_deg"]))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
