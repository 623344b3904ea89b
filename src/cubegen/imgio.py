"""Portable pixmap/floatmap/graymap I/O and pose JSON serialization.

Formats: binary P6 (8-bit RGB), P5 (8-bit gray; masks use values {0, 255}),
and PFM ("PF" color / "Pf" gray, little-endian, bottom-to-top scanlines as
the format specifies).  All writers produce deterministic bytes.
"""

from __future__ import annotations

import json
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


def write_ppm(path, pixels: np.ndarray) -> None:
    """8-bit binary P6 from float pixels in [0, 1], shape (H, W, 3)."""
    px = np.asarray(pixels)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError(f"P6 needs (H, W, 3) pixels, got {px.shape}")
    h, w = px.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize(px))


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


def write_pgm(path, gray: np.ndarray) -> None:
    """8-bit binary P5 from float gray values in [0, 1], shape (H, W)."""
    g = np.asarray(gray)
    if g.ndim != 2:
        raise ValueError(f"P5 needs (H, W) pixels, got {g.shape}")
    h, w = g.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_quantize(g))


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


def write_pfm(path, pixels: np.ndarray) -> None:
    """Little-endian PFM; (H, W, 3) writes "PF", (H, W) or (H, W, 1) "Pf"."""
    px = np.asarray(pixels)
    if px.ndim == 3 and px.shape[2] == 1:
        px = px[..., 0]
    if px.ndim == 2:
        magic = b"Pf"
    elif px.ndim == 3 and px.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError(f"PFM needs 1 or 3 channels, got shape {px.shape}")
    h, w = px.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(px[::-1].astype("<f4", order="C"))  # bottom-to-top rows


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
