"""Flattened-cross positional layout, cube padding and blending as index maps.

The cross layout stacks U / F / D vertically (row offsets 0, R, 2R) and
places L, F, R, B horizontally (column offsets 0, R, 2R, 3R); U and D share
F's columns.  Every face edge has exactly one neighbor.

Padding a face by p pixels across its edges (cube padding, Cheng et al.,
CVPR 2018) is a fixed pixel permutation that depends only on (R, p) and the
adjacency table.  It is held as one index map per face: the flat index of
every pixel of the (R+2p) x (R+2p) padded grid into the six faces stacked
in canonical order as (6*R*R).  Strip pixels copy the neighbor's border
band, so padding never resamples; a corner pixel repeats the nearer strip,
ties going to the top/bottom strip.  Blending a generated padded face back
scatters its 4*p*R strip pixels onto the neighbor pixels they were copied
from, with ramp weight 1 - k/p at depth k.  :func:`pad_face`,
:func:`blend_overlaps` and :func:`seam_metric` read the same map, built once
per (R, p); the pad-1 map also gives the output resampler,
:class:`cubegen.geometry.EquirectTaps`, the taps of its pixels next to a
cube edge, so they cross onto the neighbouring face.

A strip pixel is addressed by (depth, along): depth k is its distance from
the shared edge (0 next to it), and along runs in the owning face's
traversal direction (columns for top/bottom edges, rows for left/right).
:func:`_neighbor_pixel` is the one formula from (depth, along) to a neighbor
pixel.  Each adjacency record also names the dihedral ``transform`` that
rearranges the neighbor's raw border slice into a (depth, along) strip; the
names are derived from the same formula on first use, by
:func:`edge_adjacency`, and documented in ``docs/cube_layout.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .faces import FACES, FACE_INDEX, face_axes

__all__ = [
    "EDGES",
    "EdgeAdjacency",
    "edge_adjacency",
    "cube_layout_json",
    "face_position_grid",
    "pad_face",
    "blend_overlaps",
    "seam_metric",
    "corner_cycle_identity",
]

EDGES = ("top", "bottom", "left", "right")

# The eight dihedral rearrangements of a 2D grid (leading two axes); they
# name each edge's transform in the adjacency table.
_TRANSFORMS = {
    "identity": lambda a: a,
    "rot90": lambda a: np.rot90(a, 1),
    "rot180": lambda a: np.rot90(a, 2),
    "rot270": lambda a: np.rot90(a, 3),
    "flip_h": lambda a: a[:, ::-1],
    "flip_v": lambda a: a[::-1, :],
    "transpose": lambda a: np.swapaxes(a, 0, 1),
    "anti_transpose": lambda a: np.swapaxes(a, 0, 1)[::-1, ::-1],
}


@dataclass(frozen=True)
class EdgeAdjacency:
    """Directed edge record: crossing ``edge`` of ``face`` lands on
    ``neighbor_edge`` of ``neighbor``; ``transform`` maps the neighbor's raw
    border slice into (depth, along) strip orientation; ``flipped`` says the
    two traversal directions run antiparallel along the shared edge."""

    face: str
    edge: str
    neighbor: str
    neighbor_edge: str
    transform: str
    flipped: bool


def _edge_outward(face: str, edge: str) -> np.ndarray:
    n, r, d = face_axes(face)
    return {"top": -d, "bottom": d, "left": -r, "right": r}[edge]


def _edge_traversal(face: str, edge: str) -> np.ndarray:
    n, r, d = face_axes(face)
    return r if edge in ("top", "bottom") else d


def _face_with_normal(v: np.ndarray) -> str:
    for f in FACES:
        if np.array_equal(face_axes(f)[0], v):
            return f
    raise AssertionError(f"no face has normal {v}")


def _border_slice(grid: np.ndarray, edge: str, pad: int) -> np.ndarray:
    if edge == "top":
        return grid[:pad]
    if edge == "bottom":
        return grid[grid.shape[0] - pad:]
    if edge == "left":
        return grid[:, :pad]
    return grid[:, grid.shape[1] - pad:]


def _neighbor_pixel(neighbor_edge: str, flipped: bool, depth, along, res: int):
    """(row, col) on the neighbor face of the strip pixel at (depth, along);
    scalars or broadcastable integer arrays."""
    m = res - 1 - along if flipped else along
    if neighbor_edge == "top":
        return depth, m
    if neighbor_edge == "bottom":
        return res - 1 - depth, m
    if neighbor_edge == "left":
        return m, depth
    return m, res - 1 - depth


@lru_cache(maxsize=None)
def edge_adjacency() -> MappingProxyType:
    """The 24 directed edge records keyed by (face, edge), derived once, on
    first use (a process that never pads, attention alone, never pays for
    it), and read-only, since every caller shares them."""
    table = {}
    probe = np.arange(36.0).reshape(6, 6)  # unique values force a unique match
    depth, along = np.indices((2, 6))
    for f in FACES:
        for e in EDGES:
            g = _face_with_normal(_edge_outward(f, e))
            n_f = face_axes(f)[0]
            (e_back,) = [e2 for e2 in EDGES
                         if np.array_equal(_edge_outward(g, e2), n_f)]
            sigma = float(_edge_traversal(f, e) @ _edge_traversal(g, e_back))
            flipped = sigma < 0
            want = probe[_neighbor_pixel(e_back, flipped, depth, along, 6)]
            raw = _border_slice(probe, e_back, pad=2)
            names = [name for name, op in _TRANSFORMS.items()
                     if op(raw).shape == want.shape and np.array_equal(op(raw), want)]
            assert len(names) == 1, (f, e, names)
            table[(f, e)] = EdgeAdjacency(face=f, edge=e, neighbor=g,
                                          neighbor_edge=e_back,
                                          transform=names[0], flipped=flipped)
    return MappingProxyType(table)


# Flattened-cross (row, col) offset of each face, in face units.
_CROSS_OFFSETS = {"U": (0, 1), "F": (1, 1), "D": (2, 1),
                  "L": (1, 0), "R": (1, 2), "B": (1, 3)}


def cube_layout_json(resolution: int) -> dict:
    """The cross offsets at ``resolution`` and the adjacency table, as
    documented in ``docs/cube_layout.json`` (at R=64)."""
    return {
        "resolution": resolution,
        "offsets": {f: [resolution * o for o in _CROSS_OFFSETS[f]] for f in FACES},
        "adjacency": [asdict(edge_adjacency()[(f, e)]) for f in FACES for e in EDGES],
    }


def face_position_grid(resolution: int, face: str, pad: int = 0) -> np.ndarray:
    """(R+2p, R+2p, 2) flattened-plane (row, col) coordinate of each pixel
    of the face's padded grid.  Strip coordinates continue the core grid by
    exactly one step per band, so positions stay monotone across each edge."""
    r = resolution
    ro, co = (r * o for o in _CROSS_OFFSETS[face])
    rows, cols = np.meshgrid(np.arange(-pad, r + pad) + ro,
                             np.arange(-pad, r + pad) + co, indexing="ij")
    return np.stack([rows, cols], axis=-1)


# ---------------------------------------------------------------------------
# padding and blending index maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PadTable:
    """Index maps of one (R, p), faces in canonical order.

    ``index[f]`` holds, for every pixel of face f's flattened padded grid,
    its flat index into the (6*R*R) face stack.  The blend scatter runs over
    the 4*p*R strip pixels: ``src`` is their flat padded-grid index (the
    same for every face), ``dst[f]`` the stack index they were copied from
    and blend back into, and ``weight`` the ramp weight 1 - k/p at depth k.
    """

    index: np.ndarray   # (6, (R+2p)**2)
    src: np.ndarray     # (4*p*R,)
    dst: np.ndarray     # (6, 4*p*R)
    weight: np.ndarray  # (4*p*R,)


@lru_cache(maxsize=None)
def _pad_table(res: int, pad: int) -> _PadTable:
    n = res + 2 * pad
    rows, cols = np.indices((n, n)) - pad  # face coordinates; off the core
    out_r = np.maximum(-rows, rows - (res - 1))  # > 0: band outside the core rows
    out_c = np.maximum(-cols, cols - (res - 1))
    corner = (out_r > 0) & (out_c > 0)
    # a corner pixel repeats the nearer strip; ties go to the top/bottom strip
    cols_in = np.where(corner & (out_c <= out_r), np.clip(cols, 0, res - 1), cols)
    rows_in = np.where(corner & (out_c > out_r), np.clip(rows, 0, res - 1), rows)
    bands = (("top", rows_in < 0, -rows_in - 1, cols_in),
             ("bottom", rows_in >= res, rows_in - res, cols_in),
             ("left", cols_in < 0, -cols_in - 1, rows_in),
             ("right", cols_in >= res, cols_in - res, rows_in))
    index = np.empty((6, n, n), dtype=np.intp)
    for fi, face in enumerate(FACES):
        index[fi] = (fi * res * res + rows_in.clip(0, res - 1) * res
                     + cols_in.clip(0, res - 1))
        for edge, sel, depth, along in bands:
            adj = edge_adjacency()[(face, edge)]
            i2, j2 = _neighbor_pixel(adj.neighbor_edge, adj.flipped,
                                     depth[sel], along[sel], res)
            index[fi][sel] = FACE_INDEX[adj.neighbor] * res * res + i2 * res + j2
    index = index.reshape(6, n * n)
    strip = (out_r > 0) ^ (out_c > 0)
    src = np.flatnonzero(strip)
    depth = np.maximum(out_r, out_c).ravel()[src] - 1
    table = _PadTable(index=index, src=src, dst=index[:, src],
                      weight=1.0 - depth / pad)
    for arr in (table.index, table.src, table.dst, table.weight):
        arr.flags.writeable = False  # cached and shared by every caller
    return table


def _checked_table(stack: np.ndarray, pad: int, name: str) -> _PadTable:
    """The index maps of ``pad`` and the R of ``stack``, which must be a
    (T, 6, R, R, C) video of the six faces."""
    if stack.ndim != 5 or stack.shape[1] != 6 or stack.shape[2] != stack.shape[3]:
        raise ValueError(f"{name} must be (T, 6, R, R, C), got {stack.shape}")
    r = stack.shape[2]
    if not 1 <= pad <= r // 2:
        raise ValueError(f"pad width must lie in [1, R/2], got {pad} for R={r}")
    return _pad_table(r, pad)


def pad_face(stack: np.ndarray, face: str, pad: int) -> np.ndarray:
    """(T, R+2p, R+2p, C) padded video of ``face`` from a (T, 6, R, R, C)
    window of the six faces in canonical order: one gather through the
    face's index map.  Pixel-exact copy, no resampling."""
    table = _checked_table(stack, pad, "stack")
    t, r, c = stack.shape[0], stack.shape[2], stack.shape[-1]
    n = r + 2 * pad
    flat = stack.reshape(t, 6 * r * r, c)
    return np.take(flat, table.index[FACE_INDEX[face]], axis=1).reshape(t, n, n, c)


def blend_overlaps(generated: np.ndarray, canvas: np.ndarray, face: str,
                   pad: int) -> None:
    """Write a generated (T, R+2p, R+2p, C) padded video of ``face`` into a
    C-contiguous (T, 6, R, R, C) canvas, in place: the core replaces the face
    wholesale, and each strip pixel blends into the neighbor pixel it pads
    with a linear ramp (weight 1 at the shared edge, falling to 1/p at depth
    p-1), as ``w * strip + (1 - w) * old``."""
    table = _checked_table(canvas, pad, "canvas")
    t, r, c, p = canvas.shape[0], canvas.shape[2], canvas.shape[-1], pad
    if generated.shape != (t, r + 2 * p, r + 2 * p, c):
        raise ValueError(f"generated face must be {(t, r + 2 * p, r + 2 * p, c)}, "
                         f"got {generated.shape}")
    if not canvas.flags.c_contiguous:
        raise ValueError("canvas must be C-contiguous to be written in place")
    fi = FACE_INDEX[face]
    canvas[:, fi] = generated[:, p:p + r, p:p + r]
    flat = canvas.reshape(t, 6 * r * r, c)
    dst, w = table.dst[fi], table.weight[:, None]
    # w * strip + (1 - w) * old, combined in place in the dtype the
    # expression would promote to: same products, same sum
    dtype = np.result_type(generated, canvas, w)
    strips = np.take(generated.reshape(t, -1, c), table.src, axis=1).astype(
        dtype, copy=False)
    old = np.take(flat, dst, axis=1).astype(dtype, copy=False)
    strips *= w
    old *= 1.0 - w
    strips += old
    flat[:, dst] = strips


@lru_cache(maxsize=None)
def _seam_pairs(res: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack indices of the 12*R pixel pairs that meet across the 12 cube
    edges: each pad-1 strip pixel against the border pixel it lies next to,
    keeping one of the two sides that see the same pair."""
    grid = _pad_table(res, 1).index.reshape(6, res + 2, res + 2)
    core = grid[:, 1:-1, 1:-1]
    outside = np.concatenate([grid[:, 0, 1:-1], grid[:, -1, 1:-1],
                              grid[:, 1:-1, 0], grid[:, 1:-1, -1]], axis=1)
    border = np.concatenate([core[:, 0], core[:, -1],
                             core[:, :, 0], core[:, :, -1]], axis=1)
    keep = outside < border
    return outside[keep], border[keep]


def seam_metric(faces) -> float:
    """Mean absolute pixel difference across all 12 cube edges; ``faces``
    is the (6, R, R) or (6, R, R, C) stack of faces in canonical order."""
    faces = np.asarray(faces)
    if (faces.ndim not in (3, 4) or faces.shape[0] != 6
            or faces.shape[1] != faces.shape[2]):
        raise ValueError(f"faces must be (6, R, R) or (6, R, R, C), got {faces.shape}")
    r = faces.shape[1]
    flat = faces.reshape(6 * r * r, -1)
    a, b = _seam_pairs(r)
    return float(np.abs(flat[a] - flat[b]).mean())


# ---------------------------------------------------------------------------
# corner consistency
# ---------------------------------------------------------------------------

def _corner_edges(ci: int, cj: int) -> tuple[str, str]:
    return ("top" if ci == 0 else "bottom", "left" if cj == 0 else "right")


def _cross_corner(face: str, ci: int, cj: int,
                  edge: str) -> tuple[str, int, int, str]:
    """Follow one edge crossing; returns (face', ci', cj', arrival edge).
    A corner is a pixel of a 2x2 face, so the crossing is one neighbor
    pixel lookup at depth 0."""
    adj = edge_adjacency()[(face, edge)]
    pos = cj if edge in ("top", "bottom") else ci  # 0 or 1 along traversal
    ci2, cj2 = _neighbor_pixel(adj.neighbor_edge, adj.flipped, 0, pos, 2)
    return adj.neighbor, ci2, cj2, adj.neighbor_edge


def corner_cycle_identity() -> bool:
    """Check 3-cycle consistency of the edge transforms at every cube corner.

    Crossing the three edges meeting at a corner (leaving each arrival face
    through its other corner edge) must return to the starting face and
    corner after exactly three crossings, in both directions.  This is the
    identity the flattened transforms can satisfy globally; a planar unfold
    around any cube corner necessarily carries a 90-degree angular defect, so
    pointwise corner consistency is the meaningful invariant.
    """
    for f in FACES:
        for ci in (0, 1):
            for cj in (0, 1):
                for first in _corner_edges(ci, cj):
                    face, a, b, edge = f, ci, cj, first
                    for _ in range(3):
                        face, a, b, arrived = _cross_corner(face, a, b, edge)
                        e_h, e_v = _corner_edges(a, b)
                        edge = e_v if arrived == e_h else e_h
                    if (face, a, b) != (f, ci, cj):
                        return False
    return True
