"""Strip-based cube padding, blending and seam pairing: the per-frame code
that the index maps of :mod:`cubegen.continuity` replaced, kept as the
reference the tests compare against.

Faces are dicts face -> (R, R, C) grids.  A strip is a (p, R, C) array in
(depth, along) orientation, obtained from the neighbor's raw border slice
through the named dihedral ``transform`` of the adjacency record in
:func:`cubegen.continuity.edge_adjacency`.
"""

import numpy as np

from cubegen.continuity import edge_adjacency
from cubegen.faces import FACES

EDGES = ("top", "bottom", "left", "right")

TRANSFORMS = {
    "identity": lambda a: a,
    "rot90": lambda a: np.rot90(a, 1),
    "rot180": lambda a: np.rot90(a, 2),
    "rot270": lambda a: np.rot90(a, 3),
    "flip_h": lambda a: a[:, ::-1],
    "flip_v": lambda a: a[::-1, :],
    "transpose": lambda a: np.swapaxes(a, 0, 1),
    "anti_transpose": lambda a: np.swapaxes(a, 0, 1)[::-1, ::-1],
}

INVERSE = {
    "identity": "identity",
    "rot90": "rot270",
    "rot180": "rot180",
    "rot270": "rot90",
    "flip_h": "flip_h",
    "flip_v": "flip_v",
    "transpose": "transpose",
    "anti_transpose": "anti_transpose",
}


def apply_transform(name, grid):
    return TRANSFORMS[name](grid)


def border_slice(grid, edge, pad):
    if edge == "top":
        return grid[:pad]
    if edge == "bottom":
        return grid[grid.shape[0] - pad:]
    if edge == "left":
        return grid[:, :pad]
    return grid[:, grid.shape[1] - pad:]


def assign_border(grid, edge, pad, value):
    if edge == "top":
        grid[:pad] = value
    elif edge == "bottom":
        grid[grid.shape[0] - pad:] = value
    elif edge == "left":
        grid[:, :pad] = value
    else:
        grid[:, grid.shape[1] - pad:] = value


def extract_strip(faces, face, edge, pad):
    adj = edge_adjacency()[(face, edge)]
    raw = border_slice(faces[adj.neighbor], adj.neighbor_edge, pad)
    return apply_transform(adj.transform, raw).copy()


def strips_of(faces, face, pad):
    return {e: extract_strip(faces, face, e, pad) for e in EDGES}


def _fill_corner(out, rows, cols, p, r):
    r0, r1 = rows
    c0, c1 = cols
    near_col = p if c0 == 0 else p + r - 1
    near_row = p if r0 == 0 else p + r - 1
    for i in range(r0, r1):
        for j in range(c0, c1):
            gap_h = (p - j) if c0 == 0 else (j - (p + r) + 1)
            gap_v = (p - i) if r0 == 0 else (i - (p + r) + 1)
            if gap_h <= gap_v:
                out[i, j] = out[i, near_col]
            else:
                out[i, j] = out[near_row, j]


def assemble(core, strips, pad):
    """(R+2p, R+2p, C) padded grid from a core and its four strips; corner
    blocks extend the nearer strip, ties going to the top/bottom strip."""
    r, p = core.shape[0], pad
    n = r + 2 * p
    out = np.zeros((n, n) + core.shape[2:], core.dtype)
    out[p:p + r, p:p + r] = core
    out[:p, p:p + r] = strips["top"][::-1]
    out[p + r:, p:p + r] = strips["bottom"]
    out[p:p + r, :p] = np.swapaxes(strips["left"], 0, 1)[:, ::-1]
    out[p:p + r, p + r:] = np.swapaxes(strips["right"], 0, 1)
    for rows, cols in (((0, p), (0, p)), ((0, p), (p + r, n)),
                       ((p + r, n), (0, p)), ((p + r, n), (p + r, n))):
        _fill_corner(out, rows, cols, p, r)
    return out


def split(arr, pad):
    """Core and (depth, along) strips of one (R+2p, R+2p, C) padded grid."""
    p = pad
    r = arr.shape[0] - 2 * p
    strips = {
        "top": arr[:p, p:p + r][::-1].copy(),
        "bottom": arr[p + r:, p:p + r].copy(),
        "left": np.swapaxes(arr[p:p + r, :p][:, ::-1], 0, 1).copy(),
        "right": np.swapaxes(arr[p:p + r, p + r:], 0, 1).copy(),
    }
    return arr[p:p + r, p:p + r].copy(), strips


def pad_face(faces, face, pad):
    return assemble(faces[face], strips_of(faces, face, pad), pad)


def blend_overlaps(face, core, strips, faces, pad):
    """New faces dict: ``core`` replaces ``face``, strips ramp-blend into
    each neighbor's border band."""
    out = {f: faces[f].copy() for f in FACES}
    out[face] = core.copy()
    ramp = (1.0 - np.arange(pad) / pad)[:, None]
    for e in EDGES:
        adj = edge_adjacency()[(face, e)]
        strip = strips[e]
        w = np.broadcast_to(ramp, strip.shape[:2])
        if strip.ndim == 3:
            w = w[..., None]
        inv = INVERSE[adj.transform]
        native_new = apply_transform(inv, strip * w)
        native_w = apply_transform(inv, np.broadcast_to(w, strip.shape))
        band = border_slice(out[adj.neighbor], adj.neighbor_edge, pad)
        blended = native_new + (1.0 - native_w) * band
        assign_border(out[adj.neighbor], adj.neighbor_edge, pad, blended)
    return out


def _own_border_line(grid, edge):
    if edge == "top":
        return grid[0]
    if edge == "bottom":
        return grid[grid.shape[0] - 1]
    if edge == "left":
        return grid[:, 0]
    return grid[:, grid.shape[1] - 1]


def seam_metric(faces):
    total, count = 0.0, 0
    seen = set()
    for f in FACES:
        for e in EDGES:
            adj = edge_adjacency()[(f, e)]
            key = frozenset({(f, e), (adj.neighbor, adj.neighbor_edge)})
            if key in seen:
                continue
            seen.add(key)
            carried = extract_strip(faces, adj.neighbor, adj.neighbor_edge, 1)[0]
            native = _own_border_line(faces[adj.neighbor], adj.neighbor_edge)
            total += np.abs(carried - native).sum()
            count += carried.size
    return total / count
