"""Continuity tests: padding fidelity is bit-exact by construction, so the
oracles here are the analytic spherical field, explicit index bookkeeping,
and the strip-based reference in ``strip_reference``."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cubegen import continuity
from cubegen.faces import FACES, FACE_AXES, FACE_INDEX
from cubegen.continuity import (
    EDGES,
    blend_overlaps,
    corner_cycle_identity,
    cube_layout_json,
    edge_adjacency,
    face_position_grid,
    pad_face,
    seam_metric,
)
from cubegen.geometry import face_directions

import strip_reference as ref
from conftest import smooth_field


def make_cube(res, fn):
    """(6, R, R, C) faces of an analytic field, canonical order."""
    return fn(face_directions(res))


def random_cube(rng, res, c=2):
    return rng.random((6, res, res, c))


def as_dict(cube):
    return {f: cube[i] for i, f in enumerate(FACES)}


def face_of(cube, face):
    return cube[..., FACE_INDEX[face], :, :, :]


def border_pixel(edge, pos, res):
    """(row, col) of the depth-0 border pixel at `pos` along the traversal."""
    return {"top": (0, pos), "bottom": (res - 1, pos),
            "left": (pos, 0), "right": (pos, res - 1)}[edge]


# ── positional layout ────────────────────────────────────────────────────

class TestPositionGrid:
    def test_cross_offsets(self):
        assert tuple(face_position_grid(16, "U")[0, 0]) == (0, 16)
        assert tuple(face_position_grid(16, "F")[0, 0]) == (16, 16)
        assert tuple(face_position_grid(16, "D")[0, 0]) == (32, 16)
        assert tuple(face_position_grid(16, "L")[0, 0]) == (16, 0)
        assert tuple(face_position_grid(16, "R")[0, 0]) == (16, 32)
        assert tuple(face_position_grid(16, "B")[0, 0]) == (16, 48)

    def test_vertical_stack_contiguous(self):
        u = face_position_grid(8, "U")
        f = face_position_grid(8, "F")
        np.testing.assert_array_equal(f[0, :, 0] - u[-1, :, 0], 1)
        np.testing.assert_array_equal(f[0, :, 1], u[-1, :, 1])

    @pytest.mark.parametrize("fa,fb,vertical", [
        ("U", "F", True), ("F", "D", True),
        ("L", "F", False), ("F", "R", False), ("R", "B", False),
    ])
    def test_flattened_adjacent_edges_step_by_one(self, fa, fb, vertical):
        # pair border pixels through the adjacency and compare flattened coords
        res = 8
        edge = "bottom" if vertical else "right"
        adj = edge_adjacency()[(fa, edge)]
        assert adj.neighbor == fb and not adj.flipped
        pa = face_position_grid(res, fa)
        pb = face_position_grid(res, fb)
        for pos in range(res):
            ia, ja = border_pixel(edge, pos, res)
            ib, jb = border_pixel(adj.neighbor_edge, pos, res)
            ra, ca = pa[ia, ja]
            rb, cb = pb[ib, jb]
            if vertical:
                assert rb - ra == 1 and cb == ca
            else:
                assert cb - ca == 1 and rb == ra


# ── adjacency table ──────────────────────────────────────────────────────

class TestAdjacency:
    def test_symmetric(self):
        adjacency = edge_adjacency()
        for (f, e), adj in adjacency.items():
            back = adjacency[(adj.neighbor, adj.neighbor_edge)]
            assert (back.neighbor, back.neighbor_edge) == (f, e)

    def test_every_edge_has_one_neighbor(self):
        adjacency = edge_adjacency()
        assert len(adjacency) == 24
        for f in FACES:
            neighbors = {adjacency[(f, e)].neighbor for e in EDGES}
            assert len(neighbors) == 4 and f not in neighbors

    def test_derived_on_first_use_once(self):
        # importing the CLI derives nothing; every caller shares one table
        code = ("import cubegen.cli; from cubegen import continuity; "
                "print(continuity.edge_adjacency.cache_info().currsize); "
                "continuity.edge_adjacency(); continuity.edge_adjacency(); "
                "print(continuity.edge_adjacency.cache_info().misses)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              cwd=Path(__file__).resolve().parents[1] / "src")
        assert proc.stdout.split() == ["0", "1"]
        assert continuity.edge_adjacency() is continuity.edge_adjacency()

    def test_read_only(self):
        adjacency = edge_adjacency()
        with pytest.raises(TypeError):
            adjacency[("F", "top")] = adjacency[("F", "bottom")]
        with pytest.raises(TypeError):
            del adjacency[("F", "top")]
        assert len(edge_adjacency()) == 24

    def test_corner_three_cycles_identity(self):
        assert corner_cycle_identity()

    def test_transform_inverse_round_trip(self, rng):
        # the documented transform names and their inverses, as the
        # fidelity test below applies them
        strip = rng.random((3, 8, 2))
        documented = {a.transform for a in edge_adjacency().values()}
        assert documented <= set(ref.TRANSFORMS)
        for name in ref.TRANSFORMS:
            back = ref.apply_transform(ref.INVERSE[name],
                                       ref.apply_transform(name, strip))
            np.testing.assert_array_equal(back, strip)

    def test_strip_content_matches_sphere_geometry(self):
        # every strip pixel's extended-grid direction must coincide with a
        # direction on the neighbor face: verify via the analytic field that
        # a strip is geometrically the right band (coarse check; exactness
        # is covered by test_padding_fidelity_bit_exact)
        res = 16
        cube = make_cube(res, smooth_field)[None]
        for f in FACES:
            padded = pad_face(cube, f, 2)
            assert np.abs(padded).max() <= 1.0


# ── padding ──────────────────────────────────────────────────────────────

class TestPadFace:
    def test_constant_cube_constant_strips(self):
        res = 8
        cube = np.full((1, 6, res, res, 1), 0.4)
        padded = pad_face(cube, "F", 3)
        assert padded.shape == (1, res + 6, res + 6, 1)
        np.testing.assert_allclose(padded, 0.4)

    def test_padding_fidelity_bit_exact(self, rng):
        # each strip, carried back through the inverse of the documented
        # transform, is the neighbor's raw border band
        res, pad = 8, 2
        cube = random_cube(rng, res)
        for f in FACES:
            _, strips = ref.split(pad_face(cube[None], f, pad)[0], pad)
            for e in EDGES:
                adj = edge_adjacency()[(f, e)]
                raw = ref.apply_transform(ref.INVERSE[adj.transform], strips[e])
                neighbor = face_of(cube, adj.neighbor)
                if adj.neighbor_edge == "top":
                    band = neighbor[:2]
                elif adj.neighbor_edge == "bottom":
                    band = neighbor[-2:]
                elif adj.neighbor_edge == "left":
                    band = neighbor[:, :2]
                else:
                    band = neighbor[:, -2:]
                np.testing.assert_array_equal(raw, band)

    def test_smooth_field_strip_error(self):
        # strip pixels vs the analytic field at their extended-grid directions
        res, pad = 64, 4
        cube = make_cube(res, smooth_field)
        worst = 0.0
        for f in FACES:
            n, r, d = (np.asarray(v) for v in FACE_AXES[f])
            _, strips = ref.split(pad_face(cube[None], f, pad)[0], pad)
            along = 2.0 * (np.arange(res) + 0.5) / res - 1.0
            for e in EDGES:
                for k in range(pad):
                    out = 1.0 + (2 * k + 1) / res
                    if e == "top":
                        a, b = along, -out
                    elif e == "bottom":
                        a, b = along, out
                    elif e == "left":
                        a, b = -out, along
                    else:
                        a, b = out, along
                    v = n + np.multiply.outer(np.broadcast_to(a, (res,)), r) \
                        + np.multiply.outer(np.broadcast_to(b, (res,)), d)
                    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
                    diff = np.abs(strips[e][k] - smooth_field(v)).max()
                    worst = max(worst, diff)
        assert worst <= 0.08

    def test_positions_continue_monotonically(self):
        res, pad = 8, 2
        pos = face_position_grid(res, "F", pad)
        assert pos.shape == (res + 2 * pad, res + 2 * pad, 2)
        np.testing.assert_array_equal(np.diff(pos[:, 0, 0]), 1)
        np.testing.assert_array_equal(np.diff(pos[0, :, 1]), 1)
        core = face_position_grid(res, "F")
        np.testing.assert_array_equal(pos[pad:pad + res, pad:pad + res], core)

    def test_pad_width_bounds(self):
        cube = make_cube(8, smooth_field)[None]
        for pad in (0, 5):
            with pytest.raises(ValueError):
                pad_face(cube, "F", pad)
            with pytest.raises(ValueError):
                blend_overlaps(np.zeros((1, 8 + 2 * pad, 8 + 2 * pad, 3)),
                               cube.copy(), "F", pad)

    def test_assembly_round_trip(self, rng):
        # the padded grid splits back into the face's core and the strips
        # the reference extracts from the neighbors
        res, pad = 8, 2
        cube = random_cube(rng, res)
        core, strips = ref.split(pad_face(cube[None], "R", pad)[0], pad)
        np.testing.assert_array_equal(core, face_of(cube, "R"))
        want = ref.strips_of(as_dict(cube), "R", pad)
        for e in EDGES:
            np.testing.assert_array_equal(strips[e], want[e])


# ── the index maps against the strip reference ───────────────────────────

class TestMatchesStripReference:
    @pytest.mark.parametrize("res,pad", [(8, 1), (8, 4), (64, 4), (256, 16)])
    @pytest.mark.parametrize("c", [1, 3])
    def test_pad_and_blend_equal_reference(self, res, pad, c):
        rng = np.random.default_rng(res * 31 + pad * 7 + c)
        cube = rng.random((6, res, res, c))
        faces = as_dict(cube)
        for f in FACES:
            padded = pad_face(cube[None], f, pad)[0]
            assert np.array_equal(padded, ref.pad_face(faces, f, pad))
            generated = rng.random(padded.shape)
            canvas = cube[None].copy()
            blend_overlaps(generated[None], canvas, f, pad)
            core, strips = ref.split(generated, pad)
            want = ref.blend_overlaps(f, core, strips, faces, pad)
            for g in FACES:
                assert np.array_equal(face_of(canvas[0], g), want[g]), (f, g)

    @pytest.mark.parametrize("res", [4, 8, 64])
    def test_seam_metric_equals_reference(self, rng, res):
        cube = random_cube(rng, res, c=3)
        assert abs(seam_metric(cube)
                   - ref.seam_metric(as_dict(cube))) <= 1e-12

    def test_blends_every_frame_of_a_window(self, rng):
        res, pad, t = 8, 2, 3
        canvas = rng.random((t, 6, res, res, 2))
        generated = rng.random((t, res + 2 * pad, res + 2 * pad, 2))
        per_frame = canvas.copy()
        for k in range(t):
            blend_overlaps(generated[k:k + 1], per_frame[k:k + 1], "U", pad)
        blend_overlaps(generated, canvas, "U", pad)
        assert np.array_equal(canvas, per_frame)


# ── blending ─────────────────────────────────────────────────────────────

class TestBlendOverlaps:
    def test_identical_strips_leave_neighbors_unchanged(self, rng):
        res, pad = 8, 2
        cube = random_cube(rng, res)[None]
        padded = pad_face(cube, "F", pad)  # strips == neighbor bands
        canvas = cube.copy()
        blend_overlaps(padded, canvas, "F", pad)
        np.testing.assert_allclose(canvas, cube, atol=1e-12)

    def test_p1_overwrites_edge_band(self, rng):
        res = 8
        cube = random_cube(rng, res)[None]
        stamped = np.full_like(pad_face(cube, "F", 1), 9.0)
        stamped[:, 1:-1, 1:-1] = face_of(cube, "F")
        blend_overlaps(stamped, cube, "F", 1)
        out = as_dict(cube[0])
        np.testing.assert_allclose(out["U"][-1], 9.0)   # F.top -> U.bottom
        np.testing.assert_allclose(out["D"][0], 9.0)    # F.bottom -> D.top
        np.testing.assert_allclose(out["L"][:, -1], 9.0)
        np.testing.assert_allclose(out["R"][:, 0], 9.0)

    def test_linear_ramp_weights(self, rng):
        # with constant strips, the blended band must equal w*s + (1-w)*old
        res, pad = 8, 4
        cube = random_cube(rng, res, c=1)[None]
        old_u = face_of(cube[0], "U").copy()
        stamped = np.full_like(pad_face(cube, "F", pad), 2.0)
        stamped[:, pad:-pad, pad:-pad] = face_of(cube, "F")
        blend_overlaps(stamped, cube, "F", pad)
        new_u = face_of(cube[0], "U")
        for k in range(pad):  # depth k from the shared edge on U's side
            w = 1.0 - k / pad
            expect = w * 2.0 + (1 - w) * old_u[res - 1 - k]
            np.testing.assert_allclose(new_u[res - 1 - k], expect, atol=1e-12)
        np.testing.assert_allclose(new_u[:res - pad], old_u[:res - pad])

    def test_core_replaces_face_wholesale(self, rng):
        res, pad = 8, 2
        cube = random_cube(rng, res)[None]
        stamped = pad_face(cube, "B", pad)
        stamped[:, pad:-pad, pad:-pad] = 5.0
        blend_overlaps(stamped, cube, "B", pad)
        np.testing.assert_allclose(face_of(cube, "B"), 5.0)

    def test_blend_reduces_injected_seam(self):
        res, pad = 32, 4
        cube = make_cube(res, smooth_field)
        offset = cube.copy()
        offset[FACE_INDEX["F"]] += 0.5
        before = seam_metric(offset)
        # consistent content for F, shifted by the same offset
        shifted = pad_face(cube[None], "F", pad) + 0.5
        canvas = offset[None].copy()
        blend_overlaps(shifted, canvas, "F", pad)
        after = seam_metric(canvas[0])
        assert after < before

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_generated_of_another_dtype_blends_as_float64(self, rng, dtype):
        # the blend is computed in the promoted dtype, so a float32 or an
        # integer face blends as its exact float64 copy does
        res, pad = 8, 2
        cube = random_cube(rng, res)[None]
        generated = (rng.random((1, res + 2 * pad, res + 2 * pad, 2))
                     * 10).astype(dtype)
        canvas, want = cube.copy(), cube.copy()
        blend_overlaps(generated, canvas, "F", pad)
        blend_overlaps(generated.astype(np.float64), want, "F", pad)
        assert canvas.tobytes() == want.tobytes()

    def test_canvas_must_be_writable_in_place(self, rng):
        res, pad = 8, 2
        canvas = random_cube(rng, res)[None][..., ::-1]
        generated = pad_face(canvas, "F", pad)
        with pytest.raises(ValueError, match="C-contiguous"):
            blend_overlaps(generated, canvas, "F", pad)


class TestStackShapes:
    """R is read from the stack, so a stack that is not (T, 6, R, R, C) is
    rejected before any index map is built."""

    @pytest.mark.parametrize("shape", [(1, 6, 8, 12, 1),   # non-square faces
                                       (1, 5, 8, 8, 1),    # five faces
                                       (6, 8, 8, 1)])      # no frame axis
    def test_malformed_stack_rejected(self, shape):
        stack = np.zeros(shape)
        with pytest.raises(ValueError, match=r"\(T, 6, R, R, C\)"):
            pad_face(stack, "F", 2)
        with pytest.raises(ValueError, match=r"\(T, 6, R, R, C\)"):
            blend_overlaps(np.zeros((1, 12, 12, 1)), stack, "F", 2)

    def test_generated_of_another_resolution_rejected(self):
        canvas = np.zeros((1, 6, 8, 8, 1))
        generated = np.zeros((1, 16 + 4, 16 + 4, 1))  # padded R=16 face
        with pytest.raises(ValueError, match="generated face must be"):
            blend_overlaps(generated, canvas, "F", 2)


# ── seam metric ──────────────────────────────────────────────────────────

class TestLayoutExport:
    def test_docs_table_matches_code(self):
        # docs/cube_layout.json is generated by cube_layout_json; keep in sync
        import json
        from pathlib import Path
        doc = Path(__file__).resolve().parents[1] / "docs" / "cube_layout.json"
        assert json.loads(doc.read_text()) == cube_layout_json(64)


class TestSeamMetric:
    def test_constant_cube_zero(self):
        res = 8
        assert seam_metric(np.full((6, res, res, 1), 0.5)) == 0.0

    def test_smooth_field_low_seam(self):
        res = 64
        assert seam_metric(make_cube(res, smooth_field)) <= 0.05

    def test_offset_face_contributes_third(self):
        res = 64
        cube = make_cube(res, smooth_field)
        cube[FACE_INDEX["F"]] += 1.0
        metric = seam_metric(cube)
        assert abs(metric - 1.0 / 3.0) <= 0.03

    def test_single_channel_faces(self, rng):
        cube = random_cube(rng, 8, c=1)
        assert seam_metric(cube[..., 0]) == seam_metric(cube)

    @pytest.mark.parametrize("shape", [(6, 4, 8, 1),      # non-square faces
                                       (5, 4, 4, 1),      # five faces
                                       (1, 6, 4, 4, 1),   # a video, not a frame
                                       (6, 16)])
    def test_malformed_faces_rejected(self, rng, shape):
        with pytest.raises(ValueError, match="faces must be"):
            seam_metric(rng.random(shape))
