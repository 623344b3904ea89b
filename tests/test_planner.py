"""Planner tests: brute-force per-pixel counting and double-loop means serve
as the oracle for every derived value."""

import json
import tracemalloc

import numpy as np
import pytest

from cubegen.faces import FACES, FACE_INDEX
from cubegen import geometry as geo
from cubegen.planner import frame_coverage, plan_order, plan_steps, window_coverage


def random_masks(rng, n=8, res=16, p=0.4):
    """(n, 6, res, res) uint8 masks, drawn one face at a time."""
    return np.stack([(rng.random((n, res, res)) < p).astype(np.uint8) for f in FACES],
                    axis=1)


def canonical(num_windows):
    """The (L, 6) plan generating every window in canonical face order."""
    return np.tile(np.arange(6), (num_windows, 1))


class TestPartitionWindows:
    """Row w of an (L, 6) plan is the window of frames [w*T, (w+1)*T)."""

    def test_two_windows(self):
        steps = plan_steps(canonical(2), 4)
        assert [(d["s"], d["e"]) for d in steps] == [(0, 4)] * 6 + [(4, 8)] * 6
        assert [d["face"] for d in steps] == list(FACES) * 2

    def test_single_window(self):
        assert {(d["s"], d["e"]) for d in plan_steps(canonical(1), 4)} == {(0, 4)}

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="multiple of window length 4"):
            window_coverage(np.zeros((6, 7)), 4)

    def test_covers_range_disjointly(self):
        for face in FACES:
            seen = [t for d in plan_steps(canonical(8), 3) if d["face"] == face
                    for t in range(d["s"], d["e"])]
            assert seen == list(range(24))


def _masks(shape=(2, 6, 4, 4), value=0):
    """All-ones masks but for pixel 5 of face 0 of frame 0, which is
    ``value``."""
    masks = np.ones(shape)
    masks.flat[5] = value
    return masks


class TestFrameCoverage:
    def test_all_ones(self):
        fc = frame_coverage(np.ones((2, 6, 4, 4), np.uint8))
        assert fc.shape == (6, 2) and (fc == 1.0).all()

    def test_all_zeros(self):
        assert (frame_coverage(np.zeros((2, 6, 4, 4), np.uint8)) == 0.0).all()

    def test_matches_pixel_count_oracle(self, rng):
        masks = random_masks(rng)
        fc = frame_coverage(masks)
        for f in FACES:
            for t in range(8):
                count = sum(int(masks[t, FACE_INDEX[f], i, j])
                            for i in range(16) for j in range(16))
                assert fc[FACE_INDEX[f], t] == count / 256

    def test_non_binary_rejected(self):
        masks = np.ones((1, 6, 4, 4), np.uint8)
        masks[0, FACE_INDEX["F"]] = 2
        with pytest.raises(ValueError, match="binary"):
            frame_coverage(masks)

    def test_binary_check_reads_a_frame_at_a_time(self):
        # the check's temporaries are one frame's, not the masks' size
        masks = np.ones((8, 6, 128, 128), np.uint8)
        tracemalloc.start()
        try:
            frame_coverage(masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < masks.nbytes, (peak, masks.nbytes)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            frame_coverage(np.ones((1, 5, 4, 4), np.uint8))

    @pytest.mark.parametrize("masks,match", [
        pytest.param(_masks((2, 6, 4, 3)), "masks must be", id="mask-shape"),
        *(pytest.param(_masks(value=v), "binary", id=f"mask-{v}")
          for v in (2.0, 0.5, -1.0, np.nan)),
    ])
    def test_rejected(self, masks, match):
        with pytest.raises(ValueError, match=match):
            frame_coverage(masks)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float64])
    def test_binary_dtypes_accepted(self, dtype):
        fc = frame_coverage(_masks().astype(dtype))
        assert fc.dtype == np.float64 and fc.shape == (6, 2)
        assert fc[0, 0] == 15 / 16 and (fc.flat[1:] == 1.0).all()


class TestWindowCoverage:
    def test_constant(self):
        fc = frame_coverage(np.zeros((8, 6, 4, 4), np.uint8))
        fc[:] = 0.3
        ct = window_coverage(fc, 4)
        np.testing.assert_allclose(ct, 0.3)

    def test_single_covered_frame(self):
        masks = np.zeros((4, 6, 4, 4), np.uint8)
        masks[0, FACE_INDEX["F"]] = 1
        ct = window_coverage(frame_coverage(masks), 4)
        assert ct[FACE_INDEX["F"], 0] == 0.25

    def test_matches_double_loop_oracle(self, rng):
        masks = random_masks(rng)
        ct = window_coverage(frame_coverage(masks), 4)
        for f in FACES:
            for w, (s, e) in enumerate([(0, 4), (4, 8)], start=1):
                acc = 0.0
                for t in range(s, e):
                    face_mask = masks[t, FACE_INDEX[f]]
                    acc += face_mask.sum() / face_mask.size
                assert np.isclose(ct[FACE_INDEX[f], w - 1], acc / (e - s), atol=1e-12)


def faces_of(plan):
    return [FACES[f] for f in plan.ravel()]


class TestPlanOrder:
    def test_static_front_camera(self):
        pose = geo.CameraPose(np.eye(3), 90.0, 90.0)
        cube_masks = geo.frustum_masks(pose, 16)
        masks = np.repeat(cube_masks[None], 8, axis=0)
        plan = plan_order(window_coverage(frame_coverage(masks), 4))
        # F first in each window, the five uncovered faces tie -> canonical
        assert plan.shape == (2, 6)
        assert faces_of(plan) == ["F", "R", "B", "L", "U", "D"] * 2
        assert [d["s"] for d in plan_steps(plan, 4)] == [0] * 6 + [4] * 6

    def test_mixed_coverage_row(self):
        ct = np.array([[0.2], [0.9], [0.0], [0.0], [0.1], [0.0]])
        assert faces_of(plan_order(ct)) == ["R", "F", "U", "B", "L", "D"]

    def test_negative_zero_ties_with_zero(self):
        ct = np.array([[0.0], [-0.0], [0.0], [-0.0], [0.0], [0.0]])
        assert faces_of(plan_order(ct)) == list(FACES)

    def test_matches_brute_force_oracle(self, rng):
        # acceptance-style: stable sort on per-pixel means, canonical ties
        for _ in range(25):
            masks = random_masks(rng)
            plan = plan_order(window_coverage(frame_coverage(masks), 4))
            expect = []
            for s, e in [(0, 4), (4, 8)]:
                means = {}
                for f in FACES:
                    total = sum(masks[t, FACE_INDEX[f]].sum() for t in range(s, e))
                    means[f] = total / ((e - s) * masks[0, FACE_INDEX[f]].size)
                order = sorted(FACES, key=lambda f: (-means[f], FACE_INDEX[f]))
                expect.extend((f, s, e) for f in order)
            assert [(d["face"], d["s"], d["e"]) for d in plan_steps(plan, 4)] == expect

    def test_sorted_by_descending_coverage(self, rng):
        masks = random_masks(rng)
        ct = window_coverage(frame_coverage(masks), 2)
        plan = plan_order(ct)
        for w, row in enumerate(plan):
            cov = ct[row, w]
            assert all(a >= b for a, b in zip(cov, cov[1:]))

    def test_invariant_under_monotone_rescaling(self, rng):
        masks = random_masks(rng)
        ct = window_coverage(frame_coverage(masks), 4)
        rescaled = np.sqrt(ct) * 0.9
        assert np.array_equal(plan_order(ct), plan_order(rescaled))

    def test_deterministic(self, rng):
        masks = random_masks(rng)
        ct = window_coverage(frame_coverage(masks), 4)
        assert plan_steps(plan_order(ct), 4) == plan_steps(plan_order(ct), 4)

    def test_temporal_causality(self, rng):
        masks = random_masks(rng)
        steps = plan_steps(plan_order(window_coverage(frame_coverage(masks), 2)), 2)
        for i, si in enumerate(steps):
            for sj in steps[i + 1:]:
                assert si["e"] <= sj["s"] or si["s"] == sj["s"]

    def test_json_round_trip(self, rng):
        masks = random_masks(rng)
        plan = plan_order(window_coverage(frame_coverage(masks), 4))
        steps = json.loads(json.dumps({"steps": plan_steps(plan, 4)}))["steps"]
        assert [d["face"] for d in steps] == faces_of(plan)
        assert steps == plan_steps(plan, 4)
