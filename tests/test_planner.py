"""Planner tests: brute-force per-pixel counting and double-loop means serve
as the oracle for every derived value."""

import json

import numpy as np
import pytest

from cubegen.faces import FACES, FACE_INDEX
from cubegen import geometry as geo
from cubegen.planner import (
    frame_coverage,
    partition_windows,
    plan_order,
    window_coverage,
)


def random_masks(rng, n=8, res=16, p=0.4):
    """(n, 6, res, res) uint8 masks, drawn one face at a time."""
    return np.stack([(rng.random((n, res, res)) < p).astype(np.uint8) for f in FACES],
                    axis=1)


class TestPartitionWindows:
    def test_two_windows(self):
        windows = partition_windows(8, 4)
        assert windows == ((0, 4), (4, 8))
        assert len(windows) == 2

    def test_single_window(self):
        assert partition_windows(4, 4) == ((0, 4),)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            partition_windows(7, 4)

    def test_covers_range_disjointly(self):
        windows = partition_windows(24, 3)
        seen = [t for s, e in windows for t in range(s, e)]
        assert seen == list(range(24))


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

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            frame_coverage(np.ones((1, 5, 4, 4), np.uint8))


class TestWindowCoverage:
    def test_constant(self):
        fc = frame_coverage(np.zeros((8, 6, 4, 4), np.uint8))
        fc[:] = 0.3
        ct = window_coverage(fc, partition_windows(8, 4))
        np.testing.assert_allclose(ct, 0.3)

    def test_single_covered_frame(self):
        masks = np.zeros((4, 6, 4, 4), np.uint8)
        masks[0, FACE_INDEX["F"]] = 1
        ct = window_coverage(frame_coverage(masks), partition_windows(4, 4))
        assert ct[FACE_INDEX["F"], 0] == 0.25

    def test_matches_double_loop_oracle(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 4)
        ct = window_coverage(frame_coverage(masks), windows)
        for f in FACES:
            for w, (s, e) in enumerate(windows, start=1):
                acc = 0.0
                for t in range(s, e):
                    face_mask = masks[t, FACE_INDEX[f]]
                    acc += face_mask.sum() / face_mask.size
                assert np.isclose(ct[FACE_INDEX[f], w - 1], acc / (e - s), atol=1e-12)


class TestPlanOrder:
    def test_static_front_camera(self):
        frame = geo.PerspectiveFrame(np.full((16, 16, 1), 1.0))
        pose = geo.CameraPose(np.eye(3), 90.0, 90.0)
        _, cube_masks = geo.project_perspective_to_cubemap(frame, pose, 16)
        masks = np.repeat(cube_masks[None], 8, axis=0)
        windows = partition_windows(8, 4)
        plan = plan_order(window_coverage(frame_coverage(masks), windows), windows)
        # F first in each window, the five uncovered faces tie -> canonical
        for w in range(2):
            faces = [s.face for s in plan.steps[6 * w:6 * (w + 1)]]
            assert faces == ["F", "R", "B", "L", "U", "D"]
        assert [s.start for s in plan.steps] == [0] * 6 + [4] * 6

    def test_mixed_coverage_row(self):
        ct = np.array([[0.2], [0.9], [0.0], [0.0], [0.1], [0.0]])
        windows = partition_windows(4, 4)
        plan = plan_order(ct, windows)
        assert [s.face for s in plan.steps] == ["R", "F", "U", "B", "L", "D"]

    def test_matches_brute_force_oracle(self, rng):
        # acceptance-style: stable sort on per-pixel means, canonical ties
        for _ in range(25):
            masks = random_masks(rng)
            windows = partition_windows(8, 4)
            plan = plan_order(window_coverage(frame_coverage(masks), windows), windows)
            expect = []
            for s, e in windows:
                means = {}
                for f in FACES:
                    total = sum(masks[t, FACE_INDEX[f]].sum() for t in range(s, e))
                    means[f] = total / ((e - s) * masks[0, FACE_INDEX[f]].size)
                order = sorted(FACES, key=lambda f: (-means[f], FACE_INDEX[f]))
                expect.extend((f, s, e) for f in order)
            assert [(p.face, p.start, p.end) for p in plan.steps] == expect

    def test_sorted_by_descending_coverage(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 2)
        ct = window_coverage(frame_coverage(masks), windows)
        plan = plan_order(ct, windows)
        for w in range(len(windows)):
            cov = [ct[FACE_INDEX[s.face], w] for s in plan.steps[6 * w:6 * (w + 1)]]
            assert all(a >= b for a, b in zip(cov, cov[1:]))

    def test_invariant_under_monotone_rescaling(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 4)
        ct = window_coverage(frame_coverage(masks), windows)
        rescaled = np.sqrt(ct) * 0.9
        assert plan_order(ct, windows) == plan_order(rescaled, windows)

    def test_deterministic(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 4)
        ct = window_coverage(frame_coverage(masks), windows)
        a = plan_order(ct, windows).to_json_dict()
        b = plan_order(ct, windows).to_json_dict()
        assert a == b

    def test_temporal_causality(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 2)
        plan = plan_order(window_coverage(frame_coverage(masks), windows), windows)
        for i, si in enumerate(plan.steps):
            for sj in plan.steps[i + 1:]:
                assert si.end <= sj.start or si.start == sj.start

    def test_json_round_trip(self, rng):
        masks = random_masks(rng)
        windows = partition_windows(8, 4)
        plan = plan_order(window_coverage(frame_coverage(masks), windows), windows)
        steps = json.loads(json.dumps(plan.to_json_dict()))["steps"]
        assert [(d["face"], d["s"], d["e"]) for d in steps] == [
            (st.face, st.start, st.end) for st in plan.steps]
