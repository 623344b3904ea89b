"""History windows, fragment selection, and bundle assembly tests.  Fragment
starts are verified against exhaustive linear scans."""

import numpy as np
import pytest

from cubegen.faces import FACES, FACE_INDEX, adjacent_faces
from cubegen.context import (
    FragmentSpec,
    assemble_context,
    history_windows,
    select_future_fragments,
    short_horizon_coverage,
)


def coverage_from_rows(rows):
    """rows: dict face -> per-frame coverage list; unlisted faces get zeros."""
    n = len(next(iter(rows.values())))
    vals = np.zeros((6, n))
    for f, row in rows.items():
        vals[FACES.index(f)] = row
    return vals


class TestContextPool:
    """The FIFO history pool is plan arithmetic: ``history_windows``."""

    def test_fifo_eviction(self):
        # windows 1, 2, 3 completed, capacity 2: window 1 was evicted
        assert tuple(history_windows(4, 2)) == (2, 3)

    def test_zero_capacity(self):
        assert tuple(history_windows(2, 0)) == ()

    def test_capacity_three(self):
        assert tuple(history_windows(6, 3)) == (3, 4, 5)
        assert tuple(history_windows(1, 3)) == ()

    def test_bound_holds_under_random_pushes(self, rng):
        for _ in range(50):
            window, capacity = int(rng.integers(1, 30)), int(rng.integers(0, 5))
            held = tuple(history_windows(window, capacity))
            assert len(held) <= capacity
            # the newest completed windows, oldest first, none in the future
            assert held == tuple(range(window - len(held), window))
            assert len(held) == min(capacity, window - 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            history_windows(3, -1)


class TestShortHorizonCoverage:
    def test_constant(self):
        fc = coverage_from_rows({"F": [0.6] * 8})
        for tau in range(5):
            assert short_horizon_coverage(fc, "F", tau, 4) == pytest.approx(0.6)

    def test_step_series(self):
        fc = coverage_from_rows({"F": [0, 0, 1, 1]})
        assert short_horizon_coverage(fc, "F", 2, 2) == 1.0

    def test_matches_loop_oracle(self, rng):
        vals = rng.random((6, 12))
        fc = vals
        for f in FACES:
            for tau in range(9):
                expect = sum(vals[FACES.index(f), tau + k] for k in range(4)) / 4
                assert short_horizon_coverage(fc, f, tau, 4) == pytest.approx(expect, abs=1e-12)

    def test_horizon_overflow_rejected(self):
        fc = coverage_from_rows({"F": [1.0] * 8})
        with pytest.raises(ValueError):
            short_horizon_coverage(fc, "F", 6, 4)


class TestSelectFutureFragments:
    def test_nearest_start_after_gap(self):
        row = [0.0] * 10 + [1.0] * 10
        fc = coverage_from_rows({"R": row})
        # threshold at exactly 0.5: tau=8 already qualifies (frames 8,9 empty
        # but 10,11 full -> mean 2/4 >= 0.5); minimality picks it
        frags = select_future_fragments(fc, "R", window_end=8, frag_length=4,
                                        threshold=0.5, num_frames=20)
        assert frags[0] == FragmentSpec("R", 8, 4)
        # a threshold above 3/4 forces the fully-covered start at frame 10
        frags = select_future_fragments(fc, "R", window_end=8, frag_length=4,
                                        threshold=0.8, num_frames=20)
        assert frags[0] == FragmentSpec("R", 10, 4)

    def test_all_zero_future(self):
        fc = coverage_from_rows({"F": [0.0] * 16})
        assert select_future_fragments(fc, "F", 8, 4, 0.5, 16) == []

    def test_threshold_zero_rejected(self):
        fc = coverage_from_rows({"F": [1.0] * 8})
        with pytest.raises(ValueError):
            select_future_fragments(fc, "F", 4, 2, 0.0, 8)

    def test_tiny_threshold_picks_window_end(self):
        vals = np.full((6, 12), 0.2)
        fc = vals
        frags = select_future_fragments(fc, "F", 4, 4, 1e-9, 12)
        assert all(fr.start == 4 for fr in frags)
        assert [fr.face for fr in frags] == ["F", "R", "L", "U", "D"]

    def test_face_order_current_then_canonical_neighbors(self):
        vals = np.full((6, 12), 1.0)
        fc = vals
        frags = select_future_fragments(fc, "U", 4, 4, 0.5, 12)
        assert [fr.face for fr in frags] == ["U", "F", "R", "B", "L"]

    def test_overflow_fragments_omitted_not_truncated(self):
        # coverage only qualifies at tau=14 but 14+4 > 16 -> omit
        row = [0.0] * 14 + [1.0, 1.0]
        fc = coverage_from_rows({"F": row})
        frags = select_future_fragments(fc, "F", 8, 4, 0.9, 16)
        assert all(fr.face != "F" for fr in frags)

    def test_minimality_against_exhaustive_scan(self, rng):
        # acceptance-style: tau* qualifies, every earlier tau fails
        for _ in range(100):
            vals = rng.random((6, 16)) ** 2
            fc = vals
            e_w, t_frag, r, n = 8, 4, 0.5, 16
            face = FACES[int(rng.integers(6))]
            frags = select_future_fragments(fc, face, e_w, t_frag, r, n)
            by_face = {fr.face: fr for fr in frags}
            for g in (face, *adjacent_faces(face)):
                qualifying = [tau for tau in range(e_w, n - t_frag + 1)
                              if vals[FACES.index(g), tau:tau + t_frag].mean() >= r]
                if g in by_face:
                    assert by_face[g].start == qualifying[0]
                else:
                    assert not qualifying


class TestAssembleContext:
    def cond(self, n=8, res=4, c=1):
        """(n, 6, res, res, c) conditional video; face i holds 0.1 * i."""
        return np.broadcast_to(0.1 * np.arange(6)[:, None, None, None],
                               (n, 6, res, res, c)).copy()

    def source(self, n=8, res=4, c=1):
        """(n, 6, res, res, c) video being composed; frame t holds t."""
        return np.broadcast_to(np.arange(n, dtype=np.float64)[:, None, None, None, None],
                               (n, 6, res, res, c)).copy()

    def test_first_step_boundary_case(self):
        bundle = assemble_context(self.source(), self.cond(), "F", 0, 4,
                                  (), 2, [])
        assert bundle.hist == ()
        assert [s.kind for s in bundle.curr] == ["curr-cond"] * 6
        assert [s.face for s in bundle.curr] == list(FACES)
        assert bundle.fut == ()
        assert bundle.window == 1

    def test_history_respects_capacity(self):
        source = self.source(n=12)
        bundle = assemble_context(source, self.cond(n=12), "F", 8, 12,
                                  (), 1, [])
        hist_windows = {(s.start, s.end) for s in bundle.hist}
        assert hist_windows == {(4, 8)}
        assert len(bundle.hist) == 6
        assert bundle.window == 3
        for src in bundle.hist:
            assert np.shares_memory(src.content, source)
            np.testing.assert_array_equal(src.content,
                                          source[4:8, FACE_INDEX[src.face]])

    def test_mid_window_structure(self):
        frags = [FragmentSpec("F", 4, 4), FragmentSpec("U", 5, 3)]
        bundle = assemble_context(self.source(), self.cond(), "B", 0, 4,
                                  ("R", "F"), 2, frags)
        expect = [
            {"kind": "curr-gen", "face": "R", "s": 0, "e": 4},
            {"kind": "curr-gen", "face": "F", "s": 0, "e": 4},
            {"kind": "curr-cond", "face": "B", "s": 0, "e": 4},
            {"kind": "curr-cond", "face": "L", "s": 0, "e": 4},
            {"kind": "curr-cond", "face": "U", "s": 0, "e": 4},
            {"kind": "curr-cond", "face": "D", "s": 0, "e": 4},
            {"kind": "fut", "face": "F", "s": 4, "e": 8},
            {"kind": "fut", "face": "U", "s": 5, "e": 8},
        ]
        assert bundle.provenance() == expect

    def test_curr_always_six_sources(self):
        done = ()
        for face in ("F", "R", "B"):
            bundle = assemble_context(self.source(), self.cond(),
                                      face, 0, 4, done, 0, [])
            assert len(bundle.curr) == 6
            done += (face,)

    def test_fut_content_slices_cond(self):
        cond, source = self.cond(), self.source()
        bundle = assemble_context(source, cond, "F", 0, 4, ("U",), 0,
                                  [FragmentSpec("R", 5, 2)])
        np.testing.assert_array_equal(bundle.fut[0].content,
                                      cond[5:7, FACE_INDEX["R"]])
        for src in bundle.curr:
            video = source if src.kind == "curr-gen" else cond
            np.testing.assert_array_equal(src.content,
                                          video[0:4, FACE_INDEX[src.face]])

    def test_missing_cond_range_is_internal_error(self):
        with pytest.raises(RuntimeError):
            assemble_context(self.source(), self.cond(n=8), "F", 0, 4,
                             (), 0, [FragmentSpec("R", 6, 4)])

    def test_deterministic(self):
        cond, source = self.cond(), self.source()
        a = assemble_context(source, cond, "R", 0, 4, ("F",), 0, [])
        b = assemble_context(source, cond, "R", 0, 4, ("F",), 0, [])
        assert a.provenance() == b.provenance()
