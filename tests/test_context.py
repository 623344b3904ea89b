"""Context pool, fragment selection, and bundle assembly tests.  Fragment
starts are verified against exhaustive linear scans."""

import numpy as np
import pytest

from cubegen.faces import FACES, FACE_INDEX, adjacent_faces
from cubegen.context import (
    ContextPool,
    FragmentSpec,
    WindowState,
    assemble_context,
    pool_push,
    select_future_fragments,
    short_horizon_coverage,
)
from cubegen.planner import FrameCoverage


def face_content(value, t=4, res=4, c=1):
    return {f: np.full((t, res, res, c), value) for f in FACES}


def coverage_from_rows(rows):
    """rows: dict face -> per-frame coverage list; unlisted faces get zeros."""
    n = len(next(iter(rows.values())))
    vals = np.zeros((6, n))
    for f, row in rows.items():
        vals[FACES.index(f)] = row
    return FrameCoverage(values=vals)


class TestContextPool:
    def test_fifo_eviction(self):
        pool = ContextPool(capacity=2)
        for w in (1, 2, 3):
            pool = pool_push(pool, w, face_content(w))
        assert pool.windows == (2, 3)

    def test_zero_capacity(self):
        pool = ContextPool(capacity=0)
        pool = pool_push(pool, 1, face_content(1.0))
        assert pool.windows == ()

    def test_capacity_three(self):
        pool = ContextPool(capacity=3)
        for w in range(1, 6):
            pool = pool_push(pool, w, face_content(w))
        assert pool.windows == (3, 4, 5)

    def test_out_of_order_rejected(self):
        pool = pool_push(ContextPool(capacity=2), 2, face_content(0.0))
        with pytest.raises(ValueError):
            pool_push(pool, 2, face_content(0.0))
        with pytest.raises(ValueError):
            pool_push(pool, 1, face_content(0.0))

    def test_bound_holds_under_random_pushes(self, rng):
        pool = ContextPool(capacity=2)
        w = 0
        for _ in range(20):
            w += int(rng.integers(1, 3))
            pool = pool_push(pool, w, face_content(0.0))
            assert len(pool.entries) <= 2

    def test_missing_face_rejected(self):
        content = face_content(0.0)
        del content["D"]
        with pytest.raises(ValueError):
            pool_push(ContextPool(capacity=1), 1, content)


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
        fc = FrameCoverage(values=vals)
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
        fc = FrameCoverage(values=vals)
        frags = select_future_fragments(fc, "F", 4, 4, 1e-9, 12)
        assert all(fr.start == 4 for fr in frags)
        assert [fr.face for fr in frags] == ["F", "R", "L", "U", "D"]

    def test_face_order_current_then_canonical_neighbors(self):
        vals = np.full((6, 12), 1.0)
        fc = FrameCoverage(values=vals)
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
            fc = FrameCoverage(values=vals)
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

    def test_first_step_boundary_case(self):
        state = WindowState(window=1, start=0, end=4)
        bundle = assemble_context(ContextPool(capacity=2), state, "F", [], self.cond())
        assert bundle.hist == ()
        assert [s.kind for s in bundle.curr] == ["curr-cond"] * 6
        assert [s.face for s in bundle.curr] == list(FACES)
        assert bundle.fut == ()

    def test_history_respects_capacity(self):
        cond = self.cond()
        pool = ContextPool(capacity=1)
        pool = pool_push(pool, 1, face_content(1.0))
        pool = pool_push(pool, 2, face_content(2.0))
        state = WindowState(window=3, start=8, end=12)
        bundle = assemble_context(pool, state, "F", [], self.cond(n=12))
        hist_windows = {(s.start, s.end) for s in bundle.hist}
        assert hist_windows == {(4, 8)}
        assert len(bundle.hist) == 6

    def test_mid_window_structure(self):
        cond = self.cond()
        state = WindowState(window=1, start=0, end=4)
        state.mark_generated("R", np.zeros((4, 4, 4, 1)))
        state.mark_generated("F", np.ones((4, 4, 4, 1)))
        frags = [FragmentSpec("F", 4, 4), FragmentSpec("U", 5, 3)]
        bundle = assemble_context(ContextPool(capacity=2), state, "B", frags, cond)
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
        state = WindowState(window=1, start=0, end=4)
        cond = self.cond()
        for face in ("F", "R", "B"):
            bundle = assemble_context(ContextPool(capacity=0), state, face, [], cond)
            assert len(bundle.curr) == 6
            state.mark_generated(face, np.zeros((4, 4, 4, 1)))

    def test_fut_content_slices_cond(self):
        cond = self.cond()
        state = WindowState(window=1, start=0, end=4)
        bundle = assemble_context(ContextPool(capacity=0), state, "F",
                                  [FragmentSpec("R", 5, 2)], cond)
        np.testing.assert_array_equal(bundle.fut[0].content,
                                      cond[5:7, FACE_INDEX["R"]])
        for src in bundle.curr:
            np.testing.assert_array_equal(src.content, cond[0:4, FACE_INDEX[src.face]])

    def test_missing_cond_range_is_internal_error(self):
        state = WindowState(window=1, start=0, end=4)
        with pytest.raises(RuntimeError):
            assemble_context(ContextPool(capacity=0), state, "F",
                             [FragmentSpec("R", 6, 4)], self.cond(n=8))

    def test_deterministic(self):
        cond = self.cond()
        state = WindowState(window=1, start=0, end=4)
        state.mark_generated("F", np.zeros((4, 4, 4, 1)))
        a = assemble_context(ContextPool(capacity=0), state, "R", [], cond)
        b = assemble_context(ContextPool(capacity=0), state, "R", [], cond)
        assert a.provenance() == b.provenance()
