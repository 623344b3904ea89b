"""Sampler and generation-loop tests.  The oracle denoiser makes every
sampler configuration land exactly on the clean latent, which calibrates the
integrator; end-to-end runs are checked against the analytic scene."""

import gc
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cubegen.faces import FACES, FACE_INDEX
from cubegen.config import config_from_dict, parse_config
from cubegen.context import ContextBundle
from cubegen.geometry import CubemapVideo, EquirectTaps
from cubegen.planner import frame_coverage, plan_order, window_coverage
from cubegen.pipeline import (
    euler_sample,
    generate_all,
    generate_step,
    oracle_denoiser,
    padded_target_denoiser,
    simulate_contexts,
    target_denoiser,
    zero_denoiser,
)
from cubegen import pipeline as pl
from cubegen import scene as sc

import strip_reference as ref


def small_scene(res=32, n=8, t_win=4, seed=7):
    cfg = config_from_dict(dict(resolution=res, equirect_width=4 * res,
                                num_frames=n, window_length=t_win, seed=seed))
    truth, frames, poses = sc.synth_scene(cfg)
    masks, cond = sc.conditional_video(res, frames, poses, cfg.channels)
    plan = plan_order(window_coverage(frame_coverage(masks), t_win))
    return cfg, truth, masks, cond, plan


def run_generate(cond, masks, plan, denoiser, *, steps, seed=0, pad=2,
                 history_capacity=2, frag_length=4, frag_threshold=0.5,
                 patch_size=8, **kwargs):
    """``generate_all`` with the frame coverage of ``masks`` and the loop
    settings of the small scenes."""
    return generate_all(cond, frame_coverage(masks), plan, denoiser,
                        steps=steps, seed=seed, pad=pad,
                        history_capacity=history_capacity,
                        frag_length=frag_length, frag_threshold=frag_threshold,
                        patch_size=patch_size, **kwargs)


def noise(seed, shape):
    """A sampler's initial noise, drawn the way ``generate_all`` draws it."""
    return np.random.default_rng(seed).standard_normal(shape)


def equirect_frames(result, width=None):
    """(N, W/2, W, C) equirect frames of a result's cube canvas, resampled
    the way ``generate`` writes them; W defaults to 4R."""
    res = result.canvas.shape[2]
    taps = EquirectTaps.create(res, width or 4 * res)
    return np.stack([taps.apply(frame) for frame in result.canvas])


class TestOracleAndSampler:
    def test_single_full_step_recovers_z0(self, rng):
        # the oracle predicts z0 itself, and one step from t=1 has dt/t = 1
        z0 = rng.normal(size=(2, 4, 4, 1))
        z_t = rng.normal(size=z0.shape)
        assert oracle_denoiser(z0)(z_t, 1.0) is z0
        np.testing.assert_allclose(euler_sample(oracle_denoiser(z0), z_t, None, 1),
                                   z0, atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_sampler_exact_under_oracle(self, rng, steps):
        z0 = rng.normal(size=(4, 32, 32, 2))
        z = noise(3, z0.shape)
        out = euler_sample(oracle_denoiser(z0), z, None, steps)
        assert np.abs(out - z0).max() <= 1e-6

    def test_fixed_seed_bit_identical(self):
        a = euler_sample(zero_denoiser, noise(11, (2, 4, 4, 1)), None, 2)
        b = euler_sample(zero_denoiser, noise(11, (2, 4, 4, 1)), None, 2)
        assert np.array_equal(a, b)
        # predicting z_t leaves the seeded initial noise untouched
        c = np.random.default_rng(11).standard_normal((2, 4, 4, 1))
        assert np.array_equal(a, c)

    def test_denoiser_shape_mismatch_is_error(self):
        bad = lambda z, t, ctx: np.zeros((1,))
        with pytest.raises(RuntimeError):
            euler_sample(bad, noise(0, (2, 2)), None, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_denoiser_non_finite_is_error(self, value):
        def bad(z, t, ctx):
            x0 = np.zeros_like(z)
            x0[0, 1] = value
            return x0
        with pytest.raises(RuntimeError, match="non-finite"):
            euler_sample(bad, noise(0, (2, 2)), None, 2)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_fewer_than_one_step_is_error(self, steps):
        # zero steps would hand back the noise as the sample
        with pytest.raises(ValueError, match="steps must be >= 1"):
            euler_sample(zero_denoiser, noise(0, (2, 2)), None, steps)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex128, object])
    def test_denoiser_non_float_is_error(self, dtype):
        bad = lambda z, t, ctx: np.zeros(z.shape, dtype=dtype)
        with pytest.raises(RuntimeError, match="dtype"):
            euler_sample(bad, noise(0, (2, 2)), None, 1)


def out_of_place_euler(denoiser, shape, steps, seed):
    """The sampler's update written out of place, as a bit-level reference."""
    z = noise(seed, shape)
    ts = np.linspace(1.0, 0.0, steps + 1)
    for s in range(steps):
        t, dt = ts[s], ts[s] - ts[s + 1]
        z = z + (dt / t) * (np.asarray(denoiser(z, float(t), None)) - z)
    return z


class TestInPlaceEuler:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_out_of_place_update(self, rng, dtype):
        target = rng.normal(size=(3, 5, 5, 2))

        def denoiser(z_t, t, ctx):  # an x̂0 that depends on z_t and t
            return (np.sin(3.0 * z_t) * t + target).astype(dtype)

        got = euler_sample(denoiser, noise(3, target.shape), None, 5)
        ref = out_of_place_euler(denoiser, target.shape, 5, 3)
        assert got.dtype == ref.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    def test_returned_array_left_unchanged(self, rng):
        # a denoiser handing back one cached array every call
        cached = rng.normal(size=(2, 4, 4, 1))
        before = cached.copy()
        got = euler_sample(lambda z, t, ctx: cached, noise(1, cached.shape),
                           None, 4)
        assert np.array_equal(cached, before)
        ref = out_of_place_euler(lambda z, t, ctx: before, cached.shape, 4, 1)
        assert got.tobytes() == ref.tobytes()


class TestSlicedEuler:
    """Each Euler update runs over views of about ``_SLICE_BYTES``: the
    finiteness check over every slice first, then the update slice by slice."""

    # (5, 100, 100, 3) slices along the first axis, 4 frames then 1; in
    # (2, 300, 250, 3) one frame exceeds a slice, so each is cut into rows,
    # 174 then 126
    SHAPES = [(5, 100, 100, 3), (2, 300, 250, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_out_of_place_update(self, rng, shape, dtype):
        slices, z = pl._slices(shape, 8), noise(3, shape)
        assert len(slices) > 1 and z[slices[-1]].size < z[slices[0]].size
        target = rng.normal(size=shape)

        def denoiser(z_t, t, ctx):
            return (np.sin(3.0 * z_t) * t + target).astype(dtype)

        got = euler_sample(denoiser, z, None, 3)
        ref = out_of_place_euler(denoiser, shape, 3, 3)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_non_finite_last_slice_leaves_z_unchanged(self, shape):
        x0 = np.zeros(shape)
        x0[-1, -1, -1, -1] = np.nan  # only the last slice holds it
        z = noise(5, shape)
        before = z.tobytes()
        with pytest.raises(RuntimeError, match="non-finite"):
            euler_sample(lambda z_t, t, ctx: x0, z, None, 1)
        assert z.tobytes() == before

    def test_update_allocates_one_slice(self):
        # a whole-array update of this 8 MB z would allocate 8 MB, and a
        # slice's velocity and step in two buffers 2 MB; each update frees
        # its buffer before the next
        shape = (4, 288, 288, 3)
        x0 = noise(6, shape)
        z = noise(7, shape)
        tracemalloc.start()
        try:
            euler_sample(lambda z_t, t, ctx: x0, z, None, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pl._SLICE_BYTES + 64 * 1024

    def test_previous_prediction_dropped_before_next_call(self):
        # the sampler holds no step-sized array, neither the previous x̂0 nor
        # an update's buffer, while the denoiser builds the next
        shape = (2, 64, 64, 3)
        refs, held = [], []

        def denoiser(z_t, t, ctx):
            assert all(r() is None for r in refs), "a previous x̂0 is alive"
            held.append(tracemalloc.get_traced_memory()[0])
            x0 = -z_t
            refs.append(weakref.ref(x0))
            return x0

        z = noise(9, shape)
        tracemalloc.start()
        try:
            euler_sample(denoiser, z, None, 4)
        finally:
            tracemalloc.stop()
        assert len(refs) == 4
        assert max(held) - held[0] < z.nbytes // 4, (held, z.nbytes)

    def test_zero_denoiser_returns_z_t(self):
        # x̂0 = z_t: no array is allocated, and the update adds +0.0
        z = noise(8, (4, 72, 72, 3))
        before = z.tobytes()
        tracemalloc.start()
        try:
            x0 = zero_denoiser(z, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert x0 is z
        assert euler_sample(zero_denoiser, z, None, 3).tobytes() == before


class TestGenerateStep:
    def first_step(self):
        """The first plan step of a teacher-forced run, its context and the
        scene oracle, with the canvas it blends into."""
        cfg, truth, masks, cond, plan = small_scene(res=16, n=8, t_win=4)
        bundle = next(pl.plan_contexts(cond, frame_coverage(masks), plan, truth,
                                       history_capacity=2, frag_length=4,
                                       frag_threshold=0.5))
        denoiser = padded_target_denoiser(truth, 2)
        return truth, masks, cond, cond[:].copy(), bundle, denoiser

    def test_oracle_step_reproduces_truth(self):
        truth, masks, cond, canvas, step, denoiser = self.first_step()
        z = noise(1, (step.end - step.start, 16 + 4, 16 + 4, 3))
        out = generate_step(canvas, step, denoiser, z, 4, 2)
        gt = truth[:][step.start:step.end, FACE_INDEX[step.face]]
        assert out.shape == (step.end - step.start, 16 + 4, 16 + 4, 3)
        got = out[:, 2:2 + 16, 2:2 + 16]
        assert np.abs(got - gt).max() <= 1e-5

    def test_first_step_context_boundary(self):
        truth, masks, cond, canvas, bundle, denoiser = self.first_step()
        assert bundle.hist == ()
        assert [s.kind for s in bundle.curr] == ["curr-cond"] * 6

    def test_masked_pixels_reproduced(self):
        truth, masks, cond, canvas, step, denoiser = self.first_step()
        z = noise(1, (step.end - step.start, 16 + 4, 16 + 4, 3))
        out = generate_step(canvas, step, denoiser, z, 4, 2)
        for k, t in enumerate(range(step.start, step.end)):
            fi = FACE_INDEX[step.face]
            m = masks[t, fi].astype(bool)
            if m.any():
                diff = np.abs(out[k, 2:2 + 16, 2:2 + 16] - cond[t:t + 1][0, fi])[m]
                assert diff.max() <= 0.02  # bilinear error of the conditional

    def test_causality_of_context(self):
        # non-future sources never extend past the window end
        cfg, truth, masks, cond, plan = small_scene(res=16, n=8, t_win=4)
        result = run_generate(cond, masks, plan, padded_target_denoiser(truth, 2),
                              steps=1, seed=0, pad=2,
                              teacher=truth)
        for entry in result.step_log:
            for src in entry["sources"]:
                if src["kind"] != "fut":
                    assert src["e"] <= entry["e"]


class TestInitState:
    """The (L, 6) plan is checked once, up front, by both entry points: each
    row a permutation of the six face indices, and L dividing N."""

    def reject(self, bad):
        cfg, truth, masks, cond, plan = small_scene(res=8, n=8, t_win=4)
        with pytest.raises(ValueError, match="plan"):
            run_generate(cond, masks, bad, zero_denoiser, steps=1)
        with pytest.raises(ValueError, match="plan"):
            simulate_contexts(cond, frame_coverage(masks), bad,
                              history_capacity=2, frag_length=4,
                              frag_threshold=0.5, patch_size=8)

    def test_repeated_face_in_window_rejected(self):
        bad = np.tile(np.arange(6), (2, 1))
        bad[1, 1] = bad[1, 0]
        self.reject(bad)

    def test_plan_not_covering_video_rejected(self):
        # 3 windows cannot tile 8 frames, and no window tiles nothing
        self.reject(np.tile(np.arange(6), (3, 1)))
        self.reject(np.zeros((0, 6), int))

    def test_ablation_orders_accepted(self):
        # the canonical and the reversed orders are plans like the planner's
        cfg, truth, masks, cond, plan = small_scene(res=8, n=8, t_win=4)
        for order in (np.tile(np.arange(6), (2, 1)), plan[:, ::-1]):
            log = simulate_contexts(cond, frame_coverage(masks), order,
                                    history_capacity=2,
                                    frag_length=4, frag_threshold=0.5,
                                    patch_size=8)
            assert [e["face"] for e in log] == [FACES[f] for f in order.ravel()]


class TestContextViews:
    """Every source's content is read from one video when it is read: a view
    of the canvas, or of the teacher under teacher forcing, for hist and
    curr-gen; the conditional's frames for curr-cond and fut."""

    @pytest.mark.parametrize("teacher", [False, True])
    def test_sources_view_the_videos(self, teacher):
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res, n=8, t_win=4)
        truth = truth[:]  # shares_memory needs the teacher as an array
        inner = padded_target_denoiser(truth, 2)
        bundles = []

        def recording(z_t, t, context):
            if not bundles or bundles[-1] is not context:
                bundles.append(context)
            return inner(z_t, t, context)

        # face F is about 38% covered, so its steps in window 1 take a fragment
        result = run_generate(cond, masks, plan, recording, steps=2, seed=0,
                              pad=2, history_capacity=2,
                              frag_length=4, frag_threshold=0.3,
                              teacher=truth if teacher else None)
        assert len(bundles) == plan.size
        canvas = result.canvas
        composed = truth if teacher else canvas
        other = canvas if teacher else truth
        kinds = set()
        cond_pixels = cond[:]
        for bundle in bundles:
            for src in bundle.sources:
                kinds.add(src.kind)
                generated = src.kind in ("hist", "curr-gen")
                video = composed if generated else cond_pixels
                assert np.shares_memory(src.content, composed) == generated, \
                    src.provenance()
                assert not np.shares_memory(src.content, other)
                assert np.array_equal(src.content,
                                      video[src.start:src.end, FACE_INDEX[src.face]])
        assert kinds == {"hist", "curr-gen", "curr-cond", "fut"}


class TestGenerateAll:
    def test_end_to_end_oracle_reproduces_scene(self):
        res = 32
        cfg, truth, masks, cond, plan = small_scene(res=res)
        denoiser = padded_target_denoiser(truth, 2)
        result = run_generate(cond, masks, plan, denoiser, steps=4, seed=5,
                              pad=2, history_capacity=2,
                              teacher=truth)
        scene_obj = sc.SyntheticScene.random(cfg.channels, cfg.seed)
        expected = sc.render_equirect_video(scene_obj, 4 * res, 8)
        assert np.abs(equirect_frames(result) - expected).max() <= 0.02

    def test_constant_scene_constant_output(self):
        res, n = 16, 4
        masks = np.ones((n, 6, res, res), np.uint8)
        cond = CubemapVideo((n, 6, res, res, 1), lambda t, out: out.fill(0.6))
        plan = plan_order(window_coverage(frame_coverage(masks), n))
        denoiser = padded_target_denoiser(cond, 2)
        result = run_generate(cond, masks, plan, denoiser,
                              steps=2, seed=0, pad=2,
                              history_capacity=1)
        np.testing.assert_allclose(equirect_frames(result), 0.6, atol=1e-9)

    def test_pool_occupancy_and_residency_bounds(self):
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res)
        denoiser = padded_target_denoiser(truth, 2)
        h = 1
        result = run_generate(cond, masks, plan, denoiser, steps=1, seed=0,
                              pad=2, history_capacity=h,
                              teacher=truth)
        assert max(result.pool_trace) <= h
        # the history after a step is the one the next step's context reads
        hist_windows = [len({src["s"] for src in e["sources"] if src["kind"] == "hist"})
                        for e in result.step_log]
        assert result.pool_trace[:-1] == hist_windows[1:]
        max_frag = max(e["fragments"] for e in result.step_log)
        assert result.peak_resident <= 6 * (h + 1) + max_frag
        assert result.resident_trace == [len(e["sources"]) for e in result.step_log]

    def test_deterministic_runs(self):
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res)
        denoiser = padded_target_denoiser(truth, 2)
        a = run_generate(cond, masks, plan, denoiser, steps=2, seed=9, teacher=truth)
        b = run_generate(cond, masks, plan, denoiser, steps=2, seed=9, teacher=truth)
        assert np.array_equal(equirect_frames(a), equirect_frames(b))

    def test_zero_denoiser_runs_and_differs(self):
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res)
        result = run_generate(cond, masks, plan, zero_denoiser,
                              steps=2, seed=0, pad=2)
        equirect = equirect_frames(result)
        assert equirect.shape == (8, 2 * res, 4 * res, 3)
        assert np.isfinite(equirect).all()
        # the result is the (N, 6, R, R, C) canvas itself
        assert result.canvas.shape == (8, 6, res, res, 3)
        assert result.canvas.flags.c_contiguous

    def test_three_argument_denoiser(self):
        # the protocol is denoiser(z_t, t, context): one that takes exactly
        # these three, with no defaults, runs the whole loop
        cfg, truth, masks, cond, plan = small_scene(res=16)

        def denoiser(z_t, t, context):
            assert isinstance(context, ContextBundle)
            return z_t.copy()

        got = run_generate(cond, masks, plan, denoiser, steps=2)
        want = run_generate(cond, masks, plan, zero_denoiser, steps=2)
        assert got.canvas.tobytes() == want.canvas.tobytes()

    @pytest.mark.parametrize("teacher", [True, False])
    def test_on_window_sees_final_frames(self, teacher):
        # generate writes each window's frames from these views while later
        # windows are sampled, so they must already equal the final canvas
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res, n=12, t_win=4)
        calls = []

        def on_window(start, end, frames):
            calls.append((start, end, frames.copy()))

        result = run_generate(cond, masks, plan, padded_target_denoiser(truth, 2),
                              steps=2, seed=4, pad=2,
                              teacher=truth if teacher else None,
                              on_window=on_window)
        assert [(s, e) for s, e, _ in calls] == [(0, 4), (4, 8), (8, 12)]
        for s, e, frames in calls:
            assert np.array_equal(frames, result.canvas[s:e])

    @pytest.mark.parametrize("teacher, ahead", [
        (True, False), (False, False), (True, True), (False, True)],
        ids=["True", "False", "True-executor", "False-executor"])
    def test_peak_above_start_bounded_by_canvas(self, teacher, ahead):
        # the loop holds the canvas and per-step buffers only: the context
        # is views, so no window of generated faces is copied
        cfg = parse_config(Path(__file__).parents[1] / "configs" / "demo.json")
        truth, frames, poses = sc.synth_scene(cfg)
        truth = truth[:]  # materialised before the trace, as a plain array
        masks, cond = sc.conditional_video(cfg.resolution, frames, poses, cfg.channels)
        coverage = frame_coverage(masks)
        plan = plan_order(window_coverage(coverage, cfg.window_length))
        denoiser = padded_target_denoiser(truth, cfg.pad)
        # with an executor, the draw one step ahead is one more padded window
        pool = ThreadPoolExecutor(max_workers=1) if ahead else None
        tracemalloc.start()
        try:
            generate_all(cond, coverage, plan, denoiser, steps=cfg.sampler_steps,
                         seed=cfg.seed, pad=cfg.pad, history_capacity=cfg.history,
                         frag_length=cfg.frag_length,
                         frag_threshold=cfg.frag_threshold,
                         patch_size=cfg.patch_size,
                         teacher=truth if teacher else None, executor=pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if pool is not None:
                pool.shutdown()
        canvas = np.zeros(cond.shape).nbytes
        assert peak <= 1.6 * canvas, (peak / canvas, peak, canvas)

    @pytest.mark.parametrize("teacher", [True, False])
    def test_oracle_peak_grows_with_frames_by_canvas_masks_and_logs(self, teacher):
        # the truth and the conditional are built inside the trace, and the
        # oracle reads the truth window by window: of what the loop holds,
        # only the canvas, the masks, the coverage, the plan and the per-step
        # logs scale with N
        res, t_win = 32, 4

        def peak(n):
            cfg = config_from_dict(dict(resolution=res, equirect_width=4 * res,
                                        num_frames=n, window_length=t_win))
            field, frames, poses = sc.synth_inputs(cfg)
            tracemalloc.start()
            try:
                truth = field.cubemap_video(res, n)
                masks, cond = sc.conditional_video(res, frames, poses, cfg.channels)
                coverage = frame_coverage(masks)
                plan = plan_order(window_coverage(coverage, t_win))
                result = generate_all(
                    cond, coverage, plan, padded_target_denoiser(truth, 2),
                    steps=2, seed=0, pad=2, history_capacity=2, frag_length=4,
                    frag_threshold=0.5, patch_size=8,
                    teacher=truth if teacher else None)
                held, top = tracemalloc.get_traced_memory()
                # the step log, pool trace and step timings, one entry per
                # step, are the run report's: measured by what freeing them
                # frees, the interpreter's free lists emptied
                for log in (result.step_log, result.pool_trace, result.step_timings):
                    log.clear()
                gc.collect()
                logs = held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return top, (result.canvas.nbytes + masks.nbytes + coverage.nbytes
                         + plan.nbytes + logs)

        peak(8)  # first-use costs: the direction stack, numpy's caches
        (peak_8, held_8), (peak_32, held_32) = peak(8), peak(32)
        # 4 KB of allocator noise; an N-sized truth would add 3.5 MB
        assert peak_32 - peak_8 <= held_32 - held_8 + 4096, (peak_32 - peak_8,
                                                             held_32 - held_8)

    @pytest.mark.parametrize("teacher", [True, False])
    def test_conditional_pixels_never_reach_the_canvas(self, teacher):
        # the canvas starts zeroed, not as a copy of the conditional: its
        # initial values are overwritten before anything reads them, so other
        # finite conditional pixels under the same masks give the same canvas
        cfg, truth, masks, cond, plan = small_scene(res=16, n=8, t_win=4)
        pixels = np.random.default_rng(3).uniform(-50.0, 50.0, cond.shape)
        other = CubemapVideo(cond.shape, lambda t, out: np.copyto(out, pixels[t]))
        runs = [run_generate(video, masks, plan, padded_target_denoiser(truth, 2),
                             steps=2, seed=6, pad=2,
                             teacher=truth if teacher else None)
                for video in (cond, other)]
        assert runs[0].canvas.tobytes() == runs[1].canvas.tobytes()


class RecordingExecutor:
    """Submits to ``pool`` and keeps every future it hands out; with
    ``wait``, returns each only once it has finished."""

    def __init__(self, pool, wait=False):
        self.pool, self.futures, self.wait = pool, [], wait

    def submit(self, fn, *args):
        future = self.pool.submit(fn, *args)
        self.futures.append(future)
        if self.wait:
            future.result()
        return future


class TestNoiseAhead:
    """With an executor, the next step's noise is drawn one step ahead; a
    draw the executor has not started is taken back and drawn inline.
    Either way each step samples from the same noise."""

    def run(self, executor=None):
        cfg, truth, masks, cond, plan = small_scene(res=16, n=12, t_win=4)
        result = run_generate(cond, masks, plan, padded_target_denoiser(cond, 2),
                              steps=3, seed=8, pad=2,
                              executor=executor)
        return result.canvas, plan.size

    def test_busy_executor_takes_every_draw_back(self):
        inline, _ = self.run()
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(release.wait)  # the one worker is held until the end
            recording = RecordingExecutor(pool)
            try:
                canvas, steps = self.run(recording)
            finally:
                release.set()
        cancelled = sum(f.cancelled() for f in recording.futures)
        assert len(recording.futures) == steps - 1
        assert cancelled > 0 and cancelled == steps - 1
        assert canvas.tobytes() == inline.tobytes()

    def test_finished_draws_are_taken_from_the_executor(self, monkeypatch):
        # every draw has finished before its step begins, so none can be
        # cancelled and every step after the first samples the executor's
        # own array
        inline, _ = self.run()
        sampled = []
        real_step = pl.generate_step

        def recording_step(canvas, bundle, denoiser, z, *args):
            sampled.append(z)
            return real_step(canvas, bundle, denoiser, z, *args)

        monkeypatch.setattr(pl, "generate_step", recording_step)
        with ThreadPoolExecutor(max_workers=1) as pool:
            recording = RecordingExecutor(pool, wait=True)
            canvas, steps = self.run(recording)
        assert len(recording.futures) == steps - 1
        assert not any(f.cancelled() for f in recording.futures)
        assert all(z is f.result() for z, f in zip(sampled[1:], recording.futures))
        assert canvas.tobytes() == inline.tobytes()


class TestPaddedTargetDenoiser:
    """The built-in denoisers pad their target once per plan step, and a
    plan step pads nothing else."""

    def test_pads_once_per_step(self, monkeypatch):
        res, t_win = 16, 4
        cfg, truth, masks, cond, plan = small_scene(res=res, n=8, t_win=t_win)
        calls = []
        real_pad = pl.pad_face

        def counting_pad(*args, **kwargs):
            calls.append(1)
            return real_pad(*args, **kwargs)

        real_step = pl.generate_step
        per_step = []

        def counting_step(*args, **kwargs):
            before = len(calls)
            out = real_step(*args, **kwargs)
            per_step.append(len(calls) - before)
            return out

        monkeypatch.setattr(pl, "pad_face", counting_pad)
        monkeypatch.setattr(pl, "generate_step", counting_step)
        run_generate(cond, masks, plan, padded_target_denoiser(truth, 2),
                     steps=6, seed=2, pad=2,
                     teacher=truth)
        assert per_step == [1] * plan.size

    @pytest.mark.parametrize("factory", ["oracle", "copy"])
    def test_cached_equals_uncached(self, factory):
        # the cached targets, the oracle's evaluated on the padded grid and
        # copy's padded through the index map, against the strip reference,
        # padded frame by frame on every Euler step
        res = 16
        cfg, truth, masks, cond, plan = small_scene(res=res)
        video = truth[:] if factory == "oracle" else cond[:]

        def uncached(z_t, t, context):
            frames = [ref.pad_face(dict(zip(FACES, video[k])), context.face, 2)
                      for k in range(context.start, context.end)]
            return np.stack(frames)

        field = sc.synth_inputs(cfg)[0]
        cached = (target_denoiser(partial(field.padded_face_video, res, 2))
                  if factory == "oracle" else padded_target_denoiser(cond, 2))
        teacher = truth if factory == "oracle" else None
        runs = [run_generate(cond, masks, plan, d, steps=3, seed=4,
                             pad=2, teacher=teacher)
                for d in (cached, uncached)]
        assert (equirect_frames(runs[0]).tobytes()
                == equirect_frames(runs[1]).tobytes())
        assert runs[0].canvas.tobytes() == runs[1].canvas.tobytes()

    def test_first_call_allocates_less_than_the_window(self):
        # the target is padded from a view of the video's frames [s, e), so
        # the first call never holds a (T, 6, R, R, C) copy of the window
        res, t_win, pad, c = 64, 4, 4, 3
        rng = np.random.default_rng(0)
        video = rng.random((2 * t_win, 6, res, res, c))
        denoiser = padded_target_denoiser(video, pad)
        context = ContextBundle(face="R", window=1, start=0, end=t_win,
                                hist=(), curr=(), fut=())
        z = np.zeros((t_win, res + 2 * pad, res + 2 * pad, c))
        tracemalloc.start()
        try:
            denoiser(z, 1.0, context)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window_bytes = t_win * 6 * res * res * c * 8  # 2.36 MB
        assert peak < window_bytes, (peak, window_bytes)
