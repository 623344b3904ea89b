"""Sampler and generation-loop tests.  The oracle denoiser makes every
sampler configuration land exactly on the clean latent, which calibrates the
integrator; end-to-end runs are checked against the analytic scene."""

import numpy as np
import pytest

from cubegen.faces import FACES
from cubegen.config import default_config
from cubegen.continuity import CubeLayout
from cubegen.geometry import CubemapVideo
from cubegen.planner import (
    frame_coverage,
    partition_windows,
    plan_order,
    window_coverage,
)
from cubegen.pipeline import (
    SamplerConfig,
    euler_sample,
    flow_matching_loss,
    generate_all,
    generate_step,
    init_state,
    make_scene_oracle_denoiser,
    oracle_denoiser,
    sample_path,
    zero_denoiser,
)
from cubegen import scene as sc


def small_scene(res=32, n=8, t_win=4, seed=7):
    cfg = default_config(resolution=res, equirect_width=4 * res,
                         num_frames=n, window_length=t_win, seed=seed)
    truth, frames, poses = sc.synth_scene(cfg)
    cond = sc.conditional_video(res, frames, poses)
    wp = partition_windows(n, t_win)
    plan = plan_order(window_coverage(frame_coverage(cond.masks), wp), wp)
    return cfg, truth, cond, plan


class TestSamplePath:
    def test_endpoints(self, rng):
        z0 = rng.normal(size=(2, 4, 4, 1))
        eps = rng.normal(size=(2, 4, 4, 1))
        np.testing.assert_array_equal(sample_path(z0, eps, 0.0), z0)
        np.testing.assert_array_equal(sample_path(z0, eps, 1.0), eps)

    def test_midpoint(self, rng):
        z0 = rng.normal(size=(3, 5))
        eps = rng.normal(size=(3, 5))
        np.testing.assert_allclose(sample_path(z0, eps, 0.5), (z0 + eps) / 2,
                                   atol=1e-15)

    def test_time_out_of_range(self, rng):
        z = rng.normal(size=(2, 2))
        with pytest.raises(ValueError):
            sample_path(z, z, -0.1)
        with pytest.raises(ValueError):
            sample_path(z, z, 1.1)


class TestFlowMatchingLoss:
    def test_perfect_prediction(self, rng):
        z0 = rng.normal(size=(4, 4))
        z_t = rng.normal(size=(4, 4))
        assert flow_matching_loss(z0 - z_t, z0, z_t) == 0.0

    def test_constant_offset(self, rng):
        z0 = rng.normal(size=(4, 4))
        z_t = rng.normal(size=(4, 4))
        assert flow_matching_loss(z0 - z_t + 1.0, z0, z_t) == pytest.approx(1.0)

    def test_matches_double_loop_mse(self, rng):
        v = rng.normal(size=(3, 4))
        z0 = rng.normal(size=(3, 4))
        z_t = rng.normal(size=(3, 4))
        acc = sum((v[i, j] - (z0[i, j] - z_t[i, j])) ** 2
                  for i in range(3) for j in range(4)) / 12
        assert flow_matching_loss(v, z0, z_t) == pytest.approx(acc, abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            flow_matching_loss(rng.normal(size=(2, 2)), rng.normal(size=(2, 3)),
                               rng.normal(size=(2, 3)))


class TestOracleAndSampler:
    def test_oracle_gives_zero_loss(self, rng):
        z0 = rng.normal(size=(4, 8, 8, 2))
        den = oracle_denoiser(z0)
        for t in (0.0, 0.3, 1.0):
            eps = rng.normal(size=z0.shape)
            z_t = sample_path(z0, eps, t)
            assert flow_matching_loss(den(z_t, t), z0, z_t) == 0.0

    def test_single_full_step_recovers_z0(self, rng):
        z0 = rng.normal(size=(2, 4, 4, 1))
        z_t = rng.normal(size=z0.shape)
        np.testing.assert_allclose(z_t + oracle_denoiser(z0)(z_t, 1.0), z0,
                                   atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_sampler_exact_under_oracle(self, rng, steps):
        z0 = rng.normal(size=(4, 32, 32, 2))
        out = euler_sample(oracle_denoiser(z0), z0.shape, None, None,
                           SamplerConfig(steps=steps, seed=3))
        assert np.abs(out - z0).max() <= 1e-6

    def test_fixed_seed_bit_identical(self):
        cfg = SamplerConfig(steps=2, seed=11)
        a = euler_sample(zero_denoiser, (2, 4, 4, 1), None, None, cfg)
        b = euler_sample(zero_denoiser, (2, 4, 4, 1), None, None, cfg)
        assert np.array_equal(a, b)
        # zero velocity leaves the seeded initial noise untouched
        c = np.random.default_rng(11).standard_normal((2, 4, 4, 1))
        assert np.array_equal(a, c)

    def test_denoiser_shape_mismatch_is_error(self):
        bad = lambda z, t, ctx, cond: np.zeros((1,))
        with pytest.raises(RuntimeError):
            euler_sample(bad, (2, 2), None, None, SamplerConfig(steps=1, seed=0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_denoiser_non_finite_is_error(self, value):
        def bad(z, t, ctx, cond):
            v = np.zeros_like(z)
            v[0, 1] = value
            return v
        with pytest.raises(RuntimeError, match="non-finite"):
            euler_sample(bad, (2, 2), None, None, SamplerConfig(steps=2, seed=0))

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex128, object])
    def test_denoiser_non_float_is_error(self, dtype):
        bad = lambda z, t, ctx, cond: np.zeros(z.shape, dtype=dtype)
        with pytest.raises(RuntimeError, match="dtype"):
            euler_sample(bad, (2, 2), None, None, SamplerConfig(steps=1, seed=0))


class TestGenerateStep:
    def setup_state(self, res=16, teacher=True):
        cfg, truth, cond, plan = small_scene(res=res, n=8, t_win=4)
        layout = CubeLayout.create(res)
        state = init_state(cond, plan, layout=layout, pad=2, history_capacity=2,
                           frag_length=4, frag_threshold=0.5,
                           ground_truth=truth if teacher else None)
        denoiser = make_scene_oracle_denoiser(truth, 2, layout)
        return cfg, truth, cond, plan, state, denoiser

    def test_oracle_step_reproduces_truth(self):
        cfg, truth, cond, plan, state, denoiser = self.setup_state()
        step = plan.steps[0]
        out = generate_step(state, step, denoiser,
                            SamplerConfig(steps=4, seed=1, teacher_forcing=True))
        gt = truth.faces[step.face][step.start:step.end]
        got = np.stack([p.core for p in out])
        assert np.abs(got - gt).max() <= 1e-5

    def test_first_step_context_boundary(self):
        cfg, truth, cond, plan, state, denoiser = self.setup_state()
        from cubegen.pipeline import build_context
        from cubegen.context import WindowState
        state.window_state = WindowState(window=1, start=0, end=4)
        bundle = build_context(state, plan.steps[0])
        assert bundle.hist == ()
        assert [s.kind for s in bundle.curr] == ["curr-cond"] * 6

    def test_masked_pixels_reproduced(self):
        cfg, truth, cond, plan, state, denoiser = self.setup_state()
        step = plan.steps[0]
        out = generate_step(state, step, denoiser,
                            SamplerConfig(steps=4, seed=1, teacher_forcing=True))
        for k, t in enumerate(range(step.start, step.end)):
            m = cond.masks[step.face][t].astype(bool)
            if m.any():
                diff = np.abs(out[k].core - cond.faces[step.face][t])[m]
                assert diff.max() <= 0.02  # bilinear error of the conditional

    def test_plan_order_violation(self):
        cfg, truth, cond, plan, state, denoiser = self.setup_state()
        with pytest.raises(ValueError):
            generate_step(state, plan.steps[1], denoiser,
                          SamplerConfig(steps=1, seed=0, teacher_forcing=True))

    def test_causality_of_context(self):
        # non-future sources never extend past the window end
        cfg, truth, cond, plan, state, denoiser = self.setup_state()
        scfg = SamplerConfig(steps=1, seed=0, teacher_forcing=True)
        for step in plan.steps:
            generate_step(state, step, denoiser, scfg)
        for entry in state.step_log:
            for src in entry["sources"]:
                if src["kind"] != "fut":
                    assert src["e"] <= entry["e"]


class TestGenerateAll:
    def test_end_to_end_oracle_reproduces_scene(self):
        res = 32
        cfg, truth, cond, plan = small_scene(res=res)
        layout = CubeLayout.create(res)
        denoiser = make_scene_oracle_denoiser(truth, 2, layout)
        result = generate_all(cond, plan, denoiser,
                              SamplerConfig(steps=4, seed=5, teacher_forcing=True),
                              layout=layout, pad=2, history_capacity=2,
                              ground_truth=truth)
        scene_obj = sc.SyntheticScene.random(cfg.channels, cfg.seed)
        expected = sc.render_equirect_video(scene_obj, 4 * res, 8)
        assert np.abs(result.equirect - expected).max() <= 0.02

    def test_constant_scene_constant_output(self):
        res, n = 16, 4
        faces = {f: np.full((n, res, res, 1), 0.6) for f in FACES}
        masks = {f: np.ones((n, res, res), np.uint8) for f in FACES}
        cond = CubemapVideo(faces=faces, masks=masks)
        wp = partition_windows(n, n)
        plan = plan_order(window_coverage(frame_coverage(cond.masks), wp), wp)
        denoiser = make_scene_oracle_denoiser(cond, 2, CubeLayout.create(res))
        result = generate_all(cond, plan, denoiser,
                              SamplerConfig(steps=2, seed=0), pad=2,
                              history_capacity=1)
        np.testing.assert_allclose(result.equirect, 0.6, atol=1e-9)

    def test_pool_occupancy_and_residency_bounds(self):
        res = 16
        cfg, truth, cond, plan = small_scene(res=res)
        layout = CubeLayout.create(res)
        denoiser = make_scene_oracle_denoiser(truth, 2, layout)
        h = 1
        result = generate_all(cond, plan, denoiser,
                              SamplerConfig(steps=1, seed=0, teacher_forcing=True),
                              layout=layout, pad=2, history_capacity=h,
                              ground_truth=truth)
        assert max(result.pool_trace) <= h
        max_frag = max(e["fragments"] for e in result.step_log)
        assert result.peak_resident <= 6 * (h + 1) + max_frag

    def test_deterministic_runs(self):
        res = 16
        cfg, truth, cond, plan = small_scene(res=res)
        layout = CubeLayout.create(res)
        denoiser = make_scene_oracle_denoiser(truth, 2, layout)
        scfg = SamplerConfig(steps=2, seed=9, teacher_forcing=True)
        a = generate_all(cond, plan, denoiser, scfg, layout=layout, pad=2,
                         ground_truth=truth)
        b = generate_all(cond, plan, denoiser, scfg, layout=layout, pad=2,
                         ground_truth=truth)
        assert np.array_equal(a.equirect, b.equirect)

    def test_zero_denoiser_runs_and_differs(self):
        res = 16
        cfg, truth, cond, plan = small_scene(res=res)
        result = generate_all(cond, plan, zero_denoiser,
                              SamplerConfig(steps=2, seed=0), pad=2)
        assert result.equirect.shape == (8, 2 * res, 4 * res, 3)
        assert np.isfinite(result.equirect).all()
