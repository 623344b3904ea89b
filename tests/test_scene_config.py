"""Config validation and synthetic-scene determinism/self-consistency."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cubegen.config import (
    ConfigError,
    config_from_dict,
    parse_config,
)
from cubegen import geometry as geo
from cubegen import scene as sc
from cubegen.continuity import pad_face
from cubegen.faces import FACES, FACE_INDEX
from cubegen.imgio import read_poses, write_poses
from cubegen.planner import frame_coverage

PAPER_GEOMETRY = Path(__file__).resolve().parents[1] / "configs" / "paper_geometry.json"


class TestRunConfig:
    def test_minimal_round_trip(self, tmp_path):
        cfg = config_from_dict(dict(seed=3))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        assert parse_config(path) == cfg

    def test_divisibility_rejection_names_field(self):
        with pytest.raises(ConfigError, match="num_frames.*divisible"):
            config_from_dict(dict(num_frames=7))

    def test_threshold_rejection(self):
        with pytest.raises(ConfigError, match="frag_threshold"):
            config_from_dict(dict(frag_threshold=1.5))

    def test_width_must_be_4r(self):
        with pytest.raises(ConfigError, match="equirect_width"):
            config_from_dict(dict(equirect_width=300))

    def test_default_bandwidth_is_face_token_count(self):
        cfg = config_from_dict({})
        assert cfg.bandwidth == (64 // 8) ** 2

    def test_default_pad_is_r_over_16(self):
        assert config_from_dict({}).pad == 4
        assert parse_config(PAPER_GEOMETRY).pad == 60

    def test_pad_bounds(self):
        with pytest.raises(ConfigError, match="pad"):
            config_from_dict(dict(pad=40))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"resolutionn": 64})

    def test_denoiser_name_checked(self):
        with pytest.raises(ConfigError, match="mode.denoiser"):
            config_from_dict(dict(mode={"denoiser": "magic"}))

    def test_paper_protocol_anchor_range(self):
        with pytest.raises(ConfigError, match="anchors"):
            config_from_dict(dict(scene={"protocol": "paper", "anchors": 2}))
        with pytest.raises(ConfigError, match="anchors"):
            config_from_dict(dict(scene={"protocol": "paper", "anchors": 6}))
        cfg = config_from_dict(dict(scene={"protocol": "paper", "anchors": 4,
                                           "hfov_deg": 100.0, "vfov_deg": 80.0}))
        assert cfg.scene.anchors == 4

    def test_paper_protocol_fov_range(self):
        with pytest.raises(ConfigError, match="hfov"):
            config_from_dict(dict(scene={"protocol": "paper", "anchors": 3,
                                         "hfov_deg": 150.0}))
        # free protocol allows it
        cfg = config_from_dict(dict(scene={"protocol": "free", "anchors": 3,
                                           "hfov_deg": 150.0}))
        assert cfg.scene.hfov_deg == 150.0

    def test_paper_geometry_preset(self):
        cfg = parse_config(PAPER_GEOMETRY)
        assert cfg.resolution == 960 and cfg.equirect_width == 3840

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config(path)


class TestSyntheticScene:
    def test_seed_determinism(self):
        cfg = config_from_dict(dict(resolution=16, equirect_width=64, seed=5))
        t1, f1, p1 = sc.synth_scene(cfg)
        t2, f2, p2 = sc.synth_scene(cfg)
        assert t1.shape == (cfg.num_frames, 6, 16, 16, cfg.channels)
        assert np.array_equal(t1[:], t2[:])
        for a, b in zip(f1, f2):
            assert np.array_equal(a.pixels, b.pixels)
        for a, b in zip(p1, p2):
            assert np.array_equal(a.rotation, b.rotation)

    def test_synth_inputs_plus_truth_is_synth_scene(self):
        # generate builds the truth from the split helper's field
        cfg = config_from_dict(dict(resolution=16, equirect_width=64, seed=5))
        truth, frames, poses = sc.synth_scene(cfg)
        field, frames2, poses2 = sc.synth_inputs(cfg)
        truth2 = field.cubemap_video(cfg.resolution, cfg.num_frames)
        assert np.array_equal(truth[:], truth2[:])
        assert len(frames2) == len(frames) and len(poses2) == len(poses)
        for a, b in zip(frames, frames2):
            assert np.array_equal(a.pixels, b.pixels)
        for a, b in zip(poses, poses2):
            assert np.array_equal(a.rotation, b.rotation)
            assert (a.hfov_deg, a.vfov_deg) == (b.hfov_deg, b.vfov_deg)

    def test_truth_reads_the_field_face_by_face(self):
        # any read holds the bytes of filling the whole video face by face
        field = sc.SyntheticScene.random(channels=3, seed=5)
        truth = field.cubemap_video(16, 6)
        dirs = geo.face_directions(16)
        whole = np.empty(truth.shape)
        for i in range(6):
            for t in range(6):
                whole[t, i] = field.value(dirs[i], t)
        assert truth[:].tobytes() == whole.tobytes()
        assert truth[2:5].tobytes() == whole[2:5].tobytes()

    @pytest.mark.parametrize("res", [16, 64, 256])
    def test_padded_face_video_is_the_padded_truth_window(self, res):
        # the oracle's target, the field on a face's padded grid, is the
        # truth window padded through the index map, byte for byte: strips
        # and corners hold the neighbouring faces' directions
        field = sc.SyntheticScene.random(channels=3, seed=5)
        window = field.cubemap_video(res, 5)[3:5]
        for pad in sorted({1, res // 16, res // 2}):
            for face in FACES:
                got = field.padded_face_video(res, pad, face, 3, 5)
                want = pad_face(window, face, pad)
                assert got.tobytes() == want.tobytes(), (pad, face)

    def test_value_equals_leading_stack_form(self, rng):
        # the basis planes are written into one array, in the layout of the
        # np.stack of eight planes they replaced: the same bytes
        scene = sc.SyntheticScene.random(channels=3, seed=4)
        for dirs in (rng.normal(size=(3, 50, 40, 3)), geo.face_directions(32)):
            rot = geo.rotvec_to_matrix(-3 * scene.spin_per_frame * scene.spin_axis)
            r = dirs @ rot.T
            x, y, z = r[..., 0], r[..., 1], r[..., 2]
            basis = np.moveaxis(np.stack([b(x, y, z) for b in sc._BASIS]), 0, -1)
            want = 0.5 + basis @ scene.coeffs.T
            assert scene.value(dirs, 3).tobytes() == want.tobytes()

    def test_different_seeds_differ(self):
        cfg1 = config_from_dict(dict(resolution=16, equirect_width=64, seed=1))
        cfg2 = config_from_dict(dict(resolution=16, equirect_width=64, seed=2))
        t1, _, _ = sc.synth_scene(cfg1)
        t2, _, _ = sc.synth_scene(cfg2)
        assert not np.array_equal(t1[:][:, FACE_INDEX["F"]],
                                  t2[:][:, FACE_INDEX["F"]])

    def test_field_values_in_unit_interval(self, rng):
        scene = sc.SyntheticScene.random(channels=3, seed=9)
        d = rng.normal(size=(2000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        for t in (0, 5, 50):
            v = scene.value(d, t)
            assert v.min() >= 0.0 and v.max() <= 1.0

    @pytest.mark.parametrize("channels", [1, 3])
    def test_value_equals_interleaved_stack_form(self, rng, channels):
        # the basis is stacked along a leading axis; pinned to the (..., 8)
        # stack it replaced, on random and face directions.  The two layouts
        # may be summed in another order by the BLAS (one channel differs by
        # up to 1.8e-15 on OpenBLAS), so the pin is a few ulps, not bytes.
        scene = sc.SyntheticScene.random(channels=channels, seed=4)
        d = rng.normal(size=(3, 50, 40, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        for dirs in (d, geo.face_directions(32)):
            for t in (0, 3, 17):
                rot = geo.rotvec_to_matrix(-t * scene.spin_per_frame * scene.spin_axis)
                r = dirs @ rot.T
                x, y, z = r[..., 0], r[..., 1], r[..., 2]
                basis = np.stack([b(x, y, z) for b in sc._BASIS], axis=-1)
                want = 0.5 + basis @ scene.coeffs.T
                np.testing.assert_allclose(scene.value(dirs, t), want,
                                           rtol=0, atol=1e-14)

    def test_reprojection_self_consistency(self):
        # rendered perspective frames re-projected onto the cubemap agree
        # with the ground truth wherever observed (bilinear error budget)
        cfg = config_from_dict(dict(resolution=32, equirect_width=128, seed=11))
        truth, frames, poses = sc.synth_scene(cfg)
        _, cond = sc.conditional_video(cfg.resolution, frames, poses, cfg.channels)
        observed = np.stack([geo.frustum_masks(p, cfg.resolution)
                             for p in poses]).astype(bool)
        assert observed.any()
        worst = np.abs(cond[:] - truth[:])[observed].max()
        assert worst <= 0.02

    def test_masks_nontrivial(self):
        cfg = config_from_dict(dict(resolution=32, equirect_width=128, seed=11))
        _, frames, poses = sc.synth_scene(cfg)
        coverage, _ = sc.conditional_video(cfg.resolution, frames, poses, cfg.channels)
        total = coverage.mean(axis=1).sum()
        assert 0.0 < total < 6.0

    @pytest.mark.parametrize("res", [16, 64])
    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_coverage_is_frame_coverage_of_the_masks(self, tmp_path, res, source):
        # each pose's masks are counted and dropped: the bytes of counting
        # them all stacked, for the scene's poses and for poses read back
        # from a pose file
        cfg = config_from_dict(dict(resolution=res, equirect_width=4 * res, seed=5))
        _, frames, poses = sc.synth_scene(cfg)
        if source == "file":
            write_poses(tmp_path / "poses.json", poses)
            poses = read_poses(tmp_path / "poses.json")
        coverage, _ = sc.conditional_video(res, frames, poses, cfg.channels)
        want = frame_coverage(np.stack([geo.frustum_masks(p, res) for p in poses]))
        assert coverage.shape == want.shape == (6, cfg.num_frames)
        assert coverage.tobytes() == want.tobytes()

    def test_conditional_video_holds_one_copy(self):
        # coverage up front, masks and pixels on read: building holds the
        # coverage only, and a read projects frame by frame into the array
        # it returns, which holds them, so its peak is that array plus one
        # frame's projection, not every frame's projection plus their stack
        res, n = 64, 8
        cfg = config_from_dict(dict(resolution=res, num_frames=n, channels=3))
        _, frames, poses = sc.synth_scene(cfg)
        # the per-R direction stack is shared fixed work; build it first
        sc.conditional_video(res, [frames[0]], poses[:1], cfg.channels)[1][0:1]
        tracemalloc.start()
        try:
            coverage, video = sc.conditional_video(res, frames, poses, cfg.channels)
            built, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pixels = video[0:n]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pixels.shape == (n, 6, res, res, 3)
        assert built < coverage.nbytes + 4096, (built, coverage.nbytes)
        assert held - built < pixels.nbytes + 4096, (held - built, pixels.nbytes)
        assert peak - built <= 1.3 * pixels.nbytes, (peak - built, pixels.nbytes)

    def test_conditional_peak_grows_with_frames_by_the_coverage_only(self):
        # read window by window as a copy run reads it, each window dropped
        # before the next is read: only the (6, N) coverage scales with N
        res, t_win = 32, 4

        def peak(n):
            cfg = config_from_dict(dict(resolution=res, equirect_width=4 * res,
                                        num_frames=n, window_length=t_win))
            _, frames, poses = sc.synth_scene(cfg)
            frames = list(frames)  # rendered up front, like frames read from files
            tracemalloc.start()
            try:
                coverage, video = sc.conditional_video(res, frames, poses,
                                                       cfg.channels)
                for s in range(0, n, t_win):
                    video[s:s + t_win]
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top, coverage.nbytes

        peak(8)  # first-use costs: the direction stack, numpy's caches
        (peak_8, held_8), (peak_32, held_32) = peak(8), peak(32)
        # 4 KB of allocator noise; the 24 more frames' masks, held, would
        # add 147 KB
        assert peak_32 - peak_8 <= held_32 - held_8 + 4096, (peak_8, peak_32)

    def test_conditional_video_rejects_pose_count_mismatch(self):
        cfg = config_from_dict(dict(resolution=16, equirect_width=64, num_frames=8))
        _, frames, poses = sc.synth_scene(cfg)
        with pytest.raises(ValueError, match="poses"):
            sc.conditional_video(16, frames, poses[:-1], cfg.channels)
