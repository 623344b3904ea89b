"""End-to-end CLI tests: artifacts, schemas, determinism, and error paths."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from cubegen import artifacts, cli
from cubegen import scene as sc
from cubegen.artifacts import load_schema
from cubegen.attention import BandedMaskSpec, TokenLayout, attention_peak_bytes
from cubegen.config import config_from_dict, parse_config
from cubegen.context import ContextBundle
from cubegen.faces import FACES
from cubegen.geometry import EquirectTaps
from cubegen.imgio import (read_pfm, read_ppm, write_pfm, write_pgm, write_poses,
                           write_ppm)
from cubegen.pipeline import generate_all
from cubegen.planner import frame_coverage, plan_order, window_coverage

import jsonschema


def validate_artifact(name: str, obj: dict) -> None:
    """The shipped checker, then jsonschema, its reference: every artifact
    these tests write must pass both."""
    artifacts.validate_artifact(name, obj)
    jsonschema.Draft202012Validator(load_schema(name)).validate(obj)


def small_cfg(tmp_path, **overrides) -> Path:
    base = {
        "resolution": 16, "equirect_width": 64, "num_frames": 8,
        "window_length": 4, "history": 2, "frag_length": 4,
        "frag_threshold": 0.5, "patch_size": 8, "pad": 2,
        "sampler_steps": 2, "seed": 3, "channels": 3,
        "mode": {"teacher_forcing": True, "denoiser": "oracle"},
    }
    base.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return path


def run(args) -> int:
    return cli.main([str(a) for a in args])


DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def side_threads() -> list:
    return [t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")]


def assert_frames_equal_serial_writes(out: Path, ref: Path) -> None:
    """``generate``'s frames of the demo config in ``out`` are the bytes of
    sampling the whole canvas first and then resampling it frame by frame."""
    cfg = parse_config(DEMO)
    field, frames, poses = sc.synth_inputs(cfg)
    masks, cond = sc.conditional_video(cfg.resolution, frames, poses, cfg.channels)
    fc = frame_coverage(masks)
    order = plan_order(window_coverage(fc, cfg.window_length))
    result = generate_all(
        cond, fc, order, cli._make_denoiser(cfg, field, cond),
        steps=cfg.sampler_steps, seed=cfg.seed,
        pad=cfg.pad, history_capacity=cfg.history,
        frag_length=cfg.frag_length, frag_threshold=cfg.frag_threshold,
        patch_size=cfg.patch_size,
        teacher=(field.cubemap_video(cfg.resolution, cfg.num_frames)
                 if cfg.mode.teacher_forcing else None))
    taps = EquirectTaps.create(cfg.resolution, cfg.equirect_width)
    ref.mkdir()
    for t in range(cfg.num_frames):
        frame = taps.apply(result.canvas[t])
        write_pfm(ref / "x.pfm", frame)
        write_ppm(ref / "x.ppm", np.clip(frame, 0, 1))
        for ext in ("pfm", "ppm"):
            assert ((out / f"frame_{t:03d}.{ext}").read_bytes()
                    == (ref / f"x.{ext}").read_bytes()), (t, ext)
    assert len(list(out.glob("frame_*"))) == 2 * cfg.num_frames


class TestSubcommands:
    def test_plan_artifacts_validate(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["plan", "--config", cfg, "--out", out]) == 0
        plan = json.loads((out / "plan.json").read_text())
        validate_artifact("plan", plan)
        assert len(plan["steps"]) == 12
        coverage = json.loads((out / "coverage.json").read_text())
        validate_artifact("coverage", coverage)

    def test_plan_static_front_orders_f_first(self, tmp_path):
        # fixed identity trajectory: same anchors -> static front camera
        cfg = small_cfg(tmp_path, scene={"protocol": "free", "anchors": 2,
                                         "hfov_deg": 90.0, "vfov_deg": 90.0},
                        seed=0)
        # synthetic anchors are random; instead check invariant: first face
        # of each window has max coverage
        out = tmp_path / "out"
        assert run(["plan", "--config", cfg, "--out", out]) == 0
        plan = json.loads((out / "plan.json").read_text())["steps"]
        cov = json.loads((out / "coverage.json").read_text())["per_window"]
        for w in range(2):
            first = plan[6 * w]["face"]
            assert cov[first][w] == max(cov[f][w] for f in cov)

    def test_project_writes_frames_and_masks(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["project", "--config", cfg, "--out", out]) == 0
        conds = sorted(out.glob("cond_*_*.ppm"))
        masks = sorted(out.glob("mask_*_*.pgm"))
        eq_masks = sorted(out.glob("eq_mask_*.pgm"))
        assert len(conds) == 48 and len(masks) == 48 and len(eq_masks) == 8
        for path, (h, w) in ((masks[0], (16, 16)), (eq_masks[0], (32, 64))):
            header, raw = f"P5\n{w} {h}\n255\n".encode(), path.read_bytes()
            assert raw[:len(header)] == header and len(raw) == len(header) + h * w
            assert set(raw[len(header):]) <= {0, 255}
        validate_artifact("coverage", json.loads((out / "coverage.json").read_text()))

    def test_context_provenance_validates(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["context", "--config", cfg, "--out", out]) == 0
        ctx = json.loads((out / "context.json").read_text())
        validate_artifact("context", ctx)
        assert len(ctx["steps"]) == 12
        first = ctx["steps"][0]
        assert all(s["kind"] == "curr-cond" for s in first["sources"])
        # second window sees history from the first
        later = ctx["steps"][6]
        assert any(s["kind"] == "hist" for s in later["sources"])

    @pytest.mark.parametrize("teacher", [True, False])
    def test_context_equals_generation_log(self, tmp_path, teacher):
        # both subcommands walk the one plan loop; context.json is its step
        # log without the token counts
        cfg = small_cfg(tmp_path, num_frames=12, history=1, frag_threshold=0.3,
                        mode={"teacher_forcing": teacher, "denoiser": "oracle"})
        assert run(["context", "--config", cfg, "--out", tmp_path / "ctx"]) == 0
        assert run(["generate", "--config", cfg, "--out", tmp_path / "gen"]) == 0
        ctx = json.loads((tmp_path / "ctx" / "context.json").read_text())
        report = json.loads((tmp_path / "gen" / "run_report.json").read_text())
        assert ctx["steps"] == [{k: v for k, v in step.items() if k != "tokens"}
                                for step in report["steps"]]
        assert any(step["fragments"] for step in ctx["steps"])

    def test_plan_writers_agree(self, tmp_path):
        # plan.json, run_report.json, context.json and dry_run.json write
        # the planner's steps
        cfg = small_cfg(tmp_path, num_frames=12)
        for sub in ("plan", "generate", "context"):
            assert run([sub, "--config", cfg, "--out", tmp_path / sub]) == 0
        assert run(["generate", "--dry-run", "--config", cfg,
                    "--out", tmp_path / "dry"]) == 0

        def read(sub, name):
            return json.loads((tmp_path / sub / name).read_text())

        steps = read("plan", "plan.json")["steps"]
        assert read("generate", "run_report.json")["plan"] == steps
        assert [{k: e[k] for k in ("face", "s", "e")}
                for e in read("context", "context.json")["steps"]] == steps
        assert read("dry", "dry_run.json")["plan"] == steps
        assert [d["face"] for d in steps] != list(FACES) * 3

    def test_context_never_builds_truth(self, tmp_path, monkeypatch):
        def no_truth(*args, **kwargs):
            raise AssertionError("context computed a synthetic truth frame")

        monkeypatch.setattr(sc.SyntheticScene, "cubemap_frame", no_truth)
        cfg = small_cfg(tmp_path)
        assert run(["context", "--config", cfg, "--out", tmp_path / "out"]) == 0
        validate_artifact("context", json.loads(
            (tmp_path / "out" / "context.json").read_text()))

    def test_attend_bench_csv(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["attend-bench", "--config", cfg, "--out", out,
                    "--trials", "0"]) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "G,C,K,d,flops_sparse,flops_dense,wall_ms_sparse,wall_ms_dense"
        assert len(lines) == 1 + len(cli.BENCH_CONTEXT_GRID)
        for row in lines[1:]:
            g, c, k, d, fs, fd, ws, wd = row.split(",")
            assert int(fs) <= int(fd)
            assert ws == "0.000" and wd == "0.000"

    @pytest.mark.parametrize("trials", [0, 2])
    def test_attend_bench_warms_each_path(self, tmp_path, monkeypatch, trials):
        # each path is called once untimed per context before its timed
        # trials, and --trials 0 calls neither
        calls = []
        monkeypatch.setattr(cli, "mask_matrix", lambda layout, spec: None)
        monkeypatch.setattr(cli, "sparse_context_attention", lambda inp, layout, spec:
                            calls.append(("sparse", layout.num_context)))
        monkeypatch.setattr(cli, "dense_masked_attention", lambda inp, mask:
                            calls.append(("dense", inp.num_tokens)))
        cfg = small_cfg(tmp_path)
        assert run(["attend-bench", "--config", cfg, "--out", tmp_path / "out",
                    "--trials", str(trials)]) == 0
        g = int((tmp_path / "out" / "bench.csv").read_text().splitlines()[1].split(",")[0])
        calls_per_path = trials + 1 if trials else 0
        assert calls == [call for c in cli.BENCH_CONTEXT_GRID
                         for call in [("sparse", c)] * calls_per_path
                         + [("dense", g + c)] * calls_per_path]

    def test_generate_reproduces_scene(self, tmp_path):
        cfg_path = small_cfg(tmp_path, resolution=32, equirect_width=128, pad=2)
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg_path, "--out", out]) == 0
        report = json.loads((out / "run_report.json").read_text())
        validate_artifact("run_report", report)
        assert max(report["pool_trace"]) <= 2
        # oracle + teacher forcing: output frames match the analytic scene
        from cubegen import scene as sc
        cfg = config_from_dict(dict(resolution=32, equirect_width=128, num_frames=8,
                                    window_length=4, pad=2, seed=3,
                                    mode={"teacher_forcing": True, "denoiser": "oracle"}))
        scene = sc.SyntheticScene.random(cfg.channels, cfg.seed)
        expected = sc.render_equirect_video(scene, 128, 8)
        got = np.stack([read_pfm(out / f"frame_{t:03d}.pfm") for t in range(8)])
        assert np.abs(got - expected).max() <= 0.02
        timings = json.loads((out / "timings.json").read_text())
        validate_artifact("timings", timings)
        assert len(timings["step_seconds"]) == 12
        stages = timings["stage_seconds"]
        assert set(stages) == {"inputs", "conditional", "sampling", "output"}
        assert sum(stages.values()) <= timings["total_seconds"]
        assert not list(out.glob(".staging-*"))

    def test_generate_frames_equal_serial_writes(self, tmp_path):
        # the side thread writes each window's frames during later windows;
        # the bytes are those of resampling the finished canvas afterwards,
        # also when the two threads switch as often as possible
        out = tmp_path / "out"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run(["generate", "--config", DEMO, "--out", out]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert_frames_equal_serial_writes(out, tmp_path / "ref")

    def test_generate_main_thread_takes_back_last_frames(self, tmp_path,
                                                         monkeypatch):
        # the side thread stalls on the last window's first frame until the
        # main thread has taken back and written the frames after it
        write, released, on_main = cli._write_frame, threading.Event(), []

        def stalling(taps_job, faces, base):
            if threading.current_thread() is not threading.main_thread():
                if base.name == "frame_004":
                    assert released.wait(30.0)
                return write(taps_job, faces, base)
            write(taps_job, faces, base)
            on_main.append(base.name)
            if base.name == "frame_005":
                released.set()

        monkeypatch.setattr(cli, "_write_frame", stalling)
        out = tmp_path / "out"
        assert run(["generate", "--config", DEMO, "--out", out]) == 0
        assert {"frame_005", "frame_006", "frame_007"} <= set(on_main)
        assert_frames_equal_serial_writes(out, tmp_path / "ref")
        assert not side_threads()

    def test_generate_dry_run_allocates_nothing(self, tmp_path):
        cfg = small_cfg(tmp_path, resolution=960, equirect_width=3840,
                        pad=60, mode={"denoiser": "zero"})
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg, "--out", out, "--dry-run"]) == 0
        rep = json.loads((out / "dry_run.json").read_text())
        validate_artifact("dry_run", rep)
        assert rep["tokens"]["generation"] == 4 * (960 // 8) ** 2
        tok = rep["tokens"]
        layout = TokenLayout(num_generation=tok["generation"],
                             num_context=tok["max_context"])
        assert tok["sparse_peak_bytes_at_max_context"] == attention_peak_bytes(
            layout, BandedMaskSpec(bandwidth=tok["bandwidth"]), 64, 8)
        assert not list(out.glob("*.pfm"))

    def test_step_token_counts_within_dry_run(self, tmp_path):
        """Every step logs its tokens by kind; the dry-run's largest context
        is the run's."""
        assert run(["generate", "--config", DEMO, "--out", tmp_path / "run"]) == 0
        assert run(["generate", "--config", DEMO, "--out", tmp_path / "dry",
                    "--dry-run"]) == 0
        steps = json.loads((tmp_path / "run" / "run_report.json").read_text())["steps"]
        dry = json.loads((tmp_path / "dry" / "dry_run.json").read_text())["tokens"]
        per_frame = 64  # (64 / 8)^2 patches of a demo face frame
        for step in steps:
            tokens = step["tokens"]
            assert tokens["generation"] == dry["generation"]
            for kind in ("hist", "curr-gen", "curr-cond", "fut"):
                assert tokens[kind] == per_frame * sum(
                    src["e"] - src["s"] for src in step["sources"]
                    if src["kind"] == kind)
        contexts = [sum(step["tokens"].values()) - step["tokens"]["generation"]
                    for step in steps]
        assert 0 < max(contexts) == dry["max_context"]

    @pytest.mark.parametrize("variant", ["demo", "pfm", "n16-h1"])
    def test_dry_run_describes_the_run(self, tmp_path, variant):
        # the dry-run walks the run's own plan and contexts: its plan, its
        # largest context and its resident peak are the run's
        demo, cfg = json.loads(DEMO.read_text()), tmp_path / "cfg.json"
        if variant == "pfm":
            # the demo scene's frames and poses, read back from files
            frames_dir = tmp_path / "frames"
            frames_dir.mkdir()
            _, frames, poses = sc.synth_scene(parse_config(DEMO))
            for t, frame in enumerate(frames):
                write_pfm(frames_dir / f"input_{t:03d}.pfm", frame.pixels)
            write_poses(frames_dir / "poses.json", poses)
            demo.update(paths={"frames_dir": str(frames_dir),
                               "poses": str(frames_dir / "poses.json")},
                        mode={"teacher_forcing": False, "denoiser": "copy"})
        elif variant == "n16-h1":
            demo.update(num_frames=16, history=1)
        cfg.write_text(json.dumps(demo))
        assert run(["generate", "--config", cfg, "--out", tmp_path / "run"]) == 0
        assert run(["generate", "--dry-run", "--config", cfg,
                    "--out", tmp_path / "dry"]) == 0
        report = json.loads((tmp_path / "run" / "run_report.json").read_text())
        dry = json.loads((tmp_path / "dry" / "dry_run.json").read_text())
        validate_artifact("dry_run", dry)
        assert dry["plan"] == report["plan"]
        assert dry["tokens"]["max_context"] == max(
            sum(step["tokens"].values()) - step["tokens"]["generation"]
            for step in report["steps"])
        assert dry["peak_resident_bound"] == report["peak_resident"]
        assert dry["peak_working_set_bytes_bound"] == (
            report["peak_resident"] * dry["bytes_per_face_window_latent"])

    def test_dry_run_reads_no_pixel(self, tmp_path, monkeypatch):
        # the step log reads provenance only: no perspective frame is
        # rendered, no truth frame computed and no pixel projected
        def no_pixels(*args, **kwargs):
            raise AssertionError("the dry-run read a pixel")

        monkeypatch.setattr(sc.SyntheticScene, "perspective_frame", no_pixels)
        monkeypatch.setattr(sc.SyntheticScene, "cubemap_frame", no_pixels)
        monkeypatch.setattr(sc, "project_perspective_to_cubemap", no_pixels)
        out = tmp_path / "dry"
        assert run(["generate", "--dry-run", "--config", small_cfg(tmp_path),
                    "--out", out]) == 0
        validate_artifact("dry_run", json.loads((out / "dry_run.json").read_text()))

    def test_metrics_validates(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["metrics", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "metrics.json").read_text())
        validate_artifact("metrics", rep)
        assert len(rep["seam_per_frame"]) == 8
        assert 0.0 <= rep["coverage"]["overall_mean"] <= 1.0


class TestStreamedFrames:
    """``_write_frame`` resamples a frame a block of equirect rows at a time
    and writes each block into both files at its rows."""

    @staticmethod
    def taps_job(res: int, width: int) -> Future:
        job = Future()
        job.set_result(EquirectTaps.create(res, width))
        return job

    @pytest.mark.parametrize("channels", [1, 3])
    def test_blocks_write_the_whole_frame_bytes(self, tmp_path, channels):
        # W=1000: blocks of 32 rows, the last of the 500 rows holds 20
        res, width = 16, 1000
        job = self.taps_job(res, width)
        taps = job.result()
        assert len(list(taps.row_blocks(np.zeros((6, res, res, 1))))) == 16
        faces = np.random.default_rng(channels).uniform(-0.2, 1.2,
                                                        (6, res, res, channels))
        cli._write_frame(job, faces, tmp_path / "frame_000")
        frame = taps.apply(faces)
        write_pfm(tmp_path / "ref.pfm", frame)
        if channels == 3:
            write_ppm(tmp_path / "ref.ppm", np.clip(frame, 0, 1))
        else:
            write_pgm(tmp_path / "ref.pgm", np.clip(frame[..., 0], 0, 1))
        ext = "ppm" if channels == 3 else "pgm"
        for suffix in ("pfm", ext):
            assert ((tmp_path / f"frame_000.{suffix}").read_bytes()
                    == (tmp_path / f"ref.{suffix}").read_bytes()), suffix
        assert len(list(tmp_path.glob("frame_000.*"))) == 2

    def test_frame_write_holds_no_frame_sized_array(self, tmp_path):
        # beyond the faces padded by one pixel, which every block reads,
        # writing a frame peaks below half of one float64 frame
        res, width, channels = 256, 1024, 3
        job = self.taps_job(res, width)
        faces = np.random.default_rng(0).random((6, res, res, channels))
        padded = 6 * (res + 2) ** 2 * channels * 8
        frame = width // 2 * width * channels * 8
        tracemalloc.start()
        try:
            cli._write_frame(job, faces, tmp_path / "frame_000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - padded < frame / 2


    def test_frame_write_peaks_below_2_mib(self, tmp_path):
        # the faces are read as they are: no padded copy (9.6 MB here)
        res, width, channels = 256, 1024, 3
        job = self.taps_job(res, width)
        faces = np.random.default_rng(0).random((6, res, res, channels))
        tracemalloc.start()
        try:
            cli._write_frame(job, faces, tmp_path / "frame_000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

class TestDeterminism:
    @pytest.mark.parametrize("sub", ["plan", "project", "context", "metrics"])
    def test_byte_identical_artifacts(self, tmp_path, sub):
        cfg = small_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run([sub, "--config", cfg, "--out", out_a]) == 0
        assert run([sub, "--config", cfg, "--out", out_b]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_generate_deterministic_modulo_timings(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--config", cfg, "--out", out_a]) == 0
        assert run(["generate", "--config", cfg, "--out", out_b]) == 0
        for p in sorted(out_a.iterdir()):
            if p.name == "timings.json":
                continue
            assert p.read_bytes() == (out_b / p.name).read_bytes(), p.name

    def test_zero_denoiser_run_builds_no_truth(self, tmp_path, monkeypatch):
        # only the oracle and teacher forcing read the truth: a zero-denoiser
        # run that cannot build it writes the same artifacts
        cfg = small_cfg(tmp_path, mode={"teacher_forcing": False, "denoiser": "zero"})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--config", cfg, "--out", out_a]) == 0

        def no_truth(*args, **kwargs):
            raise AssertionError("generate computed a synthetic truth frame")

        monkeypatch.setattr(sc.SyntheticScene, "cubemap_frame", no_truth)
        assert run(["generate", "--config", cfg, "--out", out_b]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if name != "timings.json":
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["plan", "--config", cfg, "--out", out_a]) == 0
        assert run(["plan", "--config", cfg, "--out", out_b, "--seed", "99"]) == 0
        cov_a = (out_a / "coverage.json").read_bytes()
        cov_b = (out_b / "coverage.json").read_bytes()
        assert cov_a != cov_b  # different trajectory, different coverage


class TestPixelProjection:
    """A conditional frame's pixels are projected only when something reads
    them: in ``generate`` the oracle and zero denoisers read none and the
    copy denoiser each window once, dropping it before the next is read;
    ``project`` and ``metrics`` read one frame at a time."""

    def projections(self, monkeypatch, command, cfg, out) -> tuple[int, int]:
        """(pixel frames projected, most of them alive at once) in a run; a
        frame lives as long as the array that holds its pixels."""
        real = sc.project_perspective_to_cubemap
        count, alive, most = [0], set(), [0]

        def counting(*args, **kwargs):
            faces = real(*args, **kwargs)
            count[0] += 1
            alive.add(count[0])
            storage = faces if faces.base is None else faces.base
            weakref.finalize(storage, alive.discard, count[0])
            most[0] = max(most[0], len(alive))
            return faces

        monkeypatch.setattr(sc, "project_perspective_to_cubemap", counting)
        assert run([command, "--config", cfg, "--out", out]) == 0
        return count[0], most[0]

    @staticmethod
    def file_input_cfg(tmp_path, **overrides):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
        for t, frame in enumerate(frames):
            write_pfm(frames_dir / f"input_{t:03d}.pfm", frame.pixels)
        write_poses(frames_dir / "poses.json", poses)
        return small_cfg(tmp_path, paths={"frames_dir": str(frames_dir),
                                          "poses": str(frames_dir / "poses.json")},
                         **overrides)

    @pytest.mark.parametrize("mode", [
        {"teacher_forcing": True, "denoiser": "oracle"},
        {"teacher_forcing": False, "denoiser": "zero"}], ids=["oracle", "zero"])
    def test_no_pixel_read_projects_none(self, tmp_path, monkeypatch, mode):
        cfg = small_cfg(tmp_path, mode=mode)
        assert self.projections(monkeypatch, "generate", cfg, tmp_path / "o") == (0, 0)

    def test_copy_projects_each_frame_once(self, tmp_path, monkeypatch):
        cfg = self.file_input_cfg(
            tmp_path, mode={"teacher_forcing": False, "denoiser": "copy"})
        projected, most = self.projections(monkeypatch, "generate", cfg,
                                           tmp_path / "o")
        assert projected == 8  # N
        assert most <= 4  # T

    @pytest.mark.parametrize("mode,renders", [
        ({"teacher_forcing": True, "denoiser": "oracle"}, 0),
        ({"teacher_forcing": False, "denoiser": "oracle"}, 0),
        ({"teacher_forcing": False, "denoiser": "zero"}, 0),
        ({"teacher_forcing": False, "denoiser": "copy"}, 8)],
        ids=["oracle-teacher", "oracle", "zero", "copy"])
    def test_synthetic_frames_rendered_only_when_projected(
            self, tmp_path, monkeypatch, mode, renders):
        real = sc.SyntheticScene.perspective_frame
        count = [0]

        def counting(self, *args, **kwargs):
            count[0] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(sc.SyntheticScene, "perspective_frame", counting)
        cfg = small_cfg(tmp_path, mode=mode)
        assert run(["generate", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert count[0] == renders

    @pytest.mark.parametrize("command", ["project", "metrics"])
    def test_reads_one_frame_at_a_time(self, tmp_path, monkeypatch, command):
        cfg = self.file_input_cfg(tmp_path)
        assert self.projections(monkeypatch, command, cfg, tmp_path / "o") == (8, 1)


class TestTruthFrames:
    """A synthetic truth frame is computed only when something reads it: in
    ``generate`` no denoiser reads one, the oracle evaluating each plan
    step's padded face grid instead; ``metrics`` reads one frame at a
    time."""

    def computed(self, monkeypatch, command, cfg, out) -> tuple[int, int]:
        """(truth frames computed, most of them alive at once) in a run; a
        frame lives as long as the array that holds its pixels."""
        real = sc.SyntheticScene.cubemap_frame
        count, alive, most = [0], set(), [0]

        def counting(self, frame, out):
            real(self, frame, out)
            count[0] += 1
            alive.add(count[0])
            weakref.finalize(out if out.base is None else out.base,
                             alive.discard, count[0])
            most[0] = max(most[0], len(alive))

        monkeypatch.setattr(sc.SyntheticScene, "cubemap_frame", counting)
        assert run([command, "--config", cfg, "--out", out]) == 0
        return count[0], most[0]

    @pytest.mark.parametrize("teacher", [True, False])
    def test_oracle_computes_each_frame_once(self, tmp_path, monkeypatch, teacher):
        # each plan step's padded grid is evaluated once, frame by frame, and
        # dropped before the next step's; no cube frame is computed
        real = sc.SyntheticScene.padded_face_video
        steps, alive, most = [], set(), [0]

        def counting(self, resolution, pad, face, start, end):
            out = real(self, resolution, pad, face, start, end)
            steps.append((face, start, end))
            alive.add(len(steps))
            weakref.finalize(out, alive.discard, len(steps))
            most[0] = max(most[0], len(alive))
            return out

        monkeypatch.setattr(sc.SyntheticScene, "padded_face_video", counting)
        cfg = small_cfg(tmp_path, mode={"teacher_forcing": teacher,
                                        "denoiser": "oracle"})
        computed, _ = self.computed(monkeypatch, "generate", cfg, tmp_path / "o")
        assert computed == 0
        assert len(steps) == len(set(steps)) == 12  # 6 faces x 2 windows
        assert most[0] == 1

    def test_oracle_target_allocates_less_than_the_window(self):
        # one step's target is its padded face grid, evaluated a frame at a
        # time: the (T, 6, R, R, C) window of the truth never exists
        cfg = config_from_dict(dict(resolution=64, equirect_width=256,
                                    num_frames=8, window_length=4, pad=4))
        field = sc.synth_inputs(cfg)[0]
        denoiser = cli._make_denoiser(cfg, field, None)
        z = np.zeros((4, 72, 72, 3))
        steps = [ContextBundle(face=f, window=0, start=0, end=4,
                               hist=(), curr=(), fut=()) for f in ("F", "R")]
        denoiser(z, 1.0, steps[0])  # the direction stack and the pad map
        tracemalloc.start()
        try:
            denoiser(z, 1.0, steps[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window_bytes = 4 * 6 * 64 * 64 * 3 * 8  # 2.36 MB
        assert peak < window_bytes, (peak, window_bytes)

    @pytest.mark.parametrize("denoiser", ["zero", "copy"])
    def test_no_truth_read_computes_none(self, tmp_path, monkeypatch, denoiser):
        cfg = small_cfg(tmp_path, mode={"teacher_forcing": False,
                                        "denoiser": denoiser})
        assert self.computed(monkeypatch, "generate", cfg, tmp_path / "o") == (0, 0)

    def test_metrics_reads_one_frame_at_a_time(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        assert self.computed(monkeypatch, "metrics", cfg, tmp_path / "o") == (8, 1)


class TestErrorPaths:
    def test_invalid_config_yields_error_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_frames": 7}))
        code = run(["plan", "--config", path, "--out", tmp_path / "o"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        assert err["error"]["type"] == "ConfigError"
        assert "num_frames" in err["error"]["message"]

    def test_oracle_without_scene_rejected(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        cfg = small_cfg(tmp_path, paths={"frames_dir": str(frames), "poses": None})
        code = run(["generate", "--config", cfg, "--out", tmp_path / "o"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "paths" in err["error"]["message"]

    @pytest.mark.parametrize("bad,message", [
        ("nan-frame", "pixels must be finite"),
        ("out-of-range-frame", "pixels must lie in [0, 1]"),
        ("skewed-pose", "poses.json, pose 5: rotation is not orthonormal"),
    ], ids=["nan-frame", "out-of-range-frame", "skewed-pose"])
    def test_non_finite_input_frame_rejected_early(self, tmp_path, capsys,
                                                    bad, message):
        from cubegen import scene as sc

        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
        for t, frame in enumerate(frames):
            px = frame.pixels.copy()
            if t == 5 and bad == "nan-frame":
                px[1, 2, 0] = np.nan
            if t == 5 and bad == "out-of-range-frame":
                px[1, 2, 0] = 1.5
            write_pfm(frames_dir / f"input_{t:03d}.pfm", px)
        write_poses(frames_dir / "poses.json", poses)
        if bad == "skewed-pose":
            records = json.loads((frames_dir / "poses.json").read_text())
            records[5]["rotation"][1] += 0.25  # no longer orthonormal
            (frames_dir / "poses.json").write_text(json.dumps(records))
        cfg = small_cfg(tmp_path, paths={"frames_dir": str(frames_dir),
                                         "poses": str(frames_dir / "poses.json")},
                        mode={"teacher_forcing": False, "denoiser": "copy"})
        out = tmp_path / "o"
        code = run(["generate", "--config", cfg, "--out", out])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        # a bad pose is a bad input file: ConfigError, a ValueError
        assert err["error"]["type"] == ("ConfigError" if bad == "skewed-pose"
                                        else "ValueError")
        assert message in err["error"]["message"]
        assert not list(out.glob("frame_*.pfm"))

    def test_channel_mismatch_rejected_before_projection(self, tmp_path, capsys,
                                                         monkeypatch):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
        for t, frame in enumerate(frames):
            write_pfm(frames_dir / f"input_{t:03d}.pfm", frame.pixels)  # 3 channels
        write_poses(frames_dir / "poses.json", poses)

        def no_projection(*args, **kwargs):
            raise AssertionError("generate projected mismatched frames")

        monkeypatch.setattr(sc, "conditional_video", no_projection)
        cfg = small_cfg(tmp_path, channels=1,
                        paths={"frames_dir": str(frames_dir),
                               "poses": str(frames_dir / "poses.json")},
                        mode={"teacher_forcing": False, "denoiser": "copy"})
        out = tmp_path / "o"
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        assert err["error"]["type"] == "ConfigError"
        assert "'channels'" in err["error"]["message"]
        assert not list(out.iterdir())
        assert not side_threads()

    def test_16bit_ppm_input_rejected(self, tmp_path, capsys):
        # one 16-bit P6 among the inputs stops the run before any artifact
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
        for t, frame in enumerate(frames):
            write_ppm(frames_dir / f"input_{t:03d}.ppm", frame.pixels)
        h, w, _ = frames[3].pixels.shape
        (frames_dir / "input_003.ppm").write_bytes(
            f"P6\n{w} {h}\n65535\n".encode() + bytes(2 * w * h * 3))
        write_poses(frames_dir / "poses.json", poses)
        cfg = small_cfg(tmp_path, paths={"frames_dir": str(frames_dir),
                                         "poses": str(frames_dir / "poses.json")},
                        mode={"teacher_forcing": False, "denoiser": "copy"})
        out = tmp_path / "o"
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "ValueError",
                                   "input_003.ppm: maxval 65535 is outside 1..255")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("header", [b"P6\n4", b"P6\n# no newline",
                                        b"P6\n0 3\n255\n"],
                             ids=["cut-short", "open-comment", "zero-width"])
    def test_broken_ppm_header_rejected(self, tmp_path, capsys, header):
        frames_dir, cfg = self.file_input_cfg(tmp_path)
        (frames_dir / "input_005.pfm").unlink()
        (frames_dir / "input_005.ppm").write_bytes(header)
        out = tmp_path / "o"
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "ValueError", "input_005.ppm: P6 header")
        assert not list(out.iterdir())

    def file_input_cfg(self, tmp_path) -> tuple[Path, Path]:
        """The small scene written as PFM frames and ``poses.json``, and a
        copy-denoiser config that reads them."""
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
        for t, frame in enumerate(frames):
            write_pfm(frames_dir / f"input_{t:03d}.pfm", frame.pixels)
        write_poses(frames_dir / "poses.json", poses)
        return frames_dir, small_cfg(
            tmp_path, paths={"frames_dir": str(frames_dir),
                             "poses": str(frames_dir / "poses.json")},
            mode={"teacher_forcing": False, "denoiser": "copy"})

    def test_short_pfm_input_rejected(self, tmp_path, capsys):
        frames_dir, cfg = self.file_input_cfg(tmp_path)
        path = frames_dir / "input_002.pfm"
        path.write_bytes(path.read_bytes()[:-4])
        out = tmp_path / "o"
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "ValueError",
                                   "input_002.pfm: 383 floats of pixel data")
        assert not list(out.iterdir())

    def test_bad_pose_record_rejected(self, tmp_path, capsys):
        frames_dir, cfg = self.file_input_cfg(tmp_path)
        records = json.loads((frames_dir / "poses.json").read_text())
        del records[4]["vfov_deg"]
        (frames_dir / "poses.json").write_text(json.dumps(records))
        out = tmp_path / "o"
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "ConfigError",
                                   "poses.json, pose 4: field 'vfov_deg' is missing")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("mode,message", [
        ({"teacher_forcing": False, "denoiser": "oracle"},
         "mode.denoiser 'oracle' needs the synthetic scene"),
        ({"teacher_forcing": True, "denoiser": "copy"},
         "mode.teacher_forcing requires the synthetic scene"),
    ], ids=["oracle", "teacher-forcing"])
    def test_truth_on_file_input_rejected_before_reading(
            self, tmp_path, capsys, monkeypatch, mode, message):
        # only the synthetic scene has a truth: the config alone says so,
        # before any frame is read or any mask computed, and the dry-run
        # accepts only what the run accepts
        frames_dir, copy_cfg = self.file_input_cfg(tmp_path)
        calls = []
        for module, name in ((cli, "read_pfm"), (sc, "frustum_masks")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        assert run(["generate", "--config", copy_cfg, "--out", tmp_path / "copy"]) == 0
        assert {"read_pfm", "frustum_masks"} <= set(calls)
        calls.clear()
        cfg = small_cfg(tmp_path, paths={"frames_dir": str(frames_dir),
                                         "poses": str(frames_dir / "poses.json")},
                        mode=mode)
        for dry_run in ([], ["--dry-run"]):
            out = tmp_path / f"o{len(dry_run)}"
            assert run(["generate", *dry_run, "--config", cfg, "--out", out]) == 1
            self.assert_failed_cleanly(out, capsys, "ConfigError", message)
            assert not list(out.iterdir())
            assert calls == []

    def assert_failed_cleanly(self, out, capsys, error_type, message):
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        assert err["error"]["type"] == error_type
        assert message in err["error"]["message"]
        assert not list(out.glob("frame_*"))
        assert not (out / "run_report.json").exists()
        assert not list(out.glob(".staging-*"))
        assert not side_threads()

    def test_denoiser_failure_after_first_window_leaves_nothing(
            self, tmp_path, capsys, monkeypatch):
        make = cli._make_denoiser
        out = tmp_path / "o"

        def failing(*args):
            denoise, keys = make(*args), set()

            def wrapped(z_t, t, context):
                keys.add((context.face, context.start))
                if len(keys) == 7:
                    # window 1's frames reach the staging directory first
                    deadline = time.monotonic() + 30.0
                    while not list(out.glob(".staging-*/frame_003.ppm")):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    raise RuntimeError("denoiser failed at plan step 7")
                return denoise(z_t, t, context)

            return wrapped

        monkeypatch.setattr(cli, "_make_denoiser", failing)
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "RuntimeError", "plan step 7")

    def test_sigterm_after_first_window_leaves_nothing(
            self, tmp_path, capsys, monkeypatch):
        make = cli._make_denoiser
        out = tmp_path / "o"

        def terminated(*args):
            denoise, keys = make(*args), set()

            def wrapped(z_t, t, context):
                keys.add((context.face, context.start))
                if len(keys) == 7:
                    deadline = time.monotonic() + 30.0
                    while not list(out.glob(".staging-*/frame_003.ppm")):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    os.kill(os.getpid(), signal.SIGTERM)
                return denoise(z_t, t, context)

            return wrapped

        def outer(signum, frame):  # reached only if generate installs nothing
            raise RuntimeError("SIGTERM reached the previous handler")

        monkeypatch.setattr(cli, "_make_denoiser", terminated)
        original = signal.signal(signal.SIGTERM, outer)
        try:
            with pytest.raises(SystemExit) as exc:
                run(["generate", "--config", small_cfg(tmp_path), "--out", out])
            assert signal.getsignal(signal.SIGTERM) is outer
        finally:
            signal.signal(signal.SIGTERM, original)
        assert exc.value.code == 143
        assert capsys.readouterr().err == ""
        assert not list(out.glob("frame_*"))
        assert not (out / "run_report.json").exists()
        assert not list(out.glob(".staging-*"))
        assert not side_threads()

    def test_frame_write_failure_leaves_nothing(self, tmp_path, capsys,
                                                monkeypatch):
        def failing_write_pfm(path, pixels, *rows):
            if Path(path).name == "frame_001.pfm":
                raise OSError("disk full writing frame 1")
            write_pfm(path, pixels, *rows)

        monkeypatch.setattr(cli, "write_pfm", failing_write_pfm)
        out = tmp_path / "o"
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "OSError", "frame 1")

    def test_frame_write_failure_on_main_thread_leaves_nothing(
            self, tmp_path, capsys, monkeypatch):
        # the side thread stalls on the last window's first frame, so the
        # main thread takes back frame 7 first, and its write fails
        write, released = cli._write_frame, threading.Event()

        def failing_on_main(taps_job, faces, base):
            if threading.current_thread() is threading.main_thread():
                released.set()
                raise OSError(f"disk full writing {base.name}")
            if base.name == "frame_004":
                assert released.wait(30.0)
            write(taps_job, faces, base)

        monkeypatch.setattr(cli, "_write_frame", failing_on_main)
        out = tmp_path / "o"
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "OSError", "disk full writing frame_007")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("overrides,name", [
        ({"resolution": 16.0}, "resolution"),
        ({"equirect_width": 64.0}, "equirect_width"),
        ({"num_frames": 8.0}, "num_frames"),
        ({"window_length": 4.0}, "window_length"),
        ({"history": True}, "history"),
        ({"frag_length": "4"}, "frag_length"),
        ({"patch_size": 8.0}, "patch_size"),
        ({"bandwidth": 4.0}, "bandwidth"),
        ({"pad": 2.0}, "pad"),
        ({"sampler_steps": True}, "sampler_steps"),
        ({"seed": 7.5}, "seed"),
        ({"channels": 3.0}, "channels"),
        ({"scene": {"anchors": 2.0}}, "scene.anchors"),
        ({"frag_threshold": True}, "frag_threshold"),
        ({"scene": {"hfov_deg": "90"}}, "scene.hfov_deg"),
        ({"scene": {"vfov_deg": False}}, "scene.vfov_deg"),
        ({"mode": {"teacher_forcing": 1, "denoiser": "oracle"}},
         "mode.teacher_forcing"),
        ({"paths": {"frames_dir": 5, "poses": "poses.json"}}, "paths.frames_dir"),
        ({"paths": {"frames_dir": "frames", "poses": ["poses.json"]}}, "paths.poses"),
        # well typed, but out of the range the run can use
        ({"seed": -1}, "seed"),
        ({"channels": 2}, "channels"),
        ({"num_frames": 1, "window_length": 1}, "num_frames"),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, capsys, overrides, name):
        out = tmp_path / "o"
        out.mkdir()
        cfg = small_cfg(tmp_path, **overrides)
        assert run(["generate", "--config", cfg, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        assert err["error"]["type"] == "ConfigError"
        assert f"'{name}'" in err["error"]["message"]
        assert not list(out.iterdir())

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        # --seed overrides the config through the same check
        out = tmp_path / "o"
        out.mkdir()
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out,
                    "--seed", "-1"]) == 1
        err = json.loads(capsys.readouterr().err)
        validate_artifact("error", err)
        assert err["error"]["type"] == "ConfigError"
        assert "'seed'" in err["error"]["message"]
        assert not list(out.iterdir())

    def test_report_breaking_its_schema_leaves_nothing(self, tmp_path, capsys,
                                                       monkeypatch):
        def broken_report(*args, **kwargs):
            result = generate_all(*args, **kwargs)
            result.pool_trace[-1] = -1  # the schema's minimum is 0
            return result

        monkeypatch.setattr(cli, "generate_all", broken_report)
        out = tmp_path / "o"
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "ArtifactSchemaError",
                                   "run_report: $.pool_trace[11]: -1 is below 0")
        assert not list(out.iterdir())

    def test_schemas_are_valid_jsonschema(self):
        for name in ("plan", "coverage", "context", "run_report", "timings",
                     "metrics", "error", "dry_run"):
            jsonschema.Draft202012Validator.check_schema(load_schema(name))


def imported_by_cli(module: str) -> bool:
    code = f"import sys, cubegen.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          cwd=Path(__file__).resolve().parents[1] / "src")
    return proc.stdout.strip() == "True"


def test_mixed_file_input_read_in_name_order(tmp_path):
    # PPM and PFM frames in one directory: frame t is input_t, whatever
    # its kind, and takes pose t
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    _, frames, poses = sc.synth_scene(parse_config(small_cfg(tmp_path)))
    for t, frame in enumerate(frames):
        writer, suffix = (write_ppm, ".ppm") if t % 2 == 0 else (write_pfm, ".pfm")
        writer(frames_dir / f"input_{t:03d}{suffix}", frame.pixels)
    write_poses(frames_dir / "poses.json", poses)
    cfg = parse_config(small_cfg(
        tmp_path, paths={"frames_dir": str(frames_dir),
                         "poses": str(frames_dir / "poses.json")},
        mode={"teacher_forcing": False, "denoiser": "copy"}))
    _, loaded, loaded_poses = cli._load_inputs(cfg)
    for t, frame in enumerate(loaded):
        reader, suffix = (read_ppm, ".ppm") if t % 2 == 0 else (read_pfm, ".pfm")
        want = reader(frames_dir / f"input_{t:03d}{suffix}")
        assert np.array_equal(frame.pixels, want), t
        assert np.array_equal(loaded_poses[t].rotation, poses[t].rotation), t


def test_cli_import_leaves_scipy_out():
    assert not imported_by_cli("scipy")


def test_cli_import_leaves_thread_pool_out():
    # only generate starts the side thread; other subcommands skip the import
    assert not imported_by_cli("concurrent.futures")


def test_cli_import_leaves_jsonschema_out():
    # the artifact checker is cubegen's own; jsonschema is only its test reference
    assert not imported_by_cli("jsonschema")
