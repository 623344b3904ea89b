"""End-to-end CLI tests: artifacts, schemas, determinism, and error paths."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cubegen import artifacts, cli
from cubegen import scene as sc
from cubegen.artifacts import load_schema
from cubegen.attention import BandedMaskSpec, TokenLayout, attention_peak_bytes
from cubegen.config import default_config, parse_config
from cubegen.geometry import EquirectTaps
from cubegen.imgio import read_pfm, read_mask_pgm, write_pfm, write_poses, write_ppm
from cubegen.pipeline import SamplerConfig, generate_all
from cubegen.planner import plan_order

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
    truth, frames, poses = sc.synth_scene(cfg)
    cond = sc.conditional_video(cfg.resolution, frames, poses)
    _, wp, ct = cli._coverage_tables(cfg, cond)
    result = generate_all(
        cond, plan_order(ct, wp), cli._make_denoiser(cfg, truth, cond),
        SamplerConfig(steps=cfg.sampler_steps, seed=cfg.seed),
        pad=cfg.pad, history_capacity=cfg.history,
        frag_length=cfg.frag_length, frag_threshold=cfg.frag_threshold,
        teacher=truth if cfg.mode.teacher_forcing else None)
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
        mask = read_mask_pgm(masks[0])
        assert mask.shape == (16, 16)
        assert read_mask_pgm(eq_masks[0]).shape == (32, 64)
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

    def test_context_never_builds_truth(self, tmp_path, monkeypatch):
        def no_truth(*args, **kwargs):
            raise AssertionError("context built the synthetic truth")

        monkeypatch.setattr(sc.SyntheticScene, "cubemap_video", no_truth)
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

    def test_generate_reproduces_scene(self, tmp_path):
        cfg_path = small_cfg(tmp_path, resolution=32, equirect_width=128, pad=2)
        out = tmp_path / "out"
        assert run(["generate", "--config", cfg_path, "--out", out]) == 0
        report = json.loads((out / "run_report.json").read_text())
        validate_artifact("run_report", report)
        assert max(report["pool_trace"]) <= 2
        # oracle + teacher forcing: output frames match the analytic scene
        from cubegen import scene as sc
        cfg = default_config(resolution=32, equirect_width=128, num_frames=8,
                             window_length=4, pad=2, seed=3,
                             mode={"teacher_forcing": True, "denoiser": "oracle"})
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

        def stalling(taps_job, buf, faces, base):
            if threading.current_thread() is not threading.main_thread():
                if base.name == "frame_004":
                    assert released.wait(30.0)
                return write(taps_job, buf, faces, base)
            write(taps_job, buf, faces, base)
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
        """Every step logs its tokens by kind; the dry-run's figures hold."""
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
        assert 0 < max(contexts) <= dry["max_context"]

    def test_metrics_validates(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(["metrics", "--config", cfg, "--out", out]) == 0
        rep = json.loads((out / "metrics.json").read_text())
        validate_artifact("metrics", rep)
        assert len(rep["seam_per_frame"]) == 8
        assert 0.0 <= rep["coverage"]["overall_mean"] <= 1.0


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

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["plan", "--config", cfg, "--out", out_a]) == 0
        assert run(["plan", "--config", cfg, "--out", out_b, "--seed", "99"]) == 0
        cov_a = (out_a / "coverage.json").read_bytes()
        cov_b = (out_b / "coverage.json").read_bytes()
        assert cov_a != cov_b  # different trajectory, different coverage


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
        ("skewed-pose", "rotation is not orthonormal"),
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
        assert err["error"]["type"] == "ValueError"
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
        def failing_write_pfm(path, pixels):
            if Path(path).name == "frame_001.pfm":
                raise OSError("disk full writing frame 1")
            write_pfm(path, pixels)

        monkeypatch.setattr(cli, "write_pfm", failing_write_pfm)
        out = tmp_path / "o"
        assert run(["generate", "--config", small_cfg(tmp_path), "--out", out]) == 1
        self.assert_failed_cleanly(out, capsys, "OSError", "frame 1")

    def test_frame_write_failure_on_main_thread_leaves_nothing(
            self, tmp_path, capsys, monkeypatch):
        # the side thread stalls on the last window's first frame, so the
        # main thread takes back frame 7 first, and its write fails
        write, released = cli._write_frame, threading.Event()

        def failing_on_main(taps_job, buf, faces, base):
            if threading.current_thread() is threading.main_thread():
                released.set()
                raise OSError(f"disk full writing {base.name}")
            if base.name == "frame_004":
                assert released.wait(30.0)
            write(taps_job, buf, faces, base)

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


def test_cli_import_leaves_scipy_out():
    assert not imported_by_cli("scipy")


def test_cli_import_leaves_thread_pool_out():
    # only generate starts the side thread; other subcommands skip the import
    assert not imported_by_cli("concurrent.futures")


def test_cli_import_leaves_jsonschema_out():
    # the artifact checker is cubegen's own; jsonschema is only its test reference
    assert not imported_by_cli("jsonschema")
