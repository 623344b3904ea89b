"""Command-line interface.

    cubegen <subcommand> --config <path> [--out <dir>] [--seed <n>]

Subcommands: project, plan, context, attend-bench, generate, metrics.
All artifacts are deterministic under a fixed config and seed, except the
declared wall-clock outputs: timings.json and the wall_ms columns of
bench.csv (pass --trials 0 to zero those columns).

generate runs one side thread next to the sampling loop, so the main
thread's critical path is the sampling loop itself.  In order, the side
thread builds the cube-face direction stack and the pad map while the main
thread loads the inputs; fills the synthetic truth and builds the
cube->equirect tap table while the main thread projects and plans; then,
during sampling, it draws each plan step's noise one step ahead
(``generate_all``'s ``executor``) and resamples and writes each window's
frames (handed over by ``on_window``) while the next window is sampled.  A
job still queued when the main thread needs it is taken back: the main
thread cancels it and does the same work itself.  So it draws a step's
noise queued behind frames, and after sampling it writes the last window's
unstarted frames, last first, into a buffer of its own while the side
thread writes from the first.  Every artifact is written into a
``.staging-*`` directory inside ``--out`` and moved into place only after the
last one is written, so a failed run, on either thread, leaves none behind;
so does a run stopped by SIGTERM, which ``generate`` turns into
``SystemExit(143)`` while it runs on the main thread.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .faces import FACES
from . import scene as scene_mod
from .artifacts import dump_json, validate_artifact, write_json_artifact
from .attention import (
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    attention_flops,
    attention_peak_bytes,
    dense_attention_flops,
    dense_masked_attention,
    mask_matrix,
    sparse_context_attention,
    tokens_per_frame,
)
from .config import ConfigError, RunConfig, parse_config
from .continuity import _pad_table, seam_metric
from .geometry import CubemapVideo, EquirectTaps, PerspectiveFrame, face_directions
from .imgio import (
    read_pfm,
    read_ppm,
    read_poses,
    write_mask_pgm,
    write_pfm,
    write_pgm,
    write_poses,
    write_ppm,
)
from .pipeline import (
    SamplerConfig,
    generate_all,
    padded_target_denoiser,
    simulate_contexts,
    zero_denoiser,
)
from .planner import frame_coverage, partition_windows, plan_order, window_coverage

SUBCOMMANDS = ("project", "plan", "context", "attend-bench", "generate", "metrics")

BENCH_CONTEXT_GRID = (64, 128, 256, 512, 1024, 2048, 4096)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        run_subcommand(args.subcommand, cfg, out_dir, args)
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        record = {"error": {"subcommand": args.subcommand,
                            "type": type(exc).__name__, "message": str(exc)}}
        validate_artifact("error", record)
        sys.stderr.write(dump_json(record))
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubegen",
        description="Cubemap spatio-temporal autoregressive 360-video toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "attend-bench":
            p.add_argument("--head-dim", type=int, default=32)
            p.add_argument("--trials", type=int, default=1,
                           help="wall-clock repetitions; 0 writes 0.000 (deterministic)")
        if name == "generate":
            p.add_argument("--dry-run", action="store_true",
                           help="report shapes/flops/memory without allocating frames")
    return parser


def run_subcommand(name: str, cfg: RunConfig, out_dir: Path, args) -> None:
    if name == "project":
        cmd_project(cfg, out_dir)
    elif name == "plan":
        cmd_plan(cfg, out_dir)
    elif name == "context":
        cmd_context(cfg, out_dir)
    elif name == "attend-bench":
        cmd_attend_bench(cfg, out_dir, head_dim=args.head_dim, trials=args.trials)
    elif name == "generate":
        cmd_generate(cfg, out_dir, dry_run=args.dry_run)
    elif name == "metrics":
        cmd_metrics(cfg, out_dir)
    else:
        raise ConfigError(f"unknown subcommand {name!r}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _load_inputs(cfg: RunConfig):
    """(scene field | None, perspective frames, poses).  Without input paths
    the deterministic synthetic scene supplies everything."""
    if cfg.paths.frames_dir is None and cfg.paths.poses is None:
        return scene_mod.synth_inputs(cfg)
    if cfg.paths.frames_dir is None or cfg.paths.poses is None:
        raise ConfigError("config fields 'paths.frames_dir' and 'paths.poses' "
                          "must be provided together")
    poses = read_poses(cfg.paths.poses)
    frame_dir = Path(cfg.paths.frames_dir)
    files = sorted(frame_dir.glob("*.pfm")) + sorted(frame_dir.glob("*.ppm"))
    if len(files) != cfg.num_frames:
        raise ConfigError(
            f"paths.frames_dir holds {len(files)} frames, config expects "
            f"{cfg.num_frames}")
    if len(poses) != cfg.num_frames:
        raise ConfigError(f"pose file holds {len(poses)} poses, config expects "
                          f"{cfg.num_frames}")
    frames = [PerspectiveFrame(read_pfm(f) if f.suffix == ".pfm" else read_ppm(f))
              for f in files]
    for path, frame in zip(files, frames):
        if frame.channels != cfg.channels:
            raise ConfigError(f"config field 'channels' is {cfg.channels}, but "
                              f"{path.name} has {frame.channels} channels")
    return None, frames, poses


def _truth(cfg: RunConfig, field) -> CubemapVideo | None:
    """The synthetic scene's ground-truth cubemap video, None for file input."""
    return None if field is None else field.cubemap_video(cfg.resolution,
                                                          cfg.num_frames)


def _coverage_tables(cfg: RunConfig, cond: CubemapVideo):
    fc = frame_coverage(cond.masks)
    wp = partition_windows(cfg.num_frames, cfg.window_length)
    ct = window_coverage(fc, wp)
    return fc, wp, ct


def _coverage_json(fc, ct) -> dict:
    return {
        "per_frame": {f: [float(v) for v in fc.values[i]]
                      for i, f in enumerate(FACES)},
        "per_window": {f: [float(v) for v in ct.values[i]]
                       for i, f in enumerate(FACES)},
    }


def _write_image(path_base: Path, pixels: np.ndarray) -> None:
    if pixels.shape[-1] == 3:
        write_ppm(path_base.with_suffix(".ppm"), pixels)
    else:
        write_pgm(path_base.with_suffix(".pgm"), pixels[..., 0])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_project(cfg: RunConfig, out_dir: Path) -> None:
    _, frames, poses = _load_inputs(cfg)
    cond = scene_mod.conditional_video(cfg.resolution, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    for i, f in enumerate(FACES):
        for t in range(cfg.num_frames):
            _write_image(out_dir / f"cond_{f}_{t:03d}", cond.pixels[t, i])
            write_mask_pgm(out_dir / f"mask_{f}_{t:03d}.pgm", cond.masks[t, i])
    taps = EquirectTaps.create(cfg.resolution, cfg.equirect_width)
    for t in range(cfg.num_frames):
        write_mask_pgm(out_dir / f"eq_mask_{t:03d}.pgm", taps.apply_mask(cond.masks[t]))
    write_poses(out_dir / "poses.json", poses)
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def cmd_plan(cfg: RunConfig, out_dir: Path) -> None:
    _, frames, poses = _load_inputs(cfg)
    cond = scene_mod.conditional_video(cfg.resolution, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    plan = plan_order(ct, wp)
    write_json_artifact(out_dir / "plan.json", "plan", plan.to_json_dict())
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def cmd_context(cfg: RunConfig, out_dir: Path) -> None:
    """The generation loop's step log, tokens left out; it does not depend
    on content, so no truth is built."""
    _, frames, poses = _load_inputs(cfg)
    cond = scene_mod.conditional_video(cfg.resolution, frames, poses)
    _, wp, ct = _coverage_tables(cfg, cond)
    entries = simulate_contexts(cond, plan_order(ct, wp),
                                history_capacity=cfg.history,
                                frag_length=cfg.frag_length,
                                frag_threshold=cfg.frag_threshold,
                                patch_size=cfg.patch_size)
    steps = [{k: v for k, v in e.items() if k != "tokens"} for e in entries]
    write_json_artifact(out_dir / "context.json", "context", {"steps": steps})


def cmd_attend_bench(cfg: RunConfig, out_dir: Path, head_dim: int = 32,
                     trials: int = 1) -> None:
    g = cfg.window_length * tokens_per_frame(cfg.resolution, cfg.patch_size)
    kb = cfg.bandwidth
    spec = BandedMaskSpec(bandwidth=kb)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for c in BENCH_CONTEXT_GRID:
        layout = TokenLayout(num_generation=g, num_context=c)
        fl_sparse = attention_flops(layout, spec, head_dim)
        fl_dense = dense_attention_flops(layout, head_dim)
        if trials > 0:
            shape = (1, g + c, head_dim)
            inp = AttentionInputs(
                queries=rng.normal(size=shape).astype(np.float32),
                keys=rng.normal(size=shape).astype(np.float32),
                values=rng.normal(size=shape).astype(np.float32))
            ms_sparse = _best_ms(
                lambda: sparse_context_attention(inp, layout, spec), trials)
            mask = mask_matrix(layout, spec)
            ms_dense = _best_ms(
                lambda: dense_masked_attention(inp, mask), trials)
        else:
            ms_sparse = ms_dense = 0.0
        rows.append((g, c, kb, head_dim, fl_sparse, fl_dense, ms_sparse, ms_dense))
    lines = ["G,C,K,d,flops_sparse,flops_dense,wall_ms_sparse,wall_ms_dense"]
    lines += [f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]},{r[6]:.3f},{r[7]:.3f}"
              for r in rows]
    (out_dir / "bench.csv").write_text("\n".join(lines) + "\n")


def _best_ms(fn, trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best


def _make_denoiser(cfg: RunConfig, truth, cond):
    if cfg.mode.denoiser == "oracle":
        if truth is None:
            raise ConfigError("mode.denoiser 'oracle' needs the synthetic scene "
                              "(ground truth); unset paths.frames_dir/poses")
        return padded_target_denoiser(truth, cfg.pad)
    if cfg.mode.denoiser == "copy":
        return padded_target_denoiser(cond, cfg.pad)
    return zero_denoiser


def cmd_generate(cfg: RunConfig, out_dir: Path, dry_run: bool = False) -> None:
    with _sigterm_as_exit(), _staged(out_dir) as stage:
        if dry_run:
            _write_dry_run(cfg, stage)
        else:
            _generate(cfg, stage)


@contextmanager
def _sigterm_as_exit():
    """On the main thread, turn SIGTERM into ``SystemExit(143)`` until the
    block exits, then restore the previous handler.  The exit unwinds like
    any failure: side jobs are cancelled and the staging directory removed.
    SIGKILL cannot be caught, so a killed run still leaves its staging
    directory behind."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield  # signal handlers can only be installed on the main thread
        return

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextmanager
def _staged(out_dir: Path):
    """A fresh staging directory inside ``out_dir``.  On a clean exit every
    file written there moves into ``out_dir``; the directory is removed
    either way, so a failed run leaves no artifact behind."""
    stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))
    try:
        yield stage
        for path in sorted(stage.iterdir()):
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _generate(cfg: RunConfig, out_dir: Path) -> None:
    """Sample the video and write its artifacts into ``out_dir``, with the
    truth, the tap table, the noise and the frames on one side thread (see
    above)."""
    # Imported here, not at module level: only this function starts a thread,
    # and the import adds about 8 ms to every subcommand's start-up.
    from concurrent.futures import ThreadPoolExecutor

    marks = [time.perf_counter()]  # stage boundaries, see ``stages`` below
    side = ThreadPoolExecutor(max_workers=1)
    try:
        # Both threads read the cached direction stack, and the first plan
        # step the pad map: the side thread builds them while inputs load.
        dirs_job = side.submit(face_directions, cfg.resolution)
        side.submit(_pad_table, cfg.resolution, cfg.pad)
        field, frames, poses = _load_inputs(cfg)
        marks.append(time.perf_counter())
        if cfg.mode.teacher_forcing and field is None:
            raise ConfigError("mode.teacher_forcing requires the synthetic scene")
        dirs_job.result()
        truth_job = side.submit(_truth, cfg, field)
        taps_job = side.submit(EquirectTaps.create, cfg.resolution,
                               cfg.equirect_width)
        cond = scene_mod.conditional_video(cfg.resolution, frames, poses)
        fc, wp, ct = _coverage_tables(cfg, cond)
        plan = plan_order(ct, wp)
        truth = truth_job.result()
        marks.append(time.perf_counter())

        # One frame buffer, reused by the one side thread frame after frame.
        frame_buf = np.empty((cfg.equirect_width // 2, cfg.equirect_width,
                              cfg.channels))
        jobs = []

        def on_window(start: int, end: int, window: np.ndarray) -> None:
            _raise_failed(job for job, _ in jobs)
            for k in range(end - start):
                frame = (window[k], out_dir / f"frame_{start + k:03d}")
                jobs.append((side.submit(_write_frame, taps_job, frame_buf, *frame),
                             frame))

        result = generate_all(
            cond, plan, _make_denoiser(cfg, truth, cond),
            SamplerConfig(steps=cfg.sampler_steps, seed=cfg.seed),
            pad=cfg.pad, history_capacity=cfg.history,
            frag_length=cfg.frag_length, frag_threshold=cfg.frag_threshold,
            patch_size=cfg.patch_size,
            teacher=truth if cfg.mode.teacher_forcing else None,
            on_window=on_window, executor=side)
        marks.append(time.perf_counter())

        # The report is built while the side thread writes the last window.
        report = {
            "config": cfg.to_json_dict(),
            "plan": plan.to_json_dict()["steps"],
            "pool_trace": result.pool_trace,
            "resident_trace": result.resident_trace,
            "peak_resident": result.peak_resident,
            "seam_per_frame": _seam_per_frame(result.canvas),
            "steps": result.step_log,
        }
        write_json_artifact(out_dir / "run_report.json", "run_report", report)
        # Take back the frame jobs the side thread has not started, last
        # first, and write them here into a buffer of this thread's own;
        # the first job already running or done ends the walk.
        own_buf = None
        for job, frame in reversed(jobs):
            if not job.cancel():
                break
            if own_buf is None:
                own_buf = np.empty_like(frame_buf)
            _write_frame(taps_job, own_buf, *frame)
        for job, _ in jobs:
            if not job.cancelled():
                job.result()
        marks.append(time.perf_counter())
    finally:
        side.shutdown(cancel_futures=True)
    stages = ("inputs", "conditional", "sampling", "output")
    write_json_artifact(out_dir / "timings.json", "timings", {
        "stage_seconds": {k: b - a for k, a, b in zip(stages, marks, marks[1:])},
        "step_seconds": result.step_timings,
        "total_seconds": time.perf_counter() - marks[0],
    })


def _raise_failed(jobs) -> None:
    """Re-raise the exception of the first finished side-thread job that
    failed, so a failed write stops the run at the next window."""
    for job in jobs:
        if job.done():
            job.result()


def _write_frame(taps_job, buf: np.ndarray, faces: np.ndarray, base: Path) -> None:
    frame = taps_job.result().apply(faces, out=buf)
    write_pfm(base.with_suffix(".pfm"), frame)
    _write_image(base, frame)


def _seam_per_frame(video: np.ndarray) -> list[float]:
    """Seam metric of each frame of an (N, 6, R, R, C) cube video."""
    return [seam_metric(faces) for faces in video]


def _write_dry_run(cfg: RunConfig, out_dir: Path) -> None:
    """Shape-only accounting for paper-scale geometry; no pixel buffers."""
    wp = partition_windows(cfg.num_frames, cfg.window_length)
    steps = [{"face": f, "s": s, "e": e}
             for s, e in wp.windows for f in FACES]
    per_frame = tokens_per_frame(cfg.resolution, cfg.patch_size)
    g = cfg.window_length * per_frame
    # worst case: H full windows (6 faces), 6 current sources, 5 fragments
    max_context = (6 * cfg.history * cfg.window_length + 6 * cfg.window_length
                   + 5 * cfg.frag_length) * per_frame
    layout = TokenLayout(num_generation=g, num_context=max_context)
    band = BandedMaskSpec(bandwidth=cfg.bandwidth)
    bytes_per_latent = (cfg.window_length
                        * (cfg.resolution + 2 * cfg.pad) ** 2 * cfg.channels * 8)
    peak_bound = 6 * (cfg.history + 1) + 5
    report = {
        "config": cfg.to_json_dict(),
        "plan": steps,
        "tokens": {
            "generation": g,
            "max_context": max_context,
            "bandwidth": cfg.bandwidth,
            "sparse_flops_at_max_context": attention_flops(layout, band, 64),
            "sparse_peak_bytes_at_max_context": attention_peak_bytes(
                layout, band, 64, 8),
        },
        "bytes_per_face_window_latent": bytes_per_latent,
        "peak_resident_bound": peak_bound,
        "peak_working_set_bytes_bound": peak_bound * bytes_per_latent,
    }
    write_json_artifact(out_dir / "dry_run.json", "dry_run", report)


def cmd_metrics(cfg: RunConfig, out_dir: Path) -> None:
    field, frames, poses = _load_inputs(cfg)
    truth = _truth(cfg, field)
    cond = scene_mod.conditional_video(cfg.resolution, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    source = truth if truth is not None else cond
    report = {
        "seam_per_frame": _seam_per_frame(source.pixels),
        "coverage": {
            "per_face_mean": {f: float(fc.values[i].mean())
                              for i, f in enumerate(FACES)},
            "per_window": {f: [float(v) for v in ct.values[i]]
                           for i, f in enumerate(FACES)},
            "overall_mean": float(fc.values.mean()),
        },
    }
    write_json_artifact(out_dir / "metrics.json", "metrics", report)


if __name__ == "__main__":
    sys.exit(main())
