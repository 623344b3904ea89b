"""Command-line interface.

    cubegen <subcommand> --config <path> [--out <dir>] [--seed <n>]

Subcommands: project, plan, context, attend-bench, generate, metrics.
All artifacts are deterministic under a fixed config and seed, except the
declared wall-clock outputs: timings.json and the wall_ms columns of
bench.csv (pass --trials 0 to zero those columns).

generate runs one side thread next to the sampling loop, so the main
thread's critical path is the sampling loop itself.  In order, the side
thread builds the cube-face direction stack and the pad map while the main
thread loads the inputs; builds the cube->equirect tap table while the main
thread takes each frame's coverage from its frustum test and plans; then,
during sampling, it draws each plan step's noise one step ahead
(``generate_all``'s ``executor``) and resamples and writes each window's
frames (handed over by ``on_window``, which also takes each frame's seam
metric) while the next window is sampled, holding a frame's faces only
until it has written them.  The oracle evaluates the synthetic scene on
each plan step's padded face grid, so no denoiser reads a truth frame.  The
synthetic perspective frames are rendered only when the conditional
projects them, which the copy denoiser does once per frame and the oracle
and zero denoisers never; a projection runs its frame's frustum test again,
so no subcommand holds every frame's masks.  A job still queued when the
main thread needs it is taken back: the main thread cancels it and does the
same work itself.  So it draws a step's noise queued behind frames, and
after sampling it writes the last window's unstarted frames, last first,
while the side thread writes from the first.  Either thread resamples a
frame a block of equirect rows at a time, straight from its six faces, and
writes each block into the frame's PFM and 8-bit image at its rows, so no
frame-sized array, and no copy of the faces, exists on the output path.
Every artifact is written into a ``.staging-*`` directory inside ``--out``
and moved into place only after the last one is written, so a failed run,
on either thread, leaves none behind; so does a run stopped by SIGTERM,
which ``generate`` turns into ``SystemExit(143)`` while it runs on the main
thread.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from functools import partial
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
from .geometry import EquirectTaps, PerspectiveFrame, face_directions, frustum_masks
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
    generate_all,
    padded_target_denoiser,
    simulate_contexts,
    target_denoiser,
    zero_denoiser,
)
from .planner import plan_order, plan_steps, window_coverage

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
                           help="report the run's plan and peaks without sampling")
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
    """(scene | None, perspective frames, poses).  Without input paths the
    deterministic synthetic scene supplies everything: its field, the
    ground truth, and its perspective frames, rendered when read."""
    if not _file_input(cfg):
        return scene_mod.synth_inputs(cfg)
    poses = read_poses(cfg.paths.poses)
    frame_dir = Path(cfg.paths.frames_dir)
    files = sorted([*frame_dir.glob("*.pfm"), *frame_dir.glob("*.ppm")])
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


def _file_input(cfg: RunConfig) -> bool:
    """Whether the run reads its frames and poses from files; only without
    both is there a synthetic scene, and so a ground truth."""
    if cfg.paths.frames_dir is None and cfg.paths.poses is None:
        return False
    if cfg.paths.frames_dir is None or cfg.paths.poses is None:
        raise ConfigError("config fields 'paths.frames_dir' and 'paths.poses' "
                          "must be provided together")
    return True


def _check_truth_source(cfg: RunConfig) -> None:
    """Only the synthetic scene has a truth: reject file input that needs
    one from the config, before any frame is read."""
    if _file_input(cfg):
        if cfg.mode.teacher_forcing:
            raise ConfigError("mode.teacher_forcing requires the synthetic scene")
        if cfg.mode.denoiser == "oracle":
            raise ConfigError("mode.denoiser 'oracle' needs the synthetic scene "
                              "(ground truth); unset paths.frames_dir/poses")


def _prologue(cfg: RunConfig):
    """(scene | None, poses, conditional, (6, N) frame and (6, L) window
    coverage); ``_generate`` runs these steps between side jobs."""
    field, frames, poses = _load_inputs(cfg)
    fc, cond = scene_mod.conditional_video(cfg.resolution, frames, poses,
                                           cfg.channels)
    return field, poses, cond, fc, window_coverage(fc, cfg.window_length)


def _step_log(cfg: RunConfig):
    """The planner's (L, 6) order and the generation loop's step log over
    it; the log reads no content, so no truth or pixel frame is computed."""
    _, _, cond, fc, ct = _prologue(cfg)
    order = plan_order(ct)
    return order, simulate_contexts(
        cond, fc, order, history_capacity=cfg.history, frag_length=cfg.frag_length,
        frag_threshold=cfg.frag_threshold, patch_size=cfg.patch_size)


def _coverage_json(fc: np.ndarray, ct: np.ndarray) -> dict:
    return {
        "per_frame": {f: [float(v) for v in fc[i]] for i, f in enumerate(FACES)},
        "per_window": {f: [float(v) for v in ct[i]] for i, f in enumerate(FACES)},
    }


def _write_image(path_base: Path, pixels: np.ndarray, top: int = 0,
                 height: int | None = None) -> None:
    """8-bit PPM or PGM of (H, W, 3) or (H, W, 1) pixels; given ``height``,
    rows [top, top + H) of an image that tall."""
    if pixels.shape[-1] == 3:
        write_ppm(path_base.with_suffix(".ppm"), pixels, top, height)
    else:
        write_pgm(path_base.with_suffix(".pgm"), pixels[..., 0], top, height)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_project(cfg: RunConfig, out_dir: Path) -> None:
    _, poses, cond, fc, ct = _prologue(cfg)
    taps = EquirectTaps.create(cfg.resolution, cfg.equirect_width)
    for t, pose in enumerate(poses):
        masks = frustum_masks(pose, cfg.resolution)
        _write_cond_frame(out_dir, t, cond[t:t + 1][0], masks)
        write_mask_pgm(out_dir / f"eq_mask_{t:03d}.pgm", taps.apply_mask(masks))
    write_poses(out_dir / "poses.json", poses)
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def _write_cond_frame(out_dir: Path, t: int, faces: np.ndarray,
                      masks: np.ndarray) -> None:
    """Write frame ``t``'s six conditional faces and masks; its pixels are
    freed when this returns, so one frame is held at a time."""
    for i, f in enumerate(FACES):
        _write_image(out_dir / f"cond_{f}_{t:03d}", faces[i])
        write_mask_pgm(out_dir / f"mask_{f}_{t:03d}.pgm", masks[i])


def cmd_plan(cfg: RunConfig, out_dir: Path) -> None:
    _, _, _, fc, ct = _prologue(cfg)
    write_json_artifact(out_dir / "plan.json", "plan",
                        {"steps": plan_steps(plan_order(ct), cfg.window_length)})
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def cmd_context(cfg: RunConfig, out_dir: Path) -> None:
    """The generation loop's step log, tokens left out."""
    _, entries = _step_log(cfg)
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
    """Best of ``trials`` timed calls, after one untimed call that pays the
    first-call costs (page faults, BLAS set-up) no later call pays."""
    fn()
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best


def _make_denoiser(cfg: RunConfig, field, cond):
    if cfg.mode.denoiser == "oracle":
        return target_denoiser(partial(field.padded_face_video,
                                       cfg.resolution, cfg.pad))
    if cfg.mode.denoiser == "copy":
        return padded_target_denoiser(cond, cfg.pad)
    return zero_denoiser


def cmd_generate(cfg: RunConfig, out_dir: Path, dry_run: bool = False) -> None:
    _check_truth_source(cfg)
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
    tap table, the noise and the frames on one side thread (see above)."""
    # Imported here, not at module level: only this function starts a thread,
    # and the import adds about 8 ms to every subcommand's start-up.
    from concurrent.futures import ThreadPoolExecutor

    marks = [time.perf_counter()]  # stage boundaries, see ``stages`` below
    side = ThreadPoolExecutor(max_workers=1)
    try:
        # The side thread builds the direction stack, which the frustum
        # tests read, and the pad map, which the first plan step reads,
        # while inputs load.  Building the stack on the main thread instead
        # made oracle-r256 slower in 4 of 4 pairs: median op_s 0.82 -> 0.98 s.
        dirs_job = side.submit(face_directions, cfg.resolution)
        side.submit(_pad_table, cfg.resolution, cfg.pad)
        field, frames, poses = _load_inputs(cfg)
        marks.append(time.perf_counter())
        dirs_job.result()
        taps_job = side.submit(EquirectTaps.create, cfg.resolution,
                               cfg.equirect_width)
        fc, cond = scene_mod.conditional_video(cfg.resolution, frames, poses,
                                               cfg.channels)
        order = plan_order(window_coverage(fc, cfg.window_length))
        marks.append(time.perf_counter())

        # jobs[t] writes frame t; ``unwritten`` holds its faces until then
        jobs, unwritten, seams = [], {}, []

        def write(t: int) -> None:
            _write_frame(taps_job, unwritten.pop(t), out_dir / f"frame_{t:03d}")

        def on_window(start: int, end: int, frames) -> None:
            _raise_failed(jobs)
            for t, faces in enumerate(frames, start):
                unwritten[t] = faces
                jobs.append(side.submit(write, t))
            seams.extend(seam_metric(faces) for faces in frames)

        result = generate_all(
            cond, fc, order, _make_denoiser(cfg, field, cond),
            steps=cfg.sampler_steps, seed=cfg.seed,
            pad=cfg.pad, history_capacity=cfg.history,
            frag_length=cfg.frag_length, frag_threshold=cfg.frag_threshold,
            patch_size=cfg.patch_size,
            teacher=(field.cubemap_video(cfg.resolution, cfg.num_frames)
                     if cfg.mode.teacher_forcing else None),
            on_window=on_window, executor=side)
        marks.append(time.perf_counter())

        # The report is built while the side thread writes the last window.
        report = {
            "config": cfg.to_json_dict(),
            "plan": plan_steps(order, cfg.window_length),
            "pool_trace": result.pool_trace,
            "resident_trace": result.resident_trace,
            "peak_resident": result.peak_resident,
            "seam_per_frame": seams,
            "steps": result.step_log,
        }
        write_json_artifact(out_dir / "run_report.json", "run_report", report)
        # Take back the frame jobs the side thread has not started, last
        # first, and write them here; the first job already running or done
        # ends the walk.
        for t in reversed(range(len(jobs))):
            if not jobs[t].cancel():
                break
            write(t)
        for job in jobs:
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


def _write_frame(taps_job, faces: np.ndarray, base: Path) -> None:
    """Resample the (6, R, R, C) faces onto the equirect grid a block of rows
    at a time, and write each block into the frame's PFM and 8-bit image at
    its rows, so no frame-sized array and no copy of the faces exists."""
    taps = taps_job.result()
    height = taps.width // 2
    for top, rows in taps.row_blocks(faces):
        write_pfm(base.with_suffix(".pfm"), rows, top, height)
        _write_image(base, rows, top, height)


def _seam_per_frame(video) -> list[float]:
    """Seam metric of each frame of an (N, 6, R, R, C) cube video, an array
    or a ``CubemapVideo``, read one frame at a time."""
    return [seam_metric(video[t:t + 1][0]) for t in range(video.shape[0])]


def _write_dry_run(cfg: RunConfig, out_dir: Path) -> None:
    """The run's plan, largest context and resident peak, off the step log
    ``context`` writes, and the attention's FLOPs and bytes at that context;
    the bytes count the peak step's latents, not the process's memory."""
    order, entries = _step_log(cfg)
    g = cfg.window_length * tokens_per_frame(cfg.resolution, cfg.patch_size)
    max_context = max(sum(e["tokens"].values()) - e["tokens"]["generation"]
                      for e in entries)
    layout = TokenLayout(num_generation=g, num_context=max_context)
    band = BandedMaskSpec(bandwidth=cfg.bandwidth)
    bytes_per_latent = (cfg.window_length
                        * (cfg.resolution + 2 * cfg.pad) ** 2 * cfg.channels * 8)
    peak = max(e["resident_latents"] for e in entries)
    report = {
        "config": cfg.to_json_dict(),
        "plan": plan_steps(order, cfg.window_length),
        "tokens": {
            "generation": g,
            "max_context": max_context,
            "bandwidth": cfg.bandwidth,
            "sparse_flops_at_max_context": attention_flops(layout, band, 64),
            "sparse_peak_bytes_at_max_context": attention_peak_bytes(
                layout, band, 64, 8),
        },
        "bytes_per_face_window_latent": bytes_per_latent,
        "peak_resident_bound": peak,
        "peak_working_set_bytes_bound": peak * bytes_per_latent,
    }
    write_json_artifact(out_dir / "dry_run.json", "dry_run", report)


def cmd_metrics(cfg: RunConfig, out_dir: Path) -> None:
    """Input statistics: the truth's (or conditional's) seams and coverage."""
    field, _, cond, fc, ct = _prologue(cfg)
    video = cond if field is None else field.cubemap_video(cfg.resolution,
                                                           cfg.num_frames)
    report = {
        "seam_per_frame": _seam_per_frame(video),
        "coverage": {
            "per_face_mean": {f: float(fc[i].mean()) for i, f in enumerate(FACES)},
            "per_window": {f: [float(v) for v in ct[i]] for i, f in enumerate(FACES)},
            "overall_mean": float(fc.mean()),
        },
    }
    write_json_artifact(out_dir / "metrics.json", "metrics", report)


if __name__ == "__main__":
    sys.exit(main())
