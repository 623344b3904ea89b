"""Command-line interface.

    cubegen <subcommand> --config <path> [--out <dir>] [--seed <n>]

Subcommands: project, plan, context, attend-bench, generate, metrics.
All artifacts are deterministic under a fixed config and seed, except the
declared wall-clock outputs: timings.json and the wall_ms columns of
bench.csv (pass --trials 0 to zero those columns).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .faces import FACES
from . import scene as scene_mod
from .artifacts import dump_json, validate_artifact, write_json_artifact
from .attention import (
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
from .continuity import CubeLayout, seam_metric
from .geometry import CubemapVideo
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
    init_state,
    make_copy_denoiser,
    make_scene_oracle_denoiser,
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


def run_subcommand(name: str, cfg: RunConfig, out_dir: Path, args=None) -> None:
    if name == "project":
        cmd_project(cfg, out_dir)
    elif name == "plan":
        cmd_plan(cfg, out_dir)
    elif name == "context":
        cmd_context(cfg, out_dir)
    elif name == "attend-bench":
        head_dim = getattr(args, "head_dim", 32) if args else 32
        trials = getattr(args, "trials", 1) if args else 1
        cmd_attend_bench(cfg, out_dir, head_dim=head_dim, trials=trials)
    elif name == "generate":
        dry = bool(getattr(args, "dry_run", False)) if args else False
        cmd_generate(cfg, out_dir, dry_run=dry)
    elif name == "metrics":
        cmd_metrics(cfg, out_dir)
    else:
        raise ConfigError(f"unknown subcommand {name!r}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _load_inputs(cfg: RunConfig):
    """(ground truth | None, perspective frames, poses).  Without input paths
    the deterministic synthetic scene supplies everything."""
    if cfg.paths.frames_dir is None and cfg.paths.poses is None:
        truth, frames, poses = scene_mod.synth_scene(cfg)
        return truth, frames, poses
    if cfg.paths.frames_dir is None or cfg.paths.poses is None:
        raise ConfigError("config fields 'paths.frames_dir' and 'paths.poses' "
                          "must be provided together")
    from .geometry import PerspectiveFrame
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
    return None, frames, poses


def _conditional(cfg: RunConfig, frames, poses) -> CubemapVideo:
    return scene_mod.conditional_video(cfg.resolution, frames, poses)


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
    from .geometry import resample_mask_to_equirect
    _, frames, poses = _load_inputs(cfg)
    cond = _conditional(cfg, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    for f in FACES:
        for t in range(cfg.num_frames):
            _write_image(out_dir / f"cond_{f}_{t:03d}", cond.faces[f][t])
            write_mask_pgm(out_dir / f"mask_{f}_{t:03d}.pgm", cond.masks[f][t])
    for t in range(cfg.num_frames):
        eq_mask = resample_mask_to_equirect(cond.frame(t), cfg.equirect_width)
        write_mask_pgm(out_dir / f"eq_mask_{t:03d}.pgm", eq_mask)
    write_poses(out_dir / "poses.json", poses)
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def cmd_plan(cfg: RunConfig, out_dir: Path) -> None:
    _, frames, poses = _load_inputs(cfg)
    cond = _conditional(cfg, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    plan = plan_order(ct, wp)
    write_json_artifact(out_dir / "plan.json", "plan", plan.to_json_dict())
    write_json_artifact(out_dir / "coverage.json", "coverage",
                        _coverage_json(fc, ct))


def cmd_context(cfg: RunConfig, out_dir: Path) -> None:
    truth, frames, poses = _load_inputs(cfg)
    cond = _conditional(cfg, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    plan = plan_order(ct, wp)
    state = init_state(cond, plan, layout=CubeLayout.create(cfg.resolution),
                       pad=cfg.pad, history_capacity=cfg.history,
                       frag_length=cfg.frag_length,
                       frag_threshold=cfg.frag_threshold, ground_truth=truth)
    entries = simulate_contexts(state)
    steps = [{"face": e["face"], "s": e["s"], "e": e["e"], "window": e["window"],
              "fragments": e["fragments"],
              "resident_latents": e["resident_latents"],
              "sources": e["sources"]} for e in entries]
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
            from .attention import AttentionInputs
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


def _make_denoiser(cfg: RunConfig, truth, cond, layout):
    if cfg.mode.denoiser == "oracle":
        if truth is None:
            raise ConfigError("mode.denoiser 'oracle' needs the synthetic scene "
                              "(ground truth); unset paths.frames_dir/poses")
        return make_scene_oracle_denoiser(truth, cfg.pad, layout)
    if cfg.mode.denoiser == "copy":
        return make_copy_denoiser(cond, cfg.pad, layout)
    return zero_denoiser


def cmd_generate(cfg: RunConfig, out_dir: Path, dry_run: bool = False) -> None:
    if dry_run:
        _write_dry_run(cfg, out_dir)
        return
    t_total = time.perf_counter()
    truth, frames, poses = _load_inputs(cfg)
    cond = _conditional(cfg, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    plan = plan_order(ct, wp)
    layout = CubeLayout.create(cfg.resolution)
    if cfg.mode.teacher_forcing and truth is None:
        raise ConfigError("mode.teacher_forcing requires the synthetic scene")
    denoiser = _make_denoiser(cfg, truth, cond, layout)
    result = generate_all(
        cond, plan, denoiser,
        SamplerConfig(steps=cfg.sampler_steps, seed=cfg.seed,
                      teacher_forcing=cfg.mode.teacher_forcing),
        layout=layout, pad=cfg.pad, history_capacity=cfg.history,
        frag_length=cfg.frag_length, frag_threshold=cfg.frag_threshold,
        equirect_width=cfg.equirect_width, ground_truth=truth)

    for t in range(cfg.num_frames):
        write_pfm(out_dir / f"frame_{t:03d}.pfm", result.equirect[t])
        _write_image(out_dir / f"frame_{t:03d}", np.clip(result.equirect[t], 0, 1))
    seam = [seam_metric(result.cubemap.frame(t), layout)
            for t in range(cfg.num_frames)]
    report = {
        "config": cfg.to_json_dict(),
        "plan": plan.to_json_dict()["steps"],
        "pool_trace": result.pool_trace,
        "resident_trace": result.resident_trace,
        "peak_resident": result.peak_resident,
        "seam_per_frame": seam,
        "steps": result.step_log,
    }
    write_json_artifact(out_dir / "run_report.json", "run_report", report)
    write_json_artifact(out_dir / "timings.json", "timings", {
        "step_seconds": result.step_timings,
        "total_seconds": time.perf_counter() - t_total,
    })


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
    truth, frames, poses = _load_inputs(cfg)
    cond = _conditional(cfg, frames, poses)
    fc, wp, ct = _coverage_tables(cfg, cond)
    layout = CubeLayout.create(cfg.resolution)
    source = truth if truth is not None else cond
    seam = [seam_metric(source.frame(t), layout) for t in range(cfg.num_frames)]
    report = {
        "seam_per_frame": seam,
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
