"""cubegen benchmark: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ``cubegen`` from
``src/`` and reads ``configs/demo.json``.  Every operation runs in a fresh
interpreter (``worker.py``) with BLAS threads capped at the CPU count, one
operation at a time (a closed loop with one client).  Workloads:

``oracle-r256``
    ``configs/demo.json`` at R=256, W=1024, pad 16: oracle denoiser with
    teacher forcing, 8 frames, 12 plan steps, 4 Euler steps.  Large arrays,
    few steps: geometry resampling, padding and image writing dominate.
``copy-file-r64``
    R=64, 16 frames (4 windows, 24 plan steps), 16 Euler steps, ``copy``
    denoiser without teacher forcing, input read from perspective PFM frames
    and ``poses.json`` rendered from the seed before timing starts.  Small
    arrays, many calls: per-call overhead dominates.  Each operation is
    short (about 2 s) so that a run holds about ten of them.
``attend-grid``
    ``attention.sparse_context_attention`` on seeded float32 inputs, one
    head, G=256, K=64 (the demo config's generation tokens and bandwidth),
    d=32, cycling C over 1024, 4096 and 16384.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the ``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1``
they are the ``per_layer`` metrics, taken from operations traced by
``tracer.py``, alternating with untraced ones to measure the overhead.
Lines before it give every metric by name with its unit and sample count,
the workload's own names (``video_s``, ``attn_ms_c4k``, ``mae``, ...) and,
in traced runs of the generate workloads, the dry-run cross-check.  The full result, stamped with the commit and the
Python, numpy, BLAS-thread and CPU counts, is written to ``--out`` (default
``perfbench/.work/results/``).  The exit code is nonzero when a correctness
check misses or the checkout has no ``src/cubegen``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402

WORKLOADS = ("oracle-r256", "copy-file-r64", "attend-grid")
CONTEXT_GRID = (1024, 4096, 16384)
HEAD_DIM = 32
ATTEND_WORKERS = 4          # fresh interpreters per attend-grid run
MAX_RUN_S = 150.0           # never start an operation after this much time
OP_TIMEOUT_S = 120.0

# Correctness tolerances.
ORACLE_MAX_ERR = 0.02       # oracle output against the analytic truth
COPY_FRUSTUM_MAX_ERR = 0.01  # copy output inside each frame's frustum ...
COPY_FRUSTUM_MARGIN = 3.0   # ... at least this many face pixels from its edge
ATTN_MAX_ERR = 1e-5         # sparse against dense attention at C=1024


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, no config)."""


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def demo_config() -> dict:
    path = ROOT / "configs" / "demo.json"
    if not path.is_file():
        raise SetupError(f"missing {path.relative_to(ROOT)}")
    return json.loads(path.read_text())


def workload_config(name: str, seed: int, tiny: bool, work: Path) -> dict:
    cfg = demo_config()
    cfg["seed"] = seed
    if name == "oracle-r256":
        res = 16 if tiny else 256
        cfg.update(resolution=res, equirect_width=4 * res, pad=res // 16)
    elif name == "copy-file-r64":
        cfg.update(num_frames=8 if tiny else 16, sampler_steps=4 if tiny else 16,
                   mode={"teacher_forcing": False, "denoiser": "copy"},
                   paths={"frames_dir": str(work / "input"),
                          "poses": str(work / "input" / "poses.json")})
        if tiny:
            cfg.update(resolution=16, equirect_width=64, pad=1)
    return cfg


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def render_copy_input(cfg: dict) -> list:
    """Perspective PFM frames and ``poses.json`` of the seeded scene."""
    from cubegen import imgio, scene
    from cubegen.config import config_from_dict

    run_cfg = config_from_dict({k: v for k, v in cfg.items() if k != "paths"})
    _, frames, poses = scene.synth_scene(run_cfg)
    frames_dir = Path(cfg["paths"]["frames_dir"])
    frames_dir.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames):
        imgio.write_pfm(frames_dir / f"input_{t:03d}.pfm", frame.pixels)
    imgio.write_poses(cfg["paths"]["poses"], poses)
    return poses


def truth_video(cfg: dict) -> np.ndarray:
    """(N, W/2, W, C) analytic equirect frames of the config's scene."""
    from cubegen import scene

    field = scene.SyntheticScene.random(cfg["channels"], cfg["seed"])
    return scene.render_equirect_video(field, cfg["equirect_width"], cfg["num_frames"])


def frustum_interior(cfg: dict, poses: list) -> np.ndarray:
    """(N, W/2, W) mask of equirect pixels inside each frame's frustum, at
    least ``COPY_FRUSTUM_MARGIN`` face pixels away from its edges."""
    from cubegen.geometry import equirect_pixel_to_direction

    width = cfg["equirect_width"]
    u, v = np.meshgrid(np.arange(width), np.arange(width // 2), indexing="xy")
    dirs = equirect_pixel_to_direction(u, v, width)
    margin = np.radians(COPY_FRUSTUM_MARGIN * 90.0 / cfg["resolution"])
    masks = []
    for pose in poses:
        cam = dirs @ pose.rotation
        x, y, z = cam[..., 0], cam[..., 1], cam[..., 2]
        tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0 - margin)
        tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0 - margin)
        with np.errstate(divide="ignore", invalid="ignore"):
            masks.append((z > 0) & (np.abs(x / z) <= tan_h) & (np.abs(y / z) <= tan_v))
    return np.stack(masks)


def read_pfm(path: Path) -> np.ndarray:
    """PFM reader independent of the program's own: (H, W, C) float64."""
    raw = path.read_bytes()
    magic, dims, scale, data = raw.split(b"\n", 3)
    w, h = (int(x) for x in dims.split())
    channels = 3 if magic == b"PF" else 1
    dtype = "<f4" if float(scale) < 0 else ">f4"
    img = np.frombuffer(data, dtype=dtype, count=w * h * channels)
    return img.reshape(h, w, channels)[::-1].astype(np.float64)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def spawn(spec: dict, work: Path, tag: str) -> dict:
    """Run one operation in a fresh interpreter; returns the worker result
    with ``setup_s`` added, or ``{"error": ...}``."""
    spec = dict(spec, bench_dir=str(BENCH), result=str(work / f"{tag}.result.json"),
                spans=str(work / f"{tag}.spans.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"operation timed out after {OP_TIMEOUT_S} s"}
    result_path = Path(spec["result"])
    stderr = " ".join(proc.stderr.split())[-500:]
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"worker exit {proc.returncode}: {stderr}"}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_end"] - start
    if result.get("exit_code", 0) != 0:
        result["error"] = f"cubegen exit {result['exit_code']}: {stderr}"
    if spec["trace"] and Path(spec["spans"]).is_file():
        result["spans_path"] = spec["spans"]
    return result


def output_digest(out: Path) -> str:
    """Digest of every artifact except the declared wall-clock one."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "timings.json":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_generate(name: str, cfg: dict, out: Path, truth: np.ndarray,
                   interior: np.ndarray | None) -> tuple[dict, list]:
    """Quality numbers and the list of correctness checks that missed."""
    missed = []
    n = cfg["num_frames"]
    paths = [out / f"frame_{t:03d}.pfm" for t in range(n)]
    for p in paths + [out / "run_report.json", out / "timings.json"]:
        if not p.is_file():
            return {}, [f"missing artifact {p.name}"]
    frames = np.stack([read_pfm(p) for p in paths])
    err = np.abs(frames - truth.astype(np.float32).astype(np.float64))
    quality = {"mae": float(err.mean()), "max_err": float(err.max())}
    if name == "oracle-r256":
        if quality["max_err"] > ORACLE_MAX_ERR:
            missed.append(f"max error {quality['max_err']:.3g} > {ORACLE_MAX_ERR}")
        report = json.loads((out / "run_report.json").read_text())
        history = cfg["history"]
        if max(report["pool_trace"]) > history:
            missed.append("history pool exceeded H")
        for step, resident in zip(report["steps"], report["resident_trace"]):
            if resident > 6 * (history + 1) + step["fragments"]:
                missed.append("resident latents exceed 6(H+1)+fragments")
                break
        if report["peak_resident"] != max(report["resident_trace"]):
            missed.append("peak_resident disagrees with resident_trace")
    else:
        inside = err[interior]
        quality["frustum_max_err"] = float(inside.max())
        if quality["frustum_max_err"] > COPY_FRUSTUM_MAX_ERR:
            missed.append(f"in-frustum error {quality['frustum_max_err']:.3g} "
                          f"> {COPY_FRUSTUM_MAX_ERR}")
    quality["digest"] = output_digest(out)
    return quality, missed


def run_generate(name: str, args, work: Path) -> dict:
    cfg = workload_config(name, args.seed, args.tiny, work)
    poses = render_copy_input(cfg) if name == "copy-file-r64" else None
    cfg_path = write_config(cfg, work / "config.json")
    truth = truth_video(cfg)
    interior = frustum_interior(cfg, poses) if poses is not None else None
    base = {"kind": "generate", "config": str(cfg_path), "trace": False}

    ops, setups, dry_run = [], [], {}
    if args.trace:
        # The dry-run cross-check sits next to the traced token counts.
        dry = spawn(dict(base, out=str(work / "dry"), dry_run=True), work, "dry")
        if "error" in dry:
            dry_run = {"error": dry["error"]}
        else:
            setups.append(dry["setup_s"])
            d = json.loads((work / "dry" / "dry_run.json").read_text())
            dry_run = {"peak_working_set_bytes_bound": d["peak_working_set_bytes_bound"],
                       "peak_resident_bound": d["peak_resident_bound"],
                       "tokens_generation": d["tokens"]["generation"],
                       "tokens_max_context": d["tokens"]["max_context"]}
    reference = None
    start = time.monotonic()
    while len(ops) < 2 or (time.monotonic() - start < args.seconds
                           and time.monotonic() - start < MAX_RUN_S):
        i = len(ops)
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"op{i}"
        res = spawn(dict(base, out=str(out), trace=traced), work, f"op{i}")
        op = {"traced": traced, "missed": []}
        if "error" in res:
            op["missed"].append(res["error"])
        else:
            setups.append(res["setup_s"])
            op.update(op_s=res["op_s"], peak_rss_mb=res["peak_rss_mb"])
            quality, missed = check_generate(name, cfg, out, truth, interior)
            op.update(quality)
            op["missed"] += missed
            if reference is None:
                reference = quality.get("digest")
            elif quality.get("digest") != reference:
                op["missed"].append("artifacts differ from the first run of this seed")
            if traced:
                spans, counters = tracing.load_spans(res["spans_path"])
                op["layers"] = tracing.layer_metrics(spans, counters)
                op["max_context_tokens"] = counters.get("max_context_tokens", 0)
                Path(res["spans_path"]).unlink()
        shutil.rmtree(out, ignore_errors=True)
        ops.append(op)
    return {"ops": ops, "setup_s": setups, "dry_run": dry_run}


def run_attend(args, work: Path) -> dict:
    cfg = demo_config()
    cfg["seed"] = args.seed
    cfg_path = write_config(cfg, work / "config.json")
    grid = [64, 128, 256] if args.tiny else list(CONTEXT_GRID)
    budget = args.seconds / ATTEND_WORKERS
    spec = {"kind": "attend", "config": str(cfg_path), "seed": args.seed,
            "contexts": grid, "head_dim": HEAD_DIM, "seconds": budget}
    ops, setups, workers = [], [], []
    for i in range(ATTEND_WORKERS):
        traced = bool(args.trace) and i % 2 == 1
        res = spawn(dict(spec, trace=traced), work, f"worker{i}")
        if "error" in res:
            ops.append({"traced": traced, "missed": [res["error"]]})
            continue
        setups.append(res["setup_s"])
        res["traced"] = traced
        workers.append(res)
        for k in range(res["passes"]):
            err = res["max_err"][k]
            missed = [] if err <= ATTN_MAX_ERR else [
                f"sparse/dense disagree by {err:.3g} at C={grid[0]}"]
            ops.append({"traced": traced, "missed": missed, "peak_rss_mb": res["peak_rss_mb"],
                        "op_s": sum(res["call_ms"][str(c)][k] for c in grid) / 1000.0,
                        "call_ms": {c: res["call_ms"][str(c)][k] for c in grid}})
        if traced:
            Path(res["spans_path"]).unlink(missing_ok=True)
    return {"grid": grid, "ops": ops, "setup_s": setups, "workers": workers}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return f"p{q}", tracing.percentile(values, q)
    return "max", max(values)


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, run: dict) -> tuple[dict, list]:
    """Gated metrics (same names on every workload) and report rows."""
    ops = [o for o in run["ops"] if not o["traced"]]
    good = [o for o in ops if not o["missed"]]
    attempted = len(ops)
    failed = attempted - len(good)
    op_s = [o["op_s"] for o in good]
    rss = [o["peak_rss_mb"] for o in good]
    metrics = {
        "setup_s": (median(run["setup_s"]), "s"),
        "op_s": (median(op_s), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "ok_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }
    rows = [("setup_s", "s", run["setup_s"]), ("peak_rss_mb", "MB", rss)]
    if name == "attend-grid":
        rows.append(("op_s (one pass over C)", "s", op_s))
        for c, label in zip(run["grid"], ("attn_ms_c1k", "attn_ms_c4k", "attn_ms_c16k")):
            rows.append((label, "ms", [o["call_ms"][c] for o in good]))
    else:
        rows.append(("video_s (= op_s)", "s", op_s))
        rows.append(("mae", "", [o["mae"] for o in good]))
        rows.append(("max_err", "", [o["max_err"] for o in good]))
        if name == "copy-file-r64":
            rows.append(("frustum_max_err", "", [o["frustum_max_err"] for o in good]))
    rows.append(("fail_ratio", "ratio", [failed / attempted if attempted else 1.0]))
    return metrics, rows


def per_layer(name: str, run: dict) -> dict:
    """Traced-run metrics; layers a workload does not call read 0."""
    traced = [o for o in run["ops"] if o["traced"] and not o["missed"]]
    plain = [o for o in run["ops"] if not o["traced"] and not o["missed"]]
    overhead = 0.0
    if traced and plain:
        overhead = (median([o["op_s"] for o in traced])
                    / median([o["op_s"] for o in plain]) - 1.0) * 100.0
    metrics = {k: 0.0 for k in LAYER_UNITS}
    if name == "attend-grid":
        grid = run["grid"]
        workers = [w for w in run["workers"] if w["traced"]]
        for c, key in zip(grid, ("attention.ms_c1k", "attention.ms_c4k",
                                 "attention.ms_c16k")):
            metrics[key] = median([o["call_ms"][c] for o in traced])
        if workers:
            w = workers[0]
            flops = sum(w["flops"][str(c)] for c in grid) * len(traced)
            seconds = sum(sum(o["call_ms"].values()) for o in traced) / 1000.0
            metrics["attention.gflops"] = flops / seconds / 1e9 if seconds else 0.0
            metrics["attention.band_mb"] = w["band_bytes"][str(grid[-1])] / 1e6
            metrics["attention.peak_alloc_mb"] = median(
                [x["peak_alloc_mb"][str(grid[-1])] for x in workers])
    else:
        metrics.update(tracing.median_metrics([o["layers"] for o in traced]))
    metrics["trace.overhead_pct"] = overhead
    return metrics


LAYER_UNITS = {
    "geometry.equirect_s": "s", "geometry.project_s": "s", "geometry.busy_s": "s",
    "geometry.frame_views": "count",
    "continuity.pad_s": "s", "continuity.pad_calls": "count",
    "continuity.blend_s": "s", "continuity.seam_s": "s",
    "continuity.pads_per_step": "count",
    "pipeline.step_ms_p50": "ms", "pipeline.step_ms_p90": "ms",
    "pipeline.denoiser_s": "s", "pipeline.denoiser_calls": "count",
    "pipeline.euler_self_s": "s",
    "context.busy_s": "s", "context.tokens_hist": "count",
    "context.tokens_curr": "count", "context.tokens_fut": "count",
    "context.fragments": "count", "context.peak_resident": "count",
    "planner.busy_s": "s", "scene.busy_s": "s",
    "imgio.write_s": "s", "imgio.write_mb": "MB", "imgio.read_s": "s",
    "artifacts.json_s": "s", "cli.self_s": "s",
    "attention.ms_c1k": "ms", "attention.ms_c4k": "ms", "attention.ms_c16k": "ms",
    "attention.gflops": "GFLOP/s", "attention.band_mb": "MB",
    "attention.peak_alloc_mb": "MB",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# stamping and reporting
# ---------------------------------------------------------------------------

def stamp() -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": NPROC,
            "machine": platform.machine()}


def cross_check(run: dict, layers: dict) -> dict:
    """Dry-run claims next to what the traced run measured (not gated)."""
    dry = run["dry_run"]
    if not dry or "error" in dry:
        return dry
    plain = [o for o in run["ops"] if not o["traced"] and not o["missed"]]
    traced = [o for o in run["ops"] if o["traced"] and not o["missed"]]
    return {
        "dry_run.peak_working_set_mb": dry["peak_working_set_bytes_bound"] / 1e6,
        "measured.peak_rss_mb": median([o["peak_rss_mb"] for o in plain]),
        "dry_run.peak_resident_bound": dry["peak_resident_bound"],
        "traced.context.peak_resident": layers["context.peak_resident"],
        "dry_run.tokens_max_context": dry["tokens_max_context"],
        "traced.max_context_tokens_per_step": max(
            (o["max_context_tokens"] for o in traced), default=0),
        "dry_run.tokens_generation": dry["tokens_generation"],
        **{f"traced.{k}": layers[k] for k in
           ("context.tokens_hist", "context.tokens_curr", "context.tokens_fut")},
    }


def report(name: str, args, run: dict) -> tuple[dict, dict]:
    """Print the readable report; return the result line and the full record."""
    ops = run["ops"]
    failed = sum(1 for o in ops if o["missed"])
    misses = sorted({m for o in ops for m in o["missed"]})
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    e2e, rows = end_to_end(name, run)
    for label, unit, values in rows:
        if values:
            q, v = tail(values)
            print(f"  {label:28s} p50={median(values):.6g} {q}={v:.6g} {unit}  n={len(values)}")
        else:
            print(f"  {label:28s} no samples")
    checks = {}
    if args.trace:
        metrics, units = per_layer(name, run), LAYER_UNITS
        for k, v in metrics.items():
            print(f"  {k:28s} {v:.6g} {units[k]}")
        if name != "attend-grid":
            checks = cross_check(run, metrics)
            print("  dry-run cross-check (not gated):")
            for k, v in checks.items():
                print(f"    {k:36s} {v}")
    else:
        metrics = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}
    for m in misses:
        print(f"  MISSED: {m}")
    result = {"correct": not misses and bool(ops), "attempted": max(len(ops), 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    full = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "stamp": stamp(), "result": result,
            "dry_run_cross_check": checks, "misses": misses,
            "rows": {label: {"unit": unit, "values": values} for label, unit, values in rows}}
    return result, full


def run_workload(name: str, args) -> tuple[dict, dict]:
    work = WORK / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = run_attend(args, work) if name == "attend-grid" else run_generate(name, args, work)
        return report(name, args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_checkout() -> None:
    if not (SRC / "cubegen" / "__init__.py").is_file():
        raise SetupError("no src/cubegen in this checkout; run from a source checkout")
    demo_config()
    sys.path.insert(0, str(SRC))
    import cubegen

    if Path(cubegen.__file__).resolve().parent != (SRC / "cubegen").resolve():
        raise SetupError(f"imported cubegen from {cubegen.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test only")
    parser.add_argument("--out", help="write the stamped full result here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        check_checkout()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, fulls = [], []
    for name in names:
        result, full = run_workload(name, args)
        results.append(result)
        fulls.append(full)
    out = Path(args.out) if args.out else (
        WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fulls if len(fulls) > 1 else fulls[0], indent=2) + "\n")
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
