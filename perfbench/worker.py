"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py <spec.json>

The spec names the operation (``generate`` or ``attend``), its config and
its output paths.  The worker records when ``cubegen`` is imported and the
config parsed (the end of set-up), runs the operation, optionally traced,
and writes a result JSON with its timings and peak RSS.  ``run.py`` starts
it with ``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS threads
capped.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from cubegen import cli
    from cubegen.config import parse_config

    cfg = parse_config(spec["config"])
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, spec["bench_dir"])
        from tracer import Tracer
        tracer = Tracer(patch_size=cfg.patch_size)

    if spec["kind"] == "generate":
        if tracer is not None:
            from tracer import instrument
            instrument(tracer)
        argv = ["generate", "--config", spec["config"], "--out", spec["out"]]
        if spec.get("dry_run"):
            argv.append("--dry-run")
        t0 = time.perf_counter()
        result["exit_code"] = cli.main(argv)
        result["op_s"] = time.perf_counter() - t0
    else:
        result.update(attend(spec, cfg, tracer))

    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process image.  ``ru_maxrss`` is not used where
    ``/proc`` exists, because on Linux it keeps the peak of the parent that
    spawned the worker."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attend(spec: dict, cfg, tracer) -> dict:
    """Sparse attention passes over the context grid until the deadline,
    after one untimed warm-up pass.

    G and K come from the config the way ``attend-bench`` derives them.  The
    C=grid[0] output of every pass is checked against one dense reference.
    """
    import tracemalloc

    import numpy as np
    from cubegen import attention as att

    grid = spec["contexts"]
    g = cfg.window_length * att.tokens_per_frame(cfg.resolution, cfg.patch_size)
    d = spec["head_dim"]
    band = att.BandedMaskSpec(bandwidth=cfg.bandwidth)
    cases = []
    for c in grid:
        rng = np.random.default_rng(np.random.SeedSequence((spec["seed"], c)))
        shape = (1, g + c, d)
        inp = att.AttentionInputs(
            *(rng.standard_normal(shape, dtype=np.float32) for _ in range(3)))
        layout = att.TokenLayout(num_generation=g, num_context=c)
        cases.append((c, inp, layout, att.attention_flops(layout, band, d)))

    c0, inp0, layout0, _ = cases[0]
    dense = att.dense_masked_attention(inp0, att.mask_matrix(layout0, band))
    deadline = time.monotonic() + spec["seconds"]
    # One untimed pass first, so that no timed pass pays first-call costs.
    for _, inp, layout, _ in cases:
        att.sparse_context_attention(inp, layout, band)
    extra = {}
    if tracer is not None:
        # Allocation peaks are taken before tracing starts and outside the
        # timed passes, because tracemalloc slows every allocation it records.
        peaks = {}
        for c, inp, layout, _ in cases:
            tracemalloc.start()
            att.sparse_context_attention(inp, layout, band)
            peaks[str(c)] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        extra["peak_alloc_mb"] = peaks
        from tracer import instrument
        instrument(tracer)

    times = {c: [] for c in grid}
    errors = []
    passes = 0
    while passes == 0 or time.monotonic() < deadline:
        if tracer is not None:
            tracer.op = passes
        pass_ms = {}
        for c, inp, layout, _ in cases:
            t0 = time.perf_counter()
            out = att.sparse_context_attention(inp, layout, band)
            pass_ms[c] = (time.perf_counter() - t0) * 1000.0
            if c == c0:
                errors.append(float(np.max(np.abs(out - dense))))
        for c, ms in pass_ms.items():
            times[c].append(ms)
        passes += 1

    result = {"passes": passes, "call_ms": {str(c): v for c, v in times.items()},
              "max_err": errors,
              "flops": {str(c): f for c, _, _, f in cases},
              "band_bytes": {str(c): 2 * inp.num_heads * c * (2 * cfg.bandwidth + 1)
                             * d * inp.values.itemsize for c, inp, _, _ in cases}}
    result.update(extra)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
