"""Span recorder that instruments cubegen from outside.

``instrument`` wraps every public function and public method defined in the
layer modules, and rebinds each module-level name that refers to one of them,
so calls made through ``cubegen.pipeline.pad_face`` or
``cubegen.cli.generate_all`` are recorded as well.  A span's layer is the
module that defines the wrapped function, so renaming a helper does not
rename a per-layer metric.  The denoiser callable handed to
``pipeline.euler_sample`` is wrapped as the span ``denoiser``.

Spans are tuples ``(name, layer, start, end, parent, op)`` kept in memory and
written once, when the traced process ends.  ``layer_metrics`` turns them
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("scene", "geometry", "planner", "context", "attention",
          "continuity", "pipeline", "imgio", "artifacts", "cli")

# Fields of one span, in the order they are stored and written.
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "op")


class Tracer:
    """In-memory span list plus the counters observed at span boundaries."""

    def __init__(self, patch_size: int = 8):
        self.spans: list = []
        self.names: list = []          # span names, set when a span opens
        self.counters: dict = {}
        self.op = 0
        self.patch_size = patch_size
        self._stack: list = []

    def wrap(self, fn, name: str, layer: str, observe=None):
        spans, names, stack = self.spans, self.names, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            names.append(name)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.op)
            if observe is not None:
                observe(self, args, kwargs, result, parent)
            return result

        return traced

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# counters observed at layer boundaries
# ---------------------------------------------------------------------------

def _observe_bundle(tracer: Tracer, args, kwargs, bundle, parent) -> None:
    """Token and fragment counts of one ``[hist; curr; fut]`` bundle."""
    total = 0
    for kind in ("hist", "curr", "fut"):
        n = 0
        for src in getattr(bundle, kind):
            res = src.content.shape[1]
            n += (src.end - src.start) * (res // tracer.patch_size) ** 2
        tracer.add(f"tokens_{kind}", n)
        total += n
    tracer.peak("max_context_tokens", total)
    tracer.add("fragments", len(bundle.fut))
    tracer.peak("peak_resident", len(bundle.sources))


def _observe_write(tracer: Tracer, args, kwargs, result, parent) -> None:
    """Bytes of a file an ``imgio`` writer produced; nested writers (a mask
    writer calling the gray writer) count once, at the outermost call."""
    if parent >= 0 and tracer.names[parent].startswith("imgio.write"):
        return
    path = args[0] if args else kwargs.get("path")
    tracer.add("write_bytes", os.path.getsize(path))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cubegen.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = _wrap_function(tracer, obj, f"{layer}.{name}", layer)
            elif inspect.isclass(obj):
                _wrap_methods(tracer, obj, f"{layer}.{name}", layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cubegen" or mod_name.startswith("cubegen.")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])


def _wrap_function(tracer: Tracer, fn, name: str, layer: str):
    if name == "pipeline.euler_sample":
        return _wrap_sampler(tracer, fn, name, layer)
    observe = None
    if name == "context.assemble_context":
        observe = _observe_bundle
    elif name.startswith("imgio.write"):
        observe = _observe_write
    return tracer.wrap(fn, name, layer, observe)


def _wrap_sampler(tracer: Tracer, fn, name: str, layer: str):
    """Record ``euler_sample`` and wrap the denoiser it is handed."""
    signature = inspect.signature(fn)
    inner = tracer.wrap(fn, name, layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        denoiser = bound.arguments["denoiser"]
        den_layer = getattr(denoiser, "__module__", "").rsplit(".", 1)[-1]
        bound.arguments["denoiser"] = tracer.wrap(
            denoiser, "denoiser", den_layer if den_layer in LAYERS else layer)
        return inner(*bound.args, **bound.kwargs)

    return traced


def _wrap_methods(tracer: Tracer, cls, prefix: str, layer: str) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            fn = tracer.wrap(attr.__func__, f"{prefix}.{name}", layer)
            setattr(cls, name, type(attr)(fn))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, f"{prefix}.{name}", layer))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def load_spans(path) -> tuple[list, dict]:
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["counters"]


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def outermost_total(spans: list, prefix: str) -> float:
    """Summed duration of the spans named ``prefix*`` not nested in another."""
    return sum(s[3] - s[2] for s in spans if s[0].startswith(prefix)
               and not (s[4] >= 0 and spans[s[4]][0].startswith(prefix)))


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metrics of one traced ``generate`` operation."""
    own = self_times(spans)
    total, count, busy = {}, {}, {}
    step_ms = []
    for s, self_s in zip(spans, own):
        name, layer = s[0], s[1]
        dur = s[3] - s[2]
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        busy[layer] = busy.get(layer, 0.0) + self_s
        if name == "pipeline.generate_step":
            step_ms.append(dur * 1000.0)
    euler_self = sum(t for s, t in zip(spans, own) if s[0] == "pipeline.euler_sample")
    steps = len(step_ms)
    pads = count.get("continuity.pad_face", 0)
    return {
        "geometry.equirect_s": total.get("geometry.cubemap_to_equirect", 0.0),
        "geometry.project_s": total.get("geometry.project_perspective_to_cubemap", 0.0),
        "geometry.busy_s": busy.get("geometry", 0.0),
        "geometry.frame_views": count.get("geometry.CubemapVideo.frame", 0),
        "continuity.pad_s": total.get("continuity.pad_face", 0.0),
        "continuity.pad_calls": pads,
        "continuity.blend_s": total.get("continuity.blend_overlaps", 0.0),
        "continuity.seam_s": total.get("continuity.seam_metric", 0.0),
        "continuity.pads_per_step": pads / steps if steps else 0.0,
        "pipeline.step_ms_p50": percentile(step_ms, 50),
        "pipeline.step_ms_p90": percentile(step_ms, 90),
        "pipeline.denoiser_s": total.get("denoiser", 0.0),
        "pipeline.denoiser_calls": count.get("denoiser", 0),
        "pipeline.euler_self_s": euler_self,
        "context.busy_s": busy.get("context", 0.0),
        "context.tokens_hist": counters.get("tokens_hist", 0),
        "context.tokens_curr": counters.get("tokens_curr", 0),
        "context.tokens_fut": counters.get("tokens_fut", 0),
        "context.fragments": counters.get("fragments", 0),
        "context.peak_resident": counters.get("peak_resident", 0),
        "planner.busy_s": busy.get("planner", 0.0),
        "scene.busy_s": busy.get("scene", 0.0),
        "imgio.write_s": outermost_total(spans, "imgio.write"),
        "imgio.write_mb": counters.get("write_bytes", 0) / 1e6,
        "imgio.read_s": outermost_total(spans, "imgio.read"),
        "artifacts.json_s": total.get("artifacts.write_json_artifact", 0.0),
        "cli.self_s": busy.get("cli", 0.0),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Per-key median over several traced operations."""
    if not samples:
        return {}
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
