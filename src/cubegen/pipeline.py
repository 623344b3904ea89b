"""Flow-matching loss/sampler and the autoregressive generation loop.

The working latent is the pixel grid at generation resolution.  The linear
noising path is z_t = (1-t) z0 + t eps with velocity target v = z0 - z_t, and
the Euler update z <- z + (dt / t) v makes the oracle denoiser land exactly
on z0 for every step count: the final step has dt/t = 1, so any trajectory
contracts onto the target.

A denoiser is any callable (z_t, t, context, conditioning) -> velocity of
identical shape, deterministic given identical inputs and seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .attention import layout_from_bundle
from .faces import FACES
from .geometry import CubemapVideo
from .planner import FrameCoverage, GenerationPlan, PlanStep, frame_coverage
from .context import ContextBundle, assemble_context, select_future_fragments
from .continuity import CubeLayout, blend_overlaps, pad_face

__all__ = [
    "ConditioningTag",
    "SamplerConfig",
    "sample_path",
    "flow_matching_loss",
    "oracle_denoiser",
    "padded_target_denoiser",
    "zero_denoiser",
    "euler_sample",
    "GenerationState",
    "GenerationResult",
    "init_state",
    "generate_step",
    "generate_all",
    "simulate_contexts",
]


@dataclass(frozen=True)
class ConditioningTag:
    """Opaque stand-in for a global or face-wise prompt handle."""

    name: str = "global"


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    seed: int = 0
    teacher_forcing: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"sampler steps must be >= 1, got {self.steps}")


def sample_path(z0: np.ndarray, eps: np.ndarray, t: float) -> np.ndarray:
    """Noisy latent on the linear path: (1-t) z0 + t eps."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path time must lie in [0, 1], got {t}")
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ValueError("z0 and eps shapes differ")
    return (1.0 - t) * z0 + t * eps


def flow_matching_loss(v_pred: np.ndarray, z0: np.ndarray,
                       z_t: np.ndarray) -> float:
    """Mean squared error of a velocity prediction against z0 - z_t."""
    v_pred, z0, z_t = (np.asarray(a, dtype=np.float64) for a in (v_pred, z0, z_t))
    if not v_pred.shape == z0.shape == z_t.shape:
        raise ValueError("velocity/latent shapes differ")
    return float(np.mean((v_pred - (z0 - z_t)) ** 2))


def oracle_denoiser(z0: np.ndarray):
    """Perfect velocity field toward a fixed clean latent."""
    z0 = np.asarray(z0, dtype=np.float64)

    def denoise(z_t, t, context=None, conditioning=None):
        return z0 - z_t

    return denoise


def zero_denoiser(z_t, t, context=None, conditioning=None):
    """Predicts zero velocity; the sample stays at its initial noise."""
    return np.zeros_like(z_t)


def euler_sample(denoiser, shape: tuple, context, conditioning,
                 cfg: SamplerConfig) -> np.ndarray:
    """Integrate the velocity field from seeded noise at t=1 down to t=0.

    Raises ``RuntimeError`` when the denoiser returns the wrong shape, a
    non-floating-point dtype or a non-finite value.
    """
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal(shape)
    ts = np.linspace(1.0, 0.0, cfg.steps + 1)
    for s in range(cfg.steps):
        t, dt = ts[s], ts[s] - ts[s + 1]
        v = np.asarray(denoiser(z, float(t), context, conditioning))
        if v.shape != z.shape:
            raise RuntimeError(
                f"denoiser returned shape {v.shape}, expected {z.shape}")
        if not np.issubdtype(v.dtype, np.floating):
            raise RuntimeError(
                f"denoiser returned dtype {v.dtype}, expected floating point")
        if not np.isfinite(v).all():
            raise RuntimeError(f"denoiser returned non-finite values at t={t:g}")
        z += (dt / t) * v  # z is the sampler's own; v is never written
    return z


# ---------------------------------------------------------------------------
# generation loop
# ---------------------------------------------------------------------------

@dataclass
class GenerationState:
    """Everything a step needs: plan progress, canvas, coverage.  Window and
    history bookkeeping is arithmetic on ``next_index`` over the plan."""

    cond: CubemapVideo
    coverage: FrameCoverage
    plan: GenerationPlan
    layout: CubeLayout
    pad: int
    history_capacity: int
    frag_length: int
    frag_threshold: float
    working: np.ndarray                # (N, 6, R, R, C) canvas, canonical face order
    patch_size: int                    # tokens are patch_size^2 pixel patches
    next_index: int = 0
    ground_truth: CubemapVideo | None = None
    pool_trace: list = field(default_factory=list)
    resident_trace: list = field(default_factory=list)
    step_log: list = field(default_factory=list)
    step_timings: list = field(default_factory=list)

    @property
    def resolution(self) -> int:
        return self.cond.resolution


def init_state(cond: CubemapVideo, plan: GenerationPlan, *, layout: CubeLayout,
               pad: int, history_capacity: int, frag_length: int,
               frag_threshold: float, patch_size: int = 8,
               ground_truth: CubemapVideo | None = None) -> GenerationState:
    _check_plan(plan, cond.num_frames)
    return GenerationState(
        cond=cond,
        coverage=frame_coverage(cond.masks),
        plan=plan,
        layout=layout,
        pad=pad,
        history_capacity=history_capacity,
        frag_length=frag_length,
        frag_threshold=frag_threshold,
        working=cond.pixels.copy(),
        patch_size=patch_size,
        ground_truth=ground_truth,
    )


def _check_plan(plan: GenerationPlan, num_frames: int) -> None:
    """Window-major: blocks of six steps sharing one (start, end) and naming
    every face once, the blocks tiling [0, num_frames) in order."""
    steps = plan.steps
    length = steps[0].end - steps[0].start if steps else 0
    if length < 1 or len(steps) % 6 or len(steps) // 6 * length != num_frames:
        raise ValueError(f"plan of {len(steps)} steps does not tile {num_frames} "
                         f"frames with windows of six faces")
    for w in range(len(steps) // 6):
        block = steps[6 * w:6 * w + 6]
        if ({(st.start, st.end) for st in block} != {(w * length, (w + 1) * length)}
                or sorted(st.face for st in block) != sorted(FACES)):
            raise ValueError(f"plan window {w + 1} is not the six faces over frames "
                             f"[{w * length}, {(w + 1) * length}): {block}")


def build_context(state: GenerationState, step: PlanStep,
                  source: np.ndarray) -> ContextBundle:
    """Fragments plus [hist; curr; fut] assembly for the next plan step;
    hist and curr-gen view ``source``, an (N, 6, R, R, C) video."""
    fragments = select_future_fragments(
        state.coverage, step.face, step.end, state.frag_length,
        state.frag_threshold, state.cond.num_frames)
    first = state.next_index - state.next_index % 6
    done = tuple(st.face for st in state.plan.steps[first:state.next_index])
    return assemble_context(source, state.cond.pixels, step, done,
                            state.history_capacity, fragments)


def _step_seed(cfg: SamplerConfig, index: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, index)).generate_state(1)[0])


def _check_step_order(state: GenerationState, step: PlanStep,
                      cfg: SamplerConfig | None) -> None:
    if state.next_index >= len(state.plan.steps):
        raise ValueError("plan already completed")
    expected = state.plan.steps[state.next_index]
    if step != expected:
        raise ValueError(f"plan-order violation: got {step}, expected {expected}")
    if cfg is not None and cfg.teacher_forcing and state.ground_truth is None:
        raise ValueError("teacher forcing requires ground truth content")


def _finish_step(state: GenerationState, step: PlanStep,
                 bundle: ContextBundle) -> None:
    """Log the step's context with its token counts by source kind, and move
    on to the next plan step."""
    resident = len(bundle.sources)
    layout = layout_from_bundle(bundle, step.end - step.start, state.resolution,
                                state.patch_size)
    tokens = {"generation": layout.num_generation,
              "hist": 0, "curr-gen": 0, "curr-cond": 0, "fut": 0}
    for src, (_, length, _) in zip(bundle.sources, layout.segments):
        tokens[src.kind] += length
    state.resident_trace.append(resident)
    state.step_log.append({
        "face": step.face, "s": step.start, "e": step.end,
        "window": bundle.window,
        "fragments": len(bundle.fut),
        "sources": bundle.provenance(),
        "resident_latents": resident,
        "tokens": tokens,
    })
    state.next_index += 1
    state.pool_trace.append(min(state.history_capacity, state.next_index // 6))


def generate_step(state: GenerationState, step: PlanStep, denoiser,
                  cfg: SamplerConfig) -> np.ndarray:
    """Run one plan step: assemble context, sample the padded face video,
    blend it into the canvas.

    Steps must arrive exactly in plan order.  The context views the canvas,
    or the ground truth under teacher forcing.  Returns the sampled
    (T, R+2p, R+2p, C) padded face video of the window; its core is
    ``out[:, p:p+R, p:p+R]``.
    """
    _check_step_order(state, step, cfg)
    t_begin = time.perf_counter()
    source = state.ground_truth.pixels if cfg.teacher_forcing else state.working
    bundle = build_context(state, step, source)
    r, p = state.resolution, state.pad
    shape = (step.end - step.start, r + 2 * p, r + 2 * p, state.cond.channels)
    step_cfg = SamplerConfig(steps=cfg.steps, seed=_step_seed(cfg, state.next_index),
                             teacher_forcing=cfg.teacher_forcing)
    z = euler_sample(denoiser, shape, bundle, ConditioningTag(), step_cfg)
    blend_overlaps(z, state.working[step.start:step.end], step.face, p, state.layout)
    _finish_step(state, step, bundle)
    state.step_timings.append(time.perf_counter() - t_begin)
    return z


def simulate_contexts(state: GenerationState) -> list[dict]:
    """Walk the whole plan without sampling, recording per-step provenance.

    The context views ground truth when present (mirroring teacher forcing),
    otherwise the conditional input; the bookkeeping is the real loop's, so
    provenance matches a generation run.
    """
    source = (state.ground_truth or state.cond).pixels
    for step in state.plan.steps:
        _check_step_order(state, step, None)
        _finish_step(state, step, build_context(state, step, source))
    return state.step_log


@dataclass
class GenerationResult:
    cubemap: CubemapVideo          # pixels is the (N, 6, R, R, C) canvas itself
    pool_trace: list
    resident_trace: list
    step_log: list
    step_timings: list

    @property
    def peak_resident(self) -> int:
        return max(self.resident_trace) if self.resident_trace else 0


def generate_all(cond_video: CubemapVideo, plan: GenerationPlan, denoiser,
                 cfg: SamplerConfig, *, layout: CubeLayout | None = None,
                 pad: int = 4, history_capacity: int = 2, frag_length: int = 4,
                 frag_threshold: float = 0.5, patch_size: int = 8,
                 ground_truth: CubemapVideo | None = None,
                 on_window=None) -> GenerationResult:
    """Run every plan step window-major; the result is the cube canvas,
    which callers resample to equirect frames one at a time.

    ``on_window(start, end, frames)``, when given, is called once per window,
    in order, after its six faces are blended, with ``frames`` the canvas
    view ``working[start:end]``.  Blending writes only frames of the current
    window, so these frames are final: a caller may read them from another
    thread while later windows are sampled, but must not write them.
    """
    layout = layout or CubeLayout.create(cond_video.resolution)
    state = init_state(cond_video, plan, layout=layout, pad=pad,
                       history_capacity=history_capacity, frag_length=frag_length,
                       frag_threshold=frag_threshold, patch_size=patch_size,
                       ground_truth=ground_truth)
    for i, step in enumerate(plan.steps):
        generate_step(state, step, denoiser, cfg)
        if on_window is not None and i % 6 == 5:  # init_state checked the blocks
            on_window(step.start, step.end, state.working[step.start:step.end])

    out_video = CubemapVideo(pixels=state.working,
                             masks=np.ones_like(cond_video.masks))
    return GenerationResult(
        cubemap=out_video,
        pool_trace=state.pool_trace, resident_trace=state.resident_trace,
        step_log=state.step_log, step_timings=state.step_timings)


# ---------------------------------------------------------------------------
# built-in denoisers beyond the plain oracle
# ---------------------------------------------------------------------------

def padded_target_denoiser(video: CubemapVideo, pad: int, layout: CubeLayout):
    """Velocity toward ``video``'s padded face window for the step named by
    the context bundle.  Given the ground truth it is the scene oracle; given
    the (masked) conditional it is the copy baseline, whose unobserved pixels
    head to zero.  The target is padded when (face, start, end) changes and
    reused for the remaining Euler steps of that plan step."""
    cached = {"key": None, "target": None}

    def denoise(z_t, t, context, conditioning=None):
        key = (context.face, context.start, context.end)
        if cached["key"] != key:
            window = video.pixels[context.start:context.end]
            cached["target"] = pad_face(window, context.face, pad, layout)
            cached["key"] = key
        return cached["target"] - z_t

    return denoise
