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

from .faces import FACES
from .geometry import CubemapFrame, CubemapVideo, cubemap_to_equirect
from .planner import FrameCoverage, GenerationPlan, PlanStep, frame_coverage
from .context import (
    ContextBundle,
    ContextPool,
    WindowState,
    assemble_context,
    pool_push,
    select_future_fragments,
)
from .continuity import CubeLayout, PaddedFace, blend_overlaps, pad_face

__all__ = [
    "ConditioningTag",
    "SamplerConfig",
    "sample_path",
    "flow_matching_loss",
    "oracle_denoiser",
    "make_scene_oracle_denoiser",
    "make_copy_denoiser",
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
        z = z + (dt / t) * v
    return z


# ---------------------------------------------------------------------------
# generation loop
# ---------------------------------------------------------------------------

@dataclass
class GenerationState:
    """Everything a step needs: plan progress, pool, canvas, coverage."""

    cond: CubemapVideo
    coverage: FrameCoverage
    plan: GenerationPlan
    layout: CubeLayout
    pad: int
    frag_length: int
    frag_threshold: float
    pool: ContextPool
    working: dict                      # face -> (N, R, R, C) output canvas
    next_index: int = 0
    window_state: WindowState | None = None
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
               frag_threshold: float,
               ground_truth: CubemapVideo | None = None) -> GenerationState:
    if plan.steps and plan.steps[-1].end > cond.num_frames:
        raise ValueError("plan extends past the conditional video")
    return GenerationState(
        cond=cond,
        coverage=frame_coverage(cond.masks),
        plan=plan,
        layout=layout,
        pad=pad,
        frag_length=frag_length,
        frag_threshold=frag_threshold,
        pool=ContextPool(capacity=history_capacity),
        working={f: cond.faces[f].copy() for f in FACES},
        ground_truth=ground_truth,
    )


def build_context(state: GenerationState, step: PlanStep) -> ContextBundle:
    """Fragments plus [hist; curr; fut] assembly for one plan step."""
    fragments = select_future_fragments(
        state.coverage, step.face, step.end, state.frag_length,
        state.frag_threshold, state.cond.num_frames)
    return assemble_context(state.pool, state.window_state, step.face,
                            fragments, state.cond.faces)


def _padded_cond_video(state: GenerationState, step: PlanStep) -> np.ndarray:
    frames = []
    for t in range(step.start, step.end):
        padded = pad_face(state.cond.frame(t), step.face, state.pad, state.layout)
        frames.append(padded.as_array())
    return np.stack(frames)


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


def _advance_window(state: GenerationState, step: PlanStep) -> None:
    if state.window_state is None or state.window_state.start != step.start:
        if state.window_state is not None and len(state.window_state.order) != 6:
            raise ValueError("previous window is incomplete")
        window = step.start // (step.end - step.start) + 1
        state.window_state = WindowState(window=window, start=step.start,
                                         end=step.end)


def _log_step(state: GenerationState, step: PlanStep, bundle) -> None:
    resident = 6 * len(state.pool.entries) + 6 + len(bundle.fut)
    state.resident_trace.append(resident)
    state.step_log.append({
        "face": step.face, "s": step.start, "e": step.end,
        "window": state.window_state.window,
        "fragments": len(bundle.fut),
        "sources": bundle.provenance(),
        "resident_latents": resident,
    })


def _finish_step(state: GenerationState, step: PlanStep,
                 content: np.ndarray) -> None:
    """Record the step's face content and roll the window/pool forward."""
    state.window_state.mark_generated(step.face, content)
    if len(state.window_state.order) == 6:
        state.pool = pool_push(state.pool, state.window_state.window,
                               state.window_state.generated)
        state.window_state = None
    state.pool_trace.append(len(state.pool.entries))
    state.next_index += 1


def generate_step(state: GenerationState, step: PlanStep, denoiser,
                  cfg: SamplerConfig) -> list[PaddedFace]:
    """Run one plan step: assemble context, sample the padded face video,
    blend it into the canvas, advance window progress.

    Steps must arrive exactly in plan order.  Returns the generated padded
    face, one entry per frame of the window.
    """
    _check_step_order(state, step, cfg)
    t_begin = time.perf_counter()
    _advance_window(state, step)
    bundle = build_context(state, step)
    padded_cond = _padded_cond_video(state, step)  # conditional on the padded grid
    step_cfg = SamplerConfig(steps=cfg.steps, seed=_step_seed(cfg, state.next_index),
                             teacher_forcing=cfg.teacher_forcing)
    z = euler_sample(denoiser, padded_cond.shape, bundle, ConditioningTag(), step_cfg)

    generated_frames = []
    for k, t in enumerate(range(step.start, step.end)):
        padded = PaddedFace.from_array(z[k], step.face, state.pad, state.layout)
        frame = CubemapFrame(
            faces={f: state.working[f][t] for f in FACES},
            masks={f: state.cond.masks[f][t] for f in FACES})
        blended = blend_overlaps(padded, frame, state.pad, state.layout)
        for f in FACES:
            state.working[f][t] = blended.faces[f]
        generated_frames.append(padded)

    if cfg.teacher_forcing:
        content = state.ground_truth.faces[step.face][step.start:step.end].copy()
    else:
        content = np.stack([p.core for p in generated_frames])
    _log_step(state, step, bundle)
    _finish_step(state, step, content)
    state.step_timings.append(time.perf_counter() - t_begin)
    return generated_frames


def simulate_contexts(state: GenerationState) -> list[dict]:
    """Walk the whole plan without sampling, recording per-step provenance.

    Window content comes from ground truth when present (mirroring teacher
    forcing), otherwise from the conditional input; the bookkeeping is the
    same as the real loop's, so provenance matches a generation run.
    """
    source = state.ground_truth or state.cond
    for step in state.plan.steps:
        _check_step_order(state, step, None)
        _advance_window(state, step)
        bundle = build_context(state, step)
        _log_step(state, step, bundle)
        _finish_step(state, step,
                     source.faces[step.face][step.start:step.end].copy())
    return state.step_log


@dataclass
class GenerationResult:
    equirect: np.ndarray           # (N, W/2, W, C)
    cubemap: CubemapVideo
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
                 frag_threshold: float = 0.5, equirect_width: int | None = None,
                 ground_truth: CubemapVideo | None = None) -> GenerationResult:
    """Run every plan step window-major, then assemble equirect frames."""
    res = cond_video.resolution
    layout = layout or CubeLayout.create(res)
    width = equirect_width or 4 * res
    state = init_state(cond_video, plan, layout=layout, pad=pad,
                       history_capacity=history_capacity, frag_length=frag_length,
                       frag_threshold=frag_threshold, ground_truth=ground_truth)
    for step in plan.steps:
        generate_step(state, step, denoiser, cfg)

    masks = {f: np.ones_like(cond_video.masks[f]) for f in FACES}
    out_video = CubemapVideo(faces={f: state.working[f] for f in FACES}, masks=masks)
    frames = [cubemap_to_equirect(out_video.frame(t), width).pixels
              for t in range(out_video.num_frames)]
    return GenerationResult(
        equirect=np.stack(frames), cubemap=out_video,
        pool_trace=state.pool_trace, resident_trace=state.resident_trace,
        step_log=state.step_log, step_timings=state.step_timings)


# ---------------------------------------------------------------------------
# built-in denoisers beyond the plain oracle
# ---------------------------------------------------------------------------

def _padded_video_from(video: CubemapVideo, face: str, start: int, end: int,
                       pad: int, layout: CubeLayout) -> np.ndarray:
    frames = [pad_face(video.frame(t), face, pad, layout).as_array()
              for t in range(start, end)]
    return np.stack(frames)


def make_scene_oracle_denoiser(truth: CubemapVideo, pad: int,
                               layout: CubeLayout):
    """Oracle that reads the current step from the context bundle and drives
    the sample toward the padded ground-truth face video."""

    def denoise(z_t, t, context, conditioning=None):
        target = _padded_video_from(truth, context.face, context.start,
                                    context.end, pad, layout)
        return target - z_t

    return denoise


def make_copy_denoiser(cond: CubemapVideo, pad: int, layout: CubeLayout):
    """Baseline that drives the sample toward the (masked) conditional
    content of the current step; unobserved pixels head to zero."""

    def denoise(z_t, t, context, conditioning=None):
        target = _padded_video_from(cond, context.face, context.start,
                                    context.end, pad, layout)
        return target - z_t

    return denoise
