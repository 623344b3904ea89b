"""Flow-matching sampler and the autoregressive generation loop.

The working latent is the pixel grid at generation resolution.  Sampling
follows the linear path z_t = (1-t) z0 + t eps.  A denoiser predicts the
clean latent x̂0, and the Euler update z <- z + (dt / t) (x̂0 - z) makes a
perfect prediction land exactly on z0 for every step count: the final step
has dt/t = 1, so any trajectory contracts onto the target.  The sampler
integrates from the noise eps it is handed; :func:`generate_all` draws each
plan step's noise from that step's own seed, so which thread draws it never
changes a byte.

A denoiser is any callable (z_t, t, context) -> x̂0 of identical shape,
deterministic given identical inputs and seed; ``context`` is the step's
[hist; curr; fut] :class:`~cubegen.context.ContextBundle`.

The generation loop is one pass over the plan, an (L, 6) array of face
indices (see :mod:`cubegen.planner`).  :func:`plan_contexts` checks the plan
once and yields each step's context bundle, which names the step's face,
frames and window; :func:`generate_all` samples and blends each step with
:func:`generate_step`, and :func:`simulate_contexts` only logs the bundles.
All three take the conditional's (6, N) frame coverage, which picks the
future fragments.  Teacher forcing is ``generate_all``'s ``teacher`` video,
(N, 6, R, R, C) like the conditional, which hist and curr-gen context then
read.

The generated video is never one array: ``generate_all`` allocates each
frame as its own (6, R, R, C) array when its window starts, hands a
window's frames to ``on_window`` once they are final, and drops them as
soon as no later step reads them, so the loop holds T frames under teacher
forcing and at most (H+1)·T without it, for any N.
"""

from __future__ import annotations

import math
import mmap
import time
from dataclasses import dataclass

import numpy as np

from .attention import tokens_per_frame
from .faces import FACES
from .geometry import CubemapVideo
from .context import ContextBundle, assemble_context, select_future_fragments
from .continuity import blend_overlaps, pad_face

__all__ = [
    "oracle_denoiser",
    "padded_target_denoiser",
    "target_denoiser",
    "zero_denoiser",
    "euler_sample",
    "GenerationResult",
    "plan_contexts",
    "generate_step",
    "generate_all",
    "simulate_contexts",
]


def oracle_denoiser(z0: np.ndarray):
    """Perfect prediction of a fixed clean latent: x̂0 = z0 at every t."""
    z0 = np.asarray(z0, dtype=np.float64)

    def denoise(z_t, t, context=None):
        return z0

    return denoise


def zero_denoiser(z_t, t, context=None):
    """Predicts x̂0 = z_t, so the velocity is zero and the sample stays at
    its initial noise; it returns ``z_t`` itself and allocates nothing."""
    return z_t


def euler_sample(denoiser, z: np.ndarray, context, steps: int) -> np.ndarray:
    """Integrate from the noise ``z`` at t=1 down to t=0 toward x̂0.

    ``z`` becomes the sampler's own: it is updated in place and returned.
    Raises ``RuntimeError`` when the denoiser returns the wrong shape, a
    non-floating-point dtype or a non-finite value; ``z`` is then left as
    the last update made it.  Each update runs over views of ``z`` and x̂0
    of about :data:`_SLICE_BYTES` each, in one slice-sized buffer, and x̂0,
    never written and possibly ``z`` itself, is dropped before the next.
    """
    if steps < 1:
        raise ValueError(f"sampler steps must be >= 1, got {steps}")
    ts = np.linspace(1.0, 0.0, steps + 1)
    slices = _slices(z.shape, z.itemsize)
    for s in range(steps):
        t, dt = ts[s], ts[s] - ts[s + 1]
        x0 = np.asarray(denoiser(z, float(t), context))
        if x0.shape != z.shape:
            raise RuntimeError(
                f"denoiser returned shape {x0.shape}, expected {z.shape}")
        if not np.issubdtype(x0.dtype, np.floating):
            raise RuntimeError(
                f"denoiser returned dtype {x0.dtype}, expected floating point")
        if not all(np.isfinite(x0[sl]).all() for sl in slices):
            raise RuntimeError(f"denoiser returned non-finite values at t={t:g}")
        # z += (dt / t) * (x0 - z) in the dtype the expression promotes to
        buf = np.empty(z[slices[0]].size, np.result_type(x0, z, ts))
        for sl in slices:
            view = z[sl]
            step = np.subtract(x0[sl], view, out=buf[:view.size].reshape(view.shape))
            view += np.multiply(step, dt / t, out=step)
        del x0, buf, step  # dropped before the denoiser builds the next
    return z


_SLICE_BYTES = 1 << 20  # about this much of z per slice of an Euler update


def _slices(shape: tuple, itemsize: int) -> list[tuple]:
    """Index tuples that cut an array of ``shape`` into views of at most
    :data:`_SLICE_BYTES`: runs of indices along the first axis, or, when one
    index holds more, each index's sub-array cut the same way.  An array
    within one slice is one view, ``(...,)``."""
    size = itemsize * math.prod(shape)
    if size <= _SLICE_BYTES or not shape:
        return [(...,)]
    item = size // shape[0]  # bytes of one index of the first axis
    if item > _SLICE_BYTES and len(shape) > 1:
        return [(i, *rest) for i in range(shape[0])
                for rest in _slices(shape[1:], itemsize)]
    step = max(1, _SLICE_BYTES // item)
    return [(slice(i, i + step),) for i in range(0, shape[0], step)]


def _draw_noise(seed: int, out: np.ndarray) -> np.ndarray:
    """A plan step's initial noise, standard normal from its own seed, drawn
    into ``out`` (the same bytes as a fresh draw of its shape)."""
    return np.random.default_rng(seed).standard_normal(out=out)


def _fresh_frame(shape: tuple) -> np.ndarray:
    """A zeroed float64 array of ``shape`` on its own anonymous memory map.
    Its pages are zero-filled when first touched and go back to the system
    when the array is freed; a freed heap block of this size would be kept
    by the allocator and cleared in full when handed out again.  The map is
    shared (the default), so a page read before it is written, as blending
    reads the strips of faces not yet generated, costs one fault, not a
    zero-page fault and then a copy-on-write fault."""
    buf = mmap.mmap(-1, 8 * math.prod(shape))
    return np.frombuffer(buf, np.float64).reshape(shape)


# ---------------------------------------------------------------------------
# generation loop
# ---------------------------------------------------------------------------

def plan_contexts(cond: CubemapVideo, coverage: np.ndarray, order: np.ndarray,
                  source, *, history_capacity: int, frag_length: int,
                  frag_threshold: float):
    """Check the (L, 6) plan ``order`` once, when iteration starts, then
    yield the [hist; curr; fut] context bundle of each plan step in order.

    hist and curr-gen read ``source``, an (N, 6, R, R, C) video; curr-cond
    and fut read ``cond``, whose frames are projected by each read, over
    fragments picked by its (6, N) frame ``coverage``.  Which sources a
    bundle holds depends only on the step's plan index; contents are read on
    access, so what ``source`` holds at that time shows in them.
    """
    length = _check_plan(order, cond.shape[0])
    for w, row in enumerate(order):
        s, e = w * length, (w + 1) * length
        faces = tuple(FACES[f] for f in row)
        for k, face in enumerate(faces):
            fragments = select_future_fragments(coverage, face, e, frag_length,
                                                frag_threshold, cond.shape[0])
            yield assemble_context(source, cond, face, s, e, faces[:k],
                                   history_capacity, fragments)


def _check_plan(order: np.ndarray, num_frames: int) -> int:
    """The window length of the (L, 6) plan ``order``: each row must be a
    permutation of the face indices 0..5, and L must divide the frames."""
    order = np.asarray(order)
    if (order.ndim != 2 or order.shape[1] != 6
            or not np.issubdtype(order.dtype, np.integer)
            or not (np.sort(order, axis=1) == np.arange(6)).all()):
        raise ValueError(f"plan of shape {order.shape} is not one permutation "
                         f"of the six faces per window: {order.tolist()}")
    if len(order) < 1 or num_frames % len(order):
        raise ValueError(f"plan of {len(order)} windows does not tile "
                         f"{num_frames} frames")
    return num_frames // len(order)


def _log_entry(bundle: ContextBundle, resolution: int, patch_size: int) -> dict:
    """The step's context, with its token counts summed per source kind."""
    per_frame = tokens_per_frame(resolution, patch_size)
    tokens = {"generation": (bundle.end - bundle.start) * per_frame,
              "hist": 0, "curr-gen": 0, "curr-cond": 0, "fut": 0}
    for src in bundle.sources:
        tokens[src.kind] += (src.end - src.start) * per_frame
    return {
        "face": bundle.face, "s": bundle.start, "e": bundle.end,
        "window": bundle.window,
        "fragments": len(bundle.fut),
        "sources": bundle.provenance(),
        "resident_latents": len(bundle.sources),
        "tokens": tokens,
    }


def generate_step(frames, bundle: ContextBundle, denoiser, z: np.ndarray,
                  steps: int, pad: int) -> np.ndarray:
    """Sample the padded face video of ``bundle``'s step from the noise
    ``z``, a (T, R+2p, R+2p, C) array the sampler takes over, in ``steps``
    Euler steps, and blend it into ``frames``, the window's T (6, R, R, C)
    frames being composed.

    Returns the sampled padded face video of the window (``z`` itself); its
    core is ``out[:, p:p+R, p:p+R]``.
    """
    z = euler_sample(denoiser, z, bundle, steps)
    blend_overlaps(z, frames, bundle.face, pad)
    return z


def simulate_contexts(cond: CubemapVideo, coverage: np.ndarray,
                      order: np.ndarray, *, history_capacity: int,
                      frag_length: int, frag_threshold: float,
                      patch_size: int) -> list[dict]:
    """The step log of a generation run over the (L, 6) plan ``order``,
    without sampling; ``coverage`` is the (6, N) frame coverage of ``cond``.

    The log holds provenance and token counts, never content, so every
    source reads ``cond`` and no pixel is projected; the entries equal
    ``generate_all``'s.
    """
    return [_log_entry(bundle, cond.shape[2], patch_size)
            for bundle in plan_contexts(
                cond, coverage, order, cond, history_capacity=history_capacity,
                frag_length=frag_length, frag_threshold=frag_threshold)]


@dataclass
class GenerationResult:
    pool_trace: list               # completed windows in the history after each step
    step_log: list
    step_timings: list
    peak_frames: int               # most generated frames the loop held at once

    @property
    def resident_trace(self) -> list:
        return [entry["resident_latents"] for entry in self.step_log]

    @property
    def peak_resident(self) -> int:
        return max(self.resident_trace, default=0)


def generate_all(cond_video: CubemapVideo, coverage: np.ndarray,
                 order: np.ndarray, denoiser, *, steps: int, seed: int,
                 pad: int, history_capacity: int, frag_length: int,
                 frag_threshold: float, patch_size: int, teacher=None,
                 on_window=None, executor=None) -> GenerationResult:
    """Run every step of the (L, 6) plan ``order`` window-major, each in
    ``steps`` Euler steps, composing the (N, 6, R, R, C) cube video of
    ``cond_video``'s shape; ``coverage`` is its (6, N) frame coverage.
    Callers receive the video through ``on_window``; the result holds the
    run's logs, not its frames.

    Step ``i`` samples from noise drawn with the seed
    ``SeedSequence((seed, i))``, into one of two buffers used in turn.  hist
    and curr-gen context reads the generated frames, or ``teacher`` when it
    is given (teacher forcing).

    ``executor``, when given, draws each step's noise one step ahead: at
    step ``i`` the draw for step ``i + 1`` is submitted to it.  A draw the
    executor has not started when its step begins (its worker is busy) is
    cancelled and drawn here instead; one already running is waited for.
    The noise is the same array either way.

    ``on_window(start, end, frames)``, when given, is called once per window,
    in order, after its six faces are blended, with ``frames`` the sequence
    of its ``end - start`` (6, R, R, C) frames.  Blending writes only frames
    of the current window, so these are final: a caller may read them from
    another thread while later windows are sampled, but must not write them.

    Each frame is allocated zeroed when its window starts.  The loop drops
    it after ``on_window`` under teacher forcing, and otherwise once it has
    left the history of the next window, so the loop holds at most
    ``(history_capacity + 1) * T`` frames (``GenerationResult.peak_frames``).
    A context read of a frame the loop does not hold raises ``RuntimeError``.
    """
    n, _, r, _, c = cond_video.shape
    length = _check_plan(order, n)
    # Frames start as zero pages, not as copies of the conditional: every
    # window names all six faces (the plan check), each face's core is
    # assigned wholesale before anything reads it, and strips blended into a
    # face not yet generated are overwritten by its core.
    held = {}  # frame index -> its (6, R, R, C) array, while the loop holds it

    def read_held(t: int, out: np.ndarray) -> None:
        if t not in held:
            raise RuntimeError(f"generated frame {t} is not held: its window "
                               f"has not started or it was released")
        np.copyto(out, held[t])

    source = CubemapVideo(cond_video.shape, read_held) if teacher is None else teacher
    # frames a finished window keeps for the next window's history
    kept = 0 if teacher is not None else history_capacity * length
    num_steps = np.size(order)
    # Every step samples one padded face window.
    buffers = [np.empty((length, r + 2 * pad, r + 2 * pad, c)) for _ in range(2)]

    def noise(i: int) -> np.ndarray:
        return _draw_noise(_step_seed(seed, i), buffers[i % 2])

    pool_trace, step_log, step_timings = [], [], []
    peak_frames = 0
    ahead = None  # the future of the next step's noise
    t_end = time.perf_counter()
    for i, bundle in enumerate(plan_contexts(
            cond_video, coverage, order, source, history_capacity=history_capacity,
            frag_length=frag_length, frag_threshold=frag_threshold)):
        if i % 6 == 0:  # the window's first face
            window = [_fresh_frame(cond_video.shape[1:]) for _ in range(length)]
            held.update(zip(range(bundle.start, bundle.end), window))
            peak_frames = max(peak_frames, len(held))
        z = noise(i) if ahead is None or ahead.cancel() else ahead.result()
        ahead = (executor.submit(noise, i + 1)
                 if executor is not None and i + 1 < num_steps else None)
        generate_step(window, bundle, denoiser, z, steps, pad)
        step_log.append(_log_entry(bundle, r, patch_size))
        pool_trace.append(min(history_capacity, (i + 1) // 6))
        if i % 6 == 5:  # the window's last face
            if on_window is not None:
                on_window(bundle.start, bundle.end, window)
            for t in range(bundle.start - kept, bundle.end - kept):
                held.pop(t, None)
            del window
        t_begin, t_end = t_end, time.perf_counter()
        step_timings.append(t_end - t_begin)

    return GenerationResult(pool_trace=pool_trace, step_log=step_log,
                            step_timings=step_timings, peak_frames=peak_frames)


def _step_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# built-in denoisers beyond the plain oracle
# ---------------------------------------------------------------------------

def target_denoiser(target):
    """The denoiser whose x̂0 is ``target(face, start, end)``, the padded
    face window of the step the context bundle names, read once per plan
    step and dropped before the next step's is read."""
    cached = {}

    def denoise(z_t, t, context):
        key = (context.face, context.start, context.end)
        if key not in cached:
            cached.clear()
            cached[key] = target(*key)
        return cached[key]

    return denoise


def padded_target_denoiser(video, pad: int):
    """:func:`target_denoiser` toward the padded face window of ``video``;
    given the masked conditional, it is the copy baseline.  Each window
    ``video[start:end]`` is read once, dropped before the next is read, and
    padded once per plan step."""
    window = {}

    def target(face, start, end):
        if (start, end) not in window:
            window.clear()
            window[start, end] = video[start:end]
        return pad_face(window[start, end], face, pad)

    return target_denoiser(target)
