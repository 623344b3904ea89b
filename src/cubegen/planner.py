"""Window partitioning and the coverage-guided generation order.

Frames are split into equal windows; per-face coverage is averaged over each
window and faces are generated in descending-coverage order, window-major.
Windows are 1-indexed; frame indices are 0-based half-open ranges.
Coverage is a plain array with one row per face in canonical order: (6, N)
per frame, (6, L) per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faces import FACES, FACE_INDEX

__all__ = [
    "PlanStep",
    "GenerationPlan",
    "partition_windows",
    "frame_coverage",
    "window_coverage",
    "plan_order",
]


@dataclass(frozen=True)
class PlanStep:
    face: str
    start: int
    end: int


@dataclass(frozen=True)
class GenerationPlan:
    steps: tuple  # 6*L PlanStep entries, window-major

    def to_json_dict(self) -> dict:
        return {"steps": [{"face": s.face, "s": s.start, "e": s.end} for s in self.steps]}


def partition_windows(num_frames: int, window_length: int) -> tuple:
    """Split N frames into windows of exactly ``window_length`` frames:
    ``((s_1, e_1), ..., (s_L, e_L))``, 0-based half-open."""
    if window_length < 1:
        raise ValueError(f"window length must be >= 1, got {window_length}")
    if num_frames < 1 or num_frames % window_length:
        raise ValueError(
            f"frame count {num_frames} is not a positive multiple of "
            f"window length {window_length}; pad or trim the input first")
    return tuple((s, s + window_length) for s in range(0, num_frames, window_length))


def frame_coverage(masks: np.ndarray) -> np.ndarray:
    """(6, N) observed fraction of each face in each frame, in [0, 1]: the
    spatial mean of each binary face mask; ``masks`` is (N, 6, R, R)."""
    m = np.asarray(masks)
    if m.ndim != 4 or m.shape[1] != 6:
        raise ValueError(f"masks must be (N, 6, R, R), got {m.shape}")
    if not ((m == 0) | (m == 1)).all():
        raise ValueError("masks must be binary")
    return m.reshape(m.shape[0], 6, -1).mean(axis=2).T.copy()


def window_coverage(coverage: np.ndarray, windows: tuple) -> np.ndarray:
    """(6, L) temporal mean of the (6, N) frame coverage over each window."""
    if coverage.shape[1] < windows[-1][1]:
        raise ValueError("coverage does not span all frames of the partition")
    return np.stack([coverage[:, s:e].mean(axis=1) for s, e in windows], axis=1)


def plan_order(coverage: np.ndarray, windows: tuple) -> GenerationPlan:
    """Window-major steps; faces sorted by descending (6, L) window coverage
    per window.

    Equal coverage resolves to the canonical order F,R,B,L,U,D, so plans are
    deterministic for identical inputs.
    """
    if coverage.shape[1] != len(windows):
        raise ValueError("coverage table does not match the window partition")
    steps = []
    for w, (s, e) in enumerate(windows):
        order = sorted(FACES, key=lambda f: (-coverage[FACE_INDEX[f], w], FACE_INDEX[f]))
        steps.extend(PlanStep(f, s, e) for f in order)
    return GenerationPlan(steps=tuple(steps))
