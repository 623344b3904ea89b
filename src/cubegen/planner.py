"""Window partitioning and the coverage-guided generation order.

Frames are split into equal windows; per-face coverage is averaged over each
window and faces are generated in descending-coverage order, window-major.
Windows are 1-indexed; frame indices are 0-based half-open ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faces import FACES, FACE_INDEX

__all__ = [
    "WindowPartition",
    "FrameCoverage",
    "CoverageTable",
    "PlanStep",
    "GenerationPlan",
    "partition_windows",
    "frame_coverage",
    "window_coverage",
    "plan_order",
]


@dataclass(frozen=True)
class WindowPartition:
    """Equal-length partition of [0, N) into L windows of T_win frames."""

    num_frames: int
    window_length: int
    windows: tuple  # ((s_1, e_1), ..., (s_L, e_L)), 0-based half-open

    @property
    def num_windows(self) -> int:
        return len(self.windows)


@dataclass(frozen=True)
class FrameCoverage:
    """Per-face, per-frame observed fraction; values[face_idx, t] in [0, 1]."""

    values: np.ndarray  # (6, N)

    def value(self, face: str, t: int) -> float:
        return float(self.values[FACE_INDEX[face], t])


@dataclass(frozen=True)
class CoverageTable:
    """Per-face, per-window mean coverage; values[face_idx, w-1] in [0, 1]."""

    values: np.ndarray  # (6, L)

    def value(self, face: str, window: int) -> float:
        return float(self.values[FACE_INDEX[face], window - 1])


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GenerationPlan":
        steps = tuple(PlanStep(d["face"], int(d["s"]), int(d["e"])) for d in obj["steps"])
        return cls(steps=steps)


def partition_windows(num_frames: int, window_length: int) -> WindowPartition:
    """Split N frames into windows of exactly ``window_length`` frames."""
    if window_length < 1:
        raise ValueError(f"window length must be >= 1, got {window_length}")
    if num_frames < 1 or num_frames % window_length:
        raise ValueError(
            f"frame count {num_frames} is not a positive multiple of "
            f"window length {window_length}; pad or trim the input first")
    l = num_frames // window_length
    windows = tuple((w * window_length, (w + 1) * window_length) for w in range(l))
    return WindowPartition(num_frames=num_frames, window_length=window_length,
                           windows=windows)


def frame_coverage(masks: np.ndarray) -> FrameCoverage:
    """Spatial mean of each binary face mask; ``masks`` is (N, 6, R, R)."""
    m = np.asarray(masks)
    if m.ndim != 4 or m.shape[1] != 6:
        raise ValueError(f"masks must be (N, 6, R, R), got {m.shape}")
    if not ((m == 0) | (m == 1)).all():
        raise ValueError("masks must be binary")
    return FrameCoverage(values=m.reshape(m.shape[0], 6, -1).mean(axis=2).T.copy())


def window_coverage(fc: FrameCoverage, wp: WindowPartition) -> CoverageTable:
    """Temporal mean of frame coverage over each window."""
    if fc.values.shape[1] < wp.num_frames:
        raise ValueError("coverage does not span all frames of the partition")
    cols = [fc.values[:, s:e].mean(axis=1) for s, e in wp.windows]
    return CoverageTable(values=np.stack(cols, axis=1))


def plan_order(ct: CoverageTable, wp: WindowPartition) -> GenerationPlan:
    """Window-major steps; faces sorted by descending coverage per window.

    Equal coverage resolves to the canonical order F,R,B,L,U,D, so plans are
    deterministic for identical inputs.
    """
    if ct.values.shape[1] != wp.num_windows:
        raise ValueError("coverage table does not match the window partition")
    steps = []
    for w, (s, e) in enumerate(wp.windows):
        order = sorted(FACES, key=lambda f: (-ct.values[FACE_INDEX[f], w], FACE_INDEX[f]))
        steps.extend(PlanStep(f, s, e) for f in order)
    return GenerationPlan(steps=tuple(steps))
