"""Per-face coverage and the coverage-guided generation order.

A plan is an (L, 6) integer array: row w lists the face indices of window w
in generation order, and window w covers frames [w*T, (w+1)*T), T = N / L.
Faces are generated in descending-coverage order, window-major.  Coverage
is a plain array with one row per face in canonical order: (6, N) per
frame, (6, L) per window.
"""

from __future__ import annotations

import numpy as np

from .faces import FACES

__all__ = [
    "frame_coverage",
    "window_coverage",
    "plan_order",
    "plan_steps",
]


def frame_coverage(masks: np.ndarray) -> np.ndarray:
    """(6, N) observed fraction of each face in each frame, in [0, 1]: the
    spatial mean of each binary face mask; ``masks`` is (N, 6, R, R)."""
    m = np.asarray(masks)
    if m.ndim != 4 or m.shape[1] != 6 or m.shape[2] != m.shape[3]:
        raise ValueError(f"masks must be (N, 6, R, R), got {m.shape}")
    if not all(((f == 0) | (f == 1)).all() for f in m):  # a frame at a time
        raise ValueError("masks must be binary")
    return m.reshape(m.shape[0], 6, -1).mean(axis=2).T.copy()


def window_coverage(coverage: np.ndarray, window_length: int) -> np.ndarray:
    """(6, L) temporal mean of the (6, N) frame coverage over each window of
    ``window_length`` frames."""
    n = coverage.shape[1]
    if window_length < 1 or n % window_length:
        raise ValueError(f"frame count {n} is not a multiple of window length "
                         f"{window_length}")
    return coverage.reshape(6, n // window_length, window_length).mean(axis=2)


def plan_order(coverage: np.ndarray) -> np.ndarray:
    """(L, 6) plan: each window's faces by descending (6, L) window coverage.

    The stable sort resolves equal coverage to the canonical order
    F,R,B,L,U,D, so plans are deterministic for identical inputs.
    """
    return np.argsort(-coverage.T, axis=1, kind="stable")


def plan_steps(order: np.ndarray, window_length: int) -> list[dict]:
    """The (L, 6) plan as its window-major ``{"face", "s", "e"}`` steps."""
    return [{"face": FACES[f], "s": w * window_length, "e": (w + 1) * window_length}
            for w, row in enumerate(order) for f in row]
