"""Three-part context assembly over the one cube video.

Each generation step conditions on [history; current-window; future-fragment]
token sources, in that order.  History is the last H completed windows,
oldest dropped first; it is plan arithmetic (:func:`history_windows`), not a
store.  Future fragments are the nearest fully-inside spans of conditional
input, on the current face and its neighbors, whose short-horizon coverage
clears the threshold.

A source holds its video and frame range, and its content reads them on
access: a copy of the generated frames the loop holds, or the teacher's
frames, computed by each read, for history and generated current-window
faces; the conditional input, whose frames are projected by each read, for
the others and the fragments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faces import FACES, FACE_INDEX, adjacent_faces

__all__ = [
    "FragmentSpec",
    "TokenSource",
    "ContextBundle",
    "history_windows",
    "short_horizon_coverage",
    "select_future_fragments",
    "assemble_context",
]


def history_windows(window: int, capacity: int) -> range:
    """1-based indices of the completed windows the FIFO history holds while
    ``window`` is generated: the last ``capacity`` of them."""
    if capacity < 0:
        raise ValueError(f"history capacity must be >= 0, got {capacity}")
    return range(max(1, window - capacity), window)


@dataclass(frozen=True)
class FragmentSpec:
    """A qualifying future span: face, start frame tau*, and length."""

    face: str
    start: int
    length: int


def short_horizon_coverage(coverage: np.ndarray, face: str, start: int,
                           length: int) -> float:
    """Mean of the (6, N) frame coverage of ``face`` over frames
    [start, start+length)."""
    n = coverage.shape[1]
    if length < 1:
        raise ValueError("fragment length must be >= 1")
    if start < 0 or start + length > n:
        raise ValueError(f"horizon [{start}, {start + length}) exceeds [0, {n})")
    return float(coverage[FACE_INDEX[face], start:start + length].mean())


def select_future_fragments(coverage: np.ndarray, face: str, window_end: int,
                            frag_length: int, threshold: float,
                            num_frames: int) -> list[FragmentSpec]:
    """Earliest qualifying fragment per face in {face} + neighbors.

    For each candidate face, tau* is the minimal start >= window_end whose
    short-horizon coverage (of the (6, N) frame ``coverage``) reaches
    ``threshold`` with the horizon fully
    inside [0, num_frames).  Faces with no qualifying start are omitted.
    Output order: current face first, then neighbors in canonical order.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    if frag_length < 1:
        raise ValueError("fragment length must be >= 1")
    out = []
    for g in (face, *adjacent_faces(face)):
        for tau in range(window_end, num_frames - frag_length + 1):
            if short_horizon_coverage(coverage, g, tau, frag_length) >= threshold:
                out.append(FragmentSpec(face=g, start=tau, length=frag_length))
                break
    return out


@dataclass(frozen=True)
class TokenSource:
    """One contiguous block of context content with its provenance."""

    kind: str  # "hist" | "curr-gen" | "curr-cond" | "fut"
    face: str
    start: int
    end: int
    video: object  # an (N, 6, R, R, C) array or a CubemapVideo

    @property
    def content(self) -> np.ndarray:
        """(end-start, R, R, C) pixels of the face, read from the video now."""
        return self.video[self.start:self.end][:, FACE_INDEX[self.face]]

    def provenance(self) -> dict:
        return {"kind": self.kind, "face": self.face, "s": self.start, "e": self.end}


@dataclass(frozen=True)
class ContextBundle:
    """Ordered token sources for one step: [hist; curr; fut]."""

    face: str
    window: int
    start: int
    end: int
    hist: tuple
    curr: tuple
    fut: tuple

    @property
    def sources(self) -> tuple:
        return self.hist + self.curr + self.fut

    def provenance(self) -> list[dict]:
        return [s.provenance() for s in self.sources]


def assemble_context(source, cond, face: str, s: int, e: int, done: tuple,
                     capacity: int, fragments: list[FragmentSpec]) -> ContextBundle:
    """Build the [hist; curr; fut] bundle for generating ``face`` over the
    window of frames [s, e).

    ``source`` is the (N, 6, R, R, C) video being composed, or the teacher,
    and ``cond`` the conditional one; ``done`` names the faces of the window
    generated before ``face``, in generation order.  hist reads ``source``
    over the last ``capacity`` windows, all six faces each.  curr holds the
    done faces from ``source``, then the conditional input of the others
    (current face included) in canonical order.  fut reads ``cond`` over
    ``fragments``.

    No content is read here.  Where ``source`` is the generated video (a
    run without teacher forcing), a hist or curr-gen content read later
    shows the faces as the output does: with the ramp blends that faces
    generated later in the same window wrote into their border strips.  A
    read after the loop has dropped the frames raises ``RuntimeError``.
    """
    length = e - s
    window = s // length + 1
    hist = tuple(_source("hist", source, f, (w - 1) * length, w * length)
                 for w in history_windows(window, capacity) for f in FACES)
    curr = tuple(_source("curr-gen", source, f, s, e) for f in done)
    curr += tuple(_source("curr-cond", cond, f, s, e)
                  for f in FACES if f not in done)
    fut = tuple(_source("fut", cond, fr.face, fr.start, fr.start + fr.length)
                for fr in fragments)
    return ContextBundle(face=face, window=window, start=s, end=e,
                         hist=hist, curr=curr, fut=fut)


def _source(kind: str, video, face: str, start: int, end: int) -> TokenSource:
    if video.shape[0] < end:
        raise RuntimeError(
            f"content for face {face} frames [{start}, {end}) unavailable")
    return TokenSource(kind=kind, face=face, start=start, end=end, video=video)
