"""Bounded history pool and three-part context assembly.

Each generation step conditions on [history; current-window; future-fragment]
token sources, in that order.  History holds up to H completed windows
(oldest evicted first).  Future fragments are the nearest fully-inside spans
of conditional input, on the current face and its neighbors, whose
short-horizon coverage clears the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .faces import FACES, FACE_INDEX, adjacent_faces
from .planner import FrameCoverage

__all__ = [
    "ContextPool",
    "FragmentSpec",
    "TokenSource",
    "ContextBundle",
    "WindowState",
    "pool_push",
    "short_horizon_coverage",
    "select_future_fragments",
    "assemble_context",
]


@dataclass(frozen=True)
class ContextPool:
    """FIFO store of completed windows: entries are (window index, content).

    ``content`` maps face -> (T_win, R, R, C) video.  Never holds more than
    ``capacity`` entries; pushes must come in increasing window order.
    """

    capacity: int
    entries: tuple = ()

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")

    @property
    def windows(self) -> tuple:
        return tuple(w for w, _ in self.entries)


def pool_push(pool: ContextPool, window: int, content: dict) -> ContextPool:
    """Append a completed window, evicting the oldest beyond capacity."""
    if pool.entries and window <= pool.entries[-1][0]:
        raise ValueError(
            f"window {window} pushed out of order (last was {pool.entries[-1][0]})")
    if missing := set(FACES) - set(content):
        raise ValueError(f"window content missing faces {sorted(missing)}")
    entries = pool.entries + ((window, dict(content)),)
    if len(entries) > pool.capacity:
        entries = entries[len(entries) - pool.capacity:] if pool.capacity else ()
    return ContextPool(capacity=pool.capacity, entries=entries)


@dataclass(frozen=True)
class FragmentSpec:
    """A qualifying future span: face, start frame tau*, and length."""

    face: str
    start: int
    length: int


def short_horizon_coverage(fc: FrameCoverage, face: str, start: int,
                           length: int) -> float:
    """Mean coverage of ``face`` over frames [start, start+length)."""
    n = fc.values.shape[1]
    if length < 1:
        raise ValueError("fragment length must be >= 1")
    if start < 0 or start + length > n:
        raise ValueError(f"horizon [{start}, {start + length}) exceeds [0, {n})")
    return float(fc.values[FACE_INDEX[face], start:start + length].mean())


def select_future_fragments(fc: FrameCoverage, face: str, window_end: int,
                            frag_length: int, threshold: float,
                            num_frames: int) -> list[FragmentSpec]:
    """Earliest qualifying fragment per face in {face} + neighbors.

    For each candidate face, tau* is the minimal start >= window_end whose
    short-horizon coverage reaches ``threshold`` with the horizon fully
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
            if short_horizon_coverage(fc, g, tau, frag_length) >= threshold:
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
    content: np.ndarray  # (end-start, R, R, C)

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


@dataclass
class WindowState:
    """Progress through one window: which faces are generated, in order."""

    window: int
    start: int
    end: int
    generated: dict = field(default_factory=dict)  # face -> (T_win, R, R, C)
    order: list = field(default_factory=list)

    def mark_generated(self, face: str, content: np.ndarray) -> None:
        if face in self.generated:
            raise ValueError(f"face {face} already generated in window {self.window}")
        self.generated[face] = content
        self.order.append(face)


def assemble_context(pool: ContextPool, state: WindowState, face: str,
                     fragments: list[FragmentSpec], cond: np.ndarray) -> ContextBundle:
    """Build the [hist; curr; fut] bundle for generating ``face``.

    ``cond`` is the (N, 6, R, R, C) conditional video.  curr holds the
    window's generated faces in generation order, then conditional inputs for
    the ungenerated faces (current one included) in canonical order.
    """
    s, e = state.start, state.end
    hist = tuple(
        TokenSource(kind="hist", face=f,
                    start=(w - 1) * (e - s), end=w * (e - s),
                    content=content[f])
        for w, content in pool.entries for f in FACES)

    curr = [TokenSource(kind="curr-gen", face=f, start=s, end=e,
                        content=state.generated[f]) for f in state.order]
    for f in FACES:
        if f not in state.generated:
            curr.append(TokenSource(kind="curr-cond", face=f, start=s, end=e,
                                    content=_cond_slice(cond, f, s, e)))

    fut = tuple(TokenSource(kind="fut", face=fr.face, start=fr.start,
                            end=fr.start + fr.length,
                            content=_cond_slice(cond, fr.face, fr.start,
                                                fr.start + fr.length))
                for fr in fragments)
    return ContextBundle(face=face, window=state.window, start=s, end=e,
                         hist=hist, curr=tuple(curr), fut=fut)


def _cond_slice(cond: np.ndarray, face: str, start: int, end: int) -> np.ndarray:
    if cond.shape[0] < end:
        raise RuntimeError(
            f"conditional content for face {face} frames [{start}, {end}) unavailable")
    return cond[start:end, FACE_INDEX[face]]
