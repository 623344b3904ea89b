"""Run configuration: parsing, validation, and desk/paper-scale presets."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from functools import reduce
from pathlib import Path

__all__ = ["SceneConfig", "ModeConfig", "PathsConfig", "RunConfig",
           "parse_config", "config_from_dict", "default_config",
           "paper_geometry_config", "ConfigError"]

DENOISERS = ("oracle", "copy", "zero")
PROTOCOLS = ("free", "paper")
# Types are checked before any range: JSON's 64.0 parses as a float and its
# true as a bool, which Python counts as an int; both pass a range check.
_INT_FIELDS = ("resolution", "equirect_width", "num_frames", "window_length",
               "history", "frag_length", "patch_size", "bandwidth", "pad",
               "sampler_steps", "seed", "channels", "scene.anchors")
_REAL_FIELDS = ("frag_threshold", "scene.hfov_deg", "scene.vfov_deg")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class SceneConfig:
    protocol: str = "free"
    anchors: int = 2
    hfov_deg: float = 90.0
    vfov_deg: float = 45.0


@dataclass(frozen=True)
class ModeConfig:
    teacher_forcing: bool = False
    denoiser: str = "oracle"


@dataclass(frozen=True)
class PathsConfig:
    frames_dir: str | None = None
    poses: str | None = None


@dataclass(frozen=True)
class RunConfig:
    resolution: int = 64
    equirect_width: int = 256
    num_frames: int = 8
    window_length: int = 4
    history: int = 2
    frag_length: int = 4
    frag_threshold: float = 0.5
    patch_size: int = 8
    bandwidth: int | None = None     # default: one face's spatial token count
    pad: int | None = None           # default: resolution // 16
    sampler_steps: int = 4
    seed: int = 0
    channels: int = 3
    scene: SceneConfig = field(default_factory=SceneConfig)
    mode: ModeConfig = field(default_factory=ModeConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self):
        for name in _INT_FIELDS + _REAL_FIELDS:
            value = reduce(getattr, name.split("."), self)
            if value is None and name in ("bandwidth", "pad"):
                continue  # derived below
            kinds = int if name in _INT_FIELDS else (int, float)
            _require(isinstance(value, kinds) and not isinstance(value, bool), name,
                     "must be an integer" if kinds is int else "must be a number")
        _require(isinstance(self.mode.teacher_forcing, bool), "mode.teacher_forcing",
                 "must be true or false")
        _require(self.resolution >= 4, "resolution", "must be >= 4")
        _require(self.equirect_width == 4 * self.resolution, "equirect_width",
                 f"must equal 4 * resolution = {4 * self.resolution}")
        _require(self.num_frames >= 1, "num_frames", "must be >= 1")
        _require(self.window_length >= 1, "window_length", "must be >= 1")
        _require(self.num_frames % self.window_length == 0, "num_frames",
                 f"must be divisible by window_length={self.window_length}")
        _require(self.history >= 0, "history", "must be >= 0")
        _require(self.frag_length >= 1, "frag_length", "must be >= 1")
        _require(0.0 < self.frag_threshold <= 1.0, "frag_threshold",
                 "must lie in (0, 1]")
        _require(self.patch_size >= 1, "patch_size", "must be >= 1")
        _require(self.resolution % self.patch_size == 0, "patch_size",
                 f"must divide resolution={self.resolution}")
        _require(self.sampler_steps >= 1, "sampler_steps", "must be >= 1")
        _require(self.channels >= 1, "channels", "must be >= 1")

        if self.bandwidth is None:
            object.__setattr__(self, "bandwidth",
                               (self.resolution // self.patch_size) ** 2)
        _require(self.bandwidth >= 1, "bandwidth", "must be >= 1")
        if self.pad is None:
            object.__setattr__(self, "pad", max(1, self.resolution // 16))
        _require(1 <= self.pad <= self.resolution // 2, "pad",
                 f"must lie in [1, {self.resolution // 2}]")

        _require(self.mode.denoiser in DENOISERS, "mode.denoiser",
                 f"must be one of {DENOISERS}")
        _require(self.scene.protocol in PROTOCOLS, "scene.protocol",
                 f"must be one of {PROTOCOLS}")
        _require(self.scene.anchors >= 2, "scene.anchors", "must be >= 2")
        for name, fov in (("scene.hfov_deg", self.scene.hfov_deg),
                          ("scene.vfov_deg", self.scene.vfov_deg)):
            _require(0.0 < fov < 180.0, name, "must lie in (0, 180)")
        if self.scene.protocol == "paper":
            _require(3 <= self.scene.anchors <= 5, "scene.anchors",
                     "must lie in [3, 5] under the paper trajectory protocol")
            for name, fov in (("scene.hfov_deg", self.scene.hfov_deg),
                              ("scene.vfov_deg", self.scene.vfov_deg)):
                _require(60.0 <= fov <= 120.0, name,
                         "must lie in [60, 120] under the paper trajectory protocol")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _require(ok: bool, name: str, constraint: str):
    if not ok:
        raise ConfigError(f"config field '{name}' {constraint}")


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    kwargs = dict(obj)
    try:
        if "scene" in kwargs:
            kwargs["scene"] = SceneConfig(**kwargs["scene"])
        if "mode" in kwargs:
            kwargs["mode"] = ModeConfig(**kwargs["mode"])
        if "paths" in kwargs:
            kwargs["paths"] = PathsConfig(**kwargs["paths"])
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


def default_config(**overrides) -> RunConfig:
    """Desk-scale defaults (R=64, N=8, 2 windows); see the README table."""
    return config_from_dict(overrides)


def paper_geometry_config(**overrides) -> RunConfig:
    """4K shape preset (R=960, W=3840) for dry runs; do not allocate frames."""
    base = {
        "resolution": 960,
        "equirect_width": 3840,
        "num_frames": 8,
        "window_length": 4,
        "scene": {"protocol": "paper", "anchors": 3,
                  "hfov_deg": 90.0, "vfov_deg": 60.0},
    }
    base.update(overrides)
    return config_from_dict(base)
