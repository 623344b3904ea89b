"""Reachability guard: every public function and method of ``src/cubegen``
runs in some subcommand, or is on a short allowlist that says why not.

Each subcommand runs in-process at R=16 under ``sys.setprofile`` and
``threading.setprofile``, so work on ``generate``'s side thread counts too.
The runs cover the synthetic scene (oracle with teacher forcing), PFM input
with one channel and the copy denoiser, PPM input with the zero denoiser,
``attend-bench`` with timed trials and the dry-run.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import threading

import cubegen
from cubegen import cli
from cubegen import scene as sc
from cubegen.config import config_from_dict
from cubegen.imgio import write_pfm, write_poses, write_ppm

# name -> why no subcommand reaches it
ALLOWLIST = {
    "continuity.face_position_grid": "acceptance criterion 7",
    "continuity.corner_cycle_identity": "acceptance criterion 6",
    "geometry.equirect_to_cubemap": "acceptance criterion 1",
    "geometry.direction_to_equirect_pixel": "acceptance criterion 1, via "
                                            "equirect_to_cubemap",
    "geometry.frustum_solid_angle": "acceptance criterion 1",
    "context.TokenSource.content": "no built-in denoiser reads context; the "
                                   "attention denoiser planned on the ROADMAP will",
    "continuity.cube_layout_json": "keeps docs/cube_layout.json in sync",
    "scene.render_equirect_video": "perfbench's in-frustum copy check",
    "geometry.face_pixel_solid_angles": "the solid-angle weights of the "
                                        "quality metrics planned on the ROADMAP",
    "pipeline.oracle_denoiser": "acceptance criterion 8",
    "scene.synth_scene": "the scene's inputs and truth in one call, for "
                         "perfbench's and CI's file input",
}

SMALL = {
    "resolution": 16, "equirect_width": 64, "num_frames": 8,
    "window_length": 4, "history": 2, "frag_length": 4,
    "frag_threshold": 0.5, "patch_size": 8, "pad": 2,
    "sampler_steps": 2, "seed": 3, "channels": 3,
    "mode": {"teacher_forcing": True, "denoiser": "oracle"},
}


def public_code() -> dict:
    """Code object -> "module.name" of every public function, method,
    property and cached property defined in ``src/cubegen``."""
    found = {}
    for info in pkgutil.iter_modules(cubegen.__path__):
        mod = importlib.import_module(f"cubegen.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                # classmethod, property, cached_property, lru_cache: the function
                fn = inspect.unwrap(getattr(member, "__func__", None)
                                    or getattr(member, "fget", None)
                                    or getattr(member, "func", None) or member)
                if inspect.isfunction(fn):
                    found[fn.__code__] = f"{info.name}.{name}" + (f".{attr}" if attr else "")
    return found


def clear_caches() -> None:
    """Empty every function cache of ``src/cubegen``, private ones too: a
    call served from a cache skips the body it would otherwise reach."""
    for info in pkgutil.iter_modules(cubegen.__path__):
        for obj in vars(importlib.import_module(f"cubegen.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def write_config(path, **overrides):
    path.write_text(json.dumps({**SMALL, **overrides}))
    return path


def file_input(tmp_path, name, channels, writer, suffix):
    """Frames and poses of the small scene as files, and a config reading
    them."""
    frames_dir = tmp_path / name
    frames_dir.mkdir()
    _, frames, poses = sc.synth_scene(config_from_dict({**SMALL, "channels": channels}))
    for t, frame in enumerate(frames):
        writer(frames_dir / f"input_{t:03d}{suffix}", frame.pixels)
    write_poses(frames_dir / "poses.json", poses)
    return {"paths": {"frames_dir": str(frames_dir),
                      "poses": str(frames_dir / "poses.json")},
            "channels": channels}


def runs(tmp_path) -> list:
    synthetic = write_config(tmp_path / "synthetic.json")
    pfm = write_config(tmp_path / "pfm.json",
                       **file_input(tmp_path, "pfm", 1, write_pfm, ".pfm"),
                       mode={"teacher_forcing": False, "denoiser": "copy"})
    ppm = write_config(tmp_path / "ppm.json",
                       **file_input(tmp_path, "ppm", 3, write_ppm, ".ppm"),
                       mode={"teacher_forcing": False, "denoiser": "zero"})
    argv = []
    for cfg in (synthetic, pfm, ppm):
        for sub in ("project", "plan", "context", "metrics", "generate"):
            argv.append([sub, "--config", cfg, "--out", tmp_path / cfg.stem / sub])
    argv.append(["generate", "--dry-run", "--config", synthetic,
                 "--out", tmp_path / "dry-run"])
    argv.append(["attend-bench", "--config", synthetic, "--trials", "1",
                 "--head-dim", "4", "--out", tmp_path / "bench"])
    return [[str(a) for a in args] for args in argv]


def reached(argvs) -> set:
    """Code objects called on any thread while the subcommands run."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    clear_caches()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def test_every_public_function_runs_or_is_allowlisted(tmp_path):
    code = public_code()
    assert set(ALLOWLIST) <= set(code.values()), "allowlist names a missing function"
    seen = reached(runs(tmp_path))
    unreached = sorted(name for c, name in code.items()
                       if c not in seen and name not in ALLOWLIST)
    assert not unreached, f"no subcommand reaches {unreached}"
    stale = sorted(name for c, name in code.items() if c in seen and name in ALLOWLIST)
    assert not stale, f"allowlisted, but a subcommand reaches {stale}"
