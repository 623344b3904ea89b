"""Deterministic synthetic scenes: a band-limited spherical field that spins
slowly over time, analytically evaluable at any direction and frame.  Serves
as the ground-truth oracle for end-to-end tests and CLI demos.  Both of a
scene's videos are computed when read, frame by frame: the ground-truth
cube video (:class:`cubegen.geometry.CubemapVideo`) and the perspective
input along the camera trajectory (:class:`SceneFrames`); so is the
oracle's target, one face's padded window (``padded_face_video``)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .continuity import pad_face
from .geometry import (
    CameraPose,
    CubemapVideo,
    PerspectiveFrame,
    equirect_pixel_to_direction,
    face_directions,
    frustum_masks,
    project_perspective_to_cubemap,
    rotvec_to_matrix,
    sample_trajectory,
)

__all__ = ["SyntheticScene", "SceneFrames", "synth_inputs", "synth_scene",
           "render_equirect_video"]

# Quadratic direction-polynomial basis, each term scaled to max 1 on the sphere.
_BASIS = (
    lambda x, y, z: x,
    lambda x, y, z: y,
    lambda x, y, z: z,
    lambda x, y, z: 2.0 * x * y,
    lambda x, y, z: 2.0 * y * z,
    lambda x, y, z: 2.0 * x * z,
    lambda x, y, z: x * x - y * y,
    lambda x, y, z: (3.0 * z * z - 1.0) / 2.0,
)


@dataclass(frozen=True)
class SyntheticScene:
    """value(d, t) = 0.5 + sum_i coeffs[c, i] * basis_i(spin(-t) d), in [0,1]."""

    coeffs: np.ndarray      # (channels, 8), sum of |coeffs| per channel <= 0.45
    spin_axis: np.ndarray   # unit 3-vector
    spin_per_frame: float   # radians

    @classmethod
    def random(cls, channels: int, seed: int, spin_per_frame: float = 0.05):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        raw = rng.uniform(-1.0, 1.0, size=(channels, len(_BASIS)))
        raw *= 0.45 / np.abs(raw).sum(axis=1, keepdims=True)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        return cls(coeffs=raw, spin_axis=axis, spin_per_frame=spin_per_frame)

    def value(self, directions: np.ndarray, frame: int) -> np.ndarray:
        """Evaluate the field at unit directions for one frame; (..., C)."""
        rot = rotvec_to_matrix(-frame * self.spin_per_frame * self.spin_axis)
        # x, y and z, and the basis planes after them, each contiguous along
        # a leading axis: elementwise work on strided planes costs about 2x,
        # and interleaving them into a (..., 8) stack costs more
        x, y, z = np.moveaxis(directions @ rot.T, -1, 0).copy()
        basis = np.empty((len(_BASIS), *x.shape))
        for plane, b in zip(basis, _BASIS):
            plane[...] = b(x, y, z)
        return 0.5 + np.moveaxis(basis, 0, -1) @ self.coeffs.T

    def cubemap_video(self, resolution: int, num_frames: int) -> CubemapVideo:
        """The (N, 6, R, R, C) cube video of the field; a read computes the
        frames it names, so nothing holds the whole video."""
        return CubemapVideo((num_frames, 6, resolution, resolution,
                             len(self.coeffs)), self.cubemap_frame)

    def cubemap_frame(self, frame: int, out: np.ndarray) -> None:
        """Write the (6, R, R, C) cube faces of one frame into ``out``, one
        face at a time."""
        dirs = face_directions(out.shape[1])
        for i in range(6):
            out[i] = self.value(dirs[i], frame)

    def padded_face_video(self, resolution: int, pad: int, face: str,
                          start: int, end: int) -> np.ndarray:
        """Frames [start, end) of ``face`` padded by ``pad``, evaluated a frame
        at a time on the padded grid's directions: byte for byte ``pad_face``
        of the cube video's window, without the window."""
        dirs = pad_face(face_directions(resolution)[None], face, pad)[0]
        out = np.empty((end - start, *dirs.shape[:2], len(self.coeffs)))
        for k in range(end - start):
            out[k] = self.value(dirs, start + k)
        return out

    def perspective_frame(self, pose: CameraPose, height: int, width: int,
                          frame: int) -> PerspectiveFrame:
        tan_h = np.tan(np.radians(pose.hfov_deg) / 2.0)
        tan_v = np.tan(np.radians(pose.vfov_deg) / 2.0)
        jj, ii = np.meshgrid(np.arange(width), np.arange(height), indexing="xy")
        cam = np.stack([
            (2.0 * (jj + 0.5) / width - 1.0) * tan_h,
            -(2.0 * (ii + 0.5) / height - 1.0) * tan_v,
            np.ones_like(jj, dtype=np.float64),
        ], axis=-1)
        cam /= np.linalg.norm(cam, axis=-1, keepdims=True)
        world = cam @ pose.rotation.T
        return PerspectiveFrame(pixels=self.value(world, frame))


def _trajectory_anchors(cfg: RunConfig, rng: np.random.Generator) -> list[CameraPose]:
    """Anchor poses with bounded per-segment rotation so slerp stays defined."""
    anchors = []
    rot = np.eye(3)
    for k in range(cfg.scene.anchors):
        if k:
            vec = rng.normal(size=3)
            vec *= rng.uniform(0.15, 0.6) / np.linalg.norm(vec)
            rot = rot @ rotvec_to_matrix(vec)
        anchors.append(CameraPose(rot, cfg.scene.hfov_deg, cfg.scene.vfov_deg))
    return anchors


class SceneFrames(Sequence):
    """The perspective input of a synthetic scene along its poses, rendered
    when read: ``frames[t]`` renders frame ``t``'s :class:`PerspectiveFrame`
    each time, so a frame that nothing reads is never rendered."""

    def __init__(self, field: SyntheticScene, poses: list[CameraPose],
                 height: int, width: int):
        self.field, self.poses = field, poses
        self.height, self.width = height, width

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[k] for k in range(*t.indices(len(self)))]
        t = range(len(self))[t]  # IndexError past the end ends iteration
        return self.field.perspective_frame(self.poses[t], self.height,
                                            self.width, t)


def synth_inputs(cfg: RunConfig):
    """The config's scene field, plus the perspective input along a smooth
    trajectory, rendered when read, and its poses."""
    field = SyntheticScene.random(cfg.channels, cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    poses = sample_trajectory(_trajectory_anchors(cfg, rng), cfg.num_frames)
    frames = SceneFrames(field, poses, height=max(8, cfg.resolution // 2),
                         width=max(8, cfg.resolution))
    return field, frames, poses


def synth_scene(cfg: RunConfig):
    """Deterministic scene for a config: the ground-truth (N, 6, R, R, C)
    cube video and the perspective input along a smooth trajectory, each
    computed when read, and the poses."""
    field, frames, poses = synth_inputs(cfg)
    return field.cubemap_video(cfg.resolution, cfg.num_frames), frames, poses


def conditional_video(truth_resolution: int, frames, poses, channels: int):
    """The masked conditional of ``channels``-channel perspective frames:
    every frame's (N, 6, R, R) uint8 masks now, and the video whose read
    projects a frame's pixels from its masks, so a run that reads no pixel
    projects none.  Frame ``t`` is read, and so for :class:`SceneFrames`
    rendered, only by a read of the video that names it."""
    if len(frames) != len(poses):
        raise ValueError(f"{len(frames)} frames but {len(poses)} poses")
    r = truth_resolution
    masks = np.empty((len(poses), 6, r, r), np.uint8)
    for t, pose in enumerate(poses):
        masks[t] = frustum_masks(pose, r)
    return masks, CubemapVideo(
        (*masks.shape, channels),
        lambda t, out: project_perspective_to_cubemap(frames[t], poses[t],
                                                      masks[t], out))


def render_equirect_video(scene: SyntheticScene, width: int,
                          num_frames: int) -> np.ndarray:
    """(N, W/2, W, C) analytic ground-truth equirect frames."""
    u, v = np.meshgrid(np.arange(width), np.arange(width // 2), indexing="xy")
    dirs = equirect_pixel_to_direction(u, v, width)
    return np.stack([scene.value(dirs, t) for t in range(num_frames)])
