"""Synthetic depth sensing for planar worlds.

A static pinhole camera with a single pixel row renders range images
against axis-aligned boxes. Depth values are ranges along pixel rays;
the point cloud is exactly the back-projection of the finite ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A point must be at least this much nearer than the sensed surface to
# count as visible; ties at the surface stay in-contact candidates.
VIS_MARGIN = 1e-4


@dataclass(frozen=True)
class Camera:
    """Static planar pinhole camera.

    yaw is the world-frame heading of the optical axis; focal_px and
    center_px are the 1-D intrinsics in pixels.
    """

    position: tuple
    yaw: float
    focal_px: float
    center_px: float
    width: int

    @classmethod
    def from_fov(cls, position, yaw: float, fov: float, width: float) -> "Camera":
        """Camera of field of view fov over width pixels; raises ValueError
        unless 0 < fov < pi and width is a positive whole number."""
        if not (0.0 < fov < math.pi and width >= 1 and float(width).is_integer()):
            raise ValueError(f"camera needs 0 < fov < pi and a positive whole "
                             f"width, not fov {fov} and width {width}")
        focal = (width / 2.0) / math.tan(fov / 2.0)
        return cls(tuple(float(v) for v in position), float(yaw),
                   focal, (width - 1) / 2.0, int(width))

    @property
    def forward(self) -> np.ndarray:
        return np.array([math.cos(self.yaw), math.sin(self.yaw)])

    @property
    def lateral(self) -> np.ndarray:
        return np.array([-math.sin(self.yaw), math.cos(self.yaw)])


@dataclass(frozen=True)
class DepthData:
    """Range image Z (per-pixel ray range, inf = no hit) and cloud P."""

    z: np.ndarray  # (width,)
    cloud: np.ndarray  # (m, d) surface hit points


def project(cam: Camera, points: np.ndarray):
    """Pixel coordinate, forward depth, and range of each point.

    Returns (u, z_forward, rng) arrays; u is continuous (un-rounded).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts - np.asarray(cam.position)[None, :]
    z = rel @ cam.forward
    lat = rel @ cam.lateral
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.focal_px * (lat / z) + cam.center_px
    rng = np.linalg.norm(rel, axis=1)
    return u, z, rng


def visible(points: np.ndarray, cam: Camera, z_image: np.ndarray,
            margin: float = VIS_MARGIN) -> np.ndarray:
    """True where a point projects into the image strictly in front of
    the sensed surface. Points behind the camera or outside the field
    of view are not visible.
    """
    u, z, rng = project(cam, points)
    front = z > 0.0
    pix = np.zeros(len(u), dtype=int)
    pix[front] = np.round(u[front]).astype(int)
    ok = front & (pix >= 0) & (pix < cam.width)
    out = np.zeros(len(pix), dtype=bool)
    idx = np.where(ok)[0]
    if idx.size:
        out[idx] = rng[idx] < np.asarray(z_image)[pix[idx]] - margin
    return out


def ray_directions(cam: Camera) -> np.ndarray:
    """Unit world-frame direction of each pixel ray, shape (width, 2)."""
    u = np.arange(cam.width, dtype=float)
    theta = np.arctan2(u - cam.center_px, cam.focal_px)
    return (np.outer(np.cos(theta), cam.forward)
            + np.outer(np.sin(theta), cam.lateral))


def ray_box_range(origin: np.ndarray, dirs: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Range to the nearest box surface along each ray (inf if none).

    boxes has rows (xmin, ymin, xmax, ymax); the slab method handles
    axis-parallel rays. Rays starting inside a box hit at range 0.
    """
    dirs = np.atleast_2d(dirs)
    n_rays = dirs.shape[0]
    best = np.full(n_rays, np.inf)
    if boxes is None or len(boxes) == 0:
        return best
    origin = np.asarray(origin, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(dirs != 0.0, 1.0 / dirs, np.inf)
    for box in np.atleast_2d(boxes):
        lo, hi = box[:2], box[2:4]
        t1 = (lo - origin)[None, :] * inv
        t2 = (hi - origin)[None, :] * inv
        # Axis-parallel rays: the slab is hit for all t when the origin
        # coordinate lies inside it, never otherwise.
        par = dirs == 0.0
        inside = (origin >= lo)[None, :] & (origin <= hi)[None, :]
        tmin = np.where(par, np.where(inside, -np.inf, np.inf),
                        np.minimum(t1, t2))
        tmax = np.where(par, np.where(inside, np.inf, -np.inf),
                        np.maximum(t1, t2))
        tnear = np.max(tmin, axis=1)
        tfar = np.min(tmax, axis=1)
        hit = (tfar >= tnear) & (tfar >= 0.0)
        t = np.where(tnear >= 0.0, tnear, 0.0)
        best = np.where(hit & (t < best), t, best)
    return best


def render_depth(boxes: np.ndarray, cam: Camera) -> DepthData:
    """Range image and point cloud of the box scene from the camera."""
    dirs = ray_directions(cam)
    z = ray_box_range(np.asarray(cam.position, dtype=float), dirs, boxes)
    finite = np.isfinite(z)
    cloud = np.asarray(cam.position)[None, :] + z[finite, None] * dirs[finite]
    return DepthData(z=z, cloud=cloud)


def free_space_oracle(cam: Camera, depth: DepthData):
    """Batched visibility test bound to one camera and range image."""
    def oracle(points: np.ndarray) -> np.ndarray:
        return visible(points, cam, depth.z)
    return oracle

