"""Synthetic labeled shape clouds for desk-scale training and evaluation.

Six analytic surface families (sphere, cube, cylinder, torus, plane, cone)
sampled uniformly by area, with small per-instance pose and scale variation,
normalized to the unit sphere. Generation is deterministic per seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, axis_angle_rotation, normalize_unit_sphere


def derive_seed(master: int, *parts) -> int:
    """Stable substream seed from a master seed and hashable tags."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return (int(master) ^ int.from_bytes(digest[:8], "little")) & (2**64 - 1)


def check_labeled(clouds) -> None:
    """Raise ValueError naming the first cloud without a label."""
    for i, cloud in enumerate(clouds):
        if cloud.label is None:
            raise ValueError(f"{cloud.source or f'cloud {i}'}: no label; every cloud needs one")


def sphere_surface(rng, n):
    d = rng.standard_normal((n, 3))
    d /= np.sqrt((d**2).sum(axis=1, keepdims=True))
    return d


def cube_surface(rng, n):
    axis = rng.integers(0, 3, n)
    sign = rng.choice([-1.0, 1.0], n)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    pts[np.arange(n), axis] = sign
    return pts


def cylinder_surface(rng, n, radius=0.5, half_height=1.0):
    lateral_area = 2 * math.pi * radius * 2 * half_height
    cap_area = 2 * math.pi * radius**2
    on_side = rng.random(n) < lateral_area / (lateral_area + cap_area)
    phi = rng.uniform(0, 2 * math.pi, n)
    pts = np.empty((n, 3))
    pts[:, 0] = np.cos(phi)
    pts[:, 1] = np.sin(phi)
    # lateral: fixed radius, uniform height; caps: uniform disc at +/- height
    r = np.where(on_side, radius, radius * np.sqrt(rng.random(n)))
    z = np.where(
        on_side,
        rng.uniform(-half_height, half_height, n),
        rng.choice([-half_height, half_height], n),
    )
    pts[:, 0] *= r
    pts[:, 1] *= r
    pts[:, 2] = z
    return pts


def torus_surface(rng, n, ring_radius=0.7, tube_radius=0.3):
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        batch = max(n - filled, 32)
        theta = rng.uniform(0, 2 * math.pi, batch)  # around the tube
        accept = rng.random(batch) < (ring_radius + tube_radius * np.cos(theta)) / (
            ring_radius + tube_radius
        )
        theta = theta[accept]
        take = min(theta.size, n - filled)
        theta = theta[:take]
        phi = rng.uniform(0, 2 * math.pi, take)  # around the ring
        rho = ring_radius + tube_radius * np.cos(theta)
        out[filled : filled + take, 0] = rho * np.cos(phi)
        out[filled : filled + take, 1] = rho * np.sin(phi)
        out[filled : filled + take, 2] = tube_radius * np.sin(theta)
        filled += take
    return out


def plane_surface(rng, n):
    pts = np.zeros((n, 3))
    pts[:, :2] = rng.uniform(-1.0, 1.0, (n, 2))
    return pts


def cone_surface(rng, n, base_radius=0.8, apex_height=1.0, base_height=-1.0):
    slant = math.hypot(base_radius, apex_height - base_height)
    lateral_area = math.pi * base_radius * slant
    base_area = math.pi * base_radius**2
    on_side = rng.random(n) < lateral_area / (lateral_area + base_area)
    phi = rng.uniform(0, 2 * math.pi, n)
    # uniform by area: fraction of the way from apex to rim goes as sqrt(u)
    frac = np.sqrt(rng.random(n))
    r = np.where(on_side, frac * base_radius, base_radius * np.sqrt(rng.random(n)))
    z = np.where(on_side, apex_height + frac * (base_height - apex_height), base_height)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


SHAPE_GENERATORS = {
    "sphere": sphere_surface,
    "cube": cube_surface,
    "cylinder": cylinder_surface,
    "torus": torus_surface,
    "plane": plane_surface,
    "cone": cone_surface,
}

# fixed per-instance variation, drawn in this order: noise, scale, tilt
NOISE_SIGMA = 0.01  # isotropic Gaussian jitter per coordinate
SCALE_JITTER = 0.15  # per-axis scale factor in [1 - j, 1 + j]
MAX_TILT = math.pi / 8  # rotation about a random axis, angle in [0, max]


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """What to generate: shape classes, instances per class, points per cloud."""

    classes: tuple = tuple(SHAPE_GENERATORS)
    per_class: int = 100
    points: int = 256
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError("need at least 2 classes")
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        unknown = [c for c in self.classes if c not in SHAPE_GENERATORS]
        if unknown:
            raise ValueError(f"unknown shape classes {unknown}")


def gen_dataset(spec: SyntheticDatasetSpec):
    """Labeled clouds, ``per_class`` per class, normalized to the unit sphere."""
    rng = np.random.default_rng(spec.seed)
    clouds = []
    for label, name in enumerate(spec.classes):
        surface = SHAPE_GENERATORS[name]
        for _ in range(spec.per_class):
            pts = surface(rng, spec.points)
            pts = pts + rng.standard_normal(pts.shape) * NOISE_SIGMA
            pts = pts * rng.uniform(1 - SCALE_JITTER, 1 + SCALE_JITTER, 3)
            axis = rng.standard_normal(3)
            pts = pts @ axis_angle_rotation(axis, rng.uniform(0, MAX_TILT)).T
            clouds.append(normalize_unit_sphere(PointCloud(pts, label)))
    return clouds
