"""Parametric test-time corruptions, each with 5 severity levels.

Severity schedules live in one table (SCHEDULE) so they can be retuned
without touching the generators. Base randomness is drawn independently of
the severity level, so for a fixed seed the corruption's magnitude statistic
(noise scale, removed/added count, rotation angle) is nondecreasing in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import derive_seed
from .geometry import PointCloud, axis_angle_rotation

# per-severity magnitude parameters; value at severity s is param * s
SCHEDULE = {
    "scale": {"log_factor_bound": 0.1},       # factors in [1/(1+0.1s), 1+0.1s]
    "rotate": {"angle_bound": math.pi / 12},  # radians
    "jitter-gaussian": {"sigma": 0.01},
    "jitter-uniform": {"bound": 0.01},
    "impulse": {"replace_frac": 0.02},
    "drop-global": {"drop_frac": 0.15},
    "drop-local": {"drop_frac": 0.15, "cluster_frac": 0.05},
    "add-global": {"add_frac": 0.05},
    "add-local": {"add_frac": 0.05, "sigma": 0.05},
}
ALL_KINDS = tuple(SCHEDULE)
SEVERITIES = (1, 2, 3, 4, 5)  # levels as in ModelNet40-C (Sun et al., 2022)

_DROP_ADD_KINDS = ("drop-global", "drop-local", "add-global", "add-local")


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def apply_corruption(cloud: PointCloud, spec: CorruptionSpec) -> PointCloud:
    """Corrupted copy of a unit-sphere-normalized cloud.

    Deterministic in (cloud, spec). Drop/add kinds change the point count by
    exactly the scheduled amount and require N >= 32.
    """
    n = cloud.n
    s = spec.severity
    if spec.kind in _DROP_ADD_KINDS and n < 32:
        raise ValueError(f"{spec.kind} requires N >= 32, got N={n}")
    rng = np.random.default_rng(spec.seed)
    pts = np.array(cloud.points)
    cfg = SCHEDULE[spec.kind]

    if spec.kind == "scale":
        exponents = rng.uniform(-1.0, 1.0, 3)
        factors = (1.0 + cfg["log_factor_bound"] * s) ** exponents
        out = pts * factors
    elif spec.kind == "rotate":
        axis = rng.standard_normal(3)
        frac = rng.uniform(-1.0, 1.0)
        rot = axis_angle_rotation(axis, frac * cfg["angle_bound"] * s)
        out = pts @ rot.T
    elif spec.kind == "jitter-gaussian":
        out = pts + rng.standard_normal((n, 3)) * (cfg["sigma"] * s)
    elif spec.kind == "jitter-uniform":
        out = pts + rng.uniform(-1.0, 1.0, (n, 3)) * (cfg["bound"] * s)
    elif spec.kind == "impulse":
        count = int(cfg["replace_frac"] * s * n)
        idx = rng.permutation(n)[:count]
        out = pts.copy()
        out[idx] = rng.uniform(-1.0, 1.0, (count, 3))
    elif spec.kind == "drop-global":
        count = int(cfg["drop_frac"] * s * n)
        _check_drop(n, count)
        keep = np.sort(rng.permutation(n)[count:])
        out = pts[keep]
    elif spec.kind == "drop-local":
        count = int(cfg["drop_frac"] * s * n)
        _check_drop(n, count)
        cluster = max(1, int(cfg["cluster_frac"] * n))
        out = _drop_clusters(pts, count, cluster, rng)
    elif spec.kind == "add-global":
        count = int(cfg["add_frac"] * s * n)
        out = np.vstack([pts, _uniform_ball(count, rng)])
    elif spec.kind == "add-local":
        count = int(cfg["add_frac"] * s * n)
        anchors = rng.integers(0, n, count)
        added = pts[anchors] + rng.standard_normal((count, 3)) * cfg["sigma"]
        out = np.vstack([pts, added])
    else:  # pragma: no cover - guarded by CorruptionSpec
        raise ValueError(spec.kind)

    if not np.isfinite(out).all():
        raise ArithmeticError(f"{spec.kind} produced non-finite coordinates")
    return PointCloud(out, cloud.label)


def _check_drop(n: int, count: int) -> None:
    if count >= n:
        raise ValueError(f"cannot remove {count} of {n} points")


def _drop_clusters(pts, total, cluster, rng):
    """Remove `total` points as kNN clusters around random seed points."""
    remaining = np.arange(pts.shape[0])
    removed = 0
    while removed < total:
        size = min(cluster, total - removed)
        seed_pos = int(rng.integers(0, remaining.size))
        center = pts[remaining[seed_pos]]
        dist = np.sqrt(((pts[remaining] - center) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:size]
        keep_mask = np.ones(remaining.size, dtype=bool)
        keep_mask[order] = False
        remaining = remaining[keep_mask]
        removed += size
    return pts[remaining]


def _uniform_ball(count, rng):
    directions = rng.standard_normal((count, 3))
    norms = np.sqrt((directions**2).sum(axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    radii = rng.random((count, 1)) ** (1.0 / 3.0)
    return directions / norms * radii


def corruption_suite(cloud: PointCloud, kinds=ALL_KINDS, seed: int = 0,
                     severities=SEVERITIES):
    """(spec, corrupted copy) of one cloud per (kind, severity), deterministically seeded.

    Each cell uses an independent substream derived from the master seed, so
    the suite can be generated in any order or in parallel.
    """
    out = []
    for kind in kinds:
        for severity in severities:
            spec = CorruptionSpec(kind, severity, derive_seed(seed, kind, severity))
            out.append((spec, apply_corruption(cloud, spec)))
    return out
