"""Anchor-point selection: density-aware sampling plus FPS and RS baselines.

Density-aware sampling (das-l0) scores each point by how many of its k
nearest neighbors lie closer than the global mean of mean-neighbor
distances, then draws anchors without replacement with probability
proportional to that score; isolated outliers score 0 and are never picked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud

SAMPLER_VARIANTS = ("das-l0", "fps", "random")


class InfeasibleSampleError(ValueError):
    """Requested more distinct draws than there are candidates: the
    positive-weight entries of a weighted draw, the points otherwise."""

    def __init__(self, requested: int, available: int, candidates: str):
        super().__init__(requested, available, candidates)  # args rebuild it when unpickled
        self.requested, self.available, self.candidates = requested, available, candidates

    def __str__(self) -> str:
        return (f"cannot draw {self.requested} distinct indices from "
                f"{self.available} {self.candidates}")


@dataclass(frozen=True)
class DensityProfile:
    """Per-point density summary feeding the weighted anchor draw.

    mean_knn_dist: mean distance to the k nearest neighbors (d_i)
    threshold: global mean of mean_knn_dist (t)
    raw_counts: unnormalized per-point sampling score (w_i before division)
    weights: raw_counts normalized to a probability vector
    degenerate: True when every raw count was 0 and weights fell back to uniform
    """

    mean_knn_dist: np.ndarray
    threshold: float
    raw_counts: np.ndarray
    weights: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class SampleSpec:
    """How to pick anchors: count, density neighborhood size, strategy."""

    m: int
    k: int = 5
    variant: str = "das-l0"

    def __post_init__(self):
        if self.variant not in SAMPLER_VARIANTS:
            raise ValueError(f"unknown sampler variant {self.variant!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def neighbor_width(self) -> int:
        """Columns of the cloud's neighbour table the sampler reads."""
        return self.k + 1 if self.variant == "das-l0" else 1


def density_profile(cloud: PointCloud, k: int, variant: str = "l0") -> DensityProfile:
    """Per-point density weights from mean-kNN distances.

    d_i is the mean distance from point i to its k nearest neighbors and
    t the mean of all d_i. The raw score of point i is the count of its k
    neighbor distances strictly below t. ``variant`` accepts only ``"l0"``,
    the name of that score.

    When every raw score is 0 (e.g. perfectly uniform spacing under the
    strict inequality) the weights fall back to uniform and the profile is
    flagged degenerate.
    """
    if variant != "l0":
        raise ValueError(f"unknown density variant {variant!r}")
    if not 1 <= k <= cloud.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={cloud.n}")
    # column 0 is at distance 0 (the point or a coincident copy): drop it
    near = cloud.neighbors(k + 1).distances[:, 1:]
    d = near.mean(axis=1)
    t = float(d.mean())
    raw = (near < t).sum(axis=1).astype(np.float64)

    total = raw.sum()
    if total > 0.0:
        weights = raw / total
        degenerate = False
    else:
        weights = np.full(cloud.n, 1.0 / cloud.n)
        degenerate = True
    return DensityProfile(d, t, raw, weights, degenerate)


def weighted_sample_without_replacement(weights, m: int, rng: np.random.Generator):
    """Draw m distinct indices with the law of m successive renormalized draws.

    Zero-weight entries are never selected. The draw is one Gumbel-top-k key
    per entry, ``log(w) - log(-log(u))`` from one uniform u each (Efraimidis
    & Spirakis 2006; Kool et al. 2019); the log form keeps a denormal
    weight's key finite. Raises ValueError for a negative or non-finite
    weight, and InfeasibleSampleError when fewer than m entries have
    positive weight.
    """
    w = np.array(weights, dtype=np.float64)
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    positive = int(np.count_nonzero(w > 0))
    if m > positive:
        raise InfeasibleSampleError(m, positive, "positive-weight entries")
    u = 1.0 - rng.random(w.size)
    # zero weights take log(0) before where() drops them; u == 1 keys +inf
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.where(w > 0, np.log(w) - np.log(-np.log(u)), -np.inf)
    return np.argsort(-keys, kind="stable")[:m]


def _kept_profile(cloud: PointCloud, spec: SampleSpec) -> DensityProfile:
    """The cloud's density weights for spec, built once per k and kept on
    the cloud."""
    return cloud.memo(("density", spec.k), lambda: density_profile(cloud, spec.k))


def das_sample(cloud: PointCloud, spec: SampleSpec, rng: np.random.Generator) -> np.ndarray:
    """Density-aware sampling: a weighted draw from the density weights the
    cloud keeps."""
    return weighted_sample_without_replacement(_kept_profile(cloud, spec).weights, spec.m, rng)


def anchor_candidates(cloud: PointCloud, spec: SampleSpec) -> int:
    """How many distinct anchors ``sample_anchors`` can draw from the cloud:
    its points of positive density weight for DAS, all its points otherwise."""
    if spec.variant != "das-l0":
        return cloud.n
    return int(np.count_nonzero(_kept_profile(cloud, spec).weights))


def fps_sample(cloud: PointCloud, m: int, start: int = 0) -> np.ndarray:
    """Greedy farthest-point sampling from a fixed start index.

    Iteratively appends the point with maximum distance to the selected
    set; distance ties resolve to the lower index. Deterministic. Raises
    InfeasibleSampleError when m > N.
    """
    n = cloud.n
    if m > n:
        raise InfeasibleSampleError(m, n, "points")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= N, got m={m}, N={n}")
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range for N={n}")
    pts = cloud.points
    selected = np.empty(m, dtype=np.int64)
    selected[0] = start
    dist = np.sqrt(((pts - pts[start]) ** 2).sum(axis=1))
    dist[start] = -1.0  # selected points can never win the argmax
    for i in range(1, m):
        idx = int(np.argmax(dist))  # first max = lowest index on ties
        selected[i] = idx
        cand = np.sqrt(((pts - pts[idx]) ** 2).sum(axis=1))
        np.minimum(dist, cand, out=dist)
        dist[idx] = -1.0
    return selected


def random_sample(
    cloud: PointCloud, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sampling without replacement; InfeasibleSampleError when m > N."""
    if m > cloud.n:
        raise InfeasibleSampleError(m, cloud.n, "points")
    if not 1 <= m <= cloud.n:
        raise ValueError(f"m must satisfy 1 <= m <= N, got m={m}, N={cloud.n}")
    return rng.permutation(cloud.n)[:m].astype(np.int64)


def sample_anchors(
    cloud: PointCloud, spec: SampleSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Dispatch to the strategy named by spec.variant. FPS starts at point 0,
    so its read-only anchors are built once per m and kept on the cloud."""
    if spec.variant == "fps":
        def build():
            anchors = fps_sample(cloud, spec.m)
            anchors.flags.writeable = False
            return anchors
        return cloud.memo(("fps", spec.m), build)
    if rng is None:
        raise ValueError(f"sampler {spec.variant!r} draws at random: pass a generator")
    if spec.variant == "random":
        return random_sample(cloud, spec.m, rng)
    return das_sample(cloud, spec, rng)
