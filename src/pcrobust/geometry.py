"""Point-cloud container, unit-sphere normalization, and exact neighbour tables.

Clouds are plain N x 3 float64 arrays wrapped with an optional class label.
A cloud is a *set* of points: any row permutation denotes the same object,
and nothing here returns permutation-dependent results except through
explicit index outputs. A cloud's one neighbour query is its cached,
self-inclusive table (``PointCloud.neighbors``): the model's groups read
its first columns, the density score columns 1..k of a (k+1)-wide table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable N x 3 coordinate set with an optional integer class label.

    ``source`` is the file the cloud was read from, which errors name;
    equality ignores it and derived copies (``with_points``, corrupted and
    normalised clouds) drop it.

    The cloud carries one cache of what depends on its points alone: the
    lazily built neighbour table (see ``neighbors``) and whatever ``memo``
    keeps: density profiles and FPS anchors. It lives as long as the cloud
    object.
    """

    points: np.ndarray
    label: int | None = None
    source: str | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be N x 3, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return bool(self.label == other.label) and np.array_equal(self.points, other.points)

    __hash__ = None  # clouds compare by their point arrays, which do not hash

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def with_points(self, points: np.ndarray) -> "PointCloud":
        """New cloud with replaced coordinates, keeping the label."""
        return PointCloud(points, self.label)

    def memo(self, key, build):
        """``build()``, called on the first request for ``key`` and kept on
        the cloud: the points are read-only, so it cannot go stale. The
        samplers keep one density profile per k, under ``("density", k)``,
        and one FPS anchor array per m; a build that raises keeps nothing."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def neighbors(self, width: int) -> "NeighborTable":
        """First ``width`` columns of every point's self-inclusive neighbour order.

        Built on first use and cached on the cloud. A wider request
        rebuilds it; a narrower one is a slice of the cached columns.
        """
        if not 1 <= width <= self.n:
            raise ValueError(f"width must satisfy 1 <= width <= N, got {width}")
        table = self._cache.get("neighbors")
        if table is None or table.k < width:
            table = _nearest_columns(self.points, width)
            table.indices.flags.writeable = False
            table.distances.flags.writeable = False
            self._cache["neighbors"] = table
        if table.k == width:
            return table
        return NeighborTable(table.indices[:, :width], table.distances[:, :width])


@dataclass(frozen=True)
class NeighborTable:
    """Per-point nearest neighbors, distances sorted ascending per row.

    Equal distances are ordered by ascending point index. The table a
    cloud caches (``PointCloud.neighbors``) is self-inclusive: a point's
    own index sits at distance 0, after any coincident copies with lower
    index, so with more than ``k`` such copies it is not in the row at
    all. Column 0 is always at distance 0, so columns 1..k of a
    (k+1)-wide table hold the distances to the k nearest other points.
    """

    indices: np.ndarray
    distances: np.ndarray

    @property
    def k(self) -> int:
        return self.indices.shape[1]


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Center the cloud at its centroid and scale the farthest point to norm 1.

    A fully degenerate cloud (all points coincident) is centered only.
    Idempotent up to floating rounding.
    """
    pts = cloud.points
    centered = pts - pts.mean(axis=0)
    radius = np.sqrt((centered**2).sum(axis=1)).max()
    if radius > 0.0:
        centered = centered / radius
    return cloud.with_points(centered)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Exact N x N Euclidean distance matrix via direct differences.

    Built one coordinate at a time, so results match per-pair
    sqrt(sum of squared differences) bit for bit (no x^2+y^2-2xy
    cancellation) without an N x N x 3 temporary.
    """
    coords = np.ascontiguousarray(points.T)
    diff = np.subtract.outer(coords[0], coords[0])
    sq = diff * diff
    for col in coords[1:]:
        np.subtract.outer(col, col, out=diff)
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def _nearest_columns(points: np.ndarray, width: int) -> NeighborTable:
    """The first ``width`` columns of each row's stable argsort of distances.

    The cut value comes from a partition; points tied at the cut are kept
    by ascending index, as a stable sort would, so only the kept columns
    need sorting.
    """
    dist = pairwise_distances(points)
    n = dist.shape[0]
    cut = np.partition(dist, width - 1, axis=1)[:, width - 1 : width]
    keep = dist <= cut
    tied_rows = np.flatnonzero(keep.sum(axis=1) > width)
    if tied_rows.size:
        rows, row_cut = dist[tied_rows], cut[tied_rows]
        below = rows < row_cut
        at_cut = rows == row_cut
        room = width - below.sum(axis=1, keepdims=True)
        keep[tied_rows] = below | (at_cut & (np.cumsum(at_cut, axis=1) <= room))
    cols = np.nonzero(keep)[1].reshape(n, width)
    near = np.take_along_axis(dist, cols, axis=1)
    order = np.argsort(near, axis=1, kind="stable")
    return NeighborTable(
        indices=np.take_along_axis(cols, order, axis=1),
        distances=np.take_along_axis(near, order, axis=1),
    )


def axis_angle_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a given axis (any nonzero 3-vector) and angle."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = angle / 2.0
    q = np.concatenate([np.sin(half) * axis, [np.cos(half)]])
    return quaternion_to_matrix(q)


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    x, y, z, w = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
