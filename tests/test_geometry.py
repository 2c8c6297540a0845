import numpy as np
import pytest

from pcrobust.corruption import CorruptionSpec, apply_corruption
from pcrobust.geometry import (
    NeighborTable,
    PointCloud,
    normalize_unit_sphere,
)
from pcrobust.model import group_indices
from pcrobust.sampling import density_profile

from conftest import random_axis_rotation, random_cloud
from oracles import brute_knn


class TestPointCloud:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, np.nan]])
        with pytest.raises(ValueError):
            PointCloud([[np.inf, 0, 0]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud([[1.0, 2.0]])

    def test_points_immutable(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0

    def test_memo_builds_once_per_key_and_copies_start_empty(self):
        cloud = random_cloud(11, n=40)
        built = []

        def build(tag):
            return lambda: built.append(tag) or tag

        assert [cloud.memo(key, build(key)) for key in ("a", "b", "a", "b")] == list("abab")
        assert built == ["a", "b"]
        corrupted = apply_corruption(cloud, CorruptionSpec("jitter-gaussian", 1, 0))
        for copy in (corrupted, cloud.with_points(cloud.points), normalize_unit_sphere(cloud)):
            assert copy.memo("a", build("copy")) == "copy"
        assert built == ["a", "b", "copy", "copy", "copy"]
        assert cloud.memo("a", build("again")) == "a"


class TestNormalize:
    def test_two_point_segment(self):
        cloud = PointCloud([[2, 0, 0], [0, 0, 0]])
        out = normalize_unit_sphere(cloud)
        assert np.allclose(out.points, [[1, 0, 0], [-1, 0, 0]])

    def test_idempotent(self):
        cloud = random_cloud(0, n=50, normalized=False)
        once = normalize_unit_sphere(cloud)
        twice = normalize_unit_sphere(once)
        assert np.abs(once.points - twice.points).max() <= 1e-12

    def test_cube_corners(self):
        # side-2 cube at origin: centroid already 0, every corner norm sqrt(3)
        corners = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        out = normalize_unit_sphere(PointCloud(corners))
        assert np.allclose(out.points, corners / np.sqrt(3))
        norms = np.linalg.norm(out.points, axis=1)
        assert np.allclose(norms, 1.0)

    def test_degenerate_single_point(self):
        out = normalize_unit_sphere(PointCloud([[3.0, 4.0, 5.0]]))
        assert np.allclose(out.points, [[0, 0, 0]])

    def test_keeps_label(self):
        out = normalize_unit_sphere(PointCloud([[1, 2, 3], [4, 5, 6]], label=7))
        assert out.label == 7


class TestKnn:
    """Columns 1..k of a cloud's (k+1)-wide neighbour table are its k
    nearest other points; on clouds without coincident points column 0
    is the point itself."""

    def test_collinear_example(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [4, 0, 0]])
        table = cloud.neighbors(3)
        assert table.indices[0].tolist() == [0, 1, 2]
        assert table.distances[0].tolist() == [0.0, 1.0, 2.0]

    def test_equilateral_triangle(self):
        side = 2.0
        h = side * np.sqrt(3) / 2
        cloud = PointCloud([[0, 0, 0], [side, 0, 0], [side / 2, h, 0]])
        table = cloud.neighbors(3)
        assert table.indices[:, 0].tolist() == [0, 1, 2]
        assert np.allclose(table.distances[:, 1:], side)

    def test_k_equals_n_minus_1(self):
        cloud = random_cloud(3, n=10)
        table = cloud.neighbors(10)
        for i in range(10):
            assert table.indices[i, 0] == i
            assert sorted(table.indices[i, 1:].tolist()) == [
                j for j in range(10) if j != i
            ]
            assert (np.diff(table.distances[i]) >= 0).all()

    def test_invalid_k(self):
        # a table of k neighbours besides the point is k + 1 wide, so
        # k = N (width N + 1) and k = -1 (width 0) are out of range
        cloud = random_cloud(5, n=8)
        for width in (0, 9):
            message = rf"^width must satisfy 1 <= width <= N, got {width}$"
            with pytest.raises(ValueError, match=message):
                cloud.neighbors(width)

    def test_tie_break_by_index(self):
        # point 0 has two neighbors at exactly distance 1
        cloud = PointCloud([[0, 0, 0], [0, 0, 1], [1, 0, 0]])
        table = cloud.neighbors(2)
        assert table.indices[0].tolist() == [0, 1]

    @pytest.mark.parametrize("seed,n,k", [(0, 16, 3), (1, 64, 5), (2, 256, 7)])
    def test_brute_force_oracle(self, seed, n, k):
        cloud = random_cloud(seed, n=n)
        table = cloud.neighbors(k + 1)
        idx, dist = brute_knn(cloud.points.tolist(), k)
        assert np.array_equal(table.indices[:, 0], np.arange(n))
        assert (table.distances[:, 0] == 0).all()
        assert table.indices[:, 1:].tolist() == idx
        assert np.abs(table.distances[:, 1:] - np.array(dist)).max() <= 1e-12

    def test_rotation_invariance(self):
        cloud = random_cloud(11, n=48)
        table = cloud.neighbors(7)
        for seed in range(5):
            rot = random_axis_rotation(np.random.default_rng(seed))
            rotated = PointCloud(cloud.points @ rot.T)
            table_rot = rotated.neighbors(7)
            assert np.abs(table.distances - table_rot.distances).max() <= 1e-9
            for i in range(cloud.n):
                assert set(table.indices[i]) == set(table_rot.indices[i])

    def test_table_type(self):
        table = random_cloud(6, n=12).neighbors(5)
        assert isinstance(table, NeighborTable)
        assert table.k == 5
        assert (table.distances >= 0).all()


def tie_heavy_clouds():
    """Half-integer coordinates, so every distance tie is exact."""
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 3, (60, 3)) * 0.5
    copies = rng.integers(-2, 3, (40, 3)) * 0.5
    copies[rng.permutation(40)[:12]] = copies[0]
    # 20 coincident copies: at widths below 20, the rows of the later
    # copies do not hold their own index
    stack = np.vstack([np.zeros((20, 3)), rng.integers(1, 4, (10, 3))])
    return [PointCloud(pts) for pts in (grid, copies, stack)]


def stable_order(points):
    """Full self-inclusive stable argsort of the direct-difference distances."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


def self_excluded(order, dist, k):
    """The first k distances of each row of ``stable_order`` after removing
    the point's own entry."""
    n = len(order)
    others = order != np.arange(n)[:, None]
    return dist[others].reshape(n, n - 1)[:, :k]


class TestNeighborTable:
    @pytest.mark.parametrize("cloud", tie_heavy_clouds() + [random_cloud(8, n=50)])
    def test_matches_stable_argsort(self, cloud):
        order, dist = stable_order(cloud.points)
        for width in (1, 3, 6, 9, cloud.n):
            fresh = PointCloud(cloud.points)
            table = fresh.neighbors(width)
            assert np.array_equal(table.indices, order[:, :width])
            assert table.distances.tobytes() == dist[:, :width].tobytes()

    def test_self_outside_first_columns(self):
        cloud = tie_heavy_clouds()[2]
        table = cloud.neighbors(6)
        # copies 0..5 fill the first columns of every copy's row
        for i in range(20):
            assert table.indices[i].tolist() == list(range(6))
        assert (table.distances[:20] == 0).all()

    @pytest.mark.parametrize("cloud", tie_heavy_clouds())
    def test_knn_matches_oracle_and_reference(self, cloud):
        # with coincident copies, column 0 may hold a lower-index copy and
        # the point itself a later column, but the distances are the same
        order, dist = stable_order(cloud.points)
        for k in (1, 5, 8, cloud.n - 1):
            table = cloud.neighbors(k + 1)
            _, d = brute_knn(cloud.points.tolist(), k)
            assert (table.distances[:, 0] == 0).all()
            assert np.abs(table.distances[:, 1:] - np.array(d)).max() <= 1e-12
            assert np.array_equal(table.indices, order[:, : k + 1])
            assert table.distances[:, 1:].tobytes() == self_excluded(order, dist, k).tobytes()

    @pytest.mark.parametrize("cloud", tie_heavy_clouds())
    def test_density_reads_self_excluded_columns(self, cloud):
        order, dist = stable_order(cloud.points)
        for k in (1, 5, 8, cloud.n - 1):
            ref = self_excluded(order, dist, k).mean(axis=1)
            assert density_profile(cloud, k).mean_knn_dist.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("cloud", tie_heavy_clouds())
    def test_group_indices_match_reference(self, cloud):
        order, _ = stable_order(cloud.points)
        anchors = np.arange(cloud.n)[::3]
        for g in (1, 4, 8, cloud.n):
            assert np.array_equal(group_indices(cloud, anchors, g), order[anchors, :g])

    def test_narrower_slices_wider_rebuilds(self, table_builds):
        cloud = random_cloud(9, n=30)
        wide = cloud.neighbors(8)
        narrow = cloud.neighbors(3)
        cloud.neighbors(6)
        assert len(table_builds) == 1
        assert np.array_equal(narrow.indices, wide.indices[:, :3])
        wider = cloud.neighbors(12)
        assert len(table_builds) == 2
        assert np.array_equal(wider.indices[:, :8], wide.indices)

    def test_cached_table_is_read_only(self):
        cloud = random_cloud(10, n=12)
        table = cloud.neighbors(4)
        with pytest.raises(ValueError):
            table.indices[0, 0] = 3
        with pytest.raises(ValueError):
            cloud.neighbors(13)
