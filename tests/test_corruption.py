import numpy as np
import pytest

from pcrobust.corruption import (
    ALL_KINDS,
    CorruptionSpec,
    apply_corruption,
    corruption_suite,
)
from pcrobust.data import derive_seed
from pcrobust.geometry import PointCloud, pairwise_distances

from conftest import random_cloud

COUNT_PRESERVING = ("scale", "rotate", "jitter-gaussian", "jitter-uniform", "impulse")


class TestSpecValidation:
    def test_severity_range(self):
        with pytest.raises(ValueError):
            CorruptionSpec("scale", 0)
        with pytest.raises(ValueError):
            CorruptionSpec("scale", 6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CorruptionSpec("fog", 1)

    def test_small_cloud_rejected_for_drop_add(self):
        cloud = random_cloud(0, n=16)
        for kind in ("drop-global", "drop-local", "add-global", "add-local"):
            with pytest.raises(ValueError):
                apply_corruption(cloud, CorruptionSpec(kind, 1))


class TestSchedules:
    def test_drop_global_exact_count(self):
        cloud = random_cloud(1, n=1024)
        out = apply_corruption(cloud, CorruptionSpec("drop-global", 2, seed=5))
        assert out.n == 1024 - 307

    def test_jitter_sigma_scales_linearly(self):
        cloud = random_cloud(2, n=128)
        s1 = apply_corruption(cloud, CorruptionSpec("jitter-gaussian", 1, seed=9))
        s5 = apply_corruption(cloud, CorruptionSpec("jitter-gaussian", 5, seed=9))
        d1 = s1.points - cloud.points
        d5 = s5.points - cloud.points
        assert np.allclose(d5, 5 * d1)

    def test_rotation_is_isometry(self):
        cloud = random_cloud(3, n=64)
        base = pairwise_distances(cloud.points)
        for s in range(1, 6):
            out = apply_corruption(cloud, CorruptionSpec("rotate", s, seed=4))
            assert np.abs(pairwise_distances(out.points) - base).max() <= 1e-9

    def test_scale_factors_within_bounds(self):
        cloud = random_cloud(4, n=64)
        for s in range(1, 6):
            out = apply_corruption(cloud, CorruptionSpec("scale", s, seed=1))
            factors = out.points[0] / cloud.points[0]
            hi = 1 + 0.1 * s
            assert ((factors >= 1 / hi - 1e-12) & (factors <= hi + 1e-12)).all()

    def test_impulse_replaces_exact_count(self):
        cloud = random_cloud(5, n=200)
        out = apply_corruption(cloud, CorruptionSpec("impulse", 3, seed=2))
        changed = (out.points != cloud.points).any(axis=1).sum()
        assert changed == int(0.02 * 3 * 200)
        assert out.n == cloud.n

    def test_add_counts(self):
        cloud = random_cloud(6, n=128)
        for kind in ("add-global", "add-local"):
            for s in range(1, 6):
                out = apply_corruption(cloud, CorruptionSpec(kind, s, seed=3))
                assert out.n == 128 + int(0.05 * s * 128)
                # original points are untouched
                assert np.array_equal(out.points[:128], cloud.points)

    def test_drop_local_counts(self):
        cloud = random_cloud(7, n=128)
        for s in range(1, 6):
            out = apply_corruption(cloud, CorruptionSpec("drop-local", s, seed=4))
            assert out.n == 128 - int(0.15 * s * 128)

    def test_add_global_inside_unit_ball(self):
        cloud = random_cloud(8, n=64)
        out = apply_corruption(cloud, CorruptionSpec("add-global", 5, seed=6))
        added = out.points[64:]
        assert (np.linalg.norm(added, axis=1) <= 1.0 + 1e-12).all()

    def test_count_preserving_kinds(self):
        cloud = random_cloud(9, n=100)
        for kind in COUNT_PRESERVING:
            out = apply_corruption(cloud, CorruptionSpec(kind, 3, seed=7))
            assert out.n == 100

    def test_label_kept(self):
        cloud = random_cloud(10, n=64, label=4)
        out = apply_corruption(cloud, CorruptionSpec("jitter-uniform", 2, seed=1))
        assert out.label == 4


def _magnitude(kind, cloud, out):
    if out.n != cloud.n:
        return abs(out.n - cloud.n)
    if kind == "impulse":
        return (out.points != cloud.points).any(axis=1).sum()
    return np.linalg.norm(out.points - cloud.points, axis=1).mean()


class TestMonotoneSeverity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_statistic_nondecreasing(self, kind, seed):
        cloud = random_cloud(20 + seed, n=160)
        stats = [
            _magnitude(kind, cloud, apply_corruption(cloud, CorruptionSpec(kind, s, seed)))
            for s in range(1, 6)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(stats, stats[1:])), stats


class TestDeterminism:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_spec_same_output(self, kind):
        cloud = random_cloud(30, n=96)
        spec = CorruptionSpec(kind, 4, seed=11)
        a = apply_corruption(cloud, spec)
        b = apply_corruption(cloud, spec)
        assert np.array_equal(a.points, b.points)

    def test_outputs_finite(self):
        cloud = random_cloud(31, n=96)
        for kind in ALL_KINDS:
            out = apply_corruption(cloud, CorruptionSpec(kind, 5, seed=12))
            assert np.isfinite(out.points).all()


class TestSuite:
    def test_cardinality(self):
        cloud = random_cloud(40, n=64)
        assert len(corruption_suite(cloud, ALL_KINDS, seed=0)) == 45

    def test_same_seed_identical(self):
        cloud = random_cloud(41, n=64)
        a = corruption_suite(cloud, ALL_KINDS, seed=5)
        b = corruption_suite(cloud, ALL_KINDS, seed=5)
        for (spec_a, cloud_a), (spec_b, cloud_b) in zip(a, b):
            assert spec_a == spec_b
            assert np.array_equal(cloud_a.points, cloud_b.points)

    def test_distinct_seeds_differ(self):
        cloud = random_cloud(42, n=64)
        a = dict_of_suite(corruption_suite(cloud, ("jitter-gaussian",), seed=1))
        b = dict_of_suite(corruption_suite(cloud, ("jitter-gaussian",), seed=2))
        for key in a:
            assert not np.array_equal(a[key], b[key])

    def test_suite_seeds_are_derive_seed(self):
        suite = corruption_suite(random_cloud(5, n=64), ("scale", "impulse"), seed=3)
        assert all(spec.seed == derive_seed(3, spec.kind, spec.severity) for spec, _ in suite)

    def test_severity_subset_is_a_slice_of_the_full_suite(self):
        cloud = random_cloud(6, n=64)
        full = dict_of_suite(corruption_suite(cloud, ("impulse", "add-local"), seed=4))
        part = dict_of_suite(corruption_suite(cloud, ("impulse", "add-local"), seed=4,
                                              severities=(5, 2)))
        assert list(part) == [("impulse", 5), ("impulse", 2), ("add-local", 5),
                              ("add-local", 2)]
        assert all(np.array_equal(part[key], full[key]) for key in part)


def dict_of_suite(suite):
    return {(spec.kind, spec.severity): cloud.points for spec, cloud in suite}
