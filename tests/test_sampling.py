import pickle
import time

import numpy as np
import pytest

from pcrobust.corruption import CorruptionSpec, apply_corruption
from pcrobust.geometry import PointCloud, normalize_unit_sphere
from pcrobust.sampling import (
    InfeasibleSampleError,
    SampleSpec,
    anchor_candidates,
    das_sample,
    density_profile,
    fps_sample,
    random_sample,
    sample_anchors,
    weighted_sample_without_replacement,
)

from conftest import random_axis_rotation, random_cloud
from oracles import brute_density_weights


class TestDensityProfile:
    def test_unit_grid_square_degenerate(self):
        # every 2-NN distance is exactly 1 = t, so the strict inequality
        # zeroes every count and the profile falls back to uniform
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        prof = density_profile(cloud, 2)
        assert np.allclose(prof.mean_knn_dist, 1.0)
        assert prof.threshold == pytest.approx(1.0)
        assert prof.raw_counts.tolist() == [0, 0, 0, 0]
        assert prof.degenerate
        assert np.allclose(prof.weights, 0.25)

    def test_cluster_outlier_instance(self, cluster_outlier_cloud):
        prof = density_profile(cluster_outlier_cloud, 2)
        # frozen from the brute-force evaluation of the weight definition
        assert prof.raw_counts.tolist() == [2, 2, 2, 2, 2, 0]
        assert np.allclose(prof.weights, [0.2, 0.2, 0.2, 0.2, 0.2, 0.0])
        assert prof.weights[5] == 0.0
        assert not prof.degenerate

    def test_equidistant_cloud_uniform(self):
        # regular tetrahedron: all pairwise distances equal
        pts = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        prof = density_profile(PointCloud(pts), 3)
        assert np.allclose(prof.weights, 0.25)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_brute_force_oracle(self, seed, k):
        n = int(np.random.default_rng(1000 + seed).integers(k + 2, 128))
        cloud = random_cloud(seed, n=n)
        prof = density_profile(cloud, k)
        d, t, raw, weights = brute_density_weights(cloud.points.tolist(), k)
        assert np.abs(prof.mean_knn_dist - d).max() <= 1e-12
        assert abs(prof.threshold - t) <= 1e-12
        assert prof.raw_counts.tolist() == raw
        assert np.abs(prof.weights - weights).max() <= 1e-12

    def test_weights_sum_to_one(self):
        prof = density_profile(random_cloud(9, n=80), 5)
        assert abs(prof.weights.sum() - 1.0) <= 1e-9
        assert ((prof.weights == 0) == (prof.raw_counts == 0)).all()

    def test_invalid_k(self):
        cloud = random_cloud(5, n=8)
        for k in (0, 8):
            message = rf"^k must satisfy 1 <= k <= N-1, got k={k}, N=8$"
            with pytest.raises(ValueError, match=message):
                density_profile(cloud, k)

    def test_l0_is_the_only_density_variant(self):
        with pytest.raises(ValueError, match="unknown density variant 'l1'"):
            density_profile(random_cloud(5, n=8), 2, "l1")

    def test_scale_invariance(self):
        cloud = random_cloud(30, n=60)
        base = density_profile(cloud, 5).weights
        for factor in (0.1, 3.7, 1000.0):
            scaled = PointCloud(cloud.points * factor)
            assert np.abs(density_profile(scaled, 5).weights - base).max() <= 1e-12

    def test_rigid_invariance(self):
        cloud = random_cloud(31, n=60)
        base = density_profile(cloud, 5).weights
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rot = random_axis_rotation(rng)
            moved = PointCloud(cloud.points @ rot.T + rng.standard_normal(3))
            assert np.abs(density_profile(moved, 5).weights - base).max() <= 1e-9


class TestWeightedSample:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert weighted_sample_without_replacement([1, 0, 0], 1, rng)[0] == 0

    def test_exhaustive_two(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = weighted_sample_without_replacement([0.5, 0.5], 2, rng)
            assert sorted(out.tolist()) == [0, 1]

    def test_first_draw_law(self):
        rng = np.random.default_rng(2)
        weights = [0.7, 0.2, 0.1]
        counts = np.zeros(3)
        trials = 20000
        for _ in range(trials):
            counts[weighted_sample_without_replacement(weights, 1, rng)[0]] += 1
        assert np.abs(counts / trials - weights).max() <= 0.02

    def test_infeasible(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InfeasibleSampleError) as err:
            weighted_sample_without_replacement([0.5, 0.5, 0.0], 3, rng)
        assert (err.value.requested, err.value.available) == (3, 2)
        assert str(err.value) == "cannot draw 3 distinct indices from 2 positive-weight entries"
        back = pickle.loads(pickle.dumps(err.value))
        assert (back.requested, back.available, str(back)) == (3, 2, str(err.value))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([0.5, -0.1], 1, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            weighted_sample_without_replacement([bad, 1, 1], 2, np.random.default_rng(0))

    def test_distinct_indices(self):
        rng = np.random.default_rng(4)
        w = np.random.default_rng(5).random(20)
        w /= w.sum()
        out = weighted_sample_without_replacement(w, 15, rng)
        assert len(set(out.tolist())) == 15

    def test_ordered_pair_law(self):
        # successive renormalized draws: P(i then j) = w_i * w_j / (1 - w_i)
        weights = [0.7, 0.2, 0.1]
        rng = np.random.default_rng(7)
        trials = 100_000
        counts = np.zeros((3, 3))
        start = time.perf_counter()
        for _ in range(trials):
            i, j = weighted_sample_without_replacement(weights, 2, rng)
            counts[i, j] += 1
        assert time.perf_counter() - start < 10.0
        for i in range(3):
            for j in range(3):
                p = 0.0 if i == j else weights[i] * weights[j] / (1 - weights[i])
                assert abs(counts[i, j] / trials - p) <= 0.01, (i, j)

    def test_denormal_weight_beats_zero_weight(self):
        # a key like log(u) / w overflows to -inf for w = 5e-324 and ties
        # with the zero weight; the log-domain key stays finite
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            assert 0 not in weighted_sample_without_replacement([0, 5e-324, 1], 2, rng)

    def test_m_equal_to_positive_count_takes_the_positive_set(self):
        weights = [0.0, 0.3, 0.0, 0.5, 1e-300, 0.0, 0.2]
        for seed in range(20):
            out = weighted_sample_without_replacement(weights, 4, np.random.default_rng(seed))
            assert sorted(out.tolist()) == [1, 3, 4, 6]

    def test_same_seed_same_draw_one_uniform_per_entry(self):
        w = np.random.default_rng(9).random(50)
        first, second = np.random.default_rng(10), np.random.default_rng(10)
        a = weighted_sample_without_replacement(w, 20, first)
        b = weighted_sample_without_replacement(w, 20, second)
        assert np.array_equal(a, b)
        # the draw used exactly len(w) uniforms, whatever m is
        reference = np.random.default_rng(10)
        reference.random(w.size)
        assert first.random() == reference.random()


class TestDas:
    def test_outlier_never_selected(self, cluster_outlier_cloud):
        spec = SampleSpec(m=3, k=2)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            assert 5 not in das_sample(cluster_outlier_cloud, spec, rng)

    def test_all_positive_weights_forced(self, cluster_outlier_cloud):
        spec = SampleSpec(m=5, k=2)
        out = das_sample(cluster_outlier_cloud, spec, np.random.default_rng(1))
        assert sorted(out.tolist()) == [0, 1, 2, 3, 4]

    def test_uniform_cloud_marginals(self):
        # degenerate grid square: uniform fallback, so RS-like marginals
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        spec = SampleSpec(m=1, k=2)
        rng = np.random.default_rng(6)
        counts = np.zeros(4)
        trials = 8000
        for _ in range(trials):
            counts[das_sample(cloud, spec, rng)[0]] += 1
        p = 0.25
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.abs(counts / trials - p).max() <= 3 * sigma + 1e-9


class TestFps:
    def test_line_start_middle(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        assert fps_sample(cloud, 2, start=1).tolist() == [1, 0]

    def test_square_opposite_corner(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert fps_sample(cloud, 2, start=0).tolist() == [0, 3]

    def test_m_equals_n(self):
        cloud = random_cloud(7, n=12)
        out = fps_sample(cloud, 12)
        assert sorted(out.tolist()) == list(range(12))

    def test_start_out_of_range(self):
        with pytest.raises(ValueError):
            fps_sample(random_cloud(8, n=5), 2, start=5)

    def test_permutation_equivariance(self):
        for seed in range(5):
            cloud = random_cloud(100 + seed, n=40)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(40)
            permuted = PointCloud(cloud.points[perm])
            base = fps_sample(cloud, 10, start=int(perm[0]))
            mapped = fps_sample(permuted, 10, start=0)
            # position i of the permuted run names the same physical point
            assert np.array_equal(perm[mapped], base)


class TestRandomSample:
    def test_full_set(self):
        out = random_sample(random_cloud(9, n=6), 6, np.random.default_rng(0))
        assert sorted(out.tolist()) == list(range(6))

    def test_two_points(self):
        out = random_sample(random_cloud(10, n=2), 1, np.random.default_rng(1))
        assert out[0] in (0, 1)

    def test_marginal_frequencies(self):
        n = 8
        cloud = random_cloud(11, n=n)
        rng = np.random.default_rng(2)
        trials = 16000
        counts = np.zeros(n)
        for _ in range(trials):
            counts[random_sample(cloud, 1, rng)[0]] += 1
        p = 1.0 / n
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.abs(counts / trials - p).max() <= 3 * sigma + 1e-9


class TestTooFewPoints:
    @pytest.mark.parametrize("draw", [
        lambda cloud, m: fps_sample(cloud, m),
        lambda cloud, m: random_sample(cloud, m, np.random.default_rng(0)),
    ])
    def test_more_anchors_than_points_is_infeasible(self, draw):
        cloud = random_cloud(12, n=5)
        with pytest.raises(InfeasibleSampleError) as err:
            draw(cloud, 6)
        assert (err.value.requested, err.value.available) == (6, 5)
        assert str(err.value) == "cannot draw 6 distinct indices from 5 points"
        assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)
        with pytest.raises(ValueError) as err:
            draw(cloud, 0)
        assert not isinstance(err.value, InfeasibleSampleError)


class TestAnchorProfile:
    """The density profile DAS draws from is built once and kept on the cloud."""

    def test_one_profile_serves_many_draws(self, profile_builds):
        cloud = random_cloud(13, n=40)
        spec = SampleSpec(m=10, k=4, variant="das-l0")
        for seed in range(3):
            a = das_sample(random_cloud(13, n=40), spec, np.random.default_rng(seed))
            b = sample_anchors(cloud, spec, np.random.default_rng(seed))
            assert np.array_equal(a, b)
        assert [c for c in profile_builds if c is cloud] == [cloud]

    def test_none_for_fps_and_random(self, profile_builds):
        cloud = random_cloud(14, n=10)
        for variant in ("fps", "random"):
            sample_anchors(cloud, SampleSpec(m=3, variant=variant), np.random.default_rng(0))
        assert profile_builds == []

    def test_one_profile_per_k_and_density(self, profile_builds):
        cloud = random_cloud(15, n=40)
        specs = [SampleSpec(m=m, k=k) for k in (3, 4) for m in (5, 7)]
        for spec in specs + specs:
            a = sample_anchors(cloud, spec, np.random.default_rng(0))
            b = das_sample(random_cloud(15, n=40), spec, np.random.default_rng(0))
            assert np.array_equal(a, b)
        assert len([c for c in profile_builds if c is cloud]) == 2


@pytest.mark.parametrize("variant", ["das-l0", "fps", "random"])
def test_anchor_candidates_is_the_largest_feasible_m(variant):
    cloud = PointCloud(np.vstack([random_cloud(19, n=30).points, [[9.0, 9.0, 9.0]]]))
    available = anchor_candidates(cloud, SampleSpec(m=1, k=3, variant=variant))
    assert available == (31 if variant in ("fps", "random") else 30)
    sample_anchors(cloud, SampleSpec(m=available, k=3, variant=variant),
                   np.random.default_rng(0))
    with pytest.raises(InfeasibleSampleError) as err:
        sample_anchors(cloud, SampleSpec(m=available + 1, k=3, variant=variant),
                       np.random.default_rng(0))
    assert err.value.available == available


class TestFpsAnchorsKept:
    """FPS anchors are built once per m and kept, read-only, on the cloud."""

    def test_one_build_per_m(self, fps_builds):
        cloud = random_cloud(16, n=40)
        for m in (5, 7, 5, 7):
            kept = sample_anchors(cloud, SampleSpec(m=m, variant="fps"))
            assert np.array_equal(kept, fps_sample(random_cloud(16, n=40), m))
            assert kept is sample_anchors(cloud, SampleSpec(m=m, variant="fps"))
            with pytest.raises(ValueError):
                kept[0] = 1
        assert [id(c) for c in fps_builds] == [id(cloud)] * 2

    def test_infeasible_request_keeps_nothing(self, fps_builds):
        cloud = random_cloud(17, n=5)
        for _ in range(2):
            with pytest.raises(InfeasibleSampleError):
                sample_anchors(cloud, SampleSpec(m=6, variant="fps"))
        assert [id(c) for c in fps_builds] == [id(cloud)] * 2
        absent = object()
        assert cloud.memo(("fps", 6), lambda: absent) is absent
        assert np.array_equal(sample_anchors(cloud, SampleSpec(m=5, variant="fps")),
                              fps_sample(cloud, 5))

    def test_copies_start_without_the_anchors(self, fps_builds):
        cloud = random_cloud(18, n=40)
        spec = SampleSpec(m=6, variant="fps")
        sample_anchors(cloud, spec)
        copies = [apply_corruption(cloud, CorruptionSpec("jitter-gaussian", 1, 0)),
                  cloud.with_points(cloud.points), normalize_unit_sphere(cloud)]
        for copy in copies + [cloud]:
            sample_anchors(copy, spec)
        assert [id(c) for c in fps_builds] == [id(c) for c in [cloud] + copies]


class TestSampleSpec:
    @pytest.mark.parametrize(
        "variant, width",
        [("das-l0", 6), ("fps", 1), ("random", 1)],
    )
    def test_neighbor_width(self, variant, width):
        assert SampleSpec(m=4, k=5, variant=variant).neighbor_width == width

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(m=0)
        with pytest.raises(ValueError):
            SampleSpec(m=4, k=0)
        with pytest.raises(ValueError):
            SampleSpec(m=4, variant="nope")

    def test_dispatch(self):
        rng = np.random.default_rng(12)
        blob = rng.standard_normal((20, 3)) * 0.01
        spread = rng.standard_normal((10, 3))
        cloud = PointCloud(np.vstack([blob, spread]))
        for variant in ("das-l0", "fps", "random"):
            spec = SampleSpec(m=5, variant=variant)
            out = sample_anchors(cloud, spec, np.random.default_rng(3))
            assert len(out) == 5
            assert len(set(out.tolist())) == 5

    @pytest.mark.parametrize("variant", ["das-l0", "random"])
    def test_random_variants_need_a_generator(self, variant):
        with pytest.raises(ValueError, match="pass a generator"):
            sample_anchors(random_cloud(14, n=32), SampleSpec(m=4, variant=variant))
