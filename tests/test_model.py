import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pcrobust import autodiff as ad
from pcrobust import model
from pcrobust.autodiff import Tensor, finite_diff_check
from pcrobust.corruption import CorruptionSpec, apply_corruption
from pcrobust.geometry import PointCloud, normalize_unit_sphere
from pcrobust.model import (
    AttentionLayerParams,
    BaselineParams,
    CheckpointFormatError,
    checked_candidates,
    forward,
    init_baseline,
    init_model,
    load_checkpoint,
    neighbor_embed,
    network,
    network_input,
    network_on_draws,
    save_checkpoint,
    self_attention_layer,
    stack_inputs,
)
from pcrobust.sampling import SampleSpec, fps_sample, sample_anchors

from conftest import random_cloud
from model_checks import miniature_max_fd_error
from oracles import embed_chain


def mini_params(seed=0, **overrides):
    defaults = dict(n_classes=3, m_anchors=8, d_model=16, d_attn=4, group_k=4)
    defaults.update(overrides)
    return init_model(np.random.default_rng(seed), **defaults)


class TestNeighborEmbed:
    def test_first_embed_layer_yields_no_input_gradient(self):
        params = mini_params()
        feats, _ = network_input(random_cloud(3, n=20), params, anchors=np.arange(8))
        # one mlp_max node whose parents are the weights alone: the
        # features are a constant and get no gradient
        embed = neighbor_embed(feats, params)
        weights = (params.embed_w1, params.embed_b1, params.embed_w2, params.embed_b2)
        assert len(embed._node.parents) == 4
        assert all(p is w for p, w in zip(embed._node.parents, weights))
        grads = embed._node.pullback(np.ones_like(embed.data))
        assert [g.shape for g in grads] == [w.data.shape for w in weights]

    def test_identity_sampling_group_of_self(self):
        cloud = random_cloud(0, n=12)
        params = mini_params(group_k=1)
        feats, anchors = network_input(cloud, params, anchors=np.arange(12))
        f_s = neighbor_embed(feats, params)
        assert anchors.tolist() == list(range(12))
        # group of self only: the embedding sees (0, 0, 0, p_i)
        feats = np.concatenate([np.zeros((12, 3)), cloud.points], axis=1)
        h = np.maximum(feats @ params.embed_w1.data + params.embed_b1.data, 0.0)
        expected = h @ params.embed_w2.data + params.embed_b2.data
        assert np.abs(f_s.data - expected).max() <= 1e-12

    def test_anchor_rows_permute_with_input(self):
        cloud = random_cloud(1, n=20)
        params = mini_params()
        rng = np.random.default_rng(2)
        perm = rng.permutation(20)
        permuted = PointCloud(cloud.points[perm])
        spec = SampleSpec(m=6, variant="fps")
        start_new = int(np.argwhere(perm == 0)[0, 0])
        feats_a, anchors_a = network_input(cloud, params, spec)
        feats_b, anchors_b = network_input(permuted, params,
                                           anchors=fps_sample(permuted, 6, start_new))
        f_a, f_b = neighbor_embed(feats_a, params), neighbor_embed(feats_b, params)
        # the i-th anchor names the same physical point in both runs
        assert np.array_equal(perm[anchors_b], anchors_a)
        assert np.abs(f_a.data - f_b.data).max() <= 1e-9

    def test_group_feature_order_invariance(self):
        # reversing the point order leaves each anchor's group feature alone
        cloud = random_cloud(3, n=16)
        params = mini_params()
        reversed_cloud = PointCloud(cloud.points[::-1])
        f_a = neighbor_embed(network_input(cloud, params, anchors=[4])[0], params)
        f_b = neighbor_embed(network_input(reversed_cloud, params, anchors=[11])[0], params)
        assert np.abs(f_a.data - f_b.data).max() <= 1e-12

    def test_requires_sampler_or_anchors(self):
        with pytest.raises(ValueError):
            network_input(random_cloud(4, n=8), mini_params())


def _embed_weights(params):
    return (params.embed_w1, params.embed_b1, params.embed_w2, params.embed_b2)


def _weight_grads(embed, feats, weights, probe):
    """Gradients of mean(embed(feats) * probe) with respect to the weights."""
    grads = ad.backward(ad.mean(ad.mul(embed(feats, *weights), Tensor(probe))))
    return [grads[w] for w in weights]


def _assert_grads_close(got, want, rtol=1e-12):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


class TestEmbedOp:
    """``mlp_max`` against the four-op chain it replaced (``oracles.embed_chain``)."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_matches_the_four_op_chain(self, batch):
        params = init_model(np.random.default_rng(batch), n_classes=3)  # README dims
        feats = np.stack([network_input(random_cloud(10 + i, n=256), params,
                                        SampleSpec(m=64), np.random.default_rng(i))[0]
                          for i in range(batch)])
        weights = _embed_weights(params)
        ours, chain = ad.mlp_max(feats, *weights), embed_chain(feats, *weights)
        assert np.array_equal(ours.data, chain.data)
        probe = np.random.default_rng(7).standard_normal(ours.data.shape)
        _assert_grads_close(_weight_grads(ad.mlp_max, feats, weights, probe),
                            _weight_grads(embed_chain, feats, weights, probe))

    def test_duplicate_points_do_not_count_twice(self):
        rng = np.random.default_rng(3)
        params = mini_params(seed=3)  # d_model 16
        weights = _embed_weights(params)
        distinct = rng.standard_normal((2, 5, 4, 6))
        # every group holds its rows more than once, so every max ties
        repeated = distinct[..., [0, 1, 1, 2, 3, 3, 3, 0], :]
        probe = rng.standard_normal((2, 5, 16))
        once = _weight_grads(ad.mlp_max, distinct, weights, probe)
        twice = _weight_grads(ad.mlp_max, repeated, weights, probe)
        assert np.array_equal(ad.mlp_max(repeated, *weights).data,
                              ad.mlp_max(distinct, *weights).data)
        _assert_grads_close(twice, once)
        _assert_grads_close(twice, _weight_grads(embed_chain, repeated, weights, probe))

    def test_ties_route_to_the_first_slot_only(self):
        # small integers keep every sum exact. Hidden unit 0 reads input 0
        # alone and no output reads unit 0, so a group's two rows, which
        # differ only in input 0, tie on every output with different hidden
        # values: 1 in slot 0 and 2 in slot 1
        rng = np.random.default_rng(6)
        w1 = rng.integers(-2, 3, (6, 5)).astype(float)
        w1[0], w1[:, 0] = 0.0, 0.0
        w1[0, 0] = 1.0
        w2 = rng.integers(-2, 3, (5, 4)).astype(float)
        w2[0] = 0.0
        weights = (Tensor(w1, requires_grad=True), Tensor(np.zeros(5), requires_grad=True),
                   Tensor(w2, requires_grad=True),
                   Tensor(rng.integers(-2, 3, 4).astype(float), requires_grad=True))
        feats = np.repeat(rng.integers(-2, 3, (3, 1, 6)).astype(float), 2, axis=1)
        feats[:, :, 0] = [1.0, 2.0]
        probe = rng.standard_normal((3, 4))
        grads = _weight_grads(ad.mlp_max, feats, weights, probe)
        # d mean(out * probe) / d w2[0] sums slot 0's hidden unit 0, which is 1
        assert np.abs(grads[2][0] - probe.sum(axis=0) / probe.size).max() <= 1e-15
        _assert_grads_close(grads, _weight_grads(embed_chain, feats, weights, probe))

    def test_slots_past_127_get_their_gradient(self):
        # group_k = 130: only slot 129 is nonzero, so with zero biases every
        # output it raises above 0 is won there and nowhere else
        rng = np.random.default_rng(4)
        weights = (Tensor(rng.standard_normal((6, 16)), requires_grad=True),
                   Tensor(np.zeros(16), requires_grad=True),
                   Tensor(rng.standard_normal((16, 8)), requires_grad=True),
                   Tensor(np.zeros(8), requires_grad=True))
        feats = np.zeros((2, 3, 130, 6))
        feats[..., 129, :] = rng.standard_normal((2, 3, 6))
        chain = embed_chain(feats, *weights)
        assert (chain.data > 0).any()
        probe = rng.standard_normal(chain.data.shape)
        grads = _weight_grads(ad.mlp_max, feats, weights, probe)
        assert np.abs(grads[0]).max() > 0
        _assert_grads_close(grads, _weight_grads(embed_chain, feats, weights, probe))

    def test_minus_inf_before_the_relu_raises(self):
        params = mini_params(seed=5)
        w1 = np.array(params.embed_w1.data)
        w1[:, 0] = -1e300  # the first hidden unit overflows to -inf, which relu clips
        weights = (Tensor(w1, requires_grad=True),) + _embed_weights(params)[1:]
        feats = np.full((1, 2, 4, 6), 1e10)
        for embed in (embed_chain, ad.mlp_max):
            with pytest.raises(ad.NonFiniteError):
                embed(feats, *weights)
        with pytest.raises(ad.NonFiniteError):
            ad.mlp_max(np.full((1, 2, 4, 6), np.nan), *weights)

    def test_graph_keeps_no_group_by_width_array(self):
        # batch 4 at the README defaults: one (4, 64, 8, 64) float64 array is 1 MiB
        params = init_model(np.random.default_rng(0), n_classes=3)
        feats = np.stack([network_input(random_cloud(i, n=256), params,
                                        SampleSpec(m=64), np.random.default_rng(i))[0]
                          for i in range(4)])
        one_array = 4 * 64 * 8 * 64 * 8

        def retained(embed):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = embed()
                return tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
            finally:
                tracemalloc.stop()

        assert retained(lambda: neighbor_embed(feats, params)) < one_array
        # the measure sees the chain's graph
        assert retained(lambda: embed_chain(feats, *_embed_weights(params))) > 2 * one_array

    @pytest.mark.parametrize("shape", [
        (3 * (ad._BLOCK_ROWS // 8) + 5, 8, 6),  # four blocks, the last of 5 groups
        (2, ad._BLOCK_ROWS + 88, 6),  # g = 600: each group is a block of its own
        (8, 6),  # one group, no batch axes
    ], ids=["ragged-last-block", "g-over-the-block", "2-D"])
    def test_blocked_forward_matches_the_four_op_chain(self, shape):
        params = init_model(np.random.default_rng(8), n_classes=3)  # README dims
        weights = _embed_weights(params)
        feats = np.random.default_rng(9).standard_normal(shape)
        ours, chain = ad.mlp_max(feats, *weights), embed_chain(feats, *weights)
        assert ours.data.shape == chain.data.shape
        assert np.array_equal(ours.data, chain.data)
        probe = np.random.default_rng(10).standard_normal(ours.data.shape)
        _assert_grads_close(_weight_grads(ad.mlp_max, feats, weights, probe),
                            _weight_grads(embed_chain, feats, weights, probe))

    def test_no_grad_forward_peaks_below_one_group_by_width_array(self):
        # batch 16 at the README defaults: one (16, 64, 8, 64) float64 array is 4.2 MB
        params = init_model(np.random.default_rng(0), n_classes=3).no_grad()
        feats = np.random.default_rng(1).standard_normal((16, 64, 8, 6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            neighbor_embed(feats, params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64 * 8 * 64 * 8


class TestNetworkOnDraws:
    """One cloud's anchor draws, each distinct anchor embedded once, against
    ``network`` on the stacked per-draw inputs."""

    @staticmethod
    def rngs():
        return [np.random.default_rng(seed) for seed in range(5)]

    def assert_matches_the_stacked_batch(self, cloud, params, spec):
        want = network(stack_inputs([cloud] * 5, params, spec, self.rngs()), params)
        got = network_on_draws(cloud, params, spec, self.rngs())
        assert np.array_equal(got.logits.data, want.logits.data)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(got.attention_maps, want.attention_maps, strict=True))
        if spec is not None:
            assert np.array_equal(got.anchors,
                                  [sample_anchors(cloud, spec, rng) for rng in self.rngs()])

    @pytest.mark.parametrize("variant", ["das-l0", "random", "fps"])
    def test_logits_match_the_stacked_batch(self, variant):
        params = init_model(np.random.default_rng(3), n_classes=6).no_grad()
        self.assert_matches_the_stacked_batch(random_cloud(30, n=256), params,
                                              SampleSpec(m=64, k=5, variant=variant))

    def test_capped_variant_matches_the_stacked_batch(self):
        params = init_model(np.random.default_rng(3), n_classes=6).no_grad()
        sampler = SampleSpec(m=64, k=5)
        dropped = apply_corruption(random_cloud(30, n=256), CorruptionSpec("drop-global", 5, 0))
        available = checked_candidates(dropped, params.group_k, sampler, "dropped", 0)
        assert available < sampler.m
        self.assert_matches_the_stacked_batch(dropped, params, replace(sampler, m=available))

    def test_baseline_matches_the_stacked_batch(self):
        params = init_baseline(np.random.default_rng(3), n_classes=6).no_grad()
        self.assert_matches_the_stacked_batch(random_cloud(30, n=256), params, None)

    def test_each_distinct_anchor_is_embedded_once(self, monkeypatch):
        params = init_model(np.random.default_rng(3), n_classes=6).no_grad()
        embedded = []
        real = model.neighbor_embed

        def spy(feats, params):
            embedded.append(feats.shape)
            return real(feats, params)

        monkeypatch.setattr(model, "neighbor_embed", spy)
        trace = network_on_draws(random_cloud(30, n=256), params, SampleSpec(m=64, k=5),
                                 self.rngs())
        distinct = np.unique(trace.anchors).size
        assert distinct < trace.anchors.size  # the draws share anchors
        assert embedded == [(distinct, params.group_k, 6)]

    def test_weights_with_gradients_are_refused(self):
        params = init_model(np.random.default_rng(3), n_classes=6)
        with pytest.raises(ValueError, match="no_grad"):
            network_on_draws(random_cloud(30, n=256), params, SampleSpec(m=64, k=5),
                             self.rngs())

    def test_attention_model_needs_a_sampler(self):
        params = init_model(np.random.default_rng(3), n_classes=6).no_grad()
        with pytest.raises(ValueError, match="sampler spec"):
            network_on_draws(random_cloud(30, n=256), params, None, self.rngs())


class TestSelfAttentionLayer:
    def test_zero_query_projection(self):
        rng = np.random.default_rng(0)
        d, d_attn, m = 6, 3, 5
        f_in = Tensor(rng.standard_normal((m, d)))
        layer = AttentionLayerParams(
            w_q=Tensor(np.zeros((d, d_attn))),
            w_k=Tensor(rng.standard_normal((d, d_attn))),
            w_v=Tensor(rng.standard_normal((d, d))),
        )
        f_out, scores = self_attention_layer(f_in, layer, d_attn)
        assert np.array_equal(scores.data, np.zeros((m, m)))
        v = f_in.data @ layer.w_v.data
        expected = np.tile(v.mean(axis=0), (m, 1)) + f_in.data
        assert np.abs(f_out.data - expected).max() <= 1e-12

    def test_single_anchor(self):
        rng = np.random.default_rng(1)
        d, d_attn = 4, 2
        f_in = Tensor(rng.standard_normal((1, d)))
        layer = AttentionLayerParams(
            w_q=Tensor(rng.standard_normal((d, d_attn))),
            w_k=Tensor(rng.standard_normal((d, d_attn))),
            w_v=Tensor(rng.standard_normal((d, d))),
        )
        f_out, _ = self_attention_layer(f_in, layer, d_attn)
        expected = f_in.data @ layer.w_v.data + f_in.data
        assert np.abs(f_out.data - expected).max() <= 1e-12

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        d, d_attn, m = 8, 4, 7
        f_in = Tensor(rng.standard_normal((m, d)) * 3)
        layer = AttentionLayerParams(
            w_q=Tensor(rng.standard_normal((d, d_attn)), requires_grad=True),
            w_k=Tensor(rng.standard_normal((d, d_attn)), requires_grad=True),
            w_v=Tensor(rng.standard_normal((d, d)), requires_grad=True),
        )
        _, scores = self_attention_layer(f_in, layer, d_attn)
        attn = ad.softmax_rows(scores)
        assert np.abs(attn.data.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("which", ["w_q", "w_k", "w_v"])
    def test_gradient_wrt_projections(self, which):
        rng = np.random.default_rng(3)
        d, d_attn, m = 6, 3, 5
        f_in = Tensor(rng.standard_normal((m, d)))
        weights = {
            "w_q": rng.standard_normal((d, d_attn)),
            "w_k": rng.standard_normal((d, d_attn)),
            "w_v": rng.standard_normal((d, d)),
        }
        probe_c = Tensor(rng.standard_normal((m, d)))

        def f(t):
            tensors = {
                name: (t if name == which else Tensor(weights[name]))
                for name in weights
            }
            layer = AttentionLayerParams(**tensors)
            f_out, _ = self_attention_layer(f_in, layer, d_attn)
            return ad.mean(ad.mul(f_out, probe_c))

        x = Tensor(np.array(weights[which]), requires_grad=True)
        assert finite_diff_check(f, x) <= 1e-4


class TestForward:
    def test_permutation_invariant_logits(self):
        params = mini_params(1)
        for seed in range(5):
            cloud = random_cloud(200 + seed, n=24)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(24)
            permuted = PointCloud(cloud.points[perm])
            spec = SampleSpec(m=8, variant="fps")
            start_new = int(np.argwhere(perm == 0)[0, 0])
            a = forward(cloud, params, spec)
            b = forward(permuted, params, anchors=fps_sample(permuted, 8, start_new))
            assert np.abs(a.logits.data - b.logits.data).max() <= 1e-9

    def test_zero_params_tie_break(self):
        cloud = random_cloud(5, n=16)
        params = mini_params()
        for t in params.tensors():
            t.data = np.zeros_like(t.data)
        trace = forward(cloud, params, SampleSpec(m=8, variant="fps"))
        assert np.allclose(trace.logits.data, trace.logits.data[0])
        assert trace.prediction == 0

    def test_prediction_refuses_batched_logits(self):
        params = mini_params()
        trace = network(stack_inputs([random_cloud(5, n=16)] * 2, params,
                                     SampleSpec(m=8, variant="fps"), [None] * 2), params)
        with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
            trace.prediction

    def test_duplication_invariance(self):
        cloud = random_cloud(6, n=24)
        params = mini_params(2)
        base = forward(cloud, params, anchors=np.arange(24))
        doubled = PointCloud(np.vstack([cloud.points, cloud.points]))
        params2 = params.copy()
        params2.group_k = params.group_k * 2
        dup = forward(doubled, params2, anchors=np.arange(24))
        assert np.abs(base.logits.data - dup.logits.data).max() <= 1e-6

    def test_trace_contents(self):
        cloud = random_cloud(7, n=20)
        params = mini_params()
        trace = forward(cloud, params, SampleSpec(m=8, variant="fps"))
        assert len(trace.attention_maps) == 4
        assert all(s.data.shape == (8, 8) for s in trace.attention_maps)
        assert trace.logits.data.shape == (3,)
        assert np.isfinite(trace.logits.data).all()

    def test_stochastic_sampler_path(self):
        cloud = random_cloud(8, n=32)
        params = mini_params()
        trace = forward(
            cloud, params, SampleSpec(m=8, k=3), np.random.default_rng(0)
        )
        assert trace.anchors.size == 8


class TestNeighborTableReuse:
    def test_default_forward_builds_one_table(self, table_builds):
        cloud = random_cloud(14, n=256)
        params = init_model(np.random.default_rng(0), n_classes=6)
        forward(cloud, params, SampleSpec(m=64), np.random.default_rng(1))
        cloud.neighbors(params.group_k)
        assert len(table_builds) == 1

    @pytest.mark.parametrize("variant, width", [("fps", 4), ("das-l0", 9)])
    def test_table_width_from_sampler(self, variant, width):
        cloud = random_cloud(15, n=64)
        params = mini_params()  # group_k 4
        spec = SampleSpec(m=8, k=8, variant=variant)
        forward(cloud, params, spec, np.random.default_rng(0))
        assert cloud._cache["neighbors"].k == width


class TestBaseline:
    def test_exact_permutation_invariance(self):
        params = init_baseline(np.random.default_rng(0), n_classes=4, d_model=8)
        cloud = random_cloud(9, n=30)
        permuted = PointCloud(cloud.points[np.random.default_rng(1).permutation(30)])
        a = forward(cloud, params)
        b = forward(permuted, params)
        assert np.array_equal(a.logits.data, b.logits.data)

    def test_forward_is_the_network_on_the_points(self):
        params = init_baseline(np.random.default_rng(4), n_classes=3, d_model=6)
        cloud = random_cloud(11, n=20)
        trace = forward(cloud, params)
        assert trace.anchors is None
        assert np.array_equal(trace.logits.data, network(cloud.points, params).logits.data)
        points, anchors = network_input(cloud, params)
        assert points is cloud.points and anchors is None

    def test_single_point_pool_is_identity(self):
        params = init_baseline(np.random.default_rng(2), n_classes=2, d_model=4)
        cloud = PointCloud([[0.1, 0.2, 0.3]])
        trace = forward(cloud, params)
        # the pool of one point's features is those features
        h = np.maximum(cloud.points @ params.point_w1.data + params.point_b1.data, 0.0)
        feats = (h @ params.point_w2.data + params.point_b2.data)[0]
        h = np.maximum(feats @ params.head_w1.data + params.head_b1.data, 0.0)
        np.testing.assert_allclose(trace.logits.data,
                                   h @ params.head_w2.data + params.head_b2.data,
                                   rtol=1e-12, atol=0)
        assert trace.attention_maps == []

    def test_gradient(self):
        params = init_baseline(np.random.default_rng(3), n_classes=3, d_model=6)
        cloud = random_cloud(10, n=12)

        def f(t):
            saved = params.point_w1
            params.point_w1 = t
            try:
                trace = forward(cloud, params)
                return ad.mean(trace.logits)
            finally:
                params.point_w1 = saved

        probe = Tensor(np.array(params.point_w1.data), requires_grad=True)
        assert finite_diff_check(f, probe) <= 1e-4


class TestMiniatureGradient:
    def test_full_model_finite_differences(self):
        name, err = miniature_max_fd_error(seed=0)
        assert err <= 1e-4, f"worst {name}: {err}"


def random_tensors(rng, *shapes):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def wide_head(rng):
    """A head width of 9, which ``init_model`` does not make for d_model 6."""
    head = random_tensors(rng, (6, 9), (9,), (9, 3))
    return replace(init_model(rng, 3, d_model=6, d_attn=2, n_layers=2),
                   **dict(zip(("head_w1", "head_b1", "head_w2"), head)))


def unequal_baseline_widths(rng):
    """Hidden width 6 and feature width 7, which ``init_baseline`` does not make."""
    return BaselineParams(*random_tensors(rng, (3, 6), (6,), (6, 7), (7,), (7, 11), (11,),
                                          (11, 5), (5,)))


class TestCheckpoint:
    def test_attention_round_trip(self, tmp_path):
        params = mini_params(11)
        sampler = SampleSpec(m=8, k=3, variant="das-l0")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, sampler)
        loaded, loaded_sampler = load_checkpoint(path)
        assert loaded_sampler.variant == "das-l0"
        assert loaded_sampler.m == 8 and loaded_sampler.k == 3
        assert loaded.n_classes == params.n_classes
        assert loaded.group_k == params.group_k
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)

    def test_baseline_round_trip(self, tmp_path):
        params = init_baseline(np.random.default_rng(4), n_classes=5, d_model=6)
        path = tmp_path / "baseline.ckpt"
        save_checkpoint(path, params, SampleSpec(m=1))
        loaded, _ = load_checkpoint(path)
        assert isinstance(loaded, BaselineParams)
        assert loaded.n_classes == 5
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: init_model(rng, 2, 5, d_model=7, d_attn=3, group_k=2, n_layers=1),
            lambda rng: init_model(rng, 4, d_model=6, d_attn=5, n_layers=3),
            lambda rng: init_baseline(rng, 3, d_model=5),
            wide_head,
            unequal_baseline_widths,
        ],
    )
    def test_round_trip_other_shapes(self, tmp_path, make):
        params = make(np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, SampleSpec(m=1))
        loaded, _ = load_checkpoint(path)
        assert type(loaded) is type(params)
        assert loaded.n_classes == params.n_classes
        assert [t.data.shape for t in loaded.tensors()] == [
            t.data.shape for t in params.tensors()
        ]
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a.data, b.data)

    def test_load_builds_the_params_from_the_file_alone(self, tmp_path, monkeypatch):
        saved = []
        for i, params in enumerate((mini_params(17, group_k=3),
                                    init_baseline(np.random.default_rng(7), 4, d_model=6))):
            path = tmp_path / f"{i}.ckpt"
            save_checkpoint(path, params, SampleSpec(m=8))
            saved.append((path, params))

        def no_template(*args, **kwargs):
            raise AssertionError("load_checkpoint built a template")

        monkeypatch.setattr(model, "init_model", no_template)
        monkeypatch.setattr(model, "init_baseline", no_template)
        monkeypatch.setattr(np.random, "default_rng", no_template)
        for path, params in saved:
            loaded, _ = load_checkpoint(path)
            assert type(loaded) is type(params)
            for a, b in zip(params.tensors(), loaded.tensors()):
                assert np.array_equal(a.data, b.data)
                assert b.data.dtype == np.float64 and b.data.flags.writeable
                assert b.requires_grad
        attention = load_checkpoint(saved[0][0])[0]
        assert (attention.m_anchors, attention.group_k, attention.d_attn) == (8, 3, 4)
        assert attention.n_layers == 4

    def test_save_syncs_before_replace(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(tmp_path / "model.ckpt", mini_params(15), SampleSpec(m=8))
        assert calls == ["fsync", "replace"]

    def test_save_is_deterministic(self, tmp_path):
        params = mini_params(12)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, SampleSpec(m=8))
        save_checkpoint(p2, params, SampleSpec(m=8))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX123")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def saved_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mini_params(13), SampleSpec(m=8, k=3, variant="das-l0"))
        return path, path.read_bytes()

    def test_unknown_sampler_code(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        # magic, arch code, 7 header fields, then the sampler code
        offset = 4 + 4 + 7 * 4
        path.write_bytes(raw[:offset] + (99).to_bytes(4, "little") + raw[offset + 4 :])
        with pytest.raises(CheckpointFormatError, match="unknown sampler code 99") as err:
            load_checkpoint(path)
        assert err.value.path == path

    @pytest.mark.parametrize("code, name", [(1, "das-l1"), (2, "das-ballquery-l0")])
    def test_removed_sampler_code(self, tmp_path, code, name):
        path, raw = self.saved_bytes(tmp_path)
        offset = 4 + 4 + 7 * 4
        path.write_bytes(raw[:offset] + code.to_bytes(4, "little") + raw[offset + 4 :])
        with pytest.raises(CheckpointFormatError, match=f"sampler {name} was removed") as err:
            load_checkpoint(path)
        assert err.value.path == path

    @pytest.mark.parametrize("field, reason", [(1, "m must be >= 1"), (2, "k must be >= 1")])
    def test_invalid_sampler_fields(self, tmp_path, field, reason):
        path, raw = self.saved_bytes(tmp_path)
        at = 4 + 4 + 7 * 4 + 4 * field
        path.write_bytes(raw[:at] + bytes(4) + raw[at + 4 :])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.reason == f"sampler: {reason}"

    @pytest.mark.parametrize("keep", [6, 30, 60, -3])
    def test_truncated_file(self, tmp_path, keep):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw[:keep])
        with pytest.raises(CheckpointFormatError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_trailing_bytes(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw + b"\0\0")
        with pytest.raises(CheckpointFormatError, match="2 trailing bytes") as err:
            load_checkpoint(path)
        assert isinstance(err.value, ValueError)
        assert str(path) in str(err.value)

    # 4 magic + 4 arch + 7 x 4 header + 3 x 4 sampler, then the tensor count
    COUNT_AT = 48

    def test_tensor_count_checked_against_header(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        # drop the last tensor (head_b2: rank, 1 dim, 3 f64) and count 20
        last = 4 + 4 + 3 * 8
        body = raw[: self.COUNT_AT] + (20).to_bytes(4, "little") + raw[self.COUNT_AT + 4 :]
        path.write_bytes(body[:-last])
        with pytest.raises(CheckpointFormatError, match="20 tensors, the header gives 21"):
            load_checkpoint(path)

    def test_tensor_shape_checked_against_header(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        # header field 4 is d_attn (4); say 5, leaving the tensors as saved
        at = 4 + 4 + 3 * 4
        path.write_bytes(raw[:at] + (5).to_bytes(4, "little") + raw[at + 4 :])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.reason == "tensor 4 has shape (16, 4), the header gives (16, 5)"

    # header fields start after magic and arch: d_model is field 2, n_layers 5
    @pytest.mark.parametrize(
        "field, reason",
        [
            (5, "21 tensors, the header gives 6442450953"),
            (2, "tensor 0 has shape (6, 16), the header gives (6, 2147483648)"),
        ],
    )
    def test_huge_header_field_allocates_nothing(self, tmp_path, field, reason):
        path, raw = self.saved_bytes(tmp_path)
        at = 8 + 4 * field
        path.write_bytes(raw[:at] + (2**31).to_bytes(4, "little") + raw[at + 4 :])
        start = time.perf_counter()
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.reason == reason
        assert time.perf_counter() - start < 5.0

    def test_empty_tensor_with_huge_dims(self, tmp_path):
        # rank 3, dims (0, 2**32 - 1, 2**32 - 1): no data, and too big a
        # shape for numpy to reshape anything to
        path, raw = self.saved_bytes(tmp_path)
        tensor0 = 4 + 2 * 4 + 6 * 16 * 8
        dims = (0, 2**32 - 1, 2**32 - 1)
        body = np.array((3,) + dims, "<u4").tobytes()
        start = self.COUNT_AT + 4
        path.write_bytes(raw[:start] + body + raw[start + tensor0 :])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(path)
        assert err.value.reason == f"tensor 0 has shape {dims}, the header gives (6, 16)"

    def test_zero_header_field(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw[:12] + bytes(4) + raw[16:])
        with pytest.raises(CheckpointFormatError, match="include 0"):
            load_checkpoint(path)

    def test_non_finite_values(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        # first value of tensor 0, after its rank and its two dims
        at = self.COUNT_AT + 4 + 4 + 8
        path.write_bytes(raw[:at] + np.array([np.nan], "<f8").tobytes() + raw[at + 8 :])
        with pytest.raises(CheckpointFormatError, match="tensor 0 has non-finite values"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path, raw = self.saved_bytes(tmp_path)

        class Unserializable(np.ndarray):
            def tobytes(self, *args, **kwargs):
                raise RuntimeError("tobytes failed")

        params = mini_params(14)
        params.head_b2.data = params.head_b2.data.view(Unserializable)
        with pytest.raises(RuntimeError, match="tobytes failed"):
            save_checkpoint(path, params, SampleSpec(m=8))
        assert path.read_bytes() == raw

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, mini_params(14), SampleSpec(m=8))
        assert path.read_bytes() == raw
        assert list(tmp_path.iterdir()) == [path]
