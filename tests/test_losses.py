import dataclasses
import math

import numpy as np
import pytest

from pcrobust import autodiff as ad
from pcrobust.autodiff import Tensor, backward, finite_diff_check
from pcrobust.losses import (
    LossConfig,
    attention_sem_loss,
    row_entropy,
    smoothed_cross_entropy,
    total_loss,
)
from pcrobust.model import AttentionLayerParams, self_attention_layer

from oracles import brute_entropy, brute_smoothed_ce


class TestRowEntropy:
    def test_uniform_row(self):
        for tau in (0.5, 1.0, 2.0):
            h = row_entropy([3.0, 3.0, 3.0, 3.0], tau).item()
            assert abs(h - math.log(4)) <= 1e-9

    def test_near_one_hot(self):
        assert row_entropy([1000.0, 0.0, 0.0, 0.0], 1.0).item() <= 1e-9

    def test_frozen_example(self):
        # independent evaluation of the entropy formula on (1, 2, 3), tau=1
        assert row_entropy([1.0, 2.0, 3.0], 1.0).item() == pytest.approx(
            0.8323955818399389, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_oracle(self, seed):
        rng = np.random.default_rng(seed)
        row = rng.standard_normal(7) * 3
        tau = float(rng.uniform(0.3, 3.0))
        assert row_entropy(row, tau).item() == pytest.approx(
            brute_entropy(row.tolist(), tau), abs=1e-10
        )

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            row = rng.standard_normal(m) * 5
            h = row_entropy(row, 1.0).item()
            assert 0.0 <= h <= math.log(m) + 1e-12
            if np.ptp(row) > 1e-6:
                assert h < math.log(m)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal(9)
        base = row_entropy(row, 1.0).item()
        for shift in (-50.0, 1.0, 123.456):
            assert abs(row_entropy(row + shift, 1.0).item() - base) <= 1e-12

    def test_tau_limits(self):
        row = np.array([0.4, -1.2, 2.0, 0.9])  # unique max
        assert row_entropy(row, 1e-3).item() <= 1e-2
        assert row_entropy(row, 1e3).item() >= math.log(4) - 1e-2

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            row_entropy([1.0, 2.0], 0.0)


class TestAttentionSemLoss:
    def test_zero_maps_give_log_m(self):
        m = 6
        maps = [np.zeros((m, m)) for _ in range(4)]
        loss = attention_sem_loss(maps, (1, 2, 3, 4), 1.0).item()
        assert loss == pytest.approx(math.log(m), abs=1e-12)

    def test_single_layer_selection(self):
        rng = np.random.default_rng(0)
        maps = [rng.standard_normal((5, 5)) for _ in range(4)]
        full = attention_sem_loss(maps, (3,), 1.0).item()
        only = attention_sem_loss([maps[2]], (1,), 1.0).item()
        assert full == pytest.approx(only, abs=1e-14)

    def test_two_layer_average(self):
        a = np.zeros((4, 4))  # entropy ln 4 per row
        b = np.full((4, 4), 0.0)
        b[:, 0] = 1000.0  # entropy ~0 per row
        loss = attention_sem_loss([a, b], (1, 2), 1.0).item()
        assert loss == pytest.approx(math.log(4) / 2, abs=1e-9)

    def test_layer_bounds_checked(self):
        maps = [np.zeros((3, 3))]
        with pytest.raises(ValueError):
            attention_sem_loss(maps, (2,), 1.0)
        with pytest.raises(ValueError):
            attention_sem_loss(maps, (), 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        other = Tensor(rng.standard_normal((4, 4)))

        def f(t):
            return attention_sem_loss([t, other], (1, 2), 0.8)

        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        assert finite_diff_check(f, x) <= 1e-4


class TestSmoothedCrossEntropy:
    def test_eps_zero_is_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal(5)
        label = 3
        loss = smoothed_cross_entropy(logits, label, 0.0).item()
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert loss == pytest.approx(-math.log(probs[label]), abs=1e-12)

    def test_uniform_logits(self):
        for c in (2, 4, 10):
            loss = smoothed_cross_entropy(np.zeros(c), 0, 0.0).item()
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_frozen_example(self):
        # independent evaluation: logits (2, 0), label 0, eps 0.2
        loss = smoothed_cross_entropy([2.0, 0.0], 0, 0.2).item()
        assert loss == pytest.approx(0.5269280110429727, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(6) * 2
        label = int(rng.integers(0, 6))
        eps = float(rng.uniform(0, 0.5))
        assert smoothed_cross_entropy(logits, label, eps).item() == pytest.approx(
            brute_smoothed_ce(logits.tolist(), label, eps), abs=1e-10
        )

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(6), requires_grad=True)
        assert finite_diff_check(lambda t: smoothed_cross_entropy(t, 2, 0.2), x) <= 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            smoothed_cross_entropy([1.0], 0, 0.0)
        with pytest.raises(ValueError):
            smoothed_cross_entropy([1.0, 2.0], 5, 0.0)
        with pytest.raises(ValueError):
            smoothed_cross_entropy([1.0, 2.0], 0, 1.0)


class TestBatchedLosses:
    """(B, ...) inputs give the mean of the per-cloud losses."""

    def test_cross_entropy_takes_a_label_vector(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 4)) * 2
        labels = rng.integers(0, 4, 5)
        rows = [smoothed_cross_entropy(row, int(l), 0.2).item()
                for row, l in zip(logits, labels)]
        got = smoothed_cross_entropy(logits, labels, 0.2).item()
        assert got == pytest.approx(np.mean(rows), abs=1e-14)

    def test_cross_entropy_label_shape_checked(self):
        with pytest.raises(ValueError):
            smoothed_cross_entropy(np.zeros((3, 4)), [0, 1], 0.0)
        with pytest.raises(ValueError):
            smoothed_cross_entropy(np.zeros((2, 4)), [0, 4], 0.0)

    def test_sem_losses_average_over_the_batch(self):
        rng = np.random.default_rng(5)
        maps = [rng.standard_normal((3, 6, 6)) for _ in range(2)]
        per_attn = [attention_sem_loss([m[b] for m in maps], (1, 2), 0.9).item()
                    for b in range(3)]
        assert attention_sem_loss(maps, (1, 2), 0.9).item() == pytest.approx(
            np.mean(per_attn), abs=1e-14)


class TestTotalLoss:
    def test_zero_weight_is_ce(self):
        ce = Tensor(np.asarray(1.5))
        sem = Tensor(np.asarray(2.0))
        assert total_loss(ce, sem, 0.0).item() == 1.5

    def test_arithmetic(self):
        ce = Tensor(np.asarray(1.0))
        sem = Tensor(np.asarray(2.0))
        assert total_loss(ce, sem, 0.1).item() == pytest.approx(1.2)

    def test_default_weight(self):
        assert LossConfig().sem_weight == 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(sem_weight=-0.1)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(sem_mode="nope")
        with pytest.raises(ValueError):
            LossConfig(sem_mode="attention", sem_layers=())
        with pytest.raises(ValueError, match="sem_weight 0 turns SEM off"):
            LossConfig(sem_mode="off")

    def test_channel_sem_is_removed(self):
        with pytest.raises(ValueError, match="sem_mode 'channel' was removed"):
            LossConfig(sem_mode="channel")
        assert "sem_mode" not in {f.name for f in dataclasses.fields(LossConfig)}
        assert LossConfig(sem_mode="attention") == LossConfig()


class TestDescentSanity:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_step_decreases_attention_entropy(self, seed):
        rng = np.random.default_rng(seed)
        d, d_attn, m = 8, 4, 6
        f_in = Tensor(rng.standard_normal((m, d)))
        layer = AttentionLayerParams(
            w_q=Tensor(rng.standard_normal((d, d_attn)) * 0.5, requires_grad=True),
            w_k=Tensor(rng.standard_normal((d, d_attn)) * 0.5, requires_grad=True),
            w_v=Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True),
        )

        def loss_value():
            _, scores = self_attention_layer(f_in, layer, d_attn)
            return attention_sem_loss([scores], (1,), 1.0)

        base = loss_value()
        grads = backward(base)
        originals = {t: np.array(t.data) for t in layer.tensors()}

        step = 1e-2
        for _ in range(12):
            for t in layer.tensors():
                t.data = originals[t] - step * grads.get(t, 0.0)
            if loss_value().item() < base.item():
                break
            step /= 2
        else:
            pytest.fail(f"no descent found for seed {seed}")
