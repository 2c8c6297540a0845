"""Minibatch training of the classifiers with the joint objective.

The loop is a single sequential pass (deterministic per seed): shuffled
minibatches, per-cloud forward, mean batch loss = classification +
weighted self-entropy term, one optimizer step per batch. A fixed fraction
of the training clouds is held out per seed; the best-by-validation
parameters are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import derive_seed
from .losses import (
    LossConfig,
    attention_sem_loss,
    channel_sem_loss,
    smoothed_cross_entropy,
    total_loss,
)
from .model import (
    BaselineParams,
    ModelParams,
    baseline_forward,
    forward,
    init_baseline,
    init_model,
)
from .sampling import SampleSpec


class TrainingDiverged(RuntimeError):
    """The loss became non-finite during optimization."""


@dataclass(frozen=True)
class TrainConfig:
    sampler: SampleSpec = SampleSpec(m=64)
    loss: LossConfig = LossConfig()
    arch: str = "attention"
    d_model: int = 64
    d_attn: int = 16
    group_k: int = 8
    n_layers: int = 4
    epochs: int = 60
    batch_size: int = 16
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.arch not in ("attention", "baseline"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if min(self.epochs, self.batch_size) < 1 or self.lr <= 0:
            raise ValueError("epochs, batch_size, lr must be positive")
        if not 0 <= self.val_fraction < 1:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.arch == "attention" and self.loss.sem_mode == "attention":
            bad = [l for l in self.loss.sem_layers if not 1 <= l <= self.n_layers]
            if bad:
                raise ValueError(
                    f"sem_layers {bad} outside the model's 1..{self.n_layers}"
                )


@dataclass
class TrainResult:
    params: ModelParams | BaselineParams
    sampler: SampleSpec
    curve: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_error: float = float("inf")


class Adam:
    def __init__(self, tensors, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors = list(tensors)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.t = 0

    def step(self):
        self.t += 1
        correction1 = 1 - self.beta1**self.t
        correction2 = 1 - self.beta2**self.t
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * np.square(g)
            p.data -= self.lr * (m / correction1) / (
                np.sqrt(v / correction2) + self.eps
            )


class SGD:
    def __init__(self, tensors, lr=1e-3):
        self.tensors = list(tensors)
        self.lr = lr

    def step(self):
        for p in self.tensors:
            if p.grad is not None:
                p.data -= self.lr * p.grad


def _cloud_loss(cloud, params, config, rng):
    if config.arch == "attention":
        trace = forward(cloud, params, config.sampler, rng)
    else:
        trace = baseline_forward(cloud, params)
    loss_cfg = config.loss
    ce = smoothed_cross_entropy(trace.logits, cloud.label, loss_cfg.smoothing_eps)
    if loss_cfg.sem_mode == "off" or loss_cfg.sem_weight == 0.0:
        return ce, trace
    if loss_cfg.sem_mode == "attention":
        sem = attention_sem_loss(
            trace.attention_maps, loss_cfg.sem_layers, loss_cfg.tau
        )
    else:
        sem = channel_sem_loss(trace.point_features, loss_cfg.tau)
    return total_loss(ce, sem, loss_cfg.sem_weight), trace


def predict(cloud, params, sampler=None, rng=None, fps_start=0) -> int:
    if isinstance(params, BaselineParams):
        return baseline_forward(cloud, params).prediction
    return forward(cloud, params, sampler, rng, fps_start=fps_start).prediction


def _error_rate(clouds, params, config, rng_seed):
    wrong = 0
    for i, cloud in enumerate(clouds):
        rng = np.random.default_rng(derive_seed(rng_seed, i))
        if predict(cloud, params, config.sampler, rng) != cloud.label:
            wrong += 1
    return wrong / len(clouds)


def train(dataset, config: TrainConfig) -> TrainResult:
    """Train on labeled clouds; returns the best-by-validation parameters.

    Deterministic per config.seed: the same seed reproduces the returned
    parameters bit for bit. Raises TrainingDiverged when the loss goes
    non-finite.
    """
    labels = sorted({c.label for c in dataset})
    if labels != list(range(len(labels))) or len(labels) < 2:
        raise ValueError("dataset labels must be 0..C-1 with C >= 2")
    n_classes = len(labels)

    rng = np.random.default_rng(config.seed)
    if config.arch == "attention":
        params = init_model(
            rng,
            n_classes,
            m_anchors=config.sampler.m,
            d_model=config.d_model,
            d_attn=config.d_attn,
            group_k=config.group_k,
            n_layers=config.n_layers,
        )
    else:
        params = init_baseline(rng, n_classes, hidden=config.d_model,
                               d_feat=config.d_model)

    order = rng.permutation(len(dataset))
    n_val = int(round(config.val_fraction * len(dataset)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split left no training clouds")

    opt_cls = Adam if config.optimizer == "adam" else SGD
    opt = opt_cls(params.tensors(), lr=config.lr)
    result = TrainResult(params=params, sampler=config.sampler)

    for epoch in range(config.epochs):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        epoch_losses = []
        for start in range(0, epoch_order.size, config.batch_size):
            batch = epoch_order[start : start + config.batch_size]
            params.zero_grad()
            try:
                batch_loss = None
                for i in batch:
                    loss, _ = _cloud_loss(dataset[i], params, config, rng)
                    batch_loss = loss if batch_loss is None else ad.add(batch_loss, loss)
                batch_loss = ad.mul_scalar(batch_loss, 1.0 / batch.size)
                ad.backward(batch_loss)
            except NonFiniteError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch index {start}: {exc}"
                ) from exc
            epoch_losses.append(batch_loss.item())
            opt.step()

        if val_idx.size:
            val_err = _error_rate(
                [dataset[i] for i in val_idx],
                params,
                config,
                derive_seed(config.seed, "val", epoch),
            )
        else:
            val_err = float(np.mean(epoch_losses))
        result.curve.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "val_error": val_err,
            }
        )
        if val_err < result.best_val_error:
            result.best_val_error = val_err
            result.best_epoch = epoch
            result.params = params.copy()

    return result
