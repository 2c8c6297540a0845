"""Minibatch training of the classifiers with the joint objective.

The loop is a single sequential pass (deterministic per seed): shuffled
minibatches, each cloud's network input (``network_input``: anchors drawn
and grouped, or the baseline's points) in batch order, then one graph per
minibatch over the stacked inputs, mean batch loss = classification +
weighted self-entropy term, one optimizer step per batch. A cloud keeps
its neighbour table and density weights, so every epoch reuses them.
A fixed fraction of the training clouds is held out per seed and predicted
on a no-grad view of the weights, which builds no graph; the
best-by-validation parameters are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import check_labeled, derive_seed
from .losses import (
    LossConfig,
    attention_sem_loss,
    channel_sem_loss,
    smoothed_cross_entropy,
    total_loss,
)
from .model import (BaselineParams, ModelParams, init_baseline, init_model, network,
                    network_input)
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
        if min(self.d_model, self.d_attn, self.group_k, self.n_layers) < 1:
            raise ValueError("d_model, d_attn, group_k, n_layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.val_fraction < 1:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.loss.sem_weight > 0 and self.loss.sem_mode == "attention":
            n = self.n_layers if self.arch == "attention" else 0
            bad = [l for l in self.loss.sem_layers or () if not 1 <= l <= n]
            if bad or not n:
                raise ValueError(f"loss.sem_mode 'attention' reads sem_layers {bad or 'all'}, "
                                 f"but arch {self.arch!r} has {n} attention layers")


@dataclass
class TrainResult:
    params: ModelParams | BaselineParams
    sampler: SampleSpec
    curve: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_error: float = float("inf")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba (2015) defaults


class Adam:
    def __init__(self, tensors, lr):
        self.tensors = list(tensors)
        self.lr = lr
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.t = 0

    def step(self):
        self.t += 1
        correction1 = 1 - ADAM_BETA1**self.t
        correction2 = 1 - ADAM_BETA2**self.t
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = p.grad if p.grad is not None else 0.0
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * np.square(g)
            p.data -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


class SGD:
    def __init__(self, tensors, lr):
        self.tensors = list(tensors)
        self.lr = lr

    def step(self):
        for p in self.tensors:
            if p.grad is not None:
                p.data -= self.lr * p.grad


def _stack_inputs(clouds, params, sampler, rngs) -> np.ndarray:
    """``network_input`` of a list of clouds as one batch, anchors drawn per
    cloud in order."""
    return np.stack([network_input(c, params, sampler, rng)[0]
                     for c, rng in zip(clouds, rngs)])


def minibatch_loss(clouds, params, config, rngs):
    """Mean over the clouds of classification plus weighted self-entropy, one graph."""
    trace = network(_stack_inputs(clouds, params, config.sampler, rngs), params)
    cfg = config.loss
    ce = smoothed_cross_entropy(trace.logits, [c.label for c in clouds], cfg.smoothing_eps)
    if cfg.sem_weight == 0.0:
        return ce
    if cfg.sem_mode == "attention":
        sem = attention_sem_loss(trace.attention_maps, cfg.sem_layers, cfg.tau)
    else:
        sem = channel_sem_loss(trace.point_features, cfg.tau)
    return total_loss(ce, sem, cfg.sem_weight)


def _error_rate(clouds, params, config, rng_seed):
    """Error rate in minibatches; cloud i draws its anchors from its own stream."""
    wrong = 0
    for start in range(0, len(clouds), config.batch_size):
        batch = clouds[start : start + config.batch_size]
        rngs = [np.random.default_rng(derive_seed(rng_seed, start + j))
                for j in range(len(batch))]
        trace = network(_stack_inputs(batch, params, config.sampler, rngs), params)
        wrong += int((trace.logits.data.argmax(axis=-1) != [c.label for c in batch]).sum())
    return wrong / len(clouds)


def train(dataset, config: TrainConfig) -> TrainResult:
    """Train on labeled clouds; returns the best-by-validation parameters.

    Deterministic per config.seed: the same seed reproduces the returned
    parameters bit for bit. Raises TrainingDiverged when the loss goes
    non-finite.
    """
    check_labeled(dataset)
    labels = sorted({c.label for c in dataset})
    if labels != list(range(len(labels))) or len(labels) < 2:
        raise ValueError("dataset labels must be 0..C-1 with C >= 2")
    n_classes = len(labels)
    sizes = sorted({c.n for c in dataset})
    if config.arch == "baseline" and len(sizes) > 1:
        raise ValueError(f"arch 'baseline' stacks whole clouds: sizes {sizes} differ")

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
    frozen = params.no_grad()  # the same arrays, which the optimizer updates

    for epoch in range(config.epochs):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        epoch_losses = []
        for start in range(0, epoch_order.size, config.batch_size):
            batch = [dataset[i] for i in epoch_order[start : start + config.batch_size]]
            params.zero_grad()
            try:
                # the previous step's graph lives until here (see README)
                batch_loss = None
                batch_loss = minibatch_loss(batch, params, config, [rng] * len(batch))
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
                frozen,
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
