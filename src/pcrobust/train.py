"""Minibatch training of the classifiers with the joint objective.

The loop is a single sequential pass (deterministic per seed): shuffled
minibatches, each cloud's network input (``network_input``: anchors drawn
and grouped, or the baseline's points) in batch order, then one graph per
minibatch over the stacked inputs, mean batch loss = classification +
weighted self-entropy term, one Adam step per batch on the gradients
``backward`` returns, dropped after the step. A cloud keeps its neighbour
table, density weights and FPS anchors, which every epoch and validation
pass reuse. Before the first step every cloud is checked for enough points
to group and at least m anchor candidates. A fixed fraction of the clouds,
at least one, is held out per seed and predicted after every epoch on a
no-grad view of the weights, which builds no graph; the parameters of the
epoch with the lowest validation error rate are returned.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import check_labeled, cloud_name, derive_seed
from .losses import LossConfig, attention_sem_loss, smoothed_cross_entropy, total_loss
from .model import (BaselineParams, ModelParams, checked_candidates, init_baseline,
                    init_model, network, stack_inputs)
from .sampling import InfeasibleSampleError, SampleSpec


class TrainingDiverged(RuntimeError):
    """The loss became non-finite during optimization."""


class InfeasibleAnchorsError(InfeasibleSampleError):
    """A training or validation cloud has fewer anchor candidates than
    ``m_anchors``; ``train()`` raises it before any optimizer step. ``where``
    names the cloud and ``index`` is its position in the dataset."""

    def __init__(self, requested: int, available: int, index: int, sampler: str, where: str):
        super().__init__(requested, available, "anchor candidates")
        self.args = (requested, available, index, sampler, where)
        self.index, self.sampler, self.where = index, sampler, where

    def __str__(self) -> str:
        return (f"{self.where}: m_anchors = {self.requested} is infeasible "
                f"for sampler {self.sampler}: {super().__str__()}")


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
    seed: int = 0
    val_fraction: float = 0.2
    # not a field: Adam is the one optimizer; perfbench/run.py still passes "adam"
    optimizer: InitVar[str] = "adam"

    def __post_init__(self, optimizer):
        if optimizer != "adam":
            raise ValueError(f"optimizer {optimizer!r} was removed: training uses Adam")
        if self.arch not in ("attention", "baseline"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if min(self.epochs, self.batch_size) < 1 or self.lr <= 0:
            raise ValueError("epochs, batch_size, lr must be positive")
        if min(self.d_model, self.d_attn, self.group_k, self.n_layers) < 1:
            raise ValueError("d_model, d_attn, group_k, n_layers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1): training picks its "
                             "checkpoint by the error on held-out clouds")
        if self.loss.sem_weight > 0:
            n = self.n_layers if self.arch == "attention" else 0
            bad = [l for l in self.loss.sem_layers or () if not 1 <= l <= n]
            if bad or not n:
                raise ValueError(f"loss.sem_weight > 0 reads sem_layers {bad or 'all'}, "
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

    def step(self, grads):
        self.t += 1
        correction1 = 1 - ADAM_BETA1**self.t
        correction2 = 1 - ADAM_BETA2**self.t
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = grads.get(p, 0.0)
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * np.square(g)
            p.data -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


def minibatch_loss(clouds, params, config, rngs):
    """Mean over the clouds of classification plus weighted self-entropy, one graph."""
    trace = network(stack_inputs(clouds, params, config.sampler, rngs), params)
    cfg = config.loss
    ce = smoothed_cross_entropy(trace.logits, [c.label for c in clouds], cfg.smoothing_eps)
    if cfg.sem_weight == 0.0:
        return ce
    sem = attention_sem_loss(trace.attention_maps, cfg.sem_layers, cfg.tau)
    return total_loss(ce, sem, cfg.sem_weight)


def _error_rate(clouds, params, config, rng_seed):
    """Error rate in minibatches; cloud i draws its anchors from its own stream."""
    wrong = 0
    for start in range(0, len(clouds), config.batch_size):
        batch = clouds[start : start + config.batch_size]
        rngs = [np.random.default_rng(derive_seed(rng_seed, start + j))
                for j in range(len(batch))]
        trace = network(stack_inputs(batch, params, config.sampler, rngs), params)
        wrong += int((trace.logits.data.argmax(axis=-1) != [c.label for c in batch]).sum())
    return wrong / len(clouds)


def train(dataset, config: TrainConfig) -> TrainResult:
    """Train on labeled clouds; returns the best-by-validation parameters.

    ``round(val_fraction * len(dataset))`` clouds, drawn per seed, are held
    out; every curve row's ``val_error`` is the error rate on them, and the
    first epoch with the lowest one gives the returned parameters.
    Deterministic per config.seed: the same seed reproduces the returned
    parameters bit for bit. Raises, before any step, ValueError when the
    labels are not 0..C-1 with C >= 2 or the split leaves no validation or
    no training cloud, TooFewPointsError when a cloud has fewer points than
    its groups or the sampler's neighbour table take, and
    InfeasibleAnchorsError when it cannot give m anchors; raises
    TrainingDiverged when the loss goes non-finite. Errors name a cloud by
    its file, or by its index for an in-memory cloud.
    Sets the process's malloc thresholds so freed arrays stay in the heap
    (``autodiff._keep_freed_arrays``).
    """
    ad._keep_freed_arrays()
    check_labeled(dataset)
    labels = sorted({c.label for c in dataset})
    if labels != list(range(len(labels))) or len(labels) < 2:
        raise ValueError(f"dataset labels must be 0..C-1 with C >= 2, got {labels}")
    n_classes = len(labels)
    n_val = int(round(config.val_fraction * len(dataset)))
    if n_val in (0, len(dataset)):
        left = "no validation cloud" if n_val == 0 else "no training cloud"
        raise ValueError(f"val_fraction = {config.val_fraction} of {len(dataset)} clouds "
                         f"leaves {left}")
    sizes = sorted({c.n for c in dataset})
    if config.arch == "baseline" and len(sizes) > 1:
        raise ValueError(f"arch 'baseline' stacks whole clouds: sizes {sizes} differ")
    if config.arch == "attention":
        m, variant = config.sampler.m, config.sampler.variant
        for index, cloud in enumerate(dataset):
            where = cloud_name(cloud, index)
            available = checked_candidates(cloud, config.group_k, config.sampler, where,
                                           index)
            if available < m:
                raise InfeasibleAnchorsError(m, available, index, variant, where)

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
        params = init_baseline(rng, n_classes, d_model=config.d_model)

    order = rng.permutation(len(dataset))
    val_idx, train_idx = order[:n_val], order[n_val:]

    opt = Adam(params.tensors(), lr=config.lr)
    result = TrainResult(params=params, sampler=config.sampler)
    frozen = params.no_grad()  # the same arrays, which the optimizer updates

    for epoch in range(config.epochs):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        epoch_losses = []
        for start in range(0, epoch_order.size, config.batch_size):
            batch = [dataset[i] for i in epoch_order[start : start + config.batch_size]]
            try:
                batch_loss = minibatch_loss(batch, params, config, [rng] * len(batch))
                grads = ad.backward(batch_loss)
            except NonFiniteError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch index {start}: {exc}"
                ) from exc
            epoch_losses.append(batch_loss.item())
            opt.step(grads)
            del grads  # not alive through the next forward

        val_err = _error_rate(
            [dataset[i] for i in val_idx],
            frozen,
            config,
            derive_seed(config.seed, "val", epoch),
        )
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
