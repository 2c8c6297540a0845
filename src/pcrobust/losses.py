"""Training objectives: smoothed cross-entropy, the self-entropy term that
sharpens attention maps row by row, and their weighted combination.

The entropy term takes a temperature softmax of its own; the model's
attention softmax (temperature 1) is a separate computation on the same
pre-softmax scores.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class LossConfig:
    """Objective configuration.

    sem_weight: weight of the entropy term in the joint loss (lambda);
        0 turns the term off
    tau: temperature of the entropy-term softmax
    sem_layers: 1-based attention layers the term averages over; None
        means every layer the model has
    smoothing_eps: label-smoothing mass spread over the wrong classes
    sem_mode: not a field; SEM acts on attention maps only, so only
        "attention" is accepted (perfbench/run.py still passes it)
    """

    sem_weight: float = 0.1
    tau: float = 1.0
    sem_layers: tuple | None = None
    smoothing_eps: float = 0.2
    sem_mode: InitVar[str] = "attention"

    def __post_init__(self, sem_mode):
        if sem_mode != "attention":
            raise ValueError(f"sem_mode {sem_mode!r} was removed: SEM acts on attention "
                             "maps only; sem_weight 0 turns SEM off")
        if self.sem_weight < 0:
            raise ValueError("sem_weight must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.sem_layers == ():
            raise ValueError("sem_layers must be nonempty")
        if not 0 <= self.smoothing_eps < 1:
            raise ValueError("smoothing_eps must be in [0, 1)")
        if self.sem_layers is not None:
            object.__setattr__(self, "sem_layers", tuple(sorted(self.sem_layers)))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def row_entropy(row, tau: float = 1.0) -> Tensor:
    """Entropy of the tempered softmax of one score vector."""
    t = _as_tensor(row)
    if t.data.ndim not in (1, 2) or t.data.size != t.data.shape[-1]:
        raise ValueError(f"row_entropy expects a single row, got {t.data.shape}")
    return ad.mean(ad.entropy_rows(t, tau))


def attention_sem_loss(maps, sem_layers=None, tau: float = 1.0) -> Tensor:
    """Mean row entropy of the selected pre-softmax attention maps.

    ``maps`` holds one (M, M) score tensor per attention layer in order,
    or a (B, M, M) stack for a batch; ``sem_layers`` selects 1-based
    layers, None all of them. The result averages over the selected layers
    and over rows (of every cloud of a batch).
    """
    layers = sorted(set(range(1, len(maps) + 1) if sem_layers is None else sem_layers))
    if not layers:
        raise ValueError("sem_layers must be nonempty")
    if any(l < 1 or l > len(maps) for l in layers):
        raise ValueError(f"sem_layers {layers} outside available 1..{len(maps)}")
    per_layer = [ad.mean(ad.entropy_rows(_as_tensor(maps[l - 1]), tau)) for l in layers]
    total = per_layer[0]
    for term in per_layer[1:]:
        total = ad.add(total, term)
    return ad.mul_scalar(total, 1.0 / len(layers))


def smoothed_cross_entropy(logits, label, eps: float = 0.0) -> Tensor:
    """Cross-entropy against a label-smoothed target distribution.

    The target puts 1 - eps on the true class and eps / (C - 1) on each of
    the other classes. (C,) logits take one label; (B, C) logits take B
    labels and give the mean over rows.
    """
    t = _as_tensor(logits)
    labels = np.asarray(label)
    n_classes = t.data.shape[-1]
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if ((labels < 0) | (labels >= n_classes)).any():
        raise ValueError(f"label {label} out of range for {n_classes} classes")
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    # labels that do not fit the logits fail the shape check of mul below
    target = np.where(labels[..., None] == np.arange(n_classes), 1.0 - eps,
                      eps / (n_classes - 1))
    log_q = ad.log_softmax_rows(t, 1.0)
    return ad.mul_scalar(ad.tsum(ad.mul(log_q, Tensor(target))), -1.0 / labels.size)


def total_loss(ce: Tensor, sem: Tensor, sem_weight: float) -> Tensor:
    """Joint objective: classification loss plus weighted entropy term."""
    return ad.add(ce, ad.mul_scalar(sem, sem_weight))
