"""Flat key-value run-config files.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Lists use commas (``classes = sphere,cube``); ablation-grid axes separate
alternative values with ``|`` (``lambda = 0|0.1``). Key reference lives in
the README.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from .data import SHAPE_GENERATORS, SyntheticDatasetSpec
from .losses import LossConfig
from .sampling import SampleSpec
from .train import TrainConfig


def parse_flat_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


DEFAULTS = {
    "classes": ",".join(SHAPE_GENERATORS),
    "train_per_class": "100",
    "test_per_class": "30",
    "points": "256",
    "data_seed": "0",
    "arch": "attention",
    "m_anchors": "64",
    "d_model": "64",
    "d_attn": "16",
    "group_k": "8",
    "n_layers": "4",
    "sampler": "das-l0",
    "sampler_k": "5",
    "lambda": "0.1",
    "tau": "1.0",
    "sem_mode": "attention",
    # sem_layers defaults to all attention layers (1..n_layers)
    "smoothing_eps": "0.2",
    "epochs": "60",
    "batch_size": "16",
    "lr": "0.001",
    "optimizer": "adam",
    "seed": "0",
    "val_fraction": "0.2",
}


class ConfigError(ValueError):
    """A run config with keys that no setting reads."""


def _merged(cfg: dict) -> dict:
    """The config over DEFAULTS; raises ConfigError for any unknown key."""
    unknown = sorted(set(cfg) - set(DEFAULTS) - {"sem_layers"})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return {**DEFAULTS, **cfg}


def build_dataset_specs(cfg: dict):
    """(train spec, test spec) from config keys; test uses a derived seed."""
    from .data import derive_seed

    merged = _merged(cfg)
    classes = tuple(c.strip() for c in merged["classes"].split(",") if c.strip())
    base = dict(
        classes=classes,
        points=int(merged["points"]),
    )
    seed = int(merged["data_seed"])
    train_spec = SyntheticDatasetSpec(
        per_class=int(merged["train_per_class"]), seed=seed, **base
    )
    test_spec = SyntheticDatasetSpec(
        per_class=int(merged["test_per_class"]),
        seed=derive_seed(seed, "test-split"),
        **base,
    )
    return train_spec, test_spec


def build_train_config(cfg: dict) -> TrainConfig:
    merged = _merged(cfg)
    n_layers = int(merged["n_layers"])
    sampler = SampleSpec(
        m=int(merged["m_anchors"]),
        k=int(merged["sampler_k"]),
        variant=merged["sampler"],
        seed=int(merged["seed"]),
    )
    if "sem_layers" in merged:
        sem_layers = _int_list(merged["sem_layers"])
    else:
        sem_layers = tuple(range(1, n_layers + 1))
    loss = LossConfig(
        sem_weight=float(merged["lambda"]),
        tau=float(merged["tau"]),
        sem_mode=merged["sem_mode"],
        sem_layers=sem_layers,
        smoothing_eps=float(merged["smoothing_eps"]),
    )
    return TrainConfig(
        sampler=sampler,
        loss=loss,
        arch=merged["arch"],
        d_model=int(merged["d_model"]),
        d_attn=int(merged["d_attn"]),
        group_k=int(merged["group_k"]),
        n_layers=n_layers,
        epochs=int(merged["epochs"]),
        batch_size=int(merged["batch_size"]),
        lr=float(merged["lr"]),
        optimizer=merged["optimizer"],
        seed=int(merged["seed"]),
        val_fraction=float(merged["val_fraction"]),
    )


def expand_grid(cfg: dict):
    """Cartesian product over keys whose value contains ``|`` alternatives.

    Returns (axis key list, list of flat configs in deterministic order).
    """
    axes = {k: v.split("|") for k, v in cfg.items() if "|" in v}
    fixed = {k: v for k, v in cfg.items() if "|" not in v}
    if not axes:
        return [], [dict(fixed)]
    keys = sorted(axes)
    combos = []
    for values in itertools.product(*(axes[k] for k in keys)):
        combo = dict(fixed)
        combo.update({k: v.strip() for k, v in zip(keys, values)})
        combos.append(combo)
    return keys, combos
