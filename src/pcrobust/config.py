"""Flat key-value run-config files.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Lists use commas (``classes = sphere,cube``); ablation-grid axes separate
alternative values with ``|`` (``lambda = 0|0.1``). Each key in ``KEYS``
sets one dataclass field; a missing key leaves the field's default. Key
reference lives in the README.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from pathlib import Path

from .data import SyntheticDatasetSpec, derive_seed
from .train import TrainConfig


class ConfigError(ValueError):
    """A malformed run config; the message names the key (and path:line)."""


class FlatConfig(dict):
    """Key -> value text; ``source[key]`` is "path:line" for a key from a file."""

    def __init__(self, items=(), source=None):
        super().__init__(items)
        self.source = dict(source or {})


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# key -> (owner, field, parser). The owner is "data" (SyntheticDatasetSpec),
# "test" (the test split's spec) or "train" (TrainConfig); "loss.tau" is
# TrainConfig.loss.tau. Keys land one at a time in table order, each
# validated as it lands, so a key that another's validity depends on comes
# first: n_layers before sem_layers, and the loss keys before arch.
KEYS = {
    "classes": ("data", "classes", _names),
    "train_per_class": ("data", "per_class", int),
    "test_per_class": ("test", "per_class", int),
    "points": ("data", "points", int),
    "data_seed": ("data", "seed", int),
    "n_layers": ("train", "n_layers", int),
    "lambda": ("train", "loss.sem_weight", _float),
    "tau": ("train", "loss.tau", _float),
    "sem_layers": ("train", "loss.sem_layers", _ints),
    "smoothing_eps": ("train", "loss.smoothing_eps", _float),
    "arch": ("train", "arch", str),
    "m_anchors": ("train", "sampler.m", int),
    "sampler": ("train", "sampler.variant", str),
    "sampler_k": ("train", "sampler.k", int),
    "d_model": ("train", "d_model", int),
    "d_attn": ("train", "d_attn", int),
    "group_k": ("train", "group_k", int),
    "epochs": ("train", "epochs", int),
    "batch_size": ("train", "batch_size", int),
    "lr": ("train", "lr", _float),
    "seed": ("train", "seed", int),
    "val_fraction": ("train", "val_fraction", _float),
}

TEST_PER_CLASS = 30  # the test split's size has no dataclass of its own


def _error(cfg, key, reason) -> ConfigError:
    where = getattr(cfg, "source", {}).get(key)
    return ConfigError(f"{where}: {reason}" if where else reason)


def parse_flat_file(path) -> FlatConfig:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    out = FlatConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"{path}:{lineno}"
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{where}: {key}: repeated key, first set at {out.source[key]}")
        out[key], out.source[key] = value, where
    return out


def _replace(obj, path, value):
    """``obj`` with the field at ``path`` (a list of field names) set to value."""
    head, *rest = path
    return dataclasses.replace(
        obj, **{head: _replace(getattr(obj, head), rest, value) if rest else value})


def _build(obj, cfg: dict, owner: str):
    """``obj`` with every key of ``cfg`` that ``owner`` reads applied in table
    order; any unknown key, unparsable value or rejected setting raises
    ConfigError naming the key."""
    unknown = sorted(set(cfg) - set(KEYS))
    if unknown:
        raise _error(cfg, unknown[0], f"unknown config keys {unknown}")
    for key, (key_owner, field, parse) in KEYS.items():
        if key_owner != owner or key not in cfg:
            continue
        text = cfg[key]
        try:
            if "|" in text:
                raise ValueError("'|' alternatives are read only by ablate grids, "
                                 "on training keys")
            obj = _replace(obj, field.split("."), parse(text))
        except ValueError as exc:
            raise _error(cfg, key, f"{key} = {text!r}: {exc}") from exc
    return obj


def build_dataset_specs(cfg: dict):
    """(train spec, test spec) from config keys; test uses a derived seed."""
    train_spec = _build(SyntheticDatasetSpec(), cfg, "data")
    test_spec = dataclasses.replace(train_spec, per_class=TEST_PER_CLASS,
                                    seed=derive_seed(train_spec.seed, "test-split"))
    return train_spec, _build(test_spec, cfg, "test")


def build_train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig(), cfg, "train")


def expand_grid(cfg: dict):
    """Cartesian product over keys whose value contains ``|`` alternatives.

    Returns (axis key list, list of flat configs in deterministic order);
    each config keeps the file positions of ``cfg``.
    """
    keys = sorted(k for k, v in cfg.items() if "|" in v)
    combos = []
    for values in itertools.product(*(cfg[k].split("|") for k in keys)):
        combo = FlatConfig(cfg, getattr(cfg, "source", {}))
        combo.update((k, v.strip()) for k, v in zip(keys, values))
        combos.append(combo)
    return keys, combos
