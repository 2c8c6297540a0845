"""Ablation driver: train + evaluate one config per grid cell, emit a table."""

from __future__ import annotations

import csv

from .config import build_train_config
from .corruption import ALL_KINDS
from .evaluate import EVAL_SEEDS, evaluate
from .train import train

GRID_COLUMNS = ("sampler", "sampler_k", "lambda", "tau", "sem_layers", "seed")


def run_grid(
    train_set,
    test_set,
    configs,
    kinds=ALL_KINDS,
    eval_seeds=EVAL_SEEDS,
    corruption_seed: int = 0,
    axes=(),
):
    """One row per flat config dict: GRID_COLUMNS, then each key of ``axes``
    they do not list, then metrics. All configs are built before training."""
    columns = GRID_COLUMNS + tuple(k for k in axes if k not in GRID_COLUMNS)
    train_configs = [build_train_config(cfg) for cfg in configs]
    rows = []
    for cfg, tc in zip(configs, train_configs):
        result = train(train_set, tc)
        report, _ = evaluate(
            result.params,
            test_set,
            sampler=result.sampler,
            kinds=kinds,
            eval_seeds=eval_seeds,
            corruption_seed=corruption_seed,
        )
        row = {key: cfg.get(key, "") for key in columns}
        row["er_clean"] = report.er_clean
        row["er_cor"] = report.er_cor
        row["capped"] = sum(report.capped.values())
        rows.append(row)
    return rows


def write_table_csv(rows, path) -> None:
    """The rows as CSV, columns in the order ``run_grid`` gave them."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
