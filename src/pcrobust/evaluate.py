"""Corruption-robustness evaluation: error rates per corruption and severity.

Every prediction lands in a flat log of records; the report (clean error
rate, per-(kind, severity) cells, per-kind means, and the overall mean over
kinds) is a pure recomputation from that log, so aggregates can always be
audited from the raw predictions.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corruption import ALL_KINDS, SEVERITIES, corruption_suite
from .data import check_labeled, derive_seed
from .model import BaselineParams, network, network_input
from .sampling import InfeasibleSampleError, SampleSpec

CLEAN = "clean"
EVAL_SEEDS = (0, 1, 2, 3, 4)  # DAS anchors are random: error rates average over these


@dataclass(frozen=True)
class PredictionRecord:
    cloud_index: int
    kind: str  # "clean" or a corruption kind
    severity: int  # 0 for clean
    eval_seed: int
    label: int
    predicted: int
    capped: bool = False  # anchors capped at the count the sampler could draw


@dataclass(frozen=True)
class EvalReport:
    er_clean: float
    per_cell: dict  # (kind, severity) -> error rate
    per_kind: dict  # kind -> mean over its severities
    er_cor: float
    capped: dict  # (kind, severity) -> capped predictions, clean cell included

    def to_dict(self) -> dict:
        corruptions = {}
        for kind in sorted(self.per_kind):
            sevs = sorted(s for (k, s) in self.per_cell if k == kind)
            corruptions[kind] = {
                "severities": {str(s): self.per_cell[(kind, s)] for s in sevs},
                "er": self.per_kind[kind],
                "capped": {str(s): self.capped[(kind, s)] for s in sevs},
            }
        return {
            "er_clean": self.er_clean,
            "capped_clean": self.capped.get((CLEAN, 0), 0),
            "corruptions": corruptions,
            "er_cor": self.er_cor,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def report_from_log(records) -> EvalReport:
    """Aggregate a prediction log into the error-rate report.

    The per-kind value is the arithmetic mean of that kind's severity
    cells; the overall corruption value is the arithmetic mean over kinds.
    Every cell also counts its capped predictions.
    """
    by_cell, capped = {}, {}
    for rec in records:
        key = (rec.kind, rec.severity)
        by_cell.setdefault(key, []).append(float(rec.predicted != rec.label))
        capped[key] = capped.get(key, 0) + int(rec.capped)

    clean = by_cell.pop((CLEAN, 0), None)
    er_clean = float(np.mean(clean)) if clean else float("nan")

    per_cell = {key: float(np.mean(v)) for key, v in by_cell.items()}
    kinds = sorted({kind for kind, _ in per_cell})
    per_kind = {}
    for kind in kinds:
        cells = [per_cell[key] for key in per_cell if key[0] == kind]
        per_kind[kind] = float(np.mean(cells))
    er_cor = float(np.mean([per_kind[k] for k in kinds])) if kinds else float("nan")
    return EvalReport(er_clean, per_cell, per_kind, er_cor, capped)


def predict_streams(cloud, params, sampler, streams):
    """Predictions for one cloud, one per random stream, as one batch, and
    whether m was capped; see ``evaluate`` for the cap."""
    def inputs(spec):
        return np.stack([network_input(cloud, params, spec, np.random.default_rng(s))[0]
                         for s in streams])

    try:
        feats, capped = inputs(sampler), False
    except InfeasibleSampleError as err:
        feats, capped = inputs(dataclasses.replace(sampler, m=err.available)), True
    return network(feats, params).logits.data.argmax(axis=-1).tolist(), capped


def evaluate(
    params,
    dataset,
    sampler: SampleSpec | None = None,
    kinds=ALL_KINDS,
    severities=SEVERITIES,
    eval_seeds=EVAL_SEEDS,
    corruption_seed: int = 0,
):
    """Error rates of a trained model on clean and corrupted copies of a set.

    Each cloud is predicted once per eval seed and the 0/1 errors are
    averaged; an input step that reads no generator (fps, or the baseline,
    which samples nothing) gets only the first eval seed. Each cloud's
    corrupted copies come from ``corruption_suite`` with a per-cloud seed
    derived from ``corruption_seed``.

    Whether m anchors can be drawn depends on the cloud and sampler alone:
    when a cloud has fewer positive-weight points (any points, for fps and
    random) than m, all its eval seeds are redrawn once with m capped at
    that count, each from a fresh generator on its stream, and their
    records are marked ``capped``; the report counts them per cell. The
    eval seeds of a cloud are one batch, on a no-grad view of the weights,
    and draw from the density weights the cloud keeps.
    Every cloud needs a label: ValueError names the first without one.
    Returns (EvalReport, prediction log).
    """
    check_labeled(dataset)
    if isinstance(params, BaselineParams) or (sampler is not None
                                              and sampler.variant == "fps"):
        eval_seeds = tuple(eval_seeds)[:1]
    params = params.no_grad()
    records = []
    for i, cloud in enumerate(dataset):
        suite = corruption_suite(cloud, kinds, derive_seed(corruption_seed, "cloud", i),
                                 severities)
        variants = [(CLEAN, 0, cloud)] + [(s.kind, s.severity, c) for s, c in suite]
        for kind, severity, variant in variants:
            streams = [derive_seed(seed, "pred", i, kind, severity) for seed in eval_seeds]
            preds, capped = predict_streams(variant, params, sampler, streams)
            records += [PredictionRecord(i, kind, severity, seed, cloud.label, pred, capped)
                        for seed, pred in zip(eval_seeds, preds)]
    return report_from_log(records), records


def write_log_csv(records, path) -> None:
    """One row per record, its fields in order, ``capped`` as 0/1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(PredictionRecord)])
        writer.writerows([*dataclasses.astuple(rec)[:-1], int(rec.capped)]
                         for rec in records)


def write_severity_curves_csv(report: EvalReport, path) -> None:
    """Per-severity error-rate rows for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "severity", "error_rate"])
        for (kind, severity) in sorted(report.per_cell):
            writer.writerow([kind, severity, report.per_cell[(kind, severity)]])


def write_report_json(report: EvalReport, path) -> None:
    Path(path).write_text(report.to_json() + "\n")
