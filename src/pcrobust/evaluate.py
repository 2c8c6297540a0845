"""Corruption-robustness evaluation: error rates per corruption and severity.

Every prediction lands in a flat log of records; the report (clean error
rate, per-(kind, severity) cells, per-kind means, and the overall mean over
kinds) is a pure recomputation from that log, so aggregates can always be
audited from the raw predictions. ``evaluate()`` returns the report and the
log and writes no files; the CLI writes them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import _keep_freed_arrays
from .corruption import ALL_KINDS, SEVERITIES, corruption_suite
from .data import check_labeled, derive_seed
from .model import BaselineParams, checked_candidates, network_on_draws
from .sampling import SampleSpec

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
    """Predictions for one cloud, one per random stream, as one batch: each
    stream draws from a fresh generator, in stream order, and each distinct
    anchor is embedded once (``network_on_draws``)."""
    rngs = [np.random.default_rng(s) for s in streams]
    return network_on_draws(cloud, params, sampler, rngs).logits.data.argmax(axis=-1).tolist()


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
    random) than m, all its eval seeds draw m capped at that count, and
    their records are marked ``capped``; the report counts them per cell.
    The eval seeds of a cloud are one batch, each drawing from a fresh
    generator on its stream, on a no-grad view of the weights, and draw
    from the density weights the cloud keeps.
    ValueError names an empty ``eval_seeds``, its first repeated seed, the
    first cloud without a label, the first whose label the model has no
    class for, and an attention model without a sampler. Before a cloud's
    first prediction, ValueError names a cloud too small for a corruption
    kind, and TooFewPointsError the first of its variants with fewer points
    than the model's groups or the sampler's neighbour table take. Errors
    name a cloud by its file, or by its index for an in-memory cloud. Sets the
    process's malloc thresholds so freed arrays stay in the heap
    (``autodiff._keep_freed_arrays``).
    Returns (EvalReport, prediction log).
    """
    _keep_freed_arrays()
    eval_seeds = tuple(eval_seeds)
    if not eval_seeds:
        raise ValueError("eval_seeds is empty: evaluate() needs at least one eval seed")
    for j, seed in enumerate(eval_seeds):
        if seed in eval_seeds[:j]:
            raise ValueError(f"eval seed {seed} is repeated in {eval_seeds}: a seed reads "
                             "the same stream each time, so its predictions would count twice")
    check_labeled(dataset)
    for i, cloud in enumerate(dataset):
        if not 0 <= cloud.label < params.n_classes:
            raise ValueError(f"{cloud.source or f'cloud {i}'}: label {cloud.label} has no "
                             f"class in a model of {params.n_classes} classes")
    baseline = isinstance(params, BaselineParams)
    if sampler is None and not baseline:
        raise ValueError("the attention model needs a sampler spec to draw anchors")
    if baseline or sampler.variant == "fps":
        eval_seeds = eval_seeds[:1]
    params = params.no_grad()
    records = []
    for i, cloud in enumerate(dataset):
        name = cloud.source or f"cloud {i}"
        try:
            suite = corruption_suite(cloud, kinds, derive_seed(corruption_seed, "cloud", i),
                                     severities)
        except ValueError as exc:  # a kind the cloud is too small for
            raise ValueError(f"{name}: {exc}") from exc
        variants = [(CLEAN, 0, cloud)] + [(s.kind, s.severity, c) for s, c in suite]
        specs = [sampler] * len(variants)
        for j, (kind, severity, variant) in enumerate(variants):
            if not baseline:
                where = f"{name}, {kind} severity {severity}"
                available = checked_candidates(variant, params.group_k, sampler, where, i)
                if available < sampler.m:
                    specs[j] = dataclasses.replace(sampler, m=available)
        for (kind, severity, variant), spec in zip(variants, specs):
            streams = [derive_seed(seed, "pred", i, kind, severity) for seed in eval_seeds]
            preds = predict_streams(variant, params, spec, streams)
            records += [PredictionRecord(i, kind, severity, seed, cloud.label, pred,
                                         capped=spec != sampler)
                        for seed, pred in zip(eval_seeds, preds)]
    return report_from_log(records), records
