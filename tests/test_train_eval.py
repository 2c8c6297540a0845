import hashlib
import importlib
import math

import numpy as np
import pytest

from pcrobust.ablate import run_grid, write_table_csv
from pcrobust.data import SyntheticDatasetSpec, gen_dataset
from pcrobust.evaluate import (
    PredictionRecord,
    evaluate,
    report_from_log,
    write_report_json,
)
from pcrobust.losses import LossConfig, attention_sem_loss
from pcrobust.model import forward, save_checkpoint
from pcrobust.sampling import SampleSpec
from pcrobust.train import TrainConfig, TrainingDiverged, train


def tiny_dataset(seed=0, per_class=8, points=48, classes=("sphere", "plane")):
    return gen_dataset(
        SyntheticDatasetSpec(classes=classes, per_class=per_class, points=points,
                             seed=seed)
    )


def tiny_config(**overrides):
    defaults = dict(
        sampler=SampleSpec(m=8, k=3, variant="fps"),
        loss=LossConfig(sem_weight=0.0, sem_mode="off"),
        d_model=16,
        d_attn=4,
        group_k=4,
        n_layers=2,
        epochs=6,
        batch_size=8,
        lr=3e-3,
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture
def stub_predict(monkeypatch):
    """Make evaluate() predict with a plain function of the cloud."""

    def install(fn):
        # the package's ``evaluate`` attribute is the function, not the module
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "predict", lambda cloud, *args: fn(cloud))

    return install


class TestTrain:
    def test_separable_two_class_accuracy(self):
        # sphere vs plane with mild pose jitter is easily separable
        dataset = tiny_dataset(per_class=12)
        result = train(dataset, tiny_config())
        correct = 0
        for cloud in dataset:
            trace = forward(cloud, result.params, result.sampler)
            correct += trace.prediction == cloud.label
        assert correct / len(dataset) >= 0.95

    def test_sem_term_bounded_at_init(self):
        # entropy of any M-anchor attention row is at most ln M
        dataset = tiny_dataset(per_class=2)
        cfg = tiny_config(loss=LossConfig(sem_weight=0.1, sem_layers=(1, 2)), epochs=1)
        result = train(dataset, cfg)
        trace = forward(dataset[0], result.params, result.sampler)
        sem = attention_sem_loss(trace.attention_maps, (1, 2), 1.0).item()
        assert np.isfinite(sem)
        assert sem <= math.log(cfg.sampler.m) + 1e-9
        assert all(np.isfinite(row["train_loss"]) for row in result.curve)

    def test_bitwise_identical_checkpoints(self, tmp_path):
        dataset = tiny_dataset(per_class=4)
        cfg = tiny_config(epochs=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        r1 = train(dataset, cfg)
        r2 = train(dataset, cfg)
        save_checkpoint(p1, r1.params, r1.sampler)
        save_checkpoint(p2, r2.params, r2.sampler)
        assert p1.read_bytes() == p2.read_bytes()

    def test_divergence_raises(self):
        dataset = tiny_dataset(per_class=4)
        cfg = tiny_config(optimizer="sgd", lr=1e120, epochs=1, batch_size=4)
        with pytest.raises(TrainingDiverged):
            train(dataset, cfg)

    def test_curve_and_best_epoch(self):
        dataset = tiny_dataset(per_class=6)
        cfg = tiny_config(epochs=3)
        result = train(dataset, cfg)
        assert len(result.curve) == 3
        assert 0 <= result.best_epoch < 3
        assert 0.0 <= result.best_val_error <= 1.0

    def test_label_validation(self):
        dataset = tiny_dataset(per_class=2)
        bad = [c.with_points(c.points) for c in dataset]
        for c in bad:
            object.__setattr__(c, "label", None)
        with pytest.raises(ValueError):
            train(bad, tiny_config())

    def test_das_training_runs(self):
        dataset = tiny_dataset(per_class=3, points=64)
        cfg = tiny_config(sampler=SampleSpec(m=8, k=3, variant="das-l0"), epochs=1)
        result = train(dataset, cfg)
        assert result.sampler.variant == "das-l0"


class TestEvaluate:
    def test_perfect_stub_all_zero(self, stub_predict):
        dataset = tiny_dataset(per_class=3, points=64)
        stub_predict(lambda c: c.label)
        report, log = evaluate(None, dataset, kinds=("jitter-gaussian", "scale"))
        assert report.er_clean == 0.0
        assert report.er_cor == 0.0
        assert all(v == 0.0 for v in report.per_cell.values())

    def test_majority_stub_balanced_four_class(self, stub_predict):
        dataset = tiny_dataset(
            per_class=5, points=64, classes=("sphere", "cube", "plane", "torus")
        )
        stub_predict(lambda c: 0)
        report, _ = evaluate(None, dataset, kinds=())
        assert report.er_clean == 0.75

    def test_aggregates_recompute_from_log(self, stub_predict):
        dataset = tiny_dataset(per_class=2, points=64)
        stub_predict(lambda c: int(c.points[0, 0] > 0))
        kinds = ("jitter-gaussian", "drop-global")
        report, log = evaluate(None, dataset, kinds=kinds)
        # per-kind means over severities, then unweighted mean over kinds
        for kind in kinds:
            cells = [report.per_cell[(kind, s)] for s in range(1, 6)]
            assert report.per_kind[kind] == np.mean(cells)
        assert report.er_cor == np.mean([report.per_kind[k] for k in sorted(kinds)])
        rebuilt = report_from_log(log)
        assert rebuilt == report

    def test_restricted_severities(self, stub_predict):
        dataset = tiny_dataset(per_class=2, points=64)
        stub_predict(lambda c: c.label)
        report, log = evaluate(
            None, dataset, kinds=("impulse",), severities=(3, 4, 5)
        )
        assert set(report.per_cell) == {("impulse", s) for s in (3, 4, 5)}

    def test_eval_does_not_mutate_params(self):
        dataset = tiny_dataset(per_class=2)
        result = train(dataset, tiny_config(epochs=1))

        def digest(params):
            h = hashlib.sha256()
            for t in params.tensors():
                h.update(t.data.tobytes())
            return h.hexdigest()

        before = digest(result.params)
        evaluate(result.params, dataset, sampler=result.sampler,
                 kinds=("jitter-uniform",))
        assert digest(result.params) == before

    def test_stochastic_sampler_seed_averaging(self):
        dataset = tiny_dataset(per_class=2, points=64)
        result = train(
            dataset,
            tiny_config(sampler=SampleSpec(m=8, k=3, variant="random"), epochs=1),
        )
        report, log = evaluate(
            result.params,
            dataset,
            sampler=result.sampler,
            kinds=(),
            eval_seeds=(0, 1, 2),
        )
        clean_records = [r for r in log if r.kind == "clean"]
        assert len(clean_records) == len(dataset) * 3

    def test_fps_logs_one_seed_per_cell(self):
        dataset = tiny_dataset(per_class=2, points=64)
        params = train(dataset, tiny_config(epochs=1)).params
        _, log = evaluate(params, dataset, sampler=SampleSpec(m=8, variant="fps"),
                          kinds=("jitter-gaussian", "rotate"), severities=(1, 2),
                          eval_seeds=(0, 1, 2, 3, 4))
        cells = [(r.cloud_index, r.kind, r.severity) for r in log]
        assert len(cells) == len(set(cells)) == len(dataset) * (1 + 2 * 2)
        assert {r.eval_seed for r in log} == {0}

    def test_one_table_per_distinct_cloud(self, table_builds):
        dataset = tiny_dataset(per_class=2, points=64)
        params = train(dataset, tiny_config(epochs=1)).params
        kinds = ("jitter-gaussian", "impulse", "add-global")
        table_builds.clear()
        _, log = evaluate(params, dataset, sampler=SampleSpec(m=8, k=5),
                          kinds=kinds, severities=(1, 3), eval_seeds=(0, 1, 2, 3, 4))
        variants = len(dataset) * (1 + len(kinds) * 2)
        assert len(log) == variants * 5
        assert len(table_builds) == variants
        assert len({id(points) for points in table_builds}) == variants

    def test_report_json(self, tmp_path):
        records = [
            PredictionRecord(0, "clean", 0, 0, 1, 1),
            PredictionRecord(0, "scale", 1, 0, 1, 0),
        ]
        report = report_from_log(records)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        text = path.read_text()
        assert '"er_clean": 0.0' in text
        assert '"scale"' in text


class TestReportFromLog:
    def test_pure_function_of_records(self):
        rng = np.random.default_rng(0)
        records = [
            PredictionRecord(
                i,
                kind,
                severity,
                0,
                int(rng.integers(0, 3)),
                int(rng.integers(0, 3)),
            )
            for i in range(10)
            for kind, severity in
            [("clean", 0)] + [(k, s) for k in ("scale", "rotate") for s in (1, 2)]
        ]
        a = report_from_log(records)
        b = report_from_log(list(records))
        assert a == b
        # manual recomputation of one cell
        cell = [r for r in records if r.kind == "scale" and r.severity == 1]
        expected = np.mean([r.predicted != r.label for r in cell])
        assert a.per_cell[("scale", 1)] == expected


class TestAblate:
    def test_grid_rows_and_determinism(self, tmp_path):
        base = {
            "classes": "sphere,plane",
            "train_per_class": "4",
            "test_per_class": "2",
            "points": "48",
            "m_anchors": "8",
            "d_model": "16",
            "d_attn": "4",
            "group_k": "4",
            "n_layers": "2",
            "epochs": "1",
            "batch_size": "8",
            "sampler_k": "3",
            "sampler": "fps|random|das-l0",
            "lambda": "0|0.1",
        }
        from pcrobust.config import build_dataset_specs, expand_grid

        keys, configs = expand_grid(base)
        assert keys == ["lambda", "sampler"]
        assert len(configs) == 6
        train_spec, test_spec = build_dataset_specs(base)
        train_set, test_set = gen_dataset(train_spec), gen_dataset(test_spec)
        rows = run_grid(
            train_set, test_set, configs, kinds=("jitter-gaussian",),
            eval_seeds=(0,),
        )
        assert len(rows) == 6
        for row in rows:
            assert "er_clean" in row and "er_cor" in row
            assert 0.0 <= row["er_clean"] <= 1.0
        rows2 = run_grid(
            train_set, test_set, configs, kinds=("jitter-gaussian",),
            eval_seeds=(0,),
        )
        assert rows == rows2
        out = tmp_path / "table.csv"
        write_table_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("sampler,")
