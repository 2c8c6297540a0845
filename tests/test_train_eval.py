import csv
import ctypes
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import math
import pickle
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from pcrobust import autodiff
from pcrobust.ablate import run_grid, write_table_csv
from pcrobust.autodiff import backward
from pcrobust.config import build_dataset_specs
from pcrobust.corruption import SEVERITIES, CorruptionSpec, apply_corruption
from pcrobust.data import SyntheticDatasetSpec, derive_seed, gen_dataset
from pcrobust.evaluate import (
    EVAL_SEEDS,
    PredictionRecord,
    evaluate,
    report_from_log,
)
from pcrobust.geometry import PointCloud
from pcrobust.losses import LossConfig, attention_sem_loss
from pcrobust.model import (
    BaselineParams,
    TooFewPointsError,
    forward,
    init_baseline,
    init_model,
    save_checkpoint,
)
from pcrobust.sampling import (
    InfeasibleSampleError,
    SampleSpec,
    das_sample,
    density_profile,
)
from pcrobust.train import (Adam, InfeasibleAnchorsError, TrainConfig, TrainingDiverged,
                            minibatch_loss, train)

from oracles import keeping_backward, per_cloud_evaluate, per_cloud_loss


def tiny_dataset(seed=0, per_class=8, points=48, classes=("sphere", "plane")):
    return gen_dataset(
        SyntheticDatasetSpec(classes=classes, per_class=per_class, points=points,
                             seed=seed)
    )


def tiny_config(**overrides):
    defaults = dict(
        sampler=SampleSpec(m=8, k=3, variant="fps"),
        loss=LossConfig(sem_weight=0.0),
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


# weights for evaluate() calls whose predictions a stub makes
STUB_PARAMS = init_model(np.random.default_rng(0), n_classes=2, m_anchors=4, d_model=4,
                         d_attn=2, group_k=2, n_layers=1)
STUB_SAMPLER = SampleSpec(m=4, variant="random")


@pytest.fixture
def stub_predict(monkeypatch):
    """Make evaluate() predict with a plain function of the cloud."""

    def install(fn):
        def predict_streams(cloud, params, sampler, streams):
            return [fn(cloud)] * len(streams)

        # the package's ``evaluate`` attribute is the function, not the module
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "predict_streams", predict_streams)

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

    def test_sem_layers_default_to_every_layer(self):
        # n_layers 2 with the default loss: no sem_layers to spell out
        dataset = tiny_dataset(per_class=2)
        cfg = tiny_config(loss=LossConfig(), epochs=1)
        assert cfg.n_layers == 2
        result = train(dataset, cfg)
        assert all(np.isfinite(row["train_loss"]) for row in result.curve)
        explicit = dataclasses.replace(cfg, loss=LossConfig(sem_layers=(1, 2)))
        losses = [minibatch_loss(dataset, result.params, c, itertools.repeat(None)).item()
                  for c in (cfg, explicit)]
        assert losses[0] == losses[1]

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
        cfg = tiny_config(lr=1e120, epochs=1, batch_size=4)
        with pytest.raises(TrainingDiverged):
            train(dataset, cfg)

    def test_sgd_is_removed(self):
        with pytest.raises(ValueError, match="optimizer 'sgd' was removed"):
            TrainConfig(optimizer="sgd")
        assert "optimizer" not in {f.name for f in dataclasses.fields(TrainConfig)}
        assert TrainConfig(optimizer="adam") == TrainConfig()

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

    def test_unlabeled_cloud_is_named_before_any_step(self, monkeypatch):
        dataset = tiny_dataset(per_class=2)
        dataset[2] = PointCloud(dataset[2].points)
        monkeypatch.setattr(Adam, "step", lambda self, grads: pytest.fail("optimizer stepped"))
        with pytest.raises(ValueError, match="cloud 2: no label"):
            train(dataset, tiny_config())

    def test_labels_with_a_missing_class_are_listed(self, monkeypatch):
        dataset = tiny_dataset(per_class=2, classes=("sphere", "cube", "plane"))
        dataset = [c for c in dataset if c.label != 1]
        monkeypatch.setattr(Adam, "step", lambda self, grads: pytest.fail("optimizer stepped"))
        with pytest.raises(ValueError, match=r"0\.\.C-1 with C >= 2, got \[0, 2\]$"):
            train(dataset, tiny_config())

    def test_val_fraction_must_hold_out_a_fraction(self):
        for fraction in (0.0, -0.1, 1.0):
            with pytest.raises(ValueError, match=r"val_fraction must be in \(0, 1\)"):
                TrainConfig(val_fraction=fraction)

    def test_a_split_with_no_validation_cloud_raises_before_any_step(self, monkeypatch):
        # round(0.1 * 4) holds out no cloud, round(0.9 * 4) trains on none
        dataset = tiny_dataset(per_class=2)
        monkeypatch.setattr(Adam, "step", lambda self, grads: pytest.fail("optimizer stepped"))
        for fraction, left in ((0.1, "validation"), (0.9, "training")):
            with pytest.raises(ValueError, match=rf"^val_fraction = {fraction} of 4 "
                                                 rf"clouds leaves no {left} cloud$"):
                train(dataset, tiny_config(val_fraction=fraction))

    def test_infeasible_anchors_are_named_before_any_step(self, monkeypatch):
        # some 64-point clouds have fewer than 56 points of positive density weight
        dataset = tiny_dataset(per_class=4, points=64)
        monkeypatch.setattr(Adam, "step", lambda self, grads: pytest.fail("optimizer stepped"))
        cfg = tiny_config(sampler=SampleSpec(m=56, variant="das-l0"))
        with pytest.raises(InfeasibleSampleError) as err:
            train(dataset, cfg)
        positive = [int(np.count_nonzero(density_profile(c, 5).weights)) for c in dataset]
        first = next(i for i, n in enumerate(positive) if n < 56)
        assert isinstance(err.value, InfeasibleAnchorsError)
        assert str(err.value) == (
            f"cloud {first}: m_anchors = 56 is infeasible for sampler "
            f"das-l0: cannot draw 56 distinct indices from {positive[first]} "
            f"anchor candidates")
        assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)

    def test_every_cloud_is_checked_whichever_split_it_lands_in(self):
        for index in range(4):
            dataset = tiny_dataset(per_class=2)
            dataset[index] = PointCloud(dataset[index].points[:6], dataset[index].label)
            with pytest.raises(InfeasibleAnchorsError) as err:
                train(dataset, tiny_config())
            assert (err.value.index, err.value.available) == (index, 6)
            assert "m_anchors = 8 is infeasible for sampler fps" in str(err.value)

    def test_a_cloud_smaller_than_its_groups_raises_before_any_step(self, monkeypatch):
        module = importlib.import_module("pcrobust.train")
        monkeypatch.setattr(module, "minibatch_loss",
                            lambda *args: pytest.fail("a step started"))
        dataset = tiny_dataset(per_class=2, points=40)
        with pytest.raises(TooFewPointsError) as err:
            train(dataset, tiny_config(group_k=50))
        assert str(err.value) == ("cloud 0: 40 points, fewer than the 50 that "
                                  "group_k = 50 and sampler fps read")
        assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)
        # a DAS sampler's density score reads k + 1 neighbours of every point
        with pytest.raises(TooFewPointsError) as err:
            train(dataset, tiny_config(sampler=SampleSpec(m=8, k=45, variant="das-l0")))
        assert str(err.value) == ("cloud 0: 40 points, fewer than the 46 that "
                                  "group_k = 4 and sampler das-l0 with k = 45 read")

    def test_das_training_runs(self):
        dataset = tiny_dataset(per_class=3, points=64)
        cfg = tiny_config(sampler=SampleSpec(m=8, k=3, variant="das-l0"), epochs=1)
        result = train(dataset, cfg)
        assert result.sampler.variant == "das-l0"

    def test_one_table_per_fresh_das_cloud(self, table_builds):
        # the check builds each table group_k = 4 wide, wider than k + 1 = 3
        dataset = tiny_dataset(per_class=3, points=64)
        table_builds.clear()
        train(dataset, tiny_config(sampler=SampleSpec(m=8, k=2, variant="das-l0"), epochs=1))
        assert len(table_builds) == len(dataset)
        assert len({id(points) for points in table_builds}) == len(dataset)


class TestEvaluate:
    def test_empty_eval_seeds_is_named_before_any_corruption(self, stub_predict,
                                                             monkeypatch):
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "corruption_suite",
                            lambda *args: pytest.fail("a cloud was corrupted"))
        stub_predict(lambda c: pytest.fail("a prediction was made"))
        with pytest.raises(ValueError, match="eval_seeds is empty"):
            evaluate(STUB_PARAMS, tiny_dataset(per_class=1, points=64), STUB_SAMPLER,
                     eval_seeds=())

    def test_repeated_eval_seed_is_named_before_any_corruption(self, stub_predict,
                                                               monkeypatch):
        # a repeated seed reads the same stream, so it would count the same
        # predictions twice in every mean
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "corruption_suite",
                            lambda *args: pytest.fail("a cloud was corrupted"))
        stub_predict(lambda c: pytest.fail("a prediction was made"))
        with pytest.raises(ValueError, match=r"^eval seed 0 is repeated in \(0, 0, 1\)"):
            evaluate(STUB_PARAMS, tiny_dataset(per_class=1, points=64), STUB_SAMPLER,
                     eval_seeds=[0, 0, 1])

    def test_attention_model_without_a_sampler_is_named_before_any_corruption(
            self, stub_predict, monkeypatch):
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "corruption_suite",
                            lambda *args: pytest.fail("a cloud was corrupted"))
        stub_predict(lambda c: pytest.fail("a prediction was made"))
        with pytest.raises(ValueError, match="needs a sampler spec"):
            evaluate(STUB_PARAMS, tiny_dataset(per_class=1, points=64))

    def test_a_variant_smaller_than_group_k_raises_before_the_clouds_first_prediction(
            self, monkeypatch):
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "predict_streams",
                            lambda *args: pytest.fail("a prediction was made"))
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8, d_model=8,
                            d_attn=4, group_k=16, n_layers=1)
        dataset = tiny_dataset(per_class=1, points=40)
        # drop-global keeps 16 of 40 points at severity 4 and 10 at severity 5
        with pytest.raises(TooFewPointsError) as err:
            evaluate(params, dataset, SampleSpec(m=8, variant="fps"), kinds=("drop-global",))
        assert str(err.value) == ("cloud 0, drop-global severity 5: 10 points, fewer than "
                                  "the 16 that group_k = 16 and sampler fps read")
        assert (err.value.index, err.value.n, err.value.group_k) == (0, 10, 16)

    def test_perfect_stub_all_zero(self, stub_predict):
        dataset = tiny_dataset(per_class=3, points=64)
        stub_predict(lambda c: c.label)
        report, log = evaluate(STUB_PARAMS, dataset, STUB_SAMPLER,
                               kinds=("jitter-gaussian", "scale"))
        assert report.er_clean == 0.0
        assert report.er_cor == 0.0
        assert all(v == 0.0 for v in report.per_cell.values())

    def test_majority_stub_balanced_four_class(self, stub_predict):
        dataset = tiny_dataset(
            per_class=5, points=64, classes=("sphere", "cube", "plane", "torus")
        )
        params = init_model(np.random.default_rng(0), n_classes=4, m_anchors=4,
                            d_model=4, d_attn=2, group_k=2, n_layers=1)
        stub_predict(lambda c: 0)
        report, _ = evaluate(params, dataset, STUB_SAMPLER, kinds=())
        assert report.er_clean == 0.75

    def test_aggregates_recompute_from_log(self, stub_predict):
        dataset = tiny_dataset(per_class=2, points=64)
        stub_predict(lambda c: int(c.points[0, 0] > 0))
        kinds = ("jitter-gaussian", "drop-global")
        report, log = evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=kinds)
        # per-kind means over severities, then unweighted mean over kinds
        for kind in kinds:
            cells = [report.per_cell[(kind, s)] for s in range(1, 6)]
            assert report.per_kind[kind] == np.mean(cells)
        assert report.er_cor == np.mean([report.per_kind[k] for k in sorted(kinds)])
        rebuilt = report_from_log(log)
        assert rebuilt == report

    def test_unlabeled_cloud_is_named_before_any_prediction(self, stub_predict):
        dataset = tiny_dataset(per_class=2, points=64)
        dataset[1:] = [PointCloud(c.points) for c in dataset[1:]]
        stub_predict(lambda c: pytest.fail("predicted an unlabeled cloud"))
        with pytest.raises(ValueError, match="cloud 1: no label"):
            evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("scale",))

    def test_label_the_model_has_no_class_for_is_named_before_any_corruption(
            self, stub_predict, monkeypatch):
        module = importlib.import_module("pcrobust.evaluate")
        monkeypatch.setattr(module, "corruption_suite",
                            lambda *args: pytest.fail("a cloud was corrupted"))
        stub_predict(lambda c: pytest.fail("a prediction was made"))
        dataset = tiny_dataset(per_class=1, points=64, classes=("sphere", "plane", "cube"))
        with pytest.raises(ValueError, match="^cloud 2: label 2 has no class in a model "
                                             "of 2 classes$"):
            evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("scale",))
        dataset[2] = PointCloud(dataset[2].points, 2, "clouds/cube.xyz")
        with pytest.raises(ValueError, match="^clouds/cube.xyz: label 2 has no class"):
            evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("scale",))

    def test_cloud_too_small_for_a_corruption_is_named(self, stub_predict):
        stub_predict(lambda c: c.label)
        dataset = tiny_dataset(per_class=1, points=64)
        dataset[1] = PointCloud(dataset[1].points[:24], dataset[1].label)
        with pytest.raises(ValueError) as err:
            evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("drop-global",))
        assert str(err.value) == "cloud 1: drop-global requires N >= 32, got N=24"

    def test_default_eval_seeds_and_severities(self, stub_predict):
        dataset = tiny_dataset(per_class=1, points=64)
        stub_predict(lambda c: c.label)
        _, log = evaluate(STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("scale",))
        assert sorted({r.eval_seed for r in log}) == list(EVAL_SEEDS) == [0, 1, 2, 3, 4]
        assert sorted({r.severity for r in log} - {0}) == list(SEVERITIES)

    def test_restricted_severities(self, stub_predict):
        dataset = tiny_dataset(per_class=2, points=64)
        stub_predict(lambda c: c.label)
        report, log = evaluate(
            STUB_PARAMS, dataset, STUB_SAMPLER, kinds=("impulse",), severities=(3, 4, 5)
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

    def test_report_json(self):
        records = [
            PredictionRecord(0, "clean", 0, 0, 1, 1),
            PredictionRecord(0, "scale", 1, 0, 1, 0),
        ]
        text = report_from_log(records).to_json()
        assert '"er_clean": 0.0' in text
        assert '"scale"' in text


def _eval_variant(cloud, index, kind, severity, corruption_seed=0):
    """The corrupted copy evaluate() predicts for one (cloud, kind, severity)."""
    if kind == "clean":
        return cloud
    master = derive_seed(corruption_seed, "cloud", index)
    spec = CorruptionSpec(kind, severity, derive_seed(master, kind, severity))
    return apply_corruption(cloud, spec)


class TestCappedAnchors:
    """README defaults: 256 points, 64 das-l0 anchors, the default model.

    Dropping 75% of the points leaves 64, and on most default test clouds
    fewer than 64 of them have positive density weight.
    """

    @pytest.fixture(scope="class")
    def default_run(self):
        _, test_spec = build_dataset_specs({})
        test_set = gen_dataset(test_spec)[::30]  # one cloud per class
        params = init_model(np.random.default_rng(0), n_classes=6)
        sampler = SampleSpec(m=64, k=5, variant="das-l0")
        kinds = ("drop-global", "drop-local", "scale")
        calls = []  # (anchor count, generator state on entry) per anchor draw
        model = importlib.import_module("pcrobust.model")
        draw = model.sample_anchors

        def spy(cloud, spec, rng):
            calls.append((spec.m, rng.bit_generator.state))
            return draw(cloud, spec, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "sample_anchors", spy)
            report, log = evaluate(params, test_set, sampler=sampler, kinds=kinds,
                                   severities=(5,), eval_seeds=(0, 1))
        positive = {
            (i, kind): int(np.count_nonzero(density_profile(
                _eval_variant(cloud, i, kind, 5), 5).weights))
            for i, cloud in enumerate(test_set)
            for kind in ("clean",) + kinds
        }
        return test_set, sampler, report, log, positive, calls

    def test_default_eval_completes_and_counts_caps(self, default_run):
        test_set, _, report, log, positive, _ = default_run
        assert len(log) == len(test_set) * 4 * 2
        for rec in log:
            assert rec.capped == (positive[rec.cloud_index, rec.kind] < 64)
        expected = {(kind, sev): 0 for kind, sev in report.capped}
        for rec in log:
            expected[rec.kind, rec.severity] += rec.capped
        assert report.capped == expected
        assert expected[("clean", 0)] == expected[("scale", 5)] == 0
        assert expected[("drop-global", 5)] >= 8 and expected[("drop-local", 5)] >= 8
        doc = report.to_dict()
        assert doc["capped_clean"] == 0
        assert {k: v["capped"] for k, v in doc["corruptions"].items()} == {
            kind: {"5": expected[kind, 5]}
            for kind in ("drop-global", "drop-local", "scale")
        }

    def test_capped_variants_draw_once_at_the_available_count(self, default_run):
        # m is capped before the draw: every seed draws once, at m or the
        # smaller count available, from a fresh generator on its stream, so
        # a capped variant never tries m = 64
        test_set, sampler, _, log, positive, calls = default_run
        calls = iter(calls)
        for (i, kind, severity), cell in itertools.groupby(
                log, key=lambda r: (r.cloud_index, r.kind, r.severity)):
            m = min(sampler.m, positive[i, kind])
            expected = [(m, np.random.default_rng(derive_seed(
                r.eval_seed, "pred", i, kind, severity)).bit_generator.state) for r in cell]
            assert [next(calls) for _ in expected] == expected
        assert next(calls, None) is None

    def test_sampling_stays_strict(self, default_run):
        test_set, sampler, _, log, positive, _ = default_run
        rec = next(r for r in log if r.capped)
        dropped = _eval_variant(test_set[rec.cloud_index], rec.cloud_index, rec.kind, 5)
        with pytest.raises(InfeasibleSampleError) as err:
            das_sample(dropped, sampler, np.random.default_rng(0))
        available = positive[rec.cloud_index, rec.kind]
        assert (err.value.requested, err.value.available) == (64, available)

    def test_log_csv_has_capped_column(self, default_run, tmp_path):
        _, _, report, log, _, _ = default_run
        path = tmp_path / "log.csv"
        write_table_csv([{**dataclasses.asdict(r), "capped": int(r.capped)} for r in log], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["capped"] for row in rows] == [str(int(r.capped)) for r in log]
        assert report_from_log(log) == report
        assert json.loads(report.to_json())["capped_clean"] == 0


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

    def test_capped_column(self, tmp_path):
        # drop-global at severity 5 leaves 12 of 48 points: fewer than 12
        # keep a positive density weight, so DAS predictions get capped
        base = {
            "classes": "sphere,plane", "train_per_class": "4", "test_per_class": "2",
            "points": "48", "m_anchors": "12", "d_model": "16", "d_attn": "4",
            "group_k": "4", "n_layers": "2", "epochs": "1", "batch_size": "8",
            "sampler_k": "3", "sampler": "das-l0|fps",
        }
        from pcrobust.config import expand_grid

        _, configs = expand_grid(base)
        train_spec, test_spec = build_dataset_specs(base)
        rows = run_grid(gen_dataset(train_spec), gen_dataset(test_spec), configs,
                        kinds=("drop-global",), eval_seeds=(0,))
        assert [row["sampler"] for row in rows] == ["das-l0", "fps"]
        assert rows[0]["capped"] > 0 and rows[1]["capped"] == 0
        out = tmp_path / "table.csv"
        write_table_csv(rows, out)
        assert out.read_text().splitlines()[0].endswith(",er_clean,er_cor,capped")


def _grid_clouds(points=200, per_class=1):
    return tiny_dataset(per_class=per_class, points=points,
                        classes=("sphere", "cube", "plane"))


def _grid_params(arch="attention"):
    """Untrained weights for the three classes of ``_grid_clouds``."""
    rng = np.random.default_rng(3)
    if arch == "baseline":
        return init_baseline(rng, n_classes=3, d_model=8)
    return init_model(rng, n_classes=3, m_anchors=64, d_model=8, d_attn=4, group_k=4,
                      n_layers=2)


class TestBatchedPaths:
    """One graph per minibatch and graph-free, seed-batched prediction give
    what one graph or one prediction per cloud gives."""

    @pytest.mark.parametrize(
        "arch, variant, loss",
        [
            ("attention", "das-l0", LossConfig(sem_weight=0.1, sem_layers=(1, 2))),
            ("attention", "fps", LossConfig(sem_weight=0.3)),
            ("attention", "random", LossConfig(sem_weight=0.0)),
            ("baseline", "das-l0", LossConfig(sem_weight=0.0)),
        ],
    )
    def test_minibatch_loss_matches_per_cloud_oracle(self, arch, variant, loss):
        clouds = tiny_dataset(per_class=3, points=64)
        config = tiny_config(arch=arch, loss=loss,
                             sampler=SampleSpec(m=8, k=3, variant=variant))
        params = train(clouds, dataclasses.replace(config, epochs=1)).params
        oracle_params = params.copy()
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        batched = minibatch_loss(clouds, params, config, itertools.repeat(rng))
        oracle = per_cloud_loss(clouds, oracle_params, config, oracle_rng)
        # the same draws, so the same anchors
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert abs(batched.item() - oracle.item()) <= 1e-12 * abs(oracle.item())
        grads, oracle_grads = backward(batched), backward(oracle)
        for got, want in zip(params.tensors(), oracle_params.tensors()):
            g, w = grads[got], oracle_grads[want]
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_train_step_matches_per_cloud_oracle(self):
        clouds = tiny_dataset(per_class=4, points=64)
        config = tiny_config(sampler=SampleSpec(m=8, k=3), lr=0.1, epochs=1,
                             loss=LossConfig(sem_weight=0.1, sem_layers=(1, 2)))
        n_val = int(round(config.val_fraction * len(clouds)))
        # one step: every training cloud in one batch
        config = dataclasses.replace(config, batch_size=len(clouds) - n_val)
        trained = train(clouds, config).params
        # train()'s draws in order: weights, split, epoch order, then anchors
        rng = np.random.default_rng(config.seed)
        params = init_model(rng, 2, m_anchors=8, d_model=16, d_attn=4, group_k=4,
                            n_layers=2)
        train_idx = rng.permutation(len(clouds))[n_val:]
        batch = [clouds[i] for i in train_idx[rng.permutation(train_idx.size)]]
        grads = backward(per_cloud_loss(batch, params, config, rng))
        Adam(params.tensors(), lr=config.lr).step(grads)
        for got, want in zip(trained.tensors(), params.tensors()):
            assert np.abs(got.data - want.data).max() <= 1e-12

    @pytest.mark.parametrize(
        "arch, variant",
        [("attention", "das-l0"), ("attention", "fps"), ("attention", "random"),
         ("baseline", "das-l0")],
        ids=["das-l0", "fps", "random", "baseline"],
    )
    def test_evaluate_matches_per_cloud_oracle(self, arch, variant):
        # drop-global at severity 5 leaves 50 of 200 points, fewer than m
        clouds = _grid_clouds()
        params = _grid_params(arch)
        sampler = SampleSpec(m=64, k=5, variant=variant)
        grid = dict(kinds=("drop-global", "impulse"), severities=(1, 5),
                    eval_seeds=(0, 1, 2), corruption_seed=4)
        _, log = evaluate(params, clouds, sampler=sampler, **grid)
        assert log == per_cloud_evaluate(params, clouds, sampler, **grid)
        # the baseline samples nothing, so nothing is capped
        assert any(r.capped for r in log) == (arch == "attention")

    @pytest.mark.parametrize(
        "arch, variant",
        [("attention", "das-l0"), ("attention", "fps"), ("attention", "random"),
         ("baseline", "das-l0")],
        ids=["das-l0", "fps", "random", "baseline"],
    )
    def test_records_per_cell_follow_the_stream_rule(self, arch, variant):
        # fps and the baseline read no generator: one record per variant cloud
        clouds = _grid_clouds()
        kinds, severities, eval_seeds = ("drop-global", "impulse"), (1, 5), (0, 1, 2)
        _, log = evaluate(_grid_params(arch), clouds,
                          sampler=SampleSpec(m=64, k=5, variant=variant), kinds=kinds,
                          severities=severities, eval_seeds=eval_seeds)
        variants = len(clouds) * (1 + len(kinds) * len(severities))
        draws = arch == "attention" and variant != "fps"
        assert len(log) == variants * (len(eval_seeds) if draws else 1)
        capped = {}
        for r in log:
            capped.setdefault((r.cloud_index, r.kind, r.severity), set()).add(r.capped)
        assert len(capped) == variants
        assert all(len(flags) == 1 for flags in capped.values())

    @pytest.mark.parametrize("variant", ["das-l0", "fps", "random"])
    def test_too_few_points_are_capped_for_every_sampler(self, variant):
        clouds = _grid_clouds()
        params = _grid_params()
        report, log = evaluate(params, clouds, sampler=SampleSpec(m=64, variant=variant),
                               kinds=("drop-global",), severities=(5,), eval_seeds=(0, 1))
        dropped = [r for r in log if r.kind == "drop-global"]
        assert dropped and all(r.capped for r in dropped)
        assert not any(r.capped for r in log if r.kind == "clean")
        assert report.capped[("drop-global", 5)] == len(dropped)

    @pytest.mark.parametrize("epochs", [2, 10])
    def test_train_builds_one_density_profile_per_cloud(self, profile_builds, epochs):
        data = tiny_dataset(seed=7, per_class=6, points=32)
        config = tiny_config(sampler=SampleSpec(m=8, k=3), d_model=8, n_layers=1,
                             epochs=epochs, batch_size=4)
        train(data, config)
        assert len(profile_builds) == len(data)
        assert {id(c) for c in profile_builds} == {id(c) for c in data}

    @pytest.mark.parametrize("epochs", [2, 10])
    def test_train_builds_one_fps_per_cloud(self, fps_builds, epochs):
        data = tiny_dataset(seed=7, per_class=6, points=32)
        config = tiny_config(d_model=8, n_layers=1, epochs=epochs, batch_size=4)
        train(data, config)
        assert sorted(id(c) for c in fps_builds) == sorted(id(c) for c in data)

    def test_one_density_profile_per_variant_cloud(self, profile_builds):
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=8, d_attn=4, group_k=4, n_layers=1)
        evaluate(params, tiny_dataset(per_class=1, points=64)[:1],
                 sampler=SampleSpec(m=8, k=3), kinds=("jitter-gaussian",),
                 severities=(1, 2, 3, 4, 5), eval_seeds=(0, 1, 2, 3, 4))
        assert len(profile_builds) == 6
        assert len({id(cloud) for cloud in profile_builds}) == 6

    def test_graph_size_per_step_does_not_grow_with_batch(self, monkeypatch):
        autodiff = importlib.import_module("pcrobust.autodiff")
        real, made = autodiff._result, [0]

        def counting(*args):
            out = real(*args)
            made[0] += out._node is not None  # the validation pass builds no node
            return out

        monkeypatch.setattr(autodiff, "_result", counting)
        dataset = tiny_dataset(per_class=10, points=48)  # 4 held out, 16 to train on
        per_step = []
        for batch_size in (2, 8):
            made[0] = 0
            train(dataset, tiny_config(batch_size=batch_size, epochs=1,
                                       loss=LossConfig(sem_weight=0.1, sem_layers=(1, 2))))
            per_step.append(made[0] / (16 // batch_size))
        assert per_step[0] == per_step[1]

    def test_predictions_build_no_graph(self, monkeypatch):
        traces = []

        def spy(module):
            real = module.network

            def recording(inputs, params):
                trace = real(inputs, params)
                traces.append((len(inputs), trace))
                return trace

            monkeypatch.setattr(module, "network", recording)

        dataset = tiny_dataset(per_class=5, points=48)
        spy(importlib.import_module("pcrobust.train"))
        result = train(dataset, tiny_config(epochs=2, batch_size=4))
        # 2 validation clouds per epoch, in one batch; the rest trained
        validation = [t for _, t in traces if not t.logits.requires_grad]
        assert [n for n, t in traces if not t.logits.requires_grad] == [2, 2]
        assert len(traces) == 2 * (2 + 1)
        traces.clear()
        # evaluate() embeds each cloud's distinct anchors once, then runs
        # the network's post-embedding half on the (seeds, M, D) features
        model = importlib.import_module("pcrobust.model")
        real = model.classify_embedded

        def recording(features, params):
            trace = real(features, params)
            traces.append((len(features.data), trace))
            return trace

        monkeypatch.setattr(model, "classify_embedded", recording)
        evaluate(result.params, dataset, sampler=SampleSpec(m=8, k=3),
                 kinds=("scale",), severities=(1,), eval_seeds=(0, 1, 2))
        assert [n for n, _ in traces] == [3] * len(dataset) * 2
        for _, trace in traces + [(0, t) for t in validation]:
            assert trace.logits._node is None and not trace.logits.requires_grad
            assert all(t._node is None for t in trace.attention_maps)


def _graph_nodes(loss):
    """Every graph node reachable from ``loss``: op nodes and leaf tensors."""
    seen, stack = {id(loss._node): loss._node}, [loss._node]
    while stack:
        for p in stack.pop().parents:
            if p is not None and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestGradientRelease:
    """backward frees each interior gradient once its pullback has run."""

    def test_only_leaves_keep_a_gradient(self):
        clouds = tiny_dataset(per_class=3, points=64)
        config = tiny_config(sampler=SampleSpec(m=8, k=3, variant="das-l0"),
                             loss=LossConfig(sem_weight=0.1))
        params = init_model(np.random.default_rng(2), 2, m_anchors=8, d_model=16,
                            d_attn=4, group_k=4, n_layers=2)

        def loss():
            return minibatch_loss(clouds, params, config,
                                  itertools.repeat(np.random.default_rng(5)))

        graph = loss()
        # collected first: backward consumes the graph, so its interior
        # nodes no longer have a pullback afterwards
        interior = [n for n in _graph_nodes(graph) if n.pullback is not None]
        grads = backward(graph)
        assert interior and all(n.pullback is None for n in interior)
        assert set(map(id, grads)) == set(map(id, params.tensors()))
        released = [(t, g.tobytes()) for t, g in grads.items()]
        kept = keeping_backward(loss())
        assert [(t, g.tobytes()) for t, g in kept.items()] == released

    def test_backward_peak_is_at_most_half_the_forward_graph(self):
        # README default dims at batch 4: backward's gradients in flight
        # peak at 0.33 of what they peak at when every interior gradient is
        # kept (oracles.keeping_backward), on a fresh graph of the same batch
        loss, params = _default_dims_loss()

        def in_flight(run):
            tracemalloc.start()
            try:
                graph = loss()
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(graph)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert in_flight(backward) <= 0.5 * in_flight(keeping_backward)


def _default_dims_loss(batch=4):
    """A builder of one minibatch's loss at README default dims over
    ``batch`` 256-point clouds that already keep their tables and
    profiles, and the weights it reads."""
    config = TrainConfig()
    clouds = tiny_dataset(per_class=batch // 2, points=256)
    params = init_model(np.random.default_rng(2), 2, m_anchors=config.sampler.m,
                        d_model=config.d_model, d_attn=config.d_attn,
                        group_k=config.group_k, n_layers=config.n_layers)

    def loss():
        return minibatch_loss(clouds, params, config,
                              itertools.repeat(np.random.default_rng(5)))

    loss()
    return loss, params


class TestGraphKeepsWhatBackwardReads:
    def test_values_no_pullback_reads_are_freed(self, monkeypatch):
        # q k^T before its scaling and the attended values before the
        # residual add are read by no pullback; a softmax output is
        probes = {"unscaled": [], "attended": [], "softmax": []}

        def spy(name, key, pick):
            real = getattr(autodiff, name)

            def recording(*args):
                out = real(*args)
                if args[0].data.ndim == 3:
                    probes[key].append(weakref.ref(pick(args, out).data))
                return out

            monkeypatch.setattr(autodiff, name, recording)

        spy("mul_scalar", "unscaled", lambda args, out: args[0])
        spy("add", "attended", lambda args, out: args[0])
        spy("softmax_rows", "softmax", lambda args, out: out)
        clouds = tiny_dataset(per_class=3, points=64)
        config = tiny_config(sampler=SampleSpec(m=8, k=3, variant="das-l0"),
                             loss=LossConfig(sem_weight=0.1))
        params = init_model(np.random.default_rng(2), 2, m_anchors=8, d_model=16,
                            d_attn=4, group_k=4, n_layers=2)
        loss = minibatch_loss(clouds, params, config,
                              itertools.repeat(np.random.default_rng(5)))
        assert [len(p) for p in probes.values()] == [2, 2, 2]
        assert all(ref() is None for ref in probes["unscaled"] + probes["attended"])
        assert all(ref() is not None for ref in probes["softmax"])
        del loss
        assert all(ref() is None for ref in probes["softmax"])

    def test_backward_frees_what_pullbacks_read(self, monkeypatch):
        # a softmax output and SEM's log q live until backward has run
        # their pullbacks, not until the loss is dropped
        probes = {"softmax": [], "log_q": []}
        real_softmax, real_entropy = autodiff.softmax_rows, autodiff.entropy_rows

        def softmax(x):
            out = real_softmax(x)
            probes["softmax"].append(weakref.ref(out.data))
            return out

        def entropy(x, tau):
            out = real_entropy(x, tau)
            log_q = inspect.getclosurevars(out._node.pullback).nonlocals["log_q"]
            probes["log_q"].append(weakref.ref(log_q))
            return out

        monkeypatch.setattr(autodiff, "softmax_rows", softmax)
        monkeypatch.setattr(autodiff, "entropy_rows", entropy)
        clouds = tiny_dataset(per_class=3, points=64)
        config = tiny_config(sampler=SampleSpec(m=8, k=3, variant="das-l0"),
                             loss=LossConfig(sem_weight=0.1))
        params = init_model(np.random.default_rng(2), 2, m_anchors=8, d_model=16,
                            d_attn=4, group_k=4, n_layers=2)
        loss = minibatch_loss(clouds, params, config,
                              itertools.repeat(np.random.default_rng(5)))
        refs = probes["softmax"] + probes["log_q"]
        assert [len(p) for p in probes.values()] == [2, 2]
        assert all(ref() is not None for ref in refs)
        backward(loss)
        assert all(ref() is None for ref in refs)
        assert np.isfinite(loss.item())

    def test_forward_graph_size(self):
        # README default dims at batch 4: 5.79 MiB traced while the graph
        # kept every op result's array, 3.40 MiB while SEM ran as five ops
        # and kept q and log q per layer, 2.89 MiB with entropy_rows, 2.52
        # MiB with linear over the stage list, which keeps no joined copy
        loss, _ = _default_dims_loss()
        tracemalloc.start()
        try:
            graph = loss()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert graph.requires_grad and size <= 2.78 * 2**20


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


_BURST_FAULTS = """
import resource
import numpy as np
from pcrobust.data import SyntheticDatasetSpec, gen_dataset
from pcrobust.sampling import SampleSpec
from pcrobust.train import TrainConfig, train

train(gen_dataset(SyntheticDatasetSpec(classes=("sphere", "plane"), per_class=4,
                                       points=48, seed=0)),
      TrainConfig(sampler=SampleSpec(m=8, k=3, variant="fps"), d_model=16, d_attn=4,
                  group_k=4, n_layers=2, epochs=1, batch_size=4))

def burst():
    arrays = [np.ones(1 << 17) for _ in range(20)]  # 1 MiB each

faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    burst()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults[1:]))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in this C library")
def test_train_keeps_freed_arrays_in_the_heap():
    # glibc's default thresholds return 20 freed MiB to the kernel, and the
    # next burst faults its 5,120 pages back in
    proc = subprocess.run([sys.executable, "-c", _BURST_FAULTS], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


class TestBaselineArch:
    def test_attention_sem_is_rejected(self):
        with pytest.raises(ValueError, match="sem_weight > 0.*arch 'baseline'"):
            TrainConfig(arch="baseline")
        TrainConfig(arch="baseline", loss=LossConfig(sem_weight=0.0))

    def test_trains_and_evaluates_at_zero_lambda(self):
        dataset = tiny_dataset(per_class=4)
        cfg = tiny_config(arch="baseline", epochs=2, loss=LossConfig(sem_weight=0.0))
        result = train(dataset, cfg)
        assert isinstance(result.params, BaselineParams)
        assert all(np.isfinite(row["train_loss"]) for row in result.curve)
        grid = dict(kinds=("scale",), severities=(1, 2), eval_seeds=(0, 1))
        _, log = evaluate(result.params, dataset, sampler=result.sampler, **grid)
        assert log == per_cloud_evaluate(result.params, dataset, result.sampler, **grid)

    def test_clouds_of_different_sizes_are_rejected(self):
        dataset = tiny_dataset(per_class=2) + tiny_dataset(seed=1, per_class=2, points=40)
        with pytest.raises(ValueError, match="sizes"):
            train(dataset, tiny_config(arch="baseline",
                                       loss=LossConfig(sem_weight=0.0)))
