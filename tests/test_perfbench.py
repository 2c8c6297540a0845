"""The benchmark's workloads still build their inputs against the package.

``perfbench/run.py`` passes keywords to the package's config constructors,
``init_model`` and the checkpoint functions. A change that drops one breaks
the benchmark; these tests fail first. They load the harness and do not
run it: ``setup()`` would re-import the package, so each workload gets the
imported package instead.
"""

import importlib.util
import sys
from pathlib import Path

import pcrobust

RUN_PY = Path(__file__).parents[1] / "perfbench" / "run.py"


def load_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    return run


def test_train_workload_config_builds(monkeypatch):
    run = load_run(monkeypatch)
    workload = run.TrainWorkload(0, None, "das-l0")
    workload.pc = pcrobust
    workload.sampler = pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                           variant="das-l0")
    config = workload.config(2)
    assert isinstance(config, pcrobust.TrainConfig)
    assert (config.epochs, config.sampler) == (2, workload.sampler)
    assert config.loss.sem_weight == run.SEM_WEIGHT


def test_eval_workload_inputs_build(monkeypatch, tmp_path):
    run = load_run(monkeypatch)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)  # the checkpoint round trip
    workload = run.EvalWorkload(0, None)
    workload.pc = pcrobust
    workload.sampler = pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                           variant=workload.variant)
    workload.make_inputs()
    assert len(workload.test) == run.N_CLASSES * run.EVAL_PER_CLASS
    assert isinstance(workload.params, pcrobust.ModelParams)
    assert workload.sampler == pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                                   variant="das-l0")
    assert [p.name for p in tmp_path.iterdir()] == ["eval-das-seed0.ckpt"]
