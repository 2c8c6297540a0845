"""The benchmark's workloads still build their inputs against the package.

``perfbench/run.py`` passes keywords to the package's config constructors,
``init_model`` and the checkpoint functions. A change that drops one breaks
the benchmark; these tests fail first. They load the harness and do not
run its protocol: ``setup()`` would re-import the package, so each workload
gets the imported package instead. One traced evaluation pass checks that
the spans the eval-das per-layer metrics read still see the package's calls.
"""

import importlib.util
import sys
from pathlib import Path

import pcrobust

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_run(monkeypatch):
    return load(monkeypatch, "run")


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


def test_eval_workload_spans_stay_live(monkeypatch, tmp_path):
    # a traced evaluation pass: the spans the eval-das per-layer metrics
    # read must still see calls, and the groups are built once per variant
    run = load_run(monkeypatch)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    tracer = load(monkeypatch, "spans").Tracer()
    workload = run.EvalWorkload(0, tracer)
    workload.pc = pcrobust
    workload.sampler = pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                           variant=workload.variant)
    workload.make_inputs()
    tracer.install()
    try:
        rep = workload.rep(0)
    finally:
        tracer.uninstall()
    calls = {name: row[0] for name, row in tracer.segments()[rep.root].items()}
    for name in ("sampling.sample_anchors", "model.neighbor_embed", "model.attention_l1",
                 "autodiff.mlp_max"):
        assert calls.get(name, 0) > 0, name
    variants = len(pcrobust.ALL_KINDS) * (1 + len(run.SEVERITIES))  # clean once per kind
    assert calls["model.group_indices"] == variants


def test_workload_probes_run_against_the_package(monkeypatch, tmp_path):
    # the probes call density_profile(cloud, k, "l0"), das_sample, forward and
    # apply_corruption; a probe that fails on the package fails the benchmark
    run = load_run(monkeypatch)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workloads = [run.TrainWorkload(0, None, "das-l0"), run.EvalWorkload(0, None)]
    for workload in workloads:
        workload.pc = pcrobust
        workload.sampler = pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                               variant=workload.variant)
    workloads[1].make_inputs()
    for workload in workloads:
        workload.probe()
