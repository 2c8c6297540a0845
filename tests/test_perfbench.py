"""The benchmark's training config still builds against the package.

``perfbench/run.py`` passes keywords to the package's config constructors.
A change that drops one breaks the benchmark; this test fails first. It
reads the harness and does not run it: ``setup()`` would re-import the
package, so the workload gets the imported package instead.
"""

import importlib.util
import sys
from pathlib import Path

import pcrobust

RUN_PY = Path(__file__).parents[1] / "perfbench" / "run.py"


def test_train_workload_config_builds(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    workload = run.TrainWorkload(0, None, "das-l0")
    workload.pc = pcrobust
    workload.sampler = pcrobust.SampleSpec(m=run.M_ANCHORS, k=run.SAMPLER_K,
                                           variant="das-l0")
    config = workload.config(2)
    assert isinstance(config, pcrobust.TrainConfig)
    assert (config.epochs, config.sampler) == (2, workload.sampler)
    assert config.loss.sem_weight == run.SEM_WEIGHT
