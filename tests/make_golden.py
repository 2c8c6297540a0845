"""Build the parity record ``tests/golden/tiny.json``.

The record holds, for the das-l0, fps and random samplers and for the
baseline:

* the prediction log and report of a short corruption grid, from fixed
  ``init_model``/``init_baseline`` weights on the test split of the tiny
  end-to-end config (``test_cli.TINY_CONFIG``);
* the training curve of that config, with the sampler (or the arch)
  swapped in, and the sha256 of the checkpoint that training returns;
* the training curve and checkpoint sha256 of a das-l0 and an fps run at
  the benchmark's train size (``perfbench/run.py``: 60 clouds of 256
  points, m 64, d_model 64, 4 layers, 2 epochs), where batches are full
  and the layers as wide as the README defaults;
* the fingerprint of the numpy build and CPU the record was made on.

``test_golden.py`` rebuilds it with ``golden()`` and compares. A checkpoint
digest depends on the BLAS kernels, so it is compared only where the
fingerprint matches. A change that moves outputs on purpose regenerates
the file:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pcrobust.config import build_dataset_specs, build_train_config, parse_flat_file
from pcrobust.data import SyntheticDatasetSpec, gen_dataset
from pcrobust.evaluate import evaluate
from pcrobust.model import init_baseline, init_model, save_checkpoint
from pcrobust.sampling import SampleSpec
from pcrobust.train import TrainConfig, train

from test_cli import TINY_CONFIG

GOLDEN = Path(__file__).parent / "golden" / "tiny.json"
SAMPLERS = ("das-l0", "fps", "random")
ARCHS = SAMPLERS + ("baseline",)
KINDS = ("jitter-gaussian", "impulse", "drop-global", "add-global")
SEVERITIES = (1, 5)  # drop-global at 5 leaves 12 of the 48 points
EVAL_SEEDS = (0, 1)
WEIGHTS_SEED = 11
# the benchmark's train size; the README defaults give the other settings
BENCH_SAMPLERS = ("das-l0", "fps")
BENCH_DATA = SyntheticDatasetSpec(per_class=10, points=256, seed=5)
BENCH_M, BENCH_EPOCHS, BENCH_SEED = 64, 2, 7


def _config(arch: str) -> dict:
    """TINY_CONFIG as a key table, with ``arch`` as its sampler or its arch."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.cfg"
        path.write_text(TINY_CONFIG)
        cfg = dict(parse_flat_file(path))
    if arch == "baseline":
        cfg.update(arch="baseline", **{"lambda": "0"})
    else:
        cfg["sampler"] = arch
    return cfg


def _eval_record(arch: str) -> dict:
    cfg = _config(arch)
    tc = build_train_config(cfg)
    _, test_spec = build_dataset_specs(cfg)
    rng = np.random.default_rng(WEIGHTS_SEED)
    if arch == "baseline":
        params = init_baseline(rng, 2, d_model=tc.d_model)
    else:
        params = init_model(rng, 2, m_anchors=tc.sampler.m, d_model=tc.d_model,
                            d_attn=tc.d_attn, group_k=tc.group_k, n_layers=tc.n_layers)
    report, records = evaluate(params, gen_dataset(test_spec), tc.sampler, KINDS,
                               SEVERITIES, EVAL_SEEDS)
    return {"log": [list(dataclasses.astuple(r)) for r in records],
            "report": report.to_dict()}


def _trained(arch: str):
    cfg = _config(arch)
    train_spec, _ = build_dataset_specs(cfg)
    return train(gen_dataset(train_spec), build_train_config(cfg))


def _train_record(result) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, result.params, result.sampler)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"curve": result.curve, "checkpoint_sha256": digest}


def _bench_record(sampler: str) -> dict:
    config = TrainConfig(sampler=SampleSpec(m=BENCH_M, variant=sampler),
                         epochs=BENCH_EPOCHS, seed=BENCH_SEED)
    return _train_record(train(gen_dataset(BENCH_DATA), config))


def fingerprint() -> dict:
    """What float results depend on beyond the code: the numpy version, its
    BLAS build (without the build machine's directories), the CPU
    architecture and the digest of one seeded BLAS product, which tells
    apart the kernels a dynamic-arch BLAS picks at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    a, b = np.random.default_rng(0).standard_normal((2, 64, 64))
    return {"numpy": np.__version__,
            "blas": {k: v for k, v in blas.items() if not k.endswith("directory")},
            "machine": platform.machine(),
            "matmul_sha256": hashlib.sha256((a @ b).tobytes()).hexdigest()}


def golden() -> dict:
    return {
        "config": TINY_CONFIG,
        "eval": {"kinds": list(KINDS), "severities": list(SEVERITIES),
                 "eval_seeds": list(EVAL_SEEDS), "weights_seed": WEIGHTS_SEED},
        "fingerprint": fingerprint(),
        "archs": {arch: {**_eval_record(arch), **_train_record(_trained(arch))}
                  for arch in ARCHS},
        "bench": {sampler: _bench_record(sampler) for sampler in BENCH_SAMPLERS},
    }


def main() -> int:
    GOLDEN.parent.mkdir(exist_ok=True)
    record = golden()
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    for arch in ARCHS:
        print(f"{arch}: checkpoint sha256 {record['archs'][arch]['checkpoint_sha256']}")
    for sampler in BENCH_SAMPLERS:
        print(f"bench {sampler}: checkpoint sha256 "
              f"{record['bench'][sampler]['checkpoint_sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
