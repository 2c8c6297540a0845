"""Outputs of the tiny end-to-end config against the committed parity record.

``make_golden.py`` wrote ``golden/tiny.json``; a change that moves these
outputs on purpose regenerates it with that script and says so. Checkpoint
digests are compared only on a numpy build and CPU with the record's
fingerprint, since float results need not be bitwise across BLAS kernels.
"""

import json

import pytest

from make_golden import ARCHS, BENCH_SAMPLERS, GOLDEN, golden

LOSS_RTOL = 1e-12


@pytest.fixture(scope="module")
def rebuilt():
    return golden()


@pytest.fixture(scope="module")
def committed():
    return json.loads(GOLDEN.read_text())


def test_record_covers_the_same_runs(rebuilt, committed):
    assert rebuilt["config"] == committed["config"]
    assert rebuilt["eval"] == committed["eval"]
    assert sorted(rebuilt["archs"]) == sorted(committed["archs"]) == sorted(ARCHS)
    assert sorted(rebuilt["bench"]) == sorted(committed["bench"]) == sorted(BENCH_SAMPLERS)


_RUNS = [("archs", arch) for arch in ARCHS] + [("bench", s) for s in BENCH_SAMPLERS]
_RUN_IDS = list(ARCHS) + [f"bench-{s}" for s in BENCH_SAMPLERS]


@pytest.mark.parametrize("group, run", _RUNS, ids=_RUN_IDS)
def test_checkpoint_digest(rebuilt, committed, group, run):
    if rebuilt["fingerprint"] != committed["fingerprint"]:
        pytest.skip("numpy build or CPU differs from the record's fingerprint")
    got = rebuilt[group][run]["checkpoint_sha256"]
    assert got == committed[group][run]["checkpoint_sha256"]


@pytest.mark.parametrize("arch", ARCHS)
def test_eval_log_and_report_are_exact(rebuilt, committed, arch):
    # JSON turns tuples into lists; compare through one round trip
    got = json.loads(json.dumps(rebuilt["archs"][arch]))
    want = committed["archs"][arch]
    assert got["log"] == want["log"]
    assert got["report"] == want["report"]


@pytest.mark.parametrize("group, run", _RUNS, ids=_RUN_IDS)
def test_training_curve(rebuilt, committed, group, run):
    got, want = rebuilt[group][run]["curve"], committed[group][run]["curve"]
    assert [r["epoch"] for r in got] == [r["epoch"] for r in want]
    assert [r["val_error"] for r in got] == [r["val_error"] for r in want]
    for g, w in zip(got, want):
        assert abs(g["train_loss"] - w["train_loss"]) <= LOSS_RTOL * abs(w["train_loss"])
