#!/usr/bin/env python3
"""Benchmark of pcrobust training and corruption-grid evaluation.

Run from the repository root, on the package under ``src/``:

    python3 perfbench/run.py --workload train-das --seed 1 --seconds 30 --trace 0

``--workload all`` (the default) runs train-das, train-fps and eval-das in
one process. Each workload prints its metrics by name with their units and
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, untraced; ``--trace 1`` reports the per-layer metrics
from a span trace. A failed output check exits with status 1. Result, span
and self-time files go to ``.perfbench_out/``. perfbench/README.md defines
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-das", "train-fps", "eval-das")
TRAIN_SAMPLERS = {"train-das": "das-l0", "train-fps": "fps"}

# The README default configuration, written out so that a later change of
# a library default does not change the benchmark's work.
POINTS = 256
M_ANCHORS = 64
SAMPLER_K = 5
D_MODEL = 64
D_ATTN = 16
GROUP_K = 8
N_LAYERS = 4
BATCH_SIZE = 16
LR = 1e-3
SEM_WEIGHT = 0.1
TAU = 1.0
SMOOTHING = 0.2
VAL_FRACTION = 0.2
N_CLASSES = 6
SEVERITIES = (1, 2, 3, 4, 5)
EVAL_SEEDS = (0, 1, 2, 3, 4)

# 10 clouds per class: 12 held out for validation and 48 trained, which is
# three full batches of 16, so every optimizer step does the same work.
TRAIN_PER_CLASS = 10
EPOCHS = 2
# One test cloud per class; each evaluation pass runs the whole grid on one
# of them, so every pass does the same work whatever the run length.
EVAL_PER_CLASS = 1
PROBE_PER_CLASS = 2
PROBE_SEVERITY = 3
SETUP_REPEATS = 9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Rep:
    """One timed unit of work: a train() call or one evaluation pass."""

    seconds: float  # wall time of the train()/evaluate() calls
    done: int  # clouds x epochs trained, or predictions returned
    attempted: int
    failed: int
    infeasible: int = 0
    root: int = -1  # top-level span id when traced
    failed_cells: list = field(default_factory=list)


class Workload:
    def __init__(self, seed: int, tracer):
        import numpy as np

        self.np = np
        self.tracer = tracer
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.data_seed, self.train_seed, self.corruption_seed = (
            int(s) for s in rng.integers(0, 2**31, 3)
        )

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext(-1)

    def setup(self) -> None:
        """A fresh import of pcrobust (numpy stays loaded), then the inputs."""
        with self.span("pcrobust.import"):
            for module in [m for m in sys.modules if m.split(".")[0] == "pcrobust"]:
                del sys.modules[module]
            self.pc = importlib.import_module("pcrobust")
        self.sampler = self.pc.SampleSpec(m=M_ANCHORS, k=SAMPLER_K, variant=self.variant)
        self.make_inputs()

    def check_das_anchors(self, clouds) -> None:
        """Every anchor das_sample picks has positive density weight."""
        pc, np = self.pc, self.np
        spec = pc.SampleSpec(m=M_ANCHORS, k=SAMPLER_K, variant="das-l0")
        for i, cloud in enumerate(clouds):
            anchors = pc.das_sample(cloud, spec, np.random.default_rng(i))
            weights = pc.density_profile(cloud, SAMPLER_K, "l0").weights
            check(np.unique(anchors).size == M_ANCHORS, "das anchors not distinct")
            check(bool((weights[anchors] > 0).all()),
                  "das_sample picked an anchor of zero density weight")


class TrainWorkload(Workload):
    kind = "train"
    unit, unit_plural = "train() call", "train() calls"
    operations = "train() calls"
    rate_name = "train_clouds_per_s"
    setup_steps = "import pcrobust, gen_dataset"

    def __init__(self, seed, tracer, variant):
        self.variant = variant
        super().__init__(seed, tracer)
        self.reference = None  # parameters of the first measured train() call

    def config(self, epochs):
        pc = self.pc
        return pc.TrainConfig(
            sampler=self.sampler,
            loss=pc.LossConfig(sem_weight=SEM_WEIGHT, tau=TAU, sem_mode="attention",
                               smoothing_eps=SMOOTHING),
            arch="attention", d_model=D_MODEL, d_attn=D_ATTN, group_k=GROUP_K,
            n_layers=N_LAYERS, epochs=epochs, batch_size=BATCH_SIZE, lr=LR,
            optimizer="adam", seed=self.train_seed, val_fraction=VAL_FRACTION,
        )

    def dataset(self, per_class):
        spec = self.pc.SyntheticDatasetSpec(per_class=per_class, points=POINTS,
                                            seed=self.data_seed)
        with self.span("data.gen_dataset"):
            return self.pc.gen_dataset(spec)

    def make_inputs(self) -> None:
        self.data = self.dataset(TRAIN_PER_CLASS)

    def run_train(self, data, epochs):
        cfg = self.config(epochs)
        with self.span("train") as root:
            t0 = time.perf_counter()
            result = self.pc.train(data, cfg)
            seconds = time.perf_counter() - t0
        losses = [row["train_loss"] for row in result.curve]
        check(len(losses) == epochs, "training curve has the wrong length")
        check(all(math.isfinite(x) for x in losses), "non-finite training loss")
        return result, seconds, root

    def params_bytes(self, result):
        return [t.data.tobytes() for t in result.params.tensors()]

    def probe(self) -> None:
        data = self.dataset(PROBE_PER_CLASS)
        first, _, _ = self.run_train(data, 1)
        second, _, _ = self.run_train(data, 1)
        check(self.params_bytes(first) == self.params_bytes(second)
              and first.curve == second.curve,
              "same-seed probe trainings differ")
        self.check_das_anchors(data)

    def rep(self, index: int) -> Rep:
        n_train = len(self.data) - int(round(VAL_FRACTION * len(self.data)))
        try:
            result, seconds, root = self.run_train(self.data, EPOCHS)
        except (self.pc.TrainingDiverged, self.pc.InfeasibleSampleError) as exc:
            infeasible = isinstance(exc, self.pc.InfeasibleSampleError)
            return Rep(math.nan, 0, 1, 1, int(infeasible))
        params = self.params_bytes(result)
        if self.reference is None:
            self.reference = params
        check(params == self.reference, "same-seed train() calls differ")
        return Rep(seconds, n_train * EPOCHS, 1, 0, root=root)


class EvalWorkload(Workload):
    kind = "eval"
    unit, unit_plural = "evaluation pass", "evaluation passes"
    operations = "grid predictions"
    rate_name = "eval_preds_per_s"
    setup_steps = "import pcrobust, gen_dataset, init_model, checkpoint round trip"
    variant = "das-l0"

    def make_inputs(self) -> None:
        pc, np = self.pc, self.np
        spec = pc.SyntheticDatasetSpec(per_class=EVAL_PER_CLASS, points=POINTS,
                                       seed=self.data_seed)
        with self.span("data.gen_dataset"):
            self.test = pc.gen_dataset(spec)
        with self.span("model.init"):
            params = pc.init_model(
                np.random.default_rng(self.train_seed), N_CLASSES, m_anchors=M_ANCHORS,
                d_model=D_MODEL, d_attn=D_ATTN, group_k=GROUP_K, n_layers=N_LAYERS,
            )
        path = OUT_DIR / f"eval-das-seed{self.seed}.ckpt"
        with self.span("model.checkpoint_io"):
            pc.save_checkpoint(path, params, self.sampler)
            self.params, self.sampler = pc.load_checkpoint(path)
        check([t.data.tobytes() for t in params.tensors()]
              == [t.data.tobytes() for t in self.params.tensors()],
              "checkpoint round trip changed the weights")

    def probe(self) -> None:
        pc, np = self.pc, self.np
        cloud = self.test[0]
        variants = [cloud] + [
            pc.apply_corruption(cloud, pc.CorruptionSpec(kind, PROBE_SEVERITY, self.seed))
            for kind in pc.ALL_KINDS
        ]
        for i, variant in enumerate(variants):
            runs = [pc.forward(variant, self.params, self.sampler,
                               np.random.default_rng(i)) for _ in range(2)]
            check(runs[0].logits.data.tobytes() == runs[1].logits.data.tobytes()
                  and np.array_equal(runs[0].anchors, runs[1].anchors),
                  "same-seed probe forwards differ")
        self.check_das_anchors(variants)

    def evaluate(self, clouds, kind, severities):
        """One evaluate() call; returns (seconds, log or None if infeasible)."""
        t0 = time.perf_counter()
        try:
            with self.span("evaluate"):
                report, log = self.pc.evaluate(
                    self.params, clouds, sampler=self.sampler, kinds=(kind,),
                    severities=severities, eval_seeds=EVAL_SEEDS,
                    corruption_seed=self.corruption_seed,
                )
        except self.pc.InfeasibleSampleError:
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        check(report == self.pc.report_from_log(log),
              "report differs from report_from_log(log)")
        check(len(log) == len(clouds) * len(EVAL_SEEDS) * (1 + len(severities)),
              "evaluate() returned the wrong number of predictions")
        return seconds, log

    def rep(self, index: int) -> Rep:
        """The clean cell plus every kind x severity on one test cloud.

        evaluate() is called once per kind. If that raises, the kind is run
        again one severity at a time, so the failure lands on its cells.
        """
        clouds = [self.test[index % len(self.test)]]
        per_cell = len(clouds) * len(EVAL_SEEDS)
        seconds, returned, failed_cells = 0.0, 0, []
        cells, clean = {}, []
        with self.span("eval.pass") as root:
            for kind in self.pc.ALL_KINDS:
                plan = [SEVERITIES]
                while plan:
                    severities = plan.pop(0)
                    dt, log = self.evaluate(clouds, kind, severities)
                    seconds += dt
                    if log is None and len(severities) > 1:
                        plan = [(s,) for s in severities]
                    elif log is None:
                        failed_cells.append((kind, severities[0]))
                    else:
                        returned += len(log)
                        clean.append([r for r in log if r.kind == "clean"])
                        for rec in log:
                            if rec.kind != "clean":
                                cells.setdefault((rec.kind, rec.severity), []).append(rec)
        check(all(batch == clean[0] for batch in clean),
              "clean predictions differ between evaluate() calls")
        check(all(len(recs) == per_cell for recs in cells.values()),
              "a grid cell was not returned exactly once")
        attempted = per_cell * (1 + len(self.pc.ALL_KINDS) * len(SEVERITIES))
        failed = per_cell * len(failed_cells)
        check(per_cell * (1 + len(cells)) + failed == attempted,
              "returned plus failed predictions differ from those attempted")
        return Rep(seconds, returned, attempted, failed, infeasible=failed, root=root,
                   failed_cells=failed_cells)


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def lower_quartile(rates):
    """The rate three quarters of the reps reach.

    The host's speed has short fast phases that lift some reps by up to a
    third; the lower quartile follows the speed the host holds, so it
    varies less from run to run than the median does.
    """
    if len(rates) < 2:
        return median(rates)
    return statistics.quantiles(rates, n=4, method="inclusive")[0]


def layer_metrics(seg: dict, rep: Rep, kind: str) -> dict:
    """Per-layer metrics of one traced rep from its span segment."""

    def calls(name):
        return seg.get(name, [0, 0, 0])[0]

    def busy(name):
        return seg.get(name, [0, 0, 0])[1] / 1e6

    def own(name):
        return seg.get(name, [0, 0, 0])[2] / 1e6

    ops = [k for k in seg if k.startswith("autodiff.") and k != "autodiff.backward"]
    op_calls = sum(calls(k) for k in ops)
    profiles = calls("sampling.density_profile")
    out = {
        "geometry.knn.calls": (calls("geometry.knn"), "count"),
        "geometry.knn.busy_ms": (busy("geometry.knn"), "ms"),
        "geometry.pairwise_distances.busy_ms": (busy("geometry.pairwise_distances"), "ms"),
        "sampling.density_profile.calls": (profiles, "count"),
        "sampling.density_profile.busy_ms": (busy("sampling.density_profile"), "ms"),
        "sampling.density_profile.distinct_ratio": (
            calls("density.distinct") / profiles if profiles else 0.0, "ratio"),
        "sampling.weighted_draw.busy_ms": (busy("sampling.weighted_draw"), "ms"),
        "sampling.fps_sample.busy_ms": (busy("sampling.fps_sample"), "ms"),
        "sampling.infeasible.count": (rep.infeasible, "count"),
        "sampling.degenerate.count": (calls("density.degenerate"), "count"),
        "model.group_indices.calls": (calls("model.group_indices"), "count"),
        "model.group_indices.busy_ms": (busy("model.group_indices"), "ms"),
        "model.neighbor_embed.self_ms": (own("model.neighbor_embed"), "ms"),
    }
    for layer in range(1, N_LAYERS + 1):
        out[f"model.attention_l{layer}.fwd_ms"] = (busy(f"model.attention_l{layer}"), "ms")
    forwards = calls("model.forward")
    steps = calls("train.optimizer_step")
    if kind == "train":
        train_ms = busy("model.forward") - busy("model.forward[val]") + busy("losses.ce") \
            + busy("losses.sem") + busy("autodiff.backward")
        per_cloud = train_ms / rep.done
        per_pred = 0.0
    else:
        per_cloud = 0.0
        per_pred = busy("evaluate") / rep.done if rep.done else 0.0
    out.update({
        "model.forward.calls": (forwards, "count"),
        "model.forward.self_ms": (own("model.forward"), "ms"),
        "autodiff.ops.count": (
            op_calls / (steps if kind == "train" else forwards) if forwards else 0.0,
            "count"),
        "autodiff.ops.self_ms": (sum(own(k) for k in ops), "ms"),
        "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward.busy_ms": (busy("autodiff.backward"), "ms"),
        "losses.sem.busy_ms": (busy("losses.sem"), "ms"),
        "losses.ce.busy_ms": (busy("losses.ce"), "ms"),
        "train.optimizer_step.busy_ms": (busy("train.optimizer_step"), "ms"),
        "train.val_predict.busy_ms": (busy("train.val_predict"), "ms"),
        "train.fwd_bwd_per_cloud_ms": (per_cloud, "ms"),
        "corruption.apply.calls": (calls("corruption.apply"), "count"),
        "corruption.apply.busy_ms": (busy("corruption.apply"), "ms"),
        "evaluate.self_ms": (own("evaluate"), "ms"),
        "evaluate.report_from_log.busy_ms": (busy("evaluate.report_from_log"), "ms"),
        "evaluate.per_pred_ms": (per_pred, "ms"),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 numpy_import_s: float) -> dict:
    from spans import Tracer

    tracer = Tracer() if trace else None
    if name == "eval-das":
        bench = EvalWorkload(seed, tracer)
    else:
        bench = TrainWorkload(seed, tracer, TRAIN_SAMPLERS[name])
    kind = bench.kind

    # The median of several set-ups, each timed as a whole.
    setup_times, setup_roots = [], []
    for _ in range(SETUP_REPEATS):
        with bench.span("setup") as root:
            t0 = time.perf_counter()
            bench.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_roots.append(root)
    setup_s = statistics.median(setup_times)

    bench.probe()
    # One untimed warm-up rep: the first rep faults in the memory that later
    # reps reuse, and it was the slowest rep of most runs.
    gc.collect()
    bench.rep(0)

    # Untraced runs time every rep. Traced runs alternate untraced and
    # traced reps: the traced ones give the per-layer figures and the pair
    # gives the tracing overhead.
    min_reps = 4 if trace else 3
    reps, traced = [], []
    index, start = 0, time.perf_counter()
    while index < min_reps or time.perf_counter() - start < seconds:
        on = trace and index % 2 == 1
        # The autodiff graph holds reference cycles, which only the cyclic
        # collector frees; collecting first makes every rep start from the
        # same heap, so peak RSS does not depend on how many reps fit.
        gc.collect()
        if on:
            tracer.install()
        try:
            rep = bench.rep(index)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else reps).append(rep)
        index += 1
    all_reps = reps + traced
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    rate = lower_quartile([r.done / r.seconds for r in reps if r.done])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(seed, name)
    env["numpy_import_s"] = numpy_import_s
    summary = {
        "workload": name,
        "unit_of_work": bench.unit,
        "reps": len(reps),
        "traced_reps": len(traced),
        bench.rate_name: rate,
        "setup_s": setup_s,
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failed_cells": sorted({c for r in all_reps for c in r.failed_cells}),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{name}: {bench.rate_name} = {rate:.4f} 1/s "
          f"(lower quartile of {len(reps)} untraced {bench.unit_plural})")
    print(f"{name}: setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups: "
          f"{bench.setup_steps})")
    print(f"{name}: failed_frac = {failed / attempted:.4f} ({failed} of {attempted} "
          f"{bench.operations})")
    print(f"{name}: peak_rss_mb = {peak_rss_mb:.3f} MB")

    if trace:
        segments = tracer.segments()
        per_rep = [layer_metrics(segments[r.root], r, kind) for r in traced if r.root >= 0]
        metrics = {key: {"value": median([m[key][0] for m in per_rep]),
                         "unit": per_rep[0][key][1]} for key in per_rep[0]}
        setup_segs = [segments[root] for root in setup_roots]
        metrics["data.gen_dataset.busy_ms"] = {
            "value": median([s["data.gen_dataset"][1] / 1e6 for s in setup_segs]),
            "unit": "ms"}
        metrics["model.checkpoint_io.ms"] = {
            "value": median([s.get("model.checkpoint_io", [0, 0, 0])[1] / 1e6
                             for s in setup_segs]),
            "unit": "ms"}
        traced_rate = lower_quartile([r.done / r.seconds for r in traced if r.done])
        metrics["trace.overhead_frac"] = {
            "value": rate / traced_rate - 1.0 if traced_rate else 0.0, "unit": "frac"}
        stem = OUT_DIR / f"{name}-seed{seed}"
        tracer.write(f"{stem}-spans.jsonl.gz", f"{stem}-selftime.json", segments,
                     [r.root for r in traced] + setup_roots)
        for key, entry in metrics.items():
            print(f"{name}: {key} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {
            "throughput_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"env": env, "summary": summary, "result": result,
                   "rep_seconds": [r.seconds for r in reps],
                   "traced_rep_seconds": [r.seconds for r in traced]}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "pcrobust"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no pcrobust package under {package}", file=sys.stderr)
        return 2
    # Single-threaded BLAS, set before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    # numpy loads once per process and is not part of setup_s; the first
    # pcrobust import may compile bytecode and is not timed either.
    t0 = time.perf_counter()
    importlib.import_module("numpy")
    numpy_import_s = time.perf_counter() - t0
    pc = importlib.import_module("pcrobust")
    if Path(pc.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported pcrobust from {pc.__file__}, not {package}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  numpy_import_s)
        except CheckFailed as exc:
            print(f"{name}: check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
