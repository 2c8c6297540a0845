"""Span tracer for the pcrobust benchmark, applied from outside the package.

The tracer replaces pcrobust's public functions at the module attribute
their caller looks them up by (``sampling.knn``, ``model.sample_anchors``,
``autodiff.matmul``, ``train.Adam.step`` ...) with a wrapper that records a
span, and puts the originals back on ``uninstall``. Nothing under ``src/``
changes. Spans stay in memory; ``segments`` computes self time (a span's
duration minus the time its child spans cover) and ``write`` saves them.

Only the standard library is imported here, so the benchmark can set its
thread variables before numpy loads.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import inspect
import json
import time

# Spans that stand for one benchmark operation (a train() or evaluate()
# call); density-profile inputs are de-duplicated within each of them.
OPERATIONS = ("train", "evaluate")

# Autodiff functions that are not graph ops.
_NOT_OPS = ("backward", "finite_diff_check")


def _cloud_digest(cloud) -> bytes:
    return hashlib.blake2b(cloud.points.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.notes = {}  # span id -> fact recorded at that boundary
        self._stack = []
        self._patches = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace calls made through ``owner.attr``; a missing attribute is skipped.

        ``note(args, result)`` runs after the span closes and its value is
        kept against the span id.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        open_span, close_span, notes = self.open, self.close, self.notes

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = open_span(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(sid)
            if note is not None:
                notes[sid] = note(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported pcrobust package."""
        mod = {
            name: importlib.import_module(f"pcrobust.{name}")
            for name in ("autodiff", "evaluate", "geometry", "model", "sampling", "train")
        }
        autodiff, train = mod["autodiff"], mod["train"]
        boundaries = [
            (mod["sampling"], "knn", "geometry.knn", None),
            (mod["geometry"], "pairwise_distances", "geometry.pairwise_distances", None),
            (mod["sampling"], "density_profile", "sampling.density_profile",
             lambda args, profile: (_cloud_digest(args[0]), bool(profile.degenerate))),
            (mod["sampling"], "weighted_sample_without_replacement",
             "sampling.weighted_draw", None),
            (mod["sampling"], "fps_sample", "sampling.fps_sample", None),
            (mod["model"], "sample_anchors", "sampling.sample_anchors", None),
            (mod["model"], "group_indices", "model.group_indices", None),
            (mod["model"], "neighbor_embed", "model.neighbor_embed", None),
            (mod["model"], "self_attention_layer", "model.attention", None),
            (train, "forward", "model.forward", None),
            (train, "smoothed_cross_entropy", "losses.ce", None),
            (train, "attention_sem_loss", "losses.sem", None),
            (train, "predict", "train.val_predict", None),
            (train.Adam, "step", "train.optimizer_step", None),
            (autodiff, "backward", "autodiff.backward", None),
            (mod["evaluate"], "apply_corruption", "corruption.apply", None),
            (mod["evaluate"], "report_from_log", "evaluate.report_from_log", None),
        ]
        for owner, attr, name, note in boundaries:
            self.wrap(owner, attr, name, note)
        for name, fn in list(vars(autodiff).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == autodiff.__name__
                and not name.startswith("_")
                and name not in _NOT_OPS
            ):
                self.wrap(autodiff, name, f"autodiff.{name}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _label_layers(self) -> None:
        """Name attention spans by their order within the enclosing forward."""
        seen = {}
        for sid, name in enumerate(self.names):
            if name == "model.attention":
                parent = self.parents[sid]
                seen[parent] = seen.get(parent, 0) + 1
                self.names[sid] = f"model.attention_l{seen[parent]}"

    def segments(self) -> dict:
        """Per top-level span: {name: [calls, busy_ns, self_ns]} over its subtree.

        Extra keys: ``model.forward[val]`` (forwards under validation),
        ``density.distinct`` (distinct input clouds within each operation)
        and ``density.degenerate`` (profiles that fell back to uniform).
        """
        self._label_layers()
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += dur[sid]
        root = [0] * n
        operation = [-1] * n
        out = {}
        distinct = {}
        for sid in range(n):
            parent = self.parents[sid]
            name = self.names[sid]
            root[sid] = sid if parent < 0 else root[parent]
            operation[sid] = sid if name in OPERATIONS else (
                operation[parent] if parent >= 0 else -1
            )
            stats = out.setdefault(root[sid], {})
            keys = [name]
            if name == "model.forward" and parent >= 0 and (
                self.names[parent] == "train.val_predict"
            ):
                keys.append("model.forward[val]")
            for key in keys:
                row = stats.setdefault(key, [0, 0, 0])
                row[0] += 1
                row[1] += dur[sid]
                row[2] += dur[sid] - covered[sid]
            if sid in self.notes and name == "sampling.density_profile":
                digest, degenerate = self.notes[sid]
                distinct.setdefault(root[sid], set()).add((operation[sid], digest))
                stats.setdefault("density.degenerate", [0, 0, 0])[0] += degenerate
        for top, seen in distinct.items():
            out[top]["density.distinct"] = [len(seen), 0, 0]
        return out

    def write(self, spans_path, summary_path, segments, roots) -> None:
        """Spans as gzip JSON lines; self-time totals over ``roots`` as JSON."""
        origin = self.starts[0] if self.starts else 0
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid,
                    "name": name,
                    "parent": self.parents[sid],
                    "start_ns": self.starts[sid] - origin,
                    "end_ns": self.ends[sid] - origin,
                }) + "\n")
        totals = {}
        for top in roots:
            for name, (calls, busy, own) in segments[top].items():
                row = totals.setdefault(name, [0, 0, 0])
                row[0] += calls
                row[1] += busy
                row[2] += own
        summary = [
            {"name": name, "calls": calls, "busy_ms": busy / 1e6, "self_ms": own / 1e6}
            for name, (calls, busy, own) in sorted(
                totals.items(), key=lambda item: -item[1][2]
            )
        ]
        with open(summary_path, "w") as fh:
            json.dump({"segments": len(roots), "spans": summary}, fh, indent=1)
