"""Span tracing of `ual`'s public functions, installed by monkey-patching.

Every entry of ``TARGETS`` names a function where its caller looks it up:
``ual.pipeline.filter_faces`` is the binding ``Trainer`` and ``FaceBranch``
call, while ``ual.quality_filter.filter_faces`` is called by nobody in the
package, so patching it would record nothing. Class methods are patched on
the class that defines them.

A span is ``[name, start, end, parent, trace_id]`` with ``perf_counter``
times; ``parent`` is the index of the enclosing span (or -1) and
``trace_id`` names the request the span serves (a command, an epoch or a
group). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One patched binding: ``module.attr`` or ``module.Class.attr``."""

    module: str
    attr: str
    span: str
    # optional hooks: key(args) -> trace id for this span and its children;
    # count(tracer, args, result) adds to the tracer's counters
    key: Callable | None = None
    count: Callable | None = None


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _count_normals(tracer, args, result):
    tracer.add("numerics.rng.normals_values", result.size)


def _count_params_bytes(tracer, args, result):
    tracer.add("numerics.params.bytes", _file_bytes(args[1]))


def _count_faces(tracer, args, result):
    tracer.add("quality_filter.faces_scored", len(args[0]))
    tracer.add("quality_filter.faces_kept", len(result[0]))


def _count_saved_bytes(tracer, args, result):
    tracer.add("datagen_metrics.bytes", _file_bytes(args[1]))


def _count_loaded_bytes(tracer, args, result):
    tracer.add("datagen_metrics.bytes", _file_bytes(args[0]))


_REPORT_SUFFIXES = (".csv", ".jsonl", "manifest.json")


def _count_report_bytes(tracer, args, result):
    out = getattr(args[0], "out", None)
    if out is None or not os.path.isdir(out):
        return
    for name in os.listdir(out):
        if name.endswith(_REPORT_SUFFIXES):
            tracer.add("cli.report_bytes", _file_bytes(os.path.join(out, name)))


TARGETS: tuple[Target, ...] = (
    # numerics
    Target("ual.numerics", "SeededRng.derive", "numerics.rng.derive"),
    Target("ual.numerics", "SeededRng.normals", "numerics.rng.normals", count=_count_normals),
    Target("ual.numerics", "SeededRng.uniform", "numerics.rng.uniform"),
    Target("ual.numerics", "SeededRng.integer", "numerics.rng.integer"),
    Target("ual.numerics", "SeededRng.permutation", "numerics.rng.permutation"),
    Target("ual.numerics", "ParameterStore.save", "numerics.params.save",
           count=_count_params_bytes),
    Target("ual.numerics", "ParameterStore.restore", "numerics.params.restore",
           count=_count_params_bytes),
    # gaussian_embedding
    Target("ual.gaussian_embedding", "EmbeddingHead.forward", "gaussian_embedding.head_forward"),
    Target("ual.pipeline", "mc_predict", "gaussian_embedding.mc_predict"),
    # quality_filter
    Target("ual.pipeline", "filter_faces", "quality_filter.filter_faces", count=_count_faces),
    # pipeline
    Target("ual.cli", "train_model", "pipeline.train_model"),
    Target("ual.pipeline", "Trainer.train_epoch", "pipeline.train_epoch",
           key=lambda args: f"epoch{args[2]}"),
    Target("ual.pipeline", "FaceBranch.loss_and_grads", "pipeline.face.loss_grads"),
    Target("ual.pipeline", "FaceBranch.deterministic_loss_and_grads", "pipeline.face.loss_grads"),
    Target("ual.pipeline", "ObjectBranch.loss_and_grads", "pipeline.object.loss_grads"),
    Target("ual.pipeline", "SceneBranch.loss_and_grads", "pipeline.scene.loss_grads"),
    Target("ual.pipeline", "Adam.step", "pipeline.optimizer.step"),
    Target("ual.pipeline", "Sgd.step", "pipeline.optimizer.step"),
    Target("ual.pipeline", "evaluate_dataset", "pipeline.validation"),
    Target("ual.cli", "evaluate_dataset", "pipeline.evaluate"),
    Target("ual.pipeline", "predict_group", "pipeline.predict_group",
           key=lambda args: args[0].id),
    Target("ual.pipeline", "FaceBranch.infer", "pipeline.face.infer"),
    Target("ual.pipeline", "ObjectBranch.infer", "pipeline.object.infer"),
    Target("ual.pipeline", "fuse_predictions", "pipeline.fuse"),
    # datagen_metrics
    Target("ual.cli", "generate_dataset", "datagen_metrics.generate"),
    Target("ual.cli", "save_dataset", "datagen_metrics.save", count=_count_saved_bytes),
    Target("ual.cli", "load_dataset", "datagen_metrics.load", count=_count_loaded_bytes),
    Target("ual.datagen_metrics", "load_dataset", "datagen_metrics.load",
           count=_count_loaded_bytes),
    Target("ual.pipeline", "compute_metrics", "datagen_metrics.compute_metrics"),
    Target("ual.datagen_metrics", "compute_metrics", "datagen_metrics.compute_metrics"),
    # cli: the command bodies, looked up by build_parser on every main() call
    Target("ual.cli", "cmd_train", "cli.command", count=_count_report_bytes),
    Target("ual.cli", "cmd_eval", "cli.command", count=_count_report_bytes),
    Target("ual.cli", "cmd_simulate", "cli.command"),
    # test-only reference modules: the two helpers the running code uses
    Target("ual.pipeline", "total_face_loss", "losses.total_face_loss"),
    Target("ual.pipeline", "total_object_loss", "losses.total_object_loss"),
    Target("ual.pipeline", "high_low_partition", "uncertainty_scoring.high_low_partition"),
)


def _owner(target: Target):
    obj = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Collects spans and counters from the wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.trace_id = "-"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def reset(self, trace_id: str) -> None:
        """Start a new unit of work: drop its spans and counters."""
        self.spans = []
        self.counters = {}
        self.trace_id = trace_id

    def _wrap(self, fn, target: Target):
        tracer = self
        name, key, count = target.span, target.key, target.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            outer_id = tracer.trace_id
            if key is not None:
                tracer.trace_id = f"{outer_id}/{key(args)}"
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.trace_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                tracer.trace_id = outer_id
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        seen = set()
        for target in targets:
            owner, name = _owner(target)
            if (id(owner), name) in seen:
                raise ValueError(f"{target.module}.{target.attr} is patched twice")
            seen.add((id(owner), name))
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end]
        out.append((end - start) - _covered(kids))
    return out


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one unit of work, from its spans and counters."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    self_by: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        intervals.setdefault(name, []).append((span[1], span[2]))
        self_by[name] = self_by.get(name, 0.0) + own

    def busy(*names: str) -> float:  # wall time inside any span of ``names``
        return _covered([iv for n in names for iv in intervals.get(n, ())])

    def self_of(prefix: str) -> float:
        return sum(v for n, v in self_by.items() if n.startswith(prefix))

    epochs = [(s[2] - s[1], own) for s, own in zip(spans, selfs) if s[0] == "pipeline.train_epoch"]
    scored = counters.get("quality_filter.faces_scored", 0)
    return {
        "numerics.rng.derive_calls": calls.get("numerics.rng.derive", 0),
        "numerics.rng.normals_calls": calls.get("numerics.rng.normals", 0),
        "numerics.rng.normals_values": counters.get("numerics.rng.normals_values", 0),
        "numerics.rng.uniform_calls": calls.get("numerics.rng.uniform", 0),
        "numerics.rng.self_s": self_of("numerics.rng."),
        "numerics.params.io_s": busy("numerics.params.save", "numerics.params.restore"),
        "numerics.params.bytes": counters.get("numerics.params.bytes", 0),
        "gaussian_embedding.head_forward_calls": calls.get("gaussian_embedding.head_forward", 0),
        "gaussian_embedding.mc_predict_s": busy("gaussian_embedding.mc_predict"),
        "quality_filter.filter_faces_s": busy("quality_filter.filter_faces"),
        "quality_filter.faces_scored": scored,
        "quality_filter.keep_ratio": (
            counters.get("quality_filter.faces_kept", 0) / scored if scored else 0.0
        ),
        "pipeline.train_epoch_s": statistics.median(e[0] for e in epochs) if epochs else 0.0,
        "pipeline.train_epoch.self_s": statistics.median(e[1] for e in epochs) if epochs else 0.0,
        "pipeline.face.loss_grads_s": busy("pipeline.face.loss_grads"),
        "pipeline.object.loss_grads_s": busy("pipeline.object.loss_grads"),
        "pipeline.scene.loss_grads_s": busy("pipeline.scene.loss_grads"),
        "pipeline.optimizer.step_s": busy("pipeline.optimizer.step"),
        "pipeline.validation_s": busy("pipeline.validation"),
        "pipeline.face.infer_s": busy("pipeline.face.infer"),
        "pipeline.object.infer_s": busy("pipeline.object.infer"),
        "pipeline.fuse_s": busy("pipeline.fuse"),
        "datagen_metrics.generate_s": busy("datagen_metrics.generate"),
        "datagen_metrics.save_s": busy("datagen_metrics.save"),
        "datagen_metrics.load_s": busy("datagen_metrics.load"),
        "datagen_metrics.bytes": counters.get("datagen_metrics.bytes", 0),
        "datagen_metrics.compute_metrics_s": busy("datagen_metrics.compute_metrics"),
        "cli.self_s": self_by.get("cli.command", 0.0),
        "cli.report_bytes": counters.get("cli.report_bytes", 0),
        "losses.total_face_loss_calls": calls.get("losses.total_face_loss", 0),
        "losses.total_object_loss_calls": calls.get("losses.total_object_loss", 0),
        "uncertainty_scoring.high_low_partition_calls": calls.get(
            "uncertainty_scoring.high_low_partition", 0
        ),
        "trace.spans": len(spans),
    }


def write_spans(path, units: list[tuple[str, list[list]]]) -> None:
    """Write every recorded span as CSV, times in seconds from the unit start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit,index,parent,name,trace_id,start_s,end_s\n")
        for unit, spans in units:
            t0 = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent, trace_id) in enumerate(spans):
                fh.write(f"{unit},{i},{parent},{name},{trace_id},{start - t0:.9f},{end - t0:.9f}\n")
