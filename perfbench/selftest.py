"""Tests of the benchmark itself, kept out of the package's test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They run every workload once at a tiny size, so they take a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

from tracing import TARGETS, Tracer, _owner, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    EvalWorkload,
    SimulateWorkload,
    TrainBaselineWorkload,
    TrainWorkload,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# the workload meant to exercise each wrapped binding
EXERCISED_BY = {
    "ual.numerics:SeededRng.derive": "train-full",
    "ual.numerics:SeededRng.normals": "train-full",
    "ual.numerics:SeededRng.uniform": "simulate",
    "ual.numerics:SeededRng.integer": "simulate",
    "ual.numerics:SeededRng.permutation": "train-full",
    "ual.numerics:ParameterStore.save": "train-full",
    "ual.numerics:ParameterStore.restore": "eval-sweep",
    "ual.gaussian_embedding:EmbeddingHead.forward": "train-full",
    "ual.pipeline:mc_predict": "eval-sweep",
    "ual.pipeline:filter_faces": "train-full",
    "ual.cli:train_model": "train-full",
    "ual.pipeline:Trainer.train_epoch": "train-full",
    "ual.pipeline:FaceBranch.loss_and_grads": "train-full",
    "ual.pipeline:FaceBranch.deterministic_loss_and_grads": "train-baseline",
    "ual.pipeline:ObjectBranch.loss_and_grads": "train-full",
    "ual.pipeline:SceneBranch.loss_and_grads": "train-full",
    "ual.pipeline:Adam.step": "train-full",
    "ual.pipeline:Sgd.step": "train-full",
    "ual.pipeline:evaluate_dataset": "train-full",
    "ual.cli:evaluate_dataset": "eval-sweep",
    "ual.pipeline:predict_group": "eval-sweep",
    "ual.pipeline:FaceBranch.infer": "eval-sweep",
    "ual.pipeline:ObjectBranch.infer": "eval-sweep",
    "ual.pipeline:fuse_predictions": "eval-sweep",
    "ual.cli:generate_dataset": "simulate",
    "ual.cli:save_dataset": "simulate",
    "ual.cli:load_dataset": "train-full",
    "ual.datagen_metrics:load_dataset": "simulate",
    "ual.pipeline:compute_metrics": "eval-sweep",
    "ual.datagen_metrics:compute_metrics": "simulate",
    "ual.cli:cmd_train": "train-full",
    "ual.cli:cmd_eval": "eval-sweep",
    "ual.cli:cmd_simulate": "simulate",
    "ual.pipeline:total_face_loss": "train-full",
    "ual.pipeline:total_object_loss": "train-full",
    "ual.pipeline:high_low_partition": "train-full",
}


def tiny(name: str, work: Path):
    small = {"epochs": 1, "train_groups": 40, "val_groups": 20}
    return {
        "train-full": lambda: TrainWorkload(work, None, **small),
        "train-baseline": lambda: TrainBaselineWorkload(work, None, **small),
        "eval-sweep": lambda: EvalWorkload(
            work, None, groups=30, sweep=(1, 4), fixture_epochs=1,
            train_groups=40, val_groups=20,
        ),
        "simulate": lambda: SimulateWorkload(work, None, groups=50, warmup_groups=10),
    }[name]()


def traced_unit(workload, out: Path, targets) -> Tracer:
    tracer = Tracer()
    tracer.reset("unit0")
    tracer.install(targets)
    try:
        workload.unit(out)
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def per_target_calls(tmp_path_factory):
    """Calls per wrapped binding, on each binding's own workload."""
    targets = [replace(t, span=f"{t.module}:{t.attr}") for t in TARGETS]
    calls: dict[str, dict[str, int]] = {}
    for name in sorted(set(EXERCISED_BY.values())):
        work = tmp_path_factory.mktemp(name)
        workload = tiny(name, work)
        workload.prepare()
        tracer = traced_unit(workload, work / "out", targets)
        counts: dict[str, int] = {}
        for span in tracer.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        calls[name] = counts
    return calls


def test_self_time_subtracts_children_and_clips_them():
    spans = [
        ["root", 0.0, 10.0, -1, "u"],
        ["a", 1.0, 3.0, 0, "u"],
        ["b", 2.0, 5.0, 0, "u"],  # overlaps a: the union 1..5 is covered once
        ["c", 4.0, 4.5, 2, "u"],
        ["d", 9.0, 12.0, 0, "u"],  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.5, 0.5, 3.0])


def test_layer_metrics_sum_busy_time_and_self_time():
    spans = [
        ["pipeline.train_epoch", 0.0, 4.0, -1, "u/epoch0"],
        ["quality_filter.filter_faces", 0.5, 1.5, 0, "u/epoch0"],
        ["numerics.rng.derive", 0.6, 0.7, 1, "u/epoch0"],
        ["numerics.rng.integer", 2.0, 2.4, 0, "u/epoch0"],
        ["numerics.rng.uniform", 2.1, 2.2, 3, "u/epoch0"],
        ["pipeline.train_epoch", 5.0, 7.0, -1, "u/epoch1"],
    ]
    m = layer_metrics(spans, {"quality_filter.faces_scored": 8, "quality_filter.faces_kept": 6})
    assert m["numerics.rng.derive_calls"] == 1
    assert m["numerics.rng.uniform_calls"] == 1
    assert m["numerics.rng.self_s"] == pytest.approx(0.1 + 0.4)
    assert m["quality_filter.filter_faces_s"] == pytest.approx(1.0)
    assert m["quality_filter.keep_ratio"] == pytest.approx(0.75)
    assert m["pipeline.train_epoch_s"] == pytest.approx(3.0)  # median of 4 and 2
    assert m["pipeline.train_epoch.self_s"] == pytest.approx((4.0 - 1.0 - 0.4 + 2.0) / 2)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    layer = set(layer_metrics([], {})) | {"trace.overhead_s", "trace.overhead_ratio"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == layer
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    for name in layer | set(run.END_TO_END_UNITS) | set(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name


def test_wrappers_are_removed_after_tracing():
    originals = [_owner(t)[0].__dict__[_owner(t)[1]] for t in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(_owner(t)[0].__dict__[_owner(t)[1]] is not o for t, o in zip(TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(_owner(t)[0].__dict__[_owner(t)[1]] is o for t, o in zip(TARGETS, originals))


def test_every_target_has_a_workload():
    assert set(EXERCISED_BY) == {f"{t.module}:{t.attr}" for t in TARGETS}


@pytest.mark.parametrize("binding", sorted(EXERCISED_BY))
def test_wrapped_function_is_called_on_its_workload(per_target_calls, binding):
    assert per_target_calls[EXERCISED_BY[binding]].get(binding, 0) > 0


def test_baseline_scores_no_faces(per_target_calls):
    assert per_target_calls["train-baseline"].get("ual.pipeline:filter_faces", 0) == 0


@pytest.mark.parametrize("name", ["train-full", "eval-sweep", "simulate"])
def test_tracing_leaves_outputs_byte_identical(tmp_path, name):
    workload = tiny(name, tmp_path)
    workload.prepare()
    workload.setup()
    workload.unit(tmp_path / "plain")
    plain = workload.check(tmp_path / "plain")
    traced_unit(workload, tmp_path / "traced", TARGETS)
    traced = workload.check(tmp_path / "traced")
    assert plain.digest == traced.digest
    assert plain.checks.get("report_counts", True) and plain.checks.get("model_restores", True)
