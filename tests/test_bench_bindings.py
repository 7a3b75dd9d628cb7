"""The benchmark's traced bindings and settings entry points must exist in the package.

``perfbench/tracing.py`` patches each binding in its ``TARGETS`` where the
package's callers look it up, and ``perfbench/workloads.py`` reads the
bundled spec and config and restores models through the public API.
Breaking either breaks only the benchmark, whose own tests are not part of
this suite, so these tests check both without running any workload.
"""

import collections
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load_perfbench("tracing")
workloads = _load_perfbench("workloads")


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=[f"{t.module}:{t.attr}" for t in tracing.TARGETS]
)
def test_binding_resolves(target):
    owner, name = tracing._owner(target)
    # install() patches owner.__dict__[name], so an inherited attribute is not enough
    assert name in owner.__dict__, f"{target.module}.{target.attr} is gone"
    assert callable(getattr(owner, name))


def test_trace_keys_read_the_arguments_they_expect():
    from ual.pipeline import Trainer, predict_group

    # the train_epoch span is keyed by args[2], the predict_group span by args[0].id
    assert list(inspect.signature(Trainer.train_epoch).parameters)[2] == "epoch"
    assert list(inspect.signature(predict_group).parameters)[0] == "group"


# the span of each binding that inference calls
_INFERENCE_SPANS = (
    "pipeline.predict_group",
    "pipeline.face.infer",
    "pipeline.object.infer",
    "gaussian_embedding.mc_predict",
    "quality_filter.filter_faces",
    "gaussian_embedding.head_forward",
)


@pytest.fixture(scope="module")
def traced_eval(tmp_path_factory):
    """A small model trained untraced, then one traced ``ual eval`` of its
    data: the tracer, the data file and the report directory."""
    from ual.cli import main

    tmp_path = tmp_path_factory.mktemp("traced_eval")
    spec = tmp_path / "spec.gen"
    spec.write_text(
        "num_groups = 16\ngroup_size_min = 2\ngroup_size_max = 4\nface_dim = 6\n"
        "object_dim = 5\nscene_dim = 4\nobject_count_min = 1\nseed = 5\n"
    )
    cfg = tmp_path / "train.cfg"
    cfg.write_text(  # a high quality threshold: the filter keeps some faces, not all
        "latent_dim = 4\nepochs = 1\nmc_samples = 3\nfiqe_samples = 4\ndelta2 = 0.9\n"
    )
    data, model, report = tmp_path / "data.jsonl", tmp_path / "model", tmp_path / "report"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--train", str(data),
                     "--val", str(data), "--out", str(model)]) == 0
        tracer.reset("eval")
        assert main(["eval", "--manifest", str(model / "manifest.json"),
                     "--data", str(data), "--out", str(report)]) == 0
    finally:
        tracer.uninstall()
    return tracer, data, report


def test_inference_bindings_record_spans(traced_eval):
    # a binding that still resolves but that the package no longer calls
    # (say, inlined into its caller) would record nothing in the benchmark
    tracer, _, _ = traced_eval
    recorded = {span[0] for span in tracer.spans}
    assert [name for name in _INFERENCE_SPANS if name not in recorded] == []


def test_filter_counters_match_the_report(traced_eval):
    # the tracer counts len(args[0]) of filter_faces as scored faces and
    # len(result[0]) as kept ones, so filter_faces must take every face's mu
    # and return the flat kept list first
    from ual.datagen_metrics import load_dataset

    tracer, data, report = traced_eval
    faces = [face for line in (report / "report.jsonl").read_text().splitlines()
             for record in [json.loads(line)] if record.get("record") == "group"
             for face in record["branches"]["face"]["faces"]]
    assert len(faces) == sum(group.faces.shape[0] for group in load_dataset(data).groups)
    assert tracer.counters["quality_filter.faces_scored"] == len(faces)
    assert tracer.counters["quality_filter.faces_kept"] == sum(face["kept"] for face in faces)
    assert 0 < sum(face["kept"] for face in faces) < len(faces)


# the span of each binding that `ual simulate` and a read-back call
_SIMULATE_SPANS = (
    "datagen_metrics.generate",
    "datagen_metrics.save",
    "datagen_metrics.load",
    "numerics.rng.integer",
    "numerics.rng.uniform",
)


def test_simulate_bindings_record_spans(tmp_path):
    from ual import datagen_metrics
    from ual.cli import main

    data = tmp_path / "data.jsonl"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["simulate", "--num-groups", "16", "--out", str(data)]) == 0
        datagen_metrics.load_dataset(data)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert [name for name in _SIMULATE_SPANS if name not in recorded] == []


def test_sweep_runs_each_group_once(tmp_path, monkeypatch):
    # a sweep of sample counts is one pass over the dataset in steps of
    # groups: each branch and the fusion run once per step, the report's
    # per-group view once per group, and none of them once per count
    from ual import pipeline
    from ual.cli import main

    monkeypatch.setattr(pipeline, "_INFER_STEP", 16)
    spec = tmp_path / "spec.gen"
    spec.write_text(
        "num_groups = 20\ngroup_size_min = 2\ngroup_size_max = 4\nface_dim = 6\n"
        "object_dim = 5\nscene_dim = 4\nobject_count_min = 1\nseed = 5\n"
    )
    cfg = tmp_path / "train.cfg"
    cfg.write_text("latent_dim = 4\nepochs = 1\nmc_samples = 3\nfiqe_samples = 4\n")
    data, model = tmp_path / "data.jsonl", tmp_path / "model"
    assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--train", str(data),
                 "--val", str(data), "--out", str(model)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["eval", "--manifest", str(model / "manifest.json"), "--data", str(data),
                     "--mc-samples", "1,3,2", "--out", str(tmp_path / "report")]) == 0
    finally:
        tracer.uninstall()
    calls = collections.Counter(span[0] for span in tracer.spans)
    steps = -(-20 // pipeline._INFER_STEP)
    assert steps > 1
    expected = {
        "pipeline.predict_group": 20,
        "pipeline.fuse": steps,
        "pipeline.face.infer": steps,
        "pipeline.object.infer": steps,
        "quality_filter.filter_faces": steps,
    }
    assert {name: calls[name] for name in expected} == expected


def test_workload_settings_equal_the_cli_parse():
    from ual import cli
    from ual.datagen_metrics import SynthesisSpec
    from ual.pipeline import TrainingConfig

    spec = cli._settings(SynthesisSpec, None, "synthetic-default.gen", {})
    config = cli._settings(TrainingConfig, None, "synthetic-default.cfg", {})
    assert workloads.bundled_spec() == spec
    assert workloads.bundled_spec(num_groups=7) == cli._settings(
        SynthesisSpec, None, "synthetic-default.gen", {"num_groups": 7})
    assert workloads.bundled_config() == config


def test_workload_restores_a_trained_model(tmp_path):
    from ual.cli import _restore_from_manifest, main
    from ual.pipeline import BRANCH_TAGS

    spec = tmp_path / "spec.gen"
    spec.write_text(
        "num_groups = 16\ngroup_size_min = 2\ngroup_size_max = 4\nface_dim = 6\n"
        "object_dim = 5\nscene_dim = 4\nobject_count_min = 1\nseed = 5\n"
    )
    cfg = tmp_path / "train.cfg"
    cfg.write_text("latent_dim = 4\nepochs = 1\nmc_samples = 3\nfiqe_samples = 4\n")
    data, model = tmp_path / "data.jsonl", tmp_path / "model"
    assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--train", str(data),
                 "--val", str(data), "--out", str(model)]) == 0
    manifest = model / "manifest.json"
    branches, store = workloads.restore_model(manifest)
    _, want_branches, want = _restore_from_manifest(json.loads(manifest.read_text()), manifest)
    assert tuple(branches) == tuple(want_branches) == BRANCH_TAGS
    assert store.names() == want.names()
    assert all(store.get(name).tobytes() == want.get(name).tobytes() for name in want.names())
