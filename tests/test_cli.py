import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual import cli, datagen_metrics
from ual.cli import main, sha256_file
from ual.datagen_metrics import load_dataset
from ual.numerics import ParameterStore, SeededRng
from ual.pipeline import evaluate_dataset


SRC = Path(__file__).resolve().parents[1] / "src"
_TEST_PROCESS = os.getpid()


def run(*argv):
    return main(list(argv))


def cli_env(**extra):
    """``os.environ`` with ``extra`` and this checkout's ``src`` first on
    ``PYTHONPATH``, so that ``python -m ual.cli`` runs without an install."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A simulate -> train pipeline shared by the eval tests."""
    root = tmp_path_factory.mktemp("run")
    spec = root / "spec.gen"
    spec.write_text(
        "num_groups = 24\ngroup_size_min = 2\ngroup_size_max = 4\n"
        "face_dim = 6\nobject_dim = 5\nscene_dim = 4\nnum_classes = 3\n"
        "spread = 1.0\ncorrupt_fraction = 0.3\ncorrupt_scale = 10.0\n"
        "inconsistent_fraction = 0.2\nseed = 5\n"
    )
    cfg = root / "train.cfg"
    cfg.write_text(
        "latent_dim = 4\nepochs = 2\nbatch_size = 8\nseed = 3\n"
        "face_lr = 1e-3\nobject_lr = 0.05\nscene_lr = 0.05\n"
        "mc_samples = 4\nfiqe_samples = 4\n"
    )
    train = root / "train.jsonl"
    val = root / "val.jsonl"
    assert run("simulate", "--spec", str(spec), "--out", str(train)) == 0
    assert run("simulate", "--spec", str(spec), "--out", str(val),
               "--partition", "val", "--num-groups", "12") == 0
    out = root / "model"
    assert run("train", "--config", str(cfg), "--train", str(train),
               "--val", str(val), "--out", str(out)) == 0
    return {"root": root, "spec": spec, "cfg": cfg, "train": train, "val": val, "out": out}


class TestSimulate:
    def test_default_spec_yields_loadable_file(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("simulate", "--out", str(out), "--num-groups", "8") == 0
        ds = load_dataset(out)
        assert len(ds) == 8
        assert ds.face_dim == 64

    def test_same_seed_identical_hashes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("simulate", "--out", str(a), "--seed", "7", "--num-groups", "10") == 0
        assert run("simulate", "--out", str(b), "--seed", "7", "--num-groups", "10") == 0
        assert sha256_file(a) == sha256_file(b)

    def test_invalid_spec_field_names_field(self, tmp_path, capsys):
        spec = tmp_path / "bad.gen"
        spec.write_text("num_gruops = 5\n")
        code = run("simulate", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "num_gruops" in capsys.readouterr().err

    def test_invalid_spec_value(self, tmp_path, capsys):
        spec = tmp_path / "bad.gen"
        spec.write_text("corrupt_fraction = 1.7\n")
        code = run("simulate", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "corrupt_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("center_scale = 0", "center_scale must be > 0"),
        ("spread = -1", "spread must be >= 0"),
        ("object_dim = 0", "object_dim must be >= 1"),
        ("object_count_min = 5",
         "object_count_min and object_count_max must satisfy 0 <= min <= max"),
    ])
    def test_range_error_names_one_key(self, tmp_path, capsys, line, message):
        spec = tmp_path / "bad.gen"
        spec.write_text(line + "\n")
        assert run("simulate", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")) == 2
        assert capsys.readouterr().err == f"config error: {spec}: {message}\n"

    @pytest.mark.parametrize("line,key", [
        ("spread = nan", "spread"),
        ("center_scale = inf", "center_scale"),
        ("corrupt_scale = inf", "corrupt_scale"),
    ])
    def test_non_finite_spec_value(self, tmp_path, capsys, line, key):
        spec, out = tmp_path / "bad.gen", tmp_path / "x.jsonl"
        spec.write_text(line + "\n")
        assert run("simulate", "--spec", str(spec), "--out", str(out)) == 2
        assert f"config error: {spec}: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_spread_names_the_group(self, tmp_path, capsys):
        spec, out = tmp_path / "big.gen", tmp_path / "x.jsonl"
        spec.write_text("spread = 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("simulate", "--spec", str(spec), "--out", str(out), "--num-groups", "3")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 2
        assert f"data error: {out}: group train-00000: features must be finite" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_flags_parse_like_spec_keys(self, tmp_path):
        base = "group_size_min = 2\ngroup_size_max = 4\nface_dim = 6\nobject_dim = 5\n"
        spec, keyed = tmp_path / "base.gen", tmp_path / "keyed.gen"
        spec.write_text(base + "seed = 1\n")
        keyed.write_text(base + "seed = 7\nnum_groups = 10\npartition = val\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("simulate", "--spec", str(spec), "--out", str(a), "--seed", "7",
                   "--num-groups", "10", "--partition", "val") == 0
        assert run("simulate", "--spec", str(keyed), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_groups_flag_names_the_key(self, tmp_path, capsys):
        assert run("simulate", "--out", str(tmp_path / "x.jsonl"), "--num-groups", "0") == 2
        assert "num_groups must be >= 1" in capsys.readouterr().err


class TestTrain:
    def test_epochs_zero_keeps_initialization(self, small_run, tmp_path):
        out = tmp_path / "init_model"
        assert run("train", "--config", str(small_run["cfg"]),
                   "--train", str(small_run["train"]), "--val", str(small_run["val"]),
                   "--out", str(out), "--epochs", "0") == 0
        # restore the face file into a freshly initialized model: must round-trip
        from ual.pipeline import build_branches, config_from_mapping, register_branches

        manifest = json.loads((out / "manifest.json").read_text())

        cfg = config_from_mapping({k: str(v) for k, v in manifest["config"].items()})
        store = ParameterStore()
        branches = build_branches(cfg, manifest["dims"])
        register_branches(store, branches, cfg.seed)
        init = store.subset("face.")
        saved = ParameterStore()
        for name in init.names():
            saved.register(name, np.zeros_like(init.get(name)))
        saved.restore(out / "face.params.json")
        for name in init.names():
            assert init.get(name).tobytes() == saved.get(name).tobytes()
        # evaluation still runs on the untrained model
        assert run("eval", "--manifest", str(out / "manifest.json"),
                   "--data", str(small_run["val"])) == 0

    def test_branch_isolation_in_output(self, small_run, tmp_path):
        out = tmp_path / "face_only"
        assert run("train", "--config", str(small_run["cfg"]),
                   "--train", str(small_run["train"]), "--val", str(small_run["val"]),
                   "--out", str(out), "--branch", "face", "--epochs", "1") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["branches"] == ["face"]
        assert set(manifest["models"]) == {"face"}
        doc = json.loads((out / "face.params.json").read_text())
        assert all(name.startswith("face.") for name in doc["params"])

    def test_loss_log_format(self, small_run):
        lines = (small_run["out"] / "face_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,cls,kl,rank,rec,total"
        assert len(lines) == 3  # header + 2 epochs
        row = lines[1].split(",")
        assert row[0] == "0" and len(row) == 6
        float(row[5])

    def test_unknown_config_key_exits_2(self, small_run, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("latent_dmi = 4\n")
        code = run("train", "--config", str(cfg), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "x"))
        assert code == 2
        assert "latent_dmi" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["face_lr", "lambda2", "delta1"])
    def test_non_finite_config_value_exits_2(self, small_run, tmp_path, capsys, key):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"{key} = nan\n")
        code = run("train", "--config", str(cfg), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "m"))
        assert code == 2
        assert f"config error: {cfg}: {key} must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["face_lr", "object_lr", "scene_lr", "delta1"])
    def test_negative_learning_rate_exits_2(self, small_run, tmp_path, capsys, key):
        cfg = tmp_path / "ascent.cfg"
        cfg.write_text(f"{key} = -1\n")  # gradient ascent, or a negative rank margin
        code = run("train", "--config", str(cfg), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "m"))
        assert code == 2
        assert f"config error: {cfg}: {key} must be >= 0" in capsys.readouterr().err

    def test_threshold_out_of_range_exits_2(self, small_run, tmp_path, capsys):
        cfg = tmp_path / "threshold.cfg"
        cfg.write_text("delta2 = 1.5\n")
        code = run("train", "--config", str(cfg), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "m"))
        assert code == 2
        assert capsys.readouterr().err == f"config error: {cfg}: delta2 must lie in (0, 1)\n"

    @pytest.mark.parametrize("ablation,factor,detail", [
        ("full", 1e150,
         "sigma must be strictly positive and finite, and mu finite (source '{}/face0')"),
        ("no-ual", 1e150,
         "sigma must be strictly positive and finite, and mu finite (source '{}/face0')"),
        ("no-fiqe", 1e150, "logits contains non-finite values"),
        ("no-fiqe", -1e150, "squared gradient of 'face.embed.mu.weight' is not finite"),
    ], ids=["full", "no-ual", "no-fiqe", "no-fiqe-negative"])
    def test_overflowing_face_is_a_numeric_failure(self, small_run, tmp_path, capsys, ablation,
                                                   factor, detail):
        # one face of a group overflows: with one latent dim its sigma is
        # infinite. no-fiqe checks no sigma before the kernel, so the face's
        # score is infinite and its weight NaN, and the classifier's input
        # check names the group. Scaled by -1e150, its sigma underflows to 0
        # instead: no score is infinite, every loss term is finite, and the
        # gradient's squares overflow
        data, cfg = tmp_path / "train.jsonl", tmp_path / "latent1.cfg"
        cfg.write_text(small_run["cfg"].read_text().replace("latent_dim = 4", "latent_dim = 1"))
        docs = [json.loads(line) for line in small_run["train"].read_text().splitlines()]
        docs[3]["faces"][0] = [v * factor for v in docs[3]["faces"][0]]
        data.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would end the run here
            code = run("train", "--config", str(cfg), "--train", str(data),
                       "--val", str(small_run["val"]), "--out", str(tmp_path / "m"),
                       "--epochs", "1", "--ablation", ablation)
        gid = docs[3]["id"]
        assert code == 3
        assert capsys.readouterr().err == f"numeric failure: group {gid}: {detail.format(gid)}\n"

    def test_overflowing_gradient_is_a_numeric_failure(self, tmp_path, capsys):
        # without sampling or the quality filter, faces scaled by 1e300 give a
        # finite loss whose gradient's squares overflow: an Adam step on it
        # would freeze the face parameters, and the run would end with exit 0
        train, val, data = (tmp_path / name for name in ("train.jsonl", "val.jsonl", "big.jsonl"))
        assert run("simulate", "--num-groups", "20", "--out", str(train)) == 0
        assert run("simulate", "--num-groups", "10", "--partition", "val", "--out", str(val)) == 0
        docs = [json.loads(line) for line in train.read_text().splitlines()]
        assert docs[3]["id"] == "train-00002"
        docs[3]["faces"] = [[v * 1e300 for v in face] for face in docs[3]["faces"]]
        data.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would end the run here
            code = run("train", "--train", str(data), "--val", str(val),
                       "--out", str(tmp_path / "m"), "--ablation", "no-ual-fiqe")
        assert code == 3
        assert capsys.readouterr().err == ("numeric failure: group train-00002: squared "
                                           "gradient of 'face.classifier.weight' is not finite\n")

    def test_flags_parse_like_config_keys(self, small_run, tmp_path):
        base = "".join(line + "\n" for line in small_run["cfg"].read_text().splitlines()
                       if not line.startswith(("seed", "epochs")))
        cfg, keyed = tmp_path / "base.cfg", tmp_path / "keyed.cfg"
        cfg.write_text(base)
        keyed.write_text(base + "seed = 3\nepochs = 1\n")
        data = ("--train", str(small_run["train"]), "--val", str(small_run["val"]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", str(cfg), *data, "--out", str(a),
                   "--seed", "3", "--epochs", "1") == 0
        assert run("train", "--config", str(keyed), *data, "--out", str(b)) == 0
        names = sorted(path.name for path in a.iterdir())
        assert names == sorted(path.name for path in b.iterdir())
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)

    def test_negative_epochs_flag_names_the_key(self, small_run, tmp_path, capsys):
        code = run("train", "--train", str(small_run["train"]), "--val", str(small_run["val"]),
                   "--out", str(tmp_path / "m"), "--epochs", "-1")
        assert code == 2
        err = capsys.readouterr().err
        assert "epochs must be >= 0" in err and "batch_size" not in err

    def test_bad_flag_is_named_with_its_file(self, small_run, tmp_path, capsys):
        data = ("--train", str(small_run["train"]), "--val", str(small_run["val"]))
        assert run("train", *data, "--out", str(tmp_path / "m"), "--epochs", "-1") == 2
        assert ("config error: bundled synthetic-default.cfg with --epochs -1: "
                in capsys.readouterr().err)
        spec = small_run["spec"]
        assert run("simulate", "--spec", str(spec), "--out", str(tmp_path / "d.jsonl"),
                   "--seed", "2", "--num-groups", "0") == 2
        assert (f"config error: {spec} with --seed 2 --num-groups 0: num_groups must be >= 1"
                in capsys.readouterr().err)


class TestObjectOnly:
    def test_object_branch_alone_trains_and_evaluates(self, tmp_path, capsys):
        train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        assert run("simulate", "--num-groups", "40", "--out", str(train)) == 0
        assert run("simulate", "--num-groups", "40", "--partition", "val", "--out", str(val)) == 0
        # validation meets groups whose only enabled branch is absent
        assert any(g.objects.shape[0] == 0 for g in load_dataset(val).groups)
        out = tmp_path / "model"
        assert run("train", "--train", str(train), "--val", str(val), "--out", str(out),
                   "--branch", "object", "--epochs", "1") == 0
        assert run("eval", "--manifest", str(out / "manifest.json"), "--data", str(val)) == 0
        records = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        groups = [r for r in records if r["record"] == "group"]
        absent = [r for r in groups if not r["branches"]["object"]["present"]]
        assert absent and all(r["weights"] == {"object": 1.0} for r in absent)

    def test_branch_that_trains_no_group_logs_no_loss_row(self, small_run, tmp_path):
        spec, data = tmp_path / "no-objects.gen", tmp_path / "d.jsonl"
        spec.write_text(small_run["spec"].read_text() + "object_count_max = 0\n")
        assert run("simulate", "--spec", str(spec), "--out", str(data)) == 0
        out = tmp_path / "model"
        assert run("train", "--config", str(small_run["cfg"]), "--train", str(data),
                   "--val", str(data), "--out", str(out)) == 0
        header = "epoch,cls,kl,rank,rec,total"
        assert (out / "object_loss.csv").read_text().splitlines() == [header]
        for tag in ("face", "scene"):  # header + 2 epochs
            assert len((out / f"{tag}_loss.csv").read_text().splitlines()) == 3


class TestMissingPaths:
    """A path that cannot be opened is a data error (exit 2) naming it."""

    def test_missing_train_file(self, small_run, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = run("train", "--config", str(small_run["cfg"]), "--train", str(missing),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "m"))
        assert code == 2
        assert f"data error: {missing}: cannot open" in capsys.readouterr().err

    def test_missing_eval_data(self, small_run, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(missing), "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"data error: {missing}: cannot open" in capsys.readouterr().err

    def test_train_out_is_a_file(self, small_run, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run("train", "--config", str(small_run["cfg"]), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(taken))
        assert code == 2
        assert f"data error: {taken}: cannot use as output directory" in capsys.readouterr().err

    def test_eval_out_is_a_file(self, small_run, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(small_run["val"]), "--out", str(taken))
        assert code == 2
        assert f"data error: {taken}: cannot use as output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name", [
        ("train", "face_loss.csv"), ("train", "val_metrics.jsonl"), ("train", "face.params.json"),
        ("train", "manifest.json"), ("eval", "report.jsonl"),
    ])
    def test_output_file_is_a_directory(self, small_run, tmp_path, capsys, command, name):
        taken = tmp_path / "out" / name
        taken.mkdir(parents=True)
        if command == "train":
            code = run("train", "--config", str(small_run["cfg"]), "--train",
                       str(small_run["train"]), "--val", str(small_run["val"]),
                       "--out", str(tmp_path / "out"))
        else:
            code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                       "--data", str(small_run["val"]), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: {taken}: cannot open" in err
        assert "Traceback" not in err

    def test_simulate_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "nonexistent" / "dir" / "x.jsonl"
        assert run("simulate", "--num-groups", "3", "--out", str(target)) == 2
        assert f"data error: {target}: cannot open" in capsys.readouterr().err


class TestEval:
    def test_eval_twice_identical_reports(self, small_run, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                       "--data", str(small_run["val"]), "--seed", "9",
                       "--out", str(out)) == 0
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()

    def test_fusion_variants_log_weights(self, small_run, tmp_path):
        rep = {}
        for fusion in ("pwfs", "equal"):
            out = tmp_path / fusion
            assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                       "--data", str(small_run["val"]), "--fusion", fusion,
                       "--out", str(out)) == 0
            records = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
            rep[fusion] = [r for r in records if r["record"] == "group"]
        for r in rep["equal"]:
            ws = list(r["weights"].values())
            assert all(w == pytest.approx(1.0 / len(ws)) for w in ws)
        # pwfs weights are confidence-proportional, generally not uniform
        assert any(
            max(r["weights"].values()) - min(r["weights"].values()) > 1e-6
            for r in rep["pwfs"]
        )

    def test_fusion_runs_once_per_step(self, small_run, tmp_path, monkeypatch):
        # a validation pass fuses each step in one call and builds no per-group
        # view; ual eval also builds one per group, for the report's records
        from ual import pipeline

        calls = []

        def spy(name):
            real = getattr(pipeline, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("fuse_predictions", "predict_group"):
            monkeypatch.setattr(pipeline, name, spy(name))
        monkeypatch.setattr(pipeline, "_INFER_STEP", 5)
        steps = 3  # of the 12 val groups
        model = tmp_path / "model"
        assert run("train", "--config", str(small_run["cfg"]), "--train", str(small_run["train"]),
                   "--val", str(small_run["val"]), "--out", str(model)) == 0
        assert calls == ["fuse_predictions"] * (2 * steps)  # 2 epochs
        calls.clear()
        assert run("eval", "--manifest", str(model / "manifest.json"), "--data",
                   str(small_run["val"]), "--mc-samples", "1,4", "--out", str(tmp_path / "r")) == 0
        assert sorted(calls) == ["fuse_predictions"] * steps + ["predict_group"] * 12

    def test_mc_samples_sweep_table(self, small_run, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(small_run["val"]), "--mc-samples", "1,2,4,8",
                   "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "== sweep ==" in stdout
        records = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        runs = [r for r in records if r["record"] == "run"]
        assert [r["mc_samples"] for r in runs] == [1, 2, 4, 8]

    @pytest.mark.parametrize("value", ["", "1,,2", "0", "2,x"])
    def test_bad_mc_samples_is_a_usage_error(self, small_run, tmp_path, capsys, value):
        out = tmp_path / "bad"
        assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(small_run["val"]), "--mc-samples", value,
                   "--out", str(out)) == 1
        assert "argument --mc-samples: needs ints >= 1" in capsys.readouterr().err
        assert not (out / "report.jsonl").exists()

    def test_hash_mismatch_refused_without_force(self, small_run, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert run("simulate", "--spec", str(small_run["spec"]), "--out", str(other),
                   "--seed", "99", "--num-groups", "6") == 0
        code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(other))
        assert code == 2
        assert "hash" in capsys.readouterr().err
        assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(other), "--force", "--out", str(tmp_path / "f")) == 0

    def test_reordered_dataset_keeps_predictions(self, small_run):
        # the groups reversed and each group's faces and objects shuffled: every
        # noise draw and prediction is kept, and the probabilities can move in
        # the last bits only, because sums run in listed order
        manifest = small_run["out"] / "manifest.json"
        config, branches, store = cli._restore_from_manifest(json.loads(manifest.read_text()),
                                                             manifest)
        listed = load_dataset(small_run["val"])
        rng = SeededRng(11)
        shuffled = dataclasses.replace(listed, groups=[
            dataclasses.replace(group, faces=group.faces[rng.permutation(len(group.faces))],
                                objects=group.objects[rng.permutation(len(group.objects))])
            for group in reversed(listed.groups)
        ])
        a, b = (evaluate_dataset(store, branches, ds, config, config.seed, (1, 25),
                                 collect_diagnostics=True) for ds in (listed, shuffled))
        for entry_a, entry_b in zip(a, b):
            records = {record["id"]: record for record in entry_b.records}
            for record in entry_a.records:
                other = records[record["id"]]
                assert record["pred"] == other["pred"]
                probs = [(record["fused_probs"], other["fused_probs"])] + [
                    (record["branches"][tag]["probs"], other["branches"][tag]["probs"])
                    for tag in branches
                ]
                assert max(np.abs(np.subtract(p, q)).max() for p, q in probs) <= 1e-15
            assert entry_a.fused_report.to_dict() == entry_b.fused_report.to_dict()
            for tag in branches:
                assert (entry_a.branch_reports[tag].to_dict()
                        == entry_b.branch_reports[tag].to_dict())

    def test_per_face_diagnostics_in_report(self, small_run):
        records = [
            json.loads(l)
            for l in (small_run["out"] / "report.jsonl").read_text().splitlines()
        ] if (small_run["out"] / "report.jsonl").exists() else []
        if not records:
            out = small_run["out"]
            assert run("eval", "--manifest", str(out / "manifest.json"),
                       "--data", str(small_run["val"])) == 0
            records = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        groups = [r for r in records if r["record"] == "group"]
        assert groups
        face_diag = groups[0]["branches"]["face"]["faces"]
        assert all("kept" in f for f in face_diag)
        kept = [f for f in face_diag if f["kept"]]
        assert all("alpha" in f and "score" in f for f in kept)


class TestDefaultRun:
    def test_default_config_logs_100_epochs_quickly(self, tmp_path):
        # bundled default config (100 epochs) on a reduced group count;
        # the full 500/200-group run stays well inside the same 5-minute
        # budget (see README) but is too slow for the unit suite
        import time

        train = tmp_path / "train.jsonl"
        val = tmp_path / "val.jsonl"
        assert run("simulate", "--out", str(train), "--num-groups", "40") == 0
        assert run("simulate", "--out", str(val), "--partition", "val",
                   "--num-groups", "20") == 0
        out = tmp_path / "model"
        start = time.monotonic()
        assert run("train", "--train", str(train), "--val", str(val),
                   "--out", str(out)) == 0
        elapsed = time.monotonic() - start
        lines = (out / "face_loss.csv").read_text().splitlines()
        assert len(lines) == 101  # header + 100 epochs
        assert elapsed < 300.0


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        assert run("gradcheck", "--seeds", "2") == 0
        out = capsys.readouterr().out
        assert "face.cls" in out and "object.total" in out and "self-test" in out
        assert "FAIL" not in out.replace("self-test", "")  # self-test line says pass

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "0"), ("--seeds", "-3"),
        ("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "inf"), ("--tolerance", "0"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, flag, value):
        assert run("gradcheck", flag, value) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}: needs " in captured.err
        assert captured.out == ""  # no unit and no self-test ran

    def test_failing_check_is_a_numeric_failure(self, capsys):
        assert run("gradcheck", "--seeds", "1", "--tolerance", "1e-300") == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert captured.err == "numeric failure: gradient check failed\n"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run("train", "--train", "x") == 1  # missing required flags

    def test_out_of_memory_is_one_line(self, small_run, tmp_path, monkeypatch, capsys):
        """An allocation too large for memory (a huge ``--mc-samples``) is
        reported like any other error; the callee raises, so no real
        allocation is attempted."""
        message = "Unable to allocate 2.91 TiB for an array with shape (400000000000,)\x00"

        def evaluate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "evaluate_dataset", evaluate)
        assert run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(small_run["val"]), "--out", str(tmp_path / "oom")) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 2.91 TiB for an array with shape "
            "(400000000000,)\\x00\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_a_dead_worker_is_one_line(self, small_run, tmp_path, monkeypatch, capsys, command):
        """A dataset worker process that dies (here by ``os._exit``; killed or
        out of memory in use) ends the command with one line and exit 2, and
        ``simulate`` leaves no file behind. At most two workers start."""
        def die(*args):
            if os.getpid() != _TEST_PROCESS:
                os._exit(1)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(datagen_metrics, "_SAVE_FLOATS", 100)
        monkeypatch.setattr(datagen_metrics, "_LOAD_BYTES", 2000)
        monkeypatch.setattr(datagen_metrics, "_SERIAL_LOAD_BYTES", 0)
        monkeypatch.setattr(datagen_metrics, "_encode_groups", die)
        monkeypatch.setattr(datagen_metrics, "_parse_groups", die)
        path = {"simulate": tmp_path / "d.jsonl", "train": small_run["train"],
                "eval": small_run["val"]}[command]
        argv = {
            "simulate": ["--spec", str(small_run["spec"]), "--out", str(path)],
            "train": ["--config", str(small_run["cfg"]), "--train", str(path),
                      "--val", str(small_run["val"]), "--out", str(tmp_path / "model")],
            "eval": ["--manifest", str(small_run["out"] / "manifest.json"), "--data", str(path),
                     "--out", str(tmp_path / "report")],
        }[command]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: a worker process died (killed, or out of memory)\n")
        assert not multiprocessing.active_children()
        assert command != "simulate" or not path.exists()

    def test_missing_dataset_is_2(self, tmp_path, capsys):
        assert run("eval", "--manifest", str(tmp_path / "none.json"),
                   "--data", str(tmp_path / "none.jsonl")) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ual.cli", "--version"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0


def _rewrite_line(path, lineno, edit):
    """Apply ``edit`` to the JSON record on 1-based line ``lineno`` of ``path``."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _set_face_value(value):
    def edit(rec):
        rec["faces"][0][1] = value
    return edit


def _set_scene_value(value):
    def edit(rec):
        rec["scene"][0] = value
    return edit


def _drop_class_name(rec):
    rec["class_names"] = rec["class_names"][:-1]


def _set(lineno, key, value):
    def edit(docs):
        docs[lineno - 1][key] = value
    return edit


def _replace(lineno, value):
    def edit(docs):
        docs[lineno - 1] = value
    return edit


def _zero_dim(key, field):
    def edit(docs):
        docs[0][key] = 0
        for rec in docs[1:]:
            rec[field] = [] if field == "scene" else [[] for _ in rec[field]]
    return edit


def _one_class(docs):
    docs[0].update(num_classes=1, class_names=["only"])
    for rec in docs[1:]:
        rec["label"] = 0


def _header_only(docs):
    del docs[1:]


class TestBadInputFiles:
    """Each malformed file ends in exit 2 with a message naming where it is bad."""

    @pytest.mark.parametrize("edit,lineno,detail", [
        (_zero_dim("face_dim", "faces"), 1, "face_dim must be an integer >= 1, got 0"),
        (_zero_dim("object_dim", "objects"), 1, "object_dim must be an integer >= 1, got 0"),
        (_zero_dim("scene_dim", "scene"), 1, "scene_dim must be an integer >= 1, got 0"),
        (_set(2, "label", 1.7), 2, "label must be an integer >= 0, got 1.7"),
        (_set(2, "label", True), 2, "label must be an integer >= 0, got true"),
        (_set(1, "face_dim", 6.9), 1, "face_dim must be an integer >= 1, got 6.9"),
        (_set(1, "class_names", "xxx"), 1, "class_names must be a list of strings"),
        (_set(1, "class_names", [0, 1, 2]), 1, "class_names must be a list of strings"),
        (_one_class, 1, "num_classes must be an integer >= 2, got 1"),
        (_set(3, "id", None), 3, "id must be a string, got null"),
        (lambda docs: docs[2].pop("id"), 3, "missing id/label: 'id'"),
        (_replace(3, ["train-00001", 0]), 3,
         "missing id/label: list indices must be integers or slices, not str"),
        (_header_only, 2, "expected a group record, got the end"),
        (_set(4, "id", "train-00000"), 4, "group id 'train-00000' is already on line 2"),
        (_set(2, "scene", [0.5]), 2, "scene must have 4 dims"),
        (_set(3, "faces", "xxx"), 3, "faces must be a list of vectors"),
    ], ids=["face-dim-0", "object-dim-0", "scene-dim-0", "float-label", "bool-label",
            "float-dim", "string-class-names", "int-class-names", "one-class", "null-id",
            "no-id", "array-record", "header-only", "duplicate-id", "short-scene", "string-faces"])
    def test_bad_dataset_for_training(self, small_run, tmp_path, capsys, edit, lineno, detail):
        data = tmp_path / "bad.jsonl"
        docs = [json.loads(line) for line in small_run["train"].read_text().splitlines()]
        edit(docs)
        data.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        code = run("train", "--config", str(small_run["cfg"]), "--train", str(data),
                   "--val", str(small_run["val"]), "--out", str(tmp_path / "model"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data}: line {lineno}: {detail}" in err and "Traceback" not in err

    @pytest.mark.parametrize("tail,lineno,detail", [
        (None, 1, "empty dataset file"),
        (b"\xff\n", 2, "not UTF-8 text"),
    ], ids=["empty", "non-utf8-record"])
    def test_unreadable_dataset_names_the_line(self, small_run, tmp_path, capsys, tail, lineno,
                                               detail):
        data = tmp_path / "bad.jsonl"
        header = small_run["val"].read_bytes().splitlines(keepends=True)[0]
        data.write_bytes(b"" if tail is None else header + tail)
        code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(data), "--force", "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{data}: line {lineno}: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("lineno,edit,detail", [
        (3, _set_face_value("abc"), "faces must hold only numbers"),
        (2, _set_scene_value("abc"), "scene must hold only numbers"),
        (4, _set_face_value(float("nan")), "faces must be finite"),
        (1, _drop_class_name, "2 class_names for 3 classes"),
    ], ids=["string-face", "string-scene", "nan-face", "class-names"])
    def test_bad_dataset_value(self, small_run, tmp_path, capsys, lineno, edit, detail):
        data = tmp_path / "bad.jsonl"
        shutil.copy(small_run["val"], data)
        _rewrite_line(data, lineno, edit)
        code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                   "--data", str(data), "--force", "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data}: line {lineno}: {detail}" in err

    def test_dataset_dims_differ_from_the_model(self, small_run, tmp_path, capsys):
        data = tmp_path / "wide.jsonl"
        docs = [json.loads(line) for line in small_run["val"].read_text().splitlines()]
        docs[0]["face_dim"] = 7
        for doc in docs[1:]:
            doc["faces"] = [row + [0.5] for row in doc["faces"]]
        data.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        manifest = small_run["out"] / "manifest.json"
        code = run("eval", "--manifest", str(manifest), "--data", str(data), "--force",
                   "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{data}: line 1: face_dim 7 != 6 of the model in the manifest {manifest}" in err
        assert not (tmp_path / "r" / "report.jsonl").exists()

    @pytest.mark.parametrize("key,value", [("face_dim", 7), ("num_classes", 4)])
    def test_val_dims_differ_from_the_train_set(self, small_run, tmp_path, capsys, key, value):
        spec, val = tmp_path / "spec.gen", tmp_path / "val.jsonl"
        spec.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", small_run["spec"].read_text(),
                               flags=re.M))
        assert run("simulate", "--spec", str(spec), "--out", str(val), "--partition", "val",
                   "--num-groups", "4") == 0
        train = small_run["train"]
        code = run("train", "--config", str(small_run["cfg"]), "--train", str(train),
                   "--val", str(val), "--out", str(tmp_path / "model"))
        err = capsys.readouterr().err
        expected = {"face_dim": 6, "num_classes": 3}[key]
        assert code == 2 and "Traceback" not in err
        assert f"{val}: line 1: {key} {value} != {expected} of the train set {train}" in err
        assert not (tmp_path / "model" / "manifest.json").exists()

    @pytest.mark.parametrize("edit,detail", [
        (lambda entry: entry.pop("shape"), "KeyError: 'shape'"),
        (lambda entry: entry.update(data=entry["data"][:-1]), "cannot reshape"),
    ], ids=["no-shape", "short-data"])
    def test_bad_params_entry(self, small_run, tmp_path, capsys, edit, detail):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        params = model / "scene.params.json"
        doc = json.loads(params.read_text())
        edit(doc["params"]["scene.classifier.bias"])
        params.write_text(json.dumps(doc))
        code = run("eval", "--manifest", str(model / "manifest.json"),
                   "--data", str(small_run["val"]), "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{params}: parameter 'scene.classifier.bias'" in err and detail in err

    def test_manifest_without_dims(self, small_run, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        manifest = model / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["dims"]
        manifest.write_text(json.dumps(doc))
        code = run("eval", "--manifest", str(manifest), "--data", str(small_run["val"]),
                   "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{manifest}: manifest key 'dims' is missing" in capsys.readouterr().err

    def test_manifest_with_unknown_config_key(self, small_run, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        manifest = model / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"]["latent_dmi"] = 4
        manifest.write_text(json.dumps(doc))
        code = run("eval", "--manifest", str(manifest), "--data", str(small_run["val"]),
                   "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"config error: {manifest}: unknown key 'latent_dmi'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["spec", "config", "dataset", "manifest", "params"])
    def test_non_utf8_file_names_the_path(self, small_run, tmp_path, capsys, kind):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        manifest = model / "manifest.json"
        files = {
            "spec": (tmp_path / "bad.gen", small_run["spec"]),
            "config": (tmp_path / "bad.cfg", small_run["cfg"]),
            "dataset": (tmp_path / "bad.jsonl", small_run["train"]),
            "manifest": (manifest, manifest),
            "params": (model / "scene.params.json", model / "scene.params.json"),
        }
        bad, source = files[kind]
        text = source.read_bytes()
        bad.write_bytes(text[:20] + b"\xff" + text[20:])
        lineno = text[:20].count(b"\n") + 1
        out = str(tmp_path / "out")
        train = ("--train", str(small_run["train"]), "--val", str(small_run["val"]), "--out", out)
        argv = {
            "spec": ("simulate", "--spec", str(bad), "--out", out),
            "config": ("train", "--config", str(bad), *train),
            "dataset": ("train", "--config", str(small_run["cfg"]), "--train", str(bad),
                        "--val", str(small_run["val"]), "--out", out),
            "manifest": ("eval", "--manifest", str(manifest), "--data", str(small_run["val"])),
            "params": ("eval", "--manifest", str(manifest), "--data", str(small_run["val"])),
        }
        code = run(*argv[kind])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: line {lineno}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["manifest.json", "scene.params.json"])
    def test_truncated_json_file_names_the_line(self, small_run, tmp_path, capsys, name):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        bad = model / name
        lines = bad.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + lines[2][:len(lines[2]) // 2])
        code = run("eval", "--manifest", str(model / "manifest.json"),
                   "--data", str(small_run["val"]), "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: line 3: not JSON: " in err and "Traceback" not in err

    @pytest.mark.parametrize("kind,detail", [
        ("params", "Exceeds the limit"),
        ("dataset", "Exceeds the limit"),
        ("nesting", "maximum recursion depth exceeded"),
    ])
    def test_json_past_a_python_limit_is_a_data_error(self, small_run, tmp_path, capsys, kind,
                                                      detail):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        huge, data = "9" * 5000, small_run["val"]
        if kind == "params":
            bad, where = model / "scene.params.json", f"{model / 'scene.params.json'}: "
            bad.write_text(bad.read_text().replace('"version": 1', f'"version": {huge}', 1))
        elif kind == "nesting":
            bad, where = model / "manifest.json", f"{model / 'manifest.json'}: line 1: "
            bad.write_text("[" * 100_000)
        else:
            bad = data = tmp_path / "val.jsonl"
            lines = small_run["val"].read_text().splitlines(keepends=True)
            lines[1] = lines[1].replace('"label": ', f'"label": {huge}', 1)
            bad.write_text("".join(lines))
            where = f"{bad}: line 2: "
        code = run("eval", "--manifest", str(model / "manifest.json"), "--data", str(data),
                   "--force", "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and "Traceback" not in err
        assert f"{where}not JSON: {detail}" in err


    @pytest.mark.parametrize("edit,detail", [
        (lambda doc: doc["datasets"]["val"].update(sha256=[1]), "does not match the manifest"),
        (lambda doc: doc.update(branches=[]), "manifest key 'branches' names no branch"),
        (lambda doc: doc.update(ablation="fast"), "manifest key 'ablation' is not one of"),
        (lambda doc: doc["models"].update(face=""),
         ("model of branch 'face': ", "cannot open: Is a directory")),
        (lambda doc: doc["config"].update(latent_dim=0), "latent_dim must be >= 1"),
        (lambda doc: doc["dims"].update(num_classes=True),
         "manifest key 'dims': num_classes must be an integer >= 2, got true"),
        (lambda doc: doc["models"].pop("scene"),
         "manifest key 'models' has no file for branch 'scene'"),
        (lambda doc: doc["models"].update(face="x\u0000y"),
         ("model of branch 'face': ", "x\\x00y: cannot open: embedded null byte")),
    ], ids=["listed-hash", "no-branches", "unknown-ablation", "model-is-a-directory",
            "invalid-config", "bool-num-classes", "no-model-file", "nul-in-model-path"])
    def test_bad_manifest_value_names_the_manifest(self, small_run, tmp_path, capsys, edit,
                                                   detail):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        manifest = model / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        code = run("eval", "--manifest", str(manifest), "--data", str(small_run["val"]),
                   "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert str(manifest) in err
        assert all(part in err for part in ((detail,) if isinstance(detail, str) else detail))
        assert "\x00" not in err  # control characters are written escaped

    def test_manifest_that_is_not_an_object_names_the_manifest(self, small_run, tmp_path,
                                                                capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]\n")
        assert run("eval", "--manifest", str(manifest), "--data", str(small_run["val"])) == 2
        assert f"data error: {manifest}: manifest must be a JSON object" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("name,param,value,detail", [
        ("face", "face.embed.logvar.bias", 2000.0, "sigma must be strictly positive and finite"),
        ("scene", "scene.classifier.weight", 1e308, "non-finite fused probabilities"),
    ], ids=["face-sigma", "scene-logits"])
    def test_overflowing_model_is_a_numeric_failure(self, small_run, tmp_path, capsys, name,
                                                    param, value, detail):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        params = model / f"{name}.params.json"
        doc = json.loads(params.read_text())
        doc["params"][param]["data"] = [value] * len(doc["params"][param]["data"])
        params.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("eval", "--manifest", str(model / "manifest.json"),
                       "--data", str(small_run["val"]), "--out", str(tmp_path / "r"))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        assert detail in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.jsonl").exists()

    def test_model_file_of_another_version(self, small_run, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        params, manifest = model / "face.params.json", model / "manifest.json"
        doc = json.loads(params.read_text())
        doc["version"] = 2
        params.write_text(json.dumps(doc))
        code = run("eval", "--manifest", str(manifest), "--data", str(small_run["val"]),
                   "--out", str(tmp_path / "r"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {manifest}: model of branch 'face': {params}: "
            "unsupported parameter file version\n"
        )

    def test_params_path_is_a_directory(self, small_run, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(small_run["out"], model)
        params = model / "scene.params.json"
        params.unlink()
        params.mkdir()
        code = run("eval", "--manifest", str(model / "manifest.json"),
                   "--data", str(small_run["val"]), "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"{params}: cannot open" in err and "Traceback" not in err


# single tokens a mutation inserts or writes over one byte: one token can
# at most add a digit to a number, so no mutated size grows past 99
_TOKENS = [b'"', b",", b":", b"[", b"]", b"{", b"}", b"0", b"9", b"-", b".", b"e",
           b"x", b" ", b"\\", b"\xff", b"null", b"true"]
_VALUES = [None, True, 0, -1, 2, 0.5, "x", "", [], {}, [1, 2]]


def _json_paths(doc, prefix=()):
    """Every key path into a JSON document's dicts and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _mutate(data, text: bytes, lines: bool = False) -> bytes:
    """One drawn mutation of a JSON file, or with ``lines`` of a JSON-lines
    file: a byte-level edit or a replaced value (in one drawn line)."""
    kind = data.draw(st.sampled_from(["delete", "replace", "insert", "truncate", "value"]))
    if kind == "value":
        docs = [json.loads(line) for line in text.splitlines()] if lines else [json.loads(text)]
        doc = docs[data.draw(st.integers(0, len(docs) - 1))]
        *path, last = data.draw(st.sampled_from(sorted(_json_paths(doc), key=repr)))
        target = doc
        for key in path:
            target = target[key]
        target[last] = data.draw(st.sampled_from(_VALUES))
        return "".join(json.dumps(d) + "\n" * lines for d in docs).encode()
    pos = data.draw(st.integers(0, len(text) - 1))
    if kind == "delete":
        return text[:pos] + text[pos + data.draw(st.integers(1, 8)):]
    if kind == "truncate":
        return text[:pos]
    token = data.draw(st.sampled_from(_TOKENS))
    return text[:pos] + token + text[pos + (kind == "replace"):]


class TestMutatedModelFiles:
    """A mutated model file or manifest restores, or is a data error naming it."""

    @pytest.mark.parametrize("name", ["manifest.json", "face.params.json"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_restores_or_names_the_file(self, small_run, tmp_path_factory, name, data):
        model = tmp_path_factory.mktemp("mutated") / "model"
        shutil.copytree(small_run["out"], model)
        mutated = model / name
        mutated.write_bytes(_mutate(data, mutated.read_bytes()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("eval", "--manifest", str(model / "manifest.json"),
                       "--data", str(small_run["val"]), "--out", str(model / "report"))
        # an uncaught exception would end the test here, with its traceback
        if code == 2:
            assert str(mutated) in err.getvalue()
        else:  # restored; 3 is a numeric failure of mutated weights at inference
            assert code in (0, 3), err.getvalue()


class TestMutatedDatasets:
    """A mutated dataset evaluates, or is a data error naming the file and line."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_evaluates_or_names_the_line(self, small_run, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("mutated") / "val.jsonl"
        path.write_bytes(_mutate(data, small_run["val"].read_bytes(), lines=True))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("eval", "--manifest", str(small_run["out"] / "manifest.json"),
                       "--data", str(path), "--force", "--out", str(path.parent / "report"))
        # an uncaught exception would end the test here, with its traceback
        if code == 2:
            assert re.search(rf"{re.escape(str(path))}: line \d+: ", err.getvalue()), err.getvalue()
        else:  # loaded; 3 is a numeric failure of mutated features at inference
            assert code in (0, 3), err.getvalue()


class TestLogLevelEnv:
    def test_invalid_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("UAL_LOG_LEVEL", "loud")
        assert main(["gradcheck", "--seeds", "1"]) == 1
        assert "UAL_LOG_LEVEL" in capsys.readouterr().err

    def test_each_call_applies_its_own_level(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "d.jsonl"
        argv = ("simulate", "--num-groups", "2", "--out", str(out))
        monkeypatch.setenv("UAL_LOG_LEVEL", "error")
        assert run(*argv) == 0
        assert "wrote" not in capsys.readouterr().err
        monkeypatch.setenv("UAL_LOG_LEVEL", "info")
        assert run(*argv) == 0
        assert capsys.readouterr().err.startswith(f"wrote {out}: 2 groups")

    @pytest.mark.parametrize("level,lines", [("info", 0), ("debug", 1)])
    def test_debug_level_times_the_inference_pass(self, small_run, tmp_path, level, lines):
        argv = ["eval", "--manifest", str(small_run["out"] / "manifest.json"),
                "--data", str(small_run["val"]), "--mc-samples", "1,4"]
        assert run(*argv, "--out", str(tmp_path / "plain")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "ual.cli", *argv, "--out", str(tmp_path / level)],
            capture_output=True, text=True, env=cli_env(UAL_LOG_LEVEL=level),
        )
        assert proc.returncode == 0, proc.stderr
        timed = [line for line in proc.stderr.splitlines() if line.startswith("inference:")]
        assert len(timed) == lines
        for line in timed:
            assert re.fullmatch(r"inference: 12 groups, mc_samples 1,4, \d+\.\d{3} s", line)
        report = (tmp_path / level / "report.jsonl").read_bytes()
        assert report == (tmp_path / "plain" / "report.jsonl").read_bytes()

    @pytest.mark.parametrize("level,lines", [("info", 0), ("debug", 1)])
    def test_debug_level_times_generate_and_save(self, tmp_path, level, lines):
        argv = ["simulate", "--num-groups", "30", "--seed", "4"]
        assert run(*argv, "--out", str(tmp_path / "plain.jsonl")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "ual.cli", *argv, "--out", str(tmp_path / f"{level}.jsonl")],
            capture_output=True, text=True, env=cli_env(UAL_LOG_LEVEL=level),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        timed = [line for line in proc.stderr.splitlines() if line.startswith("simulate:")]
        assert len(timed) == lines
        for line in timed:
            assert re.fullmatch(r"simulate: generate \d+\.\d{3} s, save \d+\.\d{3} s", line)
        data = (tmp_path / f"{level}.jsonl").read_bytes()
        assert data == (tmp_path / "plain.jsonl").read_bytes()

    @pytest.mark.parametrize("level", ["info", "debug"])
    def test_debug_level_times_each_load(self, small_run, tmp_path, level):
        train = ["train", "--config", str(small_run["cfg"]), "--train", str(small_run["train"]),
                 "--val", str(small_run["val"]), "--out", str(tmp_path / "model")]
        evaluate = ["eval", "--manifest", str(small_run["out"] / "manifest.json"),
                    "--data", str(small_run["val"]), "--out", str(tmp_path / "report")]
        for argv, loads in ((train, [(small_run["train"], 24), (small_run["val"], 12)]),
                            (evaluate, [(small_run["val"], 12)])):
            proc = subprocess.run([sys.executable, "-m", "ual.cli", *argv], capture_output=True,
                                  text=True, env=cli_env(UAL_LOG_LEVEL=level))
            assert proc.returncode == 0, proc.stderr
            timed = [line for line in proc.stderr.splitlines() if line.startswith("load:")]
            assert len(timed) == (len(loads) if level == "debug" else 0)
            for line, (path, groups) in zip(timed, loads):
                assert re.fullmatch(rf"load: {re.escape(str(path))}, {groups} groups, "
                                    r"\d+\.\d{3} s", line)

    @pytest.mark.parametrize("level,lines", [("info", 0), ("debug", 2)])
    def test_debug_level_times_each_epoch(self, small_run, tmp_path, level, lines):
        argv = ["train", "--config", str(small_run["cfg"]), "--train", str(small_run["train"]),
                "--val", str(small_run["val"])]
        assert run(*argv, "--out", str(tmp_path / "plain")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "ual.cli", *argv, "--out", str(tmp_path / level)],
            capture_output=True, text=True, env=cli_env(UAL_LOG_LEVEL=level),
        )
        assert proc.returncode == 0, proc.stderr
        timed = [line for line in proc.stderr.splitlines() if " s, validation " in line]
        assert len(timed) == lines  # the config trains 2 epochs
        for epoch, line in enumerate(timed):
            assert re.fullmatch(rf"epoch {epoch}: train \d+\.\d{{3}} s, validation \d+\.\d{{3}} s", line)
        for name in sorted(p.name for p in (tmp_path / "plain").iterdir()):
            assert (tmp_path / level / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
