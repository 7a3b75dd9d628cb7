"""The benchmark's workloads: inputs, set-up, one unit of work, output checks.

Each workload is a closed loop with one caller: the next command is issued
only after the previous one returned. A unit of work is one `ual` command
(plus, for ``simulate``, reading the file back). ``check`` validates the
outputs of the unit just run and hashes the artifacts that must not change
between two units with the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ual import cli, datagen_metrics, pipeline
from ual.numerics import ParameterStore

BUNDLED_SPEC_SEED = 2024
BUNDLED_CONFIG_SEED = 7
EVAL_SWEEP = (1, 8, 32, 64)


def _bundled(name: str) -> Path:
    return Path(str(resources.files("ual.configs").joinpath(name)))


def bundled_spec(**updates) -> datagen_metrics.SynthesisSpec:
    mapping = cli.parse_kv_file(_bundled("synthetic-default.gen"))
    return replace(datagen_metrics.spec_from_mapping(mapping, source="bundled spec"), **updates)


def bundled_config() -> pipeline.TrainingConfig:
    mapping = cli.parse_kv_file(_bundled("synthetic-default.cfg"))
    return pipeline.config_from_mapping(mapping, source="bundled config")


def artifact_digest(paths: list[Path]) -> str:
    """One sha256 over the named files' own hashes, in name order."""
    lines = "".join(f"{p.name} {cli.sha256_file(p)}\n" for p in sorted(paths))
    return hashlib.sha256(lines.encode()).hexdigest()


def run_cli(argv: list[str]) -> int:
    """`ual <argv>` in this process; its table output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def restore_model(manifest_path: Path):
    """Rebuild the model a manifest describes, from public API calls only."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    config = pipeline.config_from_mapping(
        {k: str(v) for k, v in manifest["config"].items()}, source=str(manifest_path)
    )
    branches = pipeline.build_branches(config, manifest["dims"], tuple(manifest["branches"]))
    store = ParameterStore()
    pipeline.register_branches(store, branches, config.seed)
    for tag in branches:
        sub = store.subset(f"{tag}.")
        sub.restore(manifest_path.parent / manifest["models"][tag])
        for name in sub.names():
            store.set(name, sub.get(name))
    return branches, store


@dataclass
class Outcome:
    """What one unit produced: its artifact hash, accuracies and check results."""

    digest: str
    face_acc: float
    fused_acc: float
    checks: dict[str, bool]


class Workload:
    metric_alias = ""  # the workload-specific name of ``groups_per_s``

    def __init__(self, work: Path, seed: int | None):
        # The model workloads run on the bundled data; their seed is the
        # training and inference seed (``ual train/eval --seed``).
        self.work = work
        self.spec_seed = BUNDLED_SPEC_SEED
        self.config_seed = BUNDLED_CONFIG_SEED if seed is None else seed

    def prepare(self) -> None:
        """Make the inputs from the seed; outside every metric."""

    def setup(self) -> None:
        """Dataset load plus model build or restore; timed as ``setup_s``."""

    def unit(self, out: Path) -> float:
        """Run one command writing into ``out``; returns groups processed."""
        raise NotImplementedError

    def check(self, out: Path) -> Outcome:
        raise NotImplementedError

    def _save(self, path: Path, **spec_updates) -> Path:
        spec = bundled_spec(seed=self.spec_seed, **spec_updates)
        datagen_metrics.save_dataset(datagen_metrics.generate_dataset(spec), path)
        return path


class TrainWorkload(Workload):
    """`ual train` with the bundled config on bundled-size train/val sets."""

    metric_alias = "train_group_epochs_per_s"
    ablation = "full"
    # Enough epochs that final validation accuracy has settled: its spread
    # over seeds is then a few percent, not tens of percent.
    default_epochs = 6

    def __init__(self, work, seed, epochs: int | None = None, train_groups: int = 500,
                 val_groups: int = 200):
        super().__init__(work, seed)
        self.epochs = epochs or self.default_epochs
        self.train_groups = train_groups
        self.val_groups = val_groups

    def prepare(self) -> None:
        self.train_path = self._save(self.work / "train.jsonl", num_groups=self.train_groups)
        self.val_path = self._save(
            self.work / "val.jsonl", num_groups=self.val_groups, partition="val"
        )

    def setup(self) -> None:
        train = datagen_metrics.load_dataset(self.train_path)
        datagen_metrics.load_dataset(self.val_path)
        config = replace(bundled_config(), seed=self.config_seed)
        dims = {
            "face_dim": train.face_dim,
            "object_dim": train.object_dim,
            "scene_dim": train.scene_dim,
            "num_classes": train.num_classes,
        }
        branches = pipeline.build_branches(config, dims)
        pipeline.register_branches(ParameterStore(), branches, config.seed)

    def argv(self, out: Path) -> list[str]:
        return [
            "train", "--train", str(self.train_path), "--val", str(self.val_path),
            "--out", str(out), "--epochs", str(self.epochs),
            "--seed", str(self.config_seed), "--ablation", self.ablation,
        ]

    def unit(self, out: Path) -> float:
        if run_cli(self.argv(out)) != 0:
            raise RuntimeError("ual train failed")
        return float(self.train_groups * self.epochs)

    def check(self, out: Path) -> Outcome:
        checks = {}
        try:
            branches, store = restore_model(out / "manifest.json")
            checks["model_restores"] = set(branches) == set(pipeline.BRANCH_TAGS) and all(
                np.all(np.isfinite(store.get(n))) for n in store.names()
            )
        except Exception:  # any failure to restore is a failed check
            checks["model_restores"] = False
        val = [json.loads(line) for line in (out / "val_metrics.jsonl").read_text().splitlines()]
        checks["val_records"] = len(val) == self.epochs
        last = val[-1]
        face, fused = last["face"]["micro"], last["fused"]["micro"]
        chance = 1.0 / bundled_spec().num_classes
        checks["above_chance"] = face > chance and fused > chance
        artifacts = [p for p in out.iterdir() if p.name != "manifest.json"]
        checks["artifacts_present"] = len(artifacts) == 7  # 3 params, 3 loss CSVs, val log
        return Outcome(artifact_digest(artifacts), face, fused, checks)


class TrainBaselineWorkload(TrainWorkload):
    ablation = "no-ual-fiqe"
    # The deterministic face head learns slower, and an epoch costs a third
    # of a full one.
    default_epochs = 20


class EvalWorkload(Workload):
    """`ual eval --mc-samples 1,8,32,64` on a generated set, fixture model."""

    metric_alias = "eval_groups_per_s"

    def __init__(self, work, seed, groups: int = 1000, sweep=EVAL_SWEEP, fixture_epochs: int = 10,
                 train_groups: int = 500, val_groups: int = 50):
        super().__init__(work, seed)
        self.groups = groups
        self.sweep = tuple(sweep)
        self.fixture = TrainWorkload(work, seed, fixture_epochs, train_groups, val_groups)

    def prepare(self) -> None:
        self.data_path = self._save(
            self.work / "bench.jsonl", num_groups=self.groups, partition="bench"
        )
        self.fixture.prepare()
        model_dir = self.work / "model"
        self.fixture.unit(model_dir)
        self.manifest = model_dir / "manifest.json"

    def setup(self) -> None:
        datagen_metrics.load_dataset(self.data_path)
        restore_model(self.manifest)

    def unit(self, out: Path) -> float:
        argv = [
            "eval", "--manifest", str(self.manifest), "--data", str(self.data_path),
            "--mc-samples", ",".join(str(n) for n in self.sweep), "--force", "--out", str(out),
        ]
        if run_cli(argv) != 0:
            raise RuntimeError("ual eval failed")
        return float(self.groups * len(self.sweep))

    def check(self, out: Path) -> Outcome:
        report = out / "report.jsonl"
        records = [json.loads(line) for line in report.read_text().splitlines()]
        checks = {}
        counts: dict[tuple, int] = {}
        for rec in records:
            key = (rec["record"], rec["mc_samples"])
            counts[key] = counts.get(key, 0) + 1
        n_branches = len(pipeline.BRANCH_TAGS)
        expected = {}
        for n in self.sweep:
            expected.update({("run", n): 1, ("branch_metrics", n): n_branches,
                             ("fused_metrics", n): 1, ("group", n): self.groups})
        checks["report_counts"] = counts == expected
        last = self.sweep[-1]
        face = next(r for r in records if r["record"] == "branch_metrics"
                    and r["branch"] == "face" and r["mc_samples"] == last)["micro_accuracy"]
        fused = next(r for r in records if r["record"] == "fused_metrics"
                     and r["mc_samples"] == last)["micro_accuracy"]
        chance = 1.0 / bundled_spec().num_classes
        checks["above_chance"] = face > chance and fused > chance
        return Outcome(artifact_digest([report]), face, fused, checks)


def _nearest_mean(x: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    centers = np.stack([x[labels == c].mean(axis=0) for c in range(classes)])
    return np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)


class SimulateWorkload(Workload):
    """`ual simulate` of a large set, read back and scored by a probe.

    The probe is a nearest-class-mean classifier over each group's
    per-dimension median face (``face``) and over median face plus scene
    (``fused``), scored with ``compute_metrics``; it shows a generator
    change that alters the data. The median resists the corrupted faces.
    """

    metric_alias = "simulate_groups_per_s"

    def __init__(self, work, seed, groups: int = 5000, warmup_groups: int = 200):
        super().__init__(work, seed)
        self.spec_seed = BUNDLED_SPEC_SEED if seed is None else seed
        self.groups = groups
        self.warmup_groups = warmup_groups
        self._probe = None  # (dataset, face report, fused report) of the last unit

    def setup(self) -> None:
        # Rewriting a file in place is several times slower than writing a
        # new one on some filesystems, and `ual simulate` users write new files.
        path = self.work / "warmup.jsonl"
        path.unlink(missing_ok=True)
        self._save(path, num_groups=self.warmup_groups, partition="warmup")
        datagen_metrics.load_dataset(path)

    def unit(self, out: Path) -> float:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "sim.jsonl"
        argv = ["simulate", "--out", str(path), "--num-groups", str(self.groups),
                "--seed", str(self.spec_seed)]
        if run_cli(argv) != 0:
            raise RuntimeError("ual simulate failed")
        ds = datagen_metrics.load_dataset(path)
        labels = np.array([g.label for g in ds.groups])
        faces = np.stack([np.median(g.faces, axis=0) for g in ds.groups])
        both = np.hstack([faces, np.stack([g.scene for g in ds.groups])])
        self._probe = (
            ds,
            datagen_metrics.compute_metrics(
                labels, _nearest_mean(faces, labels, ds.num_classes), ds.num_classes),
            datagen_metrics.compute_metrics(
                labels, _nearest_mean(both, labels, ds.num_classes), ds.num_classes),
        )
        return float(self.groups)

    def check(self, out: Path) -> Outcome:
        ds, face, fused = self._probe
        spec = bundled_spec()
        checks = {
            "group_count": len(ds) == self.groups,
            "ids": [g.id for g in ds.groups] == [f"train-{i:05d}" for i in range(self.groups)],
            "dims": (ds.face_dim, ds.object_dim, ds.scene_dim)
            == (spec.face_dim, spec.object_dim, spec.scene_dim),
        }
        chance = 1.0 / ds.num_classes
        checks["above_chance"] = face.micro_accuracy > chance and fused.micro_accuracy > chance
        return Outcome(
            artifact_digest([out / "sim.jsonl"]), face.micro_accuracy, fused.micro_accuracy, checks
        )


WORKLOADS = {
    "train-full": TrainWorkload,
    "train-baseline": TrainBaselineWorkload,
    "eval-sweep": EvalWorkload,
    "simulate": SimulateWorkload,
}
