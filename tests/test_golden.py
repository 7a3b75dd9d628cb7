"""Golden-output regression: a small train + eval must keep its bytes.

A 60-train / 30-val run of the bundled spec and config (2 epochs, ``full``
ablation, all branches), then ``ual eval --mc-samples 1,4``. The sha256 of
every model, loss-log and report file is pinned. A change that is meant to
be a pure speed-up must leave them all alone; a change that moves them on
purpose updates the hashes here and says why. About a third of the faces
are filtered out in this run, so the quality filter is exercised too.

The same data is also trained and evaluated under ``--ablation no-fiqe``
(stochastic faces, no filter) and ``--ablation no-ual`` (deterministic face
means behind the filter); their face-branch and report files are pinned in
``GOLDEN_ABLATIONS``, so every face training path is covered.

A third run trains with a custom config, ``batch_size = 7`` (a batch size
that divides neither set, so every epoch ends with a partial batch) and
``fiqe_apply = train`` (the filter in training only); its files are pinned
in ``GOLDEN_ODD_BATCH``. These hashes, too, were recorded before training
was batched across groups.

``GOLDEN_SWEEP`` pins the report of one more ``ual eval`` of the first
run's model, ``--mc-samples 8,1,8``: an unsorted sweep with a repeated
count, so the entries cannot share or reorder anything that moves a byte.
It was recorded before a sweep became one pass over the dataset.

``GOLDEN_SIMULATE`` pins the ``ual simulate`` files themselves: the 60-group
train and 30-group val sets above, and one set from ``ODD_SPEC`` (odd dims,
2 classes, every face corrupted, no objects). These hashes were recorded
before the generator drew each group's noise as one block of words.

``manifest.json`` is not pinned (it records dataset paths), nor is the
``data`` path field of the report's ``run`` records. The hashes were taken
on x86-64 with numpy 2.4; a platform whose BLAS or libm rounds differently
can change the last bits and needs its own hashes.
"""

import contextlib
import hashlib
import io
import json
from importlib import resources

import pytest

from ual.cli import main

GOLDEN = {
    "face.params.json": "244bcfcf94a91c7ca39a84cb6665f898f72d5f26cf31741eaedf8a0ca9a3171b",
    "face_loss.csv": "622e7dc8b8a524abb520ccf4a2b2d21e873a3ccee837020aac5cdbcdaff93747",
    "object.params.json": "81f73b202c8de85dfcdca6246f9ae791a52a36d9cb1ee2ede001483608ca4134",
    "object_loss.csv": "86da2bf3cd8897eed593f03c40a727207612f4e32ef745c94c9460bfc7931c33",
    "report.jsonl": "b5cce439bf9f60c82b73b5e7f55e51b46c67195f44c9f7c2b85fc7ea0034dc5b",
    "scene.params.json": "b1c470a8f46e42290c5be2aabe10229000b211f60f2a8710565844fd400ddc4b",
    "scene_loss.csv": "5ae4fa584d0c0ace34ee1d11238a174880f95d96a25e810dae53a8d3800198b1",
    "val_metrics.jsonl": "4d6539155da1e6af682ad2476af400f471e46f37ea3505975f3fc0f6c560b5f1",
}

GOLDEN_ABLATIONS = {
    "no-fiqe": {
        "face.params.json": "8cff4c0f9a75dee3156f2a941e27a483817db46bbea39a33a605bc3db32471a9",
        "face_loss.csv": "82ad2994bf0c7d558675e372611981cf01c9813d148a140078d96d43c55d5b71",
        "report.jsonl": "e866ddb7bc4012b07bc57de09016b02f10d6a86d665276153013233e570079a0",
        "val_metrics.jsonl": "a000117623ddc70b54d61be52b3547d98026b5274ab4cd38b85595ce6bf866d1",
    },
    "no-ual": {
        "face.params.json": "b592b43b127fa11a8ff50cb5861c8599e61154f515275f02872053823bef6fc5",
        "face_loss.csv": "14285c1ed71592ef526168ef5dd41598e36354dd26d9856df1df09df3b44f407",
        "report.jsonl": "fff0a26a90a05721cfd43c615c369bc5d9c2495a4b45880e0a4eb7f905ff7e66",
        "val_metrics.jsonl": "a000117623ddc70b54d61be52b3547d98026b5274ab4cd38b85595ce6bf866d1",
    },
}

GOLDEN_ODD_BATCH = {
    "face.params.json": "b09ed453e5227285e4ace8bd99ef0d7b8fc7b0ed790d9603b4dd2b4372ee601c",
    "face_loss.csv": "f692b37f4be1a1bf105f21faef919735362798f9d254efb6920390d49d4fd985",
    "object.params.json": "8462f487ceca777252fafd09cf8cf78b004fba0037d2bc8eb77a8c4783447f99",
    "object_loss.csv": "8d38e5a35508e70d2c408a620fed8e49ca34fd10c722ed247d6ff0939b23a6da",
    "report.jsonl": "ea56b98128e825755501927f855f6477241f20f0081d8d4346c233a0804abc82",
    "scene.params.json": "91932c917eb2c44e6bbfdc8a8bdccb138c70dcece65a582a6a7a67daf2848bbd",
    "scene_loss.csv": "d93965f238c77af7b627a124a8d0a5b2707ebbb3a7f80c6835d8765feab0b4a2",
    "val_metrics.jsonl": "31b7bf2247ebf0849a17f53d79c7b3c61aacb015ba39a33f7db876d40fee94eb",
}

GOLDEN_SWEEP = {
    "report.jsonl": "65ff7070e3c99b95470b65d2286f29bf81117f3721369c13fe8673dbe31fff2d",
}

GOLDEN_SIMULATE = {
    "odd.jsonl": "639555948eb20c77070c006cac0e5d6b2620ff22d30f1054d439ff52c0a656cb",
    "train.jsonl": "41f8d5e71ee9bb034155efbbeaf95a3f666b5709b50d32b64cc084f471798940",
    "val.jsonl": "75dcc49bf729fa0b7f40511501325c1ffacde22322b53da253bddb790b86b68f",
}

ODD_SPEC = (
    "num_groups = 40\nface_dim = 33\nobject_dim = 7\nscene_dim = 5\nnum_classes = 2\n"
    "corrupt_fraction = 1.0\nobject_count_max = 0\nseed = 13\n"
)


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def _digest(path):
    data = path.read_bytes()
    if path.name == "report.jsonl":
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        for row in rows:
            row.pop("data", None)  # the dataset path
        data = "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    train, val = root / "train.jsonl", root / "val.jsonl"
    _run("simulate", "--num-groups", "60", "--out", str(train))
    _run("simulate", "--num-groups", "30", "--partition", "val", "--out", str(val))
    return root, train, val


def _train_and_eval(golden_data, ablation, *config):
    root, train, val = golden_data
    out = root / (ablation if not config else "custom")
    _run("train", "--train", str(train), "--val", str(val), "--out", str(out), "--epochs", "2",
         "--ablation", ablation, *config)
    _run("eval", "--manifest", str(out / "manifest.json"), "--data", str(val),
         "--mc-samples", "1,4")
    return out


@pytest.fixture(scope="module")
def golden_run(golden_data):
    return _train_and_eval(golden_data, "full")


@pytest.fixture(scope="module")
def sweep_run(golden_data, golden_run):
    out = golden_data[0] / "sweep"
    _run("eval", "--manifest", str(golden_run / "manifest.json"), "--data", str(golden_data[2]),
         "--mc-samples", "8,1,8", "--out", str(out))
    return out


@pytest.fixture(scope="module")
def simulate_files(golden_data):
    root = golden_data[0]
    spec = root / "odd.gen"
    spec.write_text(ODD_SPEC, encoding="utf-8")
    _run("simulate", "--spec", str(spec), "--out", str(root / "odd.jsonl"))
    return root


@pytest.fixture(scope="module")
def ablation_runs(golden_data):
    return {ablation: _train_and_eval(golden_data, ablation) for ablation in GOLDEN_ABLATIONS}


@pytest.fixture(scope="module")
def odd_batch_run(golden_data):
    root = golden_data[0]
    text = (resources.files("ual.configs") / "synthetic-default.cfg").read_text(encoding="utf-8")
    config = root / "odd-batch.cfg"
    config.write_text(
        text.replace("batch_size = 64", "batch_size = 7").replace(
            "fiqe_apply = both", "fiqe_apply = train"
        ),
        encoding="utf-8",
    )
    assert "batch_size = 7" in config.read_text() and "fiqe_apply = train" in config.read_text()
    return _train_and_eval(golden_data, "full", "--config", str(config))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(golden_run, name):
    assert _digest(golden_run / name) == GOLDEN[name]


@pytest.mark.parametrize(
    "ablation,name",
    [(ablation, name) for ablation in sorted(GOLDEN_ABLATIONS)
     for name in sorted(GOLDEN_ABLATIONS[ablation])],
)
def test_ablation_output_bytes_unchanged(ablation_runs, ablation, name):
    assert _digest(ablation_runs[ablation] / name) == GOLDEN_ABLATIONS[ablation][name]


@pytest.mark.parametrize("name", sorted(GOLDEN_ODD_BATCH))
def test_odd_batch_output_bytes_unchanged(odd_batch_run, name):
    assert _digest(odd_batch_run / name) == GOLDEN_ODD_BATCH[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEP))
def test_sweep_output_bytes_unchanged(sweep_run, name):
    assert _digest(sweep_run / name) == GOLDEN_SWEEP[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE))
def test_simulate_output_bytes_unchanged(simulate_files, name):
    assert _digest(simulate_files / name) == GOLDEN_SIMULATE[name]
