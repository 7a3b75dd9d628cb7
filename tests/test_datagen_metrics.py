import json
import math
import multiprocessing
import os
import re
import time
import tracemalloc
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ual import datagen_metrics
from ual.cli import _bundled, parse_kv_file
from ual.datagen_metrics import (
    Dataset,
    GroupSample,
    SynthesisSpec,
    class_names_for,
    compute_metrics,
    f_measure,
    generate_dataset,
    load_dataset,
    macro_average,
    save_dataset,
    settings_from_mapping,
    spec_from_mapping,
)
from ual.errors import DataError, UalError
from ual.numerics import SeededRng
from ual.pipeline import TrainingConfig, config_from_mapping


def binomial_99_interval(n: int, p: float) -> tuple[float, float]:
    """Normal-approximation 99% interval for a Binomial(n, p) count."""
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    return mean - 2.576 * sd, mean + 2.576 * sd


def support_weighted_average(values, supports) -> float:
    """Mean over classes weighted by class support."""
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(supports, dtype=np.float64)
    return float((v * s).sum() / s.sum())


def scalar_generate(spec: SynthesisSpec) -> Dataset:
    """The generator as one ``uniform``/``integer``/``normals`` call per item:
    the reference for the block walk of ``generate_dataset``."""
    root = SeededRng(spec.seed)
    centers = root.derive("centers")
    face_centers = spec.center_scale * centers.normals((spec.num_classes, spec.face_dim))
    object_centers = spec.center_scale * centers.normals((spec.num_classes, spec.object_dim))
    scene_centers = spec.center_scale * centers.normals((spec.num_classes, spec.scene_dim))

    stats = {"faces": 0, "objects": 0, "corrupted_faces": 0, "inconsistent_individuals": 0}
    groups = []
    for i in range(spec.num_groups):
        g = root.derive("group", spec.partition, i)
        label = g.integer(spec.num_classes)
        n_faces = spec.group_size_min + g.integer(spec.group_size_max - spec.group_size_min + 1)
        n_objects = spec.object_count_min + g.integer(
            spec.object_count_max - spec.object_count_min + 1
        )
        faces = np.empty((n_faces, spec.face_dim))
        for j in range(n_faces):
            base = label
            if g.uniform() < spec.inconsistent_fraction and spec.num_classes > 1:
                base = (label + 1 + g.integer(spec.num_classes - 1)) % spec.num_classes
                stats["inconsistent_individuals"] += 1
            x = face_centers[base] + spec.spread * g.normals(spec.face_dim)
            if g.uniform() < spec.corrupt_fraction:
                x = x + spec.corrupt_scale * spec.spread * np.abs(g.normals(spec.face_dim))
                stats["corrupted_faces"] += 1
            faces[j] = x
        objects = np.empty((n_objects, spec.object_dim))
        for j in range(n_objects):
            base = label
            if g.uniform() < spec.inconsistent_fraction and spec.num_classes > 1:
                base = (label + 1 + g.integer(spec.num_classes - 1)) % spec.num_classes
                stats["inconsistent_individuals"] += 1
            objects[j] = object_centers[base] + spec.spread * g.normals(spec.object_dim)
        scene = scene_centers[label] + spec.spread * g.normals(spec.scene_dim)
        stats["faces"] += n_faces
        stats["objects"] += n_objects
        groups.append(GroupSample(id=f"{spec.partition}-{i:05d}", label=label,
                                  faces=faces, objects=objects, scene=scene))
    return Dataset(spec.face_dim, spec.object_dim, spec.scene_dim, spec.num_classes,
                   class_names_for(spec.num_classes), groups, stats)


_FRACTIONS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def synthesis_specs(draw):
    size_min = draw(st.integers(2, 5))
    objects_min = draw(st.integers(0, 2))
    return SynthesisSpec(
        num_groups=draw(st.integers(1, 12)),
        group_size_min=size_min,
        group_size_max=draw(st.integers(size_min, 7)),
        face_dim=draw(st.integers(1, 10)),
        object_dim=draw(st.integers(1, 10)),
        scene_dim=draw(st.integers(1, 10)),
        num_classes=draw(st.sampled_from([2, 5])),
        spread=draw(st.sampled_from([0.0, 1.5])),
        corrupt_fraction=draw(_FRACTIONS),
        inconsistent_fraction=draw(_FRACTIONS),
        object_count_min=objects_min,
        object_count_max=draw(st.integers(objects_min, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
        partition=draw(st.sampled_from(["train", "val"])),
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# a spec whose groups each read at most 80 words (4 faces of 7 dims, no
# objects, 3 scene dims): a budget of 320 words makes chunks of 4 groups
_FOUR_FACES = SynthesisSpec(num_groups=1, group_size_min=4, group_size_max=4, face_dim=7,
                            object_dim=2, scene_dim=3, object_count_min=0, object_count_max=0)


class TestGenerateDataset:
    @given(synthesis_specs(), st.integers(1, 400))
    @example(_FOUR_FACES, datagen_metrics._CHUNK_WORDS)
    @example(SynthesisSpec(num_groups=3, face_dim=33, object_dim=7, scene_dim=5, num_classes=2,
                           corrupt_fraction=1.0, inconsistent_fraction=1.0),
             datagen_metrics._CHUNK_WORDS)
    @example(SynthesisSpec(num_groups=3, face_dim=8, object_dim=4, scene_dim=2, num_classes=5,
                           corrupt_fraction=0.0, inconsistent_fraction=0.0, spread=0.0),
             datagen_metrics._CHUNK_WORDS)
    @example(replace(_FOUR_FACES, num_groups=5), 320)  # one group past a chunk boundary
    @example(replace(_FOUR_FACES, num_groups=3), 79)  # each group larger than the budget
    @settings(max_examples=100, deadline=None)
    def test_block_walk_equals_scalar_draws(self, spec, budget):
        """Chunks of any size give the per-item draws' bits; small word
        budgets make the drawn specs span several chunks."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datagen_metrics, "_CHUNK_WORDS", budget)
            got = generate_dataset(spec)
        want = scalar_generate(spec)
        assert got.synthesis_stats == want.synthesis_stats
        assert [g.id for g in got.groups] == [g.id for g in want.groups]
        assert [g.label for g in got.groups] == [g.label for g in want.groups]
        for a, b in zip(got.groups, want.groups):
            assert _same_bits(a.faces, b.faces)
            assert _same_bits(a.objects, b.objects)
            assert _same_bits(a.scene, b.scene)

    def test_noiseless_limit(self):
        spec = SynthesisSpec(
            num_groups=10, spread=0.0, corrupt_fraction=0.0, inconsistent_fraction=0.0,
            group_size_min=2, group_size_max=3, face_dim=5, object_dim=4, scene_dim=3,
            seed=3,
        )
        ds = generate_dataset(spec)
        # every individual sits exactly on its class center
        by_label = {}
        for g in ds.groups:
            for row in g.faces:
                key = (g.label, "face")
                by_label.setdefault(key, row)
                assert np.array_equal(row, by_label[key])

    def test_working_set_does_not_grow_with_num_groups(self):
        """The ``tracemalloc`` peak of a run, less what the dataset it returns
        holds (its arrays, and the objects around them), stays under two
        chunk budgets of 8-byte words, and is no larger at 4,000 bundled
        groups than at 1,000."""
        spec = spec_from_mapping(parse_kv_file(_bundled("synthetic-default.gen")))
        transient = []
        for n in (1000, 4000):
            tracemalloc.start()
            try:
                ds = generate_dataset(replace(spec, num_groups=n))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            arrays = sum(g.faces.nbytes + g.objects.nbytes + g.scene.nbytes for g in ds.groups)
            assert arrays <= held < 1.5 * arrays
            transient.append(peak - held)
            del ds
        budget = 8 * datagen_metrics._CHUNK_WORDS
        assert max(transient) < 2 * budget
        assert transient[1] < transient[0] + budget / 8

    def test_deterministic_files(self, tmp_path):
        spec = SynthesisSpec(num_groups=20, seed=7)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_dataset(spec), p1)
        save_dataset(generate_dataset(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_partitions_share_centers_but_not_noise(self):
        spec = SynthesisSpec(num_groups=5, spread=0.0, corrupt_fraction=0.0,
                             inconsistent_fraction=0.0, seed=9)
        train = generate_dataset(spec)
        val = generate_dataset(replace(spec, partition="val"))
        train_centers = {g.label: g.faces[0].tobytes() for g in train.groups}
        val_centers = {g.label: g.faces[0].tobytes() for g in val.groups}
        for label in train_centers:
            if label in val_centers:
                assert train_centers[label] == val_centers[label]

    def test_corruption_count_within_binomial_interval(self):
        spec = SynthesisSpec(num_groups=500, corrupt_fraction=0.3, seed=11)
        ds = generate_dataset(spec)
        stats = ds.synthesis_stats
        lo, hi = binomial_99_interval(stats["faces"], 0.3)
        assert lo <= stats["corrupted_faces"] <= hi

    def test_group_sizes_in_range(self):
        ds = generate_dataset(SynthesisSpec(num_groups=50, group_size_min=3, group_size_max=8))
        for g in ds.groups:
            assert 3 <= g.faces.shape[0] <= 8

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            generate_dataset(SynthesisSpec(corrupt_fraction=1.5))
        with pytest.raises(DataError):
            generate_dataset(SynthesisSpec(group_size_min=1))

    @pytest.mark.parametrize("key,value", [
        ("spread", math.nan), ("center_scale", math.inf), ("corrupt_scale", math.inf),
    ])
    def test_non_finite_spec_value_names_the_key(self, key, value):
        with pytest.raises(DataError, match=f"{key} must be finite"):
            SynthesisSpec(**{key: value}).validate()

    def test_spec_from_mapping_rejects_unknown_field(self):
        with pytest.raises(DataError, match="unknown key 'num_gruops'"):
            spec_from_mapping({"num_gruops": "5"})


_SETTINGS = {
    "spec": (SynthesisSpec, spec_from_mapping),
    "config": (TrainingConfig, config_from_mapping),
}
_VALUES = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e309", "", "0x10", str(10**40), "9" * 5000]),
    st.sampled_from(["true", "FALSE", "True", "yes", "both", "eval", "sometimes", "val"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@st.composite
def _settings_file(draw, kind):
    """``key = value`` lines over ``kind``'s field names and some unknown keys."""
    keys = st.sampled_from(sorted(kind.__dataclass_fields__) + ["num_gruops", "latent_dmi", ""])
    line = st.one_of(
        st.builds("{} = {}".format, keys, _VALUES),
        st.builds("{}={}  # note".format, keys, _VALUES),
        st.sampled_from(["# comment", "", "  ", "# seed = 1", "no equals sign"]),
    )
    return draw(st.lists(line, max_size=8))


class TestSettingsFiles:
    """Any spec or config file parses to a validated object, or fails naming
    the file or one of its keys; it raises nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), which=st.sampled_from(sorted(_SETTINGS)))
    def test_parse_or_named_error(self, tmp_path_factory, data, which):
        kind, from_mapping = _SETTINGS[which]
        lines = data.draw(_settings_file(kind))
        path = tmp_path_factory.mktemp("settings") / f"drawn.{which}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            out = from_mapping(parse_kv_file(path), source=str(path))
        except DataError as exc:  # ConfigError is a DataError
            named = [key for key in kind.__dataclass_fields__ if key in str(exc)]
            assert str(path) in str(exc) or named, str(exc)
        else:
            assert isinstance(out, kind)
            out.validate()

    @pytest.mark.parametrize("which,name", [("spec", "synthetic-default.gen"),
                                            ("config", "synthetic-default.cfg")])
    def test_crlf_file_reads_as_the_lf_file(self, tmp_path, which, name):
        kind, _ = _SETTINGS[which]
        lf = _bundled(name).read_bytes()
        assert b"\r" not in lf
        path = tmp_path / name
        path.write_bytes(lf.replace(b"\n", b"\r\n"))
        mapping, want = parse_kv_file(path), parse_kv_file(_bundled(name))
        assert mapping == want
        assert settings_from_mapping(kind, mapping, name) == settings_from_mapping(kind, want, name)


class TestDatasetIO:
    def _small(self):
        return generate_dataset(SynthesisSpec(
            num_groups=6, face_dim=4, object_dim=3, scene_dim=2,
            group_size_min=2, group_size_max=4, seed=5,
        ))

    def test_round_trip(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(ds)
        assert loaded.class_names == ds.class_names
        for a, b in zip(ds.groups, loaded.groups):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.faces, b.faces)
            assert np.array_equal(a.objects, b.objects)
            assert np.array_equal(a.scene, b.scene)

    def test_save_refuses_non_finite_and_names_the_group(self, tmp_path):
        ds = self._small()
        ds.groups[2].scene[0] = math.inf
        path = tmp_path / "d.jsonl"
        with pytest.raises(DataError, match=re.escape(f"{path}: group {ds.groups[2].id}: ")):
            save_dataset(ds, path)
        assert not path.exists()

    def test_wrong_face_dim_names_line(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["faces"][0] = rec["faces"][0][:-1]  # drop one dim
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 4"):
            load_dataset(path)

    def test_empty_faces_rejected(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["faces"] = []
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="at least 1 face"):
            load_dataset(path)

    def test_non_numeric_and_non_finite_values_name_the_line(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        good = path.read_text().splitlines()
        for key, value, message in [
            ("faces", "abc", "line 3: faces must hold only numbers"),
            ("faces", None, "line 3: faces must be finite"),
            ("faces", float("inf"), "line 3: faces must be finite"),
            ("scene", "abc", "line 3: scene must hold only numbers"),
            ("objects", float("nan"), "line 3: objects must be finite"),
        ]:
            lines = list(good)
            rec = json.loads(lines[2])
            target = rec[key] if key == "scene" else rec[key][0]
            if not target:
                continue
            target[0] = value
            lines[2] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
                load_dataset(path)

    def test_class_names_must_match_num_classes(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["class_names"] = header["class_names"] + ["Extra"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 1: 4 class_names")):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["label"] = 7
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="label 7 out of range"):
            load_dataset(path)

    def test_lines_are_numbered_by_newlines(self, tmp_path):
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        header, *records = path.read_text().splitlines()
        # CRLF, blank and LF line ends: the file is split on "\n" only, and a
        # line's "\r\n" or "\n" end is dropped
        text = (header + "\r\n" + records[0] + "\r\n\n" + records[1] + "\r\n"
                + "\n".join(records[2:]))
        path.write_bytes(text.encode())
        loaded = load_dataset(path)
        assert [group.id for group in loaded.groups] == [group.id for group in ds.groups]
        bad = text.replace(records[3], records[3].replace('"label": ', '"label": -', 1))
        path.write_bytes(bad.encode())
        lineno = bad.split("\n").index(records[3].replace('"label": ', '"label": -', 1)) + 1
        assert lineno == 6
        with pytest.raises(DataError, match=re.escape(f"{path}: line {lineno}: label must be")):
            load_dataset(path)

    def test_line_breaks_inside_a_string_stay_in_their_line(self, tmp_path):
        # str.splitlines would also cut at these, which JSON allows raw in a
        # string, as json.dumps(..., ensure_ascii=False) writes them
        ds = self._small()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        header, *records = path.read_text().splitlines()
        ids = ["val-\u2028x", "val-\u2029y", "val-\u0085z"]
        for i, gid in enumerate(ids):
            records[i] = json.dumps({**json.loads(records[i]), "id": gid}, ensure_ascii=False)
        records[4] = records[4].replace('"label": ', '"label": -', 1)
        path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 6: label must be")):
            load_dataset(path)
        del records[4]
        path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        assert [group.id for group in load_dataset(path).groups][:3] == ids

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"schema": "other/v9"}\n')
        with pytest.raises(DataError, match="schema"):
            load_dataset(path)


_TEST_PROCESS = os.getpid()


def _die(*args):
    """A chunk function that ends the worker process running it at once."""
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    raise AssertionError("the chunk ran in the test process")


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 1.00 TiB")


def _slow_first(chunk: int) -> tuple[int, int]:
    """``chunk`` and the id of the process that ran it; chunk 0 takes 0.2 s
    in a worker process, so the next worker finishes first."""
    if chunk == 0 and os.getpid() != _TEST_PROCESS:
        time.sleep(0.2)
    return chunk, os.getpid()


@pytest.fixture
def chunks_seen(monkeypatch, chunk_calls):
    """Budgets that cut a 40-group file of small dims into several chunks,
    each call of more than one chunk in at most two worker processes, and
    ``chunk_calls``."""
    monkeypatch.setattr(datagen_metrics, "_SAVE_FLOATS", 100)
    monkeypatch.setattr(datagen_metrics, "_LOAD_BYTES", 2000)
    monkeypatch.setattr(datagen_metrics, "_IN_PROCESS_CHUNKS", 1)
    return chunk_calls


class TestChunkedIO:
    """Several chunks, in worker processes, give the bytes, arrays and errors
    of one record at a time."""

    def _dataset(self):
        return generate_dataset(SynthesisSpec(
            num_groups=40, face_dim=4, object_dim=3, scene_dim=2,
            group_size_min=2, group_size_max=4, seed=11,
        ))

    def _serial_load(self, monkeypatch, path):
        """``load_dataset(path)`` with one usable CPU, so in this process."""
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            return load_dataset(path)

    @staticmethod
    def _chunk_of(read, line: int) -> int | None:
        """The index of the chunk, of the ``(first line, lines)`` chunks
        ``read``, that holds line ``line``; None for the header."""
        return next((i for i, (first, block) in enumerate(read)
                     if first <= line < first + block.count(b"\n")), None)

    def _error(self, monkeypatch, path) -> str:
        """The message of the error that loading ``path`` raises, the same
        in worker processes and in this process."""
        with pytest.raises(DataError) as chunked:
            load_dataset(path)
        with pytest.raises(DataError) as serial:
            self._serial_load(monkeypatch, path)
        assert str(chunked.value) == str(serial.value)
        return str(chunked.value)

    def test_bytes_and_arrays_equal_one_record_at_a_time(self, tmp_path, monkeypatch,
                                                          chunks_seen):
        ds = self._dataset()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        header = {"schema": datagen_metrics.SCHEMA, "face_dim": 4, "object_dim": 3,
                  "scene_dim": 2, "num_classes": 3, "class_names": list(ds.class_names)}
        encode = json.JSONEncoder(allow_nan=False).encode
        want = [json.dumps(header)] + [
            encode({"id": g.id, "label": g.label, "faces": g.faces.tolist(),
                    "objects": g.objects.tolist(), "scene": g.scene.tolist()})
            for g in ds.groups
        ]
        assert path.read_text() == "".join(line + "\n" for line in want)
        loaded = load_dataset(path)
        (saved, save_ran), (read, load_ran) = chunks_seen
        assert len(saved) > 2 and len(read) > 2 and all(save_ran) and all(load_ran)
        serial = self._serial_load(monkeypatch, path)
        assert len(chunks_seen) == 3 and not any(chunks_seen[2][1])
        assert [(g.id, g.label) for g in loaded.groups] == [(g.id, g.label) for g in ds.groups]
        assert [(g.id, g.label) for g in serial.groups] == [(g.id, g.label) for g in ds.groups]
        for a, b, c in zip(loaded.groups, serial.groups, ds.groups):
            for kind in ("faces", "objects", "scene"):
                assert _same_bits(getattr(a, kind), getattr(b, kind))
                assert np.array_equal(getattr(a, kind), getattr(c, kind))

    def test_one_cpu_starts_no_process(self, tmp_path, monkeypatch, chunks_seen):
        ds = self._dataset()
        save_dataset(ds, tmp_path / "two.jsonl")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        save_dataset(ds, tmp_path / "one.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert len(load_dataset(tmp_path / "one.jsonl")) == 40
        (_, two_cpus), (saved, one_cpu), (read, loaded) = chunks_seen
        assert all(two_cpus) and len(saved) > 2 and len(read) > 2
        assert not any(one_cpu) and not any(loaded)

    def test_first_error_in_file_order_wins(self, tmp_path, monkeypatch, chunks_seen):
        path = tmp_path / "d.jsonl"
        save_dataset(self._dataset(), path)
        header, *records = path.read_text().splitlines()
        # blank lines count: the records after them are on later lines
        lines = [header, "", "  ", *records[:20], "\r", *records[20:]]
        path.write_text("".join(line + "\n" for line in lines))
        assert len(load_dataset(path)) == 40
        read = chunks_seen[-1][0]
        # edits that keep each line's length, so the chunks stay as they were
        label_line = next(n for n, line in enumerate(lines, 1)
                          if self._chunk_of(read, n) == 1 and '"label": 2' in line)
        json_line = next(n for n, line in enumerate(lines, 1)
                         if self._chunk_of(read, n) == 2 and line.startswith("{"))
        good = lines[label_line - 1]
        lines[label_line - 1] = good.replace('"label": 2', '"label": 7', 1)
        lines[json_line - 1] = lines[json_line - 1][:-1] + "]"
        path.write_text("".join(line + "\n" for line in lines))
        assert self._error(monkeypatch, path) == (
            f"{path}: line {label_line}: label 7 out of range for 3 classes")
        lines[label_line - 1] = good
        path.write_text("".join(line + "\n" for line in lines))
        assert self._error(monkeypatch, path).startswith(f"{path}: line {json_line}: not JSON")

    def test_duplicate_id_in_two_chunks_names_both_lines(self, tmp_path, monkeypatch,
                                                         chunks_seen):
        path = tmp_path / "d.jsonl"
        ds = self._dataset()
        ds.groups[33].id = ds.groups[3].id
        save_dataset(ds, path)
        assert self._error(monkeypatch, path) == (
            f"{path}: line 35: group id {ds.groups[3].id!r} is already on line 5")
        read = chunks_seen[1][0]
        assert self._chunk_of(read, 5) < self._chunk_of(read, 35)

    def test_non_finite_feature_in_the_last_chunk_leaves_no_file(self, tmp_path, chunks_seen):
        ds = self._dataset()
        ds.groups[-1].faces[0, 1] = math.nan
        path = tmp_path / "d.jsonl"
        with pytest.raises(DataError, match=re.escape(
                f"{path}: group {ds.groups[-1].id}: features must be finite")):
            save_dataset(ds, path)
        assert not path.exists()
        (saved, _), = chunks_seen
        assert len(saved) > 2 and saved[-1][1] == len(ds.groups)

    @pytest.mark.parametrize("num_groups,forks", [(200, False), (500, False), (1000, True)])
    def test_bundled_sizes_fork_past_the_threshold(self, tmp_path, chunk_calls,
                                                   num_groups, forks):
        """With the default budgets, the bundled 200- and 500-group files
        save and load in this process, and 1,000 groups in workers."""
        spec = spec_from_mapping(parse_kv_file(_bundled("synthetic-default.gen")))
        path = tmp_path / "d.jsonl"
        save_dataset(generate_dataset(replace(spec, num_groups=num_groups)), path)
        assert len(load_dataset(path)) == num_groups
        (saved, save_ran), (read, load_ran) = chunk_calls
        assert len(saved) > 1 and len(read) > 1
        assert all(save_ran) == any(save_ran) == forks
        assert all(load_ran) == any(load_ran) == forks

    def test_replies_come_in_chunk_order(self, chunk_calls):
        """Chunk ``i`` runs on worker ``i mod 2``, and its result is yielded
        in its turn, though chunk 1 finishes before chunk 0."""
        count = datagen_metrics._IN_PROCESS_CHUNKS + 3
        with closing(datagen_metrics._chunk_map(_slow_first, range(count), count, "x")) as results:
            chunks, pids = zip(*results)
        assert chunks == tuple(range(count))
        assert len(set(pids)) == 2 and _TEST_PROCESS not in pids
        assert all(pid == pids[i % 2] for i, pid in enumerate(pids))

    @pytest.mark.parametrize("chunk_fn,error,message", [
        (_die, UalError, "a worker process died (killed, or out of memory)"),
        (_out_of_memory, MemoryError, "Unable to allocate 1.00 TiB"),
    ])
    def test_a_failed_worker_is_an_error(self, tmp_path, monkeypatch, chunks_seen,
                                         chunk_fn, error, message):
        ds = self._dataset()
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        monkeypatch.setattr(datagen_metrics, "_parse_groups", chunk_fn)
        with pytest.raises(error, match=re.escape(message)):
            load_dataset(path)
        assert not multiprocessing.active_children()
        monkeypatch.setattr(datagen_metrics, "_encode_groups", chunk_fn)
        with pytest.raises(error, match=re.escape(message)):
            save_dataset(ds, tmp_path / "new.jsonl")
        assert not (tmp_path / "new.jsonl").exists()


class TestMetrics:
    def test_reported_average_recall(self):
        # published per-class recalls average to the published "Ave" value
        assert macro_average([84.16, 75.18, 78.62]) == pytest.approx(79.32, abs=0.005)

    def test_reported_f_measures(self):
        pairs = [(87.57, 84.16, 85.83), (73.93, 75.18, 74.55), (76.08, 78.62, 77.33)]
        for p, r, expected in pairs:
            assert f_measure(p, r) == pytest.approx(expected, abs=0.01)

    def test_support_weighted_recall(self):
        value = support_weighted_average([84.16, 75.18, 78.62], [773, 728, 564])
        assert value == pytest.approx(79.52, abs=0.1)

    def test_perfect_predictions(self):
        y = [0, 1, 2, 0, 1, 2, 2]
        report = compute_metrics(y, y, 3)
        assert np.array_equal(report.confusion, np.diag([2, 2, 3]))
        assert np.all(report.recall == 1.0)
        assert np.all(report.precision == 1.0)
        assert np.all(report.f == 1.0)
        assert report.micro_accuracy == 1.0
        assert report.macro_recall == 1.0

    def test_confusion_layout_and_micro(self):
        y_true = [0, 0, 1, 1, 2, 2]
        y_pred = [0, 1, 1, 1, 0, 2]
        report = compute_metrics(y_true, y_pred, 3)
        assert np.array_equal(report.confusion, [[1, 1, 0], [0, 2, 0], [1, 0, 1]])
        assert np.array_equal(report.support, [2, 2, 2])
        assert report.micro_accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )

    def test_macro_recall_invariant_to_support_rebalancing(self):
        # duplicate every class-0 sample: per-class recalls unchanged
        y_true = [0, 0, 1, 2, 2, 2]
        y_pred = [0, 1, 1, 2, 2, 0]
        base = compute_metrics(y_true, y_pred, 3)
        rebal = compute_metrics(y_true + [0, 0], y_pred + [0, 1], 3)
        assert base.macro_recall == pytest.approx(rebal.macro_recall)

    def test_zero_support_class(self):
        report = compute_metrics([0, 0, 1], [0, 1, 1], 3)
        assert report.recall[2] == 0.0
        assert report.f[2] == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            compute_metrics([0, 3], [0, 0], 3)

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60)
    )
    @settings(max_examples=60, deadline=None)
    def test_f_identity_and_bounds(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        report = compute_metrics(y_true, y_pred, 3)
        for c in range(3):
            p, r, f = report.precision[c], report.recall[c], report.f[c]
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
            if p + r > 0:
                assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            else:
                assert f == 0.0
        assert np.array_equal(report.confusion.sum(axis=1), report.support)

    def test_format_table_percent(self):
        table = compute_metrics([0, 1, 2], [0, 1, 2], 3).format_table("t")
        assert "100.00" in table
