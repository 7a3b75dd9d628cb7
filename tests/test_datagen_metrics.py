import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual.datagen_metrics import (
    SynthesisSpec,
    compute_metrics,
    f_measure,
    generate_dataset,
    load_dataset,
    macro_average,
    save_dataset,
    spec_from_mapping,
)
from ual.errors import DataError


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


class TestGenerateDataset:
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

    def test_spec_from_mapping_rejects_unknown_field(self):
        with pytest.raises(DataError, match="unknown field"):
            spec_from_mapping({"num_gruops": "5"})


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

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"schema": "other/v9"}\n')
        with pytest.raises(DataError, match="schema"):
            load_dataset(path)


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
