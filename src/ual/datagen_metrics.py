"""Group datasets: synthetic generation, file I/O, and evaluation metrics.

A group sample is a set of face feature vectors, a possibly-empty set of
object feature vectors, one scene feature vector, and a class label. The
synthetic generator plants one feature-space center per class and injects
the two noise phenomena the model is built to survive:

* occlusion surrogate: a ``corrupt_fraction`` of faces receive additive
  half-normal clutter scaled by ``corrupt_scale * spread``. Clutter is
  non-negative by design, mimicking spurious activation energy from an
  occluder, so corrupted inputs carry systematically larger feature mass.
* inconsistent-emotion surrogate: an ``inconsistent_fraction`` of faces and
  objects are drawn from a different class's center.

Files are line-delimited JSON: a header record followed by one record per
group (see ``SCHEMA``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numerics import SeededRng, _box_muller, _normal_words, _uniforms

SCHEMA = "ual-groups/v1"
DEFAULT_CLASS_NAMES = ("Positive", "Neutral", "Negative")


@dataclass
class GroupSample:
    """One group instance over precomputed features."""

    id: str
    label: int
    faces: np.ndarray  # (n_faces, face_dim), n_faces >= 1
    objects: np.ndarray  # (n_objects, object_dim), possibly empty
    scene: np.ndarray  # (scene_dim,)


@dataclass
class Dataset:
    face_dim: int
    object_dim: int
    scene_dim: int
    num_classes: int
    class_names: tuple[str, ...]
    groups: list[GroupSample] = field(default_factory=list)
    synthesis_stats: dict | None = None  # populated by generate_dataset only

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def dims(self) -> dict[str, int]:
        """The feature dims and the class count, which a model must match."""
        return {k: getattr(self, k) for k in ("face_dim", "object_dim", "scene_dim", "num_classes")}


@dataclass(frozen=True)
class SynthesisSpec:
    """Knobs for the synthetic generator. All randomness flows from ``seed``.

    ``partition`` enters the per-group stream keys but not the center draw,
    so train/val files generated from the same seed share class centers.
    """

    num_groups: int = 500
    group_size_min: int = 3
    group_size_max: int = 8
    face_dim: int = 64
    object_dim: int = 32
    scene_dim: int = 16
    num_classes: int = 3
    spread: float = 1.0
    corrupt_fraction: float = 0.3
    corrupt_scale: float = 10.0
    inconsistent_fraction: float = 0.2
    object_count_min: int = 0
    object_count_max: int = 3
    center_scale: float = 1.0
    seed: int = 0
    partition: str = "train"

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise DataError(f"{name} must be finite, got {v}")
        if self.num_groups < 1:
            raise DataError("num_groups must be >= 1")
        if not (2 <= self.group_size_min <= self.group_size_max):
            raise DataError("group_size_min and group_size_max must satisfy 2 <= min <= max")
        if not (0 <= self.object_count_min <= self.object_count_max):
            raise DataError("object_count_min and object_count_max must satisfy 0 <= min <= max")
        if min(self.face_dim, self.object_dim, self.scene_dim) < 1:
            raise DataError("face_dim, object_dim and scene_dim must be >= 1")
        if self.num_classes < 2:
            raise DataError("num_classes must be >= 2")
        for name in ("corrupt_fraction", "inconsistent_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DataError(f"{name} must lie in [0, 1], got {v}")
        if self.corrupt_scale < 1.0:
            raise DataError("corrupt_scale must be >= 1")
        if self.spread < 0.0 or self.center_scale <= 0.0:
            raise DataError("spread must be >= 0 and center_scale > 0")


def class_names_for(num_classes: int) -> tuple[str, ...]:
    if num_classes == len(DEFAULT_CLASS_NAMES):
        return DEFAULT_CLASS_NAMES
    return tuple(f"class{i}" for i in range(num_classes))


def generate_dataset(spec: SynthesisSpec) -> Dataset:
    """Generate a synthetic dataset; deterministic given the spec.

    The class centers come from the stream ``derive("centers")``: one
    ``normals((num_classes, dim))`` draw each for faces, objects and the
    scene, in that order. Group ``i`` owns the stream ``derive("group",
    partition, i)``. Its words are laid out as follows, where a draw of
    ``k`` normals takes ``nw(k) = 2 * ceil(k / 2)`` words and a "pick" is
    one uniform compared with a fraction:

    * the head, words 0-2: ``integer`` draws of the label, the face count
      and the object count;
    * per face: an inconsistency pick, plus one ``integer(num_classes - 1)``
      word for the other class when it hits; then ``nw(face_dim)`` words of
      noise; then a corruption pick, plus ``nw(face_dim)`` words of clutter
      when it hits;
    * per object: an inconsistency pick as for a face, then
      ``nw(object_dim)`` words of noise;
    * the scene: ``nw(scene_dim)`` words of noise.

    This layout is what one ``uniform``, ``integer`` or ``normals`` call per
    item would consume, and the values are those calls' values bit for bit.
    The body after the head is drawn as one block of words, as many as a
    group of its size can use. The picks are walked in order, and one
    Box-Muller pass covers the noise segments they select: each segment
    has an even length, so no Box-Muller pair straddles two of them.
    """
    spec.validate()
    root = SeededRng(spec.seed)
    centers = root.derive("centers")
    face_centers = spec.center_scale * centers.normals((spec.num_classes, spec.face_dim))
    object_centers = spec.center_scale * centers.normals((spec.num_classes, spec.object_dim))
    scene_centers = spec.center_scale * centers.normals((spec.num_classes, spec.scene_dim))

    n_other = spec.num_classes - 1
    nw_face, nw_object, nw_scene = (
        _normal_words(k) for k in (spec.face_dim, spec.object_dim, spec.scene_dim)
    )
    face_steps, object_steps = np.arange(nw_face), np.arange(nw_object)
    clutter_scale = spec.corrupt_scale * spec.spread
    stats = {"faces": 0, "objects": 0, "corrupted_faces": 0, "inconsistent_individuals": 0}
    groups: list[GroupSample] = []
    for i in range(spec.num_groups):
        g = root.derive("group", spec.partition, i)
        label = g.integer(spec.num_classes)
        n_faces = spec.group_size_min + g.integer(spec.group_size_max - spec.group_size_min + 1)
        n_objects = spec.object_count_min + g.integer(
            spec.object_count_max - spec.object_count_min + 1
        )
        words = g._raw(n_faces * (3 + 2 * nw_face) + n_objects * (2 + nw_object) + nw_scene)
        u = _uniforms(words).tolist()
        pos = 0  # the next unread word of the block
        bases: list[int] = []  # the class center of each face, then of each object
        # where each noise segment starts, by kind
        face_at: list[int] = []
        clutter_at: list[int] = []
        object_at: list[int] = []
        corrupted: list[int] = []
        for j in range(n_faces + n_objects):
            if u[pos] < spec.inconsistent_fraction:
                other = min(int(u[pos + 1] * n_other), n_other - 1)
                bases.append((label + 1 + other) % spec.num_classes)
                stats["inconsistent_individuals"] += 1
                pos += 2
            else:
                bases.append(label)
                pos += 1
            if j < n_faces:
                face_at.append(pos)
                pos += nw_face + 1
                if u[pos - 1] < spec.corrupt_fraction:
                    corrupted.append(j)
                    clutter_at.append(pos)
                    pos += nw_face
            else:
                object_at.append(pos)
                pos += nw_object
        idx = np.concatenate((
            np.add.outer(np.array(face_at + clutter_at, dtype=np.intp), face_steps).ravel(),
            np.add.outer(np.array(object_at, dtype=np.intp), object_steps).ravel(),
            np.arange(pos, pos + nw_scene),
        ))
        z = _box_muller(words[idx], idx.size)
        n_face_rows = n_faces + len(corrupted)
        face_z = z[: n_face_rows * nw_face].reshape(n_face_rows, nw_face)[:, : spec.face_dim]
        object_z = z[n_face_rows * nw_face : -nw_scene].reshape(n_objects, nw_object)
        rows = np.array(bases, dtype=np.intp)
        faces = face_centers[rows[:n_faces]] + spec.spread * face_z[:n_faces]
        if corrupted:
            faces[corrupted] = faces[corrupted] + clutter_scale * np.abs(face_z[n_faces:])
        objects = object_centers[rows[n_faces:]] + spec.spread * object_z[:, : spec.object_dim]
        scene = scene_centers[label] + spec.spread * z[-nw_scene:][: spec.scene_dim]
        stats["faces"] += n_faces
        stats["objects"] += n_objects
        stats["corrupted_faces"] += len(corrupted)
        groups.append(
            GroupSample(
                id=f"{spec.partition}-{i:05d}",
                label=label,
                faces=faces,
                objects=objects,
                scene=scene,
            )
        )
    return Dataset(
        face_dim=spec.face_dim,
        object_dim=spec.object_dim,
        scene_dim=spec.scene_dim,
        num_classes=spec.num_classes,
        class_names=class_names_for(spec.num_classes),
        groups=groups,
        synthesis_stats=stats,
    )


# ---------------------------------------------------------------------------
# file I/O


def open_data_file(path, mode: str = "r"):
    """``open(path, mode)``, with an OS failure (a missing file, a missing
    directory, no permission) raised as a :class:`DataError` naming ``path``."""
    try:
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror or exc}") from exc


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "schema": SCHEMA,
        "face_dim": dataset.face_dim,
        "object_dim": dataset.object_dim,
        "scene_dim": dataset.scene_dim,
        "num_classes": dataset.num_classes,
        "class_names": list(dataset.class_names),
    }
    # json.dumps would write NaN and Infinity, which no JSON reader (and
    # not load_dataset) accepts
    encode = json.JSONEncoder(allow_nan=False).encode
    with open_data_file(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for group in dataset.groups:
            record = {
                "id": group.id,
                "label": int(group.label),
                "faces": group.faces.tolist(),
                "objects": group.objects.tolist(),
                "scene": group.scene.tolist(),
            }
            try:
                line = encode(record)
            except ValueError as exc:
                fh.close()
                os.remove(path)  # leave no truncated dataset behind
                raise DataError(f"{path}: group {group.id}: features must be finite") from exc
            fh.write(line + "\n")


def _numbers(value: list, shape: tuple[int, ...], what: str, where: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``; an entry that is not a
    number, or is null, NaN or infinite, is rejected."""
    try:
        arr = np.array(value, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {what} must hold only numbers ({exc})") from exc
    if not np.isfinite(arr).all():  # json null becomes NaN here
        raise DataError(f"{where}: {what} must be finite")
    return arr


def _rows(value, dim: int, what: str, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise DataError(f"{where}: {what} must be a list of vectors")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise DataError(f"{where}: {what}[{i}] must have {dim} dims, got {got}")
    return _numbers(value, (len(value), dim), what, where)


# the header's integer fields and their least values, as a synthesis spec has them
_HEADER_INTS = {"face_dim": 1, "object_dim": 1, "scene_dim": 1, "num_classes": 2}


def _integer(value, what: str, least: int, where: str) -> int:
    """``value`` if it is a JSON integer (not a boolean) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DataError(f"{where}: {what} must be an integer >= {least}, got {json.dumps(value)}")
    return value


def _text_lines(path):
    """The lines of the file ``path``, read and decoded one at a time, and
    split as ``str.splitlines`` splits the whole text; a line that is not
    UTF-8 is a :class:`DataError` naming its line."""
    with open_data_file(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield from raw.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: not UTF-8 text: {exc}") from exc


def load_dataset(path) -> Dataset:
    """Read a dataset file one line at a time; a group id may appear once."""
    lines = enumerate(_text_lines(path), start=1)
    _, first = next(lines, (1, None))
    if first is None:
        raise DataError(f"{path}: line 1: empty dataset file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line 1: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise DataError(f"{path}: line 1: expected schema {SCHEMA!r}")
    try:
        dims = {key: _integer(header[key], key, least, f"{path}: line 1")
                for key, least in _HEADER_INTS.items()}
        names = header["class_names"]
    except KeyError as exc:
        raise DataError(f"{path}: line 1: incomplete header: {exc}") from exc
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise DataError(f"{path}: line 1: class_names must be a list of strings")
    dataset = Dataset(**dims, class_names=tuple(names))
    if len(dataset.class_names) != dataset.num_classes:
        raise DataError(
            f"{path}: line 1: {len(dataset.class_names)} class_names "
            f"for {dataset.num_classes} classes"
        )
    first_line: dict[str, int] = {}  # each group id's line
    lineno = 1
    for lineno, raw in lines:
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: bad record: {exc}") from exc
        where = f"{path}: line {lineno}"
        try:
            gid, label = rec["id"], _integer(rec["label"], "label", 0, where)
        except (KeyError, TypeError) as exc:
            raise DataError(f"{where}: missing id/label: {exc}") from exc
        if not isinstance(gid, str):
            raise DataError(f"{where}: id must be a string, got {json.dumps(gid)}")
        if gid in first_line:
            raise DataError(f"{where}: group id {gid!r} is already on line {first_line[gid]}")
        first_line[gid] = lineno
        if label >= dataset.num_classes:
            raise DataError(f"{where}: label {label} out of range for {dataset.num_classes} classes")
        faces = _rows(rec.get("faces"), dataset.face_dim, "faces", where)
        if faces.shape[0] < 1:
            raise DataError(f"{where}: a group needs at least 1 face")
        objects = _rows(rec.get("objects", []), dataset.object_dim, "objects", where)
        scene = rec.get("scene")
        if not isinstance(scene, list) or len(scene) != dataset.scene_dim:
            raise DataError(f"{where}: scene must have {dataset.scene_dim} dims")
        scene = _numbers(scene, (dataset.scene_dim,), "scene", where)
        dataset.groups.append(
            GroupSample(id=gid, label=label, faces=faces, objects=objects, scene=scene)
        )
    if not dataset.groups:
        raise DataError(f"{path}: line {lineno + 1}: expected a group record, got the end")
    return dataset


# ---------------------------------------------------------------------------
# metrics


def f_measure(precision: float, recall: float) -> float:
    """2PR / (P + R), defined as 0 when P + R == 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_average(values: Sequence[float]) -> float:
    """Unweighted mean over classes (the "Ave" columns)."""
    if len(values) == 0:
        raise ValueError("macro_average of an empty sequence")
    return float(np.mean(values))


@dataclass
class MetricsReport:
    """Per-class recall/precision/F plus macro ("Ave") and micro aggregates.

    ``micro_accuracy`` is the support-weighted recall, i.e. plain accuracy
    (trace of the confusion matrix over its total); it is reported alongside
    the macro averages rather than instead of them.
    """

    class_names: tuple[str, ...]
    confusion: np.ndarray  # (C, C), rows = true class, cols = predicted
    recall: np.ndarray
    precision: np.ndarray
    f: np.ndarray
    support: np.ndarray
    macro_recall: float
    macro_precision: float
    macro_f: float
    micro_accuracy: float

    def to_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "recall": [float(v) for v in self.recall],
            "precision": [float(v) for v in self.precision],
            "f_measure": [float(v) for v in self.f],
            "support": [int(v) for v in self.support],
            "macro_recall": float(self.macro_recall),
            "macro_precision": float(self.macro_precision),
            "macro_f": float(self.macro_f),
            "micro_accuracy": float(self.micro_accuracy),
        }

    def format_table(self, title: str = "") -> str:
        """Human-readable table; values in percent with two decimals."""
        lines = []
        if title:
            lines.append(title)
        header = f"{'class':>10} {'recall':>8} {'precision':>10} {'F':>8} {'support':>8}"
        lines.append(header)
        for i, name in enumerate(self.class_names):
            lines.append(
                f"{name:>10} {100 * self.recall[i]:8.2f} {100 * self.precision[i]:10.2f} "
                f"{100 * self.f[i]:8.2f} {int(self.support[i]):8d}"
            )
        lines.append(
            f"{'Ave':>10} {100 * self.macro_recall:8.2f} {100 * self.macro_precision:10.2f} "
            f"{100 * self.macro_f:8.2f} {int(self.support.sum()):8d}"
        )
        lines.append(f"{'micro':>10} {100 * self.micro_accuracy:8.2f}")
        return "\n".join(lines)


def compute_metrics(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    num_classes: int,
    class_names: Sequence[str] | None = None,
) -> MetricsReport:
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1 or t.shape[0] == 0:
        raise ShapeError("labels must be equal-length nonempty 1-D sequences")
    if t.min() < 0 or t.max() >= num_classes or p.min() < 0 or p.max() >= num_classes:
        raise DataError(f"labels out of range for {num_classes} classes")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    diag = np.diag(confusion).astype(np.float64)
    recall = np.divide(diag, support, out=np.zeros(num_classes), where=support > 0)
    precision = np.divide(diag, predicted, out=np.zeros(num_classes), where=predicted > 0)
    f = np.array([f_measure(precision[c], recall[c]) for c in range(num_classes)])
    names = tuple(class_names) if class_names is not None else class_names_for(num_classes)
    return MetricsReport(
        class_names=names,
        confusion=confusion,
        recall=recall,
        precision=precision,
        f=f,
        support=support,
        macro_recall=macro_average(recall),
        macro_precision=macro_average(precision),
        macro_f=macro_average(f),
        micro_accuracy=float(diag.sum() / t.shape[0]),
    )


def settings_from_mapping(kind, mapping: dict, source: str):
    """A validated ``kind`` (:class:`SynthesisSpec` or ``TrainingConfig``) from
    a ``{key: text}`` mapping. Each value is parsed to the type of its field's
    default (a bool is ``true`` or ``false``, in any case); an unknown key or
    a bad value is a :class:`ConfigError` naming ``source`` and the key."""
    base = kind()
    updates = {}
    for key, raw in mapping.items():
        if key not in base.__dataclass_fields__:
            raise ConfigError(f"{source}: unknown key {key!r}")
        field_type = type(getattr(base, key))
        try:
            if field_type is bool:
                text = str(raw).strip().lower()
                if text not in ("true", "false"):
                    raise ValueError(f"expected true/false, got {raw!r}")
                updates[key] = text == "true"
            else:
                updates[key] = field_type(str(raw))
        except ValueError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    out = replace(base, **updates)
    out.validate()
    return out


def spec_from_mapping(mapping: dict, source: str = "spec") -> SynthesisSpec:
    """Build a SynthesisSpec from a {key: string} mapping; see :func:`settings_from_mapping`.
    The package calls that directly; ``perfbench/workloads.py`` calls this."""
    return settings_from_mapping(SynthesisSpec, mapping, source)
