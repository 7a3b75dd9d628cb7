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
group (see ``SCHEMA``). Each line is decoded by ``numerics._decode`` and
parsed by ``parse_json``, so a line that is not UTF-8 or not JSON is a
``DataError`` naming it.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import workers
from .errors import ConfigError, DataError
from .numerics import SeededRng, _box_muller, _normal_words, _uniforms, _word_at, _words
from .numerics import _decode, derive_seeds, open_data_file, parse_json

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


# The header's integer fields, in its order, and their least values, as a spec has them:
# Dataset.dims, so the header too, reads its keys; the header and manifest checks read its values
_HEADER_INTS = {"face_dim": 1, "object_dim": 1, "scene_dim": 1, "num_classes": 2}


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
        return {key: getattr(self, key) for key in _HEADER_INTS}


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
        check_bounds(self, dict(num_groups=1, face_dim=1, object_dim=1, scene_dim=1,
                                num_classes=2, corrupt_scale=1, spread=0))
        if not (2 <= self.group_size_min <= self.group_size_max):
            raise ConfigError("group_size_min and group_size_max must satisfy 2 <= min <= max")
        if not (0 <= self.object_count_min <= self.object_count_max):
            raise ConfigError("object_count_min and object_count_max must satisfy 0 <= min <= max")
        for name in ("corrupt_fraction", "inconsistent_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.center_scale <= 0.0:
            raise ConfigError("center_scale must be > 0")


def class_names_for(num_classes: int) -> tuple[str, ...]:
    if num_classes == len(DEFAULT_CLASS_NAMES):
        return DEFAULT_CLASS_NAMES
    return tuple(f"class{i}" for i in range(num_classes))


# The most stream words one chunk of generate_dataset may read: a chunk holds
# as many groups as fit when each reads all the words its spec allows, and at
# least one, so the working set does not grow with num_groups
_CHUNK_WORDS = 1 << 17


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
    A word is a pure function of its stream's seed and its index, so the
    groups are made a chunk at a time, each word read at its index. A chunk
    holds as many groups as fit in ``_CHUNK_WORDS`` words when each uses all
    the words its spec allows, and at least one. Per chunk there is one
    ``derive_seeds`` call, one draw of every group's three head words, one
    walk over the item slots (face 0, face 1, ..., then the objects), and
    one Box-Muller pass. Each step of the walk reads every group's picks for
    one slot at once and moves each group past the words its picks use. The
    Box-Muller pass covers the noise segments the walk found: each segment
    has an even length, so no Box-Muller pair straddles two of them. A
    group's faces, objects and scene are views into its chunk's arrays.
    """
    spec.validate()
    root = SeededRng(spec.seed)
    rng = root.derive("centers")
    centers = tuple(spec.center_scale * rng.normals((spec.num_classes, dim))
                    for dim in (spec.face_dim, spec.object_dim, spec.scene_dim))
    most_words = (spec.group_size_max * (3 + 2 * _normal_words(spec.face_dim))
                  + spec.object_count_max * (2 + _normal_words(spec.object_dim))
                  + _normal_words(spec.scene_dim))
    step = max(1, _CHUNK_WORDS // most_words)
    stats = dict.fromkeys(("faces", "objects", "corrupted_faces", "inconsistent_individuals"), 0)
    groups: list[GroupSample] = []
    for lo in range(0, spec.num_groups, step):
        groups += _generate_chunk(spec, root, range(lo, min(lo + step, spec.num_groups)),
                                  centers, stats)
    return Dataset(**{key: getattr(spec, key) for key in _HEADER_INTS}, groups=groups,
                   class_names=class_names_for(spec.num_classes), synthesis_stats=stats)


def _generate_chunk(spec: SynthesisSpec, root: SeededRng, ids: range,
                    centers: tuple[np.ndarray, ...], stats: dict) -> list[GroupSample]:
    """The groups ``ids`` of :func:`generate_dataset`, whose counts are added to ``stats``."""
    face_centers, object_centers, scene_centers = centers
    nw_face, nw_object, nw_scene = (
        _normal_words(k) for k in (spec.face_dim, spec.object_dim, spec.scene_dim)
    )
    seeds = derive_seeds(root, "group", spec.partition, np.array(ids))[:, None]
    spans = np.array([spec.num_classes, spec.group_size_max - spec.group_size_min + 1,
                      spec.object_count_max - spec.object_count_min + 1])
    head = np.minimum((_uniforms(_words(seeds, 0, 3)) * spans).astype(np.intp), spans - 1)
    label = head[:, 0]
    n_faces = spec.group_size_min + head[:, 1]
    n_objects = spec.object_count_min + head[:, 2]
    n_slots = n_faces + n_objects

    # the walk: each slot's class center, first noise word and corruption
    n_other = spec.num_classes - 1
    base = np.empty((len(ids), int(n_slots.max())), dtype=np.intp)
    noise_at = np.empty_like(base)
    corrupt = np.zeros(base.shape, dtype=bool)
    at = np.full(len(ids), 3)  # each group's next unread word
    # the words of a slot from its inconsistency pick on: that pick, the
    # other class, and the corruption pick after a miss and after a hit
    reach = np.array([0, 1, nw_face + 1, nw_face + 2])
    inconsistent = 0
    for j in range(base.shape[1]):
        u = _uniforms(_word_at(seeds, at[:, None] + reach))
        hit = u[:, 0] < spec.inconsistent_fraction
        other = np.minimum((u[:, 1] * n_other).astype(np.intp), n_other - 1)
        base[:, j] = np.where(hit, (label + 1 + other) % spec.num_classes, label)
        noise_at[:, j] = start = at + 1 + hit
        face = j < n_faces
        corrupt[:, j] = face & (np.where(hit, u[:, 3], u[:, 2]) < spec.corrupt_fraction)
        live = j < n_slots
        inconsistent += int(np.count_nonzero(hit & live))
        used = np.where(face, nw_face + 1 + nw_face * corrupt[:, j], nw_object)
        at = np.where(live, start + used, at)

    slots = np.arange(base.shape[1])
    face_slots = slots < n_faces[:, None]
    object_slots = ~face_slots & (slots < n_slots[:, None])
    corrupted = corrupt[face_slots]
    face_owner = np.repeat(np.arange(len(ids)), n_faces)
    # the noise segments of each kind, as (group, first word) pairs and a
    # length; faces and their clutter are one kind
    face_at = noise_at[face_slots]
    kinds = (
        (np.concatenate((face_owner, face_owner[corrupted])),
         np.concatenate((face_at, face_at[corrupted] + nw_face + 1)), nw_face),
        (np.repeat(np.arange(len(ids)), n_objects), noise_at[object_slots], nw_object),
        (np.arange(len(ids)), at, nw_scene),
    )
    words = np.concatenate([_word_at(seeds[owner], first[:, None] + np.arange(nw)).ravel()
                            for owner, first, nw in kinds])
    z = _box_muller(words, words.size)
    noise = []
    for owner, _, nw in kinds:
        noise.append(z[: owner.size * nw].reshape(owner.size, nw))
        z = z[owner.size * nw :]
    n_rows = face_owner.size
    faces = face_centers[base[face_slots]] + spec.spread * noise[0][:n_rows, : spec.face_dim]
    clutter = np.abs(noise[0][n_rows:, : spec.face_dim])
    faces[corrupted] += spec.corrupt_scale * spec.spread * clutter
    objects = object_centers[base[object_slots]] + spec.spread * noise[1][:, : spec.object_dim]
    scenes = scene_centers[label] + spec.spread * noise[2][:, : spec.scene_dim]

    stats["faces"] += n_rows
    stats["objects"] += objects.shape[0]
    stats["corrupted_faces"] += int(np.count_nonzero(corrupted))
    stats["inconsistent_individuals"] += inconsistent
    return _views([f"{spec.partition}-{i:05d}" for i in ids], label.tolist(), n_faces.tolist(),
                  n_objects.tolist(), faces, objects, scenes)


def _views(ids, labels, n_faces, n_objects, faces, objects, scenes) -> list[GroupSample]:
    """One group per id, in order, whose faces, objects and scene are views into the
    flat arrays of the groups' rows in group order, ``n_faces`` and ``n_objects`` of each."""
    groups = []
    f = o = 0  # the group's first face and object row
    for gid, label, nf, no, scene in zip(ids, labels, n_faces, n_objects, scenes):
        groups.append(GroupSample(id=gid, label=label, faces=faces[f : f + nf],
                                  objects=objects[o : o + no], scene=scene))
        f, o = f + nf, o + no
    return groups


# ---------------------------------------------------------------------------
# file I/O


# The most feature values one chunk of save_dataset encodes, and the most bytes
# of group lines one chunk of load_dataset reads. A dataset of up to one budget
# is one chunk; a larger one is cut into chunks of even size. Measured on 2
# CPUs: larger chunks raise the peak memory of the parent, which holds the
# chunks in flight, and 512 KiB load chunks made 500 bundled groups load
# slower than one process did
_SAVE_FLOATS = 1 << 15
_LOAD_BYTES = 1 << 20


def _encode_groups(path, groups: list[GroupSample], run: tuple[int, int]) -> bytes:
    """The lines of the groups ``groups[lo:hi]`` of ``run = (lo, hi)``, one
    record each, as ASCII (``json`` escapes every other character)."""
    # json.dumps would write NaN and Infinity, which no JSON reader (and
    # not load_dataset) accepts
    encode = json.JSONEncoder(allow_nan=False).encode
    lines = []
    for group in groups[slice(*run)]:
        record = {
            "id": group.id,
            "label": int(group.label),
            "faces": group.faces.tolist(),
            "objects": group.objects.tolist(),
            "scene": group.scene.tolist(),
        }
        try:
            lines.append(encode(record) + "\n")
        except ValueError as exc:
            raise DataError(f"{path}: group {group.id}: features must be finite") from exc
    return "".join(lines).encode()


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` to ``path``: the header, then one line per group.

    The groups are cut into runs of about ``_SAVE_FLOATS`` feature values
    each, as evenly as they allow; :func:`~ual.workers.chunk_map` encodes the
    runs, in this process or in workers by their count, and their text is
    written in order. A forked worker has the groups already, so it is sent
    a run's bounds only. A failure of any kind is raised through
    :func:`open_data_file`, which removes the file, so that no truncated
    dataset is left behind.
    """
    header = {"schema": SCHEMA, **dataset.dims, "class_names": list(dataset.class_names)}
    groups = dataset.groups
    ends = np.cumsum([0, *(g.faces.size + g.objects.size + g.scene.size for g in groups)])
    runs = max(1, math.ceil(ends[-1] / _SAVE_FLOATS))
    cuts = np.unique(np.searchsorted(ends, np.linspace(0, ends[-1], runs + 1))).tolist()
    encode = partial(_encode_groups, path, groups)
    blocks = workers.chunk_map(encode, zip(cuts, cuts[1:]), len(cuts) - 1, path)
    with open_data_file(path, "wb") as fh, closing(blocks):
        fh.write(json.dumps(header).encode() + b"\n")
        for block in blocks:
            fh.write(block)


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


def _integer(value, what: str, least: int, where: str) -> int:
    """``value`` if it is a JSON integer (not a boolean) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DataError(f"{where}: {what} must be an integer >= {least}, got {json.dumps(value)}")
    return value


def _parse_groups(path, dims: dict, chunk: tuple[int, bytes]):
    """The group records of ``chunk``, whole lines of the file ``path`` from
    line ``chunk[0]`` on, each decoded, parsed and checked as
    :func:`load_dataset` says, up to the first error.

    Returns the ids and their lines (the id of the failing record too, if it
    got past its id check), the chunk's last line, the labels, each group's
    face and object counts, and the faces, objects and scenes, each kind as
    one array; and the error, or None.
    """
    first, block = chunk
    ids, id_lines, labels, faces, objects, scenes = [], [], [], [], [], []
    try:
        for lineno, raw in enumerate(io.BytesIO(block), start=first):
            text = _decode(raw, path, lineno).removesuffix("\n").removesuffix("\r")
            if not text.strip():
                continue
            rec = parse_json(text, path, lineno)
            where = f"{path}: line {lineno}"
            try:
                gid, label = rec["id"], _integer(rec["label"], "label", 0, where)
            except (KeyError, TypeError) as exc:
                raise DataError(f"{where}: missing id/label: {exc}") from exc
            if not isinstance(gid, str):
                raise DataError(f"{where}: id must be a string, got {json.dumps(gid)}")
            ids.append(gid)
            id_lines.append(lineno)
            if label >= dims["num_classes"]:
                raise DataError(f"{where}: label {label} out of range for "
                                f"{dims['num_classes']} classes")
            group_faces = _rows(rec.get("faces"), dims["face_dim"], "faces", where)
            if group_faces.shape[0] < 1:
                raise DataError(f"{where}: a group needs at least 1 face")
            objects.append(_rows(rec.get("objects", []), dims["object_dim"], "objects", where))
            scene = rec.get("scene")
            if not isinstance(scene, list) or len(scene) != dims["scene_dim"]:
                raise DataError(f"{where}: scene must have {dims['scene_dim']} dims")
            scenes.append(_numbers(scene, (dims["scene_dim"],), "scene", where))
            faces.append(group_faces)
            labels.append(label)
    except DataError as exc:
        return ids, id_lines, lineno, None, exc
    arrays = (labels, [len(f) for f in faces], [len(o) for o in objects],
              *(np.concatenate(rows) if rows else np.empty((0, dims[dim]))
                for rows, dim in ((faces, "face_dim"), (objects, "object_dim"))),
              np.array(scenes).reshape(len(scenes), dims["scene_dim"]))
    return ids, id_lines, lineno, arrays, None


def _line_chunks(fh, first: int, size: int):
    """``(line number, whole lines)`` chunks of the binary file ``fh``, from
    line ``first`` on, of about ``size`` bytes each."""
    while block := fh.read(size):
        block += fh.readline()
        yield first, block
        first += block.count(b"\n")


def load_dataset(path) -> Dataset:
    """Read a dataset file; a group id may appear once.

    The header is read and checked here. The group lines are read in chunks
    of even size, at most about ``_LOAD_BYTES`` bytes each, and each chunk is
    decoded, parsed and checked by :func:`_parse_groups` through
    :func:`~ual.workers.chunk_map`, in this process or in workers by their
    count (one for a pipe). Here, in line order, each id is checked against
    the ids before it, and the first error in the file is raised. A group's
    faces, objects and scene are views into its chunk's arrays.
    """
    with open_data_file(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: line 1: empty dataset file")
        header = parse_json(_decode(first, path).removesuffix("\n").removesuffix("\r"), path)
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
        # chunks of even size, each at most about the budget; a pipe's size reads as 0
        rest = os.fstat(fh.fileno()).st_size - len(first)
        count = max(1, math.ceil(rest / _LOAD_BYTES))
        chunks = _line_chunks(fh, 2, math.ceil(rest / count) if rest > 0 else _LOAD_BYTES)
        first_line: dict[str, int] = {}  # each group id's line
        lineno = 1
        parse = partial(_parse_groups, path, dims)
        with closing(workers.chunk_map(parse, chunks, count, path)) as parsed:
            for ids, id_lines, lineno, arrays, error in parsed:
                for gid, line in zip(ids, id_lines):
                    if gid in first_line:
                        raise DataError(f"{path}: line {line}: group id {gid!r} is already "
                                        f"on line {first_line[gid]}")
                    first_line[gid] = line
                if error is not None:
                    raise error
                dataset.groups += _views(ids, *arrays)
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
    """Metrics of equal-length, nonempty ``y_true`` and ``y_pred`` label sequences."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
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


def check_bounds(settings, least: dict) -> None:
    """Refuse a non-finite float field, then a field below its ``least`` entry, in order."""
    for name in settings.__dataclass_fields__:
        v = getattr(settings, name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
    for name, floor in least.items():
        if getattr(settings, name) < floor:
            raise ConfigError(f"{name} must be >= {floor}")


def settings_from_mapping(kind, mapping: dict, source: str):
    """A validated ``kind`` (:class:`SynthesisSpec` or ``TrainingConfig``) from
    a ``{key: text}`` mapping. Each value is parsed to the type of its field's
    default (a bool is ``true`` or ``false``, in any case); an unknown key or
    a bad value, or a value out of range, is a :class:`ConfigError` naming
    ``source`` and the key."""
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
    try:
        out.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return out


def spec_from_mapping(mapping: dict, source: str = "spec") -> SynthesisSpec:
    """Build a SynthesisSpec from a {key: string} mapping; see :func:`settings_from_mapping`.
    The package calls that directly; ``perfbench/workloads.py`` calls this."""
    return settings_from_mapping(SynthesisSpec, mapping, source)
