"""Three-branch model: training, inference, and score-level fusion.

The face branch embeds each face as a latent Gaussian, draws stochastic
samples, down-weights uncertain faces via importance scalars, aggregates the
group feature, and classifies it. The object branch embeds each object as a
latent Gaussian, classifies ``N`` draws of each object with
:func:`~ual.gaussian_embedding.mc_predict`, and averages the objects' mean
probability vectors. The scene branch is a plain affine classifier on the
scene feature. Branches are trained independently (face with Adam, object
and scene with SGD) and combined at prediction time by a proportional-weighted
fusion of their class scores.

Ablations mirror the model variants used for analysis:

* ``full``         UAL sampling/weighting plus quality filtering
* ``no-fiqe``      UAL without quality filtering
* ``no-ual``       deterministic face means, quality filtering kept
* ``no-ual-fiqe``  deterministic face means only (the plain baseline)

Ablation switches apply to the face branch; the object and scene branches
are unaffected.

RNG streams are derived, not shared: training noise for face ``j`` of group
``g`` in epoch ``e`` comes from the stream keyed ``(seed, branch, e, g, j)``,
inference noise from ``(seed, branch, g, r)`` where ``r`` is the
individual's dense rank under a content sort. Rank-keyed streams make
inference invariant to the order individuals are listed in, and a rerun
with the same seed and inputs gives byte-identical models, loss logs and
reports. The streams of many individuals and their noise blocks are derived
and drawn in one call (:func:`~ual.numerics.derive_seeds`,
:func:`~ual.numerics.block_normals`), bit-identical to one stream at a time.
Inference noise has no epoch in its key, so :func:`train_model` keeps the
validation noise in a :class:`NoiseCache` for the length of the run: each
step's draws (:class:`_KeptDraws`) keep every row they draw, and every later
pass gathers it. The cache is kept only up to ``_NOISE_CACHE_BYTES`` (16 MiB;
the bundled 200-group val set needs 11.3 MB). Without it, as in ``ual eval``,
each pass draws its own noise (:class:`_Draws`), MC noise only for the faces
the filter kept.

Training and inference run groups as stacked arrays: training one
mini-batch at a time (:meth:`Trainer._batch_loss`), :func:`evaluate_dataset`
one step of ``_INFER_STEP`` groups at a time. Per step, each branch returns
``(G, E, C)`` probabilities for ``E`` sweep entries and flat per-individual
arrays (:func:`branch_infer`), :func:`fuse_predictions` fuses the step's
stacks in one call, and the report's records are built from these arrays
only when asked for, with :func:`predict_group` as each group's view of the
step's fusion.

A step's (or batch's) individuals are stored one way, in training and
inference alike: as flat rows in group order. Features, Gaussians, noise and
per-individual results are ``(F, ...)`` arrays, and the faces the quality
filter keeps are a sorted ``(K,)`` index into them; all faces are scored in
one quality-filter call. Groups are bucketed by the count that sets the
matmul shapes: faces for the faces' Gaussians, kept faces for the face loss
and kernel, objects for the object loss and draws; a batch's scenes are one
stack. Each bucket gathers its groups' rows by a ``(G, n)`` index
(:func:`_bucket_rows`) into contiguous ``(G, n, ...)`` stacks, and each
branch runs once per bucket on that leading stack axis. The flat rows are
storage only: every matmul runs on a stack.

Inference serves a sweep of sample counts (``sample_counts``, default
``(config.mc_samples,)``) in one pass, one result per entry, in order: per
bucket, one ``(G, k, M, d)`` noise block at the largest count ``M`` and the
face kernel on all ``M`` rounds; the entry for ``N`` averages the first
``N`` rounds, which equal an ``N``-sample block
(:func:`~ual.numerics.block_normals`), and runs the object ``mc_predict`` on
the first ``N`` draws (a matmul over ``M`` rows may take another BLAS path
than over ``N``).

Every entry is bit-identical to a one-count call, and every group's
predictions, like the models and loss logs, to a call on that group alone,
a stack of one, because the stacked arithmetic keeps these rules:

* Groups stack on a leading axis into one ``np.matmul``, which makes one
  BLAS call per item, equal to the 2-D call on that group. Rows of
  different groups are never concatenated into one 2-D matmul (a larger
  matrix takes other BLAS paths, and the last bits change), and
  ``einsum`` is not used (it sums in another order).
* A per-group vector goes through an affine map as a one-row matrix ``X[:, None]``;
  a matrix-vector product ``A @ v`` is ``np.matmul(A, V[..., None])[..., 0]``.
* A whole-array sum becomes ``reshape(G, -1).sum(-1)``; every other
  reduction runs along the same axis, in the same order, as in a stack of
  one. Noise blocks are C-ordered ``(G, M, k, d)``, so a group's first ``N``
  rounds have the strides of its own ``(1, N, k, d)`` block.
* The batch gradient, ``sum of (w / total) * g`` in batch order, is
  ``np.add.reduce`` along axis 0 of the scaled per-group gradients stacked
  in batch order.
* The embedding heads' input gradients are not computed: the inputs are data.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datagen_metrics import Dataset, GroupSample, MetricsReport, compute_metrics
from .datagen_metrics import settings_from_mapping
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gaussian_embedding import EmbeddingHead, mc_predict
from .losses import LossBreakdown, kl_loss, rank_loss, total_face_loss, total_object_loss
from .numerics import (
    AffineMap,
    ParameterStore,
    SeededRng,
    block_normals,
    check_dims,
    derive_seeds,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
)
from .quality_filter import filter_faces
from .uncertainty_scoring import SCORE_FLOOR, high_low_partition, uncertainty_kernel

log = logging.getLogger(__name__)

BRANCH_TAGS = ("face", "object", "scene")
FUSION_STRATEGIES = ("pwfs", "equal", "global-priority", "face-priority")
ABLATIONS = ("full", "no-ual", "no-fiqe", "no-ual-fiqe")

# Fixed weight ratios for the non-adaptive fusion strategies: global priority
# gives the scene twice the combined weight of face+object; face priority
# gives the face twice the weight of each other branch.
_FUSION_PRIORS = {
    "equal": {"face": 1.0, "object": 1.0, "scene": 1.0},
    "global-priority": {"face": 1.0, "object": 1.0, "scene": 4.0},
    "face-priority": {"face": 2.0, "object": 1.0, "scene": 1.0},
}


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for training and inference.

    Defaults are the trained configuration: 512-d latent embeddings,
    lambda1 0.1, KL weight 1e-4, rank weight 1.0 with ratio 0.5 and margin
    0.2, reconstruction weight 0.01, quality threshold 0.3, batch size 64,
    100 epochs, Adam 1e-4 on the face branch and SGD 1e-4 elsewhere. The
    quality-filter sample count (8) and Monte-Carlo count (25) are artifact
    defaults, both exposed here.
    """

    latent_dim: int = 512
    lambda1: float = 0.1
    lambda2: float = 1e-4
    lambda3: float = 1.0
    lambda4: float = 0.01
    beta: float = 0.5
    delta1: float = 0.2
    delta2: float = 0.3
    fiqe_samples: int = 8
    mc_samples: int = 25
    face_lr: float = 1e-4
    object_lr: float = 1e-4
    scene_lr: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    fiqe_apply: str = "both"  # both | train | eval | off
    select_best: bool = False

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        for name, least in (("latent_dim", 1), ("lambda1", 0), ("lambda2", 0), ("lambda3", 0),
                            ("lambda4", 0), ("face_lr", 0), ("object_lr", 0), ("scene_lr", 0),
                            ("delta1", 0), ("fiqe_samples", 2), ("mc_samples", 1),
                            ("batch_size", 1), ("epochs", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.lambda1 > 1.0:
            raise ConfigError("lambda1 must lie in [0, 1]")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if not (0.0 < self.delta2 < 1.0):
            raise ConfigError("delta2 must lie in (0, 1)")
        if self.fiqe_apply not in ("both", "train", "eval", "off"):
            raise ConfigError(f"fiqe_apply must be both/train/eval/off, got {self.fiqe_apply!r}")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def config_from_mapping(mapping: dict, source: str = "config") -> TrainingConfig:
    """Build a TrainingConfig from a {key: string} mapping; see :func:`settings_from_mapping`.
    The package calls that directly; ``perfbench/workloads.py`` calls this."""
    return settings_from_mapping(TrainingConfig, mapping, source)


@dataclass
class BranchPrediction:
    """One branch's class probabilities, ``(..., C)``, and whether it saw
    the group (``present``: a bool, or one per group of a step)."""

    branch: str
    probs: np.ndarray
    present: bool | np.ndarray = True


@dataclass
class FusionResult:
    probs: np.ndarray
    weights: dict[str, float]


def _content_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense rank of each row under lexicographic sort; equal rows share a rank.

    Feature rows rarely tie in their first value, and then a stable sort of
    that column is the lexicographic order; ``np.lexsort`` over every column
    costs one sort pass per column, so it runs only on a tie.
    """
    order = np.argsort(rows[:, 0], kind="stable")
    lead = rows[order, 0]
    if (lead[1:] == lead[:-1]).any():
        order = np.lexsort(rows.T[::-1])  # column 0 is the primary key
    ordered = rows[order]
    ranks = np.zeros(rows.shape[0], dtype=np.intp)
    ranks[order[1:]] = np.cumsum((ordered[1:] != ordered[:-1]).any(axis=1))
    return ranks


def _labels(x: np.ndarray, label, axes: tuple) -> np.ndarray:
    """``label`` as an array. A branch loss takes a stack ``x`` with the axes
    ``axes`` names and one label per group; anything else, such as one
    unstacked group, raises :class:`ShapeError` naming the shapes it needs."""
    labels = np.asarray(label)
    if x.ndim != len(axes) or labels.shape != x.shape[:1]:
        need = ", ".join(map(str, axes))
        raise ShapeError(f"need a ({need}) stack and (G,) labels, got {x.shape}, {labels.shape}")
    return labels


# ---------------------------------------------------------------------------
# face branch


class _GaussianBranch:
    """A Gaussian embedding head (``<tag>.embed``) and a latent classifier."""

    tag: str

    def __init__(self, in_dim: int, latent_dim: int, num_classes: int):
        self.in_dim = int(in_dim)
        self.latent_dim = int(latent_dim)
        self.num_classes = int(num_classes)
        self.head = EmbeddingHead(f"{self.tag}.embed", in_dim, latent_dim)
        self.classifier = AffineMap(f"{self.tag}.classifier", latent_dim, num_classes)

    def register(self, store: ParameterStore, rng: SeededRng) -> None:
        self.head.register(store, rng.derive("embed"))
        self.classifier.register(store, rng.derive("classifier"))

    def individuals(self, groups: Sequence[GroupSample]) -> tuple[np.ndarray, list[int]]:
        """The ``(F, in_dim)`` features of the individuals (faces or objects)
        of ``groups``, flat in group order, and each group's count."""
        per_group = [getattr(group, f"{self.tag}s") for group in groups]
        for group, x in zip(groups, per_group):
            if x.shape[1] != self.in_dim:
                raise ShapeError(f"group {group.id}: {self.tag} dim {x.shape[1]} != model dim "
                                 f"{self.in_dim}")
        return np.concatenate(per_group), [x.shape[0] for x in per_group]

    def gaussians(
        self, store: ParameterStore, groups: Sequence[GroupSample]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``mu`` and ``sigma`` of the individuals of ``groups``, row
        ``i`` for row ``i`` of :meth:`individuals`, from one head pass on the
        ``(G, n, in_dim)`` stack of each bucket of equally many. A sigma that
        is not positive (an underflow) or not finite, or a mu that is not
        finite, raises :class:`NumericError` naming the first such individual."""
        x, sizes = self.individuals(groups)
        mu = np.empty((len(x), self.latent_dim))
        sigma = np.empty_like(mu)
        for _, rows in _bucket_rows(sizes):
            mu[rows], _, sigma[rows] = self.head.forward(store, x[rows])
        bad = np.flatnonzero(~np.all((sigma > 0.0) & np.isfinite(sigma) & np.isfinite(mu), -1))
        if bad.size:
            g = int(np.searchsorted(np.cumsum(sizes), bad[0], side="right"))
            where = f"{groups[g].id}/{self.tag}{bad[0] - sum(sizes[:g])}"
            raise NumericError(f"sigma must be strictly positive and finite, and mu finite "
                               f"(source {where!r})")
        return mu, sigma


class FaceBranch(_GaussianBranch):
    tag = "face"

    # -- training ----------------------------------------------------------

    def loss_and_grads(
        self,
        store: ParameterStore,
        faces: np.ndarray,
        label,
        eps: np.ndarray,
        cfg: TrainingConfig,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Full uncertainty-aware loss of ``G`` groups of ``n`` faces, with
        analytic gradients: ``(G, n, in_dim)`` faces, ``G`` labels and a
        ``(G, n, latent_dim)`` noise block ``eps``, which makes the loss a
        deterministic function of the parameters for the finite-difference
        checker. ``cfg`` gives the weights lambda2-4, the high/low ratio
        ``beta`` and the rank margin ``delta1``. The terms are ``(G,)`` arrays
        and the gradients carry the stack axis first."""
        label = _labels(faces, label, ("G", "n", self.in_dim))
        grads: dict[str, np.ndarray] = {}
        mu, log_var, sigma = self.head.forward(store, faces)
        z, prods, s, alpha, x_group = uncertainty_kernel(mu, sigma, eps)
        g, n, d = eps.shape
        rows = np.arange(g)

        # each group's feature goes through the classifier as a one-row matrix
        logits = self.classifier.forward(store, x_group[:, None])[:, 0]
        cls, probs = softmax_cross_entropy(logits, label)
        kl = kl_loss(mu, log_var)
        if n >= 2:
            order, n_high = high_low_partition(alpha, cfg.beta)
            ranked = alpha[rows[:, None], order]
            rank = rank_loss(
                ranked[:, :n_high].mean(axis=-1), ranked[:, n_high:].mean(axis=-1), cfg.delta1
            )
        else:
            order, n_high = None, 0
            rank = np.zeros(g)
        rec = prods.reshape(g, -1).sum(axis=-1) / n
        breakdown = total_face_loss(cls, kl, rank, rec, cfg)

        # backward
        total_alpha = alpha.sum(axis=-1)
        d_logits = softmax_cross_entropy_grad(probs, label)
        d_xg = self.classifier.backward(store, x_group[:, None], d_logits[:, None], grads)[:, 0]
        d_z = (alpha / total_alpha[:, None])[..., None] * d_xg[:, None, :]
        d_alpha = np.matmul(z - x_group[:, None, :], d_xg[..., None])[..., 0] / total_alpha[:, None]
        if order is not None:
            act = np.flatnonzero(rank > 0.0)
            d_alpha[act[:, None], order[act, :n_high]] += cfg.lambda3 * (-1.0 / n_high)
            d_alpha[act[:, None], order[act, n_high:]] += cfg.lambda3 * (1.0 / (n - n_high))
        i_min, i_max = np.argmin(s, axis=-1), np.argmax(s, axis=-1)
        spread = s[rows, i_max] > s[rows, i_min]  # else alpha is the constant 1
        d_s = np.where(spread[:, None], -d_alpha, 0.0)  # alpha = s_min + s_max - s
        shift = d_alpha.sum(axis=-1)
        r = rows[spread]
        d_s[r, i_min[r]] += shift[r]
        d_s[r, i_max[r]] += shift[r]
        t = np.maximum(prods, SCORE_FLOOR)
        d_t = (d_s * s * s / d)[..., None] / (t * t)
        above = prods > SCORE_FLOOR
        d_sigma = d_z * eps
        d_sigma += d_t * np.abs(eps) * above
        d_sigma += (cfg.lambda4 / n) * np.abs(eps)
        d_mu = d_z + cfg.lambda2 * mu / n
        d_log_var = 0.5 * sigma * d_sigma + cfg.lambda2 * (np.exp(log_var) - 1.0) / (2.0 * n)
        self.head.backward(store, faces, d_mu, d_log_var, grads)
        return breakdown, grads

    def deterministic_loss_and_grads(
        self,
        store: ParameterStore,
        faces: np.ndarray,
        label,
        cfg: TrainingConfig,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Baseline: classify the unweighted mean of the face means, CE only.
        Stacks and labels as :meth:`loss_and_grads` takes them, with no noise."""
        label = _labels(faces, label, ("G", "n", self.in_dim))
        g, n = faces.shape[:2]
        grads: dict[str, np.ndarray] = {}
        mu = self.head.mu_map.forward(store, faces)
        x_group = mu.mean(axis=-2)
        logits = self.classifier.forward(store, x_group[:, None])[:, 0]
        cls, probs = softmax_cross_entropy(logits, label)
        d_logits = softmax_cross_entropy_grad(probs, label)
        d_xg = self.classifier.backward(store, x_group[:, None], d_logits[:, None], grads)[:, 0]
        d_mu = np.repeat((d_xg / n)[:, None, :], n, axis=1)
        self.head.mu_map.param_grads(store, faces, d_mu, grads)
        zero = np.zeros(g)
        return total_face_loss(cls, zero, zero, zero, cfg), grads

    # -- quality filter and inference -------------------------------------

    def quality_stage(
        self,
        store: ParameterStore,
        groups: Sequence[GroupSample],
        eps: np.ndarray,
        config: TrainingConfig,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The quality filter over the faces of ``groups``, for training and
        inference: face ``i`` (flat, see :meth:`gaussians`) is sampled with the
        noise ``eps[i]``, ``(F, fiqe_samples, latent_dim)`` in all, and all
        faces are scored in one :func:`filter_faces` call. Returns the flat
        ``mu`` and ``sigma``, the sorted flat indices of the kept faces, as
        :func:`filter_faces` gives them, and every face's score."""
        mu, sigma = self.gaussians(store, groups)
        sizes = [group.faces.shape[0] for group in groups]
        kept, scores = filter_faces(mu, sigma, eps, config.delta2, sizes)
        return mu, sigma, np.asarray(kept, dtype=np.intp), scores

    def infer(
        self,
        store: ParameterStore,
        groups: Sequence[GroupSample],
        draws: _Draws,
        sample_counts: Sequence[int],
        config: TrainingConfig,
        ablation: str = "full",
    ) -> tuple[BranchPrediction, dict[str, np.ndarray]]:
        """The prediction of a step of ``groups``, one entry per count of
        ``sample_counts`` (see the module docstring), and the faces' arrays,
        flat in group order: ``kept`` ``(F,)``; with the quality filter,
        ``quality`` ``(F,)``; when sampling, ``score`` and ``alpha``
        ``(F, E)``, each entry's mean over its rounds (NaN for a dropped
        face). ``draws`` serves the faces' noise; only the kinds the ablation
        reads are asked for, and MC noise only for the kept faces."""
        filtered, stochastic = _face_noise(ablation, config, "eval")
        sizes = [group.faces.shape[0] for group in groups]
        arrays: dict[str, np.ndarray] = {}
        if filtered:
            mu, sigma, kept, arrays["quality"] = self.quality_stage(
                store, groups, draws.fiqe(), config
            )
        else:
            mu, sigma = self.gaussians(store, groups)
            kept = np.arange(len(mu))
        arrays["kept"] = np.isin(np.arange(len(mu)), kept)
        if stochastic:
            arrays["score"] = np.full((len(mu), len(sample_counts)), np.nan)
            arrays["alpha"] = arrays["score"].copy()

        probs = np.empty((len(groups), len(sample_counts), self.num_classes))
        for pos, idx in _bucket_rows(sizes, kept):
            rows = kept[idx]  # (G, k)
            if stochastic:  # drawn per face as (G, k, M, d), run as C-order (G, M, k, d)
                eps = np.ascontiguousarray(draws.mc(rows).swapaxes(1, 2))
                _, _, s, alpha, x_rounds = uncertainty_kernel(
                    mu[rows][:, None], sigma[rows][:, None], eps
                )
                x = np.stack([x_rounds[:, :n].mean(axis=1) for n in sample_counts], axis=1)
                for e, n in enumerate(sample_counts):
                    arrays["score"][rows, e] = s[:, :n].mean(axis=1)
                    arrays["alpha"][rows, e] = alpha[:, :n].mean(axis=1)
            else:
                x = mu[rows].mean(axis=1)[:, None]  # one entry serves every count
            probs[pos] = softmax(self.classifier.forward(store, x[..., None, :])[..., 0, :])
        return BranchPrediction(self.tag, probs, np.ones(len(groups), dtype=bool)), arrays


# ---------------------------------------------------------------------------
# object branch


class ObjectBranch(_GaussianBranch):
    tag = "object"

    def loss_and_grads(
        self,
        store: ParameterStore,
        objects: np.ndarray,
        label,
        eps: np.ndarray,
        cfg: TrainingConfig,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Mean per-object loss: ``cfg.lambda1``-mixed CE on mu and z*, plus
        ``cfg.lambda2`` times the KL, of ``G`` groups of ``k`` objects:
        ``(G, k, in_dim)`` objects, ``G`` labels and ``(G, k, latent_dim)``
        noise. The terms and gradients are stacked as :meth:`FaceBranch.loss_and_grads`
        stacks them."""
        label = _labels(objects, label, ("G", "k", self.in_dim))
        k = eps.shape[1]
        if objects.shape[:2] != eps.shape[:2] or k == 0:
            raise ShapeError(f"{k} noise rows for {objects.shape[1]} objects")
        grads: dict[str, np.ndarray] = {}
        mu, log_var, sigma = self.head.forward(store, objects)
        z = mu + eps * sigma
        per_object = label[:, None]
        ce_mu, probs_mu = softmax_cross_entropy(self.classifier.forward(store, mu), per_object)
        ce_z, probs_z = softmax_cross_entropy(self.classifier.forward(store, z), per_object)
        cls = cfg.lambda1 * ce_mu.mean(axis=-1) + (1.0 - cfg.lambda1) * ce_z.mean(axis=-1)
        breakdown = total_object_loss(cls, kl_loss(mu, log_var), cfg)

        onehot = (np.arange(self.num_classes) == per_object).astype(np.float64)[:, None, :]
        d_logits_mu = (probs_mu - onehot) * (cfg.lambda1 / k)
        d_logits_z = (probs_z - onehot) * ((1.0 - cfg.lambda1) / k)
        d_mu = self.classifier.backward(store, mu, d_logits_mu, grads)
        d_z = self.classifier.backward(store, z, d_logits_z, grads)
        d_mu = d_mu + d_z + cfg.lambda2 * mu / k
        d_sigma = d_z * eps
        d_log_var = 0.5 * sigma * d_sigma + cfg.lambda2 * (np.exp(log_var) - 1.0) / (2.0 * k)
        self.head.backward(store, objects, d_mu, d_log_var, grads)
        return breakdown, grads

    def infer(
        self,
        store: ParameterStore,
        groups: Sequence[GroupSample],
        draws: _Draws,
        sample_counts: Sequence[int],
    ) -> tuple[BranchPrediction, dict[str, np.ndarray]]:
        """The prediction of a step of ``groups``, one entry per count of
        ``sample_counts`` (see the module docstring), uniform for a group
        without objects, which is absent; and ``probs``, each object's
        ``(O, E, C)`` mean probabilities, flat in group order. ``draws``
        serves the objects' MC noise."""
        sizes = np.array([group.objects.shape[0] for group in groups])
        shape = (len(groups), len(sample_counts), self.num_classes)
        probs = np.full(shape, 1.0 / self.num_classes)
        per_object = np.empty((sizes.sum(),) + shape[1:])
        present = np.flatnonzero(sizes)
        if present.size:
            # groups without objects own no rows, so these groups' flat rows are the step's
            mu, sigma = self.gaussians(store, [groups[p] for p in present])
            classify = functools.partial(self.classifier.forward, store)
            for pos, rows in _bucket_rows(sizes[present]):  # rows: (G, k)
                block = draws.mc(rows)
                bucket_mu, bucket_sigma = mu[rows], sigma[rows]
                for e, n in enumerate(sample_counts):
                    bucket = mc_predict(bucket_mu, bucket_sigma, classify, block[:, :, :n])
                    per_object[rows, e] = bucket
                    probs[present[pos], e] = bucket.mean(axis=1)
        return BranchPrediction(self.tag, probs, sizes > 0), {"probs": per_object}


# ---------------------------------------------------------------------------
# scene branch


class SceneBranch:
    tag = "scene"

    def __init__(self, in_dim: int, num_classes: int):
        self.in_dim = int(in_dim)
        self.num_classes = int(num_classes)
        self.classifier = AffineMap("scene.classifier", in_dim, num_classes)

    def register(self, store: ParameterStore, rng: SeededRng) -> None:
        self.classifier.register(store, rng.derive("classifier"))

    def loss_and_grads(
        self, store: ParameterStore, scene: np.ndarray, label
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Cross-entropy of a ``(G, in_dim)`` stack of scenes with ``G`` labels:
        ``(G,)`` breakdown terms and gradients with the stack axis first."""
        label = _labels(scene, label, ("G", self.in_dim))
        grads: dict[str, np.ndarray] = {}
        rows = scene[:, None]  # each scene goes through the classifier as a one-row matrix
        cls, probs = softmax_cross_entropy(self.classifier.forward(store, rows)[:, 0], label)
        d_logits = softmax_cross_entropy_grad(probs, label)
        self.classifier.param_grads(store, rows, d_logits[:, None], grads)
        zero = np.zeros_like(cls)
        return LossBreakdown(cls=cls, kl=zero, rank=zero, rec=zero, total=cls), grads

    def infer(
        self, store: ParameterStore, groups: Sequence[GroupSample], sample_counts: Sequence[int]
    ) -> tuple[BranchPrediction, dict[str, np.ndarray]]:
        """The prediction of a step of ``groups``, from one stacked classifier
        call; the scene draws nothing, so every entry of ``sample_counts`` is
        the same. It has no per-individual arrays."""
        for group in groups:
            if group.scene.shape[0] != self.in_dim:
                dim = group.scene.shape[0]
                raise ShapeError(f"group {group.id}: scene dim {dim} != model dim {self.in_dim}")
        # each scene goes through the classifier as a one-row matrix
        rows = np.stack([group.scene for group in groups])[:, None]
        probs = softmax(self.classifier.forward(store, rows)[:, 0])[:, None]
        probs = probs.repeat(len(sample_counts), axis=1)
        return BranchPrediction(self.tag, probs, np.ones(len(groups), dtype=bool)), {}


Branch = FaceBranch | ObjectBranch | SceneBranch


def build_branches(
    config: TrainingConfig,
    dims: dict,
    tags: Sequence[str] = BRANCH_TAGS,
) -> dict[str, Branch]:
    """Instantiate branch models for the given feature dims and class count."""
    num_classes = int(dims["num_classes"])
    make = {
        "face": lambda: FaceBranch(int(dims["face_dim"]), config.latent_dim, num_classes),
        "object": lambda: ObjectBranch(int(dims["object_dim"]), config.latent_dim, num_classes),
        "scene": lambda: SceneBranch(int(dims["scene_dim"]), num_classes),
    }
    return {tag: make[tag]() for tag in BRANCH_TAGS if tag in tags}  # fixed order


def register_branches(
    store: ParameterStore, branches: dict[str, Branch], seed: int
) -> None:
    root = SeededRng(seed)
    for tag in BRANCH_TAGS:
        if tag in branches:
            branches[tag].register(store, root.derive("init", tag))


# ---------------------------------------------------------------------------
# fusion


def fuse_predictions(
    predictions: Sequence[BranchPrediction], strategy: str = "pwfs"
) -> FusionResult:
    """Combine the branches' probabilities into one, with weight 0 for an absent branch.

    ``pwfs`` (proportional-weighted fusion) weights each present branch by its
    share of the total top-class confidence; the other strategies use fixed
    priors. A group with no present branch (an object-only model on a group
    without objects) fuses every branch as given, with equal weights. A step
    is fused in one call: ``(G, E, C)`` probabilities and ``(G,)`` present
    masks (a bool for one ``(C,)`` vector) give ``(G, E, C)`` probabilities
    and ``(G, E)`` weights per branch. An absent branch only adds exact zeros
    to the sums, so each group's result equals a fusion of its present
    branches alone, bit for bit.
    """
    if strategy not in FUSION_STRATEGIES:
        raise ConfigError(f"unknown fusion strategy {strategy!r}")
    if not predictions:
        raise ValueError("no branch predictions to fuse")
    lead = predictions[0].probs.shape[:-1]
    present = np.stack([np.expand_dims(p.present, tuple(range(np.ndim(p.present), len(lead))))
                        for p in predictions], axis=-1)  # (G, 1, B) for a step
    if strategy == "pwfs":
        conf = np.stack([p.probs.max(axis=-1) for p in predictions], axis=-1)
    else:
        conf = np.array([_FUSION_PRIORS[strategy][p.branch] for p in predictions])
    conf = np.where(present.any(axis=-1, keepdims=True), np.where(present, conf, 0.0), 1.0)
    weights = np.broadcast_to(conf / conf.sum(axis=-1, keepdims=True), lead + (len(predictions),))
    fused = np.zeros_like(predictions[0].probs)
    for b, p in enumerate(predictions):
        fused = fused + weights[..., b, None] * p.probs
    fused = fused / fused.sum(axis=-1, keepdims=True)
    return FusionResult(probs=fused,
                        weights={p.branch: weights[..., b] for b, p in enumerate(predictions)})


# ---------------------------------------------------------------------------
# inference entry points

# Groups per inference step, sized by memory: a step's face kernel blocks hold up
# to about 8.4 MB each (64 groups of 8 kept faces, 64 rounds of 32 dims; see README)
_INFER_STEP = 64


def _steps(groups: Sequence[GroupSample]) -> list[Sequence[GroupSample]]:
    """``groups`` cut into inference steps of ``_INFER_STEP`` groups."""
    return [groups[lo : lo + _INFER_STEP] for lo in range(0, len(groups), _INFER_STEP)]


def _sample_counts(sample_counts: Sequence[int] | None, config: TrainingConfig) -> tuple[int, ...]:
    counts = (config.mc_samples,) if sample_counts is None else tuple(sample_counts)
    if not counts or min(counts) < 1:
        raise ConfigError(f"sample counts must be a nonempty list of ints >= 1, got {counts}")
    return counts


def branch_infer(
    branch: Branch,
    groups: Sequence[GroupSample],
    store: ParameterStore,
    config: TrainingConfig,
    rng: SeededRng,
    sample_counts: Sequence[int] | None = None,
    ablation: str = "full",
    draws: _Draws | None = None,
) -> tuple[BranchPrediction, dict[str, np.ndarray]]:
    """Run one branch on a nonempty step of ``groups`` with the run-level
    inference stream ``rng``: ``(G, E, C)`` probabilities and a ``(G,)``
    present mask, one entry per count of ``sample_counts`` (default
    ``(config.mc_samples,)``), and the branch's per-individual arrays (see
    :meth:`FaceBranch.infer` and :meth:`ObjectBranch.infer`). ``draws``, the
    step's noise for this branch, defaults to a :class:`_Draws` of ``rng``.
    A group's predictions do not depend on the other groups it is run with."""
    if ablation not in ABLATIONS:
        raise ConfigError(f"unknown ablation {ablation!r}")
    counts = _sample_counts(sample_counts, config)
    if isinstance(branch, SceneBranch):
        return branch.infer(store, groups, counts)
    if draws is None:
        draws = _Draws(rng, branch.tag, groups, max(counts), config.latent_dim,
                       config.fiqe_samples)
    if isinstance(branch, FaceBranch):
        return branch.infer(store, groups, draws, counts, config, ablation=ablation)
    return branch.infer(store, groups, draws, counts)


def predict_group(group: GroupSample, fused: FusionResult, j: int) -> FusionResult:
    """The fusion of ``group``, position ``j`` of a step that
    :func:`fuse_predictions` fused: its ``(E, C)`` probabilities and the
    ``(E,)`` weights of the branches with a nonzero weight, which are the
    present ones, or all when none is present. ``group`` names the record
    (and the ``perfbench`` span) the result is for."""
    weights = {tag: w[j] for tag, w in fused.weights.items() if w[j].any()}
    return FusionResult(fused.probs[j], weights)


# ---------------------------------------------------------------------------
# optimizers


class Sgd:
    """Plain stochastic gradient descent."""

    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, store: ParameterStore, grads: dict[str, np.ndarray]) -> None:
        for name in sorted(grads):
            store.get(name)[...] -= self.lr * grads[name]


class Adam:
    """Adam with bias correction (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, store: ParameterStore, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name in sorted(grads):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * np.square(g)
            m_hat = self.m[name] / b1t
            v_hat = self.v[name] / b2t
            store.get(name)[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# training


_TERMS = ("cls", "kl", "rank", "rec", "total")


def _check_finite(row: np.ndarray, group_id: str) -> None:
    for term, value in zip(_TERMS, row):
        if not math.isfinite(value):
            raise NumericError(f"group {group_id}: non-finite loss term {term!r}")


def _bucket_rows(sizes: Sequence[int], kept: np.ndarray | None = None
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One ``(positions, rows)`` pair per distinct count ``n``, ascending: the
    positions of the groups (of ``sizes`` individuals each) with ``n``
    individuals, and the ``(G, n)`` indices of their rows in the flat,
    group-ordered array of all individuals. With ``kept``, the sorted flat
    indices of some of the individuals, only those count, and ``rows``
    index ``kept``."""
    counts = np.asarray(sizes)
    if kept is not None:
        counts = np.diff(np.searchsorted(kept, np.cumsum(sizes)), prepend=0)
    starts = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")  # by count, and by position within a count
    ordered = counts[order]
    cuts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist() + [len(order)]
    return [(order[lo:hi], starts[order[lo:hi]][:, None] + np.arange(ordered[lo]))
            for lo, hi in zip(cuts, cuts[1:])]


def _individual_seeds(stream: SeededRng, groups: Sequence[GroupSample], indices) -> np.ndarray:
    """Seeds of ``stream.derive(group.id, j)`` for every group and each ``j``
    of its ``indices``, flat in group order."""
    per_group = derive_seeds(stream, [group.id for group in groups])
    counts = [len(idx) for idx in indices]
    return derive_seeds(np.repeat(per_group, counts), np.concatenate(indices))


class _Draws:
    """The inference noise of the faces or objects (``tag``) of a step of
    ``groups``, drawn on request: :meth:`fiqe` is every individual's
    ``(fiqe_samples, d)`` FIQE block, ``mc(rows)`` the ``(samples, d)`` MC
    blocks of the individuals at the flat indices ``rows`` (of any shape),
    flat in group order over all of ``groups``. The seeds are derived on
    first use, so a pass that reads no noise derives none."""

    def __init__(self, rng: SeededRng, tag: str, groups: Sequence[GroupSample], samples: int,
                 d: int, fiqe_samples: int = 0):
        self._rng, self._tag, self._groups = rng, tag, groups
        self._shapes = {"fiqe": (fiqe_samples, d), "mc": (samples, d)}

    @functools.cached_property
    def _seeds(self) -> np.ndarray:
        """The individuals' stream seeds, flat: individual ``j`` of a group
        draws from ``rng.derive(tag, group.id, r)``, ``r`` its content rank."""
        ranks = [_content_ranks(getattr(group, f"{self._tag}s")) for group in self._groups]
        return _individual_seeds(self._rng.derive(self._tag), self._groups, ranks)

    def _draw(self, kind: str, rows) -> np.ndarray:
        return block_normals(derive_seeds(self._seeds[rows], kind), self._shapes[kind])

    def fiqe(self) -> np.ndarray:
        return self._draw("fiqe", slice(None))

    def mc(self, rows: np.ndarray) -> np.ndarray:
        return self._draw("mc", rows)


class _KeptDraws(_Draws):
    """:class:`_Draws` that keep every row they draw, per kind in an
    ``(n, *shape)`` array with a drawn mask, and gather the row on every
    later request. Every row is its own stream, so a gathered block equals
    a drawn one bit for bit. The arrays of the kinds with rounds are
    allocated, not written, here; ``nbytes`` is their size."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = sum(getattr(group, f"{self._tag}s").shape[0] for group in self._groups)
        self._kept = {kind: (np.empty((n, *shape)), np.zeros(n, dtype=bool))
                      for kind, shape in self._shapes.items() if shape[0]}
        self.nbytes = sum(block.nbytes for block, _ in self._kept.values())

    def _draw(self, kind: str, rows) -> np.ndarray:
        block, drawn = self._kept[kind]
        rows = np.arange(len(drawn))[rows]
        new = rows[~drawn[rows]]
        if new.size:
            block[new] = super()._draw(kind, new)
            drawn[new] = True
        return block[rows]


def _face_noise(ablation: str, config: TrainingConfig, phase: str) -> tuple[bool, bool]:
    """Whether the face branch under ``ablation`` runs the quality filter in
    ``phase`` (``"train"`` or ``"eval"``), and whether it samples."""
    filtered = ablation in ("full", "no-ual") and config.fiqe_apply in ("both", phase)
    return filtered, ablation in ("full", "no-fiqe")


class Trainer:
    """Mini-batch training of the enabled branches, one optimizer each.

    Face uses Adam; object and scene use SGD. Branches never share
    parameters, so training one cannot move another.
    """

    def __init__(
        self,
        store: ParameterStore,
        branches: dict[str, Branch],
        config: TrainingConfig,
        ablation: str = "full",
    ):
        if ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {ablation!r}")
        config.validate()
        self.store = store
        self.branches = branches
        self.config = config
        self.ablation = ablation
        self.optimizers: dict[str, Sgd | Adam] = {
            tag: Adam(config.face_lr) if tag == "face" else Sgd(getattr(config, f"{tag}_lr"))
            for tag in branches
        }

    def train_epoch(self, groups: Sequence[GroupSample], epoch: int) -> dict[str, LossBreakdown]:
        """One pass of mini-batch optimization for every enabled branch.

        A group enters its batch's gradient with weight ``w / total``: ``w``
        is 1 for face and scene and the object count for object, and groups
        (or whole batches) of weight 0 are skipped. The epoch's loss row is
        the mean of the groups' rows under the same weights. Each batch's
        per-group rows and gradients come from :meth:`_batch_loss`, and the
        gradients are summed in batch order as a loop over its groups would
        sum them. A branch that trains no group is left out of the result. The
        noise streams are derived once per epoch, each only where it is read:
        ``(seed, "train", tag, epoch)`` for a branch that samples, and
        ``(seed, "train-fiqe", "face", epoch)`` when the face quality filter runs.
        """
        if not groups:
            raise DataError("cannot train on an empty dataset")
        root = SeededRng(self.config.seed)
        filtered, stochastic = _face_noise(self.ablation, self.config, "train")
        out: dict[str, LossBreakdown] = {}
        for tag in BRANCH_TAGS:
            if tag not in self.branches:
                continue
            weights = np.array([group.objects.shape[0] if tag == "object" else 1
                                for group in groups])
            face = tag == "face"
            samples = tag == "object" or face and stochastic
            streams = (root.derive("train", tag, epoch) if samples else None,
                       root.derive("train-fiqe", "face", epoch) if face and filtered else None)
            order = root.derive("shuffle", tag, epoch).permutation(len(groups))
            rows, row_weights = [], []
            for start in range(0, len(groups), self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                batch = batch[weights[batch] > 0]
                if not batch.size:
                    continue
                members = [groups[int(gi)] for gi in batch]
                batch_rows, grads = self._checked_batch(tag, streams, members)
                rows.append(batch_rows)
                row_weights.append(weights[batch])
                scales = row_weights[-1] / row_weights[-1].sum()
                for name, g in grads.items():
                    g *= scales.reshape((-1,) + (1,) * (g.ndim - 1))
                    grads[name] = np.add.reduce(g, axis=0)
                self.optimizers[tag].step(self.store, grads)
            if rows:
                w = np.concatenate(row_weights).astype(np.float64)
                mean = (np.concatenate(rows) * w[:, None]).sum(axis=0) / w.sum()
                out[tag] = LossBreakdown(*(float(v) for v in mean))
        return out

    def _batch_loss(self, tag: str, streams: tuple[SeededRng | None, SeededRng | None],
                    groups: Sequence[GroupSample]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The ``(G, 5)`` loss rows and ``(G, *shape)`` gradients of a batch of
        ``groups`` on branch ``tag``, in batch order.

        The scenes are one stacked loss. Faces and objects are flat rows
        (:meth:`_GaussianBranch.individuals`); with the quality filter, only
        the faces it keeps count. The noise of the counted rows is drawn as
        one block, and the loss runs once per bucket of groups with equally
        many counted rows (:func:`_bucket_rows`) on the stacks gathered from
        both. Noise for individual ``j`` of a group comes from ``streams[0]``,
        the stream ``(seed, "train", tag, epoch)``, derived by group id and
        ``j``; without it the faces take the deterministic baseline. The face
        quality filter runs when ``streams[1]``, ``(seed, "train-fiqe",
        "face", epoch)``, is given, and draws from it the same way.
        """
        cfg, store, branch = self.config, self.store, self.branches[tag]
        y = np.array([group.label for group in groups])
        if tag == "scene":
            breakdown, grads = branch.loss_and_grads(store, np.stack([g.scene for g in groups]), y)
            return np.column_stack(breakdown.as_row()), grads
        noise, fiqe_noise = streams
        x, sizes = branch.individuals(groups)
        if noise is not None or fiqe_noise is not None:
            indices = [np.arange(n) for n in sizes]
        kept = np.arange(len(x))  # the rows the loss reads: all, or the faces the filter keeps
        if fiqe_noise is not None:
            seeds = _individual_seeds(fiqe_noise, groups, indices)
            fiqe = block_normals(seeds, (cfg.fiqe_samples, cfg.latent_dim))
            kept = branch.quality_stage(store, groups, fiqe, cfg)[2]
        if noise is not None:
            eps = block_normals(_individual_seeds(noise, groups, indices)[kept], cfg.latent_dim)
        terms = np.empty((len(groups), len(_TERMS)))
        grads: dict[str, np.ndarray] = {}
        for pos, idx in _bucket_rows(sizes, kept):
            if noise is None:
                breakdown, bucket_grads = branch.deterministic_loss_and_grads(
                    store, x[kept[idx]], y[pos], cfg)
            else:
                breakdown, bucket_grads = branch.loss_and_grads(
                    store, x[kept[idx]], y[pos], eps[idx], cfg)
            terms[pos] = np.column_stack(breakdown.as_row())
            for name, g in bucket_grads.items():
                if name not in grads:
                    grads[name] = np.empty((len(groups),) + g.shape[1:])
                grads[name][pos] = g
        return terms, grads

    def _checked_batch(self, tag: str, streams, groups: Sequence[GroupSample]):
        """:meth:`_batch_loss` with finite rows, under silenced overflow warnings.

        A batch that fails (an exception or a non-finite loss term) is run
        again one group at a time in batch order, so the error names the first
        failing group, and its first failing check, as a per-group step would.
        """
        failure = None
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rows, grads = self._batch_loss(tag, streams, groups)
                if np.isfinite(rows).all():
                    return rows, grads
            except (ValueError, ArithmeticError) as exc:  # the errors a group's data can cause
                failure = exc
            for group in groups:
                try:
                    rows, _ = self._batch_loss(tag, streams, [group])
                except NumericError as exc:
                    raise NumericError(f"group {group.id}: {exc}") from exc
                _check_finite(rows[0], group.id)
        if failure is not None:
            raise failure
        raise NumericError("non-finite loss in a batch that no single group reproduces")


# ---------------------------------------------------------------------------
# end-to-end helpers


# The largest validation noise cache train_model keeps, in bytes: the bundled
# 200-group val set needs 11.3 MB; a 1,000-group one, 55.5 MB, is drawn pass
# by pass instead
_NOISE_CACHE_BYTES = 16 * 2**20


class NoiseCache:
    """The model-independent noise of repeated inference passes over one dataset.

    Inference noise is keyed by seed, branch, group id and content rank, so
    every pass with the same dataset, seed, config, ablation and branches,
    and with ``M = config.mc_samples`` as its largest sample count, draws the
    same blocks. ``steps`` holds each inference step's ``{tag: _KeptDraws}``
    for :func:`evaluate_dataset`: a row is drawn the first time a pass asks
    for it and gathered on every later read, and the MC rows of faces the
    filter always drops are never drawn. ``nbytes`` counts every row a pass
    could ask for: the faces' FIQE rows ``(F, fiqe_samples, d)`` with the
    quality filter, their MC rows ``(F, M, d)`` when sampling (the kept set
    can change with the model), and the objects' MC rows ``(O, M, d)``.

    The arrays are allocated here, before training: allocated by the first
    pass, between the training's arrays, they left holes in the heap that
    raised a later ``ual eval`` in the same process by 1.3 MB (``eval-sweep``).
    """

    def __init__(self, dataset: Dataset, branches: dict[str, Branch], config: TrainingConfig,
                 seed: int, ablation: str = "full"):
        self._dataset = dataset
        self._key = (config, seed, ablation, tuple(branches), config.mc_samples)
        filtered, stochastic = _face_noise(ablation, config, "eval")
        # the rounds of each kind a pass reads; a kind it does not read keeps no array
        mc = {"face": stochastic * config.mc_samples, "object": config.mc_samples}
        fiqe = {"face": filtered * config.fiqe_samples, "object": 0}
        rng = SeededRng(seed).derive("infer")
        self.steps = [
            {tag: _KeptDraws(rng, tag, step, mc[tag], config.latent_dim, fiqe[tag])
             for tag in mc if tag in branches}
            for step in _steps(dataset.groups)
        ]
        self.nbytes = sum(draws.nbytes for step in self.steps for draws in step.values())

    def serves(self, dataset: Dataset, config: TrainingConfig, seed: int, ablation: str,
               branches: dict[str, Branch], samples: int) -> bool:
        """Whether a pass with these arguments draws the noise the cache holds."""
        key = (config, seed, ablation, tuple(branches), samples)
        return dataset is self._dataset and key == self._key


@dataclass
class EvalResult:
    branch_reports: dict[str, MetricsReport]
    fused_report: MetricsReport
    records: list[dict]
    fusion: str
    n_samples: int


def evaluate_dataset(
    store: ParameterStore,
    branches: dict[str, Branch],
    dataset: Dataset,
    config: TrainingConfig,
    seed: int,
    sample_counts: Sequence[int] | None = None,
    ablation: str = "full",
    fusion: str = "pwfs",
    collect_diagnostics: bool = False,
    noise: NoiseCache | None = None,
) -> list[EvalResult]:
    """Predict every group and compute per-branch plus fused metrics.

    One pass over the dataset serves every entry of ``sample_counts``
    (default ``(config.mc_samples,)``); returns one result per entry, in
    order, each equal to a one-entry call. With ``collect_diagnostics``, each
    result also holds the report's ``group`` records (:func:`_group_records`).
    Each step's face and object noise is :func:`branch_infer`'s own
    :class:`_Draws`, or, with ``noise``, a :class:`NoiseCache` built for this
    dataset and these arguments, the step's :class:`_KeptDraws` from
    ``noise.steps``. The results are the same. A step's faces and objects
    are flat rows run bucket by bucket, as a training batch's are in
    :meth:`Trainer._batch_loss`.
    """
    counts = _sample_counts(sample_counts, config)
    if noise is not None and not noise.serves(dataset, config, seed, ablation, branches,
                                              max(counts)):
        raise ValueError("the noise cache was built for another dataset or arguments")
    rng = SeededRng(seed).derive("infer")
    y_true = [group.label for group in dataset.groups]
    # each step's (G, E) predicted classes, and its records: the predictions
    # of every group and entry, kept to the end, would hold about 2 MB more
    labels: dict[str, list[np.ndarray]] = {tag: [] for tag in ("fused", *branches)}
    records: list[list[dict]] = [[] for _ in counts]
    for s, step in enumerate(_steps(dataset.groups)):
        draws = noise.steps[s] if noise is not None else {}  # {}: branch_infer draws
        with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite instead
            per_branch = {
                tag: branch_infer(branches[tag], step, store, config, rng, counts, ablation,
                                  draws.get(tag))
                for tag in BRANCH_TAGS
                if tag in branches
            }
        preds = [pred for pred, _ in per_branch.values()]
        fused = fuse_predictions(preds, fusion)
        bad = np.flatnonzero(~np.isfinite(fused.probs).reshape(len(step), -1).all(axis=-1))
        if bad.size:  # an overflow in a branch
            raise NumericError(f"group {step[bad[0]].id}: non-finite fused probabilities")
        labels["fused"].append(np.argmax(fused.probs, axis=-1))
        for pred in preds:
            labels[pred.branch].append(np.argmax(pred.probs, axis=-1))  # the first maximum
        if collect_diagnostics:
            _group_records(records, step, per_branch, fused, labels["fused"][-1])

    def metrics(tag: str, e: int) -> MetricsReport:
        preds = np.concatenate(labels[tag])[:, e].tolist() if labels[tag] else []
        return compute_metrics(y_true, preds, dataset.num_classes, dataset.class_names)

    return [
        EvalResult({tag: metrics(tag, e) for tag in branches}, metrics("fused", e), records[e],
                   fusion, n)
        for e, n in enumerate(counts)
    ]


def _group_records(records: list[list[dict]], groups: Sequence[GroupSample], per_branch: dict,
                   fused: FusionResult, labels: np.ndarray) -> None:
    """Append the report's ``group`` records of one inference step to
    ``records``, one list per sweep entry, built from the step's
    :func:`branch_infer` arrays, its fusion and its ``(G, E)`` fused
    classes; each group's weights are those :func:`predict_group` gives."""
    listed = {
        tag: (p.present.tolist(), p.probs.tolist(), {k: a.tolist() for k, a in arrays.items()})
        for tag, (p, arrays) in per_branch.items()
    }
    face_lo = object_lo = 0
    for j, (group, pred) in enumerate(zip(groups, labels.tolist())):
        group_fused = predict_group(group, fused, j)
        n_faces, n_objects = group.faces.shape[0], group.objects.shape[0]
        ids = [f"{group.id}/face{i}" for i in range(n_faces)]  # shared by the entries
        for e, entry_records in enumerate(records):
            branches = {}
            for tag, (present, probs, arrays) in listed.items():
                branches[tag] = entry = {"present": present[j], "probs": probs[j][e]}
                if tag == "face":
                    entry["faces"] = faces = []
                    for i, f in enumerate(range(face_lo, face_lo + n_faces)):
                        face = {"id": ids[i], "index": i, "kept": arrays["kept"][f],
                                "quality": arrays["quality"][f] if "quality" in arrays else None}
                        if "score" in arrays and face["kept"]:
                            face.update(score=arrays["score"][f][e], alpha=arrays["alpha"][f][e])
                        faces.append(face)
                elif tag == "object":
                    entry["objects"] = [{"index": i, "probs": arrays["probs"][object_lo + i][e]}
                                        for i in range(n_objects)]
            entry_records.append({
                "record": "group", "id": group.id, "label": int(group.label), "pred": pred[e],
                "fused_probs": group_fused.probs[e].tolist(),
                "weights": {tag: float(w[e]) for tag, w in group_fused.weights.items()},
                "branches": branches,
            })
        face_lo, object_lo = face_lo + n_faces, object_lo + n_objects


@dataclass
class TrainResult:
    store: ParameterStore
    branches: dict[str, Branch]
    config: TrainingConfig
    ablation: str
    loss_log: dict[str, list[LossBreakdown]]
    best_epoch: int | None = None


def train_model(
    train_ds: Dataset,
    config: TrainingConfig,
    val_ds: Dataset | None = None,
    branch_tags: Sequence[str] = BRANCH_TAGS,
    ablation: str = "full",
    on_epoch=None,
) -> TrainResult:
    """Train the selected branches for ``config.epochs`` epochs.

    With a validation set, every epoch ends with an evaluation of it; with
    ``select_best`` also set, the parameters of the epoch with the highest
    fused micro accuracy are restored at the end. The validation noise does
    not depend on the model or the epoch, so the evaluations share a
    :class:`NoiseCache`: each row is drawn by the first evaluation that reads
    it and gathered by the later ones. The cache is dropped when training
    ends; one whose ``nbytes`` exceed ``_NOISE_CACHE_BYTES`` (16 MiB) is
    dropped before it, and every evaluation draws its own noise. Each epoch's
    training and validation wall seconds are logged at debug level.
    ``on_epoch`` is called after each epoch as ``on_epoch(epoch, breakdowns,
    eval_result)``, where ``eval_result`` is that evaluation, or None when
    ``val_ds`` is None.
    """
    dims = train_ds.dims
    if val_ds is not None:
        check_dims(val_ds.dims, dims, "the val set", "the train set")
    store = ParameterStore()
    branches = build_branches(config, dims, branch_tags)
    register_branches(store, branches, config.seed)
    trainer = Trainer(store, branches, config, ablation)
    loss_log: dict[str, list[LossBreakdown]] = {tag: [] for tag in branches}
    best_epoch: int | None = None
    best_micro = -1.0
    best_params: ParameterStore | None = None
    noise = None
    if val_ds is not None:
        noise = NoiseCache(val_ds, branches, config, config.seed, ablation)
        if not 0 < noise.nbytes <= _NOISE_CACHE_BYTES:
            noise = None
    for epoch in range(config.epochs):
        start = time.perf_counter()
        breakdowns = trainer.train_epoch(train_ds.groups, epoch)
        trained = time.perf_counter()
        for tag, bd in breakdowns.items():
            loss_log[tag].append(bd)
        result = None
        if val_ds is not None:
            (result,) = evaluate_dataset(
                store, branches, val_ds, config, config.seed, ablation=ablation, noise=noise
            )
            if config.select_best and result.fused_report.micro_accuracy > best_micro:
                best_micro = result.fused_report.micro_accuracy
                best_epoch = epoch
                best_params = store.clone()
        log.debug(
            "epoch %d: train %.3f s, validation %.3f s",
            epoch, trained - start, time.perf_counter() - trained,
        )
        if on_epoch is not None:
            on_epoch(epoch, breakdowns, result)
    if config.select_best and best_params is not None:
        for name in store.names():
            store.set(name, best_params.get(name))
    return TrainResult(
        store=store,
        branches=branches,
        config=config,
        ablation=ablation,
        loss_log=loss_log,
        best_epoch=best_epoch,
    )
