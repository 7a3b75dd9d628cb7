"""Three-branch model: training, inference, and score-level fusion.

The face branch embeds each face as a latent Gaussian, draws stochastic
samples, down-weights uncertain faces via importance scalars, aggregates the
group feature, and classifies it. The object branch classifies individual
objects through Monte-Carlo prediction and averages their probability
vectors. The scene branch is a plain affine classifier on the scene
feature. Branches are trained independently (face with Adam, object and
scene with SGD) and combined at prediction time by a proportional-weighted
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
reports. Each group derives its key prefix once; the per-individual streams
and their noise blocks are then drawn in one call
(:func:`~ual.numerics.derive_seeds`, :func:`~ual.numerics.block_normals`),
bit-identical to deriving each stream on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .datagen_metrics import Dataset, GroupSample, MetricsReport, compute_metrics
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gaussian_embedding import EmbeddingHead, mc_predict
from .losses import (
    LossBreakdown,
    LossWeights,
    kl_loss,
    rank_loss,
    total_face_loss,
    total_object_loss,
)
from .numerics import (
    AffineMap,
    ParameterStore,
    SeededRng,
    block_normals,
    derive_seeds,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
)
from .quality_filter import filter_faces
from .uncertainty_scoring import SCORE_FLOOR, high_low_partition, uncertainty_kernel

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
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.lambda1 > 1.0:
            raise ConfigError("lambda1 must lie in [0, 1]")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if self.delta1 < 0.0:
            raise ConfigError("delta1 must be >= 0")
        if not (0.0 < self.delta2 < 1.0):
            raise ConfigError("delta2 must lie in (0, 1)")
        if self.fiqe_samples < 2:
            raise ConfigError("fiqe_samples must be >= 2")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.fiqe_apply not in ("both", "train", "eval", "off"):
            raise ConfigError(f"fiqe_apply must be both/train/eval/off, got {self.fiqe_apply!r}")

    @property
    def loss_weights(self) -> LossWeights:
        return LossWeights(
            lambda1=self.lambda1,
            lambda2=self.lambda2,
            lambda3=self.lambda3,
            lambda4=self.lambda4,
        )

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def config_from_mapping(mapping: dict, source: str = "config") -> TrainingConfig:
    """Build a TrainingConfig from a {key: string} mapping; unknown keys error."""
    base = TrainingConfig()
    kinds = {f: type(getattr(base, f)) for f in base.__dataclass_fields__}
    updates = {}
    for key, raw in mapping.items():
        if key not in kinds:
            raise ConfigError(f"{source}: unknown key {key!r}")
        kind = kinds[key]
        try:
            if kind is bool:
                text = str(raw).strip().lower()
                if text not in ("true", "false"):
                    raise ValueError(f"expected true/false, got {raw!r}")
                updates[key] = text == "true"
            elif kind is int:
                updates[key] = int(str(raw))
            elif kind is float:
                updates[key] = float(str(raw))
            else:
                updates[key] = str(raw)
        except ValueError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


@dataclass
class BranchPrediction:
    """One branch's class probabilities for one group, with diagnostics."""

    branch: str
    probs: np.ndarray
    present: bool = True
    diagnostics: dict = field(default_factory=dict)


@dataclass
class FusionResult:
    probs: np.ndarray
    weights: dict[str, float]


@dataclass
class GroupPrediction:
    label: int
    probs: np.ndarray
    weights: dict[str, float]
    branch_predictions: dict[str, BranchPrediction]


def _content_ranks(rows: np.ndarray) -> list[int]:
    """Dense rank of each row under lexicographic sort; equal rows share a rank."""
    order = sorted(range(rows.shape[0]), key=lambda i: tuple(rows[i]))
    ranks = [0] * rows.shape[0]
    rank = 0
    prev: tuple | None = None
    for i in order:
        key = tuple(rows[i])
        if prev is not None and key != prev:
            rank += 1
        ranks[i] = rank
        prev = key
    return ranks


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


class FaceBranch(_GaussianBranch):
    tag = "face"

    # -- training ----------------------------------------------------------

    def loss_and_grads(
        self,
        store: ParameterStore,
        faces: np.ndarray,
        label: int,
        eps: np.ndarray,
        weights: LossWeights,
        beta: float,
        delta1: float,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Full uncertainty-aware loss for one group, with analytic gradients.

        ``eps`` is the (n_faces, latent_dim) noise block; fixing it makes the
        loss a deterministic function of the parameters, which is what the
        finite-difference checker needs.
        """
        grads: dict[str, np.ndarray] = {}
        mu, log_var, sigma = self.head.forward(store, faces)
        z, prods, s, alpha, x_group = uncertainty_kernel(mu, sigma, eps)
        n, d = eps.shape

        logits = self.classifier.forward(store, x_group)
        cls, probs = softmax_cross_entropy(logits, label)
        kl = kl_loss(mu, log_var)
        if n >= 2:
            order, n_high = high_low_partition(alpha, beta)
            rank = rank_loss(
                float(alpha[order[:n_high]].mean()), float(alpha[order[n_high:]].mean()), delta1
            )
        else:
            order, n_high = None, 0
            rank = 0.0
        rec = float(prods.sum() / n)
        breakdown = total_face_loss(cls, kl, rank, rec, weights)

        # backward
        total_alpha = alpha.sum()
        d_logits = softmax_cross_entropy_grad(probs, label)
        d_xg = self.classifier.backward(store, x_group, d_logits, grads)
        d_z = (alpha / total_alpha)[:, None] * d_xg[None, :]
        d_alpha = (z - x_group[None, :]) @ d_xg / total_alpha
        if rank > 0.0 and order is not None:
            d_alpha[order[:n_high]] += weights.lambda3 * (-1.0 / n_high)
            d_alpha[order[n_high:]] += weights.lambda3 * (1.0 / (n - n_high))
        i_min, i_max = int(np.argmin(s)), int(np.argmax(s))
        if s[i_max] > s[i_min]:  # alpha = s_min + s_max - s
            d_s = -d_alpha
            shift = d_alpha.sum()
            d_s[i_min] += shift
            d_s[i_max] += shift
        else:  # degenerate: alpha is the constant 1
            d_s = np.zeros(n)
        t = np.maximum(prods, SCORE_FLOOR)
        d_t = (d_s * s * s / d)[:, None] / (t * t)
        above = prods > SCORE_FLOOR
        d_sigma = d_z * eps
        d_sigma += d_t * np.abs(eps) * above
        d_sigma += (weights.lambda4 / n) * np.abs(eps)
        d_mu = d_z + weights.lambda2 * mu / n
        d_log_var = 0.5 * sigma * d_sigma + weights.lambda2 * (np.exp(log_var) - 1.0) / (2.0 * n)
        self.head.backward(store, faces, d_mu, d_log_var, grads)
        return breakdown, grads

    def deterministic_loss_and_grads(
        self,
        store: ParameterStore,
        faces: np.ndarray,
        label: int,
        weights: LossWeights,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Baseline: classify the unweighted mean of the face means, CE only."""
        n = faces.shape[0]
        grads: dict[str, np.ndarray] = {}
        mu = self.head.mu_map.forward(store, faces)
        x_group = mu.mean(axis=0)
        logits = self.classifier.forward(store, x_group)
        cls, probs = softmax_cross_entropy(logits, label)
        d_logits = softmax_cross_entropy_grad(probs, label)
        d_xg = self.classifier.backward(store, x_group, d_logits, grads)
        d_mu = np.tile(d_xg / n, (n, 1))
        self.head.mu_map.backward(store, faces, d_mu, grads)
        breakdown = total_face_loss(cls, 0.0, 0.0, 0.0, weights)
        return breakdown, grads

    # -- inference ---------------------------------------------------------

    def infer(
        self,
        store: ParameterStore,
        group: GroupSample,
        rng: SeededRng,
        n_samples: int,
        ablation: str = "full",
        fiqe_samples: int = 8,
        fiqe_threshold: float = 0.3,
        fiqe_enabled: bool = True,
        eps_override: np.ndarray | float | None = None,
    ) -> BranchPrediction:
        faces = group.faces
        if faces.shape[1] != self.in_dim:
            raise ShapeError(
                f"group {group.id}: face dim {faces.shape[1]} != model dim {self.in_dim}"
            )
        n = faces.shape[0]
        deterministic = ablation in ("no-ual", "no-ual-fiqe")
        use_fiqe = fiqe_enabled and ablation in ("full", "no-ual")
        d = self.latent_dim
        seeds = derive_seeds(rng.derive(self.tag, group.id), _content_ranks(faces))
        mu, _, sigma = self.head.forward_checked(store, faces, f"{group.id}/face")

        scores = None
        kept = list(range(n))
        if use_fiqe:
            if eps_override is not None:
                eps = np.full((n, fiqe_samples, d), eps_override, dtype=np.float64)
            else:
                eps = block_normals(derive_seeds(seeds, "fiqe"), (fiqe_samples, d))
            kept, scores = filter_faces(mu, sigma, eps, fiqe_threshold)

        kept_set = set(kept)
        diag_faces = [
            {
                "id": f"{group.id}/face{i}",
                "index": i,
                "kept": i in kept_set,
                "quality": (float(scores[i]) if scores is not None else None),
            }
            for i in range(n)
        ]

        mu = mu[kept]
        sigma = sigma[kept]
        if deterministic:
            x_group = mu.mean(axis=0)
            probs = softmax(self.classifier.forward(store, x_group))
            return BranchPrediction(
                branch=self.tag, probs=probs, diagnostics={"faces": diag_faces}
            )

        if eps_override is not None:
            eps = np.full((n_samples, len(kept), d), eps_override, dtype=np.float64)
        else:
            # drawn per face as (k, N, d); the C-order (N, k, d) copy keeps
            # every reduction below in its per-face summation order
            block = block_normals(derive_seeds(seeds[kept], "mc"), (n_samples, d))
            eps = np.ascontiguousarray(block.swapaxes(0, 1))
        _, _, s, alpha, x_rounds = uncertainty_kernel(mu, sigma, eps)  # s, alpha: (n_samples, k)
        x_group = x_rounds.mean(axis=0)
        probs = softmax(self.classifier.forward(store, x_group))

        mean_s = s.mean(axis=0)
        mean_alpha = alpha.mean(axis=0)
        for pos, i in enumerate(kept):
            diag_faces[i]["score"] = float(mean_s[pos])
            diag_faces[i]["alpha"] = float(mean_alpha[pos])
        return BranchPrediction(branch=self.tag, probs=probs, diagnostics={"faces": diag_faces})


# ---------------------------------------------------------------------------
# object branch


class ObjectBranch(_GaussianBranch):
    tag = "object"

    def loss_and_grads(
        self,
        store: ParameterStore,
        objects: np.ndarray,
        label: int,
        eps: np.ndarray,
        weights: LossWeights,
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        """Mean per-object loss: lambda1-mixed CE on mu and z*, plus KL."""
        k, d = eps.shape
        if objects.shape[0] != k or k == 0:
            raise ShapeError(f"{k} noise rows for {objects.shape[0]} objects")
        grads: dict[str, np.ndarray] = {}
        mu, log_var, sigma = self.head.forward(store, objects)
        z = mu + eps * sigma
        logits_mu = self.classifier.forward(store, mu)
        logits_z = self.classifier.forward(store, z)
        probs_mu = softmax(logits_mu, axis=1)
        probs_z = softmax(logits_z, axis=1)
        ce_mu = [softmax_cross_entropy(logits_mu[i], label)[0] for i in range(k)]
        ce_z = [softmax_cross_entropy(logits_z[i], label)[0] for i in range(k)]
        cls = weights.lambda1 * float(np.mean(ce_mu)) + (1.0 - weights.lambda1) * float(
            np.mean(ce_z)
        )
        breakdown = total_object_loss(cls, kl_loss(mu, log_var), weights)

        onehot = np.zeros(self.num_classes)
        onehot[label] = 1.0
        d_logits_mu = (probs_mu - onehot) * (weights.lambda1 / k)
        d_logits_z = (probs_z - onehot) * ((1.0 - weights.lambda1) / k)
        d_mu = self.classifier.backward(store, mu, d_logits_mu, grads)
        d_z = self.classifier.backward(store, z, d_logits_z, grads)
        d_mu = d_mu + d_z + weights.lambda2 * mu / k
        d_sigma = d_z * eps
        d_log_var = 0.5 * sigma * d_sigma + weights.lambda2 * (np.exp(log_var) - 1.0) / (2.0 * k)
        self.head.backward(store, objects, d_mu, d_log_var, grads)
        return breakdown, grads

    def infer(
        self,
        store: ParameterStore,
        group: GroupSample,
        rng: SeededRng,
        n_samples: int,
        eps_override: np.ndarray | float | None = None,
    ) -> BranchPrediction:
        objects = group.objects
        if objects.shape[0] == 0:
            return BranchPrediction(
                branch=self.tag,
                probs=np.full(self.num_classes, 1.0 / self.num_classes),
                present=False,
                diagnostics={"objects": []},
            )
        if objects.shape[1] != self.in_dim:
            raise ShapeError(
                f"group {group.id}: object dim {objects.shape[1]} != model dim {self.in_dim}"
            )
        ranks = _content_ranks(objects)
        seeds = derive_seeds(derive_seeds(rng.derive(self.tag, group.id), ranks), "mc")
        mu, _, sigma = self.head.forward_checked(store, objects, f"{group.id}/object")
        forced = None
        if eps_override is not None:
            forced = np.full(self.latent_dim, eps_override, dtype=np.float64)
        per_object = []
        classify = lambda zz: self.classifier.forward(store, zz)  # noqa: E731
        for i in range(objects.shape[0]):
            stream = SeededRng(int(seeds[i]))
            p, _ = mc_predict(mu[i], sigma[i], classify, n_samples, stream, eps_override=forced)
            per_object.append(p)
        probs = np.mean(per_object, axis=0)
        diag = [{"index": i, "probs": [float(v) for v in p]} for i, p in enumerate(per_object)]
        return BranchPrediction(branch=self.tag, probs=probs, diagnostics={"objects": diag})


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
        self, store: ParameterStore, scene: np.ndarray, label: int, weights: LossWeights
    ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
        grads: dict[str, np.ndarray] = {}
        logits = self.classifier.forward(store, scene)
        cls, probs = softmax_cross_entropy(logits, label)
        self.classifier.backward(store, scene, softmax_cross_entropy_grad(probs, label), grads)
        return LossBreakdown(cls=cls, kl=0.0, rank=0.0, rec=0.0, total=cls, weights=weights), grads

    def infer(self, store: ParameterStore, group: GroupSample) -> BranchPrediction:
        scene = group.scene
        if scene.shape[0] != self.in_dim:
            raise ShapeError(
                f"group {group.id}: scene dim {scene.shape[0]} != model dim {self.in_dim}"
            )
        probs = softmax(self.classifier.forward(store, scene))
        return BranchPrediction(branch=self.tag, probs=probs)


Branch = FaceBranch | ObjectBranch | SceneBranch


def build_branches(
    config: TrainingConfig,
    dims: dict,
    tags: Sequence[str] = BRANCH_TAGS,
) -> dict[str, Branch]:
    """Instantiate branch models for the given feature dims and class count."""
    num_classes = int(dims["num_classes"])
    out: dict[str, Branch] = {}
    for tag in BRANCH_TAGS:  # fixed order
        if tag not in tags:
            continue
        if tag == "face":
            out[tag] = FaceBranch(int(dims["face_dim"]), config.latent_dim, num_classes)
        elif tag == "object":
            out[tag] = ObjectBranch(int(dims["object_dim"]), config.latent_dim, num_classes)
        else:
            out[tag] = SceneBranch(int(dims["scene_dim"]), num_classes)
    return out


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
    """Combine branch probability vectors into one, excluding absent branches.

    ``pwfs`` (proportional-weighted fusion) weights each branch by its share
    of the total top-class confidence; the other strategies use fixed priors.
    """
    if strategy not in FUSION_STRATEGIES:
        raise ConfigError(f"unknown fusion strategy {strategy!r}")
    present = [p for p in predictions if p.present]
    if not present:
        raise ValueError("no present branch predictions to fuse")
    if strategy == "pwfs":
        conf = np.array([float(np.max(p.probs)) for p in present])
    else:
        priors = _FUSION_PRIORS[strategy]
        conf = np.array([priors[p.branch] for p in present])
    weights = conf / conf.sum()
    fused = np.zeros_like(present[0].probs)
    for w, p in zip(weights, present):
        fused = fused + w * p.probs
    fused = fused / fused.sum()
    return FusionResult(probs=fused, weights={p.branch: float(w) for p, w in zip(present, weights)})


# ---------------------------------------------------------------------------
# inference entry points


def branch_infer(
    branch: Branch,
    group: GroupSample,
    store: ParameterStore,
    config: TrainingConfig,
    rng: SeededRng,
    n_samples: int | None = None,
    ablation: str = "full",
    eps_override: np.ndarray | float | None = None,
) -> BranchPrediction:
    """Run one branch on one group using the run-level inference stream."""
    if ablation not in ABLATIONS:
        raise ConfigError(f"unknown ablation {ablation!r}")
    n = n_samples if n_samples is not None else config.mc_samples
    if isinstance(branch, FaceBranch):
        return branch.infer(
            store,
            group,
            rng,
            n,
            ablation=ablation,
            fiqe_samples=config.fiqe_samples,
            fiqe_threshold=config.delta2,
            fiqe_enabled=config.fiqe_apply in ("both", "eval"),
            eps_override=eps_override,
        )
    if isinstance(branch, ObjectBranch):
        return branch.infer(store, group, rng, n, eps_override=eps_override)
    return branch.infer(store, group)


def predict_group(
    group: GroupSample,
    store: ParameterStore,
    branches: dict[str, Branch],
    config: TrainingConfig,
    rng: SeededRng,
    n_samples: int | None = None,
    ablation: str = "full",
    fusion: str = "pwfs",
    eps_override: np.ndarray | float | None = None,
) -> GroupPrediction:
    """Fuse all available branches and pick the argmax class (ties: lowest index)."""
    preds = {
        tag: branch_infer(
            branches[tag], group, store, config, rng,
            n_samples=n_samples, ablation=ablation, eps_override=eps_override,
        )
        for tag in BRANCH_TAGS
        if tag in branches
    }
    fused = fuse_predictions(list(preds.values()), fusion)
    return GroupPrediction(
        label=int(np.argmax(fused.probs)),
        probs=fused.probs,
        weights=fused.weights,
        branch_predictions=preds,
    )


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


def _check_finite(breakdown: LossBreakdown, group_id: str) -> None:
    for term in ("cls", "kl", "rank", "rec", "total"):
        if not math.isfinite(getattr(breakdown, term)):
            raise NumericError(f"group {group_id}: non-finite loss term {term!r}")


class _group_loss:
    """Context that tags numeric failures with the offending group id and
    silences the transient overflow warnings that precede them."""

    def __init__(self, group_id: str):
        self.group_id = group_id
        self._errstate = np.errstate(over="ignore", invalid="ignore")

    def __enter__(self):
        self._errstate.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._errstate.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, NumericError):
            raise NumericError(f"group {self.group_id}: {exc}") from exc
        return False


def _mean_breakdown(
    rows: list[tuple[float, ...]], row_weights: list[int], weights: LossWeights
) -> LossBreakdown:
    if not rows:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, weights)
    w = np.asarray(row_weights, dtype=np.float64)
    cls, kl, rank, rec, total = (
        float(v) for v in (np.asarray(rows) * w[:, None]).sum(axis=0) / w.sum()
    )
    return LossBreakdown(cls, kl, rank, rec, total, weights)


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
        self.optimizers: dict[str, Sgd | Adam] = {}
        for tag in branches:
            if tag == "face":
                self.optimizers[tag] = Adam(config.face_lr)
            elif tag == "object":
                self.optimizers[tag] = Sgd(config.object_lr)
            else:
                self.optimizers[tag] = Sgd(config.scene_lr)

    def train_epoch(self, groups: Sequence[GroupSample], epoch: int) -> dict[str, LossBreakdown]:
        """One pass of mini-batch optimization for every enabled branch.

        A group enters its batch's gradient with weight ``w / total``: ``w``
        is 1 for face and scene and the object count for object, and groups
        (or whole batches) of weight 0 are skipped. The epoch's loss row is
        the mean of the groups' rows under the same weights.
        """
        if not groups:
            raise DataError("cannot train on an empty dataset")
        out: dict[str, LossBreakdown] = {}
        for tag in BRANCH_TAGS:
            if tag not in self.branches:
                continue
            group_weight, group_loss = self._objective(tag, epoch)
            rows, row_weights = [], []
            for batch in self._batches(len(groups), tag, epoch):
                batch_groups = [groups[int(gi)] for gi in batch]
                batch_weights = [group_weight(group) for group in batch_groups]
                total = sum(batch_weights)
                if total == 0:
                    continue
                grads: dict[str, np.ndarray] = {}
                for group, w in zip(batch_groups, batch_weights):
                    if w == 0:
                        continue
                    with _group_loss(group.id):
                        bd, g = group_loss(group)
                    _check_finite(bd, group.id)
                    rows.append(bd.as_row())
                    row_weights.append(w)
                    scale = w / total
                    for name, val in g.items():
                        if name in grads:
                            grads[name] += scale * val
                        else:
                            grads[name] = scale * val
                self.optimizers[tag].step(self.store, grads)
            out[tag] = _mean_breakdown(rows, row_weights, self.config.loss_weights)
        return out

    def _batches(self, n: int, tag: str, epoch: int):
        root = SeededRng(self.config.seed)
        order = root.derive("shuffle", tag, epoch).permutation(n)
        b = self.config.batch_size
        for start in range(0, n, b):
            yield order[start : start + b]

    def _objective(self, tag: str, epoch: int):
        """``(weight, loss)`` functions of one group for branch ``tag``.

        ``loss(group)`` returns the branch's ``(LossBreakdown, grads)``. Its
        noise for individual ``j`` comes from the stream keyed
        ``(seed, "train", tag, epoch, group id, j)``; the face quality filter
        draws from ``(seed, "train-fiqe", "face", epoch, group id, j)``.
        """
        cfg = self.config
        store = self.store
        weights = cfg.loss_weights
        branch = self.branches[tag]
        root = SeededRng(cfg.seed)

        if tag == "scene":
            def scene_loss(group):
                return branch.loss_and_grads(store, group.scene, group.label, weights)

            return (lambda group: 1), scene_loss

        if tag == "object":
            def object_loss(group):
                stream = root.derive("train", "object", epoch, group.id)
                k = group.objects.shape[0]
                eps = block_normals(derive_seeds(stream, np.arange(k)), cfg.latent_dim)
                return branch.loss_and_grads(store, group.objects, group.label, eps, weights)

            return (lambda group: group.objects.shape[0]), object_loss

        deterministic = self.ablation in ("no-ual", "no-ual-fiqe")
        fiqe_on = self.ablation in ("full", "no-ual") and cfg.fiqe_apply in ("both", "train")

        def face_loss(group):
            faces = group.faces
            indices = np.arange(faces.shape[0])
            if fiqe_on:
                mu, _, sigma = branch.head.forward_checked(store, faces, f"{group.id}/face")
                stream = root.derive("train-fiqe", "face", epoch, group.id)
                eps = block_normals(
                    derive_seeds(stream, indices), (cfg.fiqe_samples, cfg.latent_dim)
                )
                kept, _ = filter_faces(mu, sigma, eps, cfg.delta2)
                faces = faces[kept]
                indices = kept
            if deterministic:
                return branch.deterministic_loss_and_grads(store, faces, group.label, weights)
            stream = root.derive("train", "face", epoch, group.id)
            eps = block_normals(derive_seeds(stream, indices), cfg.latent_dim)
            return branch.loss_and_grads(
                store, faces, group.label, eps, weights, cfg.beta, cfg.delta1
            )

        return (lambda group: 1), face_loss


# ---------------------------------------------------------------------------
# end-to-end helpers


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
    n_samples: int | None = None,
    ablation: str = "full",
    fusion: str = "pwfs",
    collect_diagnostics: bool = False,
) -> EvalResult:
    """Predict every group and compute per-branch plus fused metrics."""
    n = n_samples if n_samples is not None else config.mc_samples
    rng = SeededRng(seed).derive("infer")
    y_true: list[int] = []
    branch_pred: dict[str, list[int]] = {tag: [] for tag in branches}
    fused_pred: list[int] = []
    records: list[dict] = []
    for group in dataset.groups:
        outcome = predict_group(
            group, store, branches, config, rng,
            n_samples=n, ablation=ablation, fusion=fusion,
        )
        y_true.append(group.label)
        fused_pred.append(outcome.label)
        for tag, bp in outcome.branch_predictions.items():
            branch_pred[tag].append(int(np.argmax(bp.probs)))
        if collect_diagnostics:
            rec = {
                "record": "group",
                "id": group.id,
                "label": int(group.label),
                "pred": int(outcome.label),
                "fused_probs": [float(v) for v in outcome.probs],
                "weights": {k: float(v) for k, v in outcome.weights.items()},
                "branches": {
                    tag: {
                        "present": bp.present,
                        "probs": [float(v) for v in bp.probs],
                        **bp.diagnostics,
                    }
                    for tag, bp in outcome.branch_predictions.items()
                },
            }
            records.append(rec)
    reports = {
        tag: compute_metrics(y_true, preds, dataset.num_classes, dataset.class_names)
        for tag, preds in branch_pred.items()
    }
    fused_report = compute_metrics(y_true, fused_pred, dataset.num_classes, dataset.class_names)
    return EvalResult(
        branch_reports=reports,
        fused_report=fused_report,
        records=records,
        fusion=fusion,
        n_samples=n,
    )


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
    val_every: int = 1,
    on_epoch=None,
) -> TrainResult:
    """Train the selected branches for ``config.epochs`` epochs.

    With ``select_best`` set (and a validation set), the parameters of the
    epoch with the highest fused micro accuracy are restored at the end.
    ``val_every = 0`` skips per-epoch validation entirely. ``on_epoch`` is
    called after each epoch as ``on_epoch(epoch, breakdowns, eval_result)``
    where ``eval_result`` is None on epochs without validation.
    """
    dims = {
        "face_dim": train_ds.face_dim,
        "object_dim": train_ds.object_dim,
        "scene_dim": train_ds.scene_dim,
        "num_classes": train_ds.num_classes,
    }
    if val_ds is not None:
        for key, value in dims.items():
            if getattr(val_ds, key) != value:
                raise DataError(f"train/val disagree on {key}")
    store = ParameterStore()
    branches = build_branches(config, dims, branch_tags)
    register_branches(store, branches, config.seed)
    trainer = Trainer(store, branches, config, ablation)
    loss_log: dict[str, list[LossBreakdown]] = {tag: [] for tag in branches}
    best_epoch: int | None = None
    best_micro = -1.0
    best_params: ParameterStore | None = None
    for epoch in range(config.epochs):
        breakdowns = trainer.train_epoch(train_ds.groups, epoch)
        for tag, bd in breakdowns.items():
            loss_log[tag].append(bd)
        result = None
        if val_ds is not None and val_every and (
            epoch % val_every == 0 or epoch == config.epochs - 1
        ):
            result = evaluate_dataset(
                store, branches, val_ds, config, config.seed, ablation=ablation
            )
            if config.select_best and result.fused_report.micro_accuracy > best_micro:
                best_micro = result.fused_report.micro_accuracy
                best_epoch = epoch
                best_params = store.clone()
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
