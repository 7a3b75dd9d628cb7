"""Batched training: stacked branch losses and the bucketed trainer.

Each branch loss takes a stack of groups; one group is a stack of one. A
stack must give, row by row, exactly (``==``) what each group's stack of one
gives, and ``Trainer.train_epoch`` must leave exactly the parameters that a
plain loop over the groups of each batch leaves.
"""

import re

import numpy as np
import pytest

from ual.datagen_metrics import GroupSample
from ual.errors import ShapeError
from ual.losses import LossBreakdown
from ual.numerics import ParameterStore, SeededRng, gradient_check
from ual.pipeline import (
    BRANCH_TAGS,
    Adam,
    FaceBranch,
    ObjectBranch,
    SceneBranch,
    Sgd,
    Trainer,
    TrainingConfig,
    build_branches,
    register_branches,
)
from ual.quality_filter import filter_faces
from ual.uncertainty_scoring import high_low_partition, uncertainty_kernel

IN_DIM, LATENT, CLASSES = 6, 5, 3


def one_group(loss, store, x, label, *rest):
    """``loss`` on one group's input ``x``, run as a stack of one: the group's
    float terms and parameter-shaped gradients. The noise, the other array
    argument, gains the stack axis too."""
    rest = [a[None] if isinstance(a, np.ndarray) else a for a in rest]
    bd, grads = loss(store, x[None], [label], *rest)
    return LossBreakdown(*(float(v[0]) for v in bd.as_row())), {k: v[0] for k, v in grads.items()}


def assert_rows_match(stacked, singles):
    """Row ``g`` of a stacked call equals the stack of one of group ``g``."""
    bd, grads = stacked
    assert len(singles) == len(bd.cls)
    for g, (bd1, grads1) in enumerate(singles):
        assert tuple(float(v[g]) for v in bd.as_row()) == bd1.as_row(), g
        assert set(grads) == set(grads1)
        for name, val in grads1.items():
            assert grads[name][g].shape == val.shape
            assert np.array_equal(grads[name][g], val), (g, name)


def gaussian_branch(cls, seed):
    branch = cls(in_dim=IN_DIM, latent_dim=LATENT, num_classes=CLASSES)
    store = ParameterStore()
    rng = SeededRng(seed)
    branch.register(store, rng.derive("init"))
    # spread the variances, so faces get distinct scores and alphas
    store.get(f"{branch.tag}.embed.logvar.weight")[...] = 0.3 * rng.normals((LATENT, IN_DIM))
    store.get(f"{branch.tag}.embed.logvar.bias")[...] = 0.2 * rng.normals(LATENT)
    return branch, store, rng.derive("data")


class TestStackedFaceLoss:
    BETA = 0.5

    def _call(self, branch, store, faces, labels, eps, delta1):
        cfg = TrainingConfig(beta=self.BETA, delta1=delta1)
        stacked = branch.loss_and_grads(store, faces, labels, eps, cfg)
        singles = [
            one_group(branch.loss_and_grads, store, faces[g], int(labels[g]), eps[g], cfg)
            for g in range(len(labels))
        ]
        return stacked, singles

    def test_single_face_groups_have_no_rank_term(self):
        branch, store, rng = gaussian_branch(FaceBranch, 1)
        faces, eps = rng.normals((4, 1, IN_DIM)), rng.normals((4, 1, LATENT))
        stacked, singles = self._call(branch, store, faces, np.array([0, 1, 2, 1]), eps, 0.2)
        assert_rows_match(stacked, singles)
        assert np.array_equal(stacked[0].rank, np.zeros(4))

    @pytest.mark.parametrize("n,seed", [(2, 2), (3, 3), (5, 4), (8, 5)])
    def test_rank_active_and_inactive_groups_in_one_bucket(self, n, seed):
        branch, store, rng = gaussian_branch(FaceBranch, seed)
        faces, eps = rng.normals((6, n, IN_DIM)), rng.normals((6, n, LATENT))
        labels = np.array([0, 1, 2, 2, 1, 0])
        # a margin between the groups' alpha gaps switches the rank term on for some only
        mu, _, sigma = branch.head.forward(store, faces)
        alpha = uncertainty_kernel(mu, sigma, eps).alpha
        order, n_high = high_low_partition(alpha, self.BETA)
        ranked = np.take_along_axis(alpha, order, axis=-1)
        gaps = ranked[:, :n_high].mean(axis=-1) - ranked[:, n_high:].mean(axis=-1)
        stacked, singles = self._call(branch, store, faces, labels, eps, float(np.median(gaps)))
        assert_rows_match(stacked, singles)
        rank = stacked[0].rank
        assert (rank > 0.0).any() and (rank == 0.0).any()

    def test_identical_faces_give_degenerate_alpha(self):
        branch, store, rng = gaussian_branch(FaceBranch, 6)
        faces, eps = rng.normals((3, 4, IN_DIM)), rng.normals((3, 4, LATENT))
        faces[1] = faces[1][0]  # four copies of one face, with one noise row
        eps[1] = eps[1][0]
        mu, _, sigma = branch.head.forward(store, faces[1])
        assert np.array_equal(uncertainty_kernel(mu, sigma, eps[1]).alpha, np.ones(4))
        stacked, singles = self._call(branch, store, faces, np.array([2, 0, 1]), eps, 0.2)
        assert_rows_match(stacked, singles)
        assert stacked[0].rank[1] == 0.2  # equal alphas: the whole margin is the loss

    @pytest.mark.parametrize("case", ["rank-inactive", "degenerate-alpha"])
    def test_gradients_match_finite_differences(self, case):
        # the two branches of the backward pass the stacked rows switch between
        branch, store, rng = gaussian_branch(FaceBranch, 9)
        faces, eps = rng.normals((4, IN_DIM)), rng.normals((4, LATENT))
        delta1 = 0.0  # no margin: the rank term is 0 and passes no gradient
        if case == "degenerate-alpha":
            faces[:], eps[:], delta1 = faces[0], eps[0], 0.2

        cfg = TrainingConfig(beta=self.BETA, delta1=delta1)

        def loss_fn(s):
            bd, grads = one_group(branch.loss_and_grads, s, faces, 1, eps, cfg)
            return bd.total, grads

        bd, _ = one_group(branch.loss_and_grads, store, faces, 1, eps, cfg)
        assert bd.rank == delta1  # inactive: 0; degenerate: the whole margin, constant
        result = gradient_check(loss_fn, store, tolerance=1e-4)
        assert result.passed, result.max_rel_error

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_deterministic_loss(self, n):
        branch, store, rng = gaussian_branch(FaceBranch, 7 + n)
        faces = rng.normals((4, n, IN_DIM))
        labels = np.array([1, 0, 2, 1])
        stacked = branch.deterministic_loss_and_grads(store, faces, labels, TrainingConfig())
        singles = [
            one_group(branch.deterministic_loss_and_grads, store, faces[g], int(labels[g]),
                      TrainingConfig())
            for g in range(4)
        ]
        assert_rows_match(stacked, singles)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_object_loss(k):
    branch, store, rng = gaussian_branch(ObjectBranch, 20 + k)
    objects, eps = rng.normals((4, k, IN_DIM)), rng.normals((4, k, LATENT))
    labels = np.array([2, 0, 1, 0])
    cfg = TrainingConfig(lambda2=0.5)
    stacked = branch.loss_and_grads(store, objects, labels, eps, cfg)
    singles = [
        one_group(branch.loss_and_grads, store, objects[g], int(labels[g]), eps[g], cfg)
        for g in range(4)
    ]
    assert_rows_match(stacked, singles)


def test_stacked_scene_loss():
    branch = SceneBranch(IN_DIM, CLASSES)
    store = ParameterStore()
    rng = SeededRng(30)
    branch.register(store, rng.derive("init"))
    scene = rng.normals((5, IN_DIM))
    labels = np.array([0, 2, 1, 1, 0])
    stacked = branch.loss_and_grads(store, scene, labels)
    singles = [one_group(branch.loss_and_grads, store, scene[g], int(labels[g]))
               for g in range(5)]
    assert_rows_match(stacked, singles)


UNSTACKED_NEEDS = {
    "face": "(G, n, 6)", "face-label": "(G,) labels", "deterministic": "(G, n, 6)",
    "object": "(G, k, 6)", "scene": "(G, 6)",
    "affine-forward": "(..., n, 6)", "affine-backward": "(..., n, 6)",
}


@pytest.mark.parametrize("call", UNSTACKED_NEEDS)
def test_unstacked_input_is_refused(call):
    """One group's input without its stack axis raises, naming the shape it needs."""
    face, store, rng = gaussian_branch(FaceBranch, 50)
    obj, scene = ObjectBranch(IN_DIM, LATENT, CLASSES), SceneBranch(IN_DIM, CLASSES)
    obj.register(store, rng.derive("object"))
    scene.register(store, rng.derive("scene"))
    x, eps, cfg = rng.normals((3, IN_DIM)), rng.normals((3, LATENT)), TrainingConfig()
    unit = face.head.mu_map
    calls = {
        "face": lambda: face.loss_and_grads(store, x, 1, eps, cfg),
        "face-label": lambda: face.loss_and_grads(store, x[None], 1, eps[None], cfg),
        "deterministic": lambda: face.deterministic_loss_and_grads(store, x, 1, cfg),
        "object": lambda: obj.loss_and_grads(store, x, 1, eps, cfg),
        "scene": lambda: scene.loss_and_grads(store, x[0], 1),
        "affine-forward": lambda: unit.forward(store, x[0]),
        "affine-backward": lambda: unit.backward(store, x[0], np.ones(LATENT), {}),
    }
    with pytest.raises(ShapeError, match=re.escape(UNSTACKED_NEEDS[call])):
        calls[call]()


# ---------------------------------------------------------------------------
# the trainer against a per-group loop

FACE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 3, 5, 2, 4, 6)  # 13 groups: batches of 5, 5 and 3
FALLBACK = 4  # every face of this group fails the quality filter


def oracle_groups():
    rng = SeededRng(40)
    groups = []
    for i, n in enumerate(FACE_COUNTS):
        faces = rng.normals((n, IN_DIM))
        faces[:, 0] = np.clip(faces[:, 0], -1.5, 1.5)
        if i == FALLBACK:
            faces[:, 0] = 4.0
        elif n >= 3:
            faces[0, 0] = 3.0  # one noisy face that the filter drops
        k = i % 4  # 0..3 objects: some groups have none
        groups.append(GroupSample(
            id=f"g{i:02d}", label=i % CLASSES, faces=faces,
            objects=rng.normals((k, IN_DIM)), scene=rng.normals(IN_DIM),
        ))
    return groups


def oracle_model(config):
    dims = {"face_dim": IN_DIM, "object_dim": IN_DIM, "scene_dim": IN_DIM,
            "num_classes": CLASSES}
    store = ParameterStore()
    branches = build_branches(config, dims)
    register_branches(store, branches, config.seed)
    # log-variance grows with feature 0, so faces with a large one are noisy
    weight = store.get("face.embed.logvar.weight")
    weight[...] = 0.0
    weight[:, 0] = 1.5
    return store, branches


def per_group_loss(tag, branch, store, cfg, ablation, group, epoch):
    """One group's loss and gradients, as the trainer defines them."""
    root = SeededRng(cfg.seed)
    if tag == "scene":
        return one_group(branch.loss_and_grads, store, group.scene, group.label)
    if tag == "object":
        eps = np.stack([root.derive("train", "object", epoch, group.id, j).normals(cfg.latent_dim)
                        for j in range(group.objects.shape[0])])
        return one_group(branch.loss_and_grads, store, group.objects, group.label, eps, cfg)
    faces, kept = group.faces, list(range(group.faces.shape[0]))
    if ablation in ("full", "no-ual") and cfg.fiqe_apply in ("both", "train"):
        mu, _, sigma = branch.head.forward(store, faces)
        eps = np.stack([
            root.derive("train-fiqe", "face", epoch, group.id, j).normals(
                (cfg.fiqe_samples, cfg.latent_dim))
            for j in kept
        ])
        kept, _ = filter_faces(mu, sigma, eps, cfg.delta2, [len(kept)])
        faces = faces[kept]
    if ablation in ("no-ual", "no-ual-fiqe"):
        return one_group(branch.deterministic_loss_and_grads, store, faces, group.label, cfg)
    eps = np.stack([root.derive("train", "face", epoch, group.id, j).normals(cfg.latent_dim)
                    for j in kept])
    return one_group(branch.loss_and_grads, store, faces, group.label, eps, cfg)


def oracle_epoch(store, branches, optimizers, cfg, ablation, groups, epoch):
    """Train one epoch group by group: the loop the batched trainer replaces."""
    out = {}
    for tag in BRANCH_TAGS:
        order = SeededRng(cfg.seed).derive("shuffle", tag, epoch).permutation(len(groups))
        rows, row_weights = [], []
        for start in range(0, len(groups), cfg.batch_size):
            batch = [groups[int(i)] for i in order[start : start + cfg.batch_size]]
            batch_weights = [g.objects.shape[0] if tag == "object" else 1 for g in batch]
            total = sum(batch_weights)
            if total == 0:
                continue
            grads = {}
            for group, w in zip(batch, batch_weights):
                if w == 0:
                    continue
                bd, g = per_group_loss(tag, branches[tag], store, cfg, ablation, group, epoch)
                rows.append(bd.as_row())
                row_weights.append(w)
                for name, val in g.items():
                    scaled = (w / total) * val
                    grads[name] = grads[name] + scaled if name in grads else scaled
            optimizers[tag].step(store, grads)
        w = np.asarray(row_weights, dtype=np.float64)
        out[tag] = tuple(float(v) for v in (np.asarray(rows) * w[:, None]).sum(axis=0) / w.sum())
    return out


ORACLE_CONFIG = TrainingConfig(
    latent_dim=4, batch_size=5, epochs=2, seed=3, fiqe_samples=4, delta1=0.2,
    face_lr=1e-2, object_lr=0.05, scene_lr=0.05,
)


def test_oracle_data_covers_the_odd_cases():
    groups = oracle_groups()
    assert sorted(set(FACE_COUNTS)) == list(range(1, 9))
    assert len(groups) % ORACLE_CONFIG.batch_size != 0  # a partial last batch
    assert any(g.objects.shape[0] == 0 for g in groups)
    store, branches = oracle_model(ORACLE_CONFIG)
    cfg = ORACLE_CONFIG
    fallback = groups[FALLBACK]
    mu, _, sigma = branches["face"].head.forward(store, fallback.faces)
    eps = SeededRng(0).normals((len(fallback.faces), cfg.fiqe_samples, cfg.latent_dim))
    kept, scores = filter_faces(mu, sigma, eps, cfg.delta2, [len(fallback.faces)])
    assert (scores < cfg.delta2).all() and len(kept) == 1
    group = groups[2]
    mu, _, sigma = branches["face"].head.forward(store, group.faces)
    kept, _ = filter_faces(mu, sigma, eps[: len(group.faces)], cfg.delta2, [len(group.faces)])
    assert kept == [1, 2]


@pytest.mark.parametrize("ablation", ["full", "no-fiqe", "no-ual", "no-ual-fiqe"])
def test_trainer_equals_per_group_loop(ablation):
    groups = oracle_groups()
    cfg = ORACLE_CONFIG
    store, branches = oracle_model(cfg)
    trainer = Trainer(store, branches, cfg, ablation)
    ref_store, ref_branches = oracle_model(cfg)
    optimizers = {"face": Adam(cfg.face_lr), "object": Sgd(cfg.object_lr),
                  "scene": Sgd(cfg.scene_lr)}
    for epoch in range(cfg.epochs):
        got = trainer.train_epoch(groups, epoch)
        want = oracle_epoch(ref_store, ref_branches, optimizers, cfg, ablation, groups, epoch)
        assert {tag: bd.as_row() for tag, bd in got.items()} == want
    assert store.names() == ref_store.names()
    for name in store.names():
        assert np.array_equal(store.get(name), ref_store.get(name)), name


def test_face_loss_runs_once_per_bucket(monkeypatch):
    calls = []
    original = FaceBranch.loss_and_grads

    def counted(self, store, faces, *args):
        calls.append(faces.shape[:-1])
        return original(self, store, faces, *args)

    monkeypatch.setattr(FaceBranch, "loss_and_grads", counted)
    groups = [g for g in oracle_groups() if g.faces.shape[0] in (2, 3)]  # 2, 3, 3, 2
    cfg = TrainingConfig(latent_dim=4, batch_size=4, fiqe_apply="off", fiqe_samples=4)
    store, branches = oracle_model(cfg)
    Trainer(store, {"face": branches["face"]}, cfg).train_epoch(groups, 0)
    assert sorted(calls) == [(2, 2), (2, 3)]  # one stacked call per face count


def test_object_loss_runs_once_per_bucket(monkeypatch):
    calls = []
    original = ObjectBranch.loss_and_grads

    def counted(self, store, objects, *args):
        calls.append(objects.copy())
        return original(self, store, objects, *args)

    monkeypatch.setattr(ObjectBranch, "loss_and_grads", counted)
    groups = oracle_groups()[:8]  # 0, 1, 2, 3, 0, 1, 2, 3 objects
    cfg = TrainingConfig(latent_dim=4, batch_size=8)
    store, branches = oracle_model(cfg)
    Trainer(store, {"object": branches["object"]}, cfg).train_epoch(groups, 0)
    # one stacked call per object count; the groups without objects enter none
    assert sorted(stack.shape[:-1] for stack in calls) == [(2, 1), (2, 2), (2, 3)]
    # each item of a stack is one group's objects, each group's exactly once
    items = sorted(item.tobytes() for stack in calls for item in stack)
    assert items == sorted(g.objects.tobytes() for g in groups if g.objects.shape[0])
