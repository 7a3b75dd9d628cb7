import copy
import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ual.datagen_metrics import GroupSample, SynthesisSpec, generate_dataset
from ual import pipeline
from ual.errors import ConfigError, DataError, NumericError
from ual.losses import LossBreakdown
from ual.numerics import ParameterStore, SeededRng, block_normals, derive_seeds, softmax
from ual.pipeline import (
    BranchPrediction,
    EvalResult,
    FaceBranch,
    _content_ranks,
    Trainer,
    TrainingConfig,
    branch_infer,
    build_branches,
    config_from_mapping,
    evaluate_dataset,
    fuse_predictions,
    predict_group,
    register_branches,
    train_model,
)
from ual.quality_filter import filter_faces
from ual.uncertainty_scoring import SCORE_FLOOR, uncertainty_kernel


def bp(branch, probs, present=True):
    return BranchPrediction(branch=branch, probs=np.asarray(probs, dtype=np.float64), present=present)


class TestFusion:
    def test_identical_branches_fixed_point(self):
        p = [0.5, 0.3, 0.2]
        result = fuse_predictions([bp("face", p), bp("object", p), bp("scene", p)], "pwfs")
        assert np.allclose(result.probs, p, atol=1e-15)
        assert all(w == pytest.approx(1 / 3) for w in result.weights.values())

    def test_single_branch(self):
        result = fuse_predictions([bp("face", [0.9, 0.05, 0.05])], "pwfs")
        assert np.allclose(result.probs, [0.9, 0.05, 0.05])
        assert result.weights == {"face": 1.0}

    def test_worked_three_branch_example(self):
        f = [0.8, 0.1, 0.1]
        o = [0.4, 0.3, 0.3]
        s = [0.5, 0.25, 0.25]
        result = fuse_predictions([bp("face", f), bp("object", o), bp("scene", s)], "pwfs")
        assert result.weights["face"] == pytest.approx(8 / 17, abs=1e-12)
        assert result.weights["object"] == pytest.approx(4 / 17, abs=1e-12)
        assert result.weights["scene"] == pytest.approx(5 / 17, abs=1e-12)
        # independent oracle: w_b = max(sc_b) / sum(max), fused = sum w * sc
        conf = [0.8, 0.4, 0.5]
        oracle = sum(
            (c / sum(conf)) * np.array(v) for c, v in zip(conf, [f, o, s])
        )
        oracle = oracle / oracle.sum()
        assert np.max(np.abs(result.probs - oracle)) < 1e-12

    def test_weights_form_simplex(self):
        rng = SeededRng(1)
        for _ in range(30):
            preds = []
            for tag in ("face", "object", "scene"):
                logits = rng.normals(4)
                e = np.exp(logits - logits.max())
                preds.append(bp(tag, e / e.sum()))
            result = fuse_predictions(preds, "pwfs")
            assert all(w >= 0 for w in result.weights.values())
            assert sum(result.weights.values()) == pytest.approx(1.0, abs=1e-12)
            assert result.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(result.probs >= 0)

    def test_absent_branch_excluded(self):
        result = fuse_predictions([
            bp("face", [0.6, 0.2, 0.2]),
            bp("object", [1 / 3, 1 / 3, 1 / 3], present=False),
            bp("scene", [0.6, 0.2, 0.2]),
        ], "pwfs")
        assert result.weights == {"face": 0.5, "object": 0.0, "scene": 0.5}
        assert np.allclose(result.probs, [0.6, 0.2, 0.2])

    def test_priority_strategies(self):
        preds = [bp("face", [0.7, 0.2, 0.1]), bp("object", [0.4, 0.4, 0.2]),
                 bp("scene", [0.3, 0.3, 0.4])]
        equal = fuse_predictions(preds, "equal")
        assert all(w == pytest.approx(1 / 3) for w in equal.weights.values())
        glob = fuse_predictions(preds, "global-priority")
        assert glob.weights["scene"] == pytest.approx(2 / 3)
        assert glob.weights["face"] == pytest.approx(1 / 6)
        face = fuse_predictions(preds, "face-priority")
        assert face.weights["face"] == pytest.approx(1 / 2)
        assert face.weights["object"] == pytest.approx(1 / 4)

    @pytest.mark.parametrize("entries", [1, 3])
    @pytest.mark.parametrize("strategy", pipeline.FUSION_STRATEGIES)
    def test_step_fusion_equals_per_group_fusion(self, strategy, entries):
        # a step of every mix of present and absent branches, and an object-only
        # model on groups with and without objects, fused in one call; each
        # group's result equals a fusion of its present branches alone, or of
        # every branch when none is present, bit for bit
        mixes = np.array(list(itertools.product([True, False], repeat=3)))
        rng = SeededRng(4)
        step = [bp(tag, softmax(rng.normals((len(mixes), entries, 4))), mixes[:, b])
                for b, tag in enumerate(pipeline.BRANCH_TAGS)]
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg, tags=("object",))
        objects, _ = branch_infer(branches["object"], ds.groups, store, cfg,
                                  SeededRng(0).derive("infer"), (1, 5, 3)[:entries])
        assert 0 < objects.present.sum() < len(ds.groups)
        for preds in (step, [objects]):
            fused = fuse_predictions(preds, strategy)
            for j in range(len(preds[0].probs)):
                alone = ([bp(p.branch, p.probs[j]) for p in preds if p.present[j]]
                         or [bp(p.branch, p.probs[j], present=False) for p in preds])
                want = fuse_predictions(alone, strategy)
                got = predict_group(None, fused, j)
                assert _bits(got.probs) == _bits(want.probs)
                assert {tag: _bits(w) for tag, w in got.weights.items()} == {
                    tag: _bits(w) for tag, w in want.weights.items()}

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            fuse_predictions([bp("face", [1.0, 0.0])], "mean")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_predictions([], "pwfs")

    @pytest.mark.parametrize("strategy", ["pwfs", "global-priority"])
    def test_all_absent_fused_as_given(self, strategy):
        uniform = [1 / 3, 1 / 3, 1 / 3]
        result = fuse_predictions([bp("object", uniform, present=False)], strategy)
        assert result.weights == {"object": 1.0}
        assert np.allclose(result.probs, uniform)
        both = fuse_predictions(
            [bp("object", uniform, present=False), bp("scene", [0.5, 0.25, 0.25], present=False)],
            strategy,
        )
        assert both.weights == {"object": 0.5, "scene": 0.5}
        assert np.allclose(both.probs, [5 / 12, 7 / 24, 7 / 24])


def tiny_dataset(num_groups=12, seed=3, **kw):
    spec = SynthesisSpec(
        num_groups=num_groups, face_dim=6, object_dim=5, scene_dim=4,
        group_size_min=2, group_size_max=4, object_count_min=0, object_count_max=2,
        seed=seed, **kw,
    )
    return generate_dataset(spec)


def tiny_config(**kw):
    base = dict(latent_dim=4, epochs=2, batch_size=4, seed=0,
                face_lr=1e-3, object_lr=0.05, scene_lr=0.05, mc_samples=5, fiqe_samples=4)
    base.update(kw)
    return TrainingConfig(**base)


def predict(groups, store, branches, cfg, rng, sample_counts=None, ablation="full"):
    """One ``branch_infer`` step over ``groups`` per branch, fused in one
    ``fuse_predictions`` call, as ``evaluate_dataset`` runs them: the steps
    ``{tag: (prediction, arrays)}`` and each group's ``predict_group`` view."""
    steps = {
        tag: branch_infer(branch, groups, store, cfg, rng, sample_counts, ablation)
        for tag, branch in branches.items()
    }
    fused = fuse_predictions([pred for pred, _ in steps.values()])
    return steps, [predict_group(group, fused, j) for j, group in enumerate(groups)]


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


def entry(steps, fused, groups, j, e):
    """Group ``j``'s sweep entry ``e`` from :func:`predict`, as comparable bits:
    its fused probabilities, label and weights, and per branch its
    probabilities, present flag and rows of each per-individual array."""
    branches = {}
    for tag, (pred, arrays) in steps.items():
        sizes = [getattr(group, f"{tag}s").shape[0] for group in groups] if arrays else [0]
        rows = slice(sum(sizes[:j]), sum(sizes[: j + 1]))
        branches[tag] = (
            _bits(pred.probs[j, e]),
            bool(pred.present[j]),
            {k: _bits(v[rows, e] if v.ndim > 1 else v[rows]) for k, v in arrays.items()},
        )
    probs, weights = fused[j].probs[e], fused[j].weights
    return (_bits(probs), int(np.argmax(probs)), {t: float(w[e]) for t, w in weights.items()},
            branches)


def build_model(dataset, config, tags=("face", "object", "scene")):
    dims = {"face_dim": dataset.face_dim, "object_dim": dataset.object_dim,
            "scene_dim": dataset.scene_dim, "num_classes": dataset.num_classes}
    store = ParameterStore()
    branches = build_branches(config, dims, tags)
    register_branches(store, branches, config.seed)
    return store, branches


class TestBranchInfer:
    def test_single_face_deterministic_collapse(self, monkeypatch):
        # every inference draw is zero noise
        monkeypatch.setattr(
            "ual.pipeline.block_normals",
            lambda seeds, shape: np.zeros(np.shape(seeds) + tuple(np.atleast_1d(shape))),
        )
        ds = tiny_dataset()
        cfg = tiny_config(fiqe_apply="off")
        store, branches = build_model(ds, cfg)
        group = GroupSample(
            id="g", label=0, faces=ds.groups[0].faces[:1],
            objects=np.zeros((0, 5)), scene=np.zeros(4),
        )
        # sigma -> 0 via a very negative log-variance bias
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = -80.0
        pred, _ = branch_infer(branches["face"], [group], store, cfg, SeededRng(0).derive("infer"))
        W = store.get("face.classifier.weight")
        b = store.get("face.classifier.bias")
        mu = store.get("face.embed.mu.weight") @ group.faces[0] + store.get("face.embed.mu.bias")
        logits = W @ mu + b
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert np.array_equal(pred.probs[0, 0], expected)

    def test_two_identical_objects_equal_single(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        obj = SeededRng(5).normals(5)
        g1 = GroupSample(id="g", label=0, faces=ds.groups[0].faces,
                         objects=obj[None, :], scene=np.zeros(4))
        g2 = GroupSample(id="g", label=0, faces=ds.groups[0].faces,
                         objects=np.stack([obj, obj]), scene=np.zeros(4))
        p1, _ = branch_infer(branches["object"], [g1], store, cfg, SeededRng(0).derive("infer"))
        p2, _ = branch_infer(branches["object"], [g2], store, cfg, SeededRng(0).derive("infer"))
        # identical objects share a content-keyed noise stream, so their
        # predictions coincide (up to the BLAS kernel's last ulp) and the
        # mean of two equal vectors is that vector
        np.testing.assert_allclose(p1.probs, p2.probs, rtol=0, atol=1e-14)

    def test_no_objects_flagged_absent(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        group = GroupSample(id="g", label=1, faces=ds.groups[0].faces,
                            objects=np.zeros((0, 5)), scene=SeededRng(1).normals(4))
        pred, arrays = branch_infer(
            branches["object"], [group], store, cfg, SeededRng(0).derive("infer")
        )
        assert pred.present.tolist() == [False]
        assert np.allclose(pred.probs, 1.0 / 3.0)
        assert arrays["probs"].shape == (0, 1, 3)

    @pytest.mark.parametrize("ablation", ["full", "no-ual-fiqe"])
    def test_underflowing_sigma_names_the_group(self, ablation):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = -2000.0  # sigma = exp(-1000) = 0
        group = ds.groups[1]
        with pytest.raises(NumericError, match=f"strictly positive .*'{group.id}/face0'"):
            branch_infer(branches["face"], [group], store, cfg, SeededRng(0).derive("infer"),
                         (4,), ablation)

    def test_face_infer_matches_from_scratch_oracle(self):
        ds = tiny_dataset(seed=8)
        cfg = tiny_config(mc_samples=6)
        store, branches = build_model(ds, cfg)
        group = ds.groups[2]
        seed = 77
        pred, _ = branch_infer(
            branches["face"], [group], store, cfg,
            SeededRng(seed).derive("infer"), sample_counts=(6,),
        )
        oracle = self._face_oracle(store, group, cfg, seed, n_samples=6)
        assert np.max(np.abs(pred.probs[0, 0] - oracle)) < 1e-9

    @staticmethod
    def _face_oracle(store, group, cfg, seed, n_samples):
        """Independent recomputation of face-branch inference with plain loops."""
        faces = group.faces
        n = faces.shape[0]
        Wm, bm = store.get("face.embed.mu.weight"), store.get("face.embed.mu.bias")
        Ws, bs = store.get("face.embed.logvar.weight"), store.get("face.embed.logvar.bias")
        Wc, bc = store.get("face.classifier.weight"), store.get("face.classifier.bias")
        d = Wm.shape[0]
        # content ranks (dense, ties share)
        order = sorted(range(n), key=lambda i: tuple(faces[i]))
        ranks, r, prev = {}, 0, None
        for i in order:
            key = tuple(faces[i])
            if prev is not None and key != prev:
                r += 1
            ranks[i] = r
            prev = key
        rng = SeededRng(seed).derive("infer")
        streams = {i: rng.derive("face", group.id, ranks[i]) for i in range(n)}
        mus, sigmas = {}, {}
        for i in range(n):
            mus[i] = np.array([sum(Wm[a, b_] * faces[i][b_] for b_ in range(faces.shape[1])) + bm[a]
                               for a in range(d)])
            lv = np.array([sum(Ws[a, b_] * faces[i][b_] for b_ in range(faces.shape[1])) + bs[a]
                           for a in range(d)])
            sigmas[i] = np.exp(0.5 * lv)
        # quality filter
        kept = []
        scores = []
        for i in range(n):
            eps = streams[i].derive("fiqe").normals((cfg.fiqe_samples, d))
            zs = mus[i][None, :] + eps * sigmas[i][None, :]
            m = cfg.fiqe_samples
            total = 0.0
            for a in range(m):
                for b_ in range(a + 1, m):
                    total += math.sqrt(((zs[a] - zs[b_]) ** 2).sum())
            score = 2.0 / (1.0 + math.exp((2.0 / (m * m)) * total))
            scores.append(score)
            if score >= cfg.delta2:
                kept.append(i)
        if not kept:
            kept = [int(np.argmax(scores))]
        # Monte-Carlo rounds
        eps = {i: streams[i].derive("mc").normals((n_samples, d)) for i in kept}
        x_rounds = []
        for t in range(n_samples):
            zs, ss = [], []
            for i in kept:
                z = mus[i] + eps[i][t] * sigmas[i]
                prods = np.maximum(np.abs(sigmas[i] * eps[i][t]), SCORE_FLOOR)
                ss.append(d / sum(1.0 / p for p in prods))
                zs.append(z)
            ss = np.array(ss)
            if len(kept) >= 2 and ss.max() > ss.min():
                alpha = ss.min() + ss.max() - ss
            else:
                alpha = np.ones(len(kept))
            w = alpha / alpha.sum()
            x_rounds.append(sum(w[j] * zs[j] for j in range(len(kept))))
        x_group = np.mean(x_rounds, axis=0)
        logits = np.array([sum(Wc[a, b_] * x_group[b_] for b_ in range(d)) + bc[a]
                           for a in range(Wc.shape[0])])
        e = np.exp(logits - logits.max())
        return e / e.sum()


class TestBlockInference:
    """The block draws of inference against one stream per individual (``==``)."""

    @pytest.mark.parametrize("n_samples", [1, 8, 25])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_object_infer_equals_per_object_loop(self, k, n_samples):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        branch = branches["object"]
        objects = SeededRng(20 + k).normals((k, 5))
        group = GroupSample(id="g7", label=0, faces=ds.groups[0].faces,
                            objects=objects, scene=np.zeros(4))
        rng = SeededRng(4).derive("infer")
        pred, arrays = branch_infer(branch, [group], store, cfg, rng, (n_samples,))

        # one stream, one (N, d) draw and one 2-D classifier call per object
        order = sorted(range(k), key=lambda i: tuple(objects[i]))  # distinct rows: rank = position
        mu, _, sigma = branch.head.forward(store, objects)
        per_object = []
        for i in range(k):
            stream = SeededRng(rng.derive("object", "g7", order.index(i), "mc").seed)
            eps = stream.normals((n_samples, cfg.latent_dim))
            z = mu[i][None, :] + eps * sigma[i][None, :]
            per_object.append(softmax(branch.classifier.forward(store, z), axis=1).mean(axis=0))
        assert np.array_equal(pred.probs[0, 0], np.mean(per_object, axis=0))
        assert np.array_equal(arrays["probs"][:, 0], per_object)

    @pytest.mark.parametrize("all_fail", [False, True])
    @pytest.mark.parametrize("num_groups", [1, 5])
    def test_face_quality_stage_equals_direct_filter(self, num_groups, all_fail):
        ds = tiny_dataset(seed=8)
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        branch = branches["face"]
        if all_fail:
            store.get("face.embed.logvar.bias")[...] = 8.0  # sigma ~ e^4: no face passes
        groups = ds.groups[2 : 2 + num_groups]
        sizes = [group.faces.shape[0] for group in groups]
        seeds = derive_seeds(SeededRng(6).derive("stage"), np.arange(sum(sizes)))
        block = block_normals(seeds, (cfg.fiqe_samples, cfg.latent_dim))
        mu, sigma, kept, scores = branch.quality_stage(store, groups, block, cfg)
        assert (np.diff(kept) > 0).all()  # flat and sorted, as filter_faces gives it

        lo = 0
        for group, size in zip(groups, sizes):
            group_kept = kept[(kept >= lo) & (kept < lo + size)] - lo
            ref_mu, _, ref_sigma = branch.head.forward(store, group.faces)
            eps = np.stack([
                SeededRng(int(seed)).normals((cfg.fiqe_samples, cfg.latent_dim))
                for seed in seeds[lo : lo + size]
            ])
            ref_kept, ref_scores = filter_faces(ref_mu, ref_sigma, eps, cfg.delta2, [size])
            assert np.array_equal(mu[lo : lo + size], ref_mu)
            assert np.array_equal(sigma[lo : lo + size], ref_sigma)
            assert np.array_equal(scores[lo : lo + size], ref_scores)
            assert group_kept.tolist() == ref_kept
            if all_fail:
                assert ref_scores.max() < cfg.delta2 and len(ref_kept) == 1
            lo += size


class TestFaceLoss:
    """Forward values of ``FaceBranch.loss_and_grads`` against per-face loops."""

    BETA, DELTA1 = 0.5, 5.0  # a wide margin keeps the rank term active

    def _setup(self, n_faces, seed):
        branch = FaceBranch(in_dim=6, latent_dim=4, num_classes=3)
        store = ParameterStore()
        rng = SeededRng(seed)
        branch.register(store, rng.derive("init"))
        store.get("face.embed.logvar.weight")[...] = 0.3 * rng.normals((4, 6))
        store.get("face.embed.logvar.bias")[...] = 0.2 * rng.normals(4)
        return branch, store, rng.normals((n_faces, 6))

    @pytest.mark.parametrize("n_faces,seed", [(4, 1), (5, 2), (5, 3)])
    def test_terms_match_per_face_oracle(self, n_faces, seed):
        branch, store, faces = self._setup(n_faces, seed)
        eps = SeededRng(seed).derive("eps").normals((n_faces, 4))
        cfg = TrainingConfig(beta=self.BETA, delta1=self.DELTA1)
        bd = self._terms(branch, store, faces, 1, eps, cfg)
        oracle = self._face_loss_oracle(store, faces, 1, eps, self.BETA, self.DELTA1)
        assert oracle["rank"] > 0.0
        for term in ("cls", "kl", "rank", "rec"):
            assert getattr(bd, term) == pytest.approx(oracle[term], rel=1e-9, abs=1e-12), term
        expected_total = (oracle["cls"] + cfg.lambda2 * oracle["kl"]
                          + cfg.lambda3 * oracle["rank"] + cfg.lambda4 * oracle["rec"])
        assert bd.total == pytest.approx(expected_total, rel=1e-9)

    def test_zero_noise_draws_the_means(self):
        branch, store, faces = self._setup(5, 4)
        eps = np.zeros((5, 4))
        cfg = TrainingConfig(beta=self.BETA, delta1=self.DELTA1)
        bd = self._terms(branch, store, faces, 2, eps, cfg)
        mu, _, sigma = branch.head.forward(store, faces)
        assert np.array_equal(uncertainty_kernel(mu, sigma, eps).z, mu)
        assert bd.rec == 0.0
        # every score sits at the floor, so alpha is 1 and the rank gap is 0
        assert bd.rank == self.DELTA1
        oracle = self._face_loss_oracle(store, faces, 2, eps, self.BETA, self.DELTA1)
        assert bd.cls == pytest.approx(oracle["cls"], rel=1e-9, abs=1e-12)

    @staticmethod
    def _terms(branch, store, faces, label, eps, cfg):
        """One group's loss terms, as floats, from a stack of one."""
        bd, _ = branch.loss_and_grads(store, faces[None], [label], eps[None], cfg)
        return LossBreakdown(*(float(v[0]) for v in bd.as_row()))

    @staticmethod
    def _face_loss_oracle(store, faces, label, eps, beta, delta1):
        """The face loss terms recomputed one face and one dimension at a time."""
        n, d = eps.shape
        in_dim = faces.shape[1]
        Wm, bm = store.get("face.embed.mu.weight"), store.get("face.embed.mu.bias")
        Ws, bs = store.get("face.embed.logvar.weight"), store.get("face.embed.logvar.bias")
        Wc, bc = store.get("face.classifier.weight"), store.get("face.classifier.bias")
        mus, lvs, sigmas, zs, scores = [], [], [], [], []
        for i in range(n):
            mu = [sum(Wm[a, b] * faces[i][b] for b in range(in_dim)) + bm[a] for a in range(d)]
            lv = [sum(Ws[a, b] * faces[i][b] for b in range(in_dim)) + bs[a] for a in range(d)]
            sigma = [math.exp(0.5 * v) for v in lv]
            mus.append(mu)
            lvs.append(lv)
            sigmas.append(sigma)
            zs.append([mu[a] + eps[i][a] * sigma[a] for a in range(d)])
            scores.append(d / sum(1.0 / max(abs(sigma[a] * eps[i][a]), SCORE_FLOOR)
                                  for a in range(d)))
        lo, hi = min(scores), max(scores)
        alpha = [lo + hi - s for s in scores] if hi > lo else [1.0] * n
        x = [sum(alpha[i] * zs[i][a] for i in range(n)) / sum(alpha) for a in range(d)]
        logits = [sum(Wc[c, a] * x[a] for a in range(d)) + bc[c] for c in range(Wc.shape[0])]
        top = max(logits)
        cls = math.log(sum(math.exp(v - top) for v in logits)) + top - logits[label]
        kl = -0.5 * sum(1.0 + lvs[i][a] - mus[i][a] ** 2 - math.exp(lvs[i][a])
                        for i in range(n) for a in range(d)) / n
        order = sorted(range(n), key=lambda i: -alpha[i])  # stable: ties keep face order
        n_high = min(math.ceil(beta * n), n - 1)
        high = sum(alpha[i] for i in order[:n_high]) / n_high
        low = sum(alpha[i] for i in order[n_high:]) / (n - n_high)
        rank = max(0.0, delta1 - (high - low))
        rec = sum(abs(sigmas[i][a] * eps[i][a]) for i in range(n) for a in range(d)) / n
        return {"cls": cls, "kl": kl, "rank": rank, "rec": rec}


def _tuple_sort_ranks(rows):
    """Dense content ranks the loop way: sort the row tuples, count changes."""
    order = sorted(range(rows.shape[0]), key=lambda i: tuple(rows[i]))
    ranks, rank, prev = [0] * rows.shape[0], 0, None
    for i in order:
        key = tuple(rows[i])
        if prev is not None and key != prev:
            rank += 1
        ranks[i] = rank
        prev = key
    return ranks


class TestContentRanks:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (7, 1), (7, 2), (7, 64), (40, 3)])
    def test_equals_tuple_sort(self, n, d):
        x = SeededRng(100 * n + d).normals((n, d))
        coarse = np.sign(x) * (np.abs(x) > 0.6)  # -1, -0.0, 0.0 or 1: ties in every column
        flipped = np.where(coarse == 0.0, -coarse, coarse)[:3]  # +0.0 <-> -0.0 only
        for rows in (x, np.concatenate([coarse, coarse[::-2], flipped])):
            assert _content_ranks(rows).tolist() == _tuple_sort_ranks(rows)

    def test_signed_zeros_share_a_rank(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [-1.0, 0.0], [-1.0, -0.0]])
        assert _content_ranks(rows).tolist() == _tuple_sort_ranks(rows) == [1, 1, 0, 0]


class TestSweep:
    """A sweep of sample counts equals one one-count call per entry (``==``)."""

    COUNTS = (8, 1, 8, 3)  # unsorted, with a repeated count

    @pytest.mark.parametrize("fiqe_apply", ["eval", "off"])
    @pytest.mark.parametrize("ablation", ["full", "no-ual", "no-fiqe", "no-ual-fiqe"])
    def test_sweep_equals_one_count_calls(self, ablation, fiqe_apply):
        ds = tiny_dataset(seed=33)
        assert any(group.objects.shape[0] == 0 for group in ds.groups)
        # a threshold inside this model's score range: the filter drops 13 of 39 faces
        cfg = tiny_config(fiqe_apply=fiqe_apply, delta2=0.86)
        store, branches = build_model(ds, cfg)
        rng = SeededRng(5).derive("infer")
        for group in ds.groups:
            steps, sweep = predict(
                [group], store, branches, cfg, rng, sample_counts=self.COUNTS, ablation=ablation
            )
            assert sweep[0].probs.shape[0] == len(self.COUNTS)
            for e, n in enumerate(self.COUNTS):
                one = predict([group], store, branches, cfg, rng, sample_counts=(n,),
                              ablation=ablation)
                assert entry(steps, sweep, [group], 0, e) == entry(*one, [group], 0, 0)

        results = evaluate_dataset(
            store, branches, ds, cfg, seed=5, sample_counts=self.COUNTS, ablation=ablation,
            collect_diagnostics=True,
        )
        assert [result.n_samples for result in results] == list(self.COUNTS)
        dropped = [not face["kept"] for rec in results[0].records
                   for face in rec["branches"]["face"]["faces"]]
        filtered = ablation in ("full", "no-ual") and fiqe_apply == "eval"
        assert sum(dropped) == (13 if filtered else 0)
        for n, got in zip(self.COUNTS, results):
            (want,) = evaluate_dataset(
                store, branches, ds, cfg, seed=5, sample_counts=(n,), ablation=ablation,
                collect_diagnostics=True,
            )
            assert got.records == want.records
            assert got.fused_report.to_dict() == want.fused_report.to_dict()
            assert {tag: r.to_dict() for tag, r in got.branch_reports.items()} == {
                tag: r.to_dict() for tag, r in want.branch_reports.items()
            }

    def test_entries_own_their_diagnostics(self):
        ds = tiny_dataset(seed=33)
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        first, _, again, _ = evaluate_dataset(
            store, branches, ds, cfg, seed=5, sample_counts=self.COUNTS, collect_diagnostics=True
        )
        expected = copy.deepcopy(again.records)
        for record in first.records:
            for tag, branch in record["branches"].items():
                for rows in (branch.get("faces"), branch.get("objects")):
                    if rows:
                        rows[0]["mutated"] = True
                branch["probs"].append(0.0)
                branch["extra"] = []
        assert again.records == expected

    def test_empty_or_nonpositive_counts_rejected(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        for counts in ((), (4, 0)):
            with pytest.raises(ConfigError, match="sample counts"):
                evaluate_dataset(store, branches, ds, cfg, seed=0, sample_counts=counts)


class TestBatchedInference:
    """Inference in steps of groups equals one group at a time (``==``)."""

    COUNTS = (8, 1, 8, 3)

    @pytest.mark.parametrize("delta2", [0.86, 0.9999], ids=["some-fail", "all-fail"])
    @pytest.mark.parametrize("fiqe_apply", ["eval", "off"])
    @pytest.mark.parametrize("ablation", ["full", "no-ual", "no-fiqe", "no-ual-fiqe"])
    def test_steps_equal_one_group_calls(self, monkeypatch, ablation, fiqe_apply, delta2):
        monkeypatch.setattr(pipeline, "_INFER_STEP", 16)
        ds = tiny_dataset(num_groups=37, seed=33)
        assert len(ds.groups) % pipeline._INFER_STEP and len(ds.groups) > pipeline._INFER_STEP
        assert any(group.objects.shape[0] == 0 for group in ds.groups)
        cfg = tiny_config(fiqe_apply=fiqe_apply, delta2=delta2)
        store, branches = build_model(ds, cfg)
        rng = SeededRng(5).derive("infer")
        steps, fused = predict(ds.groups, store, branches, cfg, rng, self.COUNTS, ablation)
        for j, group in enumerate(ds.groups):
            one = predict([group], store, branches, cfg, rng, self.COUNTS, ablation)
            assert fused[j].probs.shape[0] == one[1][0].probs.shape[0] == len(self.COUNTS)
            for e in range(len(self.COUNTS)):
                assert entry(steps, fused, ds.groups, j, e) == entry(*one, [group], 0, e)

        def evaluate():
            return evaluate_dataset(
                store, branches, ds, cfg, seed=5, sample_counts=self.COUNTS, ablation=ablation,
                collect_diagnostics=True,
            )

        stepped = evaluate()
        monkeypatch.setattr(pipeline, "_INFER_STEP", 1)
        for got, want in zip(stepped, evaluate(), strict=True):
            assert got.records == want.records
            assert got.fused_report.to_dict() == want.fused_report.to_dict()
            assert {tag: r.to_dict() for tag, r in got.branch_reports.items()} == {
                tag: r.to_dict() for tag, r in want.branch_reports.items()
            }
        kept = [sum(face["kept"] for face in rec["branches"]["face"]["faces"])
                for rec in stepped[0].records]
        sizes = [group.faces.shape[0] for group in ds.groups]
        if ablation in ("full", "no-ual") and fiqe_apply == "eval":
            assert kept == [1] * len(sizes) if delta2 > 0.99 else 0 < sum(kept) < sum(sizes)
        else:
            assert kept == sizes

    def test_bucket_rows_equal_a_loop_over_the_counts(self):
        # one bucket per distinct count, ascending, with its groups in order
        rng = np.random.default_rng(0)
        for sizes in ([], [3], [2, 0, 2, 1, 3, 1], rng.integers(0, 6, 70).tolist()):
            bounds = np.cumsum([0, *sizes])
            for kept in (None, np.flatnonzero(rng.random(bounds[-1]) < 0.6)):
                flat = np.arange(bounds[-1]) if kept is None else kept
                rows = [[k for k, i in enumerate(flat) if lo <= i < hi]
                        for lo, hi in zip(bounds, bounds[1:])]
                want = [([g for g, r in enumerate(rows) if len(r) == n],
                         [r for r in rows if len(r) == n]) for n in sorted({len(r) for r in rows})]
                got = pipeline._bucket_rows(sizes, kept)
                assert [(pos.tolist(), idx.tolist()) for pos, idx in got] == want

    @pytest.mark.parametrize("ablation,fiqe_apply", [("no-ual-fiqe", "eval"), ("no-ual", "off")])
    def test_deterministic_faces_derive_no_streams(self, monkeypatch, ablation, fiqe_apply):
        ds = tiny_dataset(num_groups=20, seed=33)
        cfg = tiny_config(fiqe_apply=fiqe_apply)
        store, branches = build_model(ds, cfg)
        face = branches["face"]
        calls = []
        monkeypatch.setattr(pipeline, "derive_seeds", lambda *args: calls.append(args))
        pred, arrays = branch_infer(face, ds.groups, store, cfg, SeededRng(5).derive("infer"),
                                    (1, 4), ablation)
        assert calls == []
        W, b = store.get("face.classifier.weight"), store.get("face.classifier.bias")
        for group, entries in zip(ds.groups, pred.probs):
            mu = face.head.forward(store, group.faces)[0]
            expected = softmax(W @ mu.mean(axis=0) + b)  # the plain baseline, one group alone
            for probs in entries:
                assert np.array_equal(probs, expected)
        assert sorted(arrays) == ["kept"] and arrays["kept"].all()  # quality is null

    def test_overflowing_sigma_names_the_face(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = 2000.0  # sigma = exp(1000) = inf
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=f"and finite, .*'{ds.groups[0].id}/face0'"
        ):
            branch_infer(branches["face"], ds.groups, store, cfg, SeededRng(0).derive("infer"))

    def test_first_failing_face_is_named_in_group_order(self):
        ds = tiny_dataset(num_groups=20, seed=33)
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        store.get("face.embed.logvar.weight")[...] = 1.0
        late = max(range(len(ds.groups)), key=lambda g: (ds.groups[g].faces.shape[0], g))
        groups = list(ds.groups)
        group = groups[late]
        # the largest group, last in the step's buckets: its features overflow sigma
        groups[late] = GroupSample(id=group.id, label=group.label, faces=group.faces * 1e6,
                                   objects=group.objects, scene=group.scene)
        groups[-1] = GroupSample(id=groups[-1].id, label=0, faces=groups[-1].faces * 1e6,
                                 objects=groups[-1].objects, scene=groups[-1].scene)
        assert late < len(groups) - 1
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"'{group.id}/face0'"):
            branch_infer(branches["face"], groups, store, cfg, SeededRng(0).derive("infer"))

    def test_non_finite_fusion_names_the_group(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        store.get("scene.classifier.weight")[...] = 1e308  # overflows the scene logits
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match=f"group {ds.groups[0].id}: non-finite fused"
        ):
            evaluate_dataset(store, branches, ds, cfg, seed=0)


class TestInferenceArrays:
    """Inference returns arrays; the report's records are built in one place, on request."""

    @pytest.mark.parametrize("ablation", ["full", "no-fiqe", "no-ual", "no-ual-fiqe"])
    def test_branch_infer_returns_only_arrays(self, ablation):
        ds = tiny_dataset(num_groups=20, seed=33)
        cfg = tiny_config(fiqe_apply="eval")
        store, branches = build_model(ds, cfg)
        n_faces = sum(group.faces.shape[0] for group in ds.groups)
        n_objects = sum(group.objects.shape[0] for group in ds.groups)
        filtered, stochastic = ablation in ("full", "no-ual"), ablation in ("full", "no-fiqe")
        expected = {
            "face": {"kept": (n_faces,), **({"quality": (n_faces,)} if filtered else {}),
                     **({"score": (n_faces, 2), "alpha": (n_faces, 2)} if stochastic else {})},
            "object": {"probs": (n_objects, 2, 3)},
            "scene": {},
        }
        for tag, branch in branches.items():
            pred, arrays = branch_infer(branch, ds.groups, store, cfg,
                                        SeededRng(5).derive("infer"), (1, 4), ablation)
            assert pred.branch == tag
            assert isinstance(pred.probs, np.ndarray) and pred.probs.shape == (20, 2, 3)
            assert isinstance(pred.present, np.ndarray) and pred.present.dtype == bool
            assert pred.present.tolist() == [
                tag != "object" or group.objects.shape[0] > 0 for group in ds.groups
            ]
            assert all(isinstance(a, np.ndarray) for a in arrays.values())
            assert {k: a.shape for k, a in arrays.items()} == expected[tag]
        assert [f.name for f in dataclasses.fields(BranchPrediction)] == [
            "branch", "probs", "present"
        ]
        assert not hasattr(pipeline, "GroupPrediction")

    def test_records_built_only_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_INFER_STEP", 16)
        ds = tiny_dataset(num_groups=20, seed=33)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        steps = []
        build = pipeline._group_records
        monkeypatch.setattr(pipeline, "_group_records", lambda records, groups, *rest: (
            steps.append(len(groups)), build(records, groups, *rest)))
        train_model(ds, cfg, val_ds=ds)  # a validation pass builds no record
        (plain,) = evaluate_dataset(store, branches, ds, cfg, seed=5)
        assert steps == [] and plain.records == []
        results = evaluate_dataset(store, branches, ds, cfg, seed=5, sample_counts=(1, 4),
                                   collect_diagnostics=True)
        assert steps == [pipeline._INFER_STEP, 20 - pipeline._INFER_STEP]  # once per step
        assert [len(result.records) for result in results] == [20, 20]
        assert plain.fused_report.to_dict() == evaluate_dataset(
            store, branches, ds, cfg, seed=5, collect_diagnostics=True
        )[0].fused_report.to_dict()


def _results(results):
    """:class:`EvalResult` objects as comparable values."""
    return [(result.fused_report.to_dict(),
             {tag: report.to_dict() for tag, report in result.branch_reports.items()},
             result.records, result.fusion, result.n_samples) for result in results]


class TestValidationNoiseCache:
    """Per-epoch validation gathers its noise from one cache per training run,
    equal to drawing it in every pass (``==``)."""

    @staticmethod
    def _train(monkeypatch, tags, ablation, val=None):
        """A training whose every validation pass is checked against uncached
        ``evaluate_dataset`` calls; returns the result and each pass's ``noise``."""
        train = tiny_dataset(num_groups=10, seed=41)
        val = tiny_dataset(num_groups=20, seed=42) if val is None else val
        assert any(group.objects.shape[0] == 0 for group in val.groups)
        cfg = tiny_config(delta2=0.86)  # the filter drops some faces
        seen, rank_calls = [], []
        monkeypatch.setattr(pipeline, "_content_ranks",
                            lambda rows: rank_calls.append(rows) or _content_ranks(rows))

        def checked(*args, **kw):
            calls = len(rank_calls)
            got = evaluate_dataset(*args, **kw)
            if seen and kw["noise"] is not None:
                assert len(rank_calls) == calls  # nothing drawn after the first pass
            seen.append(kw["noise"])
            uncached = {**kw, "noise": None}
            assert _results(got) == _results(evaluate_dataset(*args, **uncached))
            diagnostics = {**kw, "collect_diagnostics": True}
            assert _results(evaluate_dataset(*args, **diagnostics)) == _results(
                evaluate_dataset(*args, **uncached, collect_diagnostics=True))
            return got

        monkeypatch.setattr(pipeline, "evaluate_dataset", checked)
        return train_model(train, cfg, val_ds=val, branch_tags=tags, ablation=ablation), seen

    @pytest.mark.parametrize("tags", [("face",), ("object",), ("face", "object", "scene")],
                             ids=["face", "object", "all"])
    @pytest.mark.parametrize("ablation", ["full", "no-ual", "no-fiqe", "no-ual-fiqe"])
    def test_cached_passes_equal_uncached_calls(self, monkeypatch, tags, ablation):
        _, seen = self._train(monkeypatch, tags, ablation)
        assert len(seen) == 2
        if tags == ("face",) and ablation == "no-ual-fiqe":  # no noise to keep
            assert seen == [None, None]
        else:
            assert isinstance(seen[0], pipeline.NoiseCache) and seen[1] is seen[0]

    def test_val_set_without_objects(self, monkeypatch):
        val = generate_dataset(SynthesisSpec(
            num_groups=8, face_dim=6, object_dim=5, scene_dim=4, group_size_min=2,
            group_size_max=4, object_count_min=0, object_count_max=0, seed=43,
        ))
        _, seen = self._train(monkeypatch, ("face", "object", "scene"), "full", val=val)
        assert isinstance(seen[0], pipeline.NoiseCache) and seen[1] is seen[0]

    def test_no_cache_over_the_size_limit(self, monkeypatch):
        cached, seen = self._train(monkeypatch, ("face", "object", "scene"), "full")
        assert seen[0].nbytes > 0
        monkeypatch.setattr(pipeline, "_NOISE_CACHE_BYTES", 0)
        drawn, seen = self._train(monkeypatch, ("face", "object", "scene"), "full")
        assert seen == [None, None]
        assert cached.store.names() == drawn.store.names()
        for name in cached.store.names():
            assert np.array_equal(cached.store.get(name), drawn.store.get(name))
        assert cached.loss_log == drawn.loss_log

    def test_face_noise_drawn_only_for_kept_faces(self, monkeypatch):
        ds = tiny_dataset(num_groups=20, seed=42)
        cfg = tiny_config(delta2=0.86)
        store, branches = build_model(ds, cfg, tags=("face",))
        sharper = store.clone()  # smaller sigma: the filter keeps more faces
        sharper.get("face.embed.logvar.bias")[...] -= 1.0
        mc_rows = []
        draw = pipeline.block_normals

        def counted(seeds, shape):
            if shape[0] == cfg.mc_samples:  # fiqe_samples differs
                mc_rows.append(np.size(seeds))
            return draw(seeds, shape)

        def kept_faces(results):
            return {face["id"] for rec in results[0].records
                    for face in rec["branches"]["face"]["faces"] if face["kept"]}

        monkeypatch.setattr(pipeline, "block_normals", counted)
        noise = pipeline.NoiseCache(ds, branches, cfg, 5)
        n_faces = sum(group.faces.shape[0] for group in ds.groups)
        ever_kept = set()
        for model in (store, store, sharper):
            mc_rows.clear()
            drawn = evaluate_dataset(model, branches, ds, cfg, seed=5, collect_diagnostics=True)
            kept = kept_faces(drawn)
            assert sum(mc_rows) == len(kept)  # without the cache, in every pass
            mc_rows.clear()
            cached = evaluate_dataset(model, branches, ds, cfg, seed=5, collect_diagnostics=True,
                                      noise=noise)
            assert sum(mc_rows) == len(kept - ever_kept)  # with it, once per face
            assert _results(cached) == _results(drawn)
            ever_kept |= kept
        first = kept_faces(evaluate_dataset(store, branches, ds, cfg, seed=5,
                                            collect_diagnostics=True))
        assert len(first) < len(ever_kept) <= n_faces  # the second model kept other faces

    @pytest.mark.parametrize("tag,kind", [("face", "fiqe"), ("object", "mc")])
    def test_cached_passes_draw_no_row_again(self, monkeypatch, tag, kind):
        ds = tiny_dataset(num_groups=20, seed=42)
        cfg = tiny_config(delta2=0.86)
        store, branches = build_model(ds, cfg, tags=(tag,))
        other = store.clone()  # the noise does not depend on the model
        other.get(f"{tag}.embed.logvar.bias")[...] -= 1.0
        assert cfg.fiqe_samples != cfg.mc_samples  # a block's shape tells the kinds apart
        samples = {"fiqe": cfg.fiqe_samples, "mc": cfg.mc_samples}[kind]
        drawn_rows = []
        draw = pipeline.block_normals

        def counted(seeds, shape):
            if shape[0] == samples:
                drawn_rows.append(np.size(seeds))
            return draw(seeds, shape)

        monkeypatch.setattr(pipeline, "block_normals", counted)
        noise = pipeline.NoiseCache(ds, branches, cfg, 5)
        n_rows = sum(getattr(group, f"{tag}s").shape[0] for group in ds.groups)
        assert n_rows > 0
        for first, model in zip((True, False, False), (store, store, other)):
            drawn_rows.clear()
            evaluate_dataset(model, branches, ds, cfg, seed=5)
            assert sum(drawn_rows) == n_rows  # without the cache, every row in every pass
            drawn_rows.clear()
            evaluate_dataset(model, branches, ds, cfg, seed=5, noise=noise)
            assert sum(drawn_rows) == (n_rows if first else 0)  # with it, on the first pass

    def test_cache_refuses_other_arguments(self):
        ds = tiny_dataset(num_groups=4)
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        noise = pipeline.NoiseCache(ds, branches, cfg, 5)
        for kw in ({"seed": 6}, {"ablation": "no-fiqe"}, {"sample_counts": (3,)},
                   {"dataset": tiny_dataset(num_groups=4)}):
            args = {"dataset": ds, "seed": 5, **kw}
            with pytest.raises(ValueError, match="noise cache"):
                evaluate_dataset(store, branches, config=cfg, noise=noise, **args)


class TestPredictGroup:
    def test_uniform_branches_tie_break_to_zero(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        # zero all classifiers: every branch predicts uniform probabilities
        for name in store.names():
            if "classifier" in name:
                store.get(name)[...] = 0.0
        _, (out,) = predict([ds.groups[0]], store, branches, cfg, SeededRng(0).derive("infer"))
        assert np.argmax(out.probs[0]) == 0
        assert np.allclose(out.probs, 1.0 / 3.0, atol=1e-12)

    def test_dominant_branch_decides(self):
        preds = [bp("face", [0.97, 0.02, 0.01]), bp("scene", [0.3, 0.4, 0.3])]
        fused = fuse_predictions(preds, "pwfs")
        assert int(np.argmax(fused.probs)) == 0

    def test_group_without_objects_uses_face_scene(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        group = GroupSample(id="g", label=0, faces=ds.groups[0].faces,
                            objects=np.zeros((0, 5)), scene=SeededRng(2).normals(4))
        _, (out,) = predict([group], store, branches, cfg, SeededRng(0).derive("infer"))
        assert set(out.weights) == {"face", "scene"}

    def test_permutation_invariance(self):
        ds = tiny_dataset(seed=13)
        cfg = tiny_config(mc_samples=4)
        store, branches = build_model(ds, cfg)
        group = ds.groups[1]
        perm = SeededRng(3).permutation(group.faces.shape[0])
        shuffled = GroupSample(
            id=group.id, label=group.label, faces=group.faces[perm],
            objects=group.objects, scene=group.scene,
        )
        _, (a,) = predict([group], store, branches, cfg, SeededRng(9).derive("infer"))
        _, (b,) = predict([shuffled], store, branches, cfg, SeededRng(9).derive("infer"))
        assert np.array_equal(a.probs, b.probs)
        assert np.argmax(a.probs[0]) == np.argmax(b.probs[0])


class TestTraining:
    def test_zero_lr_keeps_params_bit_exact(self):
        ds = tiny_dataset()
        cfg = tiny_config(face_lr=0.0, object_lr=0.0, scene_lr=0.0, epochs=1)
        store, branches = build_model(ds, cfg)
        before = {name: store.get(name).tobytes() for name in store.names()}
        Trainer(store, branches, cfg).train_epoch(ds.groups, 0)
        after = {name: store.get(name).tobytes() for name in store.names()}
        assert before == after

    def test_val_dims_differ_names_the_values(self):
        val = generate_dataset(SynthesisSpec(
            num_groups=4, face_dim=7, object_dim=5, scene_dim=4, group_size_min=2,
            group_size_max=4, seed=3,
        ))
        with pytest.raises(DataError, match="the val set: face_dim 7 != 6 of the train set"):
            train_model(tiny_dataset(), tiny_config(), val_ds=val)

    def test_same_seed_identical_loss_logs(self):
        ds = tiny_dataset(seed=21)
        cfg = tiny_config(epochs=3)

        def run():
            out = train_model(ds, cfg, branch_tags=("face", "scene"))
            return [bd.as_row() for bd in out.loss_log["face"]]

        assert run() == run()

    def test_branch_isolation(self):
        ds = tiny_dataset(seed=22)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        face_before = {n: store.get(n).tobytes() for n in store.names() if n.startswith("face.")}
        scene_before = {n: store.get(n).tobytes() for n in store.names() if n.startswith("scene.")}
        trainer = Trainer(store, {"object": branches["object"]}, cfg)
        trainer.train_epoch(ds.groups, 0)
        assert face_before == {n: store.get(n).tobytes() for n in store.names() if n.startswith("face.")}
        assert scene_before == {n: store.get(n).tobytes() for n in store.names() if n.startswith("scene.")}

    def test_object_branch_actually_moves(self):
        ds = tiny_dataset(seed=22)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        before = store.get("object.classifier.weight").copy()
        Trainer(store, {"object": branches["object"]}, cfg).train_epoch(ds.groups, 0)
        assert not np.array_equal(before, store.get("object.classifier.weight"))

    def test_deterministic_single_group_monotone_decrease(self):
        # linearly separable instance, deterministic ablation: smooth descent
        spec = SynthesisSpec(
            num_groups=1, face_dim=6, object_dim=5, scene_dim=4, spread=0.1,
            corrupt_fraction=0.0, inconsistent_fraction=0.0,
            group_size_min=3, group_size_max=3, seed=2,
        )
        ds = generate_dataset(spec)
        cfg = tiny_config(epochs=40, batch_size=1, face_lr=5e-3)
        store, branches = build_model(ds, cfg)
        trainer = Trainer(store, {"face": branches["face"]}, cfg, ablation="no-ual-fiqe")
        losses = [trainer.train_epoch(ds.groups, e)["face"].cls for e in range(cfg.epochs)]
        warm = losses[3:]
        assert all(b < a + 1e-12 for a, b in zip(warm, warm[1:]))
        assert losses[-1] < losses[3]

    def test_ual_single_group_loss_trends_down(self):
        spec = SynthesisSpec(
            num_groups=1, face_dim=6, object_dim=5, scene_dim=4, spread=0.1,
            corrupt_fraction=0.0, inconsistent_fraction=0.0,
            group_size_min=3, group_size_max=3, seed=2,
        )
        ds = generate_dataset(spec)
        cfg = tiny_config(epochs=40, batch_size=1, face_lr=5e-3, fiqe_apply="off")
        store, branches = build_model(ds, cfg)
        trainer = Trainer(store, {"face": branches["face"]}, cfg)
        losses = [trainer.train_epoch(ds.groups, e)["face"].cls for e in range(cfg.epochs)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_underflowing_sigma_names_the_group(self):
        ds = tiny_dataset(seed=24)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = -2000.0  # sigma = exp(-1000) = 0
        trainer = Trainer(store, {"face": branches["face"]}, cfg)
        with pytest.raises(NumericError, match="sigma must be strictly positive") as exc:
            trainer.train_epoch(ds.groups, 0)
        assert any(f"'{g.id}/face0'" in str(exc.value) for g in ds.groups)

    @pytest.mark.parametrize("fiqe_apply", ["both", "train", "eval", "off"])
    @pytest.mark.parametrize("ablation", ["full", "no-fiqe", "no-ual", "no-ual-fiqe"])
    def test_ablation_sets_filter_and_sampling(self, monkeypatch, ablation, fiqe_apply):
        # the filter runs in the phases fiqe_apply names, under the ablations
        # that keep FIQE; the face branch samples under those that keep UAL
        phases = {"both": {"train", "eval"}, "train": {"train"}, "eval": {"eval"}, "off": set()}
        filtered = {phase: ablation in ("full", "no-ual") and phase in phases[fiqe_apply]
                    for phase in ("train", "eval")}
        stochastic = ablation in ("full", "no-fiqe")
        ds = tiny_dataset(num_groups=6, seed=25)
        cfg = tiny_config(fiqe_apply=fiqe_apply, epochs=1)
        for phase in ("train", "eval"):
            assert pipeline._face_noise(ablation, cfg, phase) == (filtered[phase], stochastic)

        calls = []  # (name, last argument) of each spied call

        def spy(owner, name):
            real = getattr(owner, name)

            def spied(*args):
                calls.append((name, args[-1]))
                return real(*args)

            monkeypatch.setattr(owner, name, spied)

        spy(pipeline, "filter_faces")
        spy(pipeline, "block_normals")
        spy(FaceBranch, "loss_and_grads")
        spy(FaceBranch, "deterministic_loss_and_grads")
        store, branches = build_model(ds, cfg, tags=("face",))
        Trainer(store, branches, cfg, ablation).train_epoch(ds.groups, 0)
        names = {name for name, _ in calls}
        assert ("filter_faces" in names) == filtered["train"]
        assert ("loss_and_grads" in names) == stochastic
        assert ("deterministic_loss_and_grads" in names) == (not stochastic)
        calls.clear()
        evaluate_dataset(store, branches, ds, cfg, seed=5, ablation=ablation)
        assert ("filter_faces" in {name for name, _ in calls}) == filtered["eval"]
        shapes = [shape for name, shape in calls if name == "block_normals"]
        assert ((cfg.mc_samples, cfg.latent_dim) in shapes) == stochastic  # MC noise is drawn

    def test_non_finite_loss_aborts_with_group_and_term(self):
        ds = tiny_dataset(seed=23)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        store.get("face.classifier.weight")[...] = 1e308  # forces overflow in logits
        trainer = Trainer(store, {"face": branches["face"]}, cfg)
        with pytest.raises(NumericError, match="group .*non-finite"):
            trainer.train_epoch(ds.groups, 0)

    def test_non_finite_loss_term_names_the_group_and_the_term(self):
        ds = tiny_dataset(seed=23)
        cfg = tiny_config(epochs=1)
        store, branches = build_model(ds, cfg)
        # sigma = exp(400) is finite, so every step runs; exp(log sigma^2) in the KL overflows
        store.get("face.embed.logvar.bias")[...] = 800.0
        trainer = Trainer(store, {"face": branches["face"]}, cfg)
        with pytest.raises(NumericError,
                           match=r"^group train-00009: non-finite loss term 'kl'$"):
            trainer.train_epoch(ds.groups, 0)


class TestTrainModel:
    def test_select_best_restores_best_epoch(self):
        train = tiny_dataset(seed=31, num_groups=16)
        val = generate_dataset(replace(
            SynthesisSpec(num_groups=8, face_dim=6, object_dim=5, scene_dim=4,
                          group_size_min=2, group_size_max=4, object_count_min=0,
                          object_count_max=2, seed=31),
            partition="val",
        ))
        cfg = tiny_config(epochs=3, select_best=True)
        out = train_model(train, cfg, val_ds=val, branch_tags=("scene",))
        assert out.best_epoch is not None
        assert 0 <= out.best_epoch < cfg.epochs

    def test_on_epoch_gets_a_result_exactly_when_validating(self):
        train = tiny_dataset(seed=32, num_groups=8)
        cfg = tiny_config(epochs=3)
        for val_ds in (None, train):
            seen = []
            train_model(train, cfg, val_ds=val_ds, branch_tags=("scene",),
                        on_epoch=lambda epoch, breakdowns, result: seen.append((epoch, result)))
            assert [epoch for epoch, _ in seen] == [0, 1, 2]
            if val_ds is None:
                assert all(result is None for _, result in seen)
            else:
                assert all(isinstance(result, EvalResult) for _, result in seen)

    def test_evaluate_dataset_deterministic(self):
        ds = tiny_dataset(seed=33)
        cfg = tiny_config()
        store, branches = build_model(ds, cfg)
        (a,) = evaluate_dataset(store, branches, ds, cfg, seed=5, collect_diagnostics=True)
        (b,) = evaluate_dataset(store, branches, ds, cfg, seed=5, collect_diagnostics=True)
        assert a.fused_report.to_dict() == b.fused_report.to_dict()
        assert a.records == b.records


class TestConfig:
    def test_mapping_round_trip(self):
        cfg = config_from_mapping({"latent_dim": "16", "fiqe_apply": "eval",
                                   "select_best": "true", "lambda2": "1e-3"})
        assert cfg.latent_dim == 16
        assert cfg.fiqe_apply == "eval"
        assert cfg.select_best is True
        assert cfg.lambda2 == pytest.approx(1e-3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_mapping({"latent_dmi": "16"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"beta": "1.5"})
        with pytest.raises(ConfigError):
            config_from_mapping({"select_best": "yes"})
        with pytest.raises(ConfigError):
            config_from_mapping({"fiqe_apply": "sometimes"})
