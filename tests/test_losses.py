"""Loss terms, checked on the branch code that training runs.

The face terms come from ``FaceBranch.loss_and_grads`` and the object
mixture from ``ObjectBranch.loss_and_grads``; ``kl_loss`` and ``rank_loss``
are the shared helpers both call. Like every helper below fusion, they take
stacks of groups only.
"""

import math

import numpy as np
import pytest

from ual.errors import ConfigError, ShapeError
from ual.losses import (
    LossBreakdown,
    kl_loss,
    rank_loss,
    total_face_loss,
    total_object_loss,
)
from ual.numerics import ParameterStore, SeededRng, softmax_cross_entropy
from ual.pipeline import FaceBranch, ObjectBranch, TrainingConfig
from ual.quality_filter import fiqe_score, filter_faces
from ual.uncertainty_scoring import uncertainty_kernel


def make_branch(kind, in_dim=4, latent=3, seed=0):
    branch = kind(in_dim, latent, 3)
    store = ParameterStore()
    branch.register(store, SeededRng(seed).derive("init"))
    return branch, store


def face_terms(branch, store, faces, eps, label=1, cfg=TrainingConfig(beta=0.5, delta1=0.2)):
    """One group's face loss terms, as floats, from a stack of one."""
    bd, _ = branch.loss_and_grads(store, faces[None], [label], eps[None], cfg)
    return LossBreakdown(*(float(v[0]) for v in bd.as_row()))


def classify(store, prefix, x):
    return store.get(f"{prefix}.classifier.weight") @ x + store.get(f"{prefix}.classifier.bias")


class TestFaceClsLoss:
    def test_zero_classifier_uniform(self):
        branch, store = make_branch(FaceBranch)
        store.get("face.classifier.weight")[...] = 0.0
        rng = SeededRng(3)
        bd = face_terms(branch, store, rng.normals((3, 4)), rng.normals((3, 3)))
        assert bd.cls == pytest.approx(math.log(3.0), abs=1e-15)

    def test_saturated_direction(self):
        branch, store = make_branch(FaceBranch, latent=2)
        # every face embeds to mu = [1, 1] with a vanishing sigma
        store.get("face.embed.mu.weight")[...] = 0.0
        store.get("face.embed.mu.bias")[...] = 1.0
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = -40.0
        store.get("face.classifier.weight")[...] = [[10.0, 10.0], [-10.0, -10.0], [0.0, 0.0]]
        rng = SeededRng(4)
        bd = face_terms(branch, store, rng.normals((2, 4)), rng.normals((2, 2)), label=0)
        assert bd.cls < 1e-3

    def test_matches_independent_oracle(self):
        branch, store = make_branch(FaceBranch, seed=4)
        rng = SeededRng(4)
        faces, eps = rng.normals((4, 4)), rng.normals((4, 3))
        bd = face_terms(branch, store, faces, eps, label=2)
        mu, _, sigma = branch.head.forward(store, faces)
        logits = classify(store, "face", uncertainty_kernel(mu, sigma, eps).x_group)
        oracle = -math.log(math.exp(logits[2]) / sum(math.exp(v) for v in logits))
        assert bd.cls == pytest.approx(oracle, abs=1e-12)


class TestObjectClsLoss:
    def setup_method(self):
        self.branch, self.store = make_branch(ObjectBranch, seed=5)
        rng = SeededRng(5)
        self.objects = rng.normals((1, 4))
        self.eps = rng.normals((1, 3))
        self.mu, _, self.sigma = self.branch.head.forward(self.store, self.objects)

    def cls(self, eps, lambda1):
        bd, _ = self.branch.loss_and_grads(
            self.store, self.objects[None], [1], eps[None], TrainingConfig(lambda1=lambda1)
        )
        return float(bd.cls[0])

    def ce(self, x):
        return float(softmax_cross_entropy(classify(self.store, "object", x)[None], [1])[0][0])

    def test_lambda_one_depends_only_on_mu(self):
        full = self.cls(self.eps, 1.0)
        assert full == self.cls(-self.eps, 1.0)
        assert full == pytest.approx(self.ce(self.mu[0]))

    def test_lambda_zero_is_z_only(self):
        z = self.mu[0] + self.eps[0] * self.sigma[0]
        assert self.cls(self.eps, 0.0) == pytest.approx(self.ce(z))

    def test_zero_noise_half_mix(self):
        assert self.cls(np.zeros((1, 3)), 0.5) == pytest.approx(self.ce(self.mu[0]))

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError, match="lambda1"):
            TrainingConfig(lambda1=1.5).validate()


def kl_one(mu, sigma):
    """KL of one individual's Gaussian, run as a stack of one group of one."""
    mu = np.asarray(mu, dtype=np.float64)[None, None, :]
    sigma = np.asarray(sigma, dtype=np.float64)[None, None, :]
    return float(kl_loss(mu, 2.0 * np.log(sigma))[0])


def rank_one(alpha_high, alpha_low, delta1):
    """Rank term of one group, run as a stack of one."""
    return float(rank_loss([alpha_high], [alpha_low], delta1)[0])


class TestKlLoss:
    def test_standard_normal_is_zero(self):
        assert kl_one([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_unit_mean_single_dim(self):
        assert kl_one([1.0], [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_variance_e(self):
        # D=1, mu=0, sigma^2 = e: -(1/2)(1 + 1 - 0 - e) = (e - 2) / 2
        assert kl_one([0.0], [math.sqrt(math.e)]) == pytest.approx(
            (math.e - 2.0) / 2.0, abs=1e-12
        )

    def test_mean_over_individuals(self):
        one = kl_loss(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))[0]
        two = kl_loss(np.array([[[1.0], [0.0]]]), np.zeros((1, 2, 1)))[0]
        assert two == pytest.approx(one / 2.0)

    def test_nonnegative_on_random_embeddings(self):
        rng = SeededRng(8)
        for _ in range(500):
            mu = rng.normals(3)
            log_var = rng.normals(3)
            assert kl_loss(mu[None, None, :], log_var[None, None, :])[0] >= 0.0

    def test_strictly_positive_off_the_standard_normal(self):
        # zero only at mu=0, sigma=1
        assert kl_one([0.1], [1.0]) > 1e-12
        assert kl_one([0.0], [1.1]) > 1e-12
        assert kl_one([0.0], [0.9]) > 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one individual"):
            kl_loss(np.zeros((1, 0, 2)), np.zeros((1, 0, 2)))


class TestRankLoss:
    def test_margin_satisfied(self):
        assert rank_one(1.0, 0.0, 0.2) == 0.0

    def test_zero_gap(self):
        assert rank_one(0.7, 0.7, 0.2) == pytest.approx(0.2)

    def test_partial_gap(self):
        assert rank_one(0.6, 0.5, 0.2) == pytest.approx(0.1)

    def test_bounded_by_margin(self):
        rng = SeededRng(9)
        for _ in range(200):
            a, b = sorted(rng.uniforms(2))
            v = rank_one(b, a, 0.2)
            assert 0.0 <= v <= 0.2

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="delta1"):
            rank_one(1.0, 0.0, -0.1)


class TestRecLoss:
    def test_zero_noise(self):
        branch, store = make_branch(FaceBranch, seed=10)
        bd = face_terms(branch, store, SeededRng(10).normals((3, 4)), np.zeros((3, 3)))
        assert bd.rec == 0.0

    def test_direct_substitution(self):
        # one face, sigma = [1, 1], eps = [1, -1]: z - mu = [1, -1], L1 = 2
        branch, store = make_branch(FaceBranch, latent=2, seed=10)
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = 0.0
        bd = face_terms(branch, store, np.ones((1, 4)), np.array([[1.0, -1.0]]))
        assert bd.rec == pytest.approx(2.0)

    def test_identity_with_eps_sigma(self):
        branch, store = make_branch(FaceBranch, seed=10)
        store.get("face.embed.logvar.weight")[...] = SeededRng(11).normals((3, 4))
        rng = SeededRng(10)
        for _ in range(50):
            faces, eps = rng.normals((3, 4)), rng.normals((3, 3))
            _, _, sigma = branch.head.forward(store, faces)
            bd = face_terms(branch, store, faces, eps)
            # rec is the per-face L1 norm of z* - mu, averaged over the faces
            assert bd.rec == pytest.approx(np.abs(eps * sigma).sum() / 3, abs=1e-12)


class TestTotals:
    def test_all_lambdas_zero_is_cls_only(self):
        w = TrainingConfig(lambda2=0.0, lambda3=0.0, lambda4=0.0)
        bd = total_face_loss(*(np.array([v]) for v in (1.25, 17.0, 3.0, 9.0)), w)
        assert bd.total.tolist() == [1.25]

    def test_default_weighted_sum_oracle(self):
        rng = SeededRng(11)
        cls, kl, rank, rec = rng.uniforms(4)[:, None]  # (1,) terms: a stack of one group
        w = TrainingConfig()
        bd = total_face_loss(cls, kl, rank, rec, w)
        assert bd.total == pytest.approx(cls + 1e-4 * kl + 1.0 * rank + 0.01 * rec, abs=1e-15)
        assert bd.as_row() == (cls, kl, rank, rec, bd.total)

    def test_object_total(self):
        cls, kl = np.array([0.9, 0.4]), np.array([5.0, 1.0])  # one value per group
        w = TrainingConfig(lambda2=0.0)
        bd = total_object_loss(cls, kl, w)
        assert bd.total.tolist() == [0.9, 0.4]
        assert bd.rank.tolist() == bd.rec.tolist() == [0.0, 0.0]
        w2 = TrainingConfig(lambda2=2.0)
        assert total_object_loss(cls, kl, w2).total == pytest.approx([10.9, 2.4])


@pytest.mark.parametrize("call,error,need", [
    (lambda: fiqe_score(np.ones((3, 4))), ShapeError, "(n, m >= 2, dim)"),
    (lambda: kl_loss(np.zeros((2, 3)), np.zeros((2, 3))), ShapeError, "(G, n, d)"),
    (lambda: rank_loss(0.7, 0.5, 0.2), ShapeError, "(G,)"),
    (lambda: softmax_cross_entropy([0.0, 1.0, 2.0], 1), ShapeError, "(..., C >= 2)"),
    # one group's faces, without the sizes that split a flat stack into groups
    (lambda: filter_faces(np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 4, 3)), 0.3),
     TypeError, "sizes"),
], ids=["fiqe_score", "kl_loss", "rank_loss", "softmax_cross_entropy", "filter_faces"])
def test_one_group_forms_are_refused(call, error, need):
    # each helper's former one-group input, which gave a float, names the stack it needs
    with pytest.raises(error) as exc:
        call()
    assert need in str(exc.value)
