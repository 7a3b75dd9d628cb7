import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual.datagen_metrics import SynthesisSpec, generate_dataset
from ual.errors import NumericError, ShapeError
from ual.numerics import ParameterStore, SeededRng
from ual.pipeline import Trainer, TrainingConfig, build_branches, register_branches
from ual.quality_filter import filter_faces
from ual.uncertainty_scoring import (
    SCORE_FLOOR,
    aggregate_group,
    high_low_partition,
    importance_scalars,
    uncertainty_kernel,
)


def score(sigma, eps):
    """Kernel score of one individual with the given sigma and noise vectors."""
    sigma = np.asarray(sigma, dtype=np.float64)[None, :]
    eps = np.asarray(eps, dtype=np.float64)[None, :]
    return float(uncertainty_kernel(np.zeros_like(sigma), sigma, eps).s[0])


class TestUncertaintyScore:
    def test_equal_products(self):
        assert score([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_scaling(self):
        assert score([2.0, 2.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_hand_evaluated_harmonic_mean(self):
        # harmonic mean of {1, 3} = 2 / (1 + 1/3) = 1.5
        assert score([1.0, 3.0], [1.0, 1.0]) == pytest.approx(1.5)

    def test_negative_products_use_magnitude(self):
        assert score([1.0, 3.0], [-1.0, 1.0]) == pytest.approx(1.5)

    def test_zero_product_floored(self):
        s = score([1.0, 1.0], [0.0, 1.0])
        assert s > 0.0
        assert s == pytest.approx(2.0 / (1.0 / SCORE_FLOOR + 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            uncertainty_kernel(np.zeros((1, 2)), np.ones((1, 2)), np.ones((1, 1)))


class TestImportanceScalars:
    def test_three_point_reflection(self):
        assert np.allclose(importance_scalars([1.0, 2.0, 3.0]), [3.0, 2.0, 1.0])

    def test_degenerate_equal_scores(self):
        assert np.array_equal(importance_scalars([2.0, 2.0, 2.0]), [1.0, 1.0, 1.0])

    def test_single_face(self):
        assert np.array_equal(importance_scalars([0.7]), [1.0])

    def test_two_point_swap(self):
        assert np.allclose(importance_scalars([0.5, 1.0]), [1.0, 0.5])

    def test_rows_are_independent_groups(self):
        s = SeededRng(12).uniforms(12).reshape(4, 3)
        s[2] = 0.4  # one degenerate round among ordinary ones
        batched = importance_scalars(s)
        assert np.array_equal(batched, np.stack([importance_scalars(row) for row in s]))
        assert np.array_equal(batched[2], np.ones(3))

    @given(st.integers(0, 2**32), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_antimonotonicity(self, seed, n):
        s = SeededRng(seed).uniforms(n) + 0.05
        if np.unique(s).shape[0] != n:
            return  # distinct-score property only
        alpha = importance_scalars(s)
        # conservation: alpha + s is constant at s_min + s_max
        assert np.allclose(alpha + s, s.min() + s.max(), atol=1e-12)
        # ordering of alpha is the exact reverse of the ordering of s
        assert np.array_equal(np.argsort(alpha, kind="stable")[::-1], np.argsort(s, kind="stable"))


class TestAggregateGroup:
    def test_uniform_weights_mean(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        out = aggregate_group(z, [0.4, 0.4, 0.4])
        assert np.allclose(out, np.mean(z, axis=0))

    def test_dominant_weight(self):
        z = np.array([[5.0, -1.0], [100.0, 100.0]])
        out = aggregate_group(z, [1.0, 1e-12])
        assert np.max(np.abs(out - np.array([5.0, -1.0]))) < 1e-9

    def test_hand_evaluated(self):
        out = aggregate_group(np.array([[1.0, 0.0], [0.0, 1.0]]), [2.0, 1.0])
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])

    def test_single_face_identity(self):
        # a lone face is degenerate (alpha = 1), so its draw is the group feature
        rng = SeededRng(31)
        mu, sigma, eps = rng.normals((1, 4)), np.exp(rng.normals((1, 4))), rng.normals((3, 1, 4))
        out = uncertainty_kernel(mu, sigma, eps)
        assert np.array_equal(out.alpha, np.ones((3, 1)))
        assert np.array_equal(out.x_group, out.z[:, 0, :])

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_empty_group_rejected(self, sizes, seed):
        # no group reaches the kernel empty: the loader refuses a group without
        # faces ("at least 1 face"), and the quality filter keeps the best face
        # of a group where none passes
        rng = SeededRng(seed)
        n = sum(sizes)
        mu, sigma = rng.normals((n, 3)), np.exp(rng.normals((n, 3)))
        kept, _ = filter_faces(mu, sigma, rng.normals((n, 4, 3)), 0.999, sizes)
        assert np.diff(np.searchsorted(kept, np.cumsum(sizes)), prepend=0).min() >= 1

    def test_nonpositive_weights_rejected(self):
        # weights are positive for finite draws; a face whose features overflow
        # gives NaN weights, which training refuses at the classifier's input as
        # a numeric failure naming the group, with no numpy warning
        ds = generate_dataset(SynthesisSpec(num_groups=4, face_dim=6, object_dim=5, scene_dim=4,
                                            seed=1))
        ds.groups[0].faces[...] *= 1e150
        cfg = TrainingConfig(latent_dim=4, batch_size=4, epochs=1)
        store = ParameterStore()
        branches = build_branches(cfg, ds.dims, ("face",))
        register_branches(store, branches, cfg.seed)
        with warnings.catch_warnings(), pytest.raises(NumericError) as exc:
            warnings.simplefilter("error")
            Trainer(store, branches, cfg, "no-fiqe").train_epoch(ds.groups, 0)
        assert str(exc.value) == "group train-00000: logits contains non-finite values"

    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_convexity_and_permutation_invariance(self, seed, n):
        rng = SeededRng(seed)
        z = rng.normals((n, 3))
        alpha = rng.uniforms(n) + 0.01
        out = aggregate_group(z, alpha)
        assert np.all(out >= z.min(axis=0) - 1e-12)
        assert np.all(out <= z.max(axis=0) + 1e-12)
        perm = rng.permutation(n)
        out_perm = aggregate_group(z[perm], alpha[perm])
        assert np.allclose(out, out_perm, atol=1e-12)


class TestScoreIndividuals:
    def test_scores_use_stored_noise_and_importance_bounds(self):
        rng = SeededRng(44)
        mu = rng.normals((5, 6))
        sigma = np.exp(rng.normals((5, 6)))
        eps = rng.normals((5, 6))
        out = uncertainty_kernel(mu, sigma, eps)
        assert np.array_equal(out.z, mu + eps * sigma)
        for i in range(5):
            # each score is the harmonic mean of its own |sigma * eps|
            assert out.s[i] == pytest.approx(6.0 / np.sum(1.0 / np.abs(sigma[i] * eps[i])))
            # the closed form (s_min + s_max) - s can undershoot the range
            # bound by one ulp, hence the 1e-12 slack
            assert out.s.min() - 1e-12 <= out.alpha[i] <= out.s.max() + 1e-12
            assert out.alpha[i] + out.s[i] == pytest.approx(out.s.min() + out.s.max())

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            uncertainty_kernel(np.zeros((2, 3)), np.ones((2, 3)), np.ones((3, 3)))

    def test_rounds_equal_one_round_at_a_time(self):
        rng = SeededRng(45)
        mu, sigma, eps = rng.normals((4, 5)), np.exp(rng.normals((4, 5))), rng.normals((6, 4, 5))
        batched = uncertainty_kernel(mu, sigma, eps)
        for r in range(6):
            one = uncertainty_kernel(mu, sigma, eps[r])
            for a, b in zip(batched, one):
                assert np.array_equal(a[r], b)


def split_high_low(alphas, ratio):
    """Mean importance of the high and low partitions, as the face rank term takes them."""
    a = np.asarray(alphas, dtype=np.float64)
    order, n_high = high_low_partition(a, ratio)
    return float(a[order[:n_high]].mean()), float(a[order[n_high:]].mean())


class TestSplitHighLow:
    def test_two_faces(self):
        assert split_high_low([1.0, 0.0], 0.5) == (1.0, 0.0)

    def test_ceil_split(self):
        high, low = split_high_low([3.0, 2.0, 1.0], 0.5)
        assert high == pytest.approx(2.5)
        assert low == pytest.approx(1.0)

    def test_all_equal(self):
        high, low = split_high_low([0.8, 0.8, 0.8, 0.8], 0.5)
        assert high == low == pytest.approx(0.8)

    def test_order_independent_of_input_position(self):
        assert split_high_low([1.0, 3.0, 2.0], 0.5) == split_high_low([3.0, 2.0, 1.0], 0.5)

    def test_high_never_swallows_all(self):
        # ratio near 1 still leaves a low group
        high, low = split_high_low([5.0, 1.0], 0.99)
        assert (high, low) == (5.0, 1.0)

    def test_needs_two(self):
        with pytest.raises(ShapeError):
            split_high_low([1.0], 0.5)

    @given(st.integers(0, 2**32), st.integers(2, 10))
    @settings(max_examples=50, deadline=None)
    def test_high_geq_low(self, seed, n):
        alphas = SeededRng(seed).uniforms(n)
        high, low = split_high_low(alphas, 0.5)
        assert high >= low
