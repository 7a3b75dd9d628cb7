import math

import numpy as np
import pytest

from ual.errors import ConfigError, ShapeError
from ual.numerics import SeededRng, block_normals, derive_seeds
from ual.pipeline import TrainingConfig
from ual.quality_filter import fiqe_score, filter_faces


def gaussians(*pairs):
    """Stack ``(mu, sigma)`` pairs into the (n, dim) arrays filter_faces takes."""
    mu = np.stack([np.asarray(m, dtype=np.float64) for m, _ in pairs])
    sigma = np.stack([np.asarray(s, dtype=np.float64) for _, s in pairs])
    return mu, sigma


def eps_block(streams, samples, dim):
    """Each face's (samples, dim) noise, drawn from its own stream."""
    return np.stack([st.normals((samples, dim)) for st in streams])


def score_one(mu, sigma, eps):
    """Score of a single face with Gaussian (mu, sigma) under noise ``eps``."""
    mu, sigma = gaussians((mu, sigma))
    return filter_faces(mu, sigma, np.asarray(eps)[None], 0.3, [1])[1][0]


def fiqe_one(x):
    """Score of one face's ``(m, dim)`` embeddings, run as a stack of one."""
    return float(fiqe_score(np.asarray(x)[None])[0])


def reference_score(x):
    """One face's score the long way: full distance matrix, upper triangle."""
    m = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.square(diff).sum(axis=-1))
    total = float(dist[np.triu_indices(m, k=1)].sum())
    e = np.exp(-(2.0 / (m * m)) * total)
    return 2.0 * float(e / (1.0 + e))


class TestFiqeScore:
    def test_identical_embeddings_score_one(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (3, 1))
        assert fiqe_one(x) == 1.0

    def test_pair_distance_two(self):
        # two embeddings at distance 2: 2 * sigmoid(-(2/4) * 2) = 2 * sigmoid(-1)
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        expected = 2.0 / (1.0 + math.e)
        assert fiqe_one(x) == pytest.approx(expected, abs=1e-12)
        assert fiqe_one(x) == pytest.approx(0.53788, abs=1e-5)

    def test_limit_to_zero(self):
        x = np.array([[0.0, 0.0], [1e6, 0.0]])
        assert fiqe_one(x) < 1e-12

    def test_range(self):
        rng = SeededRng(1)
        for _ in range(50):
            x = rng.normals((4, 5))
            s = fiqe_one(x)
            assert 0.0 < s <= 1.0

    def test_decreasing_in_any_distance(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        wider = base.copy()
        wider[1, 0] = 2.0  # stretch one pair
        assert fiqe_one(wider) < fiqe_one(base)

    def test_single_embedding_rejected(self):
        with pytest.raises(ShapeError, match="m >= 2"):
            fiqe_one(np.ones((1, 4)))

    @pytest.mark.parametrize("n,m,dim", [(1, 2, 1), (5, 8, 32), (7, 8, 5), (6, 3, 9), (2, 11, 4)])
    def test_batch_equals_one_face_at_a_time(self, n, m, dim):
        # exact equality: each face's pair distances must be summed in the
        # same order as a single face's, or about 1 score in 3 moves an ulp
        rng = SeededRng(100 + n * m)
        for trial in range(20):
            x = rng.normals((n, m, dim)) * math.exp(rng.normals(1)[0])
            batch = fiqe_score(x)
            assert batch.shape == (n,)
            for i in range(n):
                assert batch[i] == fiqe_one(x[i]) == reference_score(x[i])

    def test_batch_of_zero_faces(self):
        assert fiqe_score(np.zeros((0, 8, 3))).shape == (0,)


class TestScoreFace:
    def test_tiny_sigma_scores_near_one(self):
        eps = SeededRng(3).normals((8, 2))
        assert score_one(np.array([1.0, -1.0]), np.full(2, 1e-9), eps) > 0.999999

    def test_monotone_in_sigma_with_fixed_eps(self):
        rng = SeededRng(4)
        eps = rng.normals((6, 3))
        mu = np.array([0.5, 0.5, 0.5])
        scores = [score_one(mu, np.full(3, s), eps) for s in (0.05, 0.2, 0.8, 3.0)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            score_one([0.0], [1.0], SeededRng(0).normals((1, 1)))


class TestFilterFaces:
    def _streams(self, n, seed=0):
        root = SeededRng(seed)
        return [root.derive("face", i) for i in range(n)]

    def test_crisp_faces_all_kept(self):
        mu, sigma = gaussians(*[(SeededRng(i).normals(4), np.full(4, 1e-6)) for i in range(5)])
        kept, scores = filter_faces(mu, sigma, eps_block(self._streams(5), 8, 4), 0.3, [5])
        assert kept == [0, 1, 2, 3, 4]
        assert all(i in kept and s > 0.99 for i, s in enumerate(scores))

    def test_single_noisy_face_dropped(self):
        # sigma large enough that the expected score falls below 0.3:
        # mean pairwise distance ~ sigma * sqrt(2 D) >> threshold scale
        mu, sigma = gaussians(
            (np.zeros(8), np.full(8, 1e-6)),
            (np.zeros(8), np.full(8, 5.0)),
            (np.zeros(8), np.full(8, 1e-6)),
        )
        kept, scores = filter_faces(mu, sigma, eps_block(self._streams(3), 8, 8), 0.3, [3])
        assert kept == [0, 2]
        assert 1 not in kept
        assert scores[1] < 0.3

    def test_group_never_empties(self):
        mu, sigma = gaussians(*[(np.zeros(8), np.full(8, 5.0 + i)) for i in range(4)])
        kept, scores = filter_faces(mu, sigma, eps_block(self._streams(4), 8, 8), 0.3, [4])
        assert len(kept) == 1
        assert kept[0] == int(np.argmax(scores))

    def test_idempotent(self):
        mu, sigma = gaussians(
            (np.zeros(4), np.full(4, 1e-6)),
            (np.zeros(4), np.full(4, 9.0)),
            (np.ones(4), np.full(4, 1e-6)),
        )
        streams = self._streams(3, seed=7)
        kept, _ = filter_faces(mu, sigma, eps_block(streams, 8, 4), 0.3, [3])
        again, _ = filter_faces(
            mu[kept], sigma[kept],
            eps_block([self._streams(3, seed=7)[i] for i in kept], 8, 4), 0.3, [len(kept)],
        )
        assert [kept[i] for i in again] == kept

    def test_threshold_validated(self):
        # the threshold is the config's delta2, which its validation bounds to (0, 1)
        with pytest.raises(ConfigError) as exc:
            TrainingConfig(delta2=1.5).validate()
        assert str(exc.value) == "delta2 must lie in (0, 1)"

    def test_shapes_validated(self):
        mu, sigma = gaussians(([0.0, 1.0], [1.0, 1.0]), ([0.0, 1.0], [1.0, 1.0]))
        with pytest.raises(ShapeError):
            filter_faces(mu, sigma, np.zeros((3, 8, 2)), 0.3, [2])  # one block per face
        with pytest.raises(ShapeError):
            filter_faces(mu, sigma, np.zeros((2, 8, 3)), 0.3, [2])  # latent width
        with pytest.raises(ShapeError):
            filter_faces(mu, sigma[:1], np.zeros((2, 8, 2)), 0.3, [2])

    def test_sizes_filter_each_group_on_its_own(self):
        # three groups in one flat stack: mixed, all failing, all crisp
        mu, sigma = gaussians(
            (np.zeros(8), np.full(8, 1e-6)),
            (np.zeros(8), np.full(8, 5.0)),
            (np.zeros(8), np.full(8, 6.0)),
            (np.zeros(8), np.full(8, 5.0)),
            (np.ones(8), np.full(8, 1e-6)),
            (np.ones(8), np.full(8, 1e-6)),
        )
        sizes = [2, 2, 2]
        eps = eps_block(self._streams(6, seed=3), 8, 8)
        kept, scores = filter_faces(mu, sigma, eps, 0.3, sizes)
        assert (scores[2:4] < 0.3).all()  # no face of the middle group passes
        expected, start = [], 0
        for n in sizes:
            part = slice(start, start + n)
            one_kept, one_scores = filter_faces(mu[part], sigma[part], eps[part], 0.3, [n])
            assert one_scores.tobytes() == scores[part].tobytes()
            expected += [start + i for i in one_kept]
            start += n
        assert kept == expected == [0, 2 + int(np.argmax(scores[2:4])), 4, 5]

    def test_sizes_must_split_the_stack(self):
        mu, sigma = gaussians(*[(np.zeros(2), np.ones(2))] * 3)
        with pytest.raises(ShapeError):
            filter_faces(mu, sigma, np.zeros((3, 4, 2)), 0.3, [1, 1])
        assert filter_faces(mu, sigma, np.zeros((3, 4, 2)), 0.3, [0, 3, 0])[0] == [0, 1, 2]

    def test_batch_equals_per_face_reference(self):
        # a group of n >= 5 faces with m = 8 draws each, eps from one block
        # call: every score equals the one-face reference bit for bit
        rng = SeededRng(55)
        for trial in range(30):
            n = 5 + rng.integer(4)
            mu = rng.normals((n, 16))
            sigma = np.exp(rng.normals((n, 16)) - 1.0)
            eps = block_normals(derive_seeds(rng.derive("g", trial), np.arange(n)), (8, 16))
            kept, scores = filter_faces(mu, sigma, eps, 0.3, [n])
            oracle = [reference_score(mu[i] + eps[i] * sigma[i]) for i in range(n)]
            assert scores.tolist() == oracle
            expected = [i for i, s in enumerate(oracle) if s >= 0.3] or [int(np.argmax(oracle))]
            assert kept == expected
