import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual.datagen_metrics import GroupSample
from ual.errors import NumericError, ShapeError
from ual.gaussian_embedding import EmbeddingHead, mc_predict
from ual.numerics import ParameterStore, SeededRng, softmax
from ual.pipeline import FaceBranch
from ual.uncertainty_scoring import uncertainty_kernel


def make_head(in_dim=6, latent=4, seed=0):
    head = EmbeddingHead("h", in_dim, latent)
    store = ParameterStore()
    head.register(store, SeededRng(seed).derive("init"))
    return head, store


def embed(head, store, x):
    """``(mu, sigma)`` of one feature vector through the forward pass of a one-row stack."""
    mu, _, sigma = head.forward(store, np.asarray(x, dtype=np.float64)[None, :])
    return mu[0], sigma[0]


class TestEmbedIndividual:
    def test_constant_heads(self):
        head, store = make_head()
        store.get("h.mu.weight")[...] = 0.0
        store.get("h.logvar.weight")[...] = 0.0
        store.get("h.mu.bias")[...] = np.array([1.0, -2.0, 0.5, 0.0])
        store.get("h.logvar.bias")[...] = np.array([0.0, 2.0, -2.0, 4.0])
        mu, sigma = embed(head, store, np.ones(6) * 13.0)
        assert np.array_equal(mu, [1.0, -2.0, 0.5, 0.0])
        assert np.allclose(sigma, np.exp(0.5 * np.array([0.0, 2.0, -2.0, 4.0])))

    def test_zero_logvar_bias_gives_unit_sigma(self):
        head, store = make_head()
        store.get("h.logvar.weight")[...] = 0.0
        store.get("h.logvar.bias")[...] = 0.0
        _, sigma = embed(head, store, SeededRng(1).normals(6))
        assert np.array_equal(sigma, np.ones(4))

    def test_random_head_matches_oracle(self):
        head, store = make_head(seed=5)
        rng = SeededRng(17)
        store.get("h.logvar.weight")[...] = rng.normals((4, 6))
        store.get("h.logvar.bias")[...] = rng.normals(4)
        x = rng.normals(6)
        mu, sigma = embed(head, store, x)
        # oracle: recompute W x + b and exp(0.5 *) directly
        mu_oracle = store.get("h.mu.weight") @ x + store.get("h.mu.bias")
        lv_oracle = store.get("h.logvar.weight") @ x + store.get("h.logvar.bias")
        assert np.array_equal(mu, mu_oracle)
        assert np.array_equal(sigma, np.exp(0.5 * lv_oracle))

    def test_dimension_mismatch(self):
        head, store = make_head()
        with pytest.raises(ShapeError):
            embed(head, store, np.ones(7))

    def test_sigma_positive_enforced(self):
        # the check runs where a branch embeds the individuals of a step of groups
        branch = FaceBranch(in_dim=6, latent_dim=4, num_classes=3)
        store = ParameterStore()
        branch.register(store, SeededRng(0).derive("init"))
        store.get("face.embed.logvar.weight")[...] = 0.0
        store.get("face.embed.logvar.bias")[...] = -2000.0  # sigma = exp(-1000) underflows to 0
        group = GroupSample(id="g", label=0, faces=np.ones((2, 6)),
                            objects=np.zeros((0, 5)), scene=np.zeros(4))
        with pytest.raises(NumericError, match="strictly positive .*'g/face0'"):
            branch.gaussians(store, [group], *branch.individuals([group]))


def draw(mu, sigma, eps):
    """One individual's reparameterized draw, taken from the kernel."""
    rows = [np.asarray(v, dtype=np.float64)[None, :] for v in (mu, sigma, eps)]
    return uncertainty_kernel(*rows).z[0]


class TestReparameterize:
    def test_zero_eps_returns_mu(self):
        mu = np.array([0.3, -1.5])
        assert np.array_equal(draw(mu, [2.0, 0.1], np.zeros(2)), mu)

    def test_unit_gaussian(self):
        assert np.array_equal(draw([0.0, 0.0], [1.0, 1.0], [1.0, -1.0]), [1.0, -1.0])

    def test_direct_substitution(self):
        assert np.array_equal(draw([1.0, 1.0], [2.0, 3.0], [0.5, -1.0]), [2.0, -2.0])

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_identity(self, seed):
        rng = SeededRng(seed)
        mu = rng.normals((3, 5))
        sigma = np.exp(rng.normals((3, 5)))
        eps = rng.normals((2, 3, 5))
        z = uncertainty_kernel(mu, sigma, eps).z
        assert np.max(np.abs(z - (mu + eps * sigma))) == 0.0


class _LinearClassifier:
    def __init__(self, seed, latent=2, classes=3):
        rng = SeededRng(seed)
        self.W = rng.normals((classes, latent))
        self.b = rng.normals(classes)

    def __call__(self, z):
        return z @ self.W.T + self.b


class TestMcPredict:
    def test_degenerate_sigma_equals_deterministic(self):
        clf = _LinearClassifier(2)
        mu = np.array([[0.4, -0.2]])
        for n in (1, 7, 33):
            eps = SeededRng(9).normals((1, n, 2))
            probs = mc_predict(mu, np.full((1, 2), 1e-12), clf, eps)[0]
            expected = softmax(clf(mu)[0])
            assert np.max(np.abs(probs - expected)) < 1e-9

    def test_forced_zero_eps_equals_deterministic(self):
        clf = _LinearClassifier(3)
        mu = np.array([[1.0, 2.0]])
        sigma = np.array([[0.5, 2.0]])
        probs = mc_predict(mu, sigma, clf, np.zeros((1, 1, 2)))[0]
        assert np.allclose(probs, softmax(clf(mu)[0]), atol=1e-15)

    def test_against_quadrature_oracle(self):
        # E[softmax(W z + b)] for z ~ N(mu, diag sigma^2) via Gauss-Hermite
        clf = _LinearClassifier(4)
        mu = np.array([0.3, -0.7])
        sigma = np.array([1.2, 0.8])
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        expected = np.zeros(3)
        for i, xi in enumerate(nodes):
            for j, xj in enumerate(nodes):
                z = mu + np.sqrt(2.0) * sigma * np.array([xi, xj])
                expected += weights[i] * weights[j] * softmax(clf(z[None, :])[0])
        expected /= np.pi
        eps = SeededRng(123).normals((1, 10_000, 2))
        probs = mc_predict(mu[None], sigma[None], clf, eps)[0]
        assert np.max(np.abs(probs - expected)) < 0.01

    def test_output_is_simplex(self):
        clf = _LinearClassifier(5)
        rng = SeededRng(6)
        for _ in range(10):
            mu = rng.normals((1, 2))
            sigma = np.exp(rng.normals((1, 2)))
            probs = mc_predict(mu, sigma, clf, rng.normals((1, 5, 2)))[0]
            assert np.all(probs >= 0) and abs(probs.sum() - 1.0) < 1e-12

    def test_mc_std_shrinks_with_n(self):
        clf = _LinearClassifier(7)
        mu = np.array([[0.1, 0.5]])
        sigma = np.ones((1, 2))
        rng = SeededRng(42)

        def spread(n, repeats=30):
            outs = [mc_predict(mu, sigma, clf, rng.normals((1, n, 2)))[0] for _ in range(repeats)]
            return np.std(np.stack(outs), axis=0).mean()

        assert spread(100) < spread(1)

    def test_n_zero_rejected(self):
        clf = _LinearClassifier(8)
        with pytest.raises(ValueError):
            mc_predict(np.zeros((1, 2)), np.ones((1, 2)), clf, np.zeros((1, 0, 2)))
