"""Gaussian latent embeddings of individuals and Monte-Carlo prediction.

An individual's feature vector is mapped to a diagonal Gaussian
``N(mu, diag(sigma^2))`` by two affine heads. The sigma head predicts
log-variance, so ``sigma = exp(0.5 * logvar)`` is positive unless it
underflows, which the branches report for each step of groups they embed
(and the KL regularizer consumes the log-variance directly). Stochastic
draws use the reparameterization ``z* = mu + eps * sigma`` with
``eps ~ N(0, I)``, which keeps the sampling differentiable in ``mu`` and
``sigma``. Every draw takes
its noise from a block the caller passes in: the face branch draws through
:func:`ual.uncertainty_scoring.uncertainty_kernel`, the object branch through
:func:`mc_predict`, one ``(G, k, N, D)`` block per stack of ``G`` groups of
``k`` objects.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ShapeError
from .numerics import AffineMap, ParameterStore, SeededRng, softmax

# Initial log-variance bias: start near-deterministic (sigma ~ exp(-2) ~ 0.135)
# so early quality filtering keeps everything and the variance has to be
# learned upward where it pays off.
LOGVAR_BIAS_INIT = -4.0
LOGVAR_WEIGHT_SCALE = 0.01


class EmbeddingHead:
    """Two affine projectors: one for the mean, one for the log-variance."""

    def __init__(self, name: str, in_dim: int, latent_dim: int):
        self.name = name
        self.in_dim = int(in_dim)
        self.latent_dim = int(latent_dim)
        self.mu_map = AffineMap(f"{name}.mu", in_dim, latent_dim)
        self.logvar_map = AffineMap(f"{name}.logvar", in_dim, latent_dim)

    def register(self, store: ParameterStore, rng: SeededRng) -> None:
        self.mu_map.register(store, rng.derive("mu"))
        self.logvar_map.register(store, rng.derive("logvar"), weight_scale=LOGVAR_WEIGHT_SCALE)
        store.get(self.logvar_map.bias_name)[...] = LOGVAR_BIAS_INIT

    def forward(
        self, store: ParameterStore, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(mu, log_var, sigma)``; accepts a vector, a row stack or
        a stack of row stacks (see :class:`~ual.numerics.AffineMap`)."""
        mu = self.mu_map.forward(store, x)
        log_var = self.logvar_map.forward(store, x)
        sigma = np.exp(0.5 * log_var)
        return mu, log_var, sigma

    def backward(
        self,
        store: ParameterStore,
        x: np.ndarray,
        d_mu: np.ndarray,
        d_log_var: np.ndarray,
        grads: dict[str, np.ndarray],
    ) -> None:
        """Accumulate both maps' parameter gradients. The input gradient is
        not computed: the inputs are data."""
        self.mu_map.param_grads(store, x, d_mu, grads)
        self.logvar_map.param_grads(store, x, d_log_var, grads)


def mc_predict(
    mu: np.ndarray,
    sigma: np.ndarray,
    classify: Callable[[np.ndarray], np.ndarray],
    eps: np.ndarray,
) -> np.ndarray:
    """Monte-Carlo class prediction for ``k`` individuals ``N(mu_i, sigma_i^2)``.

    ``mu`` and ``sigma`` are ``(..., k, D)`` and ``eps`` is the ``(..., k, N, D)``
    noise block: individual ``i`` is drawn ``N`` times as ``z* = mu[i] + eps[i] *
    sigma[i]``. ``classify`` maps the stack of latents to ``(..., k, N, C)``
    logits. Returns the ``(..., k, C)`` mean of ``softmax(classify(z*))`` over
    each individual's draws. Leading axes stack groups of ``k`` individuals.
    """
    k_d = eps.shape[:-2] + eps.shape[-1:]  # eps without its draw axis
    if mu.shape != sigma.shape or mu.ndim < 2 or k_d != mu.shape or not eps.shape[-2]:
        raise ShapeError(
            f"need (..., k, D) mu/sigma and a (..., k, N >= 1, D) eps block, got "
            f"{mu.shape}, {sigma.shape} and {eps.shape}"
        )
    z = mu[..., None, :] + eps * sigma[..., None, :]
    return softmax(classify(z)).mean(axis=-2)
