"""The uncertainty-aware training objective.

Face branch total:   cls + l2 * kl + l3 * rank + l4 * rec
Object branch total: cls + l2 * kl

where cls is softmax cross-entropy (on the aggregated group feature for
faces; a mu/z* mixture per individual for objects), kl is the mean KL
divergence of the per-individual Gaussians from N(0, I), rank is a margin
on the gap between high- and low-importance face groups, and rec is the L1
distance between a stochastic draw and its mean. The branches in
:mod:`ual.pipeline` compute cls and rec next to their backward passes and
call :func:`kl_loss` and :func:`rank_loss` for the other two terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class LossBreakdown:
    """Loss terms: ``(G,)`` arrays, one value per group, from a branch loss on
    a stack of groups; floats in an epoch's weighted mean row."""

    cls: np.ndarray | float
    kl: np.ndarray | float
    rank: np.ndarray | float
    rec: np.ndarray | float
    total: np.ndarray | float

    def as_row(self) -> tuple:
        return (self.cls, self.kl, self.rank, self.rec, self.total)


def kl_loss(mu: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """Mean KL(N(mu, sigma^2) || N(0, I)) over the ``n >= 1`` rows of each group
    of ``(G, n, d)`` stacks, as a ``(G,)`` array.

    Computed as ``-(1 / 2n) sum_i sum_d (1 + log sigma^2 - mu^2 - sigma^2)``;
    zero exactly when every row is the standard normal.
    """
    if mu.shape != log_var.shape or mu.ndim != 3:
        raise ShapeError(f"need equal (G, n, d) mu/log_var, got {mu.shape} vs {log_var.shape}")
    n = mu.shape[1]
    terms = 1.0 + log_var - np.square(mu) - np.exp(log_var)
    return -0.5 * terms.reshape(mu.shape[0], -1).sum(axis=-1) / n


def rank_loss(alpha_high, alpha_low, delta1: float) -> np.ndarray:
    """Margin loss ``max(0, delta1 - (alpha_high - alpha_low))`` of ``(G,)``
    arrays of one group mean per group, with ``delta1 >= 0``.

    Groups with fewer than two faces have no high/low partition; callers
    define their rank term as 0 in that case.
    """
    high = np.asarray(alpha_high, dtype=np.float64)
    low = np.asarray(alpha_low, dtype=np.float64)
    if high.ndim != 1 or low.shape != high.shape:
        raise ShapeError(f"need equal (G,) alpha_high/alpha_low, got {high.shape} vs {low.shape}")
    gap = delta1 - (high - low)
    return np.where(gap > 0.0, gap, 0.0)  # a NaN gap gives 0.0, as max(0.0, gap) does


def total_face_loss(cls, kl, rank, rec, cfg) -> LossBreakdown:
    """The face total of ``(G,)`` terms weighted by ``cfg.lambda2``-``lambda4``
    (``cfg`` is a ``TrainingConfig``)."""
    total = cls + cfg.lambda2 * kl + cfg.lambda3 * rank + cfg.lambda4 * rec
    return LossBreakdown(cls=cls, kl=kl, rank=rank, rec=rec, total=total)


def total_object_loss(cls, kl, cfg) -> LossBreakdown:
    """The object total of ``(G,)`` terms under ``cfg``'s lambda2; rank and rec are zero."""
    total = cls + cfg.lambda2 * kl
    zero = np.zeros_like(cls)
    return LossBreakdown(cls=cls, kl=kl, rank=zero, rec=zero, total=total)
