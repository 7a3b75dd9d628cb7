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
class LossWeights:
    """Per-term weights; defaults match the trained configuration."""

    lambda1: float = 0.1  # mu/z* mixing in the object classification loss
    lambda2: float = 1e-4  # KL regularizer
    lambda3: float = 1.0  # rank regularizer
    lambda4: float = 0.01  # reconstruction


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    kl: float
    rank: float
    rec: float
    total: float
    weights: LossWeights

    def as_row(self) -> tuple[float, float, float, float, float]:
        return (self.cls, self.kl, self.rank, self.rec, self.total)


def kl_loss(mu: np.ndarray, log_var: np.ndarray) -> float:
    """Mean KL(N(mu, sigma^2) || N(0, I)) over the rows of ``(n, d)`` arrays.

    Computed as ``-(1 / 2n) sum_i sum_d (1 + log sigma^2 - mu^2 - sigma^2)``;
    zero exactly when every row is the standard normal.
    """
    if mu.shape != log_var.shape or mu.ndim != 2:
        raise ShapeError(f"need equal (n, d) mu/log_var, got {mu.shape} vs {log_var.shape}")
    if mu.shape[0] == 0:
        raise ValueError("kl_loss needs at least one individual")
    return float(-0.5 * np.sum(1.0 + log_var - np.square(mu) - np.exp(log_var)) / mu.shape[0])


def rank_loss(alpha_high: float, alpha_low: float, delta1: float) -> float:
    """Margin loss ``max(0, delta1 - (alpha_high - alpha_low))``.

    Groups with fewer than two faces have no high/low partition; callers
    define their rank term as 0 in that case.
    """
    if delta1 < 0.0:
        raise ValueError(f"delta1 must be >= 0, got {delta1}")
    return max(0.0, delta1 - (alpha_high - alpha_low))


def total_face_loss(
    cls: float, kl: float, rank: float, rec: float, weights: LossWeights
) -> LossBreakdown:
    total = cls + weights.lambda2 * kl + weights.lambda3 * rank + weights.lambda4 * rec
    return LossBreakdown(cls=cls, kl=kl, rank=rank, rec=rec, total=total, weights=weights)


def total_object_loss(cls: float, kl: float, weights: LossWeights) -> LossBreakdown:
    total = cls + weights.lambda2 * kl
    return LossBreakdown(cls=cls, kl=kl, rank=0.0, rec=0.0, total=total, weights=weights)
