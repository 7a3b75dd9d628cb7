"""Uncertainty scores, importance weights, and weighted group aggregation.

A face's uncertainty-sensitive score is the harmonic mean of the component
magnitudes of ``sigma * eps`` (the same noise that produced its stochastic
draw). Scores are reflected into importance scalars
``alpha = s_min + s_max - s`` so the most uncertain face in a group gets the
smallest weight, and faces are aggregated as the alpha-weighted mean of
their draws.

Raw ``sigma_d * eps_d`` products can be negative or vanish, so the harmonic
mean runs over ``max(|sigma_d * eps_d|, 1e-8)``: for finite draws, scores
stay positive and finite, which keeps every alpha (and hence every
aggregation weight) positive. Nothing here checks it again: a draw that
overflows gives a non-finite group feature, which the caller refuses.

:func:`uncertainty_kernel` is this algebra, written once over the
individual axis -2: training calls it on a ``(G, n, d)`` stack of ``G``
groups of ``n`` faces (``G = 1`` for a single group), inference on a
``(G, M, k, d)`` block of ``M`` Monte-Carlo rounds of ``G`` groups.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

SCORE_FLOOR = 1e-8


class UncertainGroup(NamedTuple):
    """What :func:`uncertainty_kernel` computes, each over the individual axis -2."""

    z: np.ndarray  # draws mu + eps * sigma, shape of eps
    prods: np.ndarray  # |sigma * eps|, shape of eps
    s: np.ndarray  # scores, eps.shape[:-1]
    alpha: np.ndarray  # importance scalars, eps.shape[:-1]
    x_group: np.ndarray  # alpha-weighted mean draw, eps.shape[:-2] + (d,)


def uncertainty_kernel(mu: np.ndarray, sigma: np.ndarray, eps: np.ndarray) -> UncertainGroup:
    """Draw, score, weight and aggregate groups of Gaussian individuals.

    ``mu`` and ``sigma`` are ``(..., k, d)`` Gaussians: one group's ``(k, d)``
    or a stack of groups. ``eps`` is a noise block with the same last two
    axes that ``mu`` broadcasts to; its other axes index independent rounds
    (inference passes ``(G, 1, k, d)`` Gaussians and a ``(G, M, k, d)`` block).
    """
    lead = eps.shape[-mu.ndim : -2] if 2 <= mu.ndim <= eps.ndim else None
    if mu.shape != sigma.shape or lead is None or eps.shape[-2:] != mu.shape[-2:] or any(
        m not in (1, e) for m, e in zip(mu.shape, lead)
    ):
        raise ShapeError(
            f"need (..., k, d) mu/sigma and an eps block they broadcast to, got "
            f"{mu.shape}, {sigma.shape} and {eps.shape}"
        )
    z = mu + eps * sigma
    prods = np.abs(sigma * eps)
    s = uncertainty_scores(prods)
    alpha = importance_scalars(s)
    return UncertainGroup(z, prods, s, alpha, aggregate_group(z, alpha))


def uncertainty_scores(prods: np.ndarray) -> np.ndarray:
    """Harmonic mean of ``max(|sigma_d * eps_d|, 1e-8)`` over the last axis."""
    t = np.maximum(prods, SCORE_FLOOR)
    return t.shape[-1] / np.sum(1.0 / t, axis=-1)


def importance_scalars(scores) -> np.ndarray:
    """Reflect scores into weights along the last axis: ``alpha = s_min + s_max - s``.

    The ordering of alpha is the exact reverse of the ordering of the
    scores. When all scores coincide (including a single individual) the
    projection is degenerate and every alpha is 1.
    """
    s = np.asarray(scores, dtype=np.float64)
    s_min = s.min(axis=-1, keepdims=True)
    s_max = s.max(axis=-1, keepdims=True)
    return np.where(s_max > s_min, s_min + s_max - s, 1.0)


def aggregate_group(z: np.ndarray, alphas) -> np.ndarray:
    """Alpha-weighted mean of the draws over axis -2: ``sum(a z*) / sum(a)``;
    the weights are positive for finite draws (see the module docstring)."""
    a = np.asarray(alphas, dtype=np.float64)
    return (a[..., None] * z).sum(axis=-2) / a.sum(axis=-1)[..., None]


def high_low_partition(alphas: np.ndarray, ratio: float) -> tuple[np.ndarray, int]:
    """Descending stable sort order and the size of the high partition.

    ``alphas`` holds one group's ``n`` weights, or a ``(..., n)`` stack of
    groups sorted row by row. The top ``ceil(ratio * n)`` indices form the
    high group, capped at ``n - 1`` so the low group is never empty; ties
    keep original order.
    """
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim < 1 or a.shape[-1] < 2:
        raise ShapeError("high/low partition needs at least 2 individuals")
    order = np.argsort(-a, axis=-1, kind="stable")
    n_high = min(math.ceil(ratio * a.shape[-1]), a.shape[-1] - 1)
    return order, n_high
