"""Stochastic-embedding quality filter for faces.

A face's quality is judged by how dispersed repeated stochastic embeddings
of it are: ``m`` reparameterized draws from its latent Gaussian are scored
by ``2 * sigmoid(-(2 / m^2) * sum_{i<j} ||x_i - x_j||)``. Identical draws
score exactly 1.0 and the score decays to 0 as pairwise distances grow, so
high-variance (low-quality) faces fall below the keep threshold.

Dropping every face would leave the group aggregation undefined, so when a
whole group fails the threshold the single best-scoring face is kept.

All faces of a group, or of a whole training batch of groups, are scored in
one call. Each face's score is summed in the same order as a one-face call
would sum it, so batching changes no bit.
"""

from __future__ import annotations

import bisect
import functools
from typing import Sequence

import numpy as np

from .errors import ShapeError

# Faces scored per step: a training batch's few hundred faces are scored in
# chunks whose pair arrays stay small (about 0.2 MB at 8 draws of 32 dims)
_CHUNK = 32


@functools.lru_cache(maxsize=64)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ``i < j`` pairs, in row-major order."""
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = ju.flags.writeable = False  # shared by every caller
    return iu, ju


def fiqe_score(embeddings) -> np.ndarray:
    """Dispersion scores ``(n,)`` of an ``(n, m, dim)`` stack of ``m >= 2``
    stochastic embeddings per face."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] < 2:
        raise ShapeError(f"need an (n, m >= 2, dim) stack of embeddings, got shape {x.shape}")
    m = x.shape[1]
    iu, ju = _pairs(m)
    scores = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _CHUNK):
        part = x[lo : lo + _CHUNK]
        # np.take, not part[:, iu, :]: fancy indexing after a slice lays the
        # pair axis out first, and a row sum over such a strided view adds in
        # another order than the 1-D sum of a single face (1 ulp on about 1
        # score in 3)
        diff = np.take(part, iu, axis=-2) - np.take(part, ju, axis=-2)
        dist = np.sqrt(np.square(diff).sum(axis=-1))
        # the exponent is never positive, so e / (1 + e) is the stable sigmoid
        e = np.exp(-(2.0 / (m * m)) * dist.sum(axis=-1))
        scores[lo : lo + _CHUNK] = 2.0 * (e / (1.0 + e))
    return scores


def filter_faces(
    mu: np.ndarray,
    sigma: np.ndarray,
    eps: np.ndarray,
    threshold: float,
    sizes: Sequence[int],
) -> tuple[list[int], np.ndarray]:
    """Keep the faces whose quality score reaches ``threshold``.

    ``mu`` and ``sigma`` are the ``(n, dim)`` Gaussians of the faces of
    consecutive groups of ``sizes`` faces each (``[n]`` for one group), and
    ``eps`` the ``(n, m, dim)`` noise block; face ``i`` is scored from its
    ``m`` draws ``mu[i] + eps[i] * sigma[i]``. If no face of a group passes,
    its single best-scoring one (first on ties) is kept so no group becomes
    empty. Returns the kept row indices in original order and every face's
    score.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if mu.shape != sigma.shape or eps.ndim != 3 or eps.shape[::2] != mu.shape:
        raise ShapeError(
            f"need (n, dim) mu/sigma and an (n, m, dim) eps block, got "
            f"{mu.shape}, {sigma.shape} and {eps.shape}"
        )
    if min(sizes, default=0) < 0 or sum(sizes) != mu.shape[0]:
        raise ShapeError(f"group sizes {list(sizes)} do not split {mu.shape[0]} faces")
    scores = fiqe_score(mu[:, None, :] + eps * sigma[:, None, :])
    kept = np.flatnonzero(scores >= threshold).tolist()
    fallback, lo = [], 0
    for size in sizes:
        if size and bisect.bisect_left(kept, lo) == bisect.bisect_left(kept, lo + size):
            fallback.append(lo + int(np.argmax(scores[lo : lo + size])))
        lo += size
    return (sorted(kept + fallback) if fallback else kept), scores
