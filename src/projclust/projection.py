"""Random 1-D projections of datasets and mixtures.

Directions are vectors of i.i.d. standard normals, so the normalised
direction is uniform on the unit sphere.  ``project_block``, the one
projection kernel, projects an n x p dataset onto B directions with one
O(Bnp) matrix product, reading the data once per block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .mathkit import RngStream
from .model import Dataset, Mixture1D, MixtureSpec, clamped_mixture1d, quadratic_form


def sample_direction(p: int, rng: RngStream) -> np.ndarray:
    """Draw a direction of p i.i.d. standard normal coordinates."""
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    return rng.generator().standard_normal(p)


def project_block(data: Dataset, directions: np.ndarray) -> np.ndarray:
    """Project every data point onto each row of ``directions`` (B, p).

    Returns ``directions @ data.points.T`` as a C-contiguous (B, n) array,
    so each direction's projected values form one contiguous row.  Rows
    are not normalised here; the scan passes unit directions.
    """
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != data.p:
        raise DimensionMismatchError(
            f"directions of shape {directions.shape} do not match data "
            f"dimension {data.p}"
        )
    # Faster than points @ directions.T (57 vs 84 ms at n=50,000, p=1000,
    # B=8, one thread); a single row still goes to GEMV.
    return directions @ data.points.T


def projected_mixture(
    spec: MixtureSpec, direction: np.ndarray, i: int = 0, j: int = 1
) -> Mixture1D:
    """Exact 1-D pushforward of components i and j along a direction.

    Means and sigmas are divided by ||direction|| so the result does not
    depend on the direction's length; the pair weight is renormalised to
    w_i / (w_i + w_j).
    """
    if i == j:
        raise DomainError("component indices must differ")
    direction = np.asarray(direction, dtype=float)
    if direction.size != spec.p:
        raise DimensionMismatchError("direction length != spec dimension")
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    mu_i = float(spec.means[i] @ direction) / norm
    mu_j = float(spec.means[j] @ direction) / norm
    var_i = quadratic_form(spec.covs[i], direction) / (norm * norm)
    var_j = quadratic_form(spec.covs[j], direction) / (norm * norm)
    w = float(spec.weights[i]) / float(spec.weights[i] + spec.weights[j])
    return clamped_mixture1d(
        mu_i, mu_j, math.sqrt(max(var_i, 0.0)), math.sqrt(max(var_j, 0.0)), w
    )


def separability_1d(mix: Mixture1D) -> float:
    """1-D separation |mu1 - mu2| / (sigma1 + sigma2)."""
    return abs(mix.mu1 - mix.mu2) / (mix.sigma1 + mix.sigma2)
