"""Random 1-D projections of datasets and mixtures.

Directions are vectors of i.i.d. standard normals, so the normalised
direction is uniform on the unit sphere.  ``project_block``, the one
projection kernel, projects an n x p dataset onto B directions with one
O(Bnp) matrix product, reading the data once per block; on large data it
computes the product's two row halves on two threads.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .model import Dataset, Mixture1D, MixtureSpec


def sample_direction(p: int, gen: np.random.Generator) -> np.ndarray:
    """Draw a direction of p i.i.d. standard normal coordinates from ``gen``."""
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    return gen.standard_normal(p)


# Smallest n * p whose block product is split into two row halves, one
# per core.  On one BLAS thread a forced split changed bits on some of
# 700 random shapes with n * p under 1.03e6, and on none above.  Nor
# does it pay for a one-row block there: at n=5,000, p=200 one row took
# 0.37 ms against 0.35 ms split (8 rows: 0.82 against 0.59 ms), and at
# 10,000 x 200 0.70 against 0.51 ms.  2e6 stays a factor of 2 above both.
SPLIT_MIN_WORK = 2_000_000


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
    # On column-major points, as read_dataset returns them, this is a
    # no-transpose GEMM: at n=50,000, p=1000, B=8 and one BLAS thread,
    # 27 ms split over two threads (47 ms unsplit), against 33 ms (62 ms)
    # on row-major points and 121 ms unsplit for points @ directions.T on
    # column-major ones.  A single row goes to GEMV in either layout.
    points = data.points
    n = points.shape[0]
    # The upper half starts at a multiple of 64 rows, so OpenBLAS tiles
    # each half as it tiles those rows of one product and every element
    # keeps its bits; an unaligned split at row 2,500 of 5,000 does not.
    half = n // 2 // 64 * 64
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if n * data.p < SPLIT_MIN_WORK or half == 0 or cores < 2:
        return directions @ points.T
    out = np.empty((directions.shape[0], n), dtype=np.result_type(directions, points))
    failed = []

    def upper():
        try:
            np.matmul(directions, points[half:].T, out=out[:, half:])
        except Exception as exc:  # re-raised on the calling thread
            failed.append(exc)

    # numpy releases the GIL inside BLAS, so the halves run at once.
    worker = threading.Thread(target=upper)
    worker.start()
    try:
        np.matmul(directions, points[:half].T, out=out[:, :half])
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return out


def projected_mixture(spec: MixtureSpec, direction: np.ndarray) -> Mixture1D:
    """Exact 1-D pushforward of components 0 and 1 along a direction.

    Means and sigmas are divided by ||direction|| so the result does not
    depend on the direction's length; the pair weight is renormalised to
    w0 / (w0 + w1).  Nothing is floored: a component with zero variance
    along the direction is a point mass, which ``Mixture1D`` rejects with
    ``DomainError``.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.size != spec.p:
        raise DimensionMismatchError("direction length != spec dimension")
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    mu0 = float(spec.means[0] @ direction) / norm
    mu1 = float(spec.means[1] @ direction) / norm
    var0 = float(np.sum(spec.variances[0] * direction * direction)) / (norm * norm)
    var1 = float(np.sum(spec.variances[1] * direction * direction)) / (norm * norm)
    w = float(spec.weights[0]) / float(spec.weights[0] + spec.weights[1])
    return Mixture1D(mu0, mu1, math.sqrt(var0), math.sqrt(var1), w)


def separability_1d(mix: Mixture1D) -> float:
    """1-D separation |mu1 - mu2| / (sigma1 + sigma2)."""
    return abs(mix.mu1 - mix.mu2) / (mix.sigma1 + mix.sigma2)
