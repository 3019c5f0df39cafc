"""Projection-scanning clusterer for two-component mixtures.

The scan draws directions from per-index random streams (stream i for
the i-th direction) and projects the data in O(np); ``score_direction``
fits a two-component 1-D mixture to the projected values and evaluates
the fit's plug-in error estimate, which sets the direction's verdict.
The first direction whose verdict is ``"pass"`` wins; if the budget M is
exhausted the best direction found is returned with ``achieved=False``.

Directions are projected in blocks, one matrix product per block: block
j holds min(B * 2**j, B_MAX) directions (indices 1-8, 9-24, 25-56,
57-120, then 64 at a time, the last cut at the budget), so the partition
depends on the direction index alone.  Directions are fitted lazily in
index order, so the accepted direction is always the lowest-index passer
and the running separation estimate c_hat aggregates every scanned
direction up to and including the winner, failed ones included.  A
rerun is byte-identical at a fixed BLAS thread count; across thread
counts results agree to rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NoBoundaryError
from .learner1d import (
    LEARNERS,
    FitReport,
    bayes_error,
    bayes_orientation,
    bayes_thresholds,
    fit_mixture,
)
from .mathkit import check_seed, q_inverse, stream_generators
from .model import Boundary1D, ClusterOutcome, Dataset
from .projection import project_block, sample_direction, separability_1d
from . import bounds as _bounds

BUDGET_SAFETY_FACTOR = 3

SCAN_LEARNER = "mom+em"

# Rows of the first projection block.  A block product streams the n x p
# data once, so its cost grows far slower than its row count (n=50,000,
# p=1000, column-major points, one thread: 28 ms for 1 row, a GEMV, then
# 43, 40, 45, 70 and 136 ms for 2, 4, 8, 21 and 64 rows).  Two rows cost
# as much as 8, so smaller first blocks (1, 1, 2, 4) would slow a scan
# that stops at its second direction.  Later blocks double to cut the
# passes of a long scan, while an early stop still pays for at most 8 rows.
B = 8
# Rows of the largest block: a block holds B_MAX * n floats, and a scan
# keeps at most two blocks alive.
B_MAX = 64

# Directions whose fit admits no decision threshold cannot cluster and are
# recorded with this estimated error so they never win a scan.
NO_BOUNDARY_ERROR = 0.5


@dataclass(frozen=True)
class ClusterConfig:
    """Scan settings: target error, integer budget (not a ``bool``),
    learner and seed in [0, 2**64)."""

    target_error: float
    budget: int
    learner: str = SCAN_LEARNER
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_error < 0.5:
            raise DomainError("target_error must lie in (0, 0.5)")
        if isinstance(self.budget, bool) or not (
                isinstance(self.budget, numbers.Integral) and self.budget >= 1):
            raise DomainError(f"budget must be an integer >= 1, got {self.budget!r}")
        if self.learner not in LEARNERS:
            raise DomainError(f"unknown learner {self.learner!r}")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class DirectionScan:
    """One scanned direction with its fit, Bayes rule, quality estimates
    and verdict."""

    index: int
    direction: np.ndarray            # unit norm
    values: np.ndarray               # data projected onto the unit direction
    fit: FitReport
    gamma_hat: float
    estimated_error: float
    boundary: Boundary1D | None      # the fit's Bayes rule; None if it has none
    verdict: str                     # "pass" or "above-target"


def _block_ranges(budget: int):
    """Yield the index range of each projection block for 1..budget:
    min(B * 2**j, B_MAX) indices in block j, the last cut at the budget."""
    start, size = 1, B
    while start <= budget:
        yield range(start, min(start + size, budget + 1))
        start += size
        size = min(2 * size, B_MAX)


def score_direction(index: int, direction: np.ndarray, values: np.ndarray,
                    cfg: ClusterConfig) -> DirectionScan:
    """Fit the values along a unit direction, neither copied nor normalised
    here, and score it: the fit's Bayes rule, estimated error and verdict.
    The only place a direction is scored, drawn by the scan or not; a fit
    without a boundary gets ``boundary=None`` and ``NO_BOUNDARY_ERROR``."""
    fit = fit_mixture(values, cfg.learner)
    gamma_hat = separability_1d(fit.fitted)
    try:
        thresholds = bayes_thresholds(fit.fitted)
    except NoBoundaryError:
        boundary, est_error = None, NO_BOUNDARY_ERROR
    else:
        est_error = bayes_error(fit.fitted, thresholds)
        boundary = Boundary1D(
            direction, thresholds, bayes_orientation(fit.fitted, thresholds))
    return DirectionScan(
        index=index,
        direction=direction,
        values=values,
        fit=fit,
        gamma_hat=gamma_hat,
        estimated_error=est_error,
        boundary=boundary,
        verdict="pass" if est_error < cfg.target_error else "above-target",
    )


def scan_directions(data: Dataset, cfg: ClusterConfig):
    """Yield the ``score_direction`` of indices 1..budget in order, drawing
    direction i from the start of ``RngStream(cfg.seed, i)`` (one Philox,
    re-keyed per index) and scoring it lazily.

    Each scan's ``direction`` and ``values`` are its own copies of block
    rows, so a scan or outcome the caller keeps does not keep its blocks
    alive."""
    if data.n < 1:
        raise DomainError("dataset is empty")
    if data.p < 1:
        raise DomainError("dataset has dimension 0")
    stream = stream_generators(cfg.seed)
    for indices in _block_ranges(cfg.budget):
        dirs = np.stack([sample_direction(data.p, stream(i)) for i in indices])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        block = project_block(data, dirs)
        for index, direction, row in zip(indices, dirs, block):
            yield score_direction(index, direction.copy(), row.copy(), cfg)


def cluster_gmm(data: Dataset, cfg: ClusterConfig) -> ClusterOutcome:
    """Scan up to ``cfg.budget`` random directions for one whose fitted
    1-D mixture promises error below ``cfg.target_error``.

    Stops at the first ``"pass"`` verdict and describes ``best``, the
    direction with the lowest estimated error (earliest on ties).  A passer
    is always ``best``, so ``achieved == (estimated_error < target_error)``,
    which the benchmark's outcome check enforces; a rule that rejects a
    direction below the target must keep it from becoming ``best``.
    Deterministic given (data, cfg) and the BLAS thread count.
    """
    gammas = []
    best: DirectionScan | None = None
    for scan in scan_directions(data, cfg):
        gammas.append(scan.gamma_hat)
        if best is None or scan.estimated_error < best.estimated_error:
            best = scan
        if scan.verdict == "pass":
            break
    c_hat = estimate_c_hat(np.array(gammas))

    boundary = best.boundary
    if boundary is None:
        # No scanned fit admitted a boundary; fall back to the sample
        # median on the best direction so the outcome stays usable.
        boundary = Boundary1D(best.direction, np.array([np.median(best.values)]), 1)
    return ClusterOutcome(
        boundary=boundary,
        fitted=best.fit.fitted,
        estimated_error=best.estimated_error,
        gamma_hat=best.gamma_hat,
        projections_used=len(gammas),
        c_hat=c_hat,
        achieved=best.verdict == "pass",
    )


def classify_values(
    values: np.ndarray, thresholds: np.ndarray, orientation: int
) -> np.ndarray:
    """Label projected values; ties at a threshold go to the right side."""
    thresholds = np.asarray(thresholds, dtype=float).ravel()
    if thresholds.size == 1:
        upper = values >= thresholds[0]
        return np.where(upper, orientation, 1 - orientation)
    inside = (values >= thresholds[0]) & (values < thresholds[1])
    return np.where(inside, orientation, 1 - orientation)


def classify(data: Dataset, boundary: Boundary1D) -> np.ndarray:
    """Project points onto the boundary direction and threshold them."""
    values = project_block(data, boundary.direction[np.newaxis])[0]
    return classify_values(values, boundary.thresholds, boundary.orientation)


def clustering_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Label-permutation-invariant mismatch rate, in [0, 0.5]."""
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.size != truth.size:
        raise DimensionMismatchError("label vectors differ in length")
    if predicted.size == 0:
        raise DomainError("label vectors are empty")
    mismatch = float(np.mean(predicted != truth))
    return min(mismatch, 1.0 - mismatch)


def estimate_c_hat(gamma_hats: np.ndarray) -> float:
    """Root mean square of the scanned 1-D separations."""
    gamma_hats = np.asarray(gamma_hats, dtype=float).ravel()
    if gamma_hats.size == 0:
        raise DomainError("need at least one scanned direction")
    return float(np.sqrt(np.mean(np.square(gamma_hats))))


def projections_budget_default(
    p: int, spherical_known: bool, e: float, c_hat: float | None = None
) -> int:
    """Default projection budget.

    With no shape knowledge: ``BUDGET_SAFETY_FACTOR * ceil(ln p)``.  For a
    known spherical mixture with a running c estimate: twice the finite-p
    expected-projection bound at gamma = Q^{-1}(e).
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if not 0.0 < e < 0.5:
        raise DomainError("e must lie in (0, 0.5)")
    fallback = BUDGET_SAFETY_FACTOR * math.ceil(math.log(p))
    if spherical_known and c_hat is not None:
        if p < 2:
            raise DomainError("p must be >= 2")
        if c_hat <= 0.0:
            raise DomainError("c_hat must be positive")
        gamma = q_inverse(e)
        report = _bounds.expected_projections_spherical(gamma, c_hat, p)
        if math.isfinite(report.value):
            return max(1, math.ceil(2.0 * report.value))
    return max(1, fallback)
