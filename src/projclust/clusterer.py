"""Projection-scanning clusterer for two-component mixtures.

The scan draws directions from per-index random streams (stream i for
the i-th direction), projects the data in O(np), fits a two-component
1-D mixture to the projected values and evaluates the fit's plug-in
error estimate.  The first direction whose estimate beats the target
wins; if the budget M is exhausted the best direction found is returned
with ``achieved=False``.

Directions are projected in fixed blocks of ``B``, one matrix product
per block (block k holds indices kB+1..kB+B, the last cut at the
budget), and fitted lazily, so the accepted direction is always the
lowest-index passer and the running separation estimate c_hat aggregates
every scanned direction up to and including the winner, failed ones
included.  A rerun is byte-identical at a fixed BLAS thread count;
across thread counts results agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NoBoundaryError
from .learner1d import (
    FitReport,
    bayes_error,
    bayes_thresholds,
    fit_mixture,
    region_component_labels,
)
from .mathkit import RngStream, q_inverse
from .model import Boundary1D, ClusterOutcome, Dataset
from .projection import project_block, sample_direction, separability_1d
from . import bounds as _bounds

BUDGET_SAFETY_FACTOR = 3

# Directions per projection block: a block product costs under two
# single-direction products, so an early stop wastes little.
B = 8

# Directions whose fit admits no decision threshold cannot cluster and are
# recorded with this estimated error so they never win a scan.
_NO_BOUNDARY_ERROR = 0.5


@dataclass(frozen=True)
class ClusterConfig:
    """Scan settings: target error, budget and learner choice."""

    target_error: float
    budget: int
    learner: str = "mom+em"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_error < 0.5:
            raise DomainError("target_error must lie in (0, 0.5)")
        if self.budget < 1:
            raise DomainError("budget must be >= 1")


@dataclass(frozen=True, eq=False)
class DirectionScan:
    """One scanned direction with its fit and quality estimates."""

    index: int
    direction: np.ndarray            # unit norm
    values: np.ndarray               # data projected onto the unit direction
    fit: FitReport
    gamma_hat: float
    estimated_error: float
    thresholds: np.ndarray | None    # None when the fit has no boundary

    @property
    def orientation(self) -> int:
        if self.thresholds is None:
            return 1
        return int(region_component_labels(self.fit.fitted, self.thresholds)[1])


def scan_directions(data: Dataset, cfg: ClusterConfig):
    """Yield DirectionScan for indices 1..budget in order, drawing
    direction i from ``RngStream(cfg.seed, i)`` and fitting it lazily."""
    if data.n < 1:
        raise DomainError("dataset is empty")
    if data.p < 1:
        raise DomainError("dataset has dimension 0")
    m = cfg.budget
    for start in range(1, m + 1, B):
        indices = range(start, min(start + B, m + 1))
        dirs = np.stack(
            [sample_direction(data.p, RngStream(cfg.seed, i)) for i in indices]
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        block = project_block(data, dirs)
        for index, direction, vals in zip(indices, dirs, block):
            fit = fit_mixture(vals, cfg.learner)
            gamma_hat = separability_1d(fit.fitted)
            try:
                thresholds = bayes_thresholds(fit.fitted)
                est_error = bayes_error(fit.fitted)
            except NoBoundaryError:
                thresholds = None
                est_error = _NO_BOUNDARY_ERROR
            yield DirectionScan(
                index=index,
                direction=direction,
                values=vals,
                fit=fit,
                gamma_hat=gamma_hat,
                estimated_error=est_error,
                thresholds=thresholds,
            )


def cluster_gmm(data: Dataset, cfg: ClusterConfig) -> ClusterOutcome:
    """Scan up to ``cfg.budget`` random directions for one whose fitted
    1-D mixture promises error below ``cfg.target_error``.

    Returns the first passing direction, or the best one with
    ``achieved=False`` when the budget runs out.  Deterministic given
    (data, cfg) and the BLAS thread count.
    """
    gammas = []
    best: DirectionScan | None = None
    winner: DirectionScan | None = None
    for scan in scan_directions(data, cfg):
        gammas.append(scan.gamma_hat)
        if best is None or scan.estimated_error < best.estimated_error:
            best = scan
        if scan.estimated_error < cfg.target_error:
            winner = scan
            break
    achieved = winner is not None
    chosen = winner if achieved else best
    used = chosen.index if achieved else cfg.budget
    c_hat = estimate_c_hat(np.array(gammas[:used]))

    if chosen.thresholds is not None:
        boundary = Boundary1D.create(
            chosen.direction, chosen.thresholds, chosen.orientation
        )
    else:
        # No scanned fit admitted a boundary; fall back to the sample
        # median on the chosen direction so the outcome stays usable.
        median = float(np.median(chosen.values))
        boundary = Boundary1D.create(chosen.direction, [median], 1)
    return ClusterOutcome(
        boundary=boundary,
        fitted=chosen.fit.fitted,
        estimated_error=chosen.estimated_error,
        gamma_hat=chosen.gamma_hat,
        projections_used=used,
        c_hat=c_hat,
        achieved=achieved,
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
    if p < 2:
        raise DomainError("p must be >= 2")
    if not 0.0 < e < 0.5:
        raise DomainError("e must lie in (0, 0.5)")
    fallback = BUDGET_SAFETY_FACTOR * math.ceil(math.log(p))
    if spherical_known and c_hat is not None:
        if c_hat <= 0.0:
            raise DomainError("c_hat must be positive")
        gamma = q_inverse(e)
        report = _bounds.expected_projections_spherical(gamma, c_hat, p)
        if math.isfinite(report.value):
            return max(1, math.ceil(2.0 * report.value))
    return max(1, fallback)
