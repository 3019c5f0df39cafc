"""Domain types for mixtures, datasets, projected mixtures and outcomes.

Conventions used throughout:

* points and means are row vectors; matrices are dense row-major float64;
* component labels are 0-based integers in ``[0, k)``;
* a two-component 1-D mixture is the five-tuple ``(mu1, mu2, sigma1,
  sigma2, w)`` with ``w`` the weight of component 1 (label 0).

Fitted 1-D mixtures are kept away from degeneracy by two floors: standard
deviations are clamped to ``SIGMA_FLOOR_REL`` times the scale of the
mixture's own parameters and weights to ``[W_FLOOR, 1 - W_FLOOR]``, which
keeps downstream thresholds and error values finite.  The learners fit in
unit coordinates (see ``learner1d.fit_mixture``), where that scale is of
order 1 whatever the spread and origin of the data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMixtureError, DimensionMismatchError, DomainError

SIGMA_FLOOR_REL = 1e-9
W_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# Covariances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CovarianceSpec:
    """One component covariance in spherical, eigen or full form.

    ``eigen`` form stores eigenvalues plus an orthogonal basis whose
    *columns* are eigenvectors; ``basis=None`` means the identity
    (axis-aligned), which is what the rank-controlled generator emits.
    """

    kind: str
    variance: float | None = None
    eigenvalues: np.ndarray | None = None
    basis: np.ndarray | None = None
    matrix: np.ndarray | None = None

    @staticmethod
    def spherical(variance: float) -> "CovarianceSpec":
        if not (isinstance(variance, (int, float)) and math.isfinite(variance)):
            raise DomainError("spherical variance must be finite")
        if variance <= 0.0:
            raise DomainError(f"spherical variance must be > 0, got {variance}")
        return CovarianceSpec(kind="spherical", variance=float(variance))

    @staticmethod
    def eigen(eigenvalues, basis=None) -> "CovarianceSpec":
        vals = np.asarray(eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("eigenvalues must be a nonempty 1-D array")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise DomainError("eigenvalues must be finite and >= 0")
        if basis is not None:
            basis = np.asarray(basis, dtype=float)
            p = vals.size
            if basis.shape != (p, p):
                raise DimensionMismatchError("basis must be p x p")
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(p))) > 1e-9:
                raise DomainError("basis is not orthogonal within 1e-9")
        return CovarianceSpec(kind="eigen", eigenvalues=vals, basis=basis)

    @staticmethod
    def full(matrix) -> "CovarianceSpec":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("full covariance must be square")
        if not np.all(np.isfinite(mat)):
            raise DomainError("covariance entries must be finite")
        scale = max(1.0, float(np.max(np.abs(mat))))
        if np.max(np.abs(mat - mat.T)) > 1e-9 * scale:
            raise DomainError("covariance is not symmetric within 1e-9")
        mat = 0.5 * (mat + mat.T)
        if float(np.linalg.eigvalsh(mat)[0]) < -1e-9 * scale:
            raise DomainError("covariance is not positive semidefinite")
        return CovarianceSpec(kind="full", matrix=mat)

    def dim(self) -> int | None:
        """Ambient dimension, or None for spherical (valid at any p)."""
        if self.kind == "eigen":
            return int(self.eigenvalues.size)
        if self.kind == "full":
            return int(self.matrix.shape[0])
        return None


def lambda_max(cov: CovarianceSpec) -> float:
    """Largest eigenvalue of a covariance.

    Exact for spherical and eigen forms; full matrices use LAPACK's
    symmetric eigensolver.
    """
    if cov.kind == "spherical":
        return float(cov.variance)
    if cov.kind == "eigen":
        return float(np.max(cov.eigenvalues))
    return float(np.linalg.eigvalsh(cov.matrix)[-1])


def covariance_dense(cov: CovarianceSpec, p: int) -> np.ndarray:
    """Materialise the covariance as a dense p x p matrix."""
    if cov.kind == "spherical":
        return float(cov.variance) * np.eye(p)
    if cov.kind == "eigen":
        if cov.eigenvalues.size != p:
            raise DimensionMismatchError("eigenvalue count != p")
        if cov.basis is None:
            return np.diag(cov.eigenvalues)
        return (cov.basis * cov.eigenvalues) @ cov.basis.T
    if cov.matrix.shape[0] != p:
        raise DimensionMismatchError("covariance dimension != p")
    return cov.matrix


def quadratic_form(cov: CovarianceSpec, a: np.ndarray) -> float:
    """a' Sigma a without materialising Sigma when structure allows."""
    a = np.asarray(a, dtype=float)
    if cov.kind == "spherical":
        return float(cov.variance) * float(a @ a)
    if cov.kind == "eigen":
        if cov.eigenvalues.size != a.size:
            raise DimensionMismatchError("direction length != covariance dim")
        proj = a if cov.basis is None else cov.basis.T @ a
        return float(np.sum(cov.eigenvalues * proj * proj))
    if cov.matrix.shape[0] != a.size:
        raise DimensionMismatchError("direction length != covariance dim")
    return float(a @ (cov.matrix @ a))


def combined_lambda_max(cov1: CovarianceSpec, cov2: CovarianceSpec, p: int) -> float:
    """Largest eigenvalue of Sigma1 + Sigma2."""
    if cov1.kind == "spherical" and cov2.kind == "spherical":
        return float(cov1.variance + cov2.variance)
    if _axis_aligned(cov1) and _axis_aligned(cov2):
        return float(np.max(_diag_of(cov1, p) + _diag_of(cov2, p)))
    total = covariance_dense(cov1, p) + covariance_dense(cov2, p)
    return float(np.linalg.eigvalsh(total)[-1])


def combined_rank(cov1: CovarianceSpec, cov2: CovarianceSpec, p: int) -> int:
    """Rank of Sigma1 + Sigma2 (exact for axis-aligned structure)."""
    if cov1.kind == "spherical" and cov2.kind == "spherical":
        return p
    if _axis_aligned(cov1) and _axis_aligned(cov2):
        return int(np.count_nonzero(_diag_of(cov1, p) + _diag_of(cov2, p)))
    total = covariance_dense(cov1, p) + covariance_dense(cov2, p)
    vals = np.linalg.eigvalsh(total)
    top = float(vals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(vals > 1e-12 * top))


def _axis_aligned(cov: CovarianceSpec) -> bool:
    return cov.kind == "spherical" or (cov.kind == "eigen" and cov.basis is None)


def _diag_of(cov: CovarianceSpec, p: int) -> np.ndarray:
    if cov.kind == "spherical":
        return np.full(p, float(cov.variance))
    if cov.eigenvalues.size != p:
        raise DimensionMismatchError("eigenvalue count != p")
    return cov.eigenvalues


# ---------------------------------------------------------------------------
# Mixtures and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Ground-truth mixture in R^p: means, covariances and weights."""

    p: int
    k: int
    means: np.ndarray           # (k, p)
    covs: tuple[CovarianceSpec, ...]
    weights: np.ndarray         # (k,)

    @staticmethod
    def create(means, covs, weights) -> "MixtureSpec":
        means = np.atleast_2d(np.asarray(means, dtype=float))
        weights = np.asarray(weights, dtype=float)
        k, p = means.shape
        if k < 2:
            raise DomainError(f"a mixture needs k >= 2 components, got {k}")
        if len(covs) != k or weights.size != k:
            raise DimensionMismatchError("means, covs and weights must agree on k")
        if np.any(weights <= 0.0) or np.any(weights >= 1.0):
            raise DomainError("each weight must lie in (0, 1)")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")
        for cov in covs:
            d = cov.dim()
            if d is not None and d != p:
                raise DimensionMismatchError("covariance dimension != p")
        return MixtureSpec(p=p, k=k, means=means, covs=tuple(covs), weights=weights)


def c_separability(spec: MixtureSpec, i: int = 0, j: int = 1) -> float:
    """Separation of components i and j relative to their largest spreads.

    Defined as ||m_i - m_j|| / (sqrt(p) * (sqrt(lmax_i) + sqrt(lmax_j))).
    """
    if i == j:
        raise DomainError("component indices must differ")
    if not (0 <= i < spec.k and 0 <= j < spec.k):
        raise DomainError("component index out of range")
    li = lambda_max(spec.covs[i])
    lj = lambda_max(spec.covs[j])
    denom = math.sqrt(spec.p) * (math.sqrt(li) + math.sqrt(lj))
    if denom == 0.0:
        raise DegenerateMixtureError("both components have zero covariance")
    return float(np.linalg.norm(spec.means[i] - spec.means[j])) / denom


class Provenance(NamedTuple):
    seed: int
    generator: str


@dataclass(frozen=True, eq=False)
class Dataset:
    """n points in R^p with optional true labels and generation provenance."""

    n: int
    p: int
    points: np.ndarray                 # (n, p)
    labels: np.ndarray | None = None   # (n,) ints in [0, k)
    provenance: Provenance | None = None

    def __post_init__(self):
        if self.points.shape != (self.n, self.p):
            raise DimensionMismatchError("points shape != (n, p)")
        # A finite sum proves every entry finite with no n x p temporary.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(self.points)
        if not (np.isfinite(total) or np.isfinite(self.points).all()):
            raise DomainError("points must be finite")
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise DimensionMismatchError("labels length != n")
            if self.labels.size and int(self.labels.min()) < 0:
                raise DomainError("labels must be nonnegative")


@dataclass(frozen=True)
class Mixture1D:
    """Two-component 1-D Gaussian mixture (mu1, mu2, sigma1, sigma2, w)."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    w: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "w"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be finite")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise DomainError("sigmas must be positive")
        if not 0.0 < self.w < 1.0:
            raise DomainError("w must lie in (0, 1)")

    def swapped(self) -> "Mixture1D":
        return Mixture1D(self.mu2, self.mu1, self.sigma2, self.sigma1, 1.0 - self.w)


def clamped_mixture1d(
    mu1: float, mu2: float, sigma1: float, sigma2: float, w: float
) -> Mixture1D:
    """Build a Mixture1D applying the sigma and weight floors; the sigma
    floor is relative to the largest of the parameters."""
    scale = max(abs(mu1), abs(mu2), abs(mu2 - mu1), sigma1, sigma2, 1e-12)
    floor = SIGMA_FLOOR_REL * float(scale)
    w = min(max(float(w), W_FLOOR), 1.0 - W_FLOOR)
    return Mixture1D(
        float(mu1), float(mu2),
        max(float(sigma1), floor), max(float(sigma2), floor),
        w,
    )


@dataclass(frozen=True, eq=False)
class Boundary1D:
    """A projection direction plus decision thresholds.

    ``orientation`` is the component label assigned above the single
    threshold, or inside the interval when there are two thresholds.
    Values projected exactly onto a threshold go to the right interval.
    """

    direction: np.ndarray
    thresholds: np.ndarray
    orientation: int

    @staticmethod
    def create(direction, thresholds, orientation: int) -> "Boundary1D":
        direction = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0 or not np.all(np.isfinite(direction)):
            raise DomainError("direction must be finite and nonzero")
        direction = direction / norm
        thresholds = np.sort(np.asarray(thresholds, dtype=float).ravel())
        if thresholds.size not in (1, 2):
            raise DomainError("a boundary carries one or two thresholds")
        if orientation not in (0, 1):
            raise DomainError("orientation must be 0 or 1")
        return Boundary1D(direction, thresholds, int(orientation))

    def __post_init__(self):
        if abs(float(np.linalg.norm(self.direction)) - 1.0) > 1e-12:
            raise DomainError("direction must have unit norm within 1e-12")


@dataclass(frozen=True, eq=False)
class ClusterOutcome:
    """Result of a projection scan: boundary, fit and quality estimates."""

    boundary: Boundary1D
    fitted: Mixture1D
    estimated_error: float
    gamma_hat: float
    projections_used: int
    c_hat: float | None = None
    achieved: bool = True

    def __post_init__(self):
        if self.projections_used < 1:
            raise DomainError("projections_used must be >= 1")
        if not 0.0 <= self.estimated_error <= 0.5:
            raise DomainError("estimated_error must lie in [0, 0.5]")


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------

def mixture1d_to_jsonable(mix: Mixture1D) -> dict:
    return {
        "mu1": mix.mu1, "mu2": mix.mu2,
        "sigma1": mix.sigma1, "sigma2": mix.sigma2, "w": mix.w,
    }


def cluster_outcome_to_jsonable(outcome: ClusterOutcome) -> dict:
    return {
        "boundary": {
            "direction": outcome.boundary.direction.tolist(),
            "thresholds": outcome.boundary.thresholds.tolist(),
            "orientation": outcome.boundary.orientation,
        },
        "fitted": mixture1d_to_jsonable(outcome.fitted),
        "estimated_error": outcome.estimated_error,
        "gamma_hat": outcome.gamma_hat,
        "projections_used": outcome.projections_used,
        "c_hat": outcome.c_hat,
        "achieved": outcome.achieved,
    }


def to_json(obj, **kwargs) -> str:
    """Serialise a jsonable dict with stable key order."""
    return json.dumps(obj, sort_keys=True, **kwargs)
