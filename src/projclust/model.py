"""Domain types for mixtures, datasets, projected mixtures and outcomes.

Conventions used throughout:

* points and means are row vectors; covariances are axis-aligned, so a
  mixture stores each one as its diagonal (``MixtureSpec.variances``);
  dataset points may have any memory layout;
* component labels are 0-based integers in ``[0, k)``;
* a two-component 1-D mixture is the five-tuple ``(mu1, mu2, sigma1,
  sigma2, w)`` with ``w`` the weight of component 1 (label 0).

``Mixture1D`` checks its parameters and floors none of them: the learners
floor their fits in unit coordinates (see ``learner1d``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
import numpy as np

from .errors import DimensionMismatchError, DomainError


# ---------------------------------------------------------------------------
# Mixtures and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Ground-truth mixture in R^p: means, covariances and weights.

    Component i has the axis-aligned covariance diag(variances[i]), so
    lambda_max of a covariance is the maximum of its row and the rank of
    a sum of covariances is the nonzero count of the summed rows.
    The constructor keeps checked read-only copies, out of reach of its
    caller's writes, and reads ``k`` and ``p`` from the means' shape.
    """

    means: np.ndarray           # (k, p)
    variances: np.ndarray       # (k, p), each covariance's diagonal
    weights: np.ndarray         # (k,)
    k: int = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        means = np.atleast_2d(np.array(self.means, dtype=float))
        variances = np.array(self.variances, dtype=float)
        weights = np.array(self.weights, dtype=float)
        for array in (means, variances, weights):
            array.flags.writeable = False
        if means.ndim != 2:
            raise DimensionMismatchError("means must be a 2-D (k, p) array")
        k, p = means.shape
        for name, value in (("means", means), ("variances", variances),
                            ("weights", weights), ("k", k), ("p", p)):
            object.__setattr__(self, name, value)
        if k < 2:
            raise DomainError(f"a mixture needs k >= 2 components, got {k}")
        if variances.shape != (k, p) or weights.size != k:
            raise DimensionMismatchError(
                "variances must have the means' (k, p) shape and weights k entries")
        if not np.all(np.isfinite(means)):
            raise DomainError("means must be finite")
        # Phrased so that a NaN variance or weight fails each check.
        if not np.all((variances >= 0.0) & (variances < math.inf)):
            raise DomainError("variances must be finite and >= 0")
        if not np.all((weights > 0.0) & (weights < 1.0)):
            raise DomainError("each weight must lie in (0, 1)")
        if not abs(float(np.sum(weights)) - 1.0) <= 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class Dataset:
    """n points in R^p with optional true labels.

    ``points`` may have any memory layout.  ``datagen.read_dataset``
    returns it column-major, because the scan's projection kernel reads
    that layout fastest.

    ``points`` and ``labels`` are the caller's arrays, not copies (points
    can fill gigabytes); the checks see them only here, so never write to them.
    ``n`` and ``p`` are read from the points' shape.
    """

    points: np.ndarray                 # (n, p)
    labels: np.ndarray | None = None   # (n,) ints in [0, k)
    n: int = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.points, np.ndarray) and self.points.ndim == 2):
            raise DimensionMismatchError("points must be a 2-D (n, p) numpy array")
        object.__setattr__(self, "n", self.points.shape[0])
        object.__setattr__(self, "p", self.points.shape[1])
        # A finite sum proves every entry finite with no n x p temporary.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(self.points)
        if not (np.isfinite(total) or np.isfinite(self.points).all()):
            raise DomainError("points must be finite")
        if self.labels is not None:
            if not (isinstance(self.labels, np.ndarray)
                    and np.issubdtype(self.labels.dtype, np.integer)):
                raise DomainError("labels must be a numpy integer array")
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


@dataclass(frozen=True, eq=False)
class Boundary1D:
    """A unit projection direction plus one or two ascending decision
    thresholds; construction checks both and normalises nothing.

    ``orientation`` is the component label assigned above the single
    threshold, or inside the interval when there are two thresholds.
    Values projected exactly onto a threshold go to the right interval.
    """

    direction: np.ndarray
    thresholds: np.ndarray
    orientation: int

    def __post_init__(self):
        # Phrased so that a NaN or infinite entry fails each check.
        if not abs(float(np.linalg.norm(self.direction)) - 1.0) <= 1e-12:
            raise DomainError("direction must be finite with unit norm within 1e-12")
        t = np.asarray(self.thresholds)
        if not (t.ndim == 1 and t.size in (1, 2) and -math.inf < t[0] <= t[-1] < math.inf):
            raise DomainError("a boundary carries one or two finite thresholds in "
                              "ascending order")
        if self.orientation not in (0, 1):
            raise DomainError("orientation must be 0 or 1")


@dataclass(frozen=True, eq=False)
class ClusterOutcome:
    """Result of a projection scan: boundary, fit and quality estimates."""

    boundary: Boundary1D
    fitted: Mixture1D
    estimated_error: float
    gamma_hat: float
    projections_used: int
    c_hat: float
    achieved: bool

    def __post_init__(self):
        if self.projections_used < 1:
            raise DomainError("projections_used must be >= 1")
        if not 0.0 <= self.estimated_error <= 0.5:
            raise DomainError("estimated_error must lie in [0, 0.5]")


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------

def to_json(obj) -> str:
    """Serialise a dataclass or a dict as strict JSON with sorted keys.
    Arrays and numpy scalars inside it become Python values; a non-finite
    float, which JSON cannot write, becomes ``null`` (as in JSON.stringify)."""
    if is_dataclass(obj):
        obj = asdict(obj)
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False)


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
