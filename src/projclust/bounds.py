"""Closed-form bounds on projection success probabilities and counts.

All calculators, :func:`sample_size_required` included, return a
:class:`BoundReport` carrying the numeric value,
its kind, the inputs it was computed from and a short citation tag naming
the bound.  Probability bounds are clamped into [0, 1] and count bounds
are at least 1; any clamping is flagged on the report, never silent.

The direction and count bounds rest on two statements, each written
once, in a private helper:

* The direction probability, :func:`_direction_prob`.  One random
  Gaussian direction keeps a prescribed 1-D separation gamma with
  probability at least, for any free parameter tau > 0,

      2*Q( sqrt( x * (1 - 1/p) / (1 - x/p) * (1 + tau) ) )
        * (1 - exp(-(p-1)/2 * (tau - ln(1+tau))))  -  corrections

  and zero once x >= p.  For spherical components with high-dimensional
  separation c, x is alpha = gamma^2 / c^2.  For general covariances x is
  beta = 2*gamma^2*lmax(S1+S2)*p / ||m1-m2||^2, or its rank variant
  beta_r = 2*(1+tau2)*gamma^2*lmax*r / ((1-tau1)*||m1-m2||^2) with
  r = rank(S1+S2), which subtracts two chi-square concentration terms as
  its corrections.  :func:`nonspherical_direction_prob` computes beta and
  beta_r.  Each calculator's default ``tau=None`` takes the best tau on
  ``TAU_GRID``.
* The count bound, :func:`_count_bound`.  The expected number of
  directions to scan is at most 1/P for any such probability bound P, and
  unbounded (reported as inf) when P is zero.

In the large-p limit P is 2*Q(gamma/c), and the count grows as o(ln p)
when gamma/c is at most (ln ln p)^((1-eta)/2) and as o(p) when it is at
most (ln p)^((1-eta)/2).  :func:`expected_projections_spherical` and
:func:`sublog_regime_check` evaluate the limit and the regime for gamma/c
and, called at (sqrt(beta), 1), for a general covariance's sqrt(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .mathkit import (
    chi2_lower_tail_exponent,
    chi2_upper_tail_exponent,
    q_function,
)
from .model import MixtureSpec

TAU_GRID = tuple(np.geomspace(1e-4, 10.0, 64).tolist())

_PROB_KINDS = ("probability_lower", "probability_upper", "error_upper")
_COUNT_KINDS = ("count_upper",)


@dataclass(frozen=True)
class BoundReport:
    """A computed bound with its inputs and provenance tag."""

    value: float
    kind: str
    inputs: dict
    citation: str
    clamped: bool = False
    note: str = ""

    def __post_init__(self):
        if self.kind in _PROB_KINDS and not 0.0 <= self.value <= 1.0:
            raise DomainError(f"{self.kind} value outside [0, 1]: {self.value}")
        if self.kind in _COUNT_KINDS and not self.value >= 1.0:
            raise DomainError(f"{self.kind} value below 1: {self.value}")


def _clamp_probability(value: float) -> tuple[float, bool]:
    if value < 0.0:
        return 0.0, True
    if value > 1.0:
        return 1.0, True
    return value, False


# ---------------------------------------------------------------------------
# The direction probability and the count bound
# ---------------------------------------------------------------------------

def _direction_prob(
    x: float, p: int, tau: float | None, inputs: dict, citation: str,
    symbol: str, corrections: float = 0.0,
) -> BoundReport:
    """The direction-probability bound at x in {alpha, beta, beta_r} (see
    the module docstring); ``symbol`` names x in the note of a zero.
    ``tau=None`` takes the first tau on ``TAU_GRID`` with the largest
    value; ``inputs["tau"]`` is set to the tau used."""
    if tau is not None and not 0.0 < tau < math.inf:
        raise DomainError("tau must be positive and finite")
    taus = TAU_GRID if tau is None else (tau,)
    if x >= p:
        return BoundReport(0.0, "probability_lower", {**inputs, "tau": taus[0]},
                           citation, True, f"{symbol} >= p: bound degenerates to zero")
    scale = x * (1.0 - 1.0 / p) / (1.0 - x / p)
    raws = ((t, 2.0 * q_function(math.sqrt(scale * (1.0 + t)))
             * (1.0 - chi2_upper_tail_exponent(p - 1, t)) - corrections)
            for t in taus)
    tau, raw = max(raws, key=lambda pair: _clamp_probability(pair[1])[0])
    value, clamped = _clamp_probability(raw)
    note = "corrections exceed main term" if clamped and raw < 0.0 else ""
    return BoundReport(value, "probability_lower", {**inputs, "tau": tau},
                       citation, clamped, note)


def _square(v: float) -> float:
    """v**2, or inf where float ** raises OverflowError instead."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _count_bound(prob: float, inputs: dict, citation: str) -> BoundReport:
    """The count bound 1/prob (at least 1), unbounded when prob is zero."""
    if prob <= 0.0:
        return BoundReport(math.inf, "count_upper", inputs, citation,
                           note="probability bound is zero: count unbounded")
    return BoundReport(max(1.0, 1.0 / prob), "count_upper", inputs, citation)


# ---------------------------------------------------------------------------
# High-dimensional error and spherical direction bounds
# ---------------------------------------------------------------------------

def hd_bayes_error_bound(c: float, p: int) -> BoundReport:
    """Upper bound Q(c*sqrt(p)/2) on the optimal clustering error in R^p.

    Under this package's c (||m1 - m2|| = c*sqrt(p)*(sqrt(lmax1) +
    sqrt(lmax2))) the optimal error is at most Q(c*sqrt(p)), and exactly
    that for an equal-weight spherical pair with equal variances, so this
    value is loose by the factor 1/2 and is not a floor under any achieved
    error.  The factor matches Dasgupta's convention ||m1 - m2|| >=
    c*sqrt(p*lmax); whether the paper states Q(c*sqrt(p)/2) under such a c
    is not settled by PAPER.md, which holds only the abstract.
    """
    if not 0.0 <= c < math.inf:
        raise DomainError("c must be nonnegative and finite")
    if p < 1:
        raise DomainError("p must be >= 1")
    value = q_function(0.5 * c * math.sqrt(p))
    return BoundReport(
        value=max(value, 0.0),
        kind="error_upper",
        inputs={"c": c, "p": p},
        citation="hd-bayes-error",
    )


def spherical_direction_prob(
    gamma: float, c: float, p: int, tau: float | None = None
) -> BoundReport:
    """Lower bound on P(one random direction keeps gamma-separation),
    for spherical components with high-dimensional separation c."""
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    if not 0.0 < c < math.inf:
        raise DomainError("c must be positive and finite")
    if p < 2:
        raise DomainError("p must be >= 2")
    alpha = _square(gamma / c)
    inputs = {"gamma": gamma, "c": c, "p": p, "tau": tau, "alpha": alpha}
    return _direction_prob(alpha, p, tau, inputs, "spherical-direction-prob", "alpha")


def expected_projections_spherical(
    gamma: float, c: float, p: int | None = None
) -> BoundReport:
    """Upper bound on the expected number of directions until a
    gamma-separable projection appears (spherical components).

    ``p=None`` gives the large-p limit 1/(2*Q(gamma/c)); a finite p uses
    the finite-dimension probability bound at its best tau on ``TAU_GRID``.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    if not 0.0 < c < math.inf:
        raise DomainError("c must be positive and finite")
    if p is None:
        prob = 2.0 * q_function(gamma / c)
        inputs = {"gamma": gamma, "c": c, "p": None}
    else:
        report = spherical_direction_prob(gamma, c, p)
        prob = report.value
        inputs = {"gamma": gamma, "c": c, "p": p, "tau": report.inputs["tau"]}
    return _count_bound(prob, inputs, "projections-spherical")


def sublog_regime_check(
    gamma: float, c: float, p: int, eta: float
) -> tuple[bool, bool, BoundReport]:
    """Check the sub-logarithmic and sub-linear projection-count regimes.

    Returns (in_o_ln_p, in_o_p, finite-p count report): the count grows
    as o(ln p) when gamma/c <= (ln ln p)^((1-eta)/2) and as o(p) when
    gamma/c <= (ln p)^((1-eta)/2).
    """
    if not 0.0 < eta < math.inf:
        raise DomainError("eta must be positive and finite")
    if p <= math.e:
        raise DomainError("p must exceed e so that ln(ln(p)) is positive")
    count = expected_projections_spherical(gamma, c, p)
    in_o_ln_p = gamma / c <= math.log(math.log(p)) ** (0.5 * (1.0 - eta))
    in_o_p = gamma / c <= math.log(p) ** (0.5 * (1.0 - eta))
    report = replace(
        count,
        inputs={**count.inputs, "eta": eta,
                "o_ln_p_regime": in_o_ln_p, "o_p_regime": in_o_p},
        citation="sublog-regime",
    )
    return in_o_ln_p, in_o_p, report


# ---------------------------------------------------------------------------
# k-component bounds
# ---------------------------------------------------------------------------

def kgmm_failure_bound(
    gamma_min: float, c_min: float, k: int, p: int
) -> BoundReport:
    """Upper bound on the probability that, under one random direction,
    some pair of the k projected components is under gamma_min-separated.
    """
    if not 0.0 <= gamma_min < math.inf:
        raise DomainError("gamma_min must be nonnegative and finite")
    if not 0.0 < c_min < math.inf:
        raise DomainError("c_min must be positive and finite")
    if k < 2:
        raise DomainError("k must be >= 2")
    if p < 1:
        raise DomainError("p must be >= 1")
    ratio_sq = _square(gamma_min / c_min)
    if ratio_sq >= p:
        raise DomainError("requires gamma_min^2 / c_min^2 < p")
    arg = (gamma_min / c_min) * math.sqrt(1.1 / (1.0 - ratio_sq / p))
    raw = 0.5 * k * k * (
        1.0 - 2.0 * q_function(arg) * (1.0 - math.exp(-0.002 * p))
    )
    value, clamped = _clamp_probability(raw)
    return BoundReport(
        value=value,
        kind="probability_upper",
        inputs={"gamma_min": gamma_min, "c_min": c_min, "k": k, "p": p},
        citation="kgmm-pairwise-failure",
        clamped=clamped,
    )


def kgmm_projection_bound(c_min: float, k: int, alpha: float) -> BoundReport:
    """Asymptotic projection-count bound 1/alpha for k components, valid
    whenever gamma_min <= (1-alpha) * sqrt(2*pi/1.1) * c_min / k^2."""
    if not 0.0 < c_min < math.inf:
        raise DomainError("c_min must be positive and finite")
    if k < 2:
        raise DomainError("k must be >= 2")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    gamma_threshold = (1.0 - alpha) * math.sqrt(2.0 * math.pi / 1.1) * c_min / k**2
    return BoundReport(
        value=1.0 / alpha,
        kind="count_upper",
        inputs={
            "c_min": c_min, "k": k, "alpha": alpha,
            "gamma_min_threshold": gamma_threshold,
        },
        citation="kgmm-projection-count",
    )


# ---------------------------------------------------------------------------
# Non-spherical bounds
# ---------------------------------------------------------------------------

def nonspherical_direction_prob(
    spec: MixtureSpec,
    gamma: float,
    tau: float | None = None,
    mode: str = "full",
    tau1: float | None = None,
    tau2: float | None = None,
) -> BoundReport:
    """Lower bound on the gamma-separation probability of one direction.
    It holds for any PSD pair (Sigma1, Sigma2); the package represents
    axis-aligned ones.

    ``mode="full"`` uses the full-dimension beta.  ``mode="rank"``
    recomputes beta from rank(Sigma1+Sigma2) with concentration slack
    (tau1, tau2) and subtracts the two corresponding chi-square terms,
    which tightens the bound when the rank is far below p.  beta is inf
    when the two means coincide.
    """
    p = spec.p
    if p < 2:
        raise DomainError("p must be >= 2")
    if spec.k != 2:
        raise DomainError("beta is defined for two-component mixtures")
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be nonnegative and finite")
    summed = spec.variances[0] + spec.variances[1]   # diag(Sigma1 + Sigma2)
    lmax = float(np.max(summed))
    diff_sq = float(np.sum((spec.means[0] - spec.means[1]) ** 2))
    if mode == "full":
        beta = math.inf if diff_sq == 0.0 else 2.0 * gamma * gamma * lmax * p / diff_sq
        report = _direction_prob(
            beta, p, tau, {"gamma": gamma, "p": p, "tau": tau, "beta": beta},
            "nonspherical-direction-prob", "beta")
    elif mode == "rank":
        if tau1 is None or tau2 is None:
            raise DomainError("rank mode requires tau1 and tau2")
        if not 0.0 < tau1 < 1.0:
            raise DomainError("tau1 must lie in (0, 1)")
        if not 0.0 < tau2 < math.inf:
            raise DomainError("tau2 must be positive and finite")
        r = int(np.count_nonzero(summed))
        beta = math.inf if diff_sq == 0.0 else (
            2.0 * (1.0 + tau2) * gamma * gamma * lmax * r / ((1.0 - tau1) * diff_sq))
        corrections = chi2_lower_tail_exponent(p, tau1) + chi2_upper_tail_exponent(r, tau2)
        report = _direction_prob(
            beta, p, tau, {"gamma": gamma, "p": p, "r": r, "tau": tau,
                           "tau1": tau1, "tau2": tau2, "beta": beta},
            "rank-direction-prob", "beta", corrections)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return (replace(report, note="beta is inf: the two means coincide")
            if diff_sq == 0.0 else report)


def expected_projections_nonspherical(
    spec: MixtureSpec,
    gamma: float,
    mode: str = "full",
    tau1: float | None = None,
    tau2: float | None = None,
) -> BoundReport:
    """Expected-projection-count bound for arbitrary covariances: the
    inverse of :func:`nonspherical_direction_prob` at the mixture's own
    dimension and its best tau on ``TAU_GRID`` (rank mode takes the given
    tau1 and tau2).

    For beta = ``nonspherical_direction_prob(...).inputs["beta"]`` the
    large-p limit 1/(2*Q(sqrt(beta))) is
    ``expected_projections_spherical(math.sqrt(beta), 1.0)`` and the
    o(ln p) regime flag is ``sublog_regime_check(math.sqrt(beta), 1.0, p,
    eta)``.
    """
    prob_report = nonspherical_direction_prob(spec, gamma, None, mode, tau1, tau2)
    return _count_bound(prob_report.value, {**prob_report.inputs, "mode": mode},
                        "projections-nonspherical")


# ---------------------------------------------------------------------------
# Sample complexity and error propagation
# ---------------------------------------------------------------------------

SAMPLE_SIZE_CONSTANT = 64


def sample_size_required(epsilon: float, delta: float, gamma_min: float) -> BoundReport:
    """Samples sufficient for parameter accuracy epsilon at confidence
    1 - delta: max(ceil(C/eps^2 * ln(1/delta)), ceil(1/(2*gamma_min)^12))
    with C = ``SAMPLE_SIZE_CONSTANT``, reported as an int.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if not 0.0 < gamma_min < math.inf:
        raise DomainError("gamma_min must be positive and finite")
    first = _finite_size(
        "C/eps^2 * ln(1/delta)",
        lambda: SAMPLE_SIZE_CONSTANT / epsilon**2 * math.log(1.0 / delta))
    # The term is at most 1 from gamma_min = 1/2 on, where the max takes 1
    # anyway; capping there keeps (2*gamma_min)^12 from overflowing.
    second = _finite_size("1/(2*gamma_min)^12",
                          lambda: 1.0 / (2.0 * min(gamma_min, 0.5)) ** 12)
    n = max(math.ceil(first), math.ceil(second), 1)
    return BoundReport(n, "count_upper", {"epsilon": epsilon, "delta": delta,
                                          "gamma_min": gamma_min}, "sample-size")


def _finite_size(term: str, compute) -> float:
    """``compute()``, or a DomainError naming ``term`` when its size is not
    a finite float (an intermediate overflows or underflows to zero)."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except (ZeroDivisionError, OverflowError):
        pass
    raise DomainError(f"{term} is not a finite float")


def error_gap_bound(
    gamma: float, gamma_max: float, w_min: float, epsilon: float
) -> BoundReport:
    """Leading-order gap between the plug-in clustering error and the
    minimum achievable error when parameters are known to accuracy
    epsilon (means within eps*|mu1-mu2|, variances within eps*|mu1-mu2|^2,
    weight within eps)."""
    if not (0.0 < gamma < math.inf and 0.0 < gamma_max < math.inf):
        raise DomainError("gamma and gamma_max must be positive and finite")
    if not 0.0 < w_min <= 0.5:
        raise DomainError("w_min must lie in (0, 0.5]")
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    log_odds = math.log((1.0 - w_min) / w_min)
    gate = (16.0 * _square(gamma_max) + 8.0 * gamma_max * log_odds
            + 2.0 * gamma_max * epsilon) * epsilon
    if gate >= 0.5:
        raise DomainError(
            "requires (16*gamma_max^2 + 8*gamma_max*ln((1-w_min)/w_min)"
            f" + 2*gamma_max*eps)*eps < 1/2, got {gate:.4g}"
        )
    coeff = _finite_size("the eps coefficient", lambda: (
        2.0 * gamma
        + 1.0 / (w_min * gamma)
        + (1.0 / gamma + 2.0 * gamma) * log_odds
        + 8.0 * gamma_max**2 / gamma
        + 2.0 * gamma * (4.0 * gamma + 2.0 * log_odds) ** 2
    ))
    tail_arg = _finite_size("1/(4*gamma*eps)", lambda: 1.0 / (4.0 * gamma * epsilon))
    value = coeff * epsilon + q_function(tail_arg)
    return BoundReport(
        value=value,
        kind="gap_upper",
        inputs={
            "gamma": gamma, "gamma_max": gamma_max,
            "w_min": w_min, "epsilon": epsilon,
        },
        citation="error-gap",
        note="remainder terms of smaller order omitted",
    )

