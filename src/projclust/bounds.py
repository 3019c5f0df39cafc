"""Closed-form bounds on projection success probabilities and counts.

All calculators return a :class:`BoundReport` carrying the numeric value,
its kind, the inputs it was computed from and a short citation tag naming
the bound.  Probability bounds are clamped into [0, 1] and count bounds
are at least 1; any clamping is flagged on the report, never silent.

The central quantity is the chance that one random Gaussian direction
preserves a prescribed 1-D separation gamma.  For spherical components
with high-dimensional separation c it is lower-bounded, for any free
parameter tau > 0, by

    2*Q( sqrt( alpha * (1 - 1/p) / (1 - alpha/p) * (1 + tau) ) )
      * (1 - exp(-(p-1)/2 * (tau - ln(1+tau))))

with alpha = gamma^2 / c^2; general covariances replace alpha by
beta = 2*gamma^2*lmax(S1+S2)*p / ||m1-m2||^2, and a rank-r variant
tightens beta through two extra chi-square concentration terms.
The reciprocal of any such probability bounds the expected number of
directions that must be scanned.
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
from .model import MixtureSpec, combined_lambda_max, combined_rank

TAU_GRID = tuple(np.geomspace(1e-4, 10.0, 64))
TAU1_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
TAU2_GRID = (0.1, 0.25, 0.5, 1.0, 2.0)

_PROB_KINDS = ("probability_lower", "probability_upper", "error_upper", "error_lower")
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

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "inputs": {k: _plain(v) for k, v in self.inputs.items()},
            "citation": self.citation,
            "clamped": self.clamped,
            "note": self.note,
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _clamp_probability(value: float) -> tuple[float, bool]:
    if value < 0.0:
        return 0.0, True
    if value > 1.0:
        return 1.0, True
    return value, False


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
    if c < 0.0:
        raise DomainError("c must be nonnegative")
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
    gamma: float, c: float, p: int, tau: float
) -> BoundReport:
    """Lower bound on P(one random direction keeps gamma-separation),
    for spherical components with high-dimensional separation c."""
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if c <= 0.0:
        raise DomainError("c must be positive")
    if p < 2:
        raise DomainError("p must be >= 2")
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    alpha = (gamma / c) ** 2
    inputs = {"gamma": gamma, "c": c, "p": p, "tau": tau, "alpha": alpha}
    if alpha >= p:
        return BoundReport(
            value=0.0,
            kind="probability_lower",
            inputs=inputs,
            citation="spherical-direction-prob",
            clamped=True,
            note="alpha >= p: bound degenerates to zero",
        )
    arg = alpha * (1.0 - 1.0 / p) / (1.0 - alpha / p) * (1.0 + tau)
    tail = chi2_upper_tail_exponent(p - 1, tau)
    value, clamped = _clamp_probability(
        2.0 * q_function(math.sqrt(arg)) * (1.0 - tail)
    )
    return BoundReport(
        value=value,
        kind="probability_lower",
        inputs=inputs,
        citation="spherical-direction-prob",
        clamped=clamped,
    )


def optimize_tau(prob_fn, grid=TAU_GRID) -> tuple[float, BoundReport]:
    """Maximise a tau-parametrised bound over a fixed deterministic grid.

    ``prob_fn`` maps tau to a BoundReport; the first grid point achieving
    the maximum wins, so the result is reproducible.
    """
    best_tau, best = None, None
    for tau in grid:
        report = prob_fn(float(tau))
        if best is None or report.value > best.value:
            best_tau, best = float(tau), report
    return best_tau, best


def expected_projections_spherical(
    gamma: float, c: float, p: int | None = None
) -> BoundReport:
    """Upper bound on the expected number of directions until a
    gamma-separable projection appears (spherical components).

    ``p=None`` gives the large-p limit 1/(2*Q(gamma/c)); a finite p uses
    the finite-dimension probability bound with tau optimised on the
    standard grid.
    """
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if c <= 0.0:
        raise DomainError("c must be positive")
    if p is None:
        prob = 2.0 * q_function(gamma / c)
        inputs = {"gamma": gamma, "c": c, "p": None}
        if prob <= 0.0:
            return BoundReport(
                value=math.inf,
                kind="count_upper",
                inputs=inputs,
                citation="projections-spherical",
                note="probability bound is zero: count unbounded",
            )
        return BoundReport(
            value=max(1.0, 1.0 / prob),
            kind="count_upper",
            inputs=inputs,
            citation="projections-spherical",
        )
    tau, prob_report = optimize_tau(
        lambda t: spherical_direction_prob(gamma, c, p, t)
    )
    inputs = {"gamma": gamma, "c": c, "p": p, "tau": tau}
    if prob_report.value <= 0.0:
        return BoundReport(
            value=math.inf,
            kind="count_upper",
            inputs=inputs,
            citation="projections-spherical",
            note="probability bound is zero: count unbounded",
        )
    return BoundReport(
        value=max(1.0, 1.0 / prob_report.value),
        kind="count_upper",
        inputs=inputs,
        citation="projections-spherical",
    )


def sublog_regime_check(
    gamma: float, c: float, p: int, eta: float
) -> tuple[bool, bool, BoundReport]:
    """Check the sub-logarithmic and sub-linear projection-count regimes.

    Returns (in_o_ln_p, in_o_p, finite-p count report): the count grows
    as o(ln p) when gamma/c <= (ln ln p)^((1-eta)/2) and as o(p) when
    gamma/c <= (ln p)^((1-eta)/2).
    """
    if eta <= 0.0:
        raise DomainError("eta must be positive")
    if p <= math.e:
        raise DomainError("p must exceed e so that ln(ln(p)) is positive")
    if c <= 0.0:
        raise DomainError("c must be positive")
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    ratio = gamma / c
    exponent = 0.5 * (1.0 - eta)
    in_o_ln_p = ratio <= math.log(math.log(p)) ** exponent
    in_o_p = ratio <= math.log(p) ** exponent
    count = expected_projections_spherical(gamma, c, p)
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
    if gamma_min < 0.0:
        raise DomainError("gamma_min must be nonnegative")
    if c_min <= 0.0:
        raise DomainError("c_min must be positive")
    if k < 2:
        raise DomainError("k must be >= 2")
    if p < 1:
        raise DomainError("p must be >= 1")
    ratio_sq = (gamma_min / c_min) ** 2
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
    if c_min <= 0.0:
        raise DomainError("c_min must be positive")
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

def beta_full_rank(spec: MixtureSpec, gamma: float) -> float:
    """beta = 2*gamma^2*lmax(Sigma1+Sigma2)*p / ||m1-m2||^2."""
    if spec.k != 2:
        raise DomainError("beta is defined for two-component mixtures")
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    diff_sq = float(np.sum((spec.means[0] - spec.means[1]) ** 2))
    if diff_sq == 0.0:
        return math.inf
    lmax = combined_lambda_max(spec.covs[0], spec.covs[1], spec.p)
    return 2.0 * gamma * gamma * lmax * spec.p / diff_sq


def _beta_rank(spec: MixtureSpec, gamma: float, tau1: float, tau2: float) -> tuple[float, int]:
    if not 0.0 < tau1 < 1.0:
        raise DomainError("tau1 must lie in (0, 1)")
    if tau2 <= 0.0:
        raise DomainError("tau2 must be positive")
    diff_sq = float(np.sum((spec.means[0] - spec.means[1]) ** 2))
    if diff_sq == 0.0:
        return math.inf, 0
    lmax = combined_lambda_max(spec.covs[0], spec.covs[1], spec.p)
    r = combined_rank(spec.covs[0], spec.covs[1], spec.p)
    beta = 2.0 * (1.0 + tau2) * gamma * gamma * lmax * r / ((1.0 - tau1) * diff_sq)
    return beta, r


def nonspherical_direction_prob(
    spec: MixtureSpec,
    gamma: float,
    tau: float,
    mode: str = "full",
    tau1: float | None = None,
    tau2: float | None = None,
) -> BoundReport:
    """Lower bound on the gamma-separation probability of one direction
    for arbitrary PSD covariances.

    ``mode="full"`` uses the full-dimension beta.  ``mode="rank"``
    recomputes beta from rank(Sigma1+Sigma2) with concentration slack
    (tau1, tau2) and subtracts the two corresponding chi-square terms,
    which tightens the bound when the rank is far below p.
    """
    if spec.k != 2:
        raise DomainError("direction bound is defined for two components")
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    p = spec.p
    if p < 2:
        raise DomainError("p must be >= 2")

    if mode == "full":
        beta = beta_full_rank(spec, gamma)
        corrections = 0.0
        inputs = {"gamma": gamma, "p": p, "tau": tau, "beta": beta}
        citation = "nonspherical-direction-prob"
    elif mode == "rank":
        if tau1 is None or tau2 is None:
            raise DomainError("rank mode requires tau1 and tau2")
        beta, r = _beta_rank(spec, gamma, tau1, tau2)
        corrections = chi2_lower_tail_exponent(p, tau1) + chi2_upper_tail_exponent(
            r, tau2
        )
        inputs = {
            "gamma": gamma, "p": p, "r": r,
            "tau": tau, "tau1": tau1, "tau2": tau2, "beta": beta,
        }
        citation = "rank-direction-prob"
    else:
        raise DomainError(f"unknown mode {mode!r}")

    if not math.isfinite(beta) or beta >= p:
        return BoundReport(
            value=0.0,
            kind="probability_lower",
            inputs=inputs,
            citation=citation,
            clamped=True,
            note="beta >= p: bound degenerates to zero",
        )
    arg = beta * (1.0 - 1.0 / p) / (1.0 - beta / p) * (1.0 + tau)
    tail = chi2_upper_tail_exponent(p - 1, tau)
    raw = 2.0 * q_function(math.sqrt(arg)) * (1.0 - tail) - corrections
    value, clamped = _clamp_probability(raw)
    return BoundReport(
        value=value,
        kind="probability_lower",
        inputs=inputs,
        citation=citation,
        clamped=clamped,
        note="corrections exceed main term" if clamped and raw < 0.0 else "",
    )


def expected_projections_nonspherical(
    spec: MixtureSpec,
    gamma: float,
    mode: str = "full",
    asymptotic: bool = False,
    tau1: float | None = None,
    tau2: float | None = None,
    eta: float = 0.1,
) -> BoundReport:
    """Expected-projection-count bound for arbitrary covariances.

    ``asymptotic=True`` gives the large-p limit 1/(2*Q(sqrt(beta)));
    otherwise the mixture's own dimension is used with free parameters
    optimised on fixed grids (tau always; tau1/tau2 too when not supplied
    in rank mode).  The report notes whether sqrt(beta) sits in the
    o(ln p) regime sqrt(beta) <= (ln ln p)^((1-eta)/2).
    """
    if mode == "rank" and (tau1 is None or tau2 is None):
        candidates = [(t1, t2) for t1 in TAU1_GRID for t2 in TAU2_GRID]
    else:
        candidates = [(tau1, tau2)]

    if asymptotic:
        if mode == "full":
            beta = beta_full_rank(spec, gamma)
        else:
            beta, _ = _beta_rank(spec, gamma, candidates[0][0], candidates[0][1])
        inputs = {"gamma": gamma, "p": None, "beta": beta, "mode": mode}
        prob = 0.0 if not math.isfinite(beta) else 2.0 * q_function(math.sqrt(beta))
        if prob <= 0.0:
            return BoundReport(
                value=math.inf, kind="count_upper", inputs=inputs,
                citation="projections-nonspherical",
                note="probability bound is zero: count unbounded",
            )
        return BoundReport(
            value=max(1.0, 1.0 / prob), kind="count_upper", inputs=inputs,
            citation="projections-nonspherical",
        )

    best = None
    for t1, t2 in candidates:
        tau, report = optimize_tau(
            lambda t: nonspherical_direction_prob(
                spec, gamma, t, mode=mode, tau1=t1, tau2=t2
            )
        )
        if best is None or report.value > best[1].value:
            best = (tau, report)
    tau, prob_report = best
    inputs = dict(prob_report.inputs)
    inputs["mode"] = mode
    if prob_report.value > 0.0 and spec.p > math.e:
        beta = inputs.get("beta", math.inf)
        exponent = 0.5 * (1.0 - eta)
        inputs["eta"] = eta
        inputs["o_ln_p_regime"] = (
            math.isfinite(beta)
            and math.sqrt(beta) <= math.log(math.log(spec.p)) ** exponent
        )
    if prob_report.value <= 0.0:
        return BoundReport(
            value=math.inf, kind="count_upper", inputs=inputs,
            citation="projections-nonspherical",
            note="probability bound is zero: count unbounded",
        )
    return BoundReport(
        value=max(1.0, 1.0 / prob_report.value),
        kind="count_upper",
        inputs=inputs,
        citation="projections-nonspherical",
    )


# ---------------------------------------------------------------------------
# Sample complexity and error propagation
# ---------------------------------------------------------------------------

SAMPLE_SIZE_CONSTANT = 64


def sample_size_required(
    epsilon: float, delta: float, gamma_min: float,
    constant: float = SAMPLE_SIZE_CONSTANT,
) -> int:
    """Samples sufficient for parameter accuracy epsilon at confidence
    1 - delta: max(ceil(C/eps^2 * ln(1/delta)), ceil(1/(2*gamma_min)^12)).
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if gamma_min <= 0.0:
        raise DomainError("gamma_min must be positive")
    first = math.ceil(constant / epsilon**2 * math.log(1.0 / delta))
    second = math.ceil(1.0 / (2.0 * gamma_min) ** 12)
    return max(int(first), int(second), 1)


def estimated_separability_bound(gamma: float, epsilon: float) -> float:
    """High-probability cap (3*gamma + eps) / (1 - 2*sqrt(gamma^2 + eps))
    on the separability fitted from samples of a gamma-separable mixture.

    Valid for gamma < 1/2 with gamma^2 + eps < 1/4.
    """
    if gamma < 0.0 or epsilon < 0.0:
        raise DomainError("gamma and epsilon must be nonnegative")
    if gamma >= 0.5:
        raise DomainError(f"requires gamma < 1/2, got {gamma}")
    if gamma * gamma + epsilon >= 0.25:
        raise DomainError("requires gamma^2 + epsilon < 1/4")
    return (3.0 * gamma + epsilon) / (1.0 - 2.0 * math.sqrt(gamma**2 + epsilon))


def error_gap_bound(
    gamma: float, gamma_max: float, w_min: float, epsilon: float
) -> BoundReport:
    """Leading-order gap between the plug-in clustering error and the
    minimum achievable error when parameters are known to accuracy
    epsilon (means within eps*|mu1-mu2|, variances within eps*|mu1-mu2|^2,
    weight within eps)."""
    if gamma <= 0.0 or gamma_max <= 0.0:
        raise DomainError("gamma and gamma_max must be positive")
    if not 0.0 < w_min <= 0.5:
        raise DomainError("w_min must lie in (0, 0.5]")
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    log_odds = math.log((1.0 - w_min) / w_min)
    gate = (16.0 * gamma_max**2 + 8.0 * gamma_max * log_odds
            + 2.0 * gamma_max * epsilon) * epsilon
    if gate >= 0.5:
        raise DomainError(
            "requires (16*gamma_max^2 + 8*gamma_max*ln((1-w_min)/w_min)"
            f" + 2*gamma_max*eps)*eps < 1/2, got {gate:.4g}"
        )
    coeff = (
        2.0 * gamma
        + 1.0 / (w_min * gamma)
        + (1.0 / gamma + 2.0 * gamma) * log_odds
        + 8.0 * gamma_max**2 / gamma
        + 2.0 * gamma * (4.0 * gamma + 2.0 * log_odds) ** 2
    )
    value = coeff * epsilon + q_function(1.0 / (4.0 * gamma * epsilon))
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

