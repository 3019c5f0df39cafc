"""Estimation of two-component 1-D Gaussian mixtures and their Bayes rules.

Two estimators are provided and usually chained:

* ``fit_mom_from_moments`` solves the equal-variance four-moment system.
  Writing the mixture as w*N(mu1, s^2) + (1-w)*N(mu2, s^2) with
  lam = w*(1-w) and v = lam*(mu2-mu1)^2 (the product of the centred
  means), matching the first four central moments reduces, after
  Pearson-style elimination, to the depressed cubic

      2*v^3 + (M4 - 3*M2^2)*v - M3^2 = 0.

  Any positive root yields an admissible lam in (0, 1/4]; when several
  roots survive, the one whose implied fifth moment best matches the
  sample fifth moment wins (ties broken toward larger v).  If the system
  has no meaningful positive root the fit falls back to a single
  Gaussian.

* ``fit_em`` runs two-component EM (unequal variances allowed) from a given
  initialiser: an O(n) log-odds E-step on the squares carried from the
  M-step, SQUAREM extrapolation (Varadhan & Roland 2008) kept only when the
  log-likelihood does not drop, and a stop on a relative gain below ``tol``.

``fit_mixture``, the scan's entry point, is the one place where samples
are normalised: it fits in unit coordinates (centred on the mean, divided
by the RMS spread) and maps the fit back, so every floor inside the
learners is a constant.  ``fit_mom(x)`` is ``fit_mixture(x, "mom")``;
``fit_mom_from_moments`` and ``fit_em`` called directly work in the units
they are given.  ``fit_mom`` and ``central_moments`` stay public because
``perfbench``'s tracer wraps them, with ``fit_mom_from_moments``, by name.

The Bayes rule of a known mixture has a single threshold when the
variances agree and otherwise the (up to) two real roots of the density
equality condition; ``bayes_error`` integrates the misassigned mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InsufficientSampleError, NoBoundaryError
from .mathkit import q_function
from .model import SIGMA_FLOOR_REL, W_FLOOR, Mixture1D, clamped_mixture1d

MOM_MIN_SAMPLES = 16
EM_MAX_ITER = 200
EM_TOL = 1e-8

# Cumulants smaller than this many null standard errors are treated as
# noise: the moment system is then considered to have no real two-component
# solution and the fit falls back to a single Gaussian.
_CUMULANT_GATE = 4.0

_EQUAL_SIGMA_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fitted 1-D mixture plus how it was obtained."""

    fitted: Mixture1D
    method: str
    iterations: int
    loglik_trace: np.ndarray | None = None
    capped: bool = False


def _unit_coordinates(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(z, loc, unit)`` with z = (x - loc) / unit, loc the mean of x and
    unit its RMS spread about loc (|loc|, or 1, when the spread is 0)."""
    loc = float(np.mean(x))
    z = x - loc
    unit = math.sqrt(float(np.dot(z, z)) / x.size) or abs(loc) or 1.0
    z /= unit
    return z, loc, unit


def _unit_moments(z: np.ndarray) -> np.ndarray:
    """[0, M2, .., M6] of a sample centred by ``_unit_coordinates``; its
    mean is 0 up to rounding, so powers are taken about 0."""
    power = z * z
    out = [0.0, float(np.mean(power))]
    for _ in range(3, 7):
        power *= z
        out.append(float(np.mean(power)))
    return np.array(out)


def central_moments(samples: np.ndarray) -> np.ndarray:
    """Mean followed by central moments of order 2..6."""
    z, loc, unit = _unit_coordinates(np.asarray(samples, dtype=float).ravel())
    moments = _unit_moments(z) * unit ** np.arange(1, 7)
    moments[0] = loc
    return moments


def fit_mom(samples: np.ndarray) -> FitReport:
    """Equal-variance method-of-moments fit of at least ``MOM_MIN_SAMPLES``
    observations: ``fit_mixture(samples, "mom")``."""
    return fit_mixture(samples, "mom")


def fit_mom_from_moments(moments: np.ndarray, n: int | None = None) -> FitReport:
    """Solve the moment system given [mean, M2, M3, M4, (M5, M6)].

    ``n`` enables the finite-sample noise gate on the third and fourth
    cumulants; pass None when feeding exact population moments.
    """
    moments = np.asarray(moments, dtype=float).ravel()
    if moments.size < 4:
        raise DomainError("need at least mean and central moments 2..4")
    mean, m2, m3, m4 = moments[:4]
    m5 = float(moments[4]) if moments.size >= 5 else None
    if m2 <= 0.0:
        return _single_gaussian_report(mean, 0.0)
    s = math.sqrt(m2)

    # Standardise so the cubic is solved in O(1)-sized quantities.
    m3s = m3 / s**3
    m4s = m4 / s**4
    m5s = None if m5 is None else m5 / s**5
    kurt = m4s - 3.0
    skew_sq = m3s * m3s

    if n is not None:
        gate_skew = _CUMULANT_GATE * math.sqrt(6.0 / n)
        gate_kurt = _CUMULANT_GATE * math.sqrt(24.0 / n)
        if abs(m3s) < gate_skew and abs(kurt) < gate_kurt:
            return _single_gaussian_report(mean, s)

    roots = np.roots([2.0, 0.0, kurt, -skew_sq])
    candidates = []
    for root in roots:
        if abs(root.imag) > 1e-8 * (1.0 + abs(root.real)):
            continue
        v = float(root.real)
        if v <= 1e-10:
            continue
        denom = kurt + 6.0 * v * v
        if denom <= 0.0:
            continue
        lam = min(v * v / denom, 0.25)
        if lam <= 0.0:
            continue
        candidates.append((v, lam))
    if not candidates:
        return _single_gaussian_report(mean, s)

    scored = []
    for v, lam in candidates:
        disc = math.sqrt(max(0.0, 1.0 - 4.0 * lam))
        if m3s > 0.0:
            w = 0.5 * (1.0 + disc)
        elif m3s < 0.0:
            w = 0.5 * (1.0 - disc)
        else:
            w = 0.5
        delta = math.sqrt(v / lam)
        var_within = max(1.0 - v, 0.0)
        if m5s is None:
            score = 0.0
        else:
            model_m3 = lam * (2.0 * w - 1.0) * delta**3
            model_m5 = (
                lam * (2.0 * w - 1.0) * delta**5 * (1.0 - 2.0 * lam)
                + 10.0 * var_within * model_m3
            )
            score = abs(model_m5 - m5s)
        scored.append((score, -v, v, lam, w, delta, var_within))
    scored.sort()
    _, _, v, lam, w, delta, var_within = scored[0]

    mu1 = mean + s * (-(1.0 - w) * delta)
    mu2 = mean + s * (w * delta)
    sigma = s * math.sqrt(max(var_within, 1e-18))
    fitted = clamped_mixture1d(mu1, mu2, sigma, sigma, w)
    return FitReport(fitted=fitted, method="mom", iterations=0)


def _single_gaussian_report(mean: float, s: float) -> FitReport:
    sigma = max(s, SIGMA_FLOOR_REL)
    fitted = clamped_mixture1d(mean, mean, sigma, sigma, 0.5)
    return FitReport(fitted=fitted, method="mom", iterations=0)


def _em_map(x: np.ndarray, sum_x: float, buf: tuple, theta: tuple) -> tuple:
    """One EM step from theta = (mu1, mu2, s1, s2, w), whose squares
    (x - mu_k)^2 in buf[0], buf[1] become lp_k = ln(w_k*phi_k(x)), then the
    new squares: (ll at theta, new theta or None if a component empties).
    With d = lp1 - lp2 and L = ln(1 + exp(-|d|)), ln p(x) = max(lp1, lp2) + L
    and r1 = exp(min(d, 0) - L), so no exp argument is positive."""
    q1, q2, hi, lse = buf
    mu1, mu2, s1, s2, w = theta
    q1 *= -0.5 / (s1 * s1)
    q1 += math.log(w) - math.log(s1)
    q2 *= -0.5 / (s2 * s2)
    q2 += math.log(1.0 - w) - math.log(s2)
    np.maximum(q1, q2, out=hi)
    np.subtract(np.minimum(q1, q2, out=lse), hi, out=lse)
    np.log1p(np.exp(lse, out=lse), out=lse)
    ll = float(np.sum(hi) + np.sum(lse)) - 0.5 * x.size * math.log(2.0 * math.pi)
    np.subtract(q1, hi, out=hi)
    hi -= lse
    r1 = np.exp(hi, out=hi)
    n1 = float(np.sum(r1))
    n2 = x.size - n1
    if n1 <= 0.0 or n2 <= 0.0:
        return ll, None
    r1x = float(np.dot(r1, x))
    mu1, mu2 = r1x / n1, (sum_x - r1x) / n2
    _squares(x, (mu1, mu2), buf)
    var2 = float(np.sum(q2) - np.dot(r1, q2)) / n2
    s1 = max(math.sqrt(float(np.dot(r1, q1)) / n1), SIGMA_FLOOR_REL)
    s2 = max(math.sqrt(max(var2, 0.0)), SIGMA_FLOOR_REL)
    return ll, (mu1, mu2, s1, s2, min(max(n1 / x.size, W_FLOOR), 1.0 - W_FLOOR))


def _squares(x: np.ndarray, theta: tuple, buf: tuple) -> None:
    np.square(np.subtract(x, theta[0], out=buf[0]), out=buf[0])
    np.square(np.subtract(x, theta[1], out=buf[1]), out=buf[1])


def _squarem_point(t0: tuple, t1: tuple, t2: tuple) -> tuple:
    """Floored SqS3 point u0 - 2a*r + a^2*v, a = min(-|r|/|v|, -1), from EM
    steps t1 = F(t0), t2 = F(t1) in u = (mu1, mu2, ln s1, ln s2, logit w)."""
    u0, u1, u2 = (np.array([m1, m2, math.log(s1), math.log(s2), math.log(w / (1.0 - w))])
                  for m1, m2, s1, s2, w in (t0, t1, t2))
    r = u1 - u0
    v = u2 - u1 - r
    vn = float(np.linalg.norm(v))
    a = min(-float(np.linalg.norm(r)) / vn, -1.0) if vn > 0.0 else -1.0
    mu1, mu2, l1, l2, t = (u0 - 2.0 * a * r + a * a * v).tolist()
    # exp overflows past ln s = 709.8; the likelihood check rejects such a point.
    s1, s2 = (max(math.exp(min(ln, 700.0)), SIGMA_FLOOR_REL) for ln in (l1, l2))
    w = min(max(0.5 + 0.5 * math.tanh(0.5 * t), W_FLOOR), 1.0 - W_FLOOR)
    return mu1, mu2, s1, s2, w


def fit_em(
    samples: np.ndarray,
    init: Mixture1D,
    max_iter: int = EM_MAX_ITER,
    tol: float = EM_TOL,
) -> FitReport:
    """Two-component EM from ``init``, sigmas floored at ``SIGMA_FLOOR_REL``
    in the units of ``samples``, accelerated by SQUAREM (SqS3, Varadhan &
    Roland 2008, Scand. J. Stat. 35:335-353): every two EM steps t1 = F(t0),
    t2 = F(t1) are extrapolated and one EM step is taken from there, kept
    only if the log-likelihood at the extrapolated point is finite and at
    least that at t1 (else the fit goes on from t2), so ``loglik_trace``, over
    the accepted points, never drops.  It stops on a relative gain below
    ``tol`` from a step's input to its image.  ``iterations`` counts EM steps,
    rejected ones too, and ``capped`` is True exactly when ``max_iter`` steps
    ran without convergence."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    sum_x = float(np.sum(x))

    s1, s2 = max(init.sigma1, SIGMA_FLOOR_REL), max(init.sigma2, SIGMA_FLOOR_REL)
    w = min(max(float(init.w), W_FLOOR), 1.0 - W_FLOOR)
    theta = (float(init.mu1), float(init.mu2), s1, s2, w)
    buf = tuple(np.empty(x.size) for _ in range(4))
    _squares(x, theta, buf)

    trace, chain = [], [theta]
    ll_prev = None   # log-likelihood at the point theta was mapped from
    iterations, capped = 0, False
    while iterations < max_iter:
        ll, image = _em_map(x, sum_x, buf, theta)
        iterations += 1
        trace.append(ll)
        if image is None:
            break
        converged = ll_prev is not None and ll - ll_prev <= tol * (abs(ll_prev) + 1e-12)
        theta, ll_prev = image, ll
        if converged:
            break
        chain.append(theta)
        if len(chain) == 3 and iterations < max_iter:
            point = _squarem_point(*chain)
            _squares(x, point, buf)
            ll_x, image = _em_map(x, sum_x, buf, point)
            iterations += 1
            if image is not None and math.isfinite(ll_x) and ll_x >= ll_prev:
                trace.append(ll_x)
                theta, ll_prev = image, ll_x
            else:
                _squares(x, theta, buf)
            chain = [theta]
    else:
        capped = True

    mu1, mu2, s1, s2, w = theta
    if mu1 > mu2:
        mu1, mu2, s1, s2, w = mu2, mu1, s2, s1, 1.0 - w
    return FitReport(
        fitted=clamped_mixture1d(mu1, mu2, s1, s2, w), method="em",
        iterations=iterations, loglik_trace=np.array(trace), capped=capped,
    )


def fit_mixture(samples: np.ndarray, method: str = "mom+em") -> FitReport:
    """Fit with learner ``mom``, ``em`` or ``mom+em`` in unit coordinates.

    The samples are centred on their mean and divided by their RMS spread
    once; the learner fits those values with constant floors (``em``
    starts from their quartiles with sigma 0.5), and the fit is mapped
    back: mu -> loc + unit*mu, sigma -> unit*sigma, log-likelihoods less
    n*ln(unit).  Contract: for samples a*x + b with a > 0 the means map to
    a*mu + b and the sigmas to a*sigma, while w, the EM iteration count,
    the separability and the Bayes error stay the same, up to the rounding
    of the samples themselves.
    """
    if method not in ("mom", "em", "mom+em"):
        raise DomainError(f"unknown learner {method!r}")
    x = np.asarray(samples, dtype=float).ravel()
    min_n = 2 if method == "em" else MOM_MIN_SAMPLES
    if x.size < min_n:
        raise InsufficientSampleError(f"{method} needs n >= {min_n}, got {x.size}")
    z, loc, unit = _unit_coordinates(x)
    if method == "em":
        q25, q75 = np.quantile(z, [0.25, 0.75])
        if q75 <= q25:
            q25, q75 = q25 - 0.5, q25 + 0.5
        report = fit_em(z, Mixture1D(float(q25), float(q75), 0.5, 0.5, 0.5))
    else:
        report = fit_mom_from_moments(_unit_moments(z), n=z.size)
        if method == "mom+em":
            # Identical components (a single-Gaussian fallback) are EM's fixed point.
            if report.fitted.mu1 != report.fitted.mu2:
                report = fit_em(z, report.fitted)
            report = replace(report, method=method)
    f = report.fitted
    fitted = Mixture1D(
        loc + unit * f.mu1, loc + unit * f.mu2,
        unit * f.sigma1, unit * f.sigma2, f.w,
    )
    trace = report.loglik_trace
    if trace is not None:
        trace = trace - z.size * math.log(unit)
    return replace(report, fitted=fitted, loglik_trace=trace)


# ---------------------------------------------------------------------------
# Bayes rule of a known 1-D mixture
# ---------------------------------------------------------------------------

def _is_equal_sigma(mix: Mixture1D) -> bool:
    return abs(mix.sigma1 - mix.sigma2) <= _EQUAL_SIGMA_RTOL * max(
        mix.sigma1, mix.sigma2
    )


def _log_density_gap(mix: Mixture1D, t: float) -> float:
    """ln(w * phi1(t)) - ln((1-w) * phi2(t))."""
    s1 = 1.0 / mix.sigma1**2
    s2 = 1.0 / mix.sigma2**2
    return (
        math.log(mix.w / (1.0 - mix.w))
        + 0.5 * math.log(s1 / s2)
        - 0.5 * s1 * (t - mix.mu1) ** 2
        + 0.5 * s2 * (t - mix.mu2) ** 2
    )


def bayes_thresholds(mix: Mixture1D) -> np.ndarray:
    """Decision threshold(s) where the weighted densities are equal.

    Equal sigmas give the single point

        t = (mu1 + mu2)/2 - sigma^2/(mu1 - mu2) * ln(w/(1-w));

    otherwise the two real roots of the density-equality quadratic,
    sorted ascending and Newton-polished so the weighted densities match
    to ~1e-12 relative.
    """
    scale = max(abs(mix.mu1), abs(mix.mu2), mix.sigma1, mix.sigma2)
    delta = mix.mu2 - mix.mu1
    if _is_equal_sigma(mix):
        if abs(delta) <= 1e-15 * scale:
            raise NoBoundaryError("identical components have no threshold")
        sigma2 = mix.sigma1 * mix.sigma2
        t = 0.5 * (mix.mu1 + mix.mu2) - sigma2 / (mix.mu1 - mix.mu2) * math.log(
            mix.w / (1.0 - mix.w)
        )
        return np.array([t])

    s1 = 1.0 / mix.sigma1**2
    s2 = 1.0 / mix.sigma2**2
    a = s1 - s2
    b = 2.0 * delta * s2
    c = -(delta**2) * s2 + math.log(s2 / s1) - 2.0 * math.log(mix.w / (1.0 - mix.w))
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoBoundaryError("one component dominates everywhere")
    sqrt_disc = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sqrt_disc, b if b != 0.0 else 1.0))
    if q == 0.0:
        roots = [0.0, 0.0]
    else:
        roots = [q / a, c / q]
    ts = []
    for x in roots:
        t = x + mix.mu1
        for _ in range(3):
            g = _log_density_gap(mix, t)
            dg = -(t - mix.mu1) * s1 + (t - mix.mu2) * s2
            if dg == 0.0 or not math.isfinite(dg):
                break
            step = g / dg
            if not math.isfinite(step):
                break
            t -= step
        ts.append(t)
    return np.sort(np.array(ts))


def region_component_labels(mix: Mixture1D, thresholds: np.ndarray) -> np.ndarray:
    """Winning component (0 or 1) for each interval cut by the thresholds.

    One threshold: the component with the smaller mean wins below.  Two
    thresholds: the narrower component wins the middle interval.
    """
    thresholds = np.asarray(thresholds, dtype=float).ravel()
    if thresholds.size == 1:
        low = 0 if mix.mu1 <= mix.mu2 else 1
        return np.array([low, 1 - low])
    inner = 0 if mix.sigma1 <= mix.sigma2 else 1
    return np.array([1 - inner, inner, 1 - inner])


def bayes_error(mix: Mixture1D) -> float:
    """Misclassification probability of the mixture's own Bayes rule.

    Always in [0, 0.5]; degenerate mixtures without a decision boundary
    yield min(w, 1-w), the error of always guessing the majority label.
    """
    if mix.mu1 > mix.mu2:
        mix = mix.swapped()
    w = mix.w
    if _is_equal_sigma(mix):
        sigma = 0.5 * (mix.sigma1 + mix.sigma2)
        gamma = (mix.mu2 - mix.mu1) / (2.0 * sigma)
        if gamma <= 1e-12:
            return min(w, 1.0 - w)
        shift = math.log(w / (1.0 - w)) / (2.0 * gamma)
        err = w * q_function(gamma + shift) + (1.0 - w) * q_function(gamma - shift)
        return float(min(max(err, 0.0), 0.5))

    try:
        t1, t2 = bayes_thresholds(mix)
    except NoBoundaryError:
        return min(w, 1.0 - w)
    inner = 0 if mix.sigma1 <= mix.sigma2 else 1
    params = [(mix.mu1, mix.sigma1, w), (mix.mu2, mix.sigma2, 1.0 - w)]

    def mass_inside(mu, sigma):
        return q_function((t1 - mu) / sigma) - q_function((t2 - mu) / sigma)

    mu_in, sig_in, w_in = params[inner]
    mu_out, sig_out, w_out = params[1 - inner]
    err = w_in * (1.0 - mass_inside(mu_in, sig_in)) + w_out * mass_inside(
        mu_out, sig_out
    )
    return float(min(max(err, 0.0), 0.5))


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
