"""Estimation of two-component 1-D Gaussian mixtures and their Bayes rules.

Two estimators are provided and usually chained:

* ``fit_mom_from_moments`` solves the equal-variance four-moment system.
  Writing the mixture as w*N(mu1, s^2) + (1-w)*N(mu2, s^2) with
  lam = w*(1-w) and v = lam*(mu2-mu1)^2 (the product of the centred
  means), matching the first four central moments reduces, after
  Pearson-style elimination, to the depressed cubic

      2*v^3 + (M4 - 3*M2^2)*v - M3^2 = 0.

  Its coefficients change sign once, so by Descartes' rule at most one
  root is positive, and only the largest real root can be.  That root is
  taken in closed form (Viete's trigonometric form when there are three
  real roots, else Cardano's formula) and finished by two Newton steps.
  A positive root yields an admissible lam in (0, 1/4]; if there is none
  the fit falls back to a single Gaussian.

* ``fit_em`` runs two-component EM (unequal variances allowed) from a given
  initialiser on a histogram of the samples: one pass bins them into
  ``EM_BINS`` equal-width bins over [min, max], and EM maximises the
  binned likelihood of the non-empty bins (McLachlan & Jones 1988), so
  each step costs at most ``EM_BINS`` terms whatever n is.  Sheppard's
  correction h^2/12 widens each component variance in the count-weighted
  E-step and comes off again in the M-step.  SQUAREM cycles (Varadhan &
  Roland 2008) find the basin, and safeguarded Newton-Raphson steps on the
  binned log-likelihood finish the fit (Aitkin & Aitkin 1996); ``fit_em``
  states the rules, and what its ``iterations`` count.

``fit_mixture``, the scan's entry point, is the one place where samples
are normalised: it fits in unit coordinates (centred on the mean, divided
by the RMS spread) and maps the fit back.  The learners alone floor their
fits, with constants: sigmas at ``SIGMA_FLOOR_REL``, 1e-9 of the spread
in unit coordinates, and weights into [``W_FLOOR``, 1 - ``W_FLOOR``], which
keeps thresholds and errors finite.  ``fit_mom(x)`` is
``fit_mixture(x, "mom")``; ``fit_mom_from_moments`` and ``fit_em`` called
directly work, and floor, in the units they are given.  ``fit_mom`` and
``central_moments`` stay public because ``perfbench``'s tracer wraps them,
with ``fit_mom_from_moments``, by name.

The Bayes rule of a known mixture is its ``bayes_thresholds``, a single
one when the variances agree and otherwise the (up to) two real roots of
the density equality condition, plus ``bayes_orientation``, the component
it labels above or between them.  ``rule_error`` scores any threshold
rule from upper tails alone, so a small error keeps its relative accuracy
deep in the tails, and ``bayes_error`` is the ``rule_error`` of the Bayes
rule whose thresholds it is given, with no fallback when there are none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientSampleError, NoBoundaryError
from .mathkit import q_function
from .model import Mixture1D

# Learner names accepted by ``fit_mixture`` and ``ClusterConfig``.
LEARNERS = ("mom", "em", "mom+em")
MOM_MIN_SAMPLES = 16
EM_MAX_ITER = 200
EM_TOL = 1e-8
# Equal-width bins of the histogram that ``fit_em`` fits.
EM_BINS = 512
# The floors of every fit (see the module docstring).
SIGMA_FLOOR_REL = 1e-9
W_FLOOR = 1e-4

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
    unit its RMS spread about loc (|loc|, or 1, when the spread is 0).
    Raises ``DomainError`` unless the mean and the RMS spread are finite;
    finite samples whose sum of squares overflows fail too."""
    with np.errstate(over="ignore", invalid="ignore"):
        loc = float(x.sum() / x.size)
        z = x - loc
        unit = math.sqrt(float(np.dot(z, z)) / x.size) or abs(loc) or 1.0
    if not (math.isfinite(loc) and math.isfinite(unit)):
        raise DomainError("samples and their mean must be finite, and their RMS "
                          f"spread a finite float; got mean {loc}, RMS spread {unit}")
    z /= unit
    return z, loc, unit


def _unit_moments(z: np.ndarray) -> np.ndarray:
    """[0, M2, M3, M4] of a sample centred by ``_unit_coordinates``; its
    mean is 0 up to rounding, so powers are taken about 0."""
    power = z * z
    out = [0.0, float(power.sum() / z.size)]
    for _ in range(3, 5):
        power *= z
        out.append(float(power.sum() / z.size))
    return np.array(out)


def central_moments(samples: np.ndarray) -> np.ndarray:
    """Mean followed by central moments of order 2..4."""
    z, loc, unit = _unit_coordinates(np.asarray(samples, dtype=float).ravel())
    moments = _unit_moments(z) * unit ** np.arange(1, 5)
    moments[0] = loc
    return moments


def fit_mom(samples: np.ndarray) -> FitReport:
    """Equal-variance method-of-moments fit of at least ``MOM_MIN_SAMPLES``
    observations: ``fit_mixture(samples, "mom")``."""
    return fit_mixture(samples, "mom")


def fit_mom_from_moments(moments: np.ndarray, n: int) -> FitReport:
    """Solve the moment system given [mean, M2, M3, M4] of n samples;
    further entries are ignored.  Below the finite-sample noise gate on
    the third and fourth cumulants, which n sets, the fit is one Gaussian.
    """
    moments = np.asarray(moments, dtype=float).ravel()
    if moments.size < 4:
        raise DomainError("need at least mean and central moments 2..4")
    mean, m2, m3, m4 = moments[:4].tolist()
    if m2 <= 0.0:
        return _single_gaussian_report(mean, 0.0)
    s = math.sqrt(m2)

    # Standardise so the cubic is solved in O(1)-sized quantities.
    m3s = m3 / s**3
    kurt = m4 / s**4 - 3.0

    gate_skew = _CUMULANT_GATE * math.sqrt(6.0 / n)
    gate_kurt = _CUMULANT_GATE * math.sqrt(24.0 / n)
    if abs(m3s) < gate_skew and abs(kurt) < gate_kurt:
        return _single_gaussian_report(mean, s)

    v = _largest_cubic_root(0.5 * kurt, -0.5 * (m3s * m3s))
    denom = kurt + 6.0 * v * v
    if v <= 1e-10 or denom <= 0.0:
        return _single_gaussian_report(mean, s)
    lam = min(v * v / denom, 0.25)

    disc = math.sqrt(max(0.0, 1.0 - 4.0 * lam))
    if m3s > 0.0:
        w = 0.5 * (1.0 + disc)
    elif m3s < 0.0:
        w = 0.5 * (1.0 - disc)
    else:
        w = 0.5
    delta = math.sqrt(v / lam)
    var_within = max(1.0 - v, 0.0)

    mu1 = mean + s * (-(1.0 - w) * delta)
    mu2 = mean + s * (w * delta)
    sigma = s * max(math.sqrt(var_within), SIGMA_FLOOR_REL)
    fitted = Mixture1D(mu1, mu2, sigma, sigma, min(max(w, W_FLOOR), 1.0 - W_FLOOR))
    return FitReport(fitted=fitted, method="mom", iterations=0)


def _largest_cubic_root(p: float, q: float) -> float:
    """Largest real root of t^3 + p*t + q, finished by two Newton steps:
    Viete's k = 0 term when there are three real roots, else Cardano's
    real root."""
    d = (0.5 * q) ** 2 + (p / 3.0) ** 3
    if d < 0.0:   # so p < 0
        r = 2.0 * math.sqrt(-p / 3.0)
        t = r * math.cos(math.acos(min(max(3.0 * q / (p * r), -1.0), 1.0)) / 3.0)
        return _newton_cubic(t, p, q)
    # u^3 and v^3 are the roots of z^2 + q*z - (p/3)^3, and u*v = -p/3;
    # u takes the one formed without cancellation.
    z = -0.5 * q - math.copysign(math.sqrt(d), q)
    u = math.copysign(abs(z) ** (1.0 / 3.0), z)
    v = -p / (3.0 * u) if u != 0.0 else 0.0
    return _newton_cubic(u + v, p, q)


def _newton_cubic(t: float, p: float, q: float) -> float:
    for _ in range(2):
        slope = 3.0 * t * t + p
        if slope != 0.0:
            t -= ((t * t + p) * t + q) / slope
    return t


def _single_gaussian_report(mean: float, s: float) -> FitReport:
    sigma = max(s, SIGMA_FLOOR_REL)
    fitted = Mixture1D(mean, mean, sigma, sigma, 0.5)
    return FitReport(fitted=fitted, method="mom", iterations=0)


class _Histogram(NamedTuple):
    """The non-empty bins of a sample: centres c, counts m, Sheppard's
    variance h^2/12 of the width h, the sample size n = sum(m) and the
    count-weighted sum of the centres."""

    c: np.ndarray
    m: np.ndarray
    sheppard: float
    n: float
    sum_c: float


def _histogram(x: np.ndarray) -> _Histogram:
    """``EM_BINS`` equal-width bins over [min x, max x], the top one closed,
    with the empty ones dropped; a constant sample is one bin of width 0.
    Bin j holds the x with floor((x - min) * EM_BINS / (max - min)) = j.
    Non-finite samples raise ``DomainError``."""
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("EM needs finite samples")
    h = (hi - lo) / EM_BINS
    if h == 0.0:
        c, m = np.array([lo]), np.array([float(x.size)])
    else:
        index = np.subtract(x, lo)
        index *= EM_BINS / (hi - lo)
        counts = np.bincount(index.astype(np.intp), minlength=EM_BINS + 1)
        counts[EM_BINS - 1] += counts[EM_BINS]   # x = max closes the top bin
        j = np.flatnonzero(counts[:EM_BINS])
        c, m = lo + (j + 0.5) * h, counts[j].astype(float)
    return _Histogram(c, m, h * h / 12.0, float(x.size), float(np.dot(m, c)))


def _e_step(hist: _Histogram, buf: tuple, theta: tuple) -> float:
    """Count-weighted E-step at theta = (mu1, mu2, s1, s2, w), whose squares
    (c - mu_k)^2 sit in buf[0], buf[1]: with Sheppard's variances
    v_k = s_k^2 + h^2/12 they become lp_k = ln(w_k*phi(c; mu_k, v_k)), and
    buf[2] ln p(c) = ln(exp(lp1) + exp(lp2)), never below either.  Returns
    sum_j m_j ln p(c_j)."""
    q1, q2, tot = buf
    _, _, s1, s2, w = theta
    v1, v2 = s1 * s1 + hist.sheppard, s2 * s2 + hist.sheppard
    q1 *= -0.5 / v1
    q1 += math.log(w) - 0.5 * math.log(v1)
    q2 *= -0.5 / v2
    q2 += math.log(1.0 - w) - 0.5 * math.log(v2)
    np.logaddexp(q1, q2, out=tot)
    return float(np.dot(hist.m, tot)) - 0.5 * hist.n * math.log(2.0 * math.pi)


def _m_step(hist: _Histogram, buf: tuple) -> tuple | None:
    """M-step after ``_e_step`` on buf: r1 = exp(lp1 - ln p), whose exp
    argument is never positive, weighted by the counts, then the new theta,
    with its squares left in buf[0], buf[1]; None if a component empties.
    Each variance sheds Sheppard's h^2/12 before the sigma floor."""
    q1, q2, r1 = buf
    np.subtract(q1, r1, out=r1)
    np.exp(r1, out=r1)
    r1 *= hist.m
    n1 = float(r1.sum())
    n2 = hist.n - n1
    if n1 <= 0.0 or n2 <= 0.0:
        return None
    r1c = float(np.dot(r1, hist.c))
    mu1, mu2 = r1c / n1, (hist.sum_c - r1c) / n2
    _squares(hist.c, (mu1, mu2), buf)
    var1 = float(np.dot(r1, q1)) / n1
    var2 = float(np.dot(hist.m, q2) - np.dot(r1, q2)) / n2
    s1 = max(math.sqrt(max(var1 - hist.sheppard, 0.0)), SIGMA_FLOOR_REL)
    s2 = max(math.sqrt(max(var2 - hist.sheppard, 0.0)), SIGMA_FLOOR_REL)
    return mu1, mu2, s1, s2, min(max(n1 / hist.n, W_FLOOR), 1.0 - W_FLOOR)


def _squares(c: np.ndarray, theta: tuple, buf: tuple) -> None:
    np.square(np.subtract(c, theta[0], out=buf[0]), out=buf[0])
    np.square(np.subtract(c, theta[1], out=buf[1]), out=buf[1])


def _u(theta: tuple) -> tuple:
    """u = (mu1, mu2, ln s1, ln s2, logit w), the coordinates of the
    extrapolation and of the Newton step."""
    mu1, mu2, s1, s2, w = theta
    return mu1, mu2, math.log(s1), math.log(s2), math.log(w / (1.0 - w))


def _theta(u) -> tuple:
    """theta from u, with the sigma and weight floors."""
    mu1, mu2, l1, l2, t = u
    # exp overflows past ln s = 709.8; the likelihood check rejects such a point.
    s1, s2 = (max(math.exp(min(ln, 700.0)), SIGMA_FLOOR_REL) for ln in (l1, l2))
    w = min(max(0.5 + 0.5 * math.tanh(0.5 * t), W_FLOOR), 1.0 - W_FLOOR)
    return mu1, mu2, s1, s2, w


def _squarem_point(t0: tuple, t1: tuple, t2: tuple) -> tuple:
    """Floored SqS3 point u0 - 2a*r + a^2*v, a = min(-|r|/|v|, -1), from EM
    steps t1 = F(t0), t2 = F(t1) in u."""
    u0, u1, u2 = _u(t0), _u(t1), _u(t2)
    r = [p1 - p0 for p0, p1 in zip(u0, u1)]
    v = [p2 - p1 - d for p1, p2, d in zip(u1, u2, r)]
    vn = math.hypot(*v)
    a = min(-math.hypot(*r) / vn, -1.0) if vn > 0.0 else -1.0
    return _theta([p0 - 2.0 * a * d + a * a * e for p0, d, e in zip(u0, r, v)])


def _gradient_hessian(hist: _Histogram, rows: np.ndarray, theta: tuple) -> tuple:
    """Gradient and Hessian in u of ll = sum_j m_j ln p(c_j) at theta, from
    the rows phi = (1, c, lp1, lp2) and ln p that ``_e_step`` on rows[2:] left.

    With l_k = lp_k = ln(w_k*phi(c; mu_k, v_k)), v_k = s_k^2 + h^2/12 and
    r = exp(lp1 - ln p), the gradient is sum m[r*dl1 + (1-r)*dl2] and the
    Hessian sum m[r*ddl1 + (1-r)*ddl2 + r(1-r)*d d^T], d = dl1 - dl2.  Each
    entry of dl_k, and so of d, is affine in phi, because
    (c - mu_k)^2 / v_k = 2(ln w_k - ln(v_k)/2 - lp_k): d = T phi for a 5x4
    matrix T.  So one product of phi with the weight rows m*r, m*(1-r) and
    m*r(1-r)*phi gives every sum over the bins."""
    mu1, mu2, s1, s2, w = theta
    v1, v2 = s1 * s1 + hist.sheppard, s2 * s2 + hist.sheppard
    rho1, rho2 = s1 * s1 / v1, s2 * s2 / v2   # d ln v_k / d ln s_k, halved
    k1 = 2.0 * (math.log(w) - 0.5 * math.log(v1)) - 1.0
    k2 = 2.0 * (math.log(1.0 - w) - 0.5 * math.log(v2)) - 1.0
    phi = rows[:4]
    r = np.exp(rows[2] - rows[4])
    x = np.empty((6, r.size))
    np.multiply(hist.m, r, out=x[0])
    np.subtract(hist.m, x[0], out=x[1])
    np.multiply(x[0], 1.0 - r, out=x[2])
    np.multiply(phi[1:], x[2], out=x[3:])
    # Rows of T: d l1/d mu1, -d l2/d mu2, d l1/d ln s1, -d l2/d ln s2, and
    # d(l1 - l2)/d logit w = 1, each as coefficients on (1, c, lp1, lp2).
    t = np.array([[-mu1 / v1, 1.0 / v1, 0.0, 0.0],
                  [mu2 / v2, -1.0 / v2, 0.0, 0.0],
                  [rho1 * k1, 0.0, -2.0 * rho1, 0.0],
                  [-rho2 * k2, 0.0, 0.0, 2.0 * rho2],
                  [1.0, 0.0, 0.0, 0.0]])
    sums = t @ np.dot(phi, x.T)
    hess = sums[:, 2:] @ t.T
    n1, n2 = float(sums[4, 0]), float(sums[4, 1])
    g = [float(sums[0, 0]), -float(sums[1, 1]), float(sums[2, 0]),
         -float(sums[3, 1]), n1 - w * hist.n]
    # The second derivatives of l1 and l2 themselves, weighted.
    hess[0, 0] -= n1 / v1
    hess[1, 1] -= n2 / v2
    hess[0, 2] -= 2.0 * rho1 * g[0]
    hess[2, 0] -= 2.0 * rho1 * g[0]
    hess[1, 3] -= 2.0 * rho2 * g[1]
    hess[3, 1] -= 2.0 * rho2 * g[1]
    hess[2, 2] += 2.0 * (1.0 - 2.0 * rho1) * g[2] - 2.0 * rho1 * rho1 * n1
    hess[3, 3] += 2.0 * (1.0 - 2.0 * rho2) * g[3] - 2.0 * rho2 * rho2 * n2
    hess[4, 4] -= w * (1.0 - w) * hist.n
    return g, hess


def _newton_step(g: list, hess: np.ndarray) -> tuple | None:
    """(step, predicted gain) with step = (-H)^-1 g and gain g^T step / 2;
    None unless -H is positive definite (its Cholesky factorisation
    succeeds) and the gain is finite."""
    neg = -hess
    try:
        np.linalg.cholesky(neg)
        step = np.linalg.solve(neg, g)
    except np.linalg.LinAlgError:
        return None
    gain = 0.5 * float(np.dot(g, step))
    return (step.tolist(), gain) if math.isfinite(gain) else None


def fit_em(samples: np.ndarray, init: Mixture1D) -> FitReport:
    """Two-component EM from ``init`` on a histogram of ``samples``: the
    MLE of the binned likelihood (McLachlan & Jones 1988, Biometrics
    44:571-578).  ``EM_BINS`` equal-width bins of width h span [min, max];
    the non-empty ones enter as centres c_j with counts m_j, so one pass
    reads the samples and each pass of the fit costs at most ``EM_BINS``
    terms.  The E-step widens each component variance by Sheppard's
    correction h^2/12, and the M-step takes it off the count-weighted
    variance again before flooring the sigmas at ``SIGMA_FLOOR_REL`` in the
    units of ``samples``.  ``loglik_trace`` holds sum_j m_j ln p(c_j) under
    those widened variances: the binned log-likelihood sum_j m_j ln P(bin j)
    less n*ln(h), up to terms of order h^4.

    The fit is a hybrid of EM and Newton-Raphson (Aitkin & Aitkin 1996,
    Stat. Comput. 6:127-130).  SQUAREM cycles (SqS3, Varadhan & Roland
    2008, Scand. J. Stat. 35:335-353) are its global phase: every two EM
    steps t1 = F(t0), t2 = F(t1) are extrapolated, and the extrapolated
    point's E-step runs in spare buffers.  Its M-step follows only if the
    log-likelihood there is finite and at least that at t1; else the fit
    goes on from t2.  At a cycle boundary the fit tries a Newton step on
    the log-likelihood in u = (mu1, mu2, ln s1, ln s2, logit w), from the
    gradient and Hessian that ``_gradient_hessian`` builds out of the
    E-step's buffers.  The step is taken only when -H is positive definite
    and the step, halved at most 3 times, does not lower the
    log-likelihood; after a taken step the fit tries again at once, and
    after the k-th failed attempt it first runs 2^(k-1) SQUAREM cycles.
    So ``loglik_trace``, over the accepted points, never drops.

    The fit stops when an attempt finds -H positive definite with a
    predicted gain g^T (-H)^-1 g / 2 of at most ``EM_TOL`` * |ll|, or when a
    step, EM or Newton, gains at most ``EM_TOL`` relative from its input to
    its image; it returns the EM image of the last point.  ``iterations``
    counts passes over the bins: E-steps (EM maps, extrapolated points and
    Newton trial points) and gradient-Hessian builds, never above
    ``EM_MAX_ITER``; ``capped`` is True exactly when ``EM_MAX_ITER`` of them
    ran without convergence."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    hist = _histogram(x)

    s1, s2 = max(init.sigma1, SIGMA_FLOOR_REL), max(init.sigma2, SIGMA_FLOOR_REL)
    w = min(max(float(init.w), W_FLOOR), 1.0 - W_FLOOR)
    theta = (float(init.mu1), float(init.mu2), s1, s2, w)
    # Rows (1, c, lp1, lp2, ln p) at theta; the E-step works in rows[2:], and
    # a trial point's squares and E-step go to the spare rows.
    rows = np.empty((5, hist.c.size))
    rows[0], rows[1] = 1.0, hist.c
    spare = rows.copy()
    _squares(hist.c, theta, rows[2:])

    trace, chain = [], [theta]
    ll = None        # log-likelihood at theta once its E-step has run
    ll_prev = None   # log-likelihood at the point theta was mapped from
    iterations, capped = 0, False
    cycles, failures, next_try = 0, 0, 0
    while iterations < EM_MAX_ITER:
        if ll is None:
            ll = _e_step(hist, rows[2:], theta)
            iterations += 1
            trace.append(ll)
        converged = False
        if len(chain) == 1 and cycles >= next_try and iterations < EM_MAX_ITER:
            newton = _newton_step(*_gradient_hessian(hist, rows, theta))
            iterations += 1
            taken = False
            if newton is not None:
                step, gain = newton
                converged = gain <= EM_TOL * (abs(ll) + 1e-12)
                u = _u(theta)
                # The full step, then halved at most 3 times, while passes remain.
                for half in range(0 if converged else min(4, EM_MAX_ITER - iterations)):
                    point = _theta([p + d * 0.5 ** half for p, d in zip(u, step)])
                    _squares(hist.c, point, spare[2:])
                    ll_x = _e_step(hist, spare[2:], point)
                    iterations += 1
                    if math.isfinite(ll_x) and ll_x >= ll:
                        trace.append(ll_x)
                        converged = ll_x - ll <= EM_TOL * (abs(ll) + 1e-12)
                        theta, ll, ll_prev, chain = point, ll_x, None, [point]
                        rows, spare = spare, rows
                        taken = True
                        break
            if not converged:
                if taken:
                    continue   # and try again from the new point
                failures += 1
                next_try = cycles + 2 ** (failures - 1)
        image = _m_step(hist, rows[2:])
        if image is None:
            break
        converged = converged or (
            ll_prev is not None and ll - ll_prev <= EM_TOL * (abs(ll_prev) + 1e-12))
        theta, ll_prev, ll = image, ll, None
        if converged:
            break
        chain.append(theta)
        if len(chain) == 3 and iterations < EM_MAX_ITER:
            point = _squarem_point(*chain)
            _squares(hist.c, point, spare[2:])
            ll_x = _e_step(hist, spare[2:], point)
            iterations += 1
            if math.isfinite(ll_x) and ll_x >= ll_prev:
                image = _m_step(hist, spare[2:])
                if image is not None:
                    trace.append(ll_x)
                    theta, ll_prev = image, ll_x
                    rows, spare = spare, rows
            chain = [theta]
            cycles += 1
    else:
        capped = True

    mu1, mu2, s1, s2, w = theta
    if mu1 > mu2:
        mu1, mu2, s1, s2, w = mu2, mu1, s2, s1, 1.0 - w
    return FitReport(
        fitted=Mixture1D(mu1, mu2, s1, s2, w), method="em",
        iterations=iterations, loglik_trace=np.array(trace), capped=capped,
    )


def fit_mixture(samples: np.ndarray, method: str) -> FitReport:
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
    if method not in LEARNERS:
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
        # Identical components (a single-Gaussian fallback) are EM's fixed point.
        if method == "mom+em" and report.fitted.mu1 != report.fitted.mu2:
            report = fit_em(z, report.fitted)
    f = report.fitted
    trace = report.loglik_trace
    if trace is not None:
        trace -= z.size * math.log(unit)
    return FitReport(
        fitted=Mixture1D(loc + unit * f.mu1, loc + unit * f.mu2,
                         unit * f.sigma1, unit * f.sigma2, f.w),
        method=method, iterations=report.iterations, loglik_trace=trace,
        capped=report.capped,
    )


# ---------------------------------------------------------------------------
# Bayes rule of a known 1-D mixture
# ---------------------------------------------------------------------------

def bayes_thresholds(mix: Mixture1D) -> np.ndarray:
    """Decision threshold(s) where the weighted densities are equal.

    Equal sigmas give the single point

        t = (mu1 + mu2)/2 - sigma^2/(mu1 - mu2) * ln(w/(1-w));

    otherwise the two real roots of the density-equality quadratic in
    t - mu1, sorted ascending, from the cancellation-free form
    q = -(b + sign(b) sqrt(b^2 - 4ac))/2 with roots q/a and c/q.
    """
    scale = max(abs(mix.mu1), abs(mix.mu2), mix.sigma1, mix.sigma2)
    delta = mix.mu2 - mix.mu1
    if abs(mix.sigma1 - mix.sigma2) <= _EQUAL_SIGMA_RTOL * max(mix.sigma1, mix.sigma2):
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
    return np.sort(np.array(roots) + mix.mu1)


def bayes_orientation(mix: Mixture1D, thresholds: np.ndarray) -> int:
    """The component (0 or 1) that the Bayes rule labels above a single
    threshold, the one with the larger mean, or between two thresholds,
    the narrower one."""
    if len(thresholds) == 1:
        return 0 if mix.mu1 > mix.mu2 else 1
    return 0 if mix.sigma1 <= mix.sigma2 else 1


def bayes_error(mix: Mixture1D, thresholds: np.ndarray) -> float:
    """Misclassification probability, in [0, 0.5], of the mixture's Bayes
    rule: the ``rule_error`` of its ``bayes_thresholds``, which the caller
    passes, with the orientation of ``bayes_orientation``.  There is no
    fallback for a mixture without a boundary; the scan scores it itself.
    """
    err = rule_error(mix, thresholds, bayes_orientation(mix, thresholds))
    return float(min(max(err, 0.0), 0.5))


def rule_error(mix: Mixture1D, thresholds: np.ndarray, orientation: int) -> float:
    """Probability that the threshold rule mislabels a draw from ``mix``.

    The rule gives label ``orientation`` (0 for the component of mu1, 1
    for that of mu2) above a single threshold, or between two, and the
    other label elsewhere.  Each mislabelled mass is a sum or difference
    of upper tails Q, taken on the side where they are small, so small
    masses keep their relative accuracy.
    """
    err = 0.0
    for label, (mu, sigma, weight) in enumerate(
            ((mix.mu1, mix.sigma1, mix.w), (mix.mu2, mix.sigma2, 1.0 - mix.w))):
        lo = (thresholds[0] - mu) / sigma
        hi = (thresholds[1] - mu) / sigma if len(thresholds) == 2 else None
        if label == orientation:    # the mass outside the rule's region
            mass = q_function(-lo) + (0.0 if hi is None else q_function(hi))
        elif hi is None:
            mass = q_function(lo)
        elif lo + hi >= 0.0:        # the interval's mass, from its smaller tails
            mass = q_function(lo) - q_function(hi)
        else:
            mass = q_function(-hi) - q_function(-lo)
        err += weight * mass
    return err
