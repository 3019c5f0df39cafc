"""1-D mixture estimation and Bayes-rule tests with independent oracles."""

import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from projclust import learner1d
from projclust.clusterer import (ClusterConfig, classify_values, cluster_gmm,
                                 scan_directions)
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.errors import DomainError, InsufficientSampleError, NoBoundaryError
from projclust.learner1d import (
    EM_BINS,
    EM_MAX_ITER,
    EM_TOL,
    FitReport,
    _e_step,
    _gradient_hessian,
    _histogram,
    _largest_cubic_root,
    _m_step,
    _squarem_point,
    _squares,
    _unit_coordinates,
    _unit_moments,
    bayes_error,
    bayes_orientation,
    bayes_thresholds,
    central_moments,
    fit_em,
    fit_mixture,
    fit_mom,
    fit_mom_from_moments,
)
from projclust.mathkit import RngStream, q_function
from projclust.model import (SIGMA_FLOOR_REL, W_FLOOR, Dataset, Mixture1D,
                             clamped_mixture1d)
from projclust.projection import sample_direction, separability_1d


def _swapped(mix):
    """The same mixture with its component labels exchanged."""
    return Mixture1D(mix.mu2, mix.mu1, mix.sigma2, mix.sigma1, 1.0 - mix.w)


def mixture_population_moments(mu1, mu2, sigma, w, upto=6):
    """Oracle: exact central moments of w*N(mu1, s^2)+(1-w)*N(mu2, s^2),
    assembled from component noncentral normal moments."""
    mean = w * mu1 + (1 - w) * mu2
    out = [mean]
    # E[Z^k] for standard normal, k = 0..upto
    znorm = [1.0, 0.0]
    for k in range(2, upto + 1):
        znorm.append((k - 1) * znorm[k - 2])
    for k in range(2, upto + 1):
        total = 0.0
        for weight, mu in ((w, mu1), ((1 - w), mu2)):
            a = mu - mean
            comp = sum(
                math.comb(k, j) * znorm[j] * sigma**j * a ** (k - j)
                for j in range(0, k + 1)
            )
            total += weight * comp
        out.append(total)
    return np.array(out)


def sample_mixture(mu1, mu2, sigma1, sigma2, w, n, seed, stream=0):
    gen = RngStream(seed, stream).generator()
    take_first = gen.random(n) < w
    mus = np.where(take_first, mu1, mu2)
    sigs = np.where(take_first, sigma1, sigma2)
    return mus + sigs * gen.standard_normal(n)


class TestCentralMoments:
    def test_against_numpy(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(500)
        m = central_moments(x)
        assert m[0] == pytest.approx(float(np.mean(x)))
        assert m.size == 4
        d = x - np.mean(x)
        for k in range(2, 5):
            assert m[k - 1] == pytest.approx(float(np.mean(d**k)), rel=1e-12)


class TestFitMoM:
    def test_exact_population_moments_symmetric(self):
        moments = mixture_population_moments(0.0, 2.0, 1.0, 0.5)
        np.testing.assert_allclose(moments[:5], [1.0, 2.0, 0.0, 10.0, 0.0],
                                   atol=1e-12)
        fit = fit_mom_from_moments(moments, n=10**9).fitted
        assert fit.mu1 == pytest.approx(0.0, abs=1e-6)
        assert fit.mu2 == pytest.approx(2.0, abs=1e-6)
        assert fit.sigma1 == pytest.approx(1.0, abs=1e-6)
        assert fit.w == pytest.approx(0.5, abs=1e-6)

    def test_exact_population_moments_asymmetric(self):
        moments = mixture_population_moments(0.0, 4.0, 1.0, 0.3)
        np.testing.assert_allclose(
            moments[:5], [2.8, 4.36, -5.376, 43.0512, -103.64928], rtol=1e-12
        )
        fit = fit_mom_from_moments(moments, n=10**9).fitted
        assert fit.mu1 == pytest.approx(0.0, abs=1e-6)
        assert fit.mu2 == pytest.approx(4.0, abs=1e-6)
        assert fit.sigma1 == pytest.approx(1.0, abs=1e-6)
        assert fit.w == pytest.approx(0.3, abs=1e-6)

    def test_single_gaussian_collapses(self):
        x = RngStream(1, 0).generator().standard_normal(100_000)
        fit = fit_mom(x).fitted
        assert abs(fit.mu1 - fit.mu2) <= 0.1

    def test_sampled_recovery(self):
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.3, 100_000, seed=2)
        fit = fit_mom(x).fitted
        delta = 4.0
        assert abs(fit.mu1 - 0.0) <= 0.05 * delta
        assert abs(fit.mu2 - 4.0) <= 0.05 * delta
        assert abs(fit.sigma1**2 - 1.0) <= 0.05 * delta**2
        assert abs(fit.w - 0.3) <= 0.05

    def test_minimum_sample_size(self):
        with pytest.raises(InsufficientSampleError):
            fit_mom(np.zeros(15))

    def test_moment_match_is_exact_when_solved(self):
        # Whatever root the cubic picks, the first four moments must match.
        x = sample_mixture(0.0, 3.0, 1.0, 1.0, 0.4, 50_000, seed=3)
        report = fit_mom(x)
        f = report.fitted
        model = mixture_population_moments(f.mu1, f.mu2, f.sigma1, f.w)
        np.testing.assert_allclose(model[:4], central_moments(x)[:4], rtol=1e-8)

    def test_orientation(self):
        x = sample_mixture(0.0, 3.0, 1.0, 1.0, 0.7, 50_000, seed=4)
        f = fit_mom(x).fitted
        assert f.mu1 < f.mu2
        assert f.w == pytest.approx(0.7, abs=0.05)


def _np_roots(p, q):
    """Oracle: the companion-matrix roots of t^3 + p*t + q, a complex pair
    counted as real when its imaginary part is at most 1e-8 * (1 + |re|)."""
    return [float(r.real) for r in np.roots([1.0, 0.0, p, q])
            if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real))]


class TestClosedFormCubic:
    """``_largest_cubic_root`` against ``np.roots`` on the cubics the
    moment system poses, p = kurt/2 and q = -skew^2/2 <= 0: the largest
    real root, agreeing to 1e-13 relative."""

    def assert_largest(self, p, q):
        got = _largest_cubic_root(p, q)
        want = max(_np_roots(p, q))
        assert abs(got - want) <= 1e-13 * abs(want), (p, q, got, want)

    def test_random_moments(self):
        gen = RngStream(40, 0).generator()
        for _ in range(10_000):
            kurt = gen.uniform(-2.0, 30.0) * 10.0 ** gen.uniform(-6.0, 1.0)
            skew = gen.standard_normal() * 10.0 ** gen.uniform(-6.0, 1.5)
            p, q = 0.5 * kurt, -0.5 * skew * skew
            # At most one positive root (Descartes), so the largest is the
            # only one that ``fit_mom_from_moments`` could use.
            assert sum(v > 1e-10 for v in _np_roots(p, q)) <= 1, (p, q)
            self.assert_largest(p, q)

    @pytest.mark.parametrize("a", [-1.0, -1e-3, -37.0])
    @pytest.mark.parametrize("rel", [0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-5, -1e-5])
    def test_near_double_roots(self, a, rel):
        # (t - a)^2 (t + 2a) has the double root a < 0 and the simple
        # root -2a > 0; q moves the pair just apart, or just off the axis.
        self.assert_largest(-3.0 * a * a, 2.0 * a ** 3 * (1.0 + rel))

    @pytest.mark.parametrize("q", [-1.0, -1e-6, -1e3, -0.0, 0.0])
    def test_p_zero(self, q):
        assert _largest_cubic_root(0.0, q) == pytest.approx(
            (-q) ** (1.0 / 3.0), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [-3.0, -1e-6, -1e4, 2.0, 1e-6])
    def test_q_zero(self, p):
        assert _largest_cubic_root(p, 0.0) == pytest.approx(
            math.sqrt(max(-p, 0.0)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("roots", [(3.0, -1.0, -2.0), (1e-3, -4e-4, -6e-4),
                                       (50.0, -0.5, -49.5), (2.0, -0.9, -1.1)])
    def test_three_real_roots(self, roots):
        r1, r2, r3 = roots
        p, q = r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        assert len(_np_roots(p, q)) == 3
        assert _largest_cubic_root(p, q) == pytest.approx(max(roots), rel=1e-13)
        self.assert_largest(p, q)


class TestFitEM:
    def test_from_truth_stays_near_truth(self):
        truth = Mixture1D(0.0, 4.0, 1.0, 1.0, 0.5)   # gamma = 2
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 10_000, seed=5)
        fit = fit_em(x, truth).fitted
        delta = 4.0
        assert abs(fit.mu1 - 0.0) <= 0.05 * delta
        assert abs(fit.mu2 - 4.0) <= 0.05 * delta
        assert abs(fit.w - 0.5) <= 0.05

    def test_identical_samples_collapse(self):
        x = np.full(100, 5.0)
        init = Mixture1D(4.0, 6.0, 1.0, 1.0, 0.5)
        fit = fit_em(x, init).fitted
        floor = SIGMA_FLOOR_REL * 5.0
        assert fit.mu1 == pytest.approx(5.0)
        assert fit.mu2 == pytest.approx(5.0)
        assert fit.sigma1 == pytest.approx(floor)
        assert fit.sigma2 == pytest.approx(floor)

    def test_loglik_nondecreasing_from_mom_init(self):
        x = sample_mixture(0.0, 2.0, 1.0, 1.0, 0.5, 10_000, seed=6)   # gamma = 1
        mom = fit_mom(x)
        report = fit_em(x, mom.fitted)
        trace = report.loglik_trace
        assert trace is not None and trace.size >= 2
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * np.abs(trace[:-1]))

    def test_allows_unequal_sigmas(self):
        x = sample_mixture(0.0, 6.0, 1.0, 2.0, 0.5, 40_000, seed=7)
        init = Mixture1D(0.0, 6.0, 1.5, 1.5, 0.5)
        fit = fit_em(x, init).fitted
        assert fit.sigma1 == pytest.approx(1.0, abs=0.1)
        assert fit.sigma2 == pytest.approx(2.0, abs=0.2)

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientSampleError):
            fit_em(np.array([1.0]), Mixture1D(0.0, 1.0, 1.0, 1.0, 0.5))


def _reference_em(samples, init, max_iter=EM_MAX_ITER, tol=1e-8):
    """The log-sum-exp EM loop that ``fit_em`` replaced, restated on the
    count-weighted bins of ``_histogram``, with Sheppard's h^2/12 added to
    each variance in the E-step and taken off in the M-step: the reference
    its in-place kernel must match up to rounding."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    c, m, sheppard, n, _ = _histogram(x)
    sum_c = float(np.dot(m, c))

    mu = np.array([init.mu1, init.mu2])
    sig = np.maximum(np.array([init.sigma1, init.sigma2]), SIGMA_FLOOR_REL)
    w = float(np.clip(init.w, W_FLOOR, 1.0 - W_FLOOR))

    trace = []
    ll_prev = -np.inf
    iterations = 0
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    for iterations in range(1, max_iter + 1):
        sd = np.sqrt(sig * sig + sheppard)
        z1 = (c - mu[0]) / sd[0]
        z2 = (c - mu[1]) / sd[1]
        lp1 = math.log(w) - math.log(sd[0]) - half_log_2pi - 0.5 * z1 * z1
        lp2 = math.log(1.0 - w) - math.log(sd[1]) - half_log_2pi - 0.5 * z2 * z2
        hi = np.maximum(lp1, lp2)
        tot = hi + np.log(np.exp(lp1 - hi) + np.exp(lp2 - hi))
        ll = float(np.dot(m, tot))
        trace.append(ll)
        r1 = m * np.exp(lp1 - tot)

        n1 = float(np.sum(r1))
        n2 = n - n1
        if n1 <= 0.0 or n2 <= 0.0:
            break
        r1c = float(np.dot(r1, c))
        mu1 = r1c / n1
        mu2 = (sum_c - r1c) / n2
        d1 = c - mu1
        d2 = c - mu2
        var1 = float(np.dot(r1, d1 * d1)) / n1 - sheppard
        var2 = float(np.dot(m, d2 * d2) - np.dot(r1, d2 * d2)) / n2 - sheppard
        mu = np.array([mu1, mu2])
        sig = np.maximum(np.sqrt([max(var1, 0.0), max(var2, 0.0)]), SIGMA_FLOOR_REL)
        w = float(np.clip(n1 / n, W_FLOOR, 1.0 - W_FLOOR))

        if ll - ll_prev <= tol * (abs(ll_prev) + 1e-12) and iterations > 1:
            break
        ll_prev = ll

    if mu[0] <= mu[1]:
        fitted = clamped_mixture1d(mu[0], mu[1], sig[0], sig[1], w)
    else:
        fitted = clamped_mixture1d(mu[1], mu[0], sig[1], sig[0], 1.0 - w)
    return FitReport(
        fitted=fitted, method="em", iterations=iterations,
        loglik_trace=np.array(trace),
    )


def _mom_start(z):
    return fit_mom_from_moments(_unit_moments(z), n=z.size).fitted


def _quartile_start(z):
    q25, q75 = np.quantile(z, [0.25, 0.75])
    return Mixture1D(float(q25), float(q75), 0.5, 0.5, 0.5)


def _em_corpus():
    """(unit-coordinate sample, start) pairs: 60 spherical projections
    (p=100, c=1, 4 datasets x 15 directions) from their mom starts,
    single-Gaussian fallbacks included, and from the ``em`` learner's
    quartile start; one unequal-sigma sample; one sample whose upper
    component collapses onto a far outlier."""
    samples = []
    for seed in range(1, 5):
        data = sample_dataset(make_spherical_spec(100, 1.0), 2_000, RngStream(seed, 0))
        for k in range(1, 16):
            direction = sample_direction(100, RngStream(seed, k).generator())
            samples.append(_unit_coordinates(data.points @ direction)[0])
    samples.append(_unit_coordinates(
        sample_mixture(0.0, 6.0, 1.0, 2.0, 0.5, 4_000, seed=11))[0])
    corpus = [(z, start(z)) for z in samples for start in (_mom_start, _quartile_start)]
    outlier = np.append(RngStream(12, 0).generator().standard_normal(1_999), 1e8)
    z = _unit_coordinates(outlier)[0]
    return corpus + [(z, _mom_start(z))]


def _em_map(hist, buf, theta):
    """One EM step from theta, its squares in buf: (ll at theta, new theta
    or None if a component empties)."""
    ll = _e_step(hist, buf, theta)
    return ll, _m_step(hist, buf)


def _binned_loglik(hist, theta):
    """sum_j m_j ln p(c_j) at theta = (mu1, mu2, s1, s2, w) on the bins of
    ``_histogram``, unfloored: the log-likelihood that ``fit_em`` maximises."""
    buf = tuple(np.empty(hist.c.size) for _ in range(3))
    _squares(hist.c, theta, buf)
    return _e_step(hist, buf, theta)


def _plain_em(samples, init, max_iter=EM_MAX_ITER, tol=EM_TOL):
    """``_em_map`` run plainly on ``_histogram``'s bins, with ``fit_em``'s
    start, stopping rule and final ordering: plain EM in ``fit_em``'s
    arithmetic."""
    hist = _histogram(np.asarray(samples, dtype=float).ravel())
    theta = (init.mu1, init.mu2, max(init.sigma1, SIGMA_FLOOR_REL),
             max(init.sigma2, SIGMA_FLOOR_REL), min(max(init.w, W_FLOOR), 1.0 - W_FLOOR))
    buf = tuple(np.empty(hist.c.size) for _ in range(3))
    _squares(hist.c, theta, buf)
    trace, ll_prev, capped = [], None, False
    for iterations in range(1, max_iter + 1):
        ll, image = _em_map(hist, buf, theta)
        trace.append(ll)
        if image is None:
            break
        converged = ll_prev is not None and ll - ll_prev <= tol * (abs(ll_prev) + 1e-12)
        theta, ll_prev = image, ll
        if converged:
            break
    else:
        capped = True
    fitted = clamped_mixture1d(*theta)
    return FitReport(fitted=_swapped(fitted) if fitted.mu1 > fitted.mu2 else fitted,
                     method="em", iterations=iterations,
                     loglik_trace=np.array(trace), capped=capped)


def _reference_point(t0, t1, t2):
    """``_squarem_point`` as it was on numpy 5-vectors, with BLAS norms."""
    u0, u1, u2 = (np.array([m1, m2, math.log(s1), math.log(s2), math.log(w / (1.0 - w))])
                  for m1, m2, s1, s2, w in (t0, t1, t2))
    r = u1 - u0
    v = u2 - u1 - r
    vn = float(np.linalg.norm(v))
    a = min(-float(np.linalg.norm(r)) / vn, -1.0) if vn > 0.0 else -1.0
    mu1, mu2, l1, l2, t = (u0 - 2.0 * a * r + a * a * v).tolist()
    s1, s2 = (max(math.exp(min(ln, 700.0)), SIGMA_FLOOR_REL) for ln in (l1, l2))
    w = min(max(0.5 + 0.5 * math.tanh(0.5 * t), W_FLOOR), 1.0 - W_FLOOR)
    return mu1, mu2, s1, s2, w


# The SQUAREM loop alone, before Newton steps finished the fit: the
# hybrid ``fit_em`` must end no lower, in no more passes over the bins.
def _reference_squarem(samples, init, max_iter=EM_MAX_ITER, tol=EM_TOL):
    """The SQUAREM loop that ran a full EM map at every extrapolated point
    and rebuilt t2's squares after a rejection, restated on ``_histogram``'s
    bins: the reference ``fit_em`` must follow, with the same steps,
    accepted points and fit."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    hist = _histogram(x)

    s1, s2 = max(init.sigma1, SIGMA_FLOOR_REL), max(init.sigma2, SIGMA_FLOOR_REL)
    w = min(max(float(init.w), W_FLOOR), 1.0 - W_FLOOR)
    theta = (float(init.mu1), float(init.mu2), s1, s2, w)
    buf = tuple(np.empty(hist.c.size) for _ in range(3))
    _squares(hist.c, theta, buf)

    trace, chain = [], [theta]
    ll_prev = None   # log-likelihood at the point theta was mapped from
    iterations, capped = 0, False
    while iterations < max_iter:
        ll, image = _em_map(hist, buf, theta)
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
            point = _reference_point(*chain)
            _squares(hist.c, point, buf)
            ll_x, image = _em_map(hist, buf, point)
            iterations += 1
            if image is not None and math.isfinite(ll_x) and ll_x >= ll_prev:
                trace.append(ll_x)
                theta, ll_prev = image, ll_x
            else:
                _squares(hist.c, theta, buf)
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


# The raw-data SQUAREM EM that ran before ``fit_em`` fitted a histogram,
# kept verbatim (names prefixed ``_raw``) as the accuracy reference of the
# binned fit: O(n) per E-step on the samples themselves, no bins and no
# Sheppard correction.

def _raw_e_step(x: np.ndarray, buf: tuple, theta: tuple) -> float:
    """E-step at theta = (mu1, mu2, s1, s2, w), whose squares (x - mu_k)^2
    sit in buf[0], buf[1]: they become lp_k = ln(w_k*phi_k(x)), buf[2] the
    max of the two and buf[3] L = ln(1 + exp(-|lp1 - lp2|)), so that
    ln p(x) = max(lp1, lp2) + L.  Returns the log-likelihood at theta."""
    q1, q2, hi, lse = buf
    _, _, s1, s2, w = theta
    q1 *= -0.5 / (s1 * s1)
    q1 += math.log(w) - math.log(s1)
    q2 *= -0.5 / (s2 * s2)
    q2 += math.log(1.0 - w) - math.log(s2)
    np.maximum(q1, q2, out=hi)
    np.subtract(np.minimum(q1, q2, out=lse), hi, out=lse)
    np.log1p(np.exp(lse, out=lse), out=lse)
    return float(hi.sum() + lse.sum()) - 0.5 * x.size * math.log(2.0 * math.pi)


def _raw_m_step(x: np.ndarray, sum_x: float, buf: tuple) -> tuple | None:
    """M-step after ``_e_step`` on buf: r1 = exp(lp1 - max - L), whose exp
    argument is never positive, then the new theta, with its squares left
    in buf[0], buf[1]; None if a component empties."""
    q1, q2, hi, lse = buf
    np.subtract(q1, hi, out=hi)
    hi -= lse
    r1 = np.exp(hi, out=hi)
    n1 = float(r1.sum())
    n2 = x.size - n1
    if n1 <= 0.0 or n2 <= 0.0:
        return None
    r1x = float(np.dot(r1, x))
    mu1, mu2 = r1x / n1, (sum_x - r1x) / n2
    _raw_squares(x, (mu1, mu2), buf)
    var2 = float(q2.sum() - np.dot(r1, q2)) / n2
    s1 = max(math.sqrt(float(np.dot(r1, q1)) / n1), SIGMA_FLOOR_REL)
    s2 = max(math.sqrt(max(var2, 0.0)), SIGMA_FLOOR_REL)
    return mu1, mu2, s1, s2, min(max(n1 / x.size, W_FLOOR), 1.0 - W_FLOOR)


def _raw_em_map(x: np.ndarray, sum_x: float, buf: tuple, theta: tuple) -> tuple:
    """One EM step from theta, its squares in buf: (ll at theta, new theta
    or None if a component empties)."""
    ll = _raw_e_step(x, buf, theta)
    return ll, _raw_m_step(x, sum_x, buf)


def _raw_squares(x: np.ndarray, theta: tuple, buf: tuple) -> None:
    np.square(np.subtract(x, theta[0], out=buf[0]), out=buf[0])
    np.square(np.subtract(x, theta[1], out=buf[1]), out=buf[1])


def _raw_fit_em(
    samples: np.ndarray,
    init: Mixture1D,
    max_iter: int = EM_MAX_ITER,
    tol: float = EM_TOL,
) -> FitReport:
    """Two-component EM from ``init``, sigmas floored at ``SIGMA_FLOOR_REL``
    in the units of ``samples``, accelerated by SQUAREM (SqS3, Varadhan &
    Roland 2008, Scand. J. Stat. 35:335-353): every two EM steps t1 = F(t0),
    t2 = F(t1) are extrapolated, and the extrapolated point's E-step is run
    in spare buffers.  Its M-step follows only if the log-likelihood there
    is finite and at least that at t1; else the point is rejected and the
    fit goes on from t2, whose squares were left in place.  So
    ``loglik_trace``, over the accepted points, never drops.  It stops on a
    relative gain below ``tol`` from a step's input to its image.
    ``iterations`` counts E-steps: the EM maps plus the E-steps of rejected
    extrapolations, never above ``max_iter``; ``capped`` is True exactly
    when ``max_iter`` of them ran without convergence."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    sum_x = float(x.sum())

    s1, s2 = max(init.sigma1, SIGMA_FLOOR_REL), max(init.sigma2, SIGMA_FLOOR_REL)
    w = min(max(float(init.w), W_FLOOR), 1.0 - W_FLOOR)
    theta = (float(init.mu1), float(init.mu2), s1, s2, w)
    buf = tuple(np.empty(x.size) for _ in range(4))
    # Squares of an extrapolated point; the scratch rows buf[2:] are shared.
    spare = (np.empty(x.size), np.empty(x.size)) + buf[2:]
    _raw_squares(x, theta, buf)

    trace, chain = [], [theta]
    ll_prev = None   # log-likelihood at the point theta was mapped from
    iterations, capped = 0, False
    while iterations < max_iter:
        ll, image = _raw_em_map(x, sum_x, buf, theta)
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
            _raw_squares(x, point, spare)
            ll_x = _raw_e_step(x, spare, point)
            iterations += 1
            if math.isfinite(ll_x) and ll_x >= ll_prev:
                image = _raw_m_step(x, sum_x, spare)
                if image is not None:
                    trace.append(ll_x)
                    theta, ll_prev = image, ll_x
                    buf, spare = spare, buf
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


class TestEMKernel:
    def test_matches_reference_loop(self):
        corpus = _em_corpus()
        fallbacks = sum(init.mu1 == init.mu2 for _, init in corpus)
        assert fallbacks >= 5   # identical-component starts are covered
        for k, (z, init) in itertools.product([1, 2, 5, EM_MAX_ITER], corpus):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _plain_em(z, init, max_iter=k)
            want = _reference_em(z, init, max_iter=k)
            assert got.iterations == want.iterations
            f, g = got.fitted, want.fitted
            # Unit coordinates put every parameter on a scale of 1, so the
            # absolute part covers means that are 0 up to rounding.
            np.testing.assert_allclose(
                [f.mu1, f.mu2, f.sigma1, f.sigma2, f.w],
                [g.mu1, g.mu2, g.sigma1, g.sigma2, g.w], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.loglik_trace, want.loglik_trace,
                                       rtol=1e-12)

    def test_matches_reference_squarem(self):
        # Where the SQUAREM loop alone converges, the hybrid converges too and
        # ends no lower; over the corpus it makes no more passes and caps no
        # more fits.  Where both cap (flat ridges of the quartile starts),
        # neither has converged and their last points are not compared.
        fits = []
        for z, init in _em_corpus():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fit_em(z, init)
            want = _reference_squarem(z, init)
            fits.append((got, want))
            if not want.capped:
                assert not got.capped
                hist = _histogram(z)
                ll, ll_want = (_binned_loglik(hist, (f.mu1, f.mu2, f.sigma1, f.sigma2, f.w))
                               for f in (got.fitted, want.fitted))
                assert ll >= ll_want - 1e-9 * abs(ll_want)
        assert sum(g.iterations for g, _ in fits) <= sum(w.iterations for _, w in fits)
        assert sum(g.capped for g, _ in fits) <= sum(w.capped for _, w in fits)

    def test_squarem_needs_fewer_steps_and_ends_no_lower(self):
        corpus = _em_corpus()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = [fit_em(z, init) for z, init in corpus]
        plain = [_plain_em(z, init) for z, init in corpus]
        for f, p in zip(fast, plain):
            trace = f.loglik_trace
            assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[:-1]))
            if not f.capped:
                ll, ll_plain = trace[-1], p.loglik_trace[-1]
                assert ll >= ll_plain - 1e-6 * abs(ll_plain)
        assert sum(f.iterations for f in fast) <= 0.6 * sum(p.iterations for p in plain)
        assert sum(f.capped for f in fast) < sum(p.capped for p in plain)

    @pytest.mark.parametrize("heading", ["w->0", "sigma->0", "sigma->inf", "emptied"])
    def test_overshooting_extrapolation_falls_back_to_em(self, monkeypatch, heading):
        # Three points whose free coordinate moves by an almost constant step
        # give alpha ~ -1e7, so the extrapolation flies past the floors.
        steps = [0.0, -1.0, -2.0 - 1e-7]
        if heading == "w->0":
            point = _squarem_point(*[(0.0, 4.0, 1.0, 1.0, 1 / (1 + math.exp(-u)))
                                     for u in steps])
            assert point[4] == W_FLOOR
        elif heading == "emptied":
            point = (-1e3, 4.0, 1.0, 1.0, 0.3)   # no responsibility survives
        else:
            sign = 1.0 if heading == "sigma->0" else -1.0
            point = _squarem_point(*[(0.0, 4.0, math.exp(sign * u), 1.0, 0.5)
                                     for u in steps])
            assert point[2] == (SIGMA_FLOOR_REL if sign > 0 else math.exp(700.0))
        monkeypatch.setattr(learner1d, "_squarem_point", lambda *_: point)
        # No Newton step either: every attempt finds -H not positive definite.
        monkeypatch.setattr(learner1d, "_newton_step", lambda *_: None)
        calls = {"_m_step": 0, "_squares": 0, "_gradient_hessian": 0}

        def counted(name):
            inner = getattr(learner1d, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(learner1d, name, counted(name))
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 10_000, seed=5)
        init = Mixture1D(1.0, 3.0, 1.0, 1.0, 0.5)
        with warnings.catch_warnings(), np.errstate(
                over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            report = fit_em(x, init)
        # Every extrapolation is rejected, so the accepted points are plain
        # EM's and every third E-step is spent on a rejected point.  Each
        # cycle ends in one rejection; the failed Newton attempts, one
        # gradient-Hessian pass each, come after 0, 1, 3, 7, ... cycles.
        want = _reference_em(x, init)
        accepted = report.loglik_trace.size
        assert accepted == want.iterations
        rejected = (accepted - 1) // 2
        assert calls["_gradient_hessian"] == (rejected + 1).bit_length()
        assert report.iterations == accepted + rejected + calls["_gradient_hessian"]
        np.testing.assert_allclose(report.loglik_trace, want.loglik_trace, rtol=1e-12)
        f, g = report.fitted, want.fitted
        np.testing.assert_allclose([f.mu1, f.mu2, f.sigma1, f.sigma2, f.w],
                                   [g.mu1, g.mu2, g.sigma1, g.sigma2, g.w], rtol=1e-12)
        # A rejected point costs its squares and an E-step: no M-step, and no
        # rebuild of t2's squares. So the squares are built once at the start,
        # once per M-step and once per extrapolated point.
        assert calls["_m_step"] == accepted
        assert calls["_squares"] == 1 + accepted + rejected

    def test_underflowing_responsibilities_are_exact(self):
        gen = RngStream(13, 0).generator()
        x = np.concatenate([gen.standard_normal(500) - 50.0,
                            gen.standard_normal(1_500) + 50.0])
        init = Mixture1D(-50.0, 50.0, 1.0, 1.0, 0.25)
        c, m, sheppard, _, _ = _histogram(x)
        sd = math.sqrt(1.0 + sheppard)
        lp1 = math.log(0.25) + norm.logpdf(c, -50.0, sd)
        lp2 = math.log(0.75) + norm.logpdf(c, 50.0, sd)
        assert np.min(np.abs(lp1 - lp2)) > 745.0   # exp(-|d|) underflows to 0
        with warnings.catch_warnings(), np.errstate(
                over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            report = fit_em(x, init)
        # r1 is exactly 1 on the bins of the first 500 points and 0 on the
        # rest, so the fitted weight is exactly 500 / 2000.
        low = c < 0.0
        assert m[low].sum() == 500.0
        assert report.fitted.w == 0.25
        assert np.all(np.isfinite(report.loglik_trace))
        assert report.loglik_trace[0] == pytest.approx(
            float(np.dot(m, np.logaddexp(lp1, lp2))), rel=1e-12)
        assert report.fitted.mu1 == pytest.approx(
            float(np.dot(m[low], c[low]) / 500.0), rel=1e-12)
        assert report.fitted.mu2 == pytest.approx(
            float(np.dot(m[~low], c[~low]) / 1_500.0), rel=1e-12)

    def test_emptied_component_keeps_previous_parameters(self):
        x = RngStream(14, 0).generator().standard_normal(1_000)
        init = Mixture1D(-1e3, 0.0, 1.0, 1.0, 0.3)
        report = fit_em(x, init)
        # One E-step, then one gradient-Hessian pass: the empty component
        # leaves -H singular, so no Newton step, and the M-step stops the fit.
        assert report.iterations == 2 and report.loglik_trace.size == 1
        assert not report.capped
        assert report.fitted == init
        assert report.fitted == _reference_em(x, init).fitted

    def test_capped_is_recorded(self):
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 10_000, seed=5)
        init = Mixture1D(1.0, 3.0, 1.0, 1.0, 0.5)
        capped = fit_em(x, init, max_iter=3)
        assert capped.capped and capped.iterations == 3
        converged = fit_em(x, init)
        assert not converged.capped and 3 < converged.iterations < EM_MAX_ITER
        assert not fit_mixture(x, "mom").capped
        # perfbench counts a fit as capped when it took EM_MAX_ITER steps.
        fits = [fit_em(z, init) for z, init in _em_corpus()]
        assert any(f.capped for f in fits) and not all(f.capped for f in fits)
        for f in fits:
            assert (f.iterations == EM_MAX_ITER) == f.capped
            assert f.iterations <= EM_MAX_ITER


class TestNewton:
    """The Newton steps that finish ``fit_em``: their derivatives and the
    safeguards around them."""

    def test_package_import_leaves_scipy_linalg_out(self, child_env):
        # The Newton step solves with numpy.linalg: importing scipy.linalg
        # alone adds about 5 MiB to the peak RSS of a small scan.
        probe = "import sys, projclust; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env(), timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("x, theta", [
        (sample_mixture(0.0, 2.5, 1.0, 1.5, 0.6, 5_000, seed=19), (0.1, 2.4, 0.9, 1.6, 0.55)),
        (sample_mixture(0.0, 5.0, 1.0, 0.5, 0.4, 5_000, seed=20), (-0.1, 4.9, 1.1, 0.6, 0.45)),
        # The first component holds about one sample: w near W_FLOOR.
        (sample_mixture(3.0, 0.0, 0.3, 1.0, 2e-4, 5_000, seed=21),
         (3.0, 0.0, 0.3, 1.0, 2 * W_FLOOR)),
    ], ids=["overlapping", "separated", "w-near-floor"])
    def test_gradient_hessian_match_finite_differences(self, x, theta):
        hist = _histogram(x)
        rows = np.empty((5, hist.c.size))
        rows[0], rows[1] = 1.0, hist.c
        _squares(hist.c, theta, rows[2:])
        _e_step(hist, rows[2:], theta)
        g, hess = _gradient_hessian(hist, rows, theta)
        u = np.array([theta[0], theta[1], math.log(theta[2]), math.log(theta[3]),
                      math.log(theta[4] / (1.0 - theta[4]))])
        step = 1e-4
        unit = np.eye(5) * step

        def ll(v):   # at u = (mu1, mu2, ln s1, ln s2, logit w)
            return _binned_loglik(hist, (v[0], v[1], math.exp(v[2]), math.exp(v[3]),
                                         1.0 / (1.0 + math.exp(-v[4]))))

        g_fd = [(ll(u + e) - ll(u - e)) / (2 * step) for e in unit]
        hess_fd = [[(ll(u + e + f) - ll(u + e - f) - ll(u - e + f) + ll(u - e - f))
                    / (4 * step * step) for f in unit] for e in unit]
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-4)
        np.testing.assert_allclose(hess, hess_fd, rtol=1e-6, atol=1e-3)

    def test_step_that_lowers_the_likelihood_is_not_taken(self, monkeypatch):
        # A step that moves mu1 50 units lowers the log-likelihood at every
        # halving: each attempt costs the gradient-Hessian pass and 4 trial
        # E-steps, and the fit goes on as SQUAREM alone, trying again after
        # 1, 2, 4, ... cycles.
        monkeypatch.setattr(learner1d, "_newton_step",
                            lambda g, hess: ([50.0, 0.0, 0.0, 0.0, 0.0], 1e9))
        calls = {"_gradient_hessian": 0, "_squarem_point": 0}

        def counted(name):
            inner = getattr(learner1d, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(learner1d, name, counted(name))
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 10_000, seed=5)
        init = Mixture1D(1.0, 3.0, 1.0, 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_em(x, init)
        want = _reference_squarem(x, init)
        attempts = calls["_gradient_hessian"]
        assert attempts == (calls["_squarem_point"] + 1).bit_length() >= 2
        assert report.iterations == want.iterations + 5 * attempts
        np.testing.assert_allclose(report.loglik_trace, want.loglik_trace, rtol=1e-12)
        f, g = report.fitted, want.fitted
        np.testing.assert_allclose([f.mu1, f.mu2, f.sigma1, f.sigma2, f.w],
                                   [g.mu1, g.mu2, g.sigma1, g.sigma2, g.w], rtol=1e-12)

    def test_extrapolations_start_from_em_chains(self, monkeypatch):
        # Each SQUAREM point extrapolates t1 = F(t0), t2 = F(t1), also when a
        # Newton step moved the fit after the cycle began: here the first
        # attempt takes its step and every later one fails.
        chains, solved = [], []
        extrapolate, solve = learner1d._squarem_point, learner1d._newton_step

        def recorded(*chain):
            chains.append(chain)
            return extrapolate(*chain)

        def first_only(*args):
            solved.append(None)
            return solve(*args) if len(solved) == 1 else None

        monkeypatch.setattr(learner1d, "_squarem_point", recorded)
        monkeypatch.setattr(learner1d, "_newton_step", first_only)
        x = sample_mixture(0.0, 2.0, 1.0, 1.0, 0.5, 10_000, seed=6)   # gamma = 1
        report = fit_em(x, fit_mom(x).fitted)
        assert len(solved) >= 2 and len(chains) >= 2 and not report.capped
        hist = _histogram(x)
        buf = tuple(np.empty(hist.c.size) for _ in range(3))
        for t0, t1, t2 in chains:
            for a, b in ((t0, t1), (t1, t2)):
                _squares(hist.c, a, buf)
                np.testing.assert_allclose(_em_map(hist, buf, a)[1], b, rtol=1e-12,
                                           atol=1e-12)

    def test_step_pinned_by_the_floors_ends_the_fit(self):
        # One sample far out: the component on it wants w below W_FLOOR and
        # sigma below the floor, so the floored Newton point is the current
        # one.  -H is positive definite with a predicted gain above tol*|ll|,
        # and the step gains nothing: that ends the fit, as a step of EM
        # gaining at most tol relative does, instead of repeating to the cap.
        x = np.append(RngStream(22, 0).generator().standard_normal(20_000), 10.0)
        report = fit_mixture(x, "mom+em")
        assert not report.capped and report.iterations < 20
        f = report.fitted
        assert f.w == 1.0 - W_FLOOR and f.mu2 == pytest.approx(10.0, abs=0.02)

    def test_runs_warning_free_on_degenerate_inputs(self, monkeypatch):
        # The far outlier, a constant sample and 500 duplicates of one value.
        gen = RngStream(16, 0).generator()
        duplicates = np.concatenate([np.full(500, 2.0), gen.standard_normal(1_500)])
        outlier = np.append(RngStream(12, 0).generator().standard_normal(1_999), 1e8)
        counts = {"built": 0, "definite": 0}
        build, solve = learner1d._gradient_hessian, learner1d._newton_step

        def built(*args):
            counts["built"] += 1
            return build(*args)

        def solved(*args):
            out = solve(*args)
            counts["definite"] += out is not None
            return out

        monkeypatch.setattr(learner1d, "_gradient_hessian", built)
        monkeypatch.setattr(learner1d, "_newton_step", solved)
        for x in (outlier, np.full(100, 5.0), duplicates):
            counts["built"] = 0
            with warnings.catch_warnings(), np.errstate(
                    over="raise", divide="raise", invalid="raise"):
                warnings.simplefilter("error")
                for method in ("em", "mom+em"):
                    report = fit_mixture(x, method)
                    f = report.fitted
                    assert np.all(np.isfinite([f.mu1, f.mu2, f.sigma1, f.sigma2, f.w]))
                    assert not report.capped
            assert counts["built"] > 0
        assert counts["definite"] > 0


class TestBinnedEM:
    """``fit_em`` fits a histogram of its samples: at most ``EM_BINS``
    count-weighted bin centres, Sheppard's h^2/12 on each variance."""

    @pytest.mark.parametrize("n", [2, 100, 10_000])
    def test_bins_match_numpy_histogram(self, n):
        x = sample_mixture(0.0, 4.0, 1.0, 2.0, 0.3, n, seed=16)
        c, m, sheppard, total, sum_c = _histogram(x)
        counts, edges = np.histogram(x, EM_BINS)
        keep = counts > 0
        np.testing.assert_array_equal(m, counts[keep])
        np.testing.assert_allclose(c, 0.5 * (edges[:-1] + edges[1:])[keep],
                                   rtol=1e-12, atol=1e-12)
        assert sheppard == pytest.approx((edges[1] - edges[0]) ** 2 / 12.0, rel=1e-12)
        assert (total, sum_c) == (float(n), float(np.dot(m, c)))

    def test_constant_sample_is_one_bin_of_width_zero(self):
        c, m, sheppard, _, _ = _histogram(np.full(100, 5.0))
        assert c.tolist() == [5.0] and m.tolist() == [100.0] and sheppard == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        x = np.append(np.linspace(0.0, 1.0, 99), bad)
        with pytest.raises(DomainError):
            fit_em(x, Mixture1D(0.0, 1.0, 1.0, 1.0, 0.5))

    def test_e_step_sees_at_most_em_bins_values(self, monkeypatch):
        # Every pass the fit counts, an E-step or a gradient-Hessian build,
        # works on at most EM_BINS values.
        sizes = {"_e_step": [], "_gradient_hessian": []}

        def counted(name):
            inner = getattr(learner1d, name)

            def wrapper(hist, buf, theta):
                sizes[name].append(buf[0].size)
                return inner(hist, buf, theta)
            return wrapper

        for name in sizes:
            monkeypatch.setattr(learner1d, name, counted(name))
        x = sample_mixture(0.0, 3.0, 1.0, 1.5, 0.4, 100_000, seed=17)
        report = fit_mixture(x, "mom+em")
        passes = sizes["_e_step"] + sizes["_gradient_hessian"]
        assert sizes["_gradient_hessian"] and len(passes) == report.iterations
        assert 0 < max(passes) <= EM_BINS

    def test_sheppard_correction_recovers_binned_sigma(self):
        # Two unit Gaussians 600 apart spread the 512 bins over the gap, so
        # each is sampled into bins of width h ~ 1.2 sigma.  The count-
        # weighted spread of the bin centres then overstates sigma by
        # h^2/12; the corrected fit lands near the spread of the raw values.
        gen = RngStream(15, 0).generator()
        x = np.concatenate([gen.standard_normal(20_000),
                            gen.standard_normal(20_000) + 600.0])
        fit = fit_em(x, Mixture1D(0.0, 600.0, 1.0, 1.0, 0.5)).fitted
        counts, edges = np.histogram(x, EM_BINS)
        centres = 0.5 * (edges[:-1] + edges[1:])
        assert edges[1] - edges[0] > 1.0
        for sigma, part, side in ((fit.sigma1, x[:20_000], centres < 300.0),
                                  (fit.sigma2, x[20_000:], centres > 300.0)):
            m, c = counts[side], centres[side]
            mean = np.dot(m, c) / m.sum()
            uncorrected = math.sqrt(np.dot(m, (c - mean) ** 2) / m.sum())
            raw = float(np.std(part))
            assert abs(sigma - raw) <= 0.01
            assert abs(sigma - raw) < 0.2 * abs(uncorrected - raw)

    def test_identical_points_floor_a_narrow_component(self):
        # On raw values the component on the 500 identical points would
        # collapse to the sigma floor and its density spike without bound;
        # the binned likelihood stays bounded by Sheppard's h^2/12.
        gen = RngStream(16, 0).generator()
        x = np.concatenate([np.full(500, 2.0), gen.standard_normal(1_500)])
        with warnings.catch_warnings(), np.errstate(
                over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            report = fit_em(x, Mixture1D(0.0, 2.0, 1.0, 0.5, 0.75))
        f = report.fitted
        assert np.all(np.isfinite([f.mu1, f.mu2, f.sigma1, f.sigma2, f.w]))
        assert not report.capped
        assert f.sigma2 == SIGMA_FLOOR_REL * max(abs(f.mu1), abs(f.mu2),
                                                 abs(f.mu2 - f.mu1), f.sigma1)
        assert f.w == pytest.approx(0.75, abs=0.01)
        assert f.sigma1 == pytest.approx(1.0, abs=0.05)
        trace = report.loglik_trace
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) >= 0.0)

    @pytest.mark.parametrize("n", [2, 100, 511])
    def test_fewer_samples_than_bins(self, n):
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.4, n, seed=18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("em", "mom+em") if n >= 16 else ("em",):
                report = fit_mixture(x, method)
                f = report.fitted
                assert np.all(np.isfinite([f.mu1, f.mu2, f.sigma1, f.sigma2]))
                assert f.mu1 <= f.mu2
                trace = report.loglik_trace
                if trace is not None:   # None: mom+em on a single-Gaussian start
                    assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[:-1]))
        if n == 2:
            # Two points land in the bottom and top bins: one component on
            # each bin centre, both sigmas at the floor.
            lo, hi = np.sort(x)
            h = (hi - lo) / EM_BINS
            f = fit_em(x, Mixture1D(lo, hi, 1.0, 1.0, 0.5)).fitted
            assert f.mu1 == pytest.approx(lo + 0.5 * h, rel=1e-12)
            assert f.mu2 == pytest.approx(hi - 0.5 * h, rel=1e-12)
            assert f.w == 0.5
            assert max(f.sigma1, f.sigma2) <= SIGMA_FLOOR_REL * max(abs(lo), abs(hi), hi - lo)


class TestBinnedAgainstRawEM:
    """The binned fit against ``_raw_fit_em`` on small-em-like data:
    spherical p=100, c=1, n=10,000, seeds 1-3, 15 directions each."""

    @staticmethod
    def datasets():
        for seed in (1, 2, 3):
            yield seed, sample_dataset(make_spherical_spec(100, 1.0), 10_000,
                                       RngStream(seed, 0))

    def test_estimated_error_moves_in_low_digits(self):
        deltas = []
        for seed, data in self.datasets():
            for scan in scan_directions(data, ClusterConfig(0.05, 15, "mom", seed)):
                z = _unit_coordinates(scan.values)[0]
                start = _mom_start(z)
                if start.mu1 == start.mu2:
                    continue   # mom+em runs no EM on a single-Gaussian start
                binned, raw = fit_em(z, start).fitted, _raw_fit_em(z, start).fitted
                deltas.append(abs(bayes_error(binned, bayes_thresholds(binned))
                                  - bayes_error(raw, bayes_thresholds(raw))))
        assert len(deltas) >= 15
        assert float(np.median(deltas)) <= 1e-4

    @classmethod
    def mom_em_fits(cls):
        """(unit-coordinate values, ``fit_em`` report) of every mom+em fit
        on the datasets: single-Gaussian starts run no EM and are left out."""
        for seed, data in cls.datasets():
            for scan in scan_directions(data, ClusterConfig(0.05, 15, "mom", seed)):
                z = _unit_coordinates(scan.values)[0]
                start = _mom_start(z)
                if start.mu1 != start.mu2:
                    yield z, fit_em(z, start)

    def test_capped_share_below_two_percent(self):
        fits = [report for _, report in self.mom_em_fits()]
        assert len(fits) >= 15
        assert sum(f.capped for f in fits) < 0.02 * len(fits)

    def test_bayes_error_within_1e3_of_the_mle(self):
        # The oracle is plain EM from the fit, run until a step gains less
        # than 1e-15 of |ll|: the MLE of the basin the fit stopped in.
        for z, report in self.mom_em_fits():
            mle = _plain_em(z, report.fitted, max_iter=100_000, tol=1e-15)
            assert not mle.capped
            fit, oracle = report.fitted, mle.fitted
            assert abs(bayes_error(fit, bayes_thresholds(fit))
                       - bayes_error(oracle, bayes_thresholds(oracle))) <= 1e-3

    def test_target_scan_outcome_unchanged(self, monkeypatch):
        for seed, data in self.datasets():
            cfg = ClusterConfig(0.05, 15, "mom+em", seed)
            binned = cluster_gmm(data, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(learner1d, "fit_em", _raw_fit_em)
                raw = cluster_gmm(data, cfg)
            assert binned.achieved and raw.achieved
            assert binned.projections_used == raw.projections_used


class TestFitMixtureDispatcher:
    def test_methods(self):
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 5_000, seed=8)
        for method in ("mom", "em", "mom+em"):
            rep = fit_mixture(x, method)
            assert rep.method == method
            assert separability_1d(rep.fitted) > 1.0

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            fit_mixture(np.zeros(100), "kmeans")

    def test_single_gaussian_fallback_skips_em(self):
        data = sample_dataset(make_spherical_spec(100, 1.0), 2_000, RngStream(1, 0))
        scans = list(scan_directions(data, ClusterConfig(0.05, 15, seed=1)))
        fallbacks = [s for s in scans if s.fit.iterations == 0]
        assert 0 < len(fallbacks) < len(scans)
        for scan in fallbacks:
            start = fit_mixture(scan.values, "mom").fitted
            assert start.mu1 == start.mu2
            assert scan.fit.method == "mom+em" and not scan.fit.capped
            assert scan.boundary is None and scan.estimated_error == 0.5
            # EM from that start keeps the two components identical.
            z = _unit_coordinates(scan.values)[0]
            em = fit_em(z, _mom_start(z)).fitted
            assert em.mu1 == pytest.approx(em.mu2, abs=1e-12)
            assert em.sigma1 == pytest.approx(em.sigma2, rel=1e-12)
            assert em.w == pytest.approx(0.5, abs=1e-12)
            with pytest.raises(NoBoundaryError):
                bayes_thresholds(em)


class TestUnitCoordinates:
    @pytest.mark.parametrize("method", ["mom", "em", "mom+em"])
    def test_constant_samples_floor_at_their_magnitude(self, method):
        fit = fit_mixture(np.full(100, 5.0), method).fitted
        assert fit.mu1 == pytest.approx(5.0) and fit.mu2 == pytest.approx(5.0)
        assert fit.sigma1 == pytest.approx(SIGMA_FLOOR_REL * 5.0)
        assert fit.sigma2 == pytest.approx(SIGMA_FLOOR_REL * 5.0)

    @pytest.mark.parametrize("method", ["mom", "em", "mom+em", "central_moments"])
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                     [np.inf, -np.inf], [1e308, 1e308]],
                             ids=["nan", "inf", "-inf", "both-infs", "sum-overflows"])
    def test_nonfinite_samples_rejected(self, method, bad):
        # A DomainError before any RuntimeWarning, which the test
        # configuration turns into an error.
        x = np.append(np.linspace(0.0, 1.0, 98), bad)
        with pytest.raises(DomainError, match="samples and their mean must be finite"):
            if method == "central_moments":
                central_moments(x)
            else:
                fit_mixture(x, method)

    def test_spread_past_the_float_range_rejected(self):
        # Finite points whose projections' sum of squares overflows.
        points = RngStream(0, 0).generator().standard_normal((200, 3)) * 1e155
        with pytest.raises(DomainError, match="RMS spread inf"):
            cluster_gmm(Dataset(points), ClusterConfig(0.1, 5, seed=1))

    def test_sums_match_np_mean_bit_for_bit(self):
        # The +1e12 shift of the invariance repros, projected on its first
        # direction; a mixture; a far outlier; constant samples.
        data = sample_dataset(make_spherical_spec(20, 2.0), 2000, RngStream(3, 0))
        direction = sample_direction(20, RngStream(1, 1).generator())
        shifted = (data.points + 1e12) @ direction
        outlier = np.append(RngStream(12, 0).generator().standard_normal(1_999), 1e8)
        for x in (shifted, sample_mixture(0.0, 4.0, 1.0, 2.0, 0.3, 5_000, seed=9),
                  outlier, np.full(100, 5.0)):
            loc = float(np.mean(x))
            z = x - loc
            unit = math.sqrt(float(np.dot(z, z)) / x.size) or abs(loc) or 1.0
            z /= unit
            power = z * z
            moments = [0.0, float(np.mean(power))]
            for _ in range(3, 5):
                power *= z
                moments.append(float(np.mean(power)))
            got_z, got_loc, got_unit = _unit_coordinates(x)
            assert (got_loc, got_unit) == (loc, unit)
            assert got_z.tobytes() == z.tobytes()
            assert _unit_moments(got_z).tobytes() == np.array(moments).tobytes()

    def test_em_iterations_do_not_depend_on_units(self):
        # The stopping rule compares the log-likelihood gain with |ll|,
        # which shifts by n*ln(a) when raw samples are scaled by a.
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.5, 10_000, seed=6)
        iterations = {fit_mixture(a * x, "mom+em").iterations
                      for a in (1e-3, 1.0, 1e3)}
        assert len(iterations) == 1

    @pytest.mark.parametrize("method", ["mom", "em", "mom+em"])
    @pytest.mark.parametrize("a,b", [(1e150, 0.0), (1e-150, 0.0), (1.0, 1e12),
                                     (-2.0, 3.0)])
    def test_fit_maps_affinely(self, method, a, b):
        x = sample_mixture(0.0, 4.0, 1.0, 1.0, 0.3, 5_000, seed=10)
        base = fit_mixture(x, method)
        moved = fit_mixture(a * x + b, method)
        # Rounding a*x + b moves each value by up to |b|*eps/2, against a
        # spread of about 2|a|; allow 100 times that, relative.
        rtol = 1e-9 + 100 * abs(b / a) * np.finfo(float).eps / 2.0
        f, g = base.fitted, moved.fitted
        if a < 0:
            g = _swapped(g)
        assert g.mu1 == pytest.approx(a * f.mu1 + b, abs=rtol * abs(a) * 4.0)
        assert g.mu2 == pytest.approx(a * f.mu2 + b, abs=rtol * abs(a) * 4.0)
        assert g.sigma1 == pytest.approx(abs(a) * f.sigma1, rel=rtol)
        assert g.sigma2 == pytest.approx(abs(a) * f.sigma2, rel=rtol)
        assert g.w == pytest.approx(f.w, abs=rtol)
        assert bayes_error(g, bayes_thresholds(g)) == pytest.approx(
            bayes_error(f, bayes_thresholds(f)), rel=rtol)
        assert moved.iterations == base.iterations


class TestBayesThresholds:
    def test_equal_weights_midpoint(self):
        ts = bayes_thresholds(Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5))
        np.testing.assert_allclose(ts, [1.0], atol=1e-12)

    def test_unequal_weights_shifts_toward_light_component(self):
        # t = 1 + 0.5*ln(1/3): the frozen value satisfies the density
        # equality w*phi(t; mu1) = (1-w)*phi(t; mu2) to machine precision.
        ts = bayes_thresholds(Mixture1D(0.0, 2.0, 1.0, 1.0, 0.25))
        expected = 1.0 + 0.5 * math.log(1.0 / 3.0)
        np.testing.assert_allclose(ts, [expected], rtol=1e-12)
        t = ts[0]
        lhs = 0.25 * norm.pdf(t, 0.0, 1.0)
        rhs = 0.75 * norm.pdf(t, 2.0, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unequal_sigma_density_equality(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 2.0, 0.5)
        ts = bayes_thresholds(mix)
        assert ts.size == 2 and ts[0] < ts[1]
        for t in ts:
            lhs = mix.w * norm.pdf(t, mix.mu1, mix.sigma1)
            rhs = (1 - mix.w) * norm.pdf(t, mix.mu2, mix.sigma2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_against_brentq_oracle(self):
        mix = Mixture1D(-1.0, 1.5, 0.8, 1.7, 0.35)

        def gap(t):
            return mix.w * norm.pdf(t, mix.mu1, mix.sigma1) - (
                1 - mix.w
            ) * norm.pdf(t, mix.mu2, mix.sigma2)

        ts = bayes_thresholds(mix)
        for t in ts:
            oracle = brentq(gap, t - 0.5, t + 0.5, xtol=1e-13)
            assert t == pytest.approx(oracle, abs=1e-9)

    def test_identical_components_raise(self):
        with pytest.raises(NoBoundaryError):
            bayes_thresholds(Mixture1D(1.0, 1.0, 2.0, 2.0, 0.5))

    def test_dominated_component_raises(self):
        # Narrow component with negligible weight never wins.
        with pytest.raises(NoBoundaryError):
            bayes_thresholds(Mixture1D(0.0, 0.0, 1.0, 1.001, 0.0001))

    def test_label_swap_leaves_threshold_set(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 2.0, 0.3)
        a = bayes_thresholds(mix)
        b = bayes_thresholds(_swapped(mix))
        np.testing.assert_allclose(a, b, atol=1e-12)


def _log_density_ratio(mix, x):
    """Oracle: ln(w*phi1(x)) - ln((1-w)*phi2(x)) from scipy's log-densities."""
    return (norm.logpdf(x, mix.mu1, mix.sigma1) + math.log(mix.w)
            - norm.logpdf(x, mix.mu2, mix.sigma2) - math.log1p(-mix.w))


# Weights near the floor, at either end, and in between.
WEIGHTS = st.one_of(st.floats(W_FLOOR, 2 * W_FLOOR), st.floats(0.01, 0.99),
                    st.floats(1.0 - 2 * W_FLOOR, 1.0 - W_FLOOR))


def _region_labels(mix):
    """The Bayes rule's label in each region between its thresholds, left
    to right, read off one point inside each region."""
    ts = bayes_thresholds(mix)
    points = np.concatenate([[ts[0] - 1.0], (ts[:-1] + ts[1:]) / 2.0, [ts[-1] + 1.0]])
    return classify_values(points, ts, bayes_orientation(mix, ts))


class TestRegionLabels:
    def test_single_threshold(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5)
        np.testing.assert_array_equal(_region_labels(mix), [0, 1])
        np.testing.assert_array_equal(_region_labels(_swapped(mix)), [1, 0])

    def test_two_thresholds_narrow_wins_middle(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 2.0, 0.5)
        np.testing.assert_array_equal(_region_labels(mix), [1, 0, 1])


class TestBayesOrientation:
    @settings(max_examples=300, deadline=None)
    @given(mu1=st.floats(-10.0, 10.0), gap=st.floats(-10.0, 10.0),
           sigma1=st.floats(0.1, 5.0),
           sigma_ratio=st.one_of(st.just(1.0), st.floats(0.2, 5.0)), w=WEIGHTS)
    def test_rule_labels_the_larger_weighted_density(self, mu1, gap, sigma1,
                                                     sigma_ratio, w):
        # The Bayes rule, thresholds plus orientation, gives each point the
        # label of the larger of w*phi1 and (1-w)*phi2, for equal sigmas
        # (ratio 1) and unequal ones.
        mix = Mixture1D(mu1, mu1 + gap, sigma1, sigma1 * sigma_ratio, w)
        spread = max(mix.sigma1, mix.sigma2)
        x = np.linspace(min(mix.mu1, mix.mu2) - 8.0 * spread,
                        max(mix.mu1, mix.mu2) + 8.0 * spread, 4001)
        ratio = _log_density_ratio(mix, x)
        try:
            ts = bayes_thresholds(mix)
        except NoBoundaryError:
            # One weighted density is the larger everywhere.
            assert np.all(ratio > -1e-9) or np.all(ratio < 1e-9)
            return
        # The rounding band: within 1e-7 of the mixture's scale of a
        # threshold, or where the weighted densities agree to 1e-9
        # relative, rounding decides the label.
        band = 1e-7 * max(abs(mix.mu1), abs(mix.mu2), spread)
        keep = (np.abs(ratio) > 1e-9) & np.all(
            np.abs(x[:, np.newaxis] - ts) > band, axis=1)
        got = classify_values(x, ts, bayes_orientation(mix, ts))
        np.testing.assert_array_equal(got[keep], np.where(ratio > 0.0, 0, 1)[keep])


class TestBayesError:
    def test_equal_sigma_equal_weight(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5)
        assert bayes_error(mix, bayes_thresholds(mix)) == pytest.approx(
            q_function(1.0), rel=1e-12
        )

    def test_vanishes_for_large_separation(self):
        mix = Mixture1D(0.0, 200.0, 1.0, 1.0, 0.5)
        assert bayes_error(mix, bayes_thresholds(mix)) < 1e-300

    def test_label_swap_invariance(self):
        for mix in (
            Mixture1D(0.0, 2.0, 1.0, 1.0, 0.25),
            Mixture1D(0.0, 2.0, 1.0, 2.0, 0.3),
        ):
            assert bayes_error(mix, bayes_thresholds(mix)) == pytest.approx(
                bayes_error(_swapped(mix), bayes_thresholds(_swapped(mix))), abs=1e-12
            )

    @pytest.mark.parametrize(
        "mix",
        [
            Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5),
            Mixture1D(0.0, 2.0, 1.0, 2.0, 0.5),
            Mixture1D(0.0, 1.0, 1.0, 3.0, 0.3),
            Mixture1D(0.0, 2.0, 1.0, 1.0, 0.25),
        ],
    )
    def test_monte_carlo_oracle(self, mix):
        n = 10_000_000
        gen = RngStream(int(1000 * mix.w) + int(10 * mix.sigma2), 0).generator()
        take_first = gen.random(n) < mix.w
        mus = np.where(take_first, mix.mu1, mix.mu2)
        sigs = np.where(take_first, mix.sigma1, mix.sigma2)
        x = mus + sigs * gen.standard_normal(n)
        labels_true = np.where(take_first, 0, 1)

        ts = bayes_thresholds(mix)
        predicted = classify_values(x, ts, bayes_orientation(mix, ts))
        mc_err = float(np.mean(predicted != labels_true))
        expected = bayes_error(mix, bayes_thresholds(mix))
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(mc_err - expected) <= 3 * se

    @pytest.mark.parametrize("mix,ts", [
        (Mixture1D(0.0, 2.0, 1.0, 1.0, 0.3), [0.7]),
        (Mixture1D(1.0, -2.0, 0.5, 2.0, 0.6), [-1.5]),
        (Mixture1D(0.0, 1.0, 1.0, 3.0, 0.3), [-2.0, 1.5]),
        (Mixture1D(3.0, 0.0, 2.0, 0.5, 0.8), [-0.4, 0.9]),
    ])
    @pytest.mark.parametrize("orientation", [0, 1])
    def test_rule_error_against_scipy(self, mix, ts, orientation):
        # Label ``orientation`` above one threshold, or between two.
        comps = ((mix.mu1, mix.sigma1, mix.w), (mix.mu2, mix.sigma2, 1.0 - mix.w))
        want = 0.0
        for label, (mu, sigma, weight) in enumerate(comps):
            upper = norm.sf(ts[0], mu, sigma)
            mass = upper if len(ts) == 1 else upper - norm.sf(ts[1], mu, sigma)
            want += weight * (mass if label != orientation else 1.0 - mass)
        got = learner1d.rule_error(mix, np.array(ts), orientation)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mix", [Mixture1D(0.0, 2.0, 1.0, 1.0, 0.3),
                                     Mixture1D(0.0, 1.0, 1.0, 3.0, 0.3),
                                     Mixture1D(-1.0, 2.0, 2.0, 0.7, 0.6)])
    def test_bayes_error_is_its_rule_error(self, mix):
        ts = bayes_thresholds(mix)
        orientation = bayes_orientation(mix, ts)
        assert learner1d.rule_error(mix, ts, orientation) == pytest.approx(
            bayes_error(mix, bayes_thresholds(mix)), rel=1e-12)

    def test_rule_error_far_tail_counts_both_components(self):
        # Each component puts Q(20) on the wrong side of the threshold.
        got = learner1d.rule_error(Mixture1D(0.0, 40.0, 1.0, 1.0, 0.5), [20.0], 1)
        assert got == pytest.approx(norm.sf(20.0), rel=1e-12, abs=0.0)

    def test_rule_error_at_small_targets(self):
        # Errors near 1e-12, the scale of a tight scan target, keep their
        # relative accuracy under the mixture's own Bayes rule.
        mix = Mixture1D(0.0, 14.0, 1.0, 1.0, 0.5)
        ts = bayes_thresholds(mix)
        got = learner1d.rule_error(mix, ts, bayes_orientation(mix, ts))
        assert got == pytest.approx(norm.sf(7.0), rel=1e-12, abs=0.0)
        assert bayes_error(mix, ts) == pytest.approx(norm.sf(7.0), rel=1e-12, abs=0.0)

    def test_rule_error_interval_in_lower_tail(self):
        # The rule's interval [-12, -11] lies in the lower tail of the
        # component at 0, which puts mass Phi(-11) - Phi(-12) = 1.9e-28
        # there; the narrow component at -11.5 has none outside it.
        mix = Mixture1D(0.0, -11.5, 1.0, 0.01, 0.5)
        ts = np.array([-12.0, -11.0])
        want = 0.5 * (norm.cdf(-11.0) - norm.cdf(-12.0))
        got = learner1d.rule_error(mix, ts, 1)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert want == pytest.approx(0.5 * 1.9106e-28, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("w", [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 2.5, 5.0, 7.0, 8.0])
    def test_equal_sigma_closed_form(self, w, gamma):
        # The closed form w*Q(gamma + s) + (1-w)*Q(gamma - s),
        # s = ln(w/(1-w))/(2*gamma), of an equal-sigma Bayes error.
        s = math.log(w / (1.0 - w)) / (2.0 * gamma)
        want = min(w * q_function(gamma + s) + (1.0 - w) * q_function(gamma - s), 0.5)
        mix = Mixture1D(-1.0, 2.0 * gamma - 1.0, 1.0, 1.0, w)
        got = bayes_error(mix, bayes_thresholds(mix))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_within_half(self):
        for w in (0.1, 0.3, 0.5):
            for g in (0.01, 0.5, 3.0):
                mix = Mixture1D(0.0, 2 * g, 1.0, 1.0, w)
                e = bayes_error(mix, bayes_thresholds(mix))
                assert 0.0 <= e <= 0.5


class TestLemma14LowerBounds:
    @pytest.mark.parametrize("w", [0.05, 0.1, 0.2, 0.3, 0.5])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
    def test_grid(self, w, gamma):
        mix = Mixture1D(0.0, 2 * gamma, 1.0, 1.0, w)
        e_opt = bayes_error(mix, bayes_thresholds(mix))
        if w <= 0.1:
            bound = w * q_function(-1.0 / gamma + gamma)
        else:
            bound = w * q_function(gamma)
        assert e_opt >= bound - 1e-15


class TestEquivariance:
    def test_shift_scale(self):
        a, b = 3.0, -7.0
        x = sample_mixture(0.0, 2.0, 1.0, 1.0, 0.3, 100_000, seed=9)
        base = fit_mom(x).fitted
        moved = fit_mom(a * x + b).fitted
        scale = abs(a) * 2.0
        assert moved.mu1 == pytest.approx(a * base.mu1 + b, abs=1e-6 * scale)
        assert moved.mu2 == pytest.approx(a * base.mu2 + b, abs=1e-6 * scale)
        assert moved.sigma1 == pytest.approx(abs(a) * base.sigma1, rel=1e-6)
        assert moved.w == pytest.approx(base.w, abs=1e-9)
        assert separability_1d(moved) == pytest.approx(
            separability_1d(base), rel=1e-6
        )
        assert bayes_error(moved, bayes_thresholds(moved)) == pytest.approx(
            bayes_error(base, bayes_thresholds(base)), rel=1e-6)


class TestConsistencyRate:
    def test_error_halves_with_quadrupled_sample(self):
        errs_small, errs_big = [], []
        for trial in range(50):
            x_small = sample_mixture(0.0, 2.0, 1.0, 1.0, 0.5, 10_000,
                                     seed=100, stream=trial)
            x_big = sample_mixture(0.0, 2.0, 1.0, 1.0, 0.5, 40_000,
                                   seed=101, stream=trial)
            f_small = fit_mom(x_small).fitted
            f_big = fit_mom(x_big).fitted
            errs_small.append(abs(f_small.mu1) + abs(f_small.mu2 - 2.0))
            errs_big.append(abs(f_big.mu1) + abs(f_big.mu2 - 2.0))
        ratio = float(np.mean(errs_small)) / float(np.mean(errs_big))
        # 1/sqrt(n) rate predicts 2; accept within a factor 2 either way.
        assert 1.0 <= ratio <= 4.0


class TestDiscardRule:
    def test_low_separation_fits_stay_below_half(self):
        hits = 0
        trials = 200
        for trial in range(trials):
            # gamma = 1/8: delta = 0.25, sigma = 1
            x = sample_mixture(0.0, 0.25, 1.0, 1.0, 0.5, 10_000,
                               seed=102, stream=trial)
            fitted = fit_mom(x).fitted
            if separability_1d(fitted) < 0.5:
                hits += 1
        assert hits >= 0.95 * trials
