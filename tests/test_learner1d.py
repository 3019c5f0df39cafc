"""1-D mixture estimation and Bayes-rule tests with independent oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.errors import DomainError, InsufficientSampleError, NoBoundaryError
from projclust.learner1d import (
    EM_MAX_ITER,
    FitReport,
    _unit_coordinates,
    _unit_moments,
    bayes_error,
    bayes_thresholds,
    central_moments,
    estimated_separability_bound,
    fit_em,
    fit_mixture,
    fit_mom,
    fit_mom_from_moments,
    region_component_labels,
)
from projclust.mathkit import RngStream, q_function
from projclust.model import SIGMA_FLOOR_REL, W_FLOOR, Mixture1D, clamped_mixture1d
from projclust.projection import sample_direction, separability_1d


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
        d = x - np.mean(x)
        for k in range(2, 7):
            assert m[k - 1] == pytest.approx(float(np.mean(d**k)), rel=1e-12)


class TestFitMoM:
    def test_exact_population_moments_symmetric(self):
        moments = mixture_population_moments(0.0, 2.0, 1.0, 0.5)
        np.testing.assert_allclose(moments[:5], [1.0, 2.0, 0.0, 10.0, 0.0],
                                   atol=1e-12)
        fit = fit_mom_from_moments(moments).fitted
        assert fit.mu1 == pytest.approx(0.0, abs=1e-6)
        assert fit.mu2 == pytest.approx(2.0, abs=1e-6)
        assert fit.sigma1 == pytest.approx(1.0, abs=1e-6)
        assert fit.w == pytest.approx(0.5, abs=1e-6)

    def test_exact_population_moments_asymmetric(self):
        moments = mixture_population_moments(0.0, 4.0, 1.0, 0.3)
        np.testing.assert_allclose(
            moments[:5], [2.8, 4.36, -5.376, 43.0512, -103.64928], rtol=1e-12
        )
        fit = fit_mom_from_moments(moments).fitted
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
    """The log-sum-exp EM loop that ``fit_em`` replaced, kept verbatim as
    the reference its rewrite must match up to rounding."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InsufficientSampleError(f"EM needs n >= 2, got {x.size}")
    sum_x = float(np.sum(x))

    mu = np.array([init.mu1, init.mu2])
    sig = np.maximum(np.array([init.sigma1, init.sigma2]), SIGMA_FLOOR_REL)
    w = float(np.clip(init.w, W_FLOOR, 1.0 - W_FLOOR))

    trace = []
    ll_prev = -np.inf
    iterations = 0
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)
    for iterations in range(1, max_iter + 1):
        z1 = (x - mu[0]) / sig[0]
        z2 = (x - mu[1]) / sig[1]
        lp1 = math.log(w) - math.log(sig[0]) - half_log_2pi - 0.5 * z1 * z1
        lp2 = math.log(1.0 - w) - math.log(sig[1]) - half_log_2pi - 0.5 * z2 * z2
        hi = np.maximum(lp1, lp2)
        tot = hi + np.log(np.exp(lp1 - hi) + np.exp(lp2 - hi))
        ll = float(np.sum(tot))
        trace.append(ll)
        r1 = np.exp(lp1 - tot)

        n1 = float(np.sum(r1))
        n2 = x.size - n1
        if n1 <= 0.0 or n2 <= 0.0:
            break
        r1x = float(np.dot(r1, x))
        mu1 = r1x / n1
        mu2 = (sum_x - r1x) / n2
        d1 = x - mu1
        d2 = x - mu2
        var1 = float(np.dot(r1, d1 * d1)) / n1
        var2 = float(np.dot(d2, d2) - np.dot(r1, d2 * d2)) / n2
        mu = np.array([mu1, mu2])
        sig = np.maximum(np.sqrt([max(var1, 0.0), max(var2, 0.0)]), SIGMA_FLOOR_REL)
        w = float(np.clip(n1 / x.size, W_FLOOR, 1.0 - W_FLOOR))

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
            direction = sample_direction(100, RngStream(seed, k))
            samples.append(_unit_coordinates(data.points @ direction)[0])
    samples.append(_unit_coordinates(
        sample_mixture(0.0, 6.0, 1.0, 2.0, 0.5, 4_000, seed=11))[0])
    corpus = [(z, start(z)) for z in samples for start in (_mom_start, _quartile_start)]
    outlier = np.append(RngStream(12, 0).generator().standard_normal(1_999), 1e8)
    z = _unit_coordinates(outlier)[0]
    return corpus + [(z, _mom_start(z))]


class TestEMKernel:
    def test_matches_reference_loop(self):
        corpus = _em_corpus()
        fallbacks = sum(init.mu1 == init.mu2 for _, init in corpus)
        assert fallbacks >= 5   # identical-component starts are covered
        for z, init in corpus:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fit_em(z, init)
            want = _reference_em(z, init)
            assert got.iterations == want.iterations
            f, g = got.fitted, want.fitted
            # Unit coordinates put every parameter on a scale of 1, so the
            # absolute part covers means that are 0 up to rounding.
            np.testing.assert_allclose(
                [f.mu1, f.mu2, f.sigma1, f.sigma2, f.w],
                [g.mu1, g.mu2, g.sigma1, g.sigma2, g.w], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.loglik_trace, want.loglik_trace,
                                       rtol=1e-12)

    def test_underflowing_responsibilities_are_exact(self):
        gen = RngStream(13, 0).generator()
        x = np.concatenate([gen.standard_normal(500) - 50.0,
                            gen.standard_normal(1_500) + 50.0])
        init = Mixture1D(-50.0, 50.0, 1.0, 1.0, 0.25)
        lp1 = math.log(0.25) + norm.logpdf(x, -50.0, 1.0)
        lp2 = math.log(0.75) + norm.logpdf(x, 50.0, 1.0)
        assert np.min(np.abs(lp1 - lp2)) > 745.0   # exp(-|d|) underflows to 0
        with warnings.catch_warnings(), np.errstate(
                over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            report = fit_em(x, init)
        # r1 is exactly 1 on the first 500 points and 0 on the rest, so the
        # fitted weight is exactly 500 / 2000.
        assert report.fitted.w == 0.25
        assert np.all(np.isfinite(report.loglik_trace))
        assert report.loglik_trace[0] == pytest.approx(
            float(np.sum(np.logaddexp(lp1, lp2))), rel=1e-12)
        assert report.fitted.mu1 == pytest.approx(float(np.mean(x[:500])), rel=1e-12)
        assert report.fitted.mu2 == pytest.approx(float(np.mean(x[500:])), rel=1e-12)

    def test_emptied_component_keeps_previous_parameters(self):
        x = RngStream(14, 0).generator().standard_normal(1_000)
        init = Mixture1D(-1e3, 0.0, 1.0, 1.0, 0.3)
        report = fit_em(x, init)
        assert report.iterations == 1 and report.loglik_trace.size == 1
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


class TestUnitCoordinates:
    @pytest.mark.parametrize("method", ["mom", "em", "mom+em"])
    def test_constant_samples_floor_at_their_magnitude(self, method):
        fit = fit_mixture(np.full(100, 5.0), method).fitted
        assert fit.mu1 == pytest.approx(5.0) and fit.mu2 == pytest.approx(5.0)
        assert fit.sigma1 == pytest.approx(SIGMA_FLOOR_REL * 5.0)
        assert fit.sigma2 == pytest.approx(SIGMA_FLOOR_REL * 5.0)

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
            g = g.swapped()
        assert g.mu1 == pytest.approx(a * f.mu1 + b, abs=rtol * abs(a) * 4.0)
        assert g.mu2 == pytest.approx(a * f.mu2 + b, abs=rtol * abs(a) * 4.0)
        assert g.sigma1 == pytest.approx(abs(a) * f.sigma1, rel=rtol)
        assert g.sigma2 == pytest.approx(abs(a) * f.sigma2, rel=rtol)
        assert g.w == pytest.approx(f.w, abs=rtol)
        assert bayes_error(g) == pytest.approx(bayes_error(f), rel=rtol)
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
        b = bayes_thresholds(mix.swapped())
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestRegionLabels:
    def test_single_threshold(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5)
        labels = region_component_labels(mix, bayes_thresholds(mix))
        np.testing.assert_array_equal(labels, [0, 1])
        swapped = mix.swapped()
        labels_sw = region_component_labels(swapped, bayes_thresholds(swapped))
        np.testing.assert_array_equal(labels_sw, [1, 0])

    def test_two_thresholds_narrow_wins_middle(self):
        mix = Mixture1D(0.0, 2.0, 1.0, 2.0, 0.5)
        labels = region_component_labels(mix, bayes_thresholds(mix))
        np.testing.assert_array_equal(labels, [1, 0, 1])


class TestBayesError:
    def test_equal_sigma_equal_weight(self):
        assert bayes_error(Mixture1D(0.0, 2.0, 1.0, 1.0, 0.5)) == pytest.approx(
            q_function(1.0), rel=1e-12
        )

    def test_vanishes_for_large_separation(self):
        assert bayes_error(Mixture1D(0.0, 200.0, 1.0, 1.0, 0.5)) < 1e-300

    def test_identical_components_majority_guess(self):
        assert bayes_error(Mixture1D(0.0, 0.0, 1.0, 1.0, 0.3)) == pytest.approx(0.3)
        assert bayes_error(Mixture1D(0.0, 0.0, 1.0, 1.0, 0.5)) == pytest.approx(0.5)

    def test_label_swap_invariance(self):
        for mix in (
            Mixture1D(0.0, 2.0, 1.0, 1.0, 0.25),
            Mixture1D(0.0, 2.0, 1.0, 2.0, 0.3),
        ):
            assert bayes_error(mix) == pytest.approx(
                bayes_error(mix.swapped()), abs=1e-12
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
        regions = region_component_labels(mix, ts)
        idx = np.searchsorted(ts, x, side="right")
        predicted = regions[idx]
        mc_err = float(np.mean(predicted != labels_true))
        expected = bayes_error(mix)
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(mc_err - expected) <= 3 * se

    def test_within_half(self):
        for w in (0.1, 0.3, 0.5):
            for g in (0.01, 0.5, 3.0):
                e = bayes_error(Mixture1D(0.0, 2 * g, 1.0, 1.0, w))
                assert 0.0 <= e <= 0.5


class TestLemma14LowerBounds:
    @pytest.mark.parametrize("w", [0.05, 0.1, 0.2, 0.3, 0.5])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
    def test_grid(self, w, gamma):
        e_opt = bayes_error(Mixture1D(0.0, 2 * gamma, 1.0, 1.0, w))
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
        assert bayes_error(moved) == pytest.approx(bayes_error(base), rel=1e-6)


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


class TestEstimatedSeparabilityBound:
    def test_exact_at_one_eighth(self):
        assert estimated_separability_bound(0.125, 0.0) == pytest.approx(0.5)

    def test_with_epsilon(self):
        assert estimated_separability_bound(0.125, 0.01) == pytest.approx(
            0.5663, abs=1e-4
        )

    def test_zero_limit(self):
        assert estimated_separability_bound(0.0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            estimated_separability_bound(0.5, 0.0)
        with pytest.raises(DomainError):
            estimated_separability_bound(0.4, 0.1)
        with pytest.raises(DomainError):
            estimated_separability_bound(-0.1, 0.0)
