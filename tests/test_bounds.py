"""Bound calculators against Q-oracles, algebraic identities and Monte Carlo."""

import json
import math
import re
from functools import partial

import numpy as np
import pytest

from projclust.bounds import (
    BoundReport,
    TAU_GRID,
    error_gap_bound,
    expected_projections_nonspherical,
    expected_projections_spherical,
    hd_bayes_error_bound,
    kgmm_failure_bound,
    kgmm_projection_bound,
    nonspherical_direction_prob,
    sample_size_required,
    spherical_direction_prob,
    sublog_regime_check,
)
from projclust.datagen import make_rank_spec, make_spherical_spec
from projclust.errors import DomainError
from projclust.mathkit import RngStream, chi2_upper_tail_exponent, q_function, q_inverse
from projclust.model import MixtureSpec, to_json


def empirical_direction_prob(gamma, c, p, n_dirs, seed):
    """Monte Carlo estimate of P(projected separation >= gamma) for a
    spherical c-separated pair (chunked for memory)."""
    hits, done, chunk_idx = 0, 0, 0
    while done < n_dirs:
        todo = min(5000, n_dirs - done)
        gen = RngStream(seed, chunk_idx).generator()
        a = gen.standard_normal((todo, p))
        g = c * math.sqrt(p) * np.abs(a[:, 0]) / np.linalg.norm(a, axis=1)
        hits += int(np.sum(g >= gamma))
        done += todo
        chunk_idx += 1
    return hits / n_dirs


class TestHdBayesErrorBound:
    def test_values(self):
        assert hd_bayes_error_bound(1.0, 4).value == pytest.approx(
            q_function(1.0), rel=1e-12
        )
        assert hd_bayes_error_bound(0.0, 50).value == pytest.approx(0.5)
        tiny = hd_bayes_error_bound(1.0, 1000).value
        assert 0.0 <= tiny < 1e-50

    def test_kind_and_citation(self):
        rep = hd_bayes_error_bound(1.0, 4)
        assert rep.kind == "error_upper"
        assert rep.citation == "hd-bayes-error"

    def test_domain(self):
        with pytest.raises(DomainError):
            hd_bayes_error_bound(-0.1, 4)
        with pytest.raises(DomainError):
            hd_bayes_error_bound(1.0, 0)


class TestSphericalDirectionProb:
    def test_reference_value(self):
        # alpha = 1 at p=1000, tau=0.1: 2*Q(sqrt(1.1)) * (1 - exp(-499.5*(0.1-ln 1.1)))
        rep = spherical_direction_prob(1.0, 1.0, 1000, 0.1)
        expected = 2.0 * q_function(math.sqrt(1.1)) * (
            1.0 - chi2_upper_tail_exponent(999, 0.1)
        )
        assert rep.value == pytest.approx(expected, rel=1e-14)
        assert rep.value == pytest.approx(0.2660, abs=2e-4)

    def test_monte_carlo_cross_check(self):
        emp = empirical_direction_prob(1.0, 1.0, 1000, 20_000, seed=40)
        rep = spherical_direction_prob(1.0, 1.0, 1000, 0.1)
        se = math.sqrt(emp * (1 - emp) / 20_000)
        assert rep.value <= emp + 3 * se

    def test_gamma_zero(self):
        rep = spherical_direction_prob(0.0, 1.0, 100_000, 0.1)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_large_p_small_tau_limit(self):
        # Iterated limit: p large enough that p*tau^2 >> 1, then tau small.
        rep = spherical_direction_prob(1.2, 1.0, 10**12, 1e-3)
        assert rep.value == pytest.approx(2.0 * q_function(1.2), rel=2e-3)

    def test_alpha_at_least_p_clamps_to_zero(self):
        rep = spherical_direction_prob(10.0, 1.0, 25, 0.1)
        assert rep.value == 0.0
        assert rep.clamped
        assert "zero" in rep.note

    @pytest.mark.parametrize("tau", [None, 0.1])
    def test_alpha_past_float_range_is_the_zero_limit(self, tau):
        # (gamma/c)**2 overflows; the limit alpha = inf >= p is a zero bound.
        rep = spherical_direction_prob(1e200, 1.0, 10, tau)
        assert rep.inputs["alpha"] == math.inf
        assert (rep.value, rep.note) == (0.0, "alpha >= p: bound degenerates to zero")

    def test_domain(self):
        with pytest.raises(DomainError):
            spherical_direction_prob(1.0, 0.0, 100, 0.1)
        with pytest.raises(DomainError):
            spherical_direction_prob(1.0, 1.0, 100, 0.0)
        with pytest.raises(DomainError):
            spherical_direction_prob(-1.0, 1.0, 100, 0.1)


class TestOptimizeTau:
    """``tau=None`` takes the first tau on TAU_GRID with the largest value."""

    def test_dominates_any_grid_point(self):
        best = spherical_direction_prob(1.0, 1.0, 1000)
        assert best.value >= spherical_direction_prob(1.0, 1.0, 1000, 0.1).value
        assert best.value == max(spherical_direction_prob(1.0, 1.0, 1000, t).value
                                 for t in TAU_GRID)
        assert best.inputs["tau"] in TAU_GRID

    def test_large_p_approaches_limit(self):
        best = spherical_direction_prob(1.0, 1.0, 10**6)
        assert best.value == pytest.approx(2.0 * q_function(1.0), rel=0.01)
        assert best.inputs["tau"] < 0.1

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
    def test_monotone_in_p(self, ratio):
        small = spherical_direction_prob(ratio, 1.0, 100)
        big = spherical_direction_prob(ratio, 1.0, 10_000)
        assert big.value >= small.value

    def test_deterministic(self):
        first = spherical_direction_prob(0.8, 1.0, 500)
        assert first.inputs["tau"] == spherical_direction_prob(0.8, 1.0, 500).inputs["tau"]
        assert len(TAU_GRID) == 64
        # Ties go to the first grid point: every tau gives zero here.
        assert spherical_direction_prob(10.0, 1.0, 25).inputs["tau"] == TAU_GRID[0]


class TestExpectedProjectionsSpherical:
    def test_asymptotic_reference(self):
        rep = expected_projections_spherical(1.49, 1.0)
        assert rep.value == pytest.approx(1.0 / (2.0 * q_function(1.49)), rel=1e-14)
        assert rep.value == pytest.approx(7.3408, abs=1e-3)
        assert rep.kind == "count_upper"

    def test_finite_p_reproduces_worked_example(self):
        rep = expected_projections_spherical(1.49, 1.0, 10_000)
        assert rep.value <= 9.24
        assert rep.value >= 1.0 / (2.0 * q_function(1.49))

    def test_sqrt_log_p_case(self):
        gamma = math.sqrt(math.log(10_000))
        rep = expected_projections_spherical(gamma, 1.0, 10_000)
        assert rep.value <= 10_000

    def test_monotone_in_ratio(self):
        vals = [
            expected_projections_spherical(g, 1.0).value
            for g in (0.5, 1.0, 1.5, 2.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unbounded_flag(self):
        rep = expected_projections_spherical(10.0, 1.0, 25)
        assert math.isinf(rep.value)
        assert "unbounded" in rep.note


class TestSublogRegime:
    def test_boundary_cases_at_p_1e4(self):
        p = 10_000
        # gamma/c = sqrt(ln ln p) = 1.4901... sits on the o(ln p) frontier
        frontier = math.sqrt(math.log(math.log(p)))
        in_lnp, in_p, rep = sublog_regime_check(1.49, 1.0, p, eta=1e-9)
        assert in_lnp and in_p
        assert rep.inputs["o_ln_p_regime"]
        in_lnp2, in_p2, _ = sublog_regime_check(frontier + 0.01, 1.0, p, eta=1e-9)
        assert not in_lnp2 and in_p2

    def test_sqrt_ln_p_only_in_o_p(self):
        in_lnp, in_p, _ = sublog_regime_check(3.03, 1.0, 10_000, eta=1e-9)
        assert not in_lnp and in_p

    def test_gamma_zero_in_both(self):
        in_lnp, in_p, _ = sublog_regime_check(0.0, 1.0, 100, eta=0.5)
        assert in_lnp and in_p

    def test_small_p_rejected(self):
        with pytest.raises(DomainError):
            sublog_regime_check(1.0, 1.0, 2, eta=0.1)


class TestKgmmFailureBound:
    def test_gamma_zero_value(self):
        rep = kgmm_failure_bound(0.0, 1.0, 2, 10_000)
        assert rep.value == pytest.approx(2.0 * math.exp(-20.0), rel=1e-10)
        assert rep.value == pytest.approx(4.12e-9, abs=2e-11)

    def test_reference_value(self):
        rep = kgmm_failure_bound(0.1, 1.0, 2, 10_000)
        arg = 0.1 * math.sqrt(1.1 / (1.0 - 0.01 / 10_000))
        expected = 2.0 * (
            1.0 - 2.0 * q_function(arg) * (1.0 - math.exp(-20.0))
        )
        assert rep.value == pytest.approx(expected, rel=1e-12)
        assert rep.value == pytest.approx(0.168, abs=2e-3)

    def test_pairwise_monte_carlo(self):
        emp_fail = 1.0 - empirical_direction_prob(0.1, 1.0, 10_000, 20_000, seed=41)
        rep = kgmm_failure_bound(0.1, 1.0, 2, 10_000)
        se = math.sqrt(emp_fail * (1 - emp_fail) / 20_000)
        assert emp_fail <= rep.value + 3 * se

    def test_clamped_to_unit(self):
        rep = kgmm_failure_bound(3.0, 1.0, 10, 1000)
        assert rep.value == 1.0
        assert rep.clamped

    def test_domain(self):
        with pytest.raises(DomainError):
            kgmm_failure_bound(0.1, 1.0, 1, 100)
        with pytest.raises(DomainError):
            kgmm_failure_bound(20.0, 1.0, 2, 100)   # ratio^2 >= p


class TestKgmmProjectionBound:
    def test_reference(self):
        rep = kgmm_projection_bound(1.0, 2, 0.5)
        assert rep.value == pytest.approx(2.0)
        assert rep.inputs["gamma_min_threshold"] == pytest.approx(0.2989, abs=2e-4)

    def test_alpha_near_one(self):
        rep = kgmm_projection_bound(1.0, 2, 0.999)
        assert rep.value == pytest.approx(1.001, abs=1e-3)
        assert rep.inputs["gamma_min_threshold"] < 0.001

    def test_k_scaling(self):
        t2 = kgmm_projection_bound(1.0, 2, 0.5).inputs["gamma_min_threshold"]
        t4 = kgmm_projection_bound(1.0, 4, 0.5).inputs["gamma_min_threshold"]
        assert t4 == pytest.approx(t2 / 4.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            kgmm_projection_bound(1.0, 2, 1.0)


def beta_full_rank(spec, gamma):
    """The full-rank beta that a full-mode direction bound reports."""
    return nonspherical_direction_prob(spec, gamma, 0.1).inputs["beta"]


class TestBetaFullRank:
    def test_spherical_reduces_to_alpha(self):
        spec = make_spherical_spec(50, 0.7)
        gamma = 0.9
        assert beta_full_rank(spec, gamma) == pytest.approx(
            (gamma / 0.7) ** 2, rel=1e-12
        )

    def test_gamma_zero(self):
        spec = make_spherical_spec(10, 1.0)
        assert beta_full_rank(spec, 0.0) == 0.0

    def test_quadratic_scaling(self):
        spec = make_spherical_spec(10, 1.0)
        assert beta_full_rank(spec, 2.0) == pytest.approx(
            4.0 * beta_full_rank(spec, 1.0), rel=1e-12
        )

    def test_identical_means_infinite(self):
        spec = MixtureSpec(np.zeros((2, 5)), np.ones((2, 5)), [0.5, 0.5])
        assert math.isinf(beta_full_rank(spec, 1.0))


class TestNonsphericalDirectionProb:
    def test_spherical_identity(self):
        spec = make_spherical_spec(200, 0.8)
        for gamma, tau in ((0.5, 0.1), (1.0, 0.3), (1.4, 1.0)):
            full = nonspherical_direction_prob(spec, gamma, tau).value
            sph = spherical_direction_prob(gamma, 0.8, 200, tau).value
            assert full == pytest.approx(sph, abs=1e-12)

    def test_rank_beta_consistency_as_taus_vanish(self):
        spec, r = make_rank_spec(500, 0.5, 1.0, RngStream(1, 0))
        assert r == 500
        beta_full = beta_full_rank(spec, 1.0)
        rep = nonspherical_direction_prob(
            spec, 1.0, 0.1, mode="rank", tau1=1e-6, tau2=1e-6
        )
        assert rep.inputs["beta"] == pytest.approx(beta_full, rel=1e-5)

    def test_rank_approaches_full_at_scale(self):
        spec, r = make_rank_spec(20_000, 0.5, 1.0, RngStream(2, 0))
        assert r == 20_000
        gamma = 0.45
        full = nonspherical_direction_prob(spec, gamma, 0.3).value
        rank = nonspherical_direction_prob(
            spec, gamma, 0.3, mode="rank", tau1=0.05, tau2=0.05
        ).value
        assert rank == pytest.approx(full, rel=0.15)

    def test_low_rank_beats_full_rank_regime(self):
        # p=1000, rank around 100, 4% prescribed error
        spec, r = make_rank_spec(1000, 0.5, 1.0 / 30.0, RngStream(3, 0))
        assert 90 <= r <= 110
        gamma = q_inverse(0.04)
        full = nonspherical_direction_prob(spec, gamma, 0.1).value
        rank = nonspherical_direction_prob(
            spec, gamma, 0.1, mode="rank", tau1=0.2, tau2=0.5
        ).value
        assert rank > full

    def test_beta_above_p_flags_zero(self):
        spec = make_spherical_spec(10, 0.1)
        rep = nonspherical_direction_prob(spec, 5.0, 0.1)
        assert rep.value == 0.0 and rep.clamped

    @pytest.mark.parametrize("mode", ["full", "rank"])
    def test_zero_notes_name_their_cause(self, mode):
        # Coinciding means (beta = inf) are not blamed on the dimension.
        taus = {"tau1": 0.2, "tau2": 0.5} if mode == "rank" else {}
        equal = MixtureSpec(np.zeros((2, 10)), np.ones((2, 10)), [0.5, 0.5])
        rep = nonspherical_direction_prob(equal, 1.0, 0.1, mode=mode, **taus)
        assert (rep.value, rep.note) == (0.0, "beta is inf: the two means coincide")
        far = nonspherical_direction_prob(
            make_spherical_spec(10, 0.1), 5.0, 0.1, mode=mode, **taus)
        assert (far.value, far.note) == (0.0, "beta >= p: bound degenerates to zero")

    @pytest.mark.parametrize("mode", ["full", "rank"])
    def test_overflowing_beta_is_not_blamed_on_coinciding_means(self, mode):
        taus = {"tau1": 0.2, "tau2": 0.5} if mode == "rank" else {}
        rep = nonspherical_direction_prob(
            make_spherical_spec(10, 1.0), 1e300, 0.1, mode=mode, **taus)
        assert rep.inputs["beta"] == math.inf
        assert (rep.value, rep.note) == (0.0, "beta >= p: bound degenerates to zero")

    def test_rank_mode_requires_taus(self):
        spec = make_spherical_spec(10, 1.0)
        with pytest.raises(DomainError):
            nonspherical_direction_prob(spec, 1.0, 0.1, mode="rank")

    def test_correction_dominated_clamps(self):
        spec, r = make_rank_spec(200, 0.5, 0.035, RngStream(4, 0))
        gamma = q_inverse(0.04)
        rep = nonspherical_direction_prob(
            spec, gamma, 0.1, mode="rank", tau1=0.2, tau2=0.5
        )
        assert rep.value == 0.0 and rep.clamped


class TestExpectedProjectionsNonspherical:
    """The large-p limit and the regime of sqrt(beta) are the spherical
    calculators' at gamma/c = sqrt(beta)."""

    def test_asymptotic_beta_one(self):
        # spherical pair with gamma = c has beta = 1
        spec = make_spherical_spec(100, 1.0)
        beta = beta_full_rank(spec, 1.0)
        assert beta == pytest.approx(1.0, rel=1e-12)
        rep = expected_projections_spherical(math.sqrt(beta), 1.0)
        assert rep.value == pytest.approx(1.0 / (2.0 * q_function(1.0)), rel=1e-12)
        assert rep.value == pytest.approx(3.1515, abs=1e-3)

    def test_beta_zero_gives_one(self):
        spec = make_spherical_spec(100, 1.0)
        beta = beta_full_rank(spec, 0.0)
        assert beta == 0.0
        rep = expected_projections_spherical(math.sqrt(beta), 1.0)
        assert rep.value == 1.0

    def test_spherical_reduction_matches(self):
        spec = make_spherical_spec(300, 0.9)
        a = expected_projections_nonspherical(spec, 0.7)
        b = expected_projections_spherical(0.7, 0.9, 300)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_regime_flag(self):
        spec = make_spherical_spec(10_000, 1.0)
        beta = beta_full_rank(spec, 0.5)
        in_o_ln_p, _, _ = sublog_regime_check(math.sqrt(beta), 1.0, spec.p, eta=0.1)
        assert in_o_ln_p


class TestNonsphericalInputChecks:
    """The nonspherical bounds check their inputs alike in both modes."""

    def test_equal_means_rank_mode_matches_full_mode(self):
        spec = MixtureSpec(np.zeros((2, 5)), np.ones((2, 5)), [0.5, 0.5])
        for mode, taus in (("full", {}), ("rank", {"tau1": 0.2, "tau2": 0.5})):
            prob = nonspherical_direction_prob(spec, 1.0, 0.1, mode=mode, **taus)
            assert prob.value == 0.0 and prob.clamped
            count = expected_projections_nonspherical(spec, 1.0, mode=mode, **taus)
            assert math.isinf(count.value)
            assert count.note == "probability bound is zero: count unbounded"
        assert prob.inputs["r"] == 5

    def test_unknown_mode_is_domain_error(self):
        spec = make_spherical_spec(100, 1.0)
        for taus in ({}, {"tau1": 0.2, "tau2": 0.5}):
            with pytest.raises(DomainError, match="unknown mode"):
                expected_projections_nonspherical(spec, 1.0, mode="bogus", **taus)

    def test_three_components_rejected_in_every_path(self):
        spec = MixtureSpec(
            np.arange(15.0).reshape(3, 5), np.ones((3, 5)), [0.3, 0.3, 0.4]
        )
        for mode in ("full", "rank"):
            with pytest.raises(DomainError, match="two-component"):
                expected_projections_nonspherical(
                    spec, 1.0, mode=mode, tau1=0.2, tau2=0.5,
                )

    @pytest.mark.parametrize("via_count", [False, True])
    @pytest.mark.parametrize("taus", [{"tau1": 0.2}, {"tau2": 0.5}])
    def test_half_given_tau_pair_rejected(self, via_count, taus):
        spec = make_spherical_spec(100, 1.0)
        with pytest.raises(DomainError, match="rank mode requires tau1 and tau2"):
            if via_count:
                expected_projections_nonspherical(spec, 1.0, mode="rank", **taus)
            else:
                nonspherical_direction_prob(spec, 1.0, 0.1, mode="rank", **taus)

    def test_rank_mode_without_taus_is_domain_error(self):
        spec, _ = make_rank_spec(200, 0.5, 0.335, RngStream(0, 42))
        with pytest.raises(DomainError, match="rank mode requires tau1 and tau2"):
            expected_projections_nonspherical(spec, 1.0, mode="rank")

    def test_negative_gamma_rejected_in_every_path(self):
        spec = make_spherical_spec(100, 1.0)
        for mode in ("full", "rank"):
            with pytest.raises(DomainError, match="gamma must be nonnegative"):
                expected_projections_nonspherical(
                    spec, -1.0, mode=mode, tau1=0.2, tau2=0.5,
                )

    def test_nan_gamma_rejected_up_front(self):
        # A NaN gamma once gave a nan beta, an unrelated q_function error
        # or an unbounded count, depending on the path.
        spec = make_spherical_spec(50, 1.0)
        nan, taus = math.nan, {"tau1": 0.2, "tau2": 0.5}
        calls = [
            partial(spherical_direction_prob, nan, 1.0, 50, 0.1),
            partial(expected_projections_spherical, nan, 1.0),
            partial(expected_projections_spherical, nan, 1.0, 50),
            partial(sublog_regime_check, nan, 1.0, 50, 0.1),
        ]
        for mode in ("full", "rank"):
            calls.append(partial(nonspherical_direction_prob, spec, nan, 0.1,
                                 mode=mode, **taus))
            calls.append(partial(expected_projections_nonspherical, spec, nan,
                                 mode=mode, **taus))
        for call in calls:
            with pytest.raises(DomainError, match="gamma must be nonnegative"):
                call()


class TestSampleSizeRequired:
    def test_reference(self):
        # ceil(64/0.01 * ln 20) = ceil(19172.69) = 19173
        assert sample_size_required(0.1, 0.05, 1.0).value == 19173

    def test_gamma_term_dominates(self):
        assert sample_size_required(0.5, 0.5, 0.25).value == 4096

    def test_epsilon_scaling(self):
        big = sample_size_required(0.05, 0.05, 1.0).value
        small = sample_size_required(0.1, 0.05, 1.0).value
        assert big == pytest.approx(4 * small, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_size_required(0.0, 0.05, 1.0)
        with pytest.raises(DomainError):
            sample_size_required(0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            sample_size_required(0.1, 0.05, 0.0)
        with pytest.raises(DomainError, match="gamma_min must be positive"):
            sample_size_required(0.1, 0.05, math.nan)

    @pytest.mark.parametrize("epsilon, delta, gamma_min, term", [
        (0.1, 0.05, 1e-30, "1/(2*gamma_min)^12"),      # (2*gamma_min)^12 underflows
        (1e-200, 0.05, 1.0, "C/eps^2 * ln(1/delta)"),  # eps^2 underflows
        (0.1, 0.05, 1e-26, "1/(2*gamma_min)^12"),      # the quotient overflows
        (0.1, 1e-320, 1.0, "C/eps^2 * ln(1/delta)"),   # 1/delta overflows
    ])
    def test_term_past_float_range_names_it(self, epsilon, delta, gamma_min, term):
        with pytest.raises(DomainError, match=re.escape(f"{term} is not a finite float")):
            sample_size_required(epsilon, delta, gamma_min)

    def test_large_gamma_min_leaves_the_epsilon_term(self):
        # (2*gamma_min)^12 overflows here, but the term it divides is below 1.
        assert sample_size_required(0.1, 0.05, 1e200).value == 19173


class TestErrorGapBound:
    def test_reference_value(self):
        rep = error_gap_bound(1.0, 1.0, 0.5, 0.01)
        # coefficient sum: 2 + 2 + 0 + 8 + 32 = 44; Q(25) is negligible
        assert rep.value == pytest.approx(0.44, abs=1e-9)

    def test_vanishes_with_epsilon(self):
        assert error_gap_bound(1.0, 1.0, 0.5, 1e-8).value < 1e-6

    def test_monotone_in_epsilon(self):
        vals = [
            error_gap_bound(1.0, 1.0, 0.5, eps).value
            for eps in (0.001, 0.002, 0.005, 0.01)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_precondition_violation_names_inequality(self):
        with pytest.raises(DomainError, match="16\\*gamma_max"):
            error_gap_bound(1.0, 3.0, 0.1, 0.2)


class TestBoundReportValidation:
    def test_probability_range_enforced(self):
        with pytest.raises(DomainError):
            BoundReport(1.5, "probability_lower", {}, "x")
        with pytest.raises(DomainError):
            BoundReport(0.5, "count_upper", {}, "x")

    def test_jsonable_carries_citation(self):
        rep = hd_bayes_error_bound(1.0, 4)
        obj = json.loads(to_json(rep))
        assert obj["citation"] == "hd-bayes-error"
        assert obj["inputs"] == {"c": 1.0, "p": 4}


class TestLowerBoundsAgainstMonteCarlo:
    @pytest.mark.parametrize("p", [100, 1000])
    def test_grid(self, p):
        n_dirs = 20_000
        for ratio in (0.25, 0.5, 1.0, 1.5, 2.0):
            emp = empirical_direction_prob(ratio, 1.0, p, n_dirs, seed=50 + p)
            rep = spherical_direction_prob(ratio, 1.0, p)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n_dirs)
            assert rep.value <= emp + 3 * se

    @pytest.mark.parametrize("p", [100, 1000])
    def test_pairwise_failure_bound_dominates(self, p):
        n_dirs = 20_000
        for ratio in (0.25, 0.5, 1.0, 1.5, 2.0):
            emp_fail = 1.0 - empirical_direction_prob(
                ratio, 1.0, p, n_dirs, seed=60 + p
            )
            rep = kgmm_failure_bound(ratio, 1.0, 2, p)
            se = math.sqrt(max(emp_fail * (1 - emp_fail), 1e-12) / n_dirs)
            assert emp_fail <= rep.value + 3 * se
