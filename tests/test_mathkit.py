"""Tail-function accuracy against independent oracles, plus stream checks."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

from projclust.errors import DomainError
from projclust.mathkit import (
    RngStream,
    chi2_lower_tail_exponent,
    chi2_upper_tail_exponent,
    q_function,
    q_inverse,
)


def quad_tail(x: float) -> float:
    """Adaptive-quadrature oracle for the Gaussian upper tail.

    Integrates to 40 (the remaining mass is < 1e-300) so the quadrature
    error estimate stays tight.
    """
    val, err = integrate.quad(
        stats.norm.pdf, x, 42.0, limit=400, epsabs=1e-14, epsrel=1e-13
    )
    assert err < 1e-13
    return val


def bisect_q_inverse(e: float) -> float:
    """Plain bisection oracle, independent of the Newton implementation."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_each(xs) -> np.ndarray:
    """q_function of each element, one float at a time."""
    return np.array([q_function(float(x)) for x in xs])


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x,expected", [(1.49, 0.06811), (3.03, 0.001223)])
    def test_known_values_via_quadrature(self, x, expected):
        oracle = quad_tail(x)
        assert q_function(x) == pytest.approx(oracle, abs=1e-13)
        assert q_function(x) == pytest.approx(expected, abs=5e-6)

    def test_absolute_accuracy_on_grid(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert abs(q_function(float(x)) - quad_tail(float(x))) < 1e-12

    def test_mpmath_oracle_large_arguments(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in [0.5, 2.0, 6.0, 10.0, 20.0, 37.0]:
            exact = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
            got = q_function(x)
            assert abs(got - exact) < 1e-12
            if exact > 0:
                assert got == pytest.approx(exact, rel=1e-12)

    def test_symmetry(self):
        xs = np.linspace(-8.0, 8.0, 81)
        np.testing.assert_allclose(q_each(xs) + q_each(-xs), 1.0, atol=1e-12)

    def test_monotone_decreasing(self):
        # Below about -8.3 the value saturates at 1.0 in float64.
        xs = np.linspace(-8.0, 8.0, 161)
        vals = q_each(xs)
        assert np.all(np.diff(vals) < 0)
        wide = q_each(np.linspace(-12.0, 12.0, 241))
        assert np.all(np.diff(wide) <= 0)

    @pytest.mark.parametrize("bad", [np.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError, match="NaN"):
            q_function(bad)

    @pytest.mark.parametrize("bad", [np.nan])
    def test_nonfinite_float64_scalar_rejected(self, bad):
        with pytest.raises(DomainError, match="NaN"):
            q_function(np.float64(bad))

    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("x, limit", [(math.inf, 0.0), (-math.inf, 1.0)],
                             ids=["inf", "-inf"])
    def test_infinities_give_the_limits(self, x, limit, kind):
        value = q_function(kind(x))
        assert value == limit and type(value) is float


class TestScipyOracle:
    """scipy's erfc and ndtri as oracles for the standard-library Q and Q⁻¹."""

    def test_q_function_matches_scipy_erfc(self):
        xs = np.linspace(-37.0, 37.0, 20_001)
        ref = 0.5 * special.erfc(xs / math.sqrt(2.0))
        keep = ref >= 1e-300
        np.testing.assert_allclose(q_each(xs)[keep], ref[keep], rtol=1e-12, atol=0)

    def test_q_inverse_matches_scipy_ndtri(self):
        lower = np.logspace(-300, math.log10(0.5), 3_001)
        upper = np.append(np.linspace(0.5, 1.0 - 2.0**-53, 3_001)[1:],
                          [0.5 + 2.0**-53, 0.5 + 2.0**-40])
        for e in np.concatenate([lower, upper]):
            ref = -float(special.ndtri(e))
            assert q_inverse(float(e)) == pytest.approx(ref, rel=4e-15, abs=0)

    def test_deep_tail_nonincreasing_then_zero(self):
        # The C library's erfc goes subnormal for x in about [37.5, 38.5]
        # (Q(38) = 2.9e-316 with glibc; scipy's erfc gives 0 there).  From
        # 38.5 on the exact Q is below half the smallest subnormal.
        xs = np.linspace(37.0, 39.0, 2_001)
        vals = q_each(xs)
        assert vals[0] > 0.0
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals[xs >= 38.5] == 0.0)
        assert q_function(38.5) == 0.0 and q_function(40.0) == 0.0


def test_package_import_loads_no_scipy(child_env):
    # numpy is the one runtime dependency; scipy is a test oracle only.
    probe = ("import sys, projclust, projclust.cli; print(sorted(k for k in sys.modules"
             " if k == 'scipy' or k.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=child_env(), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


class TestQInverse:
    def test_half_maps_to_zero(self):
        assert q_inverse(0.5) == 0.0

    def test_known_value_via_bisection(self):
        oracle = bisect_q_inverse(0.05)
        assert q_inverse(0.05) == pytest.approx(oracle, abs=1e-10)
        assert q_inverse(0.05) == pytest.approx(1.6449, abs=1e-4)

    def test_inverse_of_known_tail(self):
        assert q_inverse(q_function(1.49)) == pytest.approx(1.49, abs=1e-10)
        assert q_inverse(0.06811) == pytest.approx(1.49, abs=1e-3)

    def test_roundtrip_on_grid(self):
        # For x < -5.3 the probability sits within an ulp of 1.0, which
        # shifts the recoverable root by ulp/(2*phi(x)); allow for it.
        for x in np.linspace(-6.0, 6.0, 61):
            x = float(x)
            e = q_function(x)
            allowance = 1e-9 + float(np.spacing(e)) / (2.0 * stats.norm.pdf(x))
            assert q_inverse(e) == pytest.approx(x, abs=allowance)

    def test_forward_roundtrip(self):
        for e in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.999]:
            assert q_function(q_inverse(e)) == pytest.approx(e, rel=1e-10)

    def test_extreme_tail(self):
        x = q_inverse(1e-300)
        assert q_function(x) == pytest.approx(1e-300, rel=1e-8)

    def test_roundtrip_in_far_tail_band(self):
        # A Newton/bisection solver once returned roots off by up to 0.8
        # here (round trip off by 2e10 relative) for e in ~[5e-225, 5e-198].
        assert q_inverse(7.3e-225) == pytest.approx(31.991, abs=1e-3)
        for e in np.logspace(-230, -190, 401):
            e = float(e)
            assert q_function(q_inverse(e)) == pytest.approx(e, rel=1e-10)

    def test_half_is_positive_zero(self):
        assert math.copysign(1.0, q_inverse(0.5)) == 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, np.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            q_inverse(bad)


class TestChi2Exponents:
    def test_upper_known_values(self):
        assert chi2_upper_tail_exponent(999, 0.1) == pytest.approx(
            math.exp(-499.5 * (0.1 - math.log(1.1))), rel=1e-14
        )
        assert chi2_upper_tail_exponent(999, 0.1) == pytest.approx(0.0960, abs=2e-4)
        # exp(-5*(1 - ln 2)) = 32 / e^5
        assert chi2_upper_tail_exponent(10, 1.0) == pytest.approx(
            32.0 / math.exp(5.0), rel=1e-14
        )
        assert chi2_upper_tail_exponent(10, 1.0) == pytest.approx(0.21561, abs=1e-5)

    def test_lower_known_values(self):
        assert chi2_lower_tail_exponent(1000, 0.2) == pytest.approx(
            math.exp(500 * (0.2 + math.log(0.8))), rel=1e-14
        )
        assert chi2_lower_tail_exponent(1000, 0.2) == pytest.approx(9.4e-6, abs=2e-7)
        assert chi2_lower_tail_exponent(2, 0.5) == pytest.approx(0.8244, abs=1e-4)

    def test_tau_to_zero_limit(self):
        assert chi2_upper_tail_exponent(50, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert chi2_lower_tail_exponent(50, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_bounds_dominate_exact_tail(self):
        # Analytic cross-check before the Monte Carlo one.
        for dof in (10, 100, 1000):
            for tau in (0.05, 0.1, 0.5):
                exact_upper = stats.chi2.sf(dof * (1 + tau), dof)
                assert exact_upper <= chi2_upper_tail_exponent(dof, tau)
                exact_lower = stats.chi2.cdf(dof * (1 - tau), dof)
                assert exact_lower <= chi2_lower_tail_exponent(dof, tau)

    def test_monte_carlo_dominance(self):
        draws = 1_000_000
        for i, dof in enumerate((10, 100, 1000)):
            gen = RngStream(2024, i).generator()
            samples = gen.chisquare(dof, draws) / dof
            for tau in (0.05, 0.1, 0.5):
                emp_up = float(np.mean(samples >= 1 + tau))
                emp_lo = float(np.mean(samples <= 1 - tau))
                assert emp_up <= chi2_upper_tail_exponent(dof, tau)
                assert emp_lo <= chi2_lower_tail_exponent(dof, tau)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_upper_tail_exponent(0, 0.1)
        with pytest.raises(DomainError):
            chi2_upper_tail_exponent(10, 0.0)
        with pytest.raises(DomainError):
            chi2_lower_tail_exponent(10, 1.0)
        with pytest.raises(DomainError):
            chi2_lower_tail_exponent(10, -0.1)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 0).generator().standard_normal(3)
        b = RngStream(42, 0).generator().standard_normal(3)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(100)
        b = RngStream(42, 1).generator().standard_normal(100)
        assert not np.allclose(a, b)

    def test_streams_uncorrelated(self):
        n = 100_000
        a = RngStream(7, 0).generator().standard_normal(n)
        b = RngStream(7, 1).generator().standard_normal(n)
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 4.0 / math.sqrt(n)

    def test_equidistribution(self):
        u = RngStream(11, 3).generator().random(200_000)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = len(u) / 20
        chi2_stat = float(np.sum((counts - expected) ** 2 / expected))
        # 19 dof; 99.9th percentile is ~43.8
        assert chi2_stat < 43.8
        assert abs(float(np.mean(u)) - 0.5) < 4 * 0.2887 / math.sqrt(len(u))

    def test_derive_seed_deterministic(self):
        s = RngStream(5, 9)
        assert s.derive_seed() == s.derive_seed()
        assert s.derive_seed() != RngStream(5, 10).derive_seed()

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, 2**64)

    @pytest.mark.parametrize("seed", [2.5, math.nan, -1, 2**64, False],
                             ids=["2.5", "nan", "-1", "2**64", "False"])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # A float must not be truncated (2.5 would key the stream as 2), nor
        # a bool, a numbers.Integral, pass as 0 or 1.
        with pytest.raises(DomainError, match="master_seed must be an integer"):
            RngStream(seed, 0)
        with pytest.raises(DomainError, match="stream_index must be an integer"):
            RngStream(0, seed)

    def test_numpy_integer_seed_accepted(self):
        a = RngStream(np.int64(3), np.uint64(1)).generator().standard_normal(8)
        b = RngStream(3, 1).generator().standard_normal(8)
        assert a.tobytes() == b.tobytes()
