"""Normal-tail functions, chi-square tail exponents, and seedable RNG streams.

The Gaussian upper tail

    Q(x) = (1/sqrt(2*pi)) * integral_x^inf exp(-u^2/2) du

is the workhorse of every probability bound in this package.  It is
evaluated through the complementary error function, Q(x) = erfc(x/sqrt(2))/2,
whose implementation switches internally to an asymptotic continued
fraction for large arguments; absolute error stays below 1e-12 over the
full range used by the bound calculators (arguments up to ~40).

Randomness is organised as counter-based streams: a ``(master_seed,
stream_index)`` pair fully determines a sample sequence, independent of
thread scheduling or evaluation order.  Standard normals are drawn with
numpy's ziggurat sampler on top of the Philox counter-based generator;
this choice is fixed because recorded example traces depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Standard normal density phi(x); accepts scalars or arrays."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def q_function(x):
    """Standard normal upper-tail probability Q(x).

    Parameters
    ----------
    x : float or ndarray
        Finite argument(s).

    Returns
    -------
    float or ndarray
        Q(x) in [0, 1], monotone decreasing in x.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_function requires finite input")
    out = 0.5 * special.erfc(arr / _SQRT2)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def q_inverse(e: float) -> float:
    """Inverse of the Gaussian upper tail: the x with Q(x) = e, as
    -ndtri(e), accurate to rounding over the whole of (0, 1)."""
    if not (isinstance(e, (int, float)) and math.isfinite(e)):
        raise DomainError("q_inverse requires a finite probability")
    if not 0.0 < e < 1.0:
        raise DomainError(f"q_inverse requires 0 < e < 1, got {e}")
    return 0.0 - float(special.ndtri(e))


def q_lower_bound(x: float) -> float:
    """Strict lower bound x*phi(x)/(1+x^2) < Q(x), valid for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError("q_lower_bound requires finite input")
    if x <= 0.0:
        raise DomainError(f"q_lower_bound requires x > 0, got {x}")
    return float(x * normal_pdf(x) / (1.0 + x * x))


def chi2_upper_tail_exponent(dof: int, tau: float) -> float:
    """Exponential upper bound on P(chi2_dof / dof >= 1 + tau).

    Returns exp(-(dof/2) * (tau - ln(1 + tau))) for tau > 0.
    """
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"dof must be a positive integer, got {dof}")
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or tau <= 0.0:
        raise DomainError(f"tau must be > 0, got {tau}")
    return math.exp(-0.5 * dof * (tau - math.log1p(tau)))


def chi2_lower_tail_exponent(dof: int, tau: float) -> float:
    """Exponential upper bound on P(chi2_dof / dof <= 1 - tau).

    Returns exp((dof/2) * (tau + ln(1 - tau))) for tau in (0, 1).
    """
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"dof must be a positive integer, got {dof}")
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    return math.exp(0.5 * dof * (tau + math.log1p(-tau)))


@dataclass(frozen=True)
class RngStream:
    """A reproducible, thread-safe random stream.

    Identical ``(master_seed, stream_index)`` pairs reproduce identical
    sample sequences; distinct indices give statistically independent
    streams (Philox keyed on both words).  Instances are immutable value
    objects; call :meth:`generator` to obtain a fresh numpy Generator
    positioned at the start of the stream.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise DomainError("master_seed must fit in 64 unsigned bits")
        if not 0 <= int(self.stream_index) < 2**64:
            raise DomainError("stream_index must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive_seed(self) -> int:
        """First 63-bit draw of this stream, usable as a child master seed."""
        return int(self.generator().integers(0, 2**63, dtype=np.uint64))
