"""Normal-tail functions, chi-square tail exponents, and seedable RNG streams.

The Gaussian upper tail

    Q(x) = (1/sqrt(2*pi)) * integral_x^inf exp(-u^2/2) du

is the workhorse of every probability bound in this package.  It is
evaluated as Q(x) = erfc(x/sqrt(2))/2 with the C library's ``erfc``
(``math.erfc``), accurate to about 2e-13 relative wherever Q is a normal
float; its last bits therefore follow the platform's libm.  Its inverse
is the standard library's ``NormalDist.inv_cdf`` (Wichura's AS 241).

Randomness is organised as counter-based streams: a ``(master_seed,
stream_index)`` pair fully determines a sample sequence, independent of
thread scheduling or evaluation order.  Standard normals are drawn with
numpy's ziggurat sampler on top of the Philox counter-based generator;
this choice is fixed because recorded example traces depend on it.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = statistics.NormalDist()


def q_function(x: float) -> float:
    """Standard normal upper-tail probability Q(x) = erfc(x/sqrt(2))/2 of one
    finite float, nonincreasing in x (with glibc, subnormal for x in about
    [37.5, 38.5] and exactly 0 from 38.5 on)."""
    if not math.isfinite(x):
        raise DomainError("q_function requires finite input")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(e: float) -> float:
    """Inverse of the Gaussian upper tail: the x with Q(x) = e, as
    -NormalDist().inv_cdf(e), accurate to rounding over the whole of (0, 1);
    q_inverse(0.5) is +0.0."""
    if not (isinstance(e, (int, float)) and math.isfinite(e)):
        raise DomainError("q_inverse requires a finite probability")
    if not 0.0 < e < 1.0:
        raise DomainError(f"q_inverse requires 0 < e < 1, got {e}")
    return 0.0 - _STD_NORMAL.inv_cdf(e)


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


def check_seed(value, name: str = "seed") -> None:
    """Raise DomainError unless ``value`` is an integer (numpy's included,
    ``bool`` not) in [0, 2**64), the range of one Philox key word."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and 0 <= int(value) < 2**64):
        raise DomainError(f"{name} must be an integer in [0, 2**64), got {value!r}")


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
        check_seed(self.master_seed, "master_seed")
        check_seed(self.stream_index, "stream_index")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive_seed(self) -> int:
        """First 63-bit draw of this stream, usable as a child master seed."""
        return int(self.generator().integers(0, 2**63, dtype=np.uint64))


def stream_generators(master_seed: int):
    """Return ``at(i)``: the bits of ``RngStream(master_seed, i).generator()``
    from one shared Philox, re-keyed to [master_seed, i] at counter 0 for
    a quarter of the cost of a new one, so each result lasts until the next
    call."""
    key = np.array([RngStream(master_seed).master_seed, 0], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    start = bits.state
    gen = np.random.Generator(bits)

    def at(stream_index: int) -> np.random.Generator:
        start["state"]["key"][1] = stream_index
        bits.state = start
        return gen

    return at
