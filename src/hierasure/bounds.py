"""Numeric side of the story: impossibility checks and existence thresholds.

Everything integer is exact (arbitrary precision); the only floating
point lives in the asymptotic limits, which also carry their closed form
as a string so the number is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, log2

from .errors import ParameterError
from .fields import prime_factors


def is_prime_power(v: int) -> bool:
    """True when v = p^k for a prime p and k >= 1: v has one prime factor."""
    return len(list(islice(prime_factors(v), 2))) == 1


@dataclass(frozen=True)
class SingletonReport:
    m_prime: int
    ok: bool


def singleton_check(n: int, k: int, m: int, alpha: int) -> SingletonReport:
    """Whole-symbol erasure capacity floor(m/alpha) against the n-k ceiling."""
    if min(n, k, alpha) < 1 or m < 0:
        raise ParameterError("parameters must be positive (m may be zero)")
    if k > n:
        raise ParameterError("need k <= n")
    m_prime = m // alpha
    return SingletonReport(m_prime, m_prime <= n - k)


@dataclass(frozen=True)
class GvThreshold:
    """Existence threshold: any prime power q with q**exponent_den > base works."""

    base: int
    exponent_den: int
    q_min: int


def gv_existence_base(n: int, m: int) -> int:
    """B = (m + 1) * C(m + n - 2, n - 2): a code from the greedy
    construction exists when q**(alpha*(r-1) - m) > B."""
    return (m + 1) * comb(m + n - 2, n - 2)


def gv_field_threshold(n: int, m: int, alpha: int, r: int) -> GvThreshold:
    """Smallest prime power beyond the greedy-construction existence bound.

    The comparison is q**D > B in integers, never a real root, so there is
    no rounding to get wrong.
    """
    if n < 2 or alpha < 1 or r < 1 or m < 0:
        raise ParameterError("need n >= 2, alpha >= 1, r >= 1, m >= 0")
    exponent_den = alpha * (r - 1) - m
    if exponent_den <= 0:
        raise ParameterError(f"need m < alpha*(r-1) = {alpha * (r - 1)}")
    base = gv_existence_base(n, m)
    q = 2
    while not (is_prime_power(q) and q**exponent_den > base):
        q += 1
    return GvThreshold(base, exponent_den, q)


@dataclass(frozen=True)
class ExcludedColumnsBound:
    """Upper bounds on how many candidate columns the greedy step must avoid."""

    loose: int
    tight: int


def excluded_columns_bound(n: int, m: int, alpha: int, q: int) -> ExcludedColumnsBound:
    if n < 2 or alpha < 1 or q < 2 or m < 0:
        raise ParameterError("need n >= 2, alpha >= 1, q >= 2, m >= 0")
    loose = (m + 1) * q ** (alpha + m) * comb(m + n - 2, n - 2)
    tight = q**alpha * sum(q**i * comb(i + n - 2, n - 2) for i in range(m + 1))
    return ExcludedColumnsBound(loose, tight)


def binary_entropy(x: float) -> float:
    if x < 0 or x > 1:
        raise ParameterError("entropy argument must lie in [0, 1]")
    if x in (0, 1):
        return 0.0
    return -x * log2(x) - (1 - x) * log2(1 - x)


@dataclass(frozen=True)
class AsymptoticLimit:
    value: float
    closed_form: str


def asymptotic_field_size(regime: str, c1, c2) -> AsymptoticLimit:
    """Limit of the existence threshold in the two scaling regimes.

    With the erasure budget and check surplus both proportional to the
    blowing-up parameter: growing alpha drives the required field size to
    1; growing n drives it to 2 raised to a scaled binary entropy.
    """
    c1, c2 = Fraction(c1), Fraction(c2)
    if c1 < 0 or c2 <= 0:
        raise ParameterError("need c1 >= 0 and c2 > 0")
    if regime == "alpha_large":
        return AsymptoticLimit(1.0, "1")
    if regime == "n_large":
        x = Fraction(1, 1) / (1 + c1)
        h = binary_entropy(float(x))
        value = 2 ** (float((1 + c1) / c2) * h)
        form = f"2^((1+{c1})/{c2} * H(1/(1+{c1})))"
        return AsymptoticLimit(value, form)
    raise ParameterError(f"unknown regime {regime!r}; use alpha_large or n_large")
