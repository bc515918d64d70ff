"""Hierarchical erasure patterns and the four pattern families.

A pattern is a plain tuple of per-symbol prefix-erasure lengths: entry i
says how many leading base-field coordinates of symbol i are lost.  The
four families:

* full(alpha, m): entries up to alpha, total at most m;
* balanced(alpha): some scale i places at most 2^i symbols, each losing
  at most alpha/2^i coordinates (alpha a power of two);
* power(alpha): lost prefixes are exact dyadic fractions of alpha whose
  fractions sum to one (plus the empty pattern by convention);
* bounded(r): every entry at most r.

Enumeration is lexicographic and restartable, and visits only members:
balanced members by a prefix walk that stops where a prefix leaves the
family, power members as the empty pattern followed by the maxima
below.  ``maximal_patterns``
yields the patterns not dominated componentwise inside their family,
which is all a correctability check ever needs, since erasing less is
easier.  Every family has them in closed form: full(alpha, m) has the
patterns of total exactly min(m, n*alpha); balanced(alpha) has, for
each scale i with 2^i <= n, the value alpha/2^i on exactly 2^i
positions; power(alpha) has every nonzero member, since all of them sum
to exactly alpha; bounded(r) has the one all-r pattern.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import ParameterError, require_int
from .fields import Element, OrderedBasis

ErasurePattern = tuple[int, ...]


def _check_int_fields(fam):
    # a float, string or boolean field would pass comparisons like 4.0 == 4
    # and fail later inside enumeration
    for f in dataclasses.fields(fam):
        require_int(getattr(fam, f.name), f"family {f.name}")


def _check_power_of_two(alpha: int):
    if alpha < 1 or alpha & (alpha - 1):
        raise ParameterError(f"alpha={alpha} must be a power of two")


@dataclass(frozen=True)
class FullFamily:
    """All patterns with entries at most alpha and total at most m."""

    alpha: int
    m: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1 or self.alpha < 0:
            raise ParameterError("need n >= 1 and alpha >= 0")
        if not 0 <= self.m <= self.n * self.alpha:
            raise ParameterError(f"m={self.m} must lie in [0, n*alpha]")


@dataclass(frozen=True)
class BalancedFamily:
    alpha: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1:
            raise ParameterError("need n >= 1")
        _check_power_of_two(self.alpha)

    @property
    def beta(self) -> int:
        return self.alpha.bit_length() - 1


@dataclass(frozen=True)
class PowerFamily:
    alpha: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1:
            raise ParameterError("need n >= 1")
        _check_power_of_two(self.alpha)

    @property
    def beta(self) -> int:
        return self.alpha.bit_length() - 1


@dataclass(frozen=True)
class BoundedFamily:
    """Patterns bounded by r in every coordinate."""

    r: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1 or self.r < 0:
            raise ParameterError("need n >= 1 and r >= 0")
        if self.r >= self.n:
            raise ParameterError(f"bounded family requires r < n, got r={self.r}, n={self.n}")


PatternFamily = Union[FullFamily, BalancedFamily, PowerFamily, BoundedFamily]


def _bounded_sum_tuples(n: int, cap: int, budget: int) -> Iterator[ErasurePattern]:
    # lexicographic tuples with entries <= cap and sum <= budget
    if n == 0:
        yield ()
        return
    for head in range(min(cap, budget) + 1):
        for tail in _bounded_sum_tuples(n - 1, cap, budget - head):
            yield (head,) + tail


def _exact_sum_tuples(n: int, values: Sequence[int], total: int) -> Iterator[ErasurePattern]:
    # lexicographic tuples with entries from ascending ``values`` and sum == total
    if n == 0:
        if total == 0:
            yield ()
        return
    if total > n * values[-1]:
        return
    for head in values:
        if head > total:
            break
        for tail in _exact_sum_tuples(n - 1, values, total - head):
            yield (head,) + tail


def _is_balanced(t: Sequence[int], alpha: int, n: int) -> bool:
    support = sum(1 for v in t if v > 0)
    if support == 0:
        return True
    biggest = max(t)
    beta = alpha.bit_length() - 1
    i_cap = min(beta, n.bit_length() - 1)  # largest i with 2^i <= n
    for i in range(i_cap + 1):
        if support <= (1 << i) and biggest * (1 << i) <= alpha:
            return True
    return False


def _is_power(t: Sequence[int], alpha: int) -> bool:
    nonzero = [v for v in t if v > 0]
    if not nonzero:
        return True
    for v in nonzero:
        if v & (v - 1) or v > alpha:
            return False
    return sum(nonzero) == alpha


def family_contains(fam: PatternFamily, t: Sequence[int]) -> bool:
    """Membership verdict, consistent with enumerate_family."""
    t = tuple(t)
    if len(t) != fam.n:
        raise ParameterError(f"pattern length {len(t)} does not match n={fam.n}")
    if any(v < 0 for v in t):
        return False
    if isinstance(fam, FullFamily):
        return all(v <= fam.alpha for v in t) and sum(t) <= fam.m
    if isinstance(fam, BalancedFamily):
        return all(v <= fam.alpha for v in t) and _is_balanced(t, fam.alpha, fam.n)
    if isinstance(fam, PowerFamily):
        return all(v <= fam.alpha for v in t) and _is_power(t, fam.alpha)
    if isinstance(fam, BoundedFamily):
        return all(v <= fam.r for v in t)
    raise ParameterError(f"unknown family {fam!r}")


def _power_maxima(fam: PowerFamily) -> Iterator[ErasurePattern]:
    powers = [0] + [1 << k for k in range(fam.beta + 1)]
    return _exact_sum_tuples(fam.n, powers, fam.alpha)


def _balanced_members(fam: BalancedFamily, prefix: ErasurePattern) -> Iterator[ErasurePattern]:
    # prefix walk: the family is downward closed, so a prefix extends to a
    # member iff it does with zeros (which change neither the support nor
    # the largest entry), and once prefix + (v,) fails so does every larger v
    if len(prefix) == fam.n:
        yield prefix
        return
    for v in range(fam.alpha + 1):
        head = prefix + (v,)
        if not _is_balanced(head, fam.alpha, fam.n):
            break
        yield from _balanced_members(fam, head)


def enumerate_family(fam: PatternFamily) -> Iterator[ErasurePattern]:
    """Every pattern in the family exactly once, in lexicographic order."""
    if isinstance(fam, FullFamily):
        yield from _bounded_sum_tuples(fam.n, fam.alpha, fam.m)
    elif isinstance(fam, BalancedFamily):
        yield from _balanced_members(fam, ())
    elif isinstance(fam, PowerFamily):
        # the empty pattern, then every member of total exactly alpha
        yield (0,) * fam.n
        yield from _power_maxima(fam)
    elif isinstance(fam, BoundedFamily):
        yield from itertools.product(range(fam.r + 1), repeat=fam.n)
    else:
        raise ParameterError(f"unknown family {fam!r}")


def _balanced_maxima(alpha: int, n: int) -> list[ErasurePattern]:
    # scale i: value alpha >> i on exactly 2^i of the n positions (none when 2^i > n)
    out = []
    for i in range(alpha.bit_length()):
        value = alpha >> i
        for support in itertools.combinations(range(n), 1 << i):
            t = [0] * n
            for j in support:
                t[j] = value
            out.append(tuple(t))
    return sorted(out)


def maximal_patterns(fam: PatternFamily) -> Iterator[ErasurePattern]:
    """Patterns of the family not componentwise dominated within it.

    Every family member lies below some yielded pattern, so a check that
    passes on these passes on the whole family.  Each family's maxima are
    generated directly (see the module notes), in lexicographic order.
    """
    if isinstance(fam, FullFamily):
        yield from _exact_sum_tuples(fam.n, range(fam.alpha + 1), min(fam.m, fam.n * fam.alpha))
    elif isinstance(fam, BoundedFamily):
        yield (fam.r,) * fam.n
    elif isinstance(fam, BalancedFamily):
        yield from _balanced_maxima(fam.alpha, fam.n)
    elif isinstance(fam, PowerFamily):
        yield from _power_maxima(fam)
    else:
        raise ParameterError(f"unknown family {fam!r}")


def hierarchical_weight(word: Sequence[Element], omega: OrderedBasis) -> int:
    """Sum over symbols of the highest nonzero coordinate index (1-based).

    A zero symbol contributes nothing; the word's weight is exactly the
    smallest erasure budget under which it could hide as zero.
    """
    total = 0
    for symbol in word:
        coords = omega.coordinates(symbol)
        for j in range(len(coords) - 1, -1, -1):
            if coords[j]:
                total += j + 1
                break
    return total


def invisible_generators(t: Sequence[int], omega: OrderedBasis) -> list[tuple[Element, ...]]:
    """Spanning words of the space erased to look like zero under pattern t.

    For each position i and each erased coordinate j < t_i, the word with
    basis element omega_j in slot i and zero elsewhere.
    """
    t = tuple(t)
    n = len(t)
    ext = omega.ext
    if any(v < 0 or v > ext.alpha for v in t):
        raise ParameterError(f"pattern {t}: entries must lie in [0, alpha={ext.alpha}]")
    zero = ext.zero()
    out = []
    for i, ti in enumerate(t):
        for j in range(ti):
            word = [zero] * n
            word[i] = omega.elements[j]
            out.append(tuple(word))
    return out


@dataclass(frozen=True)
class ReceivedWord:
    """What the decoder sees: per-slot erasure counts plus the known suffixes.

    ``known[i]`` holds the surviving coordinates of symbol i with respect
    to ``omega``, i.e. coordinates t_i+1 .. alpha in 1-based terms.
    """

    omega: OrderedBasis
    pattern: ErasurePattern
    known: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        alpha = self.omega.ext.alpha
        if len(self.known) != len(self.pattern):
            raise ParameterError("known suffixes do not match the pattern length")
        for ti, suffix in zip(self.pattern, self.known):
            if not 0 <= ti <= alpha:
                raise ParameterError(f"erasure count {ti} out of range")
            if len(suffix) != alpha - ti:
                raise ParameterError("suffix length must be alpha - t_i")


def apply_erasure(word: Sequence[Element], t: Sequence[int], omega: OrderedBasis) -> ReceivedWord:
    """Drop the first t_i coordinates of each symbol, keep the rest exactly."""
    t = tuple(t)
    if len(word) != len(t):
        raise ParameterError("word and pattern lengths differ")
    alpha = omega.ext.alpha
    if any(v < 0 or v > alpha for v in t):
        raise ParameterError(f"pattern {t}: entries must lie in [0, alpha={alpha}]")
    known = tuple(tuple(omega.coordinates(c)[ti:]) for c, ti in zip(word, t))
    return ReceivedWord(omega, t, known)


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"family {what} must be an integer, got {text!r}") from exc


def parse_family(text: str, alpha: int, n: int) -> PatternFamily:
    """Parse a family descriptor: full:m | balanced | power | bounded:r."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "full":
        if not arg:
            raise ParameterError("full family needs a budget, e.g. full:2")
        return FullFamily(alpha, _int_arg(arg, "budget"), n)
    if name == "balanced":
        return BalancedFamily(alpha, n)
    if name == "power":
        return PowerFamily(alpha, n)
    if name == "bounded":
        if not arg:
            raise ParameterError("bounded family needs a radius, e.g. bounded:1")
        return BoundedFamily(_int_arg(arg, "radius"), n)
    raise ParameterError(f"unknown family descriptor {text!r}")
