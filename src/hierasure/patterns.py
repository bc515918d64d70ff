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

Each family is a trie of patterns (``family_trie``) whose leaves, in lex
order, the enumerators read and the rank check walks (``modp.walk``).
Every family's trie, members or maxima, is a rule on a small node (the
budget left, the support and largest entry so far, the value still to
place, or none for bounded patterns) and is tabled: each (level, node)
child tuple is made once per trie, and every node kept has a leaf.  An
explicit pattern list is a trie too (``sorted_trie``), over index ranges
of the sorted distinct patterns.
Enumeration visits only members.  ``maximal_patterns`` yields the
patterns not dominated componentwise inside their family, which is all
a correctability check ever needs, since erasing less is easier.  Every
family has them in closed form: full(alpha, m) has the patterns of total
exactly min(m, n*alpha); balanced(alpha) has, for each scale i with
2^i <= n, the value alpha/2^i on exactly 2^i positions; power(alpha)
has every nonzero member, since all of them sum to exactly alpha;
bounded(r) has the one all-r pattern.
"""

from __future__ import annotations

import dataclasses
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


@dataclass(frozen=True)
class PowerFamily:
    alpha: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1:
            raise ParameterError("need n >= 1")
        _check_power_of_two(self.alpha)


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


def _is_balanced(support: int, biggest: int, alpha: int, n: int) -> bool:
    # some scale i with 2^i <= min(alpha, n) holds the support and the largest entry
    for i in range(min(alpha, n).bit_length()):
        if support <= 1 << i and biggest << i <= alpha:
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
        return all(v <= fam.alpha for v in t) and _is_balanced(len(t) - t.count(0), max(t), fam.alpha, fam.n)
    if isinstance(fam, PowerFamily):
        return all(v <= fam.alpha for v in t) and _is_power(t, fam.alpha)
    if isinstance(fam, BoundedFamily):
        return all(v <= fam.r for v in t)
    raise ParameterError(f"unknown family {fam!r}")


def _leaves(children, root, n: int) -> Iterator[ErasurePattern]:
    # depth first, one child iterator per level on the stack
    t = [0] * n
    stack = [iter(children(0, root))]
    while stack:
        i = len(stack) - 1
        for t[i], child in stack[-1]:
            if i + 1 < n:
                stack.append(iter(children(i + 1, child)))
                break
            yield tuple(t)
        else:
            stack.pop()


def _budget_children(n: int, values: Sequence[int], need):
    # node = budget left; a child keeps only a budget the entries below can
    # still spend: need(b) is the fewest nonzero values that sum to b (0
    # when the leaves need not spend it all), so every kept node has a
    # leaf.  Each (level, budget) child tuple is made once per trie
    levels = [{} for _ in range(n)]

    def children(i, left):
        try:
            return levels[i][left]
        except KeyError:
            kids = tuple((v, left - v) for v in values if v <= left and need(left - v) < n - i)
            levels[i][left] = kids
            return kids

    return children


def _balanced_children(fam: BalancedFamily):
    # node = (support, largest entry) of the prefix: the family is downward
    # closed, so a prefix extends to a member iff it does with zeros, which
    # change neither, and once an entry v fails so does every larger v.
    # The children depend on the node alone, and each tuple is made once
    table = {}

    def children(i, node):
        try:
            return table[node]
        except KeyError:
            support, biggest = node
            kids = []
            for v in range(fam.alpha + 1):
                child = (support + (v > 0), max(biggest, v))
                if not _is_balanced(*child, fam.alpha, fam.n):
                    break
                kids.append((v, child))
            kids = table[node] = tuple(kids)
            return kids

    return children


def _balanced_maxima_children(fam: BalancedFamily):
    # node = None before the first nonzero entry, then (value, positions
    # still to take it): scale k puts alpha >> k on exactly 2^k positions.
    # A child keeps only a node the entries below can complete, one to
    # choose a scale for None and `left` for (value, left), so every kept
    # node has a leaf.  Each (level, node) child tuple is made once per trie
    n, alpha = fam.n, fam.alpha
    scales = [(alpha >> k, 1 << k) for k in reversed(range(min(alpha, n).bit_length()))]
    levels = [{} for _ in range(n)]

    def children(i, node):
        try:
            return levels[i][node]
        except KeyError:
            if node is None:
                kids = [(0, None)] + [(v, (v, size - 1)) for v, size in scales]
            else:
                v, left = node
                kids = [(0, node), (v, (v, left - 1))] if left else [(0, node)]
            kids = levels[i][node] = tuple(
                (t, child) for t, child in kids if (1 if child is None else child[1]) < n - i
            )
            return kids

    return children


def sorted_trie(patterns):
    """The trie whose leaves are the given patterns, lex-sorted, each once.

    A node is the index range (lo, hi) of the sorted distinct patterns
    that share its prefix, and ``children(i, node)`` splits that range by
    entry i into a tuple, so reading the whole trie costs O(n * P) for P
    patterns of length n."""
    ts = sorted(set(patterns))

    def children(i, node):
        lo, hi = node
        kids = []
        while lo < hi:
            v, end = ts[lo][i], lo + 1
            while end < hi and ts[end][i] == v:
                end += 1
            kids.append((v, (lo, end)))
            lo = end
        return tuple(kids)

    return children, (0, len(ts))


def family_trie(fam: PatternFamily, all_patterns: bool = False):
    """The family's maximal patterns, or all its members with
    ``all_patterns``, as a trie (children, root): ``children(i, node)``
    returns a tuple of (t_i, child) in ascending t_i, one level per
    symbol, so the leaves come in lex order.  Every trie is tabled: each
    (level, node) child tuple is made on first use and kept for the trie's
    life, and every node it keeps has a leaf.  Full and power patterns
    descend by the budget left, balanced members by the support and
    largest entry so far, balanced maxima by the value still to place and
    on how many positions, and bounded patterns by one constant tuple."""
    n = fam.n
    if isinstance(fam, FullFamily):
        values, alpha = range(fam.alpha + 1), fam.alpha
        if all_patterns:
            return _budget_children(n, values, lambda b: 0), fam.m
        return _budget_children(n, values, lambda b: b and -(-b // alpha)), min(fam.m, n * alpha)
    if isinstance(fam, PowerFamily):
        # powers of two up to alpha, spending alpha exactly: the fewest that
        # sum to b <= alpha are its bits; members add the empty pattern, so
        # a budget still whole need not be spent
        values, alpha = [0] + [1 << k for k in range(fam.alpha.bit_length())], fam.alpha
        if all_patterns:
            return _budget_children(n, values, lambda b: 0 if b == alpha else b.bit_count()), alpha
        return _budget_children(n, values, int.bit_count), alpha
    if isinstance(fam, BalancedFamily):
        if all_patterns:
            return _balanced_children(fam), (0, 0)
        return _balanced_maxima_children(fam), None
    if isinstance(fam, BoundedFamily):
        kids = tuple((v, None) for v in range(fam.r + 1)) if all_patterns else ((fam.r, None),)
        return (lambda i, node: kids), None
    raise ParameterError(f"unknown family {fam!r}")


def enumerate_family(fam: PatternFamily) -> Iterator[ErasurePattern]:
    """Every pattern in the family exactly once, in lexicographic order."""
    yield from _leaves(*family_trie(fam, all_patterns=True), fam.n)


def maximal_patterns(fam: PatternFamily) -> Iterator[ErasurePattern]:
    """Patterns of the family not componentwise dominated within it.

    Every family member lies below some yielded pattern, so a check that
    passes on these passes on the whole family.  Each family's maxima are
    generated directly (see the module notes), in lexicographic order.
    """
    yield from _leaves(*family_trie(fam), fam.n)


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
