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
Membership is the trie too: ``family_contains`` follows a pattern down
the members' trie.
Every family's trie, members or maxima, is a rule on a small node (the
budget left, the support and largest entry so far, the value still to
place, or none for bounded patterns) and is tabled: each (level, node)
child tuple is made once per trie, and every node kept has a leaf.  A
child may be the end marker ``None`` instead of a node: every deeper
entry is 0, so its prefix padded with zeros is the one leaf below it and
no reader descends further.  The budget tries end a path where the budget
is spent and the balanced maxima where no position is left to fill, so a
pattern that spends its budget early costs the levels up to its last
nonzero entry, not n.  An explicit pattern list is a trie too
(``sorted_trie``), over index ranges of the sorted distinct patterns, and
has no end marker.
Enumeration visits only members.  ``maximal_patterns`` yields the
patterns not dominated componentwise inside their family, which is all
a correctability check ever needs, since erasing less is easier.  Every
family has them in closed form: full(alpha, m) has the patterns of total
exactly min(m, n*alpha); balanced(alpha) has, for each scale i with
2^i <= n, the value alpha/2^i on exactly 2^i positions; power(alpha)
has every nonzero member, since all of them sum to exactly alpha;
bounded(r) has the one all-r pattern.

This module is the one place that knows the family set: each family
class names its ``kind``, ``FAMILIES`` maps kinds to classes for the
JSON loader and ``parse_family``, and ``check_fits`` holds the rule for
which families a code can be checked against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
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

    kind = "full"
    argument = ("m", "budget")  # the descriptor full:m
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
    kind = "balanced"
    argument = None
    alpha: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1:
            raise ParameterError("need n >= 1")
        _check_power_of_two(self.alpha)


@dataclass(frozen=True)
class PowerFamily:
    kind = "power"
    argument = None
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

    kind = "bounded"
    argument = ("r", "radius")  # the descriptor bounded:r
    r: int
    n: int

    def __post_init__(self):
        _check_int_fields(self)
        if self.n < 1 or self.r < 0:
            raise ParameterError("need n >= 1 and r >= 0")
        if self.r >= self.n:
            raise ParameterError(f"bounded family requires r < n, got r={self.r}, n={self.n}")


PatternFamily = Union[FullFamily, BalancedFamily, PowerFamily, BoundedFamily]

FAMILIES = {cls.kind: cls for cls in (FullFamily, BalancedFamily, PowerFamily, BoundedFamily)}


def family_of_kind(kind, values) -> PatternFamily:
    """The family ``FAMILIES`` names by kind, its dataclass fields read
    from the mapping values (other keys are ignored)."""
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParameterError(f"unknown family kind {kind!r}")
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)})


def check_fits(fam: PatternFamily, n: int, alpha: int):
    """Raise unless the family's patterns are patterns of a length-n code
    over an extension of degree alpha: the family's alpha is that degree,
    or a bounded family's radius is at most it."""
    if fam.n != n:
        raise ParameterError("family length does not match the code length")
    if isinstance(fam, BoundedFamily):
        if fam.r > alpha:
            raise ParameterError("bounded family radius exceeds alpha")
    elif fam.alpha != alpha:
        raise ParameterError("family alpha does not match the code's extension degree")


def check_pattern(t: Sequence[int], alpha: int) -> ErasurePattern:
    """t as a tuple, whose entries must lie in [0, alpha]."""
    t = tuple(t)
    if any(v < 0 or v > alpha for v in t):
        raise ParameterError(f"pattern {t}: entries must lie in [0, alpha={alpha}]")
    return t


def _is_balanced(support: int, biggest: int, alpha: int, n: int) -> bool:
    # some scale i with 2^i <= min(alpha, n) holds the support and the largest entry
    for i in range(min(alpha, n).bit_length()):
        if support <= 1 << i and biggest << i <= alpha:
            return True
    return False


def _leaves(children, root, n: int) -> Iterator[ErasurePattern]:
    # depth first, one child iterator per level on the stack; entries below
    # the top level are 0, since a level is zeroed as it is popped, so an
    # end marker's leaf is t as it stands
    t = [0] * n
    stack = [iter(children(0, root))]
    while stack:
        i = len(stack) - 1
        for t[i], child in stack[-1]:
            if child is None or i + 1 == n:
                yield tuple(t)
            else:
                stack.append(iter(children(i + 1, child)))
                break
        else:
            t[i] = 0
            stack.pop()


def _budget_children(n: int, values: Sequence[int], need):
    # node = budget left; a child keeps only a budget the entries below can
    # still spend: need(b) is the fewest nonzero values that sum to b (0
    # when the leaves need not spend it all), so every kept node has a
    # leaf.  A spent budget is the end marker: the entries below are all 0.
    # Each (level, budget) child tuple is made once per trie
    levels = [{} for _ in range(n)]

    def children(i, left):
        try:
            return levels[i][left]
        except KeyError:
            kids = tuple(
                (v, left - v or None) for v in values if v <= left and need(left - v) < n - i
            )
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
    # node = () before the first nonzero entry, then (value, positions
    # still to take it): scale k puts alpha >> k on exactly 2^k positions,
    # and where none are left the child is the end marker.  A child keeps
    # only a node the entries below can complete, one to choose a scale
    # for () and `left` for (value, left), so every kept node has a leaf.
    # Each (level, node) child tuple is made once per trie
    n, alpha = fam.n, fam.alpha
    scales = [(alpha >> k, 1 << k) for k in reversed(range(min(alpha, n).bit_length()))]
    levels = [{} for _ in range(n)]

    def children(i, node):
        try:
            return levels[i][node]
        except KeyError:
            # (t_i, child, positions the entries below must fill)
            if node:
                v, left = node
                kids = [(0, node, left), (v, (v, left - 1) if left > 1 else None, left - 1)]
            else:
                kids = [(0, node, 1)]
                kids += [(v, (v, size - 1) if size > 1 else None, size - 1) for v, size in scales]
            kids = levels[i][node] = tuple((t, child) for t, child, need in kids if need < n - i)
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
    life, and every node it keeps has a leaf.  A child ``None`` is the end
    marker: every deeper entry is 0, the prefix padded with zeros is a
    leaf, and ``children`` is not called below it.  Full and power patterns
    descend by the budget left and end where it is spent, balanced members
    by the support and largest entry so far, balanced maxima by the value
    still to place and on how many positions, ending where none are left,
    and bounded patterns by one constant tuple."""
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
        return _balanced_maxima_children(fam), ()
    if isinstance(fam, BoundedFamily):
        kids = tuple((v, ()) for v in range(fam.r + 1)) if all_patterns else ((fam.r, ()),)
        return (lambda i, node: kids), ()
    raise ParameterError(f"unknown family {fam!r}")


@lru_cache(maxsize=16)
def _members_trie(fam: PatternFamily):
    # families are frozen and hashable, so one tabled members trie serves
    # every membership call on an equal family
    return family_trie(fam, all_patterns=True)


def family_contains(fam: PatternFamily, t: Sequence[int]) -> bool:
    """Membership verdict: t is a leaf of the family's members trie, one
    kept per family value for the last few families asked about.  Past an
    end marker every entry must be 0."""
    t = tuple(t)
    if len(t) != fam.n:
        raise ParameterError(f"pattern length {len(t)} does not match n={fam.n}")
    children, node = _members_trie(fam)
    for i, v in enumerate(t):
        if node is None:
            return not any(t[i:])
        for value, child in children(i, node):
            if value == v:
                node = child
                break
        else:
            return False
    return True


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
    ext = omega.ext
    t = check_pattern(t, ext.alpha)
    n = len(t)
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
        for ti, suffix in zip(check_pattern(self.pattern, alpha), self.known):
            if len(suffix) != alpha - ti:
                raise ParameterError("suffix length must be alpha - t_i")


def apply_erasure(word: Sequence[Element], t: Sequence[int], omega: OrderedBasis) -> ReceivedWord:
    """Drop the first t_i coordinates of each symbol, keep the rest exactly."""
    t = tuple(t)
    if len(word) != len(t):
        raise ParameterError("word and pattern lengths differ")
    # ReceivedWord checks that each ti lies in [0, alpha]
    known = tuple(tuple(omega.coordinates(c)[ti:]) for c, ti in zip(word, t))
    return ReceivedWord(omega, t, known)


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"family {what} must be an integer, got {text!r}") from exc


def parse_family(text: str, alpha: int, n: int) -> PatternFamily:
    """Parse a family descriptor: full:m | balanced | power | bounded:r."""
    name, sep, arg = text.partition(":")
    cls = FAMILIES.get(name.strip().lower())
    if cls is None:
        raise ParameterError(f"unknown family descriptor {text!r}")
    values = {"alpha": alpha, "n": n}
    if cls.argument:
        field, what = cls.argument
        if not arg:
            raise ParameterError(f"{cls.kind} family needs a {what}, e.g. {cls.kind}:1")
        values[field] = _int_arg(arg, what)
    elif sep:
        raise ParameterError(f"{cls.kind} family takes no argument, got {text!r}")
    return family_of_kind(cls.kind, values)
