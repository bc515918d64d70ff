"""Ground truth for erasure correction: intersection tests and the decoder.

A code corrects a pattern t exactly when no nonzero codeword is erased to
look like zero under t.  That intersection test linearizes over the base
field: H applied to each invisible generator, written as prime-field
digits, forms a column, and t is correctable iff those columns are
independent.  The columns are a prefix of each symbol's block of the
code's stored expansion (``LinearCode.block``), packed one column per int,
so a family is checked by small eliminations over Z/p on one depth-first
walk down its pattern trie (``modp.walk``, shared with UDM verification).

The rows of those columns are power digits of the products, not their
coordinates over omega.  Every row spelling that is an invertible F_p map
of the coordinates, applied to all columns alike, gives the same answers
here: a set of columns is independent, has its first kernel vector, or
solves a system with a right-hand side made of the same columns, in one
spelling exactly when it does in the other, with the same coefficients.
Those coefficients are coordinates over omega.  Only ``pattern_system``,
a view for inspection, maps the rows back to coordinates.

A witness is the first kernel vector of the pattern's erased columns,
taken untagged from the blocks (``modp.kernel`` tags them one lane per
erased column): its coefficients are the coordinate digits over omega of
the erased symbols, made into codeword symbols by
``OrderedBasis.from_coordinate_digits``.  So a refutation holds state of
the size of its pattern beside the blocks the walk reads, and never
builds the decoder's tagged columns.

The decoder reads the coefficients out through the code's tag lanes
instead (``LinearCode.decode_columns``): column k of symbol i carries
the power digits of w_k = omega_j * x^d in symbol i's group of alpha * e
tag lanes.  Any combination of tagged columns then carries, in its
tags, the power digits of the word whose coordinate digits are its
coefficients; elimination is linear mod p and treats tag lanes like any
other, so the tags survive every reduction.  A decode reduces the known
digits times their tagged columns against the pattern's plan
(``LinearCode.decode_plan``), the echelon of its erased tagged columns,
built once per code and pattern; the tags left are the power digits of
the whole codeword, with no solve and no basis conversion (see
``decode``).  The code lays out the tags and reads them back
(``LinearCode.read_tags``); this module reads none of them itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, modp
from .codes import LinearCode
from .errors import ParameterError
from .fields import Element
from .patterns import (
    ErasurePattern,
    PatternFamily,
    ReceivedWord,
    check_fits,
    check_pattern,
    family_trie,
    sorted_trie,
)


@dataclass(frozen=True)
class ExpandedSystem:
    """Base-field linearization of H restricted to one erasure pattern.

    Column (i, j) is the stacked coordinate vector of H applied to the
    word carrying basis element j in slot i; labels give that (symbol,
    coordinate) pair per column, 0-based with j < t_i.
    """

    matrix: tuple[tuple[Element, ...], ...]
    labels: tuple[tuple[int, int], ...]


def _checked_pattern(code: LinearCode, t) -> tuple[int, ...]:
    t = tuple(t)
    if len(t) != code.n:
        raise ParameterError("pattern length does not match the code length")
    return check_pattern(t, code.ext.alpha)


def pattern_system(code: LinearCode, t) -> ExpandedSystem:
    """The pattern's expanded system as base-field Element entries.

    A view of the code's stored expansion, for inspection; the oracle and
    the decoder work on the packed columns directly.  The stored rows are
    power digits, so the view maps each entry back to its coordinates
    over omega (``OrderedBasis.coordinate_digits``).
    """
    t = _checked_pattern(code, t)
    ext, omega = code.ext, code.omega
    base = ext.base
    e = base.e
    n = ext.alpha * e
    labels = [(i, j) for i, ti in enumerate(t) for j in range(ti)]
    cols = []
    for i, j in labels:
        # digit 0 of coordinate j is H[:, i] * omega_j itself
        digits = code.layout.digits(code.block(i)[j * e])
        cols.append([
            d
            for row in range(code.r)
            for d in omega.coordinate_digits(
                Element(ext, tuple(digits[row * n : (row + 1) * n]))
            )
        ])
    matrix = tuple(
        tuple(Element(base, tuple(col[k * e : (k + 1) * e])) for col in cols)
        for k in range(ext.alpha * code.r)
    )
    return ExpandedSystem(matrix, tuple(labels))


def pattern_correctable(code: LinearCode, t) -> bool:
    """True iff no nonzero codeword is invisible under pattern t."""
    return patterns_correctable(code, [t])[0]


def patterns_correctable(code: LinearCode, patterns) -> list[bool]:
    """``pattern_correctable`` of each pattern, in the order given, from
    one walk over the distinct patterns in lex order."""
    ts = [_checked_pattern(code, t) for t in patterns]
    blocks = [code.block(i) if any(t[i] for t in ts) else () for i in range(code.n)]
    bad = set(modp.walk(blocks, *sorted_trie(ts), code.ext.base.e, code.layout))
    return [t not in bad for t in ts]


@dataclass(frozen=True)
class CorrectabilityReport:
    correcting: bool
    pattern: ErasurePattern | None = None
    witness: tuple[Element, ...] | None = None


def _pattern_witness(code: LinearCode, t) -> tuple[Element, ...]:
    """The nonzero codeword invisible under t given by the first kernel vector.

    That vector is the first of the canonical kernel basis of the pattern's
    system over F_q, and it is the prime-field dependency of the erased
    columns written digit by digit: a column outside the F_q span of the
    earlier ones raises the F_p rank by a full e, so the first dependent
    F_p column is digit 0 of the first dependent F_q column, and the F_p
    coefficients on each independent earlier block are the e digits of
    its unique F_q coefficient.  ``modp.kernel`` of the erased columns,
    untagged, in blocks of e, gives those coefficients; they are the
    coordinate digits over omega of each symbol's erased coordinates, and
    every other coordinate is 0.
    """
    e = code.ext.base.e
    erased = [v for i, ti in enumerate(t) if ti for v in code.block(i)[: ti * e]]
    x = next((v for v in modp.kernel(erased, code.layout, e) if v is not None), None)
    if x is None:
        raise ParameterError(f"pattern {t} is correctable; no witness exists")
    ext, omega = code.ext, code.omega
    pad = ext.alpha * e
    word, at = [], 0
    for ti in t:
        if ti:
            word.append(omega.from_coordinate_digits(x[at : at + ti * e] + [0] * (pad - ti * e)))
            at += ti * e
        else:
            word.append(ext.zero())
    return tuple(word)


def is_correcting(
    code: LinearCode,
    fam: PatternFamily,
    all_patterns: bool = False,
) -> CorrectabilityReport:
    """Check the whole family; on failure report the first bad pattern.

    Dominated patterns are skipped unless ``all_patterns`` is set, which
    forces a full-family audit.
    """
    check_fits(fam, code.n, code.ext.alpha)
    trie = family_trie(fam, all_patterns)
    blocks = [code.block(i) for i in range(code.n)]
    t = next(modp.walk(blocks, *trie, code.ext.base.e, code.layout), None)
    if t is None:
        return CorrectabilityReport(True)
    return CorrectabilityReport(False, t, _pattern_witness(code, t))


def kernel_basis(code: LinearCode) -> list[tuple[Element, ...]]:
    """A basis of the code itself (the right kernel of H over the extension)."""
    vecs = linalg.right_kernel([list(r) for r in code.H], code.n, code.ext)
    return [tuple(v) for v in vecs]


@dataclass(frozen=True)
class DecodeResult:
    """Decoder outcome.

    ``status`` is "decoded", "ambiguous" (the erased coordinates are
    under-determined; dimension in ``solution_space_dim``) or
    "inconsistent" (the received word is not an erased codeword).
    """

    status: str
    codeword: tuple[Element, ...] | None = None
    solution_space_dim: int = 0


def decode(code: LinearCode, received: ReceivedWord) -> DecodeResult:
    """Fill in the erased leading coordinates of an erased codeword.

    The right-hand side is the known digits, zeros included, times their
    tagged columns, the plan's ``known`` list (``LinearCode.decode_plan``),
    in one packed combination: the code's lanes hold n * alpha * e terms,
    one per known digit a word can have, so it is one sum, normalized
    once (``LinearCode.layout``).
    Its pivot lanes are the known part's syndrome, and its tags the known
    symbols' power digits.  It is reduced against the plan's echelon of
    the erased tagged columns, built once per code and pattern.  Nonzero
    pivot lanes left over mean the word is inconsistent, and a free
    erased column that it is ambiguous; inconsistency is reported first.
    Otherwise the reduction subtracted the unique combination y of the
    erased columns that cancels the syndrome; the erased digits x satisfy
    col_E * x = -col_K * d, so x = -y, and subtracting y's tags adds the
    erased symbols' power digits: the tags are the whole codeword's power
    digits, read into ``Element``s in one pass (``LinearCode.read_tags``).
    A unique solution reproduces the codeword; anything else is reported
    rather than guessed.  Each known element must lie in the code's base field, and
    the word's basis must be the code's.
    """
    omega = received.omega
    if omega is not code.omega and omega != code.omega:
        raise ParameterError("received word uses a different basis than the code")
    t = tuple(received.pattern)
    if len(t) != code.n:
        raise ParameterError("received word length does not match the code")
    base = code.ext.base
    digits = []
    for suffix in received.known:
        for c in suffix:
            # an identity test first; an equal but distinct base still passes
            if c.spec is not base:
                base._check_same(c)
            digits += c.coeffs
    lay = code.decode_layout
    ech, free, known = code.decode_plan(t)
    left = ech.reduce(lay.combination(digits, known))
    if left & lay.pivots:
        return DecodeResult("inconsistent")
    if free:
        # the F_p kernel of an F_q-linear map has e times its F_q dimension
        return DecodeResult("ambiguous", None, free // base.e)
    return DecodeResult("decoded", code.read_tags(left))
