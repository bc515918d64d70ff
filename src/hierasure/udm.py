"""Universally decodable matrices: construction, verification, equivalence.

A set of n matrices of shape alpha x m over the base field is universally
decodable when, for every admissible erasure pattern, stacking the first
t_i rows of each matrix gives a full-rank matrix.  Verification only needs
the patterns of maximal total, since dropping rows cannot break
independence; their trie is walked as for code correctability (``modp.walk``).

``udms_to_check_vector`` and ``check_vector_to_udms`` realize the
equivalence between square UDM sets sharing a basis as a mutual
eigenvector and single-row parity checks whose kernel corrects every
pattern with total up to alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Mapping, Sequence

from . import modp
from .errors import ConstructionError, MissingEigenvectorError, ParameterError
from .fields import Element, FieldSpec, OrderedBasis, lucas_binom
from .patterns import ErasurePattern, FullFamily, family_trie


@dataclass(frozen=True)
class UdmCheck:
    ok: bool
    counterexample: ErasurePattern | None = None


@dataclass(frozen=True, eq=False)
class UdmSet:
    """n matrices of shape alpha x m over one base field."""

    field: FieldSpec
    alpha: int
    m: int
    matrices: tuple[tuple[tuple[Element, ...], ...], ...]
    meta: Mapping = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.m < self.alpha:
            raise ParameterError("universal decodability needs m >= alpha")
        mats = tuple(tuple(tuple(row) for row in mat) for mat in self.matrices)
        object.__setattr__(self, "matrices", mats)
        for mat in mats:
            if len(mat) != self.alpha or any(len(row) != self.m for row in mat):
                raise ParameterError("every matrix must be alpha x m")
            for row in mat:
                for entry in row:
                    self.field._check_same(entry)

    @property
    def n(self) -> int:
        return len(self.matrices)

    @cached_property
    def verdict(self) -> UdmCheck:
        """``verify_udm``'s answer, computed on first read and kept: the
        matrices are immutable, so a set is walked once however often it
        is checked."""
        budget = min(self.m, self.n * self.alpha)
        trie = family_trie(FullFamily(self.alpha, budget, self.n))
        lay, rows = _digit_rows(self)
        t = next(modp.walk(rows, *trie, self.field.e, lay), None)
        return UdmCheck(t is None, t)


def _digit_rows(u: UdmSet) -> tuple[modp.Layout, list[list[int]]]:
    # per matrix, its rows over F_p: each F_q row v becomes the e
    # prime-field rows x^d * v (the field's multiplication columns of v),
    # so a prefix of t_i rows becomes a prefix of t_i * e digit rows, each
    # packed under the layout of m * e digits
    lay = modp.layout(u.field.p, u.m * u.field.e)
    return lay, [[v for row in mat for v in u.field.multiplication_columns(row, lay)] for mat in u.matrices]


def verify_udm(u: UdmSet) -> UdmCheck:
    """Exhaustive stacked-prefix rank check over the maximal patterns.

    The check is ``modp.walk`` down the trie of the full family's maximal
    patterns, the same walk that decides code correctability;
    F_q-independence of rows is F_p-independence of their
    digit expansions.  The verdict is kept on the set (``UdmSet.verdict``),
    so a set checked again, as ``trace_code`` checks the set
    ``vontobel_udms`` just verified, is not walked again.
    """
    return u.verdict


def vontobel_udms(n: int, alpha: int, m: int, field: FieldSpec) -> UdmSet:
    """The classical UDM family: identity, anti-identity, binomial matrices.

    The first matrix takes the top alpha rows of the m x m identity, the
    second the top alpha rows of the anti-identity; matrix k >= 3 has
    entries binom(col, row) * gamma^((k-2)(col-row)) with gamma the
    lexicographically first primitive element and 0-based row and column
    indices, which the metadata records as ``index_convention``.  The
    result is verified before being returned.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if m < alpha or alpha < 1:
        raise ParameterError("need m >= alpha >= 1")
    if field.order < n - 1:
        raise ParameterError(f"field size {field.order} is below n-1={n - 1}")
    zero, one = field.zero(), field.one()
    p = field.p
    identity = tuple(
        tuple(one if b == a else zero for b in range(m)) for a in range(alpha)
    )
    mats = [identity]
    if n >= 2:
        anti = tuple(
            tuple(one if b == m - 1 - a else zero for b in range(m)) for a in range(alpha)
        )
        mats.append(anti)
    gamma = field.primitive_element() if n >= 3 else None
    for k in range(3, n + 1):
        shift = k - 2
        rows = []
        for a in range(alpha):
            row = []
            for b in range(m):
                binom = lucas_binom(b, a, p)
                if binom == 0:
                    row.append(zero)
                else:
                    scalar = field.element((binom,) + (0,) * (field.e - 1))
                    row.append(scalar * gamma ** ((shift - 1) * (b - a)))
            rows.append(tuple(row))
        mats.append(tuple(rows))
    meta = {
        "construction": "vontobel",
        "index_convention": "zero_based",
        "gamma": list(gamma.coeffs) if gamma is not None else None,
    }
    result = UdmSet(field, alpha, m, tuple(mats), meta)
    check = verify_udm(result)
    if not check.ok:
        raise ConstructionError(
            f"constructed matrices fail verification at pattern {check.counterexample}"
        )
    return result


def trace_check_matrix(u: UdmSet, mu: OrderedBasis) -> list[list[Element]]:
    """The m x n extension-field matrix whose column i is A_i transposed
    applied to the basis column: entry (l, i) = sum_r A_i[r][l] * mu_r,
    the element whose coordinates over mu are column l of A_i."""
    ext = mu.ext
    if u.alpha != ext.alpha or u.field != ext.base:
        raise ParameterError("matrix set and basis live over different fields")
    return [
        [mu.combine([mat[r][ell] for r in range(u.alpha)]) for mat in u.matrices]
        for ell in range(u.m)
    ]


def udms_to_check_vector(u: UdmSet, omega: OrderedBasis) -> tuple[Element, ...]:
    """Eigenvalues of each matrix for the shared eigenvector omega, if any.

    Requires square matrices (m = alpha).  Each matrix is applied to the
    basis column; if the image is a scalar multiple, that scalar is the
    entry of the returned parity-check vector.  Otherwise the offending
    matrix index is raised.
    """
    ext = omega.ext
    if u.m != u.alpha:
        raise ParameterError("eigenvector extraction needs square matrices (m = alpha)")
    if u.alpha != ext.alpha or u.field != ext.base:
        raise ParameterError("matrix set and basis live over different fields")
    h = []
    for idx, mat in enumerate(u.matrices):
        # row j's image sum_k A[j][k] * omega_k has coordinates row j
        image = [omega.combine(row) for row in mat]
        scalar = image[0] / omega.elements[0]
        for img, w in zip(image, omega.elements):
            if img != scalar * w:
                raise MissingEigenvectorError(idx)
        h.append(scalar)
    return tuple(h)


def check_vector_to_udms(h: Sequence[Element], omega: OrderedBasis) -> UdmSet:
    """Row j of matrix i is the coordinate vector of h_i * omega_j over omega."""
    ext = omega.ext
    base = ext.base
    mats = []
    for hi in h:
        ext._check_same(hi)
        rows = tuple(tuple(omega.coordinates(hi * wj)) for wj in omega.elements)
        mats.append(rows)
    meta = {"construction": "eigenrows"}
    return UdmSet(base, ext.alpha, ext.alpha, tuple(mats), meta)
