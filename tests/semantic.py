"""Brute-force meaning of erasure correction, independent of the rank route.

A code corrects a pattern exactly when no two distinct codewords agree on
all surviving coordinates.  This module materializes every codeword as a
flat tuple of prime-field digits (coordinates over the code's decoding
basis, each base-field value spelled out digit by digit) and tests
injectivity of the erased view by hashing.  The only shared machinery
with the implementation under test is kernel_basis (coordinates come from
the reference's own basis inverse); the correctability verdict itself
comes purely from counting collisions.
"""

from hierasure import kernel_basis
from reference import coordinate_inverse, reference_coordinates


def _vec_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def _flatten(word, omega, inverse):
    out = []
    for symbol in word:
        for coord in reference_coordinates(omega, symbol, inverse):
            out.extend(coord.coeffs)
    return tuple(out)


def all_flat_codewords(code):
    """Every codeword as a flat digit tuple; exact prime-field span."""
    ext = code.ext
    base = ext.base
    p = base.p
    omega = code.omega
    inverse = coordinate_inverse(ext, omega.elements)
    gens = []
    for g in kernel_basis(code):
        for w in omega.elements:
            for u in range(base.e):
                unit = base.element(tuple(1 if i == u else 0 for i in range(base.e)))
                scalar = ext.lift(unit) * w
                gens.append(_flatten([scalar * gi for gi in g], omega, inverse))
    zero = (0,) * (code.n * ext.alpha * base.e)
    vectors = [zero]
    for gen in gens:
        acc = zero
        extra = []
        for _ in range(p - 1):
            acc = _vec_add(acc, gen, p)
            extra.extend(_vec_add(v, acc, p) for v in vectors)
        vectors.extend(extra)
    assert len(vectors) == p ** len(gens)
    assert len(set(vectors)) == len(vectors), "spanning set was dependent"
    return vectors


def erased_view(flat, t, alpha, e):
    out = []
    for i, ti in enumerate(t):
        out.extend(flat[(i * alpha + ti) * e : (i + 1) * alpha * e])
    return tuple(out)


def semantic_correctable(flats, t, alpha, e):
    """True iff no two distinct codewords collide after erasing pattern t."""
    views = {erased_view(f, t, alpha, e) for f in flats}
    return len(views) == len(flats)
