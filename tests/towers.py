"""Shared field towers, cached per session and built from pinned moduli,
the benchmark's verify-trace instance and a long code for deep walks.

``field(p, e, seed)`` and ``tower(p, e, alpha, seed)`` are the fields
``make_field`` and ``make_tower`` build from the same arguments, set up
directly on the moduli those seeded searches find (checked by
``test_fields.py::TestMakeField::test_seeded_search_finds_the_pinned_modulus``).  Each is
still tested irreducible, so a defect in field arithmetic fails the test
that asked for the field, not after a whole modulus search of up to
100,000 candidates.  A modulus is pinned as an index: the sum of its
coefficients times powers of p (a field) or of the base order (a tower),
each coefficient by its index in its field.
"""

from functools import lru_cache

from hierasure import ExtSpec, FieldSpec, FullFamily, code_from_rows, constructions, serialize, vontobel_udms

# (p, e, seed): the modulus of make_field(p, e, seed)
FIELDS = {
    (2, 1, 0): 2,
    (2, 1, 1): 2,
    (2, 2, 0): 7,
    (2, 2, 1): 7,
    (2, 2, 5): 7,
    (2, 3, 0): 13,
    (2, 3, 1): 11,
    (3, 1, 0): 3,
    (3, 1, 1): 3,
    (3, 2, 0): 14,
    (3, 2, 1): 14,
    (3, 3, 0): 49,
    (5, 1, 0): 5,
    (5, 1, 1): 5,
    (5, 1, 3): 5,
    (7, 1, 0): 7,
    (7, 1, 1): 7,
    (7, 1, 201): 7,
    (7, 2, 0): 62,
    (7, 3, 0): 485,
    (11, 1, 0): 11,
    (11, 1, 1): 11,
    # the base fields of the cli-pipeline benchmark's towers
    (11, 1, 201): 11,
    (11, 1, 202): 11,
    (11, 1, 203): 11,
    (11, 1, 204): 11,
    (11, 1, 205): 11,
    (11, 1, 206): 11,
    (11, 1, 207): 11,
    (11, 1, 208): 11,
    (11, 1, 209): 11,
    (11, 1, 210): 11,
    (13, 1, 0): 13,
    (251, 1, 0): 251,
    (251, 2, 0): 107686,
    (65521, 1, 0): 65521,
    (65521, 2, 0): 5947265468,
    (65521, 3, 0): 539623433893440,
}
# (p, e, alpha, seed): the extension modulus of make_tower(p, e, alpha, seed)
TOWERS = {
    (2, 1, 1, 0): 2,
    (2, 1, 2, 0): 7,
    (2, 1, 2, 1): 7,
    (2, 1, 3, 0): 13,
    (2, 1, 4, 0): 25,
    (2, 1, 4, 1): 31,
    (2, 1, 5, 0): 55,
    (2, 1, 6, 0): 97,
    (2, 1, 6, 1): 87,
    (2, 1, 7, 0): 137,
    (2, 1, 8, 0): 375,
    (2, 1, 8, 1): 379,
    (2, 1, 12, 0): 4677,
    (2, 1, 12, 1): 7459,
    (2, 2, 1, 0): 4,
    (2, 2, 2, 0): 23,
    (2, 2, 2, 1): 23,
    (2, 2, 3, 0): 110,
    (2, 2, 4, 0): 505,
    (2, 2, 4, 1): 383,
    (2, 2, 5, 0): 1990,
    (2, 2, 6, 0): 4595,
    (2, 2, 6, 1): 5099,
    (2, 2, 6, 5): 6641,
    (2, 2, 7, 0): 24698,
    (2, 2, 8, 0): 129981,
    (2, 2, 8, 1): 109034,
    (2, 2, 12, 0): 31687265,
    (2, 2, 12, 1): 22188643,
    (2, 3, 1, 0): 8,
    (2, 3, 2, 0): 110,
    (2, 3, 2, 1): 75,
    (2, 3, 4, 0): 5882,
    (2, 3, 4, 1): 6922,
    (2, 3, 6, 0): 312586,
    (2, 3, 6, 1): 262185,
    (2, 3, 8, 0): 27964163,
    (2, 3, 8, 1): 21709255,
    (2, 3, 12, 0): 119288123357,
    (2, 3, 12, 1): 134069978530,
    (3, 1, 1, 0): 3,
    (3, 1, 2, 0): 14,
    (3, 1, 2, 1): 14,
    (3, 1, 3, 0): 49,
    (3, 1, 4, 0): 97,
    (3, 1, 4, 1): 151,
    (3, 1, 6, 0): 1445,
    (3, 1, 6, 1): 1367,
    (3, 1, 8, 0): 11917,
    (3, 1, 8, 1): 11882,
    (3, 1, 12, 0): 987631,
    (3, 1, 12, 1): 935506,
    (3, 2, 1, 0): 9,
    (3, 2, 2, 0): 105,
    (3, 2, 2, 1): 138,
    (3, 2, 3, 0): 1214,
    (3, 2, 4, 0): 7773,
    (3, 2, 4, 1): 11814,
    (3, 2, 6, 0): 564155,
    (3, 2, 6, 1): 852834,
    (3, 2, 8, 0): 80993780,
    (3, 2, 8, 1): 76921743,
    (3, 2, 12, 0): 341844152061,
    (3, 2, 12, 1): 454799360960,
    (3, 3, 2, 0): 1066,
    (5, 1, 1, 0): 5,
    (5, 1, 2, 0): 47,
    (5, 1, 2, 1): 27,
    (5, 1, 3, 0): 171,
    (5, 1, 4, 0): 826,
    (5, 1, 4, 1): 856,
    (5, 1, 6, 0): 19259,
    (5, 1, 6, 1): 29921,
    (5, 1, 8, 0): 605893,
    (5, 1, 8, 1): 577427,
    (5, 1, 8, 3): 763996,
    (5, 1, 12, 0): 337545097,
    (5, 1, 12, 1): 394040896,
    (7, 1, 1, 0): 7,
    (7, 1, 2, 0): 62,
    (7, 1, 2, 1): 83,
    (7, 1, 3, 0): 485,
    (7, 1, 4, 0): 3509,
    (7, 1, 4, 201): 4180,
    (7, 2, 2, 0): 3509,
    (7, 3, 2, 0): 191591,
    (11, 1, 2, 0): 206,
    (11, 1, 2, 1): 174,
    (11, 1, 8, 0): 241397399,
    # the cli-pipeline benchmark's towers, seeds 201 .. 210
    (11, 1, 8, 201): 369349289,
    (11, 1, 8, 202): 416209802,
    (11, 1, 8, 203): 237246638,
    (11, 1, 8, 204): 380103531,
    (11, 1, 8, 205): 376401552,
    (11, 1, 8, 206): 314342166,
    (11, 1, 8, 207): 297252025,
    (11, 1, 8, 208): 341427359,
    (11, 1, 8, 209): 248993178,
    (11, 1, 8, 210): 310061659,
    (13, 1, 1, 0): 13,
    (13, 1, 2, 0): 318,
    (13, 1, 4, 0): 55993,
    (251, 1, 2, 0): 107686,
    (251, 2, 2, 0): 7644843017,
    (65521, 1, 1, 0): 65521,
    (65521, 1, 2, 0): 5947265468,
    (65521, 1, 8, 0): 667662143773191093246761489029061160259,
    (65521, 2, 2, 0): 34844446516047694511,
    (65521, 2, 8, 0): 131443967842648088761830269685646173741153896395091716612004526742353163377703,
    (65521, 3, 2, 0): 149604276561187923487967807194,
}


def _digits(k, base, count):
    return [k // base**i % base for i in range(count)]


@lru_cache(maxsize=None)
def field(p, e, seed=0):
    f = FieldSpec._candidate(p, e, tuple(_digits(FIELDS[p, e, seed], p, e + 1)))
    assert f._irreducible(), f"the pinned modulus of GF({p}^{e}), seed {seed}, tests reducible"
    return f


@lru_cache(maxsize=None)
def tower(p, e, alpha, seed=0):
    base = field(p, e, seed)
    mod = tuple(base.rfrom_index(k) for k in _digits(TOWERS[p, e, alpha, seed], base.order, alpha + 1))
    ext = ExtSpec._candidate(base, alpha, mod)
    assert ext._irreducible(), f"the pinned modulus of GF({p}^{e})^{alpha}, seed {seed}, tests reducible"
    return ext


def trace_instance():
    """The (8, 4, 5) UDM set over GF(7) and its trace code, freshly loaded
    from JSON so nothing of its expansion is built yet."""
    ext = tower(7, 1, 4, 201)
    u = vontobel_udms(8, 4, 5, ext.base)
    code = constructions.trace_code(u, ext.polynomial_basis())
    return u, serialize.code_from_json(serialize.code_to_json(code))


LONG = 1100  # symbols: deeper than the interpreter's default recursion limit of 1,000


def long_code(n=LONG):
    """The n-symbol parity code over GF(4) (one all-ones row of H) with
    claim full:1: erasing the first coordinate of one symbol leaves H
    times that coordinate's basis element, which is nonzero."""
    ext = tower(2, 1, 2)
    return code_from_rows(ext, [[ext.one()] * n], ext.polynomial_basis(), FullFamily(2, 1, n))
