"""Shared field towers, cached so each modulus search runs once per session,
and the benchmark's verify-trace instance."""

from functools import lru_cache

from hierasure import constructions, make_extension, make_field, serialize, vontobel_udms


@lru_cache(maxsize=None)
def field(p, e, seed=0):
    return make_field(p, e, seed)


@lru_cache(maxsize=None)
def tower(p, e, alpha, seed=0):
    return make_extension(field(p, e, seed), alpha, seed)


def trace_instance():
    """The (8, 4, 5) UDM set over GF(7) and its trace code, freshly loaded
    from JSON so nothing of its expansion is built yet."""
    ext = tower(7, 1, 4, 201)
    u = vontobel_udms(8, 4, 5, ext.base)
    code = constructions.trace_code(u, ext.polynomial_basis())
    return u, serialize.code_from_json(serialize.code_to_json(code))
