"""Shared field towers, cached so each modulus search runs once per session."""

from functools import lru_cache

from hierasure import make_extension, make_field


@lru_cache(maxsize=None)
def field(p, e, seed=0):
    return make_field(p, e, seed)


@lru_cache(maxsize=None)
def tower(p, e, alpha, seed=0):
    return make_extension(field(p, e, seed), alpha, seed)
