"""JSON wire formats for every artifact the CLI reads or writes.

All payloads are plain integers, lists and objects, ascending-power
coefficient arrays throughout, so round trips are bit exact:

* element:  base [c0, ...], extension [[c0, ...], ...], one base-field
  coefficient per y-power; in memory an extension element is the same
  digits flattened, y-power major (``fields``), and only this module
  groups them
* code:     {"field", "ext", "H", "omega", "claim", "provenance", "n"}
* udms:     {"field", "alpha", "m", "matrices", "meta"}
* received: {"field", "ext", "omega", "t", "known"}
* patterns: [[t1, ..., tn], ...]

Every ``*_from_json`` loader is an input boundary: a payload with a
missing key or a value of the wrong shape raises ``ParameterError``.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import chain
from typing import Any

from .codes import LinearCode, code_from_rows
from .errors import ParameterError, require_int
from .fields import Element, ExtSpec, FieldSpec, OrderedBasis
from .patterns import PatternFamily, ReceivedWord, family_of_kind
from .udm import UdmSet


def _loader(kind: str):
    """Turn the errors a malformed payload raises into ParameterError."""

    def wrap(load):
        @functools.wraps(load)
        def checked(*args, **kwargs):
            try:
                return load(*args, **kwargs)
            except ParameterError:
                raise
            except KeyError as exc:
                raise ParameterError(f"malformed {kind} payload: missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError, IndexError) as exc:
                detail = " ".join(str(exc).split())
                raise ParameterError(f"malformed {kind} payload: {detail}") from exc

        return checked

    return wrap


def _items(obj) -> list:
    # a JSON object or string in a list's place would iterate as keys or characters
    if not isinstance(obj, list):
        raise TypeError("expected a list")
    return obj


# -- fields -----------------------------------------------------------------


def field_to_json(field: FieldSpec) -> dict:
    return {"p": field.p, "e": field.e, "modulus": [int(c) for c in field.modulus]}


@_loader("field")
def field_from_json(obj: dict) -> FieldSpec:
    return FieldSpec(obj["p"], obj["e"], tuple(obj["modulus"]))


def _tower_to_json(ext: ExtSpec) -> dict:
    # the "field" and "ext" keys shared by codes and received words
    return {
        "field": field_to_json(ext.base),
        "ext": {"alpha": ext.alpha, "modulus": [[int(x) for x in c] for c in ext.modulus]},
    }


def _tower_from_json(obj: dict) -> ExtSpec:
    base = field_from_json(obj["field"])
    return ExtSpec(base, obj["ext"]["alpha"], tuple(tuple(c) for c in obj["ext"]["modulus"]))


# -- elements ---------------------------------------------------------------


def element_to_json(el: Element) -> list:
    digits = [int(x) for x in el.coeffs]
    if isinstance(el.spec, ExtSpec):
        e = el.spec.base.e
        return [digits[k : k + e] for k in range(0, len(digits), e)]
    return digits


# Every payload loader builds its elements through these two: each
# element checked whole by its field's ``element``, with one error handler
# per list instead of one per element.


@_loader("element")
def _base_elements(field: FieldSpec, objs: list) -> list[Element]:
    return [field.element(tuple(obj)) for obj in objs]


@_loader("element")
def _ext_elements(ext: ExtSpec, objs: list) -> list[Element]:
    # alpha coefficients of e digits each, flattened: a list of another
    # shape is refused even when its digits number alpha * e
    alpha, e = ext.alpha, ext.base.e
    out = []
    for obj in objs:
        raw = tuple([d for c in obj for d in c])
        if len(obj) != alpha or any(len(c) != e for c in obj) or not ext.rcheck(raw):
            raise ParameterError(f"invalid coefficient vector for {ext!r}: {obj!r}")
        out.append(Element(ext, raw))
    return out


def basis_to_json(basis: OrderedBasis) -> list:
    return [element_to_json(el) for el in basis.elements]


@_loader("basis")
def basis_from_json(ext: ExtSpec, obj) -> OrderedBasis:
    return OrderedBasis(ext, _ext_elements(ext, _items(obj)))


# -- pattern families ---------------------------------------------------------


def family_to_json(fam: PatternFamily) -> dict:
    return {"kind": fam.kind, **dataclasses.asdict(fam)}


@_loader("family")
def family_from_json(obj: dict) -> PatternFamily:
    return family_of_kind(obj["kind"], obj)


def patterns_to_json(patterns) -> list:
    return [list(t) for t in patterns]


def _int_entries(values, what: str) -> tuple[int, ...]:
    return tuple(require_int(v, f"{what} entry") for v in _items(values))


@_loader("patterns")
def patterns_from_json(obj) -> list[tuple[int, ...]]:
    return [_int_entries(t, "pattern") for t in _items(obj)]


# -- codes --------------------------------------------------------------------


def code_to_json(code: LinearCode) -> dict:
    return {
        **_tower_to_json(code.ext),
        "H": [[element_to_json(e) for e in row] for row in code.H],
        "omega": basis_to_json(code.omega),
        "claim": None if code.claim is None else family_to_json(code.claim),
        "provenance": dict(code.provenance),
        "n": code.n,
    }


@_loader("code")
def code_from_json(obj: dict) -> LinearCode:
    ext = _tower_from_json(obj)
    rows = [_ext_elements(ext, _items(row)) for row in _items(obj["H"])]
    omega = basis_from_json(ext, obj["omega"])
    claim = None if obj.get("claim") is None else family_from_json(obj["claim"])
    return code_from_rows(ext, rows, omega, claim, obj.get("provenance", {}), length=obj.get("n"))


# -- UDM sets -------------------------------------------------------------------


def udms_to_json(u: UdmSet) -> dict:
    return {
        "field": field_to_json(u.field),
        "alpha": u.alpha,
        "m": u.m,
        "matrices": [
            [[element_to_json(e) for e in row] for row in mat] for mat in u.matrices
        ],
        "meta": dict(u.meta),
    }


@_loader("udms")
def udms_from_json(obj: dict) -> UdmSet:
    field = field_from_json(obj["field"])
    mats = tuple(
        tuple(tuple(_base_elements(field, _items(row))) for row in _items(mat)) for mat in _items(obj["matrices"])
    )
    return UdmSet(field, obj["alpha"], obj["m"], mats, obj.get("meta", {}))


# -- received words ---------------------------------------------------------------


def received_to_json(rw: ReceivedWord) -> dict:
    return {
        **_tower_to_json(rw.omega.ext),
        "omega": basis_to_json(rw.omega),
        "t": list(rw.pattern),
        "known": [[element_to_json(c) for c in suffix] for suffix in rw.known],
    }


def _spells(obj: dict, like: OrderedBasis) -> bool:
    """Whether the "field", "ext" and "omega" of obj are exactly like's
    JSON, ``basis_to_json``'s grouping of omega included: equal values of
    equal types at every level, so 1 matches neither 1.0, true nor "1",
    and dict keys may come in any order."""
    theirs = {**_tower_to_json(like.ext), "omega": basis_to_json(like)}
    return all(_same(obj.get(key), value) for key, value in theirs.items())


def _same(mine, theirs) -> bool:
    # theirs is like's JSON: dicts, ints, and lists whose entries nest
    # lists to one depth above plain ints.  A list's == compares lengths
    # and values in C, and only a list equals a list, but it lets 1 equal
    # 1.0 and true: so the ints are then checked by type, flattened
    if type(mine) is not type(theirs):
        return False
    if type(theirs) is dict:
        return mine.keys() == theirs.keys() and all(_same(mine[k], v) for k, v in theirs.items())
    if type(theirs) is not list:
        return mine == theirs
    if mine != theirs:
        return False
    while theirs and type(theirs[0]) is list:
        mine, theirs = [*chain.from_iterable(mine)], [*chain.from_iterable(theirs)]
    return {*map(type, mine)} <= {int}


@_loader("received word")
def received_from_json(obj: dict, like: OrderedBasis | None = None) -> ReceivedWord:
    """Load a received word; when its "field", "ext" and "omega" are
    exactly ``like``'s JSON (the decoding code's omega, say), reuse
    ``like`` and its tower instead of loading them again."""
    if like is not None and isinstance(obj, dict) and _spells(obj, like):
        ext, omega = like.ext, like
    else:
        ext = _tower_from_json(obj)
        omega = basis_from_json(ext, obj["omega"])
    known = tuple(tuple(_base_elements(ext.base, _items(suffix))) for suffix in _items(obj["known"]))
    return ReceivedWord(omega, _int_entries(obj["t"], "erasure pattern"), known)


def codeword_to_json(word) -> list:
    return [element_to_json(c) for c in word]


@_loader("codeword")
def codeword_from_json(ext: ExtSpec, obj) -> tuple[Element, ...]:
    return tuple(_ext_elements(ext, _items(obj)))
