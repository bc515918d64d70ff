"""Exact arithmetic in a two-level tower of finite fields.

The base field F_q = F_p[x]/(f) stores an element as a length-e tuple of
integers modulo p, ascending powers of x.  The extension F_{q^alpha} =
F_q[y]/(g) stores an element as a length-alpha tuple of base-field tuples.
Scalars never leave this nested-tuple form, so every value is hashable and
immutable, and every operation is a pure function; contexts and elements
can be shared between threads without synchronization.

Multiplication is schoolbook polynomial arithmetic reduced by the
modulus (on plain ints when the coefficients are prime-field digits);
powers are square-and-multiply and the inverse is a^(order-2).  The
Frobenius x -> x^q is F_q-linear, so the extension keeps it as one
prime-field matrix.

A basis omega of the extension over F_q (``OrderedBasis``) keeps one
coordinate transform, over the prime field: the digits of x's
coordinates over omega, each base-field coordinate spelled as its e
digits.  Every coordinate question, including whether a tuple is a
basis at all, goes through that one integer map.

Deterministic search orders are part of the contract: modulus searches
shuffle the candidate list with a seeded RNG, while element searches
(primitive elements, quadratic roots, subfield representatives) run in
lexicographic order over ascending-power coefficient tuples.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

from . import modp
from .errors import ConstructionError, InvalidBasisError, ParameterError, require_int

_MODULUS_SEARCH_BUDGET = 100_000


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate at the scales used here."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def lucas_binom(b: int, a: int, p: int) -> int:
    """Binomial coefficient C(b, a) reduced mod a prime p.

    Computed as the product of digitwise binomials in base p; C(b, a) = 0
    whenever a > b.
    """
    if a < 0 or b < 0:
        raise ParameterError("binomial arguments must be nonnegative")
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    result = 1
    while a or b:
        bd, ad = b % p, a % p
        if ad > bd:
            return 0
        num = den = 1
        for i in range(ad):
            num = num * (bd - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, -1, p) % p
        a //= p
        b //= p
    return result


# ---------------------------------------------------------------------------
# Generic polynomial helpers over a coefficient field.
#
# A coefficient field K exposes: rzero, rone, size, radd, rsub, rneg, rmul,
# rinv, rcheck, rfrom_index, rindex, riter_lex.  Polynomials are trimmed
# lists of raw coefficients, ascending powers.


class _PrimeOps:
    """Integers mod p acting as the bottom coefficient field."""

    __slots__ = ("p", "rzero", "rone", "size")

    def __init__(self, p: int):
        self.p = p
        self.rzero = 0
        self.rone = 1 % p
        self.size = p

    def radd(self, a, b):
        return (a + b) % self.p

    def rsub(self, a, b):
        return (a - b) % self.p

    def rneg(self, a):
        return -a % self.p

    def rmul(self, a, b):
        return a * b % self.p

    def rinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def rcheck(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p

    def rfrom_index(self, k: int):
        return k

    def rindex(self, a) -> int:
        return a

    def riter_lex(self):
        return iter(range(self.p))


def _poly_trim(c, K):
    c = list(c)
    while c and c[-1] == K.rzero:
        c.pop()
    return c


def _poly_sub(a, b, K):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.rzero
        y = b[i] if i < len(b) else K.rzero
        out.append(K.rsub(x, y))
    return _poly_trim(out, K)


def _poly_mul(a, b, K):
    if not a or not b:
        return []
    out = [K.rzero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == K.rzero:
            continue
        for j, bj in enumerate(b):
            if bj == K.rzero:
                continue
            out[i + j] = K.radd(out[i + j], K.rmul(ai, bj))
    return _poly_trim(out, K)


def _poly_rem(a, m, K):
    # m monic, trimmed
    a = list(a)
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c == K.rzero:
            continue
        for t in range(dm):
            a[k - dm + t] = K.rsub(a[k - dm + t], K.rmul(c, m[t]))
        a[k] = K.rzero
    return _poly_trim(a[:dm], K)


def _poly_gcd(a, b, K):
    a, b = _poly_trim(a, K), _poly_trim(b, K)
    while b:
        inv = K.rinv(b[-1])
        b_monic = [K.rmul(inv, c) for c in b]
        a, b = b, _poly_rem(a, b_monic, K)
    if a:
        inv = K.rinv(a[-1])
        a = [K.rmul(inv, c) for c in a]
    return a


def _poly_powmod(base, exp: int, m, K):
    result = [K.rone]
    acc = _poly_rem(base, m, K)
    while exp:
        if exp & 1:
            result = _poly_rem(_poly_mul(result, acc, K), m, K)
        acc = _poly_rem(_poly_mul(acc, acc, K), m, K)
        exp >>= 1
    return result


def poly_is_irreducible(coeffs, K) -> bool:
    """Irreducibility of a monic polynomial over the coefficient field K.

    Uses gcd(f, x^(s^i) - x) for i up to deg/2, with s the field size; a
    degree-1 polynomial is irreducible by convention.  Over a prime-field
    FieldSpec the 1-tuple coefficients become plain ints mod p first.
    """
    if isinstance(K, FieldSpec) and K.e == 1:
        coeffs = [c[0] for c in coeffs]
        K = K._cops
    f = _poly_trim(coeffs, K)
    d = len(f) - 1
    if d <= 0:
        return False
    if f[-1] != K.rone:
        raise ParameterError("irreducibility test expects a monic polynomial")
    if d == 1:
        return True
    x = [K.rzero, K.rone]
    frob = x
    for _ in range(d // 2):
        frob = _poly_powmod(frob, K.size, f, K)
        g = _poly_gcd(_poly_sub(frob, x, K), f, K)
        if len(g) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Field contexts.


class _Field:
    """Shared engine for a quotient field over a coefficient field.

    Subclasses populate ``_deg`` (vector length of an element), ``_cops``
    (coefficient field), ``_modlist`` (trimmed monic modulus) and ``order``.
    Raw values are length-``_deg`` tuples of coefficient raws.
    """

    _deg: int
    _cops: "_PrimeOps | FieldSpec"
    _modlist: list
    order: int

    def _init_engine(self):
        cz, co = self._cops.rzero, self._cops.rone
        self.rzero = (cz,) * self._deg
        self.rone = tuple(co if i == 0 else cz for i in range(self._deg))
        self.size = self.order
        self._zero_el = Element(self, self.rzero)
        self._one_el = Element(self, self.rone)
        self._generator_raw = None
        self._prime_modulus = None  # set when the coefficients are 1-tuples over F_p

    # -- raw arithmetic ----------------------------------------------------

    def radd(self, a, b):
        cops = self._cops
        return tuple(cops.radd(x, y) for x, y in zip(a, b))

    def rsub(self, a, b):
        cops = self._cops
        return tuple(cops.rsub(x, y) for x, y in zip(a, b))

    def rneg(self, a):
        cops = self._cops
        return tuple(cops.rneg(x) for x in a)

    def rmul(self, a, b):
        cops = self._cops
        d = self._deg
        if d == 1:
            return (cops.rmul(a[0], b[0]),)
        pm = self._prime_modulus
        if pm is not None:
            # same schoolbook product and reduction, on the plain ints mod p
            p = cops.p
            prod = [0] * (2 * d - 1)
            for i, (ai,) in enumerate(a):
                if ai:
                    for j, (bj,) in enumerate(b):
                        prod[i + j] += ai * bj
            for k in range(2 * d - 2, d - 1, -1):
                c = prod[k] % p
                if c:
                    for t in range(d):
                        prod[k - d + t] -= c * pm[t]
            return tuple((x % p,) for x in prod[:d])
        r = _poly_rem(_poly_mul(a, b, cops), self._modlist, cops)
        return tuple(r) + (cops.rzero,) * (d - len(r))

    def rpow(self, a, k: int):
        if k < 0:
            return self.rpow(self.rinv(a), -k)
        result = self.rone
        acc = a
        while k:
            if k & 1:
                result = self.rmul(result, acc)
            acc = self.rmul(acc, acc)
            k >>= 1
        return result

    def rinv(self, a):
        if a == self.rzero:
            raise ZeroDivisionError("inverse of zero")
        return self.rpow(a, self.order - 2)

    # -- enumeration and encoding ------------------------------------------

    def rfrom_index(self, k: int):
        cops = self._cops
        s = cops.size
        out = []
        for _ in range(self._deg):
            out.append(cops.rfrom_index(k % s))
            k //= s
        return tuple(out)

    def rindex(self, a) -> int:
        cops = self._cops
        s = cops.size
        k = 0
        for c in reversed(a):
            k = k * s + cops.rindex(c)
        return k

    def rcheck(self, a) -> bool:
        cops = self._cops
        return (
            isinstance(a, tuple)
            and len(a) == self._deg
            and all(cops.rcheck(c) for c in a)
        )

    def riter_lex(self) -> Iterator:
        lex = list(self._cops.riter_lex())
        return (t for t in itertools.product(lex, repeat=self._deg))

    # -- primitive elements ----------------------------------------------------

    def _find_generator_raw(self):
        n = self.order - 1
        if n == 1:
            return self.rone
        factors = []
        m = n
        d = 2
        while d * d <= m:
            if m % d == 0:
                factors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            factors.append(m)
        for cand in self.riter_lex():
            if cand == self.rzero:
                continue
            if all(self.rpow(cand, n // f) != self.rone for f in factors):
                return cand
        raise ConstructionError("no primitive element found")  # pragma: no cover

    # -- public element API ----------------------------------------------------

    def element(self, coeffs) -> "Element":
        raw = tuple(coeffs)
        if not self.rcheck(raw):
            raise ParameterError(f"invalid coefficient vector for {self!r}: {coeffs!r}")
        return Element(self, raw)

    def zero(self) -> "Element":
        return self._zero_el

    def one(self) -> "Element":
        return self._one_el

    def elements(self) -> Iterator["Element"]:
        """All elements in index order (coefficient digits, low power first)."""
        return (Element(self, self.rfrom_index(k)) for k in range(self.order))

    def lex_elements(self) -> Iterator["Element"]:
        """All elements in lexicographic order over coefficient tuples."""
        return (Element(self, raw) for raw in self.riter_lex())

    def from_index(self, k: int) -> "Element":
        if not 0 <= k < self.order:
            raise ParameterError(f"index {k} out of range for {self!r}")
        return Element(self, self.rfrom_index(k))

    def index_of(self, el: "Element") -> int:
        self._check_same(el)
        return self.rindex(el.coeffs)

    def primitive_element(self) -> "Element":
        """Lexicographically first element of full multiplicative order."""
        if self._generator_raw is None:
            self._generator_raw = self._find_generator_raw()
        return Element(self, self._generator_raw)

    def _check_same(self, el: "Element"):
        if el.spec is not self and el.spec != self:
            raise ParameterError(f"element of {el.spec!r} used with {self!r}")


class FieldSpec(_Field):
    """The base field F_q with q = p**e, as F_p[x]/(modulus)."""

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        if not is_prime(require_int(p, "characteristic")):
            raise ParameterError(f"characteristic {p} is not prime")
        if require_int(e, "extension degree") < 1:
            raise ParameterError("extension degree must be at least 1")
        mod = tuple(require_int(c, "modulus coefficient") % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ParameterError("modulus must be monic of degree e")
        ops = _PrimeOps(p)
        if not poly_is_irreducible(list(mod), ops):
            raise ParameterError(f"modulus {mod} is reducible over Z_{p}")
        self.p = p
        self.e = e
        self.modulus = mod
        self.order = p**e
        self._deg = e
        self._cops = ops
        self._modlist = list(mod)
        self._init_engine()
        self._hash = hash(("FieldSpec", p, e, mod))

    @property
    def q(self) -> int:
        return self.order

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class ExtSpec(_Field):
    """The extension F_{q^alpha} = F_q[y]/(modulus) over a base FieldSpec."""

    def __init__(self, base: FieldSpec, alpha: int, modulus: Sequence):
        if require_int(alpha, "alpha") < 1:
            raise ParameterError("alpha must be at least 1")
        mod = tuple(tuple(c) for c in modulus)
        if len(mod) != alpha + 1 or mod[-1] != base.rone:
            raise ParameterError("extension modulus must be monic of degree alpha")
        for c in mod:
            if not base.rcheck(c):
                raise ParameterError("extension modulus has invalid coefficients")
        if not poly_is_irreducible(list(mod), base):
            raise ParameterError("extension modulus is reducible over the base field")
        self.base = base
        self.alpha = alpha
        self.modulus = mod
        self.order = base.order**alpha
        self._deg = alpha
        self._cops = base
        self._modlist = list(mod)
        self._init_engine()
        if base.e == 1:
            self._prime_modulus = [c[0] for c in mod]
        self._hash = hash(("ExtSpec", base, alpha, mod))
        self._poly_basis = None
        self._frobenius_columns = None

    def __eq__(self, other):
        return (
            isinstance(other, ExtSpec)
            and self.base == other.base
            and self.alpha == other.alpha
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.base.p}^{self.base.e * self.alpha})/{self.base!r}"

    @cached_property
    def digit_layout(self) -> modp.Layout:
        """How the alpha * e prime-field digits of an element pack into one
        int (``modp.Layout``), for the Frobenius and basis matrices."""
        return modp.layout(self.base.p, self.alpha * self.base.e)

    def lift(self, el: "Element") -> "Element":
        """Embed a base-field element as a constant of the extension."""
        self.base._check_same(el)
        raw = (el.coeffs,) + (self.base.rzero,) * (self.alpha - 1)
        return Element(self, raw)

    def as_base(self, el: "Element") -> "Element | None":
        """Project a constant extension element back to the base, else None."""
        self._check_same(el)
        if any(c != self.base.rzero for c in el.coeffs[1:]):
            return None
        return Element(self.base, el.coeffs[0])

    def frobenius(self, el: "Element") -> "Element":
        """x -> x^q, one prime-field matrix applied to the power digits.

        The map is F_q-linear, so its matrix over F_p has as columns the
        q-th powers of the alpha * e units y^u * x^d, packed; it is built on
        first use and kept on the field.
        """
        base = self.base
        lay = self.digit_layout
        if self._frobenius_columns is None:
            # from_index(p**k) is the unit with power digit k set
            self._frobenius_columns = [
                lay.pack(_power_digits(self.from_index(base.p**k) ** base.order))
                for k in range(self.alpha * base.e)
            ]
        e = base.e
        flat = modp.mat_vec(self._frobenius_columns, _power_digits(el), lay)
        return Element(self, tuple(tuple(flat[u * e : (u + 1) * e]) for u in range(self.alpha)))

    def trace(self, el: "Element") -> "Element":
        """Trace down to the base field: the sum of all q-power conjugates."""
        self._check_same(el)
        acc = el
        conj = el
        for _ in range(self.alpha - 1):
            conj = self.frobenius(conj)
            acc = acc + conj
        out = self.as_base(acc)
        if out is None:  # pragma: no cover
            raise ConstructionError("trace left the base field; tower is inconsistent")
        return out

    def polynomial_basis(self) -> "OrderedBasis":
        """The basis (1, y, y^2, ..., y^(alpha-1))."""
        if self._poly_basis is None:
            cz, co = self.base.rzero, self.base.rone
            elems = tuple(
                Element(self, tuple(co if i == j else cz for i in range(self.alpha)))
                for j in range(self.alpha)
            )
            self._poly_basis = OrderedBasis(self, elems)
        return self._poly_basis


@dataclass(frozen=True, slots=True)
class Element:
    """A field value: a fixed-length coefficient tuple tagged with its field."""

    spec: Union[FieldSpec, ExtSpec]
    coeffs: tuple

    def _same(self, other: "Element"):
        if not isinstance(other, Element):
            raise ParameterError(f"cannot combine field element with {other!r}")
        self.spec._check_same(other)

    def __add__(self, other):
        self._same(other)
        return Element(self.spec, self.spec.radd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same(other)
        return Element(self.spec, self.spec.rsub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Element(self.spec, self.spec.rneg(self.coeffs))

    def __mul__(self, other):
        self._same(other)
        return Element(self.spec, self.spec.rmul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._same(other)
        return Element(self.spec, self.spec.rmul(self.coeffs, self.spec.rinv(other.coeffs)))

    def __pow__(self, k: int):
        return Element(self.spec, self.spec.rpow(self.coeffs, k))

    def inverse(self) -> "Element":
        return Element(self.spec, self.spec.rinv(self.coeffs))

    def __bool__(self):
        return self.coeffs != self.spec.rzero

    def __repr__(self):
        return f"El{list(self.coeffs)}"


def trace(el: Element) -> Element:
    """Trace of an extension element down to its base field."""
    if not isinstance(el.spec, ExtSpec):
        raise ParameterError("trace expects an extension-field element")
    return el.spec.trace(el)


# ---------------------------------------------------------------------------
# Field construction.


def _seeded_modulus(K, deg: int, seed: int, missing: str) -> tuple:
    """A monic irreducible degree-``deg`` polynomial over the coefficient
    field K, found by seeded search; ConstructionError naming ``missing``
    if the search runs dry.

    The search shuffles all monic candidates with the given seed (sampling
    instead once the space is large) and returns the first irreducible
    one, so the result is reproducible per seed.
    """
    if deg == 1:
        return (K.rzero, K.rone)
    rng = random.Random(seed)
    if K.size**deg <= (1 << 16):
        lows = list(itertools.product(list(K.riter_lex()), repeat=deg))
        rng.shuffle(lows)
    else:
        lows = (
            [K.rfrom_index(rng.randrange(K.size)) for _ in range(deg)]
            for _ in range(_MODULUS_SEARCH_BUDGET)
        )
    for low in lows:
        mod = list(low) + [K.rone]
        if poly_is_irreducible(mod, K):
            return tuple(mod)
    raise ConstructionError(f"no irreducible {missing}")


def make_field(p: int, e: int, seed: int = 0) -> FieldSpec:
    """Build F_{p^e} with a modulus found by seeded random search."""
    if not is_prime(p):
        raise ParameterError(f"characteristic {p} is not prime")
    if e < 1:
        raise ParameterError("degree must be at least 1")
    mod = _seeded_modulus(_PrimeOps(p), e, seed, f"modulus found for GF({p}^{e})")
    return FieldSpec(p, e, mod)


def make_extension(base: FieldSpec, alpha: int, seed: int = 0) -> ExtSpec:
    """Build F_{q^alpha} over a base field; same seeded search as make_field."""
    if alpha < 1:
        raise ParameterError("alpha must be at least 1")
    mod = _seeded_modulus(base, alpha, seed, f"extension modulus of degree {alpha}")
    return ExtSpec(base, alpha, mod)


def make_tower(p: int, e: int, alpha: int, seed: int = 0) -> ExtSpec:
    """Convenience: base field plus extension in one call."""
    return make_extension(make_field(p, e, seed), alpha, seed)


# ---------------------------------------------------------------------------
# Bases.


def _power_digits(el: Element) -> list[int]:
    """The prime-field digits of an extension element, y-power major.

    Digit u*e + d is the x^d digit of the y^u coefficient.
    """
    return [d for c in el.coeffs for d in c]


class OrderedBasis:
    """An ordered basis of the extension over its base field.

    The basis keeps one change-of-coordinates transform, over the prime
    field, built at construction: the ``alpha * e`` elements
    ``digit_elements[j*e + d] = omega_j * x^d`` form an F_p-basis exactly
    when omega is an F_q-basis, so a singular digit matrix is the basis
    check.  ``coordinate_digits`` / ``from_coordinate_digits`` convert
    between an element and its digits against it (digit d of coordinate j
    at index j*e + d); ``coordinates`` / ``combine`` group those digits
    into base-field elements.  Both matrices are kept as columns packed
    under the extension's ``digit_layout``, so a conversion is one packed
    matrix-vector product (``modp.mat_vec``).
    """

    def __init__(self, ext: ExtSpec, elements: Sequence[Element]):
        elems = tuple(elements)
        if len(elems) != ext.alpha:
            raise InvalidBasisError(f"need {ext.alpha} elements, got {len(elems)}")
        for el in elems:
            ext._check_same(el)
        self.ext = ext
        self.elements = elems
        base = ext.base
        # from_index(p**d) is x^d, the d-th power-basis element of the base
        units = [ext.lift(base.from_index(base.p**d)) for d in range(base.e)]
        self.digit_elements = tuple(w * x for w in elems for x in units)
        lay = ext.digit_layout
        self._to_power = [lay.pack(_power_digits(el)) for el in self.digit_elements]
        try:
            self._from_power = modp.inverse(self._to_power, lay)
        except ParameterError:
            raise InvalidBasisError("elements are linearly dependent over the base field")
        self._hash = hash((ext, tuple(el.coeffs for el in elems)))

    def coordinate_digits(self, x: Element) -> list[int]:
        """Prime-field digits of the coordinates of x (see the class notes)."""
        self.ext._check_same(x)
        return modp.mat_vec(self._from_power, _power_digits(x), self.ext.digit_layout)

    def from_coordinate_digits(self, digits: Sequence[int]) -> Element:
        """Inverse of coordinate_digits; digits are read mod p."""
        ext = self.ext
        p, e = ext.base.p, ext.base.e
        if len(digits) != ext.alpha * e:
            raise ParameterError("coordinate digit vector has the wrong length")
        flat = modp.mat_vec(self._to_power, [d % p for d in digits], ext.digit_layout)
        return Element(ext, tuple(tuple(flat[u * e : (u + 1) * e]) for u in range(ext.alpha)))

    def coordinates(self, x: Element) -> tuple:
        """Base-field coordinates of x with respect to this basis."""
        base = self.ext.base
        e = base.e
        digits = self.coordinate_digits(x)
        return tuple(Element(base, tuple(digits[j * e : (j + 1) * e])) for j in range(self.ext.alpha))

    def combine(self, coords: Sequence[Element]) -> Element:
        """Inverse of coordinates: sum coords[j] * basis[j]."""
        if len(coords) != self.ext.alpha:
            raise ParameterError("coordinate vector has the wrong length")
        for c in coords:
            self.ext.base._check_same(c)
        return self.from_coordinate_digits([d for c in coords for d in c.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, OrderedBasis)
            and self.ext == other.ext
            and self.elements == other.elements
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OrderedBasis({self.elements})"


def is_basis(ext: ExtSpec, elements: Sequence[Element]) -> bool:
    """True when the elements form a basis of the extension over its base field."""
    try:
        OrderedBasis(ext, elements)
    except InvalidBasisError:
        return False
    return True


def dual_basis(omega: OrderedBasis) -> OrderedBasis:
    """The unique basis mu with trace(omega_i * mu_j) = delta_ij.

    Solved as one base-field linear system: T[i][k] = trace(omega_i * y^k),
    and the coordinate columns of mu are T^{-1}.
    """
    from . import linalg

    ext = omega.ext
    base = ext.base
    alpha = ext.alpha
    pb = ext.polynomial_basis().elements
    t_rows = [
        [ext.trace(omega.elements[i] * pb[k]) for k in range(alpha)]
        for i in range(alpha)
    ]
    inv = linalg.invert(t_rows, base)
    mu = tuple(
        Element(ext, tuple(inv[k][j].coeffs for k in range(alpha)))
        for j in range(alpha)
    )
    return OrderedBasis(ext, mu)


# ---------------------------------------------------------------------------
# Subfields and quadratic roots.


def _subfield_map(ext: ExtSpec, d: int) -> list[list[Element]]:
    # the base-linear map x -> x^(q^d) - x in coordinates over the
    # polynomial basis; its kernel is the subfield with q^d elements
    if d < 1 or ext.alpha % d != 0:
        raise ParameterError(f"{d} does not divide alpha={ext.alpha}")
    base = ext.base
    alpha = ext.alpha
    cols = []
    for el in ext.polynomial_basis().elements:
        img = el
        for _ in range(d):
            img = ext.frobenius(img)
        diff = img - el
        cols.append([Element(base, diff.coeffs[k]) for k in range(alpha)])
    return [[cols[j][k] for j in range(alpha)] for k in range(alpha)]


def subfield_basis(ext: ExtSpec, d: int) -> list[Element]:
    """A base-field basis of the subfield with q^d elements inside the extension.

    Computed as the kernel of the base-linear map x -> x^(q^d) - x in
    coordinates over the polynomial basis; the canonical kernel basis (one
    vector per free column) makes the result canonical.
    """
    from . import linalg

    kernel = linalg.right_kernel(_subfield_map(ext, d), ext.alpha, ext.base)
    if len(kernel) != d:  # pragma: no cover
        raise ConstructionError("subfield kernel has unexpected dimension")
    return [Element(ext, tuple(c.coeffs for c in v)) for v in kernel]


def iter_subfield_members(ext: ExtSpec, d: int) -> Iterator[Element]:
    """The q^d elements of the degree-d subfield, lazily, by coefficient tuple.

    The walk uses the subfield's basis in reduced row echelon form over
    the base field, with first-nonzero pivots p_1 < ... < p_d.  The
    coordinate of sum c_k v_k at p_k is then c_k itself, and every
    coordinate before p_k depends only on c_1 .. c_(k-1); so walking the
    coefficient tuples in lexicographic order walks the members in
    lexicographic order.  That echelon basis comes from the canonical
    kernel of the subfield map with its columns reversed: each kernel
    vector is 1 at its free column, 0 at the other free columns and zero
    after it, so read back to front it is an echelon row, and the list
    reversed has its pivots ascending.
    """
    from . import linalg

    reversed_map = [row[::-1] for row in _subfield_map(ext, d)]
    kernel = linalg.right_kernel(reversed_map, ext.alpha, ext.base)
    echelon = [Element(ext, tuple(c.coeffs for c in reversed(v))) for v in reversed(kernel)]
    scalars = [ext.lift(c) for c in ext.base.lex_elements()]
    multiples = [[c * v for c in scalars] for v in echelon]
    for parts in itertools.product(*multiples):
        acc = parts[0]
        for x in parts[1:]:
            acc = acc + x
        yield acc


def subfield_members(ext: ExtSpec, d: int) -> list[Element]:
    """All q^d elements of the degree-d subfield, sorted by coefficient tuple."""
    return list(iter_subfield_members(ext, d))


@dataclass(frozen=True, slots=True)
class QuadraticRoot:
    """A root b of the irreducible quadratic x^2 + a1*x + a0 over the base."""

    a0: Element
    a1: Element
    b: Element


def _quadratic_root_in_plane(ext: ExtSpec, a0: Element, a1: Element) -> "QuadraticRoot | None":
    # locate a root of x^2 + a1 x + a0 inside the canonical degree-2 subfield
    base = ext.base
    poly = [a0.coeffs, a1.coeffs, base.rone]
    if not poly_is_irreducible(poly, base):
        return None
    la0, la1 = ext.lift(a0), ext.lift(a1)
    for b in iter_subfield_members(ext, 2):
        if b * b + la1 * b + la0 == ext.zero():
            return QuadraticRoot(a0, a1, b)
    return None  # pragma: no cover


def find_quadratic_root(ext: ExtSpec) -> QuadraticRoot:
    """First irreducible monic quadratic over the base, with a root in the extension.

    Scans (a0, a1) pairs lexicographically; the root is located inside the
    canonical degree-2 subfield, so no cross-field embedding is needed.
    Requires even alpha.
    """
    if ext.alpha % 2 != 0:
        raise ParameterError("quadratic roots exist in the extension only for even alpha")
    base = ext.base
    for a0 in base.lex_elements():
        for a1 in base.lex_elements():
            root = _quadratic_root_in_plane(ext, a0, a1)
            if root is not None:
                return root
    raise ConstructionError("no irreducible quadratic found")  # pragma: no cover


def quadratic_root_with_constant(ext: ExtSpec, a0: Element) -> QuadraticRoot:
    """Like find_quadratic_root but with the constant coefficient pinned.

    A pinned constant of -1 makes the root's norm -1, which some
    constructions rely on; such a quadratic exists over every base field.
    """
    if ext.alpha % 2 != 0:
        raise ParameterError("quadratic roots exist in the extension only for even alpha")
    base = ext.base
    base._check_same(a0)
    for a1 in base.lex_elements():
        root = _quadratic_root_in_plane(ext, a0, a1)
        if root is not None:
            return root
    raise ConstructionError(f"no irreducible quadratic with constant term {a0!r}")
