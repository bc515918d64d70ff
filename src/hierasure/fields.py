"""Exact arithmetic in a two-level tower of finite fields.

The base field F_q = F_p[x]/(f) has q = p^e elements and the extension
F_{q^alpha} = F_q[y]/(g) has q^alpha.  Every element of either field is
spelled one way: the tuple of its prime-field digits, its raw value.  A
base raw is e ints mod p, the coefficients of ascending powers of x; an
extension raw is alpha * e ints, y-power major, so digit a*e + d is the
x^d digit of the y^a coefficient.  Raws are immutable and hashable, and
every operation is a pure function; contexts and elements can be shared
between threads without synchronization.  Nested coefficient lists exist
only in the JSON wire format (``serialize``) and in the extension's
modulus, which is a polynomial over the base field.

Sums, differences and negatives are digit by digit mod p, the same in
both fields (``_Field``).  Each field has one packed step,
``power_multiples``: the products of a packed value by the field's power
units (x^d in the base field, y^a * x^d in the extension), made by lane
shifts with the folds read off the moduli.  Every F_p matrix of
multiplication by an element comes from it: the product tables of code
expansions (``codes.LinearCode.table``), the columns of multiplication
by a column of elements (``multiplication_columns``: ``linalg`` blocks,
UDM digit rows and greedy GV's candidates) and the Frobenius matrix of
the irreducibility test over a non-prime base.  Multiplication with
prime-field coefficients (the base field, and an extension of a prime
field) is one packed multiply: both factors packed one coefficient per
lane, the product's high lanes folded back in with the rows z^k mod the
modulus (``_PackedProduct``); over a non-prime base it is one packed
combination of a's digits with the power multiples of b.  Powers are
square-and-multiply and the inverse is a^(order-2).

A modulus is irreducible by one test on the field's own arithmetic,
Berlekamp's criterion: set up K[y]/(f) as if f were irreducible, and
check by two prime-field ranks of the matrix Q of a -> a^|K| that Q is
nonsingular, which holds exactly when f is squarefree (K[y]/(f) then
has no nilpotents), and that Q - I has a kernel of one K-dimension.
Over prime-field coefficients Q's columns are the powers of y^p, each
one packed product.  The constructors run the test, and the seeded
searches run it once per candidate on the field they return.
The images of a -> a^|K| are the matrix of the Frobenius x -> x^q,
which is F_q-linear, so the extension keeps them for ``frobenius`` and
``trace``, and beside them the packed columns of each power x -> x^(q^d)
asked for: the subfield of q^d elements is that map's fixed points, so
a membership test is one packed map and the subfield maps read their
columns off it.

A basis omega of the extension over F_q (``OrderedBasis``) keeps one
coordinate transform, over the prime field: the digits of x's
coordinates over omega, each base-field coordinate spelled as its e
digits.  Whether a tuple is a basis at all is the rank of that map's
matrix, and its inverse, which converts power digits to coordinates, is
made on the first conversion that needs it.  A basis keeps nothing
else: the packed layouts a code reads against it (its product table,
blocks and decode tags) are built and kept by the code (``codes``).

Deterministic search orders are part of the contract: modulus searches
shuffle the positions of the candidates with a seeded RNG, while element
searches (primitive elements, quadratic roots) run in lexicographic order
over raws.  Subfield representatives, also lex-first, are read off a
subfield's echelon basis with no search.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterator, Sequence, Union

from . import modp
from .errors import ConstructionError, InvalidBasisError, ParameterError, require_int

_MODULUS_SEARCH_BUDGET = 100_000


def prime_factors(n: int) -> Iterator[int]:
    """The distinct primes dividing n, ascending (none for n < 2), by
    trial division; adequate at the scales used here."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    """True when n's least prime factor is n itself."""
    return n >= 2 and next(prime_factors(n)) == n


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
# Products: one packed multiply for prime-field coefficients, and packed
# steps by the power units for every multiplication matrix.


class _PackedProduct:
    """Products mod a monic degree-d modulus f(z) with prime-field
    coefficients (z is x in the base field, y in an extension of a prime
    field), by Kronecker substitution: a and b, raws of d ints, are packed
    one coefficient per lane and multiplied once, so lane k of the product
    is the coefficient of z^k, at most d * (p-1)^2.  Its d - 1 high lanes,
    taken mod p, fold back in times the rows z^k mod f, k = d .. 2d-2,
    which adds at most (d-1) * (p-1)^2 to a low lane: a layout of 2d - 1
    terms holds the sum, and one normalization reduces it.  Row d is
    -f_low and each next one the previous times z (``_times_unit``).
    """

    __slots__ = ("low", "layout", "shifts", "rows")

    def __init__(self, p: int, low: Sequence[int]):
        d = len(low)
        self.low = low  # f_low
        self.layout = lay = modp.layout(p, 2 * d - 1)
        self.shifts = range(0, d * lay.bits, lay.bits)
        fold = lay.pack([-c % p for c in low])  # z^d = -f_low
        rows = [fold] if d > 1 else []
        for _ in range(2, d):
            rows.append(_times_unit(rows[-1], lay, d, d, [fold]))
        self.rows = rows

    def product(self, a, b) -> tuple:
        bits = self.layout.bits
        x = y = 0
        for u, v in zip(reversed(a), reversed(b)):
            x = x << bits | u
            y = y << bits | v
        x, lane = self._reduce(x * y), self.layout.lane
        return tuple([x >> s & lane for s in self.shifts])

    def _reduce(self, x: int) -> int:
        # the unreduced product's 2d - 1 lanes to its d lanes mod f, normalized
        lay, rows, cut = self.layout, self.rows, self.shifts.stop
        p, bits, lane = lay.p, lay.bits, lay.lane
        high = [(x >> s & lane) % p for s in range(cut, cut + len(rows) * bits, bits)]
        return lay.normalize((x & (1 << cut) - 1) + sum(map(mul, high, rows)))


def _times_unit(v: int, lay: modp.Layout, lanes: int, period: int, folds: Sequence[int]) -> int:
    """Every group of ``period`` lanes of v times z (x or y), normalized.

    v has ``lanes`` lanes packed under ``lay`` (lay.lanes >= lanes), read
    as groups of ``period`` digits against units b_0 .. b_(period-1) with
    z * b_l = b_(l+s) for l + s < period and z * b_(period-s+d) = folds[d],
    s = len(folds), each fold packed over one group.  So the product is a
    shift of s lanes, after which the s lanes that left each group sit at
    the bottom of the next; they are cut out, and lane d of them is spread
    over its own group by one multiply with folds[d].  Lanes then stay at
    most (p-1) + s * (p-1)^2, so s must not exceed lay.terms.  Multiplying
    by x is z = x, period e and the fold -f_low; by y over the power digits
    of the extension, z = y, period alpha * e and folds -x^d * g_low(y).
    """
    b = lay.bits
    s = len(folds)
    step = period * b
    ones = ((1 << step * (lanes // period)) - 1) // ((1 << step) - 1)  # a 1 in lane 0 of each group
    v <<= s * b
    tops = v & (ones << step) * ((1 << s * b) - 1)
    v ^= tops
    tops >>= step
    starts = ones * lay.lane  # lane 0 of each group
    for d, fold in enumerate(folds):
        v += (tops >> d * b & starts) * fold
    return lay.normalize(v)


def _independent(columns: Sequence[int], lay: modp.Layout) -> bool:
    # stops at the first dependent column
    ech = modp.Echelon(lay)
    return all(ech.insert(col) is None for col in columns)


# ---------------------------------------------------------------------------
# Field contexts.


class _Field:
    """Shared engine for a quotient field K[y]/(modulus) over a coefficient
    field K: F_p for ``FieldSpec``, the base field for ``ExtSpec``.

    A raw value is the tuple of the element's ``digit_layout.width``
    prime-field digits, in both fields, so sums, differences, negatives,
    the raw check, indices and lexicographic order are defined here once.
    A subclass's ``_setup`` sets ``p``, ``order``, ``modulus``,
    ``_mod_digits`` (the modulus's F_p digits, coefficient by coefficient),
    ``_kdigits`` (K's F_p digit count), ``digit_layout`` (one lane per F_p
    digit of the field) and ``_mulmod`` (the packed product over a
    prime-field K, or None), then calls ``_init_engine``.  The subclass
    defines ``power_multiples``, the products by the power units.  The
    index of a raw value is its digits read base p, so ``from_index(p**u)``
    is the power unit U_u, the unit whose digit u is 1.
    """

    _kdigits: int
    _mod_digits: tuple
    _mulmod: "_PackedProduct | None"
    digit_layout: modp.Layout
    modulus: tuple
    order: int
    p: int

    @classmethod
    def _candidate(cls, *args):
        """The field set up on ``args`` as the constructor does, its
        modulus not yet tested."""
        self = cls.__new__(cls)
        self._setup(*args)
        return self

    def _init_engine(self):
        n = self.digit_layout.width
        self.rzero = (0,) * n
        self.rone = (1,) + (0,) * (n - 1)
        self._zero_el = Element(self, self.rzero)
        self._one_el = Element(self, self.rone)
        self._generator_raw = None

    def _irreducible(self) -> bool:
        """Berlekamp's criterion for the modulus f (Knuth, TAOCP vol. 2,
        4.6.2), with squarefreeness read off the same matrix.

        In R = K[y]/(f) the map a -> a^|K| is K-linear, and when f is
        squarefree its fixed points form a K-space whose dimension is the
        number of distinct irreducible factors of f.  f is squarefree
        exactly when the map is injective: a squarefree f makes R a product
        of fields, which has no nilpotents, while f = g^2 h gives a = g h,
        not 0 in R, with a^2 and so a^|K| divisible by f.  So f is
        irreducible iff, as F_p-linear maps of R's D digits, a -> a^|K| has
        rank D and a -> a^|K| - a has rank D - c, with c the digit count
        of K.  The images of a -> a^|K| are kept as the packed
        ``_frobenius_columns``.
        """
        lay = self.digit_layout
        p, n, c = lay.p, lay.width, self._kdigits
        # a -> a^|K| is K-linear and fixes K, so it sends the unit y^u * x^d
        # to (y^|K|)^u * x^d: the units x^d themselves for u = 0, then K's
        # power multiples of each power of y^|K| (digit c is y; K = F_p,
        # c = 1, has the one power unit 1)
        cols = [1 << d * lay.bits for d in range(c)]
        if n > c and self._mulmod is not None:
            # prime-field coefficients: (y^p)^u, u = 1 .. n-1, chained as
            # packed products, each repacked under the field's layout.
            # y^p is one reduction of the packed unit while it has at most
            # the product's 2n - 1 lanes
            mm = self._mulmod
            if p <= 2 * n - 2:
                step = acc = mm._reduce(1 << p * mm.layout.bits)
            else:
                step = acc = mm.layout.pack(self.rpow(self.rfrom_index(p), p))
            for u in range(1, n):
                if u > 1:
                    acc = mm._reduce(acc * step)
                cols.append(lay.pack(mm.layout.digits(acc, 0, n)))
        elif n > c:
            step = acc = self.rpow(self.rfrom_index(p**c), p**c)
            for u in range(1, n // c):
                if u > 1:
                    acc = self.rmul(acc, step)
                cols += self.base.power_multiples(lay.pack(acc), lay, n)
        self._frobenius_columns = cols
        # Q - I sends K's c units to 0, so its rank is n - c iff its other
        # columns are independent
        moved = [lay.normalize(cols[k] + (p - 1 << k * lay.bits)) for k in range(c, n)]
        return _independent(moved, lay) and _independent(cols, lay)

    def multiplication_columns(self, column: Sequence["Element"], lay: modp.Layout) -> list[int]:
        """The F_p columns of multiplication by each power unit U_u on a
        column of the field's elements: the entries' digits stacked and
        packed under ``lay``, and their ``power_multiples``, so column u
        stacks the digits of U_u * h, entry by entry.  A K-matrix column
        becomes these ``digit_layout.width`` columns over F_p."""
        digits = [d for h in column for d in h.coeffs]
        return self.power_multiples(lay.pack(digits), lay, len(digits))

    # -- raw arithmetic: sums are digit by digit in both fields ---------------

    def radd(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def rsub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def rneg(self, a):
        p = self.p
        return tuple([-x % p for x in a])

    def rmul(self, a, b):
        # one packed multiply over prime-field coefficients (``_mulmod``),
        # else a * b = sum_u a_u * U_u * b over a's digits a_u
        if self._mulmod is not None:
            return self._mulmod.product(a, b)
        lay = self.digit_layout
        products = self.power_multiples(lay.pack(b), lay, lay.width)
        return tuple(lay.digits(lay.combination(a, products)))

    def rcheck(self, a) -> bool:
        if not (isinstance(a, tuple) and len(a) == self.digit_layout.width):
            return False
        p = self.p
        for c in a:
            if not (isinstance(c, int) and not isinstance(c, bool) and 0 <= c < p):
                return False
        return True

    def rpow(self, a, k: int):
        if k < 0:
            return self.rpow(self.rinv(a), -k)
        result = None
        acc = a
        while k:
            if k & 1:
                result = acc if result is None else self.rmul(result, acc)
            k >>= 1
            if k:
                acc = self.rmul(acc, acc)
        return self.rone if result is None else result

    def rinv(self, a):
        if a == self.rzero:
            raise ZeroDivisionError("inverse of zero")
        return self.rpow(a, self.order - 2)

    # -- enumeration and encoding: an index is the digits read base p ---------

    def rfrom_index(self, k: int):
        p = self.p
        return tuple([k // p**i % p for i in range(self.digit_layout.width)])

    def rindex(self, a) -> int:
        p = self.p
        k = 0
        for d in reversed(a):
            k = k * p + d
        return k

    def riter_lex(self) -> Iterator:
        return itertools.product(range(self.p), repeat=self.digit_layout.width)

    # -- primitive elements ----------------------------------------------------

    def _find_generator_raw(self):
        n = self.order - 1
        if n == 1:
            return self.rone
        factors = list(prime_factors(n))
        for cand in self.riter_lex():
            if cand == self.rzero:
                continue
            if all(self.rpow(cand, n // f) != self.rone for f in factors):
                return cand
        raise ConstructionError("no primitive element found")  # pragma: no cover

    # -- public element API ----------------------------------------------------

    def element(self, coeffs) -> "Element":
        """The element whose raw value is ``coeffs``: its digits, flat,
        y-power major in the extension; anything else is refused."""
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
        """All elements in lexicographic order over their raws."""
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
    """The base field F_q with q = p**e, as F_p[x]/(modulus); a raw value
    is its e digits, the coefficients of x^0 .. x^(e-1)."""

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        if not is_prime(require_int(p, "characteristic")):
            raise ParameterError(f"characteristic {p} is not prime")
        if require_int(e, "extension degree") < 1:
            raise ParameterError("extension degree must be at least 1")
        mod = tuple(require_int(c, "modulus coefficient") % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ParameterError("modulus must be monic of degree e")
        self._setup(p, e, mod)
        if not self._irreducible():
            raise ParameterError(f"modulus {mod} is reducible over Z_{p}")

    def _setup(self, p: int, e: int, mod: tuple):
        self.p = p
        self.e = e
        self.modulus = self._mod_digits = mod
        self.order = p**e
        self._kdigits = 1
        self._minus_low = [-c % p for c in mod[:-1]]
        self._mulmod = _PackedProduct(p, mod[:-1]) if e > 1 else None
        self.digit_layout = modp.layout(p, e)
        self._init_engine()
        self._hash = hash(("FieldSpec", p, e, mod))

    def rmul(self, a, b):
        if self.e == 1:
            return (a[0] * b[0] % self.p,)
        return self._mulmod.product(a, b)

    def power_multiples(self, v: int, lay: modp.Layout, lanes: int) -> list[int]:
        """[v, x * v, ..., x^(e-1) * v]: each group of e digits packed side
        by side in v (``lanes`` lanes under ``lay``, normalized) times each
        power unit x^d, normalized.  x * x^(e-1) = -f_low(x), f the
        modulus."""
        out = [v]
        if self.e > 1:
            fold = [lay.pack(self._minus_low)]
            for _ in range(1, self.e):
                out.append(_times_unit(out[-1], lay, lanes, self.e, fold))
        return out

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
    """The extension F_{q^alpha} = F_q[y]/(modulus) over a base FieldSpec;
    a raw value is its alpha * e digits, y-power major: digit a*e + d is
    the x^d digit of the y^a coefficient.  The modulus is a polynomial
    over the base, alpha + 1 base raws."""

    def __init__(self, base: FieldSpec, alpha: int, modulus: Sequence):
        if require_int(alpha, "alpha") < 1:
            raise ParameterError("alpha must be at least 1")
        mod = tuple(tuple(c) for c in modulus)
        if len(mod) != alpha + 1 or mod[-1] != base.rone:
            raise ParameterError("extension modulus must be monic of degree alpha")
        for c in mod:
            if not base.rcheck(c):
                raise ParameterError("extension modulus has invalid coefficients")
        self._setup(base, alpha, mod)
        if not self._irreducible():
            raise ParameterError("extension modulus is reducible over the base field")

    def _setup(self, base: FieldSpec, alpha: int, mod: tuple):
        self.base = base
        self.alpha = alpha
        self.p = base.p
        self.modulus = mod
        self._mod_digits = digits = tuple([d for c in mod for d in c])
        self.order = base.order**alpha
        self._kdigits = base.e
        # how the alpha * e prime-field digits of an element pack into one
        # int, for the Frobenius and basis matrices
        self.digit_layout = modp.layout(base.p, alpha * base.e)
        # over a prime base a product is one packed multiply
        self._mulmod = _PackedProduct(base.p, digits[:alpha]) if base.e == 1 else None
        self._init_engine()
        self._hash = hash(("ExtSpec", base, alpha, mod))
        self._poly_basis = None
        self._y_folds: dict = {}
        self._frobenius_powers: dict = {}

    def power_multiples(self, v: int, lay: modp.Layout, lanes: int) -> list[int]:
        """The D = alpha * e products U_u * v, U_u = y^a * x^d for u = a*e +
        d, of each group of D power digits packed side by side in v
        (``lanes`` lanes under ``lay``, normalized), each normalized.  Each
        y^a * v is the one before times y, and the base's power multiples
        give its x^d multiples."""
        base, n = self.base, self.digit_layout.width
        out = base.power_multiples(v, lay, lanes)
        if self.alpha > 1:
            folds = self._folds(lay)
            for _ in range(1, self.alpha):
                v = _times_unit(v, lay, lanes, n, folds)
                out += base.power_multiples(v, lay, lanes)
        return out

    def _folds(self, lay: modp.Layout) -> list[int]:
        # y * y^(alpha-1) x^d = -x^d * g_low(y), g the modulus: fold d packed
        # over one group in lanes of lay.bits bits.  They are made under the
        # field's own layout, which has the D lanes they need whatever lay
        # has, and kept per lane size.
        folds = self._y_folds.get(lay.bits)
        if folds is None:
            dl = self.digit_layout
            minus_g = dl.pack([-c % self.p for c in self._mod_digits[: dl.width]])
            folds = self._y_folds[lay.bits] = [
                lay.pack(dl.digits(f)) for f in self.base.power_multiples(minus_g, dl, dl.width)
            ]
        return folds

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

    def lift(self, el: "Element") -> "Element":
        """Embed a base-field element as a constant of the extension."""
        self.base._check_same(el)
        return Element(self, el.coeffs + self.rzero[self.base.e :])

    def as_base(self, el: "Element") -> "Element | None":
        """Project a constant extension element back to the base, else None."""
        self._check_same(el)
        e = self.base.e
        if any(el.coeffs[e:]):
            return None
        return Element(self.base, el.coeffs[:e])

    def frobenius(self, el: "Element") -> "Element":
        """x -> x^q, one prime-field matrix applied to the digits.

        The map is F_q-linear, so its matrix over F_p has as columns the
        q-th powers of the alpha * e units y^u * x^d, packed; the
        irreducibility test builds them with the field.
        """
        return Element(self, tuple(modp.mat_vec(self._frobenius_columns, el.coeffs, self.digit_layout)))

    def _frobenius_power(self, d: int) -> list[int]:
        """The packed columns of x -> x^(q^d), the Frobenius F to the d-th
        power, made on first use per d: F^d applies F^h to the columns of
        F^(d-h), h = d // 2, one packed combination each."""
        cols = self._frobenius_powers.get(d)
        if cols is None:
            if d == 1:
                cols = self._frobenius_columns
            else:
                lay, outer = self.digit_layout, self._frobenius_power(d // 2)
                cols = [lay.combination(lay.digits(c), outer) for c in self._frobenius_power(d - d // 2)]
            self._frobenius_powers[d] = cols
        return cols

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
            e = self.base.e
            elems = tuple(self.from_index(self.p ** (j * e)) for j in range(self.alpha))
            self._poly_basis = OrderedBasis(self, elems)
        return self._poly_basis


@dataclass(frozen=True, slots=True)
class Element:
    """A field value: its raw value, the tuple of its prime-field digits
    (``coeffs``; see the module notes), tagged with its field."""

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


_new = object.__new__
_set_spec = Element.spec.__set__
_set_coeffs = Element.coeffs.__set__


def _element(spec: Union[FieldSpec, ExtSpec], raw: tuple) -> Element:
    """``Element(spec, raw)`` for a raw the field has already produced,
    without the frozen ``__init__``: a new object and its two slots set,
    so the element is as immutable as any other."""
    el = _new(Element)
    _set_spec(el, spec)
    _set_coeffs(el, raw)
    return el


def trace(el: Element) -> Element:
    """Trace of an extension element down to its base field."""
    if not isinstance(el.spec, ExtSpec):
        raise ParameterError("trace expects an extension-field element")
    return el.spec.trace(el)


# ---------------------------------------------------------------------------
# Field construction.


def _seeded_modulus(setup, p: int, c: int, deg: int, seed: int, missing: str):
    """The field ``setup(low)`` builds on the first monic irreducible
    degree-``deg`` modulus found by seeded search; ConstructionError naming
    ``missing`` if the search runs dry.

    ``low`` is the list of F_p digits of the modulus's ``deg`` low
    coefficients, ``c`` per coefficient as the coefficient field's raws
    spell them.  The search shuffles the positions of all candidates in
    lexicographic order with the given seed (sampling coefficients by
    index instead once the space is large) and tests them in turn, so the
    result is reproducible per seed and each candidate is tested once.
    """
    size = p**c
    if deg == 1:
        lows = [[0] * c]
    elif size**deg <= (1 << 16):
        positions = list(range(size**deg))
        random.Random(seed).shuffle(positions)
        # the candidate at position k spells k base p, most significant digit first
        lows = ([k // p**i % p for i in reversed(range(deg * c))] for k in positions)
    else:
        rng = random.Random(seed)
        # a coefficient of index r spells r base p, least significant digit first
        lows = (
            [r // p**i % p for r in [rng.randrange(size) for _ in range(deg)] for i in range(c)]
            for _ in range(_MODULUS_SEARCH_BUDGET)
        )
    for low in lows:
        field = setup(low)
        if field._irreducible():
            return field
    raise ConstructionError(f"no irreducible {missing}")


def make_field(p: int, e: int, seed: int = 0) -> FieldSpec:
    """Build F_{p^e} with a modulus found by seeded random search."""
    if not is_prime(p):
        raise ParameterError(f"characteristic {p} is not prime")
    if e < 1:
        raise ParameterError("degree must be at least 1")
    return _seeded_modulus(
        lambda low: FieldSpec._candidate(p, e, tuple(low) + (1,)),
        p, 1, e, seed, f"modulus found for GF({p}^{e})",
    )


def make_extension(base: FieldSpec, alpha: int, seed: int = 0) -> ExtSpec:
    """Build F_{q^alpha} over a base field; same seeded search as make_field."""
    if alpha < 1:
        raise ParameterError("alpha must be at least 1")
    return _seeded_modulus(
        # the low digits grouped into base raws, the modulus's coefficients
        lambda low: ExtSpec._candidate(base, alpha, tuple(zip(*[iter(low)] * base.e)) + (base.rone,)),
        base.p, base.e, alpha, seed, f"extension modulus of degree {alpha}",
    )


def make_tower(p: int, e: int, alpha: int, seed: int = 0) -> ExtSpec:
    """Convenience: base field plus extension in one call."""
    return make_extension(make_field(p, e, seed), alpha, seed)


# ---------------------------------------------------------------------------
# Bases.


class OrderedBasis:
    """An ordered basis of the extension over its base field.

    The basis keeps one change-of-coordinates transform, over the prime
    field: the ``alpha * e`` elements ``w_k = omega_j * x^d`` (k = j*e +
    d) form an F_p-basis exactly when omega is an F_q-basis, so the rank
    of their digit matrix is the basis check, made at construction.
    Their power digits are the base's power multiples of omega's, with no
    extension products.  The inverse matrix, from power digits to
    coordinates, is made on the first conversion that needs it: loading
    and checking a code or a received word converts nothing.
    ``coordinate_digits`` / ``from_coordinate_digits`` convert between an
    element and its digits against the w_k (digit d of coordinate j at
    index j*e + d); ``coordinates`` / ``combine`` group those digits into
    base-field elements.  Both matrices are kept as columns packed under
    the extension's ``digit_layout``, so a conversion is one packed
    matrix-vector product (``modp.mat_vec``).  Column k of ``_to_power``
    is the power digits of w_k, which a code's product table is built
    from (``codes.LinearCode.table``); the basis caches no table and no
    tags.
    """

    def __init__(self, ext: ExtSpec, elements: Sequence[Element]):
        elems = tuple(elements)
        if len(elems) != ext.alpha:
            raise InvalidBasisError(f"need {ext.alpha} elements, got {len(elems)}")
        for el in elems:
            ext._check_same(el)
        self.ext = ext
        self.elements = elems
        lay = ext.digit_layout
        self._to_power = [
            v
            for w in elems
            for v in ext.base.power_multiples(lay.pack(w.coeffs), lay, lay.width)
        ]
        if not _independent(self._to_power, lay):
            raise InvalidBasisError("elements are linearly dependent over the base field")
        self._hash = hash((ext, tuple(el.coeffs for el in elems)))

    @cached_property
    def _from_power(self) -> list[int]:
        # the columns of the inverse transform, made on first use
        return modp.inverse(self._to_power, self.ext.digit_layout)

    def coordinate_digits(self, x: Element) -> list[int]:
        """Prime-field digits of the coordinates of x (see the class notes)."""
        self.ext._check_same(x)
        return modp.mat_vec(self._from_power, x.coeffs, self.ext.digit_layout)

    def from_coordinate_digits(self, digits: Sequence[int]) -> Element:
        """Inverse of coordinate_digits; digits are read mod p."""
        ext = self.ext
        p, e = ext.base.p, ext.base.e
        if len(digits) != ext.alpha * e:
            raise ParameterError("coordinate digit vector has the wrong length")
        flat = modp.mat_vec(self._to_power, [d % p for d in digits], ext.digit_layout)
        return Element(ext, tuple(flat))

    def coordinates(self, x: Element) -> tuple:
        """Base-field coordinates of x with respect to this basis."""
        base = self.ext.base
        e = base.e
        digits = self.coordinate_digits(x)
        return tuple(Element(base, tuple(digits[k : k + e])) for k in range(0, len(digits), e))

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
        Element(ext, tuple([d for k in range(alpha) for d in inv[k][j].coeffs]))
        for j in range(alpha)
    )
    return OrderedBasis(ext, mu)


# ---------------------------------------------------------------------------
# Subfields and quadratic roots.


def _subfield_kernel(ext: ExtSpec, d: int, reverse: bool = False) -> list[list[int]]:
    # the digits of the canonical kernel basis of the base-linear map
    # x -> x^(q^d) - x over the polynomial basis (its columns in reverse
    # order when asked); the kernel is the subfield with q^d elements.
    # The map's F_p column u is the image of the power unit u, read off
    # the packed columns of x -> x^(q^d), minus that unit, and base column
    # j is the block of its e units y^j x^k
    if d < 1 or ext.alpha % d != 0:
        raise ParameterError(f"{d} does not divide alpha={ext.alpha}")
    e, lay = ext.base.e, ext.digit_layout
    images = ext._frobenius_power(d)
    order = reversed(range(ext.alpha)) if reverse else range(ext.alpha)
    columns = [
        lay.normalize(images[u] + (lay.p - 1 << u * lay.bits)) for j in order for u in range(j * e, j * e + e)
    ]
    kernel = [tail for tail in modp.kernel(columns, lay, e) if tail is not None]
    if len(kernel) != d:  # pragma: no cover
        raise ConstructionError("subfield kernel has unexpected dimension")
    return kernel


def subfield_basis(ext: ExtSpec, d: int) -> list[Element]:
    """A base-field basis of the subfield with q^d elements inside the extension.

    Computed as the kernel of the base-linear map x -> x^(q^d) - x in
    coordinates over the polynomial basis; the canonical kernel basis (one
    vector per free column) makes the result canonical.
    """
    return [Element(ext, tuple(v)) for v in _subfield_kernel(ext, d)]


def _subfield_echelon(ext: ExtSpec, d: int) -> list[Element]:
    # the degree-d subfield's basis in reduced row echelon form over the
    # base, pivots ascending: each vector of the canonical kernel of the
    # reversed subfield map is 1 at its free column, 0 at the other free
    # columns and after it, so read back to front, by blocks of e digits,
    # it is an echelon row
    e = ext.base.e
    starts = range((ext.alpha - 1) * e, -1, -e)
    return [
        Element(ext, tuple([c for k in starts for c in v[k : k + e]]))
        for v in reversed(_subfield_kernel(ext, d, reverse=True))
    ]


def in_subfield(ext: ExtSpec, el: Element, d: int) -> bool:
    """True when el lies in the subfield with q^d elements: el is fixed by
    x -> x^(q^d), one packed map of its digits."""
    lay = ext.digit_layout
    return lay.combination(el.coeffs, ext._frobenius_power(d)) == lay.pack(el.coeffs)


def first_outside(ext: ExtSpec, big_d: int, small_d: int) -> Element:
    """The lexicographically first member of the degree big_d subfield
    outside the degree small_d one.

    The members sum c_k v_k over the big subfield's echelon basis sort as
    their vectors c do, and with v_j the last basis vector outside, the
    answer is the first nonzero scalar times v_j.
    """
    for v in reversed(_subfield_echelon(ext, big_d)):
        if not in_subfield(ext, v, small_d):
            first_nonzero = next(c for c in ext.base.lex_elements() if c)
            return ext.lift(first_nonzero) * v
    raise ConstructionError("nested subfields are equal; tower bug")  # pragma: no cover


@dataclass(frozen=True, slots=True)
class QuadraticRoot:
    """A root b of the irreducible quadratic x^2 + a1*x + a0 over the base."""

    a0: Element
    a1: Element
    b: Element


def _quadratic_root_in_plane(ext: ExtSpec, a0: Element, a1: Element) -> "QuadraticRoot | None":
    """The lexicographically first root of x^2 + a1 x + a0 in the degree-2
    subfield S, or None when the quadratic is reducible over the base.

    The roots are the b in S with b + b^q = -a1 and b * b^q = a0.  The
    trace b -> b + b^q is F_q-linear on S, so the first condition is a
    line u + c * v, v spanning the trace's kernel.  On it the norm is
    N(v) c^2 + T(u * v^q) c + N(u), so one scan of c over F_q finds a
    root, and the other root is -a1 minus it.
    """
    base = ext.base
    if not ExtSpec._candidate(base, 2, (a0.coeffs, a1.coeffs, base.rone))._irreducible():
        return None

    def trace2(b):  # b + b^q, in the base field for b in S
        return ext.as_base(b + ext.frobenius(b))

    s1, s2 = subfield_basis(ext, 2)
    t1, t2 = trace2(s1), trace2(s2)
    v = ext.lift(t2) * s1 - ext.lift(t1) * s2
    u = ext.lift(-a1 / t1) * s1 if t1 else ext.lift(-a1 / t2) * s2
    vq = ext.frobenius(v)
    norm_v, cross, norm_u = ext.as_base(v * vq), trace2(u * vq), ext.as_base(u * ext.frobenius(u))
    for c in base.lex_elements():
        if (norm_v * c + cross) * c + norm_u == a0:
            b = u + ext.lift(c) * v
            return QuadraticRoot(a0, a1, min(b, -ext.lift(a1) - b, key=lambda el: el.coeffs))
    return None  # pragma: no cover


def find_quadratic_root(ext: ExtSpec, a0: Element | None = None) -> QuadraticRoot:
    """First irreducible monic quadratic over the base, with a root in the extension.

    Scans (a0, a1) pairs lexicographically, with the constant a0 pinned
    when given; the root is located inside the canonical degree-2
    subfield, so no cross-field embedding is needed.  A pinned constant of
    -1 makes the root's norm -1, which ``square_trace_code`` relies on;
    such a quadratic exists over every base field.  Requires even alpha.
    """
    if ext.alpha % 2 != 0:
        raise ParameterError("quadratic roots exist in the extension only for even alpha")
    base = ext.base
    if a0 is not None:
        base._check_same(a0)
    for c0 in base.lex_elements() if a0 is None else (a0,):
        if not c0:
            continue  # x divides x^2 + a1 x
        for a1 in base.lex_elements():
            root = _quadratic_root_in_plane(ext, c0, a1)
            if root is not None:
                return root
    if a0 is not None:
        raise ConstructionError(f"no irreducible quadratic with constant term {a0!r}")
    raise ConstructionError("no irreducible quadratic found")  # pragma: no cover
