"""The linear-code record every construction emits and every checker consumes.

A code stores the expansion of H over the prime field against its
decoding basis omega: for each symbol i, the alpha * e columns of
H[:, i] * w_k with w_k = omega_j * x^d (k = j*e + d), which every
correctability check and every decode reads.  A column's rows are the
power digits of those products (their raws: y-power major, then
x-power), not their coordinates over omega.  Coordinates are the power
digits under one invertible F_p map F per entry (``OrderedBasis``'s
``_from_power``), so the two spellings of every column differ by the same
block-diagonal map F + ... + F, and no question the package asks of the
columns changes under it: the independence of prefixes, the first kernel
vector of a set of columns, and the solution of a system whose
right-hand side is made of the same columns.  The unknowns are
coordinates over omega in either spelling.  The power spelling needs no
extension product: each entry's alpha * e products are one packed
combination with the code's product table (``LinearCode.table``).

A code owns every packed layout of its expansion: the product table, the
blocks, the decoder's tag lanes and their readout, and only the code
reads its table and its tagged columns.  Its layouts have lanes of whole
bytes (``modp``'s notes), so a decoded word's tags are read out at once.
A basis is only the coordinate map they are read against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import modp
from .errors import ParameterError, require_int
from .fields import Element, ExtSpec, OrderedBasis, _element
from .patterns import PatternFamily


# decode plans kept per code, as many as ``modp.layout`` keeps layouts
PLAN_CAP = 1024


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A parity-check matrix over the extension field, plus decoding context.

    ``H`` has r rows and n columns; the code is its right kernel.  ``omega``
    is the basis codeword symbols are expanded over when erased, and
    ``claim`` names the pattern family the construction promises to
    correct.  ``rank`` is the actual rank of H, computed on first read
    from the expansion, and ``dim`` is n - rank, which may exceed n - r
    when rows are dependent.  The length, given or read off H, is an int
    of at least 1.  A 0-row H is legal (the whole space) but then
    ``length`` must be given.

    ``block(i)`` is H's base-field expansion against ``omega`` over the
    prime field, one block of alpha * e columns per symbol, so the t_i
    leading coordinates of symbol i are the prefix ``[: t_i * e]``.
    Column k = j*e + d of the block stacks, row by row, the alpha * e power
    digits of H[row, i] * omega_j * x^d: the row side is the power basis,
    and the column side (the unknowns) coordinates over omega (see the
    module notes for why that is exact).  Each column is one int packed
    under ``layout`` (``modp.Layout``): digit k of its width = r * alpha * e
    digits sits in lane k, bits [k*B, (k+1)*B).  A row operation against
    these columns, or a term of a combination of them, grows a lane by at
    most (p-1)^2.  An elimination makes at most ``width`` row operations,
    and a decode sums at most n * alpha * e terms, one per known digit of
    a word, so the layout holds terms = n * alpha * e (or the width, if
    that is more) and lanes stay at most A = (p-1) + terms * (p-1)^2; s is
    the bit length of A * (p-1), M = ceil(2^s / p) and B the bit length of
    A * M, and one Barrett step, x - p * ((x * M >> s) & Q), then reduces
    every lane.  Every layout of a code (``layout``, the ``table``'s and
    ``decode_layout``) rounds B up to whole bytes, and so does every
    ``modp.tagged`` layout made from one of them, so they share one B, and
    a decoded word is read out of its tag lanes with one ``to_bytes``
    (for p < 256).  The echelons these columns enter keep
    append-only rows, so a walk rolls one back with ``del rows[s:]``.
    Blocks are built on first use from the code's product ``table``
    (built under ``layout`` on first expansion) and kept on the code, in
    that packed form only: every correctability check, witness and
    decode reads its columns from there.

    Only the decoder reads two more caches, built on first decode.
    ``decode_columns`` is every block with tag lanes added under
    ``decode_layout`` (``layout`` plus n * alpha * e tag lanes, one group
    of alpha * e per symbol, in lanes of the same bits): column k of
    symbol i carries the power digits of w_k in group i, read off the
    table's P_0 as the columns are built, and kept nowhere else.
    ``read_tags`` reads a tagged vector's tag lanes back as a word.
    ``decode_plan(t)`` is the echelon of pattern t's erased tagged columns,
    their free count and the list of its known tagged columns; at most
    ``PLAN_CAP`` plans are kept, and the oldest is dropped first.  So a
    code caches its table, blocks, tagged columns, plans and rank; its
    basis caches none of them.
    """

    ext: ExtSpec
    H: tuple[tuple[Element, ...], ...]
    omega: OrderedBasis
    claim: PatternFamily | None = None
    provenance: Mapping = field(default_factory=dict)
    length: int | None = None
    _expansion: dict = field(init=False, repr=False, compare=False)
    _plans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.H)
        object.__setattr__(self, "H", rows)
        n = self.length
        if n is None:
            if not rows:
                raise ParameterError("a 0-row parity check needs an explicit length")
            n = len(rows[0])
        if require_int(n, "code length") < 1:
            raise ParameterError(f"code length must be at least 1, got {n}")
        for row in rows:
            if len(row) != n:
                raise ParameterError("parity-check rows have unequal lengths")
            for entry in row:
                self.ext._check_same(entry)
        object.__setattr__(self, "length", n)
        if self.omega.ext != self.ext:
            raise ParameterError("decoding basis belongs to a different extension")
        if self.claim is not None and self.claim.n != n:
            raise ParameterError("claimed family length does not match the code length")
        object.__setattr__(self, "_expansion", {})
        object.__setattr__(self, "_plans", {})

    @cached_property
    def layout(self) -> modp.Layout:
        """How an expansion column, r * alpha * e prime-field digits, packs:
        lanes that hold n * alpha * e terms, so a word's known digits times
        their columns are one sum."""
        ext = self.ext
        d = ext.digit_layout.width  # alpha * e
        return modp.layout(ext.base.p, self.r * d, 0, self.n * d, whole=True)

    @cached_property
    def table(self) -> tuple[modp.Layout, list[int]]:
        """The product table, built on first expansion: D = alpha * e
        packed ints P_u, one per power unit U_u = y^a * x^d (u = a*e + d),
        whose group k, lanes [k*D, (k+1)*D), holds the power digits of U_u *
        w_k, normalized.  They are the extension's power multiples of the
        w_k's power digits (the columns of omega's ``_to_power``) packed as
        D groups, under a layout with ``layout``'s width and terms (so its
        bits) and at least D * D lanes, returned with them.  P_0 (U_0 = 1)
        holds the power digits of the w_k themselves."""
        ext, lay = self.ext, self.layout
        dl = ext.digit_layout
        d = dl.width
        tlay = modp.layout(dl.p, lay.width, max(d * d - lay.width, 0), lay.terms, whole=True)
        v = tlay.pack([digit for col in self.omega._to_power for digit in dl.digits(col)])
        return tlay, ext.power_multiples(v, tlay, d * d)

    def block(self, i: int) -> tuple[int, ...]:
        """Symbol i's block, computed on first use and memoized on the
        code: column k stacks, entry by entry of H[:, i], the alpha * e
        power digits of the entry times w_k.  Each entry h is one
        ``Layout.combination`` of its D power digits with the ``table``,
        whose group k holds the power digits of h * w_k; column k is group
        k of every entry, stacked by row."""
        block = self._expansion.get(i)
        if block is None:
            tlay, products = self.table
            d = len(products)  # alpha * e
            span = d * tlay.bits
            group = (1 << span) - 1
            rows = [tlay.combination(row[i].coeffs, products) for row in self.H]
            block = self._expansion[i] = tuple(
                sum((v >> k * span & group) << j * span for j, v in enumerate(rows)) for k in range(d)
            )
        return block

    @cached_property
    def decode_layout(self) -> modp.Layout:
        """``layout`` with n * alpha * e tag lanes, one group per symbol;
        its terms, and so its lanes' bits, are ``layout``'s."""
        lay = self.layout
        return modp.layout(lay.p, lay.width, self.n * self.ext.digit_layout.width, lay.terms, whole=True)

    @cached_property
    def decode_columns(self) -> tuple[tuple[int, ...], ...]:
        """Per symbol i, ``block(i)`` plus its tags: column k carries the
        power digits of w_k in tag group i, so the tags of a combination of
        columns are the power digits of the word whose coordinate digits
        are its coefficients.  The tags of symbol 0 are the groups of the
        table's P_0 (U_0 = 1) moved past the pivot lanes; symbol i's are
        those moved up i groups."""
        lay = self.decode_layout
        _, products = self.table
        span = len(products) * lay.bits  # a group: alpha * e lanes
        group = (1 << span) - 1
        at = lay.width * lay.bits
        tags = [(products[0] >> k * span & group) << at for k in range(len(products))]
        return tuple(
            tuple([v + (tag << i * span) for v, tag in zip(self.block(i), tags)])
            for i in range(self.n)
        )

    def read_tags(self, x: int) -> tuple[Element, ...]:
        """The word whose power digits are x's tag lanes under
        ``decode_layout``, alpha * e per symbol: one readout of the lanes
        (one ``to_bytes`` for p < 256), each symbol's digits its raw.  x is
        normalized, so the raws need no check."""
        ext, lay = self.ext, self.decode_layout
        digits = iter(lay.digits(x, lay.width))
        return tuple([_element(ext, raw) for raw in zip(*[digits] * ext.digit_layout.width)])

    def decode_plan(self, t: tuple[int, ...]) -> tuple[modp.Echelon, int, list[int]]:
        """Pattern t's plan (echelon, free, known).  ``echelon`` holds the
        erased tagged columns (the first t_i * e of each symbol's
        ``decode_columns``) and ``free`` counts those that depend on
        earlier ones.  ``known`` lists the rest of each symbol's tagged
        columns, ``decode_columns[i][t_i * e:]``, in word order: one per
        known digit of a received word, so a word's digits, flattened in
        the same order, pair with it term by term.  It holds references
        to the columns, no new ints.  Built on first use per pattern; past
        ``PLAN_CAP`` plans the oldest goes."""
        plan = self._plans.get(t)
        if plan is None:
            e = self.ext.base.e
            cols = self.decode_columns
            erased = [v for block, ti in zip(cols, t) for v in block[: ti * e]]
            known = [v for block, ti in zip(cols, t) for v in block[ti * e :]]
            ech = modp.Echelon(self.decode_layout)
            for v in erased:
                ech.insert(v)
            if len(self._plans) >= PLAN_CAP:
                del self._plans[next(iter(self._plans))]
            plan = self._plans[t] = (ech, len(erased) - len(ech.rows), known)
        return plan

    @cached_property
    def rank(self) -> int:
        """Rank of H over the extension, from the F_p rank of the expansion.

        The alpha * e expansion columns of H[:, i] are all independent of
        the columns before them when H[:, i] is independent of H's columns
        before it, and all dependent otherwise; the first of them decides,
        so a dependent symbol costs one insert.
        """
        ech = modp.Echelon(self.layout)
        rank = 0
        for i in range(self.n):
            block = self.block(i)
            if ech.insert(block[0]) is None:
                rank += 1
                for col in block[1:]:
                    ech.insert(col)
        return rank

    @cached_property
    def dim(self) -> int:
        return self.n - self.rank

    @property
    def n(self) -> int:
        return self.length

    @property
    def r(self) -> int:
        return len(self.H)


def code_from_rows(
    ext: ExtSpec,
    rows,
    omega: OrderedBasis,
    claim: PatternFamily | None = None,
    provenance: Mapping | None = None,
    length: int | None = None,
) -> LinearCode:
    """Build a LinearCode from any iterable of row iterables."""
    return LinearCode(
        ext, tuple(tuple(r) for r in rows), omega, claim, dict(provenance or {}), length
    )
