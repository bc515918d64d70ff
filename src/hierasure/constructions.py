"""Code constructions: who corrects which erasure patterns, and how.

Five construction routes, each returning a LinearCode that carries its
decoding basis and the pattern family it promises to correct:

* ``length2_code``: one check (1, b) on two symbols, decoded over a basis
  whose halves are mirror images scaled by b; corrects any pattern with
  total at most alpha.
* ``trace_code``: parity checks obtained by pushing a universally
  decodable matrix set through a basis column; corrects total-m patterns
  over the dual basis.
* ``square_trace_code``: the square case m = alpha = n, with the second
  matrix twisted by a lower-triangular factor so the check matrix drops
  rank and the code is guaranteed nontrivial.
* ``balanced_code`` / ``power_code``: a Vandermonde matrix repeatedly
  folded in half against a chain of subfield generators, giving a single
  check row; corrects balanced (respectively dyadic-power) patterns over
  the chain basis.
* ``gabidulin_code``: evaluations of low-degree linearized polynomials on
  basis points; corrects every pattern bounded by r per symbol.

``greedy_gv_code`` grows a parity-check matrix column by column, keeping
the kernel free of low-weight words; it realizes the existence bound from
the bounds module whenever the field is large enough.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from . import linalg, modp
from .bounds import gv_existence_base
from .codes import LinearCode, code_from_rows, expansion_table, pack_column
from .errors import ConstructionError, ParameterError
from .fields import (
    Element,
    ExtSpec,
    OrderedBasis,
    QuadraticRoot,
    _subfield_echelon,
    dual_basis,
    find_quadratic_root,
    quadratic_root_with_constant,
    subfield_basis,
)
from .patterns import BalancedFamily, BoundedFamily, FullFamily, PowerFamily
from .udm import UdmSet, trace_check_matrix, verify_udm, vontobel_udms


# ---------------------------------------------------------------------------
# Mirror bases and the two-symbol code.


def b_symmetric_basis(ext: ExtSpec, root: QuadraticRoot) -> OrderedBasis:
    """A basis whose second half mirrors the first scaled by b.

    Built recursively: write alpha = 2^t * odd; the base step appends
    b-multiples of an odd-degree subfield basis in reverse, and each
    doubling step interleaves multiples by a fresh element gamma living
    outside the previous subfield.  The defining relation
    basis[alpha-i-1] = b * basis[i] (0-based) is checked before returning.
    """
    alpha = ext.alpha
    if alpha % 2 != 0:
        raise ParameterError("a mirrored basis needs even alpha")
    b = root.b
    ell = alpha
    while ell % 2 == 0:
        ell //= 2
    current = subfield_basis(ext, ell)
    current = current + [b * w for w in reversed(current)]
    size = 2 * ell
    while size < alpha:
        gamma = _first_outside(ext, 2 * size, size)
        half = size // 2
        doubled = []
        for i in range(half):
            doubled.extend([gamma * current[i], current[i]])
        for i in range(half, size):
            doubled.extend([current[i], gamma * current[i]])
        current = doubled
        size *= 2
    basis = OrderedBasis(ext, current)
    for i in range(alpha // 2):
        if basis.elements[alpha - i - 1] != b * basis.elements[i]:
            raise ConstructionError("mirror relation failed; construction bug")
    return basis


def _first_outside(ext: ExtSpec, big_d: int, small_d: int) -> Element:
    # lexicographically first member of the degree big_d subfield outside
    # the degree small_d one: the members sum c_k v_k over the big echelon
    # basis sort as their vectors c do, and with v_j the last basis vector
    # outside, the answer is the first nonzero scalar times v_j
    for v in reversed(_subfield_echelon(ext, big_d)):
        if not _in_subfield(ext, v, small_d):
            first_nonzero = next(c for c in ext.base.lex_elements() if c)
            return ext.lift(first_nonzero) * v
    raise ConstructionError("nested subfields are equal; tower bug")  # pragma: no cover


def _in_subfield(ext: ExtSpec, el: Element, d: int) -> bool:
    # el is fixed by x -> x^(q^d): one packed map of its digits
    lay = ext.digit_layout
    digits = ext.digits(el.coeffs)
    return lay.combination(digits, ext._frobenius_power(d)) == lay.pack(digits)


def length2_code(ext: ExtSpec) -> LinearCode:
    """The two-symbol code with check (1, b); corrects any total-alpha erasure."""
    root = find_quadratic_root(ext)
    omega = b_symmetric_basis(ext, root)
    h = (ext.one(), root.b)
    code = code_from_rows(
        ext,
        [h],
        omega,
        FullFamily(ext.alpha, ext.alpha, 2),
        {
            "construction": "length2",
            "quadratic": [list(root.a0.coeffs), list(root.a1.coeffs)],
        },
    )
    if code.rank != 1:
        raise ConstructionError("check row is zero; construction bug")
    return code


# ---------------------------------------------------------------------------
# Trace-route codes from universally decodable matrices.


def trace_code(u: UdmSet, mu: OrderedBasis) -> LinearCode:
    """Checks H[l][i] = sum_r A_i[r][l] * mu_r; corrects total-m patterns
    over the dual basis of mu, with dimension at least n - m."""
    check = verify_udm(u)
    if not check.ok:
        raise ParameterError(
            f"matrix set is not universally decodable (pattern {check.counterexample})"
        )
    ext = mu.ext
    if u.alpha != ext.alpha or u.field != ext.base:
        raise ParameterError("matrix set and basis live over different fields")
    rows = trace_check_matrix(u, mu)
    omega = dual_basis(mu)
    code = code_from_rows(
        ext,
        rows,
        omega,
        FullFamily(ext.alpha, u.m, u.n),
        {"construction": "trace", "m": u.m, "n": u.n, "udm_meta": dict(u.meta)},
    )
    if code.dim < u.n - u.m:
        raise ConstructionError("dimension fell below n - m; construction bug")
    return code


def square_trace_udms(ext: ExtSpec, root: QuadraticRoot, n: int) -> UdmSet:
    """The square UDM set whose second matrix is twisted to share an eigenvector.

    Starts from the classical set with m = alpha = n and multiplies the
    second matrix on the left by the lower-triangular factor carrying the
    quadratic's coefficients, which preserves universal decodability and
    makes the mirrored basis a joint eigenvector of the first two
    matrices (eigenvalues 1 and b).
    """
    alpha = ext.alpha
    base = ext.base
    if n != alpha or alpha % 2 != 0:
        raise ParameterError("square construction needs even n = alpha = m")
    u = vontobel_udms(n, alpha, alpha, base)
    zero = base.zero()
    half = alpha // 2
    neg_a0, neg_a1 = -base.element(root.a0.coeffs), -base.element(root.a1.coeffs)
    factor = []
    for i in range(half):
        factor.append([base.one() if j == i else zero for j in range(alpha)])
    for k in range(1, half + 1):
        row = [zero] * alpha
        row[half - k] = neg_a1
        row[half + k - 1] = neg_a0
        factor.append(row)
    twisted = linalg.mat_mul(factor, [list(r) for r in u.matrices[1]], base)
    mats = list(u.matrices)
    mats[1] = tuple(tuple(r) for r in twisted)
    meta = dict(u.meta)
    meta.update(
        construction="square_trace",
        quadratic=[list(root.a0.coeffs), list(root.a1.coeffs)],
    )
    out = UdmSet(base, alpha, alpha, tuple(mats), meta)
    check = verify_udm(out)
    if not check.ok:
        raise ConstructionError(
            f"twisted set fails verification at {check.counterexample}; construction bug"
        )
    return out


def square_trace_code(ext: ExtSpec, n: int | None = None) -> LinearCode:
    """Square trace code (m = alpha = n even) with guaranteed dimension >= 1.

    The quadratic is chosen with constant term -1 (root norm -1): that is
    what makes the twisted matrix satisfy the transposed mirror relation
    too, so two check columns coincide up to the scale b and the check
    matrix provably drops rank at every even alpha, not just alpha = 2.
    """
    alpha = ext.alpha
    n = alpha if n is None else n
    if n != alpha or alpha % 2 != 0:
        raise ParameterError("square construction needs even n = alpha = m")
    if ext.base.order < n - 1:
        raise ParameterError(f"field size {ext.base.order} is below n-1={n - 1}")
    root = quadratic_root_with_constant(ext, -ext.base.one())
    u = square_trace_udms(ext, root, n)
    mu = b_symmetric_basis(ext, root)
    code = trace_code(u, mu)
    provenance = dict(code.provenance)
    provenance["construction"] = "square_trace"
    code = code_from_rows(ext, code.H, code.omega, code.claim, provenance)
    if code.dim < 1:
        raise ConstructionError("square trace code collapsed to dimension 0")
    return code


# ---------------------------------------------------------------------------
# Folded-Vandermonde codes over a subfield chain.


@dataclass(frozen=True)
class SubfieldChainBasis:
    """A basis whose length-alpha/2^i prefixes span the matching subfields.

    ``steps`` holds one generator per doubling level, bottom up:
    steps[i-1] lies in the degree-2^i subfield but not the degree-2^(i-1)
    one, so it generates that doubling.  The basis is the Kronecker
    product (1, steps[-1]) x ... x (1, steps[0]); consuming the steps in
    ascending order is what the fold pipeline does, pairing steps[i-1]
    with the node power alpha/2^i.
    """

    steps: tuple[Element, ...]
    omega: OrderedBasis


def subfield_chain_basis(ext: ExtSpec) -> SubfieldChainBasis:
    alpha = ext.alpha
    if alpha & (alpha - 1):
        raise ParameterError("alpha must be a power of two")
    beta = alpha.bit_length() - 1
    steps = []
    for i in range(1, beta + 1):
        steps.append(_first_outside(ext, 1 << i, 1 << (i - 1)))
    word = [ext.one()]
    for gen in steps:
        word = word + [gen * w for w in word]
    basis = OrderedBasis(ext, word)
    for i in range(beta + 1):
        d = alpha >> i
        if not all(_in_subfield(ext, w, d) for w in word[:d]):
            raise ConstructionError("prefix left its subfield; construction bug")
    return SubfieldChainBasis(tuple(steps), basis)


def fold_halves(matrix, b: Element):
    """Upper half plus b times the lower half, entrywise."""
    rows = len(matrix)
    if rows % 2 != 0:
        raise ParameterError("fold needs an even number of rows")
    half = rows // 2
    return [
        [top + b * bottom for top, bottom in zip(matrix[i], matrix[i + half])]
        for i in range(half)
    ]


def _default_nonzero_nodes(ext: ExtSpec, n: int) -> list[Element]:
    base = ext.base
    if base.order > n:
        nodes = [el for el in base.lex_elements() if el][:n]
    else:
        nodes = list(base.lex_elements())[:n]
        warnings.warn(
            "field has exactly n elements; the zero node participates",
            stacklevel=3,
        )
    return nodes


def _folded_vandermonde(n: int, ext: ExtSpec, nu) -> tuple[list, SubfieldChainBasis]:
    chain = subfield_chain_basis(ext)
    matrix = [[ext.lift(v**i) for v in nu] for i in range(ext.alpha)]
    for b in chain.steps:
        matrix = fold_halves(matrix, b)
    return matrix[0], chain


def balanced_code(n: int, ext: ExtSpec, nu=None) -> LinearCode:
    """Single-check code correcting every balanced pattern; dimension n - 1.

    The check row is a Vandermonde matrix on n distinct base-field nodes
    folded down the subfield chain; its entries multiply out to
    prod_i (1 + step_i * node^(alpha / 2^i)).
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    base = ext.base
    if base.order < n:
        raise ParameterError(f"need a field with at least n={n} elements")
    # the default nodes take the zero node only on a field of exactly n
    # elements, and say so themselves
    supplied = nu is not None
    nu = list(nu) if supplied else _default_nonzero_nodes(ext, n)
    _check_nodes(base, nu, n)
    if supplied and any(not v for v in nu):
        warnings.warn("zero node supplied; fold ratios degenerate on that column", stacklevel=2)
    h, chain = _folded_vandermonde(n, ext, nu)
    code = code_from_rows(
        ext,
        [h],
        chain.omega,
        BalancedFamily(ext.alpha, n),
        {"construction": "balanced", "nu": [list(v.coeffs) for v in nu]},
    )
    if code.rank != 1 or any(not hj for hj in h):
        raise ConstructionError("folded check row degenerated; construction bug")
    return code


def power_code(n: int, ext: ExtSpec, nu=None) -> LinearCode:
    """Single-check code correcting every dyadic-power pattern.

    Needs alpha even, (alpha/2) dividing q - 1, and nonzero nodes with
    pairwise distinct (alpha/2)-th powers, which caps n at 2(q-1)/alpha.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    base = ext.base
    alpha = ext.alpha
    if alpha < 2 or alpha & (alpha - 1):
        raise ParameterError("alpha must be an even power of two")
    half = alpha // 2
    if (base.order - 1) % half != 0:
        raise ParameterError(f"alpha/2={half} must divide q-1={base.order - 1}")
    if nu is None:
        nu = _power_coset_nodes(ext, n, half)
    else:
        nu = list(nu)
    _check_nodes(base, nu, n)
    for j, v in enumerate(nu):
        if not v:
            raise ParameterError(f"node {j} is zero")
    powers = [v**half for v in nu]
    for j in range(n):
        for k in range(j + 1, n):
            if powers[j] == powers[k]:
                raise ParameterError(
                    f"nodes {j} and {k} share the same power: "
                    f"{list(nu[j].coeffs)}^{half} = {list(nu[k].coeffs)}^{half}"
                )
    h, chain = _folded_vandermonde(n, ext, nu)
    code = code_from_rows(
        ext,
        [h],
        chain.omega,
        PowerFamily(alpha, n),
        {"construction": "power", "nu": [list(v.coeffs) for v in nu]},
    )
    if code.rank != 1 or any(not hj for hj in h):
        raise ConstructionError("folded check row degenerated; construction bug")
    return code


def _check_nodes(base, nu, n: int):
    if len(nu) != n:
        raise ParameterError(f"need exactly n={n} nodes, got {len(nu)}")
    for v in nu:
        base._check_same(v)
    if len({v.coeffs for v in nu}) != n:
        raise ParameterError("nodes must be distinct")


def _power_coset_nodes(ext: ExtSpec, n: int, half: int) -> list[Element]:
    # one representative per coset of the order-(alpha/2) subgroup, lex order
    nodes: list[Element] = []
    seen_powers = set()
    for el in ext.base.lex_elements():
        if not el:
            continue
        pw = (el**half).coeffs
        if pw in seen_powers:
            continue
        seen_powers.add(pw)
        nodes.append(el)
        if len(nodes) == n:
            return nodes
    raise ParameterError(
        f"field supports only {len(nodes)} distinct power cosets; need n={n} "
        f"(requires q >= (alpha/2)n + 1)"
    )


# ---------------------------------------------------------------------------
# Rank-metric route.


def gabidulin_code(n: int, r: int, ext: ExtSpec, omega: OrderedBasis | None = None) -> LinearCode:
    """Evaluations of linearized polynomials of q-degree below n - r.

    Works over any basis; the first n basis elements are the evaluation
    points, which is why n cannot exceed alpha.  Corrects every pattern
    bounded by r per symbol.
    """
    if omega is None:
        omega = ext.polynomial_basis()
    if n > ext.alpha:
        raise ParameterError("evaluation points must stay independent: n <= alpha")
    if not 0 <= r < n:
        raise ParameterError("need 0 <= r < n")
    points = list(omega.elements[:n])
    generator = []
    row = points
    for _ in range(n - r):
        generator.append(row)
        row = [ext.frobenius(x) for x in row]
    kernel = linalg.right_kernel(generator, n, ext)
    if len(kernel) != r:
        raise ConstructionError("generator rank is short; evaluation points degenerate")
    code = code_from_rows(
        ext,
        kernel,
        omega,
        BoundedFamily(r, n),
        {"construction": "gabidulin", "n": n, "r": r},
        length=n,
    )
    if code.dim != n - r:
        raise ConstructionError("dimension mismatch; construction bug")
    return code


# ---------------------------------------------------------------------------
# Greedy existence-bound construction.


@dataclass(frozen=True)
class GVWitness:
    """Evidence that a matrix is a Vandermonde times an invertible diagonal."""

    nu: tuple[Element, ...]
    d: tuple[Element, ...]


def recover_gv_witness(matrix) -> GVWitness | None:
    """Factor a matrix as Vandermonde(nu) * diag(d), or report that it isn't.

    The scaling is read off the first row and the defining nodes from the
    ratio of consecutive rows; any zero scale or non-geometric column
    rejects.  Needs at least two rows to pin the nodes down.
    """
    if len(matrix) < 2:
        raise ParameterError("need at least two rows to recover the nodes")
    d = tuple(matrix[0])
    if any(not x for x in d):
        return None
    ncols = len(d)
    nu = []
    for j in range(ncols):
        ratio = matrix[1][j] / matrix[0][j]
        for i in range(1, len(matrix) - 1):
            if not matrix[i][j]:
                return None
            if matrix[i + 1][j] != ratio * matrix[i][j]:
                return None
        nu.append(ratio)
    return GVWitness(tuple(nu), d)


def greedy_gv_code(
    n: int,
    r: int,
    m: int,
    ext: ExtSpec,
    seed: int = 0,
    budget: int = 10_000,
) -> LinearCode:
    """Grow an m-good parity check column by column, starting from identity.

    A matrix is m-good when its right kernel holds no nonzero word of
    hierarchical weight at most m, i.e. when it corrects every pattern of
    ``FullFamily(alpha, m, length)``; appending any column outside the bad
    set preserves goodness, and a large enough field guarantees such a
    column exists.  Columns are sampled with the seeded RNG; if the budget
    runs dry and the column space is small, a deterministic sweep finishes
    the search before giving up.  Each sweep resumes at the index where
    the last one stopped, that index included: a column rejected at one
    position is rejected at every later one, since the pattern that fails
    it, padded with zeros over the columns accepted since, still fails.

    A candidate column is checked only against the patterns that can fail.
    The accepted prefix is m-good, so a pattern that leaves the new symbol
    intact is one of its own patterns and is correctable.  A pattern of
    total m that erases k >= 1 leading coordinates of the new symbol is
    correctable iff the erased prefix columns (independent, since the
    prefix is good) together with the first k*e prime-field columns of the
    candidate are independent.  So the erased columns of every pattern of
    each total b < m on the accepted prefix are kept in echelon form,
    grown by each accepted column (``_grow``) rather than rebuilt per
    position, and a candidate is accepted when, for each k, its first k*e
    columns are independent modulo every echelon of total m - k: all but
    the last insert without a dependency, and the last, only reduced,
    keeps a nonzero pivot lane.  The rows a trial inserts are cut off
    again, so a one-column trial, the common one, is a single reduce.  A
    check that rejects a candidate moves to the front, so the next
    candidate meets it first; acceptance needs every check, so the order
    changes no outcome.  (m - k always fits in the prefix: m < alpha*(r-1)
    and the prefix has at least r columns, so the patterns of total m - k
    are the maximal ones of ``FullFamily(alpha, m - k, L)``.)
    """
    alpha = ext.alpha
    if not 1 <= r <= n:
        raise ParameterError("need 1 <= r <= n")
    if m < 0 or m >= alpha * (r - 1):
        raise ParameterError(f"need m < alpha*(r-1) = {alpha * (r - 1)}")
    if budget < 0:
        raise ParameterError("need budget >= 0")
    base_size = ext.base.order
    if base_size ** (alpha * (r - 1) - m) <= gv_existence_base(n, m):
        warnings.warn(
            f"field size {base_size} is at or below the existence threshold; "
            "the greedy search may exhaust its budget",
            stacklevel=2,
        )
    omega = ext.polynomial_basis()
    rng = random.Random(seed)
    p, e = ext.base.p, ext.base.e
    k_max = min(alpha, m)
    width = k_max * e  # a candidate is erased in at most k_max coordinates
    lay = modp.layout(p, r * alpha * e)
    table = expansion_table(omega, lay)
    rows = [[ext.one() if j == i else ext.zero() for j in range(r)] for i in range(r)]

    sweep_from = 0  # where the next deterministic sweep starts

    def candidates():
        nonlocal sweep_from
        for _ in range(budget):
            yield [ext.from_index(rng.randrange(ext.order)) for _ in range(r)]
        if ext.order**r <= (1 << 20):
            for idx in range(sweep_from, ext.order**r):
                sweep_from = idx
                g = []
                k = idx
                for _ in range(r):
                    g.append(ext.from_index(k % ext.order))
                    k //= ext.order
                yield g

    # by_total[b]: the echelon of every total-b pattern on the accepted prefix
    by_total = [[modp.Echelon(lay)]] + [[] for _ in range(m - 1)]
    for column in list(zip(*rows))[: n - 1]:
        _grow(by_total, pack_column(table, column, width), alpha, e)
    for col in range(r, n):
        checks = [  # (how many candidate columns, prefix echelon)
            (k * e, ech) for k in range(1, k_max + 1) for ech in by_total[m - k]
        ]
        for g in candidates():
            cols = pack_column(table, g, width)  # packed once, read by every check
            for i, (k_e, ech) in enumerate(checks):
                if not _extends(ech, cols, k_e):
                    checks.insert(0, checks.pop(i))
                    break
            else:
                break
        else:
            raise ConstructionError(
                f"no eligible column found for position {col} "
                f"(have {col} good columns; budget {budget})"
            )
        for row, gi in zip(rows, g):
            row.append(gi)
        if col < n - 1:  # no later position reads the last column
            _grow(by_total, cols, alpha, e)

    return code_from_rows(
        ext,
        rows,
        omega,
        FullFamily(alpha, m, n),
        {"construction": "greedy_gv", "n": n, "r": r, "m": m, "seed": seed},
    )


def _grow(by_total: list[list[modp.Echelon]], column, alpha: int, e: int) -> None:
    # append a column to the prefix that by_total[b] holds the total-b
    # pattern echelons of: a total-b pattern on the longer prefix erases j
    # coordinates of the column on top of a total-(b - j) pattern of the
    # prefix, so for j >= 1 each echelon of the old by_total[b - j], copied,
    # takes the column's first j*e vectors.  b falls, so the lists read are
    # still the old ones.  The prefix is m-good, so each insert is independent
    for b in range(len(by_total) - 1, 0, -1):
        grown = by_total[b]
        for j in range(1, min(alpha, b) + 1):
            vectors = column[: j * e]
            for ech in by_total[b - j]:
                twin = ech.copy()
                for v in vectors:
                    if twin.insert(v) is not None:
                        raise ConstructionError("accepted prefix is not m-good; construction bug")
                grown.append(twin)


def _extends(ech: modp.Echelon, vectors, k: int) -> bool:
    # True iff vectors[:k] are independent modulo the echelon's span: each
    # but the last inserts without a dependency, and the last, reduced,
    # keeps a nonzero pivot lane.  The last is never inserted, so a trial
    # of one vector is one reduce, and cutting off the rows a longer trial
    # appends restores ech
    pivots = ech.layout.pivots
    if k == 1:
        return bool(ech.reduce(vectors[0]) & pivots)
    mark = len(ech.rows)
    independent = all(ech.insert(v) is None for v in vectors[: k - 1])
    independent = independent and bool(ech.reduce(vectors[k - 1]) & pivots)
    del ech.rows[mark:]
    return independent
