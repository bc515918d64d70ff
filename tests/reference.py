"""The Element-object route to correctability, decoding and UDM checks.

This is the slow path the prime-field kernel replaced, kept only as a
reference for differential tests.  Its linear algebra is
``element_linalg``, reduced row echelon form on Element objects, which
shares no code with the package's prime-field kernel.  It never goes
through the basis transform it checks: coordinates over omega come from
an ``element_linalg`` inverse of the alpha x alpha F_q coordinate matrix,
and a word is rebuilt as sum c_j * omega_j in the extension.  Every
pattern expands H against the basis and runs ``element_linalg``
elimination over the base field F_q; decoding solves over F_q; UDM
verification ranks stacked F_q rows.

``reference_contains`` is family membership by each family's own
definition, as ``family_contains`` decided it before it followed the
members' trie.  It also keeps the exhaustive searches the closed forms
replaced: the pairwise dominance filter over a family's members, the filter of the
bounded simplex that enumerated balanced and power members, and the
sorted list of every member of a subfield.  ``reference_rule_trie`` is the
rule-based pattern tries as they were before their levels were tabled:
one child generator per call, where ``family_trie`` returns tuples made
once per trie.  ``reference_greedy_gv_code``
is the greedy construction as it was before it cached prefix echelons:
each candidate column builds a probe code and rechecks every maximal
pattern of the full family.  ``reference_prefix_echelons`` is the
stacked-prefix walk as it was before patterns shared their prefixes, on
the prime-field kernel as it was before vectors were packed into ints:
a fresh ``ListEchelon`` per pattern, whose rows are lists of digits
reduced entry by entry.  It shares no code with ``modp``, so it checks
both the trie walk's sharing of prefixes and the packed elimination.
``reference_inverse`` and ``reference_mat_vec`` are the list kernel's
tagged inverse and products.  ``reference_expand_column``
is the expansion of a column of H by extension products, which the packed
product table replaced.  ``reference_is_irreducible``
is the distinct-degree gcd test that Berlekamp's criterion replaced, on
polynomials over a field's own raw arithmetic.  ``reference_quadratic_root``
is the quadratic-root search as it was before it solved on the trace
line: a walk over every member of the degree-2 subfield.
"""

import itertools
import random
import warnings

from hierasure import (
    BalancedFamily,
    BoundedFamily,
    ConstructionError,
    Element,
    ExtSpec,
    FullFamily,
    LinearCode,
    ParameterError,
    PowerFamily,
    QuadraticRoot,
    code_from_rows,
    enumerate_family,
    is_correcting,
    maximal_patterns,
    subfield_basis,
)
from hierasure.bounds import gv_existence_base

import element_linalg


def reference_contains(fam, t):
    """Membership by the family's definition (see ``hierasure.patterns``)."""
    t = tuple(t)
    if len(t) != fam.n:
        raise ParameterError(f"pattern length {len(t)} does not match n={fam.n}")
    if any(v < 0 for v in t):
        return False
    if isinstance(fam, BoundedFamily):
        return all(v <= fam.r for v in t)
    if any(v > fam.alpha for v in t):
        return False
    if isinstance(fam, FullFamily):
        return sum(t) <= fam.m
    nonzero = [v for v in t if v]
    if isinstance(fam, BalancedFamily):
        # some scale i with 2^i <= min(alpha, n) holds the support and the largest entry
        scales = range(min(fam.alpha, fam.n).bit_length())
        return any(len(nonzero) <= 1 << i and max(t) << i <= fam.alpha for i in scales)
    # power: the empty pattern, or powers of two whose sum is alpha
    return not nonzero or (all(v & (v - 1) == 0 for v in nonzero) and sum(nonzero) == fam.alpha)


def reference_enumerate_family(fam):
    """Every member in lexicographic order; balanced and power by filtering.

    Balanced and power members are picked out of every tuple with entries
    and total at most alpha; other families use ``enumerate_family``.
    """
    if isinstance(fam, (BalancedFamily, PowerFamily)):
        # the product of the entry ranges, filtered by total one entry at a
        # time so that the box of (alpha + 1)^n tuples is never built
        simplex = [()]
        for _ in range(fam.n):
            simplex = [t + (v,) for t in simplex for v in range(fam.alpha + 1 - sum(t))]
        return [t for t in simplex if reference_contains(fam, t)]
    return list(enumerate_family(fam))


def reference_maximal_patterns(fam):
    """Members of the family not componentwise dominated by another, in enumeration order.

    Pairwise comparison over every member; only members of strictly larger
    total are compared, since any other member dominating t has one.
    """
    members = reference_enumerate_family(fam)
    above = {s: [u for u in members if sum(u) > s] for s in {sum(t) for t in members}}
    return [
        t
        for t in members
        if not any(all(a <= b for a, b in zip(t, u)) for u in above[sum(t)])
    ]


def reference_local_maxima(fam):
    """Maximal members of a downward-closed family (full, balanced, bounded), by local search.

    The members come from a prefix walk on ``reference_contains``: in a
    downward-closed family a prefix extends to a member exactly when it
    does with zeros.  A member is kept when no single entry can grow by
    one inside the family; that is the dominance filter, because another
    member above t lies above some t + e_j, which downward closure keeps
    in the family.
    """
    n = fam.n

    def walk(prefix):
        if len(prefix) == n:
            yield prefix
            return
        pad = (0,) * (n - len(prefix) - 1)
        v = 0
        while reference_contains(fam, prefix + (v,) + pad):
            yield from walk(prefix + (v,))
            v += 1

    return [
        t
        for t in walk(())
        if not any(reference_contains(fam, t[:j] + (t[j] + 1,) + t[j + 1 :]) for j in range(n))
    ]



def reference_budget_children(n, values, need):
    """``patterns._budget_children`` as a generator per call: node = budget
    left, and a child keeps only a budget the entries below can spend.  A
    spent budget leaves only zeros below, so that child is the end marker
    None."""

    def children(i, left):
        for v in values:
            if v > left:
                break
            if need(left - v) < n - i:
                yield v, (None if v == left else left - v)

    return children


def reference_balanced_children(fam):
    """``patterns._balanced_children`` as a generator per call: node =
    (support, largest entry) of the prefix."""

    scales = range(min(fam.alpha, fam.n).bit_length())

    def children(i, node):
        support, biggest = node
        for v in range(fam.alpha + 1):
            s, b = support + (v > 0), max(biggest, v)
            # balanced: some scale k holds the support and the largest entry
            if not any(s <= 1 << k and b << k <= fam.alpha for k in scales):
                break
            yield v, (s, b)

    return children


def reference_balanced_maxima_children(fam):
    """``patterns._balanced_maxima_children`` as a generator per call: node
    = () before the first nonzero entry, then (value, positions still to
    take it), where scale k places alpha >> k on 2^k positions.  A child
    is kept when the positions after this one can hold what is left to
    place, and one with no position left to fill is the end marker None."""
    n, alpha = fam.n, fam.alpha

    def children(i, node):
        after = n - i - 1  # positions after this one
        if node:
            v, left = node
            if left <= after:
                yield 0, node
            yield v, ((v, left - 1) if left > 1 else None)
            return
        if after:
            yield 0, ()
        for k in reversed(range(min(alpha, n).bit_length())):
            left = (1 << k) - 1  # positions to fill after this one
            if left <= after:
                yield alpha >> k, ((alpha >> k, left) if left else None)

    return children


def reference_rule_trie(fam, all_patterns=False):
    """(children, root) of a rule-based trie from the generators above:
    full and power maxima or members, balanced members and maxima."""
    if isinstance(fam, FullFamily):
        values, alpha = range(fam.alpha + 1), fam.alpha
        if all_patterns:
            return reference_budget_children(fam.n, values, lambda b: 0), fam.m
        return reference_budget_children(fam.n, values, lambda b: b and -(-b // alpha)), min(fam.m, fam.n * alpha)
    if isinstance(fam, PowerFamily):
        values, alpha = [0] + [1 << k for k in range(fam.alpha.bit_length())], fam.alpha

        def need(b):
            # the fewest powers of two up to alpha that sum to b; members
            # may leave a whole budget unspent, for the empty pattern
            return 0 if all_patterns and b == alpha else b // alpha + (b % alpha).bit_count()

        return reference_budget_children(fam.n, values, need), alpha
    if isinstance(fam, BalancedFamily):
        if all_patterns:
            return reference_balanced_children(fam), (0, 0)
        return reference_balanced_maxima_children(fam), ()
    raise ValueError(f"no rule-based trie for {fam!r}")

def reference_subfield_members(ext, d):
    """Every combination of the degree-d subfield basis, sorted by coefficient tuple."""
    basis = subfield_basis(ext, d)
    members = []
    for combo in itertools.product(list(ext.base.lex_elements()), repeat=d):
        acc = ext.zero()
        for c, v in zip(combo, basis):
            acc = acc + ext.lift(c) * v
        members.append(acc)
    members.sort(key=lambda el: el.coeffs)
    return members


def _in_subfield(ext, el, d):
    # x^q by square-and-multiply, not the Frobenius matrix under test
    img = el
    for _ in range(d):
        img = Element(ext, ext.rpow(img.coeffs, ext.base.order))
    return img == el


def reference_first_outside(ext, big_d, small_d):
    """Lexicographically first member of the degree big_d subfield outside the degree small_d one.

    The whole field (big_d == alpha) is walked by ``lex_elements`` instead
    of being materialised.
    """
    candidates = ext.lex_elements() if big_d == ext.alpha else reference_subfield_members(ext, big_d)
    for el in candidates:
        if not _in_subfield(ext, el, small_d):
            return el
    raise AssertionError("nested subfields are equal")


def _coordinate_matrix(ext, elements):
    # column j: the F_q coefficients of elements[j] over 1, y, ..., y^(alpha-1)
    e = ext.base.e
    return [[Element(ext.base, el.coeffs[k * e : k * e + e]) for el in elements] for k in range(ext.alpha)]


def coordinate_inverse(ext, elements):
    """Rows of the inverse of the elements' F_q coordinate matrix.

    Raises ParameterError when the elements are dependent or not alpha of them.
    """
    return element_linalg.invert(_coordinate_matrix(ext, elements), ext.base)


def reference_is_basis(ext, elements):
    matrix = _coordinate_matrix(ext, elements)
    return len(elements) == ext.alpha and element_linalg.rank(matrix, ext.base) == ext.alpha


def reference_coordinates(omega, x, inverse=None):
    """Base-field coordinates of x over omega (``inverse`` may be precomputed)."""
    base = omega.ext.base
    if inverse is None:
        inverse = coordinate_inverse(omega.ext, omega.elements)
    e = base.e
    coeffs = [Element(base, x.coeffs[k : k + e]) for k in range(0, len(x.coeffs), e)]
    return tuple(element_linalg.mat_vec(inverse, coeffs, base))


def reference_combine(omega, coords):
    ext = omega.ext
    acc = ext.zero()
    for c, w in zip(coords, omega.elements):
        acc = acc + ext.lift(c) * w
    return acc


def reference_system(code, t):
    """(matrix over F_q, labels) of pattern t: column (i, j) is H[:, i] * omega_j."""
    omega = code.omega
    inverse = coordinate_inverse(code.ext, omega.elements)
    labels, columns = [], []
    for i, ti in enumerate(t):
        for j in range(ti):
            col = []
            for row in code.H:
                col.extend(reference_coordinates(omega, row[i] * omega.elements[j], inverse))
            columns.append(col)
            labels.append((i, j))
    nrows = code.ext.alpha * code.r
    matrix = [[col[k] for col in columns] for k in range(nrows)]
    return matrix, labels


def reference_expand_column(omega, column):
    """The expansion columns of one column of H by Element products:
    column j*e + d stacks, entry by entry, the power digits (y-power major,
    then x-power) of h * omega_j * x^d."""
    ext = omega.ext
    base = ext.base
    units = [ext.lift(base.from_index(base.p**d)) for d in range(base.e)]
    return tuple(
        tuple(digit for h in column for digit in (h * w * x).coeffs)
        for w in omega.elements
        for x in units
    )


def reference_correctable(code, t):
    matrix, labels = reference_system(code, t)
    return not labels or element_linalg.rank(matrix, code.ext.base) == len(labels)


def reference_witness(code, t):
    """The codeword from the first canonical kernel vector of the system."""
    matrix, labels = reference_system(code, t)
    kernel = element_linalg.right_kernel(matrix, len(labels), code.ext.base)
    ext, omega = code.ext, code.omega
    word = [ext.zero()] * code.n
    for (i, j), lam in zip(labels, kernel[0]):
        word[i] = word[i] + ext.lift(lam) * omega.elements[j]
    return tuple(word)


def reference_is_correcting(code, fam, all_patterns=True):
    """(verdict, first failing pattern, its witness) in enumeration order."""
    pats = enumerate_family(fam) if all_patterns else maximal_patterns(fam)
    for t in pats:
        if not reference_correctable(code, t):
            return False, t, reference_witness(code, t)
    return True, None, None


def reference_decode(code, received):
    """(status, codeword, solution_space_dim) by F_q elimination."""
    ext, base, omega = code.ext, code.ext.base, code.omega
    inverse = coordinate_inverse(ext, omega.elements)
    t = received.pattern
    known = [
        reference_combine(omega, [base.zero()] * ti + list(suffix))
        for ti, suffix in zip(t, received.known)
    ]
    matrix, labels = reference_system(code, t)
    rhs = []
    for row in code.H:
        acc = ext.zero()
        for h, k in zip(row, known):
            acc = acc + h * k
        rhs.extend(reference_coordinates(omega, -acc, inverse))
    result = element_linalg.solve(matrix, rhs, len(labels), base)
    if result.status == "inconsistent":
        return "inconsistent", None, 0
    if result.status == "ambiguous":
        return "ambiguous", None, result.free_count
    word = list(known)
    for (i, j), lam in zip(labels, result.solution):
        word[i] = word[i] + ext.lift(lam) * omega.elements[j]
    return "decoded", tuple(word), 0


def reference_verify_udm(u):
    """(ok, counterexample) from F_q ranks of stacked row prefixes."""
    budget = min(u.m, u.n * u.alpha)
    for t in maximal_patterns(FullFamily(u.alpha, budget, u.n)):
        stacked = [list(row) for mat, ti in zip(u.matrices, t) for row in mat[:ti]]
        if element_linalg.rank(stacked, u.field) != sum(t):
            return False, t
    return True, None


class ListEchelon:
    """The list-row echelon: each vector a list of ints in [0, p), reduced
    entry by entry.  Pivots are searched among the first ``width``
    entries; entries past ``width`` ride along as tags."""

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows = []  # (pivot, vector)

    def reduce(self, v):
        p = self.p
        v = list(v)
        for piv, b in self.rows:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, b)]
        return v

    def insert(self, v):
        """None when v was independent (and is now a row), else v reduced."""
        v = self.reduce(v)
        for piv in range(self.width):
            c = v[piv]
            if c:
                if c != 1:
                    inv = pow(c, -1, self.p)
                    v = [x * inv % self.p for x in v]
                self.rows.append((piv, v))
                return None
        return v


def _tagged(columns):
    k = len(columns)
    return [list(col) + [int(i == j) for i in range(k)] for j, col in enumerate(columns)]


def reference_inverse(columns, p):
    """Columns of the inverse of the square matrix with the given columns,
    or None when it is singular."""
    n = len(columns)
    ech = ListEchelon(p, n)
    for v in _tagged(columns):
        if ech.insert(v) is not None:
            return None
    return [[-x % p for x in ech.reduce([int(i == r) for i in range(n)] + [0] * n)[n:]] for r in range(n)]


def reference_mat_vec(columns, v, p):
    """sum_k v[k] * columns[k] mod p, entry by entry."""
    height = len(columns[0]) if columns else 0
    return [sum(c * col[i] for c, col in zip(v, columns)) % p for i in range(height)]


def reference_prefix_echelons(blocks, patterns, unit, p):
    """(t, a fresh list echelon of the first t_i * unit vectors of every
    block, stacked) per pattern, or (t, None) at the first dependency."""
    width = next((len(v) for block in blocks for v in block), 0)
    for t in patterns:
        ech = ListEchelon(p, width)
        stacked = [v for block, ti in zip(blocks, t) for v in block[: ti * unit]]
        for v in stacked:
            if ech.insert(v) is not None:
                ech = None
                break
        yield t, ech


def reference_greedy_gv_code(
    n: int,
    r: int,
    m: int,
    ext: ExtSpec,
    seed: int = 0,
    budget: int = 10_000,
) -> LinearCode:
    """Grow an m-good parity check column by column, starting from identity.

    A matrix is m-good when its right kernel holds no nonzero word of
    hierarchical weight at most m; appending any column outside the bad
    set preserves goodness, and a large enough field guarantees such a
    column exists.  Columns are sampled with the seeded RNG; if the budget
    runs dry and the column space is small, a deterministic sweep finishes
    the search before giving up.
    """
    alpha = ext.alpha
    if not 1 <= r <= n:
        raise ParameterError("need 1 <= r <= n")
    if m < 0 or m >= alpha * (r - 1):
        raise ParameterError(f"need m < alpha*(r-1) = {alpha * (r - 1)}")
    base_size = ext.base.order
    bound_base = gv_existence_base(n, m)
    if base_size ** (alpha * (r - 1) - m) <= bound_base:
        warnings.warn(
            f"field size {base_size} is at or below the existence threshold; "
            "the greedy search may exhaust its budget"
        )
    omega = ext.polynomial_basis()
    rng = random.Random(seed)
    rows = [[ext.one() if j == i else ext.zero() for j in range(r)] for i in range(r)]

    def prefix_good(candidate_rows, length):
        probe = code_from_rows(ext, candidate_rows, omega, length=length)
        return is_correcting(probe, FullFamily(alpha, m, length)).correcting

    for col in range(r, n):
        extended = None
        for _ in range(budget):
            g = [ext.from_index(rng.randrange(ext.order)) for _ in range(r)]
            candidate = [row + [gi] for row, gi in zip(rows, g)]
            if prefix_good(candidate, col + 1):
                extended = candidate
                break
        if extended is None and ext.order**r <= (1 << 20):
            for idx in range(ext.order**r):
                g = []
                k = idx
                for _ in range(r):
                    g.append(ext.from_index(k % ext.order))
                    k //= ext.order
                candidate = [row + [gi] for row, gi in zip(rows, g)]
                if prefix_good(candidate, col + 1):
                    extended = candidate
                    break
        if extended is None:
            raise ConstructionError(
                f"no eligible column found for position {col} "
                f"(have {col} good columns; budget {budget})"
            )
        rows = extended

    return code_from_rows(
        ext,
        rows,
        omega,
        FullFamily(alpha, m, n),
        {"construction": "greedy_gv", "n": n, "r": r, "m": m, "seed": seed},
    )


# ---------------------------------------------------------------------------
# Irreducibility by the distinct-degree gcd test, the package's test before
# Berlekamp's criterion.  Polynomials are trimmed lists of raws of a
# coefficient field K (a FieldSpec; its raw arithmetic is K's own),
# ascending powers.


def _trim(c, K):
    c = list(c)
    while c and c[-1] == K.rzero:
        c.pop()
    return c


def _sub(a, b, K):
    n = max(len(a), len(b))
    pad_a, pad_b = a + [K.rzero] * (n - len(a)), b + [K.rzero] * (n - len(b))
    return _trim([K.rsub(x, y) for x, y in zip(pad_a, pad_b)], K)


def _mul(a, b, K):
    out = [K.rzero] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = K.radd(out[i + j], K.rmul(ai, bj))
    return _trim(out, K)


def _rem(a, m, K):
    # m monic, trimmed
    a = list(a)
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        for t in range(dm + 1):
            a[k - dm + t] = K.rsub(a[k - dm + t], K.rmul(c, m[t]))
    return _trim(a[:dm], K)


def _monic(a, K):
    inv = K.rinv(a[-1])
    return [K.rmul(inv, c) for c in a]


def _gcd(a, b, K):
    a, b = _trim(a, K), _trim(b, K)
    while b:
        a, b = b, _rem(a, _monic(b, K), K)
    return _monic(a, K) if a else a


def _powmod(base, exp, m, K):
    result, acc = [K.rone], _rem(base, m, K)
    while exp:
        if exp & 1:
            result = _rem(_mul(result, acc, K), m, K)
        acc = _rem(_mul(acc, acc, K), m, K)
        exp >>= 1
    return result


def reference_is_irreducible(coeffs, K):
    """Irreducibility of a monic polynomial over K: gcd(f, y^(|K|^i) - y)
    is 1 for every i up to deg/2.  A degree-1 polynomial is irreducible."""
    f = _trim(coeffs, K)
    d = len(f) - 1
    if d <= 0 or f[-1] != K.rone:
        raise ParameterError("irreducibility test expects a monic polynomial of degree >= 1")
    y = [K.rzero, K.rone]
    frob = y
    for _ in range(d // 2):
        frob = _powmod(frob, K.order, f, K)
        if len(_gcd(_sub(frob, y, K), f, K)) > 1:
            return False
    return True


def reference_quadratic_root(ext, a0=None):
    """The first irreducible x^2 + a1 x + a0 over the base in (a0, a1)
    lexicographic order (a0 pinned when given), and its first root in the
    sorted list of the degree-2 subfield's members (``lex_elements`` when
    that subfield is the whole field)."""
    base = ext.base
    for c0 in base.lex_elements() if a0 is None else [a0]:
        for a1 in base.lex_elements():
            if reference_is_irreducible([c0.coeffs, a1.coeffs, base.rone], base):
                lc0, la1 = ext.lift(c0), ext.lift(a1)
                plane = ext.lex_elements() if ext.alpha == 2 else reference_subfield_members(ext, 2)
                for b in plane:
                    if not b * b + la1 * b + lc0:
                        return QuadraticRoot(c0, a1, b)
    raise ConstructionError("no irreducible quadratic found")
