"""The Element-object route to correctability, decoding and UDM checks.

This is the slow path the prime-field kernel replaced, kept only as a
reference for differential tests.  It never goes through the basis
transform it checks: coordinates over omega come from its own ``linalg``
inverse of the alpha x alpha F_q coordinate matrix, and a word is rebuilt
as sum c_j * omega_j in the extension.  Every pattern expands H against
the basis and runs ``linalg`` elimination over the base field F_q;
decoding solves over F_q; UDM verification ranks stacked F_q rows.

It also keeps the exhaustive searches the closed forms replaced: the
pairwise dominance filter over a family's members, the filter of the
bounded simplex that enumerated balanced and power members, and the
sorted list of every member of a subfield.  ``reference_greedy_gv_code``
is the greedy construction as it was before it cached prefix echelons:
each candidate column builds a probe code and rechecks every maximal
pattern of the full family.
"""

import itertools
import random
import warnings

from hierasure import (
    BalancedFamily,
    ConstructionError,
    Element,
    ExtSpec,
    FullFamily,
    LinearCode,
    ParameterError,
    PowerFamily,
    code_from_rows,
    enumerate_family,
    family_contains,
    is_correcting,
    linalg,
    maximal_patterns,
    subfield_basis,
)
from hierasure.constructions import _gv_bound_base
from hierasure.patterns import _bounded_sum_tuples


def reference_enumerate_family(fam):
    """Every member in lexicographic order; balanced and power by filtering.

    Balanced and power members are picked out of every tuple with entries
    and total at most alpha; other families use ``enumerate_family``.
    """
    if isinstance(fam, (BalancedFamily, PowerFamily)):
        return [t for t in _bounded_sum_tuples(fam.n, fam.alpha, fam.alpha) if family_contains(fam, t)]
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

    The members come from a prefix walk on ``family_contains``: in a
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
        while family_contains(fam, prefix + (v,) + pad):
            yield from walk(prefix + (v,))
            v += 1

    return [
        t
        for t in walk(())
        if not any(family_contains(fam, t[:j] + (t[j] + 1,) + t[j + 1 :]) for j in range(n))
    ]


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
    img = el
    for _ in range(d):
        img = ext.frobenius(img)
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
    return [[Element(ext.base, el.coeffs[k]) for el in elements] for k in range(ext.alpha)]


def coordinate_inverse(ext, elements):
    """Rows of the inverse of the elements' F_q coordinate matrix.

    Raises ParameterError when the elements are dependent or not alpha of them.
    """
    return linalg.invert(_coordinate_matrix(ext, elements), ext.base)


def reference_is_basis(ext, elements):
    matrix = _coordinate_matrix(ext, elements)
    return len(elements) == ext.alpha and linalg.rank(matrix, ext.base) == ext.alpha


def reference_coordinates(omega, x, inverse=None):
    """Base-field coordinates of x over omega (``inverse`` may be precomputed)."""
    base = omega.ext.base
    if inverse is None:
        inverse = coordinate_inverse(omega.ext, omega.elements)
    return tuple(linalg.mat_vec(inverse, [Element(base, c) for c in x.coeffs], base))


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


def reference_correctable(code, t):
    matrix, labels = reference_system(code, t)
    return not labels or linalg.rank(matrix, code.ext.base) == len(labels)


def reference_witness(code, t):
    """The codeword from the first canonical kernel vector of the system."""
    matrix, labels = reference_system(code, t)
    kernel = linalg.right_kernel(matrix, len(labels), code.ext.base)
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
    result = linalg.solve(matrix, rhs, len(labels), base)
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
        if linalg.rank(stacked, u.field) != sum(t):
            return False, t
    return True, None


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
    bound_base = _gv_bound_base(n, m)
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
