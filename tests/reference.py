"""The Element-object route to correctability, decoding and UDM checks.

This is the slow path the prime-field kernel replaced, kept only as a
reference for differential tests: every pattern expands H against the
basis with ``OrderedBasis.coordinates`` and runs ``linalg`` elimination
over the base field F_q; decoding rebuilds the known symbols with
``combine`` and solves over F_q; UDM verification ranks stacked F_q rows.
"""

from hierasure import FullFamily, linalg, maximal_patterns


def reference_system(code, t):
    """(matrix over F_q, labels) of pattern t: column (i, j) is H[:, i] * omega_j."""
    omega = code.omega
    labels, columns = [], []
    for i, ti in enumerate(t):
        for j in range(ti):
            col = []
            for row in code.H:
                col.extend(omega.coordinates(row[i] * omega.elements[j]))
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
    from hierasure import enumerate_family

    pats = enumerate_family(fam) if all_patterns else maximal_patterns(fam)
    for t in pats:
        if not reference_correctable(code, t):
            return False, t, reference_witness(code, t)
    return True, None, None


def reference_decode(code, received):
    """(status, codeword, solution_space_dim) by F_q elimination."""
    ext, base, omega = code.ext, code.ext.base, code.omega
    t = received.pattern
    known = [
        omega.combine([base.zero()] * ti + list(suffix))
        for ti, suffix in zip(t, received.known)
    ]
    matrix, labels = reference_system(code, t)
    rhs = []
    for row in code.H:
        acc = ext.zero()
        for h, k in zip(row, known):
            acc = acc + h * k
        rhs.extend(omega.coordinates(-acc))
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
