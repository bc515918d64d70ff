import random

import pytest

from hierasure import ParameterError, code_from_rows, linalg
import element_linalg
from towers import tower


def M(ext, rows):
    return [[ext.from_index(v) for v in row] for row in rows]


class TestRank:
    def test_identity(self):
        ext = tower(5, 1, 1)
        assert linalg.rank(element_linalg.identity(4, ext), ext) == 4

    def test_dependent_rows(self):
        ext = tower(5, 1, 1)
        m = M(ext, [[1, 0, 3], [0, 1, 1], [1, 1, 4]])  # row3 = row1 + row2
        assert linalg.rank(m, ext) == 2

    def test_empty(self):
        ext = tower(2, 1, 2)
        assert linalg.rank([], ext) == 0


class TestKernel:
    def test_kernel_vectors_annihilate(self):
        ext = tower(3, 1, 2)
        rng = random.Random(0)
        for _ in range(10):
            rows = [[ext.from_index(rng.randrange(ext.order)) for _ in range(4)] for _ in range(2)]
            kernel = linalg.right_kernel(rows, 4, ext)
            assert len(kernel) == 4 - linalg.rank(rows, ext)
            for v in kernel:
                assert all(not x for x in element_linalg.mat_vec(rows, v, ext))

    def test_zero_rows_kernel_is_everything(self):
        ext = tower(2, 1, 1)
        kernel = linalg.right_kernel([], 3, ext)
        assert len(kernel) == 3


class TestSolve:
    def test_unique(self):
        ext = tower(7, 1, 1)
        rows = M(ext, [[1, 2], [3, 4]])
        x = [ext.from_index(5), ext.from_index(6)]
        rhs = element_linalg.mat_vec(rows, x, ext)
        out = linalg.solve(rows, rhs, 2, ext)
        assert out.status == "unique"
        assert out.solution == x

    def test_inconsistent(self):
        ext = tower(5, 1, 1)
        rows = M(ext, [[1, 1], [2, 2]])
        rhs = [ext.from_index(1), ext.from_index(3)]
        assert linalg.solve(rows, rhs, 2, ext).status == "inconsistent"

    def test_ambiguous_counts_freedom(self):
        ext = tower(5, 1, 1)
        rows = M(ext, [[1, 1]])
        rhs = [ext.from_index(2)]
        out = linalg.solve(rows, rhs, 2, ext)
        assert out.status == "ambiguous"
        assert out.free_count == 1

    def test_zero_columns(self):
        ext = tower(5, 1, 1)
        rows = [[], []]
        ok = linalg.solve(rows, [ext.zero(), ext.zero()], 0, ext)
        assert ok.status == "unique" and ok.solution == []
        bad = linalg.solve(rows, [ext.one(), ext.zero()], 0, ext)
        assert bad.status == "inconsistent"


class TestInvert:
    def test_round_trip(self):
        ext = tower(2, 2, 1)
        rng = random.Random(3)
        for _ in range(10):
            rows = [
                [ext.from_index(rng.randrange(ext.order)) for _ in range(3)]
                for _ in range(3)
            ]
            if linalg.rank(rows, ext) < 3:
                continue
            inv = linalg.invert(rows, ext)
            prod = linalg.mat_mul(rows, inv, ext)
            assert prod == element_linalg.identity(3, ext)

    def test_singular(self):
        ext = tower(2, 1, 1)
        with pytest.raises(ParameterError):
            linalg.invert(M(ext, [[1, 1], [1, 1]]), ext)


# towers with e = 1, 2 and 3; each grid runs at the extension and the base level
GRID_TOWERS = [(2, 1, 2), (3, 1, 2), (5, 1, 3), (2, 1, 4), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]


def _random_matrix(spec, rng, r, c):
    rows = [
        [spec.from_index(rng.randrange(spec.order)) if rng.random() < 0.6 else spec.zero() for _ in range(c)]
        for _ in range(r)
    ]
    if r >= 2 and rng.random() < 0.4:
        # a dependent row: a multiple of the first plus the second
        k = spec.from_index(rng.randrange(spec.order))
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
    if c >= 2 and rng.random() < 0.3:
        zero_col = rng.randrange(c)
        for row in rows:
            row[zero_col] = spec.zero()
    return rows


def _grid():
    # ids only: each test builds its field (``_spec``), so a defect in field
    # arithmetic fails the tests that use it, by name, not the collection
    for p, e, alpha in GRID_TOWERS:
        for level in ("ext", "base"):
            yield pytest.param((p, e, alpha, level), id=f"{p}-{e}-{alpha}-{level}")


def _spec(grid):
    p, e, alpha, level = grid
    ext = tower(p, e, alpha)
    return ext if level == "ext" else ext.base


class TestAgainstElementReference:
    """The prime-field block route gives exactly the reduced-row-echelon results."""

    @pytest.mark.parametrize("grid", _grid())
    def test_rank_and_kernel(self, grid):
        spec = _spec(grid)
        rng = random.Random(spec.order)
        for _ in range(40):
            r, c = rng.randint(0, 5), rng.randint(0, 6)
            rows = _random_matrix(spec, rng, r, c)
            assert linalg.rank(rows, spec) == element_linalg.rank(rows, spec)
            assert linalg.right_kernel(rows, c, spec) == element_linalg.right_kernel(rows, c, spec)

    @pytest.mark.parametrize("grid", _grid())
    def test_solve(self, grid):
        spec = _spec(grid)
        rng = random.Random(spec.order + 1)
        for k in range(40):
            r, c = rng.randint(0, 5), rng.randint(0, 6)
            rows = _random_matrix(spec, rng, r, c)
            if k % 2:  # a consistent right-hand side
                x = [spec.from_index(rng.randrange(spec.order)) for _ in range(c)]
                rhs = element_linalg.mat_vec(rows, x, spec)
            else:
                rhs = [spec.from_index(rng.randrange(spec.order)) for _ in range(r)]
            got = linalg.solve(rows, rhs, c, spec)
            want = element_linalg.solve(rows, rhs, c, spec)
            assert (got.status, got.solution, got.free_count) == (want.status, want.solution, want.free_count)

    @pytest.mark.parametrize("grid", _grid())
    def test_invert(self, grid):
        spec = _spec(grid)
        rng = random.Random(spec.order + 2)
        singular = 0
        for _ in range(30):
            n = rng.randint(0, 4)
            rows = _random_matrix(spec, rng, n, n)
            try:
                want = element_linalg.invert(rows, spec)
            except ParameterError:
                singular += 1
                with pytest.raises(ParameterError, match="singular"):
                    linalg.invert(rows, spec)
                continue
            assert linalg.invert(rows, spec) == want
        assert singular

    def test_empty_and_zero_column_edges(self):
        ext = tower(2, 2, 2)
        for spec in (ext, ext.base):
            for rows, c in (([], 0), ([], 3), ([[], []], 0), ([[spec.zero()] * 3] * 2, 3)):
                assert linalg.right_kernel(rows, c, spec) == element_linalg.right_kernel(rows, c, spec)
                rhs = [spec.zero()] * len(rows)
                got, want = linalg.solve(rows, rhs, c, spec), element_linalg.solve(rows, rhs, c, spec)
                assert (got.status, got.solution, got.free_count) == (want.status, want.solution, want.free_count)
            assert linalg.invert([], spec) == []


class TestBlocks:
    """Each column's block is the column times every power unit, and 0- and
    1-row matrices answer as the reference does."""

    @pytest.mark.parametrize("grid", _grid())
    def test_blocks_match_element_products(self, grid):
        spec = _spec(grid)
        rng = random.Random(spec.order + 3)
        p, deg = spec.digit_layout.p, spec.digit_layout.width
        units = [spec.from_index(p**u) for u in range(deg)]
        for r in (0, 1, 3):
            rows = _random_matrix(spec, rng, r, 3)
            lay, got_deg, columns = linalg._linearize(rows, 3, spec)
            assert (got_deg, len(columns), lay.lanes) == (deg, 3 * deg, r * deg)
            want = [
                [d for row in rows for d in (row[j] * u).coeffs]
                for j in range(3)
                for u in units
            ]
            assert [lay.digits(col) for col in columns] == want

    @pytest.mark.parametrize("grid", _grid())
    def test_zero_and_one_row_matrices(self, grid):
        spec = _spec(grid)
        rng = random.Random(spec.order + 4)
        for r in (0, 1):
            for c in (0, 1, 4):
                rows = _random_matrix(spec, rng, r, c) if r else []
                assert linalg.rank(rows, spec) == element_linalg.rank(rows, spec)
                assert linalg.right_kernel(rows, c, spec) == element_linalg.right_kernel(rows, c, spec)
                rhs = [spec.from_index(rng.randrange(spec.order)) for _ in range(r)]
                got, want = linalg.solve(rows, rhs, c, spec), element_linalg.solve(rows, rhs, c, spec)
                assert (got.status, got.solution, got.free_count) == (want.status, want.solution, want.free_count)


class TestCodeRank:
    """``LinearCode.rank`` and ``dim``, read from the expansion, match the reference rank of H."""

    @pytest.mark.parametrize("p,e,alpha", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 3, 2)])
    def test_dependent_rows(self, p, e, alpha):
        ext = tower(p, e, alpha)
        omega = ext.polynomial_basis()
        rng = random.Random(p * e * alpha)
        for _ in range(10):
            n = rng.randint(1, 4)
            rows = _random_matrix(ext, rng, rng.randint(1, 4), n)
            code = code_from_rows(ext, rows, omega, length=n)
            rank = element_linalg.rank(rows, ext)
            assert (code.rank, code.dim) == (rank, n - rank)

    def test_zero_row_code(self):
        ext = tower(3, 1, 2)
        code = code_from_rows(ext, [], ext.polynomial_basis(), length=3)
        assert (code.rank, code.dim) == (0, 3)
