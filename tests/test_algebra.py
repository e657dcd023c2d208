"""Field, vector, matrix, and solver tests.

Extension-field expectations are worked out by hand against the modulus
polynomial and frozen here as integers, independent of the table builder.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from icsisec.algebra import (
    DimensionMismatchError,
    Field,
    FieldMismatchError,
    FieldTooLargeError,
    InconsistentSystemError,
    IndexOutOfRangeError,
    Matrix,
    NotPrimeError,
    ReduciblePolynomialError,
    Vector,
    _rref_raw,
    solve,
    unit_vector,
)

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)
F4 = Field(2, 2)
F8 = Field(2, 3)
F9 = Field(3, 2)

SMALL_FIELDS = (F2, F3, F5, F4, F8, F9)


def field_and_elements(count):
    return st.sampled_from(SMALL_FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), *(st.integers(0, f.q - 1) for _ in range(count)))
    )


class TestField:
    def test_prime_field_tables(self):
        assert F5.add(3, 4) == 2
        assert F5.mul(3, 4) == 2
        assert F5.neg(2) == 3
        assert F5.inv(3) == 2
        assert F5.sub(1, 4) == 2
        assert F5.power(2, 4) == 1

    def test_gf8_uses_x3_plus_x_plus_1(self):
        # canonical modulus is the least irreducible cubic: 1 + x + x^3
        assert F8.poly == (1, 1, 0, 1)
        # x * x = x^2, x * x^2 = x^3 = x + 1
        assert F8.mul(2, 2) == 4
        assert F8.mul(2, 4) == 3
        # (x+1)^2 = x^2 + 1
        assert F8.mul(3, 3) == 5
        # x * (x^2+1) = x^3 + x = 1
        assert F8.inv(2) == 5
        assert F8.add(6, 3) == 5

    def test_gf4_table(self):
        assert F4.poly == (1, 1, 1)
        assert F4.mul(2, 2) == 3
        assert F4.mul(2, 3) == 1
        assert F4.inv(2) == 3

    def test_gf9_arithmetic(self):
        # modulus 1 + x^2 is irreducible over F_3 (x^2 = -1 = 2)
        assert F9.poly == (1, 0, 1)
        # x * x = 2, so 3 * 3 = 2
        assert F9.mul(3, 3) == 2
        # addition is coefficientwise mod 3: (1+x) + (2+x) = 2x
        assert F9.add(4, 5) == 6

    def test_power_zero_is_one(self):
        for field in SMALL_FIELDS:
            assert field.power(0, 0) == 1
            assert field.power(3 % field.q, 0) == 1

    def test_rejections(self):
        with pytest.raises(NotPrimeError):
            Field(4)
        with pytest.raises(NotPrimeError):
            Field(1)
        with pytest.raises(ReduciblePolynomialError):
            Field(2, 2, poly=(1, 0, 1))
        with pytest.raises(FieldTooLargeError, match=r"^q = 2\^17 = 131072 exceeds 65536$"):
            Field(2, 17)
        with pytest.raises(FieldTooLargeError, match=r"^q = 65537\^1 = 65537 exceeds 65536$"):
            Field(65537)
        # Rejected by size before the primality test (a Mersenne prime, by
        # trial division for minutes) and before the power (2^400000000
        # has too many digits to print).
        with pytest.raises(FieldTooLargeError, match=r"^q = 2305843009213693951\^1 exceeds 65536$"):
            Field(2**61 - 1)
        with pytest.raises(FieldTooLargeError, match=r"^q = 2\^400000000 exceeds 65536$"):
            Field(2, 400000000)
        with pytest.raises(ValueError):
            Field(5, 1, poly=(1, 1))
        with pytest.raises(ValueError):
            Field(2, 3, poly=(1, 1, 1))  # degree does not match m
        with pytest.raises(ReduciblePolynomialError):
            Field(2, 3, poly=(1, 1, 1, 1))  # 1 + x + x^2 + x^3 has root 1
        with pytest.raises(ValueError):
            Field(2, 3, poly=(1, 1, 0, 3))  # 3 is not an element of F_2

    def test_largest_allowed_field(self):
        field = Field(251)
        assert field.q == 251
        assert field.mul(250, 250) == 1

    def test_equality_is_structural(self):
        assert Field(2, 3) == Field(2, 3, poly=(1, 1, 0, 1))
        assert Field(2, 3) != Field(2, 2)
        assert hash(Field(3)) == hash(Field(3))

    def test_check_value(self):
        assert F3.check_value(2) == 2
        with pytest.raises(Exception):
            F3.check_value(3)
        with pytest.raises(Exception):
            F3.check_value(-1)

    @given(field_and_elements(3))
    def test_ring_axioms(self, fabc):
        f, a, b, c = fabc
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))

    @given(field_and_elements(1))
    def test_multiplicative_inverse(self, fa):
        f, a = fa
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                f.inv(a)
        else:
            assert f.mul(a, f.inv(a)) == 1

    @given(field_and_elements(1), st.integers(0, 20))
    def test_power_matches_repeated_multiplication(self, fa, e):
        f, a = fa
        expected = 1
        for _ in range(e):
            expected = f.mul(expected, a)
        assert f.power(a, e) == expected


class TestVector:
    def test_basics(self):
        v = Vector(F3, (0, 2, 1, 0))
        assert len(v) == 4
        assert v.support() == frozenset({2, 3})
        assert v.at(2) == 2
        with pytest.raises(IndexOutOfRangeError):
            v.at(0)
        with pytest.raises(IndexOutOfRangeError):
            v.at(5)

    def test_arithmetic(self):
        u = Vector(F3, (1, 2, 0))
        v = Vector(F3, (2, 2, 1))
        assert (u + v).entries == (0, 1, 1)
        assert (u - v).entries == (2, 0, 2)
        assert u.scaled(2).entries == (2, 1, 0)
        assert u.dot(v) == F3.add(F3.mul(1, 2), F3.mul(2, 2))

    def test_unit_vector(self):
        e = unit_vector(2, 4, F5)
        assert e.entries == (0, 1, 0, 0)
        with pytest.raises(IndexOutOfRangeError):
            unit_vector(5, 4, F5)

    def test_mismatches(self):
        with pytest.raises(FieldMismatchError):
            Vector(F2, (1,)) + Vector(F3, (1,))
        with pytest.raises(DimensionMismatchError):
            Vector(F2, (1,)) + Vector(F2, (1, 0))


class TestMatrix:
    def test_products(self):
        m = Matrix(F5, ((1, 2, 0), (0, 1, 3)))
        assert m.times_col(Vector(F5, (1, 1, 1))).entries == (3, 4)
        assert m.left_times(Vector(F5, (1, 2))).entries == (1, 4, 1)

    def test_from_rows_checks_lengths(self):
        with pytest.raises(DimensionMismatchError):
            Matrix.from_rows([Vector(F5, (1, 2, 0)), Vector(F5, (0, 1))])


def random_matrix(draw_field=True):
    def build(args):
        f, nrows, ncols, seed_entries = args
        entries = tuple(
            tuple(seed_entries[i * ncols + j] % f.q for j in range(ncols))
            for i in range(nrows)
        )
        return Matrix(f, entries)

    return st.tuples(
        st.sampled_from(SMALL_FIELDS),
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.integers(0, 100), min_size=16, max_size=16),
    ).map(build)


class TestRref:
    def test_known_reduction(self):
        rows, pivots = _rref_raw(F2, ((1, 1, 0), (1, 1, 1), (0, 0, 1)))
        assert rows == [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert pivots == [0, 2]

    @settings(deadline=None)
    @given(random_matrix())
    def test_rref_properties(self, m):
        rows, pivots = _rref_raw(m.field, m.entries)
        assert pivots == sorted(pivots)
        assert len(pivots) <= min(m.nrows, m.ncols)
        # pivot columns reduce to unit columns
        for r, p in enumerate(pivots):
            col = [rows[i][p] for i in range(m.nrows)]
            assert col[r] == 1 and sum(1 for v in col if v) == 1
        # idempotent
        again, _ = _rref_raw(m.field, rows)
        assert again == rows

    @settings(deadline=None)
    @given(random_matrix())
    def test_width_carries_right_hand_columns(self, m):
        # Pivoting on the first columns only: the left block reduces as on
        # its own, and the appended copy of the matrix records the row
        # operations, so it reduces to the same rows.
        aug = [list(row) + list(row) for row in m.entries]
        rows, pivots = _rref_raw(m.field, aug, width=m.ncols)
        alone, alone_pivots = _rref_raw(m.field, m.entries)
        assert pivots == alone_pivots
        assert [r[: m.ncols] for r in rows] == alone
        assert [r[m.ncols :] for r in rows] == alone

    @settings(deadline=None)
    @given(random_matrix())
    def test_rank_equals_transpose_rank(self, m):
        rank = len(_rref_raw(m.field, m.entries)[1])
        assert rank == len(_rref_raw(m.field, list(zip(*m.entries)))[1])


def poly_product(field, a, b):
    """a*b in an extension field: the product of the digit polynomials,
    reduced modulo the field's polynomial one digit at a time."""
    p, m, poly = field.p, field.m, field.poly
    da = [a // p ** i % p for i in range(m)]
    db = [b // p ** i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        for j in range(m + 1):
            prod[i - m + j] = (prod[i - m + j] - c * poly[j]) % p
    return sum(d * p ** i for i, d in enumerate(prod[:m]))


def tables_by_polynomial_product(field):
    """exp and log of an extension field from the first element in
    canonical order whose powers, walked by poly_product, reach q - 1
    distinct values before 1."""
    q = field.q
    for g in range(2, q):
        exp, v = [1], g
        while v != 1:
            exp.append(v)
            v = poly_product(field, v, g)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


EXTENSIONS = [
    (p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for m in range(2, 11) if p ** m <= 1024
]


@pytest.mark.parametrize("p,m", EXTENSIONS, ids=str)
def test_tables_match_polynomial_product(p, m):
    field = Field(p, m)
    exp, log = tables_by_polynomial_product(field)
    assert field._exp == exp + exp
    assert field._log == log


@functools.cache
def scalar_ops(field):
    """add, sub, mul and inv of a field element by element, the product
    tabulated from poly_product instead of the log/exp tables."""
    if field.m == 1:
        def product(a, b):
            return a * b % field.p
    else:
        def product(a, b):
            return poly_product(field, a, b)
    products = [[product(a, b) for b in range(field.q)] for a in range(field.q)]

    def mul(a, b):
        return products[a][b]

    inverse = {a: products[a].index(1) for a in range(1, field.q)}
    return field.add, field.sub, mul, inverse.__getitem__


def scalar_gauss_jordan(field, rows, width=None):
    """Reduced row echelon form one scalar at a time, with the pivot rule
    _rref_raw documents: per column left to right, the topmost unused row
    with a nonzero entry, normalized and eliminated above and below."""
    add, sub, mul, inv = scalar_ops(field)
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if width is None else width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        scale = inv(mat[r][c])
        mat[r] = [mul(scale, v) for v in mat[r]]
        for i in range(len(mat)):
            coef = mat[i][c]
            if i != r and coef:
                mat[i] = [sub(a, mul(coef, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


# Every field with q <= 16 takes the packed rows.
PACKED_FIELDS = (F2, F3, F4, F5, Field(7), F8, F9, Field(11), Field(13), Field(2, 4))
# F17, GF(25) and GF(32) take Field._sub_scaled, GF(25) its odd-extension
# branch.
KERNEL_FIELDS = PACKED_FIELDS + (Field(17), Field(5, 2), Field(2, 5))


@st.composite
def kernel_matrices(draw, max_rows=6, max_cols=8):
    """(field, rows, width): up to max_rows x max_cols, entries biased to
    zero, with a zero row or a repeated combination of rows in some draws."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(0, field.q - 1))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    shape = draw(st.sampled_from(("plain", "zero row", "dependent row")))
    if shape == "zero row":
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    elif shape == "dependent row" and nrows > 1:
        add, _, mul, _ = scalar_ops(field)
        c = draw(st.integers(1, field.q - 1))
        rows[-1] = [add(a, mul(c, b)) for a, b in zip(rows[0], rows[1 % (nrows - 1)])]
    width = draw(st.one_of(st.none(), st.integers(1, ncols)))
    return field, rows, width


class TestRowKernel:
    """_rref_raw runs on packed byte rows and the field's pair-sum and
    b -> -c*b tables for q <= 16, and on Field._sub_scaled beyond; a scalar
    Gauss-Jordan over the table-free product is the slow route of both."""

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(kernel_matrices())
    def test_rref_matches_scalar_gauss_jordan(self, drawn):
        field, rows, width = drawn
        assert _rref_raw(field, rows, width=width) == scalar_gauss_jordan(field, rows, width)

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(kernel_matrices(max_rows=20, max_cols=24))
    def test_scheme_sized_rref_matches_scalar_gauss_jordan(self, drawn):
        field, rows, width = drawn
        assert _rref_raw(field, rows, width=width) == scalar_gauss_jordan(field, rows, width)

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_packed_row_operation_every_pair(self, field):
        # Row 2 minus c times row 1 meets every (a, b) entry pair, so every
        # pair sum and every -c*b product; a lone row scaled by 1/c reads
        # the table of -1/c.
        _, sub, mul, inv = scalar_ops(field)
        pivot_row = [b for a in range(field.q) for b in range(field.q)]
        other = [a for a in range(field.q) for b in range(field.q)]
        for c in range(1, field.q):
            expected = [0] + [sub(a, mul(c, b)) for a, b in zip(other, pivot_row)]
            rows, _ = _rref_raw(field, [[1] + pivot_row, [c] + other], width=1)
            assert rows == [[1] + pivot_row, expected]
            rows, _ = _rref_raw(field, [[c] + pivot_row], width=1)
            assert rows == [[1] + [mul(inv(c), b) for b in pivot_row]]

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_sub_scaled_every_coefficient(self, field):
        _, sub, mul, _ = scalar_ops(field)
        row = list(range(field.q))
        other = row[::-1]
        for c in range(1, field.q):
            expected = [sub(a, mul(c, b)) for a, b in zip(row, other)]
            assert field._sub_scaled(row, c, other) == expected


class TestSolve:
    def test_unique_solution(self):
        a = Matrix(F5, ((1, 2), (3, 4)))
        sol = solve(a, Vector(F5, (0, 2)))
        assert a.times_col(sol.particular).entries == (0, 2)
        assert sol.kernel == ()

    def test_inconsistent(self):
        a = Matrix(F2, ((1, 1), (1, 1)))
        with pytest.raises(InconsistentSystemError):
            solve(a, Vector(F2, (0, 1)))

    @settings(deadline=None)
    @given(random_matrix(), st.data())
    def test_solution_structure(self, a, data):
        f = a.field
        y = Vector(f, tuple(data.draw(st.integers(0, f.q - 1)) for _ in range(a.ncols)))
        b = a.times_col(y)
        sol = solve(a, b)
        assert a.times_col(sol.particular) == b
        for basis_vector in sol.kernel:
            assert a.times_col(basis_vector).entries == (0,) * a.nrows

    def test_column_span(self):
        # A y^T = b^T is solvable exactly when b lies in the column span of A.
        cols = Matrix(F2, ((1, 0), (1, 1), (0, 1)))
        assert cols.times_col(solve(cols, Vector(F2, (1, 0, 1))).particular).entries == (1, 0, 1)
        with pytest.raises(InconsistentSystemError):
            solve(Matrix(F2, ((1,), (1,), (0,))), Vector(F2, (1, 0, 1)))
