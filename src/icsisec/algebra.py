"""Exact arithmetic in F_q and the linear algebra built on top of it.

Field elements are canonical integers in [0, q): the base-p digits of the
integer are the coefficients of the polynomial basis representation, so for
prime fields the integer is just the residue. Prime fields compute with
modular arithmetic; extension fields are built once per (p, m, polynomial)
and afterwards multiply through log/antilog tables, which keeps every
operation exact. Field order is capped at 65536.

The log/exp tables come from the first multiplicative generator in
canonical order, found by testing each candidate's order against the prime
factors of q - 1 with a table-free shift-and-add product; the powers of the
generator then fill exp in O(q), since multiplying by it is linear over
F_p and splits into one lookup for the low digits and one for the high.

Row reduction over a field with q <= 16 (F2, F3, F4, F5, F7, GF(8),
GF(9), F11, F13, GF(16)) runs on packed rows, one entry per byte, in the
manner of the table-driven row operations of Rizzo's erasure codes. A row
operation row - c*pivot packs each pair of entries into one byte, a << 4 |
b with b from -c*pivot, through one shift and OR of the rows as integers,
and maps every byte to a + b with one bytes.translate. The field supplies
the pair-sum table, a constant per (p, m), and the table b -> -c*b per
coefficient, built in O(q) on first use; normalising a pivot row is one
translate. Larger fields run on Field._sub_scaled (row - c*other for a
whole row at once), which has the three branches of Field.add. A scalar
Gauss-Jordan in the tests is the slow route of both.

Index convention: every public index argument or result (supports, pivot
columns, unit-vector positions, column selections) is 1-based, matching the
usual [n] = {1, ..., n} notation of the domain. Raw entry tuples remain
ordinary 0-based Python sequences.

Everything in this module is immutable after construction; operations are
pure functions, so sharing objects between workers is safe.

Validation happens once, at the input boundary: the public Vector(...) and
Matrix(...) constructors check every entry with Field.check_value, so values
parsed from a file or the command line always pass through them. Results of
field operations, and values taken from objects already validated, are
canonical by construction and are wrapped by the private unchecked
constructors Vector._raw and Matrix._raw instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

MAX_FIELD_ORDER = 65536

# Bound once: a candidate list builds one Vector per candidate.
_new = object.__new__
_setattr = object.__setattr__


class AlgebraError(Exception):
    """Base class for every algebra-level failure."""


class NotPrimeError(AlgebraError):
    """The requested field characteristic is not a prime number."""


class ReduciblePolynomialError(AlgebraError):
    """The proposed reduction polynomial has a nontrivial factor."""


class FieldTooLargeError(AlgebraError):
    """The requested field order exceeds MAX_FIELD_ORDER."""


class FieldMismatchError(AlgebraError):
    """Operands belong to different fields."""


class DimensionMismatchError(AlgebraError):
    """Operand shapes are incompatible."""


class IndexOutOfRangeError(AlgebraError):
    """A 1-based position falls outside [1, n]."""


class InconsistentSystemError(AlgebraError):
    """The linear system has no solution."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo b over F_p; b must be monic."""
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return r[:db]


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg(poly)/2."""
    m = len(poly) - 1
    for deg in range(1, m // 2 + 1):
        for code in range(p ** deg):
            divisor = _digits(code, p, deg) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m in canonical coefficient order."""
    for code in range(p ** m):
        poly = _digits(code, p, m) + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AlgebraError(f"no irreducible polynomial of degree {m} over F_{p}")


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _axpy(a: int, b: int, c: int, p: int) -> int:
    """a + c*b digit by digit in base p: the sum in F_p[x] of canonical
    integers a and c*b, for a scalar c in F_p."""
    out = 0
    scale = 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + c * db) % p * scale
        scale *= p
    return out


def _multiplier(p: int, m: int, poly: Sequence[int]) -> Callable[[int, int], int]:
    """Table-free product of canonical integers modulo the monic `poly` of
    degree m, shift-and-add over the digits of the second factor: a times
    x is one shift, plus one XOR with the polynomial in characteristic 2
    and one digit-wise subtraction of it otherwise. Used only while the
    log/exp tables are being built."""
    q = p ** m
    if p == 2:
        full = _undigits(poly, 2)

        def times(a: int, b: int) -> int:
            out = 0
            while b:
                if b & 1:
                    out ^= a
                b >>= 1
                a <<= 1
                if a & q:
                    a ^= full
            return out

        return times
    # x^m = -(poly without its leading term), so x * (top x^(m-1) + low)
    # is low shifted up one digit, minus top times that tail.
    tail = _undigits(poly[:m], p)
    high = q // p

    def times(a: int, b: int) -> int:
        out = 0
        while b:
            b, c = divmod(b, p)
            if c:
                out = _axpy(out, a, c, p)
            top, a = divmod(a, high)
            a *= p
            if top:
                a = _axpy(a, tail, p - top, p)
        return out

    return times


def _pair_sums(p: int, m: int) -> bytes:
    """The translate table taking a packed pair a << 4 | b of entries of
    F_(p^m), p^m <= 16, to a + b; add's three branches."""
    pairs = [(i >> 4, i & 15) for i in range(256)]
    if m == 1:
        return bytes((a + b) % p for a, b in pairs)
    if p == 2:
        return bytes(a ^ b for a, b in pairs)
    return bytes(_axpy(a, b, 1, p) for a, b in pairs)


# Addition of packed rows for every field with q <= 16; it depends on
# (p, m) alone, since the reduction polynomial plays no part in a sum.
_PAIR_SUMS = {
    (p, m): _pair_sums(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 5) if p ** m <= 16
}


class Field:
    """The finite field with q = p^m elements.

    Elements are canonical integers in [0, q). For m > 1 a monic reduction
    polynomial of degree m is required; when none is supplied the first
    irreducible polynomial in canonical coefficient order is used, so two
    fields built with the same (p, m) always agree element by element.
    Irreducibility is verified at construction by trial division.

    Construction of an extension field costs O(q) to fill the log/antilog
    tables; every later product or inverse is a pair of table lookups.
    Fields compare equal iff (p, m, polynomial) coincide.
    """

    __slots__ = ("p", "m", "q", "poly", "_exp", "_log", "_pair_sums", "_neg_multiples")

    def __init__(self, p: int, m: int = 1, poly: Optional[Sequence[int]] = None):
        # Past the cap's bit length, p alone or 2^m alone already exceeds
        # it; reject that before the primality test and the power, whose
        # costs grow with p and m.
        bits = MAX_FIELD_ORDER.bit_length()
        if p > 1 and (p.bit_length() > bits or m > bits):
            raise FieldTooLargeError(f"q = {p}^{m} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be at least 1, got {m}")
        q = p ** m
        if q > MAX_FIELD_ORDER:
            raise FieldTooLargeError(f"q = {p}^{m} = {q} exceeds {MAX_FIELD_ORDER}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if poly is not None:
                raise ValueError("reduction polynomial applies only to extension fields (m > 1)")
            self.poly: Optional[tuple[int, ...]] = None
            self._exp: Optional[list[int]] = None
            self._log: Optional[list[int]] = None
        else:
            if poly is None:
                coeffs = _least_irreducible(p, m)
            else:
                coeffs = tuple(int(c) for c in poly)
                if not all(0 <= c < p for c in coeffs):
                    raise ValueError(f"reduction polynomial coefficients must lie in [0, {p})")
                if len(coeffs) != m + 1 or coeffs[m] != 1:
                    raise ValueError(f"reduction polynomial must be monic of degree {m}")
                if not _poly_is_irreducible(coeffs, p):
                    raise ReduciblePolynomialError(
                        f"polynomial {list(coeffs)} factors over F_{p}"
                    )
            self.poly = coeffs
            self._build_tables()
        self._pair_sums = _PAIR_SUMS.get((p, m))
        self._neg_multiples: Optional[list[Optional[bytes]]] = (
            None if self._pair_sums is None else [None] * q
        )

    def _build_tables(self) -> None:
        # The reduction polynomial need not be primitive, so search the
        # elements in canonical order for a multiplicative generator: g is
        # one iff g^((q-1)/r) != 1 for every prime r dividing q - 1. The
        # elements below p form the prime subfield, whose units have order
        # at most p - 1 < q - 1, so the search starts at p.
        p, q = self.p, self.q
        assert self.poly is not None
        times = _multiplier(p, self.m, self.poly)
        order = q - 1
        cofactors = [order // r for r in _prime_factors(order)]

        def power(g: int, e: int) -> int:
            out = 1
            while e:
                if e & 1:
                    out = times(out, g)
                g = times(g, g)
                e >>= 1
            return out

        for g in range(p, q):
            if all(power(g, e) != 1 for e in cofactors):
                break
        else:
            raise AlgebraError("multiplicative group has no generator; not a field")
        # Multiplying by g is F_p-linear: v*g is (v's low digits)*g plus
        # (v's high digits)*g, two lookups and one digit-wise sum.
        split = p ** (self.m // 2)
        low = [times(u, g) for u in range(split)]
        high = [times(u * split, g) for u in range(q // split)]
        exp = [1] * order
        v = 1
        if p == 2:
            for i in range(1, order):
                v = exp[i] = low[v % split] ^ high[v // split]
        else:
            for i in range(1, order):
                hi, lo = divmod(v, split)
                v = exp[i] = _axpy(low[lo], high[hi], 1, p)
        log = [0] * q
        for i, val in enumerate(exp):
            log[val] = i
        # Doubled, so that a sum of two logs indexes it without a reduction.
        self._exp = exp + exp
        self._log = log

    # -- scalar arithmetic on canonical integers --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        scale = 1
        for _ in range(self.m):
            out += ((a + b) % p) * scale
            a //= p
            b //= p
            scale *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        out = 0
        scale = 1
        for _ in range(self.m):
            out += ((-a) % p) * scale
            a //= p
            scale *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        assert self._exp is not None and self._log is not None
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        assert self._exp is not None and self._log is not None
        return self._exp[self.q - 1 - self._log[a]]

    def power(self, a: int, e: int) -> int:
        """a raised to a nonnegative integer exponent, with 0^0 = 1."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 1 if e == 0 else 0
        assert self._exp is not None and self._log is not None
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def _sub_scaled(self, row: Sequence[int], c: int, other: Sequence[int]) -> list[int]:
        """The row operation row - c*other, for a nonzero c, on a whole row
        at once; it has add's three branches, and in characteristic 2 each
        product is one lookup in the doubled exp table."""
        if self.m == 1:
            p = self.p
            return [(a - c * b) % p if b else a for a, b in zip(row, other)]
        if self.p == 2:
            exp, log = self._exp, self._log
            assert exp is not None and log is not None
            lc = log[c]
            return [a ^ exp[lc + log[b]] if b else a for a, b in zip(row, other)]
        sub, mul = self.sub, self.mul
        return [sub(a, mul(c, b)) if b else a for a, b in zip(row, other)]

    def _neg_multiple(self, c: int) -> bytes:
        """The translate table b -> -c*b of a packed row (q <= 16), built
        in O(q) the first time it is asked for."""
        tables = self._neg_multiples
        assert tables is not None
        table = tables[c]
        if table is None:
            q = self.q
            if self.m == 1:
                p = self.p
                entries = [(-c * b) % p for b in range(q)]
            else:
                exp, log = self._exp, self._log
                assert exp is not None and log is not None
                # -1 is g^((q-1)/2) in odd characteristic and 1 in characteristic 2.
                lc = (log[c] + (0 if self.p == 2 else (q - 1) // 2)) % (q - 1)
                entries = [0] + [exp[lc + log[b]] for b in range(1, q)]
            table = tables[c] = bytes(entries).ljust(256, b"\0")
        return table

    def check_value(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < self.q:
            raise ValueError(f"{value!r} is not a canonical element of {self!r}")
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.p == other.p and self.m == other.m and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.m})"


@dataclass(frozen=True)
class Vector:
    """Fixed-length vector over one field, entries stored as canonical integers."""

    field: Field
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for v in self.entries:
            self.field.check_value(v)

    @classmethod
    def _raw(cls, field: Field, entries: tuple[int, ...]) -> "Vector":
        """Unchecked constructor; the entries must already be canonical."""
        vector = _new(cls)
        _setattr(vector, "field", field)
        _setattr(vector, "entries", entries)
        return vector

    @classmethod
    def zero(cls, field: Field, length: int) -> "Vector":
        return cls._raw(field, (0,) * length)

    def __len__(self) -> int:
        return len(self.entries)

    def _peer(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            raise TypeError(f"expected Vector, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError("vectors live in different fields")
        if len(other) != len(self):
            raise DimensionMismatchError(f"lengths differ: {len(self)} vs {len(other)}")
        return other

    def __add__(self, other: "Vector") -> "Vector":
        other = self._peer(other)
        add = self.field.add
        return Vector._raw(self.field, tuple(add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        other = self._peer(other)
        sub = self.field.sub
        return Vector._raw(self.field, tuple(sub(a, b) for a, b in zip(self.entries, other.entries)))

    def scaled(self, coefficient: int) -> "Vector":
        self.field.check_value(coefficient)
        mul = self.field.mul
        return Vector._raw(self.field, tuple(mul(coefficient, a) for a in self.entries))

    def dot(self, other: "Vector") -> int:
        other = self._peer(other)
        add, mul = self.field.add, self.field.mul
        acc = 0
        for a, b in zip(self.entries, other.entries):
            acc = add(acc, mul(a, b))
        return acc

    def support(self) -> frozenset[int]:
        """1-based positions of the nonzero entries."""
        return frozenset(i + 1 for i, v in enumerate(self.entries) if v)

    def at(self, position: int) -> int:
        """Entry at a 1-based position."""
        if not 1 <= position <= len(self.entries):
            raise IndexOutOfRangeError(f"position {position} outside [1, {len(self.entries)}]")
        return self.entries[position - 1]


def unit_vector(position: int, length: int, field: Field) -> Vector:
    """The standard basis vector e_position of the given length, 1-based."""
    if not 1 <= position <= length:
        raise IndexOutOfRangeError(f"position {position} outside [1, {length}]")
    return Vector._raw(field, tuple(1 if i == position - 1 else 0 for i in range(length)))


@dataclass(frozen=True)
class Matrix:
    """Row-major matrix over one field."""

    field: Field
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionMismatchError("rows have unequal lengths")
            for v in r:
                self.field.check_value(v)

    @classmethod
    def _raw(cls, field: Field, entries: tuple[tuple[int, ...], ...]) -> "Matrix":
        """Unchecked constructor; the rows must already be canonical, nonempty
        and of equal length."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "field", field)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "Matrix":
        if not rows:
            raise ValueError("need at least one row vector")
        field = rows[0].field
        width = len(rows[0])
        for v in rows:
            if v.field != field:
                raise FieldMismatchError("rows live in different fields")
            if len(v) != width:
                raise DimensionMismatchError("rows have unequal lengths")
        return cls._raw(field, tuple(v.entries for v in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def times_col(self, x: Vector) -> Vector:
        """M x^T as a vector of length nrows."""
        if x.field != self.field:
            raise FieldMismatchError("vector lives in a different field")
        if len(x) != self.ncols:
            raise DimensionMismatchError(f"expected length {self.ncols}, got {len(x)}")
        add, mul = self.field.add, self.field.mul
        out = []
        for row in self.entries:
            acc = 0
            for a, b in zip(row, x.entries):
                acc = add(acc, mul(a, b))
            out.append(acc)
        return Vector._raw(self.field, tuple(out))

    def left_times(self, y: Union[Vector, Sequence[int]]) -> Vector:
        """y M as a vector of length ncols."""
        coeffs = y.entries if isinstance(y, Vector) else tuple(y)
        if isinstance(y, Vector) and y.field != self.field:
            raise FieldMismatchError("vector lives in a different field")
        if len(coeffs) != self.nrows:
            raise DimensionMismatchError(f"expected length {self.nrows}, got {len(coeffs)}")
        add, mul = self.field.add, self.field.mul
        out = [0] * self.ncols
        for c, row in zip(coeffs, self.entries):
            if c:
                for j, rv in enumerate(row):
                    out[j] = add(out[j], mul(c, rv))
        return Vector._raw(self.field, tuple(out))


def _rref_raw(
    field: Field, rows: Sequence[Sequence[int]], width: Optional[int] = None
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on raw entry lists.

    Deterministic pivoting: for each column left to right, the topmost
    unused row with a nonzero entry becomes the pivot; pivots are
    normalized to 1 and eliminated above and below. Returns the reduced
    rows and the 0-based pivot column list. With `width`, pivots are taken
    only among the first `width` columns; the columns after them (an
    augmented right-hand side) are carried through every row operation.

    For q <= 16 the rows are packed, one entry per byte. Then row - c*pivot
    is the bytes of (row << 4 | M) mapped through the field's pair-sum
    table, where M = pivot mapped through its b -> -c*b table is formed
    once per pivot row and coefficient, and normalising a pivot row is one
    map. Larger fields run on Field._sub_scaled.
    """
    pair_sums = field._pair_sums
    if pair_sums is None:
        mat: list = [list(r) for r in rows]
        sub_scaled = field._sub_scaled
    else:
        mat = [bytes(r) for r in rows]
        tables = field._neg_multiples
        from_bytes = int.from_bytes
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols if width is None else width):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if mat[pr][c]:
                break
        else:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        pivot = mat[r][c]
        if pivot != 1:
            if pair_sums is None:
                # row - (1 - 1/pivot)*row is row/pivot.
                mat[r] = sub_scaled(mat[r], field.sub(1, field.inv(pivot)), mat[r])
            else:
                mat[r] = mat[r].translate(field._neg_multiple(field.neg(field.inv(pivot))))
        prow = mat[r]
        if pair_sums is None:
            for i in range(nrows):
                coef = mat[i][c]
                if coef and i != r:
                    mat[i] = sub_scaled(mat[i], coef, prow)
        else:
            multiples: dict[int, int] = {}
            for i, row in enumerate(mat):
                coef = row[c]
                if coef and i != r:
                    scaled = multiples.get(coef)
                    if scaled is None:
                        table = tables[coef] or field._neg_multiple(coef)
                        scaled = multiples[coef] = from_bytes(prow.translate(table), "big")
                    mat[i] = ((from_bytes(row, "big") << 4) | scaled).to_bytes(ncols, "big").translate(pair_sums)
        pivots.append(c)
        r += 1
    if pair_sums is not None:
        mat = [list(row) for row in mat]
    return mat, pivots


def _rank_raw(field: Field, rows: Sequence[Sequence[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    return len(_rref_raw(field, rows)[1])


@dataclass(frozen=True)
class LinearSolution:
    """One solution of A y^T = b^T together with a basis of the kernel of A.

    The particular solution is the canonical one with every free variable
    set to zero; the full solution set is particular plus the span of the
    kernel basis, q^len(kernel) vectors in total.
    """

    particular: Vector
    kernel: tuple[Vector, ...]


def solve(matrix: Matrix, rhs: Vector) -> LinearSolution:
    """Solve A y^T = b^T for the row vector y; raises when inconsistent."""
    if rhs.field != matrix.field:
        raise FieldMismatchError("right-hand side lives in a different field")
    if len(rhs) != matrix.nrows:
        raise DimensionMismatchError(f"expected length {matrix.nrows}, got {len(rhs)}")
    field = matrix.field
    ncols = matrix.ncols
    aug = [list(row) + [b] for row, b in zip(matrix.entries, rhs.entries)]
    reduced, pivots = _rref_raw(field, aug)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystemError("no solution exists")
    particular, kernel = _read_solution(field, reduced, pivots, ncols)
    return LinearSolution(
        Vector._raw(field, particular), tuple(Vector._raw(field, v) for v in kernel)
    )


def _read_solution(
    field: Field, reduced: Sequence[Sequence[int]], pivots: Sequence[int], width: int
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The solution with every free variable zero, and the kernel basis, read
    off a consistent reduced [A | b] whose pivots lie among A's `width`
    columns; b is column `width`."""
    particular = [0] * width
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][width]
    pivot_set = set(pivots)
    kernel = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [0] * width
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(reduced[r][free])
        kernel.append(tuple(vec))
    return tuple(particular), kernel
