"""Independent finite-field arithmetic and linear algebra for output checks.

Shares no code with the package under test, so a fault in its arithmetic,
elimination or enumeration cannot hide by also corrupting the expected
values. Elements use the package's encoding: the base-p digits of an
integer are the polynomial-basis coefficients, lowest degree first.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence


class RefField:
    """GF(p^m) by full addition and multiplication tables (q <= 64 here)."""

    def __init__(self, p: int, poly: Optional[Sequence[int]] = None):
        self.p = p
        self.m = 1 if poly is None else len(poly) - 1
        self.q = q = p ** self.m
        self.poly = None if poly is None else tuple(poly)
        digits = [self._digits(a) for a in range(q)]
        self.add_t = [[self._undigits([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits]
        self.mul_t = [[self._undigits(self._polymul(da, db)) for db in digits] for da in digits]
        self.neg_t = [self.add_t[a].index(0) for a in range(q)]
        self.inv_t = [0] + [self.mul_t[a].index(1) for a in range(1, q)]

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        return sum(d * self.p ** i for i, d in enumerate(ds))

    def _polymul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        if self.poly is not None:
            for i in range(2 * m - 2, m - 1, -1):
                c = prod[i]
                for j in range(m + 1):
                    prod[i - m + j] = (prod[i - m + j] - c * self.poly[j]) % p
        return prod[:m]

    def power(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul_t[out][a]
        return out

    def dot(self, u: Sequence[int], v: Sequence[int]) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self.add_t[acc][self.mul_t[a][b]]
        return acc

    def matvec(self, rows: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
        return [self.dot(row, x) for row in rows]

    def vecmat(self, y: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        out = [0] * (len(rows[0]) if rows else 0)
        for c, row in zip(y, rows):
            for j, v in enumerate(row):
                out[j] = self.add_t[out[j]][self.mul_t[c][v]]
        return out


def rref(f: RefField, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form (zero rows dropped) and 0-based pivots."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        s = f.inv_t[mat[r][c]]
        mat[r] = [f.mul_t[s][v] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                t = f.neg_t[mat[i][c]]
                mat[i] = [f.add_t[a][f.mul_t[t][b]] for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(f: RefField, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(f, rows)[1]) if rows and rows[0] else 0


def nullspace(f: RefField, rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Basis of {x : rows x^T = 0}."""
    red, pivots = rref(f, rows)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = 1
        for r, c in enumerate(pivots):
            x[c] = f.neg_t[red[r][free]]
        basis.append(x)
    return basis


def weight_distribution(f: RefField, basis: Sequence[Sequence[int]], n: int) -> list[int]:
    """Weight counts of the span of `basis`, by plain enumeration."""
    words = [[0] * n]
    for row in basis:
        multiples = [[f.mul_t[c][v] for v in row] for c in range(1, f.q)]
        words += [[f.add_t[a][b] for a, b in zip(w, m)] for m in multiples for w in words]
    counts = [0] * (n + 1)
    for w in words:
        counts[n - w.count(0)] += 1
    return counts


def macwilliams(dist: Sequence[int], q: int) -> list[int]:
    """Weight distribution of the dual code, by the MacWilliams identity
    with Krawtchouk polynomials in exact integer arithmetic."""
    n = len(dist) - 1
    size = sum(dist)
    out = []
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * (q - 1) ** (j - s) * comb(w, s) * comb(n - w, j - s) for s in range(j + 1))
            for w, a in enumerate(dist)
        )
        if total % size:
            raise ArithmeticError("weight distribution is not that of a linear code")
        out.append(total // size)
    return out


def distances(f: RefField, gen: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(d, d_dual) of the code spanned by the independent rows `gen`,
    enumerating whichever of the code and its dual is smaller."""
    k, n = len(gen), len(gen[0])
    if k == n:
        return _least_weight(weight_distribution(f, gen, n)), n + 1
    if k <= n - k:
        dist = weight_distribution(f, gen, n)
        dual = macwilliams(dist, f.q)
    else:
        dual = weight_distribution(f, nullspace(f, gen, n), n)
        dist = macwilliams(dual, f.q)
    return _least_weight(dist), _least_weight(dual)


def _least_weight(dist: Sequence[int]) -> int:
    return next(w for w in range(1, len(dist)) if dist[w])
