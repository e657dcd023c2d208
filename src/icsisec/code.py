"""Linear [n, k] block codes over a finite field.

The weight spectrum, the first codeword of each weight, and the distances
read from them come from the first of three routes that applies, in a
fixed order:

  grs     the GRS test on the generator [I | A], in O(k(n - k)) field
          operations; a pass proves the code MDS, so the spectrum is the
          closed form, and a pruned search in codeword order finds the
          first codeword of each weight
  walk    one walk over the q^k codewords, in q^(k-1) fibers of q words,
          when q^k is within the 2^24 budget; over F2 (_binary_blocks)
          in blocks of 2^12 packed words, each one comprehension of
          XORs whose weights are counted in C
  refuse  otherwise, however small the dual is

The dual distance always comes from the code's spectrum through the
MacWilliams identity, in exact integer arithmetic; the dual code itself
(a nullspace basis) is built only where a dual codeword is needed or
where the transform is cross-checked; its generator is read from
[I | A] and reduced once. The walk of the dual, _dual_first_hits, lives
next to the code's and gives the security report its counterexample
known sets past the known-set scan's budget. It walks one stage per
dual row, the same loop over every field, checks its budget before each
stage, and stops after the first stage that holds a word of weight
d_dual.

Every exponential loop of the package is checked by the one helper
_guard against its budget: MAX_ENUMERATION (2^24) for codewords and
search nodes, MAX_SPACE (2^20) for message vectors, value tuples and
candidates. A refusal names one loop: "<loop>: size <size> exceeds the
limit <limit>".

A LinearCode normalizes whatever spanning rows it is given to the reduced
row echelon basis, so two equal row spaces always produce identical
generator matrices, byte for byte.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import (
    Field,
    IndexOutOfRangeError,
    InconsistentSystemError,
    Matrix,
    Vector,
    _rank_raw,
    _rref_raw,
    solve,
)

MAX_ENUMERATION = 1 << 24
MAX_SPACE = 1 << 20
# The packed F2 walks take the span of this many rows as one list, 2^12 ints.
BLOCK_ROWS = 12


class CodeError(Exception):
    """Base class for code-level failures."""


class TooLargeToEnumerateError(CodeError):
    """An enumeration guard would be exceeded."""


class EmptyInputError(CodeError):
    """No rows were provided to build a code from."""


class ZeroCodeError(CodeError):
    """Every provided row is zero; the span has dimension 0."""


class FieldTooSmallError(CodeError):
    """The field has fewer elements than the construction needs."""


class ZeroDualError(CodeError):
    """A full code [n, n] has only the zero vector in its dual."""


class MacWilliamsError(CodeError):
    """The MacWilliams transform of a weight distribution is not the weight
    distribution of a code: a count is fractional or negative, or the zero
    word is not counted exactly once. The input was not a linear code's."""


def _guard(
    loop: str, size: int, limit: Optional[int] = None, *,
    error: type[Exception] = TooLargeToEnumerateError,
) -> None:
    """The one budget check on an exponential loop: a `loop` of `size`
    steps past `limit`, MAX_ENUMERATION when None, is refused by raising
    `error` with the message "<loop>: size <size> exceeds the limit
    <limit>"."""
    limit = MAX_ENUMERATION if limit is None else limit
    if size > limit:
        raise error(f"{loop}: size {size} exceeds the limit {limit}")


def iterate_span(
    field: Field, rows: Sequence[Sequence[int]], width: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield every vector in the row span exactly once, starting from zero.

    Coefficient tuples run through canonical integer order (an odometer over
    base-q digits), and each step updates the running vector incrementally,
    so the cost per vector is O(n) regardless of q. The rows must be
    linearly independent for the "exactly once" claim. `width` pins the
    vector length when rows may be empty (the span is then just zero).
    """
    k = len(rows)
    if k == 0:
        yield (0,) * (width or 0)
        return
    n = len(rows[0])
    q = field.q
    add, mul, sub = field.add, field.mul, field.sub
    coeffs = [0] * k
    current = [0] * n
    yield tuple(current)
    while True:
        i = 0
        while i < k and coeffs[i] == q - 1:
            delta = sub(0, q - 1)
            row = rows[i]
            for j in range(n):
                if row[j]:
                    current[j] = add(current[j], mul(delta, row[j]))
            coeffs[i] = 0
            i += 1
        if i == k:
            return
        old = coeffs[i]
        coeffs[i] = old + 1
        delta = sub(old + 1, old)
        row = rows[i]
        for j in range(n):
            if row[j]:
                current[j] = add(current[j], mul(delta, row[j]))
        yield tuple(current)


def _pack_bits(row: Sequence[int]) -> int:
    """A binary vector as one int, coordinate 1 as the top bit."""
    return int("".join(map(str, row)), 2)


def _binary_blocks(rows: Sequence[int]) -> Iterator[list[int]]:
    """The span of binary rows packed by _pack_bits, in iterate_span's
    order (each word once when the rows are independent), as consecutive
    lists: word i is the XOR of the rows at the 1 bits of i, row 0 the
    lowest. First the low block, the 2^L words of the first
    L = min(k, BLOCK_ROWS) rows, built by doubling; then, for each further
    word `top` of the span of rows[L:], itself built by doubling, the block
    top ^ w for w in the low block, built only when it is drawn. A block
    is one comprehension, and its weights can be counted in C. No rows
    yields [0]."""
    low = [0]
    for row in rows[:BLOCK_ROWS]:
        low += [w ^ row for w in low]
    yield low
    high = [0]
    for row in rows[BLOCK_ROWS:]:
        added = [top ^ row for top in high]
        for top in added:
            yield [top ^ w for w in low]
        high += added


def _fiber_roots(field: Field, r0: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """(j, root) for each coordinate j with r0[j] != 0, where root[v] =
    -v / r0[j]: the fiber word b + c*r0 vanishes at j exactly for
    c = root[b[j]]."""
    mul, neg = field.mul, field.neg
    roots = []
    for j, r in enumerate(r0):
        if r:
            scale = field.inv(r)
            roots.append((j, tuple(mul(neg(v), scale) for v in range(field.q))))
    return roots


def _walk_spectrum(
    field: Field, rows: Sequence[Sequence[int]], n: int
) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """The weight distribution of the span of independent `rows`, and the
    first word of each nonzero weight in iterate_span order, from one walk.

    The walk runs over q^(k-1) fibers of q words: b + c*r0 for c = 0..q-1,
    where r0 is rows[0] and b walks span(rows[1:]). Row 0 is the lowest
    odometer digit of iterate_span, so each fiber is q consecutive words of
    its order. A coordinate with r0[j] != 0 vanishes for exactly one c,
    -b[j]/r0[j]; `zeros[c]` counts them, and wt(b + c*r0) = wt(b) +
    zeros[0] - zeros[c]. A word is built only where its weight first
    appears.
    """
    q = field.q
    counts = [0] * (n + 1)
    firsts: dict[int, tuple[int, ...]] = {}
    if q == 2:
        # Over F2 the words come as _pack_bits ints in blocks, whose
        # weights are counted in C; a weight new to the walk takes the
        # block's first word of that weight, in the order they occur.
        for block in _binary_blocks([_pack_bits(row) for row in rows]):
            if n < 256:
                weights = bytes(map(int.bit_count, block))
                tally = [(w, weights.count(w)) for w in range(n + 1)]
            else:
                weights = list(map(int.bit_count, block))
                tally = Counter(weights).items()
            new = sorted((weights.index(w), w) for w, c in tally if c and w and not counts[w])
            for i, w in new:
                firsts[w] = tuple(map(int, f"{block[i]:0{n}b}"))
            for w, c in tally:
                counts[w] += c
        return tuple(counts), firsts
    r0 = rows[0]
    add, mul = field.add, field.mul
    roots = _fiber_roots(field, r0)
    for b in iterate_span(field, rows[1:], n):
        zeros = [0] * q
        for j, root in roots:
            zeros[root[b[j]]] += 1
        base = n - b.count(0) + zeros[0]
        for c in range(q):
            w = base - zeros[c]
            if not counts[w] and w:
                firsts[w] = tuple(add(b[j], mul(c, r0[j])) for j in range(n))
            counts[w] += 1
    return tuple(counts), firsts


def _dual_first_hits(code: LinearCode) -> list[tuple[int, ...]]:
    """The scan's first hit at every strength t <= n - d_dual, from one walk
    of the dual, stopped early; entry t is the known set, ascending.

    A known set K leaves an index hidden exactly when it lies inside the
    zero set of some nonzero dual codeword h (Oxley, Matroid Theory,
    ch. 2), and the first t-subset of a zero set in combinations order is
    its first t indices. Written as a bitmask with index 1 as the top bit,
    a larger zero set has an earlier (or equal) t-prefix, so the first hit
    at strength t is the top t bits of the largest mask with at least t
    zeros. The walk keeps the largest mask per zero count.

    The dual rows are taken in reversed RREF order, S_0 the last row, so
    in iterate_span's order the words q^m .. q^(m+1) - 1, stage m, are
    those with a nonzero coefficient on S_m and none on a later S: their
    first nonzero position is the pivot p_m of S_m, and p_0 > p_1 > ....
    A word of stage m and one of a later stage m' are both zero before
    p_m', where the later one is nonzero and the stage-m one is zero; so
    every mask of stage m exceeds every mask of a later stage. Once a
    stage is complete, each t answered so far has its final answer, and
    every t <= n - d_dual is answered once a word of weight d_dual has
    come. The walk stops after the first complete stage that holds one,
    d_dual read from code.dual_distance. It guards itself before each
    stage m >= 1, counting the q^(m+1) words through that stage's end
    against MAX_ENUMERATION, so it never walks more than 2^24 words,
    however many the dual has, and a refusal names the stage.

    Over F2 a dual word packs into the same layout, so its zero mask is
    the complement and the largest mask is the smallest word. The words
    come from _binary_blocks: stage m is the slice 2^m .. 2^(m+1) - 1 of
    the low block for m < L = min(n - k, BLOCK_ROWS), and the next
    2^(m-L) blocks for m >= L. Each list gives only its frontier: its
    smallest word, then the smallest of lower weight, and so on. Over
    larger fields the walk runs over fibers b + c*S_0 as _walk_spectrum
    does, b walking the span of S_1..: stage 0 is the fiber of b = 0, and
    stage m >= 1 the next (q - 1) q^(m-1) fibers.
    """
    n = code.length
    field = code.field
    q = field.q
    rows = code.dual.generator.entries[::-1]
    stop = n - code.dual_distance
    best = [-1] * (n + 1)
    loop = f"walk of q^(n-k) = {q}^{len(rows)} dual codewords, through stage"
    if q == 2:
        full = (1 << n) - 1
        blocks = _binary_blocks([_pack_bits(row) for row in rows])
        low = next(blocks)
        size = min(len(rows), BLOCK_ROWS)
    else:
        h0 = rows[0]
        roots = [(j, root, 1 << (n - 1 - j)) for j, root in _fiber_roots(field, h0)]
        fixed = [(j, 1 << (n - 1 - j)) for j in range(n) if not h0[j]]
        fibers = iterate_span(field, rows[1:], n)
    for stage in range(len(rows)):
        if stage:
            _guard(f"{loop} {stage}", q ** (stage + 1))
        if q == 2:
            if stage < size:
                lists = [low[1 << stage:2 << stage]]
            else:
                lists = itertools.islice(blocks, 1 << (stage - size))
            for words in lists:
                while words:
                    word = min(words)
                    w = word.bit_count()
                    mask = full ^ word
                    if mask > best[n - w]:
                        best[n - w] = mask
                    words = [x for x in words if x.bit_count() < w]
        else:
            for b in itertools.islice(fibers, (q - 1) * q ** (stage - 1) if stage else 1):
                masks = [sum(bit for j, bit in fixed if not b[j])] * q
                for j, root, bit in roots:
                    masks[root[b[j]]] |= bit
                for mask in masks:
                    zeros = mask.bit_count()
                    if mask > best[zeros]:
                        best[zeros] = mask
        if best[stop] >= 0:
            break
    # best[n] can only be the zero word's; a suffix maximum over the rest
    # gives each t.
    hits = []
    largest = -1
    for t in range(n - 1, -1, -1):
        largest = max(largest, best[t])
        if largest >= 0:
            zero_set = [j + 1 for j in range(n) if largest >> (n - 1 - j) & 1]
            hits.append(tuple(zero_set[:t]))
    hits.reverse()
    return hits


def _first_of_each_weight(
    field: Field, rows: Sequence[Sequence[int]], n: int, weights: Iterable[int]
) -> dict[int, tuple[int, ...]]:
    """The first word of each of the nonzero `weights` in the span of
    independent `rows`, in iterate_span order, by a pruned depth-first
    search (Knuth, TAOCP 7.2.2). A weight that occurs in no word is absent
    from the result, after a search of every subtree that could hold it.

    The search fixes coefficient digits from the most significant, row
    k-1, down, so it meets words in iterate_span order. With digits
    j..k-1 fixed, every word below the node agrees with the fixed part P
    outside L_j, the union of the supports of rows 0..j-1, so its weight
    lies in [f, f + |L_j|] for f = wt(P outside L_j). A subtree with no
    missing weight in that range is skipped; it holds no first word, so
    each first word found is the walk's. A child's f is the parent's plus
    its weight on the positions row j-1 adds to L_(j-1), counted through
    that row's root tables as in _walk_spectrum, and the last level is
    one such fiber of row 0. Nodes count against MAX_ENUMERATION.
    """
    # missing holds a bit per weight still to find; spans[j] has the
    # |L_j| + 1 low bits set, so missing >> f & spans[j] tests the range.
    missing = 0
    for w in weights:
        missing |= 1 << w
    missing &= ~1
    firsts: dict[int, tuple[int, ...]] = {}
    k, q = len(rows), field.q
    add, mul = field.add, field.mul
    # fresh[j] = (position, root table) for the positions row j-1 adds to
    # L_(j-1); only those need a table.
    fresh: list[list[tuple[int, tuple[int, ...]]]] = [[]]
    spans = [1]
    covered: set[int] = set()
    for row in rows:
        fresh.append(_fiber_roots(field, [0 if x in covered else v for x, v in enumerate(row)]))
        covered.update(x for x, _ in fresh[-1])
        spans.append((2 << len(covered)) - 1)
    supports = [tuple(x for x in range(n) if row[x]) for row in rows]
    nodes = 0
    # A node at level j is its parent's word and the digit c of row j; the
    # word, parent + c*row_j, is formed only once the node is visited.
    stack: list[tuple[int, list[int], int, int]] = [(k, [0] * n, 0, 0)]
    while stack and missing:
        j, word, c, f = stack.pop()
        # Tested again on visiting: missing may have shrunk since the push.
        if not missing >> f & spans[j]:
            continue
        if c:
            word = word[:]
            row = rows[j]
            for x in supports[j]:
                word[x] = add(word[x], mul(c, row[x]))
        nodes += q
        if nodes > MAX_ENUMERATION:
            _guard("first-of-weight search, in nodes visited", nodes)
        zeros = [0] * q
        for x, root in fresh[j]:
            zeros[root[word[x]]] += 1
        base = f + len(fresh[j])
        if j == 1:
            row = rows[0]
            for c in range(q):
                w = base - zeros[c]
                if missing >> w & 1:
                    missing ^= 1 << w
                    firsts[w] = tuple(add(word[x], mul(c, row[x])) for x in range(n))
            continue
        span = spans[j - 1]
        for c in range(q - 1, -1, -1):
            fc = base - zeros[c]
            if missing >> fc & span:
                stack.append((j - 1, word, c, fc))
    return firsts


def _independent_points(field: Field, points: Iterable[tuple[int, int]]) -> bool:
    """Whether nonzero points of F_q^2 are pairwise independent: no two
    scale to the same (1, y), or both to (0, 1)."""
    mul, inv = field.mul, field.inv
    slopes = [mul(y, inv(x)) if x else -1 for x, y in points]
    return len(set(slopes)) == len(slopes)


def _mds_distribution(n: int, k: int, q: int) -> tuple[int, ...]:
    """The weight distribution of any [n, k] MDS code over F_q, d = n - k + 1:
    A_w = C(n, w) sum_{j=0}^{w-d} (-1)^j C(w, j) (q^(w-d+1-j) - 1) for
    w >= d (MacWilliams & Sloane, ch. 11, Theorem 6)."""
    d = n - k + 1
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        counts[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return tuple(counts)


class LinearCode:
    """A linear code with a canonical (reduced row echelon) generator matrix."""

    def __init__(self, generator: Matrix):
        rows, pivots = _rref_raw(generator.field, generator.entries)
        if not pivots:
            raise ZeroCodeError("all rows are zero")
        self.field = generator.field
        self.generator = Matrix._raw(self.field, tuple(tuple(rows[i]) for i in range(len(pivots))))
        self.pivot_columns = tuple(c + 1 for c in pivots)
        self._rank_cache: dict[frozenset[int], int] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "LinearCode":
        if not rows:
            raise EmptyInputError("need at least one row")
        return cls(Matrix.from_rows(rows))

    @property
    def length(self) -> int:
        return self.generator.ncols

    @property
    def dimension(self) -> int:
        return self.generator.nrows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.generator.entries == other.generator.entries

    def __hash__(self) -> int:
        return hash((self.field, self.generator.entries))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.length}, k={self.dimension}, q={self.field.q})"

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """All q^k codewords as raw entry tuples, in deterministic order."""
        q, k = self.field.q, self.dimension
        _guard(f"enumeration of q^k = {q}^{k} codewords", q ** k)
        return iterate_span(self.field, self.generator.entries)

    def _free_block(self) -> list[list[int]]:
        """A, the generator's block outside its pivot columns: up to the
        order of its columns, the generator is [I | A]."""
        free = [j for j in range(self.length) if j + 1 not in self.pivot_columns]
        return [[row[j] for j in free] for row in self.generator.entries]

    def _mds_prefilter(self) -> bool:
        """Whether A has no zero entry, in O(nk). Every MDS code passes: a
        k-column set made of a zero entry's column and the other k - 1
        pivot columns has rank k - 1."""
        return all(map(all, self._free_block()))

    def _grs_certified(self) -> bool:
        """Whether [I | A] passes a test, in O(k(n - k)) field operations,
        that proves the code MDS (Roth & Seroussi, IEEE T-IT 31(6), 1985):
        A has no zero entry and, for k, n - k >= 2, its entrywise inverse B
        has rank 2 with pairwise independent points U_i = (B_i[p1],
        B_i[p2]), at the pivots of B's reduced form, and V_j = (R1[j],
        R2[j]), from its two rows. Then B = U V^T and A = 1/(U V^T) is a
        Cauchy matrix, whose square submatrices are all nonsingular
        (MacWilliams & Sloane, ch. 11). Every generalized Reed-Solomon code
        passes; a failure proves nothing."""
        if not self._mds_prefilter():
            return False
        k = self.dimension
        if k == 1 or self.length - k <= 1:
            return True
        field = self.field
        inverse = [list(map(field.inv, row)) for row in self._free_block()]
        rows, pivots = _rref_raw(field, inverse)
        if len(pivots) != 2:
            return False
        p1, p2 = pivots
        points = [(b[p1], b[p2]) for b in inverse]
        return _independent_points(field, points) and _independent_points(field, zip(*rows[:2]))

    @cached_property
    def _spectrum(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        # The weight distribution and the first codeword of each weight:
        # the MDS closed form and the pruned search, else the walk.
        field, n, k = self.field, self.length, self.dimension
        q = field.q
        rows = self.generator.entries
        if self._grs_certified():
            counts = _mds_distribution(n, k, q)
            weights = [w for w in range(1, n + 1) if counts[w]]
            return counts, _first_of_each_weight(field, rows, n, weights)
        _guard(f"walk of q^k = {q}^{k} codewords, for a generator that fails the GRS test", q ** k)
        return _walk_spectrum(field, rows, n)

    @property
    def weight_distribution(self) -> tuple[int, ...]:
        """counts[w] = number of codewords of Hamming weight w, w = 0..n."""
        return self._spectrum[0]

    @property
    def first_of_weight(self) -> dict[int, tuple[int, ...]]:
        """The first codeword of each nonzero weight present, in codewords() order."""
        return self._spectrum[1]

    @cached_property
    def min_distance(self) -> int:
        """Minimum weight of a nonzero codeword (equals minimum distance)."""
        wd = self.weight_distribution
        for w in range(1, self.length + 1):
            if wd[w]:
                return w
        raise ZeroCodeError("no nonzero codeword found")

    @cached_property
    def dual(self) -> "LinearCode":
        """The [n, n-k] dual code; undefined (zero) when k = n."""
        if self.dimension == self.length:
            raise ZeroDualError("dual of a full [n, n] code is the zero code")
        # The generator is [I | A] up to column order, pivot p_i in row i:
        # each non-pivot column f gives the dual word e_f - sum_i A[i][f] e_(p_i).
        n, neg = self.length, self.field.neg
        pivots = [p - 1 for p in self.pivot_columns]
        rows = []
        for f in range(n):
            if f + 1 not in self.pivot_columns:
                row = [0] * n
                row[f] = 1
                for p, g in zip(pivots, self.generator.entries):
                    row[p] = neg(g[f])
                rows.append(tuple(row))
        return LinearCode(Matrix._raw(self.field, tuple(rows)))

    @cached_property
    def dual_distance(self) -> int:
        """Minimum distance of the dual; n + 1 by convention when k = n.

        The dual's weight distribution is the MacWilliams transform of the
        code's (cached) one: the GRS test's closed form, else the walk. So
        this is refused only where the spectrum is, however small the dual
        is: when the generator fails the GRS test and q^k exceeds 2^24.
        """
        n, k = self.length, self.dimension
        if k == n:
            return n + 1
        dual_counts = _macwilliams(self.weight_distribution, self.field.q, k)
        return next(w for w in range(1, n + 1) if dual_counts[w])

    @property
    def is_mds(self) -> bool:
        """Whether the Singleton bound d <= n - k + 1 is met with equality."""
        return self.min_distance == self.length - self.dimension + 1

    def rank_of_columns(self, positions: Iterable[int]) -> int:
        """Rank of the generator submatrix on the given 1-based columns.

        Memoized per column set for queries repeated across calls on one
        code: lemma3's has_no_information queries (15,062 over 5,897 sets
        at seed 0) and the spanning sweep at successive strengths.
        """
        key = frozenset(positions)
        cached = self._rank_cache.get(key)
        if cached is not None:
            return cached
        for j in key:
            if not 1 <= j <= self.length:
                raise IndexOutOfRangeError(f"column {j} outside [1, {self.length}]")
        if not key:
            rank = 0
        else:
            cols = sorted(key)
            rank = _rank_raw(
                self.field,
                [[row[j - 1] for j in cols] for row in self.generator.entries],
            )
        self._rank_cache[key] = rank
        return rank

    def confined_combination(
        self, allowed: Iterable[int], position: int
    ) -> Optional[tuple[Vector, Vector]]:
        """A codeword pinned to 1 at `position` and supported inside `allowed`.

        Returns (y, c) with c = y G, c at `position` equal to 1, and every
        other nonzero coordinate of c inside the allowed set; None when no
        such codeword exists. Decided by one linear solve, no enumeration.
        """
        n, k = self.length, self.dimension
        if not 1 <= position <= n:
            raise IndexOutOfRangeError(f"position {position} outside [1, {n}]")
        allowed_set = set(allowed) - {position}
        for j in allowed_set:
            if not 1 <= j <= n:
                raise IndexOutOfRangeError(f"position {j} outside [1, {n}]")
        gen = self.generator.entries
        constraint_cols = [j for j in range(1, n + 1) if j != position and j not in allowed_set]
        constraint_cols.append(position)
        a_rows = tuple(tuple(gen[r][j - 1] for r in range(k)) for j in constraint_cols)
        rhs = Vector._raw(self.field, (0,) * (len(constraint_cols) - 1) + (1,))
        try:
            solution = solve(Matrix._raw(self.field, a_rows), rhs)
        except InconsistentSystemError:
            return None
        y = solution.particular
        return y, self.generator.left_times(y)


def oa_tuple_counts(code: LinearCode, positions: Iterable[int]) -> dict[tuple[int, ...], int]:
    """How often each value tuple appears at the given columns of the code.

    Counts over all q^k codewords, keyed by the values at the requested
    1-based columns in ascending order; tuples that never appear are
    present with count 0.
    """
    cols = sorted(set(positions))
    if not cols:
        raise ValueError("need at least one column position")
    for j in cols:
        if not 1 <= j <= code.length:
            raise IndexOutOfRangeError(f"column {j} outside [1, {code.length}]")
    q = code.field.q
    _guard(f"table of q^r = {q}^{len(cols)} value tuples", q ** len(cols), MAX_SPACE)
    counts: dict[tuple[int, ...], int] = dict.fromkeys(
        itertools.product(range(q), repeat=len(cols)), 0
    )
    tally = Counter(map(itemgetter(*(j - 1 for j in cols)), code.codewords()))
    if len(cols) == 1:
        # itemgetter with one index returns the bare value, not a 1-tuple.
        tally = {(v,): c for v, c in tally.items()}
    counts.update(tally)
    return counts


def _macwilliams(distribution: Sequence[int], q: int, dimension: int) -> tuple[int, ...]:
    """The dual's weight distribution from the code's, by the MacWilliams identity.

    For a linear [n, k] code over F_q with A_i codewords of weight i, the
    dual has B_j = (1/q^k) * sum_i A_i K_j(i) codewords of weight j, where
    the Krawtchouk value K_j(i) is the coefficient of z^j in
    (1 + (q-1)z)^(n-i) (1 - z)^i (MacWilliams & Sloane, ch. 5). Row i + 1
    of that table is row i times (1 - z) / (1 + (q-1)z), one exact pass.
    Everything is exact integer arithmetic; a remainder in the division, a
    negative count or B_0 != 1 means `distribution` was not a linear
    [n, k] code's and raises.
    """
    n = len(distribution) - 1
    size = q ** dimension
    totals = [0] * (n + 1)
    krawtchouk = [comb(n, j) * (q - 1) ** j for j in range(n + 1)]
    for i, a in enumerate(distribution):
        if a:
            for j, value in enumerate(krawtchouk):
                totals[j] += a * value
        # Times (1 - z), then divided by (1 + (q-1)z), which divides it
        # while i < n: c_j = (k_j - k_(j-1)) - (q-1) c_(j-1).
        previous = c = 0
        for j, value in enumerate(krawtchouk):
            c = value - previous - (q - 1) * c
            previous = value
            krawtchouk[j] = c
    dual = []
    for j, total in enumerate(totals):
        count, remainder = divmod(total, size)
        if remainder or count < 0:
            raise MacWilliamsError(
                f"weight {j} of the transform is {total}/{size}, not a codeword count"
            )
        dual.append(count)
    if dual[0] != 1:
        raise MacWilliamsError(f"the transform counts {dual[0]} zero words, not 1")
    return tuple(dual)


def reed_solomon_code(length: int, dimension: int, field: Field) -> LinearCode:
    """Systematic MDS code from polynomial evaluation.

    Row i of the raw generator evaluates the monomial X^i at the first
    `length` field elements in canonical integer order; normalization to
    the reduced row echelon basis then yields the systematic form, since
    any k columns of the evaluation matrix are independent. The result has
    d = n - k + 1 and dual distance k + 1.
    """
    if not 1 <= dimension <= length:
        raise ValueError(f"need 1 <= k <= n, got k={dimension}, n={length}")
    if field.q < length:
        raise FieldTooSmallError(
            f"need q >= n distinct evaluation points, got q={field.q} < n={length}"
        )
    points = range(length)
    rows = [
        Vector(field, tuple(field.power(a, i) for a in points))
        for i in range(dimension)
    ]
    return LinearCode.from_rows(rows)
