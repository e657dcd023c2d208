"""Eavesdropper analysis of linear broadcast schemes.

The adversary model: someone who already holds the messages indexed by a
set of strength t, observes every broadcast symbol, and wants information
about a disjoint block of messages. Because the broadcast is linear, the
adversary learns nothing about a block exactly when no codeword vanishes
outside its known set while touching the block; that is a rank condition
on generator columns (has_no_information).

The per-strength verdicts of a report come in closed form from the code's
minimum distance d and dual distance d_dual, which is the production path:
the largest block size hidden from every strength-t adversary is
max(0, d - 1 - t), and every index is recovered exactly from strength
n - d_dual + 1 on (both bounds are tight for linear codes). Two independent
slow routes answer the same questions and serve as cross-checks: the rank
sweep block_security_level, and a brute-force oracle that enumerates every
message vector consistent with the observation and tallies the conditional
distribution of the block (conditional_block_entropy never looks at
ranks). All decisions are made on exact integer counts, never on
floating-point entropy values.

On top of the verdicts sit the constructive results: witnesses that break
weak security one strength past the guarantee, the candidate-list attack
with its exact q^(n-t-k) size, and the full-recovery attack that sets in at
strength n - d_dual + 1. Both attacks read everything from one row
reduction of [G_U | s'], where U is the unknown columns in descending order
and s' = s - G_K x_K is the broadcast with the known messages removed; the
list's columns come with the per-index outcome of their own reduction,
and come in lexicographic order without a sort (list_attack). thm3
checks the order and the two ends of each list, and the text written
from its columns (_candidate_text) against a % format; a brute-force
filter in the tests checks the whole list. The per-index solves of
LinearCode.confined_combination stay as the attack's slow route in the
thm4 suite.

A report counterexample has one definition at every n: the first
strength-t known set, in combinations order, that leaves an index hidden.
Below t = n - k it is {1..t}. The strengths from n - k to the threshold
are found by the known-set scan, one rank query per set, while it fits
SCAN_BUDGET sets, and by one walk of the dual (code._dual_first_hits)
otherwise. Every hidden index, of a prefix, a scanned set or a walked
one, follows by duality from one reduction: the one with nothing known,
whose pivots are the right-greedy basis of the column matroid
(_first_counterexamples). thm1 checks the report's counterexamples, and
the walk's known sets, against a scan that runs the attack's reduction
on every known set (_complete_insecurity_exhaustive), which no report
calls. Every refusal goes through code._guard and names its loop, size
and limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .algebra import (
    DimensionMismatchError,
    FieldMismatchError,
    IndexOutOfRangeError,
    Vector,
    _rank_raw,
    _read_solution,
    _rref_raw,
)
from .code import MAX_SPACE, LinearCode, _dual_first_hits, _guard, iterate_span

# Budgets on known sets: the rank sweep's length, and the scan's reductions.
EXHAUSTIVE_SWEEP_LIMIT = 14
SCAN_BUDGET = 1 << 14


class SecurityError(Exception):
    """Base class for security-analysis failures."""


class InconsistentObservationError(SecurityError):
    """No message vector is consistent with the claimed observation."""


class ListTooLargeError(SecurityError):
    """The candidate list would exceed the enumeration limit."""


class TheoremViolationError(SecurityError):
    """A direct check contradicts a verdict the distance theorems imply;
    this is a bug in the library, never a property of the input."""


class RankDeficientError(SecurityError):
    """The unknown columns do not have full rank k, so the exact list-size
    guarantee lapses (the adversary is stronger than the guarantee covers)."""


@dataclass(frozen=True)
class SecurityQuery:
    """A partition question: known indices X_A, target block B, rest E."""

    n: int
    known: frozenset[int]
    block: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "known", frozenset(self.known))
        object.__setattr__(self, "block", frozenset(self.block))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not self.block:
            raise ValueError("target block must be nonempty")
        for i in self.known | self.block:
            if not (isinstance(i, int) and 1 <= i <= self.n):
                raise ValueError(f"index {i!r} outside [1, {self.n}]")
        if self.known & self.block:
            raise ValueError(f"known and block overlap at {sorted(self.known & self.block)}")

    @property
    def rest(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.known - self.block


@dataclass(frozen=True)
class AdversaryView:
    """Concrete observation: values for the known indices plus the broadcast."""

    known_values: tuple[tuple[int, int], ...]
    broadcast: Vector

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(i), int(v)) for i, v in self.known_values))
        object.__setattr__(self, "known_values", pairs)
        field = self.broadcast.field
        seen = set()
        for i, v in pairs:
            if i < 1:
                raise IndexOutOfRangeError(f"index {i} is not positive")
            if i in seen:
                raise ValueError(f"duplicate known index {i}")
            seen.add(i)
            field.check_value(v)

    @classmethod
    def of(cls, known: Mapping[int, int], broadcast: Vector) -> "AdversaryView":
        return cls(tuple(known.items()), broadcast)

    @property
    def known(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.known_values)

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.known_values)


def has_no_information(code: LinearCode, query: SecurityQuery) -> bool:
    """Whether the adversary learns nothing at all about the block.

    True iff no codeword vanishes on the rest set E while being nonzero
    somewhere on the block, decided algebraically: every generator column
    of the block must already lie in the span of the E columns, i.e.
    rank(G_E) = rank(G_{E u B}).
    """
    if query.n != code.length:
        raise DimensionMismatchError(f"query over n={query.n}, code length {code.length}")
    rest = query.rest
    return code.rank_of_columns(rest) == code.rank_of_columns(rest | query.block)


@dataclass(frozen=True)
class BlockEntropy:
    """Conditional distribution of the block given one observation."""

    bits: float
    uniform: bool
    counts: dict[tuple[int, ...], int]


def conditional_block_entropy(
    code: LinearCode,
    query: SecurityQuery,
    known_values: Mapping[int, int],
    broadcast: Vector,
) -> BlockEntropy:
    """Brute-force oracle for the same question has_no_information answers.

    Counts every message vector that matches the known values and the
    broadcast, tallies the values on the block, and reports the exact count
    table, a uniformity flag (all q^|B| tuples appear equally often), and
    the entropy in bits. Deliberately shares no rank or solve machinery
    with the rank test; it only walks iterate_span, twice.

    Block values b and rest values r are consistent exactly when
    G_B b = target - G_E r, where target is the broadcast minus the known
    columns, so the count for b is the number of r with that residue. One
    walk over the q^|E| rest vectors tallies each residue target - G_E r
    in a dict of at most q^min(|E|, k) keys; one walk over the q^|B| block
    values then looks up G_B b. That is q^|E| + q^|B| steps in place of
    the q^(|E| + |B|) of a walk over every free message. The guard still
    counts the q^(n-t) message vectors the answer covers.
    """
    n, k = code.length, code.dimension
    field = code.field
    q = field.q
    if query.n != n:
        raise DimensionMismatchError(f"query over n={query.n}, code length {code.length}")
    rest = sorted(query.rest)
    block_sorted = sorted(query.block)
    free = len(rest) + len(block_sorted)
    _guard(f"oracle walk of q^(n-t) = {q}^{free} message vectors", q ** free, MAX_SPACE)
    if frozenset(known_values) != query.known:
        raise ValueError("known values must cover exactly the query's known set")
    if broadcast.field != field:
        raise FieldMismatchError("broadcast lives in a different field")
    if len(broadcast) != k:
        raise DimensionMismatchError(f"broadcast has length {len(broadcast)}, expected {k}")

    columns = list(zip(*code.generator.entries))
    sub, mul = field.sub, field.mul

    # The free messages must contribute broadcast minus the known columns.
    target = list(broadcast.entries)
    for i, v in known_values.items():
        field.check_value(v)
        if v:
            col = columns[i - 1]
            for r in range(k):
                if col[r]:
                    target[r] = sub(target[r], mul(v, col[r]))

    # The subtraction sits on the rest walk, which is the shorter one when
    # the block is the larger part of the free messages.
    residues: dict[tuple[int, ...], int] = {}
    for value in iterate_span(field, [columns[j - 1] for j in rest], width=k):
        value = tuple(map(sub, target, value))
        residues[value] = residues.get(value, 0) + 1

    # iterate_span and product both run an odometer, iterate_span with its
    # first coefficient fastest and product with its last, so a reversed
    # product tuple holds the values of the block in ascending index order.
    digits = itertools.product(range(q), repeat=len(block_sorted))
    counts: dict[tuple[int, ...], int] = {}
    for key, value in zip(digits, iterate_span(field, [columns[j - 1] for j in block_sorted])):
        count = residues.get(value)
        if count:
            counts[key[::-1]] = count

    total = sum(counts.values())
    if total == 0:
        raise InconsistentObservationError("no message vector matches the observation")
    space = q ** len(block_sorted)
    uniform = len(counts) == space and len(set(counts.values())) == 1
    bits = math.log2(total) - sum(c * math.log2(c) for c in counts.values()) / total
    return BlockEntropy(bits=bits, uniform=uniform, counts=counts)


def block_security_level(code: LinearCode, strength: int) -> int:
    """Largest b such that every size-b block is fully hidden from every
    adversary of the given strength; 0 when even single messages leak.

    Exhaustive over all (known set, block) pairs, so guarded to n <= 14.
    Block security is monotone (a leaking block stays leaky inside any
    superset), which lets the scan stop at the first failing block size.
    """
    n = code.length
    if not 0 <= strength <= n - 1:
        raise ValueError(f"strength must be in [0, {n - 1}], got {strength}")
    _guard("exhaustive rank sweep over n coordinates", n, EXHAUSTIVE_SWEEP_LIMIT)
    universe = range(1, n + 1)
    full = frozenset(universe)
    for b in range(1, n - strength + 1):
        for known in itertools.combinations(universe, strength):
            known_set = frozenset(known)
            rest_pool = sorted(full - known_set)
            for block in itertools.combinations(rest_pool, b):
                block_set = frozenset(block)
                rest = full - known_set - block_set
                if code.rank_of_columns(rest) != code.rank_of_columns(rest | block_set):
                    return b - 1
    return n - strength


@dataclass(frozen=True)
class WeakSecurityWitness:
    """A strength-t adversary that recovers one message exactly.

    Holding the values at `known`, it computes x_exposed as
    coefficients . s - combination . x_known.
    """

    known: frozenset[int]
    exposed: int
    combination: Vector
    coefficients: Vector


def weak_security_witness(code: LinearCode, strength: int) -> Optional[WeakSecurityWitness]:
    """Constructive break of weak security at the given strength.

    Takes the first codeword of weight strength + 1 in enumeration order,
    normalizes it by its last-support coefficient, and lets the adversary
    know all of the support except that last position. Returns None when no
    codeword of that exact weight exists, which is not a proof of security;
    use block_security_level for verdicts.
    """
    n = code.length
    if not 0 <= strength <= n - 1:
        raise ValueError(f"strength must be in [0, {n - 1}], got {strength}")
    cw = code.first_of_weight.get(strength + 1)
    if cw is None:
        return None
    field = code.field
    support = [j + 1 for j, v in enumerate(cw) if v]
    exposed = support[-1]
    scale = field.inv(cw[exposed - 1])
    normalized = cw if scale == 1 else tuple(field.mul(scale, v) for v in cw)
    # The generator is in reduced row echelon form, so a codeword is the
    # combination of the rows given by its values at the pivot columns.
    # The codeword's entries and their field products are canonical, so
    # the vectors skip the entry checks.
    coefficients = Vector._raw(field, tuple(normalized[p - 1] for p in code.pivot_columns))
    if code.generator.left_times(coefficients).entries != normalized:
        raise TheoremViolationError(f"weight-{strength + 1} witness is not a codeword")
    # normalized is 1 at the exposed index; the combination is the rest.
    combination = list(normalized)
    combination[exposed - 1] = 0
    return WeakSecurityWitness(
        known=frozenset(support[:-1]),
        exposed=exposed,
        combination=Vector._raw(field, tuple(combination)),
        coefficients=coefficients,
    )


def _checked_view(code: LinearCode, view: AdversaryView) -> dict[int, int]:
    known = view.mapping
    n = code.length
    for i in known:
        if not 1 <= i <= n:
            raise IndexOutOfRangeError(f"known index {i} outside [1, {n}]")
    if len(known) >= n:
        raise ValueError("adversary already holds every message")
    if view.broadcast.field != code.field:
        raise FieldMismatchError("broadcast lives in a different field")
    if len(view.broadcast) != code.dimension:
        raise DimensionMismatchError(
            f"broadcast has length {len(view.broadcast)}, expected {code.dimension}"
        )
    return known


def _reduce_unknowns(
    code: LinearCode, known: Mapping[int, int], broadcast: Vector
) -> tuple[list[int], list[list[int]], list[int]]:
    """One row reduction of [G_U | s'] for an adversary's observation.

    U lists the unknown indices in descending order and s' = s - G_K x_K.
    Pivots are taken only on the |U| columns of G_U, so s' rides along as
    the last entry of every reduced row. Returns U, the reduced rows and
    the pivot positions within U (0-based). In reduced echelon form a
    pivot's row is zero on the columns before it, so with U descending
    each pivot index is fixed by the free indices below it.
    """
    field = code.field
    sub, mul = field.sub, field.mul
    unknown = [j for j in range(code.length, 0, -1) if j not in known]
    augmented = []
    for row, value in zip(code.generator.entries, broadcast.entries):
        for i, v in known.items():
            if v and row[i - 1]:
                value = sub(value, mul(row[i - 1], v))
        augmented.append([row[j - 1] for j in unknown] + [value])
    reduced, pivots = _rref_raw(field, augmented, width=len(unknown))
    return unknown, reduced, pivots


def list_attack(code: LinearCode, view: AdversaryView) -> tuple[Vector, ...]:
    """Every message vector consistent with the adversary's observation.

    When the columns outside the known set have full rank k (guaranteed
    whenever the strength is at most d - 1) the list has exactly
    q^(n - t - k) entries and provably contains the real message vector.
    The particular solution, the kernel, the rank and the consistency check
    all come from one reduction of [G_U | s']: the observation is
    consistent exactly when the reduced rows past the rank have a zero
    right-hand side.

    Entries come out in lexicographic order without a sort. U runs in
    descending order, so each pivot value depends only on free values at
    smaller indices; numbering the candidates in base q with the smallest
    free index as the most significant digit therefore numbers them in
    order. The list is built a coordinate column at a time: each kernel
    vector, from the largest free index up, turns every column into q
    shifted copies of itself (_candidate_columns).
    """
    columns, _ = _candidate_columns(code, view)
    field = code.field
    return tuple(Vector._raw(field, w) for w in zip(*columns))


def _candidate_columns(code: LinearCode, view: AdversaryView) -> tuple[list, "AttackOutcome"]:
    """The candidate list as n columns, column j holding coordinate j + 1
    of every candidate in lexicographic order, and the per-index outcome
    read off the same reduction. Columns are bytes for q <= 16, lists
    otherwise; _candidate_text writes them out.

    Column j starts as the particular solution's value z_j. A kernel vector
    v, taken from the largest free index up so that each becomes the next
    more significant digit, replaces the column col by the q blocks
    col + a*v_j for a = 0..q-1 in turn, or by q copies of col where v_j is
    0. For q <= 16 adding a constant c to a packed column is one translate
    through the pair-sum table's entries c, c + 16, ...; larger fields add
    with one comprehension per block.
    """
    known = _checked_view(code, view)
    n, k = code.length, code.dimension
    field = code.field
    q = field.q
    t = len(known)
    unknown, reduced, pivots = _reduce_unknowns(code, known, view.broadcast)
    width = len(unknown)
    rank = len(pivots)
    if any(row[width] for row in reduced[rank:]):
        raise InconsistentObservationError("observation matches no message vector")
    if rank < k:
        raise RankDeficientError(
            f"unknown columns have rank {rank} < k = {k}; adversary strength {t} "
            "exceeds what the exact-size guarantee covers"
        )
    _guard(
        f"candidate list of q^(n-t-k) = {q}^{width - rank} entries",
        q ** (width - rank), MAX_SPACE, error=ListTooLargeError,
    )
    particular, kernel = _read_solution(field, reduced, pivots, width)
    z = [0] * n
    for i, v in known.items():
        z[i - 1] = v
    for j, v in zip(unknown, particular):
        z[j - 1] = v
    mul = field.mul
    pair_sums = field._pair_sums
    if pair_sums is None:
        add = field.add
        columns: list = [[v] for v in z]
    else:
        shifts = [pair_sums[c::16].ljust(256, b"\0") for c in range(q)]
        columns = [bytes((v,)) for v in z]
    # The kernel comes one vector per free column of U, largest free index first.
    for vec in kernel:
        step = [0] * n
        for j, v in zip(unknown, vec):
            step[j - 1] = v
        for j, v in enumerate(step):
            col = columns[j]
            if not v:
                columns[j] = col * q
            elif pair_sums is None:
                grown = []
                for a in range(q):
                    c = mul(a, v)
                    grown += [add(y, c) for y in col]
                columns[j] = grown
            else:
                columns[j] = b"".join([col.translate(shifts[mul(a, v)]) for a in range(q)])
    return columns, _outcome(unknown, reduced, pivots)


def _candidate_text(columns: list, q: int) -> str:
    """The rows of the candidate columns as text: a row's values in
    decimal, joined by commas, one row per line.

    For q <= 256 every value fits a byte, so the text is written column by
    column into one buffer prefilled with commas and newlines: each cell
    is `width` digit bytes and a separator, and each digit place of a
    column is one translate through a table of that digit over 0..q-1,
    written with one stride slice. A value shorter than `width` gets zero
    bytes in its leading places, deleted in one pass. Past q = 256 a value
    does not fit a byte and each row is one % format: a table of the q
    value strings would cost q conversions even for a single candidate.
    """
    n = len(columns)
    if q > 256:
        row_format = ",".join(["%d"] * n) + "\n"
        return "".join([row_format % row for row in zip(*columns)])
    columns = [bytes(col) for col in columns]
    rows = len(columns[0])
    width = len(str(q - 1))
    cell = width + 1
    stride = n * cell
    out = bytearray(b",") * (rows * stride)
    out[stride - 1::stride] = b"\n" * rows
    for d in range(width):
        place = 10 ** (width - 1 - d)
        table = bytes([
            b"0123456789"[v // place % 10] if v >= place or place == 1 else 0
            for v in range(q)
        ]).ljust(256, b"\0")
        for j, col in enumerate(columns):
            out[j * cell + d::stride] = col.translate(table)
    if width > 1:
        out = out.translate(None, b"\0")
    return out.decode("ascii")


@dataclass(frozen=True)
class AttackOutcome:
    """Result of the per-index recovery attack.

    `consistent` is False when no message vector matches the observation;
    which indices are recovered does not depend on the observation, but
    the recovered values are then not meaningful.
    """

    recovered: tuple[tuple[int, int], ...]
    resisted: tuple[int, ...]
    consistent: bool

    @property
    def complete(self) -> bool:
        return not self.resisted

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.recovered)


def complete_insecurity_attack(code: LinearCode, view: AdversaryView) -> AttackOutcome:
    """Recover every message the scheme fails to hide from this adversary.

    Unknown index U[c] is recovered exactly when e_c lies in the row space
    of G_U, that is when some row of the reduced [G_U | s'] equals e_c on
    U; the message value is that row's right-hand side, y . s - (y G)_K .
    x_K for the combination y the reduction applied. One reduction answers
    every index. At strength n - d_dual + 1 and above, every index is
    recovered for every choice of known set.
    """
    return _attack(code, _checked_view(code, view), view.broadcast)


def _attack(code: LinearCode, known: Mapping[int, int], broadcast: Vector) -> AttackOutcome:
    return _outcome(*_reduce_unknowns(code, known, broadcast))


def _outcome(unknown: list[int], reduced: list[list[int]], pivots: list[int]) -> AttackOutcome:
    """The attack read off a reduction of [G_U | s'] with U descending. A
    row equal to e_c on U recovers U[c] whatever the column order, since
    e_c lies in the row space of G_U either way."""
    width = len(unknown)
    values = {
        unknown[c]: row[width]
        for row, c in zip(reduced, pivots)
        if row[:width].count(0) == width - 1
    }
    ascending = unknown[::-1]
    return AttackOutcome(
        recovered=tuple((i, values[i]) for i in ascending if i in values),
        resisted=tuple(i for i in ascending if i not in values),
        consistent=not any(row[width] for row in reduced[len(pivots):]),
    )


@dataclass(frozen=True)
class RecoveryCounterexample:
    """A known set whose recovery attack left some index unrecovered."""

    known: frozenset[int]
    resisted: int


@dataclass(frozen=True)
class StrengthVerdict:
    """Everything the report says about adversaries of one strength."""

    strength: int
    guaranteed_block_level: int
    measured_block_level: int
    weakly_secure: bool
    weak_witness: Optional[WeakSecurityWitness]
    completely_insecure: bool
    complete_counterexample: Optional[RecoveryCounterexample]


@dataclass(frozen=True)
class SecurityReport:
    """Per-strength security ladder of one code, plus its thresholds."""

    length: int
    dimension: int
    min_distance: int
    dual_distance: int
    insecurity_threshold: int
    mode: str
    seed: int
    strengths: tuple[StrengthVerdict, ...]


def _counterexample(code: LinearCode, known: Iterable[int]) -> Optional[RecoveryCounterexample]:
    """The known set with the first index it leaves hidden; None when it
    leaves none. Which indices stay hidden does not depend on the observed
    values, so a zero observation stands in."""
    zero = Vector.zero(code.field, code.dimension)
    hidden = _attack(code, dict.fromkeys(known, 0), zero).resisted
    return RecoveryCounterexample(frozenset(known), hidden[0]) if hidden else None


def _complete_insecurity_exhaustive(
    code: LinearCode, strength: int
) -> Optional[RecoveryCounterexample]:
    """The first strength-t known set, in combinations order, that leaves an
    index hidden, with its first hidden index; None when there is none.
    One attack reduction per known set: thm1's slow reference for the
    report's counterexamples, which no report calls."""
    for known in itertools.combinations(range(1, code.length + 1), strength):
        found = _counterexample(code, known)
        if found is not None:
            return found
    return None


def _right_basis(code: LinearCode) -> frozenset[int]:
    """The right-greedy basis B_R of the column matroid: the pivots of the
    one reduction with nothing known and the columns in descending order.
    Index j is in B_R exactly when column j is not in the span of the
    columns after it."""
    zero = Vector.zero(code.field, code.dimension)
    unknown, _, pivots = _reduce_unknowns(code, {}, zero)
    return frozenset(unknown[p] for p in pivots)


def _first_hidden(known: frozenset[int], right_basis: frozenset[int], n: int) -> Optional[int]:
    """The first index a prefix known set {1..t}, or a known set taken from
    the first t zeros of a dual codeword, leaves hidden; None when the
    closed form finds none (see _first_counterexamples)."""
    t = len(known)
    if max(known, default=0) == t:
        return next((i for i in range(t + 1, n + 1) if i not in right_basis), None)
    return next(i for i in range(1, n + 1) if i not in known)


def _first_counterexamples(
    code: LinearCode, threshold: int
) -> list[Optional[RecoveryCounterexample]]:
    """The report's counterexample at every strength t < threshold: the
    first strength-t known set in combinations order that leaves an index
    hidden, with the first index it hides. An entry is None where the
    closed form below finds no hidden index, and the list stops early at a
    strength where the scan finds no set.

    A known set K leaves an index hidden exactly when the columns outside
    it are dependent, rank(G_(E - K)) < n - t: a dependency among them is a
    dual codeword that vanishes on K (Oxley, ch. 2). Below n - k the first
    such set is {1..t}, since n - t > k >= rank(G_(E - K)). Only
    [n - k, threshold) is searched; it is empty exactly for MDS codes. The
    scan searches it, one rank query per known set, when its sum of
    C(n, t) known sets fits SCAN_BUDGET; every n <= 14 fits. Otherwise one
    walk of the dual (code._dual_first_hits) finds the same sets, and
    guards itself stage by stage.

    Every hidden index is read, by duality, from one reduction: the one
    with nothing known, whose pivots are the right-greedy basis B_R. An
    index i outside K is hidden exactly when some dual codeword h vanishes
    on K and has h_i != 0 (a kernel vector of G_U that moves x_i). The
    dual's words that vanish on {1..j-1} and not at j exist exactly for j
    outside B_R: such an h is a dependency of column j on the columns
    after it. So the pivots of the dual generator in RREF, the first
    nonzero positions of its words, are the complement of B_R.
    - For K = {1..t}, every hidden i > t has such a word, whose first
      nonzero position j, with t < j <= i, is hidden too. So the first
      hidden index is min{i > t : i not in B_R}.
    - Any other first hit K is the first t zeros of a dual word h (see
      _dual_first_hits), whether the scan or the walk found it, and the
      first index f outside K lies before max(K). A zero of h there would
      be among its first t zeros, so h_f != 0, and f = min(E - K) is
      hidden.
    """
    n, k = code.length, code.dimension
    found = [tuple(range(1, t + 1)) for t in range(n - k)]
    searched = range(n - k, threshold)
    if sum(math.comb(n, t) for t in searched) <= SCAN_BUDGET:
        # The columns as rows, ranked without rank_of_columns' cache, which
        # would keep every set the scan tests.
        columns = list(enumerate(zip(*code.generator.entries), 1))
        for t in searched:
            hit = next((
                known for known in itertools.combinations(range(1, n + 1), t)
                if _rank_raw(code.field, [c for j, c in columns if j not in known]) < n - t
            ), None)
            if hit is None:
                break
            found.append(hit)
    else:
        found += _dual_first_hits(code)[n - k:threshold]
    right_basis = _right_basis(code)
    counterexamples = []
    for known in found:
        known = frozenset(known)
        hidden = _first_hidden(known, right_basis, n)
        counterexamples.append(None if hidden is None else RecoveryCounterexample(known, hidden))
    return counterexamples


def security_report(code: LinearCode, *, seed: int = 0) -> SecurityReport:
    """The full security ladder of a code, one verdict per strength.

    Verdicts are exact at every n and follow from (d, d_dual): the
    measured block level at strength t is max(0, d - 1 - t), and complete
    insecurity holds exactly from t = n - d_dual + 1. Below that threshold
    each strength carries a counterexample: the first strength-t known
    set, in combinations order, that leaves an index hidden, with the
    first index it leaves hidden. The mode is a label only: "exhaustive"
    for n <= EXHAUSTIVE_SWEEP_LIMIT, "sampled" beyond. Past one reduction,
    only the searched strengths [n - k, threshold) cost anything
    (_first_counterexamples), and MDS codes have none.
    The seed is recorded but changes no verdict.
    """
    n = code.length
    d = code.min_distance
    dual_distance = code.dual_distance
    threshold = n - dual_distance + 1
    mode = "sampled" if n > EXHAUSTIVE_SWEEP_LIMIT else "exhaustive"
    counterexamples = _first_counterexamples(code, threshold)
    verdicts = []
    for t in range(n):
        level = max(0, d - 1 - t)
        complete = t >= threshold
        counterexample = None
        if not complete:
            counterexample = counterexamples[t] if t < len(counterexamples) else None
            if counterexample is None:
                raise TheoremViolationError(
                    f"strength {t} is below n - d_dual + 1 = {threshold}, "
                    "yet no hidden index was found"
                )
        verdicts.append(
            StrengthVerdict(
                strength=t,
                guaranteed_block_level=level,
                measured_block_level=level,
                weakly_secure=level >= 1,
                weak_witness=weak_security_witness(code, t),
                completely_insecure=complete,
                complete_counterexample=counterexample,
            )
        )
    return SecurityReport(
        length=n,
        dimension=code.dimension,
        min_distance=d,
        dual_distance=dual_distance,
        insecurity_threshold=threshold,
        mode=mode,
        seed=seed,
        strengths=tuple(verdicts),
    )
