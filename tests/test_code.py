"""Linear-code layer tests.

The distance and confined-combination expectations are checked against
in-test brute-force oracles that only use raw field arithmetic, never the
code object's own search paths.
"""

import itertools
import random
from collections import Counter
from functools import reduce
from math import comb
from operator import xor

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import icsisec.code as code_module
from icsisec.algebra import Field, Matrix, Vector
from icsisec.code import (
    EmptyInputError,
    FieldTooSmallError,
    LinearCode,
    MAX_SPACE,
    MacWilliamsError,
    TooLargeToEnumerateError,
    ZeroCodeError,
    _dual_first_hits,
    _macwilliams,
    iterate_span,
    oa_tuple_counts,
    reed_solomon_code,
)
from icsisec.rng import Rng
from icsisec.security import security_report
from icsisec.verify import _certified_mds

F2 = Field(2)
F3 = Field(3)
F8 = Field(2, 3)

HAMMING_ROWS = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)


def hamming():
    return LinearCode(Matrix(F2, HAMMING_ROWS))


def random_f7_20_10():
    """A seeded [20, 10] code over F7 in systematic form."""
    rng = random.Random(20)
    return LinearCode(Matrix(Field(7), tuple(
        tuple(int(i == j) for j in range(10)) + tuple(rng.randrange(7) for _ in range(10))
        for i in range(10)
    )))


def brute_span(field, rows):
    """All row combinations, computed directly from coefficient tuples."""
    n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for j in range(n):
                v[j] = field.add(v[j], field.mul(c, row[j]))
        out.add(tuple(v))
    return out


class TestIterateSpan:
    def test_matches_brute_force(self):
        rows = ((1, 2, 0, 1), (0, 1, 1, 2))
        spanned = list(iterate_span(F3, rows))
        assert spanned[0] == (0, 0, 0, 0)
        assert len(spanned) == 9
        assert set(spanned) == brute_span(F3, rows)

    def test_empty_rows_yield_single_zero(self):
        assert list(iterate_span(F3, [], width=4)) == [(0, 0, 0, 0)]
        assert list(iterate_span(F3, [])) == [()]

    def test_extension_field(self):
        rows = ((1, 5), (0, 3))
        spanned = set(iterate_span(F8, rows))
        assert spanned == brute_span(F8, rows)
        assert len(spanned) == 64


class TestLinearCode:
    def test_normalizes_to_rref(self):
        dependent = Matrix(F2, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        code = LinearCode(dependent)
        assert code.dimension == 2
        assert code.generator.entries == ((1, 0, 1), (0, 1, 1))
        assert code.pivot_columns == (1, 2)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ZeroCodeError):
            LinearCode(Matrix(F2, ((0, 0), (0, 0))))
        with pytest.raises(EmptyInputError):
            LinearCode.from_rows([])

    def test_equality_ignores_row_presentation(self):
        a = LinearCode(Matrix(F2, ((1, 1, 0), (0, 1, 1))))
        b = LinearCode(Matrix(F2, ((1, 0, 1), (0, 1, 1))))
        assert a == b
        assert hash(a) == hash(b)

    def test_hamming_parameters(self):
        code = hamming()
        assert (code.length, code.dimension) == (7, 4)
        assert code.weight_distribution == (1, 0, 0, 7, 7, 0, 0, 1)
        assert code.min_distance == 3
        assert code.dual_distance == 4
        assert not code.is_mds

    def test_hamming_dual_is_simplex(self):
        dual = hamming().dual
        assert (dual.length, dual.dimension) == (7, 3)
        assert dual.weight_distribution == (1, 0, 0, 0, 7, 0, 0, 0)

    def test_repetition_parameters(self):
        code = LinearCode.from_rows([Vector(F2, (1, 1, 1))])
        assert code.weight_distribution == (1, 0, 0, 1)
        assert code.min_distance == 3
        assert code.dual_distance == 2

    def test_full_code_dual_convention(self):
        code = LinearCode(Matrix(F2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        assert code.min_distance == 1
        assert code.dual_distance == 4

    def test_zero_column_gives_dual_distance_one(self):
        code = LinearCode(Matrix(F2, ((1, 0),)))
        assert code.dual_distance == 1

    def test_codewords_enumeration_matches_brute_force(self):
        rows = ((1, 0, 2), (0, 1, 1))
        code = LinearCode(Matrix(F3, rows))
        assert set(code.codewords()) == brute_span(F3, rows)

    def test_enumeration_guard(self):
        # A [20, 10] code over F7 is not MDS (k >= q forces n <= k + 1 for
        # an MDS code), and its code and dual both hold 7^10 > 2^24 words,
        # so every route to the spectrum is refused.
        code = random_f7_20_10()
        with pytest.raises(TooLargeToEnumerateError, match=r"q\^k = 7\^10 codewords"):
            code.min_distance

    def test_small_dual_does_not_lift_the_guard(self):
        # A seeded [16, 10] code over F7: its dual has only 7^6 words, but
        # the code's 7^10 exceed the budget and it fails the GRS test, so
        # the spectrum, and both distances read from it, are refused.
        rng = random.Random(16)
        code = LinearCode(Matrix(Field(7), tuple(
            tuple(int(i == j) for j in range(10)) + tuple(rng.randrange(7) for _ in range(6))
            for i in range(10)
        )))
        assert not code._grs_certified()
        with pytest.raises(TooLargeToEnumerateError, match=r"q\^k = 7\^10 codewords"):
            code.dual_distance


def _rank_oracle(gen, cols):
    from icsisec.algebra import _rref_raw

    if not cols:
        return 0
    return len(_rref_raw(gen.field, [[row[c - 1] for c in cols] for row in gen.entries])[1])


class TestRankOfColumns:
    def test_matches_fresh_rref(self):
        code = hamming()
        gen = code.generator
        for size in range(0, 5):
            for cols in itertools.combinations(range(1, 8), size):
                assert code.rank_of_columns(cols) == _rank_oracle(gen, cols)

    def test_memoization_returns_consistent_values(self):
        code = hamming()
        first = code.rank_of_columns({1, 2, 3})
        assert code.rank_of_columns(frozenset({3, 2, 1})) == first


class TestConfinedCombination:
    def brute(self, code, allowed, position):
        allowed = set(allowed) | {position}
        for cw in code.codewords():
            if cw[position - 1] == 1 and all(
                j + 1 in allowed for j, v in enumerate(cw) if v
            ):
                return True
        return False

    @pytest.mark.parametrize(
        "code",
        [
            hamming(),
            LinearCode.from_rows([Vector(F2, (1, 1, 1))]),
            LinearCode(Matrix(F3, ((1, 0, 2, 1), (0, 1, 1, 1)))),
        ],
        ids=["hamming", "repetition", "f3"],
    )
    def test_agrees_with_brute_force_everywhere(self, code):
        n = code.length
        gen = code.generator
        for position in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != position]
            for size in range(0, n):
                for allowed in itertools.combinations(others, size):
                    found = code.confined_combination(allowed, position)
                    assert (found is not None) == self.brute(code, allowed, position)
                    if found is not None:
                        y, c = found
                        assert gen.left_times(y) == c
                        assert c.at(position) == 1
                        assert c.support() <= frozenset(allowed) | {position}

    def test_normalizes_leading_coefficient(self):
        code = LinearCode(Matrix(F3, ((2, 1),)))
        found = code.confined_combination({2}, 1)
        assert found is not None
        _, c = found
        assert c.at(1) == 1


def plain_spectrum(code):
    """(counts, firsts) from a walk over every codeword, built from its
    coefficient tuple with raw field arithmetic. Coefficient i is base-q
    digit i of the walk index, row 0 the least significant, which is
    codewords() order."""
    field = code.field
    rows = code.generator.entries
    n = code.length
    counts = [0] * (n + 1)
    firsts = {}
    for digits in itertools.product(range(field.q), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(reversed(digits), rows):
            for j in range(n):
                word[j] = field.add(word[j], field.mul(c, row[j]))
        w = sum(1 for v in word if v)
        if w and not counts[w]:
            firsts[w] = tuple(word)
        counts[w] += 1
    return tuple(counts), firsts


SPECTRUM_FIELDS = (F2, F3, Field(2, 2), Field(5), F8, Field(3, 2))
SPECTRUM_WORDS = 2048


@st.composite
def small_codes(draw, fields=SPECTRUM_FIELDS):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 7))
    k_max = max(k for k in range(1, n + 1) if field.q ** k <= SPECTRUM_WORDS)
    k = draw(st.integers(1, k_max))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, field.q - 1)] * n), min_size=k, max_size=k,
    ))
    assume(any(any(row) for row in rows))
    return LinearCode(Matrix(field, tuple(rows)))


class TestFiberSpectrum:
    """The fiber walk behind weight_distribution and first_of_weight against
    a plain walk over every codeword: equal counts, equal first codewords,
    and the same dict order."""

    def check(self, code):
        counts, firsts = plain_spectrum(code)
        assert code.weight_distribution == counts
        assert list(code.first_of_weight.items()) == list(firsts.items())

    @settings(deadline=None, derandomize=True, max_examples=120)
    @given(small_codes())
    def test_random_codes(self, code):
        self.check(code)

    @pytest.mark.parametrize(
        "field,rows",
        [
            (F3, ((1, 2, 0, 1),)),
            (F8, ((3, 0, 5, 7, 0),)),
            (Field(3, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            (Field(5), ((1, 0, 0, 4, 0, 2, 0), (0, 1, 0, 0, 3, 0, 0), (0, 0, 1, 1, 1, 1, 1))),
            (Field(2, 2), ((1, 0, 0, 0, 2, 0), (0, 1, 0, 3, 0, 1), (0, 0, 1, 1, 1, 0))),
        ],
        ids=["k1-F3", "k1-GF8-zeros", "k=n-GF9", "dead-coordinates-F5", "dead-coordinates-GF4"],
    )
    def test_edge_codes(self, field, rows):
        code = LinearCode(Matrix(field, rows))
        assert code.dimension == len(rows)
        self.check(code)


def walked_firsts(code):
    """The first codeword of each nonzero weight, from a plain walk over
    codewords()."""
    n = code.length
    firsts = {}
    for word in code.codewords():
        w = n - word.count(0)
        if w and w not in firsts:
            firsts[w] = word
    return firsts


class TestFirstOfWeightSearch:
    """The pruned search behind first_of_weight on the certificate route,
    against a plain walk over codewords()."""

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(small_codes((F2, F3, Field(2, 2), Field(7), F8)))
    def test_random_codes(self, code):
        n = code.length
        firsts = walked_firsts(code)
        rows = code.generator.entries
        searched = code_module._first_of_each_weight(code.field, rows, n, firsts)
        assert list(searched.items()) == list(firsts.items())
        # Weights that occur in no codeword are searched for and left out.
        everything = code_module._first_of_each_weight(code.field, rows, n, range(1, n + 1))
        assert list(everything.items()) == list(firsts.items())

    @pytest.mark.parametrize("n,k,field", [
        (8, 4, Field(2, 4)), (10, 5, Field(2, 4)), (13, 7, Field(13)),
    ], ids=["rs8_4_gf16", "rs10_5_gf16", "rs13_7_f13"])
    def test_reed_solomon_codes_need_no_walk(self, n, k, field, monkeypatch):
        code = reed_solomon_code(n, k, field)
        assert code._grs_certified()
        monkeypatch.setattr(code_module, "_walk_spectrum", None)
        assert list(code.first_of_weight) == list(range(n - k + 1, n + 1))
        for w, word in code.first_of_weight.items():
            assert n - word.count(0) == w
            # The word is the combination its pivot values give.
            coefficients = Vector(field, tuple(word[p - 1] for p in code.pivot_columns))
            assert code.generator.left_times(coefficients).entries == word
        if field.q ** k <= 16 ** 4:
            assert list(code.first_of_weight.items()) == list(walked_firsts(code).items())


class TestSpectrumRoutes:
    """The GRS test, the C(n, k) MDS certificate and the closed-form
    spectrum against the walk of the code."""

    @pytest.mark.parametrize("n,k,field", [
        (7, 3, F8), (8, 4, Field(3, 2)), (9, 3, Field(11)), (8, 4, Field(2, 4)),
    ], ids=["rs7_3_gf8", "rs8_4_gf9", "rs9_3_f11", "rs8_4_gf16"])
    def test_closed_form_matches_the_walk(self, n, k, field):
        code = reed_solomon_code(n, k, field)
        walked = code_module._walk_spectrum(field, code.generator.entries, n)[0]
        assert code_module._mds_distribution(n, k, field.q) == walked
        assert mds_weight_distribution(n, k, field.q) == walked
        assert _certified_mds(code) and code._grs_certified()

    def test_failed_certificate_falls_back(self, monkeypatch):
        # Every entry of A = [[1, 1], [1, 1]] is nonzero, so the pre-filter
        # passes, but its entrywise inverse has rank 1, not 2: the GRS test
        # fails, and the walk answers, with no rank query. Columns 3 and 4
        # are equal, so the code is not MDS, and d = 2.
        code = LinearCode(Matrix(F3, ((1, 0, 1, 1), (0, 1, 1, 1))))
        assert code._mds_prefilter() and not code._grs_certified()
        walks = []
        original = code_module._walk_spectrum

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(code_module, "_walk_spectrum", counted)
        monkeypatch.setattr(LinearCode, "rank_of_columns", None)
        assert code.min_distance == 2
        assert len(walks) == 1
        counts, firsts = plain_spectrum(code)
        assert code.weight_distribution == counts
        assert list(code.first_of_weight.items()) == list(firsts.items())

    def test_grs_test_falls_back_by_itself(self):
        # [8, 4] over GF(16) with no zero entry outside the pivots, but a
        # singular 2 x 2 block: the GRS test fails, as it must on a code
        # that is not MDS, and the code walk answers instead.
        gf16 = Field(2, 4)
        block = ((1, 1, 2, 3), (1, 1, 4, 5), (2, 6, 7, 8), (3, 9, 10, 11))
        code = LinearCode(Matrix(gf16, tuple(
            tuple(int(i == j) for j in range(4)) + block[i] for i in range(4)
        )))
        assert code._mds_prefilter()
        assert not code._grs_certified() and not _certified_mds(code)
        assert code.weight_distribution == code_module._walk_spectrum(
            gf16, code.generator.entries, 8
        )[0]
        assert code.min_distance < 5 and not code.is_mds

    @pytest.mark.parametrize("rows,grs", [
        (tuple(tuple(1 if j in (i, 13) else 0 for j in range(14)) for i in range(13)), True),
        (((1,) * 14,), True),
        (((1, 0, 1, 1), (0, 1, 1, 1)), False),
        (HAMMING_ROWS, False),
    ], ids=["even14_13", "rep14_1", "ones4_2", "hamming7"])
    def test_binary_codes_stay_cheap(self, rows, grs, monkeypatch):
        # Over F2 only the trivial [n, 1], [n, n-1] and [n, n] codes are
        # MDS. They pass the GRS test by its k = 1 and r = 1 rules; any
        # other binary code fails it on a zero in A or on an all-ones
        # inverse of rank 1 and walks. Neither route makes a rank query,
        # and both agree with a plain walk.
        code = LinearCode(Matrix(F2, rows))
        monkeypatch.setattr(LinearCode, "rank_of_columns", None)
        assert code._grs_certified() == grs
        counts, firsts = plain_spectrum(code)
        assert code.weight_distribution == counts
        assert list(code.first_of_weight.items()) == list(firsts.items())

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(small_codes((F3, Field(5), Field(7), Field(2, 2), F8, Field(3, 2))))
    def test_grs_test_passes_only_mds_codes(self, code):
        if code._grs_certified():
            assert _certified_mds(code)

    def test_mds_code_that_is_not_grs_walks(self):
        # An MDS [6, 3] code over F11 whose A has an entrywise inverse of
        # rank 3: the GRS test fails, and the walk finds d = 4.
        code = LinearCode(Matrix(Field(11), (
            (1, 0, 0, 1, 2, 10), (0, 1, 0, 6, 8, 10), (0, 0, 1, 9, 2, 9),
        )))
        assert not code._grs_certified()
        assert code.is_mds and _certified_mds(code)
        assert code._spectrum == code_module._walk_spectrum(code.field, code.generator.entries, 6)

    @pytest.mark.parametrize("n,k,field", [
        (12, 8, Field(2, 4)), (13, 7, Field(13)),
    ], ids=["rs12_8_gf16", "rs13_7_f13"])
    def test_codes_past_the_walk_are_analysed(self, n, k, field):
        # Both have over 2^24 codewords; the GRS test answers.
        code = reed_solomon_code(n, k, field)
        assert field.q ** k > code_module.MAX_ENUMERATION
        assert (code.min_distance, code.dual_distance) == (n - k + 1, k + 1)
        assert code.weight_distribution == code_module._mds_distribution(n, k, field.q)

    def test_search_budget(self, monkeypatch):
        monkeypatch.setattr(code_module, "MAX_ENUMERATION", 64)
        code = reed_solomon_code(10, 5, Field(2, 4))
        with pytest.raises(TooLargeToEnumerateError, match="first-of-weight search"):
            code_module._first_of_each_weight(code.field, code.generator.entries, 10, range(6, 11))


def seeded_binary_code(seed, n, k, zero_column=None):
    """A binary [n, k] code from fair bits of Rng(seed), redrawn from the
    same stream until the rows are independent; `zero_column` (1-based)
    is cleared in every row before the rank is taken."""
    rng = Rng(seed)
    while True:
        rows = [[rng.below(2) for _ in range(n)] for _ in range(k)]
        if zero_column is not None:
            for row in rows:
                row[zero_column - 1] = 0
        if any(map(any, rows)):
            code = LinearCode(Matrix(F2, tuple(map(tuple, rows))))
            if code.dimension == k:
                return code


def packed(word):
    """A binary vector as an int, coordinate 1 as the top bit."""
    n = len(word)
    return sum(v << (n - 1 - j) for j, v in enumerate(word))


def brute_dual_first_hits(code):
    """Entry t: the first t-subset in combinations order, i.e. the least
    tuple, inside the zero set of a nonzero dual codeword; one entry for
    every t that some such zero set reaches."""
    zero_sets = [
        tuple(j + 1 for j, v in enumerate(h) if not v) for h in code.dual.codewords() if any(h)
    ]
    most = max(map(len, zero_sets))
    return [min(z[:t] for z in zero_sets if len(z) >= t) for t in range(most + 1)]


# (seed, n, k, zero column): seeded binary codes past the known-set scan's
# n <= 14, plus k = 1, n - k = 1 and a zero column.
BINARY_CODES = {
    "16_8": (1, 16, 8, None),
    "20_10": (2, 20, 10, None),
    "24_12": (3, 24, 12, None),
    "k1": (4, 16, 1, None),
    "n-k=1": (5, 12, 11, None),
    "zero-column": (6, 16, 8, 5),
}


class TestBinaryWalker:
    """The packed F2 walk behind _spectrum and _dual_first_hits against the
    slow routes: iterate_span's order, a plain walk over every codeword, and
    a brute force over every dual codeword."""

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 1)] * n), max_size=7)
        .map(lambda rows: (n, rows))
    ))
    # No rows: the span is the zero word alone.
    @example((5, []))
    def test_span_order(self, case):
        # Two rows to the low block, so that up to 5 more make high blocks.
        n, rows = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(code_module, "BLOCK_ROWS", 2)
            blocks = list(code_module._binary_blocks([packed(row) for row in rows]))
        assert sum(blocks, []) == [packed(w) for w in iterate_span(F2, rows, n)]

    @pytest.mark.parametrize("block_rows,sizes", [
        (2, [4] * 8), (12, [32]),
    ], ids=["blocks", "low-block-only"])
    def test_blocks_concatenate_to_the_span(self, block_rows, sizes, monkeypatch):
        # With two rows to the low block, five rows make 8 blocks of 4
        # words; with twelve, one block of 32. Word i is the XOR of the
        # rows at the 1 bits of i.
        monkeypatch.setattr(code_module, "BLOCK_ROWS", block_rows)
        rows = [0b110010111, 0b011100001, 0b100000011, 0b111111111, 0b010101010]
        blocks = list(code_module._binary_blocks(rows))
        assert list(map(len, blocks)) == sizes
        assert sum(blocks, []) == [
            reduce(xor, (row for j, row in enumerate(rows) if i >> j & 1), 0) for i in range(32)
        ]

    @pytest.mark.parametrize("name", BINARY_CODES)
    def test_spectrum(self, name):
        code = seeded_binary_code(*BINARY_CODES[name])
        counts, firsts = plain_spectrum(code)
        assert code.weight_distribution == counts
        assert list(code.first_of_weight.items()) == list(firsts.items())

    @pytest.mark.parametrize("name", BINARY_CODES)
    def test_dual_first_hits(self, name):
        code = seeded_binary_code(*BINARY_CODES[name])
        assert _dual_first_hits(code) == brute_dual_first_hits(code)

    @pytest.mark.parametrize("seed,n,k", [(5, 30, 14), (8, 300, 2), (9, 300, 13)])
    def test_spectrum_past_the_low_block(self, seed, n, k):
        # k > BLOCK_ROWS walks blocks past the low one; n >= 256 counts
        # weights that no longer fit a byte.
        code = seeded_binary_code(seed, n, k)
        counts, firsts = brute_binary_spectrum(code)
        assert code.weight_distribution == counts
        assert list(code.first_of_weight.items()) == list(firsts.items())

    def test_dual_walk_past_the_low_block(self, monkeypatch):
        # The seed-5 [30, 14] code has d_dual = 3 and its first weight-3
        # dual word in stage 14, so the walk crosses block boundaries and
        # stops with stage 14: 2^15 of the 2^16 dual words.
        code = seeded_binary_code(5, 30, 14)
        assert code.dual_distance == 3
        expected = brute_dual_first_hits(code)
        words = count_block_words(monkeypatch)
        assert _dual_first_hits(code) == expected
        assert words == [1 << 15]


def brute_binary_spectrum(code):
    """(counts, firsts) of a binary code, word i formed on its own as the
    XOR of the packed rows at the 1 bits of i, row 0 the lowest: the
    codewords() order."""
    n = code.length
    rows = [packed(row) for row in code.generator.entries]
    counts = [0] * (n + 1)
    firsts = {}
    for i in range(1 << len(rows)):
        word = 0
        for j, row in enumerate(rows):
            if i >> j & 1:
                word ^= row
        w = bin(word).count("1")
        if w and not counts[w]:
            firsts[w] = tuple(int(bit) for bit in format(word, f"0{n}b"))
        counts[w] += 1
    return tuple(counts), firsts


def count_block_words(monkeypatch):
    """A one-entry list that counts the words of every list the walks draw
    from _binary_blocks from now on."""
    words = [0]
    original = code_module._binary_blocks

    def counted(*args, **kwargs):
        for block in original(*args, **kwargs):
            words[0] += len(block)
            yield block

    monkeypatch.setattr(code_module, "_binary_blocks", counted)
    return words


def dual_codes(draw, fields):
    """A code over one of `fields` with n <= 8, k < n and at most 2401
    words in its dual; sparse rows now and then, for zero columns."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 8))
    k_min = min(k for k in range(1, n) if field.q ** (n - k) <= 2401)
    k = draw(st.integers(k_min, n - 1))
    entry = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    rows = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    assume(any(map(any, rows)))
    code = LinearCode(Matrix(field, tuple(rows)))
    assume(code.dimension < n)
    return code


class TestStagedDualWalk:
    """_dual_first_hits over every field against a brute force over every
    dual codeword, and the stage at which it stops."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.composite(dual_codes)((F3, Field(2, 2), Field(5), Field(7))))
    # Codes whose dual holds a weight-d_dual word in the middle of a
    # stage, before a larger mask of the same stage: a walk that stopped
    # there, and not at the end of the stage, would miss the larger mask.
    @example(LinearCode(Matrix(Field(5), (
        (4, 1, 0, 3, 0, 3, 1, 4), (3, 3, 1, 4, 3, 2, 0, 0), (3, 3, 3, 2, 2, 1, 1, 3),
        (0, 4, 1, 4, 0, 0, 4, 1), (3, 2, 2, 0, 4, 3, 1, 1),
    ))))
    @example(LinearCode(Matrix(F3, (
        (1, 2, 1, 2, 2, 2, 1, 2), (1, 1, 2, 0, 2, 0, 2, 2), (2, 2, 0, 0, 0, 2, 1, 1),
        (1, 2, 1, 2, 0, 0, 0, 1), (1, 1, 1, 2, 2, 0, 2, 2),
    ))))
    @example(LinearCode(Matrix(Field(7), (
        (4, 1, 6, 6, 6, 1, 6), (2, 1, 1, 2, 1, 5, 2), (2, 0, 6, 1, 1, 4, 3), (2, 0, 6, 6, 4, 4, 2),
    ))))
    def test_equals_brute_force(self, code):
        assert _dual_first_hits(code) == brute_dual_first_hits(code)

    def test_binary_walk_stops_after_stage_0(self, monkeypatch):
        # The dual of hamming7 is the [7, 3] simplex code: every nonzero
        # word has weight 4 = d_dual, the last dual row among them. The
        # walk stops after stage 0, having drawn the low block of all 8
        # words, and no high block.
        code = hamming()
        expected = brute_dual_first_hits(code)
        assert code.dual_distance == 4
        words = count_block_words(monkeypatch)
        assert _dual_first_hits(code) == expected
        assert words == [8]

    @pytest.mark.parametrize("block_rows", (1, 2, 3))
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(st.composite(dual_codes)((F2,)))
    # With one or two rows to the low block, a dual holding a weight-d_dual
    # word in a high block before a larger mask in a later block of the
    # same stage: a walk that stopped after that block, and not at the end
    # of the stage, would miss the larger mask.
    @example(LinearCode(Matrix(F2, (
        (0, 1, 0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0, 1, 1), (0, 0, 0, 0, 1, 1, 1, 1),
    ))))
    def test_binary_stages_equal_brute_force(self, block_rows, code):
        # Few rows to the low block: the dual walk's stages are slices of
        # it and then runs of high blocks, and the code's walk takes high
        # blocks too. Hypothesis takes no function-scoped fixture, so the
        # patch is a context of its own, and the code is built afresh in
        # it: an explicit example is shared by every block_rows.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(code_module, "BLOCK_ROWS", block_rows)
            code = LinearCode(code.generator)
            assert _dual_first_hits(code) == brute_dual_first_hits(code)
            counts, firsts = plain_spectrum(code)
            assert code.weight_distribution == counts
            assert list(code.first_of_weight.items()) == list(firsts.items())

    def test_fiber_walk_stops_after_stage_0(self, monkeypatch):
        # The tetracode, [4, 2, 3] over F3, is its own dual, with every
        # nonzero word of weight 3. Stage 0 is the fiber of b = 0, whose
        # words c*S_0 for c = 1, 2 have weight 3, so iterate_span yields
        # b = 0 only, of the 3 values of b.
        code = LinearCode(Matrix(F3, ((1, 0, 1, 1), (0, 1, 1, 2))))
        assert code.dual_distance == 3
        expected = brute_dual_first_hits(code)
        yields = []
        original = code_module.iterate_span

        def counted(*args):
            for word in original(*args):
                yields.append(word)
                yield word

        monkeypatch.setattr(code_module, "iterate_span", counted)
        assert _dual_first_hits(code) == expected
        assert yields == [(0, 0, 0, 0)]

    def test_binary_walk_is_budgeted_stage_by_stage(self, monkeypatch):
        # The seed-5 [30, 14] code stops with stage 14, after 2^15 of its
        # 2^16 dual words: a budget of 2^15 lets it finish, and one of 2^14
        # refuses on entering stage 14, with 2^14 words drawn.
        code = seeded_binary_code(5, 30, 14)
        expected = brute_dual_first_hits(code)
        monkeypatch.setattr(code_module, "MAX_ENUMERATION", 1 << 15)
        assert _dual_first_hits(code) == expected
        monkeypatch.setattr(code_module, "MAX_ENUMERATION", 1 << 14)
        words = count_block_words(monkeypatch)
        with pytest.raises(TooLargeToEnumerateError) as refused:
            _dual_first_hits(code)
        assert str(refused.value) == (
            "walk of q^(n-k) = 2^16 dual codewords, through stage 14: "
            "size 32768 exceeds the limit 16384"
        )
        assert words == [1 << 14]

    def test_fiber_walk_is_budgeted_stage_by_stage(self, monkeypatch):
        # A [10, 4] code over F3 with d_dual = 3 whose walk stops after
        # stage 3, 3^4 of its 3^6 dual words: a budget of 3^4 lets it
        # finish, and one of 3^3 refuses on entering stage 3, with the
        # fibers of stages 0..2 (3^2 values of b) walked.
        code = LinearCode(Matrix(F3, (
            (1, 0, 0, 0, 2, 0, 2, 1, 0, 2), (0, 1, 0, 0, 0, 0, 2, 2, 1, 1),
            (0, 0, 1, 0, 2, 2, 2, 2, 2, 2), (0, 0, 0, 1, 1, 1, 0, 2, 1, 1),
        )))
        assert code.dual_distance == 3
        expected = brute_dual_first_hits(code)
        monkeypatch.setattr(code_module, "MAX_ENUMERATION", 3 ** 4)
        assert _dual_first_hits(code) == expected
        monkeypatch.setattr(code_module, "MAX_ENUMERATION", 3 ** 3)
        yields = []
        original = code_module.iterate_span
        monkeypatch.setattr(
            code_module, "iterate_span", lambda *args: (yields.append(w) or w for w in original(*args))
        )
        with pytest.raises(TooLargeToEnumerateError) as refused:
            _dual_first_hits(code)
        assert str(refused.value) == (
            "walk of q^(n-k) = 3^6 dual codewords, through stage 3: size 81 exceeds the limit 27"
        )
        assert len(yields) == 3 ** 2


class TestBruteWeightOracle:
    """Frozen distances double-checked by a raw enumeration oracle."""

    @pytest.mark.parametrize(
        "rows,field,expected_d",
        [
            (HAMMING_ROWS, F2, 3),
            (((1, 1, 1),), F2, 3),
            (((1, 0, 2, 1), (0, 1, 1, 1)), F3, 3),
        ],
    )
    def test_min_distance(self, rows, field, expected_d):
        words = brute_span(field, rows)
        oracle = min(sum(1 for v in w if v) for w in words if any(w))
        assert oracle == expected_d
        assert LinearCode(Matrix(field, rows)).min_distance == expected_d


class TestOrthogonalArray:
    def test_hamming_counts(self):
        code = hamming()
        for r in range(1, 4):
            for positions in itertools.combinations(range(1, 8), r):
                counts = oa_tuple_counts(code, positions)
                assert len(counts) == 2 ** r
                assert set(counts.values()) == {2 ** (4 - r)}

    def test_beyond_strength_not_uniform(self):
        code = hamming()
        # r = 4 = d_dual: some 4-column projection must be non-uniform
        uneven = False
        for positions in itertools.combinations(range(1, 8), 4):
            counts = oa_tuple_counts(code, positions)
            if len(set(counts.values())) > 1 or len(counts) < 16:
                uneven = True
                break
        assert uneven

    def test_counts_include_zero_tuples(self):
        code = LinearCode.from_rows([Vector(F2, (1, 1, 1))])
        counts = oa_tuple_counts(code, (1, 2))
        assert counts[(0, 1)] == 0
        assert counts[(1, 1)] == 1

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_counts_match_a_per_word_loop(self, r):
        # At r = 3 = d_dual some counts are uneven; every entry and the
        # zero-filled key order are compared at each r.
        rows = ((1, 0, 2, 1), (0, 1, 1, 1))
        code = LinearCode(Matrix(F3, rows))
        words = brute_span(F3, rows)
        for positions in itertools.combinations(range(1, 5), r):
            reference = {t: 0 for t in itertools.product(range(3), repeat=r)}
            for w in words:
                reference[tuple(w[j - 1] for j in positions)] += 1
            counts = oa_tuple_counts(code, positions)
            assert list(counts.items()) == list(reference.items())

    def test_tuple_space_guard(self):
        big = Field(8191)
        code = LinearCode(Matrix(big, ((1, 0, 1, 1), (0, 1, 1, 0))))
        assert big.q ** 2 > MAX_SPACE
        with pytest.raises(TooLargeToEnumerateError):
            oa_tuple_counts(code, (1, 2))


def mds_weight_distribution(n, k, q):
    """Closed-form weight enumerator of an [n, k] MDS code over F_q:
    A_w = C(n, w) sum_{j=0}^{w-d} (-1)^j C(w, j) (q^(w-d+1-j) - 1), d = n-k+1."""
    d = n - k + 1
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        counts[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return tuple(counts)


def macwilliams_term_by_term(distribution, q, dimension):
    """B_j = (1/q^k) sum_i A_i K_j(i) with every Krawtchouk value summed
    term by term, K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s);
    None where the transform is not a code's distribution."""
    n = len(distribution) - 1
    dual = []
    for j in range(n + 1):
        total = sum(
            a * sum(
                (-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                for s in range(min(i, j) + 1)
            )
            for i, a in enumerate(distribution)
        )
        count, remainder = divmod(total, q ** dimension)
        if remainder or count < 0:
            return None
        dual.append(count)
    return tuple(dual) if dual[0] == 1 else None


class TestMacWilliams:
    def test_matches_term_by_term_sum(self):
        from icsisec.verify import builtin_corpus

        spectra = [(e.code.weight_distribution, e.code.field.q, e.code.dimension) for e in builtin_corpus()]
        for seed, n, k, zero_column in BINARY_CODES.values():
            code = seeded_binary_code(seed, n, k, zero_column)
            spectra.append((code.weight_distribution, 2, code.dimension))
        for n, k, q in ((7, 3, 8), (10, 5, 16), (12, 4, 13), (9, 3, 11), (16, 8, 16)):
            spectra.append((mds_weight_distribution(n, k, q), q, k))
        for distribution, q, k in spectra:
            assert _macwilliams(distribution, q, k) == macwilliams_term_by_term(distribution, q, k)

    def test_hamming_transforms_to_simplex(self):
        assert _macwilliams(hamming().weight_distribution, 2, 4) == (1, 0, 0, 0, 7, 0, 0, 0)

    @pytest.mark.parametrize("n,k,q", [(9, 3, 11), (12, 4, 13)], ids=["rs9_3_f11", "rs12_4_f13"])
    def test_reed_solomon_dual_is_mds(self, n, k, q):
        code = reed_solomon_code(n, k, Field(q))
        assert code.weight_distribution == mds_weight_distribution(n, k, q)
        dual = _macwilliams(code.weight_distribution, q, k)
        assert dual == mds_weight_distribution(n, n - k, q)
        assert code.dual_distance == k + 1

    def test_random_codes_match_the_walked_dual(self):
        rng = random.Random(5)
        fields = (F2, F3, Field(2, 2), Field(5), F8, Field(3, 2))
        checked = Counter()
        while sum(checked.values()) < 60:
            field = fields[rng.randrange(len(fields))]
            q = field.q
            n = 2 + rng.randrange(8)
            k = 1 + rng.randrange(n - 1)
            if q ** max(k, n - k) > 4096:
                continue
            rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(k))
            try:
                code = LinearCode(Matrix(field, rows))
            except ZeroCodeError:
                continue
            if code.dimension == n:
                continue
            transformed = _macwilliams(code.weight_distribution, q, code.dimension)
            assert transformed == code.dual.weight_distribution
            assert code.dual_distance == code.dual.min_distance
            checked[q] += 1
        assert set(checked) == {2, 3, 4, 5, 8, 9}

    def test_inconsistent_distributions_raise(self):
        # Not a linear code's: the transform has fractional counts.
        with pytest.raises(MacWilliamsError):
            _macwilliams((1, 0, 0, 7, 7, 0, 1, 0), 2, 4)
        # Two codewords where the dimension promises four: B_0 = 1/2.
        with pytest.raises(MacWilliamsError):
            _macwilliams((1, 0, 0, 1), 2, 2)

    def test_report_walks_only_the_code(self, monkeypatch):
        walks = Counter()
        original = code_module.iterate_span

        def counted(*args, **kwargs):
            for vector in original(*args, **kwargs):
                walks["yields"] += 1
                yield vector

        monkeypatch.setattr(code_module, "iterate_span", counted)
        report = security_report(reed_solomon_code(9, 3, Field(11)))
        assert (report.min_distance, report.dual_distance) == (7, 4)
        assert walks["yields"] <= 11 ** 3

    def test_larger_code_never_builds_its_dual(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dual_distance must come from the transform, not the dual")

        monkeypatch.setattr(LinearCode, "dual", property(refuse))
        even = LinearCode(Matrix(F2, tuple(
            tuple(1 if j in (i, 13) else 0 for j in range(14)) for i in range(13)
        )))
        assert even.dual_distance == 14


class TestReedSolomon:
    def test_rs73_parameters(self):
        code = reed_solomon_code(7, 3, F8)
        assert (code.length, code.dimension) == (7, 3)
        assert code.min_distance == 5
        assert code.dual_distance == 4
        assert code.is_mds

    def test_rs_is_mds_for_other_shapes(self):
        code = reed_solomon_code(5, 2, F8)
        assert code.min_distance == 4
        assert code.is_mds

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmallError):
            reed_solomon_code(7, 3, Field(5))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            reed_solomon_code(7, 0, F8)
        with pytest.raises(ValueError):
            reed_solomon_code(7, 8, F8)
