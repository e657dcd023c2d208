"""Security-analysis tests on frozen small codes.

The [7, 4] Hamming ladder values (levels 2, 1, 0 and the strength-4
complete-insecurity threshold) are fixed expectations; the enumeration
oracle is additionally cross-checked against the rank route on a full
small sweep, independent of the verify module's suites.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import icsisec.code as code_module
import icsisec.security as security_module
from icsisec.algebra import DimensionMismatchError, Field, Matrix, Vector
from icsisec.code import LinearCode, TooLargeToEnumerateError, ZeroCodeError, reed_solomon_code
from icsisec.rng import Rng
from icsisec.security import (
    AdversaryView,
    InconsistentObservationError,
    ListTooLargeError,
    RankDeficientError,
    RecoveryCounterexample,
    SecurityQuery,
    TheoremViolationError,
    block_security_level,
    complete_insecurity_attack,
    conditional_block_entropy,
    has_no_information,
    list_attack,
    security_report,
    weak_security_witness,
)
from icsisec.verify import _attack_route_mismatch, builtin_corpus

F2 = Field(2)
F3 = Field(3)

HAMMING_ROWS = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)


def hamming():
    return LinearCode(Matrix(F2, HAMMING_ROWS))


def identity3():
    return LinearCode(Matrix(F2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def broadcast_of(code, x):
    return code.generator.times_col(Vector(code.field, x))


def confined_scan(code, strength):
    """Reference known-set scan, one confined_combination solve per (K, i):
    the first strength-t known set in combinations order that leaves some
    index hidden, with its first hidden index; None when there is none."""
    n = code.length
    for known in itertools.combinations(range(1, n + 1), strength):
        for i in range(1, n + 1):
            if i not in known and code.confined_combination(known, i) is None:
                return RecoveryCounterexample(known=frozenset(known), resisted=i)
    return None


class TestSecurityQuery:
    def test_partition(self):
        q = SecurityQuery(7, frozenset({1, 2}), frozenset({3}))
        assert q.rest == frozenset({4, 5, 6, 7})

    def test_rejects_bad_queries(self):
        with pytest.raises(ValueError):
            SecurityQuery(7, frozenset(), frozenset())
        with pytest.raises(ValueError):
            SecurityQuery(7, frozenset({1}), frozenset({1}))
        with pytest.raises(ValueError):
            SecurityQuery(7, frozenset({8}), frozenset({1}))
        with pytest.raises(ValueError):
            SecurityQuery(0, frozenset(), frozenset({1}))


class TestAdversaryView:
    def test_of(self):
        view = AdversaryView.of({3: 1, 1: 0}, Vector(F2, (0, 1)))
        assert view.known == frozenset({1, 3})
        assert view.mapping == {1: 0, 3: 1}
        assert view.known_values == ((1, 0), (3, 1))

    def test_rejects_duplicates_and_bad_values(self):
        with pytest.raises(ValueError):
            AdversaryView(((1, 0), (1, 1)), Vector(F2, (0,)))
        with pytest.raises(Exception):
            AdversaryView.of({1: 2}, Vector(F2, (0,)))


class TestHasNoInformation:
    def test_hamming_verdicts(self):
        code = hamming()
        assert has_no_information(code, SecurityQuery(7, frozenset(), frozenset({1, 2})))
        assert has_no_information(code, SecurityQuery(7, frozenset({1, 2, 3}), frozenset({4})))
        # x_3 is determined by x_1, x_2 and the broadcast
        assert not has_no_information(code, SecurityQuery(7, frozenset({1, 2}), frozenset({3})))
        # empty rest set: the whole block is exposed through the broadcast
        assert not has_no_information(
            code, SecurityQuery(7, frozenset({1, 2, 3, 4, 5}), frozenset({6, 7}))
        )

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            has_no_information(hamming(), SecurityQuery(6, frozenset(), frozenset({1})))


class TestOracle:
    def test_uniform_pair(self):
        code = hamming()
        x = (1, 0, 1, 1, 0, 1, 1)
        query = SecurityQuery(7, frozenset(), frozenset({1, 2}))
        entropy = conditional_block_entropy(code, query, {}, broadcast_of(code, x))
        assert sum(entropy.counts.values()) == 8
        assert entropy.counts == {t: 2 for t in itertools.product((0, 1), repeat=2)}
        assert entropy.uniform
        assert entropy.bits == pytest.approx(2.0)

    def test_determined_index(self):
        code = hamming()
        x = (1, 0, 1, 1, 0, 1, 1)
        query = SecurityQuery(7, frozenset({1, 2}), frozenset({3}))
        entropy = conditional_block_entropy(
            code, query, {1: 1, 2: 0}, broadcast_of(code, x)
        )
        assert entropy.counts == {(1,): 2}
        assert not entropy.uniform
        assert entropy.bits == pytest.approx(0.0)

    def test_inconsistent_observation(self):
        code = LinearCode(Matrix(F2, ((1, 0), (0, 1))))
        query = SecurityQuery(2, frozenset({1}), frozenset({2}))
        with pytest.raises(InconsistentObservationError):
            conditional_block_entropy(code, query, {1: 1}, Vector(F2, (0, 0)))

    def test_known_set_must_match(self):
        code = hamming()
        query = SecurityQuery(7, frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError):
            conditional_block_entropy(code, query, {}, Vector(F2, (0,) * 4))

    def test_space_guard(self):
        wide = LinearCode(Matrix(F2, (tuple([1] * 21),)))
        query = SecurityQuery(21, frozenset(), frozenset({1}))
        with pytest.raises(TooLargeToEnumerateError):
            conditional_block_entropy(code=wide, query=query, known_values={},
                                      broadcast=Vector(F2, (0,)))

    @pytest.mark.parametrize("block", [{6, 7}, set(range(6, 22))], ids=["hidden", "leaks"])
    def test_guard_measures_the_free_columns(self, block):
        # n = 21 with t = 5 known: the walk runs over 2^16 message vectors,
        # within the 2^20 budget although 2^21 is not.
        rng = Rng(21)
        code = LinearCode(Matrix(F2, tuple(tuple(rng.below(2) for _ in range(21)) for _ in range(6))))
        x = tuple(rng.below(2) for _ in range(21))
        query = SecurityQuery(21, frozenset(range(1, 6)), frozenset(block))
        entropy = conditional_block_entropy(
            code, query, {i: x[i - 1] for i in range(1, 6)}, broadcast_of(code, x)
        )
        assert sum(entropy.counts.values()) == 2 ** (16 - code.dimension)
        assert entropy.uniform == has_no_information(code, query) == (len(block) == 2)

    def test_agrees_with_rank_route_on_small_code(self):
        code = LinearCode(Matrix(F3, ((1, 0, 2, 1), (0, 1, 1, 1))))
        n = 4
        xs = list(itertools.product(range(3), repeat=n))
        observations = [(x, broadcast_of(code, x)) for x in xs]
        for assignment in itertools.product((0, 1, 2), repeat=n):
            block = frozenset(i + 1 for i, a in enumerate(assignment) if a == 1)
            if not block:
                continue
            known = frozenset(i + 1 for i, a in enumerate(assignment) if a == 0)
            query = SecurityQuery(n, known, block)
            algebraic = has_no_information(code, query)
            oracle = all(
                conditional_block_entropy(
                    code, query, {i: x[i - 1] for i in known}, s
                ).uniform
                for x, s in observations
            )
            assert algebraic == oracle


class TestBlockSecurityLevel:
    def test_hamming_ladder(self):
        code = hamming()
        assert block_security_level(code, 0) == 2
        assert block_security_level(code, 1) == 1
        assert block_security_level(code, 2) == 0

    def test_repetition_saturates(self):
        code = LinearCode.from_rows([Vector(F2, (1, 1, 1))])
        assert block_security_level(code, 0) == 2
        assert block_security_level(code, 1) == 1

    def test_identity_code_hides_nothing(self):
        code = identity3()
        assert block_security_level(code, 0) == 0

    def test_strength_bounds(self):
        with pytest.raises(ValueError):
            block_security_level(hamming(), 7)
        with pytest.raises(ValueError):
            block_security_level(hamming(), -1)

    def test_sweep_guard(self):
        wide = LinearCode(Matrix(F2, (tuple([1] * 15),)))
        with pytest.raises(TooLargeToEnumerateError):
            block_security_level(wide, 0)

    def test_guarantee_map(self):
        def floors(code):
            return [v.guaranteed_block_level for v in security_report(code).strengths]

        assert floors(hamming()) == [2, 1, 0, 0, 0, 0, 0]
        assert floors(identity3()) == [0, 0, 0]
        rs = reed_solomon_code(7, 3, Field(2, 3))
        assert floors(rs) == [4, 3, 2, 1, 0, 0, 0]


class TestWeakSecurityWitness:
    def test_no_witness_below_distance(self):
        code = hamming()
        assert weak_security_witness(code, 0) is None
        assert weak_security_witness(code, 1) is None

    def test_witness_at_strength_two(self):
        code = hamming()
        witness = weak_security_witness(code, 2)
        assert witness is not None
        assert len(witness.known) == 2
        assert witness.exposed not in witness.known
        assert witness.combination.support() <= witness.known

    def test_witness_recovers_the_message(self, monkeypatch):
        walks = Counter()

        def counting(name):
            original = getattr(code_module, name)

            def counted(*args, **kwargs):
                walks[name, "calls"] += 1
                for vector in original(*args, **kwargs):
                    walks[name, "yields"] += 1
                    yield vector
            return counted

        for name in ("iterate_span", "_binary_span"):
            monkeypatch.setattr(code_module, name, counting(name))
        rng = Rng(11)
        for code in (hamming(), reed_solomon_code(7, 3, Field(2, 3))):
            walks.clear()
            field = code.field
            distribution = code.weight_distribution
            for w in range(1, code.length + 1):
                if distribution[w] == 0:
                    continue
                witness = weak_security_witness(code, w - 1)
                assert witness is not None
                x = tuple(rng.below(field.q) for _ in range(code.length))
                s = broadcast_of(code, x)
                recovered = field.sub(
                    witness.coefficients.dot(s),
                    witness.combination.dot(Vector(field, x)),
                )
                assert recovered == x[witness.exposed - 1]
            # The distribution and every witness take at most one walk of
            # q^(k-1) fibers: the packed binary walk for hamming7, and none
            # for RS [7, 3], which passes the GRS test.
            if code._grs_certified():
                assert walks == {}
            else:
                assert walks == {
                    ("_binary_span", "calls"): 1,
                    ("_binary_span", "yields"): field.q ** (code.dimension - 1),
                }

    def test_full_weight_witness(self):
        code = LinearCode.from_rows([Vector(F2, (1, 1, 1))])
        witness = weak_security_witness(code, 2)
        assert witness is not None
        assert witness.known == frozenset({1, 2})
        assert witness.exposed == 3


class TestListAttack:
    def test_exact_size_and_membership(self):
        code = hamming()
        x = (1, 0, 1, 1, 0, 1, 1)
        s = broadcast_of(code, x)
        for known_indices in ((), (1, 2), (2, 5)):
            view = AdversaryView.of({i: x[i - 1] for i in known_indices}, s)
            candidates = list_attack(code, view)
            assert len(candidates) == 2 ** (7 - len(known_indices) - 4)
            assert Vector(F2, x) in candidates
            entries = [c.entries for c in candidates]
            assert entries == sorted(entries)
            for candidate in candidates:
                assert broadcast_of(code, candidate.entries) == s

    def test_inconsistent_known_values(self):
        code = LinearCode(Matrix(F2, ((1, 0), (0, 1))))
        view = AdversaryView.of({1: 1}, Vector(F2, (0, 0)))
        with pytest.raises(InconsistentObservationError):
            list_attack(code, view)

    def test_rank_deficient_known_set(self):
        code = LinearCode(Matrix(F2, ((1, 1, 0),)))
        view = AdversaryView.of({1: 0, 2: 0}, Vector(F2, (0,)))
        with pytest.raises(RankDeficientError):
            list_attack(code, view)

    def test_list_size_guard(self):
        code = LinearCode(Matrix(F2, (tuple([1] * 25),)))
        view = AdversaryView.of({}, Vector(F2, (0,)))
        with pytest.raises(ListTooLargeError):
            list_attack(code, view)


# Up to q = 9 every entry is one digit. F11, F13 and GF(16) pack two-digit
# entries into the byte columns; F17 and GF(32) take the list columns.
LIST_FIELDS = (
    F2, F3, Field(2, 2), Field(5), Field(2, 3), Field(3, 2),
    Field(11), Field(13), Field(2, 4), Field(17), Field(2, 5),
)


@st.composite
def list_observations(draw):
    """(code, known, x): a code with n <= 6 and q^n <= 4096 (so n <= 3 from
    q = 11 on, n = 2 from q = 17 on), a known set and a message vector, so
    the observation is consistent."""
    field = draw(st.sampled_from(LIST_FIELDS))
    n = draw(st.integers(2, max(m for m in range(2, 7) if field.q ** m <= 4096)))
    k = draw(st.integers(1, n - 1))
    entry = st.one_of(st.just(0), st.integers(0, field.q - 1))
    rows = draw(st.tuples(*[st.tuples(*[entry] * n)] * k))
    try:
        code = LinearCode(Matrix(field, rows))
    except ZeroCodeError:
        assume(False)
    known = draw(st.sets(st.integers(1, n), max_size=n - 1))
    x = draw(st.tuples(*[st.integers(0, field.q - 1)] * n))
    return code, known, x


class TestListAttackBruteForce:
    """list_attack against a filter over all q^n message vectors, which
    itertools.product yields in lexicographic order."""

    @settings(deadline=None, derandomize=True, max_examples=250)
    @given(list_observations())
    def test_list_equals_filter_in_order(self, drawn):
        code, known, x = drawn
        field = code.field
        s = broadcast_of(code, x)
        view = AdversaryView.of({i: x[i - 1] for i in known}, s)
        try:
            candidates = list_attack(code, view)
        except RankDeficientError:
            assume(False)
        brute = [
            z for z in itertools.product(range(field.q), repeat=code.length)
            if all(z[i - 1] == x[i - 1] for i in known) and broadcast_of(code, z) == s
        ]
        assert [c.entries for c in candidates] == brute
        # An unknown index is recovered exactly when every candidate agrees on it.
        pinned = {
            i: brute[0][i - 1]
            for i in range(1, code.length + 1)
            if i not in known and len({z[i - 1] for z in brute}) == 1
        }
        _, outcome = security_module._candidate_columns(code, view)
        assert outcome.mapping == pinned
        assert complete_insecurity_attack(code, view) == outcome


class TestCompleteInsecurityAttack:
    def test_strength_four_on_hamming(self):
        code = hamming()
        x = (1, 0, 1, 1, 0, 1, 1)
        s = broadcast_of(code, x)
        view = AdversaryView.of({i: x[i - 1] for i in (1, 2, 3, 5)}, s)
        outcome = complete_insecurity_attack(code, view)
        assert outcome.complete
        assert outcome.mapping == {4: 1, 6: 1, 7: 1}

    def test_partial_recovery_below_threshold(self):
        code = hamming()
        x = (0, 1, 1, 0, 1, 0, 0)
        s = broadcast_of(code, x)
        view = AdversaryView.of({1: 0, 2: 1}, s)
        outcome = complete_insecurity_attack(code, view)
        assert not outcome.complete
        assert outcome.mapping == {3: 1}
        assert outcome.resisted == (4, 5, 6, 7)

    def test_rejects_total_knowledge(self):
        code = hamming()
        with pytest.raises(ValueError):
            complete_insecurity_attack(
                code,
                AdversaryView.of({i: 0 for i in range(1, 8)}, Vector(F2, (0,) * 4)),
            )

    def test_one_reduction_matches_confined_solves(self, monkeypatch):
        # Every corpus code at every strength, one seeded known set each:
        # the reduction's verdicts and values agree with one
        # confined_combination solve per index, which the attack itself
        # no longer makes.
        rng = Rng(3)
        checks = []
        for entry in builtin_corpus(0):
            code = entry.code
            n, q = code.length, code.field.q
            for t in range(n):
                known = rng.subset(tuple(range(1, n + 1)), t)
                x = tuple(rng.below(q) for _ in range(n))
                view = AdversaryView.of({i: x[i - 1] for i in known}, broadcast_of(code, x))
                checks.append((code, view, x))
        reductions = []
        original = security_module._rref_raw

        def counting(*args, **kwargs):
            reductions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(security_module, "_rref_raw", counting)
        monkeypatch.setattr(LinearCode, "confined_combination", None)
        outcomes = [complete_insecurity_attack(code, view) for code, view, _ in checks]
        assert len(reductions) == len(checks)
        monkeypatch.undo()
        for (code, view, x), outcome in zip(checks, outcomes):
            assert outcome.consistent
            assert all(v == x[i - 1] for i, v in outcome.recovered)
            assert _attack_route_mismatch(code, view, outcome) is None

    def test_inconsistent_observation_is_flagged(self):
        # Strength 4 >= d = 3 leaves G_U rank-deficient, so some broadcasts
        # match no message vector; which indices are recovered does not
        # depend on the broadcast.
        code = hamming()
        known = {1: 1, 2: 0, 3: 1, 5: 0}
        real = complete_insecurity_attack(
            code, AdversaryView.of(known, broadcast_of(code, (1, 0, 1, 0, 0, 0, 0)))
        )
        bogus = complete_insecurity_attack(code, AdversaryView.of(known, Vector(F2, (1, 0, 0, 1))))
        assert real.consistent and not bogus.consistent
        assert [i for i, _ in bogus.recovered] == [i for i, _ in real.recovered] == [4, 6, 7]
        with pytest.raises(InconsistentObservationError):
            list_attack(code, AdversaryView.of(known, Vector(F2, (1, 0, 0, 1))))


class TestSecurityReport:
    def test_hamming_report(self):
        report = security_report(hamming())
        assert report.mode == "exhaustive"
        assert report.insecurity_threshold == 4
        levels = [v.measured_block_level for v in report.strengths]
        assert levels == [2, 1, 0, 0, 0, 0, 0]
        assert [v.completely_insecure for v in report.strengths] == [
            False, False, False, False, True, True, True,
        ]
        assert report.strengths[2].weak_witness is not None
        assert report.strengths[0].weak_witness is None
        cex = report.strengths[0].complete_counterexample
        assert cex is not None and cex.known == frozenset()

    def test_scan_hits_are_reduced_once(self, monkeypatch):
        # hamming7: t = 0, 1, 2 confirm {1..t}, and the t = 3 scan's first
        # set is its hit, whose hidden index the report reuses.
        calls = []
        original = security_module._reduce_unknowns

        def counted(code, known, broadcast):
            calls.append(sorted(known))
            return original(code, known, broadcast)

        monkeypatch.setattr(security_module, "_reduce_unknowns", counted)
        report = security_report(hamming())
        assert calls == [[], [1], [1, 2], [1, 2, 3]]
        assert report.strengths[3].complete_counterexample == RecoveryCounterexample(
            known=frozenset({1, 2, 3}), resisted=4
        )

    def test_identity_code_report(self):
        report = security_report(identity3())
        assert report.insecurity_threshold == 0
        assert all(v.completely_insecure for v in report.strengths)
        assert not any(v.weakly_secure for v in report.strengths)

    def test_mds_report_is_tight(self):
        report = security_report(reed_solomon_code(7, 3, Field(2, 3)))
        for v in report.strengths:
            if v.strength <= 3:
                assert v.measured_block_level == 4 - v.strength
                assert v.measured_block_level == v.guaranteed_block_level
                assert not v.completely_insecure
            else:
                assert v.completely_insecure
        assert report.insecurity_threshold == 4

    def test_guard_and_sampled_mode(self):
        # Past n = 14 the exhaustive rank sweep is refused, while the report,
        # exact at every length, is only labelled sampled.
        wide = LinearCode(Matrix(F2, (tuple([1] * 15),)))
        with pytest.raises(TooLargeToEnumerateError):
            block_security_level(wide, 0)
        report = security_report(wide, seed=7)
        assert report.mode == "sampled"
        assert report.seed == 7
        assert report.insecurity_threshold == 14
        # the repetition structure is still visible to sampling
        assert report.strengths[0].measured_block_level == 14

    def test_mds_report_certifies_without_a_walk(self, monkeypatch):
        # RS [8, 4] over GF(16): the GRS test on [I | A] proves the code
        # MDS with no rank query, the spectrum is closed form, and no
        # codeword is walked, where the walk would cover 16^4.
        calls = Counter()
        original_span = code_module.iterate_span
        original_rank = LinearCode.rank_of_columns

        def counted_span(*args, **kwargs):
            for vector in original_span(*args, **kwargs):
                calls["yields"] += 1
                yield vector

        def counted_rank(self, positions):
            calls["queries"] += 1
            return original_rank(self, positions)

        monkeypatch.setattr(code_module, "iterate_span", counted_span)
        monkeypatch.setattr(security_module, "iterate_span", counted_span)
        monkeypatch.setattr(LinearCode, "rank_of_columns", counted_rank)
        code = reed_solomon_code(8, 4, Field(2, 4, (1, 1, 0, 0, 1)))
        report = security_report(code)
        assert (report.min_distance, report.dual_distance) == (5, 5)
        assert calls["queries"] == 0
        assert calls["yields"] == 0

    def test_levels_nonincreasing_in_strength(self):
        for code in (hamming(), reed_solomon_code(7, 3, Field(2, 3))):
            report = security_report(code)
            levels = [v.measured_block_level for v in report.strengths]
            assert levels == sorted(levels, reverse=True)


class TestClosedFormLadder:
    """The report's closed-form verdicts against the slow routes they replace."""

    def test_matches_rank_sweep_and_scan_on_corpus(self):
        for entry in builtin_corpus(0):
            code = entry.code
            report = security_report(code)
            for v in report.strengths:
                t = v.strength
                counterexample = confined_scan(code, t)
                assert v.measured_block_level == block_security_level(code, t), (entry.name, t)
                assert v.completely_insecure == (counterexample is None), (entry.name, t)
                assert v.complete_counterexample == counterexample, (entry.name, t)

    def test_sampled_counterexamples_hide_their_index(self):
        rng = Rng(3)
        for field in (F2, F3):
            for _ in range(5):
                n = 15 + rng.below(6)
                rows = tuple(tuple(rng.below(field.q) for _ in range(n)) for _ in range(n // 2))
                code = LinearCode(Matrix(field, rows))
                report = security_report(code)
                assert report.mode == "sampled"
                for v in report.strengths:
                    t = v.strength
                    cex = v.complete_counterexample
                    assert v.completely_insecure == (t >= report.insecurity_threshold)
                    assert (cex is None) == v.completely_insecure
                    if cex is not None:
                        assert len(cex.known) == t and cex.resisted not in cex.known
                        assert code.confined_combination(cex.known, cex.resisted) is None

    @pytest.mark.parametrize(
        "rows",
        [
            ((1,) * 14,),
            tuple(tuple(1 if j in (i, 13) else 0 for j in range(14)) for i in range(13)),
        ],
        ids=["repetition14_1", "even14_13"],
    )
    def test_stress_codes_run_no_sweeps(self, monkeypatch, rows):
        calls = Counter()
        for owner, name in (
            (LinearCode, "rank_of_columns"),
            (LinearCode, "confined_combination"),
            (security_module, "_reduce_unknowns"),
        ):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        code = LinearCode(Matrix(F2, rows))
        report = security_report(code)
        assert report.mode == "exhaustive"
        assert calls["rank_of_columns"] == 0
        assert calls["confined_combination"] == 0
        assert calls["_reduce_unknowns"] <= 2 * code.length


WALK_FIELDS = (F2, F3, Field(2, 2), Field(5), Field(2, 3), Field(3, 2))
WALK_WORDS = 729


@st.composite
def walk_codes(draw):
    """(field, rows) with n <= 8 and at most WALK_WORDS words in the code
    and in its dual."""
    field = draw(st.sampled_from(WALK_FIELDS))
    bound = max(e for e in range(1, 13) if field.q ** e <= WALK_WORDS)
    n = draw(st.integers(2, min(8, 2 * bound)))
    k = draw(st.integers(max(1, n - bound), min(n - 1, bound)))
    entry = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        # Sparse rows leave zero columns and dead coordinates.
        entry = st.one_of(st.just(0), entry)
    return field, draw(st.tuples(*[st.tuples(*[entry] * n)] * k))


class TestOneCounterexampleDefinition:
    """Reports print the known-set scan's first hit, filled by one walk of
    the dual where the scan is past SCAN_BUDGET, as it is for the long
    codes of sampled reports."""

    def test_sampled_route_equals_exhaustive_on_corpus(self, monkeypatch):
        corpus = builtin_corpus(0)
        exhaustive = [security_report(entry.code) for entry in corpus]
        walks = []
        original = security_module._dual_first_hits
        monkeypatch.setattr(security_module, "SCAN_BUDGET", 0)
        monkeypatch.setattr(
            security_module, "_dual_first_hits", lambda code: walks.append(1) or original(code)
        )
        for entry, expected in zip(corpus, exhaustive):
            assert security_report(entry.code) == expected, entry.name
        # Every code with a strength to search, i.e. every non-MDS one, walks.
        searched = [e for e in corpus if e.code.dual_distance <= e.code.dimension]
        assert len(walks) == len(searched) > 0

    @staticmethod
    def check_walk(code):
        n = code.length
        threshold = n - code.dual_distance + 1
        walked = security_module._dual_first_hits(code)
        assert len(walked) == threshold
        for t in range(threshold):
            hit = security_module._complete_insecurity_exhaustive(code, t)
            assert walked[t] == tuple(sorted(hit.known)), t

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(walk_codes())
    # A zero column: e_1 is a dual codeword and d_dual = 1.
    @example((F2, ((0, 1, 0, 1, 1), (0, 0, 1, 1, 0))))
    # k = n - 1: the dual has one row, (1, 0, 4, 6), and d_dual = 3.
    @example((Field(2, 3), ((1, 0, 0, 3), (0, 1, 0, 0), (0, 0, 1, 7))))
    # Dual row 0 is (1, 1, 0, 0, 0, 0, 0, 0): zero outside its pivot and
    # column 2, so most coordinates of a fiber share one zero pattern.
    @example((F3, (
        (1, 2, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 1, 0, 2),
        (0, 0, 0, 1, 2, 0, 1, 1),
    )))
    def test_walk_matches_scan(self, drawn):
        field, rows = drawn
        try:
            code = LinearCode(Matrix(field, rows))
        except ZeroCodeError:
            assume(False)
        assume(code.dimension < code.length)
        self.check_walk(code)


class TestTheoremViolation:
    """A direct check that contradicts the distance theorems raises."""

    def test_non_codeword_witness_raises(self):
        code = hamming()
        counts, firsts = code._spectrum
        # Weight 3 but not a codeword: rows 1 + 2 give (1, 1, 0, 0, 1, 1, 0).
        code.__dict__["_spectrum"] = (counts, {**firsts, 3: (1, 1, 0, 0, 0, 0, 1)})
        with pytest.raises(TheoremViolationError):
            weak_security_witness(code, 2)

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    def test_every_index_recovered_raises(self, monkeypatch, sampled):
        def all_recovered(code, known, broadcast):
            unknown = [j for j in range(1, code.length + 1) if j not in known]
            width = len(unknown)
            rows = [[int(c == r) for c in range(width)] + [0] for r in range(width)]
            return unknown, rows, list(range(width))

        walks = []
        original = security_module._dual_first_hits
        monkeypatch.setattr(security_module, "_reduce_unknowns", all_recovered)
        monkeypatch.setattr(
            security_module, "_dual_first_hits", lambda code: walks.append(1) or original(code)
        )
        if sampled:
            # Past the scan's budget, hamming7's strength 3 is found by the
            # walk of the dual, the route of the sampled reports of long codes.
            monkeypatch.setattr(security_module, "SCAN_BUDGET", 0)
        with pytest.raises(TheoremViolationError):
            security_report(hamming())
        assert len(walks) == int(sampled)
