"""Self-check suite tests.

The five suites are exercised once through a module-scoped fixture;
individual tests then assert on the shared results to keep the total
runtime near a single pass over SUITE_NAMES.
"""

import itertools
import json
from collections import Counter
from types import SimpleNamespace

import pytest

import icsisec.code as code_module
import icsisec.security as security_module
import icsisec.verify as verify_module
from icsisec.algebra import Field, Vector
from icsisec.code import LinearCode, iterate_span
from icsisec.icsi import MalformedInstanceError
from icsisec.security import SecurityQuery, conditional_block_entropy
from icsisec.verify import (
    SUITE_NAMES,
    CorpusEntry,
    builtin_corpus,
    example_scheme,
    load_corpus,
    run_suite,
)

# Seed-0 case counts of the five suites.
CASE_COUNTS = {"thm1": 112, "thm2": 1052, "lemma3": 7531, "thm3": 447, "thm4": 408}


@pytest.fixture(scope="module")
def all_results():
    return {name: run_suite(name, seed=0) for name in SUITE_NAMES}


def test_suite_names_are_fixed(all_results):
    assert all(result.name == name for name, result in all_results.items())
    assert SUITE_NAMES == ("thm1", "thm2", "lemma3", "thm3", "thm4")


@pytest.mark.parametrize("name", ("thm1", "thm2", "lemma3", "thm3", "thm4"))
def test_every_suite_passes(all_results, name):
    result = all_results[name]
    assert result.ok, result.failures
    assert result.cases == CASE_COUNTS[name]
    assert result.label


def test_exhaustive_small_instance_count(all_results):
    # 65 + 15 + 4 + 1 distinct broadcast codes arise from binary instances
    # with n <= 4 and m <= 3; each is queried against every (known, block)
    # split, giving 4531 exhaustive cases before the random half starts.
    assert all_results["lemma3"].cases == 4531 + 3000


def _product_walk_keys(n):
    """Generator keys of the codes the exhaustive half's instances give, in
    the order a full product over all n * 2^n receiver indices first meets
    them, with None where a receiver's side information holds its demand:
    the reference _exhaustive_codes is checked against."""
    f2 = Field(2)
    indicator, zero = [], []
    for f in range(1, n + 1):
        for mask in range(1 << n):
            if mask >> (f - 1) & 1:
                indicator.append(None)
                zero.append(None)
            else:
                indicator.append(mask | 1 << (f - 1))
                zero.append(1 << (f - 1))
    seen_rowsets, keys = set(), []
    for m in range(1, 4):
        for combo in itertools.product(range(n << n), repeat=m):
            for rows in (indicator, zero):
                masks = frozenset(rows[i] for i in combo if rows[i] is not None)
                if not masks or masks in seen_rowsets:
                    continue
                seen_rowsets.add(masks)
                code = LinearCode.from_rows([
                    Vector(f2, tuple(mask >> j & 1 for j in range(n)))
                    for mask in sorted(masks)
                ])
                if code.generator.entries not in keys:
                    keys.append(code.generator.entries)
    return keys


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_exhaustive_codes_match_the_product_walk(n):
    # The same codes, each once, in combinations order, not the walk's.
    swept = [code.generator.entries for code in verify_module._exhaustive_codes(n)]
    assert len(set(swept)) == len(swept) == {1: 1, 2: 4, 3: 15, 4: 65}[n]
    assert set(swept) == set(_product_walk_keys(n))


def _tuple_counter_thm2(corpus):
    """thm2 as it counted before its keys were packed: one value tuple per
    codeword per column set, tallied by a Counter into a table holding all
    q^r tuples, the first off count found in sorted tuple order."""
    cases = 0
    for entry in corpus:
        code = entry.code
        n, k, q = code.length, code.dimension, code.field.q
        strength = min(code.dual_distance - 1, n)
        words = tuple(code.codewords()) if strength else ()
        for r in range(1, strength + 1):
            if q ** r > code_module.MAX_SPACE:
                break
            expected = q ** (k - r)
            for positions in itertools.combinations(range(1, n + 1), r):
                counts = dict.fromkeys(itertools.product(range(q), repeat=r), 0)
                counts.update(Counter(tuple(w[j - 1] for j in positions) for w in words))
                cases += 1
                bad = next((t for t, c in sorted(counts.items()) if c != expected), None)
                if bad is not None:
                    return cases, ({
                        "code": entry.name, "columns": list(positions),
                        "tuple": list(bad), "count": counts[bad], "expected": expected,
                    },)
    return cases, ()


def _overstated_corpus():
    """Seeded random codes over F2, F3, GF(4), GF(8) and F17, and a [3, 1]
    code over F257, each with its cached dual distance overstated by 1 or 2
    (up to n + 1): thm2 then checks column sets the code's counts fail."""
    rng = verify_module.Rng(7)
    entries = []
    for field, words in ((Field(2), 256), (Field(3), 243), (Field(2, 2), 256), (Field(2, 3), 512), (Field(17), 289)):
        while sum(e.code.field == field for e in entries) < 6:
            n = 3 + rng.below(4)
            k = 1 + rng.below(n)
            if field.q ** k > words:
                continue
            rows = tuple(tuple(rng.below(field.q) for _ in range(n)) for _ in range(k))
            try:
                code = LinearCode.from_rows([Vector(field, row) for row in rows])
            except code_module.ZeroCodeError:
                continue
            entries.append(CorpusEntry(f"over{len(entries):02d}", code, {}))
    entries.append(CorpusEntry("f257", LinearCode.from_rows([Vector(Field(257), (1, 2, 3))]), {}))
    for i, entry in enumerate(entries):
        code = entry.code
        code.__dict__["dual_distance"] = min(code.dual_distance + 1 + i % 2, code.length + 1)
    return tuple(entries)


def _swapped_pair_entry():
    """The words of an MDS [3, 2] code over F17 with the second values of
    two words swapped: every column still holds each value 17 times, so
    r = 1 passes, and the first off pair is neither zero nor one digit."""
    f17 = Field(17)
    words = list(LinearCode.from_rows([Vector(f17, (1, 0, 1)), Vector(f17, (0, 1, 1))]).codewords())
    a, b = words.index((3, 5, 8)), words.index((2, 9, 11))
    words[a], words[b] = (3, 9, 8), (2, 5, 11)
    stub = SimpleNamespace(length=3, dimension=2, field=f17, dual_distance=3, codewords=lambda: iter(words))
    return CorpusEntry("swapped", stub, {})


def test_packed_thm2_matches_the_tuple_counter_route(monkeypatch):
    corpus = _overstated_corpus()
    widths = set()
    packed_columns = verify_module._packed_columns

    def recorded(words, q, width):
        widths.add((q, width))
        return packed_columns(words, q, width)

    monkeypatch.setattr(verify_module, "_packed_columns", recorded)
    failures = 0
    for entry in corpus:
        packed = verify_module._suite_orthogonal_array(0, (entry,))
        assert (packed.cases, packed.failures) == _tuple_counter_thm2((entry,))
        failures += not packed.ok
    assert failures >= len(corpus) // 2
    # Two-byte cells (F17 at r = 2, F257 at r = 1, two bytes per value)
    # and four-byte cells (F257 at r = 2) are both reached.
    assert {(17, 2), (257, 2), (257, 4)} <= widths
    swapped = _swapped_pair_entry()
    result = verify_module._suite_orthogonal_array(0, (swapped,))
    assert (result.cases, result.failures) == _tuple_counter_thm2((swapped,))
    assert result.failures == ({
        "code": "swapped", "columns": [1, 2], "tuple": [2, 5], "count": 2, "expected": 1,
    },)
    whole = verify_module._suite_orthogonal_array(0, corpus)
    assert (whole.cases, whole.failures) == _tuple_counter_thm2(corpus)


def test_grouped_tallies_match_the_oracle():
    # Every exhaustive-half code with n <= 3, every known set and query, and
    # every member of every group: the groups partition the xs, each in
    # order, and each member's oracle table is its group's table.
    for n in (1, 2, 3):
        for code in verify_module._exhaustive_codes(n):
            xs = list(itertools.product((0, 1), repeat=n))
            broadcasts = {x: verify_module._broadcast(code, x) for x in xs}
            observations = [(x, broadcasts[x].entries) for x in xs]
            partitions = {}
            for known, block in verify_module._all_queries(n):
                if known not in partitions:
                    groups = verify_module._known_groups(known, observations)
                    assert sorted(x for group in groups for x in group) == xs
                    assert all(group == sorted(group) for group in groups)
                    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
                    partitions[known] = groups
                groups = partitions[known]
                tallies = verify_module._grouped_tallies(block, groups)
                assert [x for x, _ in tallies] == [group[0] for group in groups]
                query = SecurityQuery(n, known, block)
                for group, (_, counts) in zip(groups, tallies):
                    for x in group:
                        entropy = conditional_block_entropy(
                            code, query, {i: x[i - 1] for i in known}, broadcasts[x]
                        )
                        assert counts == entropy.counts


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("thm9")


def test_example_scheme_is_hamming():
    scheme = example_scheme()
    assert (scheme.code.length, scheme.code.dimension) == (7, 4)
    assert scheme.code.min_distance == 3
    assert scheme.code.dual_distance == 4


class TestBuiltinCorpus:
    def test_size_and_names(self):
        corpus = builtin_corpus(seed=0)
        assert len(corpus) == 53
        assert [e.name for e in corpus[:3]] == ["repetition3", "hamming7", "rs7_3"]

    def test_seed_determinism(self):
        a = builtin_corpus(seed=5)
        b = builtin_corpus(seed=5)
        c = builtin_corpus(seed=6)
        assert [e.code for e in a] == [e.code for e in b]
        assert [e.code for e in a] != [e.code for e in c]

    def test_random_codes_stay_enumerable(self):
        for entry in builtin_corpus(seed=0):
            code = entry.code
            assert code.field.q**code.dimension <= 4096
            assert 1 <= code.dimension <= code.length <= 8


class TestLoadCorpus:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                {
                    "codes": [
                        {
                            "name": "parity4",
                            "field": {"p": 2},
                            "generator": [
                                [1, 0, 0, 1],
                                [0, 1, 0, 1],
                                [0, 0, 1, 1],
                            ],
                            "claims": {"d": 2, "d_dual": 4},
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        entries = load_corpus(str(path))
        assert len(entries) == 1
        assert entries[0].name == "parity4"
        assert entries[0].code.min_distance == 2
        assert entries[0].claims == {"d": 2, "d_dual": 4}
        assert run_suite("thm1", extra=entries).ok

    def test_bad_claim_key_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(
            json.dumps(
                {
                    "codes": [
                        {
                            "name": "x",
                            "field": {"p": 2},
                            "generator": [[1, 1]],
                            "claims": {"weight": 2},
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(MalformedInstanceError):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "document",
        [
            {"codes": 7},
            {"codes": [3]},
            {"codes": [{"name": "x", "field": {"p": 2}, "generator": 5}]},
            {"codes": [{"name": "x", "field": {"p": 2}, "generator": [1, 1]}]},
        ],
        ids=["codes_not_list", "entry_not_object", "generator_not_list", "row_not_list"],
    )
    def test_malformed_structure_rejected(self, tmp_path, document):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(MalformedInstanceError):
            load_corpus(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("[", encoding="utf-8")
        with pytest.raises(MalformedInstanceError):
            load_corpus(str(path))


class TestFailureReporting:
    def test_wrong_claim_is_caught_with_context(self):
        entry = CorpusEntry(
            "liar",
            LinearCode.from_rows([Vector(Field(2), (1, 1, 1))]),
            {"d": 2},
        )
        result = run_suite("thm1", extra=(entry,))
        assert not result.ok
        failure = result.failures[0]
        assert failure["code"] == "liar"
        assert failure["check"] == "claim"
        assert failure["claimed"] == 2
        assert failure["measured"] == 3

    def test_orthogonal_array_suite_runs_extras(self):
        entry = CorpusEntry(
            "parity",
            LinearCode.from_rows(
                [Vector(Field(2), (1, 0, 1)), Vector(Field(2), (0, 1, 1))]
            ),
            {},
        )
        base = run_suite("thm2")
        extended = run_suite("thm2", extra=(entry,))
        assert extended.ok
        assert extended.cases > base.cases

    def test_corrupted_spectrum_fails_macwilliams(self):
        # [3, 1] repetition code whose cached walk is replaced by the
        # spectrum of span{110}: its transform is integral, (1, 1, 1, 1),
        # but the walked dual of the real code is (1, 0, 3, 0).
        code = LinearCode.from_rows([Vector(Field(2), (1, 1, 1))])
        code.__dict__["_spectrum"] = ((1, 0, 1, 0), {2: (1, 1, 0)})
        result = run_suite("thm1", extra=(CorpusEntry("corrupt", code, {}),))
        assert not result.ok
        failure = result.failures[0]
        assert (failure["code"], failure["check"]) == ("corrupt", "macwilliams")
        assert failure["walked"] == [1, 0, 3, 0]

    def test_later_first_of_weight_fails_spectrum(self):
        # Hamming [7, 4] whose weight-3 witness is swapped for a later
        # weight-3 codeword: the counts, and so MacWilliams, still hold.
        code = LinearCode.from_rows([Vector(Field(2), row) for row in (
            (1, 0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1),
        )])
        counts, firsts = code._spectrum
        later = [w for w in code.codewords() if sum(map(bool, w)) == 3][1]
        assert later != firsts[3]
        code.__dict__["_spectrum"] = (counts, {**firsts, 3: later})
        result = run_suite("thm1", extra=(CorpusEntry("swapped", code, {}),))
        assert not result.ok
        assert result.cases == run_suite("thm1").cases + 2
        failure = result.failures[0]
        assert (failure["code"], failure["check"]) == ("swapped", "spectrum")
        assert failure["first"] == [3, list(later)]
        assert failure["walked_first"] == [3, list(firsts[3])]

    def test_search_skipping_a_subtree_fails_search(self, monkeypatch):
        # A search that reports each weight's second word instead of its
        # first: hamming7 has seven weight-3 codewords.
        original = verify_module._first_of_each_weight

        def second(field, rows, n, weights):
            firsts = original(field, rows, n, weights)
            for word in iterate_span(field, rows, n):
                w = n - word.count(0)
                if w in firsts and word != firsts[w] and w == 3:
                    return {**firsts, 3: word}
            return firsts

        monkeypatch.setattr(verify_module, "_first_of_each_weight", second)
        result = run_suite("thm1")
        assert not result.ok
        failure = result.failures[0]
        assert (failure["code"], failure["check"]) == ("hamming7", "search")
        assert failure["walked_first"][0] == 3

    def test_certificate_passing_everything_fails(self, monkeypatch):
        # A certificate that accepts every code: repetition3 is MDS, so the
        # first failure is the first corpus code that is not.
        monkeypatch.setattr(verify_module, "_certified_mds", lambda code: True)
        result = run_suite("thm1")
        assert not result.ok
        failure = result.failures[0]
        assert (failure["code"], failure["check"]) == ("hamming7", "mds_certificate")
        assert (failure["certified"], failure["walked_mds"]) == (True, False)

    def test_grs_test_passing_everything_fails(self, monkeypatch):
        # A GRS test that accepts every code gives hamming7, the first
        # corpus code that is not MDS, the closed form of an MDS [7, 4]
        # code, which some check of thm1 must catch.
        monkeypatch.setattr(LinearCode, "_grs_certified", lambda self: True)
        result = run_suite("thm1")
        assert not result.ok
        assert result.failures[0]["code"] == "hamming7"

    def test_grs_test_passing_after_the_route_fails_its_check(self, monkeypatch):
        # A GRS test that answers truly while the spectrum is routed and
        # accepts every code after: only the grs_certificate check sees it.
        original = LinearCode._grs_certified
        monkeypatch.setattr(
            LinearCode, "_grs_certified",
            lambda self: "_spectrum" in vars(self) or original(self),
        )
        result = run_suite("thm1")
        assert not result.ok
        failure = result.failures[0]
        assert (failure["code"], failure["check"]) == ("hamming7", "grs_certificate")

    def test_wrong_dual_walk_fails_first_hit(self, monkeypatch):
        # A walk that answers with the last t indices instead of the first:
        # repetition3 has d_dual = 2, and at t = 1 the scan's hit is {1}.
        def last_indices(code):
            threshold = code.length - code.dual_distance + 1
            return [tuple(range(code.length - t + 1, code.length + 1)) for t in range(threshold)]

        monkeypatch.setattr(verify_module, "_dual_first_hits", last_indices)
        result = run_suite("thm1")
        assert not result.ok
        failure = result.failures[0]
        assert (failure["code"], failure["check"], failure["t"]) == ("repetition3", "first_hit", 1)
        assert (failure["walk"], failure["scan"]) == ([3], [1])

    def test_corrupted_transform_fails_macwilliams(self, monkeypatch):
        original = code_module._macwilliams

        def shifted(distribution, q, dimension):
            dual = list(original(distribution, q, dimension))
            w = next(j for j in range(1, len(dual)) if dual[j])
            dual[w - 1], dual[w] = dual[w - 1] + dual[w], 0
            return tuple(dual)

        monkeypatch.setattr(code_module, "_macwilliams", shifted)
        result = run_suite("thm1")
        assert not result.ok
        failure = result.failures[0]
        assert failure["check"] == "macwilliams"
        assert failure["d_dual"] == failure["walked_d_dual"] - 1

    def test_swapped_candidates_fail_list_order(self, monkeypatch):
        original = verify_module.list_attack

        def swapped(code, view):
            candidates = list(original(code, view))
            if len(candidates) > 1:
                candidates[0], candidates[1] = candidates[1], candidates[0]
            return tuple(candidates)

        monkeypatch.setattr(verify_module, "list_attack", swapped)
        result = run_suite("thm3")
        assert not result.ok
        failure = result.failures[0]
        assert failure["check"] == "list_order"
        assert result.cases <= 447

    def test_dropped_particular_solution_fails_list_end(self, monkeypatch):
        # Without the particular solution the columns span the kernel: the
        # list keeps its size and order but misses the broadcast.
        original = security_module._read_solution

        def dropped(field, reduced, pivots, width):
            return (0,) * width, original(field, reduced, pivots, width)[1]

        monkeypatch.setattr(security_module, "_read_solution", dropped)
        result = run_suite("thm3")
        assert not result.ok
        failure = result.failures[0]
        assert failure["check"] == "list_end"
        assert failure["candidate"] != failure["x"]
        assert result.cases <= 447

    def test_flipped_attack_value_fails_attack_route(self, monkeypatch):
        # At the thm4 threshold every reduced row recovers an index, so
        # shifting the first row's right-hand side corrupts one value.
        original = security_module._reduce_unknowns

        def flipped(code, known, broadcast):
            unknown, reduced, pivots = original(code, known, broadcast)
            reduced[0][-1] = code.field.add(reduced[0][-1], 1)
            return unknown, reduced, pivots

        monkeypatch.setattr(security_module, "_reduce_unknowns", flipped)
        result = run_suite("thm4")
        assert not result.ok
        failure = result.failures[0]
        assert failure["check"] == "attack_route"
        assert failure["attack"] != failure["confined"]

    # Expected failures were recorded with the exhaustive codes in
    # combinations order. Calls 1000 and 1022 land in the exhaustive half
    # (a true and the next false rank answer), call 4600 in the random half.
    @pytest.mark.parametrize(
        "call,failure",
        [
            (1000, {"algebraic": False, "block": [1], "check": "routes_disagree",
                    "field": {"m": 1, "p": 2}, "generator": [[1, 1, 0, 1]],
                    "known": [4], "oracle": True}),
            (1022, {"algebraic": True, "block": [4], "check": "routes_disagree",
                    "field": {"m": 1, "p": 2}, "generator": [[0, 0, 1, 1]],
                    "known": [1, 2, 3], "oracle": False}),
            (4600, {"algebraic": False, "block": [3], "check": "routes_disagree",
                    "field": {"m": 1, "p": 2}, "generator": [[0, 0, 0, 0, 1]],
                    "known": [4], "oracle": True}),
        ],
        ids=["exhaustive_true", "exhaustive_false", "random"],
    )
    def test_one_wrong_rank_answer_fails_routes_disagree(self, monkeypatch, call, failure):
        original = verify_module.has_no_information
        calls = 0

        def wrong_once(code, query):
            nonlocal calls
            calls += 1
            answer = original(code, query)
            return not answer if calls == call else answer

        monkeypatch.setattr(verify_module, "has_no_information", wrong_once)
        result = run_suite("lemma3")
        assert (result.cases, result.failures) == (call, (failure,))
