"""Property suites that re-check the library's claims at desk scale.

Five suites, named after the facts they exercise (the CLI exposes the
names thm1 .. thm4 and lemma3):

  thm1    singleton bound, MDS consistency, the MacWilliams dual spectrum
          against a walk of the dual, the spectrum and first codeword of
          each weight (whichever route produced them) against a plain walk
          over every codeword, and on that walk's weights the pruned
          first-of-weight search, the C(n, k) MDS certificate and the GRS
          test; the report's counterexamples, known sets and hidden
          indices, and the dual walk's known sets against a scan that
          reduces every known set (on the corpus, and on a binary [16, 8]
          probe past the report scan's budget), and per-code distance
          claims
  thm2    orthogonal-array counts in every <= d_dual - 1 column set
  lemma3  algebraic no-information test against brute force: every
          binary instance with n <= 4 and up to 3 receivers, each distinct
          code's message vectors grouped once per known set by what that
          adversary observes and checked per query by one tally per
          group, then 1000 seeded random instances against the public
          conditional_block_entropy oracle
  thm3    distance-derived security floors, weight witnesses, list attacks
          with their size, membership, strictly increasing order, and
          first and last entries consistent with the observation, and the
          text attack --list prints for them against a % format of each
          candidate (on the corpus its line count and end lines; on a
          probe over F17, past the packed byte columns, and one over F251,
          with three-digit values, every line)
  thm4    guaranteed full recovery at strength n - d_dual + 1, with the
          one-reduction attack checked index by index against
          LinearCode.confined_combination

Suites run against a built-in corpus (three named codes plus 50 seeded
random ones; the probes add no counted case) and stop at the first
failing case, so a reported failure is the smallest one in a fixed scan
order. Extra corpus entries can be appended from a file; claim checking
in thm1 then doubles as a harness self-test, since a corrupted generator
entry must surface as a failure.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

from .algebra import Field, Matrix, Vector
from .code import (
    EmptyInputError,
    LinearCode,
    MAX_ENUMERATION,
    MAX_SPACE,
    MacWilliamsError,
    TooLargeToEnumerateError,
    ZeroCodeError,
    _count_tuples,
    _dual_first_hits,
    _first_of_each_weight,
    _macwilliams,
    _walk_spectrum,
    reed_solomon_code,
)
from .icsi import (
    IcsiInstance,
    MalformedInstanceError,
    build_scheme,
    default_choice_vectors,
)
from .rng import Rng
from .security import (
    SCAN_BUDGET,
    AdversaryView,
    AttackOutcome,
    ListTooLargeError,
    RankDeficientError,
    SecurityQuery,
    _candidate_text,
    _complete_insecurity_exhaustive,
    _first_counterexamples,
    block_security_level,
    complete_insecurity_attack,
    conditional_block_entropy,
    has_no_information,
    list_attack,
    weak_security_witness,
)

RANDOM_CORPUS_SIZE = 50
RANDOM_CORPUS_WORDS = 4096


@dataclass(frozen=True)
class CorpusEntry:
    """A code under test, optionally with externally claimed parameters."""

    name: str
    code: LinearCode
    claims: dict


@dataclass(frozen=True)
class SuiteResult:
    name: str
    label: str
    cases: int
    failures: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def example_scheme():
    """The seven-receiver demonstration instance whose broadcast code is the
    [7, 4] Hamming code, under the indicator choice policy."""
    field = Field(2)
    sides = ({6, 7}, {5, 7}, {5, 6}, {5, 6, 7}, {1, 2, 6}, {1, 3, 4}, {2, 3, 6})
    instance = IcsiInstance(
        field, 7, tuple(frozenset(s) for s in sides), (1, 2, 3, 4, 5, 6, 7)
    )
    return build_scheme(instance, default_choice_vectors(instance, "indicator"))


def builtin_corpus(seed: int = 0) -> tuple[CorpusEntry, ...]:
    """Three named codes with claimed parameters, plus seeded random codes
    over F_2, F_3, F_4 with n <= 8 and at most 4096 codewords each."""
    f2 = Field(2)
    entries = [
        CorpusEntry(
            "repetition3",
            LinearCode.from_rows([Vector(f2, (1, 1, 1))]),
            {"d": 3, "d_dual": 2},
        ),
        CorpusEntry("hamming7", example_scheme().code, {"d": 3, "d_dual": 4}),
        CorpusEntry("rs7_3", reed_solomon_code(7, 3, Field(2, 3)), {"d": 5, "d_dual": 4}),
    ]
    rng = Rng(seed)
    fields = (f2, Field(3), Field(2, 2))
    count = 0
    while count < RANDOM_CORPUS_SIZE:
        field = fields[rng.below(len(fields))]
        n = 3 + rng.below(6)
        k = 1 + rng.below(n)
        if field.q ** k > RANDOM_CORPUS_WORDS:
            continue
        rows = tuple(tuple(rng.below(field.q) for _ in range(n)) for _ in range(k))
        try:
            code = LinearCode(Matrix(field, rows))
        except ZeroCodeError:
            continue
        count += 1
        entries.append(CorpusEntry(f"random{count:02d}", code, {}))
    return tuple(entries)


def load_corpus(path: str) -> tuple[CorpusEntry, ...]:
    """Extra corpus entries from a JSON file:

    {"codes": [{"name": ..., "field": {"p": ..., "m": ..., "poly": ...},
                "generator": [[...], ...], "claims": {"d": ..., "d_dual": ...}}]}
    """
    from .fileio import _as_int, _parse_field, _require_keys

    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MalformedInstanceError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MalformedInstanceError("corpus document must be a JSON object")
    _require_keys(doc, {"codes"}, {"codes"}, "corpus")
    if not isinstance(doc["codes"], list):
        raise MalformedInstanceError("corpus 'codes' must be a list")
    entries = []
    for i, item in enumerate(doc["codes"], start=1):
        if not isinstance(item, dict):
            raise MalformedInstanceError(f"corpus code {i} must be an object")
        _require_keys(item, {"name", "field", "generator", "claims"}, {"name", "field", "generator"}, f"corpus code {i}")
        if not isinstance(item["name"], str):
            raise MalformedInstanceError(f"corpus code {i}: name must be a string")
        field = _parse_field(item["field"])
        generator = item["generator"]
        if not isinstance(generator, list) or not all(isinstance(row, list) for row in generator):
            raise MalformedInstanceError(f"corpus code {i}: generator must be a list of lists")
        code = LinearCode(Matrix(field, tuple(tuple(row) for row in generator)))
        claims = item.get("claims", {})
        if not isinstance(claims, dict) or set(claims) - {"d", "d_dual"}:
            raise MalformedInstanceError(f"corpus code {i}: claims may set only d and d_dual")
        for key, value in claims.items():
            _as_int(value, f"corpus code {i}: claim {key}")
        entries.append(CorpusEntry(item["name"], code, dict(claims)))
    return tuple(entries)


def _broadcast(code: LinearCode, x: tuple[int, ...]) -> Vector:
    return code.generator.times_col(Vector(code.field, x))


def _macwilliams_mismatch(code: LinearCode) -> Optional[dict]:
    """Where the dual fits the enumeration guard, check the MacWilliams
    transform of the code's weight distribution, and the dual distance read
    from it, against the spectrum of one walk over the dual's own words.
    Returns the disagreement, or None when they agree or the dual is too
    big to walk."""
    n, k, q = code.length, code.dimension, code.field.q
    if k == n or q ** (n - k) > MAX_ENUMERATION:
        return None
    walked = _walk_spectrum(code.field, code.dual.generator.entries, n)[0]
    walked_d_dual = next(w for w in range(1, n + 1) if walked[w])
    try:
        transformed = _macwilliams(code.weight_distribution, q, k)
    except MacWilliamsError as exc:
        return {"error": str(exc), "walked": list(walked)}
    if transformed != walked or code.dual_distance != walked_d_dual:
        return {
            "transformed": list(transformed), "walked": list(walked),
            "d_dual": code.dual_distance, "walked_d_dual": walked_d_dual,
        }
    return None


def _spectrum_mismatch(code: LinearCode) -> Optional[dict]:
    """Where the code fits the enumeration guard, check its weight
    distribution and first codeword of each weight, entries and order,
    against a plain walk over codewords() that looks at every codeword.
    The same walk then checks the parts of the other route, whichever
    route the code took: the pruned search over the walked weights, the
    C(n, k) MDS certificate against d = n - k + 1, and the GRS test, which
    may pass only where d = n - k + 1. Returns the first disagreement,
    with its check name, or None."""
    n, k = code.length, code.dimension
    if code.field.q ** k > MAX_ENUMERATION:
        return None
    counts = [0] * (n + 1)
    firsts: dict[int, tuple[int, ...]] = {}
    for word in code.codewords():
        w = n - word.count(0)
        if w and not counts[w]:
            firsts[w] = word
        counts[w] += 1
    if tuple(counts) != code.weight_distribution:
        return {"check": "spectrum", "distribution": list(code.weight_distribution), "walked": counts}
    searched = _first_of_each_weight(code.field, code.generator.entries, n, firsts)
    for check, got_firsts in (("spectrum", code.first_of_weight), ("search", searched)):
        for got, walked in itertools.zip_longest(got_firsts.items(), firsts.items()):
            if got != walked:
                return {
                    "check": check,
                    "first": None if got is None else [got[0], list(got[1])],
                    "walked_first": None if walked is None else [walked[0], list(walked[1])],
                }
    walked_mds = next(w for w in range(1, n + 1) if counts[w]) == n - k + 1
    if code._certified_mds() != walked_mds:
        return {"check": "mds_certificate", "certified": not walked_mds, "walked_mds": walked_mds}
    if code._grs_certified() and not walked_mds:
        return {"check": "grs_certificate", "certified": True, "walked_mds": False}
    return None


def _first_hit_mismatch(code: LinearCode, budget: float = SCAN_BUDGET) -> Optional[dict]:
    """Where the searched strengths fit `budget` known sets, check at every
    strength below n - d_dual + 1 the report's own counterexample
    (_first_counterexamples, by whichever route it takes) against the
    scan that reduces every known set, and the dual walk's first hit
    against the scan's unless the walk refuses. Returns the first
    disagreement, or None."""
    n, k = code.length, code.dimension
    threshold = n - code.dual_distance + 1
    scan = sum(math.comb(n, t) for t in range(n - k, threshold))
    if k == n or scan > budget:
        return None
    reported = _first_counterexamples(code, threshold)
    try:
        walked: Optional[list] = _dual_first_hits(code)
    except TooLargeToEnumerateError:
        walked = None
    for t in range(threshold):
        hit = _complete_insecurity_exhaustive(code, t)
        scanned = None if hit is None else sorted(hit.known)
        if walked is not None:
            walk = list(walked[t]) if t < len(walked) else None
            if walk != scanned:
                return {"t": t, "walk": walk, "scan": scanned}
        report = reported[t] if t < len(reported) else None
        if report != hit:
            return {
                "t": t, "scan": scanned, "scan_hidden": hit and hit.resisted,
                "report": report and sorted(report.known), "report_hidden": report and report.resisted,
            }
    return None


def _suite_singleton(seed: int, corpus: tuple[CorpusEntry, ...]) -> SuiteResult:
    cases = 0
    for entry in corpus:
        code = entry.code
        n, k = code.length, code.dimension
        d = code.min_distance
        cases += 1
        if d > n - k + 1:
            return _done("thm1", cases, {
                "code": entry.name, "check": "singleton", "n": n, "k": k, "d": d,
            })
        cases += 1
        if code.is_mds != (d == n - k + 1):
            return _done("thm1", cases, {
                "code": entry.name, "check": "mds_flag", "n": n, "k": k, "d": d,
            })
        mismatch = _macwilliams_mismatch(code)
        if mismatch is not None:
            return _done("thm1", cases, {"code": entry.name, "check": "macwilliams", **mismatch})
        mismatch = _spectrum_mismatch(code)
        if mismatch is not None:
            return _done("thm1", cases, {"code": entry.name, **mismatch})
        mismatch = _first_hit_mismatch(code)
        if mismatch is not None:
            return _done("thm1", cases, {"code": entry.name, "check": "first_hit", **mismatch})
        measured = {"d": d, "d_dual": code.dual_distance}
        for key, claimed in sorted(entry.claims.items()):
            cases += 1
            if measured[key] != claimed:
                return _done("thm1", cases, {
                    "code": entry.name, "check": "claim", "parameter": key,
                    "claimed": claimed, "measured": measured[key],
                })
    # Route probe, no counted case: a binary [16, 8] code with d_dual = 3 has 39,066 known sets
    # to search, past SCAN_BUDGET, so its report walks the dual; here it meets an unbudgeted scan.
    rng = Rng(8)
    rows = tuple(tuple(rng.below(2) for _ in range(16)) for _ in range(8))
    mismatch = _first_hit_mismatch(LinearCode(Matrix(Field(2), rows)), budget=math.inf)
    if mismatch is not None:
        return _done("thm1", cases, {"code": "rand16_8_f2", "check": "first_hit", **mismatch})
    return _done("thm1", cases, None)


def _suite_orthogonal_array(seed: int, corpus: tuple[CorpusEntry, ...]) -> SuiteResult:
    cases = 0
    for entry in corpus:
        code = entry.code
        n, k, q = code.length, code.dimension, code.field.q
        strength = min(code.dual_distance - 1, n)
        # One walk per code fills every column subset's table.
        words = tuple(code.codewords()) if strength else ()
        for r in range(1, strength + 1):
            if q ** r > MAX_SPACE:
                break
            expected = q ** (k - r)
            for positions in itertools.combinations(range(1, n + 1), r):
                counts = _count_tuples(words, q, positions)
                cases += 1
                bad = next((t for t, c in sorted(counts.items()) if c != expected), None)
                if bad is not None:
                    return _done("thm2", cases, {
                        "code": entry.name, "columns": list(positions),
                        "tuple": list(bad), "count": counts[bad], "expected": expected,
                    })
    return _done("thm2", cases, None)


def _all_queries(n: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    queries = []
    for assignment in itertools.product((0, 1, 2), repeat=n):
        block = frozenset(i + 1 for i, a in enumerate(assignment) if a == 1)
        if not block:
            continue
        known = frozenset(i + 1 for i, a in enumerate(assignment) if a == 0)
        queries.append((known, block))
    return queries


def _routes_disagree(code: LinearCode, known, block, tallies) -> Optional[dict]:
    """Compare the rank test against the oracle's block tallies.

    `tallies` yields (x, counts) pairs in scan order, where counts is the
    table of block values over every message vector that agrees with x on
    the known set and in the broadcast: one pair per observation, the
    first x to make it standing for every x that shares it. Returns the
    first failure (unequal counts for some x, or the two routes
    disagreeing), or None."""
    algebraic = has_no_information(code, SecurityQuery(code.length, known, block))
    space = code.field.q ** len(block)
    oracle = True
    for x, counts in tallies:
        if len(set(counts.values())) != 1:
            return {
                "check": "unequal_counts", "generator": [list(r) for r in code.generator.entries],
                "known": sorted(known), "block": sorted(block), "x": list(x),
            }
        if len(counts) < space:
            oracle = False
            break
    if algebraic != oracle:
        return {
            "check": "routes_disagree", "generator": [list(r) for r in code.generator.entries],
            "field": {"p": code.field.p, "m": code.field.m},
            "known": sorted(known), "block": sorted(block),
            "algebraic": algebraic, "oracle": oracle,
        }
    return None


def _known_groups(known, observations) -> list[list[tuple[int, ...]]]:
    """Partition the x of `observations`, which holds each (x, Gx) once, by
    what an adversary holding `known` sees: x_K and the broadcast Gx.
    Groups come in the order of their first members, and members in the
    given order. Brute force only: no rank, solve or span machinery."""
    known_idx = [i - 1 for i in sorted(known)]
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for x, s in observations:
        groups.setdefault((tuple([x[i] for i in known_idx]), s), []).append(x)
    return list(groups.values())


def _grouped_tallies(block, groups) -> list[tuple[tuple[int, ...], dict]]:
    """The oracle's count table of the block values over each group of
    _known_groups, which every member of the group shares, paired with the
    group's first member."""
    block_idx = [i - 1 for i in sorted(block)]
    tallies = []
    for group in groups:
        counts: dict[tuple[int, ...], int] = {}
        for x in group:
            values = tuple([x[i] for i in block_idx])
            counts[values] = counts.get(values, 0) + 1
        tallies.append((group[0], counts))
    return tallies


def _exhaustive_codes(n: int):
    """Distinct broadcast codes of binary instances with n messages and up
    to 3 receivers, under the indicator then the zero policy, in the order a
    product walk over all n * 2^n receivers (demand, then side-information
    mask) first meets them. A receiver matters only through its pair of
    rows, and one whose side information holds its demand has no row, so
    the walk runs over the distinct pairs alone. Distinct instances
    overwhelmingly share their code, so row sets are deduplicated first and
    reduced generators second."""
    f2 = Field(2)
    pairs = [
        (mask | 1 << f, 1 << f)
        for f in range(n)
        for mask in range(1 << n)
        if not mask >> f & 1
    ]
    seen_rowsets: set[frozenset[int]] = set()
    swept: set[tuple] = set()
    for m in range(1, 4):
        for combo in itertools.product(pairs, repeat=m):
            for policy in (0, 1):
                masks = frozenset(pair[policy] for pair in combo)
                if masks in seen_rowsets:
                    continue
                seen_rowsets.add(masks)
                code = LinearCode.from_rows([
                    Vector(f2, tuple(mask >> j & 1 for j in range(n)))
                    for mask in sorted(masks)
                ])
                if code.generator.entries not in swept:
                    swept.add(code.generator.entries)
                    yield code


def _suite_oracle_equivalence(seed: int, corpus: tuple[CorpusEntry, ...]) -> SuiteResult:
    cases = 0
    f2 = Field(2)

    # Exhaustive half: every instance with n <= 4 and up to 3 receivers over
    # F_2, under both default policies; each distinct code is swept once
    # against all queries. The 2^n message vectors are grouped by each
    # known set's observation (x_K, Gx) once per code, and per query one
    # tally per group gives the oracle's count table for all its members.
    for n in range(1, 5):
        queries = _all_queries(n)
        known_sets = {known for known, _ in queries}
        for code in _exhaustive_codes(n):
            observations = [
                (x, _broadcast(code, x).entries)
                for x in itertools.product((0, 1), repeat=n)
            ]
            partitions = {known: _known_groups(known, observations) for known in known_sets}
            for known, block in queries:
                cases += 1
                tallies = _grouped_tallies(block, partitions[known])
                failure = _routes_disagree(code, known, block, tallies)
                if failure is not None:
                    return _done("lemma3", cases, failure)

    # Random half: seeded instances with n in {5, 6} over F_2 and F_3,
    # mixing default policies with random confined choice vectors; one
    # seeded observation per query suffices because the conditional count
    # table of a linear scheme is translation invariant.
    rng = Rng(seed)
    fields = (f2, Field(3))
    for _ in range(1000):
        field = fields[rng.below(2)]
        q = field.q
        n = 5 + rng.below(2)
        universe = tuple(range(1, n + 1))
        m = 1 + rng.below(4)
        while True:
            sides = tuple(
                frozenset(rng.subset(universe, rng.below(n))) for _ in range(m)
            )
            demands = tuple(1 + rng.below(n) for _ in range(m))
            instance = IcsiInstance(field, n, sides, demands)
            mode = ("indicator", "zero", "confined")[rng.below(3)]
            if mode == "confined":
                vectors = tuple(
                    Vector(field, tuple(
                        rng.below(q) if j in side else 0 for j in universe
                    ))
                    for side in sides
                )
            else:
                vectors = default_choice_vectors(instance, mode)
            try:
                scheme = build_scheme(instance, vectors)
            except EmptyInputError:
                continue
            break
        code = scheme.code
        for _ in range(3):
            t = rng.below(n - 1)
            known = frozenset(rng.subset(universe, t))
            rest = tuple(sorted(set(universe) - known))
            block = frozenset(rng.subset(rest, 1 + rng.below(len(rest))))
            x = tuple(rng.below(q) for _ in range(n))
            entropy = conditional_block_entropy(
                code, SecurityQuery(n, known, block),
                {i: x[i - 1] for i in known}, _broadcast(code, x),
            )
            cases += 1
            failure = _routes_disagree(code, known, block, [(x, entropy.counts)])
            if failure is not None:
                return _done("lemma3", cases, failure)
    return _done("lemma3", cases, None)


def _suite_security_thresholds(seed: int, corpus: tuple[CorpusEntry, ...]) -> SuiteResult:
    cases = 0
    rng = Rng(seed)
    for entry in corpus:
        code = entry.code
        n, k = code.length, code.dimension
        field = code.field
        d = code.min_distance
        for t in range(max(0, d - 1)):
            cases += 1
            if block_security_level(code, t) < d - 1 - t:
                return _done("thm3", cases, {
                    "code": entry.name, "check": "guaranteed_floor", "t": t,
                    "measured": block_security_level(code, t), "floor": d - 1 - t,
                })
        distribution = code.weight_distribution
        for w in range(1, n + 1):
            if distribution[w] == 0:
                continue
            cases += 1
            witness = weak_security_witness(code, w - 1)
            if witness is None or len(witness.known) != w - 1:
                return _done("thm3", cases, {
                    "code": entry.name, "check": "witness_missing", "weight": w,
                })
            x = tuple(rng.below(field.q) for _ in range(n))
            s = _broadcast(code, x)
            value = field.sub(
                witness.coefficients.dot(s),
                witness.combination.dot(Vector(field, x)),
            )
            if value != x[witness.exposed - 1]:
                return _done("thm3", cases, {
                    "code": entry.name, "check": "witness_wrong_value", "weight": w,
                    "exposed": witness.exposed, "recovered": value,
                    "actual": x[witness.exposed - 1],
                })
    for _ in range(200):
        entry = corpus[rng.below(len(corpus))]
        code = entry.code
        t = rng.below(code.min_distance)
        known = rng.subset(tuple(range(1, code.length + 1)), t)
        x = tuple(rng.below(code.field.q) for _ in range(code.length))
        cases += 1
        failure = _list_mismatch(code, known, x)
        if failure is not None:
            return _done("thm3", cases, {"code": entry.name, **failure})
    # Route probes, no counted case, each with its full text checked: past
    # q = 16 the list is built in list columns, a branch no corpus field
    # reaches (17 candidates at t = n - k - 1), and F251 writes three-digit
    # values (251 candidates).
    probes = (
        ("rs6_3_f17", reed_solomon_code(6, 3, Field(17)), (1, 2), (3, 14, 1, 5, 9, 16)),
        ("rs4_2_f251", reed_solomon_code(4, 2, Field(251)), (3,), (250, 7, 100, 38)),
    )
    for name, code, known, x in probes:
        failure = _list_mismatch(code, known, x, full_text=True)
        if failure is not None:
            return _done("thm3", cases, {"code": name, **failure})
    return _done("thm3", cases, None)


def _list_mismatch(
    code: LinearCode, known, x: tuple[int, ...], full_text: bool = False
) -> Optional[dict]:
    """Check the list attack of an adversary holding `known` against the
    observation of x: its order, its two ends, its size q^(n-t-k) and that
    it holds x, and the text attack --list prints against the % format of
    each candidate: its line count and two end lines, or with `full_text`
    every line. Returns the first failing check, or None."""
    field = code.field
    s = _broadcast(code, x)
    facts = {"t": len(known), "known": sorted(known), "x": list(x)}
    try:
        candidates = list_attack(code, AdversaryView.of({i: x[i - 1] for i in known}, s))
    except (RankDeficientError, ListTooLargeError) as exc:
        return {"check": "list_attack_refused", **facts, "error": type(exc).__name__}
    # list_attack orders its candidates without a sort, so the order is
    # checked here; it costs one comparison per candidate.
    if any(a.entries >= b.entries for a, b in zip(candidates, candidates[1:])):
        return {"check": "list_order", **facts}
    # The ends of the list are checked against the observation through
    # the generator product, which the column construction never uses;
    # a pass over every candidate would more than double the suite's time.
    for end in (candidates[0], candidates[-1]):
        z = end.entries
        if any(z[i - 1] != x[i - 1] for i in known) or _broadcast(code, z) != s:
            return {"check": "list_end", **facts, "candidate": list(z)}
    expected = field.q ** (code.length - len(known) - code.dimension)
    if len(candidates) != expected or Vector(field, x) not in candidates:
        return {
            "check": "list_attack", **facts, "list_size": len(candidates),
            "expected_size": expected, "contains_x": Vector(field, x) in candidates,
        }
    # The text is written from the candidates' coordinate columns, which
    # hold the values attack --list writes. Formatting every candidate of a
    # corpus list would add about a fifth to the suite's time; the probes
    # pay it.
    text = _candidate_text(list(zip(*[c.entries for c in candidates])), field.q)
    row_format = ",".join(["%d"] * code.length) + "\n"
    if full_text:
        wrong = text != "".join([row_format % c.entries for c in candidates])
    else:
        wrong = (
            text.count("\n") != len(candidates)
            or not text.startswith(row_format % candidates[0].entries)
            or not text.endswith(row_format % candidates[-1].entries)
        )
    if wrong:
        return {"check": "list_text", **facts, "text_head": text[:200]}
    return None


def _attack_route_mismatch(
    code: LinearCode, view: AdversaryView, outcome: AttackOutcome
) -> Optional[dict]:
    """Check the one-reduction attack against one confined_combination solve
    per unknown index: a recovered index needs a combination whose value
    y . s - c . x_K is the same, a resisted one must have none. Returns the
    first disagreement, or None."""
    field = code.field
    known = view.mapping
    values = outcome.mapping
    for i in sorted(set(range(1, code.length + 1)) - known.keys()):
        found = code.confined_combination(known.keys(), i)
        slow = None
        if found is not None:
            y, c = found
            acc = 0
            for idx, v in known.items():
                acc = field.add(acc, field.mul(c.at(idx), v))
            slow = field.sub(y.dot(view.broadcast), acc)
        if values.get(i) != slow:
            return {"index": i, "attack": values.get(i), "confined": slow}
    return None


def _suite_full_recovery(seed: int, corpus: tuple[CorpusEntry, ...]) -> SuiteResult:
    cases = 0
    rng = Rng(seed)
    for entry in corpus:
        code = entry.code
        n, q = code.length, code.field.q
        threshold = n - code.dual_distance + 1
        if threshold > n - 1:
            continue
        for known in itertools.combinations(range(1, n + 1), threshold):
            x = tuple(rng.below(q) for _ in range(n))
            view = AdversaryView.of({i: x[i - 1] for i in known}, _broadcast(code, x))
            outcome = complete_insecurity_attack(code, view)
            cases += 1
            mismatch = _attack_route_mismatch(code, view, outcome)
            if mismatch is not None:
                return _done("thm4", cases, {
                    "code": entry.name, "check": "attack_route", "known": list(known),
                    **mismatch,
                })
            if not outcome.complete:
                return _done("thm4", cases, {
                    "code": entry.name, "known": list(known),
                    "resisted": list(outcome.resisted),
                })
            wrong = next(
                (i for i, v in outcome.recovered if v != x[i - 1]), None
            )
            if wrong is not None:
                return _done("thm4", cases, {
                    "code": entry.name, "known": list(known), "index": wrong,
                    "recovered": outcome.mapping[wrong], "actual": x[wrong - 1],
                })
    return _done("thm4", cases, None)


_SUITES = {
    "thm1": ("singleton bound and distance claims", _suite_singleton),
    "thm2": ("orthogonal-array counts", _suite_orthogonal_array),
    "lemma3": ("no-information test vs enumeration oracle", _suite_oracle_equivalence),
    "thm3": ("security floors, witnesses, list attacks", _suite_security_thresholds),
    "thm4": ("full recovery past the dual-distance threshold", _suite_full_recovery),
}

SUITE_NAMES = tuple(_SUITES)


def _done(name: str, cases: int, failure) -> SuiteResult:
    label = _SUITES[name][0]
    failures = () if failure is None else (failure,)
    return SuiteResult(name=name, label=label, cases=cases, failures=failures)


def run_suite(name: str, seed: int = 0, extra: tuple[CorpusEntry, ...] = ()) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    corpus = builtin_corpus(seed) + tuple(extra)
    return _SUITES[name][1](seed, corpus)
