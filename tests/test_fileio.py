"""Instance parsing and report serialization tests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from icsisec.algebra import Field, Matrix, Vector
from icsisec.code import LinearCode, ZeroCodeError, reed_solomon_code
from icsisec.fileio import (
    TOOL_VERSION,
    dumps_report,
    load_instance,
    parse_instance,
    report_to_dict,
)
from icsisec.icsi import MalformedInstanceError, build_scheme
from icsisec.rng import Rng
from icsisec.security import security_report

ROOT = Path(__file__).resolve().parent.parent

HAMMING_DOC = {
    "field": {"p": 2},
    "n": 7,
    "receivers": [
        {"side_info": [6, 7], "demand": 1},
        {"side_info": [5, 7], "demand": 2},
        {"side_info": [5, 6], "demand": 3},
        {"side_info": [5, 6, 7], "demand": 4},
        {"side_info": [1, 2, 6], "demand": 5},
        {"side_info": [1, 3, 4], "demand": 6},
        {"side_info": [2, 3, 6], "demand": 7},
    ],
}


def doc(**overrides):
    out = {k: json.loads(json.dumps(v)) for k, v in HAMMING_DOC.items()}
    out.update(overrides)
    return out


class TestParseInstance:
    def test_happy_path(self):
        loaded = parse_instance(doc())
        assert loaded.instance.n == 7
        assert loaded.instance.m == 7
        assert loaded.notices == ()
        assert loaded.choice_vectors[0].entries == (0, 0, 0, 0, 0, 1, 1)
        scheme = build_scheme(loaded.instance, loaded.choice_vectors)
        assert scheme.code.dimension == 4

    def test_zero_policy(self):
        loaded = parse_instance(doc(choice_policy="zero"))
        assert all(not v.support() for v in loaded.choice_vectors)

    def test_extension_field(self):
        document = {
            "field": {"p": 2, "m": 3, "poly": [1, 1, 0, 1]},
            "n": 2,
            "receivers": [{"side_info": [2], "demand": 1}],
        }
        loaded = parse_instance(document)
        assert loaded.instance.field.q == 8

    def test_multi_demand_split_with_notice(self):
        document = {
            "field": {"p": 2},
            "n": 3,
            "receivers": [
                {"side_info": [3], "demand": [2, 1]},
                {"side_info": [1], "demand": 2},
            ],
        }
        loaded = parse_instance(document)
        assert loaded.instance.demands == (1, 2, 2)
        assert loaded.instance.side_info[0] == loaded.instance.side_info[1] == frozenset({3})
        assert any("split" in note for note in loaded.notices)

    def test_explicit_vectors_inherited_by_split_children(self):
        document = {
            "field": {"p": 2},
            "n": 3,
            "receivers": [{"side_info": [3], "demand": [1, 2]}],
            "choice_policy": [[0, 0, 1]],
        }
        loaded = parse_instance(document)
        assert len(loaded.choice_vectors) == 2
        assert all(v.entries == (0, 0, 1) for v in loaded.choice_vectors)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"extra": 1},
            {"field": {"p": 2, "bits": 1}},
            {"field": {"m": 2}},
            {"field": {"p": 4}},
            {"field": {"p": 2, "m": 2, "poly": [1, 0, 1]}},
            {"n": True},
            {"n": "7"},
            {"receivers": []},
            {"receivers": [{"side_info": [1, 1], "demand": 2}]},
            {"receivers": [{"side_info": [1], "demand": 2, "note": "x"}]},
            {"receivers": [{"side_info": [1]}]},
            {"receivers": [{"side_info": [1], "demand": []}]},
            {"receivers": [{"side_info": [9], "demand": 1}]},
            {"choice_policy": "fancy"},
            {"choice_policy": [[0] * 7] * 3},
            {"choice_policy": [[2] + [0] * 6] + [[0] * 7] * 6},
            {"choice_policy": [[0] * 6] * 7},
        ],
    )
    def test_malformed_documents_rejected(self, mutation):
        with pytest.raises(MalformedInstanceError):
            parse_instance(doc(**mutation))

    def test_document_must_be_object(self):
        with pytest.raises(MalformedInstanceError):
            parse_instance([1, 2, 3])


class TestLoadInstance:
    def test_loads_shipped_instances(self):
        for name in ("hamming7", "hamming7_zero", "repetition3", "rs7_3"):
            loaded = load_instance(str(ROOT / "instances" / f"{name}.json"))
            build_scheme(loaded.instance, loaded.choice_vectors)

    def test_missing_file_is_oserror(self):
        with pytest.raises(OSError):
            load_instance(str(ROOT / "instances" / "no_such.json"))

    def test_bad_json_is_malformed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedInstanceError):
            load_instance(str(path))


class TestReportSerialization:
    def build(self, name="hamming7.json"):
        loaded = load_instance(str(ROOT / "instances" / name))
        scheme = build_scheme(loaded.instance, loaded.choice_vectors)
        return scheme.code, security_report(scheme.code)

    def test_round_trip(self):
        code, report = self.build()
        document = report_to_dict(report, code)
        assert document["tool_version"] == TOOL_VERSION
        # plain JSON types only: a dump and reload changes nothing
        assert json.loads(json.dumps(document)) == document
        assert document["generator"] == [list(row) for row in code.generator.entries]

    def test_round_trip_extension_field(self):
        code, report = self.build("rs7_3.json")
        document = report_to_dict(report, code)
        assert document["field"] == {"p": 2, "m": 3, "poly": [1, 1, 0, 1]}
        assert json.loads(json.dumps(document)) == document

    def test_dumps_shape(self):
        code, report = self.build()
        text = dumps_report(report, code)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["code"] == {"n": 7, "k": 4, "d": 3, "d_dual": 4}
        assert parsed["insecure_from"] == 4

    def test_goldens_match_regeneration(self):
        for path in sorted((ROOT / "instances").glob("*.json")):
            loaded = load_instance(str(path))
            scheme = build_scheme(loaded.instance, loaded.choice_vectors)
            report = security_report(scheme.code, seed=0)
            golden = (ROOT / "instances" / "golden" / f"{path.stem}.report.json").read_text(
                encoding="utf-8"
            )
            assert dumps_report(report, scheme.code) == golden


# SHA-256 of dumps_report(security_report(code), code) for Reed-Solomon
# codes over fields the goldens do not cover: GF(16), GF(9) (an odd
# characteristic extension) and F11.
RS_REPORT_DIGESTS = {
    "rs8_4_gf16": ((2, 4, (1, 1, 0, 0, 1)), 8, 4,
                   "7af49fdadbe1bcd79944e8cfffaa32b7e1ef846a911afc9992e773a85b5e85d7"),
    "rs8_4_gf9": ((3, 2, (1, 0, 1)), 8, 4,
                  "6fbd548dfc7c842eb955d7355e3183557d3fa353f3c86a5b0ff39b3e12bfd5dd"),
    "rs9_3_f11": ((11,), 9, 3,
                  "09f64d44382aa6bfd52155140feda6d4fe31022397e4fe7ac8872e9a6b110507"),
}

DIGEST_SCRIPT = """
import hashlib, json, sys
from icsisec.algebra import Field
from icsisec.code import reed_solomon_code
from icsisec.fileio import dumps_report
from icsisec.security import security_report
field_args, n, k = json.loads(sys.argv[1])
code = reed_solomon_code(n, k, Field(*field_args))
print(hashlib.sha256(dumps_report(security_report(code), code).encode("utf-8")).hexdigest())
"""


# SHA-256 of dumps_report(security_report(code), code) for seeded random
# binary codes past n = 14, whose reports are labelled sampled and whose
# counterexamples come from the walk of the dual: (seed, n, k, digest).
BINARY_REPORT_DIGESTS = {
    "rand16_8": (1, 16, 8, "a7cfa99ea4420438f3c0c6e22574172d229e134bcbdf1ab013308d8784bf48b6"),
    "rand20_10": (2, 20, 10, "c54cfb520a56de4ceecd4065c3081dc8267b399741931f8e24f06084df9161c3"),
    "rand24_12": (3, 24, 12, "28989f154647fb54590be05cb1c0e5452a1c32142b7f2bf0760f2eceb5e5ba73"),
}

SAMPLED_DIGEST_SCRIPT = """
import hashlib, json, sys
from icsisec.algebra import Field, Matrix
from icsisec.code import LinearCode
from icsisec.fileio import dumps_report
from icsisec.security import security_report
code = LinearCode(Matrix(Field(2), tuple(map(tuple, json.loads(sys.argv[1])))))
text = dumps_report(security_report(code), code)
print(hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def seeded_binary_rows(seed, n, k):
    """k independent binary rows of length n: fair bits of Rng(seed),
    redrawn from the same stream until the rows are independent."""
    rng = Rng(seed)
    while True:
        rows = tuple(tuple(rng.below(2) for _ in range(n)) for _ in range(k))
        if any(map(any, rows)) and LinearCode(Matrix(Field(2), rows)).dimension == k:
            return rows


def run_optimized(script, arg):
    """stdout of `python -O -c script arg`, which must exit 0."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(arg)],
        capture_output=True, text=True, cwd=str(ROOT), env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestReportDigests:
    @pytest.mark.parametrize("name", sorted(RS_REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, name):
        field_args, n, k, digest = RS_REPORT_DIGESTS[name]
        code = reed_solomon_code(n, k, Field(*field_args))
        text = dumps_report(security_report(code), code)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_report_bytes_are_pinned_without_asserts(self):
        for field_args, n, k, digest in RS_REPORT_DIGESTS.values():
            assert run_optimized(DIGEST_SCRIPT, [field_args, n, k]) == digest

    @pytest.mark.parametrize("name", sorted(BINARY_REPORT_DIGESTS))
    def test_sampled_binary_report_bytes_are_pinned(self, name):
        seed, n, k, digest = BINARY_REPORT_DIGESTS[name]
        code = LinearCode(Matrix(Field(2), seeded_binary_rows(seed, n, k)))
        text = dumps_report(security_report(code), code)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_sampled_binary_report_bytes_are_pinned_without_asserts(self):
        for seed, n, k, digest in BINARY_REPORT_DIGESTS.values():
            assert run_optimized(SAMPLED_DIGEST_SCRIPT, seeded_binary_rows(seed, n, k)) == digest


WRITER_FIELDS = (Field(2), Field(3), Field(5), Field(2, 2), Field(2, 3), Field(3, 2))


@st.composite
def report_codes(draw):
    """Codes whose reports exercise every branch of the layout: short codes
    over prime and extension fields, Reed-Solomon (MDS) codes, and binary
    codes past n = 14, labelled sampled. Sparse rows give weight-1
    codewords, whose witnesses know nothing, and k = n is allowed."""
    kind = draw(st.sampled_from(("short", "rs", "long")))
    if kind == "rs":
        field = draw(st.sampled_from(WRITER_FIELDS[2:]))
        n = draw(st.integers(2, field.q))
        return reed_solomon_code(n, draw(st.integers(1, n)), field)
    field = Field(2) if kind == "long" else draw(st.sampled_from(WRITER_FIELDS))
    n = draw(st.integers(15, 17) if kind == "long" else st.integers(1, 7))
    k = draw(st.integers(1, n))
    entry = st.one_of(st.just(0), st.integers(0, field.q - 1))
    try:
        return LinearCode(Matrix(field, draw(st.tuples(*[st.tuples(*[entry] * n)] * k))))
    except ZeroCodeError:
        return LinearCode(Matrix(field, (tuple([1] * n),)))


class TestReportWriter:
    """dumps_report writes the layout directly; json.dumps of report_to_dict
    is its reference."""

    @settings(deadline=None, derandomize=True, max_examples=120)
    @given(report_codes(), st.integers(0, 2**32))
    @example(LinearCode(Matrix(Field(2), ((1, 0, 1), (0, 1, 1)))), 0)
    @example(reed_solomon_code(8, 4, Field(3, 2, (1, 0, 1))), 5)
    @example(LinearCode(Matrix(Field(2, 3), ((1, 0, 0), (0, 1, 0), (0, 0, 7)))), 1)
    @example(LinearCode(Matrix(Field(2), seeded_binary_rows(1, 16, 8))), 7)
    def test_writer_equals_reference(self, code, seed):
        report = security_report(code, seed=seed)
        reference = json.dumps(report_to_dict(report, code), indent=2) + "\n"
        assert dumps_report(report, code) == reference
