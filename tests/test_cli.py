"""End-to-end CLI tests driven through subprocess.

Exit codes under test: 0 success, 1 I/O, 2 validation, 3 enumeration
guard, 5 attack guard, 6 self-check failure.  Exit 4 (undecodable
receiver) cannot be produced by schemes the CLI builds itself, since
every non-trivial receiver contributes a generator row; that path is
covered at library level in test_icsi.py.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import icsisec.code as code_module
import icsisec.security as security_module
from icsisec import cli
from icsisec.algebra import Field, Matrix, Vector
from icsisec.code import LinearCode, reed_solomon_code
from icsisec.rng import Rng
from icsisec.security import SecurityQuery, conditional_block_entropy

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


def run_cli(*args, env_extra=None, interpreter_flags=(), timeout=120):
    """Run the CLI in a subprocess; a run past `timeout` seconds raises
    subprocess.TimeoutExpired and fails the test instead of hanging it."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(ROOT / "src"))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "icsisec", *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=env,
        timeout=timeout,
    )


def write_doc(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def seeded_code(field, seed, n, k):
    """A [n, k] code from uniform rows of Rng(seed), redrawn from the same
    stream until they are independent."""
    rng = Rng(seed)
    while True:
        code = LinearCode(Matrix(field, tuple(
            tuple(rng.below(field.q) for _ in range(n)) for _ in range(k)
        )))
        if code.dimension == k:
            return code


def write_code(tmp_path, name, field_doc, code):
    """An instance whose broadcast code is `code`: the receiver of row i
    demands its pivot column, holds the other non-pivot columns, and uses
    row i without its pivot as its choice vector."""
    pivots = code.pivot_columns
    side = [j for j in range(1, code.length + 1) if j not in pivots]
    return write_doc(tmp_path, name, {
        "field": field_doc,
        "n": code.length,
        "receivers": [{"side_info": side, "demand": p} for p in pivots],
        "choice_policy": [
            [0 if j == p else v for j, v in enumerate(row, 1)]
            for row, p in zip(code.generator.entries, pivots)
        ],
    })


def call_main(capsys, *args):
    """Run the CLI in this process; returns (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One receiver over F_2 with n = 3: a [3, 1] code whose unknown columns
# lose rank once two messages are known.
THIN = {
    "field": {"p": 2},
    "n": 3,
    "receivers": [{"side_info": [2], "demand": 1}],
}

# Strength 4 on the [7, 4] Hamming code is past d - 1, so G_U has rank 3 < k
# and this broadcast matches no message vector.
STRONG_HAMMING_ATTACK = (
    "attack", str(INSTANCES / "hamming7.json"),
    "--known", "1=1,2=0,3=1,5=0", "--broadcast", "1,0,0,1",
)


class TestAnalyze:
    @pytest.mark.parametrize("name", ["hamming7", "hamming7_zero", "repetition3", "rs7_3"])
    def test_matches_golden(self, name):
        result = run_cli("analyze", str(INSTANCES / f"{name}.json"))
        assert result.returncode == 0, result.stderr
        golden = (INSTANCES / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
        assert result.stdout == golden

    @pytest.mark.parametrize("name", ["hamming7", "hamming7_zero", "repetition3", "rs7_3"])
    def test_matches_golden_without_asserts(self, name):
        # -O strips assert statements; no verdict may depend on one.
        result = run_cli("analyze", str(INSTANCES / f"{name}.json"), interpreter_flags=("-O",))
        assert result.returncode == 0, result.stderr
        golden = (INSTANCES / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
        assert result.stdout == golden

    def test_thread_count_does_not_change_bytes(self):
        path = str(INSTANCES / "hamming7.json")
        one = run_cli("analyze", path, env_extra={"ICSI_SEC_THREADS": "1"})
        eight = run_cli("analyze", path, env_extra={"ICSI_SEC_THREADS": "8"})
        assert one.returncode == eight.returncode == 0
        assert one.stdout == eight.stdout

    def test_notices_stay_on_stderr(self, tmp_path):
        path = write_doc(
            tmp_path,
            "multi.json",
            {
                "field": {"p": 2},
                "n": 3,
                "receivers": [{"side_info": [3], "demand": [1, 2]}],
            },
        )
        result = run_cli("analyze", path)
        assert result.returncode == 0
        assert "split" in result.stderr
        json.loads(result.stdout)

    def test_sample_changes_no_byte(self, tmp_path):
        path = write_doc(
            tmp_path,
            "wide.json",
            {
                "field": {"p": 2},
                "n": 15,
                "receivers": [{"side_info": list(range(2, 16)), "demand": 1}],
            },
        )
        result = run_cli("analyze", path, "--seed", "7")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["mode"] == "sampled"
        assert report["seed"] == 7
        sampled = run_cli("analyze", path, "--sample", "--seed", "7")
        assert sampled.returncode == 0, sampled.stderr
        assert sampled.stdout == result.stdout

    def test_long_binary_code_needs_no_sample(self, tmp_path):
        # A seeded [30, 15] binary code: its searched strengths are past the
        # known-set scan's budget, so the walk of its 2^15 dual words finds
        # their counterexamples.
        path = write_code(tmp_path, "rand30_15.json", {"p": 2}, seeded_code(Field(2), 1, 30, 15))
        result = run_cli("analyze", path)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["mode"] == "sampled"
        for flags in ((), ("-O",)):
            sampled = run_cli("analyze", path, "--sample", interpreter_flags=flags)
            assert sampled.returncode == 0, sampled.stderr
            assert sampled.stdout == result.stdout

    def test_sample_does_not_lift_codeword_guard(self, tmp_path):
        # A seeded [20, 10] code over F7: q^k = q^(n-k) = 7^10 words on both
        # sides exceed the 2^24 budget, and no [20, 10] code over F7 is MDS,
        # so no route finds d and d_dual; --sample changes nothing.
        rng = random.Random(20)
        tail = [[rng.randrange(7) for _ in range(10)] for _ in range(10)]
        path = write_doc(
            tmp_path,
            "f7.json",
            {
                "field": {"p": 7},
                "n": 20,
                "receivers": [{"side_info": list(range(11, 21)), "demand": i} for i in range(1, 11)],
                "choice_policy": [[0] * 10 + row for row in tail],
            },
        )
        result = run_cli("analyze", path, "--sample")
        assert result.returncode == 3
        assert result.stdout == ""

    def test_small_dual_does_not_lift_codeword_guard(self, tmp_path):
        # [16, 10] over F7: q^k = 7^10 codewords exceed the 2^24 budget and
        # the code is not MDS, so it is refused however small its 7^6-word
        # dual is; --sample changes nothing.
        path = write_doc(
            tmp_path,
            "f7.json",
            {
                "field": {"p": 7},
                "n": 16,
                "receivers": [
                    {"side_info": list(range(11, 17)), "demand": i} for i in range(1, 11)
                ],
            },
        )
        result = run_cli("analyze", path, "--sample")
        assert result.returncode == 3
        assert result.stdout == ""

    def test_dual_past_the_guard_is_analysed(self, tmp_path):
        # RS [12, 4] over F13: the code has 13^4 codewords and its dual 13^8,
        # over the 2^24 guard; d_dual comes from the code's own walk.
        path = write_code(tmp_path, "rs12_4_f13.json", {"p": 13}, reed_solomon_code(12, 4, Field(13)))
        result = run_cli("analyze", path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["code"] == {"n": 12, "k": 4, "d": 9, "d_dual": 5}
        assert report["insecure_from"] == 8
        assert report["mode"] == "exhaustive"
        optimized = run_cli("analyze", path, interpreter_flags=("-O",))
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == result.stdout

    @pytest.mark.parametrize("n,k,field_doc", [
        (24, 12, {"p": 5, "m": 2}), (32, 16, {"p": 2, "m": 5}),
    ], ids=["rs24_12_gf25", "rs32_16_gf32"])
    def test_reed_solomon_codes_past_the_walk_are_analysed(self, tmp_path, n, k, field_doc):
        # 25^12 and 32^16 codewords, far past the 2^24 budget: the GRS test
        # proves the code MDS, so d and d_dual need no walk.
        field = Field(field_doc["p"], field_doc["m"])
        code = reed_solomon_code(n, k, field)
        path = write_code(tmp_path, f"rs{n}_{k}.json", field_doc, code)
        result = run_cli("analyze", path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert (report["code"]["d"], report["code"]["d_dual"]) == (n - k + 1, k + 1)
        optimized = run_cli("analyze", path, interpreter_flags=("-O",))
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == result.stdout
        assert list(code.first_of_weight) == list(range(n - k + 1, n + 1))
        for w, word in code.first_of_weight.items():
            assert n - word.count(0) == w
            # The word is the combination its pivot values give.
            coefficients = Vector(field, tuple(word[p - 1] for p in code.pivot_columns))
            assert code.generator.left_times(coefficients).entries == word

    def test_sampled_mds_report_walks_no_dual(self, tmp_path):
        # RS [16, 4] over GF(16): 16^4 codewords, but a dual of 16^12. An MDS
        # code has d_dual = k + 1, so every strength below the threshold
        # n - k takes the known set {1..t} and the dual is never walked.
        code = reed_solomon_code(16, 4, Field(2, 4))
        path = write_code(tmp_path, "rs16_4_gf16.json", {"p": 2, "m": 4}, code)
        result = run_cli("analyze", path, "--sample")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["mode"] == "sampled"
        assert report["code"] == {"n": 16, "k": 4, "d": 13, "d_dual": 5}
        assert report["insecure_from"] == 12
        for s in report["strengths"]:
            cex = s["counterexample"]
            if s["t"] < 12:
                assert cex["known"] == list(range(1, s["t"] + 1))
            else:
                assert cex is None
        optimized = run_cli("analyze", path, "--sample", interpreter_flags=("-O",))
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == result.stdout

    def test_large_dual_with_a_small_scan_is_scanned(self, tmp_path):
        # [20, 3] over F3 with columns 19 and 20 equal: q^k = 27, and d_dual
        # = 2 leaves strengths 17 and 18 to search. Their C(20, 17) +
        # C(20, 18) = 1,330 known sets fit the scan's budget, so the 3^17
        # dual words, past the 2^24 guard, are never walked.
        code = LinearCode(Matrix(Field(3), tuple(
            tuple([int(j == i) for j in range(3)] + [(i + j) % 3 for j in range(16)] + [(i + 15) % 3])
            for i in range(3)
        )))
        path = write_code(tmp_path, "f3_20_3.json", {"p": 3}, code)
        result = run_cli("analyze", path)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["insecure_from"] == 19
        for s in report["strengths"][17:19]:
            cex = s["counterexample"]
            assert len(cex["known"]) == s["t"] and cex["resisted"] not in cex["known"]
            assert code.confined_combination(frozenset(cex["known"]), cex["resisted"]) is None

    def test_scan_and_dual_past_their_budgets_is_exit_3(self, tmp_path):
        # A seeded [30, 10] code over F3: its searched strengths hold over
        # C(30, 20) > 3 * 10^7 known sets, and its dual 3^20 words.
        path = write_code(tmp_path, "rand30_10_f3.json", {"p": 3}, seeded_code(Field(3), 0, 30, 10))
        result = run_cli("analyze", path)
        assert result.returncode == 3
        assert result.stdout == ""

    def test_missing_file_is_exit_1(self):
        result = run_cli("analyze", str(INSTANCES / "absent.json"))
        assert result.returncode == 1

    def test_malformed_instance_is_exit_2(self, tmp_path):
        path = write_doc(
            tmp_path,
            "bad.json",
            {"field": {"p": 2}, "n": 3, "receivers": [], "padding": 1},
        )
        assert run_cli("analyze", path).returncode == 2
        raw = tmp_path / "raw.json"
        raw.write_text("{oops", encoding="utf-8")
        assert run_cli("analyze", str(raw)).returncode == 2


def _report_runs(monkeypatch, site):
    """analyze hamming7 with its report replaced by `site(code)`: the way
    in for the guarded loops that no command reaches on its own."""
    monkeypatch.setattr(cli, "security_report", lambda code, seed: site(code))
    return ["analyze", str(INSTANCES / "hamming7.json")]


def _guard_codewords(monkeypatch, tmp_path):
    monkeypatch.setattr(code_module, "MAX_ENUMERATION", 8)
    argv = _report_runs(monkeypatch, lambda code: code.codewords())
    return argv, 3, [("enumeration of q^k = 2^4 codewords", 16, 8)]


def _guard_spectrum(monkeypatch, tmp_path):
    # [16, 10] over F7, not MDS: the GRS test fails and 7^10 is past 2^24.
    path = write_doc(tmp_path, "f7.json", {
        "field": {"p": 7},
        "n": 16,
        "receivers": [{"side_info": list(range(11, 17)), "demand": i} for i in range(1, 11)],
    })
    loop = "walk of q^k = 7^10 codewords, for a generator that fails the GRS test"
    return ["analyze", path], 3, [(loop, 7 ** 10, 1 << 24)]


def _guard_search(monkeypatch, tmp_path):
    # RS [7, 3] over GF(8) passes the GRS test; its search visits 8 nodes a step.
    monkeypatch.setattr(code_module, "MAX_ENUMERATION", 8)
    return ["analyze", str(INSTANCES / "rs7_3.json")], 3, [("first-of-weight search, in nodes visited", 16, 8)]


def _guard_tuples(monkeypatch, tmp_path):
    monkeypatch.setattr(code_module, "MAX_SPACE", 4)
    argv = _report_runs(monkeypatch, lambda code: code_module.oa_tuple_counts(code, (1, 2, 3)))
    return argv, 3, [("table of q^r = 2^3 value tuples", 8, 4)]


def _guard_oracle(monkeypatch, tmp_path):
    monkeypatch.setattr(security_module, "MAX_SPACE", 32)
    argv = _report_runs(monkeypatch, lambda code: conditional_block_entropy(
        code, SecurityQuery(7, {1}, {2}), {1: 0}, Vector.zero(Field(2), 4),
    ))
    return argv, 3, [("oracle walk of q^(n-t) = 2^6 message vectors", 64, 32)]


def _guard_sweep(monkeypatch, tmp_path):
    # thm3 sweeps every corpus code; the added repetition code has n = 15.
    path = write_doc(tmp_path, "rep15.json", {
        "codes": [{"name": "rep15", "field": {"p": 2}, "generator": [[1] * 15]}],
    })
    loop = "exhaustive rank sweep over n coordinates"
    return ["verify", "--suite", "thm3", "--corpus", path], 3, [(loop, 15, 14)]


def _guard_counterexamples(monkeypatch, tmp_path):
    # A seeded [30, 10] code over F3 with d_dual = 4: strengths 20 to 26
    # hold over 5 * 10^7 known sets, and the dual 3^20 words.
    code = seeded_code(Field(3), 0, 30, 10)
    path = write_code(tmp_path, "rand30_10_f3.json", {"p": 3}, code)
    scan = sum(math.comb(30, t) for t in range(20, 27))
    return ["analyze", path], 3, [
        ("known-set scan over t = 20..26, in reductions", scan, 1 << 14),
        ("walk of q^(n-k) = 3^20 dual codewords", 3 ** 20, 1 << 24),
    ]


def _guard_list(monkeypatch, tmp_path):
    # One receiver of 22 messages: a [22, 1] code, so 2^21 candidates.
    path = write_doc(tmp_path, "wide.json", {
        "field": {"p": 2},
        "n": 22,
        "receivers": [{"side_info": list(range(2, 23)), "demand": 1}],
    })
    argv = ["attack", path, "--broadcast", "0", "--list"]
    return argv, 5, [("candidate list of q^(n-t-k) = 2^21 entries", 1 << 21, 1 << 20)]


GUARD_SITES = {
    "codewords": _guard_codewords,
    "spectrum": _guard_spectrum,
    "search": _guard_search,
    "oa_tuple_counts": _guard_tuples,
    "oracle": _guard_oracle,
    "sweep": _guard_sweep,
    "counterexamples": _guard_counterexamples,
    "list": _guard_list,
}


@pytest.mark.parametrize("site", GUARD_SITES)
def test_guard_names_loop_size_and_limit(monkeypatch, tmp_path, capsys, site):
    """Each budget refusal, pushed past its limit (a patched one where the
    real one is too large to reach cheaply), exits 3, or 5 for the list,
    with stdout empty and stderr naming each route's loop, size and limit."""
    argv, expected, routes = GUARD_SITES[site](monkeypatch, tmp_path)
    exit_code, out, err = call_main(capsys, *argv)
    assert (exit_code, out) == (expected, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for loop, size, limit in routes:
        assert f"{loop}: size {size} exceeds the limit {limit}" in err


class TestEncode:
    def test_zero_message_gives_zero_broadcast(self):
        result = run_cli(
            "encode", str(INSTANCES / "hamming7.json"), "--messages", "0,0,0,0,0,0,0"
        )
        assert result.returncode == 0
        assert result.stdout.split() == ["0", "0", "0", "0"]

    def test_unit_message(self):
        result = run_cli(
            "encode", str(INSTANCES / "hamming7.json"), "--messages", "0,0,0,0,1,0,0"
        )
        assert result.returncode == 0
        assert result.stdout.split() == ["0", "1", "1", "1"]

    def test_wrong_arity_is_exit_2(self):
        result = run_cli(
            "encode", str(INSTANCES / "hamming7.json"), "--messages", "0,0,0,0,0,0"
        )
        assert result.returncode == 2


class TestDecode:
    def test_receiver_five_recovers_demand(self):
        result = run_cli(
            "decode",
            str(INSTANCES / "hamming7.json"),
            "--receiver",
            "5",
            "--broadcast",
            "0,1,1,1",
            "--side",
            "1=0,2=0,6=0",
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1"

    def test_consistency_with_encode(self):
        message = "1,0,1,1,0,1,1"
        enc = run_cli("encode", str(INSTANCES / "hamming7.json"), "--messages", message)
        broadcast = ",".join(enc.stdout.split())
        x = [int(v) for v in message.split(",")]
        sides = {5: "1,2,6", 6: "1,3,4", 7: "2,3,6"}
        for receiver, side in sides.items():
            pairs = ",".join(f"{i}={x[i - 1]}" for i in map(int, side.split(",")))
            result = run_cli(
                "decode",
                str(INSTANCES / "hamming7.json"),
                "--receiver",
                str(receiver),
                "--broadcast",
                broadcast,
                "--side",
                pairs,
            )
            assert result.returncode == 0, result.stderr
            assert int(result.stdout.strip()) == x[receiver - 1]

    def test_missing_side_value_is_exit_2(self):
        result = run_cli(
            "decode",
            str(INSTANCES / "hamming7.json"),
            "--receiver",
            "5",
            "--broadcast",
            "0,1,1,1",
            "--side",
            "1=0,2=0",
        )
        assert result.returncode == 2

    def test_unknown_receiver_is_exit_2(self):
        result = run_cli(
            "decode",
            str(INSTANCES / "hamming7.json"),
            "--receiver",
            "9",
            "--broadcast",
            "0,1,1,1",
            "--side",
            "1=0,2=0,6=0",
        )
        assert result.returncode == 2


class TestAttack:
    def test_strong_adversary_recovers_rest(self):
        result = run_cli(
            "attack",
            str(INSTANCES / "hamming7.json"),
            "--known",
            "1=1,2=0,3=1,5=0",
            "--broadcast",
            "1,0,0,1",
        )
        assert result.returncode == 0
        lines = result.stdout.split()
        assert len(lines) == 3
        assert all("=" in line and "?" not in line for line in lines)

    def test_weak_adversary_reports_unknowns(self):
        result = run_cli(
            "attack",
            str(INSTANCES / "hamming7.json"),
            "--known",
            "1=0,2=0",
            "--broadcast",
            "0,0,0,0",
        )
        assert result.returncode == 0
        lines = result.stdout.split()
        assert "3=0" in lines
        assert sum(line.endswith("?") for line in lines) == 4

    def test_list_mode_counts_candidates(self):
        result = run_cli(
            "attack",
            str(INSTANCES / "hamming7.json"),
            "--known",
            "1=0,2=0",
            "--broadcast",
            "0,0,0,0",
            "--list",
        )
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        at = lines.index("count=2")
        assert len(lines) == at + 3
        assert lines[at + 1] == "0,0,0,0,0,0,0"
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[at + 1 :]]
        assert all(row[0] == row[1] == 0 for row in rows)

    def test_list_mode_with_no_knowledge(self):
        result = run_cli(
            "attack",
            str(INSTANCES / "repetition3.json"),
            "--broadcast",
            "0",
            "--list",
        )
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[:3] == ["1=?", "2=?", "3=?"]
        assert lines[3] == "count=4"
        assert len(lines) == 8

    def test_rank_deficient_list_is_exit_5(self, tmp_path):
        path = write_doc(tmp_path, "thin.json", THIN)
        result = run_cli(
            "attack", path, "--known", "1=0,2=0", "--broadcast", "0", "--list"
        )
        assert result.returncode == 5
        # Nothing is printed before the refusal.
        assert result.stdout == ""

    def test_inconsistent_list_prints_nothing(self, capsys):
        code, out, err = call_main(capsys, *STRONG_HAMMING_ATTACK, "--list")
        assert code == 2
        assert out == ""
        assert "matches no message vector" in err

    def test_inconsistent_observation_is_noted(self, capsys):
        code, out, err = call_main(capsys, *STRONG_HAMMING_ATTACK)
        assert code == 0
        assert len(out.split()) == 3
        assert err == (
            "note: the observation matches no message vector; "
            "recovered values are not meaningful\n"
        )
        code, out, err = call_main(
            capsys, "attack", str(INSTANCES / "hamming7.json"),
            "--known", "1=1,2=0,3=1,5=0", "--broadcast", "1,0,1,0",
        )
        assert code == 0
        assert out == "4=0\n6=0\n7=0\n"
        assert err == ""

    def test_inconsistent_observation_is_exit_2(self):
        result = run_cli(
            "attack",
            str(INSTANCES / "repetition3.json"),
            "--known",
            "1=0,2=0,3=1",
            "--broadcast",
            "0",
            "--list",
        )
        assert result.returncode == 2


class TestVerify:
    def test_single_suite(self):
        result = run_cli("verify", "--suite", "thm1")
        assert result.returncode == 0, result.stderr
        assert "thm1:" in result.stdout
        assert "pass" in result.stdout

    def test_all_suites_pass_without_asserts(self):
        result = run_cli("verify", "--suite", "all", interpreter_flags=("-O",))
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "thm1: 112 cases, pass\n"
            "thm2: 1052 cases, pass\n"
            "lemma3: 7531 cases, pass\n"
            "thm3: 447 cases, pass\n"
            "thm4: 408 cases, pass\n"
        )

    def test_corrupted_corpus_is_exit_6(self, tmp_path):
        generator = [
            [0, 0, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1, 1],
        ]
        path = write_doc(
            tmp_path,
            "claims.json",
            {
                "codes": [
                    {
                        "name": "dented_hamming",
                        "field": {"p": 2},
                        "generator": generator,
                        "claims": {"d": 3, "d_dual": 4},
                    }
                ]
            },
        )
        result = run_cli("verify", "--suite", "thm1", "--corpus", path)
        assert result.returncode == 6
        assert "FAIL" in result.stdout
        assert "dented_hamming" in result.stderr

    def test_malformed_corpus_is_exit_2(self, tmp_path):
        path = write_doc(tmp_path, "corpus.json", {"codes": [3]})
        result = run_cli("verify", "--suite", "thm1", "--corpus", path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "corpus code 1" in result.stderr

    @pytest.mark.parametrize("claim", ["2", None, 2.0, True], ids=["str", "null", "float", "bool"])
    def test_non_integer_claim_is_exit_2(self, tmp_path, capsys, claim):
        path = write_doc(tmp_path, "claims.json", {
            "codes": [{
                "name": "repetition",
                "field": {"p": 2},
                "generator": [[1, 1, 1]],
                "claims": {"d": claim},
            }]
        })
        code, out, err = call_main(capsys, "verify", "--suite", "thm1", "--corpus", path)
        assert code == 2
        assert out == ""
        assert "corpus code 1: claim d must be an integer" in err

    @pytest.mark.parametrize("name", [None, 5], ids=["null", "int"])
    def test_non_string_corpus_name_is_exit_2(self, tmp_path, capsys, name):
        path = write_doc(tmp_path, "named.json", {
            "codes": [{
                "name": name,
                "field": {"p": 2},
                "generator": [[1, 1, 1]],
                "claims": {"d": 2},
            }]
        })
        code, out, err = call_main(capsys, "verify", "--suite", "thm1", "--corpus", path)
        assert code == 2
        assert out == ""
        assert "corpus code 1: name must be a string" in err

    def test_unknown_suite_is_exit_2(self):
        assert run_cli("verify", "--suite", "thm9").returncode == 2


class TestInputBoundary:
    @pytest.mark.parametrize(
        "args",
        [
            ("encode", "--messages", "0,0,0,0,0,0,2"),
            ("decode", "--receiver", "5", "--broadcast", "0,1,1,2", "--side", "1=0,2=0,6=0"),
            ("decode", "--receiver", "5", "--broadcast", "0,1,1,1", "--side", "1=0,2=2,6=0"),
            ("attack", "--known", "1=2", "--broadcast", "0,0,0,0"),
            ("attack", "--known", "1=0", "--broadcast", "0,0,2,0"),
        ],
        ids=["encode-messages", "decode-broadcast", "decode-side", "attack-known", "attack-broadcast"],
    )
    def test_out_of_range_argv_value_is_exit_2(self, capsys, args):
        command, *flags = args
        code, out, err = call_main(capsys, command, str(INSTANCES / "hamming7.json"), *flags)
        assert code == 2
        assert out == ""
        assert "is not a canonical element of Field(2)" in err

    def test_out_of_range_choice_vector_entry_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "policy.json", {**THIN, "choice_policy": [[0, 2, 0]]})
        code, out, err = call_main(capsys, "encode", path, "--messages", "0,0,0")
        assert code == 2
        assert out == ""
        assert "choice vector 1" in err

    # The stderr text of each rejection, as recorded before the parser
    # checked a row in one pass. A non-integer anywhere in a row outranks an
    # earlier out-of-range value, and within a kind the first entry wins.
    @pytest.mark.parametrize(
        "row,message",
        [
            ([0, True, 0], "choice vector 1 must be an integer, got True"),
            ([0, 1.5, 0], "choice vector 1 must be an integer, got 1.5"),
            ([0, "1", 0], "choice vector 1 must be an integer, got '1'"),
            ([0, None, 0], "choice vector 1 must be an integer, got None"),
            ([0, -1, 0], "choice vector 1: -1 is not a canonical element of Field(2)"),
            ([0, 2, 0], "choice vector 1: 2 is not a canonical element of Field(2)"),
            ([2, True, 0], "choice vector 1 must be an integer, got True"),
            ([0, 3, -1], "choice vector 1: 3 is not a canonical element of Field(2)"),
            ([0, 1], "choice vector 1 must be a list of 3 field values"),
        ],
        ids=["true", "float", "string", "null", "negative", "q", "range-then-type",
             "two-out-of-range", "short"],
    )
    def test_bad_choice_vector_entry_message(self, tmp_path, capsys, row, message):
        path = write_doc(tmp_path, "policy.json", {**THIN, "choice_policy": [row]})
        code, out, err = call_main(capsys, "encode", path, "--messages", "0,0,0")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "side,message",
        [
            ([True], "receiver 1 side_info must be an integer, got True"),
            ([2.5], "receiver 1 side_info must be an integer, got 2.5"),
            (["3"], "receiver 1 side_info must be an integer, got '3'"),
            ([2, 2], "duplicate index in receiver 1 side_info"),
            ([2, 2, True], "receiver 1 side_info must be an integer, got True"),
            ([2, 9], "receiver 1 side-info index 9 outside [1, 3]"),
        ],
        ids=["true", "float", "string", "duplicate", "duplicate-then-type", "out-of-range"],
    )
    def test_bad_side_info_entry_message(self, tmp_path, capsys, side, message):
        doc = {**THIN, "receivers": [{"side_info": side, "demand": 1}]}
        path = write_doc(tmp_path, "side.json", doc)
        code, out, err = call_main(capsys, "encode", path, "--messages", "0,0,0")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("index", ["99", "0"])
    def test_out_of_range_side_index_is_exit_2(self, capsys, index):
        code, out, err = call_main(
            capsys, "decode", str(INSTANCES / "hamming7.json"), "--receiver", "5",
            "--broadcast", "0,1,1,1", "--side", f"1=0,2=0,6=0,{index}=1",
        )
        assert code == 2
        assert out == ""
        assert f"side index {index} outside [1, 7]" in err

    @pytest.mark.parametrize(
        "field,message",
        [
            ({"p": 2**61 - 1}, "q = 2305843009213693951^1 exceeds 65536"),
            ({"p": 2, "m": 400000000}, "q = 2^400000000 exceeds 65536"),
        ],
        ids=["mersenne61", "huge-m"],
    )
    def test_field_past_the_cap_is_exit_2(self, tmp_path, field, message):
        # Rejected by size before a primality test by trial division (which
        # does not return for this p) and before forming p^m.
        path = write_doc(tmp_path, "big.json", {**THIN, "field": field})
        result = run_cli("analyze", path, timeout=30)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"error: bad field: {message}\n"
        )

    def test_out_of_range_poly_coefficient_is_exit_2(self, tmp_path, capsys):
        # 3 is not an element of F_2; it must not be read as 3 mod 2 = 1.
        field = {"p": 2, "m": 3, "poly": [3, 1, 0, 1]}
        path = write_doc(tmp_path, "poly.json", {**THIN, "field": field})
        code, out, err = call_main(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        assert "bad field" in err


class TestCachedParser:
    def test_calls_in_a_row_share_no_state(self, monkeypatch, capsys):
        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            attack = ("attack", str(INSTANCES / "hamming7.json"),
                      "--known", "1=0,2=0", "--broadcast", "0,0,0,0")
            code, out, _ = call_main(capsys, *attack, "--list")
            assert code == 0 and "count=2" in out.split()
            code, out, _ = call_main(capsys, *attack)
            assert code == 0 and not any(line.startswith("count=") for line in out.split())

            hamming = str(INSTANCES / "hamming7.json")
            code, out, _ = call_main(capsys, "analyze", "--sample", "--seed", "5", hamming)
            assert code == 0 and json.loads(out)["seed"] == 5
            code, out, _ = call_main(capsys, "analyze", hamming)
            golden = (INSTANCES / "golden" / "hamming7.report.json").read_text(encoding="utf-8")
            assert code == 0 and out == golden
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


def readme_commands():
    """The `icsisec` lines of the README's "Command line" example block,
    with backslash continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("icsisec ")]


class TestReadme:
    def test_command_line_examples_exit_0(self, monkeypatch, capsys):
        commands = readme_commands()
        assert len(commands) == 5
        monkeypatch.chdir(ROOT)
        for argv in commands:
            # The full verify run is covered by test_all_suites_pass_without_asserts.
            if argv == ["verify", "--suite", "all"]:
                continue
            code, out, err = call_main(capsys, *argv)
            assert code == 0, (argv, err)
            assert out


# SHA-256 of request_transcript(): 200 seeded encode/decode/attack/attack
# --list requests on the shipped instances, recorded before the request
# path was reworked.
REQUEST_DIGEST = "2ff3105a9c51bb426b1bd0b5af2054585340f28a8a8162c2f855995b4e287bec"
SHIPPED = ("hamming7", "hamming7_zero", "repetition3", "rs7_3")

# SHA-256 of the same request mix, without --list, on two generated
# instances whose fields take the packed row reduction (20 receivers of 24
# messages over F3, 16 of 20 over GF(16)), recorded before the packed rows.
PACKED_DIGEST = "3b94ae7dbca4a1b39f7c17993f23a46dc7012efbe2380f37dc62249bbcb50f78"
RANDOM_INSTANCES = (
    ("rand24_f3", {"p": 3}, 24, 20),
    ("rand20_gf16", {"p": 2, "m": 4, "poly": [1, 1, 0, 0, 1]}, 20, 16),
)


def request_transcript(paths=None, seed=13, per_instance=25, listed=True):
    """Exit code and stdout of a fixed request mix. For each instance
    (the shipped ones by default), each round encodes a seeded message
    vector, then sends a decode, an attack or (with `listed`) an attack
    --list in rotation, with the receiver and the known set drawn from the
    seed. Every broadcast is the one encode printed, so every observation
    is consistent."""
    from icsisec.fileio import load_instance

    if paths is None:
        paths = [str(INSTANCES / f"{name}.json") for name in SHIPPED]
    rng = Rng(seed)
    parts = []

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        parts.append(f"$ {argv[0]} {shlex.join(argv[2:])}\n{code}\n{out.getvalue()}")
        return out.getvalue()

    for path in paths:
        instance = load_instance(path).instance
        n, q = instance.n, instance.field.q
        for i in range(per_instance):
            x = [rng.below(q) for _ in range(n)]
            broadcast = ",".join(run("encode", path, "--messages", ",".join(map(str, x))).split())
            if i % 3 == 0:
                receiver = 1 + rng.below(instance.m)
                side = sorted(instance.side_info[receiver - 1])
                run("decode", path, "--receiver", str(receiver), "--broadcast", broadcast,
                    "--side", ",".join(f"{a}={x[a - 1]}" for a in side))
            else:
                known = sorted(rng.subset(range(1, n + 1), rng.below(n)))
                argv = ["attack", path, "--known", ",".join(f"{a}={x[a - 1]}" for a in known),
                        "--broadcast", broadcast]
                run(*argv, *(["--list"] if listed and i % 3 == 2 else []))
    return "".join(parts)


def request_digest():
    return hashlib.sha256(request_transcript().encode("utf-8")).hexdigest()


def write_random_instances(directory, seed=29, instances=RANDOM_INSTANCES):
    """`instances` as files under `directory`: each receiver demands a
    random message, holds each other one with probability 1/2, and has a
    random choice vector confined to its side information."""
    rng = Rng(seed)
    paths = []
    for name, field_doc, n, m in instances:
        q = field_doc["p"] ** field_doc.get("m", 1)
        receivers, policy = [], []
        for _ in range(m):
            demand = 1 + rng.below(n)
            side = [i for i in range(1, n + 1) if i != demand and rng.below(2)]
            receivers.append({"side_info": side, "demand": demand})
            policy.append([rng.below(q) if i + 1 in side else 0 for i in range(n)])
        doc = {"field": field_doc, "n": n, "receivers": receivers, "choice_policy": policy}
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def packed_request_digest(directory):
    transcript = request_transcript(write_random_instances(directory), listed=False)
    return hashlib.sha256(transcript.encode("utf-8")).hexdigest()


def digest_without_asserts(expression, *args):
    """`expression` evaluated by a `python -O` child that has imported
    test_cli, with `args` as sys.argv[1:]."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", f"import sys, test_cli; print({expression})", *args],
        capture_output=True, text=True, cwd=str(ROOT), env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestRequestDigests:
    def test_request_replies_are_pinned(self):
        assert request_digest() == REQUEST_DIGEST

    def test_request_replies_are_pinned_without_asserts(self):
        assert digest_without_asserts("test_cli.request_digest()") == REQUEST_DIGEST

    def test_packed_field_replies_are_pinned(self, tmp_path):
        assert packed_request_digest(tmp_path) == PACKED_DIGEST

    def test_packed_field_replies_are_pinned_without_asserts(self, tmp_path):
        digest = digest_without_asserts("test_cli.packed_request_digest(sys.argv[1])", str(tmp_path))
        assert digest == PACKED_DIGEST


# One generated instance per field: F2, GF(8), F13 and GF(16) take the
# packed byte columns (two-digit entries from F13 on), F17 the list columns.
LIST_PARITY_INSTANCES = (
    ("parity_f2", {"p": 2}, 10, 4),
    ("parity_gf8", {"p": 2, "m": 3}, 6, 3),
    ("parity_f13", {"p": 13}, 5, 2),
    ("parity_gf16", {"p": 2, "m": 4}, 5, 2),
    ("parity_f17", {"p": 17}, 5, 2),
)


class TestListParity:
    @pytest.mark.parametrize("instance", LIST_PARITY_INSTANCES, ids=lambda row: row[0])
    def test_list_text_equals_formatted_vectors(self, tmp_path, capsys, instance):
        # attack --list prints from the candidate columns; its text must be
        # the %d formatting of list_attack's Vectors, at every strength the
        # list is guaranteed for (t <= d - 1).
        from icsisec.algebra import Vector
        from icsisec.fileio import load_instance
        from icsisec.icsi import build_scheme, encode
        from icsisec.security import AdversaryView, complete_insecurity_attack, list_attack

        (path,) = write_random_instances(tmp_path, seed=31, instances=(instance,))
        loaded = load_instance(path)
        scheme = build_scheme(loaded.instance, loaded.choice_vectors)
        code, field = scheme.code, scheme.field
        n, q = code.length, field.q
        row_format = ",".join(["%d"] * n)
        rng = Rng(37)
        lengths = set()
        for t in range(code.min_distance):
            known = sorted(rng.subset(range(1, n + 1), t))
            x = tuple(rng.below(q) for _ in range(n))
            broadcast = encode(scheme, Vector(field, x))
            view = AdversaryView.of({i: x[i - 1] for i in known}, broadcast)
            values = complete_insecurity_attack(code, view).mapping
            expected = [f"{i}={values.get(i, '?')}" for i in range(1, n + 1) if i not in known]
            candidates = list_attack(code, view)
            expected.append(f"count={len(candidates)}")
            expected += [row_format % c.entries for c in candidates]
            exit_code, out, err = call_main(
                capsys, "attack", path, "--known", ",".join(f"{i}={x[i - 1]}" for i in known),
                "--broadcast", ",".join(map(str, broadcast.entries)), "--list",
            )
            assert (exit_code, err) == (0, "")
            assert out == "".join(f"{line}\n" for line in expected)
            lengths.add(len(candidates))
        # Every instance lists more candidates than q at strength 0, so at
        # least two kernel vectors stack their column blocks.
        assert max(lengths) > q
