"""Self-tests of the benchmark: planted faults are caught, tracing changes
no output, traced counts repeat, and the contract file matches the code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

import icsisec.cli  # noqa: E402


@pytest.fixture
def workdir(request) -> Path:
    path = run.OUT / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_mix(work: Path) -> list:
    """A cheap cross-section: shipped reports, queries and one suite."""
    ops = [workloads._shipped(ROOT, name) for name in ("hamming7", "rs7_3")]
    ops += workloads.queries(ROOT, work, seed=7, count=60)
    ops += [op for op in workloads.verify(ROOT, work, 0) if op.label == "thm1"]
    return ops


def test_small_mix_passes(workdir):
    tally = run.Tally()
    run.run_pass(small_mix(workdir), tally)
    assert (tally.attempted, tally.failed) == (63, 0), tally.problems


def test_flipped_golden_byte_is_caught(workdir):
    shutil.copytree(ROOT / "instances", workdir / "instances")
    golden = workdir / "instances" / "golden" / "hamming7.report.json"
    data = bytearray(golden.read_bytes())
    data[len(data) // 2] ^= 1
    golden.write_bytes(bytes(data))
    tally = run.Tally()
    run.run_pass([workloads._shipped(workdir, name) for name in ("hamming7", "repetition3")], tally)
    assert tally.failed == 1 and tally.problems[0].startswith("hamming7:")


def test_wrong_decode_value_is_caught(workdir, monkeypatch):
    ops = workloads.queries(ROOT, workdir, seed=7, count=60)
    decodes = sum(op.argv[0] == "decode" for op in ops)
    real = icsisec.cli.decode_receiver

    def off_by_one(scheme, *args):
        return scheme.field.add(real(scheme, *args), 1)

    monkeypatch.setattr(icsisec.cli, "decode_receiver", off_by_one)
    tally = run.Tally()
    run.run_pass(ops, tally)
    assert decodes > 0 and tally.failed == decodes


def test_tracing_changes_no_output(workdir):
    ops = small_mix(workdir)
    plain = run.run_pass(ops, run.Tally())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(ops, run.Tally())
    finally:
        tracer.restore()
    assert plain == traced
    assert tracer.calls["cli.main"] == len(ops) and tracer.calls["code.build"] > 0
    assert not hasattr(icsisec.cli.main, "__wrapped__")
    assert not hasattr(icsisec.code.LinearCode.__init__, "__wrapped__")


COUNTS = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run, tracing, workloads
ops = [workloads._shipped(run.ROOT, "hamming7")] + workloads.analyze_span(run.ROOT, Path(sys.argv[3]), 5)[:1]
ops += workloads.queries(run.ROOT, Path(sys.argv[3]), seed=5, count=40)
tracer = tracing.Tracer()
tracer.install()
run.run_pass(ops, run.Tally())
tracer.restore()
print(json.dumps({k: v for k, (v, unit) in tracer.layer_metrics().items() if unit == "count"}))
"""


def test_traced_counts_repeat(workdir):
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", COUNTS, str(run.HERE), str(ROOT / "src"), str(workdir)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        results.append(json.loads(out.stdout))
    assert results[0] == results[1]
    assert results[0]["code.rank_queries"] > 0 and results[0]["code.codewords"] > 0


def test_inputs_repeat_for_a_seed(workdir):
    argvs = []
    for sub in ("a", "b"):
        (workdir / sub).mkdir()
        ops = workloads.queries(ROOT, workdir / sub, seed=11, count=50)
        argvs.append([[arg.replace(str(workdir / sub), "") for arg in op.argv] for op in ops])
    assert argvs[0] == argvs[1]
    for name in ("rand20_gf16.json", "rand24_f3.json"):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_contract_names_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(run.HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
