"""Benchmark of the icsisec command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. Every operation is one CLI request, `icsisec.cli.main(argv)`
called in this process with its output captured, so each pays the same
parse, load, build, compute and format path a user does, without
interpreter start-up. One client sends the next request only after the
previous one returns (a closed loop), on one thread.

Workloads (see workloads.py): analyze-sweep, analyze-span, queries and
verify; `--workload all` runs each of them plain and traced in turn.
Inputs come from the seed; every output is checked.

With --trace 0 the run repeats passes over the workload's requests for
about S seconds and reports the end-to-end metrics. With --trace 1 it
makes one plain pass and one pass with spans recorded around the
package's public functions (tracing.py), and reports per-module numbers.
Detail lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"} holding the metrics
that BENCHMARK.json names. Every metric, the per-module times that only
some workloads exercise included, and the recorded spans are also written
under perfbench/out/.

A probe request is timed apart from the batch. It passes when a guard
refuses it (exit 3) or when it succeeds with a sound report; a refusal
still counts in the printed error_rate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 9

# Metrics on the last line: end to end with --trace 0, per layer with --trace 1.
END_TO_END = ("setup_s", "batch_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")
PER_LAYER = (
    "algebra.rank_elims",
    "algebra.solve_calls",
    "algebra.solve_s",
    "code.rank_queries",
    "code.rank_cache_hit_ratio",
    "code.codewords",
    "code.span_s",
    "code.confined_calls",
    "code.confined_s",
    "code.build_s",
    "security.witness_calls",
    "security.oracle_calls",
    "icsi.build_s",
    "cli.self_s",
    "trace.overhead_s",
)


@dataclass
class Tally:
    """What the passes over one workload measured."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    batches: list = field(default_factory=list)
    op_seconds: dict = field(default_factory=dict)  # request index -> seconds per pass
    probes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_pass(ops, tally: Tally) -> list:
    """One pass over the requests; returns (exit, stdout) per request."""
    import icsisec.cli

    outputs = []
    batch = 0.0
    for index, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = icsisec.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed request, not a failed run
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
            seconds = perf_counter() - start
        problem = op.verify(code, out.getvalue(), err.getvalue())
        outputs.append((code, out.getvalue()))
        tally.attempted += 1
        if problem is not None:
            tally.failed += 1
            tally.problems.append(f"{op.label}: {problem}")
        elif op.probe:
            tally.refused += code == 3
            tally.probes.setdefault(op.label, []).append((seconds, code, err.getvalue().strip()))
        else:
            batch += seconds
            tally.op_seconds.setdefault(index, []).append(seconds)
    tally.batches.append(batch)
    return outputs


def nearest_rank(values: list, share: float) -> float:
    """Nearest-rank percentile; 0.0 when no request succeeded (the run is
    then reported as not correct)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)] if ordered else 0.0


def setup_seconds() -> float:
    """Median wall time of fresh processes that import the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", "import icsisec, icsisec.cli"]
    times = []
    for spawn in range(SETUP_SPAWNS + 1):  # the first one may write bytecode caches
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        if spawn:
            times.append(perf_counter() - start)
    return statistics.median(times)


def machine(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icsisec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_every_workload(args, names) -> int:
    """Every workload, plain and traced, each in a fresh process."""
    status = 0
    for name in names:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run([sys.executable, __file__, *argv], cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icsisec" / "__init__.py").is_file() or not (ROOT / "instances" / "golden").is_dir():
        print(f"error: {ROOT} is not an icsisec checkout (src/icsisec and instances/golden)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_every_workload(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds()
    import icsisec.cli  # noqa: F401  (imported before inputs are made, as a user's process would)

    work = OUT / f"inputs-{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    # Keep the harness's own objects out of the collector's scans, so that a
    # request costs what it would in a process that holds only the package.
    gc.collect()
    gc.freeze()

    tally = Tally()
    metrics: dict = {}
    if args.trace:
        import tracing

        plain = run_pass(ops, tally)
        traced_tally = Tally()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, traced_tally)
        finally:
            tracer.restore()
        for op, a, b in zip(ops, plain, traced):
            if a != b:
                traced_tally.failed += 1
                traced_tally.problems.append(f"{op.label}: output differs with tracing on")
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.refused += traced_tally.refused
        tally.problems += traced_tally.problems
        metrics.update(tracer.layer_metrics())
        metrics["trace.overhead_s"] = (traced_tally.batches[0] - tally.batches[0], "s")
    else:
        # At least two passes; no pass is started that would end past the deadline.
        deadline = perf_counter() + args.seconds
        while True:
            started = perf_counter()
            run_pass(ops, tally)
            now = perf_counter()
            if len(tally.batches) >= 2 and now + (now - started) > deadline:
                break
        metrics["setup_s"] = (setup, "s")
        # Each request's latency is its median over the passes; a pass is
        # the sum of them, and the percentiles run over the requests.
        latencies = [statistics.median(s) for s in tally.op_seconds.values()]
        metrics["batch_s"] = (sum(latencies), "s")
        metrics["op_p50_ms"] = (nearest_rank(latencies, 0.50) * 1000.0, "ms")
        metrics["op_p99_ms"] = (nearest_rank(latencies, 0.99) * 1000.0, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["error_rate"] = ((tally.failed + tally.refused) / tally.attempted, "ratio")
    by_label: dict = {}
    for index, seconds in tally.op_seconds.items():
        by_label.setdefault(ops[index].label, []).extend(seconds)
    if len(by_label) <= 20:
        for label, seconds in by_label.items():
            metrics[f"op.{label}_s"] = (statistics.median(seconds), "s")
    for label, runs in tally.probes.items():
        metrics[f"probe.{label}_s"] = (statistics.median(s for s, _, _ in runs), "s")
        metrics[f"probe.{label}_exit"] = (runs[-1][1], "code")

    meta = machine(args)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    timed = len(tally.op_seconds)
    print(f"# {len(tally.batches)} passes over {timed} timed requests, {timed - math.ceil(0.99 * timed)} beyond op_p99_ms")
    print(f"# attempted={tally.attempted} failed={tally.failed} refused={tally.refused}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for label, runs in tally.probes.items():
        print(f"# probe {label}: exit {runs[-1][1]}: {runs[-1][2]}")
    for problem in tally.problems[:10]:
        print(f"# FAIL {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(meta, attempted=tally.attempted, failed=tally.failed, refused=tally.refused,
                  passes_s=tally.batches, problems=tally.problems, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(OUT / f"{args.workload}.spans", meta)  # one per workload: they run large

    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
