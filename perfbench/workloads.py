"""Seeded workloads: the instance files, the CLI requests and their checks.

Every workload is a fixed list of CLI requests (argv lists for
`icsisec.cli.main`), each carrying a check of its exit code and output.
The same seed always yields the same files and the same requests. Expected
values come from `refmath`, which shares no code with the package.

Input validity is checked while generating, and a failure there aborts the
run: each generated code must be the code it stands for (the generator of
a Reed-Solomon instance equals `reed_solomon_code(n, k, F)`'s) and must
have the intended distances, (n-k+1, k+1) for Reed-Solomon, (n, 2) for
repetition and (2, n) for even weight.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import refmath
from refmath import RefField

# A check returns None when (exit code, stdout, stderr) is right, else why not.
Check = Callable[[int, str, str], Optional[str]]

QUERY_REQUESTS = 2400
# Each shipped instance is analyzed this many times per pass, spread among
# the heavy requests, so the latency of a typical (light) request rests on
# samples from the whole run rather than on one moment of each pass.
SHIPPED_REPEATS = 8
VERIFY_CASES = {"thm1": 112, "thm2": 1052, "lemma3": 7531, "thm3": 447, "thm4": 408}

# SHA-256 of the exhaustive reports of the generated seed-independent
# instances, recorded from the package as it was when this benchmark was
# written. A change in report bytes fails these on purpose.
REPORT_DIGESTS = {
    "rep12_1": "05641732389d5159ad090342cd5a69a0e173fdcd7e6909bc12329ae9a3f6cf5d",
    "even12_11": "6ce973f42e8848fe164857d4edf26d72cd98c401a34ca43e5f4258d6383865dd",
    "rs8_4_gf16": "7af49fdadbe1bcd79944e8cfffaa32b7e1ef846a911afc9992e773a85b5e85d7",
    "rs8_4_gf9": "6fbd548dfc7c842eb955d7355e3183557d3fa353f3c86a5b0ff39b3e12bfd5dd",
    "rs9_3_f11": "09f64d44382aa6bfd52155140feda6d4fe31022397e4fe7ac8872e9a6b110507",
}

F2 = {"p": 2}
GF16 = {"p": 2, "m": 4, "poly": [1, 1, 0, 0, 1]}
GF9 = {"p": 3, "m": 2, "poly": [1, 0, 1]}


class InputError(Exception):
    """A generated input is not what it claims to be."""


@dataclass
class Op:
    """One CLI request of a workload. Probes are timed and reported apart."""

    label: str
    argv: list[str]
    check: Check
    probe: bool = False
    passed: set = field(default_factory=set)

    def verify(self, code: int, out: str, err: str) -> Optional[str]:
        """The check, remembered per distinct passing output."""
        key = (code, out, err)
        if key in self.passed:
            return None
        try:
            problem = self.check(code, out, err)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem is None:
            self.passed.add(key)
        return problem


class SplitMix:
    """splitmix64; kept here so inputs never depend on the package's RNG."""

    def __init__(self, seed: int):
        self.state = seed & (2**64 - 1)

    def below(self, bound: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return ((z ^ (z >> 31)) * bound) >> 64

    def subset(self, items: Sequence[int], size: int) -> list[int]:
        pool = list(items)
        for i in range(size):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:size])


def ref_field(doc: dict) -> RefField:
    return RefField(doc["p"], doc.get("poly") if doc.get("m", 1) > 1 else None)


@dataclass
class Target:
    """An instance file with its field, canonical generator and receivers."""

    name: str
    path: Path
    f: RefField
    gen: list[list[int]]
    receivers: list[tuple[list[int], int]]

    @property
    def n(self) -> int:
        return len(self.gen[0])

    @property
    def k(self) -> int:
        return len(self.gen)


def load_target(name: str, path: Path) -> Target:
    """Read an instance file and compute its generator independently."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    f = ref_field(doc["field"])
    n = doc["n"]
    receivers = [(sorted(r["side_info"]), r["demand"]) for r in doc["receivers"]]
    policy = doc.get("choice_policy", "indicator")
    rows = []
    for j, (side, demand) in enumerate(receivers):
        if demand in side:
            continue
        if policy == "indicator":
            row = [1 if i + 1 in side else 0 for i in range(n)]
        elif policy == "zero":
            row = [0] * n
        else:
            row = list(policy[j])
        row[demand - 1] = f.add_t[row[demand - 1]][1]
        rows.append(row)
    gen, _ = refmath.rref(f, rows)
    return Target(name, path, f, gen, receivers)


def write_code_instance(path: Path, field_doc: dict, f: RefField, rows: Sequence[Sequence[int]]) -> Target:
    """Write any code as an instance: receiver i demands pivot column p_i,
    holds the non-pivot columns, and uses row i minus e_{p_i} as its choice
    vector, so the broadcast code is exactly the row space of `rows`."""
    gen, pivots = refmath.rref(f, rows)
    n = len(gen[0])
    side = [j + 1 for j in range(n) if j not in pivots]
    doc = {
        "field": field_doc,
        "n": n,
        "receivers": [{"side_info": side, "demand": p + 1} for p in pivots],
        "choice_policy": [[0 if j == p else v for j, v in enumerate(row)] for row, p in zip(gen, pivots)],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    target = load_target(path.stem, path)
    if target.gen != gen:
        raise InputError(f"{path.name} does not span the intended code")
    return target


def random_full_rank(rng: SplitMix, f: RefField, k: int, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.below(f.q) for _ in range(n)] for _ in range(k)]
        if refmath.rank(f, rows) == k:
            return rows


def rs_rows(f: RefField, n: int, k: int) -> list[list[int]]:
    """Monomials X^i evaluated at the first n field elements."""
    return [[f.power(a, i) for a in range(n)] for i in range(k)]


def expect_distances(target: Target, d: int, d_dual: int) -> None:
    got = refmath.distances(target.f, target.gen)
    if got != (d, d_dual):
        raise InputError(f"{target.name}: (d, d_dual) = {got}, expected {(d, d_dual)}")


def expect_library_rs(target: Target, field_doc: dict) -> None:
    """The instance's code, as the package builds it, is its RS code."""
    from icsisec import Field, build_scheme, load_instance, reed_solomon_code

    loaded = load_instance(str(target.path))
    built = build_scheme(loaded.instance, loaded.choice_vectors).code.generator.entries
    poly = field_doc.get("poly") if field_doc.get("m", 1) > 1 else None
    field_ = Field(field_doc["p"], field_doc.get("m", 1), poly=poly)
    rs = reed_solomon_code(target.n, target.k, field_).generator.entries
    if built != rs or [list(r) for r in rs] != target.gen:
        raise InputError(f"{target.name}: generator differs from reed_solomon_code")


# -- report checks ---------------------------------------------------------


def _witness_problem(t: int, entry: dict, target: Target) -> Optional[str]:
    w = entry["weak_witness"]
    if w is None:
        return None
    f, n = target.f, target.n
    if len(w["known"]) != t or w["exposed"] in w["known"]:
        return f"t={t}: witness knows {w['known']} and exposes {w['exposed']}"
    if any(v and j + 1 not in w["known"] for j, v in enumerate(w["combination"])):
        return f"t={t}: witness combination leaves its known set"
    word = f.vecmat(w["coefficients"], target.gen)
    expected = list(w["combination"])
    expected[w["exposed"] - 1] = f.add_t[expected[w["exposed"] - 1]][1]
    if word != expected:
        return f"t={t}: witness does not recover x_{w['exposed']}"
    return None


def report_problem(text: str, target: Target, d: int, d_dual: int, mode: str) -> Optional[str]:
    """Check a report against the code's parameters.

    Exhaustive reports must follow the closed-form ladder: measured level
    max(0, d-1-t), completely insecure exactly when t >= n - d_dual + 1.
    Sampled reports only keep the invariants the sampling cannot break.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    n, k = target.n, target.k
    threshold = n - d_dual + 1
    if doc.get("mode") != mode:
        return f"mode {doc.get('mode')!r}, expected {mode!r}"
    if doc["code"] != {"n": n, "k": k, "d": d, "d_dual": d_dual}:
        return f"code parameters {doc['code']}, expected n={n} k={k} d={d} d_dual={d_dual}"
    if doc["insecure_from"] != threshold:
        return f"insecure_from {doc['insecure_from']}, expected {threshold}"
    if doc["generator"] != target.gen:
        return "generator differs from the instance's code"
    if [s["t"] for s in doc["strengths"]] != list(range(n)):
        return "strengths do not run over t = 0..n-1"
    for t, s in enumerate(doc["strengths"]):
        floor = max(0, d - 1 - t)
        measured = s["measured_block_level"]
        if s["guaranteed_block_level"] != floor:
            return f"t={t}: guaranteed level {s['guaranteed_block_level']}, expected {floor}"
        if (mode == "exhaustive" and measured != floor) or measured < floor:
            return f"t={t}: measured level {measured} against floor {floor}"
        if s["weakly_secure"] != (measured >= 1):
            return f"t={t}: weakly_secure disagrees with level {measured}"
        complete = s["completely_insecure"]
        if (mode == "exhaustive" and complete != (t >= threshold)) or (t >= threshold and not complete):
            return f"t={t}: completely_insecure={complete}, threshold {threshold}"
        if (s["counterexample"] is None) != complete:
            return f"t={t}: counterexample disagrees with completely_insecure"
        problem = _witness_problem(t, s, target)
        if problem:
            return problem
    return None


def expect_exit0(inner: Callable[[str], Optional[str]]) -> Check:
    def check(code: int, out: str, err: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        return inner(out)
    return check


def golden_check(golden: str) -> Check:
    return expect_exit0(lambda out: None if out == golden else "report differs from its golden file")


def digest_ladder_check(target: Target, digest: str, d: int, d_dual: int) -> Check:
    def inner(out: str) -> Optional[str]:
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if got != digest:
            return f"report sha256 {got[:16]}..., expected {digest[:16]}..."
        return report_problem(out, target, d, d_dual, "exhaustive")
    return expect_exit0(inner)


def probe_check(target: Target, mode: str, distances: Callable[[], tuple[int, int]]) -> Check:
    """A probe passes when a guard refuses it (exit 3, reason on stderr) or
    when it succeeds with a report that holds up."""
    def check(code: int, out: str, err: str) -> Optional[str]:
        if code == 3:
            return None if err.startswith("error: ") and not out else "guard refusal without a reason"
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        return report_problem(out, target, *distances(), mode)
    return check


# -- workloads -------------------------------------------------------------


def _analyze(label: str, target: Target, check: Check, extra: Sequence[str] = (), probe: bool = False) -> Op:
    return Op(label, ["analyze", str(target.path), *extra], check, probe)


def _shipped(root: Path, name: str) -> Op:
    target = load_target(name, root / "instances" / f"{name}.json")
    golden = (root / "instances" / "golden" / f"{name}.report.json").read_text(encoding="utf-8")
    return _analyze(name, target, golden_check(golden))


def _digest_op(label: str, target: Target, d: int, d_dual: int) -> Op:
    expect_distances(target, d, d_dual)
    return _analyze(label, target, digest_ladder_check(target, REPORT_DIGESTS[label], d, d_dual))


def _rs_target(work: Path, label: str, field_doc: dict, n: int, k: int) -> Target:
    f = ref_field(field_doc)
    target = write_code_instance(work / f"{label}.json", field_doc, f, rs_rows(f, n, k))
    expect_library_rs(target, field_doc)
    return target


def _interleave(light: list[Op], heavy: list[Op]) -> list[Op]:
    """SHIPPED_REPEATS rounds of the light requests, the heavy ones spread
    evenly between the rounds."""
    ops = []
    for r in range(1, SHIPPED_REPEATS + 1):
        ops += light
        ops += [op for i, op in enumerate(heavy) if (i + 1) * SHIPPED_REPEATS // (len(heavy) + 1) == r]
    return ops


def analyze_sweep(root: Path, work: Path, seed: int) -> list[Op]:
    """Binary codes whose time goes to the column-subset sweeps."""
    rng = SplitMix(seed)
    f2 = RefField(2)
    light = [_shipped(root, name) for name in ("hamming7", "hamming7_zero", "repetition3")]
    heavy = []
    rep = write_code_instance(work / "rep12_1.json", F2, f2, [[1] * 12])
    heavy.append(_digest_op("rep12_1", rep, 12, 2))
    even = write_code_instance(
        work / "even12_11.json", F2, f2, [[1 if j in (i, 11) else 0 for j in range(12)] for i in range(11)]
    )
    heavy.append(_digest_op("even12_11", even, 2, 12))
    # Drawn until d = d_dual = 4, the commonest pair: how deep the sampled
    # sweeps go depends on d, and that would otherwise vary with the seed.
    while True:
        rows = random_full_rank(rng, f2, 12, 24)
        if refmath.distances(f2, refmath.rref(f2, rows)[0]) == (4, 4):
            break
    rand = write_code_instance(work / "rand24_12.json", F2, f2, rows)
    heavy.append(_analyze(
        "rand24_12", rand, expect_exit0(lambda out: report_problem(out, rand, 4, 4, "sampled")),
        ("--sample", "--seed", "1"),
    ))
    return _interleave(light, heavy)


def analyze_span(root: Path, work: Path, seed: int) -> list[Op]:
    """Codes whose time goes to enumerating codewords, plus two guard probes."""
    rng = SplitMix(seed)
    heavy = []
    for label, field_doc, n, k in (
        ("rs8_4_gf16", GF16, 8, 4),
        ("rs8_4_gf9", GF9, 8, 4),
        ("rs9_3_f11", {"p": 11}, 9, 3),
    ):
        heavy.append(_digest_op(label, _rs_target(work, label, field_doc, n, k), n - k + 1, k + 1))
    ops = _interleave([_shipped(root, "rs7_3")], heavy)
    rs13 = _rs_target(work, "rs12_4_f13", {"p": 13}, 12, 4)
    ops.append(_analyze("rs12_4_f13", rs13, probe_check(rs13, "exhaustive", lambda: (9, 5)), probe=True))
    f7 = RefField(7)
    rand = write_code_instance(work / "rand16_10_f7.json", {"p": 7}, f7, random_full_rank(rng, f7, 10, 16))
    ops.append(_analyze(
        "rand16_10_f7", rand, probe_check(rand, "sampled", lambda: refmath.distances(f7, rand.gen)),
        ("--sample", "--seed", "1"), probe=True,
    ))
    return ops


def _random_instance(path: Path, field_doc: dict, rng: SplitMix, n: int, m: int) -> Target:
    """m receivers with random side information and confined choice vectors."""
    f = ref_field(field_doc)
    receivers, policy = [], []
    for _ in range(m):
        demand = 1 + rng.below(n)
        side = [i for i in range(1, n + 1) if i != demand and rng.below(2)]
        receivers.append({"side_info": side, "demand": demand})
        policy.append([rng.below(f.q) if i + 1 in side else 0 for i in range(n)])
    doc = {"field": field_doc, "n": n, "receivers": receivers, "choice_policy": policy}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return load_target(path.stem, path)


def _text_check(expected: str) -> Check:
    return expect_exit0(lambda out: None if out == expected else f"printed {out[:80]!r}, expected {expected[:80]!r}")


def _list_check(target: Target, x: list[int], s: list[int], known: list[int], head: str, size: int) -> Check:
    """Per-index lines, then the candidate list: q^(n-t-k) distinct sorted
    vectors, all consistent with the observation, the real one among them."""
    f = target.f

    def inner(out: str) -> Optional[str]:
        if not out.startswith(head):
            return f"recovered values {out[:80]!r}, expected {head[:80]!r}"
        lines = out[len(head):].splitlines()
        if not lines or lines[0] != f"count={size}" or len(lines) != size + 1:
            return f"list header {lines[:1]} with {len(lines) - 1} entries, expected count={size}"
        words = [[int(v) for v in line.split(",")] for line in lines[1:]]
        if any(a >= b for a, b in zip(words, words[1:])):
            return "candidate list is not sorted and distinct"
        for z in words:
            if any(z[i - 1] != x[i - 1] for i in known) or f.matvec(target.gen, z) != s:
                return f"candidate {z} does not match the observation"
        return None if x in words else "real message vector missing from the list"
    return expect_exit0(inner)


def queries(root: Path, work: Path, seed: int, count: int = QUERY_REQUESTS) -> list[Op]:
    """A stream of single requests: 40% encode, 30% decode, 30% attack.

    Attacks on the shipped instances ask for the candidate list at
    strengths t <= d-1, where it holds exactly q^(n-t-k) entries.
    """
    rng = SplitMix(seed)
    targets = [load_target(name, root / "instances" / f"{name}.json") for name in ("hamming7", "rs7_3")]
    d_of = {t.name: refmath.distances(t.f, t.gen)[0] for t in targets}
    targets.append(_random_instance(work / "rand20_gf16.json", GF16, rng, 20, 16))
    targets.append(_random_instance(work / "rand24_f3.json", {"p": 3}, rng, 24, 20))
    # Every target gets the same share of each kind, and attacks cycle
    # through their strengths, so the mix and its tail do not move with the
    # seed; the seed draws the order, the messages and the known sets.
    slots, attacks = [], {t.name: 0 for t in targets}
    for i in range(count):
        tg = targets[i % len(targets)]
        kind = (i // len(targets)) % 10
        slots.append((tg, kind, attacks[tg.name] % d_of.get(tg.name, tg.n)))
        attacks[tg.name] += kind >= 7
    for i in range(len(slots) - 1, 0, -1):
        j = rng.below(i + 1)
        slots[i], slots[j] = slots[j], slots[i]
    ops = []
    for i, (tg, kind, t) in enumerate(slots):
        f, n = tg.f, tg.n
        x = [rng.below(f.q) for _ in range(n)]
        s = f.matvec(tg.gen, x)
        broadcast = ",".join(map(str, s))
        label = f"{tg.name}#{i}"
        if kind < 4:
            argv = ["encode", str(tg.path), "--messages", ",".join(map(str, x))]
            ops.append(Op(label, argv, _text_check("".join(f"{v}\n" for v in s))))
        elif kind < 7:
            j = 1 + rng.below(len(tg.receivers))
            side, demand = tg.receivers[j - 1]
            argv = ["decode", str(tg.path), "--receiver", str(j), "--broadcast", broadcast,
                    "--side", ",".join(f"{a}={x[a - 1]}" for a in side)]
            ops.append(Op(label, argv, _text_check(f"{x[demand - 1]}\n")))
        else:
            listed = tg.name in d_of
            known = rng.subset(range(1, n + 1), t)
            unknown = [a for a in range(1, n + 1) if a not in known]
            red, pivots = refmath.rref(f, [[row[a - 1] for a in unknown] for row in tg.gen])
            recovered = {unknown[c] for r, c in zip(red, pivots) if sum(1 for v in r if v) == 1}
            head = "".join(f"{a}={x[a - 1]}\n" if a in recovered else f"{a}=?\n" for a in unknown)
            argv = ["attack", str(tg.path), "--known", ",".join(f"{a}={x[a - 1]}" for a in known),
                    "--broadcast", broadcast]
            if listed:
                size = f.q ** (n - t - tg.k)
                ops.append(Op(label, argv + ["--list"], _list_check(tg, x, s, known, head, size)))
            else:
                ops.append(Op(label, argv, _text_check(head)))
    return ops


def verify(root: Path, work: Path, seed: int) -> list[Op]:
    """The five property suites at seed 0, each with its seed case count."""
    return [
        Op(name, ["verify", "--suite", name, "--seed", "0"], _text_check(f"{name}: {cases} cases, pass\n"))
        for name, cases in VERIFY_CASES.items()
    ]


WORKLOADS = {
    "analyze-sweep": analyze_sweep,
    "analyze-span": analyze_span,
    "queries": queries,
    "verify": verify,
}
