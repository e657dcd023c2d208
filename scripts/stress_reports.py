"""Time the security report of named stress codes, in process.

Each code is seeded_code(field, seed, n, k): uniform rows of Rng(seed),
redrawn from the same stream until they are independent, as the tests
draw them. For each code the script prints the seconds security_report
takes on a freshly built code (the spectrum, the distances, the
counterexamples and the witnesses; the median of --repeat fresh codes)
and the SHA-256 of the dumps_report output, or "refused" with the guard's
message where the report is past its budget (exit 3 in the CLI).

    python scripts/stress_reports.py                 # the default table
    python scripts/stress_reports.py 2:24:12 3:18:12:0 --repeat 5

A code is Q:N:K or Q:N:K:SEED (seed 1 when left out), Q a prime power.
Two trees report the same codes with the same digests exactly when their
reports are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

from icsisec.algebra import Field, Matrix
from icsisec.code import LinearCode, TooLargeToEnumerateError
from icsisec.fileio import dumps_report
from icsisec.rng import Rng
from icsisec.security import security_report

# The stress codes of the ROADMAP's Baseline report table, seed 1.
DEFAULT_CODES = (
    "4:14:10", "3:18:12", "2:32:22", "2:40:24", "2:40:16", "2:40:20", "7:16:10", "3:30:10",
)


def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q."""
    p = next(p for p in range(2, q + 1) if q % p == 0)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise ValueError(f"{p ** m * q} is not a prime power")
    return Field(p, m)


def seeded_code(field: Field, seed: int, n: int, k: int) -> LinearCode:
    """A [n, k] code from uniform rows of Rng(seed), redrawn from the same
    stream until they are independent."""
    rng = Rng(seed)
    while True:
        code = LinearCode(Matrix(field, tuple(
            tuple(rng.below(field.q) for _ in range(n)) for _ in range(k)
        )))
        if code.dimension == k:
            return code


def parse_code(text: str) -> tuple[int, int, int, int]:
    parts = [int(part) for part in text.split(":")]
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"{text!r} is not Q:N:K or Q:N:K:SEED")
    q, n, k, seed = parts + [1] * (4 - len(parts))
    return q, n, k, seed


def label(q: int, n: int, k: int, seed: int) -> str:
    name = f"F{q}" if field_of_order(q).m == 1 else f"GF({q})"
    return f"{name} [{n},{k}]" + ("" if seed == 1 else f" seed {seed}")


def measure(q: int, n: int, k: int, seed: int, repeat: int) -> str:
    field = field_of_order(q)
    seconds = []
    digest = None
    for _ in range(repeat):
        code = seeded_code(field, seed, n, k)
        start = time.perf_counter()
        try:
            report = security_report(code)
        except TooLargeToEnumerateError as exc:
            return f"refused  {exc}"
        seconds.append(time.perf_counter() - start)
        digest = hashlib.sha256(dumps_report(report, code).encode("utf-8")).hexdigest()
    return f"{statistics.median(seconds):.4f} s  sha256 {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("codes", nargs="*", type=parse_code, help="Q:N:K or Q:N:K:SEED")
    parser.add_argument("--repeat", type=int, default=1, help="fresh codes per timing (median)")
    args = parser.parse_args(argv)
    codes = args.codes or [parse_code(text) for text in DEFAULT_CODES]
    for q, n, k, seed in codes:
        print(f"{label(q, n, k, seed):<16} {measure(q, n, k, seed, args.repeat)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
