"""Command-line front end.

Results go to standard output, diagnostics and loader notices to standard
error, and the exit code tells the caller what happened:

    0  success
    1  I/O failure (unreadable or missing file)
    2  malformed instance, bad flag values, or arity mismatch
    3  an enumeration guard fired; its message, from code._guard, reads
       "<loop>: size <size> exceeds the limit <limit>" for the one loop
       that stopped
    4  a receiver cannot decode its demand
    5  candidate list unavailable: too large (in the message form of 3),
       or the unknown columns lose rank
    6  a verification suite found a property violation

The environment variable ICSI_SEC_THREADS (a worker-count hint; the
program is single-threaded) and analyze's --sample flag (reports are exact
at every length) are accepted and never change output.

The argument parser is built once per process, on the first main() call,
so repeated in-process calls pay only for parsing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .algebra import AlgebraError, Vector
from .code import CodeError, TooLargeToEnumerateError
from .fileio import LoadedInstance, dumps_report, load_instance
from .icsi import IcsiError, NotDecodableError, Scheme, build_scheme, decode_receiver, encode
from .security import (
    AdversaryView,
    ListTooLargeError,
    RankDeficientError,
    SecurityError,
    _candidate_columns,
    _candidate_text,
    complete_insecurity_attack,
    security_report,
)
from .verify import SUITE_NAMES, load_corpus, run_suite


def _err(message: object) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load(args: argparse.Namespace) -> tuple[LoadedInstance, Scheme]:
    loaded = load_instance(args.instance)
    for note in loaded.notices:
        print(f"note: {note}", file=sys.stderr)
    return loaded, build_scheme(loaded.instance, loaded.choice_vectors)


def _parse_vector(text: str, field, expected: int, what: str) -> Vector:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != expected:
        raise ValueError(f"{what} needs {expected} comma-separated values, got {len(parts)}")
    return Vector(field, tuple(int(p) for p in parts))


def _parse_assignments(text: str, field) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text.strip():
        return out
    for part in text.split(","):
        index_text, _, value_text = part.partition("=")
        if not _:
            raise ValueError(f"expected index=value, got {part.strip()!r}")
        index = int(index_text.strip())
        value = int(value_text.strip())
        if index in out:
            raise ValueError(f"index {index} assigned twice")
        field.check_value(value)
        out[index] = value
    return out


def cmd_analyze(args: argparse.Namespace) -> int:
    _, scheme = _load(args)
    report = security_report(scheme.code, seed=args.seed)
    sys.stdout.write(dumps_report(report, scheme.code))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    _, scheme = _load(args)
    field = scheme.field
    messages = _parse_vector(args.messages, field, scheme.instance.n, "--messages")
    broadcast = encode(scheme, messages)
    for value in broadcast.entries:
        print(value)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    _, scheme = _load(args)
    field = scheme.field
    broadcast = _parse_vector(args.broadcast, field, scheme.code.dimension, "--broadcast")
    side = _parse_assignments(args.side, field)
    print(decode_receiver(scheme, args.receiver, broadcast, side))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    _, scheme = _load(args)
    field = scheme.field
    code = scheme.code
    known = _parse_assignments(args.known, field)
    broadcast = _parse_vector(args.broadcast, field, code.dimension, "--broadcast")
    view = AdversaryView.of(known, broadcast)
    # Every answer is computed before anything is printed, so a refused
    # list (exit 2 or 5) leaves stdout empty. The list's columns come with
    # the outcome of their own reduction, so --list reduces once.
    if args.list:
        columns, outcome = _candidate_columns(code, view)
    else:
        columns = None
        outcome = complete_insecurity_attack(code, view)
    values = outcome.mapping
    lines = [
        f"{i}={values[i]}" if i in values else f"{i}=?"
        for i in range(1, code.length + 1)
        if i not in known
    ]
    rows = ""
    if columns is not None:
        lines.append(f"count={len(columns[0])}")
        # The text is written from the columns with no Vector per
        # candidate and, for q <= 256, no Python step per row.
        rows = _candidate_text(columns, field.q)
    if not outcome.consistent:
        print("note: the observation matches no message vector; "
              "recovered values are not meaningful", file=sys.stderr)
    # Two writes, so the list text is not copied once more into one string.
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    sys.stdout.write(rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    extra = load_corpus(args.corpus) if args.corpus else ()
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    status = 0
    for name in names:
        result = run_suite(name, seed=args.seed, extra=extra)
        print(f"{name}: {result.cases} cases, {'pass' if result.ok else 'FAIL'}")
        if not result.ok:
            print(
                json.dumps(result.failures[0], indent=2, sort_keys=True),
                file=sys.stderr,
            )
            status = 6
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsisec",
        description="Linear broadcast schemes for receivers with side "
        "information, and their exact security analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="security report for an instance file")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0, help="recorded in the report; changes no verdict")
    p.add_argument(
        "--sample", action="store_true",
        help="accepted and ignored: every report is exact, and one past n = 14 is marked sampled",
    )
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("encode", help="broadcast for one message vector")
    p.add_argument("instance")
    p.add_argument("--messages", required=True, help="n comma-separated field values")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="recover one receiver's demand")
    p.add_argument("instance")
    p.add_argument("--receiver", type=int, required=True, help="receiver number, 1-based")
    p.add_argument("--broadcast", required=True, help="k comma-separated field values")
    p.add_argument("--side", default="", help="side values as i=v,i=v,...")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("attack", help="what an adversary recovers")
    p.add_argument("instance")
    p.add_argument("--known", default="", help="known messages as i=v,i=v,...")
    p.add_argument("--broadcast", required=True, help="k comma-separated field values")
    p.add_argument("--list", action="store_true", help="also print the full candidate list")
    p.set_defaults(handler=cmd_attack)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", default=None, help="JSON file with extra corpus codes")
    p.set_defaults(handler=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        _err(exc)
        return 1
    except TooLargeToEnumerateError as exc:
        _err(exc)
        return 3
    except NotDecodableError as exc:
        _err(exc)
        return 4
    except (ListTooLargeError, RankDeficientError) as exc:
        _err(exc)
        return 5
    except (IcsiError, AlgebraError, CodeError, SecurityError, ValueError) as exc:
        _err(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
