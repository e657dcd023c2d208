"""JSON interchange: instance files in, report files out.

Instance documents carry 1-based message indices and canonical-integer
field values, exactly as the library API does, so files stay human
auditable. Parsing is strict: unknown keys anywhere are an error, as are
duplicate indices, because silently ignored typos in security fixtures are
worse than load failures.

Instance document shape:

    {
      "field": {"p": 2},                    // or {"p": 2, "m": 3, "poly": [1, 1, 0, 1]}
      "n": 7,
      "receivers": [
        {"side_info": [6, 7], "demand": 1},
        {"side_info": [1, 3], "demand": [2, 5]}   // auto-split, one notice
      ],
      "choice_policy": "indicator"          // or "zero", or a list of m vectors
    }

Report documents carry a SecurityReport plus the generator matrix;
dumps_report fixes the byte-level form (stable key order, two-space
indent, trailing newline) that golden files and the determinism contract
rely on. It writes that fixed layout directly, since json.dumps with an
indent runs the pure-Python encoder; report_to_dict is the same document
as plain data, and json.dumps(report_to_dict(...), indent=2) + "\n" is
the reference the writer is tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .algebra import AlgebraError, Field, Vector
from .code import LinearCode
from .icsi import (
    IcsiInstance,
    MalformedInstanceError,
    default_choice_vectors,
    split_multi_request,
    validate,
)
from .security import (
    RecoveryCounterexample,
    SecurityReport,
    StrengthVerdict,
    WeakSecurityWitness,
)

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class LoadedInstance:
    """A parsed instance plus its choice vectors and any loader notices."""

    instance: IcsiInstance
    choice_vectors: tuple[Vector, ...]
    notices: tuple[str, ...]


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise MalformedInstanceError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(obj)
    if missing:
        raise MalformedInstanceError(f"missing key {sorted(missing)[0]!r} in {where}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInstanceError(f"{where} must be an integer, got {value!r}")
    return value


def _as_index_list(value: Any, where: str) -> list[int]:
    """The list itself, once every entry is an integer and none repeats; a
    non-integer anywhere outranks a repeat."""
    if not isinstance(value, list):
        raise MalformedInstanceError(f"{where} must be a list, got {value!r}")
    for v in value:
        if type(v) is not int:
            _as_int(v, where)
    if len(set(value)) != len(value):
        raise MalformedInstanceError(f"duplicate index in {where}")
    return value


def _as_field_row(row: list, field: Field, where: str) -> Vector:
    """A choice-vector row checked in one pass: a non-integer anywhere
    outranks a value outside the field, and within each kind the first
    bad entry is named."""
    q = field.q
    outside = None
    for v in row:
        if type(v) is not int:
            _as_int(v, where)
        if outside is None and not 0 <= v < q:
            outside = v
    if outside is not None:
        raise MalformedInstanceError(
            f"{where}: {outside!r} is not a canonical element of {field!r}"
        )
    return Vector._raw(field, tuple(row))


def _parse_field(obj: Any) -> Field:
    if not isinstance(obj, dict):
        raise MalformedInstanceError("'field' must be an object")
    _require_keys(obj, {"p", "m", "poly"}, {"p"}, "'field'")
    p = _as_int(obj["p"], "'field.p'")
    m = _as_int(obj.get("m", 1), "'field.m'")
    poly = obj.get("poly")
    if poly is not None:
        if not isinstance(poly, list):
            raise MalformedInstanceError(f"'field.poly' must be a list, got {poly!r}")
        poly = tuple(_as_int(c, "'field.poly'") for c in poly)
    try:
        return Field(p, m, poly=poly)
    except (AlgebraError, ValueError) as exc:
        raise MalformedInstanceError(f"bad field: {exc}") from exc


def parse_instance(doc: Any) -> LoadedInstance:
    """Parse one instance document (already JSON-decoded) strictly."""
    if not isinstance(doc, dict):
        raise MalformedInstanceError("instance document must be a JSON object")
    _require_keys(doc, {"field", "n", "receivers", "choice_policy"}, {"field", "n", "receivers"}, "instance")
    field = _parse_field(doc["field"])
    n = _as_int(doc["n"], "'n'")
    receivers = doc["receivers"]
    if not isinstance(receivers, list) or not receivers:
        raise MalformedInstanceError("'receivers' must be a nonempty list")

    sides: list[frozenset[int]] = []
    demand_sets: list[list[int]] = []
    notices: list[str] = []
    for j, entry in enumerate(receivers, start=1):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"receiver {j} must be an object")
        _require_keys(entry, {"side_info", "demand"}, {"side_info", "demand"}, f"receiver {j}")
        sides.append(frozenset(_as_index_list(entry["side_info"], f"receiver {j} side_info")))
        demand = entry["demand"]
        if isinstance(demand, list):
            wanted = _as_index_list(demand, f"receiver {j} demand")
            if not wanted:
                raise MalformedInstanceError(f"receiver {j} demands nothing")
        else:
            wanted = [_as_int(demand, f"receiver {j} demand")]
        demand_sets.append(wanted)
        if len(wanted) > 1:
            notices.append(
                f"receiver {j} demands {len(wanted)} messages; split into single-demand receivers"
            )

    instance = split_multi_request(field, n, sides, demand_sets)

    policy = doc.get("choice_policy", "indicator")
    if policy in ("indicator", "zero"):
        vectors = default_choice_vectors(instance, policy)
    elif isinstance(policy, list):
        if len(policy) != len(receivers):
            raise MalformedInstanceError(
                f"choice_policy lists {len(policy)} vectors for {len(receivers)} receivers"
            )
        per_file: list[Vector] = []
        for j, row in enumerate(policy, start=1):
            if not isinstance(row, list) or len(row) != n:
                raise MalformedInstanceError(
                    f"choice vector {j} must be a list of {n} field values"
                )
            per_file.append(_as_field_row(row, field, f"choice vector {j}"))
        expanded: list[Vector] = []
        for j, wanted in enumerate(demand_sets):
            expanded.extend([per_file[j]] * len(wanted))
        vectors = tuple(expanded)
    else:
        raise MalformedInstanceError(
            f"choice_policy must be 'indicator', 'zero', or a vector list, got {policy!r}"
        )

    notices.extend(validate(instance))
    return LoadedInstance(instance, vectors, tuple(notices))


def load_instance(path: str) -> LoadedInstance:
    """Read and parse an instance file; JSON syntax errors surface as
    MalformedInstanceError, I/O errors as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"{path}: not valid JSON ({exc})") from exc
    return parse_instance(doc)


def _field_to_dict(field: Field) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "poly": list(field.poly) if field.poly is not None else None,
    }


def _witness_to_dict(witness: Optional[WeakSecurityWitness]) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "known": sorted(witness.known),
        "exposed": witness.exposed,
        "combination": list(witness.combination.entries),
        "coefficients": list(witness.coefficients.entries),
    }


def _counterexample_to_dict(cex: Optional[RecoveryCounterexample]) -> Optional[dict]:
    if cex is None:
        return None
    return {"known": sorted(cex.known), "resisted": cex.resisted}


def report_to_dict(report: SecurityReport, code: LinearCode) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "seed": report.seed,
        "mode": report.mode,
        "field": _field_to_dict(code.field),
        "code": {
            "n": report.length,
            "k": report.dimension,
            "d": report.min_distance,
            "d_dual": report.dual_distance,
        },
        "insecure_from": report.insecurity_threshold,
        "generator": [list(row) for row in code.generator.entries],
        "strengths": [
            {
                "t": v.strength,
                "guaranteed_block_level": v.guaranteed_block_level,
                "measured_block_level": v.measured_block_level,
                "weakly_secure": v.weakly_secure,
                "weak_witness": _witness_to_dict(v.weak_witness),
                "completely_insecure": v.completely_insecure,
                "counterexample": _counterexample_to_dict(v.complete_counterexample),
            }
            for v in report.strengths
        ],
    }


def _json_list(items: Iterable[str], pad: str) -> str:
    """Rendered items as json.dumps(indent=2) lays out a list whose
    opening line is indented by `pad`."""
    inner = "\n" + pad + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + pad + "]" if body else "[]"


def _ints(values: Iterable[int], pad: str) -> str:
    return _json_list(map(str, values), pad)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _witness_json(witness: Optional[WeakSecurityWitness]) -> str:
    if witness is None:
        return "null"
    pad = "        "
    return (
        "{\n"
        f'{pad}"known": {_ints(sorted(witness.known), pad)},\n'
        f'{pad}"exposed": {witness.exposed},\n'
        f'{pad}"combination": {_ints(witness.combination.entries, pad)},\n'
        f'{pad}"coefficients": {_ints(witness.coefficients.entries, pad)}\n'
        "      }"
    )


def _strength_json(v: StrengthVerdict) -> str:
    cex = v.complete_counterexample
    counterexample = "null"
    if cex is not None:
        counterexample = (
            "{\n"
            f'        "known": {_ints(sorted(cex.known), "        ")},\n'
            f'        "resisted": {cex.resisted}\n'
            "      }"
        )
    return (
        "{\n"
        f'      "t": {v.strength},\n'
        f'      "guaranteed_block_level": {v.guaranteed_block_level},\n'
        f'      "measured_block_level": {v.measured_block_level},\n'
        f'      "weakly_secure": {_bool(v.weakly_secure)},\n'
        f'      "weak_witness": {_witness_json(v.weak_witness)},\n'
        f'      "completely_insecure": {_bool(v.completely_insecure)},\n'
        f'      "counterexample": {counterexample}\n'
        "    }"
    )


def dumps_report(report: SecurityReport, code: LinearCode) -> str:
    """The canonical byte form of a report: stable key order, two-space
    indent, trailing newline. The text is written straight from the
    report, with json.dumps only for its two strings; it equals
    json.dumps(report_to_dict(report, code), indent=2) + "\n", the
    reference the tests hold it to."""
    field = code.field
    poly = "null" if field.poly is None else _ints(field.poly, "    ")
    generator = _json_list((_ints(row, "    ") for row in code.generator.entries), "  ")
    strengths = _json_list(map(_strength_json, report.strengths), "  ")
    return (
        "{\n"
        f'  "tool_version": {json.dumps(TOOL_VERSION)},\n'
        f'  "seed": {report.seed},\n'
        f'  "mode": {json.dumps(report.mode)},\n'
        '  "field": {\n'
        f'    "p": {field.p},\n'
        f'    "m": {field.m},\n'
        f'    "poly": {poly}\n'
        "  },\n"
        '  "code": {\n'
        f'    "n": {report.length},\n'
        f'    "k": {report.dimension},\n'
        f'    "d": {report.min_distance},\n'
        f'    "d_dual": {report.dual_distance}\n'
        "  },\n"
        f'  "insecure_from": {report.insecurity_threshold},\n'
        f'  "generator": {generator},\n'
        f'  "strengths": {strengths}\n'
        "}\n"
    )
