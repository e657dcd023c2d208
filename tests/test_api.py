"""The package's public surface, pinned name by name.

A name leaves __all__ only on purpose, and the benchmark tracer in
perfbench/tracing.py wraps functions by (module, attribute) at install
time, so every pair it lists must keep resolving.
"""

import importlib
import sys
from pathlib import Path

import icsisec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = [
    "AdversaryView",
    "AlgebraError",
    "AttackOutcome",
    "BlockEntropy",
    "CodeError",
    "ConfinementViolationError",
    "DimensionMismatchError",
    "Field",
    "FieldMismatchError",
    "IcsiError",
    "IcsiInstance",
    "InconsistentObservationError",
    "InconsistentSystemError",
    "IndexOutOfRangeError",
    "LinearCode",
    "ListTooLargeError",
    "LoadedInstance",
    "MalformedInstanceError",
    "Matrix",
    "NotDecodableError",
    "NotPrimeError",
    "RankDeficientError",
    "ReduciblePolynomialError",
    "SUITE_NAMES",
    "Scheme",
    "SecurityError",
    "SecurityQuery",
    "SecurityReport",
    "StrengthVerdict",
    "TOOL_VERSION",
    "TooLargeToEnumerateError",
    "Vector",
    "WeakSecurityWitness",
    "block_security_level",
    "build_scheme",
    "builtin_corpus",
    "complete_insecurity_attack",
    "conditional_block_entropy",
    "decode_receiver",
    "decoding_plan",
    "default_choice_vectors",
    "dumps_report",
    "encode",
    "has_no_information",
    "iterate_span",
    "list_attack",
    "load_instance",
    "oa_tuple_counts",
    "parse_instance",
    "reed_solomon_code",
    "report_to_dict",
    "run_suite",
    "security_report",
    "solve",
    "split_multi_request",
    "unit_vector",
    "validate",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert icsisec.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(icsisec, name) is not None


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    assert tracing.TRACED
    for module_name, attribute, _ in tracing.TRACED:
        home = importlib.import_module(f"icsisec.{module_name}")
        if "." in attribute:
            # the tracer reads methods from the class's own namespace
            cls_name, member = attribute.split(".")
            assert member in vars(getattr(home, cls_name)), (module_name, attribute)
        else:
            assert callable(getattr(home, attribute)), (module_name, attribute)
