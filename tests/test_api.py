"""The package's public surface, pinned name by name.

A name leaves __all__ only on purpose, and the benchmark tracer in
perfbench/tracing.py wraps functions by (module, attribute) at install
time, so every pair it lists must keep resolving.
"""

import ast
import importlib
import sys
from pathlib import Path

import icsisec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(icsisec.__file__).resolve().parent

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


def _constant_value(node):
    """The value of an expression built from literals and operators only,
    else None."""
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if all(isinstance(part, allowed) for part in ast.walk(node)):
        return eval(compile(ast.Expression(node), "<constant>", "eval"), {"__builtins__": {}})
    return None


def test_walk_layout_and_budgets_stay_in_code():
    """The fiber walk's internals and its 2^24 budget are used only by
    code.py, where the walks live, and by verify.py, which checks them; the
    2^20 and 2^24 budgets are defined only in code.py, next to the one
    guard."""
    internals = {
        "_binary_span", "_binary_blocks", "_fiber_roots", "_pack_bits", "_walk_spectrum",
        "BLOCK_ROWS", "MAX_ENUMERATION",
    }
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "code.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if path.name != "verify.py":
                if isinstance(node, ast.ImportFrom):
                    assert not internals & {alias.name for alias in node.names}, path.name
                if isinstance(node, ast.Attribute):
                    assert node.attr not in internals, (path.name, node.attr)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                assert _constant_value(node.value) not in (1 << 20, 1 << 24), (path.name, node.lineno)
