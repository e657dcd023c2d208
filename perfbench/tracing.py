"""Spans and counts around the package's public functions, from outside it.

`Tracer.install()` replaces each traced function in every `icsisec`
module namespace that binds it (so `solve` is traced whether `code` or
`security` calls it), and `Tracer.restore()` puts the originals back.
Each call records a span: name, start, end, parent span and self time
(its duration minus the time of its child spans). Spans stay in memory in
flat arrays until `write_spans` saves them.

Generators (`iterate_span`) record one span from first to last step; its
time is the time spent inside the generator, and its yields are counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# (defining module, attribute, span name); methods and cached properties
# are given as Class.attribute.
TRACED = (
    ("algebra", "_rank_raw", "algebra.rank"),
    ("algebra", "solve", "algebra.solve"),
    ("code", "LinearCode.__init__", "code.build"),
    ("code", "LinearCode.rank_of_columns", "code.rank_query"),
    ("code", "LinearCode.min_distance", "code.distance"),
    ("code", "LinearCode.dual_distance", "code.distance"),
    ("code", "LinearCode.confined_combination", "code.confined"),
    ("code", "iterate_span", "code.span"),
    ("code", "oa_tuple_counts", "code.oa_counts"),
    ("security", "security_report", "security.report"),
    ("security", "block_security_level", "security.block_level"),
    ("security", "weak_security_witness", "security.witness"),
    ("security", "conditional_block_entropy", "security.oracle"),
    ("security", "complete_insecurity_attack", "security.attack"),
    ("security", "list_attack", "security.list_attack"),
    ("icsi", "build_scheme", "icsi.build"),
    ("icsi", "encode", "icsi.encode"),
    ("icsi", "decode_receiver", "icsi.decode"),
    ("fileio", "load_instance", "fileio.load"),
    ("fileio", "dumps_report", "fileio.dump"),
    ("verify", "run_suite", "verify"),
    ("cli", "main", "cli.main"),
)

SUITES = ("thm1", "thm2", "lemma3", "thm3", "thm4")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost spans of a name only
        self.own: defaultdict = defaultdict(float)
        self.yields: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [span id, time of child spans]
        self._next = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording --

    def _open(self) -> tuple[int, int, list]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        return sid, parent, [sid, 0.0]

    def _close(
        self, name: str, sid: int, parent: int, start: float, end: float, busy: float, child: float, charge: bool = True
    ) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.self_time.append(busy - child)
        self.calls[name] += 1
        self.own[name] += busy - child
        if not self._depth[name]:
            self.total[name] += busy
        if charge and self._stack:
            self._stack[-1][1] += busy

    def _call(self, name: str, fn: Callable, name_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            sid, parent, frame = self._open()
            self._stack.append(frame)
            self._depth[span] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._depth[span] -= 1
                self._close(span, sid, parent, start, end, end - start, frame[1])
        return traced

    def _generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid, parent, _ = self._open()
            start = perf_counter()
            busy = 0.0
            steps = 0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        if self._stack:
                            self._stack[-1][1] += dt
                    steps += 1
                    yield value
            finally:
                self.yields[name] += steps
                # Each step was charged to the frame that asked for it.
                self._close(name, sid, parent, start, perf_counter(), busy, 0.0, charge=False)
        return traced

    # -- installing --

    def install(self) -> None:
        homes = {module_name: importlib.import_module(f"icsisec.{module_name}") for module_name, _, _ in TRACED}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "icsisec" or key.startswith("icsisec.")]
        for module_name, attr, name in TRACED:
            home = homes[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                self._patch_member(getattr(home, cls_name), member, name)
                continue
            original = getattr(home, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = self._generator(name, original)
            elif name == "verify":
                wrapper = self._call(name, original, lambda a, kw: f"verify.{a[0] if a else kw['name']}")
            else:
                wrapper = self._call(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append(functools.partial(setattr, module, key, original))

    def _patch_member(self, cls: type, member: str, name: str) -> None:
        original = cls.__dict__[member]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._call(name, original.func))
            replacement.__set_name__(cls, member)
        else:
            replacement = self._call(name, original)
        setattr(cls, member, replacement)
        self._undo.append(functools.partial(setattr, cls, member, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer numbers, named after the package's modules."""
        c, t, own = self.calls, self.total, self.own
        queries = c["code.rank_query"]
        out = {
            "algebra.rank_elims": (c["algebra.rank"], "count"),
            "algebra.rank_s": (t["algebra.rank"], "s"),
            "algebra.solve_calls": (c["algebra.solve"], "count"),
            "algebra.solve_s": (t["algebra.solve"], "s"),
            "code.rank_queries": (queries, "count"),
            "code.rank_query_s": (t["code.rank_query"], "s"),
            "code.rank_cache_hit_ratio": (1 - c["algebra.rank"] / queries if queries else 0.0, "ratio"),
            "code.codewords": (self.yields["code.span"], "count"),
            "code.span_s": (t["code.span"], "s"),
            "code.distance_s": (t["code.distance"], "s"),
            "code.confined_calls": (c["code.confined"], "count"),
            "code.confined_s": (t["code.confined"], "s"),
            "code.build_s": (t["code.build"], "s"),
            "code.oa_counts_s": (t["code.oa_counts"], "s"),
            "security.report_s": (t["security.report"], "s"),
            "security.block_level_s": (t["security.block_level"], "s"),
            "security.sweep_self_s": (own["security.report"], "s"),
            "security.witness_calls": (c["security.witness"], "count"),
            "security.witness_s": (t["security.witness"], "s"),
            "security.oracle_calls": (c["security.oracle"], "count"),
            "security.oracle_s": (t["security.oracle"], "s"),
            "security.attack_s": (t["security.attack"], "s"),
            "security.list_attack_s": (t["security.list_attack"], "s"),
            "icsi.build_s": (t["icsi.build"], "s"),
            "icsi.encode_s": (t["icsi.encode"], "s"),
            "icsi.decode_s": (t["icsi.decode"], "s"),
            "fileio.load_s": (t["fileio.load"], "s"),
            "fileio.dump_s": (t["fileio.dump"], "s"),
        }
        for suite in SUITES:
            out[f"verify.{suite}_s"] = (t[f"verify.{suite}"], "s")
        out["cli.self_s"] = (own["cli.main"], "s")
        out["trace.spans"] = (len(self.span_id), "count")
        return out

    def write_spans(self, path: Path, meta: dict) -> None:
        """One JSON header line, then the span columns as raw arrays in
        header order (native byte order)."""
        columns = ("span_id", "parent", "name_id", "start", "end", "self_time")
        header = dict(meta, names=self.names, spans=len(self.span_id),
                      columns=[[c, getattr(self, c).typecode] for c in columns], byteorder=sys.byteorder)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                getattr(self, column).tofile(handle)
