"""Spans around calls into the groupcodes modules, installed from outside.

``install`` replaces each traced function, in every ``groupcodes`` module
namespace that holds a reference to it, with a wrapper that records a
span (name, start, end, parent, op) into a ``Tracer``.  Module-internal
calls go through those namespaces too, so ``echelon_lattice -> hnf`` is
seen as well as ``project -> span``.  Spans stay in memory; ``summary``
turns them into per-function call counts and self times, where self time
is a span's duration minus the time of the spans nested in it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

TRACED = {
    "intlinalg": ("hnf", "echelon_lattice", "kernel_mod", "snf"),
    "finabel": ("span", "member", "invariant_factors"),
    "seqspace": ("effective_window", "project", "intersect_directsum", "intersect_sum_window", "window_subgroup"),
    "control": (
        "is_weakly_controllable_discrete",
        "is_controllable",
        "is_uniformly_controllable",
        "uniformity_defect",
        "is_k_controllable",
        "strong_index",
        "verify_verdict",
    ),
    "structure": ("decompose",),
    "torus": ("to_product_subgroup", "noncontrollability_witness"),
    "cli": ("main", "parse_subgroup", "build_report", "render_json", "run_reproduce"),
}
ORACLE_QUERIES = (
    "controllable_at",
    "controllable",
    "weakly_controllable",
    "defect",
    "uniformly_controllable",
    "k_controllable",
    "strong_index",
)
BUILD = "control.WindowOracle.build"
QUERY = "control.WindowOracle.query"

NAME, START, END, PARENT, OP, HOOK = range(6)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters = {
            "hnf_cells": 0,
            "hnf_transform_used": 0,
            "hnf_repeats": 0,
            "max_entry_bits": 0,
            "project_repeats": 0,
            "k_holds": 0,
            "oracle_elements": 0,
        }
        self._seen_hnf: set = set()
        self._seen_project: set = set()

    def begin_op(self) -> None:
        """Start a new op: inputs seen by earlier ops no longer count as repeats."""
        self.op += 1
        self._seen_hnf.clear()
        self._seen_project.clear()

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, result)
                span[HOOK] = perf_counter() - span[END]
            return result

        return traced

    # Counters are updated after the span has ended; their cost is recorded
    # in the span and left out of every self time.

    def _hnf(self, span, args, result) -> None:
        m = args[0]
        c = self.counters
        c["hnf_cells"] += m.rows * m.cols
        parent = span[PARENT]
        if parent < 0 or self.spans[parent][NAME] != "intlinalg.echelon_lattice":
            c["hnf_transform_used"] += 1
        if m in self._seen_hnf:
            c["hnf_repeats"] += 1
        else:
            self._seen_hnf.add(m)
        entries = m.entries + result.h.entries + result.u.entries
        bits = max((abs(x).bit_length() for x in entries), default=0)
        c["max_entry_bits"] = max(c["max_entry_bits"], bits)

    def _project(self, span, args, result) -> None:
        key = (args[0], frozenset(args[1]))
        if key in self._seen_project:
            self.counters["project_repeats"] += 1
        else:
            self._seen_project.add(key)

    def _k_controllable(self, span, args, result) -> None:
        self.counters["k_holds"] += bool(result.holds)

    def _oracle_built(self, span, args, result) -> None:
        self.counters["oracle_elements"] += len(args[0].elements)

    def summary(self) -> dict:
        """Per span name: calls, self seconds, total seconds; plus the counters."""
        nested = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                nested[s[PARENT]] += s[END] - s[START] + s[HOOK]
        stats: dict[str, list] = {}
        for s, inner in zip(self.spans, nested):
            total = s[END] - s[START]
            row = stats.setdefault(s[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total - inner
            row[2] += total
        return {"stats": stats, "counters": dict(self.counters)}


def dump_spans(fh, spans: list, op_offset: int) -> None:
    """Write spans as JSON lines, in start order."""
    for s in spans:
        record = {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "op": s[OP] + op_offset}
        fh.write(json.dumps(record) + "\n")


def _tuple_coords(fn):
    """``project`` takes any iterable of coordinates; pass a tuple so its hook can read it too."""

    def call(h, j):
        return fn(h, tuple(j))

    return call


def install(tracer: Tracer):
    """Wrap every traced function; return a callable that undoes it."""
    modules = [m for name, m in sys.modules.items() if name == "groupcodes" or name.startswith("groupcodes.")]
    hooks = {
        "intlinalg.hnf": tracer._hnf,
        "seqspace.project": tracer._project,
        "control.is_k_controllable": tracer._k_controllable,
    }
    undo = []
    for short, names in TRACED.items():
        home = sys.modules[f"groupcodes.{short}"]
        for fname in names:
            orig = getattr(home, fname)
            name = f"{short}.{fname}"
            wrapper = tracer.wrap(name, orig, hooks.get(name))
            if name == "seqspace.project":
                wrapper = _tuple_coords(wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
    oracle = sys.modules["groupcodes.control"].WindowOracle
    for attr in ("__init__",) + ORACLE_QUERIES:
        orig = oracle.__dict__[attr]
        if attr == "__init__":
            wrapper = tracer.wrap(BUILD, orig, tracer._oracle_built)
        else:
            wrapper = tracer.wrap(QUERY, orig)
        setattr(oracle, attr, wrapper)
        undo.append((oracle, attr, orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def merge(into: dict, part: dict) -> None:
    """Add one summary into another; the entry-bit counter takes the maximum."""
    for name, row in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    for key, v in part["counters"].items():
        if key == "max_entry_bits":
            into["counters"][key] = max(into["counters"].get(key, 0), v)
        else:
            into["counters"][key] = into["counters"].get(key, 0) + v


def empty_summary() -> dict:
    return {"stats": {}, "counters": dict(Tracer().counters)}
