"""Span tracing of epdiff from outside the package.

The tracer replaces the names each epdiff module looks up across a module
boundary (the raw-array kernels, the invariant reductions, the steppers and
the output writers) with wrappers that record one span per call: its kind,
the wrapped name, the scheme label being run, start, end and parent span.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A wrap target that no longer exists (after a refactor renames or merges a
kernel) is recorded as missing, and every layer metric that depends on it
is reported as ``missing`` with the name instead of a number.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute, span kind).  A dotted attribute wraps a class method
# the module reaches through the class name.
TARGETS = (
    ("epdiff.steppers", "_gamma_arrays", "core.bracket"),
    ("epdiff.steppers", "_solve_q_stack_arr", "grid.qsolve"),
    ("epdiff.steppers", "_solve_q_checked", "grid.qcheck"),
    ("epdiff.steppers", "_apply_q_arr", "grid.apply_q"),
    ("epdiff.steppers", "energy_scheme1", "core.invariants"),
    ("epdiff.steppers", "energy_half_scheme2", "core.invariants"),
    ("epdiff.steppers", "energy_half_scheme3", "core.invariants"),
    ("epdiff.steppers", "linear_momenta", "core.invariants"),
    ("epdiff.steppers", "step_scheme1_pc", "steppers.step"),
    ("epdiff.steppers", "step_scheme2", "steppers.step"),
    ("epdiff.steppers", "step_scheme3", "steppers.step"),
    ("epdiff.steppers", "step_rk4", "steppers.step"),
    ("epdiff.steppers", "FieldPair.from_arrays", "grid.wrap"),
    ("epdiff.grid", "_solve_q_stack_arr", "grid.qsolve"),
    ("epdiff.grid", "_apply_q_arr", "grid.apply_q"),
    ("epdiff.harness", "write_invariants_csv", "harness.csv"),
    ("epdiff.harness", "write_snapshot", "snapshots.write"),
    ("epdiff.harness", "_write_summary", "harness.summary"),
)

# Spans whose peak allocation is recorded in the tracemalloc pass.
ALLOC_KINDS = frozenset({"core.bracket", "steppers.step"})

# The five scheme labels every workload runs, and the stepper function each
# runs after its bootstrap step.
STEP_FUNCTION = {
    "scheme1": "step_scheme1_pc",
    "scheme1-fixed=3": "step_scheme1_pc",
    "scheme2": "step_scheme2",
    "scheme3": "step_scheme3",
    "rk4": "step_rk4",
}

LABELS = tuple(STEP_FUNCTION)

MB = 1e6


class Span:
    __slots__ = ("kind", "name", "label", "parent", "start", "end", "alloc_mb")

    def __init__(self, kind, name, label, parent):
        self.kind = kind
        self.name = name
        self.label = label
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.alloc_mb = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Window:
    """The timed steps of one scheme run: spans that start inside
    [start, end] under this label belong to its ``steps`` timed steps."""

    label: str
    start: float
    end: float
    steps: int
    corrector_iters: float
    record_bytes: int


class _ClassProxy:
    """Stands in for a class in a module namespace, with one attribute
    replaced and every other lookup passed through."""

    def __init__(self, cls, attr, value):
        self._cls = cls
        setattr(self, attr, value)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


@dataclass
class Tracer:
    alloc: bool = False
    active: bool = False
    label: str | None = None
    spans: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    missing: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _alloc_stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def call(self, kind, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span when the tracer is active."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        span = Span(kind, name, self.label, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        track = self.alloc and kind in ALLOC_KINDS
        if track:
            self._alloc_enter()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if track:
                span.alloc_mb = self._alloc_exit() / MB
            stack.pop()

    def _alloc_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._alloc_stack.append([current, current])

    def _alloc_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._alloc_stack.pop()
        peak = max(seen, peak)
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        return peak - base

    def wrap(self, kind, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(kind, name, fn, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict):
        """Wrap every target found in ``modules`` (name -> module object)."""
        self.missing = {}
        for modname, attr, kind in TARGETS:
            module = modules.get(modname)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module is not None else None
            fn = getattr(owner, method, None) if method and owner is not None else owner
            if fn is None:
                self.missing.setdefault(kind, []).append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(kind, attr.rsplit(".", 1)[-1], fn)
            replacement = _ClassProxy(owner, method, wrapped) if method else wrapped
            self._restore.append((module, owner_name, owner))
            setattr(module, owner_name, replacement)

    def uninstall(self):
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# Layer metrics.

def metric_label(label: str) -> str:
    """Scheme label as used in metric names (no '=')."""
    return label.replace("=", "")


# Per call, over every traced scheme run of the workload.
PER_CALL = (
    ("core.bracket_ms", "ms", "core.bracket"),
    ("grid.qsolve_ms", "ms", "grid.qsolve"),
    ("grid.qcheck_ms", "ms", "grid.qcheck"),
    ("grid.apply_q_ms", "ms", "grid.apply_q"),
    ("grid.wrap_ms", "ms", "grid.wrap"),
)
# Calls per timed step, for each scheme label.
PER_STEP_CALLS = (
    ("core.bracket_calls", "core.bracket"),
    ("grid.qsolve_calls", "grid.qsolve"),
    ("grid.apply_q_calls", "grid.apply_q"),
    ("grid.wrap_calls", "grid.wrap"),
)
# Output-side layers, per call.
OUTPUT_PER_CALL = (
    ("snapshots.write_ms", "ms", "snapshots.write"),
    ("harness.csv_ms", "ms", "harness.csv"),
    ("harness.summary_ms", "ms", "harness.summary"),
    ("profiles.init_ms", "ms", "profiles.init"),
)


def layer_metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {name: unit for name, unit, _ in PER_CALL}
    units["core.bracket_alloc_mb"] = "MB"
    for label in LABELS:
        tag = metric_label(label)
        for name, _ in PER_STEP_CALLS:
            units[f"{name}.{tag}"] = "count"
        units[f"core.invariants_ms.{tag}"] = "ms"
        units[f"steppers.step_self_ms.{tag}"] = "ms"
        units[f"steppers.integrate_self_ms.{tag}"] = "ms"
        units[f"steppers.step_alloc_mb.{tag}"] = "MB"
    units["steppers.corrector_iters.scheme1"] = "count"
    units["steppers.corrector_iters.scheme1-fixed3"] = "count"
    units["steppers.linear_iters.scheme3"] = "count"
    for name, unit, _ in OUTPUT_PER_CALL:
        units[name] = unit
    units["snapshots.mb_written"] = "MB"
    units["diagnostics.record_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


def _metric_kinds(name: str) -> tuple:
    """Span kinds a metric is computed from (for missing-target reports)."""
    for metric, _, kind in PER_CALL + OUTPUT_PER_CALL:
        if name == metric:
            return (kind,)
    for metric, kind in PER_STEP_CALLS:
        if name.startswith(metric + "."):
            return (kind,)
    prefixes = {
        "core.bracket_alloc_mb": ("core.bracket",),
        "core.invariants_ms.": ("core.invariants",),
        "steppers.step_self_ms.": ("steppers.step", "core.bracket", "grid.qsolve",
                                   "grid.qcheck", "grid.apply_q", "grid.wrap"),
        "steppers.integrate_self_ms.": ("steppers.step", "core.invariants"),
        "steppers.step_alloc_mb.": ("steppers.step",),
        "steppers.linear_iters.": ("steppers.step", "grid.qsolve"),
        "snapshots.mb_written": ("snapshots.write",),
    }
    for prefix, kinds in prefixes.items():
        if name.startswith(prefix):
            return kinds
    return ()


def _in_window(span: Span, w: Window) -> bool:
    return span.label == w.label and w.start <= span.start <= w.end


def _self_time(span: Span, children: dict) -> float:
    return span.duration - children.get(id(span), 0.0)


def _child_time(spans) -> dict:
    out: dict = {}
    for s in spans:
        if s.parent is not None:
            out[id(s.parent)] = out.get(id(s.parent), 0.0) + s.duration
    return out


def layer_metrics(traced: Tracer, alloc: Tracer, extra: dict) -> dict:
    """Per-layer metrics from a traced run and a tracemalloc pass.

    ``extra`` carries values measured beside the spans: ``snapshot_bytes``
    (total bytes the snapshot writer produced) and ``overhead_s``.
    """
    units = layer_metric_units()
    values: dict = {}
    spans = traced.spans
    children = _child_time(spans)
    windows = traced.windows

    def in_any_window(s):
        return any(_in_window(s, w) for w in windows)

    timed = [s for s in spans if in_any_window(s)]
    by_kind: dict = {}
    for s in timed:
        by_kind.setdefault(s.kind, []).append(s)

    for name, _, kind in PER_CALL:
        group = by_kind.get(kind, [])
        if kind == "grid.qcheck":
            total = sum(_self_time(s, children) for s in group)
        else:
            total = sum(s.duration for s in group)
        values[name] = 1e3 * total / len(group) if group else 0.0

    bracket_alloc = [s.alloc_mb for s in alloc.spans
                     if s.kind == "core.bracket" and s.alloc_mb is not None]
    values["core.bracket_alloc_mb"] = statistics.median(bracket_alloc) if bracket_alloc else 0.0

    for label in LABELS:
        tag = metric_label(label)
        lw = [w for w in windows if w.label == label]
        steps = sum(w.steps for w in lw)
        mine = [s for s in timed if s.label == label]
        per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
        for name, kind in PER_STEP_CALLS:
            values[f"{name}.{tag}"] = per_step(sum(1 for s in mine if s.kind == kind))
        values[f"core.invariants_ms.{tag}"] = per_step(
            1e3 * sum(s.duration for s in mine if s.kind == "core.invariants"))
        values[f"steppers.step_self_ms.{tag}"] = per_step(
            1e3 * sum(_self_time(s, children) for s in mine if s.kind == "steppers.step"))
        direct = sum(s.duration for s in mine
                     if s.parent is not None and s.parent.kind == "steppers.integrate")
        window_time = sum(w.end - w.start for w in lw)
        values[f"steppers.integrate_self_ms.{tag}"] = per_step(1e3 * (window_time - direct))
        step_allocs = [s.alloc_mb for s in alloc.spans
                       if s.label == label and s.name == STEP_FUNCTION[label]
                       and s.alloc_mb is not None]
        values[f"steppers.step_alloc_mb.{tag}"] = (
            statistics.median(step_allocs) if step_allocs else 0.0)
        if label.startswith("scheme1"):
            values[f"steppers.corrector_iters.{tag}"] = (
                sum(w.corrector_iters * w.steps for w in lw) / steps if steps else 0.0)
        if label == "scheme3":
            solves = [s for s in mine if s.kind == "steppers.step" and s.name == "step_scheme3"]
            precond = sum(1 for s in mine if s.kind == "grid.qsolve" and s.parent is not None
                          and s.parent.name == "step_scheme3")
            values["steppers.linear_iters.scheme3"] = precond / len(solves) if solves else 0.0

    for name, _, kind in OUTPUT_PER_CALL:
        group = [s for s in spans if s.kind == kind]
        values[name] = 1e3 * sum(s.duration for s in group) / len(group) if group else 0.0
    writes = sum(1 for s in spans if s.kind == "snapshots.write")
    values["snapshots.mb_written"] = extra.get("snapshot_bytes", 0) / MB / writes if writes else 0.0
    records = [w.record_bytes for w in windows]
    values["diagnostics.record_mb"] = sum(records) / MB / len(records) if records else 0.0
    values["trace.overhead_s"] = extra["overhead_s"]

    missing = {**alloc.missing, **traced.missing}
    out = {}
    for name, unit in units.items():
        gone = [t for kind in _metric_kinds(name) for t in missing.get(kind, [])]
        if gone:
            out[name] = {"value": None, "unit": unit,
                         "missing": "wrap target not found: " + ", ".join(sorted(set(gone)))}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
