"""Span recorder for the traced benchmark run.

Spans are installed from the benchmark only: :meth:`Tracer.install` wraps the
public functions named in :data:`PLAN` wherever the ``repro`` package binds
them (a module that did ``from .compiled import level_solve_keys`` gets its
own binding wrapped too), and :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` changes.

A span is ``(id, parent id, name, start, end)`` with ``perf_counter`` times;
the parent is the innermost open span of the same thread (0 for a root).
A function re-entered under a span of its own name records no second span,
so a layer's total never double-counts recursion.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float]
Count = Tuple[float, str, float]


# --- count hooks: (add, args, kwargs, result, before) -> None ---------------------------

def _keys_counts(add, args, kwargs, result, before):
    add("sta.compiled.key_events", len(args[2]))
    add("sta.compiled.key_unique", len(result[0]))


def _patch_counts(add, args, kwargs, result, before):
    add("sta.compiled.patched_nets", int(result))


def _sweep_counts(add, args, kwargs, result, before):
    add("sta.incremental.cone_nets", int(result.visited.size))
    add("sta.incremental.converged_early", int(result.converged_early))


def _stats_before(args, kwargs):
    return args[0].stats.snapshot()


def _solver_counts(add, args, kwargs, result, before):
    after = args[0].stats
    add("core.stage_solver.requests", len(args[1]))
    add("core.stage_solver.computed", after.computed - before.computed)
    add("core.stage_solver.hits", after.memo_hits - before.memo_hits
        + after.persistent_hits - before.persistent_hits)


def _far_end_counts(add, args, kwargs, result, before):
    add("core.far_end.lanes", len(args[0]))


def _update_counts(add, args, kwargs, result, before):
    add("api.report.events_rebuilt", result.meta.report_events_rebuilt or 0)


#: (module, attribute or Class.method, span name, count hook, before hook)
PLAN: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.api.session", "TimingSession.time", "api.session.time", None, None),
    ("repro.api.session", "TimingSession.update", "api.session.update",
     _update_counts, None),
    ("repro.experiments.graph_cases", "soc_graph", "sta.graph.build", None, None),
    ("repro.experiments.graph_cases", "case_graph", "sta.graph.build", None, None),
    ("repro.sta.graph", "TimingGraph.resize_driver", "sta.graph.edit", None, None),
    ("repro.sta.graph", "TimingGraph.set_line", "sta.graph.edit", None, None),
    ("repro.sta.graph", "TimingGraph.set_extra_load", "sta.graph.edit", None, None),
    ("repro.sta.compiled", "compile_graph", "sta.compiled.compile", None, None),
    ("repro.sta.compiled", "CompiledGraph.patch", "sta.compiled.patch",
     _patch_counts, None),
    ("repro.sta.compiled", "level_solve_keys", "sta.compiled.keys",
     _keys_counts, None),
    ("repro.sta.compiled", "merge_level", "sta.compiled.merge", None, None),
    ("repro.sta.compiled", "merge_nets", "sta.compiled.merge", None, None),
    ("repro.sta.compiled", "scatter_level_solutions", "sta.compiled.scatter",
     None, None),
    ("repro.sta.compiled", "backward_required", "sta.compiled.required",
     None, None),
    ("repro.sta.incremental_compiled", "CompiledIncrementalEngine.update",
     "sta.incremental.update", None, None),
    ("repro.sta.incremental_compiled", "incremental_sweep",
     "sta.incremental.sweep", _sweep_counts, None),
    ("repro.sta.incremental_compiled", "incremental_required",
     "sta.incremental.required", None, None),
    ("repro.sta.batch", "IncrementalEngine.update", "sta.batch.object_update",
     None, None),
    ("repro.core.stage_solver", "StageSolver.solve_batch",
     "core.stage_solver.solve_batch", _solver_counts, _stats_before),
    ("repro.core.driver_model", "model_driver_output_batch",
     "core.driver_model.batch", None, None),
    ("repro.core.ceff", "ceff_first_ramp_batch", "core.ceff", None, None),
    ("repro.core.ceff", "ceff_second_ramp_batch", "core.ceff", None, None),
    ("repro.core.far_end", "far_end_response_batch", "core.far_end.batch",
     _far_end_counts, None),
    ("repro.interconnect.moments", "admittance_moments", "interconnect.moments",
     None, None),
    ("repro.interconnect.admittance", "fit_rational_admittance",
     "interconnect.fit", None, None),
    ("repro.circuit.transient", "linear_source_kernel",
     "circuit.transient.kernel", None, None),
    ("repro.characterization.library", "CellLibrary.from_directory",
     "characterization.load", None, None),
    ("repro.characterization.tables", "LookupTable2D.lookup",
     "characterization.lookup", None, None),
    ("repro.characterization.tables", "LookupTable2D.lookup_many",
     "characterization.lookup", None, None),
    ("repro.serve.registry", "AttachedDesign.apply_edits", "serve.registry.edit",
     None, None),
    ("repro.serve.codec", "summary_payload", "serve.codec.encode", None, None),
    ("repro.serve.codec", "slack_payload", "serve.codec.encode", None, None),
    ("repro.serve.codec", "events_payload", "serve.codec.encode", None, None),
    ("repro.serve.codec", "diff_payload", "serve.codec.encode", None, None),
)

#: Every span name the plan and the workloads record, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [entry[2] for entry in PLAN] + ["api.report.query"]))

#: Span names that only set-up exercises on the 100k workloads: reported per
#: set-up instead of per timed operation.
SETUP_SPANS = ("sta.graph.build", "sta.compiled.compile", "characterization.load")

#: The client-side request routes of the serve workload.
SERVE_ROUTES = ("wns", "slack", "events", "edits")


class Tracer:
    """In-memory span and counter recorder (thread-safe appends).

    Counters are kept as ``(time, name, value)`` records, so a run can sum
    exactly the ones that fell inside its timed window.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: List[Count] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _traced(self, func: Callable, name: str, after: Optional[Callable],
                before: Optional[Callable]) -> Callable:
        spans, counts = self.spans, self.counts
        stack_of, ids = self._stack, self._ids
        calls = name + ".calls"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][1] == name:
                return func(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            state = before(args, kwargs) if before is not None else None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            counts.append((end, calls, 1))
            if after is not None:
                after(lambda key, value: counts.append((end, key, value)),
                      args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        """Wrap every :data:`PLAN` entry at each of its bindings in ``repro``."""
        # Import every binding site first, so no module binds an original later.
        for module in ("repro.api", "repro.experiments", "repro.serve.server",
                       "repro.sta.parallel"):
            importlib.import_module(module)
        for module_name, attribute, name, after, before in PLAN:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._traced(raw.__func__, name, after, before))
                else:
                    wrapped = self._traced(raw, name, after, before)
                self._undo.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            func = getattr(module, attribute)
            wrapped = self._traced(func, name, after, before)
            for bound in list(sys.modules.values()):
                if (getattr(bound, "__name__", "").startswith("repro")
                        and vars(bound).get(attribute) is func):
                    self._undo.append((bound, attribute, func))
                    setattr(bound, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def dump(self) -> str:
        """The spans and counters as one JSON document."""
        return json.dumps({"spans": self.spans, "counts": self.counts})


def summarize(span_lists: Iterable[Sequence[Span]],
              count_lists: Iterable[Sequence[Count]], lo: float, hi: float):
    """Per-name totals of the spans and counters that fall in ``[lo, hi)``.

    Returns ``(total, self, roots, counts)``: span seconds per name, self
    seconds per name (duration minus direct children), seconds covered by
    root spans, and summed counters.  Each span list is one process's (ids
    and parents are per process); span times are system-wide monotonic.
    """
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    roots = 0.0
    for spans in span_lists:
        selected = [span for span in spans if lo <= span[3] < hi]
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in selected:
            if parent:
                child_time[parent] += end - start
        for sid, parent, name, start, end in selected:
            total[name] += end - start
            self_time[name] += end - start - child_time.get(sid, 0.0)
            if not parent:
                roots += end - start
    counts: Dict[str, float] = defaultdict(float)
    for records in count_lists:
        for moment, name, value in records:
            if lo <= moment < hi:
                counts[name] += value
    return total, self_time, roots, counts
