"""Gate-level static timing analysis built on the driver output model.

Layering, bottom up:

* :mod:`repro.core.stage_solver` — the memoized per-stage solve (the paper's full
  Ceff/two-ramp flow behind an LRU memo plus an optional persistent scalar store).
* :mod:`repro.sta.graph` — the timing-graph data model: :class:`GraphNet` DAGs
  with fanout, Kahn levelization and per-node rise/fall worst-arrival merging;
  :func:`chain_graph` turns a :class:`TimingPath` into its chain graph, and
  :class:`GraphTimingReport` is the engine's plain result record.
* :mod:`repro.sta.batch` — :class:`~.batch.GraphEngine`, the batched executor:
  each level's unique stage solves are answered from the memo or solved as one
  in-process array batch.  One traversal carries *both analysis planes* — late
  (setup) and early (hold) arrivals share every stage solve, so dual-mode
  analysis costs zero extra solves.
  Constrained graphs (``set_required`` / ``set_clock_period``, either mode)
  additionally get a backward required-time pass, so every event carries
  ``required`` / ``slack`` and ``hold_required`` / ``hold_slack``; and
  :class:`~.batch.IncrementalEngine` re-times only the dirty cone of in-place
  graph edits (``resize_driver``, ``set_line``, ``add_fanout``, ...), bit-identical
  to a from-scratch run.
* :mod:`repro.sta.compiled` — the 100k-net scale tier: :func:`compile_graph`
  freezes a :class:`TimingGraph` into a :class:`CompiledGraph` (struct-of-arrays
  CSR form), and :meth:`GraphEngine.analyze_compiled` runs the same forward and
  backward passes as whole-level numpy sweeps, bit-compatible with the object
  engine.

Analysis runs in one process: the per-stage solves dominate and must stay in
one array batch per level (``solve_batch`` results shift by ~1 ULP with batch
composition), and the sweep around them is cheap arithmetic.

The recommended front door to all of this is :class:`repro.api.TimingSession`,
which owns the cell library and the caches, accepts
:class:`TimingPath` and :class:`TimingGraph` designs alike, and returns the
unified, JSON-serializable :class:`repro.api.TimingReport` — the one report
every caller queries (critical path, slack, WNS/WHS, slack paths, formatting).
Paths are timed as chain graphs by the same engine.
"""

from .batch import GraphEngine, IncrementalEngine
from .compiled import (TRANSITIONS, CompiledAnalysis, CompiledGraph,
                       SweepState, compile_graph)
from .graph import (ANALYSIS_MODES, CHECK_MODES, GraphNet, GraphTimingReport,
                    IncrementalStats, NetEventTiming, PrimaryInput,
                    TimingGraph, chain_graph, check_mode, flip_transition)
from .stage import TimingPath, TimingStage
from .validation import PathReference, simulate_path_reference

__all__ = [
    "TimingStage",
    "TimingPath",
    "GraphNet",
    "PrimaryInput",
    "TimingGraph",
    "chain_graph",
    "flip_transition",
    "check_mode",
    "ANALYSIS_MODES",
    "CHECK_MODES",
    "NetEventTiming",
    "GraphTimingReport",
    "IncrementalStats",
    "GraphEngine",
    "IncrementalEngine",
    "PathReference",
    "simulate_path_reference",
    "TRANSITIONS",
    "CompiledGraph",
    "CompiledAnalysis",
    "SweepState",
    "compile_graph",
]
