"""IncrementalEngine: dirty-cone re-timing is bit-identical to full analysis.

The acceptance property of the incremental kernel: after *any* sequence of graph
edits, ``IncrementalEngine.update()`` must produce exactly the events a
from-scratch ``GraphEngine.analyze()`` of the same graph state produces — same
(net, transition) keys, same arrivals, slews, required times and traceback
sources, bit for bit.  The property test drives random edit sequences (resizes,
re-routes, load/receiver changes, stimulus changes, constraint changes and
structural connect/disconnect edits) over the PR-2 workload shapes and checks
equivalence after every step.

Both engines share one memoized solver — sharing cannot affect results (memo
hits are guaranteed bit-identical to recomputes) and keeps the test fast.
"""

import random

import pytest

from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import parallel_chains, reconvergent_graph
from repro.interconnect import RLCLine
from repro.sta import GraphEngine, IncrementalEngine, PrimaryInput
from repro.units import fF, mm, nH, pF, ps

LIBRARY_SIZES = (25.0, 50.0, 75.0, 100.0, 125.0)


@pytest.fixture(scope="module")
def lines():
    """Two cheap-to-solve line flavors (short wires keep the test quick)."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


@pytest.fixture(scope="module")
def solver():
    """One memo shared by the incremental engine and every full baseline."""
    return StageSolver()


def assert_reports_identical(incremental, full):
    """Every event equal, bit for bit (both planes, both modes' bookkeeping)."""
    assert set(incremental.events) == set(full.events)
    for name, per_net in full.events.items():
        ours = incremental.events[name]
        assert set(ours) == set(per_net)
        for transition, event in per_net.items():
            other = ours[transition]
            assert other.input_arrival == event.input_arrival
            assert other.input_slew == event.input_slew
            assert other.output_arrival == event.output_arrival
            assert other.required == event.required
            assert other.source == event.source
            assert other.early_input_arrival == event.early_input_arrival
            assert other.early_output_arrival == event.early_output_arrival
            assert other.early_source == event.early_source
            assert other.hold_required == event.hold_required
            assert other.hold_slack == event.hold_slack
            assert other.solution.fingerprint == event.solution.fingerprint
            assert other.solution.far_slew == event.solution.far_slew


#: Edit kinds that only touch constraints: no structural dirt, no new solves.
CONSTRAINT_KINDS = ("clock", "require", "hold_require")

#: Edit kinds that dirty nets (stage configurations or connectivity change).
STRUCTURAL_KINDS = ("resize", "line", "load", "input", "connect", "disconnect")


def random_edit(rng, graph, lines, kinds=STRUCTURAL_KINDS + CONSTRAINT_KINDS):
    """Apply one random edit; returns its short description (for repro logs)."""
    names = list(graph.nets)
    kind = rng.choice(list(kinds))
    try:
        if kind == "resize":
            name = rng.choice(names)
            graph.resize_driver(name, rng.choice(LIBRARY_SIZES))
        elif kind == "line":
            name = rng.choice(names)
            graph.set_line(name, rng.choice(lines))
        elif kind == "load":
            name = rng.choice(names)
            graph.set_extra_load(name, rng.choice([0.0, fF(2), fF(5), fF(11)]))
        elif kind == "input":
            name = rng.choice(list(graph.primary_inputs))
            graph.set_input(name, PrimaryInput(
                slew=rng.choice([ps(60), ps(100), ps(140)]),
                transition=rng.choice(["rise", "fall"])))
        elif kind == "clock":
            graph.set_clock_period(
                rng.choice([None, ps(300), ps(600)]),
                hold_margin=rng.choice([None, 0.0, ps(40), ps(120)]))
        elif kind == "require":
            name = rng.choice(graph.endpoints)
            graph.set_required(
                name, rng.choice([None, ps(150), ps(450)]),
                transition=rng.choice([None, "rise", "fall"]))
        elif kind == "hold_require":
            name = rng.choice(graph.endpoints)
            graph.set_required(
                name, rng.choice([None, ps(30), ps(200)]),
                transition=rng.choice([None, "rise", "fall"]), mode="hold")
        elif kind == "connect":
            graph.add_fanout(rng.choice(names), rng.choice(names))
        elif kind == "disconnect":
            driver = rng.choice(names)
            fanout = graph.nets[driver].fanout
            if not fanout:
                return None
            graph.remove_fanout(driver, rng.choice(fanout))
    except ModelingError:
        return None  # the edit was structurally invalid; the graph is untouched
    return kind


class TestIncrementalProperty:
    @pytest.mark.parametrize("shape,seed,steps", [
        ("diamond", 2003, 10),
        ("chains", 404, 10),
    ])
    def test_random_edit_sequences_stay_bit_identical(self, library, solver,
                                                      lines, shape, seed,
                                                      steps):
        if shape == "diamond":
            graph = reconvergent_graph(line=lines[0])
        else:
            graph = parallel_chains(2, 3, lines=[lines[0]],
                                    input_slew=ps(100))
        rng = random.Random(seed)
        incremental = IncrementalEngine(graph, library=library, solver=solver)
        baseline = GraphEngine(library=library, solver=solver)
        incremental.update()
        applied = []
        for _ in range(steps):
            kind = random_edit(rng, graph, lines)
            if kind is None:
                continue
            applied.append(kind)
            assert_reports_identical(incremental.update(),
                                     baseline.analyze(graph))
        assert applied, "the edit sequence degenerated to no-ops"

    def test_noop_update_recomputes_nothing(self, library, solver, lines):
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        first = engine.update()
        before = solver.stats.snapshot()
        second = engine.update()
        after = solver.stats
        assert after.computed == before.computed
        assert after.memo_hits == before.memo_hits  # not even memo traffic
        assert second.incremental.retimed_nets == 0
        assert_reports_identical(second, first)

    def test_constraint_edit_is_arithmetic_only(self, library, solver, lines):
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        engine.update()
        before = solver.stats.snapshot()
        graph.set_clock_period(ps(500))
        report = engine.update()
        assert solver.stats.computed == before.computed
        assert solver.stats.memo_hits == before.memo_hits
        assert report.incremental.retimed_nets == 0
        assert report.incremental.required_nets == len(graph)
        assert report.incremental.hold_required_nets == 0
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        # Turning on the hold plane is just as free: zero solver traffic.
        graph.set_clock_period(ps(500), hold_margin=ps(80))
        before = solver.stats.snapshot()
        report = engine.update()
        assert solver.stats.computed == before.computed
        assert solver.stats.memo_hits == before.memo_hits
        assert report.incremental.retimed_nets == 0
        assert report.incremental.hold_required_nets == len(graph)
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))

    def test_constraint_only_updates_interleaved_with_structural(
            self, library, solver, lines):
        """Constraint batches between structural edits stay bit-identical.

        Constraint edits (``set_required`` of either mode,
        ``set_clock_period`` with/without a hold margin) leave the structural
        dirty set empty, so their updates must cost zero solver traffic —
        while the interleaving with structural edits keeps exercising the
        cached-event re-seeding those updates depend on.
        """
        graph = parallel_chains(2, 3, lines=[lines[0]], input_slew=ps(100))
        rng = random.Random(7)
        incremental = IncrementalEngine(graph, library=library, solver=solver)
        baseline = GraphEngine(library=library, solver=solver)
        incremental.update()
        constraint_updates = structural_updates = 0
        for step in range(12):
            if step % 2 == 0:
                applied = None
                for _ in range(rng.choice([1, 2, 3])):
                    applied = (random_edit(rng, graph, lines,
                                           kinds=CONSTRAINT_KINDS) or applied)
                if applied is None:
                    continue
                assert not graph.dirty_nets  # constraints dirty no nets
                assert graph.constraints_dirty
                before = solver.stats.snapshot()
                report = incremental.update()
                assert solver.stats.computed == before.computed
                assert solver.stats.memo_hits == before.memo_hits
                assert report.incremental.retimed_nets == 0
                assert report.incremental.required_nets == len(graph)
                constraint_updates += 1
            else:
                if random_edit(rng, graph, lines,
                               kinds=STRUCTURAL_KINDS) is None:
                    continue
                report = incremental.update()
                structural_updates += 1
            assert_reports_identical(report, baseline.analyze(graph))
        assert constraint_updates >= 3, "constraint batches degenerated"
        assert structural_updates >= 3, "structural edits degenerated"

    def test_cone_stays_local_on_chain_tail_edit(self, library, solver, lines):
        graph = parallel_chains(3, 4, lines=[lines[0]], input_slew=ps(100))
        engine = IncrementalEngine(graph, library=library, solver=solver)
        engine.update()
        graph.resize_driver("c1s3", 50.0)  # tail of chain 1: dirties c1s2 too
        report = engine.update()
        assert report.incremental.dirty_nets == 2
        assert report.incremental.retimed_nets == 2  # c1s2, c1s3 — nobody else
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))

    def test_structural_edits_retime_new_topology(self, library, solver,
                                                  lines):
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        base = engine.update()
        assert set(base.events["sink"]) == {"rise", "fall"}
        # Cutting the long branch removes the sink's second transition...
        graph.remove_fanout("long_b", "sink")
        after_cut = engine.update()
        assert set(after_cut.events["sink"]) == {"rise"}
        assert_reports_identical(after_cut,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        # ...and reconnecting restores it, incrementally.
        graph.add_fanout("long_b", "sink")
        restored = engine.update()
        assert set(restored.events["sink"]) == {"rise", "fall"}
        assert_reports_identical(restored,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        assert_reports_identical(restored, base)

    def test_failed_update_invalidates_instead_of_corrupting(self, library,
                                                             solver, lines):
        # A mid-update failure has already consumed the dirty set and dropped
        # part of the event cache; the engine must fall back to a full re-time
        # on the next update instead of serving the half-updated cache.
        from repro.errors import CharacterizationError
        graph = parallel_chains(2, 3, lines=[lines[0]], input_slew=ps(100))
        engine = IncrementalEngine(graph, library=library, solver=solver)
        engine.update()
        graph.resize_driver("c1s0", 50.0)       # valid edit, same update...
        graph.resize_driver("c0s0", 33.333)     # ...uncharacterized size
        with pytest.raises(CharacterizationError):
            engine.update()
        graph.resize_driver("c0s0", 75.0)       # repair the bad edit
        report = engine.update()
        assert report.incremental.retimed_nets == len(graph)  # full fallback
        assert sum(map(len, report.events.values())) == len(graph)  # none missing
        assert_reports_identical(report,
                                 GraphEngine(library=library,
                                             solver=solver).analyze(graph))
        # The valid edit that rode along with the failure was not lost.
        assert report.events["c1s0"]["rise"].solution.cell_name == "inv_50x"

    def test_invalidate_forces_full_retime(self, library, solver, lines):
        graph = reconvergent_graph(line=lines[0])
        engine = IncrementalEngine(graph, library=library, solver=solver)
        engine.update()
        engine.invalidate()
        report = engine.update()
        assert report.incremental.retimed_nets == len(graph)

    def test_rejects_non_graph(self, library, solver):
        with pytest.raises(ModelingError):
            IncrementalEngine("not a graph", library=library, solver=solver)
