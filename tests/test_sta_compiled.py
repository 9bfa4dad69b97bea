"""The compiled (struct-of-arrays) scale tier vs the object engine.

The contract under test, layer by layer:

* ``compile_graph`` + ``GraphEngine.analyze_compiled`` produce events that are
  **exactly equal** (not just within tolerance) to the object engine's, on
  random DAGs, in every analysis mode, including merge tie-breaks, sources,
  required times and slacks — the array sweeps are a reimplementation of the
  same semantics, so nothing short of equality is acceptable;
* results are independent of net declaration order (the vectorized lexsort
  tie-break mirrors the object engine's ``max()`` over (arrival, slew, source)
  tuples);
* :class:`StreamingTimingReport` answers every report query like the eager
  report and serializes to the identical payload;
* the session routes large graphs through the compiled path by
  ``compile_threshold`` and caches the compiled twin until a structural edit
  bumps the graph version;
* warm :meth:`TimingSession.update` calls rebuild only the dirty cone's event
  records (``meta.report_events_rebuilt``), sharing the rest with the previous
  report by identity.
"""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sta_dual_mode import random_dag

from repro.api import (
    SessionConfig,
    StreamingTimingReport,
    TimingReport,
    TimingSession,
    compare_reports,
)
from repro.api.report import TimingEvent
from repro.core import StageSolver
from repro.errors import ModelingError
from repro.experiments import soc_graph
from repro.interconnect import RLCLine
from repro.serve.codec import slack_payload
from repro.sta import GraphEngine, GraphNet, PrimaryInput, TimingGraph
from repro.sta.compiled import SweepState, level_solve_keys
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def lines():
    """Two cheap-to-solve line flavors (short wires keep the test quick)."""
    return [RLCLine(resistance=20.0, inductance=nH(1.05), capacitance=pF(0.22),
                    length=mm(1)),
            RLCLine(resistance=38.0, inductance=nH(2.1), capacitance=pF(0.42),
                    length=mm(2))]


@pytest.fixture(scope="module")
def solver():
    """One memo shared by every engine in this module (results are memo-safe)."""
    return StageSolver()


@pytest.fixture(scope="module")
def engine(library, solver):
    return GraphEngine(library=library, solver=solver)


def shared_session(solver, **config) -> TimingSession:
    """A session on the shipped (process-shared) library and this module's memo."""
    session = TimingSession(SessionConfig(**config)) if config else TimingSession()
    session.solver = solver
    session._engine.solver = solver
    return session


def assert_equivalent(engine, graph, *, mode="both"):
    """Object-engine and compiled analyses of ``graph`` are exactly equal."""
    report = engine.analyze(graph, mode=mode)
    compiled = engine.compile(graph)
    analysis = engine.analyze_compiled(graph, compiled=compiled, mode=mode)
    n_events = sum(len(per_net) for per_net in report.events.values())
    assert analysis.n_events == n_events
    for name, per_net in report.events.items():
        compiled_events = analysis.events_of(name)
        assert set(per_net) == set(compiled_events)
        for transition, event in per_net.items():
            assert TimingEvent.from_net_event(event) == compiled_events[transition]
    assert ([(e.net.name, e.input_transition) for e in report.critical_path()]
            == [analysis.key_of(e) for e in analysis.critical_path_ids()])
    return analysis


def constrain_randomly(rng, graph):
    """A random dual-mode constraint landscape (clock, margin, pins)."""
    if rng.random() < 0.8:
        graph.set_clock_period(ps(700),
                               hold_margin=rng.choice([None, 0.0, ps(40)]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(300), ps(650)]),
                           transition=rng.choice([None, "rise", "fall"]))
    for name in rng.sample(sorted(graph.nets), k=min(2, len(graph.nets))):
        graph.set_required(name, rng.choice([ps(30), ps(90)]),
                           transition=rng.choice([None, "rise", "fall"]),
                           mode="hold")


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", [3, 14, 23])
    def test_random_dags_match_object_engine(self, engine, lines, seed):
        rng = random.Random(seed)
        graph = random_dag(rng, lines, n_nets=rng.choice([12, 16, 20]))
        constrain_randomly(rng, graph)
        assert_equivalent(engine, graph, mode="both")

    @pytest.mark.parametrize("mode", ["setup", "hold", "both"])
    def test_every_mode_matches(self, engine, lines, mode):
        rng = random.Random(101)
        graph = random_dag(rng, lines, n_nets=14)
        constrain_randomly(rng, graph)
        assert_equivalent(engine, graph, mode=mode)

    def test_declaration_order_independence(self, engine, lines):
        """Shuffling net declaration order changes nothing (tie-break parity)."""
        rng = random.Random(53)
        graph = random_dag(rng, lines, n_nets=18)
        graph.set_clock_period(ps(700), hold_margin=0.0)
        baseline = assert_equivalent(engine, graph)
        shuffled_nets = list(graph.nets.values())
        rng.shuffle(shuffled_nets)
        shuffled = TimingGraph(shuffled_nets, dict(graph.primary_inputs))
        shuffled.set_clock_period(ps(700), hold_margin=0.0)
        analysis = assert_equivalent(engine, shuffled)
        for name in graph.nets:
            assert baseline.events_of(name) == analysis.events_of(name)

    def test_soc_graph_shape_and_equivalence(self, engine):
        graph = soc_graph(125)
        assert len(graph) == 125
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        analysis = assert_equivalent(engine, graph)
        assert analysis.worst_endpoint_slack("setup") is not None
        assert analysis.worst_endpoint_slack("hold") is not None

    def test_stale_compiled_graph_is_rejected(self, engine, lines):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        engine.analyze_compiled(graph, compiled=compiled)  # fine while fresh
        graph.resize_driver("k0c0s3", 125.0)  # structural edit bumps version
        with pytest.raises(ModelingError):
            engine.analyze_compiled(graph, compiled=compiled)

    def test_constraints_do_not_stale_the_compiled_graph(self, engine):
        graph = soc_graph(125)
        compiled = engine.compile(graph)
        graph.set_clock_period(ps(900))  # constraints are read live
        analysis = engine.analyze_compiled(graph, compiled=compiled)
        assert analysis.constrained("setup")


class TestStreamingReport:
    @pytest.fixture(scope="class")
    def reports(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        streaming = session.time(graph, name="soc")
        plain = session.time(graph, name="soc", compiled=False)
        return streaming, plain

    def test_routing_types(self, reports):
        streaming, plain = reports
        assert isinstance(streaming, StreamingTimingReport)
        assert isinstance(plain, TimingReport)
        assert not isinstance(plain, StreamingTimingReport)

    def test_queries_match_plain_report(self, reports):
        streaming, plain = reports
        assert streaming.n_events == plain.n_events
        assert streaming.constrained and streaming.hold_constrained
        assert streaming.wns == plain.wns
        assert streaming.whs == plain.whs
        assert streaming.worst_slack == plain.worst_slack
        assert streaming.worst_hold_slack == plain.worst_hold_slack
        assert streaming.event_keys() == plain.event_keys()
        assert streaming.endpoint_keys() == plain.endpoint_keys()
        assert streaming.critical_path == plain.critical_path
        assert streaming.worst_event() == plain.worst_event()
        for mode in ("setup", "hold"):
            assert (streaming.endpoint_slacks(mode=mode)
                    == plain.endpoint_slacks(mode=mode))
            assert (streaming.format_slack_table(mode=mode)
                    == plain.format_slack_table(mode=mode))
        name = plain.critical_path[-1][0]
        assert streaming.slack(name) == plain.slack(name)
        assert streaming.arrival(name) == plain.arrival(name)
        assert streaming.early_arrival(name) == plain.early_arrival(name)

    def test_serialization_matches_plain_report(self, reports):
        streaming, plain = reports
        eager, full = streaming.to_dict(), plain.to_dict()
        eager.pop("meta"), full.pop("meta")
        assert eager == full
        # A saved streaming report loads back as a plain (eager) report.
        loaded = TimingReport.from_json(streaming.to_json())
        assert loaded.event_keys() == plain.event_keys()
        assert loaded.wns == plain.wns

    def test_compile_metadata(self, reports):
        streaming, _ = reports
        assert streaming.meta.compile_seconds is not None
        assert streaming.meta.peak_rss_bytes is None or (
            streaming.meta.peak_rss_bytes > 0)

    def test_diff_streaming_vs_plain(self, reports):
        streaming, plain = reports
        diff = compare_reports(plain, streaming)
        assert not diff.regressed
        assert not diff.changed_endpoints and not diff.changed_hold_endpoints
        assert diff.added_events == diff.removed_events == 0


class TestSessionRouting:
    def test_threshold_routes_and_none_disables(self, solver):
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        session = shared_session(solver, compile_threshold=100)
        assert isinstance(session.time(graph), StreamingTimingReport)
        below = shared_session(solver, compile_threshold=1000)
        assert not isinstance(below.time(graph), StreamingTimingReport)
        disabled = shared_session(solver, compile_threshold=None)
        assert not isinstance(disabled.time(graph), StreamingTimingReport)
        # Explicit override beats the threshold in both directions.
        assert isinstance(disabled.time(graph, compiled=True),
                          StreamingTimingReport)

    def test_compiled_rejects_memoize_false(self, solver):
        session = shared_session(solver)
        graph = soc_graph(125)
        with pytest.raises(ModelingError):
            session.time(graph, compiled=True, memoize=False)

    def test_compiled_cache_tracks_graph_version(self, solver):
        session = shared_session(solver, compile_threshold=1)
        graph = soc_graph(125)
        graph.set_clock_period(ps(1500))
        first = session.time(graph)
        assert first.meta.compile_seconds > 0.0  # fresh compile
        second = session.time(graph)
        assert second.meta.compile_seconds == 0.0  # cache hit
        graph.set_clock_period(ps(900))
        third = session.time(graph)  # constraint edits keep the cache warm
        assert third.meta.compile_seconds == 0.0
        assert third.worst_slack < first.worst_slack  # new constraints apply
        graph.resize_driver("k0c0s3", 125.0)
        fourth = session.time(graph)  # parameter edit patches in place
        assert fourth.meta.compile_seconds == 0.0
        assert fourth.meta.patched_nets == 2  # the net and its fanin driver
        arrivals = lambda report: {t: e.output_arrival  # noqa: E731
                                   for t, e in report.events["k0c0s4"].items()}
        assert arrivals(fourth) != arrivals(third)  # the resize took effect
        graph.add_fanout("k0c0s3", "k0e0")
        fifth = session.time(graph)  # topology edit forces a recompile
        assert fifth.meta.compile_seconds > 0.0
        assert not fifth.meta.patched_nets

    def test_config_round_trip_carries_threshold(self):
        config = SessionConfig(compile_threshold=777)
        assert SessionConfig.from_dict(config.to_dict()) == config
        assert SessionConfig.from_dict(
            SessionConfig(compile_threshold=None).to_dict()
        ).compile_threshold is None
        with pytest.raises(ModelingError):
            SessionConfig(compile_threshold=0)


class TestIncrementalReportReuse:
    def test_warm_update_rebuilds_only_the_cone(self, solver, lines):
        rng = random.Random(82)
        graph = random_dag(rng, lines, n_nets=20)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        assert first.meta.report_events_rebuilt is None  # full build
        target = sorted(graph.nets)[10]
        graph.resize_driver(target, 125.0)
        second = session.update(graph)
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None and 0 < rebuilt < second.n_events
        # Untouched nets share their event records with the previous report.
        changed = session._incremental.last_changed_nets
        changed_events = session._incremental.last_changed_events
        touched = set(changed) | {name for name, _ in changed_events}
        for name in second.events:
            if name not in touched:
                assert second.events[name] is first.events[name]
        # And the reused report is still exactly a full re-flatten.
        full = session.time(graph, name="graph", compiled=False)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload

    def test_constraint_only_update_reuses_events(self, solver, lines):
        rng = random.Random(13)
        graph = random_dag(rng, lines, n_nets=16)
        graph.set_clock_period(ps(900))
        session = shared_session(solver)
        first = session.update(graph)
        graph.set_clock_period(ps(800))
        second = session.update(graph)
        rebuilt = second.meta.report_events_rebuilt
        assert rebuilt is not None
        full = session.time(graph, name="graph", compiled=False)
        warm_payload, full_payload = second.to_dict(), full.to_dict()
        warm_payload.pop("meta"), full_payload.pop("meta")
        assert warm_payload == full_payload
        assert first.meta.report_events_rebuilt is None


def reference_solve_keys(cg, slews, events):
    """The row-sort dedupe ``level_solve_keys`` replaced: ``np.unique`` rows."""
    keys = np.empty((events.size, 3), dtype=np.float64)
    keys[:, 0] = cg.config_id[events >> 1]
    keys[:, 1] = events & 1
    keys[:, 2] = slews
    return np.unique(keys, axis=0, return_inverse=True)


def assert_keys_match_unique(config_id, merged_slew, events, quantum):
    """``level_solve_keys`` equals the ``np.unique`` oracle, values and dtypes."""
    cg = SimpleNamespace(config_id=np.asarray(config_id, dtype=np.int64))
    state = SweepState.empty(2 * cg.config_id.size)
    state.merged_slew[:] = merged_slew
    events = np.asarray(events, dtype=np.int64)
    solver = StageSolver(slew_quantum=quantum)
    quantized = np.array([solver.quantize_slew(float(s))
                          for s in state.merged_slew[events]])
    unique, inverse = level_solve_keys(cg, state, events, quantum)
    assert np.array_equal(state.in_slew[events], quantized)
    ref_unique, ref_inverse = reference_solve_keys(cg, quantized, events)
    assert unique.dtype == ref_unique.dtype == np.float64
    assert inverse.dtype == ref_inverse.dtype
    assert unique.shape == ref_unique.shape
    assert inverse.shape == ref_inverse.shape == (events.size,)
    assert np.array_equal(unique, ref_unique)
    assert np.array_equal(inverse, ref_inverse)
    return unique


@st.composite
def solve_key_levels(draw):
    """(config_id, merged_slew, events, quantum) of one random level.

    Slews come from a small pool (heavy duplication) that mixes values
    across 1e-13..1e-9 s with their 1-ULP neighbours.
    """
    n_nets = draw(st.integers(1, 24))
    n_configs = draw(st.integers(1, 4))
    config_id = draw(st.lists(st.integers(0, n_configs - 1),
                              min_size=n_nets, max_size=n_nets))
    bases = draw(st.lists(st.floats(1e-13, 1e-9), min_size=1, max_size=4))
    pool = []
    for base in bases:
        pool += [base, float(np.nextafter(base, np.inf)),
                 float(np.nextafter(base, 0.0))]
    merged_slew = draw(st.lists(st.sampled_from(pool), min_size=2 * n_nets,
                                max_size=2 * n_nets))
    events = sorted(draw(st.sets(st.integers(0, 2 * n_nets - 1), min_size=1)))
    quantum = draw(st.sampled_from([None, ps(1), ps(0.1), 1e-13]))
    return config_id, merged_slew, events, quantum


class TestSolveKeyDedupe:
    """``level_solve_keys`` vs ``np.unique(keys, axis=0)`` (the old dedupe)."""

    @settings(max_examples=200, deadline=None)
    @given(solve_key_levels())
    def test_matches_row_unique(self, level):
        assert_keys_match_unique(*level)

    @pytest.mark.parametrize("quantum", [None, ps(1)])
    def test_one_event_level(self, quantum):
        unique = assert_keys_match_unique([3, 1], [ps(80)] * 4, [3], quantum)
        assert unique.shape == (1, 3)

    @pytest.mark.parametrize("quantum", [None, ps(1)])
    def test_all_identical_level(self, quantum):
        n = 50
        unique = assert_keys_match_unique([2] * n, [ps(120)] * (2 * n),
                                          np.arange(0, 2 * n, 2), quantum)
        assert unique.shape == (1, 3)

    def test_one_ulp_apart_stay_distinct(self):
        slew = ps(100)
        above = float(np.nextafter(slew, np.inf))
        below = float(np.nextafter(slew, 0.0))
        unique = assert_keys_match_unique([0, 0, 0], [slew, above, below] * 2,
                                          [0, 2, 4, 1, 3, 5], None)
        assert unique.shape == (6, 3)
        assert list(unique[:3, 2]) == [below, slew, above]

    @pytest.mark.parametrize("quantum", [None, ps(1)])
    def test_slews_across_decades(self, quantum):
        slews = np.geomspace(1e-13, 1e-9, 40)
        assert_keys_match_unique(np.arange(40) % 3, np.repeat(slews, 2),
                                 np.arange(80), quantum)

    def test_heavy_duplication(self):
        rng = np.random.default_rng(7)
        n = 4000
        config_id = rng.integers(0, 3, n)
        pool = np.array([ps(60), ps(100), ps(100.4), ps(140)])
        slews = pool[rng.integers(0, pool.size, 2 * n)]
        for quantum in (None, ps(1)):
            unique = assert_keys_match_unique(config_id, slews,
                                              np.arange(2 * n), quantum)
            assert unique.shape[0] <= 3 * 2 * pool.size


def tie_graph(lines, *, y_input=None):
    """Endpoints ``b`` (level 1) and ``y`` (level 0): level order is not name order.

    ``b`` hangs off root ``r_b``; the root endpoint ``y`` has ``b``'s driver,
    line and load, so with ``y_input`` set to the stimulus ``b`` sees (the
    root's far-end arrival, propagated slew and edge) both time — and slack —
    exactly alike.  ``w`` (fall input) adds a distinct slack.
    """
    short = lines[0]
    nets = [GraphNet("r_b", 75.0, short, fanout=("b",)),
            GraphNet("b", 50.0, short, receiver_size=25.0),
            GraphNet("y", 50.0, short, receiver_size=25.0),
            GraphNet("r_w", 100.0, lines[1], fanout=("w",)),
            GraphNet("w", 50.0, short, receiver_size=25.0)]
    inputs = {"r_b": PrimaryInput(slew=ps(100)),
              "y": y_input or PrimaryInput(slew=ps(100), transition="fall"),
              "r_w": PrimaryInput(slew=ps(60), transition="fall")}
    return TimingGraph(nets, inputs)


def tied_graph(session, lines):
    """:func:`tie_graph` with ``y`` stimulated exactly like ``b``."""
    probe = session.time(tie_graph(lines), compiled=False)
    (root,) = probe.events["r_b"].values()
    return tie_graph(lines, y_input=PrimaryInput(
        slew=root.propagated_slew, transition=root.output_transition,
        arrival=root.output_arrival))


class TestLazySlackTable:
    """The streaming report's lazy endpoint table is the eager list."""

    @pytest.fixture(scope="class")
    def reports(self, solver, lines):
        session = shared_session(solver, compile_threshold=1)
        graph = tied_graph(session, lines)
        graph.set_clock_period(ps(1500), hold_margin=0.0)
        streaming = session.time(graph, name="ties")
        plain = session.time(graph, name="ties", compiled=False)
        return streaming, plain

    def test_equal_slacks_break_ties_by_name(self, reports):
        streaming, plain = reports
        assert isinstance(streaming, StreamingTimingReport)
        analysis = streaming.analysis
        for mode in ("setup", "hold"):
            level_order = [analysis.key_of(int(e))[0]
                           for e in analysis.endpoint_event_ids(mode)]
            assert level_order.index("y") < level_order.index("b")
            table = streaming.endpoint_slacks(mode=mode)
            expected = plain.endpoint_slacks(mode=mode)
            assert table == expected
            assert expected == table
            assert list(table) == expected
            tied = {e.net: e.slack_for(mode) for e in expected}
            assert tied["b"] == tied["y"]  # an exact tie
            names = [e.net for e in table]
            assert names.index("b") == names.index("y") - 1

    def test_sequence_protocol(self, reports):
        streaming, plain = reports
        table = streaming.endpoint_slacks()
        expected = plain.endpoint_slacks()
        n = len(expected)
        assert len(table) == n == 3 and bool(table)
        assert table[-1] == expected[-1] and table[-n] == expected[0]
        for cut in (slice(None, None, 2), slice(None, None, -1),
                    slice(1, 4, 2), slice(3, 100), slice(-100, 2),
                    slice(100, 200), slice(2, 2)):
            assert table[cut] == expected[cut]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                table[index]
        assert table.index(expected[2]) == 2
        assert expected[1] in table
        assert list(reversed(table)) == expected[::-1]
        assert table != expected[:-1]
        assert table != tuple(expected[::-1])
        assert table == tuple(expected)

    def test_unconstrained_table_is_empty(self, solver, lines):
        session = shared_session(solver, compile_threshold=1)
        report = session.time(tie_graph(lines), name="free")
        assert isinstance(report, StreamingTimingReport)
        for mode in ("setup", "hold"):
            table = report.endpoint_slacks(mode=mode)
            assert table == [] and not table and len(table) == 0
            with pytest.raises(ModelingError):
                report.worst_slack_event(mode=mode)
        assert (report.format_slack_table()
                == TimingReport.format_slack_table(
                    session.time(tie_graph(lines), compiled=False)))

    def test_report_helpers_match(self, reports):
        streaming, plain = reports
        for mode in ("setup", "hold"):
            assert (streaming.worst_slack_event(mode=mode)
                    == plain.worst_slack_event(mode=mode))
            for limit in (1, 3, 20):
                assert (streaming.format_slack_table(limit=limit, mode=mode)
                        == plain.format_slack_table(limit=limit, mode=mode))

    def test_serve_slack_payload_matches(self, reports):
        streaming, plain = reports
        for mode in ("setup", "hold"):
            for limit in (1, 2, 50):
                payloads = [json.dumps(slack_payload("ties", 3, report,
                                                     mode=mode, limit=limit),
                                       sort_keys=True)
                            for report in (streaming, plain)]
                assert payloads[0] == payloads[1]

    def test_table_survives_later_updates(self, solver, lines):
        """A table taken before an edit keeps returning the pre-edit rows."""
        session = shared_session(solver, compile_threshold=1)
        graph = tied_graph(session, lines)
        graph.set_clock_period(ps(1500))
        before = session.update(graph)
        table = before.endpoint_slacks()
        expected = list(table)
        graph.resize_driver("r_b", 125.0)
        after = session.update(graph)
        assert isinstance(after, StreamingTimingReport)
        assert after.meta.compile_seconds == 0.0  # patched, not recompiled
        assert after.endpoint_slacks() != expected  # the edit moved slacks
        assert table[0] == expected[0]
        for k in (1, 3, len(expected)):
            assert table[:k] == expected[:k]
        assert table == expected
