"""Path timing through the session, checked against the serial scalar oracle
and against transistor-level validation."""

import pytest
from serial_oracle import stage_transition, time_path_serial

from repro.api import TimingSession
from repro.constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from repro.core import ModelingOptions
from repro.errors import ModelingError
from repro.interconnect import RLCLine
from repro.sta import (GraphEngine, TimingPath, TimingStage, chain_graph,
                       simulate_path_reference)
from repro.units import mm, nH, pF, ps


@pytest.fixture(scope="module")
def short_line():
    return RLCLine(resistance=43.5, inductance=nH(3.1), capacitance=pF(0.66),
                   length=mm(3))


@pytest.fixture(scope="module")
def two_stage_path(short_line):
    return TimingPath(
        name="two_stage",
        stages=[
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=75),
            TimingStage("s2", driver_size=75, line=short_line, receiver_size=50),
        ],
        input_slew=ps(100),
    )


class TestStageAndPathValidation:
    def test_stage_validation(self, short_line):
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=0, line=short_line)
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=75, line=short_line, receiver_size=-1)
        with pytest.raises(ModelingError):
            TimingStage("bad", driver_size=75, line=short_line, extra_load=-1e-15)

    def test_path_needs_stages_and_positive_slew(self, short_line):
        with pytest.raises(ModelingError):
            TimingPath("empty", [], input_slew=ps(100))
        with pytest.raises(ModelingError):
            TimingPath("bad", [TimingStage("s", 75, short_line)], input_slew=0.0)

    def test_receiver_driver_consistency_enforced(self, short_line):
        stages = [
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s2", driver_size=50, line=short_line),
        ]
        with pytest.raises(ModelingError):
            TimingPath("mismatch", stages, input_slew=ps(100))

    def test_intermediate_stage_needs_receiver(self, short_line):
        stages = [
            TimingStage("s1", driver_size=75, line=short_line),
            TimingStage("s2", driver_size=75, line=short_line),
        ]
        with pytest.raises(ModelingError):
            TimingPath("no_receiver", stages, input_slew=ps(100))

    def test_len(self, two_stage_path):
        assert len(two_stage_path) == 2


class TestPathTimer:
    """A path timed by ``TimingSession.time`` (as its chain graph)."""

    @pytest.fixture(scope="class")
    def report(self, library, two_stage_path):
        with TimingSession() as session:
            return session.time(two_stage_path)

    def test_report_structure(self, report, two_stage_path):
        assert report.kind == "path"
        assert report.design == two_stage_path.name
        assert len(report.critical_path) == 2
        assert report.total_delay == pytest.approx(sum(report.stage_delays()))

    def test_stage_delays_are_positive_and_sane(self, report):
        for event in report.critical_events():
            assert 0 < event.gate_delay < ps(500)
            assert 0 < event.interconnect_delay < ps(500)
            assert event.far_slew > 0

    def test_output_transition_directions_alternate(self, report):
        first, second = report.critical_events()
        assert first.output_transition == "fall"
        assert second.output_transition == "rise"

    def test_slew_propagates_between_stages(self, report, two_stage_path):
        first, second = report.critical_events()
        assert second.input_slew == pytest.approx(first.far_slew / 0.8, rel=1e-9)

    def test_receiver_load_included(self, library, short_line, tech):
        bare = TimingPath("bare", [TimingStage("s", 75, short_line)], input_slew=ps(100))
        loaded = TimingPath("loaded", [TimingStage("s", 75, short_line,
                                                   receiver_size=125)],
                            input_slew=ps(100))
        with TimingSession() as session:
            delay_bare = session.time(bare).total_delay
            delay_loaded = session.time(loaded).total_delay
        assert delay_loaded > delay_bare

    def test_format_report(self, report):
        text = report.format_report()
        assert "critical path" in text
        assert "s1" in text and "s2" in text

    def test_analyze_requires_path(self, library):
        with TimingSession() as session:
            with pytest.raises(ModelingError):
                session.time("not a path")


class TestRiseFallPropagation:
    """Rise/fall asymmetry and slew propagation through the STA layer."""

    @pytest.fixture(scope="class")
    def four_stage_path(self, short_line):
        return TimingPath("four", [
            TimingStage("s1", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s2", driver_size=100, line=short_line, receiver_size=75),
            TimingStage("s3", driver_size=75, line=short_line, receiver_size=100),
            TimingStage("s4", driver_size=100, line=short_line, receiver_size=50),
        ], input_slew=ps(100))

    @pytest.fixture(scope="class")
    def report(self, library, four_stage_path):
        with TimingSession() as session:
            return session.time(four_stage_path)

    def test_stage_transition_alternates_from_rising_input(self):
        assert [stage_transition(i) for i in range(4)] == \
            ["fall", "rise", "fall", "rise"]

    def test_stage_transition_alternates_from_falling_input(self, library,
                                                            four_stage_path):
        assert [stage_transition(i, "fall") for i in range(4)] == \
            ["rise", "fall", "rise", "fall"]
        with TimingSession(options=ModelingOptions(transition="fall")) as session:
            report = session.time(four_stage_path)
        assert [event.output_transition for event in report.critical_events()] == \
            ["rise", "fall", "rise", "fall"]

    def test_report_transitions_alternate(self, report):
        assert [event.output_transition for event in report.critical_events()] == \
            ["fall", "rise", "fall", "rise"]

    def test_rise_and_fall_stages_time_differently(self, report):
        # NMOS and PMOS strengths differ, so falling and rising stages of the
        # same (cell, line, load) configuration must not time identically.
        falling, other, rising, _ = report.critical_events()
        assert falling.output_transition == rising.output_transition == "fall"
        assert other.output_transition == "rise"
        assert other.gate_delay != falling.gate_delay

    def test_propagated_slew_is_rescaled_far_slew(self, report):
        # Propagated slew = threshold-to-threshold far-end time / (high - low).
        events = report.critical_events()
        span = SLEW_HIGH_THRESHOLD - SLEW_LOW_THRESHOLD
        for upstream, downstream in zip(events, events[1:]):
            assert upstream.propagated_slew == upstream.far_slew / span
            assert downstream.input_slew == upstream.propagated_slew

    def test_graph_chain_matches_serial_loop_exactly(self, library,
                                                     four_stage_path):
        # Acceptance criterion: graph-mode chain analysis (the batched array
        # path) reproduces the naive per-stage scalar loop to <= 1e-12 s on
        # delays and <= 1e-9 relative on slews (the far-end kernel convolution
        # agrees with the per-lane transient to solver roundoff, ~1e-12).
        graph, names = chain_graph(four_stage_path)
        report = GraphEngine(library=library).analyze(graph)
        serial = time_path_serial(four_stage_path, library=library)
        assert len(serial) == len(names)
        for name, serial_stage in zip(names, serial):
            (event,) = report.events[name].values()
            assert event.output_transition == serial_stage.transition
            assert abs(event.solution.gate_delay
                       - serial_stage.gate_delay) <= 1e-12
            assert abs(event.solution.stage_delay
                       - serial_stage.stage_delay) <= 1e-12
            assert event.input_slew == pytest.approx(
                serial_stage.input_slew, rel=1e-9)
            assert event.solution.far_slew == pytest.approx(
                serial_stage.output_slew, rel=1e-9)
        (last,) = report.events[names[-1]].values()
        assert abs(last.output_arrival
                   - sum(stage.stage_delay for stage in serial)) <= 1e-12

    def test_analyze_memoizes_repeated_paths(self, library, four_stage_path):
        with TimingSession() as session:
            first = session.time(four_stage_path)
            second = session.time(four_stage_path)
        assert first.meta.computed == len(four_stage_path)
        assert second.meta.computed == 0  # all stages from memo
        assert second.meta.memo_hits >= len(four_stage_path)


class TestFlatValidation:
    def test_sta_matches_flat_simulation_within_ten_percent(self, library,
                                                            two_stage_path):
        with TimingSession() as session:
            report = session.time(two_stage_path)
        reference = simulate_path_reference(two_stage_path)
        sta_total = report.total_delay
        flat_total = reference.total_delay
        assert sta_total == pytest.approx(flat_total, rel=0.10)
        # Per-stage arrivals line up as well.
        first_arrival = reference.stage_arrival(0)
        first_stage = report.critical_events()[0]
        assert first_stage.stage_delay == pytest.approx(first_arrival, rel=0.15)

    def test_flat_reference_description(self, two_stage_path):
        reference = simulate_path_reference(two_stage_path, dt=ps(0.2))
        assert "total delay" in reference.describe()
        assert reference.total_delay > 0
