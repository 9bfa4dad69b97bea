"""Transient engine: analytic RC/RL/RLC checks, integration methods, options."""

import numpy as np
import pytest

from repro.circuit import (Circuit, DCSource, PWLSource, RampSource, TransientOptions,
                           run_transient)
from repro.circuit.transient import linear_source_kernel, linear_source_kernels
from repro.errors import SimulationError
from repro.interconnect import RLCLine, add_line_ladder
from repro.units import mm, nH, pF, ps


def rc_step_circuit(resistance=100.0, capacitance=1e-12, v_final=1.0):
    circuit = Circuit()
    circuit.voltage_source("in", "0", DCSource(v_final), name="Vin")
    circuit.resistor("in", "out", resistance)
    circuit.capacitor("out", "0", capacitance)
    return circuit


class TestOptionsValidation:
    def test_dt_must_be_positive(self):
        with pytest.raises(SimulationError):
            TransientOptions(dt=0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(SimulationError):
            TransientOptions(dt=1e-12, method="gear2")

    def test_run_requires_dt_or_options(self):
        with pytest.raises(SimulationError):
            run_transient(rc_step_circuit(), 1e-9)

    def test_run_rejects_both_dt_and_options(self):
        with pytest.raises(SimulationError):
            run_transient(rc_step_circuit(), 1e-9, dt=1e-12,
                          options=TransientOptions(dt=1e-12))

    def test_t_stop_must_cover_one_step(self):
        with pytest.raises(SimulationError):
            run_transient(rc_step_circuit(), 1e-14, dt=1e-12)


class TestRcAnalytic:
    def test_rc_charging_from_zero_initial_condition(self):
        """V(out) = V * (1 - exp(-t/RC)) when the source steps at t=0.

        The DC operating point at t=0 already charges the capacitor, so disable it
        and start from 0 V explicitly.
        """
        circuit = rc_step_circuit()
        result = run_transient(
            circuit, ps(500),
            options=TransientOptions(dt=ps(0.25), use_dc_operating_point=False,
                                     initial_node_voltages={"in": 0.0, "out": 0.0}))
        wave = result.waveform("out")
        tau = 100.0 * 1e-12
        for t_probe in (ps(50), ps(100), ps(200), ps(400)):
            expected = 1.0 * (1.0 - np.exp(-t_probe / tau))
            assert wave.value_at(t_probe) == pytest.approx(expected, rel=0.02, abs=2e-3)

    def test_dc_start_keeps_circuit_quiescent(self):
        circuit = rc_step_circuit()
        result = run_transient(circuit, ps(200), dt=ps(0.5))
        wave = result.waveform("out")
        # With the DC operating point as the start, nothing should move.
        assert wave.v_max - wave.v_min < 1e-9

    def test_ramp_driven_rc_final_value(self):
        circuit = Circuit()
        circuit.voltage_source("in", "0", RampSource(0.0, 1.8, ps(50)), name="Vin")
        circuit.resistor("in", "out", 100.0)
        circuit.capacitor("out", "0", 1e-12)
        result = run_transient(circuit, ps(1200), dt=ps(0.5))
        assert result.waveform("out").v_final == pytest.approx(1.8, abs=1e-3)

    def test_backward_euler_matches_trapezoidal_final_value(self):
        circuit = Circuit()
        circuit.voltage_source("in", "0", RampSource(0.0, 1.0, ps(50)), name="Vin")
        circuit.resistor("in", "out", 200.0)
        circuit.capacitor("out", "0", 0.5e-12)
        trap = run_transient(circuit, ps(800), dt=ps(0.25), method="trap")
        be = run_transient(circuit, ps(800), dt=ps(0.25), method="be")
        assert trap.waveform("out").v_final == pytest.approx(
            be.waveform("out").v_final, abs=2e-3)
        # Mid-transition the two integrators agree to first order.
        assert trap.waveform("out").value_at(ps(150)) == pytest.approx(
            be.waveform("out").value_at(ps(150)), abs=0.03)


class TestRlcAnalytic:
    def test_underdamped_series_rlc_overshoot_and_frequency(self):
        """A lightly damped series RLC rings at omega_d with the textbook overshoot."""
        resistance, inductance, capacitance = 5.0, 1e-9, 1e-13
        circuit = Circuit()
        circuit.voltage_source("in", "0", DCSource(1.0), name="Vin")
        circuit.resistor("in", "a", resistance)
        circuit.inductor("a", "out", inductance)
        circuit.capacitor("out", "0", capacitance)
        result = run_transient(
            circuit, ps(400),
            options=TransientOptions(dt=ps(0.05), use_dc_operating_point=False))
        wave = result.waveform("out")

        omega0 = 1.0 / np.sqrt(inductance * capacitance)
        zeta = resistance / 2.0 * np.sqrt(capacitance / inductance)
        expected_overshoot = 1.0 + np.exp(-zeta * np.pi / np.sqrt(1 - zeta ** 2))
        assert wave.v_max == pytest.approx(expected_overshoot, rel=0.02)

        # Period of the damped oscillation.
        peak_time = wave.times[np.argmax(wave.values)]
        expected_peak_time = np.pi / (omega0 * np.sqrt(1 - zeta ** 2))
        assert peak_time == pytest.approx(expected_peak_time, rel=0.03)

    def test_critically_damped_rlc_does_not_overshoot(self):
        inductance, capacitance = 1e-9, 1e-13
        resistance = 2.0 * np.sqrt(inductance / capacitance)  # critical damping
        circuit = Circuit()
        circuit.voltage_source("in", "0", DCSource(1.0), name="Vin")
        circuit.resistor("in", "a", resistance)
        circuit.inductor("a", "out", inductance)
        circuit.capacitor("out", "0", capacitance)
        result = run_transient(
            circuit, ps(500),
            options=TransientOptions(dt=ps(0.1), use_dc_operating_point=False))
        assert result.waveform("out").v_max <= 1.005

    def test_inductor_current_reaches_steady_state(self):
        circuit = Circuit()
        circuit.voltage_source("in", "0", DCSource(1.0), name="Vin")
        circuit.resistor("in", "a", 50.0)
        circuit.inductor("a", "0", 1e-9, name="L1")
        result = run_transient(
            circuit, ps(500),
            options=TransientOptions(dt=ps(0.1), use_dc_operating_point=False))
        current = result.branch_current("L1")
        assert current[-1] == pytest.approx(1.0 / 50.0, rel=1e-3)


class TestResultInterface:
    def test_ground_voltage_is_zero(self):
        result = run_transient(rc_step_circuit(), ps(100), dt=ps(1))
        assert np.all(result.voltage("0") == 0.0)

    def test_branch_currents_not_stored_when_disabled(self):
        circuit = rc_step_circuit()
        result = run_transient(circuit, ps(100),
                               options=TransientOptions(dt=ps(1),
                                                        store_branch_currents=False))
        with pytest.raises(SimulationError):
            result.branch_current("Vin")

    def test_source_delivered_current_sign(self):
        circuit = Circuit()
        circuit.voltage_source("in", "0", DCSource(1.0), name="Vin")
        circuit.resistor("in", "0", 100.0)
        result = run_transient(circuit, ps(50), dt=ps(1))
        delivered = result.source_delivered_current("Vin")
        assert delivered[-1] == pytest.approx(0.01, rel=1e-6)

    def test_differential_waveform(self):
        circuit = Circuit()
        circuit.voltage_source("in", "0", DCSource(2.0), name="Vin")
        circuit.resistor("in", "mid", 100.0)
        circuit.resistor("mid", "0", 100.0)
        result = run_transient(circuit, ps(50), dt=ps(1))
        diff = result.differential_waveform("in", "mid")
        assert diff.v_final == pytest.approx(1.0, rel=1e-6)

    def test_final_voltages_dictionary(self):
        result = run_transient(rc_step_circuit(), ps(100), dt=ps(1))
        finals = result.final_voltages()
        assert set(finals) == {"in", "out"}

    def test_pwl_source_waveform_is_tracked_exactly(self):
        circuit = Circuit()
        source = PWLSource([(0.0, 0.0), (ps(40), 1.0), (ps(80), 0.25), (ps(200), 0.25)])
        circuit.voltage_source("in", "0", source, name="Vin")
        circuit.resistor("in", "0", 1000.0)
        result = run_transient(circuit, ps(200), dt=ps(0.5))
        wave = result.waveform("in")
        assert wave.value_at(ps(40)) == pytest.approx(1.0, abs=1e-6)
        assert wave.value_at(ps(120)) == pytest.approx(0.25, abs=1e-6)


VDD = 1.8


def driven_ladder(source, line, segments, load):
    circuit = Circuit()
    circuit.voltage_source("near", "0", source, name="Vdrv")
    add_line_ladder(circuit, line, "near", "far", n_segments=segments)
    if load > 0:
        circuit.capacitor("far", "0", load, name="Cload")
    return circuit


class TestLinearSourceKernels:
    """Batched state-space kernels against the stepped transient."""

    LANES = [  # (line, segments, far-end load, steps)
        (RLCLine(20.0, nH(1.05), pF(0.22), mm(1)), 30, 0.0, 1500),
        (RLCLine(60.0, nH(3.15), pF(0.66), mm(3)), 36, 2e-14, 2200),
        (RLCLine(80.0, nH(4.2), pF(0.88), mm(4)), 7, 5e-15, 1),
        (RLCLine(40.0, nH(2.1), pF(0.44), mm(2)), 1, 0.0, 400),
        (RLCLine(150.0, nH(1.0), pF(0.5), mm(2)), 12, 1e-14, 900),
    ]
    EDGES = {"rise": [(0.0, 0.0), (ps(20), 0.0), (ps(70), VDD)],
             "fall": [(0.0, VDD), (ps(10), VDD), (ps(40), 0.6), (ps(90), 0.0)]}

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_convolution_reproduces_stepped_far_node(self, method):
        options = TransientOptions(dt=ps(0.2), method=method,
                                   store_branch_currents=False)
        kernels = linear_source_kernels(
            [driven_ladder(DCSource(0.0), line, segments, load)
             for line, segments, load, _ in self.LANES],
            "Vdrv", [steps for *_, steps in self.LANES], options=options,
            output_node="far")
        for (line, segments, load, steps), kernel in zip(self.LANES, kernels):
            assert kernel.shape == (steps + 1,) and kernel[0] == 0.0
            for points in self.EDGES.values():
                stepped = run_transient(
                    driven_ladder(PWLSource(points), line, segments, load),
                    steps * options.dt, options=options)
                u = np.interp(stepped.times, [p[0] for p in points],
                              [p[1] for p in points])
                far = u[0] + np.convolve(u[1:] - u[0], kernel[1:])[:steps]
                assert np.max(np.abs(far - stepped.voltage("far")[1:])) \
                    <= 1e-12 * VDD

    def test_lanes_are_bit_identical_to_one_circuit_kernels(self):
        """A lane's kernel depends neither on its batch nor on its length."""
        options = TransientOptions(dt=ps(0.2), store_branch_currents=False)
        circuits = [driven_ladder(DCSource(0.0), line, segments, load)
                    for line, segments, load, _ in self.LANES]
        lanes = circuits + circuits[:2]
        batch = linear_source_kernels(lanes, "Vdrv", [300, 250, 5, 120, 300, 40, 700],
                                      options=options, output_node="far")
        for circuit, kernel in zip(lanes, batch):
            single = linear_source_kernel(circuit, "Vdrv", kernel.size - 1,
                                          options=options, output_node="far")
            assert np.array_equal(kernel, single)
        shared = linear_source_kernels(circuits, "Vdrv", [260] * len(circuits),
                                       options=options, output_node="far")
        for kernel, longer in zip(shared, batch):
            assert kernel.shape == (261,)
            size = min(kernel.size, longer.size)
            assert np.array_equal(kernel[:size], longer[:size])

    def test_rejects_nonlinear_and_unknown_names(self, tech):
        options = TransientOptions(dt=ps(0.2))
        line = self.LANES[0][0]
        with_mosfet = driven_ladder(DCSource(0.0), line, 4, 0.0)
        with_mosfet.mosfet("far", "near", "0", tech.nmos, 1e-6)
        with_current = driven_ladder(DCSource(0.0), line, 4, 0.0)
        with_current.current_source("far", "0", 1e-6)
        plain = driven_ladder(DCSource(0.0), line, 4, 0.0)
        for circuit, source, node in ((with_mosfet, "Vdrv", "far"),
                                      (with_current, "Vdrv", "far"),
                                      (plain, "Vnone", "far"),
                                      (plain, "Vdrv", "nowhere")):
            with pytest.raises(SimulationError):
                linear_source_kernels([plain, circuit], source, [10, 10],
                                      options=options, output_node=node)
        with pytest.raises(SimulationError):
            linear_source_kernels([plain], "Vdrv", [0], options=options,
                                  output_node="far")
        with pytest.raises(SimulationError):
            linear_source_kernels([plain], "Vdrv", [5, 5], options=options,
                                  output_node="far")
