"""The top-level modeling flow (Section 5) and the far-end propagation."""

import pytest

from repro.baselines import (half_charge_ceff_model, rc_equivalent_line,
                             rc_pi_baseline, single_ceff_model,
                             total_capacitance_model)
from repro.core import ModelingOptions, far_end_response, model_driver_output
from repro.errors import ModelingError
from repro.interconnect import RLCLine, admittance_moments, fit_rational_admittance
from repro.units import fF, mm, nH, pF, ps, to_ps


@pytest.fixture(scope="module")
def weak_line():
    """The paper's Figure 6 weak-driver case line (4 mm / 1.6 um)."""
    return RLCLine(resistance=58.0, inductance=nH(4.13), capacitance=pF(0.884),
                   length=mm(4))


class TestModelSelection:
    def test_strong_driver_selects_two_ramp(self, cell75, line_5mm):
        model = model_driver_output(cell75, ps(100), line_5mm)
        assert model.is_two_ramp
        assert model.kind == "two-ramp"
        assert model.inductance_report.significant

    def test_weak_driver_selects_single_ramp(self, cell25, weak_line):
        model = model_driver_output(cell25, ps(100), weak_line)
        assert not model.is_two_ramp
        assert model.kind == "single-ramp"
        assert not model.inductance_report.significant

    def test_heavy_fanout_defeats_inductance(self, cell75, line_5mm):
        model = model_driver_output(cell75, ps(100), line_5mm, load_capacitance=pF(1.5))
        assert not model.is_two_ramp

    def test_force_flags(self, cell75, cell25, line_5mm, weak_line):
        forced_two = model_driver_output(cell25, ps(100), weak_line,
                                         options=ModelingOptions(force_two_ramp=True))
        assert forced_two.is_two_ramp
        forced_one = model_driver_output(cell75, ps(100), line_5mm,
                                         options=ModelingOptions(force_single_ramp=True))
        assert not forced_one.is_two_ramp

    def test_conflicting_force_flags_rejected(self):
        with pytest.raises(ModelingError):
            ModelingOptions(force_two_ramp=True, force_single_ramp=True)

    def test_input_validation(self, cell75, line_5mm):
        with pytest.raises(ModelingError):
            model_driver_output(cell75, 0.0, line_5mm)
        with pytest.raises(ModelingError):
            model_driver_output(cell75, ps(100), line_5mm, load_capacitance=-1e-15)
        with pytest.raises(ModelingError):
            ModelingOptions(transition="sideways")


class TestTwoRampQuantities:
    @pytest.fixture(scope="class")
    def model(self, cell75, line_5mm):
        return model_driver_output(cell75, ps(100), line_5mm)

    def test_breakpoint_matches_equation_1(self, model):
        expected = model.characteristic_impedance / (
            model.characteristic_impedance + model.driver_resistance)
        assert model.breakpoint_fraction == pytest.approx(expected, rel=1e-12)
        # Strong driver: the initial step exceeds half the supply (paper Sec. 3).
        assert model.breakpoint_fraction > 0.5

    def test_ceff1_is_shielded_below_total(self, model):
        assert model.ceff1 < model.total_capacitance
        assert model.ceff1 > 0.1 * model.total_capacitance

    def test_tr2_effective_includes_plateau(self, model):
        assert model.tr2_effective > model.tr2
        assert model.plateau == pytest.approx(
            max(0.0, 2 * model.time_of_flight - model.tr1))

    def test_delay_is_anchored_to_cell_table(self, model, cell75):
        assert model.delay() == pytest.approx(
            cell75.delay(ps(100), model.ceff1), rel=1e-9)
        assert model.gate_delay == pytest.approx(model.delay(), rel=1e-9)

    def test_waveform_crosses_breakpoint(self, model):
        waveform = model.two_ramp()
        assert waveform.breakpoint_voltage == pytest.approx(
            model.breakpoint_fraction * model.vdd)
        assert waveform.value(waveform.breakpoint_time) == pytest.approx(
            waveform.breakpoint_voltage, rel=1e-9)

    def test_slew_exceeds_single_ramp_estimate(self, model, cell75):
        """The inductive tail makes the modeled transition much slower than what the
        table would predict at the same effective capacitance."""
        naive = 0.8 * cell75.ramp_time(ps(100), model.ceff1)
        assert model.slew() > 1.5 * naive

    def test_plateau_correction_can_be_disabled(self, cell75, line_5mm):
        without = model_driver_output(cell75, ps(100), line_5mm,
                                      options=ModelingOptions(plateau_correction=False))
        assert without.tr2_effective == pytest.approx(without.tr2)

    def test_reference_time_shifts_everything(self, cell75, line_5mm):
        shifted = model_driver_output(cell75, ps(100), line_5mm,
                                      options=ModelingOptions(reference_time=ps(500)))
        base = model_driver_output(cell75, ps(100), line_5mm)
        assert shifted.delay() == pytest.approx(base.delay(), rel=1e-9)
        assert shifted.two_ramp().t_start == pytest.approx(
            base.two_ramp().t_start + ps(500), rel=1e-9)

    def test_fall_transition_produces_falling_waveform(self, cell75, line_5mm):
        model = model_driver_output(cell75, ps(100), line_5mm,
                                    options=ModelingOptions(transition="fall"))
        waveform = model.two_ramp()
        assert waveform.value(waveform.t_start - ps(1)) == pytest.approx(model.vdd)
        assert waveform.value(waveform.end_time + ps(50)) == pytest.approx(0.0)
        assert model.delay() > 0

    def test_describe_mentions_both_ceffs(self, model):
        text = model.describe()
        assert "Ceff1" in text and "Ceff2" in text


class TestSingleRampQuantities:
    def test_single_ramp_uses_full_charge_window(self, cell25, weak_line):
        model = model_driver_output(cell25, ps(100), weak_line)
        assert model.ceff2 is None
        assert model.tr2 is None
        assert model.plateau == 0.0
        # Shielding is mild for this resistive case: Ceff close to but below total.
        assert 0.5 * model.total_capacitance < model.ceff1 <= model.total_capacitance

    def test_single_ramp_slew_matches_table_ramp(self, cell25, weak_line):
        model = model_driver_output(cell25, ps(100), weak_line)
        expected = 0.8 * cell25.ramp_time(ps(100), model.ceff1)
        assert model.slew() == pytest.approx(expected, rel=1e-6)


class TestFarEnd:
    def test_far_end_of_two_ramp_model(self, cell75, line_5mm):
        model = model_driver_output(cell75, ps(100), line_5mm, load_capacitance=fF(20))
        response = far_end_response(model)
        assert response.far_delay() > model.delay()
        # The wire adds at least one time of flight.
        assert response.interconnect_delay() > 0.8 * line_5mm.time_of_flight
        assert response.far.v_final == pytest.approx(model.vdd, rel=0.05)

    def test_far_end_slew_is_positive_and_finite(self, cell75, line_5mm):
        model = model_driver_output(cell75, ps(100), line_5mm)
        response = far_end_response(model)
        assert 0 < response.far_slew() < ps(1000)


class TestBaselines:
    def test_single_ceff_exceeds_half_charge_ceff(self, cell75, line_5mm):
        """Figure 3: equating charge only to the 50% point sees less of the load than
        equating over the full transition."""
        full = single_ceff_model(cell75, ps(100), line_5mm)
        half = half_charge_ceff_model(cell75, ps(100), line_5mm)
        assert full.kind == "single-ramp" and half.kind == "single-ramp"
        assert full.ceff1 > 1.02 * half.ceff1

    def test_single_ceff_model_keeps_admittance_options(self, cell75, line_5mm):
        options = ModelingOptions(admittance_order=6, moment_segments=37,
                                  force_two_ramp=True)
        model = single_ceff_model(cell75, ps(100), line_5mm, fF(20), options=options)
        expected = fit_rational_admittance(
            admittance_moments(line_5mm, fF(20), order=6, n_segments=37))
        assert model.kind == "single-ramp"
        assert model.admittance == expected
        assert model.admittance != single_ceff_model(cell75, ps(100), line_5mm,
                                                     fF(20)).admittance

    def test_total_capacitance_model_uses_total(self, cell75, line_5mm):
        model = total_capacitance_model(cell75, ps(100), line_5mm, fF(30))
        assert model.ceff1 == pytest.approx(line_5mm.capacitance + fF(30), rel=1e-3)
        assert model.kind == "single-ramp"
        assert model.delay() > 0

    def test_one_ramp_baseline_overestimates_delay_vs_two_ramp(self, cell75, line_5mm):
        """The paper's Table 1 pattern: the single-Ceff delay is far larger because it
        misses the fast inductive initial step."""
        two_ramp = model_driver_output(cell75, ps(100), line_5mm)
        one_ramp = single_ceff_model(cell75, ps(100), line_5mm)
        assert one_ramp.delay() > 1.3 * two_ramp.delay()
        assert one_ramp.slew() < two_ramp.slew()

    def test_rc_pi_baseline_on_rc_line(self, cell75):
        rc_line = RLCLine(resistance=101.3, inductance=nH(0.001), capacitance=pF(1.54),
                          length=mm(7))
        baseline = rc_pi_baseline(cell75, ps(100), rc_line)
        assert 0 < baseline.ceff < rc_line.capacitance
        assert baseline.gate_delay > 0
        assert "pi" in baseline.describe()

    def test_rc_pi_baseline_ignores_inductance(self, cell75, line_5mm):
        baseline = rc_pi_baseline(cell75, ps(100), line_5mm)
        rc_only = rc_pi_baseline(cell75, ps(100), rc_equivalent_line(line_5mm))
        assert baseline.ceff == pytest.approx(rc_only.ceff, rel=1e-6)

    def test_rc_equivalent_line_preserves_rc(self, line_5mm):
        rc_line = rc_equivalent_line(line_5mm)
        assert rc_line.resistance == line_5mm.resistance
        assert rc_line.capacitance == line_5mm.capacitance
        assert rc_line.inductance < 1e-3 * line_5mm.inductance
