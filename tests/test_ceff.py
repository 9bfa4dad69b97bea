"""Charge-matching effective-capacitance equations (paper Eqs. 4-7).

The analytic expressions are validated against circuit-level charge measurements:
a realizable load whose rational admittance is known exactly is driven by the same
stimulus the equations assume, and the charge delivered by the source over the
matching window is integrated numerically.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, PWLSource, TransientOptions, run_transient
from repro.core.scalar_oracle import (ceff_first_ramp, ceff_second_ramp, ramp_charge,
                                      ramp_current)
from repro.errors import ModelingError
from repro.interconnect import (RationalAdmittance, RLCLine, admittance_moments,
                                fit_rational_admittance)
from repro.units import mm, nH, pF, ps

VDD = 1.8


def realizable_load(c_near, resistance, inductance, c_far):
    """A port load of C_near in parallel with a series R-L-C_far branch.

    Its exact driving-point admittance is::

        Y(s) = s*C_near + s*C_far / (1 + s*R*C_far + s^2*L*C_far)

    which maps onto the paper's Eq. 3 with
        a1 = C_near + C_far, a2 = R*C_near*C_far, a3 = L*C_near*C_far,
        b1 = R*C_far,        b2 = L*C_far.
    """
    adm = RationalAdmittance(
        a1=c_near + c_far,
        a2=resistance * c_near * c_far,
        a3=inductance * c_near * c_far,
        b1=resistance * c_far,
        b2=inductance * c_far,
    )

    def build(circuit, port):
        circuit.capacitor(port, "0", c_near, name="C_near")
        circuit.resistor(port, "x1", resistance, name="R_branch")
        circuit.inductor("x1", "x2", inductance, name="L_branch")
        circuit.capacitor("x2", "0", c_far, name="C_far")

    return adm, build


def measured_charge(build_load, source_points, t_from, t_to, dt=ps(0.02)):
    """Simulate the load driven by a PWL source and integrate the delivered charge."""
    circuit = Circuit("charge_measurement")
    circuit.voltage_source("port", "0", PWLSource(source_points), name="Vsrc")
    build_load(circuit, "port")
    t_stop = max(t_to * 1.05, t_to + dt * 4)
    result = run_transient(circuit, t_stop,
                           options=TransientOptions(dt=dt, use_dc_operating_point=False))
    current = result.source_delivered_current("Vsrc")
    times = result.times
    mask = (times >= t_from) & (times <= t_to)
    return float(np.trapezoid(current[mask], times[mask]))


# Two load flavours: complex poles (inductive) and real poles (RC-like).
COMPLEX_POLE_LOAD = dict(c_near=150e-15, resistance=60.0, inductance=5e-9, c_far=900e-15)
REAL_POLE_LOAD = dict(c_near=150e-15, resistance=800.0, inductance=0.05e-9, c_far=900e-15)


class TestRampChargeAgainstCircuit:
    @pytest.mark.parametrize("load_kwargs", [COMPLEX_POLE_LOAD, REAL_POLE_LOAD],
                             ids=["complex-poles", "real-poles"])
    def test_ramp_charge_matches_simulation(self, load_kwargs):
        adm, build = realizable_load(**load_kwargs)
        tr = ps(80)
        window_end = 0.6 * tr
        # Unsaturated ramp: keep ramping past the window so the stimulus matches the
        # analytic assumption within the integration window.
        points = [(0.0, 0.0), (2 * tr, 2 * VDD)]
        simulated = measured_charge(build, points, 0.0, window_end)
        analytic = ramp_charge(adm, tr, 0.0, window_end, vdd=VDD)
        assert analytic == pytest.approx(simulated, rel=0.02)

    def test_pole_character_of_loads(self):
        complex_adm, _ = realizable_load(**COMPLEX_POLE_LOAD)
        real_adm, _ = realizable_load(**REAL_POLE_LOAD)
        assert complex_adm.has_complex_poles
        assert not real_adm.has_complex_poles


class TestCeff1:
    @pytest.mark.parametrize("load_kwargs", [COMPLEX_POLE_LOAD, REAL_POLE_LOAD],
                             ids=["complex-poles", "real-poles"])
    @pytest.mark.parametrize("fraction", [0.5, 0.65, 1.0])
    def test_matches_circuit_charge_balance(self, load_kwargs, fraction):
        """Ceff1 * f * Vdd equals the charge the real load absorbs over [0, f*Tr1]."""
        adm, build = realizable_load(**load_kwargs)
        tr1 = ps(70)
        points = [(0.0, 0.0), (2 * tr1, 2 * VDD)]
        charge = measured_charge(build, points, 0.0, fraction * tr1)
        ceff = ceff_first_ramp(adm, tr1, fraction, vdd=VDD)
        assert ceff == pytest.approx(charge / (fraction * VDD), rel=0.02)

    def test_pure_capacitor_gives_its_own_value(self):
        adm = RationalAdmittance(a1=0.5e-12, a2=0.0, a3=0.0, b1=0.0, b2=0.0)
        assert ceff_first_ramp(adm, ps(100), 0.7) == pytest.approx(0.5e-12, rel=1e-12)

    def test_shielding_reduces_effective_capacitance(self):
        """A resistively shielded far capacitance yields Ceff below the total."""
        adm, _ = realizable_load(c_near=100e-15, resistance=500.0, inductance=0.1e-9,
                                 c_far=900e-15)
        ceff = ceff_first_ramp(adm, ps(50), 1.0)
        assert ceff < adm.total_capacitance
        assert ceff > 100e-15  # but at least the near capacitance

    def test_slower_ramps_see_more_of_the_load(self):
        adm, _ = realizable_load(**REAL_POLE_LOAD)
        fast = ceff_first_ramp(adm, ps(20), 1.0)
        slow = ceff_first_ramp(adm, ps(2000), 1.0)
        assert slow > fast
        assert slow == pytest.approx(adm.total_capacitance, rel=0.05)

    def test_validation(self):
        adm, _ = realizable_load(**COMPLEX_POLE_LOAD)
        with pytest.raises(ModelingError):
            ceff_first_ramp(adm, 0.0, 0.5)
        with pytest.raises(ModelingError):
            ceff_first_ramp(adm, ps(50), 0.0)
        with pytest.raises(ModelingError):
            ceff_first_ramp(adm, ps(50), 1.2)


class TestCeff2:
    @pytest.mark.parametrize("load_kwargs", [COMPLEX_POLE_LOAD, REAL_POLE_LOAD],
                             ids=["complex-poles", "real-poles"])
    def test_matches_circuit_charge_balance(self, load_kwargs):
        """Ceff2 * (1-f) * Vdd equals the charge drawn by the real load when driven by
        the paper's extended second-ramp stimulus over the second transition window."""
        adm, build = realizable_load(**load_kwargs)
        f = 0.6
        tr1 = ps(60)
        tr2 = ps(240)
        k = 1.0 - tr1 / tr2
        # The paper's stimulus: v(t) = k*f*Vdd + Vdd*t/tr2, extended from t = 0.
        step = k * f * VDD
        rise_time = ps(0.01)
        points = [(0.0, 0.0), (rise_time, step),
                  (2 * tr2, step + 2 * VDD * (1 - rise_time / (2 * tr2)))]
        # Simpler: explicit slope Vdd/tr2 after the initial step.
        points = [(0.0, 0.0), (rise_time, step), (2 * tr2, step + VDD * 2.0)]
        t_from = f * tr1
        t_to = f * tr1 + (1 - f) * tr2
        charge = measured_charge(build, points, t_from, t_to)
        ceff2 = ceff_second_ramp(adm, tr1, tr2, f, vdd=VDD)
        assert ceff2 == pytest.approx(charge / ((1 - f) * VDD), rel=0.03)

    def test_pure_capacitor_gives_its_own_value(self):
        adm = RationalAdmittance(a1=0.8e-12, a2=0.0, a3=0.0, b1=0.0, b2=0.0)
        assert ceff_second_ramp(adm, ps(40), ps(160), 0.6) == pytest.approx(0.8e-12,
                                                                            rel=1e-12)

    def test_validation(self):
        adm, _ = realizable_load(**COMPLEX_POLE_LOAD)
        with pytest.raises(ModelingError):
            ceff_second_ramp(adm, ps(50), ps(100), 1.0)
        with pytest.raises(ModelingError):
            ceff_second_ramp(adm, ps(50), 0.0, 0.5)


class TestRampCurrent:
    def test_initial_current_of_inductive_load_is_near_capacitance_limited(self):
        adm, _ = realizable_load(**COMPLEX_POLE_LOAD)
        tr = ps(100)
        current = ramp_current(adm, tr, np.array([1e-15]), vdd=VDD)[0]
        # At t -> 0+ only the near capacitance is visible: I ~ C_near * dV/dt.
        assert current == pytest.approx(150e-15 * VDD / tr, rel=0.05)

    def test_long_time_current_approaches_total_capacitance(self):
        adm, _ = realizable_load(**REAL_POLE_LOAD)
        tr = ps(100)
        current = ramp_current(adm, tr, np.array([50 * 800.0 * 900e-15]), vdd=VDD)[0]
        assert current == pytest.approx(adm.total_capacitance * VDD / tr, rel=0.01)

    def test_validation(self):
        adm, _ = realizable_load(**COMPLEX_POLE_LOAD)
        with pytest.raises(ModelingError):
            ramp_current(adm, 0.0, np.array([1e-12]))
        with pytest.raises(ModelingError):
            ramp_charge(adm, ps(10), ps(20), ps(10))


class TestAgainstLadderMoments:
    def test_ceff_of_fitted_ladder_close_to_ladder_charge(self, line_5mm):
        """End-to-end: moments -> Eq. 3 fit -> Ceff1 stays close to the charge the
        actual ladder network absorbs (the fit only matches five moments, so the
        agreement is approximate)."""
        n_segments = 40
        moments = admittance_moments(line_5mm, 0.0, n_segments=n_segments)
        adm = fit_rational_admittance(moments)
        tr1, fraction = ps(80), 0.6

        circuit = Circuit()
        circuit.voltage_source("near", "0",
                               PWLSource([(0.0, 0.0), (2 * tr1, 2 * VDD)]), name="Vsrc")
        from repro.interconnect import add_line_ladder

        add_line_ladder(circuit, line_5mm, "near", "far", n_segments=n_segments)
        result = run_transient(circuit, fraction * tr1 * 1.05,
                               options=TransientOptions(dt=ps(0.02),
                                                        use_dc_operating_point=False))
        current = result.source_delivered_current("Vsrc")
        mask = result.times <= fraction * tr1
        charge = float(np.trapezoid(current[mask], result.times[mask]))
        ceff = ceff_first_ramp(adm, tr1, fraction, vdd=VDD)
        assert ceff == pytest.approx(charge / (fraction * VDD), rel=0.10)
