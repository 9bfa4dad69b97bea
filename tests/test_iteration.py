"""Ceff fixed-point iterations against the characterized cell tables."""

import pytest

from repro.core.scalar_oracle import iterate_ceff1, iterate_ceff2
from repro.errors import ConvergenceError, ModelingError
from repro.interconnect import RationalAdmittance, admittance_moments, fit_rational_admittance
from repro.units import fF, ps


@pytest.fixture(scope="module")
def inductive_admittance(line_5mm_module):
    return fit_rational_admittance(admittance_moments(line_5mm_module, 0.0))


@pytest.fixture(scope="module")
def line_5mm_module():
    from repro.interconnect import RLCLine
    from repro.units import mm, nH, pF

    return RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                   length=mm(5))


class TestCeff1Iteration:
    def test_converges_for_paper_case(self, cell75, inductive_admittance):
        result = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57)
        assert result.converged
        assert result.iterations < 100
        assert 0 < result.ceff < inductive_admittance.total_capacitance
        assert result.ramp_time > 0
        assert len(result.history) == result.iterations + 1

    def test_first_guess_is_total_capacitance(self, cell75, inductive_admittance):
        result = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57)
        assert result.history[0] == pytest.approx(
            inductive_admittance.total_capacitance)

    def test_pure_capacitive_load_is_a_fixed_point(self, cell75):
        capacitance = fF(400)
        adm = RationalAdmittance(a1=capacitance, a2=0.0, a3=0.0, b1=0.0, b2=0.0)
        result = iterate_ceff1(cell75, ps(100), adm, 1.0)
        assert result.converged
        assert result.ceff == pytest.approx(capacitance, rel=1e-3)
        assert result.ramp_time == pytest.approx(
            cell75.ramp_time(ps(100), capacitance), rel=1e-3)

    def test_smaller_breakpoint_fraction_gives_smaller_ceff(self, cell75,
                                                            inductive_admittance):
        early = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.4)
        full = iterate_ceff1(cell75, ps(100), inductive_admittance, 1.0)
        assert early.ceff < full.ceff

    def test_consistency_between_ceff_and_ramp_time(self, cell75, inductive_admittance):
        from repro.core.scalar_oracle import ceff_first_ramp

        result = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57,
                               rel_tol=1e-6, damping=0.5)
        recomputed = ceff_first_ramp(inductive_admittance, result.ramp_time, 0.57,
                                     vdd=cell75.vdd)
        assert recomputed == pytest.approx(result.ceff, rel=5e-3)

    def test_max_iteration_enforcement(self, cell75, inductive_admittance):
        with pytest.raises(ConvergenceError):
            iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57,
                          max_iterations=1, rel_tol=1e-12, require_convergence=True)

    def test_non_convergence_tolerated_by_default(self, cell75, inductive_admittance):
        result = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57,
                               max_iterations=1, rel_tol=1e-12)
        assert not result.converged


class TestCeff2Iteration:
    def test_converges_and_exceeds_ceff1(self, cell75, inductive_admittance):
        first = iterate_ceff1(cell75, ps(100), inductive_admittance, 0.57)
        second = iterate_ceff2(cell75, ps(100), inductive_admittance, 0.57,
                               first.ramp_time)
        assert second.converged
        # The second ramp sees the charge the initial step could not deliver, so its
        # effective capacitance is much larger than the first ramp's.
        assert second.ceff > first.ceff
        assert second.ramp_time > first.ramp_time

    def test_requires_fraction_below_one(self, cell75, inductive_admittance):
        with pytest.raises(ModelingError):
            iterate_ceff2(cell75, ps(100), inductive_admittance, 1.0, ps(50))

    def test_requires_positive_tr1(self, cell75, inductive_admittance):
        with pytest.raises(ModelingError):
            iterate_ceff2(cell75, ps(100), inductive_admittance, 0.6, 0.0)


class TestProductionCeff1:
    """``repro.core.iterate_ceff1`` is one lane of the batch fixed point."""

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_matches_the_driver_model_lane_bit_for_bit(self, cell75, line_5mm_module,
                                                       fraction):
        from repro.core import ModelingOptions, iterate_ceff1 as production_ceff1
        from repro.core import model_driver_output

        model = model_driver_output(
            cell75, ps(100), line_5mm_module,
            options=ModelingOptions(force_single_ramp=True,
                                    ceff_charge_fraction=fraction))
        result = production_ceff1(cell75, ps(100), model.admittance, fraction)
        assert result == model.ceff1_iteration
