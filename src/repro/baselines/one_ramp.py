"""Single-ramp baselines the paper compares against.

Three simple driver-output models serve as baselines for Table 1 and Figures 3/6:

* :func:`single_ceff_model` — one ramp whose effective capacitance equates the
  charge over the *entire* transition (the paper's non-inductive flow forced onto an
  inductive load; this is the "1 ramp" column of Table 1).
* :func:`half_charge_ceff_model` — one ramp whose effective capacitance equates the
  charge only up to the 50% point (the second curve of Figure 3).
* :func:`total_capacitance_model` — one ramp obtained by looking the cell table up
  at the full, un-shielded load capacitance (the most naive model).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..characterization.cell import CellCharacterization
from ..core.driver_model import DriverOutputModel, ModelingOptions, model_driver_output
from ..core.iteration import CeffIterationResult
from ..core.criteria import evaluate_inductance_criteria
from ..core.two_ramp import voltage_breakpoint
from ..errors import ModelingError
from ..interconnect.admittance import fit_rational_admittance
from ..interconnect.moments import admittance_moments
from ..interconnect.rlc_line import RLCLine

__all__ = ["single_ceff_model", "half_charge_ceff_model", "total_capacitance_model"]


def _forced_single_ramp_options(base: Optional[ModelingOptions],
                                charge_fraction: float) -> ModelingOptions:
    return replace(base if base is not None else ModelingOptions(),
                   force_two_ramp=False, force_single_ramp=True,
                   ceff_charge_fraction=charge_fraction)


def single_ceff_model(cell: CellCharacterization, input_slew: float, line: RLCLine,
                      load_capacitance: float = 0.0, *,
                      options: Optional[ModelingOptions] = None) -> DriverOutputModel:
    """One-ramp model with the charge equated over the full transition (f = 1)."""
    return model_driver_output(cell, input_slew, line, load_capacitance,
                               options=_forced_single_ramp_options(options, 1.0))


def half_charge_ceff_model(cell: CellCharacterization, input_slew: float, line: RLCLine,
                           load_capacitance: float = 0.0, *,
                           options: Optional[ModelingOptions] = None) -> DriverOutputModel:
    """One-ramp model with the charge equated only up to the 50% point (Figure 3)."""
    return model_driver_output(cell, input_slew, line, load_capacitance,
                               options=_forced_single_ramp_options(options, 0.5))


def total_capacitance_model(cell: CellCharacterization, input_slew: float, line: RLCLine,
                            load_capacitance: float = 0.0, *,
                            transition: str = "rise",
                            reference_time: float = 0.0) -> DriverOutputModel:
    """One-ramp model that ignores shielding entirely and uses the total capacitance."""
    if input_slew <= 0:
        raise ModelingError("input slew must be positive")
    moments = admittance_moments(line, load_capacitance)
    admittance = fit_rational_admittance(moments)
    total = admittance.total_capacitance
    tr = cell.ramp_time(input_slew, total, transition=transition)
    gate_delay = cell.delay(input_slew, total, transition=transition)
    driver_resistance = cell.driver_resistance(input_slew, total, transition=transition)
    z0 = line.characteristic_impedance
    report = evaluate_inductance_criteria(line, load_capacitance, driver_resistance, tr)
    iteration = CeffIterationResult(ceff=total, ramp_time=tr, iterations=0,
                                    converged=True, history=[total])
    return DriverOutputModel(
        kind="single-ramp", transition=transition, vdd=cell.vdd,
        cell_name=cell.cell_name, input_slew=input_slew, line=line,
        load_capacitance=load_capacitance, admittance=admittance,
        driver_resistance=driver_resistance, characteristic_impedance=z0,
        time_of_flight=line.time_of_flight,
        breakpoint_fraction=voltage_breakpoint(driver_resistance, z0),
        ceff1=total, tr1=tr, ceff2=None, tr2=None, tr2_effective=None, plateau=0.0,
        gate_delay=gate_delay, inductance_report=report, ceff1_iteration=iteration,
        ceff2_iteration=None, reference_time=reference_time)
