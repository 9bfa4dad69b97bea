"""The per-lane scalar modeling flow: the independent oracle of the batch path.

Every production entry point of the flow is the one-lane case of its array batch;
this module keeps the scalar implementation once, importing no batch function.
Only :func:`repro.core.stage_solver.solve_stage` and the tests import it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..characterization.cell import CellCharacterization
from ..constants import CEFF_MAX_ITERATIONS, CEFF_REL_TOL
from ..errors import ConvergenceError, ModelingError
from ..interconnect.admittance import RationalAdmittance, fit_rational_admittance
from ..interconnect.moments import admittance_moments
from ..interconnect.rlc_line import RLCLine
from .ceff import _impulse_charge_per_volt, _pole_terms
from .criteria import evaluate_inductance_criteria
from .driver_model import DriverOutputModel, ModelingOptions
from .iteration import CeffIterationResult
from .plateau import modified_second_ramp_time, plateau_duration
from .two_ramp import voltage_breakpoint

__all__ = ["ramp_current", "ramp_charge", "ceff_first_ramp", "ceff_second_ramp",
           "iterate_ceff1", "iterate_ceff2", "model_driver_output"]


def ramp_current(adm: RationalAdmittance, ramp_time: float, times: np.ndarray, *,
                 vdd: float = 1.0) -> np.ndarray:
    """Current drawn from an un-saturated ramp ``v(t) = vdd * t / ramp_time``.

    This is the inverse Laplace transform of ``Y(s) * vdd / (ramp_time * s^2)`` for
    ``t > 0`` (impulse terms at ``t = 0`` are not represented in the sampled output).
    Useful for visualization and as an independent check of the charge expressions.
    """
    if ramp_time <= 0:
        raise ModelingError("ramp time must be positive")
    t = np.asarray(times, dtype=float)
    current = np.full(t.shape, adm.a1, dtype=complex)
    for pole, residue in _pole_terms(adm):
        current = current + (residue / pole) * np.exp(pole * t)
    return (vdd / ramp_time) * current.real


def ramp_charge(adm: RationalAdmittance, ramp_time: float, t_from: float, t_to: float, *,
                vdd: float = 1.0) -> float:
    """Charge drawn from the un-saturated ramp between ``t_from`` and ``t_to``.

    Integrates the partial-fraction form analytically; includes the impulse charge
    when the interval starts at (or before) zero.
    """
    if ramp_time <= 0:
        raise ModelingError("ramp time must be positive")
    if t_to < t_from:
        raise ModelingError("t_to must not precede t_from")
    charge = complex(adm.a1 * (t_to - t_from))
    for pole, residue in _pole_terms(adm):
        charge += (residue / (pole * pole)) * (np.exp(pole * t_to) - np.exp(pole * t_from))
    result = charge.real
    if t_from <= 0.0:
        result += _impulse_charge_per_volt(adm)
    return vdd / ramp_time * result


def ceff_first_ramp(adm: RationalAdmittance, tr1: float, breakpoint_fraction: float, *,
                    vdd: float = 1.0) -> float:
    """Effective capacitance of the first ramp (paper Eqs. 4/5).

    The driver output is the ramp ``v(t) = Vdd * t / tr1``; charge drawn by the load
    over ``[0, f * tr1]`` is equated with ``Ceff1 * f * Vdd``.  With ``f = 1`` this is
    also the paper's single effective capacitance for non-inductive loads, and with
    ``f = 0.5`` the "equate charge up to the 50% point" variant of Figure 3.
    """
    if not 0.0 < breakpoint_fraction <= 1.0:
        raise ModelingError("breakpoint fraction must be in (0, 1]")
    if tr1 <= 0:
        raise ModelingError("tr1 must be positive")
    f = breakpoint_fraction
    window_end = f * tr1
    charge = ramp_charge(adm, tr1, 0.0, window_end, vdd=vdd)
    return charge / (f * vdd)


def ceff_second_ramp(adm: RationalAdmittance, tr1: float, tr2: float,
                     breakpoint_fraction: float, *, vdd: float = 1.0) -> float:
    """Effective capacitance of the second ramp (paper Eqs. 6/7).

    Following the paper, the second portion of the two-ramp waveform is extended
    back to ``t = 0`` as ``v(t) = Vdd * t / tr2 + k * f * Vdd`` with
    ``k = 1 - tr1 / tr2``; the load current of that stimulus is integrated over the
    second ramp's transition window ``[f*tr1, f*tr1 + (1-f)*tr2]`` and equated with
    ``Ceff2 * (1 - f) * Vdd``.
    """
    if not 0.0 < breakpoint_fraction < 1.0:
        raise ModelingError("the second ramp requires a breakpoint fraction below 1")
    if tr1 <= 0 or tr2 <= 0:
        raise ModelingError("ramp times must be positive")
    f = breakpoint_fraction
    k = 1.0 - tr1 / tr2
    t_from = f * tr1
    t_to = f * tr1 + (1.0 - f) * tr2

    # Ramp part of the stimulus: Vdd/(tr2 * s^2).
    charge = complex(adm.a1 * (t_to - t_from) / tr2)
    for pole, residue in _pole_terms(adm):
        exp_span = np.exp(pole * t_to) - np.exp(pole * t_from)
        # Ramp contribution: residue / (tr2 * s^2); step contribution: k*f*residue / s.
        charge += (residue / (tr2 * pole * pole) + k * f * residue / pole) * exp_span
    return float(vdd * charge.real / ((1.0 - f) * vdd))


def _fixed_point(total_capacitance: float,
                 ceff_of_ramp: Callable[[float], float],
                 ramp_of_load: Callable[[float], float], *,
                 rel_tol: float, max_iterations: int, damping: float,
                 require_convergence: bool) -> CeffIterationResult:
    """Damped fixed-point iteration shared by the Ceff1 and Ceff2 flows."""
    if total_capacitance <= 0:
        raise ModelingError("total capacitance must be positive")
    floor = 0.01 * total_capacitance
    ceiling = 2.0 * total_capacitance

    # Each ramp_of_load call is a full table interpolation on the hot path, so the
    # loop keeps ramp_time in lock-step with ceff: one lookup per iteration (plus
    # the initial guess), and the converged (ceff, ramp_time) pair leaves the loop
    # together with no extra lookup at the end.
    ceff = total_capacitance
    history: List[float] = [ceff]
    ramp_time = ramp_of_load(ceff)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if ramp_time <= 0:
            raise ModelingError("cell table produced a non-positive ramp time")
        proposal = ceff_of_ramp(ramp_time)
        proposal = min(max(proposal, floor), ceiling)
        new_ceff = damping * proposal + (1.0 - damping) * ceff
        history.append(new_ceff)
        done = abs(new_ceff - ceff) <= rel_tol * total_capacitance
        ceff = new_ceff
        ramp_time = ramp_of_load(ceff)
        if done:
            converged = True
            break
    if ramp_time <= 0:
        raise ModelingError("cell table produced a non-positive ramp time")
    if not converged and require_convergence:
        raise ConvergenceError(
            f"Ceff iteration did not converge within {max_iterations} iterations",
            iterations=max_iterations, last_value=ceff)
    return CeffIterationResult(ceff=ceff, ramp_time=ramp_time, iterations=iterations,
                               converged=converged, history=history)


def iterate_ceff1(cell: CellCharacterization, input_slew: float,
                  admittance: RationalAdmittance, breakpoint_fraction: float, *,
                  transition: str = "rise", vdd: float | None = None,
                  rel_tol: float = CEFF_REL_TOL,
                  max_iterations: int = CEFF_MAX_ITERATIONS, damping: float = 0.5,
                  require_convergence: bool = False) -> CeffIterationResult:
    """Ceff1 fixed point (paper Section 4.1).

    With ``breakpoint_fraction = 1`` this computes the paper's single effective
    capacitance for non-inductive loads.
    """
    supply = vdd if vdd is not None else cell.vdd

    def ceff_of_ramp(tr1: float) -> float:
        return ceff_first_ramp(admittance, tr1, breakpoint_fraction, vdd=supply)

    def ramp_of_load(load: float) -> float:
        return cell.ramp_time(input_slew, load, transition=transition)

    return _fixed_point(admittance.total_capacitance, ceff_of_ramp, ramp_of_load,
                        rel_tol=rel_tol, max_iterations=max_iterations, damping=damping,
                        require_convergence=require_convergence)


def iterate_ceff2(cell: CellCharacterization, input_slew: float,
                  admittance: RationalAdmittance, breakpoint_fraction: float,
                  tr1: float, *, transition: str = "rise", vdd: float | None = None,
                  rel_tol: float = CEFF_REL_TOL,
                  max_iterations: int = CEFF_MAX_ITERATIONS, damping: float = 0.5,
                  require_convergence: bool = False) -> CeffIterationResult:
    """Ceff2 fixed point (paper Section 4.2), given the converged first-ramp time."""
    if not 0.0 < breakpoint_fraction < 1.0:
        raise ModelingError("Ceff2 requires a breakpoint fraction strictly below 1")
    if tr1 <= 0:
        raise ModelingError("tr1 must be positive")
    supply = vdd if vdd is not None else cell.vdd

    def ceff_of_ramp(tr2: float) -> float:
        return ceff_second_ramp(admittance, tr1, tr2, breakpoint_fraction, vdd=supply)

    def ramp_of_load(load: float) -> float:
        return cell.ramp_time(input_slew, load, transition=transition)

    return _fixed_point(admittance.total_capacitance, ceff_of_ramp, ramp_of_load,
                        rel_tol=rel_tol, max_iterations=max_iterations, damping=damping,
                        require_convergence=require_convergence)


def _admittance_for(line: RLCLine, load_capacitance: float,
                    options: ModelingOptions) -> RationalAdmittance:
    moments = admittance_moments(line, load_capacitance, order=options.admittance_order,
                                 n_segments=options.moment_segments)
    return fit_rational_admittance(moments)


def model_driver_output(cell: CellCharacterization, input_slew: float, line: RLCLine,
                        load_capacitance: float = 0.0, *,
                        options: Optional[ModelingOptions] = None) -> DriverOutputModel:
    """Run the paper's full modeling flow for one driver / line / load combination."""
    options = options if options is not None else ModelingOptions()
    if input_slew <= 0:
        raise ModelingError("input slew must be positive")
    if load_capacitance < 0:
        raise ModelingError("load capacitance must be non-negative")

    transition = options.transition
    vdd = cell.vdd
    admittance = _admittance_for(line, load_capacitance, options)
    total_capacitance = admittance.total_capacitance
    z0 = line.characteristic_impedance
    tf = line.time_of_flight

    # Step 2: driver resistance at the total capacitance, breakpoint fraction (Eq. 1).
    driver_resistance = cell.driver_resistance(input_slew, total_capacitance,
                                               transition=transition)
    breakpoint = voltage_breakpoint(driver_resistance, z0)

    # Step 3: Ceff1 iterations.  For the single-ramp flow the charge window fraction
    # is the configured one (1.0 matches the paper; 0.5 reproduces Figure 3's variant).
    ceff1_fraction = breakpoint if not options.force_single_ramp else options.ceff_charge_fraction
    ceff1_result = iterate_ceff1(cell, input_slew, admittance, ceff1_fraction,
                                 transition=transition, vdd=vdd,
                                 rel_tol=options.ceff_rel_tol,
                                 max_iterations=options.ceff_max_iterations,
                                 damping=options.ceff_damping)

    # Step 4: inductance screening with the initial ramp time.
    report = evaluate_inductance_criteria(line, load_capacitance, driver_resistance,
                                          ceff1_result.ramp_time,
                                          thresholds=options.criteria)
    use_two_ramp = report.significant
    if options.force_two_ramp:
        use_two_ramp = True
    if options.force_single_ramp:
        use_two_ramp = False

    if use_two_ramp:
        tr1 = ceff1_result.ramp_time
        ceff2_result = iterate_ceff2(cell, input_slew, admittance, breakpoint, tr1,
                                     transition=transition, vdd=vdd,
                                     rel_tol=options.ceff_rel_tol,
                                     max_iterations=options.ceff_max_iterations,
                                     damping=options.ceff_damping)
        tr2 = ceff2_result.ramp_time
        plateau = plateau_duration(tr1, tf)
        tr2_effective = (modified_second_ramp_time(tr1, tr2, breakpoint, tf)
                         if options.plateau_correction else tr2)
        gate_delay = cell.delay(input_slew, ceff1_result.ceff, transition=transition)
        return DriverOutputModel(
            kind="two-ramp", transition=transition, vdd=vdd, cell_name=cell.cell_name,
            input_slew=input_slew, line=line, load_capacitance=load_capacitance,
            admittance=admittance, driver_resistance=driver_resistance,
            characteristic_impedance=z0, time_of_flight=tf,
            breakpoint_fraction=breakpoint, ceff1=ceff1_result.ceff, tr1=tr1,
            ceff2=ceff2_result.ceff, tr2=tr2, tr2_effective=tr2_effective,
            plateau=plateau, gate_delay=gate_delay, inductance_report=report,
            ceff1_iteration=ceff1_result, ceff2_iteration=ceff2_result,
            reference_time=options.reference_time)

    # Single-ramp branch: a single effective capacitance over the whole transition.
    if ceff1_fraction != options.ceff_charge_fraction or not options.force_single_ramp:
        single_result = iterate_ceff1(cell, input_slew, admittance,
                                      options.ceff_charge_fraction,
                                      transition=transition, vdd=vdd,
                                      rel_tol=options.ceff_rel_tol,
                                      max_iterations=options.ceff_max_iterations,
                                      damping=options.ceff_damping)
    else:
        single_result = ceff1_result
    gate_delay = cell.delay(input_slew, single_result.ceff, transition=transition)
    return DriverOutputModel(
        kind="single-ramp", transition=transition, vdd=vdd, cell_name=cell.cell_name,
        input_slew=input_slew, line=line, load_capacitance=load_capacitance,
        admittance=admittance, driver_resistance=driver_resistance,
        characteristic_impedance=z0, time_of_flight=tf,
        breakpoint_fraction=breakpoint, ceff1=single_result.ceff,
        tr1=single_result.ramp_time, ceff2=None, tr2=None, tr2_effective=None,
        plateau=0.0, gate_delay=gate_delay, inductance_report=report,
        ceff1_iteration=single_result, ceff2_iteration=None,
        reference_time=options.reference_time)
