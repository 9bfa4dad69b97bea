"""Fixed-point iteration coupling the Ceff equations with the cell tables.

The effective capacitance depends on the ramp time, and the ramp time (looked up in
the pre-characterized cell table at load = Ceff) depends on the effective
capacitance.  Following the paper, both Ceff1 and Ceff2 are found by iterating from
an initial guess equal to the total load capacitance until the value converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from ..characterization.cell import CellCharacterization
from ..constants import CEFF_MAX_ITERATIONS, CEFF_REL_TOL
from ..errors import ConvergenceError, ModelingError
from ..interconnect.admittance import RationalAdmittance
from .ceff import AdmittanceBatch, ceff_first_ramp_batch

__all__ = ["CeffIterationResult", "iterate_ceff1"]


@dataclass(frozen=True)
class CeffIterationResult:
    """Outcome of one effective-capacitance fixed-point iteration."""

    ceff: float  #: converged effective capacitance [F]
    ramp_time: float  #: full-swing ramp time corresponding to ``ceff`` [s]
    iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)  #: Ceff value per iteration


def _fixed_point_batch(total_capacitance: np.ndarray,
                       ceff_of_ramp: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       ramp_of_load: Callable[[np.ndarray, np.ndarray], np.ndarray], *,
                       rel_tol: np.ndarray, max_iterations: np.ndarray,
                       damping: np.ndarray,
                       require_convergence: bool) -> List[CeffIterationResult]:
    """Damped fixed-point iteration of the Ceff1 and Ceff2 flows, one lane per stage.

    ``ceff_of_ramp`` / ``ramp_of_load`` receive ``(values, lane_indices)`` — the
    values of the still-active lanes plus their positions in the batch — so callers
    can dispatch each lane to its own admittance and cell table.  Converged lanes
    freeze (they are dropped from the active set and never re-evaluated) while
    stragglers keep iterating; ``rel_tol`` / ``max_iterations`` / ``damping`` may be
    scalars or per-lane arrays.  Every lane replays the scalar iteration's exact
    arithmetic (same clamp, damping and convergence-test operations in the same
    order), so the returned per-lane results — including iteration counts and
    histories — are bit-identical to running the scalar oracle's
    :func:`~repro.core.scalar_oracle._fixed_point` lane by lane.

    Errors carry lane attribution: a non-positive ramp time raises
    :class:`ModelingError` and, with ``require_convergence``, a straggler raises
    :class:`ConvergenceError` naming the first offending lane in batch order.
    """
    total = np.asarray(total_capacitance, dtype=float)
    n = int(total.size)
    if n == 0:
        return []
    if np.any(total <= 0):
        lane = int(np.flatnonzero(total <= 0)[0])
        raise ModelingError(f"total capacitance must be positive (lane {lane})")
    rel = np.broadcast_to(np.asarray(rel_tol, dtype=float), (n,))
    limit = np.broadcast_to(np.asarray(max_iterations, dtype=int), (n,))
    damp = np.broadcast_to(np.asarray(damping, dtype=float), (n,))
    floor = 0.01 * total
    ceiling = 2.0 * total

    ceff = total.copy()
    histories: List[List[float]] = [[float(value)] for value in ceff]
    ramp = np.asarray(ramp_of_load(ceff, np.arange(n)), dtype=float).copy()
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = limit >= 1
    step = 0
    while np.any(active):
        step += 1
        lanes = np.flatnonzero(active)
        ramp_active = ramp[lanes]
        if np.any(ramp_active <= 0):
            lane = int(lanes[np.flatnonzero(ramp_active <= 0)[0]])
            raise ModelingError("cell table produced a non-positive ramp time"
                                f" (lane {lane})")
        proposal = np.asarray(ceff_of_ramp(ramp_active, lanes), dtype=float)
        proposal = np.minimum(np.maximum(proposal, floor[lanes]), ceiling[lanes])
        new_ceff = damp[lanes] * proposal + (1.0 - damp[lanes]) * ceff[lanes]
        for lane, value in zip(lanes, new_ceff):
            histories[lane].append(float(value))
        done = np.abs(new_ceff - ceff[lanes]) <= rel[lanes] * total[lanes]
        ceff[lanes] = new_ceff
        ramp[lanes] = np.asarray(ramp_of_load(new_ceff, lanes), dtype=float)
        converged[lanes] = done
        iterations[lanes] = step
        active[lanes] = ~done & (step < limit[lanes])
    if np.any(ramp <= 0):
        lane = int(np.flatnonzero(ramp <= 0)[0])
        raise ModelingError("cell table produced a non-positive ramp time"
                            f" (lane {lane})")
    if require_convergence and not np.all(converged):
        lane = int(np.flatnonzero(~converged)[0])
        raise ConvergenceError(
            f"Ceff iteration did not converge within {int(limit[lane])} iterations"
            f" (lane {lane})",
            iterations=int(limit[lane]), last_value=float(ceff[lane]))
    return [CeffIterationResult(ceff=float(ceff[lane]), ramp_time=float(ramp[lane]),
                                iterations=int(iterations[lane]),
                                converged=bool(converged[lane]),
                                history=histories[lane])
            for lane in range(n)]


def iterate_ceff1(cell: CellCharacterization, input_slew: float,
                  admittance: RationalAdmittance, breakpoint_fraction: float, *,
                  transition: str = "rise", vdd: float | None = None,
                  rel_tol: float = CEFF_REL_TOL,
                  max_iterations: int = CEFF_MAX_ITERATIONS, damping: float = 0.5,
                  require_convergence: bool = False) -> CeffIterationResult:
    """Ceff1 fixed point (paper Section 4.1): one lane of :func:`_fixed_point_batch`.

    With ``breakpoint_fraction = 1`` this computes the paper's single effective
    capacitance for non-inductive loads.
    """
    supply = vdd if vdd is not None else cell.vdd
    batch = AdmittanceBatch.from_admittances([admittance])
    slew = np.array([input_slew], dtype=float)

    def ceff_of_ramp(ramps: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return ceff_first_ramp_batch(batch, ramps, breakpoint_fraction, vdd=supply)

    def ramp_of_load(loads: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return cell.ramp_time_many(slew[lanes], loads, transition=transition)

    return _fixed_point_batch(
        np.array([admittance.total_capacitance]), ceff_of_ramp, ramp_of_load,
        rel_tol=rel_tol, max_iterations=max_iterations, damping=damping,
        require_convergence=require_convergence)[0]
