"""Cache-free, one-stage-at-a-time path timing: the test-side scalar oracle.

The package times a :class:`~repro.sta.TimingPath` as its chain graph,
through the memoized, array-batched :class:`~repro.sta.batch.GraphEngine`.
This module times the same path the naive way, sharing none of that code: it
walks the stages in order, calls the scalar :func:`~repro.core.stage_solver.solve_stage`
once per stage with every cache bypassed, and hands each stage's far-end
transition to the next driver as a saturated ramp of the same
threshold-to-threshold time.  The equivalence tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.characterization.library import CellLibrary
from repro.constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from repro.core.driver_model import ModelingOptions
from repro.core.stage_solver import solve_stage
from repro.sta import TimingPath, TimingStage, flip_transition
from repro.tech.technology import Technology, generic_180nm


@dataclass(frozen=True)
class SerialStage:
    """Timing of one stage from the serial loop."""

    stage: TimingStage
    input_slew: float  #: full-swing input ramp time [s]
    transition: str  #: driver-output transition direction
    gate_delay: float  #: input 50% to driver-output 50% [s]
    interconnect_delay: float  #: driver-output 50% to far-end 50% [s]
    output_slew: float  #: far-end threshold-to-threshold transition time [s]

    @property
    def stage_delay(self) -> float:
        return self.gate_delay + self.interconnect_delay


def stage_transition(index: int, input_transition: str = "rise") -> str:
    """Driver-output direction of stage ``index``: inverters alternate it."""
    transition = flip_transition(input_transition)
    return transition if index % 2 == 0 else flip_transition(transition)


def stage_load(stage: TimingStage, tech: Technology) -> float:
    """Far-end gate load of ``stage``: its receiver plus any extra load [F]."""
    load = stage.extra_load
    if stage.receiver_size is not None:
        load += tech.inverter_input_capacitance(stage.receiver_size)
    return load


def time_path_serial(path: TimingPath, *, library: CellLibrary,
                     tech: Optional[Technology] = None,
                     options: Optional[ModelingOptions] = None,
                     slew_low: float = SLEW_LOW_THRESHOLD,
                     slew_high: float = SLEW_HIGH_THRESHOLD) -> List[SerialStage]:
    """Time ``path`` one stage at a time with uncached scalar solves."""
    tech = tech if tech is not None else generic_180nm()
    options = options if options is not None else ModelingOptions()
    stages: List[SerialStage] = []
    slew = path.input_slew
    for index, stage in enumerate(path.stage_list):
        transition = stage_transition(index, options.transition)
        solution = solve_stage(
            library.get(stage.driver_size), slew, stage.line,
            stage_load(stage, tech),
            options=replace(options, transition=transition, reference_time=0.0),
            slew_low=slew_low, slew_high=slew_high)
        stages.append(SerialStage(
            stage=stage, input_slew=slew, transition=solution.transition,
            gate_delay=solution.gate_delay,
            interconnect_delay=solution.interconnect_delay,
            output_slew=solution.far_slew))
        slew = solution.far_slew / (slew_high - slew_low)
    return stages
