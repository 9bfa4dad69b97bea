"""The paper's contribution: the effective-capacitance two-ramp driver output model.
Every entry point runs the array-batched flow; the scalar oracle behind
:func:`solve_stage` lives in :mod:`repro.core.scalar_oracle` and is not exported.
"""

from .ceff import AdmittanceBatch, ceff_first_ramp_batch, ceff_second_ramp_batch
from .criteria import (CriteriaThresholds, CriterionCheck, InductanceReport,
                       evaluate_inductance_criteria)
from .driver_model import (DriverOutputModel, ModelingOptions, model_driver_output,
                           model_driver_output_batch)
from .far_end import (FarEndResponse, far_end_response, far_end_response_batch,
                      simulate_source_through_line)
from .iteration import CeffIterationResult, iterate_ceff1
from .plateau import modified_second_ramp_time, plateau_duration
from .stage_solver import (SolverStats, StageRequest, StageSolution,
                           StageSolutionStore, StageSolver,
                           default_stage_cache_directory, solve_stage,
                           solve_stage_batch, stage_fingerprint)
from .two_ramp import TwoRampWaveform, voltage_breakpoint

__all__ = [
    "voltage_breakpoint",
    "TwoRampWaveform",
    "AdmittanceBatch",
    "ceff_first_ramp_batch",
    "ceff_second_ramp_batch",
    "CeffIterationResult",
    "iterate_ceff1",
    "CriteriaThresholds",
    "CriterionCheck",
    "InductanceReport",
    "evaluate_inductance_criteria",
    "plateau_duration",
    "modified_second_ramp_time",
    "ModelingOptions",
    "DriverOutputModel",
    "model_driver_output",
    "model_driver_output_batch",
    "FarEndResponse",
    "far_end_response",
    "far_end_response_batch",
    "simulate_source_through_line",
    "StageRequest",
    "StageSolution",
    "StageSolver",
    "StageSolutionStore",
    "SolverStats",
    "solve_stage",
    "solve_stage_batch",
    "stage_fingerprint",
    "default_stage_cache_directory",
]
