"""Top-level driver-output modeling flow (paper Section 5).

Given a pre-characterized cell, an input slew, and an RLC line with its fan-out
load, :func:`model_driver_output` produces a :class:`DriverOutputModel`:

1. compute the driving-point admittance moments and fit the rational Y(s) (Eq. 3),
2. look up the driver on-resistance and compute the breakpoint ``f`` (Eq. 1),
3. iterate Ceff1 / Tr1 (Eqs. 4-5),
4. evaluate the inductance criteria (Eq. 9) using Tr1 and the time of flight,
5. if inductance is significant: iterate Ceff2 / Tr2 (Eqs. 6-7) and apply the
   plateau correction (Eq. 8) to obtain a two-ramp waveform; otherwise fall back to
   a single ramp with the ``f = 1`` effective capacitance.

The resulting model exposes the modeled waveform, its 50% delay and transition
time, and a PWL source that can replace the driver for far-end analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ..characterization.cell import CellCharacterization
from ..constants import (CEFF_MAX_ITERATIONS, CEFF_REL_TOL, SLEW_HIGH_THRESHOLD,
                         SLEW_LOW_THRESHOLD)
from ..errors import ModelingError
from ..interconnect.admittance import RationalAdmittance, fit_rational_admittance
from ..interconnect.moments import ladder_moments_batch
from ..interconnect.rlc_line import RLCLine
from .ceff import AdmittanceBatch, ceff_first_ramp_batch, ceff_second_ramp_batch
from .criteria import CriteriaThresholds, InductanceReport, evaluate_inductance_criteria
from .iteration import CeffIterationResult, _fixed_point_batch
from .plateau import modified_second_ramp_time, plateau_duration
from .two_ramp import TwoRampWaveform, voltage_breakpoint

__all__ = ["ModelingOptions", "DriverOutputModel", "model_driver_output",
           "model_driver_output_batch"]


@dataclass(frozen=True)
class ModelingOptions:
    """Knobs of the modeling flow.

    ``force_two_ramp`` / ``force_single_ramp`` bypass the Eq. 9 screening (used by
    the baselines and by benchmarks reproducing specific figures);
    ``ceff_charge_fraction`` overrides the charge-matching window of the single-ramp
    model (1.0 = the paper's non-inductive flow, 0.5 = Figure 3's 50% variant).
    """

    transition: str = "rise"
    admittance_order: int = 8
    moment_segments: Optional[int] = None  #: None = distributed-limit segment count
    ceff_rel_tol: float = CEFF_REL_TOL
    ceff_max_iterations: int = CEFF_MAX_ITERATIONS
    ceff_damping: float = 0.5
    criteria: CriteriaThresholds = field(default_factory=CriteriaThresholds)
    plateau_correction: bool = True
    force_two_ramp: bool = False
    force_single_ramp: bool = False
    ceff_charge_fraction: float = 1.0
    reference_time: float = 0.0  #: absolute time of the input's 50% crossing

    def __post_init__(self) -> None:
        if self.transition not in ("rise", "fall"):
            raise ModelingError("transition must be 'rise' or 'fall'")
        if self.force_two_ramp and self.force_single_ramp:
            raise ModelingError("cannot force both a single and a two ramp model")
        if not 0.0 < self.ceff_charge_fraction <= 1.0:
            raise ModelingError("ceff_charge_fraction must be in (0, 1]")


@dataclass(frozen=True)
class DriverOutputModel:
    """The modeled driver-output waveform and every intermediate quantity."""

    kind: str  #: "two-ramp" or "single-ramp"
    transition: str
    vdd: float
    cell_name: str
    input_slew: float
    line: RLCLine
    load_capacitance: float
    admittance: RationalAdmittance
    driver_resistance: float
    characteristic_impedance: float
    time_of_flight: float
    breakpoint_fraction: float
    ceff1: float
    tr1: float
    ceff2: Optional[float]
    tr2: Optional[float]
    tr2_effective: Optional[float]  #: after the Eq. 8 plateau correction
    plateau: float
    gate_delay: float  #: 50%-to-50% delay from the cell table at load = Ceff1
    inductance_report: InductanceReport
    ceff1_iteration: CeffIterationResult
    ceff2_iteration: Optional[CeffIterationResult]
    reference_time: float

    # --- derived waveform ------------------------------------------------------------
    @property
    def is_two_ramp(self) -> bool:
        """True when the inductive two-ramp model was used."""
        return self.kind == "two-ramp"

    @property
    def total_capacitance(self) -> float:
        """Total load capacitance (line + fan-out)."""
        return self.admittance.total_capacitance

    def two_ramp(self) -> TwoRampWaveform:
        """The modeled output waveform positioned in absolute time.

        ``t = reference_time`` is the input's 50% crossing; the waveform is placed so
        that its 50% crossing occurs ``gate_delay`` later, which is how the
        pre-characterized table anchors the output in time.
        """
        fraction = self.breakpoint_fraction if self.is_two_ramp else 1.0
        tr2 = self.tr2_effective if self.tr2_effective is not None else self.tr1
        shape = TwoRampWaveform(vdd=self.vdd, breakpoint_fraction=fraction,
                                tr1=self.tr1, tr2=tr2, t_start=0.0,
                                rising=self.transition == "rise")
        offset = (self.reference_time + self.gate_delay - shape.delay_to_50pct())
        return TwoRampWaveform(vdd=self.vdd, breakpoint_fraction=fraction,
                               tr1=self.tr1, tr2=tr2, t_start=offset,
                               rising=self.transition == "rise")

    def waveform(self, t_end: Optional[float] = None, *, n_points: int = 800):
        """Sampled modeled waveform (see :meth:`TwoRampWaveform.waveform`)."""
        return self.two_ramp().waveform(t_end, n_points=n_points)

    def source(self, t_end: Optional[float] = None):
        """A PWL voltage source reproducing the modeled driver output."""
        return self.two_ramp().as_source(t_end)

    def delay(self) -> float:
        """Modeled 50% delay from the input's 50% crossing [s]."""
        return self.two_ramp().crossing_time(0.5) - self.reference_time

    def slew(self, *, low: float = SLEW_LOW_THRESHOLD,
             high: float = SLEW_HIGH_THRESHOLD) -> float:
        """Modeled output transition time between the given thresholds [s]."""
        return self.two_ramp().transition_time(low, high)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.kind} model of {self.cell_name} driving "
            f"{self.line.describe()} + CL={self.load_capacitance * 1e15:.1f}fF",
            f"  Rs={self.driver_resistance:.1f}ohm Z0={self.characteristic_impedance:.1f}ohm "
            f"f={self.breakpoint_fraction:.2f} tf={self.time_of_flight * 1e12:.1f}ps",
            f"  Ceff1={self.ceff1 * 1e15:.1f}fF Tr1={self.tr1 * 1e12:.1f}ps "
            f"({self.ceff1_iteration.iterations} iterations)",
        ]
        if self.is_two_ramp:
            lines.append(
                f"  Ceff2={self.ceff2 * 1e15:.1f}fF Tr2={self.tr2 * 1e12:.1f}ps "
                f"Tr2_eff={self.tr2_effective * 1e12:.1f}ps plateau={self.plateau * 1e12:.1f}ps")
        lines.append(f"  delay={self.delay() * 1e12:.1f}ps slew={self.slew() * 1e12:.1f}ps")
        return "\n".join(lines)


def model_driver_output(cell: CellCharacterization, input_slew: float, line: RLCLine,
                        load_capacitance: float = 0.0, *,
                        options: Optional[ModelingOptions] = None) -> DriverOutputModel:
    """Run the paper's full modeling flow for one driver / line / load combination.

    The one-lane case of :func:`model_driver_output_batch`, bit for bit.
    """
    return model_driver_output_batch(
        [(cell, input_slew, line, load_capacitance, options)])[0]


#: One batched modeling request: (cell, input_slew, line, load_capacitance, options).
ModelingRequest = Tuple[CellCharacterization, float, RLCLine, float,
                        Optional[ModelingOptions]]


def _admittance_cache_key(line: RLCLine, load_capacitance: float,
                          options: ModelingOptions) -> Tuple:
    return (line.fingerprint(), float(load_capacitance).hex(),
            options.admittance_order, options.moment_segments)


def model_driver_output_batch(
        requests: Sequence[ModelingRequest], *,
        admittance_cache: Optional[MutableMapping] = None
        ) -> List[DriverOutputModel]:
    """Run the modeling flow for many stages as one array-valued computation.

    Each request lane replays the scalar oracle
    (:func:`repro.core.scalar_oracle.model_driver_output`) with the same arithmetic
    in the same order — vectorized table lookups, array-valued charge matching and
    a masked batch fixed point — so the returned models match the scalar flow lane
    by lane to complex roundoff (~1 ulp, from NumPy's vectorized complex multiply;
    see :class:`~repro.core.ceff.AdmittanceBatch`), orders of magnitude inside the
    1e-9 relative equivalence gate.  Identical (line, load, admittance options) lanes
    share one moment computation, and all missing moments of one order come from a
    single :func:`~repro.interconnect.moments.ladder_moments_batch` call, whose
    lanes are bit-identical to the one-lane
    :func:`~repro.interconnect.moments.admittance_moments`;
    ``admittance_cache`` extends that dedupe across batches (the mapping is read
    and updated in place).
    """
    n = len(requests)
    if n == 0:
        return []
    resolved: List[Tuple[CellCharacterization, float, RLCLine, float,
                         ModelingOptions]] = []
    for cell, input_slew, line, load_capacitance, options in requests:
        options = options if options is not None else ModelingOptions()
        if input_slew <= 0:
            raise ModelingError("input slew must be positive")
        if load_capacitance < 0:
            raise ModelingError("load capacitance must be non-negative")
        resolved.append((cell, input_slew, line, load_capacitance, options))

    # Admittance fits deduped within the batch (and across batches via the cache);
    # the moments of every miss sharing a moment order come from one batch call.
    cache = admittance_cache if admittance_cache is not None else {}
    keys = [_admittance_cache_key(line, load_capacitance, options)
            for _, _, line, load_capacitance, options in resolved]
    misses: Dict[int, Dict[Tuple, Tuple[RLCLine, float, Optional[int]]]] = {}
    for key, (_, _, line, load_capacitance, options) in zip(keys, resolved):
        if cache.get(key) is None:
            misses.setdefault(options.admittance_order, {})[key] = (
                line, load_capacitance, options.moment_segments)
    for order, lanes in misses.items():
        moments, _ = ladder_moments_batch(
            [line for line, _, _ in lanes.values()],
            [load for _, load, _ in lanes.values()], order=order,
            n_segments=[segments for _, _, segments in lanes.values()])
        for key, row in zip(lanes, moments):
            cache[key] = fit_rational_admittance(row)
    admittances: List[RationalAdmittance] = [cache[key] for key in keys]

    # Lanes grouped by (cell tables, output transition) for vectorized lookups.
    group_index: Dict[Tuple[int, str], int] = {}
    group_defs: List[Tuple[CellCharacterization, str]] = []
    group_of = np.empty(n, dtype=int)
    for lane, (cell, _, _, _, options) in enumerate(resolved):
        key = (id(cell), options.transition)
        group = group_index.get(key)
        if group is None:
            group = len(group_defs)
            group_index[key] = group
            group_defs.append((cell, options.transition))
        group_of[lane] = group

    slews = np.array([req[1] for req in resolved], dtype=float)
    totals = np.array([adm.total_capacitance for adm in admittances], dtype=float)
    vdds = np.array([req[0].vdd for req in resolved], dtype=float)
    rel_tols = np.array([req[4].ceff_rel_tol for req in resolved], dtype=float)
    iter_limits = np.array([req[4].ceff_max_iterations for req in resolved], dtype=int)
    dampings = np.array([req[4].ceff_damping for req in resolved], dtype=float)

    def grouped_lookup(accessor, loads: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        out = np.empty(lanes.size, dtype=float)
        lane_groups = group_of[lanes]
        for group, (cell, transition) in enumerate(group_defs):
            mask = lane_groups == group
            if np.any(mask):
                out[mask] = accessor(cell)(slews[lanes[mask]], loads[mask],
                                           transition=transition)
        return out

    def ramp_of_load(loads: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return grouped_lookup(lambda cell: cell.ramp_time_many, loads, lanes)

    all_lanes = np.arange(n)
    resistances = grouped_lookup(lambda cell: cell.driver_resistance_many,
                                 totals, all_lanes)
    breakpoints = np.array(
        [voltage_breakpoint(float(resistances[lane]),
                            resolved[lane][2].characteristic_impedance)
         for lane in range(n)], dtype=float)

    fractions = np.array(
        [breakpoints[lane] if not resolved[lane][4].force_single_ramp
         else resolved[lane][4].ceff_charge_fraction for lane in range(n)],
        dtype=float)
    charge_fractions = np.array([req[4].ceff_charge_fraction for req in resolved],
                                dtype=float)
    adm_batch = AdmittanceBatch.from_admittances(admittances)

    def fixed_points(lanes: Sequence[int], ceff_of_ramp
                     ) -> Dict[int, CeffIterationResult]:
        """Masked fixed point over ``lanes``; callbacks see batch lane indices."""
        sub = np.asarray(lanes, dtype=int)
        return dict(zip(lanes, _fixed_point_batch(
            totals[sub], lambda ramps, active: ceff_of_ramp(ramps, sub[active]),
            lambda loads, active: ramp_of_load(loads, sub[active]),
            rel_tol=rel_tols[sub], max_iterations=iter_limits[sub],
            damping=dampings[sub], require_convergence=False)))

    ceff1_results = fixed_points(range(n), lambda ramps, lanes: ceff_first_ramp_batch(
        adm_batch.take(lanes), ramps, fractions[lanes], vdd=vdds[lanes]))

    # Inductance screening (Eq. 9) is a handful of scalar ratio checks per lane.
    reports: List[InductanceReport] = []
    two_ramp_lanes: List[int] = []
    for lane, (cell, input_slew, line, load_capacitance, options) in enumerate(resolved):
        report = evaluate_inductance_criteria(
            line, load_capacitance, float(resistances[lane]),
            ceff1_results[lane].ramp_time, thresholds=options.criteria)
        reports.append(report)
        if not options.force_single_ramp and (options.force_two_ramp
                                              or report.significant):
            if not 0.0 < breakpoints[lane] < 1.0:
                raise ModelingError(
                    "Ceff2 requires a breakpoint fraction strictly below 1")
            two_ramp_lanes.append(lane)

    tr1s = np.array([ceff1_results[lane].ramp_time for lane in range(n)], dtype=float)
    ceff2_results = fixed_points(
        two_ramp_lanes, lambda ramps, lanes: ceff_second_ramp_batch(
            adm_batch.take(lanes), tr1s[lanes], ramps, breakpoints[lanes],
            vdd=vdds[lanes]))

    # Single-ramp lanes re-iterate at the configured charge fraction exactly when
    # the scalar flow would (the forced-single fast path reuses the Ceff1 result).
    rerun_lanes = [lane for lane in range(n) if lane not in ceff2_results
                   and (fractions[lane] != charge_fractions[lane]
                        or not resolved[lane][4].force_single_ramp)]
    single_results = {lane: ceff1_results[lane] for lane in range(n)
                      if lane not in ceff2_results}
    single_results.update(fixed_points(
        rerun_lanes, lambda ramps, lanes: ceff_first_ramp_batch(
            adm_batch.take(lanes), ramps, charge_fractions[lanes], vdd=vdds[lanes])))

    gate_loads = np.array(
        [ceff1_results[lane].ceff if lane in ceff2_results
         else single_results[lane].ceff for lane in range(n)], dtype=float)
    gate_delays = grouped_lookup(lambda cell: cell.delay_many, gate_loads, all_lanes)

    models: List[DriverOutputModel] = []
    for lane, (cell, input_slew, line, load_capacitance, options) in enumerate(resolved):
        z0 = line.characteristic_impedance
        tf = line.time_of_flight
        common = dict(
            transition=options.transition, vdd=cell.vdd, cell_name=cell.cell_name,
            input_slew=input_slew, line=line, load_capacitance=load_capacitance,
            admittance=admittances[lane],
            driver_resistance=float(resistances[lane]),
            characteristic_impedance=z0, time_of_flight=tf,
            breakpoint_fraction=float(breakpoints[lane]),
            gate_delay=float(gate_delays[lane]), inductance_report=reports[lane],
            reference_time=options.reference_time)
        ceff2_result = ceff2_results.get(lane)
        if ceff2_result is not None:
            tr1 = ceff1_results[lane].ramp_time
            tr2 = ceff2_result.ramp_time
            plateau = plateau_duration(tr1, tf)
            tr2_effective = (
                modified_second_ramp_time(tr1, tr2, float(breakpoints[lane]), tf)
                if options.plateau_correction else tr2)
            models.append(DriverOutputModel(
                kind="two-ramp", ceff1=ceff1_results[lane].ceff, tr1=tr1,
                ceff2=ceff2_result.ceff, tr2=tr2, tr2_effective=tr2_effective,
                plateau=plateau, ceff1_iteration=ceff1_results[lane],
                ceff2_iteration=ceff2_result, **common))
        else:
            single = single_results[lane]
            models.append(DriverOutputModel(
                kind="single-ramp", ceff1=single.ceff, tr1=single.ramp_time,
                ceff2=None, tr2=None, tr2_effective=None, plateau=0.0,
                ceff1_iteration=single, ceff2_iteration=None, **common))
    return models
