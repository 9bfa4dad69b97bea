"""Far-end response from a modeled driver output (paper Section 3, step 5).

Once the driver output is modeled as a (one- or two-) ramp waveform, the driver is
replaced by an ideal piecewise-linear voltage source and the interconnect is solved
as a purely linear network to obtain the far-end (receiver) waveform.  Because the
network is linear, the transient engine factorizes a single matrix and the solve is
cheap, mirroring how a timing tool would propagate the modeled waveform into the
next stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.waveform import Waveform
from ..circuit.netlist import Circuit
from ..circuit.sources import DCSource, PWLSource, SourceFunction
from ..circuit.transient import TransientOptions, linear_source_kernels, run_transient
from ..constants import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD
from ..errors import ModelingError, SimulationError
from ..interconnect.ladder import add_line_ladder
from ..interconnect.rlc_line import RLCLine
from ..units import ps
from .driver_model import DriverOutputModel

try:
    from scipy.signal import fftconvolve as _fftconvolve
except ImportError:  # pragma: no cover - scipy is a hard dependency elsewhere
    _fftconvolve = None

__all__ = ["FarEndResponse", "simulate_source_through_line", "far_end_response",
           "far_end_response_batch"]


@dataclass(frozen=True)
class FarEndResponse:
    """Near- and far-end waveforms of a line driven by an ideal source."""

    near: Waveform
    far: Waveform
    vdd: float
    reference_time: float
    rising: bool

    def far_delay(self) -> float:
        """50% delay from the reference time to the far-end crossing [s]."""
        return self.far.delay(self.vdd, reference_time=self.reference_time,
                              rising=self.rising)

    def far_slew(self, *, low: float = SLEW_LOW_THRESHOLD,
                 high: float = SLEW_HIGH_THRESHOLD) -> float:
        """Far-end transition time [s]."""
        return self.far.slew(self.vdd, low=low, high=high, rising=self.rising)

    def interconnect_delay(self) -> float:
        """50% crossing of the far end minus 50% crossing of the near end [s]."""
        near_cross = self.near.time_at_level(0.5 * self.vdd, rising=self.rising)
        far_cross = self.far.time_at_level(0.5 * self.vdd, rising=self.rising)
        return far_cross - near_cross


def _line_circuit(name: str, source: SourceFunction, line: RLCLine,
                  load_capacitance: float, segments: int) -> Circuit:
    """``source`` (as ``Vdrv``) driving ``line`` from ``near`` to a loaded ``far``."""
    circuit = Circuit(name)
    circuit.voltage_source("near", "0", source, name="Vdrv")
    add_line_ladder(circuit, line, "near", "far", n_segments=segments)
    if load_capacitance > 0:
        circuit.capacitor("far", "0", load_capacitance, name="Cload")
    return circuit


def simulate_source_through_line(source: SourceFunction, line: RLCLine,
                                 load_capacitance: float, *, vdd: float,
                                 t_stop: float, dt: Optional[float] = None,
                                 n_segments: Optional[int] = None,
                                 reference_time: float = 0.0,
                                 rising: bool = True) -> FarEndResponse:
    """Drive ``line`` (plus a far-end load) with an ideal voltage source and simulate."""
    if load_capacitance < 0:
        raise ModelingError("load capacitance must be non-negative")
    if t_stop <= 0:
        raise ModelingError("t_stop must be positive")
    segments = n_segments if n_segments is not None else line.recommended_segments()
    step = dt if dt is not None else min(ps(0.2), line.time_of_flight / max(segments, 1))
    circuit = _line_circuit("far_end_validation", source, line, load_capacitance,
                            segments)
    result = run_transient(circuit, t_stop,
                           options=TransientOptions(dt=step, store_branch_currents=False))
    return FarEndResponse(near=result.waveform("near"), far=result.waveform("far"),
                          vdd=vdd, reference_time=reference_time, rising=rising)


def _causal_convolve(deltas: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """First ``deltas.shape[1]`` samples of the row-wise convolution with ``kernel``."""
    n = deltas.shape[1]
    if _fftconvolve is not None:
        return _fftconvolve(deltas, kernel[np.newaxis, :], axes=1)[:, :n]
    return np.stack([np.convolve(row, kernel)[:n] for row in deltas])


def far_end_response_batch(models: Sequence[DriverOutputModel], *,
                           kernel_cache: Optional[MutableMapping] = None
                           ) -> List[FarEndResponse]:
    """Far-end responses of many modeled drivers in one batched computation.

    The fixed-step transient of a source-driven RLC ladder is linear and
    time-invariant, so instead of stepping each lane's circuit separately the
    batch computes one impulse kernel per unique (line, load, segments, dt)
    circuit — every missing kernel of one ``dt`` in a single batched call of
    :func:`~repro.circuit.transient.linear_source_kernels` — and
    obtains every lane's far-end waveform by convolving the kernel with that
    lane's source samples — superposed around the lane's initial source level, so
    rising and falling edges share a kernel.  ``kernel_cache`` reuses kernels
    across batches.  Agrees with the per-lane :func:`far_end_response` to solver
    roundoff (well inside 1e-9 relative on delays and slews); the scalar path
    remains the reference oracle.
    """
    responses: List[Optional[FarEndResponse]] = [None] * len(models)
    groups: Dict[Tuple, List[Tuple]] = {}
    for idx, model in enumerate(models):
        if model.load_capacitance < 0:
            raise ModelingError("load capacitance must be non-negative")
        two_ramp = model.two_ramp()
        end = two_ramp.end_time + 6.0 * model.time_of_flight
        if end <= 0:
            raise ModelingError("t_stop must be positive")
        segments = model.line.recommended_segments()
        dt = min(ps(0.2), model.line.time_of_flight / max(segments, 1))
        n_steps = int(round(end / dt))
        if n_steps < 1:
            raise SimulationError("t_stop is shorter than one time step")
        key = (model.line.fingerprint(), float(model.load_capacitance).hex(),
               segments, float(dt).hex())
        groups.setdefault(key, []).append((idx, model, two_ramp, end, n_steps, dt))

    # Kernels missing from the cache are built together, one batch per step size.
    longest = {key: max(member[4] for member in members)
               for key, members in groups.items()}
    kernels: Dict[Tuple, np.ndarray] = {}
    missing: Dict[str, List[Tuple]] = {}
    for key, members in groups.items():
        kernel = kernel_cache.get(key) if kernel_cache is not None else None
        if kernel is None or kernel.size < longest[key] + 1:
            missing.setdefault(key[3], []).append((key, members[0][1], longest[key]))
        else:
            kernels[key] = kernel
    for dt_hex, entries in missing.items():
        built = linear_source_kernels(
            [_line_circuit("far_end_kernel", DCSource(0.0), model.line,
                           model.load_capacitance, key[2])
             for key, model, _ in entries],
            "Vdrv", [max_steps for _, _, max_steps in entries],
            options=TransientOptions(dt=float.fromhex(dt_hex),
                                     store_branch_currents=False),
            output_node="far")
        for (key, _, _), kernel in zip(entries, built):
            kernels[key] = kernel
            if kernel_cache is not None:
                kernel_cache[key] = kernel

    for key, members in groups.items():
        kernel, max_steps = kernels[key], longest[key]
        deltas = np.zeros((len(members), max_steps))
        sampled = []
        for row, (idx, model, two_ramp, end, n_steps, dt) in enumerate(members):
            points = two_ramp.pwl_points(end)
            times = np.arange(n_steps + 1) * dt
            # Identical to PWLSource.value() evaluated at every step time.
            u = np.interp(times, np.array([p[0] for p in points]),
                          np.array([p[1] for p in points]))
            deltas[row, :n_steps] = u[1:] - u[0]
            sampled.append((idx, model, times, u, n_steps))

        convolved = _causal_convolve(deltas, kernel[1:max_steps + 1])
        for row, (idx, model, times, u, n_steps) in enumerate(sampled):
            far_values = np.empty(n_steps + 1)
            far_values[0] = u[0]
            far_values[1:] = u[0] + convolved[row, :n_steps]
            responses[idx] = FarEndResponse(
                near=Waveform(times, u), far=Waveform(times, far_values),
                vdd=model.vdd, reference_time=model.reference_time,
                rising=model.transition == "rise")
    return responses


def far_end_response(model: DriverOutputModel, *, t_stop: Optional[float] = None,
                     dt: Optional[float] = None,
                     n_segments: Optional[int] = None) -> FarEndResponse:
    """Far-end response of the modeled driver output applied to its own line and load."""
    two_ramp = model.two_ramp()
    end = t_stop if t_stop is not None else two_ramp.end_time + 6.0 * model.time_of_flight
    source = PWLSource(two_ramp.pwl_points(end))
    return simulate_source_through_line(
        source, model.line, model.load_capacitance, vdd=model.vdd, t_stop=end, dt=dt,
        n_segments=n_segments, reference_time=model.reference_time,
        rising=model.transition == "rise")
