"""Driving-point admittance and voltage-transfer moments of RLC lines.

The paper's effective-capacitance equations operate directly on the moments of the
driving-point admittance ``Y(s)`` of the loaded interconnect (its Taylor expansion
around ``s = 0``).  This module computes them from the chain (ABCD) matrix of the
pi-segment ladder.  One symmetric pi segment with series impedance ``Z = R + sL``
and half capacitances ``sC/2`` at each end has the chain matrix::

    T = [[1, 0], [sC/2, 1]] . [[1, Z], [0, 1]] . [[1, 0], [sC/2, 1]]
      = [[1 + ZsC/2, Z], [sC + (sC/2)^2 Z, 1 + ZsC/2]]

and a uniform ladder of ``n`` segments is ``T^n``, obtained by repeated squaring
of truncated power-series matrices (about ``2 log2(n)`` products instead of ``n``
sequential series divisions).  Every entry of ``T`` has non-negative coefficients,
so the power suffers no cancellation.  Terminating port 2 in ``Y_L = s C_L`` gives

* :func:`admittance_series` — ``Y(s) = (C + D Y_L) / (A + B Y_L)`` seen by the
  driver (paper Eq. 3 inputs),
* :func:`transfer_series` — ``H(s) = V_far / V_near = 1 / (A + B Y_L)`` for
  far-end delay estimates,
* :func:`elmore_delay` — the first transfer moment.

:func:`ladder_moments_batch` evaluates many (line, load, segment count) lanes at
once on ``[lanes, 2, 2, order]`` coefficient arrays; the scalar functions are its
one-lane case.  Each lane's arithmetic is element-wise and in a fixed order, so a
lane's moments are bit-identical whatever batch it is computed in.  The arrays
are held in ``numpy.longdouble`` and rounded to double once at the end: on
platforms with x87 extended precision the moments land within an ulp of the
exact ladder moments (a 60-digit evaluation agrees), where double-precision
products leave a few ulps and a segment-by-segment walk a few hundred.

Using a very large segment count converges to the distributed line; passing the
same segment count used for a simulated ladder reproduces that ladder's moments
exactly, which the unit tests exploit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ModelingError
from .rlc_line import RLCLine
from .series import PowerSeries

__all__ = [
    "ladder_moments_batch",
    "admittance_series",
    "admittance_moments",
    "transfer_series",
    "transfer_moments",
    "elmore_delay",
]

#: Segment count used to approximate the distributed (exact) line when the caller
#: does not specify one.  The admittance moments converge quickly with segment
#: count; 600 pi-segments is indistinguishable from the continuum for the first
#: half-dozen moments.
DISTRIBUTED_SEGMENTS = 600

Segments = Union[None, int, Sequence[Optional[int]]]


def _resolve_segments(line: RLCLine, n_segments: Optional[int]) -> int:
    if n_segments is None:
        return DISTRIBUTED_SEGMENTS
    if n_segments < 1:
        raise ModelingError("segment count must be at least 1")
    return n_segments


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of coefficient arrays (last axis), broadcast over the rest."""
    order = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=a.dtype)
    for p in range(order):
        out[..., p:] += a[..., p, None] * b[..., :order - p]
    return out


def _chain_mul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Product of ``[lanes, 2, 2, order]`` truncated-series chain matrices."""
    order = left.shape[-1]
    out = np.zeros(left.shape, dtype=left.dtype)
    for p in range(order):
        # out[l, i, j, p:] += sum_m left[l, i, m, p] * right[l, m, j, :order - p]
        out[..., p:] += (left[:, :, 0, None, p, None] * right[:, None, 0, :, :order - p]
                         + left[:, :, 1, None, p, None] * right[:, None, 1, :, :order - p])
    return out


def _chain_power(segment: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``segment ** counts`` per lane, by repeated squaring."""
    result = np.zeros(segment.shape, dtype=segment.dtype)
    result[:, 0, 0, 0] = result[:, 1, 1, 0] = 1.0
    base = segment
    remaining = counts.copy()
    while True:
        odd = (remaining & 1).astype(bool)
        if odd.any():
            result = np.where(odd[:, None, None, None], _chain_mul(result, base), result)
        remaining >>= 1
        if not remaining.any():
            return result
        base = _chain_mul(base, base)


def _reciprocal(series: np.ndarray) -> np.ndarray:
    """Truncated ``1 / series`` per lane (``[lanes, order]``, non-zero constant term)."""
    order = series.shape[-1]
    inverse = np.zeros(series.shape, dtype=series.dtype)
    lead = series[:, 0]
    inverse[:, 0] = 1.0 / lead
    for k in range(1, order):
        acc = series[:, 1] * inverse[:, k - 1]
        for j in range(2, k + 1):
            acc = acc + series[:, j] * inverse[:, k - j]
        inverse[:, k] = -acc / lead
    return inverse


def _shift(series: np.ndarray) -> np.ndarray:
    """``s * series``, truncated."""
    shifted = np.zeros(series.shape, dtype=series.dtype)
    shifted[:, 1:] = series[:, :-1]
    return shifted


def ladder_moments_batch(lines: Sequence[RLCLine], load_capacitances: Sequence[float], *,
                         order: int = 8, n_segments: Segments = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Admittance and transfer moments of many loaded lines at once.

    Lane ``k`` is ``lines[k]`` as a ladder of ``n_segments`` pi segments (one count
    for every lane, or one per lane; ``None`` is the distributed-limit count)
    terminated by ``load_capacitances[k]``.  Returns ``(Y, H)``, two
    ``[lanes, order]`` arrays of Taylor coefficients ``[m0, ..., m_{order-1}]``.
    """
    if order < 2:
        raise ModelingError("moment order must be at least 2")
    lanes = len(lines)
    loads = np.asarray(load_capacitances, dtype=float).reshape(-1)
    if loads.size != lanes:
        raise ModelingError("one load capacitance is needed per line")
    if np.any(loads < 0):
        raise ModelingError("load capacitance must be non-negative")
    per_lane = (n_segments if isinstance(n_segments, Sequence)
                else [n_segments] * lanes)
    if len(per_lane) != lanes:
        raise ModelingError("one segment count is needed per line")
    counts = np.array([_resolve_segments(line, n) for line, n in zip(lines, per_lane)],
                      dtype=np.int64)
    totals = np.array([(line.resistance, line.inductance, line.capacitance)
                       for line in lines], dtype=np.longdouble).reshape(lanes, 3)
    r_seg, l_seg, c_seg = (totals / counts[:, None]).T
    half_c = c_seg / 2

    # One pi segment: A = D = 1 + Z sC/2, B = Z, C = sC + (sC/2)^2 Z.
    segment = np.zeros((lanes, 2, 2, order), dtype=np.longdouble)
    segment[:, 0, 0, 0] = segment[:, 1, 1, 0] = 1.0
    segment[:, 0, 0, 1] = segment[:, 1, 1, 1] = r_seg * half_c
    segment[:, 0, 1, 0] = r_seg
    segment[:, 0, 1, 1] = l_seg
    segment[:, 1, 0, 1] = 2.0 * half_c
    if order > 2:
        segment[:, 0, 0, 2] = segment[:, 1, 1, 2] = l_seg * half_c
        segment[:, 1, 0, 2] = half_c * half_c * r_seg
    if order > 3:
        segment[:, 1, 0, 3] = half_c * half_c * l_seg

    chain = _chain_power(segment, counts)
    a, b, c, d = chain[:, 0, 0], chain[:, 0, 1], chain[:, 1, 0], chain[:, 1, 1]
    load = loads.astype(np.longdouble)[:, None]
    transfer = _reciprocal(a + load * _shift(b))
    admittance = _series_mul(c + load * _shift(d), transfer)
    return admittance.astype(float), transfer.astype(float)


def _one_lane(line: RLCLine, load_capacitance: float, order: int,
              n_segments: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    admittance, transfer = ladder_moments_batch([line], [load_capacitance], order=order,
                                                n_segments=n_segments)
    return admittance[0], transfer[0]


def admittance_series(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                      n_segments: Optional[int] = None) -> PowerSeries:
    """Driving-point admittance ``Y(s)`` of the loaded line as a truncated series."""
    return PowerSeries(_one_lane(line, load_capacitance, order, n_segments)[0])


def admittance_moments(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                       n_segments: Optional[int] = None) -> np.ndarray:
    """Admittance moments ``[m0, m1, ..., m_{order-1}]`` (m0 is 0 for capacitive loads)."""
    return _one_lane(line, load_capacitance, order, n_segments)[0]


def transfer_series(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                    n_segments: Optional[int] = None) -> PowerSeries:
    """Voltage transfer ``H(s) = V_far / V_near`` of the loaded line."""
    return PowerSeries(_one_lane(line, load_capacitance, order, n_segments)[1])


def transfer_moments(line: RLCLine, load_capacitance: float = 0.0, *, order: int = 8,
                     n_segments: Optional[int] = None) -> np.ndarray:
    """Transfer-function moments ``[1, -T_elmore, ...]``."""
    return _one_lane(line, load_capacitance, order, n_segments)[1]


def elmore_delay(line: RLCLine, load_capacitance: float = 0.0, *,
                 n_segments: Optional[int] = None) -> float:
    """Elmore delay of the loaded line (first transfer moment, sign-flipped).

    For a uniform RC line with a lumped load this equals ``R*(C/2 + C_L)``.
    Inductance does not contribute to the first moment, so this is a useful
    RC-baseline quantity rather than an accurate RLC delay.
    """
    moments = transfer_moments(line, load_capacitance, order=3, n_segments=n_segments)
    return float(-moments[1])
