"""Independent oracle for the ladder moments: a far-to-near segment walk.

:mod:`repro.interconnect.moments` raises the pi segment's chain matrix to the
n-th power.  This oracle instead walks the same ladder one segment at a time from
the far end towards the driver with :class:`~repro.interconnect.PowerSeries`
arithmetic — two truncated series divisions per segment — so the two share only
the segment values and the series type.
"""

from __future__ import annotations

from repro.errors import ModelingError
from repro.interconnect import PowerSeries, RLCLine


def walk_ladder(line: RLCLine, load_capacitance: float, order: int,
                n_segments: int) -> tuple:
    """``(Y, H)``: near-end admittance and far/near transfer series of the ladder."""
    if order < 2:
        raise ModelingError("moment order must be at least 2")
    if load_capacitance < 0:
        raise ModelingError("load capacitance must be non-negative")
    r_seg, l_seg, c_seg = line.segment_values(n_segments)
    s = PowerSeries.variable(order)
    one = PowerSeries.constant(1.0, order)

    admittance = s * load_capacitance
    transfer = one
    half_cap = s * (c_seg / 2.0)
    series_impedance = s * l_seg + r_seg
    for _ in range(n_segments):
        admittance = admittance + half_cap
        denominator = one + series_impedance * admittance
        transfer = transfer / denominator
        admittance = admittance / denominator
        admittance = admittance + half_cap
    return admittance, transfer


def _segment_chain(line: RLCLine, order: int, n_segments: int) -> list:
    r_seg, l_seg, c_seg = line.segment_values(n_segments)
    s = PowerSeries.variable(order)
    one = PowerSeries.constant(1.0, order)
    impedance = s * l_seg + r_seg
    half_cap = s * (c_seg / 2.0)
    diagonal = one + impedance * half_cap
    return [[diagonal, impedance], [half_cap * 2.0 + half_cap * half_cap * impedance,
                                    diagonal]]


def _matmul(left: list, right: list) -> list:
    return [[left[i][0] * right[0][j] + left[i][1] * right[1][j] for j in range(2)]
            for i in range(2)]


def moment_scale(line: RLCLine, load_capacitance: float, order: int,
                 n_segments: int) -> tuple:
    """Cancellation-free magnitudes bounding every term of each Y and H moment.

    The ladder's chain matrix has non-negative coefficients, so all sign changes
    come from ``1 / (1 + q)`` with ``q = A + B Y_L - 1`` non-negative.  Replacing
    it by ``1 / (1 - q)`` sums the same terms with every sign made positive: its
    coefficients bound the moments from above and measure their conditioning.
    """
    power = None
    base = _segment_chain(line, order, n_segments)
    remaining = n_segments
    while remaining:
        if remaining & 1:
            power = base if power is None else _matmul(power, base)
        remaining >>= 1
        if remaining:
            base = _matmul(base, base)
    s = PowerSeries.variable(order)
    load = s * load_capacitance
    denominator = power[0][0] + power[0][1] * load
    positive = 1.0 / (2.0 - denominator)
    return ((power[1][0] + power[1][1] * load) * positive).coefficients, \
        positive.coefficients
