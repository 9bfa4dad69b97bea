"""Interconnect modeling: geometry, parasitics, lines, ladders, and moments."""

from .admittance import (PiModel, RationalAdmittance, fit_pi_model,
                         fit_rational_admittance)
from .geometry import WireGeometry
from .ladder import add_line_ladder
from .moments import (admittance_moments, admittance_series, elmore_delay,
                      ladder_moments_batch, transfer_moments, transfer_series)
from .parasitics import LineParasitics, extract_parasitics
from .rlc_line import RLCLine
from .series import PowerSeries

__all__ = [
    "WireGeometry",
    "LineParasitics",
    "extract_parasitics",
    "RLCLine",
    "add_line_ladder",
    "PowerSeries",
    "ladder_moments_batch",
    "admittance_series",
    "admittance_moments",
    "transfer_series",
    "transfer_moments",
    "elmore_delay",
    "RationalAdmittance",
    "PiModel",
    "fit_rational_admittance",
    "fit_pi_model",
]
