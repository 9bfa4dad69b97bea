"""Lumped ladder (segmented) realization of an RLC line inside a circuit.

Each segment is a symmetric pi section: half of the segment capacitance at each
end, with the series resistance and inductance in between.  The admittance-moment
code in :mod:`repro.interconnect.moments` raises exactly this section's chain
matrix to the ``n``-th power, so moment-based models and simulated ladders of the
same segment count describe the same network.
"""

from __future__ import annotations

from typing import List

from ..circuit.netlist import Circuit
from ..errors import ModelingError
from .rlc_line import RLCLine

__all__ = ["add_line_ladder"]


def add_line_ladder(circuit: Circuit, line: RLCLine, near_node: str, far_node: str, *,
                    n_segments: int | None = None, ground: str = "0",
                    prefix: str = "line") -> List[str]:
    """Instantiate ``line`` as a pi-segment ladder between ``near_node`` and ``far_node``.

    Returns the list of node names from near to far (including both ends).  Internal
    nodes are named ``{prefix}_n{i}``.
    """
    if near_node == far_node:
        raise ModelingError("near and far nodes must differ")
    n = n_segments if n_segments is not None else line.recommended_segments()
    if n < 1:
        raise ModelingError("segment count must be at least 1")
    r_seg, l_seg, c_seg = line.segment_values(n)

    nodes = [near_node]
    for i in range(1, n):
        nodes.append(f"{prefix}_n{i}")
    nodes.append(far_node)

    # Shunt capacitance: C_seg/2 at the outer ends, C_seg at interior nodes (the sum
    # of the two adjacent half-segment capacitances).
    circuit.capacitor(near_node, ground, c_seg / 2.0, name=f"{prefix}_c0")
    for i in range(1, n):
        circuit.capacitor(nodes[i], ground, c_seg, name=f"{prefix}_c{i}")
    circuit.capacitor(far_node, ground, c_seg / 2.0, name=f"{prefix}_c{n}")

    for i in range(n):
        mid = f"{prefix}_m{i}"
        circuit.resistor(nodes[i], mid, r_seg, name=f"{prefix}_r{i}")
        circuit.inductor(mid, nodes[i + 1], l_seg, name=f"{prefix}_l{i}")

    return nodes
