"""Physical constants and default numerical settings shared across the library."""

from __future__ import annotations

#: Vacuum permittivity [F/m].
EPSILON_0 = 8.8541878128e-12

#: Relative permittivity of the inter-layer dielectric assumed by the parasitic
#: extractor (SiO2-like, typical for a 0.18 um backend).
EPSILON_R_OXIDE = 3.9

#: Vacuum permeability [H/m].
MU_0 = 4.0e-7 * 3.141592653589793

#: Copper/aluminium-alloy resistivity used for global wires [ohm * m].
#: 2.65e-8 corresponds to aluminium with barrier/liner overhead, representative of
#: the 0.18 um generation used in the paper.
RESISTIVITY_METAL = 2.65e-8

#: Default relative tolerance for fixed-point (Ceff) iterations.
CEFF_REL_TOL = 1e-4

#: Default maximum number of Ceff fixed-point iterations.
CEFF_MAX_ITERATIONS = 100

#: Most fixed steps of one far-end simulation (a standard line takes ~1.4k; L -> 0
#: shrinks the step with the time of flight and would ask for ~1e8).
MAX_FAR_END_STEPS = 1_000_000

#: Default Newton-Raphson voltage tolerance [V] for the circuit simulator.
NEWTON_VTOL = 1e-6

#: Default Newton-Raphson current tolerance [A] for the circuit simulator.
NEWTON_ITOL = 1e-9

#: Default maximum Newton iterations per transient time point.
NEWTON_MAX_ITERATIONS = 60

#: Default low/high thresholds for transition (slew) measurement, as fractions of
#: the supply.  The paper reports 10%-90% style transition times.
SLEW_LOW_THRESHOLD = 0.1
SLEW_HIGH_THRESHOLD = 0.9

#: Threshold (fraction of supply) used for delay measurement.
DELAY_THRESHOLD = 0.5
