"""Effective-capacitance charge-matching equations (paper Section 4, Eqs. 4-7).

The driver output is approximated by a ramp (or the second ramp of a two-ramp
waveform); the current drawn by the interconnect — represented by its rational
driving-point admittance ``Y(s)`` (Eq. 3) — is integrated over the interval during
which that ramp is in transition, and the effective capacitance is the single
capacitor that would absorb the same charge over the same interval.

The paper derives separate closed forms for real poles (Eqs. 4 and 6) and complex
poles (Eqs. 5 and 7).  Here a single implementation performs the partial-fraction
expansion with complex arithmetic, which covers both cases (the imaginary parts of
conjugate pole pairs cancel in the final sum), plus the degenerate lower-order
denominators produced by RC pi-loads and single capacitors.  The kernels are
array-valued; :mod:`repro.core.scalar_oracle` keeps the scalar ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ModelingError
from ..interconnect.admittance import RationalAdmittance

__all__ = ["AdmittanceBatch", "ceff_first_ramp_batch", "ceff_second_ramp_batch"]


def _numerator_at(adm: RationalAdmittance, s: complex) -> complex:
    """``N(s) = a1 + a2*s + a3*s^2`` — the admittance numerator divided by ``s``."""
    return adm.a1 + adm.a2 * s + adm.a3 * s * s


def _denominator_derivative_at(adm: RationalAdmittance, s: complex) -> complex:
    """``D'(s)`` for ``D(s) = 1 + b1*s + b2*s^2``."""
    return adm.b1 + 2.0 * adm.b2 * s


def _pole_terms(adm: RationalAdmittance) -> Sequence[Tuple[complex, complex]]:
    """Pairs ``(s_i, N(s_i) / D'(s_i))`` for every pole of the admittance."""
    terms = []
    for pole in adm.poles():
        derivative = _denominator_derivative_at(adm, pole)
        if derivative == 0:
            raise ModelingError("repeated admittance poles are not supported")
        terms.append((pole, _numerator_at(adm, pole) / derivative))
    return terms


def _impulse_charge_per_volt(adm: RationalAdmittance) -> float:
    """Charge of the t=0 impulse of the ramp response, per volt of ramp slope*Tr.

    The ramp-response current ``I(s) = (Vdd/Tr) * N(s) / (s * D(s))`` is improper when
    the denominator degree is lower than the numerator degree, which happens for
    degenerate (RC pi or pure capacitive) loads.  The resulting impulse at ``t = 0``
    carries a finite charge that must be included when the integration interval
    starts at zero.
    """
    if adm.b2 != 0.0:
        return 0.0
    if adm.b1 != 0.0:
        return adm.a3 / adm.b1
    # Pure polynomial admittance (b1 = b2 = 0): Y(s)/s = a1 + a2 s + a3 s^2.
    return adm.a2


@dataclass(frozen=True)
class AdmittanceBatch:
    """Pole/residue data of many admittances, padded to a fixed pole count.

    Lanes with fewer than two poles are padded with ``(pole=1, residue=0)`` pairs,
    whose contribution to every charge expression is exactly ``0.0`` — the batched
    kernels therefore accumulate pole terms in the same order as the scalar
    oracle's loop over :func:`_pole_terms`.  Charges agree with the oracle to complex
    roundoff (NumPy's vectorized complex multiply may round the last bit
    differently than its scalar path), orders of magnitude inside the 1e-9
    relative equivalence gate.
    """

    a1: np.ndarray  #: (n,) total capacitances
    poles: np.ndarray  #: (n, 2) complex, padded with 1.0
    residues: np.ndarray  #: (n, 2) complex, padded with 0.0
    impulse: np.ndarray  #: (n,) impulse charge per volt (degenerate denominators)

    @classmethod
    def from_admittances(cls, admittances: Sequence[RationalAdmittance]
                         ) -> "AdmittanceBatch":
        n = len(admittances)
        a1 = np.empty(n, dtype=float)
        poles = np.ones((n, 2), dtype=complex)
        residues = np.zeros((n, 2), dtype=complex)
        impulse = np.empty(n, dtype=float)
        for lane, adm in enumerate(admittances):
            a1[lane] = adm.a1
            impulse[lane] = _impulse_charge_per_volt(adm)
            for k, (pole, residue) in enumerate(_pole_terms(adm)):
                poles[lane, k] = pole
                residues[lane, k] = residue
        return cls(a1=a1, poles=poles, residues=residues, impulse=impulse)

    def take(self, lanes: np.ndarray) -> "AdmittanceBatch":
        """The sub-batch at the given lane indices (used by masked iteration)."""
        return AdmittanceBatch(a1=self.a1[lanes], poles=self.poles[lanes],
                               residues=self.residues[lanes],
                               impulse=self.impulse[lanes])

    def __len__(self) -> int:
        return int(self.a1.size)


def ceff_first_ramp_batch(batch: AdmittanceBatch, tr1: np.ndarray,
                          breakpoint_fraction: np.ndarray, *,
                          vdd: np.ndarray) -> np.ndarray:
    """Ceff1 of paper Eqs. 4/5 (charge over ``[0, f*tr1]``), one lane per admittance.

    Follows the scalar oracle operation for operation (the ``a1`` ramp term,
    then each pole term in :func:`_pole_terms` order, the real part, the impulse
    charge for the ``t_from = 0`` window, the ``vdd / tr1`` scaling and the final
    charge balance); each lane matches it to within a unit in the last place
    (see :class:`AdmittanceBatch`).
    """
    tr1 = np.asarray(tr1, dtype=float)
    f = np.asarray(breakpoint_fraction, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    if np.any(~((f > 0.0) & (f <= 1.0))):
        raise ModelingError("breakpoint fraction must be in (0, 1]")
    if np.any(tr1 <= 0):
        raise ModelingError("tr1 must be positive")
    window_end = f * tr1
    charge = (batch.a1 * (window_end - 0.0)).astype(complex)
    for k in range(batch.poles.shape[1]):
        pole = batch.poles[:, k]
        residue = batch.residues[:, k]
        charge = charge + (residue / (pole * pole)) * (np.exp(pole * window_end)
                                                       - np.exp(pole * 0.0))
    result = charge.real + batch.impulse  # the window starts at t = 0
    return (vdd / tr1 * result) / (f * vdd)


def ceff_second_ramp_batch(batch: AdmittanceBatch, tr1: np.ndarray, tr2: np.ndarray,
                           breakpoint_fraction: np.ndarray, *,
                           vdd: np.ndarray) -> np.ndarray:
    """Ceff2 of paper Eqs. 6/7, one lane per admittance, to complex roundoff."""
    tr1 = np.asarray(tr1, dtype=float)
    tr2 = np.asarray(tr2, dtype=float)
    f = np.asarray(breakpoint_fraction, dtype=float)
    vdd = np.asarray(vdd, dtype=float)
    if np.any(~((f > 0.0) & (f < 1.0))):
        raise ModelingError("the second ramp requires a breakpoint fraction below 1")
    if np.any(tr1 <= 0) or np.any(tr2 <= 0):
        raise ModelingError("ramp times must be positive")
    k_step = 1.0 - tr1 / tr2
    t_from = f * tr1
    t_to = f * tr1 + (1.0 - f) * tr2
    charge = (batch.a1 * (t_to - t_from) / tr2).astype(complex)
    for k in range(batch.poles.shape[1]):
        pole = batch.poles[:, k]
        residue = batch.residues[:, k]
        exp_span = np.exp(pole * t_to) - np.exp(pole * t_from)
        charge = charge + (residue / (tr2 * pole * pole)
                           + k_step * f * residue / pole) * exp_span
    return vdd * charge.real / ((1.0 - f) * vdd)
