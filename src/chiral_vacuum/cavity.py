"""Chiral energy shifts of molecules in a gyrotropic cavity.

London-type shifts come from transition dipoles and scale with the mode
chirality factor e_k . (e_R x e_I); the Debye term comes from permanent
ground-state dipoles of a polarized ensemble and picks up the collective
N enhancement per molecule (N^2 in total).  Finite temperature enters as
per-mode multiplicative ratios.

Working formulas, with energies in eV and volumes in nm^3:

    london per mode  =  (8 pi alpha / 3) * chi_n * E_Ryd * (a0^3 / V_n)
                        * sum_i rho_i * W_n / (E_i + W_n)
    debye per molecule per mode
                     = -(2 pi alpha) * E_Ryd * (a0^3 / V_n) * N
                        * (d_x m_y - d_y m_x)

with rho_i the rotatory strength in e*a0*mu_B, d in e*a0 and m in mu_B.
These are the SI evaluations of the mode-sum expressions with the 1/c
accompanying the magnetic field restored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import MoleculeSpectrum, Thermal, Transition, _float, _fsum, _positive_count, \
    _sequence, _store_floats, bose_occupation
from .units import BOHR_RADIUS_NM, FINE_STRUCTURE, RYDBERG_EV

__all__ = [
    "CavityMode", "CavityModeSet", "CavityShiftReport", "OutOfRegimeError",
    "PolarizedEnsemble", "cavity_shift_report", "debye_shift_per_molecule",
    "london_shift", "thermal_ratio_debye", "thermal_ratio_london",
]


class OutOfRegimeError(ValueError):
    """A thermal correction was requested outside its validity regime."""


@dataclass(frozen=True)
class CavityMode:
    """One gyrotropic cavity mode.

    ``chirality_factor`` is the value of e_k . (e_R x e_I): +-1/2 for a
    right/left-handed circularly polarized mode, 0 for linear
    polarization.
    """

    omega_ev: float
    veff_nm3: float
    chirality_factor: float

    def __post_init__(self):
        _store_floats(self, "omega_ev", "veff_nm3", "chirality_factor",
                      positive=("omega_ev", "veff_nm3"))
        if not abs(self.chirality_factor) <= 0.5:
            raise ValueError(
                f"chirality factor must lie in [-1/2, 1/2], got {self.chirality_factor}"
            )


@dataclass(frozen=True)
class CavityModeSet:
    """Nonempty collection of cavity modes; results are order-independent."""

    modes: tuple[CavityMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", _sequence(self.modes, "modes", CavityMode))

    @classmethod
    def uniform(cls, omegas_ev: Sequence[float], veff_nm3: float,
                chirality_factor: float) -> "CavityModeSet":
        return cls(CavityMode(w, veff_nm3, chirality_factor)
                   for w in _sequence(omegas_ev, "omegas_ev"))

    @classmethod
    def ladder(cls, start_ev: float, step_ev: float, count: int, veff_nm3: float,
               chirality_factor: float) -> "CavityModeSet":
        start, step = _float(start_ev, "start_ev"), _float(step_ev, "step_ev")
        count = _positive_count(count, "count")
        return cls.uniform([start + k * step for k in range(count)], veff_nm3, chirality_factor)


@dataclass(frozen=True)
class PolarizedEnsemble:
    """Polarized ensemble of N identical molecules with permanent dipoles.

    ``d00`` is the ground-state electric dipole in units of e*a0 and
    ``m00`` the magnetic dipole in mu_B.  ``mirror()`` is the parity image
    (-d, m), under which the Debye shift changes sign exactly.
    """

    d00: tuple[float, float, float]
    m00: tuple[float, float, float]
    n_molecules: int

    def __post_init__(self):
        object.__setattr__(self, "d00", tuple(_float(v, "d00") for v in _sequence(self.d00, "d00")))
        object.__setattr__(self, "m00", tuple(_float(v, "m00") for v in _sequence(self.m00, "m00")))
        if len(self.d00) != 3 or len(self.m00) != 3:
            raise ValueError("dipole moments must be 3-vectors")
        if not all(map(math.isfinite, (*self.d00, *self.m00))):
            raise ValueError(f"d00 and m00 must be finite, got {self.d00}, {self.m00}")
        object.__setattr__(self, "n_molecules", _positive_count(self.n_molecules, "n_molecules"))
        if self.n_molecules > sys.float_info.max:  # the shifts multiply floats by n
            raise ValueError("n_molecules is too large to convert to a float")

    def mirror(self) -> "PolarizedEnsemble":
        return PolarizedEnsemble((-d for d in self.d00), self.m00, self.n_molecules)


_LONDON = "modes and molecule are out of range: the London sum overflows"
_DEBYE = "modes and ensemble are out of range: the Debye sum overflows"


def _london_single(mode: CavityMode, t: Transition) -> float:
    pref = (8.0 * math.pi / 3.0) * FINE_STRUCTURE * RYDBERG_EV \
        * (BOHR_RADIUS_NM**3 / mode.veff_nm3) * mode.chirality_factor
    return pref * t.im_rot_strength * mode.omega_ev / (t.gap_ev + mode.omega_ev)


def london_shift(modes: CavityModeSet, molecule: MoleculeSpectrum) -> float:
    """Zero-temperature London-type chiral shift, summed over modes, in eV.

    Additive over modes and transitions, linear in each rotatory strength,
    and odd under both a global chirality-factor flip and
    ``molecule.mirror()``.  For the canonical ten left-handed modes this
    is negative.
    """
    return _fsum((_fsum((_london_single(m, t) for t in molecule.transitions), _LONDON)
                  for m in modes.modes), _LONDON)


def _debye_mode_base(mode: CavityMode, ensemble: PolarizedEnsemble) -> float:
    # single-molecule term; independent of the mode frequency because
    # g^2 * Omega = 1/(2 eps0 V_eff)
    dx, dy, _ = ensemble.d00
    mx, my, _ = ensemble.m00
    cross = dx * my - dy * mx
    return -2.0 * math.pi * FINE_STRUCTURE * RYDBERG_EV \
        * (BOHR_RADIUS_NM**3 / mode.veff_nm3) * cross


def debye_shift_per_molecule(modes: CavityModeSet, ensemble: PolarizedEnsemble, *,
                             thermal: Thermal = Thermal(0.0)) -> float:
    """Collective Debye shift per molecule, in eV; the ensemble total is
    N times this, N^2 overall.

    At T = 0 it is exactly linear in n_molecules (the single
    multiplication happens last) and, since the per-mode contribution
    does not depend on the mode frequency, bit-identical under any
    permutation of frequencies.  At T > 0 each mode's term is taken times
    N and times its ratio ``thermal_ratio_debye``, then summed.  Either
    way ``ensemble.mirror()`` flips its sign exactly.
    """
    n = ensemble.n_molecules
    if thermal.temperature_k == 0.0:
        return _fsum((_debye_mode_base(m, ensemble) for m in modes.modes), _DEBYE, n)
    return _fsum((_debye_mode_base(m, ensemble) * n * thermal_ratio_debye(m.omega_ev, thermal)
                  for m in modes.modes), _DEBYE)


def _london_ratio(omega_ev: float, gap_ev: float, n_b: float, thermal: Thermal) -> float:
    """``thermal_ratio_london`` of a non-resonant mode of occupation ``n_b``."""
    ratio = 1.0 - n_b * 2.0 * omega_ev / (gap_ev - omega_ev)
    if math.isinf(ratio):  # a mode just below its gap at a huge k_B*T
        raise ValueError(f"mode at {omega_ev} eV with the gap {gap_ev} eV is out of range at "
                         f"k_B*T = {thermal.kbt_ev} eV: the London thermal ratio overflows")
    return ratio


def thermal_ratio_london(omega_ev: float, gap_ev: float, thermal: Thermal) -> float:
    """Finite-temperature ratio for a single-mode London shift.

        ratio = 1 - n_B(Omega/kT) * 2 Omega / (E_eg - Omega)

    valid in the non-resonant regime 0 < Omega < E_eg; the correction
    1 - ratio is small and reduces the magnitude.

    Raises
    ------
    OutOfRegimeError
        If Omega >= E_eg (resonant; treated only qualitatively).
    ValueError
        If the ratio overflows, or as :func:`bose_occupation` does.
    """
    omega_ev, gap_ev = _float(omega_ev, "omega_ev"), _float(gap_ev, "gap_ev")
    if omega_ev >= gap_ev:
        raise OutOfRegimeError(
            f"mode at {omega_ev} eV is resonant with the gap {gap_ev} eV"
        )
    return _london_ratio(omega_ev, gap_ev, bose_occupation(omega_ev, thermal), thermal)


def thermal_ratio_debye(omega_ev: float, thermal: Thermal) -> float:
    """Finite-temperature ratio 1 + 2 n_B for a single-mode Debye shift."""
    return 1.0 + 2.0 * bose_occupation(omega_ev, thermal)


@dataclass(frozen=True)
class CavityShiftReport:
    """Per-mode London shifts as columns in the order of ``modes.modes``, and
    their totals; energies in eV."""

    london_t0_ev: tuple[float, ...]
    london_thermal_ratio: tuple[Optional[float], ...]
    london_ev: tuple[float, ...]
    resonant: tuple[bool, ...]
    london_total_t0_ev: float
    london_total_ev: float


def cavity_shift_report(modes: CavityModeSet, molecule: MoleculeSpectrum, *,
                        thermal: Thermal = Thermal(0.0)) -> CavityShiftReport:
    """Assemble per-mode London shifts with thermal ratios.

    Thermal corrections are applied per mode multiplicatively, per
    transition.  Modes resonant with any transition (Omega >= E_i0) are
    flagged and contribute their zero-temperature value uncorrected
    rather than aborting the report; their ratio is None.  So is the
    ratio of a mode whose T = 0 sum cancels to 0 while its thermal sum
    does not.  At T = 0 every other ratio is 1.0 and
    ``london_total_ev == london_total_t0_ev``.
    """
    t0_col, ratio_col, london_col, resonant_col = [], [], [], []
    for mode in modes.modes:
        t0_terms = [(t, _london_single(mode, t)) for t in molecule.transitions]
        london_t0 = _fsum((term for _, term in t0_terms), _LONDON)
        resonant = any(mode.omega_ev >= t.gap_ev for t in molecule.transitions)
        if resonant:
            ratio, london = None, london_t0
        else:
            n_b = bose_occupation(mode.omega_ev, thermal)
            london = _fsum((term * _london_ratio(mode.omega_ev, t.gap_ev, n_b, thermal)
                            for t, term in t0_terms), _LONDON)
            ratio = london / london_t0 if london_t0 != 0.0 else (1.0 if london == 0.0 else None)
        t0_col.append(london_t0)
        ratio_col.append(ratio)
        london_col.append(london)
        resonant_col.append(resonant)
    return CavityShiftReport(tuple(t0_col), tuple(ratio_col), tuple(london_col),
                             tuple(resonant_col), _fsum(t0_col, _LONDON),
                             _fsum(london_col, _LONDON))
