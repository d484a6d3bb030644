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

from .core import MoleculeSpectrum, Thermal, Transition, bose_occupation
from .units import BOHR_RADIUS_NM, FINE_STRUCTURE, RYDBERG_EV


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
        if not 0.0 < self.omega_ev < math.inf:
            raise ValueError(f"mode frequency must be positive and finite, got {self.omega_ev}")
        if not 0.0 < self.veff_nm3 < math.inf:
            raise ValueError(
                f"effective volume must be positive and finite, got {self.veff_nm3}")
        if not abs(self.chirality_factor) <= 0.5:
            raise ValueError(
                f"chirality factor must lie in [-1/2, 1/2], got {self.chirality_factor}"
            )


@dataclass(frozen=True)
class CavityModeSet:
    """Nonempty collection of cavity modes; results are order-independent."""

    modes: tuple[CavityMode, ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode set must not be empty")

    @classmethod
    def uniform(cls, omegas_ev: Sequence[float], veff_nm3: float,
                chirality_factor: float) -> "CavityModeSet":
        return cls(tuple(CavityMode(w, veff_nm3, chirality_factor) for w in omegas_ev))

    @classmethod
    def ladder(cls, start_ev: float, step_ev: float, count: int, veff_nm3: float,
               chirality_factor: float) -> "CavityModeSet":
        omegas = [start_ev + k * step_ev for k in range(count)]
        return cls.uniform(omegas, veff_nm3, chirality_factor)


@dataclass(frozen=True)
class PolarizedEnsemble:
    """Polarized ensemble of N identical molecules with permanent dipoles.

    ``d00`` is the ground-state electric dipole in units of e*a0 and
    ``m00`` the magnetic dipole in mu_B.  Mirroring across the y-z plane
    flips d_x and leaves m00 fixed, which flips the Debye shift exactly.
    """

    d00: tuple[float, float, float]
    m00: tuple[float, float, float]
    n_molecules: int

    def __post_init__(self):
        if len(self.d00) != 3 or len(self.m00) != 3:
            raise ValueError("dipole moments must be 3-vectors")
        if not all(map(math.isfinite, (*self.d00, *self.m00))):
            raise ValueError(f"dipole components must be finite, got {self.d00}, {self.m00}")
        n = self.n_molecules
        if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
            raise ValueError(f"n_molecules must be a positive integer, got {n}")
        if n > sys.float_info.max:  # the shifts multiply floats by n
            raise ValueError("n_molecules is too large to convert to a float")

    def mirror(self) -> "PolarizedEnsemble":
        dx, dy, dz = self.d00
        return PolarizedEnsemble((-dx, dy, dz), self.m00, self.n_molecules)


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
    return cavity_shift_report(modes, molecule).london_total_t0_ev


def _debye_mode_base(mode: CavityMode, ensemble: PolarizedEnsemble) -> float:
    # single-molecule term; independent of the mode frequency because
    # g^2 * Omega = 1/(2 eps0 V_eff)
    dx, dy, _ = ensemble.d00
    mx, my, _ = ensemble.m00
    cross = dx * my - dy * mx
    return -2.0 * math.pi * FINE_STRUCTURE * RYDBERG_EV \
        * (BOHR_RADIUS_NM**3 / mode.veff_nm3) * cross


def debye_shift_per_molecule(modes: CavityModeSet, ensemble: PolarizedEnsemble) -> float:
    """Zero-temperature collective Debye shift per molecule, in eV.

    Exactly linear in n_molecules (the single multiplication happens
    last; the ensemble total is N times this, N^2 overall) and flips
    sign exactly under ``ensemble.mirror()``.  The per-mode contribution
    does not depend on the mode frequency, so any permutation of
    frequencies leaves the result bit-identical.
    """
    base = math.fsum(_debye_mode_base(m, ensemble) for m in modes.modes)
    return base * ensemble.n_molecules


def thermal_ratio_london(mode_omega_ev: float, gap_ev: float, thermal: Thermal) -> float:
    """Finite-temperature ratio for a single-mode London shift.

        ratio = 1 - n_B(Omega/kT) * 2 Omega / (E_eg - Omega)

    valid in the non-resonant regime 0 < Omega < E_eg; the correction
    1 - ratio is small and reduces the magnitude.

    Raises
    ------
    OutOfRegimeError
        If Omega >= E_eg (resonant; treated only qualitatively).
    """
    if mode_omega_ev >= gap_ev:
        raise OutOfRegimeError(
            f"mode at {mode_omega_ev} eV is resonant with the gap {gap_ev} eV"
        )
    n_b = bose_occupation(mode_omega_ev, thermal)
    return 1.0 - n_b * 2.0 * mode_omega_ev / (gap_ev - mode_omega_ev)


def thermal_ratio_debye(mode_omega_ev: float, thermal: Thermal) -> float:
    """Finite-temperature ratio 1 + 2 n_B for a single-mode Debye shift."""
    return 1.0 + 2.0 * bose_occupation(mode_omega_ev, thermal)


@dataclass(frozen=True)
class ModeReport:
    """Per-mode entry of a :class:`CavityShiftReport`; energies in eV."""

    omega_ev: float
    veff_nm3: float
    chirality_factor: float
    london_t0_ev: float
    london_thermal_ratio: Optional[float]
    london_ev: float
    resonant: bool


@dataclass(frozen=True)
class CavityShiftReport:
    """Per-mode and total London shifts with thermal corrections applied."""

    per_mode: tuple[ModeReport, ...]
    london_total_t0_ev: float
    london_total_ev: float

    @property
    def resonant_count(self) -> int:
        return sum(1 for m in self.per_mode if m.resonant)


def cavity_shift_report(modes: CavityModeSet, molecule: MoleculeSpectrum, *,
                        thermal: Thermal = Thermal(0.0)) -> CavityShiftReport:
    """Assemble per-mode London shifts with thermal ratios.

    Thermal corrections are applied per mode multiplicatively, per
    transition.  Modes resonant with any transition (Omega >= E_i0) are
    flagged and contribute their zero-temperature value uncorrected
    rather than aborting the report.  At T = 0 every ratio is 1.0 and
    ``london_total_ev == london_total_t0_ev``.
    """
    entries = []
    for mode in modes.modes:
        t0_terms = [(t, _london_single(mode, t)) for t in molecule.transitions]
        london_t0 = math.fsum(term for _, term in t0_terms)
        resonant = any(mode.omega_ev >= t.gap_ev for t in molecule.transitions)
        if resonant:
            ratio, london = None, london_t0
        else:
            london = math.fsum(
                term * thermal_ratio_london(mode.omega_ev, t.gap_ev, thermal)
                for t, term in t0_terms
            )
            ratio = london / london_t0 if london_t0 != 0.0 else 1.0
        entries.append(ModeReport(
            omega_ev=mode.omega_ev,
            veff_nm3=mode.veff_nm3,
            chirality_factor=mode.chirality_factor,
            london_t0_ev=london_t0,
            london_thermal_ratio=ratio,
            london_ev=london,
            resonant=resonant,
        ))

    return CavityShiftReport(
        per_mode=tuple(entries),
        london_total_t0_ev=math.fsum(e.london_t0_ev for e in entries),
        london_total_ev=math.fsum(e.london_ev for e in entries),
    )
