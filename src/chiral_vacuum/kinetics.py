"""Enantioselective reaction rates from chiral energy shifts.

The two enantiomer channels see activation barriers shifted by +-dE, so
the Arrhenius rate ratio gives the chirality-selective rate

    P = (k_L - k_R) / (k_L + k_R)
      = (1 - exp(-2 beta dE)) / (1 + exp(-2 beta dE)) = tanh(beta dE).

Transition-state theory adds the zero-point correction of the reactant
well: the curvature perturbation +-b shifts the vibrational quantum by
dw = sqrt(w^2 + b/M) - w, and the effective exponent becomes
beta (dE - dw/2).  Prefactors cancel between the enantiomers and are
not computed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Thermal
from .units import ATOMIC_MASS_EV

_ONE_MINUS_ULP = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ReactionProfile:
    """Reaction-coordinate profile of the bare molecule.

    Parameters
    ----------
    barrier_ev : float
        Classical barrier height on the potential energy surface, > 0.
    omega_nu_ev : float
        Vibrational quantum of the reactant well, > 0; its square must
        neither overflow nor underflow to 0.
    curvature_b_ev3 : float
        Signed change b of the quadratic PES coefficient, in natural
        units eV^3 (energy per natural length squared).
    mass_amu : float
        Effective mass of the reaction coordinate in atomic mass units
        (one carbon is a typical estimate), > 0.

    Every field must be finite.
    """

    barrier_ev: float
    omega_nu_ev: float
    curvature_b_ev3: float = 0.0
    mass_amu: float = 12.0

    def __post_init__(self):
        if not 0.0 < self.barrier_ev < math.inf:
            raise ValueError(f"barrier must be positive and finite, got {self.barrier_ev}")
        if not 0.0 < self.omega_nu_ev < math.inf:
            raise ValueError(f"omega_nu must be positive and finite, got {self.omega_nu_ev}")
        if not math.isfinite(self.curvature_b_ev3):
            raise ValueError(f"curvature b must be finite, got {self.curvature_b_ev3}")
        if not 0.0 < self.mass_amu < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass_amu}")
        omega_sq = self.omega_nu_ev * self.omega_nu_ev
        if not 0.0 < omega_sq < math.inf:
            raise ValueError(f"omega_nu {self.omega_nu_ev!r} eV is out of range: its square "
                             + ("overflows" if omega_sq else "underflows to 0"))
        if not omega_sq + self.curvature_b_ev3 / self.mass_ev > 0.0:
            raise ValueError("curvature perturbation destroys the reactant well")

    @property
    def mass_ev(self) -> float:
        return self.mass_amu * ATOMIC_MASS_EV


def _selectivity(exponent_mev: float, thermal: Thermal) -> float:
    """tanh(exponent / kT) for T > 0, the body of both public selectivities."""
    if thermal.temperature_k <= 0.0:
        raise ValueError("selectivity requires T > 0")
    p = math.tanh(exponent_mev / (thermal.kbt_ev * 1e3))
    # keep |P| < 1 strictly for finite inputs
    if p >= 1.0:
        return _ONE_MINUS_ULP
    if p <= -1.0:
        return -_ONE_MINUS_ULP
    return p


def selectivity(delta_e_mev: float, thermal: Thermal) -> float:
    """Chirality-selective rate P = tanh(dE / kT) for barrier shifts +-dE.

    Parameters
    ----------
    delta_e_mev : float
        Chiral energy shift in meV.
    thermal : Thermal
        Temperature, must be > 0.

    Returns
    -------
    float
        P in (-1, 1); overflow-safe, saturating to +-(1 - ulp).
    """
    return _selectivity(delta_e_mev, thermal)


def tst_activation(profile: ReactionProfile) -> float:
    """Activation energy E_barrier - omega_nu/2 of transition-state theory, in eV.

    A negative result is returned with a warning rather than raised.
    """
    e_a = profile.barrier_ev - 0.5 * profile.omega_nu_ev
    if e_a < 0.0:
        warnings.warn(f"negative activation energy {e_a} eV", stacklevel=2)
    return e_a


def zero_point_frequency_shift(profile: ReactionProfile) -> float:
    """Vibrational frequency shift dw with M w^2 + b = M (w + dw)^2, in eV.

    Evaluated as (b/M) / (sqrt(w^2 + b/M) + w), which is exact and avoids
    the cancellation of the naive square-root difference for small b.
    """
    if profile.curvature_b_ev3 == 0.0:
        return 0.0
    w = profile.omega_nu_ev
    ratio = profile.curvature_b_ev3 / profile.mass_ev
    return ratio / (math.sqrt(w * w + ratio) + w)


def selectivity_tst(delta_e_mev: float, profile: ReactionProfile,
                    thermal: Thermal) -> float:
    """Selectivity with the zero-point correction of transition-state theory.

    The enantiomer shifted by +dE also carries the +b curvature change, so
    the effective exponent is beta (dE - dw/2).  Reduces bit-identically
    to :func:`selectivity` when b = 0.
    """
    half_shift_mev = 0.5 * zero_point_frequency_shift(profile) * 1e3
    return _selectivity(delta_e_mev - half_shift_mev, thermal)


def selectivity_sweep(delta_e_grid_mev: Sequence[float],
                      temperatures_k: Sequence[float],
                      profile: Optional[ReactionProfile] = None
                      ) -> list[tuple[float, float, float]]:
    """Selectivity over a grid of shifts and temperatures.

    With a profile the TST-corrected selectivity is used.  Returns
    ``(delta_e_mev, temperature_k, p)`` tuples ordered by the input
    grids, shift-major.
    """
    if len(delta_e_grid_mev) == 0 or len(temperatures_k) == 0:
        raise ValueError("sweep grids must not be empty")
    thermals = [Thermal(t_k) for t_k in temperatures_k]
    if profile is None:
        return [(de, th.temperature_k, selectivity(de, th))
                for de in delta_e_grid_mev for th in thermals]
    return [(de, th.temperature_k, selectivity_tst(de, profile, th))
            for de in delta_e_grid_mev for th in thermals]
