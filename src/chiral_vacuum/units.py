"""Physical constants and unit conversions.

All constants are CODATA 2018 recommended values (SI defining constants
where exact).  The library computes internally in natural units with
hbar = c = 1: energies in eV, lengths in 1/eV.  Public interfaces speak
eV, meV, nm and K; the conversion factors live here.
"""

from __future__ import annotations

import math

# --- SI defining constants (exact) ---
E_CHARGE = 1.602176634e-19          # C
HBAR = 6.62607015e-34 / (2.0 * math.pi)   # J s, from h
C_LIGHT = 299792458.0               # m/s

# --- CODATA 2018 measured values ---
BOHR_RADIUS = 5.29177210903e-11     # m
BOHR_MAGNETON = 9.2740100783e-24    # J/T
FINE_STRUCTURE = 7.2973525693e-3
RYDBERG_EV = 13.605693122994        # eV
EPSILON_0 = 8.8541878128e-12        # F/m
MU_0 = 1.25663706212e-6             # N/A^2
ATOMIC_MASS_EV = 9.3149410242e8     # eV, energy equivalent of 1 u

# --- derived ---
BOLTZMANN_EV = 1.380649e-23 / E_CHARGE      # eV/K, from k_B in J/K
HBARC_EV_NM = HBAR * C_LIGHT / E_CHARGE * 1e9   # eV nm; 1 eV^-1 of length = HBARC_EV_NM nm
BOHR_RADIUS_NM = BOHR_RADIUS * 1e9
