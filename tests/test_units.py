import math

import pytest
import scipy.constants as sc

from chiral_vacuum import units

# CODATA 2018 electron mass in kg; scipy's newer release differs by
# 1.4e-9 relative, more than the identities below allow.
ELECTRON_MASS = 9.1093837015e-31


def test_si_defining_constants_exact():
    assert units.E_CHARGE == 1.602176634e-19
    assert units.HBAR == 6.62607015e-34 / (2 * math.pi)
    assert units.C_LIGHT == 299792458.0
    assert units.BOLTZMANN_EV == 1.380649e-23 / 1.602176634e-19


def test_measured_constants_against_scipy_tables():
    # scipy ships a different CODATA release; agreement to 5e-8 relative
    # confirms the hard-coded table has no typos
    pairs = [
        (units.BOHR_RADIUS, sc.physical_constants["Bohr radius"][0]),
        (units.BOHR_MAGNETON, sc.physical_constants["Bohr magneton"][0]),
        (units.FINE_STRUCTURE, sc.fine_structure),
        (units.EPSILON_0, sc.epsilon_0),
        (units.MU_0, sc.mu_0),
        (ELECTRON_MASS, sc.m_e),
        (units.RYDBERG_EV,
         sc.physical_constants["Rydberg constant times hc in eV"][0]),
    ]
    for ours, theirs in pairs:
        assert ours == pytest.approx(theirs, rel=5e-8)


def test_internal_consistency_identities():
    # alpha = e^2 / (4 pi eps0 hbar c)
    alpha = units.E_CHARGE**2 / (4 * math.pi * units.EPSILON_0 * units.HBAR * units.C_LIGHT)
    assert alpha == pytest.approx(units.FINE_STRUCTURE, rel=1e-9)
    # a0 = hbar / (m_e c alpha)
    a0 = units.HBAR / (ELECTRON_MASS * units.C_LIGHT * units.FINE_STRUCTURE)
    assert a0 == pytest.approx(units.BOHR_RADIUS, rel=1e-9)
    # mu_B = e hbar / (2 m_e)
    mu_b = units.E_CHARGE * units.HBAR / (2 * ELECTRON_MASS)
    assert mu_b == pytest.approx(units.BOHR_MAGNETON, rel=1e-9)
    # E_Ryd = alpha^2 m_e c^2 / 2
    ryd = units.FINE_STRUCTURE**2 * ELECTRON_MASS * units.C_LIGHT**2 \
        / 2 / units.E_CHARGE
    assert ryd == pytest.approx(units.RYDBERG_EV, rel=1e-9)
    # eps0 mu0 c^2 = 1
    assert units.EPSILON_0 * units.MU_0 * units.C_LIGHT**2 == pytest.approx(1.0, rel=1e-9)


def test_boltzmann_constant_in_ev():
    assert units.BOLTZMANN_EV == pytest.approx(8.617333262e-5, rel=1e-9)
