import math

import numpy as np
import pytest
import scipy.constants as sc

from chiral_vacuum import (
    CavityMode,
    CavityModeSet,
    MoleculeSpectrum,
    OutOfRegimeError,
    PolarizedEnsemble,
    Thermal,
    bose_occupation,
    cavity,
    cavity_shift_report,
    debye_shift_per_molecule,
    london_shift,
    thermal_ratio_debye,
    thermal_ratio_london,
)

TEN_LEFT = CavityModeSet.ladder(0.1, 0.1, 10, veff_nm3=0.2, chirality_factor=-0.5)
MOL = MoleculeSpectrum.two_level(2.0, 0.1)
ENSEMBLE = PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), 1)
KBT_034 = Thermal.from_kbt_ev(0.034)


# ---------------------------------------------------------------- types

def test_mode_validation():
    with pytest.raises(ValueError):
        CavityMode(0.0, 0.2, -0.5)
    with pytest.raises(ValueError):
        CavityMode(0.1, -0.2, -0.5)
    with pytest.raises(ValueError):
        CavityMode(0.1, 0.2, 0.7)


def test_mode_set_must_be_nonempty():
    with pytest.raises(ValueError):
        CavityModeSet(())


def test_mode_set_entries_must_be_modes():
    # rejected where stored, not at the first shift as an AttributeError
    with pytest.raises(ValueError, match="^modes entries must be CavityMode, got 0.5$"):
        CavityModeSet([0.5])


def test_ensemble_validation_and_mirror():
    with pytest.raises(ValueError):
        PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), 0)
    with pytest.raises(ValueError, match="3-vectors"):
        PolarizedEnsemble((1.0, 0.0), (0.0, 1.0, 0.0), 1)
    ens = PolarizedEnsemble((0.2, 0.3, -0.1), (0.4, 1.0, 0.2), 5)
    mirrored = ens.mirror()
    assert mirrored.d00 == (-0.2, -0.3, 0.1)
    assert mirrored.m00 == ens.m00
    assert mirrored.mirror() == ens


def test_ensemble_rejects_a_count_too_large_for_a_float():
    with pytest.raises(ValueError, match="too large"):
        PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), 10**400)


def test_ensemble_rejects_bool_count():
    # bool is an int subclass; True must not pass as one molecule
    with pytest.raises(ValueError):
        PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), True)


# --------------------------------------------------------------- london

def test_london_headline_estimate():
    total_mev = london_shift(TEN_LEFT, MOL) * 1e3
    assert total_mev == pytest.approx(-0.06, rel=0.10)
    assert total_mev == pytest.approx(-0.06332431739098142, rel=1e-12)  # frozen


def test_london_matches_direct_si_evaluation():
    # independent route: per-mode 2 chi hbar Omega ImR / (3 c eps0 V (E + Omega))
    imr = 0.1 * sc.e * sc.physical_constants["Bohr radius"][0] \
        * sc.physical_constants["Bohr magneton"][0]
    total_j = 0.0
    for mode in TEN_LEFT.modes:
        om_j = mode.omega_ev * sc.e
        gap_j = 2.0 * sc.e
        total_j += 2.0 * mode.chirality_factor * om_j * imr / (
            3.0 * sc.c * sc.epsilon_0 * mode.veff_nm3 * 1e-27 * (gap_j + om_j))
    assert london_shift(TEN_LEFT, MOL) == pytest.approx(total_j / sc.e, rel=1e-7)


def test_london_zero_for_linear_polarization():
    linear = CavityModeSet.ladder(0.1, 0.1, 10, veff_nm3=0.2, chirality_factor=0.0)
    assert london_shift(linear, MOL) == 0.0


def test_london_mirror_flips_sign_exactly():
    assert london_shift(TEN_LEFT, MOL.mirror()) == -london_shift(TEN_LEFT, MOL)


def test_london_chirality_flip_is_odd():
    right = CavityModeSet.ladder(0.1, 0.1, 10, veff_nm3=0.2, chirality_factor=0.5)
    assert london_shift(right, MOL) == -london_shift(TEN_LEFT, MOL)


def test_london_additive_over_modes():
    parts = math.fsum(
        london_shift(CavityModeSet((m,)), MOL) for m in TEN_LEFT.modes)
    assert parts == london_shift(TEN_LEFT, MOL)


def test_london_additive_over_transitions():
    two = MoleculeSpectrum.from_lists([2.0, 3.0], [0.1, -0.02])
    split = (london_shift(TEN_LEFT, MoleculeSpectrum.two_level(2.0, 0.1))
             + london_shift(TEN_LEFT, MoleculeSpectrum.two_level(3.0, -0.02)))
    assert london_shift(TEN_LEFT, two) == pytest.approx(split, rel=1e-14)


# ---------------------------------------------------------------- debye

def test_debye_headline_magnitude():
    per_mol_mev = debye_shift_per_molecule(TEN_LEFT, ENSEMBLE) * 1e3
    assert abs(per_mol_mev) == pytest.approx(0.92, rel=0.02)
    assert per_mol_mev == pytest.approx(-0.924419861756563, rel=1e-12)  # frozen


def test_debye_matches_direct_si_evaluation():
    d_si = 0.2 * sc.e * sc.physical_constants["Bohr radius"][0]
    m_si = sc.physical_constants["Bohr magneton"][0]
    per_mode_j = -d_si * m_si / (2.0 * sc.epsilon_0 * 0.2e-27 * sc.c)
    assert debye_shift_per_molecule(TEN_LEFT, ENSEMBLE) == pytest.approx(
        10.0 * per_mode_j / sc.e, rel=1e-7)


def test_debye_vanishes_for_axial_dipole():
    ens = PolarizedEnsemble((0.0, 0.0, 0.7), (0.0, 1.0, 0.0), 3)
    assert debye_shift_per_molecule(TEN_LEFT, ens) == 0.0


def test_debye_mirror_flips_sign_exactly():
    assert debye_shift_per_molecule(TEN_LEFT, ENSEMBLE.mirror()) == \
        -debye_shift_per_molecule(TEN_LEFT, ENSEMBLE)


def test_debye_linear_in_molecule_count():
    big = PolarizedEnsemble(ENSEMBLE.d00, ENSEMBLE.m00, 100)
    assert debye_shift_per_molecule(TEN_LEFT, big) == \
        100 * debye_shift_per_molecule(TEN_LEFT, ENSEMBLE)


def test_debye_invariant_under_frequency_permutation():
    ens = PolarizedEnsemble((0.2, -0.1, 0.3), (0.4, 1.0, -0.2), 5)
    shuffled = CavityModeSet(tuple(reversed(TEN_LEFT.modes)))
    assert debye_shift_per_molecule(shuffled, ens) == \
        debye_shift_per_molecule(TEN_LEFT, ens)


def test_debye_thermal_is_keyword_only():
    with pytest.raises(TypeError):
        debye_shift_per_molecule(TEN_LEFT, ENSEMBLE, Thermal(300.0))


def test_debye_respects_per_mode_volume():
    small = CavityModeSet((CavityMode(0.1, 0.1, -0.5),))
    large = CavityModeSet((CavityMode(0.1, 0.2, -0.5),))
    assert debye_shift_per_molecule(small, ENSEMBLE) == pytest.approx(
        2.0 * debye_shift_per_molecule(large, ENSEMBLE), rel=1e-14)


# ----------------------------------------------------- thermal ratios

def test_thermal_london_unity_at_zero_temperature():
    assert thermal_ratio_london(0.1, 2.0, Thermal(0.0)) == 1.0


def test_thermal_london_correction_bound():
    correction = 1.0 - thermal_ratio_london(0.1, 2.0, KBT_034)
    assert correction < 0.006


def oracle_thermal_london_ratio(omega_ev: float, gap_ev: float, thermal: Thermal,
                                i_max: int = 50) -> float:
    """Two-branch perturbation sum over photon occupations, truncated at i_max.

    Per occupation I with Boltzmann weight: emission into I+1 photons
    against E + Omega, absorption from I photons against E - Omega; the
    ratio to the zero-temperature single branch is returned.
    """
    beta_omega = omega_ev / thermal.kbt_ev
    weights = np.exp(-beta_omega * np.arange(i_max + 1))
    weights /= weights.sum()
    occ = np.arange(i_max + 1)
    shift = (weights * ((occ + 1) / (gap_ev + omega_ev) - occ / (gap_ev - omega_ev))).sum()
    return float(shift * (gap_ev + omega_ev))


def test_thermal_london_against_occupation_sum_oracle():
    ratio = thermal_ratio_london(0.1, 2.0, KBT_034)
    oracle = oracle_thermal_london_ratio(0.1, 2.0, KBT_034, i_max=50)
    assert ratio == pytest.approx(oracle, abs=1e-10)


def test_thermal_london_never_exceeds_one():
    for omega in (0.05, 0.1, 0.5, 1.0, 1.9):
        for t_k in (1.0, 300.0, 1000.0):
            assert thermal_ratio_london(omega, 2.0, Thermal(t_k)) <= 1.0


def test_thermal_london_resonant_regime_rejected():
    with pytest.raises(OutOfRegimeError):
        thermal_ratio_london(2.0, 2.0, KBT_034)
    with pytest.raises(OutOfRegimeError):
        thermal_ratio_london(2.5, 2.0, Thermal(0.0))


def test_thermal_london_rejects_a_nan_gap_naming_it():
    with pytest.raises(ValueError, match="^gap_ev must be a number, got nan"):
        thermal_ratio_london(0.1, math.nan, Thermal(300.0))


# Inputs whose London or Debye terms, or their sums, leave the float range: an
# infinite term, inf - inf, an intermediate overflow, a total over finite modes,
# and a finite sum times n.
_TINY_MODES = CavityModeSet.ladder(0.1, 0.1, 10, 1e-300, -0.5)
_SMALL_MODES = CavityModeSet.ladder(0.1, 0.1, 10, 1e-12, -0.5)
_OVERFLOWING_SUMS = {
    "london inf": ("London", lambda th: cavity_shift_report(
        _TINY_MODES, MoleculeSpectrum.two_level(2.0, 3e13), thermal=th)),
    "london inf - inf": ("London", lambda th: cavity_shift_report(
        _TINY_MODES, MoleculeSpectrum.from_lists([2.0, 3.0], [3e13, -3e13]), thermal=th)),
    "london total": ("London", lambda th: cavity_shift_report(
        CavityModeSet.ladder(0.1, 0.1, 10, 1e-305, -0.5), MoleculeSpectrum.two_level(2.0, 2e7),
        thermal=th)),
    "debye intermediate": ("Debye", lambda th: debye_shift_per_molecule(
        _SMALL_MODES, PolarizedEnsemble((1e150, 0, 0), (0, 1e150, 0), 1), thermal=th)),
    "debye times n": ("Debye", lambda th: debye_shift_per_molecule(
        CavityModeSet.ladder(0.1, 0.1, 1, 1.0, -0.5),
        PolarizedEnsemble((1e150, 0, 0), (0, 1e150, 0), 10**100), thermal=th)),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING_SUMS))
@pytest.mark.parametrize("thermal", [Thermal(0.0), Thermal(300.0)], ids=["T=0", "T=300K"])
def test_a_cavity_sum_that_overflows_is_refused(name, thermal):
    kind, call = _OVERFLOWING_SUMS[name]
    args = "modes and molecule" if kind == "London" else "modes and ensemble"
    with pytest.raises(ValueError, match=f"^{args} are out of range: the {kind} sum overflows$"):
        call(thermal)


def test_thermal_debye_values():
    assert thermal_ratio_debye(0.1, Thermal(0.0)) == 1.0
    assert thermal_ratio_debye(0.1, KBT_034) == pytest.approx(1.11, abs=0.005)


def test_thermal_debye_classical_asymptote():
    # beta Omega << 1: ratio -> 1 + 2 kT / Omega
    th = Thermal.from_kbt_ev(0.1 / 0.05)  # beta Omega = 0.05
    ratio = thermal_ratio_debye(0.1, th)
    assert ratio == pytest.approx(1.0 + 2.0 / 0.05, rel=0.05)


def test_thermal_debye_at_least_one():
    for omega in (0.05, 0.3, 1.0):
        for t_k in (0.0, 77.0, 300.0, 900.0):
            assert thermal_ratio_debye(omega, Thermal(t_k)) >= 1.0


# ---------------------------------------------------------------- report

def test_report_at_zero_temperature_equals_bare_sums():
    rep = cavity_shift_report(TEN_LEFT, MOL, thermal=Thermal(0.0))
    assert rep.london_total_ev == london_shift(TEN_LEFT, MOL)
    assert rep.london_total_t0_ev == rep.london_total_ev
    assert all(ratio == 1.0 for ratio in rep.london_thermal_ratio)
    # the general thermal path at n_B = 0: exact, sign of a zero included
    two = MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
    linear = CavityModeSet.ladder(0.1, 0.1, 3, veff_nm3=0.2, chirality_factor=0.0)
    for modes, mol in [(TEN_LEFT, two), (linear, MOL)]:
        rep = cavity_shift_report(modes, mol, thermal=Thermal(0.0))
        columns = (rep.london_t0_ev, rep.london_thermal_ratio, rep.london_ev, rep.resonant)
        assert [len(column) for column in columns] == [len(modes.modes)] * 4
        for london_t0, ratio, london in zip(rep.london_t0_ev, rep.london_thermal_ratio,
                                            rep.london_ev):
            assert ratio == 1.0
            assert london == london_t0
            assert math.copysign(1.0, london) == math.copysign(1.0, london_t0)


def test_report_london_total_thermal_bound():
    # ten-mode set at 400 K: total within 0.7% of the T = 0 total
    rep = cavity_shift_report(TEN_LEFT, MOL, thermal=Thermal(400.0))
    rel = abs(rep.london_total_ev / rep.london_total_t0_ev - 1.0)
    assert rel < 0.007


def test_report_flags_resonant_modes_without_aborting():
    modes = CavityModeSet.uniform([0.5, 2.5], veff_nm3=0.2, chirality_factor=-0.5)
    rep = cavity_shift_report(modes, MOL, thermal=Thermal(300.0))
    flags = list(rep.resonant)
    assert flags == [False, True]
    assert rep.london_thermal_ratio[1] is None
    assert rep.london_ev[1] == rep.london_t0_ev[1]  # uncorrected
    assert sum(rep.resonant) == 1
    assert math.isfinite(rep.london_total_ev)


def test_report_ratio_is_none_where_only_the_t0_sum_cancels():
    # the two T = 0 terms cancel to 0, and their thermal ratios weigh them apart
    mol = MoleculeSpectrum.from_lists([2.0, 3.0], [0.1, -0.13999999999999999])
    modes = CavityModeSet.uniform([0.5], veff_nm3=0.2, chirality_factor=-0.5)
    rep = cavity_shift_report(modes, mol, thermal=Thermal(3000.0))
    assert rep.london_t0_ev == (0.0,) and rep.london_ev[0] != 0.0
    assert rep.london_thermal_ratio == (None,)
    # both sums 0 at T = 0: the ratio is 1.0
    assert cavity_shift_report(modes, mol).london_thermal_ratio == (1.0,)


def test_report_takes_one_bose_occupation_per_mode(monkeypatch):
    # n_B depends on the mode alone, so the two transitions of each mode share it,
    # and each thermal term is its T = 0 term times thermal_ratio_london, to the bit
    two = MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
    thermal = Thermal(300.0)
    expected = [math.fsum(london_shift(CavityModeSet((m,)), MoleculeSpectrum.two_level(
        t.gap_ev, t.im_rot_strength)) * thermal_ratio_london(m.omega_ev, t.gap_ev, thermal)
        for t in two.transitions) for m in TEN_LEFT.modes]
    calls = []

    def counted(omega_ev, thermal):
        calls.append(omega_ev)
        return bose_occupation(omega_ev, thermal)

    monkeypatch.setattr(cavity, "bose_occupation", counted)
    rep = cavity_shift_report(TEN_LEFT, two, thermal=thermal)
    assert calls == [m.omega_ev for m in TEN_LEFT.modes]
    assert list(rep.london_ev) == expected


def test_report_thermal_is_keyword_only():
    with pytest.raises(TypeError):
        cavity_shift_report(TEN_LEFT, MOL, Thermal(300.0))
