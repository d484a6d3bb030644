"""Built-in acceptance suite and the oracle it relies on.

Each criterion returns a :class:`CriterionResult`; ``run_all`` executes
the whole list.  Criterion 7 checks the adaptive half-space quadrature
against :func:`oracle_dense_halfspace_shift`, a fixed composite
Gauss-Legendre rule on graded panels at two sizes.  It shares only
:func:`reflection_cross` with the path it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (
    CavityModeSet,
    PolarizedEnsemble,
    debye_shift_per_molecule,
    london_shift,
    thermal_ratio_debye,
    thermal_ratio_london,
)
from .core import MoleculeSpectrum, Thermal
from .kinetics import ReactionProfile, selectivity, selectivity_tst, zero_point_frequency_shift
from .pasteur import (
    REL_TOL,
    T_CUTOFF as _T_CUTOFF,
    PasteurMaterial,
    _shift_scaled,
    chiral_shift_nonretarded,
    energy_unit_mev,
    reflection_cross,
)


# ----------------------------------------------------------------- oracle

def _graded_panels(lo, hi, m: int, rule):
    """Nodes and weights of the Gauss-Legendre ``rule`` on [0, lo] and on m
    geometric panels from lo to hi, one row per entry of the arrays lo, hi."""
    t, w = rule
    edges = lo[:, None] * (hi / lo)[:, None] ** (np.arange(m + 1) / m)
    edges = np.hstack((np.zeros((len(lo), 1)), edges))
    mid = (edges[:, 1:] + edges[:, :-1]) / 2.0
    half = (edges[:, 1:] - edges[:, :-1]) / 2.0
    return ((mid[..., None] + half[..., None] * t).reshape(len(lo), -1),
            (half[..., None] * w).reshape(len(lo), -1))


def _first_inner_edge(material: PasteurMaterial) -> float:
    """v0 of the first inner panel [0, v0], in v = c' - 1.

    A thousandth of the smallest scale of r(c') in v: 1 for c' itself, and
    eps_r mu_r (1 - |kappa_r|)^2 / 2 for c'_- (2 eps_r mu_r for the finite
    branch at kappa_r = +-1).  v0 stays at least 1e-9 as |kappa_r| -> 1: a
    feature of r below that carries a weight of order v0^2 under (c'^2 - 1).
    """
    kr = abs(material.kappa_r)
    eps_mu = material.eps_r * material.mu_r
    scale = 2.0 * eps_mu if kr == 1.0 else eps_mu * (1.0 - kr) ** 2 / 2.0
    return max(1e-3 * min(1.0, scale), 1e-9)


def _graded_gauss_legendre(z: float, material: PasteurMaterial, m: int) -> float:
    """Scaled shift of one transition at distance z, in the original (x, c')
    variables: x on [0, x0] and m geometric panels to T, with x0 the smaller
    of 1e-9 and z/1000, below the integrand's scale z; and for each x,
    v = c' - 1 on [0, v0] and m geometric panels to T/x."""
    rule = np.polynomial.legendre.leggauss(8)
    [x], [wx] = _graded_panels(np.array([min(1e-9, 1e-3 * z)]), np.array([_T_CUTOFF]), m, rule)
    v0 = _first_inner_edge(material)
    inner = np.empty_like(x)
    for i in range(0, len(x), 64):  # blocks of 64 x rows stay in cache
        xs = x[i:i + 64]
        v, wv = _graded_panels(np.full(xs.shape, v0), _T_CUTOFF / xs, m, rule)
        inner[i:i + 64] = (wv * np.exp(-2.0 * xs[:, None] * (1.0 + v)) * v * (v + 2.0)
                           * reflection_cross(1.0 + v, material)).sum(axis=1)
    return float(wx @ (x**3 * inner / (z * z + x * x))) / (z * z)


def oracle_dense_halfspace_shift(z: float, material: PasteurMaterial) -> tuple[float, float]:
    """Graded Gauss-Legendre oracle for the scaled shift of one transition at z:
    the value on 80 panels per axis, and its distance from the value on 40 as
    the error estimate."""
    coarse, fine = (_graded_gauss_legendre(z, material, m) for m in (40, 80))
    return fine, abs(fine - coarse)


# ------------------------------------------------------------- criteria

@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


_TEN_MODES = CavityModeSet.ladder(0.1, 0.1, 10, veff_nm3=0.2, chirality_factor=-0.5)
_TWO_LEVEL = MoleculeSpectrum.two_level(2.0, 0.1)
_ENSEMBLE = PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), 1)
_KBT_034 = Thermal.from_kbt_ev(0.034)


def _shift(z, molecule, material, failures, rel_tol=REL_TOL):
    """Scaled shift and error estimate; a quadrature failure goes into ``failures``."""
    [(_, val, err, failure)] = _shift_scaled([z], molecule, material, rel_tol)
    if failure is not None:
        failures.append(f"quadrature failed at z={z}: {failure}")
    return val, err


def criterion_1_london_estimate() -> CriterionResult:
    total_mev = london_shift(_TEN_MODES, _TWO_LEVEL) * 1e3
    target = -0.06
    passed = abs(total_mev - target) <= 0.10 * abs(target)
    return CriterionResult(1, "cavity London estimate", passed,
                           f"total = {total_mev:.6f} meV, target {target} +/- 10%")


def criterion_2_debye_magnitude() -> CriterionResult:
    per_mol_mev = debye_shift_per_molecule(_TEN_MODES, _ENSEMBLE) * 1e3
    mirrored_mev = debye_shift_per_molecule(_TEN_MODES, _ENSEMBLE.mirror()) * 1e3
    magnitude_ok = abs(abs(per_mol_mev) - 0.92) <= 0.02 * 0.92
    sign_ok = mirrored_mev == -per_mol_mev
    big = PolarizedEnsemble(_ENSEMBLE.d00, _ENSEMBLE.m00, 137)
    linear_ok = debye_shift_per_molecule(_TEN_MODES, big) == 137 * debye_shift_per_molecule(_TEN_MODES, _ENSEMBLE)
    passed = magnitude_ok and sign_ok and linear_ok
    return CriterionResult(2, "collective Debye magnitude", passed,
                           f"per molecule = N x {per_mol_mev:.6f} meV, target N x -0.92 +/- 2%; "
                           f"mirror flip {'exact' if sign_ok else 'BROKEN'}; "
                           f"N-linearity {'exact' if linear_ok else 'BROKEN'}")


def criterion_3_thermal_london_bound() -> CriterionResult:
    corrections = [1.0 - thermal_ratio_london(m.omega_ev, 2.0, _KBT_034)
                   for m in _TEN_MODES.modes]
    worst = max(corrections)
    passed = worst < 0.006
    return CriterionResult(3, "thermal London bound", passed,
                           f"max correction = {worst * 100:.4f}%, bound 0.6%")


def criterion_4_thermal_debye_value() -> CriterionResult:
    ratio = thermal_ratio_debye(0.1, _KBT_034)
    passed = abs(ratio - 1.11) <= 0.005
    return CriterionResult(4, "thermal Debye ratio", passed,
                           f"ratio = {ratio:.6f}, target 1.11 +/- 0.005")


def criterion_5_nonretarded_agreement() -> CriterionResult:
    failures = []
    material = PasteurMaterial(1.0, 1.0, 0.4)
    z = 1e-3
    full, _ = _shift(z, _TWO_LEVEL, material, failures)
    nr = chiral_shift_nonretarded(z, _TWO_LEVEL, material)
    rel = abs(full - nr) / abs(nr)
    passed = rel < 0.01 and not failures
    return CriterionResult(5, "non-retarded agreement", passed, "; ".join(
        [f"relative difference {rel * 100:.4f}% at z = 1e-3 z_unit, bound 1%"] + failures))


def criterion_6_symmetry_suite() -> CriterionResult:
    failures = []
    material = PasteurMaterial(1.0, 1.0, 0.2)
    flipped = PasteurMaterial(1.0, 1.0, -0.2)
    z = 0.5

    plus, err_p = _shift(z, _TWO_LEVEL, material, failures)
    minus, err_m = _shift(z, _TWO_LEVEL, flipped, failures)
    if abs(plus + minus) > 2.0 * (err_p + err_m):
        failures.append("shift not odd in kappa")

    e_unit = energy_unit_mev(_TWO_LEVEL)
    e_unit_m = energy_unit_mev(_TWO_LEVEL.mirror())
    mirrored, _ = _shift(z, _TWO_LEVEL.mirror(), material, failures)
    if abs(mirrored * e_unit_m + plus * e_unit) > 2.0 * (err_p + err_m) * abs(e_unit):
        failures.append("shift not odd in rotatory strength")

    achiral, _ = _shift(z, _TWO_LEVEL, PasteurMaterial(1.0, 1.0, 0.0), failures)
    if achiral != 0.0:
        failures.append("kappa = 0 does not vanish")

    nr1 = chiral_shift_nonretarded(0.37, _TWO_LEVEL, material)
    nr2 = chiral_shift_nonretarded(0.74, _TWO_LEVEL, material)
    if nr2 * 8.0 != nr1:
        failures.append("non-retarded 1/z^3 scaling not exact")

    thermal = Thermal(300.0)
    kbt_mev = thermal.kbt_ev * 1e3
    for x in np.linspace(-30.0, 30.0, 121):
        de = x * kbt_mev
        if abs(selectivity(de, thermal) - math.tanh(x)) > 1e-12:
            failures.append("selectivity deviates from tanh")
            break

    des = np.linspace(-80.0, 80.0, 41)
    ps = [selectivity(de, thermal) for de in des]
    if any(selectivity(-de, thermal) != -p for de, p in zip(des, ps)):
        failures.append("selectivity not odd")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        failures.append("selectivity not strictly increasing in shift")
    hot = [selectivity(de, Thermal(400.0)) for de in des]
    if any(h >= p for p, h in zip(ps, hot) if p > 0):
        failures.append("selectivity not decreasing in temperature")

    ens = PolarizedEnsemble((0.2, -0.1, 0.3), (0.4, 1.0, -0.2), 5)
    base = debye_shift_per_molecule(_TEN_MODES, ens)
    permuted = CavityModeSet(reversed(_TEN_MODES.modes))
    if debye_shift_per_molecule(permuted, ens) != base:
        failures.append("Debye not invariant under mode-frequency permutation")

    passed = not failures
    detail = "all symmetry/property checks hold" if passed else "; ".join(failures)
    return CriterionResult(6, "symmetry suite", passed, detail)


def criterion_7_quadrature_robustness() -> CriterionResult:
    failures = []
    material = PasteurMaterial(1.0, 1.0, 0.4)
    z_points = [0.3, 0.5, 0.8, 1.2, 1.8]
    for z in z_points:
        val, est = _shift(z, _TWO_LEVEL, material, failures)
        val2, _ = _shift(z, _TWO_LEVEL, material, failures, rel_tol=REL_TOL / 2.0)
        if abs(val - val2) >= est:
            failures.append(f"tolerance halving moved z={z} by {abs(val - val2):.2e} >= {est:.2e}")

    samples = [(0.3, 0.4), (0.5, 0.4), (0.5, 0.2), (1.0, 0.4), (1.5, 0.2)]
    worst = worst_est = 0.0
    for z, kappa in samples:
        mat = PasteurMaterial(1.0, 1.0, kappa)
        oracle, oracle_err = oracle_dense_halfspace_shift(z, mat)
        adaptive, _ = _shift(z, _TWO_LEVEL, mat, failures)
        rel, rel_est = abs(oracle - adaptive) / abs(oracle), oracle_err / abs(oracle)
        worst, worst_est = max(worst, rel), max(worst_est, rel_est)
        if not rel_est <= 1e-8:
            failures.append(f"oracle estimate {rel_est:.2e} > 1e-8 at z={z}, kappa={kappa}")
        if rel > 1e-6:
            failures.append(f"oracle mismatch {rel:.2e} at z={z}, kappa={kappa}")

    passed = not failures
    detail = (f"max deviation from the Gauss-Legendre oracle {worst:.2e} (bound 1e-6), "
              f"its own estimate {worst_est:.2e} (bound 1e-8); tolerance halving bounded"
              if passed else "; ".join(failures))
    return CriterionResult(7, "quadrature robustness", passed, detail)


def criterion_8_tst_consistency() -> CriterionResult:
    thermal = Thermal(300.0)
    base = ReactionProfile(1.0, 0.1, 0.0, 12.0)
    identical = all(
        selectivity_tst(de, base, thermal) == selectivity(de, thermal)
        for de in (-53.0, -7.0, 0.0, 7.0, 53.0)
    )

    # b tuned so the zero-point term is 0.5*dw = 0.2 meV
    omega = 0.1
    mass = ReactionProfile(1.0, omega, 0.0, 12.0).mass_ev
    dw_target = 2.0 * 0.2e-3
    b = mass * (2.0 * omega * dw_target + dw_target**2)
    tuned = ReactionProfile(1.0, omega, b, 12.0)
    half_dw_mev = 0.5 * zero_point_frequency_shift(tuned) * 1e3
    p_arr = selectivity(53.0, thermal)
    p_tst = selectivity_tst(53.0, tuned, thermal)
    rel = abs(p_tst - p_arr) / abs(p_arr)
    passed = identical and abs(half_dw_mev - 0.2) < 1e-9 and rel < 0.01
    return CriterionResult(8, "TST consistency", passed,
                           f"b = 0 reduction {'bit-identical' if identical else 'BROKEN'}; "
                           f"half zero-point term {half_dw_mev:.6f} meV; "
                           f"TST vs Arrhenius relative difference {rel * 100:.4f}% (bound 1%)")


CRITERIA = (
    criterion_1_london_estimate,
    criterion_2_debye_magnitude,
    criterion_3_thermal_london_bound,
    criterion_4_thermal_debye_value,
    criterion_5_nonretarded_agreement,
    criterion_6_symmetry_suite,
    criterion_7_quadrature_robustness,
    criterion_8_tst_consistency,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion and return the results in order."""
    return [fn() for fn in CRITERIA]
