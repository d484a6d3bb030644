"""Built-in acceptance suite and the independent oracles it relies on.

Each criterion returns a :class:`CriterionResult`; ``run_all`` executes
the whole list.  The oracles here are deliberately primitive (dense
fixed-grid Simpson rules, Monte-Carlo rotation sampling, truncated
thermal sums) so they stay independent of the adaptive evaluation paths
they check.
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


# ---------------------------------------------------------------- oracles

def _simpson_weights(n_panels: int) -> np.ndarray:
    if n_panels % 2 != 0:
        raise ValueError("Simpson rule needs an even panel count")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


# Panels per axis of the dense oracle's two Simpson grids, and the x at
# which its outer grid starts (the [0, x_eps) sliver is a one-point stub).
_DENSE_PANELS = (2_000, 4_000)
_X_EPS = 1e-7


def _dense_simpson(z: float, material: PasteurMaterial, n: int) -> float:
    """Tensor-product Simpson rule on an n x n grid in the original
    (x, c') variables; the scaled shift of one transition at distance z."""
    a = z
    x_grid = np.linspace(_X_EPS, _T_CUTOFF, n + 1)
    wx = _simpson_weights(n) * (_T_CUTOFF - _X_EPS) / n
    # inner grid c = 1 + (T/x) * s with shared fractions s, so the
    # exponential factors exactly: exp(-2xc) = exp(-2x) exp(-2T s)
    s = np.arange(n + 1) / n
    wi_exp = _simpson_weights(n) * np.exp(-2.0 * _T_CUTOFF * s)
    f_vals = np.empty_like(x_grid)
    chunk = 256
    for i0 in range(0, len(x_grid), chunk):
        xs = x_grid[i0:i0 + chunk]
        span = _T_CUTOFF / xs[:, None]
        c = 1.0 + span * s[None, :]
        integ = reflection_cross(c, material)
        np.multiply(c, c, out=c)
        c -= 1.0
        integ *= c
        inner = (integ @ wi_exp) * (span[:, 0] / n) * np.exp(-2.0 * xs)
        f_vals[i0:i0 + chunk] = xs**3 * inner / (a * a + xs * xs)
    return (float(f_vals @ wx) + _X_EPS * f_vals[0]) / (a * a)


def oracle_dense_halfspace_shift(z: float, material: PasteurMaterial) -> tuple[float, float]:
    """Dense Simpson oracle for the scaled shift of one transition at z:
    :func:`_dense_simpson` at n and 2n panels (S1, S2) gives the Richardson
    value S2 + (S2 - S1)/15 and its error estimate |S2 - S1|/15."""
    s1, s2 = (_dense_simpson(z, material, n) for n in _DENSE_PANELS)
    return s2 + (s2 - s1) / 15.0, abs(s2 - s1) / 15.0


def isotropic_average(d, m, e_field, b_field) -> float:
    """Orientation average of Re[(R d . E)(R m . B)] over rotations R.

    The exact SO(3) average collapses to Re[(d . m)(E . B)] / 3, which
    this evaluates directly.  ``d`` and ``m`` are real 3-vectors; the
    field vectors may be complex (plain bilinear dot, no conjugation).
    """
    d = np.asarray(d, dtype=float)
    m = np.asarray(m, dtype=float)
    e_field = np.asarray(e_field, dtype=complex)
    b_field = np.asarray(b_field, dtype=complex)
    for name, v in (("d", d), ("m", m), ("e_field", e_field), ("b_field", b_field)):
        if v.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return float(np.real(np.dot(d, m) * np.dot(e_field, b_field)) / 3.0)


def random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``n`` rotation matrices uniformly (Haar) on SO(3).

    Uses normalized random quaternions, which give the unbiased uniform
    measure.  Returns an array of shape (n, 3, 3).
    """
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((n, 3, 3))
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def oracle_mc_isotropic_average(d, m, e_field, b_field, n_samples: int,
                                rng: np.random.Generator):
    """Monte-Carlo SO(3) orientation average; returns (mean, std_error)."""
    rot = random_rotations(n_samples, rng)
    rd = rot @ np.asarray(d, dtype=float)
    rm = rot @ np.asarray(m, dtype=float)
    vals = np.real((rd @ np.asarray(e_field, dtype=complex))
                   * (rm @ np.asarray(b_field, dtype=complex)))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


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
    [(val, err, failure)] = _shift_scaled([z], molecule, material, rel_tol)
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
    permuted = CavityModeSet(tuple(reversed(_TEN_MODES.modes)))
    if debye_shift_per_molecule(permuted, ens) != base:
        failures.append("Debye not invariant under mode-frequency permutation")

    rng = np.random.default_rng(20260810)
    d = rng.normal(size=3)
    m = rng.normal(size=3)
    e_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    b_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    mc, sigma = oracle_mc_isotropic_average(d, m, e_f, b_f, 100_000, rng)
    exact = isotropic_average(d, m, e_f, b_f)
    if abs(mc - exact) > 3.0 * sigma:
        failures.append(f"isotropic average off MC oracle by {abs(mc - exact) / sigma:.1f} sigma")

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
        dense, dense_err = oracle_dense_halfspace_shift(z, mat)
        adaptive, _ = _shift(z, _TWO_LEVEL, mat, failures)
        rel, rel_est = abs(dense - adaptive) / abs(dense), dense_err / abs(dense)
        worst, worst_est = max(worst, rel), max(worst_est, rel_est)
        if not rel_est <= 1e-8:
            failures.append(f"dense-grid estimate {rel_est:.2e} > 1e-8 at z={z}, kappa={kappa}")
        if rel > 1e-6:
            failures.append(f"dense-grid mismatch {rel:.2e} at z={z}, kappa={kappa}")

    passed = not failures
    detail = (f"max dense-grid deviation {worst:.2e} (bound 1e-6), its own estimate "
              f"{worst_est:.2e} (bound 1e-8); tolerance halving bounded"
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
