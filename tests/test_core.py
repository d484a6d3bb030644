import math

import numpy as np
import pytest

from chiral_vacuum import (
    MoleculeSpectrum,
    Thermal,
    Transition,
    bose_occupation,
)


# ---------------------------------------------------------------- types

def test_transition_rejects_nonpositive_gap():
    for gap, strength in [(0.0, 0.1), (-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1),
                          (2.0, math.inf), (2.0, -math.inf), (2.0, math.nan)]:
        with pytest.raises(ValueError):
            Transition(gap, strength)


def test_molecule_needs_transitions():
    with pytest.raises(ValueError):
        MoleculeSpectrum(())


def test_molecule_entries_must_be_transitions():
    # rejected where stored, not at the first shift as an AttributeError
    with pytest.raises(ValueError, match="^transitions entries must be Transition, got 2.0$"):
        MoleculeSpectrum([2.0, 3.0])


def test_mirror_negates_strengths_and_is_involution():
    mol = MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
    mirrored = mol.mirror()
    assert [t.im_rot_strength for t in mirrored.transitions] == [-0.1, 0.04]
    assert [t.gap_ev for t in mirrored.transitions] == [2.0, 3.5]
    assert mirrored.mirror() == mol


def test_thermal_rejects_negative_temperature():
    for value in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Thermal(value)
        with pytest.raises(ValueError):
            Thermal.from_kbt_ev(value)
    for value in (1e-320, 5e-324):  # k_B*T underflows to 0
        with pytest.raises(ValueError):
            Thermal(value)


def test_thermal_from_kbt():
    th = Thermal.from_kbt_ev(0.034)
    assert th.kbt_ev == pytest.approx(0.034, rel=1e-12)


# ------------------------------------------------------ bose occupation

def test_bose_zero_temperature_is_zero():
    assert bose_occupation(0.1, Thermal(0.0)) == 0.0


def test_bose_value_at_kbt_034():
    # 2 n_B(0.1/0.034) = 11% implies n_B ~ 0.0557
    n_b = bose_occupation(0.1, Thermal.from_kbt_ev(0.034))
    assert n_b == pytest.approx(0.0557, abs=1e-3)
    assert n_b == pytest.approx(0.05574722273070314, rel=1e-12)  # frozen


def test_bose_closed_form_at_log2():
    # beta omega = ln 2  =>  1/(2 - 1) = 1
    th = Thermal.from_kbt_ev(0.1 / math.log(2.0))
    assert bose_occupation(0.1, th) == pytest.approx(1.0, rel=1e-12)


def test_bose_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        bose_occupation(0.0, Thermal(300.0))
    with pytest.raises(ValueError):
        bose_occupation(-0.1, Thermal(300.0))


def test_bose_monotonic_in_omega_and_temperature():
    th = Thermal(300.0)
    omegas = np.linspace(0.01, 0.5, 25)
    vals = [bose_occupation(w, th) for w in omegas]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    temps = np.linspace(50.0, 800.0, 25)
    vals_t = [bose_occupation(0.1, Thermal(t)) for t in temps]
    assert all(b > a for a, b in zip(vals_t, vals_t[1:]))


def test_bose_no_overflow_for_huge_ratio():
    assert bose_occupation(100.0, Thermal(1.0)) == 0.0


@pytest.mark.parametrize("omega,temperature_k", [(1e-320, 1e300), (5e-324, 1e10)])
def test_bose_rejects_a_ratio_that_underflows_to_zero(omega, temperature_k):
    # 1/expm1(0) would divide by zero
    thermal = Thermal(temperature_k)
    with pytest.raises(ValueError, match="omega / k_B\\*T underflows to 0") as err:
        bose_occupation(omega, thermal)
    assert f"omega = {omega} eV" in str(err.value)
    assert f"k_B*T = {thermal.kbt_ev} eV" in str(err.value)


# --------------------------------------------------- isotropic average

# The orientation average that rotatory strengths stand for, and a
# Monte-Carlo oracle for it over Haar-random rotations.

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


def test_aligned_unit_vectors_give_third():
    ex = [1.0, 0.0, 0.0]
    assert isotropic_average(ex, ex, ex, ex) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_orthogonal_dipoles_vanish():
    rng = np.random.default_rng(7)
    d = np.array([1.0, 2.0, 0.5])
    m = np.array([2.0, -1.0, 0.0])  # d.m = 0
    assert abs(np.dot(d, m)) < 1e-15
    for _ in range(5):
        e_f = rng.normal(size=3) + 1j * rng.normal(size=3)
        b_f = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert isotropic_average(d, m, e_f, b_f) == 0.0


def test_parity_flip_and_bilinearity():
    rng = np.random.default_rng(11)
    d = rng.normal(size=3)
    m = rng.normal(size=3)
    e_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    b_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    base = isotropic_average(d, m, e_f, b_f)
    assert isotropic_average(-d, m, e_f, b_f) == pytest.approx(-base, rel=1e-12)
    assert isotropic_average(2.0 * d, m, e_f, b_f) == pytest.approx(2.0 * base, rel=1e-12)
    assert isotropic_average(d, m, 3.0 * e_f, b_f) == pytest.approx(3.0 * base, rel=1e-12)


def test_matches_monte_carlo_rotation_oracle():
    rng = np.random.default_rng(20260810)
    d = rng.normal(size=3)
    m = rng.normal(size=3)
    e_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    b_f = rng.normal(size=3) + 1j * rng.normal(size=3)
    mc, sigma = oracle_mc_isotropic_average(d, m, e_f, b_f, 100_000, rng)
    exact = isotropic_average(d, m, e_f, b_f)
    assert abs(mc - exact) < 3.0 * sigma


def test_shape_validation():
    with pytest.raises(ValueError):
        isotropic_average([1.0, 2.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


# -------------------------------------------------------- rotations

def test_random_rotations_are_orthogonal_with_unit_determinant():
    rng = np.random.default_rng(3)
    rot = random_rotations(200, rng)
    eye = np.eye(3)
    for r in rot:
        assert np.allclose(r @ r.T, eye, atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_random_rotations_spread_uniformly():
    # a fixed vector rotated by Haar samples has zero mean direction
    rng = np.random.default_rng(5)
    rot = random_rotations(20_000, rng)
    imgs = rot @ np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(imgs.mean(axis=0)) < 0.02
