import math
import re
import warnings

import numpy as np
import pytest

from chiral_vacuum import (
    ReactionProfile,
    Thermal,
    selectivity,
    selectivity_sweep,
    selectivity_tst,
    tst_activation,
    zero_point_frequency_shift,
)

T300 = Thermal(300.0)


# ---------------------------------------------------------------- profile

def test_profile_validation():
    with pytest.raises(ValueError):
        ReactionProfile(0.0, 0.1)
    with pytest.raises(ValueError):
        ReactionProfile(1.0, -0.1)
    with pytest.raises(ValueError):
        # perturbation deeper than the well curvature
        ReactionProfile(1.0, 0.1, curvature_b_ev3=-2e9, mass_amu=12.0)


@pytest.mark.parametrize("omega,reason", [(1e200, "its square overflows"),
                                          (1e-200, "its square underflows to 0")])
def test_profile_omega_whose_square_leaves_the_float_range_is_named(omega, reason):
    message = f"omega_nu {omega!r} eV is out of range: {reason}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ReactionProfile(1.0, omega)


# ------------------------------------------------------------ selectivity

def test_zero_shift_gives_zero():
    assert selectivity(0.0, T300) == 0.0


def test_saturation_limits():
    assert selectivity(1e6, T300) == math.nextafter(1.0, 0.0)
    assert selectivity(-1e6, T300) == -math.nextafter(1.0, 0.0)
    assert abs(selectivity(1e6, T300)) < 1.0


def test_selectivity_at_53_mev():
    # 53 meV at 300 K: tanh(53 / 25.852)
    assert selectivity(53.0, T300) == pytest.approx(0.967, abs=1e-3)


def test_equals_tanh_identity():
    kbt_mev = T300.kbt_ev * 1e3
    for x in np.linspace(-30.0, 30.0, 201):
        assert abs(selectivity(x * kbt_mev, T300) - math.tanh(x)) < 1e-12


def test_exact_oddness_and_strict_bounds():
    for de in (0.1, 3.0, 26.0, 120.0, 4000.0):
        p = selectivity(de, T300)
        assert selectivity(-de, T300) == -p
        assert 0.0 < p < 1.0


def test_monotonicity():
    des = np.linspace(-90.0, 90.0, 37)
    ps = [selectivity(de, T300) for de in des]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    cold = [selectivity(de, Thermal(200.0)) for de in des]
    assert all(c > p for c, p in zip(cold, ps) if p > 0)


def test_requires_positive_temperature():
    with pytest.raises(ValueError):
        selectivity(10.0, Thermal(0.0))


# ------------------------------------------------------------- activation

def test_activation_arithmetic():
    assert tst_activation(ReactionProfile(1.0, 0.2)) == pytest.approx(0.9, rel=1e-15)


def test_activation_reduces_to_barrier_for_vanishing_vibration():
    # omega_nu must stay positive; the limit recovers the bare barrier
    assert tst_activation(ReactionProfile(1.0, 1e-12)) == pytest.approx(1.0, rel=1e-12)


def test_activation_slope_in_omega():
    base = ReactionProfile(1.0, 0.1)
    shifted = ReactionProfile(1.0, 0.3)
    delta = tst_activation(shifted) - tst_activation(base)
    assert delta == pytest.approx(-0.5 * 0.2, rel=1e-12)


def test_activation_warns_when_negative():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # building the profile does not warn
        profile = ReactionProfile(0.04, 0.1)
    with pytest.warns(UserWarning) as record:
        e_a = tst_activation(profile)
    assert len(record) == 1
    assert e_a == pytest.approx(0.04 - 0.05, rel=1e-12)


# ----------------------------------------------------- zero-point shift

def test_zero_perturbation_gives_exact_zero():
    assert zero_point_frequency_shift(ReactionProfile(1.0, 0.1, 0.0)) == 0.0


def test_small_perturbation_taylor_limit():
    profile = ReactionProfile(1.0, 0.1, 0.0, 12.0)
    b = 1e-3 * profile.mass_ev * 0.1**2  # |b|/(M w^2) = 1e-3
    perturbed = ReactionProfile(1.0, 0.1, b, 12.0)
    dw = zero_point_frequency_shift(perturbed)
    taylor = b / (2.0 * perturbed.mass_ev * 0.1)
    assert dw == pytest.approx(taylor, rel=1e-3)


def test_round_trip_defining_equation():
    rng = np.random.default_rng(123)
    for _ in range(50):
        omega = float(rng.uniform(0.02, 0.5))
        mass = float(rng.uniform(1.0, 40.0))
        m_ev = mass * 9.3149410242e8
        b = float(rng.uniform(-0.5, 2.0)) * m_ev * omega**2
        profile = ReactionProfile(1.0, omega, b, mass)
        dw = zero_point_frequency_shift(profile)
        lhs = m_ev * (omega + dw) ** 2
        rhs = m_ev * omega**2 + b
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# -------------------------------------------------------------- tst rate

def test_tst_reduces_bit_identically_without_perturbation():
    for b in (0.0, -0.0):
        profile = ReactionProfile(1.0, 0.1, b, 12.0)
        for de in (-53.0, -1.0, -0.0, 0.0, 0.3, 5.0, 53.0, 400.0, 1e300):
            p = selectivity(de, T300)
            assert selectivity_tst(de, profile, T300) == p
            assert math.copysign(1.0, selectivity_tst(de, profile, T300)) == math.copysign(1.0, p)


def test_tst_small_zero_point_correction():
    # b tuned so the zero-point term is 0.5*dw = 0.2 meV; at 53 meV the
    # TST and Arrhenius selectivities differ by well under 1%
    omega, mass = 0.1, 12.0
    m_ev = mass * 9.3149410242e8
    dw = 2.0 * 0.2e-3
    b = m_ev * (2.0 * omega * dw + dw * dw)
    profile = ReactionProfile(1.0, omega, b, mass)
    assert 0.5 * zero_point_frequency_shift(profile) * 1e3 == pytest.approx(0.2, abs=1e-9)
    p_arr = selectivity(53.0, T300)
    p_tst = selectivity_tst(53.0, profile, T300)
    assert abs(p_tst - p_arr) / p_arr < 0.01
    assert p_tst != p_arr


def test_tst_antisymmetry_under_joint_flip():
    # dw is odd in b only to first order, so the flip holds approximately
    omega, mass = 0.1, 12.0
    m_ev = mass * 9.3149410242e8
    b = 1e-3 * m_ev * omega**2
    plus = selectivity_tst(10.0, ReactionProfile(1.0, omega, b, mass), T300)
    minus = selectivity_tst(-10.0, ReactionProfile(1.0, omega, -b, mass), T300)
    assert abs(plus + minus) < 1e-5


# --------------------------------------------------------------- sweeps

def test_sweep_shape_and_ordering():
    rows = selectivity_sweep([-10.0, 0.0, 10.0], [200.0, 300.0])
    assert len(rows) == 6
    assert all(type(row) is tuple and len(row) == 3 for row in rows)
    assert [de for de, _, _ in rows] == [-10.0, -10.0, 0.0, 0.0, 10.0, 10.0]
    assert [t_k for _, t_k, _ in rows] == [200.0, 300.0] * 3
    assert rows[-1][2] == selectivity(10.0, T300)


def test_sweep_antisymmetric_for_symmetric_grid():
    grid = list(np.linspace(-60.0, 60.0, 25))
    ps = [p for _, _, p in selectivity_sweep(grid, [300.0])]
    assert all(a == -b for a, b in zip(ps, reversed(ps)))


def test_sweep_colder_curve_dominates():
    grid = [5.0, 20.0, 50.0]
    by_temp = {}
    for _, t_k, p in selectivity_sweep(grid, [200.0, 400.0]):
        by_temp.setdefault(t_k, []).append(p)
    assert all(c > h for c, h in zip(by_temp[200.0], by_temp[400.0]))


def test_sweep_sigmoid_saturates():
    ps = [p for _, _, p in selectivity_sweep([-5000.0, 0.0, 5000.0], [300.0])]
    assert ps[0] < -0.999999
    assert ps[1] == 0.0
    assert ps[2] > 0.999999


def test_sweep_with_profile_uses_tst():
    omega, mass = 0.1, 12.0
    b = 1e-4 * mass * 9.3149410242e8 * omega**2
    profile = ReactionProfile(1.0, omega, b, mass)
    rows = selectivity_sweep([30.0], [300.0], profile)
    assert rows == [(30.0, 300.0, selectivity_tst(30.0, profile, T300))]


def test_sweep_rejects_empty_grids():
    with pytest.raises(ValueError):
        selectivity_sweep([], [300.0])
    with pytest.raises(ValueError):
        selectivity_sweep([1.0], [])
