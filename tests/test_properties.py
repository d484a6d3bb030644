"""Property tests for the paper's exact invariants over random inputs.

Each property is an identity the code must meet bit for bit, so every
comparison is ``==``.  ``max_examples`` keeps each test well under 1 s.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chiral_vacuum import (
    CavityMode,
    CavityModeSet,
    MoleculeSpectrum,
    PasteurMaterial,
    PolarizedEnsemble,
    Thermal,
    chiral_shift_nonretarded,
    debye_shift_per_molecule,
    energy_unit_mev,
    halfspace_sweep,
    london_shift,
    reflection_cross,
    selectivity,
)
from chiral_vacuum.pasteur import _transition_weights

FAST = settings(max_examples=100, deadline=None)

gaps = st.floats(0.5, 10.0)
strengths = st.floats(-1.0, 1.0).filter(lambda s: s != 0.0)
molecules = st.lists(st.tuples(gaps, strengths), min_size=1, max_size=3).map(
    lambda ts: MoleculeSpectrum.from_lists([g for g, _ in ts], [s for _, s in ts]))
eps_mu = st.floats(0.1, 10.0)
kappa_rs = st.floats(-1.0, 1.0)
distances = st.floats(1e-3, 1e2)


def _material(eps, mu, kappa_r):
    # kappa_r * n / n never rounds past |kappa_r|, and is exact at +-1
    return PasteurMaterial(eps, mu, kappa_r * math.sqrt(eps * mu))


@FAST
@given(z=distances, mol=molecules, eps=eps_mu, mu=eps_mu, kappa_r=kappa_rs)
def test_nonretarded_scales_exactly_as_inverse_cube(z, mol, eps, mu, kappa_r):
    mat = _material(eps, mu, kappa_r)
    assert chiral_shift_nonretarded(z, mol, mat) == chiral_shift_nonretarded(1.0, mol, mat) / z**3


@FAST
@given(z=distances, mol=molecules, eps=eps_mu, mu=eps_mu, kappa_r=kappa_rs,
       c_prime=st.floats(1.0, 1e6))
def test_nonretarded_shift_and_reflection_are_odd_in_kappa(z, mol, eps, mu, kappa_r, c_prime):
    plus, minus = _material(eps, mu, kappa_r), _material(eps, mu, -kappa_r)
    assert chiral_shift_nonretarded(z, mol, minus) == -chiral_shift_nonretarded(z, mol, plus)
    assert reflection_cross(c_prime, minus) == -reflection_cross(c_prime, plus)


@FAST
@given(de=st.floats(-1e4, 1e4), temperature=st.floats(1.0, 1e4))
def test_selectivity_is_odd_and_bounded(de, temperature):
    thermal = Thermal(temperature)
    p = selectivity(de, thermal)
    assert selectivity(-de, thermal) == -p
    assert abs(p) < 1.0
    assert abs(p - math.tanh(de / (thermal.kbt_ev * 1e3))) <= 2.0 * math.ulp(1.0)


@FAST
@given(a=st.floats(-1e4, 1e4), b=st.floats(-1e4, 1e4), temperature=st.floats(1.0, 1e4))
def test_selectivity_is_monotone_in_delta_e(a, b, temperature):
    thermal = Thermal(temperature)
    lo, hi = min(a, b), max(a, b)
    assert selectivity(lo, thermal) <= selectivity(hi, thermal)


modes = st.lists(
    st.builds(CavityMode, omega_ev=st.floats(0.01, 5.0), veff_nm3=st.floats(0.01, 100.0),
              chirality_factor=st.floats(-0.5, 0.5)),
    min_size=1, max_size=10).map(lambda ms: CavityModeSet(tuple(ms)))
vectors = st.tuples(*[st.floats(-10.0, 10.0)] * 3)


@FAST
@given(mode_set=modes, d00=vectors, m00=vectors, n=st.integers(1, 10**9))
def test_debye_shift_is_exactly_linear_in_n(mode_set, d00, m00, n):
    one = debye_shift_per_molecule(mode_set, PolarizedEnsemble(d00, m00, 1))
    assert debye_shift_per_molecule(mode_set, PolarizedEnsemble(d00, m00, n)) == n * one


# Rotatory strengths, chirality factors and kappa_r kept clear of the
# subnormal range, where a sign flip is still exact but a scaling by
# 2**k is not.
def _normal(hi):
    return st.floats(1e-3, hi) | st.floats(-hi, -1e-3)


normal_molecules = st.lists(st.tuples(gaps, _normal(1.0)), min_size=1, max_size=3).map(
    lambda ts: MoleculeSpectrum.from_lists([g for g, _ in ts], [s for _, s in ts]))
normal_modes = st.builds(CavityMode, omega_ev=st.floats(0.01, 5.0), veff_nm3=st.floats(0.01, 100.0),
                         chirality_factor=_normal(0.5) | st.just(0.0))
normal_kappa_rs = _normal(1.0) | st.just(0.0)


def _scaled(mol, k):
    """``mol`` with every rotatory strength multiplied by 2**k."""
    return MoleculeSpectrum.from_lists([t.gap_ev for t in mol.transitions],
                                       [math.ldexp(t.im_rot_strength, k) for t in mol.transitions])


@FAST
@given(mode=normal_modes, mol=normal_molecules, k=st.integers(-4, 4))
def test_london_shift_is_odd_under_mirror_and_linear_in_im_r(mode, mol, k):
    # one mode per example: the sum over modes is an fsum of exact terms,
    # and a list of modes would double the drawing time
    mode_set = CavityModeSet((mode,))
    shift = london_shift(mode_set, mol)
    assert london_shift(mode_set, mol.mirror()) == -shift
    assert london_shift(mode_set, _scaled(mol, k)) == math.ldexp(shift, k)


@FAST
@given(z=distances, mol=normal_molecules, eps=eps_mu, mu=eps_mu, kappa_r=normal_kappa_rs,
       k=st.integers(-4, 4))
def test_halfspace_scales_are_odd_under_mirror_and_linear_in_im_r(z, mol, eps, mu, kappa_r, k):
    mat = _material(eps, mu, kappa_r)

    def values(m):
        # energy unit and non-retarded shift in meV; the weights carry no ImR scale
        e_mev = energy_unit_mev(m)
        return e_mev, chiral_shift_nonretarded(z, m, mat) * e_mev, _transition_weights(m)

    e_mev, nonretarded_mev, weights = values(mol)
    assert values(mol.mirror()) == (-e_mev, -nonretarded_mev, weights)
    assert values(_scaled(mol, k)) == (math.ldexp(e_mev, k), math.ldexp(nonretarded_mev, k),
                                       weights)


def test_sweep_shift_mev_is_odd_under_mirror_and_linear_in_im_r():
    # one fixed example: the full shift runs QUADPACK, too slow to draw many
    mol = MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
    mat = PasteurMaterial(2.0, 1.5, 0.6)
    z_grid = [0.3, 1.7]

    def shifts(m):
        return [r.shift_mev for r in halfspace_sweep(z_grid, m, mat)]

    base = shifts(mol)
    assert all(v != 0.0 for v in base)
    assert shifts(mol.mirror()) == [-v for v in base]
    for k in (-3, 2):
        assert shifts(_scaled(mol, k)) == [math.ldexp(v, k) for v in base]
