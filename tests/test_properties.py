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
    reflection_cross,
    selectivity,
)

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
