"""The half-space shift against its two-term asymptotes at both ends of z.

Per transition the scaled shift is I(a) / a^2 with a = z * gap_ratio and

    I(a) = int_1^inf dc' (c'^2 - 1) r(c') (1 - b^2 g(b)) / (4 c'^2),  b = 2 a c',

where g is the auxiliary function of Si/Ci (A&S 5.2.13), 0 < b^2 g(b) < 1.
The coefficients below are 1-D integrals of r(c'), taken here with
scipy's QUADPACK in u = 1/c'; neither the half-space code nor its
nested quadrature computes them.  Each bound on the next-order remainder
is rigorous up to the quadratures, which add their error estimates, so a
check holds at every z.  The z ranges drawn are where, for the pinned
materials, the bound plus ``error_eunit`` is a few per cent of the
second term or less, so the check tests that term.

Near field (non-retarded, a -> 0), with r_inf = r(inf):

    I(a) = (pi/8) r_inf / a + (J/4 - r_inf/2) + R,
    J = int_1^inf (1 - c'^-2) (r - r_inf) dc',

so shift / NR - 1 = S1 z + o(z) with S1 = (8/pi) (J / (4 r_inf) - 1/2) for
one transition.  Using int_0^inf (1 - b^2 g) db = pi, int_0^inf g db = pi/2
and g(b) < 1/2 + E1(b) < 1/2 + ln(1 + 1/b) =: phi(b) (A&S 5.1.20),

    |R| <= |r_inf| / (8a) (int_0^2a b^2 phi db + 2 pi a^2)
           + 1/4 int_1^inf (1 - c'^-2) |r - r_inf| min(1, b^2 phi(b)) dc'.

Far field (retarded Casimir-Polder, a -> inf): expanding 1/(1 + t^2) in
g(b) = int_0^inf t e^{-bt} / (1 + t^2) dt to three terms, with the rest
between 0 and 7!/b^8,

    I(a) / a^2 = C4 / a^4 - C6 / a^6 + R',  |R'| <= D8 / a^8,
    C4 = (3/8) int (c'^2 - 1) r c'^-4,  C6 = (15/8) int (c'^2 - 1) r c'^-6,
    D8 = (315/16) int (c'^2 - 1) |r| c'^-8.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chiral_vacuum import (
    MoleculeSpectrum,
    PasteurMaterial,
    halfspace_sweep,
    reflection_cross,
    reflection_limit,
)

# Each example runs the half-space quadrature once per transition, about
# 20-100 ms; the three reference materials are pinned as examples.
SLOW = settings(max_examples=5, deadline=None)

REFERENCE = [PasteurMaterial(1.0, 1.0, 0.4), PasteurMaterial(2.5, 1.3, 1.2),
             PasteurMaterial(1.0, 1.0, 1.0)]
ONE_TRANSITION = MoleculeSpectrum.two_level(2.0, 0.1)


# Below u = 1/c' = U0 the float difference r - r_inf has lost most of its
# digits; there r - r_inf = d u^2 (1 + O(u^2)) is taken from u = U0.
U0 = 1e-3


def _coefficients(mat):
    """(r_inf, J, C4, C6, D8, d) of ``mat``, each integral in u = 1/c'."""
    r_inf = reflection_limit(mat)

    def integrate(f, lo=0.0):
        return quad(lambda u: f(u, reflection_cross(1.0 / u, mat)), lo, 1.0,
                    epsabs=0.0, limit=200)[0]

    # (c'^2 - 1) c'^-2k dc' = (1 - u^2) u^(2k - 4) du
    d = (reflection_cross(1.0 / U0, mat) - r_inf) / U0**2
    j = d * U0 + integrate(lambda u, r: (1.0 - u * u) * (r - r_inf) / (u * u), U0)
    c4 = 3.0 / 8.0 * integrate(lambda u, r: (1.0 - u * u) * r)
    c6 = 15.0 / 8.0 * integrate(lambda u, r: (1.0 - u * u) * u * u * r)
    d8 = 315.0 / 16.0 * integrate(lambda u, r: (1.0 - u * u) * u**4 * abs(r))
    return r_inf, j, c4, c6, d8, d


def _phi(b):
    return 0.5 + math.log1p(1.0 / b)


# b^2 phi(b) rises through 1 at b = 0.8942...: the kink of min(1, b^2 phi(b))
B_STAR = 0.8942


def _near_remainder_bound(a, mat, r_inf, d):
    """Bound on |R| for I(a) above, at every a > 0.  Each quadrature
    counts with its error estimate added."""
    sliver = sum(quad(lambda b: b * b * _phi(b), 0.0, 2.0 * a, epsabs=0.0)[:2])

    # below U0, |r - r_inf| / u^2 stays within 1 % of |d| (within 6e-5
    # against 50-digit arithmetic over kappa_r, eps_r, mu_r)
    def tail(u):
        b = 2.0 * a / u
        excess = (1.01 * abs(d) if u < U0
                  else abs(reflection_cross(1.0 / u, mat) - r_inf) / (u * u))
        return (1.0 - u * u) * excess * min(1.0, b * b * _phi(b))

    # below u0, b > 1 and the min is 1
    u0 = min(U0, 2.0 * a)
    # U0, the kink, then decades: the tail falls as 1/u^2 from u ~ 2a up to 1
    points = {U0} if u0 < U0 else set()
    kink = 2.0 * a / B_STAR
    while kink < 1.0:
        points.add(kink)
        kink *= 10.0
    tail_bound = 1.01 * abs(d) * u0 + sum(quad(
        tail, u0, 1.0, epsabs=0.0, epsrel=1e-4, points=sorted(points) or None, limit=200)[:2])
    return abs(r_inf) / (8.0 * a) * (sliver + 2.0 * math.pi * a * a) + 0.25 * tail_bound


def _terms(z, mol):
    """(weight, a) of each transition: the scaled shift is sum weight * I(a) / a^2."""
    t0 = mol.transitions[0]
    return [((t.im_rot_strength / t0.im_rot_strength) * (t.gap_ev / t0.gap_ev)**3,
             z * t.gap_ev / t0.gap_ev) for t in mol.transitions]


def _normal(hi):
    # clear of the subnormal range, where the shift loses its relative precision
    return st.floats(1e-3, hi) | st.floats(-hi, -1e-3)


eps_mu = st.floats(0.1, 10.0)
materials = st.builds(lambda eps, mu, kappa_r: PasteurMaterial(eps, mu, kappa_r * math.sqrt(eps * mu)),
                      eps_mu, eps_mu, _normal(1.0) | st.just(0.0))
molecules = st.lists(st.tuples(st.floats(1.0, 3.0), _normal(1.0)), min_size=1, max_size=3).map(
    lambda ts: MoleculeSpectrum.from_lists([g for g, _ in ts], [s for _, s in ts]))


@pytest.mark.parametrize("mat,s1,c6_over_c4", [
    (REFERENCE[0], -1.6604, 0.7411),
    (REFERENCE[1], -1.9926, 0.6624),
    (REFERENCE[2], -1.4522, 0.9278),
])
def test_asymptote_coefficients_of_the_reference_materials(mat, s1, c6_over_c4):
    r_inf, j, c4, c6, _, _ = _coefficients(mat)
    assert (8.0 / math.pi) * (j / (4.0 * r_inf) - 0.5) == pytest.approx(s1, abs=5e-5)
    assert c6 / c4 == pytest.approx(c6_over_c4, abs=5e-5)


@SLOW
@given(z=st.floats(1e-4, 1e-2), mol=molecules, mat=materials)
@example(z=1e-4, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=1e-3, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=1e-3, mol=ONE_TRANSITION, mat=REFERENCE[2])
@example(z=1e-7, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=1e-7, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=1e-7, mol=ONE_TRANSITION, mat=REFERENCE[2])
@example(z=1e-12, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=1e-12, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=1e-12, mol=ONE_TRANSITION, mat=REFERENCE[2])
@example(z=1e-40, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=1e-40, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=1e-40, mol=ONE_TRANSITION, mat=REFERENCE[2])
@example(z=1e-100, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=1e-100, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=1e-100, mol=ONE_TRANSITION, mat=REFERENCE[2])
def test_near_field_is_nonretarded_plus_s1_term(z, mol, mat):
    r_inf, j, _, _, _, d = _coefficients(mat)
    (point,) = halfspace_sweep([z], mol, mat)
    asymptote = bound = 0.0
    for weight, a in _terms(z, mol):
        asymptote += weight * ((math.pi / 8.0) * r_inf / a**3 + (j / 4.0 - r_inf / 2.0) / a**2)
        bound += abs(weight) * _near_remainder_bound(a, mat, r_inf, d) / a**2
    assert abs(point.shift_eunit - asymptote) <= bound + point.error_eunit


@SLOW
@given(z=st.floats(10.0, 1e3), mol=molecules, mat=materials)
@example(z=30.0, mol=ONE_TRANSITION, mat=REFERENCE[0])
@example(z=30.0, mol=ONE_TRANSITION, mat=REFERENCE[1])
@example(z=100.0, mol=ONE_TRANSITION, mat=REFERENCE[2])
def test_far_field_is_casimir_polder_minus_c6_term(z, mol, mat):
    _, _, c4, c6, d8, _ = _coefficients(mat)
    (point,) = halfspace_sweep([z], mol, mat)
    asymptote = bound = 0.0
    for weight, a in _terms(z, mol):
        asymptote += weight * (c4 / a**4 - c6 / a**6)
        bound += abs(weight) * d8 / a**8
    assert abs(point.shift_eunit - asymptote) <= bound + point.error_eunit
