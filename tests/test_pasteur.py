import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiral_vacuum import pasteur

from chiral_vacuum import (
    MoleculeSpectrum,
    PasteurMaterial,
    QuadratureError,
    chiral_shift_halfspace,
    chiral_shift_nonretarded,
    energy_unit_mev,
    halfspace_sweep,
    length_unit_nm,
    reflection_cross,
    reflection_limit,
)
from chiral_vacuum.pasteur import _shift_scaled

MOL = MoleculeSpectrum.two_level(2.0, 0.1)
VACUUMLIKE = PasteurMaterial(1.0, 1.0, 0.4)


@pytest.fixture
def failing(monkeypatch):
    """A subdivision limit too small to converge at z = 1e-3 (but enough at 0.5)."""
    monkeypatch.setattr(pasteur, "MAX_SUBDIVISIONS", 10)


# ------------------------------------------------------------- material

def test_material_rejects_bad_parameters():
    for params in [
        (-1.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 1.0, 1.5),  # kappa_r out of [-1, 1]
        (math.inf, 1.0, 0.0),
        (1.0, math.inf, 0.5),
        (math.nan, 1.0, 0.0),
        (1.0, 1.0, math.inf),
        (1e-200, 1e-200, 0.0),  # eps_r * mu_r underflows to 0
        (1e200, 1e200, 0.0),  # eps_r * mu_r overflows to inf
        (1e-200, 1e200, 0.3),  # mu_r / eps_r overflows to inf
        (1e200, 1e-200, 0.3),  # mu_r / eps_r underflows to 0
    ]:
        with pytest.raises(ValueError):
            PasteurMaterial(*params)


def test_kappa_r_uses_index():
    mat = PasteurMaterial(4.0, 1.0, 1.5)  # kappa_r = 0.75, allowed
    assert mat.kappa_r == pytest.approx(0.75)
    assert mat.impedance_ratio == pytest.approx(0.5)


# ------------------------------------------------------------ reflection

def test_reflection_vanishes_without_chirality():
    grid = np.array([1.0, 1.3, 2.0, 7.0, 1e8, 1e300])  # the formula overflows at 1e300
    for eps, mu in [(1.0, 1.0), (2.25, 1.0), (3.0, 1.5)]:
        for kappa in (0.0, -0.0):
            mat = PasteurMaterial(eps, mu, kappa)
            for r in (reflection_cross(2.0, mat), reflection_cross(1e300, mat), reflection_limit(mat)):
                assert r == 0.0 and math.copysign(1.0, r) == 1.0  # +0.0, not -0.0
            assert not np.any(np.signbit(reflection_cross(grid, mat)))
            assert np.all(reflection_cross(grid, mat) == 0.0)


def test_reflection_where_the_formula_overflows_is_the_limit():
    # c'^2 / (eps_r mu_r) beyond the float range: inf - inf would reach QUADPACK
    for mat in [VACUUMLIKE, PasteurMaterial(2.25, 1.1, -0.7), PasteurMaterial(1.0, 1.0, 0.0)]:
        limit = reflection_limit(mat)
        for c in (5e153, 1e155, 1e300, math.inf):  # at 5e153 den overflows while num does not
            r = reflection_cross(c, mat)
            if mat.eps_r == 2.25 and c == 5e153:  # den is 1.1e308: the formula holds
                exact = _reflection_decimal(c, mat)
                assert abs(Decimal(r) - exact) <= Decimal(1e-15) * abs(exact)
                continue
            assert r == limit
            assert math.copysign(1.0, r) == math.copysign(1.0, limit)
        # c' = inf, also in an array, is r_inf to the bit
        for r in reflection_cross(np.array([1e300, math.inf]), mat):
            assert r == limit and math.copysign(1.0, r) == math.copysign(1.0, limit)
    endpoint = PasteurMaterial(2.0, 3.0, math.sqrt(6.0))  # kappa_r = 1
    for c in (1e155, 1e300, math.inf):
        assert reflection_cross(c, endpoint) == reflection_limit(endpoint)
    assert list(reflection_cross(np.array([math.inf]), endpoint)) == [reflection_limit(endpoint)]
    # eta = 1e20 at kappa_r = 1: 1 + eta^2 overflows in float32, but a
    # float32 c' = 1 computes at float64, a scalar and an array alike
    endpoint = PasteurMaterial(1e-20, 1e20, 1.0)
    exact = float(_reflection_decimal(1.0, endpoint))
    assert reflection_cross(np.float32(1.0), endpoint) == pytest.approx(exact, rel=1e-15)
    (r,) = reflection_cross(np.array([1.0], dtype=np.float32), endpoint)
    assert r == pytest.approx(exact, rel=1e-15)
    # a kappa = 0 shift down to the smallest z whose z**3 is not 0 stays exactly
    # +0.0, and an eps_r mu_r near underflow computes (a NaN node can crash QUADPACK)
    for z in (1e-100, 1.351817985853457e-108):
        [(_, val, err, failure)] = _shift_scaled([z], MOL, PasteurMaterial(1.0, 1.0, 0.0))
        assert (val, err, failure) == (0.0, 0.0, None) and math.copysign(1.0, val) == 1.0
    [(_, val, err, failure)] = _shift_scaled([1e-3], MOL, PasteurMaterial(1e-200, 1e-100, 1e-151))
    assert math.isfinite(val) and math.isfinite(err) and failure is None


def test_reflection_large_cprime_limit():
    # algebraic limit -2 kappa / (4 - kappa^2) for eps_r = mu_r = 1
    r = reflection_cross(1e6, VACUUMLIKE)
    assert r == pytest.approx(-2.0 * 0.4 / (4.0 - 0.16), abs=1e-6)
    assert r == pytest.approx(-0.20833333, abs=1e-6)


def test_reflection_limit_closed_form():
    assert reflection_limit(VACUUMLIKE) == pytest.approx(-2.0 * 0.4 / (4.0 - 0.16), rel=1e-14)
    # general material: compare against a far-field evaluation
    mat = PasteurMaterial(2.25, 1.1, 0.5)
    assert reflection_limit(mat) == pytest.approx(
        float(reflection_cross(1e8, mat)), rel=1e-7)
    assert reflection_limit(PasteurMaterial(2.0, 1.0, 0.0)) == 0.0
    endpoint = PasteurMaterial(2.0, 3.0, math.sqrt(6.0))  # kappa_r = 1
    assert reflection_limit(endpoint) == pytest.approx(
        float(reflection_cross(1e8, endpoint)), rel=1e-7)


def test_reflection_limit_where_its_direct_denominator_overflows():
    # n^2 (1 - kappa_r^2) = 9.1e307 and den = 1.8e308, or eta = 1e154 and
    # 2 (1 + eta^2) = inf at n = 1: the limit had been -0.0
    for mat, exact in [(PasteurMaterial(1e154, 1e154, 3e153), -6.593406593406593e-155),
                       (PasteurMaterial(1e-154, 1e154, 0.5), -1e-154)]:
        assert reflection_limit(mat) == pytest.approx(exact, rel=1e-15)
        assert reflection_cross(1e200, mat) == reflection_limit(mat)
        assert chiral_shift_nonretarded(1.0, MOL, mat) < 0.0


def test_reflection_odd_in_kappa():
    for c in (1.0, 1.3, 2.0, 7.0, 100.0):
        for kappa in (0.1, 0.25, 0.4, 1.0):
            plus = reflection_cross(c, PasteurMaterial(1.0, 1.0, kappa))
            minus = reflection_cross(c, PasteurMaterial(1.0, 1.0, -kappa))
            assert minus == -plus  # exact: c'_+ and c'_- swap roles


def test_reflection_endpoint_is_the_limit_of_nearby_kappa():
    grid = np.array([1.0, 1.3, 2.0, 7.0, 100.0])
    for eps, mu in [(1.0, 1.0), (2.0, 3.0)]:
        n = math.sqrt(eps * mu)
        for sign in (1.0, -1.0):
            end = reflection_cross(grid, PasteurMaterial(eps, mu, sign * n))
            near = reflection_cross(grid, PasteurMaterial(eps, mu, sign * (1.0 - 1e-9) * n))
            assert np.all(np.isfinite(end))
            # the limit is not uniform at c' = 1, where r = 0 for |kappa_r| < 1
            assert end[1:] == pytest.approx(near[1:], rel=1e-6)
            assert reflection_cross(2.0, PasteurMaterial(eps, mu, sign * n)) == end[2]


def test_reflection_rejects_cprime_below_one():
    # NaN too, which the overflow guard would otherwise turn into the c' -> inf
    # limit; an array goes through the scalar's float rule, so what float()
    # refuses, a complex dtype or a NaN entry is refused by name as well
    for arg in (0.99, math.nan, np.float64("nan"), np.array([1.5, 0.5]),
                np.array([1.5, math.nan]), np.array(["abc"]),
                np.array(10**5000, dtype=object), np.array([None], dtype=object),
                np.array([np.nan]), np.array([1 + 2j]), np.array([0.5])):
        with pytest.raises(ValueError, match="^c_prime must be"):
            reflection_cross(arg, VACUUMLIKE)
    # an entry below 1 is named as the scalar is
    for arg in (0.5, np.array([1.5, 0.5]), np.array(0.5, dtype=np.float32)):
        with pytest.raises(ValueError) as info:
            reflection_cross(arg, VACUUMLIKE)
        assert str(info.value) == "c_prime must be >= 1, got 0.5"


def test_reflection_dispatch_keeps_the_value_bits_and_type_of_each_argument_kind():
    # every scalar, np.float64 included, is computed as its float on the
    # math.sqrt branch with its NaN guard; an ndarray (0-d included) takes the
    # numpy branch.  The values are those of the version that imported numpy
    # at module level.
    mat = PasteurMaterial(2.0, 1.5, 0.5)  # both are the 60-digit values, rounded
    r_17, r_2 = float.fromhex("-0x1.e825d68328289p-5"), float.fromhex("-0x1.33cef2758346ep-4")
    for arg, kind, value in [
        (1.7, float, r_17),
        (2, float, r_2),
        (np.float64(1.7), float, r_17),
        (np.int64(2), float, r_2),
        (np.array(1.7), np.float64, r_17),  # numpy returns a 0-d result as a scalar
    ]:
        r = reflection_cross(arg, mat)
        assert type(r) is kind and float(r).hex() == value.hex(), arg
    r = reflection_cross(np.array([1.7, 2.0]), mat)
    assert type(r) is np.ndarray and r.dtype == np.float64
    assert [float(v).hex() for v in r] == [r_17.hex(), r_2.hex()]
    # c'^2 overflows: the scalar guard returns the limit, with no numpy
    # overflow warning, which pytest's filter would raise
    r = reflection_cross(np.float64(1e300), mat)
    assert type(r) is float and r == reflection_limit(mat)


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_reflection_of_a_low_precision_argument_is_its_float64_evaluation(dtype):
    # like the material's constants, a float16 or float32 c' computes at
    # float64: at (2, 1.5, 0.6) and c' = 1.7 float32 arithmetic was 4.5e-8
    # off and float16 1.1e-3
    mat = PasteurMaterial(2.0, 1.5, 0.6)
    c = dtype(1.7)
    r = reflection_cross(c, mat)
    assert type(r) is float and r.hex() == reflection_cross(float(c), mat).hex()
    array = np.array([1.7, 2.0, 1e4], dtype=dtype)
    r = reflection_cross(array, mat)
    assert r.dtype == np.float64
    assert [v.hex() for v in r.tolist()] == [
        reflection_cross(v, mat).hex() for v in array.astype(float).tolist()]


def _reflection_cross_per_call(c_prime, material):
    """Reference: r(c') with every material constant recomputed per call."""
    kr = material.kappa_r
    if kr == 0.0:
        return np.zeros_like(c_prime) if isinstance(c_prime, np.ndarray) else 0.0
    sqrt = np.sqrt if isinstance(c_prime, np.ndarray) else math.sqrt
    eta = material.impedance_ratio
    t = (c_prime - 1.0) * (c_prime + 1.0) / (material.eps_r * material.mu_r)
    if kr == 1.0 or kr == -1.0:
        c_finite = sqrt(1.0 + t / 4.0)
        return -kr * 2.0 * eta * c_prime / ((1.0 + eta * eta) * c_prime + 2.0 * eta * c_finite)
    cp = sqrt(1.0 + t / (1.0 + kr) ** 2)
    cm = sqrt(1.0 + t / (1.0 - kr) ** 2)
    num = 2.0 * eta * (-4.0 * kr / ((1.0 - kr) * (1.0 + kr)) ** 2) * c_prime * (t / (cp + cm))
    den = (1.0 + eta * eta) * c_prime * (cp + cm) + 2.0 * eta * (c_prime * c_prime + cp * cm)
    return num / den


BIT_IDENTITY_MATERIALS = [
    PasteurMaterial(1.0, 1.0, 0.0),
    PasteurMaterial(2.25, 1.1, 0.0),
    PasteurMaterial(1.0, 1.0, 1.0),
    PasteurMaterial(1.0, 1.0, -1.0),
    PasteurMaterial(2.0, 3.0, math.sqrt(6.0)),  # kappa_r = 1, eps*mu = 6
    PasteurMaterial(2.0, 3.0, -math.sqrt(6.0)),
    PasteurMaterial(1.0, 1.0, 0.5),
    PasteurMaterial(1.0, 1.0, -0.5),
    PasteurMaterial(4.0, 1.0, 1.0),  # kappa_r = 0.5, eps*mu = 4
    PasteurMaterial(4.0, 1.0, -1.0),
    PasteurMaterial(2.25, 1.1, 0.7),
    PasteurMaterial(0.3, 7.0, -1.2),
]


@pytest.mark.parametrize("mat", BIT_IDENTITY_MATERIALS, ids=repr)
def test_reflection_is_bit_identical_to_per_call_formula(mat):
    grid = np.concatenate([[1.0, 1.0 + 1e-12, 1.3, 2.0, 7.0, 100.0, 1e8],
                           np.geomspace(1.0, 1e6, 97)])
    assert np.array_equal(reflection_cross(grid, mat), _reflection_cross_per_call(grid, mat))
    for c in grid:
        assert reflection_cross(float(c), mat) == _reflection_cross_per_call(float(c), mat)


def test_material_constants_stay_out_of_the_dataclass_surface():
    mat = PasteurMaterial(2.25, 1.1, 0.5)
    assert [f.name for f in dataclasses.fields(mat)] == ["eps_r", "mu_r", "kappa"]
    assert repr(mat) == "PasteurMaterial(eps_r=2.25, mu_r=1.1, kappa=0.5)"
    assert mat == PasteurMaterial(2.25, 1.1, 0.5)
    assert mat != PasteurMaterial(2.25, 1.1, -0.5)
    assert hash(mat) == hash((2.25, 1.1, 0.5))
    mirrored = dataclasses.replace(mat, kappa=-0.5)
    assert mirrored == PasteurMaterial(2.25, 1.1, -0.5)
    assert reflection_cross(2.0, mirrored) == _reflection_cross_per_call(2.0, mirrored)
    assert reflection_cross(2.0, mirrored) == -reflection_cross(2.0, mat)


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(0.1, 10.0), mu=st.floats(0.1, 10.0), kappa_r=st.floats(-1.0, 1.0),
       c_prime=st.floats(1.0, 1e6) | st.floats(1.0, 1e300),
       tiny=st.sampled_from([1.0, 1e-140, 1e-155]), skew=st.sampled_from([1.0, 1e150]))
@example(eps=1.0, mu=1.0, kappa_r=0.4, c_prime=1.5, tiny=1.0, skew=1.0)
@example(eps=0.1, mu=10.0, kappa_r=1.0, c_prime=1.0, tiny=1.0, skew=1.0)
@example(eps=10.0, mu=0.1, kappa_r=-1.0, c_prime=1e6, tiny=1.0, skew=1.0)
@example(eps=2.0, mu=3.0, kappa_r=0.0, c_prime=3.0, tiny=1.0, skew=1.0)
@example(eps=1.0, mu=1.0, kappa_r=0.4, c_prime=1e154, tiny=1.0, skew=1.0)
@example(eps=1.0, mu=1.0, kappa_r=0.4, c_prime=1.01, tiny=1e-155, skew=1.0)
@example(eps=1.0, mu=1.0, kappa_r=0.4, c_prime=1e5, tiny=1.0, skew=1e150)
def test_reflection_vectorized_matches_scalar(eps, mu, kappa_r, c_prime, tiny, skew):
    # kappa_r * n / n never rounds past |kappa_r|, and is exact at +-1.  The
    # scalar body, with float or np.float64 arithmetic, and the array body
    # give the same bits, also where the formula overflows: at a huge c',
    # or at moderate c' for a tiny eps_r mu_r or a large mu_r / eps_r.
    eps, mu = eps * tiny / skew, mu * tiny * skew
    mat = PasteurMaterial(eps, mu, kappa_r * math.sqrt(eps * mu))
    (vec,) = reflection_cross(np.array([c_prime]), mat)
    with np.errstate(over="ignore", invalid="ignore"):  # np.float64 scalars warn
        scalar64 = reflection_cross(np.float64(c_prime), mat)
    bits = {float(r).hex() for r in (vec, reflection_cross(c_prime, mat), scalar64)}
    assert len(bits) == 1, bits


def _reflection_decimal(c_prime: float, material: PasteurMaterial) -> Decimal:
    """r(c') from the formula of reflection_cross in 60-digit decimals, at
    the material's eps_r, mu_r and kappa_r."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, eps, mu = Decimal(c_prime), Decimal(material.eps_r), Decimal(material.mu_r)
        kr = Decimal(material.kappa_r)
        eta, t = (mu / eps).sqrt(), (c * c - 1) / (eps * mu)
        if abs(kr) == 1:
            return -kr * 2 * eta * c / ((1 + eta * eta) * c + 2 * eta * (1 + t / 4).sqrt())
        cp, cm = (1 + t / (1 + kr) ** 2).sqrt(), (1 + t / (1 - kr) ** 2).sqrt()
        # cp - cm as a difference of squares: the plain difference of two
        # roots near 1 cancels within 60 digits once t is below ~1e-45
        diff = -4 * kr * t / ((1 - kr) * (1 + kr)) ** 2 / (cp + cm)
        return 2 * eta * c * diff / ((1 + eta * eta) * c * (cp + cm)
                                     + 2 * eta * (c * c + cp * cm))


@pytest.mark.parametrize("mat", [
    VACUUMLIKE,  # c'^2 overflows above 1.3e154
    PasteurMaterial(1e-155, 1e-155, 0.4e-155),  # eps_r mu_r = 1e-310: t overflows at c' = 1.01
    PasteurMaterial(1e-150, 1e-150, 0.4e-150),
    PasteurMaterial(1e-150, 1e150, 0.4),  # mu_r / eps_r = 1e300: den overflows at c' = 1e4
    PasteurMaterial(1e-140, 1e-140, (1.0 - 1e-12) * 1e-140),  # 1 - kappa_r = 1e-12
    PasteurMaterial(1e-155, 1e-155, math.sqrt(1e-155 * 1e-155)),  # kappa_r = 1
    PasteurMaterial(1e150, 1e-150, -1.0),  # kappa_r = -1, mu_r / eps_r = 1e-300
], ids=repr)
def test_reflection_where_the_formula_overflows_matches_a_60_digit_evaluation(mat):
    grid = sorted({1.0, 1.01, 1.5, 1.34e4, *np.geomspace(1.0, 1e300, 301).tolist()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the array body
        vec = reflection_cross(np.array(grid), mat)
    for c, r_vec in zip(grid, vec):
        exact = _reflection_decimal(c, mat)
        for r in (reflection_cross(c, mat), float(r_vec)):
            assert abs(Decimal(r) - exact) <= Decimal(1e-12) * abs(exact), (c, r, exact)


@st.composite
def _wide_materials(draw, decades: float):
    """eps_r and mu_r in 10^[-decades, decades], with eps_r mu_r and mu_r / eps_r
    in 10^[-307, 307]; kappa_r uniform in [-1, 1] or within 1e-16 ... 0.1 of +-1."""
    x = draw(st.floats(-decades, decades))
    y = draw(st.floats(max(-decades, -307.0 - x, x - 307.0), min(decades, 307.0 - x, x + 307.0)))
    eps, mu = 10.0 ** x, 10.0 ** y
    gap = draw(st.floats(0.0, 1.0) | st.floats(-16.0, -1.0).map(lambda d: 10.0 ** d))
    kappa_r = draw(st.sampled_from([1.0, -1.0])) * (1.0 - gap)
    return PasteurMaterial(eps, mu, kappa_r * math.sqrt(eps * mu))


def _reflection_limit_decimal(material: PasteurMaterial) -> Decimal:
    """r(inf) = -4 eta kappa_r n / (2 (1 + eta^2) n + 2 eta (n^2 (1 - kappa_r^2) + 1))
    in 60-digit decimals, at the material's eps_r, mu_r and kappa_r."""
    with localcontext() as ctx:
        ctx.prec = 60
        eps, mu, kr = Decimal(material.eps_r), Decimal(material.mu_r), Decimal(material.kappa_r)
        n, eta = (eps * mu).sqrt(), (mu / eps).sqrt()
        return -4 * eta * kr * n / (2 * (1 + eta * eta) * n + 2 * eta * (n * n * (1 - kr * kr) + 1))


@settings(max_examples=300, deadline=None)
@given(mat=_wide_materials(150.0))
@example(mat=PasteurMaterial(1e100, 1e100, 1e100 * (1.0 - 1e-8)))
def test_reflection_limit_matches_a_60_digit_evaluation(mat):
    # 1 - kappa_r^2 is taken as (1 - kappa_r)(1 + kappa_r): as 1 - kappa_r
    # kappa_r it cancels where n^2 (1 - kappa_r^2) dominates the denominator
    exact = _reflection_limit_decimal(mat)
    assert abs(Decimal(reflection_limit(mat)) - exact) <= Decimal(1e-15) * abs(exact)


@settings(max_examples=300, deadline=None)
@given(mat=_wide_materials(200.0),
       c_prime=st.floats(0.0, 300.0).map(lambda u: 10.0 ** u) | st.floats(1.0, 1e300))
@example(mat=PasteurMaterial(1.8050908342409035e194, 7.744467986063282e110, 3.53400900404577e152),
         c_prime=8.629918540925154e156)
def test_reflection_is_exactly_odd_in_kappa_everywhere(mat, c_prime):
    # also where the formula overflows and the scaled form takes over
    mirror = dataclasses.replace(mat, kappa=-mat.kappa)
    assert reflection_cross(c_prime, mirror) == -reflection_cross(c_prime, mat)
    grid = np.array([1.0, 1.5, c_prime, 1e300])
    assert np.array_equal(reflection_cross(grid, mirror), -reflection_cross(grid, mat))
    assert reflection_limit(mirror) == -reflection_limit(mat)


@pytest.mark.parametrize("kappa_r", [1e-20, 1e-12, 1e-6, -1e-12])
@pytest.mark.parametrize("eps,mu", [(1.0, 1.0), (2.25, 1.1)])
def test_reflection_keeps_its_digits_at_small_kappa_and_near_cprime_one(kappa_r, eps, mu):
    # c'_+ - c'_- and c'^2 - 1 are taken without cancellation
    mat = PasteurMaterial(eps, mu, kappa_r * math.sqrt(eps * mu))
    grid = [1.0 + 1e-7, 1.0001, 3.0, 1e8]
    for c, r_vec in zip(grid, reflection_cross(np.array(grid), mat)):
        exact = _reflection_decimal(c, mat)
        for r in (reflection_cross(c, mat), float(r_vec)):
            assert abs(Decimal(r) - exact) <= Decimal(2e-15) * abs(exact), (c, r, exact)


def test_reflection_keeps_its_digits_near_cprime_one_at_a_large_eps_mu_product():
    # t = (c'^2 - 1) / (eps_r mu_r) = 2.4e-58, where the reference's cp - cm
    # must not cancel either: as a plain difference it read 2.815e-70
    mat = PasteurMaterial(38549902078.28667, 4.863302210903312e31, -7.075334002241292e18)
    c = 1.0 + 2.0**-52
    exact = _reflection_decimal(c, mat)
    for r in (reflection_cross(c, mat), float(reflection_cross(np.array([c]), mat)[0])):
        assert abs(Decimal(r) - exact) <= Decimal(1e-15) * abs(exact), (r, exact)


def test_shift_at_tiny_kappa_is_kappa_times_its_slope():
    # the shift is odd in kappa, so kappa S1 is right to O(kappa^3); a
    # cancelling r(c') had given 0.0 with a 0.0 error from kappa = 1e-17
    s1 = chiral_shift_halfspace(0.5, MOL, PasteurMaterial(1.0, 1.0, 1e-6)) / 1e-6
    for kappa in (1e-8, 1e-12, 1e-16, 1e-17, 1e-100, 1e-300):
        [r] = halfspace_sweep([0.5], MOL, PasteurMaterial(1.0, 1.0, kappa))
        assert r.shift_eunit * s1 > 0.0 and r.warning is None
        assert abs(r.shift_eunit - kappa * s1) <= r.error_eunit, kappa


# ------------------------------------------------------- nonretarded law

def test_nonretarded_exact_cubic_scaling():
    s1 = chiral_shift_nonretarded(0.37, MOL, VACUUMLIKE)
    s2 = chiral_shift_nonretarded(0.74, MOL, VACUUMLIKE)
    assert s2 * 8.0 == s1


def test_nonretarded_zero_kappa():
    assert chiral_shift_nonretarded(0.5, MOL, PasteurMaterial(1.0, 1.0, 0.0)) == 0.0


def test_nonretarded_closed_form_value():
    # (pi/8) r(inf) (z_unit/z)^3 at z = 0.1 z_unit, kappa = 0.4
    expected = (math.pi / 8.0) * (-2.0 * 0.4 / (4.0 - 0.16)) * 1000.0
    got = chiral_shift_nonretarded(0.1, MOL, VACUUMLIKE)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-81.8, rel=1e-3)


def test_nonretarded_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        chiral_shift_nonretarded(0.0, MOL, VACUUMLIKE)


# ------------------------------------------------------------ full shift

def test_shift_zero_kappa_is_exactly_zero():
    val = chiral_shift_halfspace(0.5, MOL, PasteurMaterial(1.0, 1.0, 0.0))
    assert val == 0.0 and math.copysign(1.0, val) == 1.0
    for kappa in (0.0, -0.0):  # exactly +0.0, which the CSV would tell from -0.0
        for r in halfspace_sweep([1e-3, 0.5, 7.0], MOL, PasteurMaterial(2.25, 1.1, kappa)):
            assert (r.shift_eunit, r.shift_mev, r.error_eunit) == (0.0, 0.0, 0.0)
            assert math.copysign(1.0, r.shift_eunit) == math.copysign(1.0, r.shift_mev) == 1.0


def test_shift_odd_in_kappa():
    [(_, plus, err_p, fail_p)] = _shift_scaled([0.5], MOL, PasteurMaterial(1.0, 1.0, 0.2))
    [(_, minus, err_m, fail_m)] = _shift_scaled([0.5], MOL, PasteurMaterial(1.0, 1.0, -0.2))
    assert fail_p is None and fail_m is None
    assert abs(plus + minus) <= 2.0 * (err_p + err_m)


def test_shift_odd_under_molecule_mirror():
    plus = chiral_shift_halfspace(0.5, MOL, VACUUMLIKE) * energy_unit_mev(MOL)
    mirrored = chiral_shift_halfspace(0.5, MOL.mirror(), VACUUMLIKE) \
        * energy_unit_mev(MOL.mirror())
    assert mirrored == pytest.approx(-plus, rel=1e-12)


def test_shift_linear_in_rotatory_strength():
    base = chiral_shift_halfspace(0.5, MOL, VACUUMLIKE) * energy_unit_mev(MOL)
    scaled_mol = MoleculeSpectrum.two_level(2.0, 0.4)
    scaled = chiral_shift_halfspace(0.5, scaled_mol, VACUUMLIKE) \
        * energy_unit_mev(scaled_mol)
    assert scaled == pytest.approx(4.0 * base, rel=1e-14)


def test_nonretarded_agreement_close_in():
    # the short-distance law holds to 1% at z = 1e-3 z_unit, also at kappa_r = +-1
    for kappa in (0.4, 1.0, -1.0):
        material = PasteurMaterial(1.0, 1.0, kappa)
        full = chiral_shift_halfspace(1e-3, MOL, material)
        nr = chiral_shift_nonretarded(1e-3, MOL, material)
        assert abs(full - nr) / abs(nr) < 0.01


def test_shift_at_kappa_r_endpoints_is_odd_and_continuous():
    for z in (0.01, 0.5, 5.0):
        plus = chiral_shift_halfspace(z, MOL, PasteurMaterial(1.0, 1.0, 1.0))
        minus = chiral_shift_halfspace(z, MOL, PasteurMaterial(1.0, 1.0, -1.0))
        assert minus == -plus
        near = chiral_shift_halfspace(z, MOL, PasteurMaterial(1.0, 1.0, 1.0 - 1e-9))
        assert plus == pytest.approx(near, rel=1e-5)


def test_nonretarded_departure_at_tenth_zunit():
    # confirmed from the computed curve: ~13.9% at z = 0.1 z_unit
    full = chiral_shift_halfspace(0.1, MOL, VACUUMLIKE)
    nr = chiral_shift_nonretarded(0.1, MOL, VACUUMLIKE)
    rel = abs(full - nr) / abs(nr)
    assert 0.01 < rel < 0.15


def test_shift_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        chiral_shift_halfspace(-0.5, MOL, VACUUMLIKE)


@pytest.mark.parametrize("strengths", [[5e-324, 1.0], [1e-300, 1e10]])
@pytest.mark.parametrize("material", [PasteurMaterial(), VACUUMLIKE], ids=["kappa0", "kappa"])
def test_scaled_shifts_reject_an_overflowing_transition_weight(strengths, material):
    # ImR_2 / ImR_1 overflows: the scaled shift would be inf, or NaN at kappa = 0
    mol = MoleculeSpectrum.from_lists([2.0, 2.0], strengths)
    message = f"rotatory strength {strengths[1]!r} against {strengths[0]!r} is out of range"
    for shift in (chiral_shift_halfspace, chiral_shift_nonretarded):
        with pytest.raises(ValueError, match=message):
            shift(1.0, mol, material)


def test_a_transition_whose_weight_underflows_keeps_its_near_field_share():
    # ImR_2/ImR_1 (E_2/E_1)^3 underflows to 0 below E_2/E_1 ~ 1e-108, but the
    # second transition still adds (pi/8) r_inf ImR_2/ImR_1 / z^3
    one = chiral_shift_halfspace(1.0, MOL, VACUUMLIKE)
    shifts = [chiral_shift_halfspace(
        1.0, MoleculeSpectrum.from_lists([2.0, 2.0 * ratio], [0.1, 0.1]), VACUUMLIKE)
        for ratio in (1e-100, 1e-110, 1e-140)]
    assert shifts == pytest.approx([shifts[0]] * 3, rel=1e-12)
    assert shifts[0] - one == pytest.approx(chiral_shift_nonretarded(1.0, MOL, VACUUMLIKE),
                                            rel=1e-12)
    # ImR_2/ImR_1 overflows while (E_2/E_1)^3 underflows: the weight is inf * 0;
    # or (E_2/E_1)^3 overflows: one check for both
    for gaps, strengths in [([2.0, 2e-110], [1e-200, 1e200]), ([1.0, 1e110], [0.1, 0.1])]:
        mol = MoleculeSpectrum.from_lists(gaps, strengths)
        for shift in (chiral_shift_halfspace, chiral_shift_nonretarded):
            with pytest.raises(ValueError, match="weight overflows"):
                shift(1.0, mol, VACUUMLIKE)
    # a^2 subnormal: the outer integrand g(x) / (a^2 + x^2) overflows, below
    # a ~ 1e-155 at kappa = 0.4 and ~ 1e-160 at kappa = 1e-10
    for gap, kappa in [(2e-155, 0.4), (2e-161, 1e-10)]:
        mol = MoleculeSpectrum.from_lists([2.0, gap], [0.1, 0.1])
        with pytest.raises(ValueError, match="out of range: the integral at a = "):
            chiral_shift_halfspace(1.0, mol, PasteurMaterial(1.0, 1.0, kappa))


def test_multi_transition_superposition():
    mol_a = MoleculeSpectrum.two_level(2.0, 0.1)
    mol_b = MoleculeSpectrum.two_level(3.0, 0.05)
    both = MoleculeSpectrum.from_lists([2.0, 3.0], [0.1, 0.05])
    z = 0.5
    total_mev = chiral_shift_halfspace(z, both, VACUUMLIKE) * energy_unit_mev(both)
    sum_mev = (chiral_shift_halfspace(z, mol_a, VACUUMLIKE) * energy_unit_mev(mol_a)
               + chiral_shift_halfspace(z * 3.0 / 2.0, mol_b, VACUUMLIKE)
               * energy_unit_mev(mol_b))
    assert total_mev == pytest.approx(sum_mev, rel=1e-7)


# ----------------------------------------------------------------- sweep

def test_single_point_sweep_reduces_to_direct_call():
    res = halfspace_sweep([0.5], MOL, VACUUMLIKE)
    assert len(res) == 1
    assert res[0].shift_eunit == chiral_shift_halfspace(0.5, MOL, VACUUMLIKE)
    assert res[0].warning is None
    # kappa_r = +-1 and kappa = 0: each point of a longer sweep, bit for bit
    grid = [1e-2, 0.5, 5.0]
    for kappa in (1.0, -1.0, 0.0):
        material = PasteurMaterial(1.0, 1.0, kappa)
        res = halfspace_sweep(grid, MOL, material)
        assert [r.warning for r in res] == [None] * len(grid)
        assert [repr(r.shift_eunit) for r in res] == [
            repr(chiral_shift_halfspace(z, MOL, material)) for z in grid]


def test_sweep_magnitude_decays_with_distance():
    grid = [0.1, 0.3, 0.6, 1.0, 1.5, 2.0]
    res = halfspace_sweep(grid, MOL, VACUUMLIKE)
    mags = [abs(r.shift_eunit) for r in res]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_kappa_ordering_at_fixed_distance():
    weak = chiral_shift_halfspace(0.5, MOL, PasteurMaterial(1.0, 1.0, 0.2))
    strong = chiral_shift_halfspace(0.5, MOL, PasteurMaterial(1.0, 1.0, 0.4))
    assert abs(strong) > abs(weak)


def test_sweep_rejects_a_point_whose_value_in_mev_overflows():
    # shift_eunit is finite (-8.18e28), but times the energy unit (8.13e290 meV) it is not
    with pytest.raises(ValueError, match=r"^z = 1e-10 is out of range: a value in meV overflows"):
        halfspace_sweep([1e-10], MoleculeSpectrum.two_level(1e100, 1.0), VACUUMLIKE)


def test_sweep_unit_fields_self_consistent():
    res = halfspace_sweep([0.3, 0.9], MOL, VACUUMLIKE)
    e_mev = energy_unit_mev(MOL)
    for r in res:
        assert r.shift_mev == r.shift_eunit * e_mev
        assert r.error_eunit >= 0.0


SHARED_MOL = MoleculeSpectrum.from_lists([2.0, 3.1], [0.1, -0.04])
SHARED_MAT = PasteurMaterial(2.0, 1.5, 0.6)
SHARED_GRID = [float(z) for z in np.geomspace(1e-3, 1e2, 11)]


@pytest.fixture(scope="module")
def shared_kernel_runs():
    """The sweep and its points run one by one, each as a one-point grid,
    with every x passed to _g_kernel recorded."""
    calls = []
    g_kernel = pasteur._g_kernel

    def counted(x, material, rel_tol):
        calls.append(x)
        return g_kernel(x, material, rel_tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pasteur, "_g_kernel", counted)
        sweep = halfspace_sweep(SHARED_GRID, SHARED_MOL, SHARED_MAT)
        sweep_calls = list(calls)
        calls.clear()
        points = [_shift_scaled([z], SHARED_MOL, SHARED_MAT)[0][1:] for z in SHARED_GRID]
    return sweep, sweep_calls, points, calls


def test_sweep_sharing_the_kernel_equals_independent_points(shared_kernel_runs):
    sweep, _, points, _ = shared_kernel_runs
    assert [(r.shift_eunit, r.error_eunit, r.warning) for r in sweep] == points


def test_sweep_integrates_each_kernel_node_once(shared_kernel_runs):
    _, sweep_calls, _, point_calls = shared_kernel_runs
    assert len(sweep_calls) == len(set(sweep_calls))
    assert set(sweep_calls) == set(point_calls)
    assert len(sweep_calls) < len(point_calls)


def test_an_inner_failure_alone_is_the_point_failure(monkeypatch):
    # the outer quadrature converges, and one x of the inner one fails
    g_kernel = pasteur._g_kernel
    failed = []

    def failing_once(x, material, rel_tol):
        value, error, failure = g_kernel(x, material, rel_tol)
        if not failed:
            failed.append(x)
            return value, error, "inner failure at one x"
        return value, error, failure

    monkeypatch.setattr(pasteur, "_g_kernel", failing_once)
    [point] = halfspace_sweep([0.5], MOL, VACUUMLIKE)
    assert point.warning == "inner quadrature: inner failure at one x"
    monkeypatch.undo()
    assert point.shift_eunit == chiral_shift_halfspace(0.5, MOL, VACUUMLIKE)


def test_sweep_deterministic():
    a = halfspace_sweep([0.4, 0.8], MOL, VACUUMLIKE)
    b = halfspace_sweep([0.4, 0.8], MOL, VACUUMLIKE)
    assert a == b


def test_sweep_reports_per_point_failures_without_aborting(failing):
    res = halfspace_sweep([1e-3, 0.5], MOL, VACUUMLIKE)
    assert len(res) == 2
    assert res[0].warning is not None and res[1].warning is None
    for r in res:
        assert math.isfinite(r.shift_eunit)


def test_point_failure_raises_with_partial_value(failing):
    with pytest.raises(QuadratureError) as err:
        chiral_shift_halfspace(1e-3, MOL, VACUUMLIKE)
    assert math.isfinite(err.value.value)
    assert math.isfinite(err.value.error_estimate)


def test_sweep_warning_carries_the_point_failure_message(failing):
    with pytest.raises(QuadratureError) as err:
        chiral_shift_halfspace(1e-3, MOL, VACUUMLIKE)
    (res,) = halfspace_sweep([1e-3], MOL, VACUUMLIKE)
    assert res.warning == str(err.value)
    assert res.shift_eunit == err.value.value
    assert res.error_eunit == err.value.error_estimate


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        halfspace_sweep([], MOL, VACUUMLIKE)


@pytest.mark.parametrize("grid,message", [
    ([0.5, 1.0, 2.0, 1e-108], "z = 1e-108 is out of range: z**3 leaves the float range"),
    ([0.5, 1e-200], "z = 1e-200 is out of range: (1e-200)**2 underflows to 0"),
    ([0.5, -1.0], "z must be positive, got -1.0"),
])
def test_sweep_checks_every_z_before_the_first_quadrature(grid, message, monkeypatch):
    # the message is the bad point's alone; no node of any point is spent on it
    calls = []

    def counted(c_prime, material):
        calls.append(c_prime)
        return reflection_cross(c_prime, material)

    monkeypatch.setattr(pasteur, "reflection_cross", counted)
    for bad_grid in (grid, grid[-1:]):
        with pytest.raises(ValueError) as err:
            halfspace_sweep(bad_grid, MOL, VACUUMLIKE)
        assert str(err.value) == message
    assert calls == []
    chiral_shift_halfspace(grid[0], MOL, VACUUMLIKE)  # the counter sees every node
    assert calls


@pytest.mark.parametrize("z", [-1.0, 1e-200, 1e-120, 1e-108, 1e-104, 1e103])
def test_point_and_sweep_reject_the_same_z_before_any_node(z, monkeypatch):
    # one check pass serves both entries: the same message, and no node spent
    calls = []

    def counted(c_prime, material):
        calls.append(c_prime)
        return reflection_cross(c_prime, material)

    monkeypatch.setattr(pasteur, "reflection_cross", counted)
    with pytest.raises(ValueError) as point:
        chiral_shift_halfspace(z, MOL, VACUUMLIKE)
    with pytest.raises(ValueError) as sweep:
        halfspace_sweep([z], MOL, VACUUMLIKE)
    assert str(point.value) == str(sweep.value) and repr(z) in str(point.value)
    assert calls == []


def test_strengths_summing_to_zero_give_no_nan():
    # the non-retarded value is -0.0 while each transition's term overflows,
    # so the sum would be inf - inf = NaN
    mol = MoleculeSpectrum.from_lists([2.0, 3.0], [0.1, -0.1])
    for shift in (chiral_shift_halfspace, lambda z, *args: halfspace_sweep([z], *args)):
        with pytest.raises(ValueError) as err:
            shift(1e-105, mol, VACUUMLIKE)
        assert str(err.value) == "z = 1e-105 is out of range: the shift overflows"


def test_halving_tolerance_stays_within_estimate():
    for z in (0.3, 1.0):
        [(_, val, est, failure)] = _shift_scaled([z], MOL, VACUUMLIKE)
        [(_, val2, _, failure2)] = _shift_scaled([z], MOL, VACUUMLIKE, rel_tol=pasteur.REL_TOL / 2.0)
        assert failure is None and failure2 is None
        assert abs(val - val2) < est


# ----------------------------------------------------------------- units

def test_scale_factors():
    assert length_unit_nm(MOL) == pytest.approx(197.3269804 / 2.0, rel=1e-7)
    # independent SI evaluation of mu0 ImR E^3 / (3 pi^2 hbar^3 c^2)
    import scipy.constants as sc
    imr = 0.1 * sc.e * sc.physical_constants["Bohr radius"][0] \
        * sc.physical_constants["Bohr magneton"][0]
    e_j = 2.0 * sc.e
    expect = sc.mu_0 * imr * e_j**3 / (3.0 * math.pi**2 * sc.hbar**3 * sc.c**2) \
        / sc.e * 1e3
    assert energy_unit_mev(MOL) == pytest.approx(expect, rel=1e-6)

