"""Property tests for the paper's exact invariants over random inputs.

Most properties are identities the code must meet bit for bit, so the
comparison is ``==``.  Some check inputs: every domain constructor
rejects a non-finite float, a numpy scalar gives the result of the float
of the same value, a numpy integer count that of the int, any
sequence of the same transitions or modes one object, any sequence of
the same floats one result, and a string, a number or an empty sequence
a ``ValueError`` naming the argument, as is any value ``float()`` refuses.
One checks that the half-space shift's reported error bounds its
distance from the acceptance oracle.
``max_examples`` keeps each test well under 1 s, and the error-bound
property at about 1 s.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiral_vacuum import (
    CavityMode,
    CavityModeSet,
    MoleculeSpectrum,
    PasteurMaterial,
    PolarizedEnsemble,
    ReactionProfile,
    Thermal,
    Transition,
    bose_occupation,
    cavity_shift_report,
    chiral_shift_halfspace,
    chiral_shift_nonretarded,
    debye_shift_per_molecule,
    energy_unit_mev,
    halfspace_sweep,
    london_shift,
    reflection_cross,
    selectivity,
    selectivity_sweep,
    selectivity_tst,
    thermal_ratio_debye,
    thermal_ratio_london,
    zero_point_frequency_shift,
)
from chiral_vacuum.acceptance import oracle_dense_halfspace_shift
from chiral_vacuum.pasteur import _shift_scaled, _transition_weights

FAST = settings(max_examples=100, deadline=None)
SLOW = settings(max_examples=8, deadline=None)
PER_ENTRY = settings(max_examples=25, deadline=None)  # 17 entries share one property

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


def _rejected(mol, shift, *args):
    """Whether a transition weight ImR_i/ImR_1 (E_i/E_1)^3 of ``mol``
    overflows, as a subnormal ImR_1 can make it; if so, ``shift(*args)``
    must raise, since no scaled shift exists."""
    try:
        _transition_weights(mol)
    except ValueError:
        with pytest.raises(ValueError, match="weight overflows"):
            shift(*args)
        return True
    return False


@FAST
@given(z=distances, mol=molecules, eps=eps_mu, mu=eps_mu, kappa_r=kappa_rs)
def test_nonretarded_scales_exactly_as_inverse_cube(z, mol, eps, mu, kappa_r):
    mat = _material(eps, mu, kappa_r)
    if _rejected(mol, chiral_shift_nonretarded, z, mol, mat):
        return
    assert chiral_shift_nonretarded(z, mol, mat) == chiral_shift_nonretarded(1.0, mol, mat) / z**3


@FAST
@given(z=distances, mol=molecules, eps=eps_mu, mu=eps_mu, kappa_r=kappa_rs,
       c_prime=st.floats(1.0, 1e6))
def test_nonretarded_shift_and_reflection_are_odd_in_kappa(z, mol, eps, mu, kappa_r, c_prime):
    plus, minus = _material(eps, mu, kappa_r), _material(eps, mu, -kappa_r)
    assert reflection_cross(c_prime, minus) == -reflection_cross(c_prime, plus)
    if _rejected(mol, chiral_shift_nonretarded, z, mol, plus):
        return
    assert chiral_shift_nonretarded(z, mol, minus) == -chiral_shift_nonretarded(z, mol, plus)


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


@FAST
@given(mode_set=modes, d00=vectors, m00=vectors, n=st.integers(1, 10**9),
       temperature=st.floats(1.0, 1e4))
def test_thermal_debye_shift_is_the_sum_of_per_mode_ratios(mode_set, d00, m00, n, temperature):
    ens, thermal = PolarizedEnsemble(d00, m00, n), Thermal(temperature)
    shift = debye_shift_per_molecule(mode_set, ens, thermal=thermal)
    assert shift == math.fsum(
        debye_shift_per_molecule(CavityModeSet((m,)), ens) * thermal_ratio_debye(m.omega_ev, thermal)
        for m in mode_set.modes)
    assert debye_shift_per_molecule(mode_set, ens, thermal=Thermal(0.0)) == \
        debye_shift_per_molecule(mode_set, ens)


@FAST
@given(mode_set=modes, d00=vectors, m00=vectors, n=st.integers(1, 10**9),
       temperature=st.floats(1.0, 1e4))
@example(mode_set=CavityModeSet.ladder(0.1, 0.1, 10, 0.2, -0.5), d00=(0.2, -0.1, 0.3),
         m00=(0.4, 1.0, -0.2), n=5, temperature=300.0)
def test_debye_shift_is_odd_under_mirror(mode_set, d00, m00, n, temperature):
    # mirror() is the parity image (-d, m), which negates d_x m_y - d_y m_x
    ens = PolarizedEnsemble(d00, m00, n)
    for thermal in (Thermal(0.0), Thermal(temperature)):
        assert debye_shift_per_molecule(mode_set, ens.mirror(), thermal=thermal) == \
            -debye_shift_per_molecule(mode_set, ens, thermal=thermal)


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
        # energy unit and non-retarded shift in meV; the ratios carry no ImR scale
        e_mev = energy_unit_mev(m)
        return e_mev, chiral_shift_nonretarded(z, m, mat) * e_mev, _transition_weights(m)

    e_mev, nonretarded_mev, ratios = values(mol)
    assert values(mol.mirror()) == (-e_mev, -nonretarded_mev, ratios)
    assert values(_scaled(mol, k)) == (math.ldexp(e_mev, k), math.ldexp(nonretarded_mev, k),
                                       ratios)


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


# Valid keyword arguments of each domain constructor.  The curvature
# perturbation stays far above -M omega^2 (M is about 1e10 eV).
_VALID_KWARGS = {
    Transition: st.fixed_dictionaries({"gap_ev": gaps, "im_rot_strength": strengths}),
    Thermal: st.fixed_dictionaries({"temperature_k": st.floats(1.0, 1e4) | st.just(0.0)}),
    PasteurMaterial: st.builds(
        lambda eps, mu, kappa_r: {"eps_r": eps, "mu_r": mu,
                                  "kappa": kappa_r * math.sqrt(eps * mu)},
        eps_mu, eps_mu, kappa_rs),
    CavityMode: st.fixed_dictionaries({
        "omega_ev": st.floats(0.01, 5.0), "veff_nm3": st.floats(0.01, 100.0),
        "chirality_factor": st.floats(-0.5, 0.5)}),
    PolarizedEnsemble: st.fixed_dictionaries({
        "d00": vectors, "m00": vectors, "n_molecules": st.integers(1, 10**9)}),
    ReactionProfile: st.fixed_dictionaries({
        "barrier_ev": st.floats(0.01, 10.0), "omega_nu_ev": st.floats(0.01, 1.0),
        "curvature_b_ev3": st.floats(-1e3, 1e3), "mass_amu": st.floats(1.0, 100.0)}),
}


@pytest.mark.parametrize("cls", list(_VALID_KWARGS), ids=lambda cls: cls.__name__)
@FAST
@given(data=st.data(), bad=st.sampled_from([math.inf, -math.inf, math.nan,
                                            None, "abc", object(), 10**400]))
def test_domain_constructors_reject_non_finite_floats(cls, data, bad):
    kwargs = data.draw(_VALID_KWARGS[cls])
    cls(**kwargs)
    # every float field, and every component of a vector field
    slots = [(name, None) for name, v in kwargs.items() if isinstance(v, float)] \
        + [(name, i) for name, v in kwargs.items() if isinstance(v, tuple) for i in range(3)]
    name, i = data.draw(st.sampled_from(slots))
    if i is None:
        value = bad
    else:
        value = list(kwargs[name])
        value[i] = bad
        value = tuple(value)
    with pytest.raises(ValueError, match=name):
        cls(**{**kwargs, name: value})


# The fields each domain constructor requires to be positive.
_POSITIVE_FIELDS = [
    (Transition, "gap_ev"), (PasteurMaterial, "eps_r"), (PasteurMaterial, "mu_r"),
    (CavityMode, "omega_ev"), (CavityMode, "veff_nm3"),
    (ReactionProfile, "barrier_ev"), (ReactionProfile, "omega_nu_ev"),
    (ReactionProfile, "mass_amu"),
]


@pytest.mark.parametrize("cls,name", _POSITIVE_FIELDS,
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
@FAST
@given(data=st.data(), bad=st.sampled_from([0.0, -0.0, -5e-324, -1.0, -2.0, -1e300]))
def test_domain_constructors_reject_zero_and_negative_positive_fields(cls, name, data, bad):
    kwargs = data.draw(_VALID_KWARGS[cls])
    cls(**kwargs)
    with pytest.raises(ValueError, match=name):
        cls(**{**kwargs, name: bad})


@SLOW
@given(z=distances, mol=molecules, eps=eps_mu, mu=eps_mu, kappa_r=kappa_rs)
@example(z=1.7e-3, mol=MoleculeSpectrum.two_level(2.0, 0.1), eps=0.2, mu=5.0, kappa_r=1.0)
@example(z=0.5, mol=MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04]), eps=2.5, mu=1.3,
         kappa_r=-1.0)
def test_reported_error_bounds_the_distance_from_the_oracle(z, mol, eps, mu, kappa_r):
    mat = _material(eps, mu, kappa_r)
    if _rejected(mol, chiral_shift_halfspace, z, mol, mat):
        return
    # the shift_eunit and error_eunit of halfspace_sweep, which would also
    # need an energy unit, and rejects a subnormal rotatory strength for it
    [(_, shift, error, _)] = _shift_scaled([z], mol, mat)
    value = estimate = 0.0
    for gap_ratio, strength_ratio in _transition_weights(mol):
        weight = strength_ratio * gap_ratio**3
        v, err = oracle_dense_halfspace_shift(z * gap_ratio, mat)
        value += weight * v
        estimate += abs(weight) * err
    assert abs(shift - value) <= error + estimate


_MOLECULE = MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
_MODES = CavityModeSet.ladder(0.1, 0.1, 10, veff_nm3=0.2, chirality_factor=-0.5)

# Each public entry that takes floats: (the name each float is rejected
# under, a valid value of each, call).  A call returns what it stores and
# what it computes from it.  The half-space sweep runs at kappa = 0, where
# the quadrature is quick.  A mode energy meets a fixed 300 K, where
# omega/kT of a drawn value is often moderate.
_FLOAT_ENTRIES = {
    "Transition": ("gap_ev im_rot_strength", (2.0, 0.1), lambda g, s: (
        Transition(g, s), energy_unit_mev(MoleculeSpectrum.two_level(g, s)))),
    "PasteurMaterial": ("eps_r mu_r kappa", (2.0, 1.5, 0.6), lambda e, m, k: (
        PasteurMaterial(e, m, k), chiral_shift_nonretarded(1.0, _MOLECULE,
                                                           PasteurMaterial(e, m, k)))),
    "Thermal": ("temperature_k", (300.0,), lambda t: (Thermal(t), Thermal(t).kbt_ev)),
    "CavityMode": ("omega_ev veff_nm3 chirality_factor", (0.5, 0.2, -0.5), lambda w, v, c: (
        CavityMode(w, v, c), london_shift(CavityModeSet((CavityMode(w, v, c),)), _MOLECULE))),
    "PolarizedEnsemble": ("d00 d00 d00 m00 m00 m00", (0.2, 0.0, 0.0, 0.0, 1.0, 0.0),
                          lambda *dm: (PolarizedEnsemble(dm[:3], dm[3:], 7),
                                       debye_shift_per_molecule(
                                           _MODES, PolarizedEnsemble(dm[:3], dm[3:], 7)))),
    "ReactionProfile": ("barrier_ev omega_nu_ev curvature_b_ev3 mass_amu", (1.0, 0.1, 0.0, 12.0),
                        lambda *p: (ReactionProfile(*p),
                                    zero_point_frequency_shift(ReactionProfile(*p)))),
    "selectivity": ("delta_e_mev temperature_k", (1.5, 300.0),
                    lambda de, t: selectivity(de, Thermal(t))),
    "selectivity_tst": ("delta_e_mev curvature_b_ev3", (1.5, 1.0), lambda de, b: selectivity_tst(
        de, ReactionProfile(1.0, 0.1, b), Thermal(300.0))),
    "chiral_shift_nonretarded": ("z", (1.0,), lambda z: chiral_shift_nonretarded(
        z, _MOLECULE, PasteurMaterial(2.0, 1.5, 0.6))),
    "halfspace_sweep": ("z", (1.0,), lambda z: halfspace_sweep([z], _MOLECULE,
                                                               PasteurMaterial())),
    "reflection_cross": ("c_prime", (2.0,), lambda c: reflection_cross(
        c, PasteurMaterial(2.0, 1.5, 0.6))),
    "bose_occupation": ("omega_ev", (0.1,), lambda w: bose_occupation(w, Thermal(300.0))),
    "thermal_ratio_debye": ("omega_ev", (0.1,), lambda w: thermal_ratio_debye(w, Thermal(300.0))),
    "thermal_ratio_london": ("omega_ev gap_ev temperature_k", (0.1, 2.0, 300.0),
                             lambda w, g, t: thermal_ratio_london(w, g, Thermal(t))),
    "Thermal.from_kbt_ev": ("kbt_ev", (0.025,), Thermal.from_kbt_ev),
    "CavityModeSet.ladder": ("start_ev step_ev", (0.1, 0.1),
                             lambda w, dw: CavityModeSet.ladder(w, dw, 10, 0.2, -0.5)),
    "selectivity_sweep": ("delta_e_mev temperature_k curvature_b_ev3", (1.5, 300.0, 1.0),
                          lambda de, t, b: (selectivity_sweep([de], [t]), selectivity_sweep(
                              [de], [t], ReactionProfile(1.0, 0.1, b)))),
}


def _outcome(call, args):
    """repr of the result, which shows every bit and every type, or the
    exception's type and message."""
    try:
        return repr(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", list(_FLOAT_ENTRIES))
@PER_ENTRY
@given(data=st.data(), np_type=st.sampled_from([np.float64, np.float32]))
def test_numpy_scalar_gives_the_float_result(name, data, np_type):
    names, _, call = _FLOAT_ENTRIES[name]
    n = len(names.split())
    # floats the numpy type holds exactly; some drawn near the valid range
    width = 32 if np_type is np.float32 else 64
    values = data.draw(st.lists(st.floats(width=width) | st.floats(-16.0, 16.0, width=width),
                                min_size=n, max_size=n))
    assert _outcome(call, [np_type(v) for v in values]) == _outcome(call, values)


@pytest.mark.parametrize("name", list(_FLOAT_ENTRIES))
@pytest.mark.parametrize("bad", [None, "abc", object(), 10**400, math.nan, 10**5000,
                                 np.complex128(2 + 1j), np.complex64(2 + 1j), np.complex128(2)],
                         ids=["None", "str", "object", "10**400", "nan", "10**5000",
                              "complex128", "complex64", "complex128-real"])
def test_a_value_that_float_refuses_is_rejected_naming_the_argument(name, bad):
    # a TypeError, a ValueError or an OverflowError of float() alike, NaN, an
    # int too long for repr, and a numpy complex scalar, whose float() would
    # take its real part, even where its imaginary part is 0
    names, valid, call = _FLOAT_ENTRIES[name]
    call(*valid)
    for i, arg in enumerate(names.split()):
        args = list(valid)
        args[i] = bad
        with pytest.raises(ValueError, match=f"^{arg} must be a number, got "):
            call(*args)


# Each public entry that takes a count: (argument name, call).  A call
# returns what it stores and, for the ensemble, what it computes from it.
_COUNT_ENTRIES = {
    "PolarizedEnsemble": ("n_molecules", lambda n: (
        PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), n),
        debye_shift_per_molecule(_MODES, PolarizedEnsemble((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), n)))),
    "CavityModeSet.ladder": ("count", lambda n: CavityModeSet.ladder(0.1, 0.1, n, 0.2, -0.5)),
}
_NP_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("name", list(_COUNT_ENTRIES))
@PER_ENTRY
@given(data=st.data(), np_type=st.sampled_from(_NP_INTEGERS))
def test_numpy_integer_gives_the_int_result(name, data, np_type):
    _, call = _COUNT_ENTRIES[name]
    n = data.draw(st.integers(max(-3, int(np.iinfo(np_type).min)), 40))
    assert _outcome(call, [np_type(n)]) == _outcome(call, [n])


@pytest.mark.parametrize("name", list(_COUNT_ENTRIES))
@pytest.mark.parametrize("bad", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None])
def test_a_bool_or_non_integer_count_is_rejected_naming_it(name, bad):
    arg, call = _COUNT_ENTRIES[name]
    with pytest.raises(ValueError, match=f"^{arg} must be a positive integer"):
        call(bad)


@pytest.mark.parametrize("name", list(_COUNT_ENTRIES))
@pytest.mark.parametrize("bad,shown", [(-10**5000, "a negative int of 16610 bits"),
                                       ("x" * 200, repr("x" * 200)[:80])],
                         ids=["-10**5000", "200 characters"])
def test_a_refused_count_is_shown_in_at_most_80_characters(name, bad, shown):
    arg, call = _COUNT_ENTRIES[name]
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{arg} must be a positive integer, got {shown}"


def _object_array(entries):
    array = np.empty(len(entries), dtype=object)
    array[:] = entries
    return array


_SEQUENCE_FORMS = {"list": list, "tuple": tuple, "generator": lambda es: (e for e in es),
                   "object array": _object_array}


@FAST
@given(mol=molecules, mode_set=modes, form=st.sampled_from(list(_SEQUENCE_FORMS)))
@example(mol=MoleculeSpectrum.from_lists([2.0, 3.0], [0.1, 0.05]),
         mode_set=CavityModeSet.ladder(0.1, 0.1, 3, 0.2, -0.5), form="generator")
def test_any_sequence_of_the_same_entries_gives_one_object(mol, mode_set, form):
    # a generator is drained once, when it is stored, and not by the first sum
    make = _SEQUENCE_FORMS[form]
    same_mol = MoleculeSpectrum(make(list(mol.transitions)))
    same_modes = CavityModeSet(make(list(mode_set.modes)))
    assert same_mol == mol and hash(same_mol) == hash(mol)
    assert same_modes == mode_set and hash(same_modes) == hash(mode_set)
    ens, thermal = PolarizedEnsemble((0.2, 0.3, 0.0), (0.0, 1.0, 0.4), 7), Thermal(300.0)
    for _ in range(2):
        assert london_shift(same_modes, same_mol) == london_shift(mode_set, mol)
        assert cavity_shift_report(same_modes, same_mol, thermal=thermal) == \
            cavity_shift_report(mode_set, mol, thermal=thermal)
        assert debye_shift_per_molecule(same_modes, ens, thermal=thermal) == \
            debye_shift_per_molecule(mode_set, ens, thermal=thermal)


# Each public function that takes a sequence of floats, called with each
# such argument made by one form.
_FUNCTION_ENTRIES = {
    "MoleculeSpectrum.from_lists": lambda make: MoleculeSpectrum.from_lists(
        make([2.0, 3.5]), make([0.1, -0.04])),
    "CavityModeSet.uniform": lambda make: CavityModeSet.uniform(make([0.1, 0.2, 0.3]), 0.2, -0.5),
    "halfspace_sweep": lambda make: halfspace_sweep(make([0.5, 2.0]), _MOLECULE,
                                                    PasteurMaterial(2.0, 1.5, 0.6)),
    "selectivity_sweep": lambda make: selectivity_sweep(make([-3.0, 0.0, 30.0]),
                                                        make([150.0, 300.0])),
}


@pytest.mark.parametrize("name", list(_FUNCTION_ENTRIES))
def test_any_sequence_of_the_same_floats_gives_one_result(name):
    call = _FUNCTION_ENTRIES[name]
    expected = repr(call(list))
    for form, make in {**_SEQUENCE_FORMS, "float array": np.array}.items():
        assert repr(call(make)) == expected, form


# Each public entry that takes a sequence: (argument name, call on it).
_SEQUENCE_ENTRIES = {
    "MoleculeSpectrum": ("transitions", MoleculeSpectrum),
    "CavityModeSet": ("modes", CavityModeSet),
    "PolarizedEnsemble.d00": ("d00", lambda d: PolarizedEnsemble(d, (0.0, 1.0, 0.0), 7)),
    "PolarizedEnsemble.m00": ("m00", lambda m: PolarizedEnsemble((0.2, 0.0, 0.0), m, 7)),
    "MoleculeSpectrum.from_lists.gaps": ("gaps_ev", lambda g: MoleculeSpectrum.from_lists(
        g, [0.1, 0.1, 0.1])),
    "MoleculeSpectrum.from_lists.strengths": ("strengths", lambda s: MoleculeSpectrum.from_lists(
        [2.0, 3.0, 4.0], s)),
    "CavityModeSet.uniform": ("omegas_ev", lambda w: CavityModeSet.uniform(w, 0.2, -0.5)),
    "halfspace_sweep": ("z_grid", lambda z: halfspace_sweep(z, _MOLECULE, PasteurMaterial())),
    "selectivity_sweep.shifts": ("delta_e_grid_mev", lambda de: selectivity_sweep(de, [300.0])),
    "selectivity_sweep.temperatures": ("temperatures_k", lambda t: selectivity_sweep([1.0], t)),
}


@pytest.mark.parametrize("name", list(_SEQUENCE_ENTRIES))
@pytest.mark.parametrize("bad", ["123", b"123", 5.0, np.float64(5.0), np.array(5.0), None,
                                 10**5000, np.array(10**5000, dtype=object), [], (),
                                 (e for e in ())],
                         ids=["str", "bytes", "float", "np.float64", "0-d array", "None",
                              "10**5000", "0-d array of 10**5000", "empty list", "empty tuple",
                              "empty generator"])
def test_a_string_number_or_empty_sequence_is_rejected_naming_it(name, bad):
    arg, call = _SEQUENCE_ENTRIES[name]
    with pytest.raises(ValueError, match=f"^{arg} must be a non-empty sequence"):
        call(bad)
