"""Chiral Casimir-Polder shift above a half-space Pasteur material.

The shift is evaluated on the imaginary frequency axis.  With the
molecule a distance z above the surface, the orientation-averaged
shift per transition is the reduced double integral

    <dE(z)> = mu0/(3 pi^2 z^2) * sum_i w_i0 ImR_i0
              * int_0^inf x^3 dx / ((w_i0 z)^2 + x^2)
              * int_1^inf dc' exp(-2 x c') (c'^2 - 1) r(c')

where r(c') is the real-valued cross-polarization reflection
coefficient on the imaginary axis (r_sp = i r, r_ps = -r_sp) and
x = xi*z.  Everything here is computed in the dimensionless scaled
variables; physical energies are restored at the edges via the scale

    E_scale = mu0 * ImR_10 * E_10^3 / (3 pi^2)      (per first transition)
    z_scale = 1 / E_10.

All distances passed to the shift routines are multiples of z_scale;
shift values are returned in multiples of E_scale and converted to meV
in :class:`HalfspaceResult`.
"""

from __future__ import annotations

import math
from math import exp as _exp, inf as _inf, sqrt as _sqrt
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import MoleculeSpectrum, _float, _sequence, _store_floats
from .units import E_CHARGE, HBAR, C_LIGHT, MU_0, BOHR_RADIUS, BOHR_MAGNETON, HBARC_EV_NM

__all__ = [
    "HalfspaceResult", "PasteurMaterial", "QuadratureError",
    "chiral_shift_halfspace", "chiral_shift_nonretarded", "energy_unit_mev",
    "halfspace_sweep", "length_unit_nm", "reflection_cross", "reflection_limit",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Raised only by :func:`chiral_shift_halfspace`, with the partial result
    and its error estimate; :func:`halfspace_sweep` does not raise it but
    puts the message in the point's ``warning`` field.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class PasteurMaterial:
    """Half-space bi-isotropic medium with parity-breaking parameter kappa.

    The relative parameter kappa_r = kappa / sqrt(eps_r * mu_r) must lie
    in [-1, 1].  eps_r, mu_r, their product and mu_r / eps_r must be
    positive and finite.
    """

    eps_r: float = 1.0
    mu_r: float = 1.0
    kappa: float = 0.0

    def __post_init__(self):
        _store_floats(self, "eps_r", "mu_r", "kappa", positive=("eps_r", "mu_r"))
        if not 0.0 < self.eps_r * self.mu_r < math.inf:
            raise ValueError(
                f"eps_r * mu_r must be positive and finite, got {self.eps_r * self.mu_r}"
            )
        if not 0.0 < self.mu_r / self.eps_r < math.inf:
            raise ValueError(
                f"mu_r / eps_r must be positive and finite, got {self.mu_r / self.eps_r}"
            )
        kr = self.kappa_r
        if not abs(kr) <= 1.0:
            raise ValueError(
                f"relative Pasteur parameter {kr} outside [-1, 1]"
            )
        # The per-material constants of the direct bodies of reflection_cross,
        # which QUADPACK calls once per node.  Not a dataclass field, so repr,
        # ==, hash and replace() see only the three parameters.  k_diff is
        # 2 eta (c'_+^2 - c'_-^2) / t; its + 0.0 makes kappa = -0.0 give +0.0.
        eta, endpoint = self.impedance_ratio, abs(kr) == 1.0
        object.__setattr__(self, "_reflection", (
            kr, endpoint, self.eps_r * self.mu_r, (1.0 + kr) ** 2, (1.0 - kr) ** 2,
            0.0 if endpoint else 2.0 * eta * (-4.0 * kr / ((1.0 - kr) * (1.0 + kr)) ** 2) + 0.0,
            2.0 * eta, 1.0 + eta * eta,
        ))

    @property
    def kappa_r(self) -> float:
        return self.kappa / math.sqrt(self.eps_r * self.mu_r)

    @property
    def impedance_ratio(self) -> float:
        """eta / eta0 = sqrt(mu_r / eps_r)."""
        return math.sqrt(self.mu_r / self.eps_r)


# Upper limit in t = x*c' beyond which exp(-2t) < 1e-16; the x and t
# integrals are truncated there.
T_CUTOFF = -0.5 * math.log(1e-16)

# Tolerances and subdivision limit of the adaptive double quadrature; the
# inner integral runs at a tenth of both tolerances.
REL_TOL = 1e-8
ABS_TOL = 1e-14
MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class HalfspaceResult:
    """One point of a half-space sweep, in scaled units and meV."""

    z_over_zunit: float
    shift_eunit: float
    shift_mev: float
    nonretarded_eunit: float
    nonretarded_mev: float
    error_eunit: float
    error_mev: float
    warning: Optional[str] = None


def reflection_cross(c_prime, material: PasteurMaterial):
    """Cross-polarization reflection coefficient r(c') on the imaginary axis.

    Defined through r_sp = i r with

        r = 2 eta0 eta c' (c'_+ - c'_-) / Delta',
        Delta' = (eta0^2 + eta^2) c' (c'_+ + c'_-)
                 + 2 eta0 eta (c'^2 + c'_+ c'_-),
        c'_{+-}^2 = 1 + (c'^2 - 1) / (eps_r mu_r (1 +- kappa_r)^2),

    with positive square roots.  Both differences are taken without
    cancellation: c'^2 - 1 as (c' - 1)(c' + 1), and

        c'_+ - c'_- = -4 kappa_r t / ((1 - kappa_r)(1 + kappa_r))^2 / (c'_+ + c'_-),
        t = (c'^2 - 1) / (eps_r mu_r),

    so a small kappa_r or a c' near 1 keeps every digit.  Exactly odd in
    kappa; at kappa = 0, r = +0.0.  At kappa_r = +-1 one of c'_{+-} is
    infinite and r takes its finite limit

        r = -kappa_r 2 eta0 eta c' / ((eta0^2 + eta^2) c' + 2 eta0 eta c'_f),
        c'_f^2 = 1 + (c'^2 - 1) / (4 eps_r mu_r).

    Where the formula overflows (its denominator is infinite), both bodies take
    :func:`_reflection_scaled`, exactly odd in kappa, so neither QUADPACK nor an
    array sees the NaN, or the 0 of a finite numerator over an infinite denominator.

    A Python float, which QUADPACK passes at every node, pays one type
    check; any other scalar, or an ndarray, takes the float rule, so NaN, a
    complex value or a c' below 1 is a ``ValueError`` naming c_prime.  Only
    an ndarray takes the ``np.sqrt`` body, :func:`_reflection_array`, at
    float64; a float or int never loads numpy.

    Parameters
    ----------
    c_prime : float or ndarray
        Imaginary-axis angle variable, >= 1.
    material : PasteurMaterial

    Returns
    -------
    float or ndarray
    """
    kr, endpoint, eps_mu, plus_sq, minus_sq, k_diff, two_eta, one_eta_sq = material._reflection
    if type(c_prime) is not float:
        if not isinstance(c_prime, int):
            import numpy as np
            if isinstance(c_prime, np.ndarray):
                return _reflection_array(_float(c_prime, "c_prime", _float64), material)
        c_prime = _float(c_prime, "c_prime")
    if not c_prime >= 1.0:  # where _float refuses a NaN, as the rule does
        raise ValueError(f"c_prime must be >= 1, got {_float(c_prime, 'c_prime')}")
    # den, a sum of positive terms, overflows wherever an intermediate does;
    # the numerator is formed only where it does not, as it would be NaN
    # (t / (c'_+ + c'_-) is inf / inf), and a finite one over den gives 0
    t = (c_prime - 1.0) * (c_prime + 1.0) / eps_mu
    if endpoint:
        den = one_eta_sq * c_prime + two_eta * _sqrt(1.0 + t / 4.0)
        if den != _inf:
            return -kr * two_eta * c_prime / den
    else:
        cp = _sqrt(1.0 + t / plus_sq)
        cm = _sqrt(1.0 + t / minus_sq)
        cp_cm = cp + cm
        den = one_eta_sq * c_prime * cp_cm + two_eta * (c_prime * c_prime + cp * cm)
        if den != _inf:
            return k_diff * c_prime * (t / cp_cm) / den
    return _reflection_scaled(c_prime, material)


def _reflection_array(c_prime, material: PasteurMaterial):
    """The ndarray body of :func:`reflection_cross`, with its expressions
    in the same order.  A function of its own: inside reflection_cross,
    its ``with`` block slowed the float path, where it never runs, by
    10-20 % (CPython 3.11)."""
    import numpy as np
    kr, endpoint, eps_mu, plus_sq, minus_sq, k_diff, two_eta, one_eta_sq = material._reflection
    if c_prime.min(initial=1.0) < 1.0:  # the float rule has refused a NaN
        raise ValueError(f"c_prime must be >= 1, got {float(c_prime.min())}")
    with np.errstate(over="ignore", invalid="ignore"):
        t = (c_prime - 1.0) * (c_prime + 1.0) / eps_mu
        if endpoint:
            num = -kr * two_eta * c_prime
            den = one_eta_sq * c_prime + two_eta * np.sqrt(1.0 + t / 4.0)
        else:
            cp = np.sqrt(1.0 + t / plus_sq)
            cm = np.sqrt(1.0 + t / minus_sq)
            cp_cm = cp + cm
            num = k_diff * c_prime * (t / cp_cm)
            den = one_eta_sq * c_prime * cp_cm + two_eta * (c_prime * c_prime + cp * cm)
        r = num / den
    over = den == _inf
    if over.any():
        r = np.array(r)  # a 0-d result is a scalar, and only an array takes items
        r[over] = [_reflection_scaled(c, material) for c in c_prime[over].tolist()]
    return r[()]


def _float64(c_prime):
    """A real ndarray's ``float()`` for :func:`core._float`: float64, or NaN if an entry is."""
    c_prime = c_prime.astype(float, copy=False)
    return c_prime if (c_prime == c_prime).all() else math.nan


def _reflection_scaled(c_prime, material: PasteurMaterial) -> float:
    """r(c') of :func:`reflection_cross` where its direct formula overflows,
    and its c' -> infinity limit, with numerator and denominator times
    s_+ s_- / ((1 + eta^2) c'^2 n), where s_+- = n (1 +- kappa_r) and
    n = sqrt(eps_r mu_r), so no term overflows.

    p = s_+ c'_+ / c' = hypot(s_+ / c', q), q^2 = 1 - 1/c'^2, and likewise
    m; c'_+ - c'_- is a difference of squares and 1 - kappa_r^2 is
    (1 - kappa_r)(1 + kappa_r).  Each term is symmetric under p <-> m,
    which kappa -> -kappa swaps, so r is exactly odd in kappa, and
    kappa = 0 gives +0.0.  c' is taken as a float of at most 1e300: from
    there on q = 1 and s_+-/c' rounds away against it for every accepted
    n, so every such c', inf included, gives r(inf) to the bit.  g > 0:
    it vanishes only at c' = 1 and kappa_r = +-1, where 1 + eta^2 < 2^1024
    keeps the direct denominator finite.
    """
    c = min(float(c_prime), 1e300)
    inv_c = 1.0 / c
    q_sq = (c - 1.0) / c * ((c + 1.0) / c)
    kr = material._reflection[0]
    n = math.sqrt(material.eps_r) * math.sqrt(material.mu_r)
    eta = material.impedance_ratio
    e = 2.0 / (eta + 1.0 / eta)  # 2 eta / (1 + eta^2), which cannot overflow
    q = math.sqrt(q_sq)
    p = math.hypot(n * (1.0 + kr) * inv_c, q)
    m = math.hypot(n * (1.0 - kr) * inv_c, q)
    g = p * (1.0 - kr) + m * (1.0 + kr)  # (p s_- + m s_+) / n, 2q at kappa_r = +-1
    pm_n = min(p, m) * (max(p, m) / n)
    return (-4.0 * e * kr + 0.0) * q_sq / g / (g + e * (n * ((1.0 - kr) * (1.0 + kr)) + pm_n))


def reflection_limit(material: PasteurMaterial) -> float:
    """Algebraic c' -> infinity limit of :func:`reflection_cross`:
    :func:`_reflection_scaled` at c' = inf, exactly odd in kappa.

    For eps_r = mu_r = 1 this reduces to -2 kappa / (4 - kappa^2).
    """
    return _reflection_scaled(math.inf, material)


def _quad(func, lo, hi, rel_tol: float, abs_tol: float, points=None):
    """QUADPACK on [lo, hi] as (value, error_estimate, failure_message_or_None),
    with at most ``MAX_SUBDIVISIONS`` subintervals."""
    from scipy.integrate import quad  # here, so only pasteur and verify load it
    out = quad(func, lo, hi, epsabs=abs_tol, epsrel=rel_tol,
               limit=MAX_SUBDIVISIONS, points=points or None, full_output=1)
    return out[0], out[1], (str(out[3]) if len(out) > 3 else None)


def _g_kernel(x: float, material: PasteurMaterial, rel_tol: float):
    """g(x) = int_x^T exp(-2t) (t^2 - x^2) r(t/x) dt, with t = x c'.

    Equals x^3 * int_1^inf dc' exp(-2 x c') (c'^2 - 1) r(c').  The t
    substitution keeps the integrand single-scale for every x, which is
    what makes the nested quadrature cheap.  Returns the :func:`_quad`
    triple, so the outer quadrature can finish and attribute a partial
    result.  Its Gauss-Kronrod nodes are interior: 0 < x < T_CUTOFF.
    """
    x_sq = x * x

    def integrand(t):
        # reflection_cross is looked up by its module name on every node,
        # so that a wrapper installed there sees each one.
        return _exp(-2.0 * t) * (t * t - x_sq) * reflection_cross(t / x, material)

    return _quad(integrand, x, T_CUTOFF, rel_tol * 0.1, ABS_TOL * 0.1)


def _outer_integral(a: float, material: PasteurMaterial, kernel: dict,
                    rel_tol: float):
    """I(a) = int_0^inf dx x^3/(a^2+x^2) * int_1^inf dc' e^{-2xc'}(c'^2-1) r(c').

    Returns (I, error_estimate, failure_message_or_None).  The estimate
    combines the outer QUADPACK estimate with the worst relative error
    reported by the inner quadrature; the message is the outer failure,
    else the first inner one.

    ``kernel`` is the x -> g(x) dict of :func:`_shift_scaled`.
    """
    worst_inner = 0.0
    inner_failure = None
    a_sq = a * a

    def f(x):
        nonlocal worst_inner, inner_failure
        triple = kernel.get(x)
        if triple is None:
            triple = kernel[x] = _g_kernel(x, material, rel_tol)
        g, gerr, failure = triple
        if inner_failure is None:
            inner_failure = failure
        if g != 0.0:
            worst_inner = max(worst_inner, abs(gerr / g))
        return g / (a_sq + x * x)

    pts = sorted({p for p in (a, 3 * a, 10 * a, 30 * a, 100 * a, 300 * a)
                  if 0.0 < p < T_CUTOFF})
    # Decades up to T_CUTOFF / 1e4: for a below ~1e-7 the 21-point rule
    # on one interval [300 a, T_CUTOFF] misses the 1/x^2 tail of f.
    while pts and T_CUTOFF > 1e4 * pts[-1]:
        pts.append(10.0 * pts[-1])
    val, err, failure = _quad(f, 0.0, T_CUTOFF, rel_tol, ABS_TOL, points=pts)
    if failure is None and inner_failure is not None:
        failure = f"inner quadrature: {inner_failure}"
    return val, err + abs(val) * worst_inner, failure


def energy_unit_mev(molecule: MoleculeSpectrum) -> float:
    """Energy scale mu0 * ImR_10 * E_10^3 / (3 pi^2) of the first transition, in meV;
    ``ValueError`` if it overflows, or underflows to 0 while ImR_10 != 0."""
    t = molecule.transitions[0]
    imr_si = t.im_rot_strength * E_CHARGE * BOHR_RADIUS * BOHR_MAGNETON
    gap_j = t.gap_ev * E_CHARGE
    try:
        e_unit_j = MU_0 * imr_si * gap_j**3 / (3.0 * math.pi**2 * HBAR**3 * C_LIGHT**2)
    except OverflowError:  # gap_j**3 leaves the float range
        e_unit_j = math.inf
    e_unit_mev = e_unit_j / E_CHARGE * 1e3
    if math.isinf(e_unit_mev) or (e_unit_mev == 0.0 and t.im_rot_strength != 0.0):
        raise ValueError(f"gap {t.gap_ev!r} eV with rotatory strength {t.im_rot_strength!r} "
                         "is out of range: the energy unit "
                         + ("overflows" if e_unit_mev else "underflows to 0"))
    return e_unit_mev


def length_unit_nm(molecule: MoleculeSpectrum) -> float:
    """Length scale 1/E_10 of the first transition, in nm."""
    return HBARC_EV_NM / molecule.transitions[0].gap_ev


def _transition_weights(molecule: MoleculeSpectrum):
    """(E_i/E_1, ImR_i/ImR_1) of each transition i; ``ValueError`` if ImR_1
    is 0 while another strength is not, or if a weight ImR_i/ImR_1 (E_i/E_1)^3
    overflows."""
    t0 = molecule.transitions[0]
    out = []
    for t in molecule.transitions:
        gap_ratio = t.gap_ev / t0.gap_ev
        if t0.im_rot_strength != 0.0:
            strength_ratio = t.im_rot_strength / t0.im_rot_strength
            weight = strength_ratio * (gap_ratio * gap_ratio * gap_ratio)
            if not math.isfinite(weight):  # inf, or NaN as inf * 0
                raise ValueError(f"gap ratio {t.gap_ev!r} / {t0.gap_ev!r} with rotatory strength "
                                 f"{t.im_rot_strength!r} against {t0.im_rot_strength!r} is out "
                                 "of range: the transition weight overflows")
        elif t.im_rot_strength == 0.0:
            strength_ratio = 0.0
        else:
            raise ValueError("first transition has zero rotatory strength; the scaled "
                             "energy unit is undefined for this spectrum")
        out.append((gap_ratio, strength_ratio))
    return out


def _shift_scaled(z_grid: Sequence[float], molecule: MoleculeSpectrum,
                  material: PasteurMaterial, rel_tol: float = REL_TOL):
    """[(non-retarded shift, shift, error estimate, first failure or None)] over
    ``z_grid``, in units of the first transition's energy scale.

    Each z in turn is checked (z > 0, a^2 > 0 at each transition, then its
    non-retarded value) before the first quadrature, so a bad z costs none.
    A point whose sum is not finite raises ``ValueError`` naming z.

    Transition i adds (ImR_i/ImR_1) (E_i/E_1) I(a)/z^2 at a = z E_i/E_1.
    Its weight (ImR_i/ImR_1) (E_i/E_1)^3 is never formed: that underflows
    for E_i/E_1 below ~1e-108, while the transition's near-field share
    (pi/8) r_inf (ImR_i/ImR_1) / z^3 does not.

    All transitions and points share one x -> g(x) dict of :func:`_outer_integral`,
    made here because it holds for one (material, rel_tol) pair only.  g(x)
    depends on x alone, so each point is bit-identical to a one-point grid.
    Only the acceptance suite's tolerance-halving check passes a ``rel_tol``.
    """
    weights = [(g, s) for g, s in _transition_weights(molecule) if s != 0.0]
    checked = []
    for z in (_float(z, "z") for z in z_grid):
        if not z > 0.0:
            raise ValueError(f"z must be positive, got {z}")
        # the first transition has a = z, so these checks also keep z^2 > 0
        for gap_ratio, _ in weights:
            a = z * gap_ratio
            if a * a == 0.0:
                raise ValueError(f"z = {z!r} is out of range: ({a!r})**2 underflows to 0")
        checked.append((z, chiral_shift_nonretarded(z, molecule, material)))
    kernel = {}
    points = []
    for z, nonretarded in checked:
        z_sq = z * z
        total = total_err = 0.0
        failure = None
        for gap_ratio, strength_ratio in weights:
            a = z * gap_ratio
            val, err, message = _outer_integral(a, material, kernel, rel_tol)
            if not math.isfinite(val):  # g(x) / (a^2 + x^2) overflows where a^2 is subnormal
                raise ValueError(f"z = {z!r} is out of range: the integral at a = {a!r} "
                                 "overflows")
            if failure is None:
                failure = message
            coeff = strength_ratio * gap_ratio
            total += coeff * val / z_sq
            total_err += abs(coeff) * err / z_sq
        if not math.isfinite(total):  # a term overflows, or two cancel as inf - inf
            raise ValueError(f"z = {z!r} is out of range: the shift overflows")
        points.append((nonretarded, total, total_err, failure))
    return points


def chiral_shift_halfspace(z: float, molecule: MoleculeSpectrum,
                           material: PasteurMaterial) -> float:
    """Full orientation-averaged chiral shift at height z above the half-space.

    Parameters
    ----------
    z : float
        Distance in multiples of the length scale 1/E_10 of the first
        transition, > 0.
    molecule : MoleculeSpectrum
    material : PasteurMaterial

    Returns
    -------
    float
        Shift in multiples of the energy scale mu0 ImR_10 E_10^3/(3 pi^2);
        multiply by :func:`energy_unit_mev` for meV.  Linear in every
        rotatory strength and odd under kappa -> -kappa.

    Raises
    ------
    ValueError
        For a z that :func:`halfspace_sweep` rejects, or a shift that overflows.
    QuadratureError
        On non-convergence; carries the partial scaled value.
    """
    [(_, val, err, failure)] = _shift_scaled([z], molecule, material)
    if failure is not None:
        raise QuadratureError(failure, val, err)
    return val


def chiral_shift_nonretarded(z: float, molecule: MoleculeSpectrum,
                             material: PasteurMaterial) -> float:
    """Closed-form short-distance (non-retarded) limit of the chiral shift.

    Equals (pi/8) r(inf) sum_i ImR_i0/ImR_10 / z^3 in the scaled units of
    :func:`chiral_shift_halfspace`; exact 1/z^3 scaling.
    """
    z = _float(z, "z")
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z}")
    _transition_weights(molecule)  # raises if the unit is undefined or a weight overflows
    t0 = molecule.transitions[0]
    if t0.im_rot_strength == 0.0:
        return 0.0
    strength_sum = math.fsum(t.im_rot_strength for t in molecule.transitions)
    coeff = (math.pi / 8.0) * reflection_limit(material) * strength_sum / t0.im_rot_strength
    try:
        value = coeff / z**3
    except ArithmeticError:  # z**3 overflows or underflows to 0
        raise ValueError(f"z = {z!r} is out of range: z**3 leaves the float range") from None
    if not math.isfinite(value):  # z**3 is subnormal
        raise ValueError(f"z = {z!r} is out of range: the non-retarded shift overflows")
    return value


def halfspace_sweep(z_grid: Sequence[float], molecule: MoleculeSpectrum,
                    material: PasteurMaterial) -> list[HalfspaceResult]:
    """Evaluate the full and non-retarded shifts on a grid of distances.

    Every z is checked as by :func:`chiral_shift_halfspace`, before the
    first quadrature; a point whose shift, non-retarded shift or error
    overflows in meV raises ``ValueError`` naming z.  Per-point quadrature
    failures are reported in the ``warning`` field of the corresponding
    result instead of aborting the sweep.  The points share their inner
    integrals, and each result is bit-identical to its point alone.
    """
    z_grid = _sequence(z_grid, "z_grid")
    e_mev = energy_unit_mev(molecule)
    results = [HalfspaceResult(
        z_over_zunit=float(z),
        shift_eunit=val,
        shift_mev=val * e_mev,
        nonretarded_eunit=nr,
        nonretarded_mev=nr * e_mev,
        error_eunit=err,
        error_mev=err * abs(e_mev),
        warning=warning,
    ) for z, (nr, val, err, warning) in zip(z_grid, _shift_scaled(z_grid, molecule, material))]
    for r in results:
        if not all(map(math.isfinite, (r.shift_mev, r.nonretarded_mev, r.error_mev))):
            raise ValueError(f"z = {r.z_over_zunit!r} is out of range: a value in meV overflows")
    return results
