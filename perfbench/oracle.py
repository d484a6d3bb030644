"""Reference values the benchmark checks the program against.

Nothing here imports the package under test.  The half-space Pasteur
shift is evaluated by a route of its own: the x integral of the reduced
double integral is done in closed form,

    int_0^inf x^3 exp(-2 x c) / (a^2 + x^2) dx = (1 - b^2 g(b)) / (4 c^2),
    b = 2 a c,

with g the auxiliary function of the sine and cosine integrals
(Abramowitz & Stegun 5.2.7, 5.2.13).  What is left is one integral over
c' >= 1, taken with a fixed-grid composite Simpson rule in
q = ln p, p^2 = c'^2 - 1, on n and 2n panels.  Richardson's estimate
|S_2n - S_n| / 15 of the rule's own error, plus bounds on the two
truncated tails, must stay below ``ORACLE_REL_TOL``; the rule doubles n
until it does.

Cavity and kinetics references are the closed-form mode sums and
tanh(dE / kT), with CODATA constants from ``scipy.constants``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.constants as sc
from scipy.special import sici

ORACLE_REL_TOL = 1e-8
_N_START = 2048
_N_MAX = 1 << 17
# switch from sici to the asymptotic series of 1 - b^2 g(b); both are
# accurate to better than 1e-10 relative at the seam
_B_SERIES = 35.0

# constants: CODATA as shipped with scipy, which may be a newer
# adjustment than the program's table; the two differ by < 2e-9 relative
E_CHARGE = sc.e
HBAR = sc.hbar
C_LIGHT = sc.c
MU_0 = sc.mu_0
ALPHA = sc.fine_structure
BOHR_RADIUS_NM = sc.physical_constants["Bohr radius"][0] * 1e9
BOHR_MAGNETON = sc.physical_constants["Bohr magneton"][0]
RYDBERG_EV = sc.physical_constants["Rydberg constant times hc in eV"][0]
AMU_EV = sc.physical_constants["atomic mass constant energy equivalent in MeV"][0] * 1e6
KB_EV = sc.k / sc.e
# relative tolerance for closed forms that go through those constants
CONST_REL_TOL = 1e-8


class OracleError(RuntimeError):
    """The reference rule could not reach its own accuracy target."""


def _one_minus_b2g(b: np.ndarray) -> np.ndarray:
    """1 - b^2 g(b), g(b) = -Ci(b) cos b - si(b) sin b."""
    out = np.empty_like(b)
    small = b < _B_SERIES
    bs = b[small]
    si, ci = sici(bs)
    g = -ci * np.cos(bs) - (si - 0.5 * math.pi) * np.sin(bs)
    out[small] = 1.0 - bs * bs * g
    bl = b[~small]
    inv = 1.0 / (bl * bl)
    term = 6.0 * inv
    acc = term.copy()
    for k in range(2, 14):  # sum_k (-1)^(k+1) (2k+1)! / b^(2k)
        term = -term * (2 * k) * (2 * k + 1) * inv
        acc += term
    out[~small] = acc
    return out


def reflection(p: np.ndarray, eps_r: float, mu_r: float, kappa_r: float) -> np.ndarray:
    """Cross-polarisation coefficient r(c') at c'^2 = 1 + p^2.

    Written with c'_+ - c'_- = (c'_+^2 - c'_-^2) / (c'_+ + c'_-), free of
    cancellation, and with the finite limit forms at kappa_r = +-1.
    """
    eta = math.sqrt(mu_r / eps_r)
    c = np.sqrt(1.0 + p * p)
    t = p * p / (eps_r * mu_r)
    if abs(kappa_r) == 1.0:
        # the other branch c'_-+ -> infinity; r -> -+2 eta c / ((1+eta^2) c + 2 eta c'_+-)
        finite = np.sqrt(1.0 + t / 4.0)
        return -kappa_r * 2.0 * eta * c / ((1.0 + eta * eta) * c + 2.0 * eta * finite)
    cp = np.sqrt(1.0 + t / (1.0 + kappa_r) ** 2)
    cm = np.sqrt(1.0 + t / (1.0 - kappa_r) ** 2)
    diff = -4.0 * kappa_r * t / ((1.0 - kappa_r * kappa_r) ** 2 * (cp + cm))
    den = (1.0 + eta * eta) * c * (cp + cm) + 2.0 * eta * (c * c + cp * cm)
    return 2.0 * eta * c * diff / den


def reflection_limit(eps_r: float, mu_r: float, kappa_r: float) -> float:
    """r(c' -> infinity)."""
    return float(reflection(np.array([1e15]), eps_r, mu_r, kappa_r)[0])


def _simpson(f: np.ndarray, h: float) -> float:
    w = np.ones_like(f)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ f) * h / 3.0


def _outer_integral(a: float, eps_r: float, mu_r: float, kappa_r: float, n: int):
    """I(a) on n panels; returns (value, tail error bound)."""
    scales = [1.0] + [math.sqrt(eps_r * mu_r) * (1.0 + s * kappa_r)
                      for s in (1.0, -1.0) if 1.0 + s * kappa_r > 0.0]
    p_min = 1e-4 * min(scales)
    p_max = 1e6 / min(a, 1.0)
    q = np.linspace(math.log(p_min), math.log(p_max), n + 1)
    p = np.exp(q)
    c = np.sqrt(1.0 + p * p)
    kernel = _one_minus_b2g(2.0 * a * c) / (4.0 * c * c)
    f = p ** 4 * reflection(p, eps_r, mu_r, kappa_r) * kernel / c
    value = _simpson(f, q[1] - q[0])
    # upper tail: f -> 3 r_inf / (8 a^2 p); relative corrections O(1/(a p)^2 + 1/p^2)
    tail = 3.0 * reflection_limit(eps_r, mu_r, kappa_r) / (8.0 * a * a * p_max)
    tail_err = abs(tail) * (10.0 / (a * p_max) ** 2 + 10.0 / p_max ** 2)
    # lower tail: f ~ p^6 below the smallest scale (p^4 at kappa_r = +-1),
    # so int_{-inf}^{q0} f dq <= f(q0) / 4
    tail_err += abs(f[0]) / 4.0
    return value + tail, tail_err


def halfspace_shift(z: float, eps_r: float, mu_r: float, kappa: float,
                    gaps_ev, strengths) -> tuple[float, float]:
    """Scaled shift at z (multiples of 1/E_10) and its error bound.

    Same normalisation as the program: multiples of the first
    transition's energy scale mu0 ImR_10 E_10^3 / (3 pi^2).
    """
    kappa_r = kappa / math.sqrt(eps_r * mu_r)
    if kappa_r == 0.0:
        return 0.0, 0.0
    terms = []
    for gap, strength in zip(gaps_ev, strengths):
        ratio = gap / gaps_ev[0]
        weight = strength / strengths[0] * ratio ** 3
        terms.append((z * ratio, weight))
    n = _N_START
    coarse = None
    while n <= _N_MAX:
        total, tail_err = 0.0, 0.0
        for a, weight in terms:
            val, err = _outer_integral(a, eps_r, mu_r, kappa_r, n)
            total += weight * val / (a * a)
            tail_err += abs(weight) * err / (a * a)
        if coarse is not None:
            err = abs(total - coarse) / 15.0 + tail_err
            if err <= ORACLE_REL_TOL * abs(total):
                return total, err
        coarse = total
        n *= 2
    raise OracleError(f"no {ORACLE_REL_TOL} accuracy at z={z}, kappa_r={kappa_r}")


def nonretarded_shift(z: float, eps_r: float, mu_r: float, kappa: float, strengths) -> float:
    """(pi/8) r_inf sum_i ImR_i / ImR_1 / z^3."""
    kappa_r = kappa / math.sqrt(eps_r * mu_r)
    if kappa_r == 0.0:
        return 0.0
    return (math.pi / 8.0) * reflection_limit(eps_r, mu_r, kappa_r) \
        * math.fsum(strengths) / strengths[0] / z ** 3


def energy_unit_mev(gap_ev: float, strength: float) -> float:
    imr_si = strength * E_CHARGE * BOHR_RADIUS_NM * 1e-9 * BOHR_MAGNETON
    gap_j = gap_ev * E_CHARGE
    return MU_0 * imr_si * gap_j ** 3 / (3.0 * math.pi ** 2 * HBAR ** 3 * C_LIGHT ** 2) \
        / E_CHARGE * 1e3


def bose(omega_ev: float, temperature_k: float) -> float:
    if temperature_k == 0.0:
        return 0.0
    return 1.0 / math.expm1(omega_ev / (KB_EV * temperature_k))


def london_mode_mev(omega_ev, veff_nm3, chi, gaps_ev, strengths, temperature_k):
    """(T = 0 value, thermal ratio or None if resonant, value at T), in meV."""
    pref = (8.0 * math.pi / 3.0) * ALPHA * RYDBERG_EV * BOHR_RADIUS_NM ** 3 / veff_nm3 * chi
    terms = [pref * s * omega_ev / (g + omega_ev) for g, s in zip(gaps_ev, strengths)]
    t0 = math.fsum(terms)
    if any(omega_ev >= g for g in gaps_ev):
        return t0 * 1e3, None, t0 * 1e3
    n_b = bose(omega_ev, temperature_k)
    hot = math.fsum(term * (1.0 - n_b * 2.0 * omega_ev / (g - omega_ev))
                    for term, g in zip(terms, gaps_ev))
    return t0 * 1e3, (hot / t0 if t0 != 0.0 else 1.0), hot * 1e3


def debye_per_molecule_mev(modes, d00, m00, n_molecules, temperature_k):
    """Per-molecule Debye shift at T = 0 and at T, in meV; modes are (omega, veff)."""
    cross = d00[0] * m00[1] - d00[1] * m00[0]
    bases = [-2.0 * math.pi * ALPHA * RYDBERG_EV * BOHR_RADIUS_NM ** 3 / veff * cross
             for _, veff in modes]
    hot = [b * (1.0 + 2.0 * bose(w, temperature_k)) for b, (w, _) in zip(bases, modes)]
    return math.fsum(bases) * n_molecules * 1e3, math.fsum(hot) * n_molecules * 1e3


def selectivity(delta_e_mev, temperature_k, half_zero_point_mev=0.0):
    """tanh((dE - dw/2) / kT), vectorised over numpy arrays."""
    return np.tanh((np.asarray(delta_e_mev) - half_zero_point_mev)
                   / (KB_EV * np.asarray(temperature_k) * 1e3))


def half_zero_point_mev(omega_nu_ev: float, curvature_b_ev3: float, mass_amu: float) -> float:
    ratio = curvature_b_ev3 / (mass_amu * AMU_EV)
    return 0.5 * (math.sqrt(omega_nu_ev ** 2 + ratio) - omega_nu_ev) * 1e3


def rel_close(value: float, ref: float, rel: float, abs_floor: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref) + abs_floor
