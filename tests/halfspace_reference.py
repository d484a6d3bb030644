"""Regenerate the 30-digit reference values of ``test_halfspace_reference.py``.

Each point is the scaled shift ``shift_eunit`` of :func:`chiral_vacuum.halfspace_sweep`,
sum_i (ImR_i/ImR_1)(E_i/E_1) I(z E_i/E_1) / z^2, computed with mpmath by a route that
shares only the analytic reduction with the library.  The x integral of the reduced
double integral is done first, in closed form, and c'^2 = 1 + p^2, q = ln p:

    I(a) = int dq p^4 r(c') K(2 a c') / (4 c'^3)  +  3 r_inf / (8 a^2 p_max),
    K(b) = int_0^inf s^3 exp(-s) / (b^2 + s^2) ds = 1 - b^2 g(b).

- K(b): for b <= 100 through ``mp.si`` and ``mp.ci``, as g(b) = -Ci(b) cos(b)
  - (Si(b) - pi/2) sin(b), with 10 guard digits against the cancellation in 1 - b^2 g;
  above it by the asymptotic series sum_k (-1)^k (2k + 3)! / b^(2k + 2), summed to its
  smallest term, which is below 1e-38 of K there.  Each run first checks both against
  ``mp.quad`` of the defining integral, split at s = b, at a few b.
- The q integral: ``mp.quad`` with break points at the logs of 1e-6, 1e-3, 0.1, 1, 10
  and of 1, 10, 100, 1e4, 1e8, 1e12 and 1e16 over a, up to p_max = 1e16 max(1, 1/a);
  the tail beyond p_max is its leading term, whose neglected part is below 1e-32 of it.
- r(c') from its defining formula, and its limit at kappa_r = +-1, with 20 guard digits
  against the cancellation in c'_+ - c'_- at small kappa_r.

The inputs are exact binary floats.  Needs mpmath, which Tier-1 does not.  Usage:

    python tests/halfspace_reference.py           # print every point as REFERENCE's lines
    python tests/halfspace_reference.py NAME ...  # recompute the named points and compare

A compared point must agree with its stored string to 1e-25 relative; the script exits 1
otherwise.  A point takes about a second on one core of a shared 2-core x86-64 host, and
all of them about 20 s.
"""

import pathlib
import sys

import mpmath as mp

DIGITS = 30


def reflection(c, material):
    """r(c') from its defining formula, with eta0 = 1."""
    eps, mu, kappa = material
    with mp.extradps(20):
        eps_mu = eps * mu
        kr, eta = kappa / mp.sqrt(eps_mu), mp.sqrt(mu / eps)
        t = (c * c - 1) / eps_mu
        if abs(kr) == 1:
            cf = mp.sqrt(1 + t / 4)
            return +(-kr * 2 * eta * c / ((1 + eta**2) * c + 2 * eta * cf))
        cp, cm = mp.sqrt(1 + t / (1 + kr) ** 2), mp.sqrt(1 + t / (1 - kr) ** 2)
        return +(2 * eta * c * (cp - cm)
                 / ((1 + eta**2) * c * (cp + cm) + 2 * eta * (c * c + cp * cm)))


def reflection_limit(material):
    """r(c') as c' -> infinity, where c'_+-/c' -> 1/(n (1 +- kappa_r))."""
    eps, mu, kappa = material
    with mp.extradps(20):
        n = mp.sqrt(eps * mu)
        kr, eta = kappa / n, mp.sqrt(mu / eps)
        if abs(kr) == 1:
            return +(-kr * 2 * eta / (1 + eta**2 + eta / n))
        up, um = 1 / (n * (1 + kr)), 1 / (n * (1 - kr))
        return +(2 * eta * (up - um) / ((1 + eta**2) * (up + um) + 2 * eta * (1 + up * um)))


def kernel(b):
    """K(b) = int_0^inf s^3 exp(-s) / (b^2 + s^2) ds."""
    if b <= 100:
        with mp.extradps(10):
            g = -mp.ci(b) * mp.cos(b) - (mp.si(b) - mp.pi / 2) * mp.sin(b)
            return +(1 - b * b * g)
    total, term, k = 0, 6 / (b * b), 0
    while True:
        total += term
        ratio = (2 * k + 4) * (2 * k + 5) / (b * b)
        if ratio >= 1 or abs(term) < mp.eps * abs(total):
            return total
        term, k = -term * ratio, k + 1


def integral(a, material):
    """I(a) of the module docstring."""
    p_max = mp.mpf(10) ** 16 * max(1, 1 / a)
    breaks = {mp.mpf(x) for x in ("1e-6", "1e-3", "0.1", "1", "10")}
    breaks |= {mp.mpf(x) / a for x in ("1", "10", "100", "1e4", "1e8", "1e12")}
    qs = [-mp.inf] + [mp.log(p) for p in sorted(breaks) if p < p_max] + [mp.log(p_max)]

    def f(q):
        p = mp.exp(q)
        c = mp.sqrt(1 + p * p)
        return p**4 * reflection(c, material) * kernel(2 * a * c) / (4 * c**3)

    return mp.quad(f, qs) + 3 * reflection_limit(material) / (8 * a * a * p_max)


def shift(z, gaps, strengths, material):
    """The scaled shift sum_i (ImR_i/ImR_1)(E_i/E_1) I(z E_i/E_1) / z^2."""
    z = mp.mpf(z)
    material = tuple(map(mp.mpf, material))
    total = 0
    for gap, strength in zip(gaps, strengths):
        gap_ratio = mp.mpf(gap) / mp.mpf(gaps[0])
        total += mp.mpf(strength) / mp.mpf(strengths[0]) * gap_ratio \
            * integral(z * gap_ratio, material)
    return total / (z * z)


def main(names):
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from test_halfspace_reference import REFERENCE

    mp.mp.dps = DIGITS + 10
    for b in map(mp.mpf, ("1e-4", "0.3", "2.5", "40", "99", "101", "1e3")):
        direct = mp.quad(lambda s: s**3 * mp.exp(-s) / (b * b + s * s), [0, b, mp.inf])
        if not abs(kernel(b) - direct) <= mp.mpf("1e-35") * direct:
            sys.exit(f"K({b}) = {kernel(b)} disagrees with the integral {direct}")
    points = [p for p in REFERENCE if not names or p[0] in names]
    if names and len(points) != len(set(names)):
        sys.exit(f"unknown point in {names}; the points are {[p[0] for p in REFERENCE]}")
    bad = 0
    for name, z, gaps, strengths, material, stored in points:
        value = shift(z, gaps, strengths, material)
        text = mp.nstr(value, DIGITS, strip_zeros=False, min_fixed=1, max_fixed=0)
        if not names:
            print(f"    ({name!r}, {z!r}, {gaps!r}, {strengths!r}, {material!r},\n"
                  f"     {text!r}),", flush=True)
            continue
        off = abs(value - mp.mpf(stored)) / abs(value)
        bad += not off <= mp.mpf("1e-25")
        print(f"{name}: {text} against {stored}, relative {mp.nstr(off, 3)}", flush=True)
    sys.exit(bad > 0)


if __name__ == "__main__":
    main(sys.argv[1:])
