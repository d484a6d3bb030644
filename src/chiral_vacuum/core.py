"""Molecular spectra and the thermal state of the photonic environment."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .units import BOLTZMANN_EV

__all__ = ["MoleculeSpectrum", "Thermal", "Transition", "bose_occupation"]


def _shown(value) -> str:
    """A refused value as every rule's message prints it: its repr cut at 80 characters."""
    try:
        return f"{value!r:.80}"
    except ValueError:  # an int too long for repr: its sign and bit length
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"<{type(value).__name__}>"  # an array of such an int


def _float(value, name: str, convert=float) -> float:
    """``value`` as a Python float, or an ndarray by ``convert``, so a numpy scalar computes, fails
    and prints as its float; NaN, complex or what ``convert`` refuses is a ValueError naming it."""
    try:
        if type(value) is not float:
            if getattr(getattr(value, "dtype", None), "kind", None) == "c":  # float() takes .real
                raise TypeError("complex")
            value = convert(value)
        if type(value) is not float or value == value:
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number, got {_shown(value)}")


def _fsum(terms, overflow: str, factor=1) -> float:
    """``math.fsum(terms) * factor`` if finite; an overflow, inf - inf or NaN on the way
    is ``ValueError(overflow)``."""
    terms = list(terms)  # a term's own ValueError is raised here, outside the try
    try:
        total = math.fsum(terms) * factor
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise ValueError(overflow)
    return total


def _store_floats(obj, *names: str, positive: tuple[str, ...] = ()) -> None:
    """Store each named field of the frozen dataclass ``obj`` through :func:`_float`; each
    must be finite, and those in ``positive`` also > 0, or a ``ValueError`` names it."""
    for name in names:
        value = _float(getattr(obj, name), name)
        if not math.isfinite(value) or (name in positive and value <= 0.0):
            rule = "positive and finite" if name in positive else "finite"
            raise ValueError(f"{name} must be {rule}, got {value}")
        object.__setattr__(obj, name, value)


def _sequence(value, name: str, kind: type = object) -> tuple:
    """``value`` read once into a tuple, as every public entry takes a sequence: any iterable
    but a str or bytes, each entry a ``kind``.  Anything else, no entries or an entry of
    another type is a ``ValueError`` naming it."""
    try:
        entries = () if isinstance(value, (str, bytes)) else iter(value)
    except TypeError:  # not iterable
        entries = ()
    entries = tuple(entries)
    if not entries:
        raise ValueError(f"{name} must be a non-empty sequence, got {_shown(value)}")
    for entry in entries:
        if not isinstance(entry, kind):
            raise ValueError(f"{name} entries must be {kind.__name__}, got {_shown(entry)}")
    return entries


def _positive_count(value, name: str) -> int:
    """``value`` as a Python int, as every public entry takes a count: any integer
    type but bool; anything else or a count below 1 is a ``ValueError`` naming it."""
    try:
        n = value if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = value
    if type(n) is not int or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {_shown(n)}")
    return n


@dataclass(frozen=True)
class Transition:
    """One electronic transition from the ground state.

    Parameters
    ----------
    gap_ev : float
        Transition energy in eV, strictly positive and finite.
    im_rot_strength : float
        Imaginary part of the rotatory strength in units of e*a0*mu_B
        (signed, finite).
    """

    gap_ev: float
    im_rot_strength: float

    def __post_init__(self):
        _store_floats(self, "gap_ev", "im_rot_strength", positive=("gap_ev",))


@dataclass(frozen=True)
class MoleculeSpectrum:
    """Electronic gaps and rotatory strengths of one molecular species."""

    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions",
                           _sequence(self.transitions, "transitions", Transition))

    @classmethod
    def two_level(cls, gap_ev: float, im_rot_strength: float) -> "MoleculeSpectrum":
        return cls((Transition(gap_ev, im_rot_strength),))

    @classmethod
    def from_lists(cls, gaps_ev, strengths) -> "MoleculeSpectrum":
        gaps_ev, strengths = _sequence(gaps_ev, "gaps_ev"), _sequence(strengths, "strengths")
        if len(gaps_ev) != len(strengths):
            raise ValueError("gap and rotatory-strength lists must have equal length")
        return cls(Transition(g, s) for g, s in zip(gaps_ev, strengths))

    def mirror(self) -> "MoleculeSpectrum":
        """Return the mirror-image enantiomer: every rotatory strength negated."""
        return MoleculeSpectrum(Transition(t.gap_ev, -t.im_rot_strength) for t in self.transitions)


@dataclass(frozen=True)
class Thermal:
    """Thermal state of the photonic environment.

    ``temperature_k = 0`` is the distinct zero-temperature limit in which
    every Bose occupation vanishes; a positive temperature must keep k_B*T
    above 0 (a subnormal one underflows).
    """

    temperature_k: float

    def __post_init__(self):
        _store_floats(self, "temperature_k")
        if not self.temperature_k >= 0.0:
            raise ValueError(f"temperature_k must be >= 0, got {self.temperature_k}")
        if self.temperature_k > 0.0 and self.kbt_ev == 0.0:
            raise ValueError(f"k_B*T underflows to 0 at {self.temperature_k} K")

    @classmethod
    def from_kbt_ev(cls, kbt_ev: float) -> "Thermal":
        """Build from the thermal energy k_B*T given in eV."""
        return cls(_float(kbt_ev, "kbt_ev") / BOLTZMANN_EV)

    @property
    def kbt_ev(self) -> float:
        return BOLTZMANN_EV * self.temperature_k


def bose_occupation(omega_ev: float, thermal: Thermal) -> float:
    """Bose-Einstein occupation 1/(exp(omega/kT) - 1).

    Parameters
    ----------
    omega_ev : float
        Mode energy in eV, strictly positive; ``ValueError`` if omega/kT
        underflows to 0 or a subnormal, where 1/expm1 overflows.
    thermal : Thermal
        Temperature; T = 0 returns exactly 0.

    Returns
    -------
    float
        Mean occupation number.
    """
    omega_ev = _float(omega_ev, "omega_ev")
    if not omega_ev > 0.0:
        raise ValueError(f"omega_ev must be positive, got {omega_ev}")
    if thermal.temperature_k == 0.0:
        return 0.0
    x = omega_ev / thermal.kbt_ev
    if x < sys.float_info.min:
        raise ValueError(f"omega / k_B*T underflows at omega = {omega_ev} eV, "
                         f"k_B*T = {thermal.kbt_ev} eV")
    if x > 700.0:  # exp would overflow; occupation is below double precision anyway
        return 0.0
    return 1.0 / math.expm1(x)
