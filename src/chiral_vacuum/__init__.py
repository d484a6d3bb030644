"""Chirality-dependent vacuum energy shifts and enantioselective kinetics.

The package computes the parity-odd part of the vacuum-fluctuation
energy shift of molecules near two parity-broken environments (a
half-space Pasteur material and a gyrotropic cavity) and translates the
shifts into chirality-selective reaction-rate predictions.
"""

from .version import __version__
from . import core, pasteur, cavity, kinetics
from .core import *
from .pasteur import *
from .cavity import *
from .kinetics import *

__all__ = ["__version__", *core.__all__, *pasteur.__all__, *cavity.__all__, *kinetics.__all__]
