"""Chirality-dependent vacuum energy shifts and enantioselective kinetics.

The package computes the parity-odd part of the vacuum-fluctuation
energy shift of molecules near two parity-broken environments (a
half-space Pasteur material and a gyrotropic cavity) and translates the
shifts into chirality-selective reaction-rate predictions.
"""

from .version import __version__
from .core import (
    MoleculeSpectrum,
    Thermal,
    Transition,
    bose_occupation,
)
from .pasteur import (
    HalfspaceResult,
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
from .cavity import (
    CavityMode,
    CavityModeSet,
    CavityShiftReport,
    ModeReport,
    OutOfRegimeError,
    PolarizedEnsemble,
    cavity_shift_report,
    debye_shift_per_molecule,
    london_shift,
    thermal_ratio_debye,
    thermal_ratio_london,
)
from .kinetics import (
    ReactionProfile,
    selectivity,
    selectivity_sweep,
    selectivity_tst,
    tst_activation,
    zero_point_frequency_shift,
)

__all__ = [
    "__version__",
    "MoleculeSpectrum", "Thermal", "Transition",
    "bose_occupation",
    "HalfspaceResult", "PasteurMaterial", "QuadratureError",
    "chiral_shift_halfspace", "chiral_shift_nonretarded", "energy_unit_mev",
    "halfspace_sweep", "length_unit_nm", "reflection_cross", "reflection_limit",
    "CavityMode", "CavityModeSet", "CavityShiftReport", "ModeReport",
    "OutOfRegimeError", "PolarizedEnsemble", "cavity_shift_report",
    "debye_shift_per_molecule", "london_shift", "thermal_ratio_debye",
    "thermal_ratio_london",
    "ReactionProfile", "selectivity", "selectivity_sweep", "selectivity_tst",
    "tst_activation", "zero_point_frequency_shift",
]
