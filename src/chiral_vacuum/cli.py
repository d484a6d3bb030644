"""Command-line front end.

Exit codes: 0 success, 1 physics/domain error (including partial sweep
failures, non-finite results and running out of memory), 2 configuration
error.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Optional

from .cavity import (
    CavityMode,
    CavityModeSet,
    PolarizedEnsemble,
    cavity_shift_report,
    debye_shift_per_molecule,
)
from .config import ConfigError, RunConfig, parse_config, usage
from .core import MoleculeSpectrum, Thermal
from .kinetics import ReactionProfile, selectivity_sweep, tst_activation, \
    zero_point_frequency_shift
from .output import Column, SweepOutput, render
from .pasteur import PasteurMaterial, energy_unit_mev, halfspace_sweep, length_unit_nm


def _build(make, config: RunConfig, *keys: str):
    """``make`` called on the values of ``keys``; a domain ``ValueError``
    becomes a ``ConfigError`` (exit 2) that names the keys."""
    try:
        return make(*(config[key] for key in keys))
    except ValueError as exc:
        raise ConfigError(str(exc), key=keys) from exc


def _build_molecule(config: RunConfig) -> MoleculeSpectrum:
    return _build(MoleculeSpectrum.from_lists, config,
                  "molecule.gap_ev", "molecule.im_rot_strength")


def _build_modes(config: RunConfig) -> CavityModeSet:
    if config["cavity.modes_detailed"] is not None:
        return _build(lambda entries: CavityModeSet(CavityMode(**e) for e in entries),
                      config, "cavity.modes_detailed")
    return _build(CavityModeSet.uniform, config,
                  "cavity.modes", "cavity.veff_nm3", "cavity.chirality_factor")


def _run_pasteur(config: RunConfig) -> tuple[tuple, int]:
    molecule = _build_molecule(config)
    material = _build(PasteurMaterial, config,
                      "material.eps_r", "material.mu_r", "material.kappa")
    results = halfspace_sweep(config["sweep.z_list"], molecule, material)
    any_failed = any(r.warning is not None for r in results)
    columns = [
        Column("z_over_zunit", "z_unit"),
        Column("shift_over_Eunit", "E_unit"),
        Column("shift_meV", "meV"),
        Column("nonretarded_over_Eunit", "E_unit"),
        Column("quad_error", "E_unit"),
    ]
    if any_failed:
        columns.append(Column("error_flag", "dimensionless"))
    rows = []
    for r in results:
        row = [r.z_over_zunit, r.shift_eunit, r.shift_mev,
               r.nonretarded_eunit, r.error_eunit]
        if any_failed:
            row.append(1 if r.warning else 0)
        if r.warning is not None:
            reason = r.warning.partition("\n")[0]
            print(f"warning: z = {r.z_over_zunit}: {reason}", file=sys.stderr)
        rows.append(tuple(row))
    notes = [
        ("energy_unit_meV", energy_unit_mev(molecule)),
        ("length_unit_nm", length_unit_nm(molecule)),
    ]
    return (columns, rows, notes), (1 if any_failed else 0)


def _run_cavity(config: RunConfig) -> tuple[tuple, int]:
    molecule = _build_molecule(config)
    modes = _build_modes(config)
    thermal = _build(Thermal, config, "thermal.temperature_k")
    report = cavity_shift_report(modes, molecule, thermal=thermal)
    columns = (
        Column("mode_index", "dimensionless"),
        Column("omega_eV", "eV"),
        Column("chirality_factor", "dimensionless"),
        Column("veff_nm3", "nm^3"),
        Column("london_T0_meV", "meV"),
        Column("london_thermal_ratio", "dimensionless"),
        Column("london_meV", "meV"),
        Column("resonant", "dimensionless"),
    )
    rows = [
        (i, m.omega_ev, m.chirality_factor, m.veff_nm3, t0 * 1e3, ratio, london * 1e3,
         1 if resonant else 0)
        for i, (m, t0, ratio, london, resonant) in enumerate(zip(
            modes.modes, report.london_t0_ev, report.london_thermal_ratio, report.london_ev,
            report.resonant), 1)
    ]
    notes = [
        ("temperature_K", thermal.temperature_k),
        ("london_total_T0_meV", report.london_total_t0_ev * 1e3),
        ("london_total_meV", report.london_total_ev * 1e3),
        ("resonant_modes", sum(report.resonant)),
    ]
    return (columns, rows, notes), 0


def _run_debye(config: RunConfig) -> tuple[tuple, int]:
    modes = _build_modes(config)
    ensemble_base = _build(lambda d00, m00: PolarizedEnsemble(d00, m00, 1),
                           config, "ensemble.d00", "ensemble.m00")
    thermal = _build(Thermal, config, "thermal.temperature_k")
    ensembles = _build(lambda n_list: [PolarizedEnsemble(ensemble_base.d00, ensemble_base.m00, n)
                                       for n in n_list], config, "sweep.n_list")
    rows = []
    for ens in ensembles:
        pm_t0 = debye_shift_per_molecule(modes, ens)
        pm = debye_shift_per_molecule(modes, ens, thermal=thermal)
        rows.append((ens.n_molecules, pm_t0 * 1e3, pm * 1e3,
                     pm_t0 * ens.n_molecules * 1e3, pm * ens.n_molecules * 1e3))
    columns = (
        Column("n_molecules", "dimensionless"),
        Column("per_molecule_T0_meV", "meV"),
        Column("per_molecule_meV", "meV"),
        Column("total_T0_meV", "meV"),
        Column("total_meV", "meV"),
    )
    base_ratio = debye_shift_per_molecule(modes, ensemble_base, thermal=thermal) \
        / debye_shift_per_molecule(modes, ensemble_base) \
        if debye_shift_per_molecule(modes, ensemble_base) != 0.0 else 1.0
    notes = [
        ("temperature_K", thermal.temperature_k),
        ("thermal_enhancement", base_ratio),
    ]
    return (columns, rows, notes), 0


def _sweep(config: RunConfig, profile: Optional[ReactionProfile] = None) -> list:
    """``selectivity_sweep`` over the config's grids; a temperature that
    ``Thermal`` or ``selectivity`` rejects names ``thermal.temperatures``."""
    return _build(lambda temps: selectivity_sweep(config["sweep.delta_e_mev"], temps, profile),
                  config, "thermal.temperatures")


def _run_selectivity(config: RunConfig) -> tuple[tuple, int]:
    rows = _sweep(config)
    columns = (
        Column("delta_e_meV", "meV"),
        Column("temperature_K", "K"),
        Column("p_chi", "dimensionless"),
    )
    return (columns, rows, []), 0


def _run_tst(config: RunConfig) -> tuple[tuple, int]:
    profile = _build(ReactionProfile, config, "profile.barrier_ev", "profile.omega_nu_ev",
                     "profile.curvature_b_ev3", "profile.mass_amu")
    corrected = _sweep(config, profile)
    (columns, rows, _), _ = _run_selectivity(config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        e_a = tst_activation(profile)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    d_omega = zero_point_frequency_shift(profile)
    rows = [(*row, e_a, d_omega, p_tst) for row, (_, _, p_tst) in zip(rows, corrected)]
    columns = (*columns, Column("e_a_eV", "eV"), Column("delta_omega_eV", "eV"),
               Column("p_chi_tst", "dimensionless"))
    return (columns, rows, []), 0


def _run_verify(config: RunConfig) -> tuple[tuple, int]:
    from . import acceptance  # only verify needs the suite and its fixtures
    results = acceptance.run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.index}. {r.name}: {r.detail}",
              file=sys.stderr)
    rows = [(r.index, 1 if r.passed else 0) for r in results]
    columns = (Column("criterion", "dimensionless"), Column("passed", "dimensionless"))
    notes = [(f"criterion_{r.index}", f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
             for r in results]
    code = 0 if all(r.passed for r in results) else 1
    return (columns, rows, notes), code


_RUNNERS = {
    "pasteur": _run_pasteur,
    "cavity": _run_cavity,
    "debye": _run_debye,
    "selectivity": _run_selectivity,
    "tst": _run_tst,
    "verify": _run_verify,
}


def run(config: RunConfig) -> tuple[SweepOutput, int]:
    """Dispatch a resolved configuration to its command implementation.

    A runner returns ``(columns, rows, notes), exit_code``; the output
    carries the command name and the sorted config echo.
    """
    (columns, rows, notes), code = _RUNNERS[config.command](config)
    return SweepOutput(config.command, sorted(config.raw.items()), tuple(columns),
                       rows, notes), code


def _non_finite_field(out: SweepOutput) -> Optional[str]:
    """Name of the first column or note holding a NaN or infinite float, else None."""
    named = [(c.name, v) for row in out.rows for c, v in zip(out.columns, row)] + list(out.notes)
    return next((name for name, v in named if isinstance(v, float) and not math.isfinite(v)), None)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or "-h" in argv or "--help" in argv:
        print(usage())
        return 0 if argv else 2

    try:
        config = parse_config(argv)
        out, code = run(config)
        try:  # the encoders reject a NaN or infinite cell or note
            text = render(out, config["output.format"])
        except ValueError:
            print(f"error: non-finite result in {_non_finite_field(out)!r}", file=sys.stderr)
            return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    path = config["output.path"]
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write {path!r}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
