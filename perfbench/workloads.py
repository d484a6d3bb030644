"""The benchmark's workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with one caller.  Inputs come in rounds
of fixed composition (how many transitions, which command, which output
format); only the values in a round depend on the seed.  The timed loop
ends on a round boundary, so every run's latency sample has the same mix
and medians compare across seeds.

A workload provides:

- ``round(rng)``: the next round of operations;
- ``call(op)``: the operation as a user runs it (timed);
- ``replay(op)``: the same operation in-process, for the traced run;
- ``check(op, result)``: None, or why the operation failed (a ``Wrong``
  when the result contradicts a reference).  Checks use the benchmark's
  own references (``oracle``) and run after the timed phase.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracle

# criterion 7's bound on the half-space shift
PASTEUR_REL_TOL = 1e-6
Z_GRID = tuple(float(z) for z in np.geomspace(1e-3, 1e2, 11))
LARGE_GRID_POINTS = 25_001   # x 4 temperatures = 100,004 rows
GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0
CHILD_TIMEOUT_S = 150.0


class Wrong(str):
    """Failure reason for a result that contradicts a reference."""


@dataclass
class Op:
    kind: str
    inputs: dict
    check_points: tuple = ()   # indices of sweep points compared with the oracle


@dataclass
class PasteurStats:
    """Outcome of the oracle comparisons, for the per-layer metrics."""

    checked: int = 0
    max_rel_err: float = 0.0
    bound_checked: int = 0
    bound_ok: int = 0

    def compare(self, value, reported_err, z, material, molecule) -> Optional[str]:
        """Why ``value`` misses the reference at z, or None."""
        ref, ref_err = oracle.halfspace_shift(z, *material, *molecule)
        self.checked += 1
        if reported_err is not None:
            self.bound(value, reported_err, ref, ref_err)
        if ref == 0.0:
            return None if value == 0.0 else Wrong(f"kappa = 0 shift is {value!r}, not 0")
        self.max_rel_err = max(self.max_rel_err, abs(value - ref) / abs(ref))
        if not oracle.rel_close(value, ref, PASTEUR_REL_TOL, ref_err):
            return Wrong(f"shift {value!r} vs reference {ref!r} at z={z}")
        return None

    def bound(self, value, reported_err, ref, ref_err) -> None:
        """Count whether a reported error estimate covers the actual error."""
        self.bound_checked += 1
        self.bound_ok += reported_err >= abs(value - ref) - ref_err


# ------------------------------------------------------------------ inputs

def _strata(rng, n):
    """n uniforms on [0, 1), one in each of n equal strata, in seeded order.

    Operation cost grows with |kappa_r| and with z's decade, so stratified
    draws give every round the same spread of costs, and medians agree
    across seeds."""
    return (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n


def _material(rng, kappa_r=None, stratum=None):
    """(eps_r, mu_r, kappa); |kappa_r| is drawn from ``stratum`` in [0, 1) if given."""
    eps_r, mu_r = (float(v) for v in rng.uniform(1.0, 5.0, 2))
    if kappa_r is None:
        kappa_r = float(stratum) if stratum is not None else float(rng.uniform(0.0, 1.0))
        kappa_r *= float(rng.choice((-1.0, 1.0)))
    return eps_r, mu_r, kappa_r * math.sqrt(eps_r * mu_r)


def _molecule(rng, n_transitions):
    gaps = [float(rng.uniform(1.0, 4.0))] + [float(g) for g in rng.uniform(1.0, 6.0, n_transitions - 1)]
    strengths = [float(rng.uniform(0.05, 0.5) * rng.choice((-1.0, 1.0)))] \
        + [float(s) for s in rng.uniform(-0.5, 0.5, n_transitions - 1)]
    return gaps, strengths


def _build(cv, material, molecule):
    return (cv.PasteurMaterial(*material),
            cv.MoleculeSpectrum.from_lists(*molecule))


# --------------------------------------------------------------- in-process

class HalfspaceSweep:
    """One ``pasteur.halfspace_sweep`` per operation over an 11-point grid
    z in [1e-3, 1e2]; a fresh material per call, all points of a call
    sharing it.  A round holds eight molecules, one in each eighth of
    |kappa_r| in [0, 1): the 3-transition molecule in the lowest, the
    1-transition one in the highest and six 2-transition ones between.

    A sweep costs in proportion to its transitions, and 2.7 times more at
    |kappa_r| -> 1 than at 0.  Pairing the most transitions with the
    cheapest |kappa_r| keeps the cost of a round nearly the same for every
    seed, and puts the median operation among the 2-transition ones.  The
    offset within the eighths follows a seeded golden-ratio sequence from
    round to round, so a run's few rounds still spread |kappa_r| evenly."""

    name = "halfspace_sweep"
    in_process = True
    transitions_by_stratum = (3, 2, 2, 2, 2, 2, 2, 1)

    def __init__(self, cv):
        self.cv = cv
        self.stats = PasteurStats()
        self._phase = None

    def round(self, rng):
        if self._phase is None:
            self._phase = float(rng.uniform(0.0, 1.0))
        self._phase = (self._phase + GOLDEN_STEP) % 1.0
        strata = len(self.transitions_by_stratum)
        ops = []
        for k, n_transitions in enumerate(self.transitions_by_stratum):
            ops.append(Op(f"sweep-{n_transitions}t", {
                "material": _material(rng, stratum=(k + self._phase) / strata),
                "molecule": _molecule(rng, n_transitions),
            }, tuple(int(i) for i in rng.choice(len(Z_GRID), 2, replace=False))))
        return [ops[i] for i in rng.permutation(len(ops))]

    def call(self, op):
        material, molecule = _build(self.cv, op.inputs["material"], op.inputs["molecule"])
        return self.cv.pasteur.halfspace_sweep(list(Z_GRID), molecule, material)

    replay = call

    def check(self, op, results):
        if len(results) != len(Z_GRID):
            return Wrong(f"{len(results)} results for {len(Z_GRID)} points")
        mat, mol = op.inputs["material"], op.inputs["molecule"]
        for z, r in zip(Z_GRID, results):
            values = (r.shift_eunit, r.shift_mev, r.nonretarded_eunit, r.error_eunit)
            if r.z_over_zunit != z or not all(math.isfinite(v) for v in values):
                return Wrong(f"non-finite or misplaced result at z={z}")
            nr = oracle.nonretarded_shift(z, *mat, mol[1])
            if not oracle.rel_close(r.nonretarded_eunit, nr, 1e-9, 1e-300):
                return Wrong(f"non-retarded {r.nonretarded_eunit!r} vs {nr!r} at z={z}")
        for i in op.check_points:
            r = results[i]
            reason = self.stats.compare(r.shift_eunit, r.error_eunit, Z_GRID[i], mat, mol)
            if reason:
                return reason
        return None

    def peak_rss_mb(self):
        return self_peak_rss_mb()


class MaterialScan:
    """One ``pasteur.chiral_shift_halfspace`` per operation at a single z,
    each with a fresh material: nothing is shared between operations.
    A round of 40 holds kappa = 0 and kappa_r = +1 and -1 once each."""

    name = "material_scan"
    in_process = True
    round_size = 40
    min_ops = 100  # so that ten samples lie beyond op_p90_ms

    def __init__(self, cv):
        self.cv = cv
        self.stats = PasteurStats()

    def round(self, rng):
        ops = []
        for kappa_r in (0.0, 1.0, -1.0):
            ops.append(self._op(rng, "kappa_r=%+g" % kappa_r, 1, float(rng.uniform(-3.0, 2.0)),
                                kappa_r=kappa_r))
        # the rest: 1, 2 and 3 transitions in turn, |kappa_r| and log z
        # stratified within each transition count
        rest = self.round_size - len(ops)
        for n_transitions in (1, 2, 3):
            count = rest // 3 + (n_transitions <= rest % 3)
            for kappa_r, log_z in zip(_strata(rng, count), -3.0 + 5.0 * _strata(rng, count)):
                ops.append(self._op(rng, "random", n_transitions, log_z, stratum=kappa_r))
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _op(rng, label, n_transitions, log_z, kappa_r=None, stratum=None):
        # endpoints and kappa = 0 are always compared; a quarter of the rest
        checked = kappa_r is not None or rng.random() < 0.25
        return Op(label, {
            "z": float(10.0 ** log_z),
            "material": _material(rng, kappa_r, stratum),
            "molecule": _molecule(rng, n_transitions),
        }, (0,) if checked else ())

    def call(self, op):
        material, molecule = _build(self.cv, op.inputs["material"], op.inputs["molecule"])
        return self.cv.pasteur.chiral_shift_halfspace(op.inputs["z"], molecule, material)

    replay = call

    def check(self, op, value):
        if not math.isfinite(value):
            return Wrong(f"non-finite shift {value!r}")
        if op.check_points:
            return self.stats.compare(value, None, op.inputs["z"],
                                      op.inputs["material"], op.inputs["molecule"])
        return None

    def probe_error_bounds(self, ops):
        """chiral_shift_halfspace reports no error estimate, so ask
        halfspace_sweep for the same point's estimate (traced run only)."""
        for op in ops:
            if not op.check_points:
                continue
            z, mat, mol = op.inputs["z"], op.inputs["material"], op.inputs["molecule"]
            material, molecule = _build(self.cv, mat, mol)
            try:
                r = self.cv.pasteur.halfspace_sweep([z], molecule, material)[0]
            except Exception:  # the operation itself already counts as failed
                continue
            self.stats.bound(r.shift_eunit, r.error_eunit, *oracle.halfspace_shift(z, *mat, *mol))

    def peak_rss_mb(self):
        return self_peak_rss_mb()


# --------------------------------------------------------------- subprocess

@dataclass
class CliResult:
    exit_code: int
    text: str
    stderr: str = ""


def _fmt(v) -> str:
    return repr(float(v))


class CliMix:
    """One ``chiral-vacuum`` process per operation, writing to a file.
    A round runs cavity, debye, selectivity and tst on the default grids
    and pasteur on a 5-point z list, each once as CSV and once as JSON,
    plus selectivity (CSV) and tst (JSON) on a 100,004-row grid."""

    name = "cli_mix"
    _n = 0
    in_process = False

    def __init__(self, cv, root, workdir):
        for module in ("config", "cli", "output", "acceptance"):
            importlib.import_module("chiral_vacuum." + module)
        self.cv = cv
        self.workdir = workdir
        self.stats = PasteurStats()
        self.env = child_env(root)

    def call(self, op):
        argv = op.inputs["argv"]
        proc = run_python(["-m", "chiral_vacuum.cli", *argv], self.env, self.workdir, check=False)
        path = os.path.join(self.workdir, argv[argv.index("--output.path") + 1])
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        return CliResult(proc.returncode, text, proc.stderr)

    def peak_rss_mb(self):
        return children_peak_rss_mb()

    def _path(self, fmt):
        # relative to the child's working directory, so that the echoed
        # config, and with it output.bytes, does not depend on where it runs
        self._n += 1
        return f"op{self._n}.{fmt}"

    def round(self, rng):
        specs = []
        for fmt in ("csv", "json"):
            specs += [("cavity", fmt, False), ("debye", fmt, False),
                      ("selectivity", fmt, False), ("tst", fmt, False), ("pasteur", fmt, False)]
        specs += [("selectivity", "csv", True), ("tst", "json", True)]
        ops = []
        for i in rng.permutation(len(specs)):
            command, fmt, large = specs[i]
            argv = [command] + self._flags(rng, command, large)
            argv += ["--output.format", fmt, "--output.path", self._path(fmt)]
            ops.append(Op(f"{command}{'-large' if large else ''}-{fmt}", {"argv": argv}))
        return ops

    @staticmethod
    def _flags(rng, command, large):
        flags = []
        if command in ("cavity", "debye"):
            flags += ["--cavity.modes", ",".join(_fmt(w) for w in np.sort(rng.uniform(0.05, 3.0, 10))),
                      "--cavity.veff_nm3", _fmt(rng.uniform(0.1, 1.0)),
                      "--cavity.chirality_factor", _fmt(rng.uniform(-0.5, 0.5)),
                      "--thermal.temperature_k", _fmt(rng.uniform(50.0, 600.0))]
        if command == "cavity":
            flags += ["--molecule.gap_ev", ",".join(_fmt(g) for g in rng.uniform(1.5, 3.0, 2)),
                      "--molecule.im_rot_strength", ",".join(_fmt(s) for s in rng.uniform(-0.3, 0.3, 2))]
        if command == "debye":
            flags += ["--ensemble.d00", ",".join(_fmt(v) for v in rng.uniform(-0.5, 0.5, 3)),
                      "--ensemble.m00", ",".join(_fmt(v) for v in rng.uniform(-1.5, 1.5, 3)),
                      "--sweep.n_list", ",".join(str(n) for n in rng.integers(1, 10_000, 5))]
        if command == "tst":
            omega = float(rng.uniform(0.05, 0.3))
            mass_ev = 12.0 * oracle.AMU_EV
            flags += ["--profile.omega_nu_ev", _fmt(omega),
                      "--profile.curvature_b_ev3", _fmt(mass_ev * omega ** 2 * rng.uniform(-0.5, 0.5))]
        if large:
            half = int(rng.integers(50, 151))
            flags += ["--sweep.delta_e_mev", f"{-half}:{_fmt(2 * half / (LARGE_GRID_POINTS - 1))}:{half}",
                      "--thermal.temperatures", ",".join(_fmt(t) for t in rng.uniform(100.0, 600.0, 4))]
        if command == "pasteur":
            eps_r, mu_r, kappa = _material(rng)
            gaps, strengths = _molecule(rng, 1)
            z_list = np.sort(10.0 ** rng.uniform(-3.0, 2.0, 5))
            flags += ["--material.eps_r", _fmt(eps_r), "--material.mu_r", _fmt(mu_r),
                      "--material.kappa", _fmt(kappa),
                      "--molecule.gap_ev", _fmt(gaps[0]),
                      "--molecule.im_rot_strength", _fmt(strengths[0]),
                      "--sweep.z_list", ",".join(_fmt(z) for z in z_list)]
        return flags

    @staticmethod
    def acceptance_op():
        """One ``verify``, replayed by the traced run only, so that the
        ``acceptance`` layer is measured.  It takes about 25 s, which is
        too long for the timed loop."""
        return Op("verify", {"argv": ["verify"]})

    def replay(self, op):
        """config.parse_config, cli.run, output.render, as the CLI does;
        for ``verify``, each ``acceptance.CRITERIA`` entry in turn, looked
        up by name so that a traced run reaches the wrapped function."""
        cv = self.cv
        if op.kind == "verify":
            return [getattr(cv.acceptance, fn.__name__)() for fn in cv.acceptance.CRITERIA]
        config = cv.config.parse_config(op.inputs["argv"])
        out, code = cv.cli.run(config)
        return CliResult(code, cv.output.render(out, config["output.format"]))

    def check(self, op, result):
        if op.kind == "verify":
            if len(result) != 8:
                return Wrong(f"{len(result)} acceptance criteria, not 8")
            failed = [str(i) for i, r in enumerate(result, 1) if not r.passed]
            return Wrong("acceptance criteria failed: " + ",".join(failed)) if failed else None
        argv = op.inputs["argv"]
        if result.exit_code != 0:
            return f"exit {result.exit_code}: {result.stderr.strip()[-200:]}"
        try:
            fmt = argv[argv.index("--output.format") + 1]
            columns, rows, notes = parse_output(result.text, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return Wrong(f"unreadable {op.kind} output: {exc}")
        # the same argv in-process must give the same table
        config = self.cv.config.parse_config(argv)
        expected, code = self.cv.cli.run(config)
        if code != 0 or columns != [c.name for c in expected.columns]:
            return Wrong("columns differ from the in-process run")
        if len(rows) != len(expected.rows) or any(
                not _same_row(a, b) for a, b in zip(rows, expected.rows)):
            return Wrong("rows differ from the in-process run")
        return getattr(self, "_check_" + argv[0])(config, columns, rows)

    # closed-form references, one per command
    def _check_cavity(self, config, columns, rows):
        gaps, strengths = config["molecule.gap_ev"], config["molecule.im_rot_strength"]
        col = {name: i for i, name in enumerate(columns)}
        for row in rows:
            t0, ratio, hot = oracle.london_mode_mev(
                row[col["omega_eV"]], config["cavity.veff_nm3"], config["cavity.chirality_factor"],
                gaps, strengths, config["thermal.temperature_k"])
            got_ratio = row[col["london_thermal_ratio"]]
            if not (oracle.rel_close(row[col["london_T0_meV"]], t0, oracle.CONST_REL_TOL, 1e-15)
                    and oracle.rel_close(row[col["london_meV"]], hot, oracle.CONST_REL_TOL, 1e-15)
                    and (ratio is None) == (got_ratio is None)
                    and (ratio is None or oracle.rel_close(got_ratio, ratio, 1e-12))):
                return Wrong(f"cavity mode at {row[col['omega_eV']]} eV off the London mode sum")
        return None

    def _check_debye(self, config, columns, rows):
        modes = [(w, config["cavity.veff_nm3"]) for w in config["cavity.modes"]]
        for n, pm_t0, pm, total_t0, total in rows:
            ref_t0, ref = oracle.debye_per_molecule_mev(
                modes, config["ensemble.d00"], config["ensemble.m00"], n,
                config["thermal.temperature_k"])
            pairs = ((pm_t0, ref_t0), (pm, ref), (total_t0, ref_t0 * n), (total, ref * n))
            if not all(oracle.rel_close(a, b, oracle.CONST_REL_TOL, 1e-15) for a, b in pairs):
                return Wrong(f"debye row N={n} off the Debye mode sum")
        return None

    def _check_selectivity(self, config, columns, rows, half_zp=0.0, col=2):
        table = np.array([(r[0], r[1], r[col]) for r in rows], dtype=float)
        ref = oracle.selectivity(table[:, 0], table[:, 1], half_zp)
        # constants enter through kT and the zero-point term: tolerance on the argument
        arg = (np.abs(table[:, 0]) + abs(half_zp)) / (oracle.KB_EV * table[:, 1] * 1e3)
        tol = 1e-12 + oracle.CONST_REL_TOL * arg * (1.0 - ref * ref)
        if not (np.all(np.abs(table[:, 2]) < 1.0) and np.all(np.abs(table[:, 2] - ref) <= tol)):
            return Wrong("selectivity off tanh(dE / kT)")
        grid = [(de, t) for de in config["sweep.delta_e_mev"] for t in config["thermal.temperatures"]]
        if [(r[0], r[1]) for r in rows] != grid:
            return Wrong("selectivity rows do not follow the grid")
        return None

    def _check_tst(self, config, columns, rows):
        half_zp = oracle.half_zero_point_mev(config["profile.omega_nu_ev"],
                                             config["profile.curvature_b_ev3"],
                                             config["profile.mass_amu"])
        return self._check_selectivity(config, columns, rows) \
            or self._check_selectivity(config, columns, rows, half_zp, col=5)

    def _check_pasteur(self, config, columns, rows):
        material = (config["material.eps_r"], config["material.mu_r"], config["material.kappa"])
        molecule = (config["molecule.gap_ev"], config["molecule.im_rot_strength"])
        e_unit = oracle.energy_unit_mev(molecule[0][0], molecule[1][0])
        for z, shift, shift_mev, nr, err in (r[:5] for r in rows):
            if not oracle.rel_close(shift_mev, shift * e_unit, oracle.CONST_REL_TOL, 1e-300):
                return Wrong(f"shift_meV {shift_mev!r} is not shift x energy unit")
            if not oracle.rel_close(nr, oracle.nonretarded_shift(z, *material, molecule[1]), 1e-9):
                return Wrong(f"non-retarded value off at z={z}")
            reason = self.stats.compare(shift, err, z, material, molecule)
            if reason:
                return reason
        return None



WORKLOADS = {w.name: w for w in (HalfspaceSweep, MaterialScan, CliMix)}


# ------------------------------------------------------------------ helpers

def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "CHIRAL_VACUUM_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_python(args, env, cwd, check=True) -> subprocess.CompletedProcess:
    """Run this interpreter with ``args`` and wait for it to end."""
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=check)


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _num(s: str):
    if s in ("nan", "null"):
        return None
    return int(s) if s.lstrip("-").isdigit() else float(s)


def parse_output(text: str, fmt: str):
    """(column names, rows, notes) from a CSV or JSON output file."""
    if fmt == "json":
        payload = json.loads(text)
        columns = [c["name"] for c in payload["columns"]]
        return columns, [tuple(r) for r in payload["rows"]], payload["notes"]
    columns, rows, notes = [], [], {}
    for line in text.splitlines():
        if line.startswith("# column "):
            columns.append(line.split(": ", 1)[1].rsplit(" [", 1)[0])
        elif line.startswith("# note: "):
            key, _, value = line[8:].partition(" = ")
            notes[key] = value
        elif line and not line.startswith("#"):
            rows.append(tuple(_num(v) for v in line.split(",")))
    if not columns or any(len(r) != len(columns) for r in rows):
        raise ValueError("malformed CSV table")
    return columns, rows, notes


def _same_row(parsed, expected) -> bool:
    if len(parsed) != len(expected):
        return False
    for a, b in zip(parsed, expected):
        if isinstance(b, bool):
            b = int(b)
        if b is None or (isinstance(b, float) and math.isnan(b)):
            if a is not None and not (isinstance(a, float) and math.isnan(a)):
                return False
        elif a is None or float(a) != float(b):
            return False
    return True
