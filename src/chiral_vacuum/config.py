"""Run configuration: defaults, config-file parsing, flag overrides, the z grid.

Config files are line-based ``key = value`` text with ``#`` comments.
Command-line flags ``--dotted.key value`` override file values, which
override the built-in defaults (the canonical parameter set: a 2 eV
two-level molecule with rotatory strength 0.1 e*a0*mu_B, ten left-handed
cavity modes 0.1..1.0 eV in 0.2 nm^3, eps_r = mu_r = 1, T = 300 K).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class ConfigError(ValueError):
    """A rejected input, named by its key, or by the tuple of keys that a
    value was built from, and by its config-file line if it has one."""

    def __init__(self, message: str, key: str | tuple[str, ...] | None = None,
                 line: Optional[int] = None):
        loc = ""
        if key is not None:
            keys = key if isinstance(key, tuple) else (key,)
            loc += f" ({'key' if len(keys) == 1 else 'keys'} {', '.join(map(repr, keys))}"
            loc += f", line {line})" if line is not None else ")"
        super().__init__(message + loc)
        self.key = key
        self.line = line


# Most values a list, a range or a point count may ask for.
MAX_GRID_POINTS = 1_000_000


def _parse_float(s: str) -> float:
    try:  # float's own reason repeats s, which parse_config echoes once, clipped
        value = float(s)
    except ValueError:
        raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    return value


def _parse_positive_float(s: str) -> float:
    value = _parse_float(s)
    if not value > 0.0:
        raise ValueError(f"value must be positive, got {value}")
    return value


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError("not an integer") from None


def _parse_list(s: str, parse_item: Callable[[str], object] = _parse_float) -> list:
    items = [p.strip() for p in s.split(",") if p.strip()]
    if not items:
        raise ValueError("empty list")
    if len(items) > MAX_GRID_POINTS:
        raise ValueError(f"list has more than {MAX_GRID_POINTS} values")
    values = []
    for i, p in enumerate(items, 1):
        try:
            values.append(parse_item(p))
        except ValueError as exc:
            raise ValueError(f"item {i}: {exc}") from None
    return values


def _parse_optional_positive_list(s: str) -> Optional[list[float]]:
    return _parse_list(s, _parse_positive_float) if s.strip() else None


def _parse_grid_points(s: str) -> int:
    n = _parse_int(s)
    if not 1 <= n <= MAX_GRID_POINTS:
        raise ValueError(f"count must lie in [1, {MAX_GRID_POINTS}]")
    return n


def _choice(*options: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected {' or '.join(options)}")
        return s
    return parse


def _parse_grid(s: str) -> list[float]:
    """Either ``start:step:stop`` (inclusive) or an explicit comma list."""
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:step:stop")
        start, step, stop = (_parse_float(p) for p in parts)
        if step == 0.0:
            raise ValueError("range step must be nonzero")
        steps = (stop - start) / step
        if steps + 1.0 > MAX_GRID_POINTS:
            raise ValueError(f"range has more than {MAX_GRID_POINTS} points")
        n = int(round(steps)) + 1 if steps > -1.0 else 0  # round(-inf) overflows
        if n < 1:
            raise ValueError("range is empty")
        if abs(start + (n - 1) * step - stop) > 1e-9 * max(abs(step), 1.0):
            raise ValueError("range stop is not reachable with the given step")
        return [start + k * step for k in range(n)]
    return _parse_list(s)


_MODE_FIELDS = {"omega_ev", "veff_nm3", "chirality_factor"}


def _parse_modes_detailed(s: str) -> Optional[list[dict]]:
    """JSON-style inline list of {omega_ev, veff_nm3, chirality_factor};
    None when blank."""
    if not s.strip():
        return None
    data = json.loads(s)
    if not isinstance(data, list) or not data:
        raise ValueError("modes_detailed must be a nonempty JSON list")
    out = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError("modes_detailed entries must be objects")
        if set(entry) != _MODE_FIELDS:
            raise ValueError(f"mode fields must be {sorted(_MODE_FIELDS)}, got {sorted(entry)}")
        if not all(type(v) in (int, float) for v in entry.values()):
            raise ValueError("mode fields must be JSON numbers")
        out.append({k: _parse_float(v) for k, v in entry.items()})
    return out


@dataclass(frozen=True)
class ParamSpec:
    parse: Callable[[str], object]
    default: str
    help: str


# Full key registry with the canonical default values.
REGISTRY: dict[str, ParamSpec] = {
    "material.eps_r": ParamSpec(_parse_float, "1.0", "relative permittivity"),
    "material.mu_r": ParamSpec(_parse_float, "1.0", "relative permeability"),
    "material.kappa": ParamSpec(_parse_float, "0.0", "Pasteur parameter"),
    "molecule.gap_ev": ParamSpec(_parse_list, "2.0",
                                 "transition gaps in eV (comma list)"),
    "molecule.im_rot_strength": ParamSpec(
        _parse_list, "0.1",
        "imaginary rotatory strengths in e*a0*mu_B (comma list)"),
    "cavity.modes": ParamSpec(_parse_grid, "0.1:0.1:1.0",
                              "mode frequencies in eV (start:step:stop or list)"),
    "cavity.veff_nm3": ParamSpec(_parse_float, "0.2", "effective mode volume in nm^3"),
    "cavity.chirality_factor": ParamSpec(
        _parse_float, "-0.5", "e_k.(e_R x e_I); -1/2 left-handed circular"),
    "cavity.modes_detailed": ParamSpec(
        _parse_modes_detailed, "",
        'per-mode override, JSON list of {"omega_ev","veff_nm3","chirality_factor"}'),
    "ensemble.d00": ParamSpec(_parse_list, "0.2,0,0",
                              "permanent electric dipole in e*a0"),
    "ensemble.m00": ParamSpec(_parse_list, "0,1,0",
                              "permanent magnetic dipole in mu_B"),
    "ensemble.n_molecules": ParamSpec(_parse_int, "100", "ignored: debye takes N from sweep.n_list"),
    "thermal.temperature_k": ParamSpec(_parse_float, "300", "temperature in K"),
    "thermal.temperatures": ParamSpec(_parse_list, "200,300,400",
                                      "temperature list in K for sweeps"),
    "sweep.z_min": ParamSpec(_parse_positive_float, "0.1", "sweep start, multiples of z_unit"),
    "sweep.z_max": ParamSpec(_parse_positive_float, "2.0", "sweep end, multiples of z_unit"),
    "sweep.z_points": ParamSpec(_parse_grid_points, "50", "number of sweep points"),
    "sweep.z_scale": ParamSpec(_choice("linear", "log"), "linear", "z spacing: linear or log"),
    "sweep.z_list": ParamSpec(_parse_optional_positive_list, "",
                              "explicit z list (overrides min/max)"),
    "sweep.delta_e_mev": ParamSpec(_parse_grid, "-100:5:100",
                                   "energy-shift grid in meV"),
    "sweep.n_list": ParamSpec(lambda s: _parse_list(s, _parse_int), "1,10,100",
                              "molecule counts for the collective sweep"),
    "profile.barrier_ev": ParamSpec(_parse_float, "1.0", "barrier height in eV"),
    "profile.omega_nu_ev": ParamSpec(_parse_float, "0.1",
                                     "reactant vibrational quantum in eV"),
    "profile.curvature_b_ev3": ParamSpec(_parse_float, "0.0",
                                         "curvature perturbation b in eV^3"),
    "profile.mass_amu": ParamSpec(_parse_float, "12.0", "effective mass in amu"),
    "output.path": ParamSpec(str, "-", "output file, - for stdout"),
    "output.format": ParamSpec(_choice("csv", "json"), "csv", "output format: csv or json"),
}

# Each command's help line, key groups, work keys and work refusal.  A group
# is a REGISTRY key or a prefix of keys; a command takes the keys of its
# groups in this order, each group in REGISTRY order, then the "output." keys.
# The product of the work keys' list lengths, the work of one run, is refused
# above MAX_GRID_POINTS; cavity.modes_detailed stands for cavity.modes when set.
_TABLE = ("sweep.delta_e_mev", "thermal.temperatures"), "table has more than {} rows"
COMMANDS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...], str]] = {
    "pasteur": ("distance sweep of the half-space chiral shift",
                ("material.", "molecule.", "sweep.z_"), (), ""),
    "cavity": ("per-mode and total London shifts with thermal ratios",
               ("cavity.", "molecule.", "thermal.temperature_k"),
               ("cavity.modes", "molecule.gap_ev"), "mode sum has more than {} terms"),
    "debye": ("collective Debye shift of a polarized ensemble",
              ("cavity.", "ensemble.", "thermal.temperature_k", "sweep.n_list"),
              ("cavity.modes", "sweep.n_list"), "mode sums have more than {} terms"),
    "selectivity": ("chirality-selective rate over shift and temperature grids",
                    ("sweep.delta_e_mev", "thermal.temperatures"), *_TABLE),
    "tst": ("selectivity with the transition-state zero-point correction",
            ("sweep.delta_e_mev", "thermal.temperatures", "profile."), *_TABLE),
    "verify": ("run the built-in acceptance suite", (), (), ""),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated configuration for one run; a pasteur run's
    ``sweep.z_list`` is the z grid it computes."""

    command: str
    values: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)  # resolved raw strings for the echo

    def __getitem__(self, key: str):
        return self.values[key]


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", key=line.split()[0], line=lineno)
        key, _, value = line.partition("=")
        entries[key.strip()] = (value.strip(), lineno)
    return entries


def _split_flags(tokens: list[str]) -> dict[str, tuple[str, None]]:
    flags: dict[str, tuple[str, None]] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}; flags look like --key value")
        body = tok[2:]
        if "=" in body:
            key, _, value = body.partition("=")
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag --{key} is missing its value", key=key)
            value = tokens[i + 1]
            i += 2
        flags[key] = (value, None)
    return flags


def _z_grid(values: dict) -> list[float]:
    """``sweep.z_list`` as given, else ``z_points`` values from ``z_min`` to ``z_max``."""
    if values["sweep.z_list"] is not None:
        return values["sweep.z_list"]
    lo, hi, n = values["sweep.z_min"], values["sweep.z_max"], values["sweep.z_points"]
    if values["sweep.z_scale"] == "linear":
        return np.linspace(lo, hi, n).tolist()
    # math's exp and log, as numpy's loops round differently on different CPUs
    ln_lo, step = math.log(lo), (math.log(hi) - math.log(lo)) / max(n - 1, 1)
    return [lo, *(math.exp(ln_lo + k * step) for k in range(1, n - 1)), hi][:n]


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve command, config file and flags into a validated RunConfig.

    Precedence: built-in defaults < config file < flags.  Unknown keys,
    unparseable or out-of-range values and a run whose work exceeds
    ``MAX_GRID_POINTS`` are rejected with the offending keys named (and
    the line number for file entries).  A pasteur run's z grid is resolved
    into ``sweep.z_list``.
    """
    if not argv:
        raise ConfigError(f"missing command; expected one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    flags = _split_flags(argv[1:])
    config_path, _ = flags.pop("config", (None, None))

    _, groups, work, refusal = COMMANDS[command]
    allowed = [key for group in groups + ("output.",)
               for key in REGISTRY if key.startswith(group)]
    resolved: dict[str, tuple[str, Optional[int]]] = {
        key: (REGISTRY[key].default, None) for key in allowed
    }

    def apply(entries):
        for key, (value, line) in entries.items():
            if key not in REGISTRY:
                raise ConfigError("unknown key", key=key, line=line)
            if key not in allowed:
                raise ConfigError(
                    f"key not applicable to command {command!r}", key=key, line=line)
            resolved[key] = (value, line)

    if config_path is not None:
        apply(_read_config_file(config_path))
    apply(flags)

    values: dict[str, object] = {}
    raw: dict[str, str] = {}
    for key, (value_str, line) in resolved.items():
        param = REGISTRY[key]
        try:
            values[key] = param.parse(value_str)
        except (ValueError, OverflowError, RecursionError) as exc:  # huge ints, deep JSON
            shown = repr(value_str) if len(value_str) <= 80 else \
                f"{value_str[:80]!r}... ({len(value_str)} characters)"
            raise ConfigError(f"cannot parse value {shown}: {exc}", key=key, line=line)
        raw[key] = value_str

    if "sweep.z_list" in values:
        values["sweep.z_list"] = _z_grid(values)
    if values.get("cavity.modes_detailed") is not None:
        work = tuple("cavity.modes_detailed" if k == "cavity.modes" else k for k in work)
    if math.prod(len(values[key]) for key in work) > MAX_GRID_POINTS:
        raise ConfigError(refusal.format(MAX_GRID_POINTS), key=work)
    return RunConfig(command=command, values=values, raw=raw)


def usage() -> str:
    lines = [
        "usage: chiral-vacuum COMMAND [--config FILE] [--dotted.key value ...]",
        "",
        "commands:",
        *(f"  {command:<12} {help_line}" + (f"\n{'':15}refused if its "
          f"{refusal.format(MAX_GRID_POINTS)} ({' x '.join(work)})" if work else "")
          for command, (help_line, _, work, refusal) in COMMANDS.items()),
        "",
        "keys (defaults in parentheses):",
    ]
    for key in sorted(REGISTRY):
        param = REGISTRY[key]
        lines.append(f"  --{key} ({param.default!r}): {param.help}")
    return "\n".join(lines)
