"""Machine-readable sweep outputs: CSV with commented header, JSON mirror.

Identical resolved configurations produce byte-identical files: the
header echoes the full configuration, every column declares its unit,
and floats are rendered with shortest round-trip repr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .version import __version__

TOOL_NAME = "chiral-vacuum"


@dataclass(frozen=True)
class Column:
    name: str
    unit: str


@dataclass
class SweepOutput:
    command: str
    config_echo: list  # (key, raw value) pairs, sorted by key
    columns: tuple
    rows: list
    notes: list = field(default_factory=list)  # (key, value) pairs for the header


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_csv(out: SweepOutput) -> str:
    lines = [f"# {TOOL_NAME} {__version__}", f"# command = {out.command}"]
    for key, value in out.config_echo:
        lines.append(f"# config: {key} = {value}")
    for key, value in out.notes:
        lines.append(f"# note: {key} = {_fmt(value) if not isinstance(value, str) else value}")
    for i, col in enumerate(out.columns, 1):
        lines.append(f"# column {i}: {col.name} [{col.unit}]")
    for row in out.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def to_json(out: SweepOutput) -> str:
    payload = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": out.command,
        "config": {k: v for k, v in out.config_echo},
        "notes": {k: v for k, v in out.notes},
        "columns": [{"name": c.name, "unit": c.unit} for c in out.columns],
        "rows": [list(row) for row in out.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render(out: SweepOutput, fmt: str) -> str:
    if fmt == "json":
        return to_json(out)
    return to_csv(out)
