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


# Table rows go through json's C encoder.  It writes an int or a float (a
# float subclass too) as _fmt does; _NOT_FMT marks the cells where the two
# differ: None, bools, non-finite floats, strings and, through default=,
# values json cannot encode.
_CSV_ROWS = json.JSONEncoder(separators=(",", ":"), default=lambda value: None)
_JSON_ROWS = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)
_NOT_FMT = ("null", "true", "false", "NaN", "Infinity", '"')


def to_csv(out: SweepOutput) -> str:
    lines = [f"# {TOOL_NAME} {__version__}", f"# command = {out.command}"]
    for key, value in out.config_echo:
        lines.append(f"# config: {key} = {value}")
    for key, value in out.notes:
        lines.append(f"# note: {key} = {_fmt(value) if not isinstance(value, str) else value}")
    for i, col in enumerate(out.columns, 1):
        lines.append(f"# column {i}: {col.name} [{col.unit}]")
    text = _CSV_ROWS.encode(out.rows)
    if any(token in text for token in _NOT_FMT):
        lines += (",".join(_fmt(v) for v in row) for row in out.rows)
    elif out.rows:
        lines.append(text[2:-2].replace("],[", "\n"))
    return "\n".join(lines) + "\n"


def to_json(out: SweepOutput) -> str:
    # indent= selects json's pure-Python encoder, so the rows are encoded in C
    # and laid out afterwards; no rows, or an empty row, keep json's layout
    rows = _JSON_ROWS.encode(out.rows)
    own_layout = "[]" in rows
    payload = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": out.command,
        "config": {k: v for k, v in out.config_echo},
        "notes": {k: v for k, v in out.notes},
        "columns": [{"name": c.name, "unit": c.unit} for c in out.columns],
        "rows": [list(row) for row in out.rows] if own_layout else [],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if own_layout:
        return text
    rows = rows[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
    return text.replace('\n  "rows": []', f'\n  "rows": [\n    [\n      {rows}\n    ]\n  ]', 1)


def render(out: SweepOutput, fmt: str) -> str:
    if fmt == "json":
        return to_json(out)
    return to_csv(out)
