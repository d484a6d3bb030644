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
    rows: list  # one or more non-empty tuples of int, float or None
    notes: list = field(default_factory=list)  # (key, value) pairs for the header


# Table rows go through json's C encoder; indent= would select its
# pure-Python one.  The CLI writes ints, Python floats and None (a missing
# value) only, so the compact encoding, with null read as nan, is the CSV
# text, and allow_nan=False rejects a NaN or infinite cell with ValueError.
_CSV_ROWS = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_JSON_ROWS = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def to_csv(out: SweepOutput) -> str:
    lines = [f"# {TOOL_NAME} {__version__}", f"# command = {out.command}"]
    for key, value in out.config_echo:
        lines.append(f"# config: {key} = {value}")
    for key, value in out.notes:
        value = value if isinstance(value, str) else _CSV_ROWS.encode(value)
        lines.append(f"# note: {key} = {value}")
    for i, col in enumerate(out.columns, 1):
        lines.append(f"# column {i}: {col.name} [{col.unit}]")
    lines.append(_CSV_ROWS.encode(out.rows)[2:-2].replace("],[", "\n").replace("null", "nan"))
    return "\n".join(lines) + "\n"


def to_json(out: SweepOutput) -> str:
    # the payload is dumped with "rows": [], and the C-encoded rows are laid
    # out as json's indenting encoder would and spliced in
    payload = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": out.command,
        "config": {k: v for k, v in out.config_echo},
        "notes": {k: v for k, v in out.notes},
        "columns": [{"name": c.name, "unit": c.unit} for c in out.columns],
        "rows": [],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    rows = _JSON_ROWS.encode(out.rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
    return text.replace('\n  "rows": []', f'\n  "rows": [\n    [\n      {rows}\n    ]\n  ]', 1)


def render(out: SweepOutput, fmt: str) -> str:
    return to_json(out) if fmt == "json" else to_csv(out)
