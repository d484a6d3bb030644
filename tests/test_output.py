"""The renderers against cell-by-cell encoders kept here.

`to_json` and `to_csv` encode the table rows in bulk; the references
below encode them one cell at a time, and the two must agree byte for
byte.  The tables drawn are those the CLI writes, as
`test_cli::test_every_runner_writes_rows_of_int_float_or_none` pins:
one or more rows, each a non-empty tuple of int, finite float or None
(a missing value), and notes of int, finite float or str.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiral_vacuum.output import TOOL_NAME, Column, SweepOutput, to_csv, to_json
from chiral_vacuum.version import __version__


def reference_json(out):
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


def _cell(value):
    return "nan" if value is None else repr(value)


def reference_csv(out):
    lines = [f"# {TOOL_NAME} {__version__}", f"# command = {out.command}"]
    lines += [f"# config: {key} = {value}" for key, value in out.config_echo]
    lines += [f"# note: {key} = {value if isinstance(value, str) else _cell(value)}"
              for key, value in out.notes]
    lines += [f"# column {i}: {c.name} [{c.unit}]" for i, c in enumerate(out.columns, 1)]
    lines += [",".join(map(_cell, row)) for row in out.rows]
    return "\n".join(lines) + "\n"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite_floats,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(),
)
cells = numbers | st.none()
tables = st.integers(1, 7).flatmap(
    lambda width: st.lists(st.tuples(*[cells] * width), min_size=1, max_size=6).map(
        lambda rows: (width, rows)))
notes = st.lists(st.tuples(st.sampled_from(["energy_unit_meV", "rows", "criterion_1"]),
                           numbers | st.text(max_size=12)), max_size=4)


def _output(width, rows, notes):
    echo = [("output.format", "json"), ("rows", "[]"), ("sweep.z_list", "0.5, 1")]
    columns = tuple(Column(f"c{i}", "dimensionless") for i in range(width))
    return SweepOutput("test", echo, columns, rows, notes)


@settings(max_examples=100, deadline=None)
@given(table=tables, notes=notes)
@example(table=(3, [(1.0, 2, 0.1), (-0.0, 5e-324, 1e308)]), notes=[("rows", 3)])
@example(table=(1, [(None,), (1.5,)]), notes=[("criterion_1", "PASS 1. a: null, nan")])
def test_renderers_equal_the_cell_by_cell_encoders(table, notes):
    out = _output(*table, notes)
    assert to_csv(out) == reference_csv(out)
    assert to_json(out) == reference_json(out)


@settings(max_examples=50, deadline=None)
@given(table=tables, notes=notes, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       data=st.data())
def test_a_non_finite_cell_or_note_raises_in_both_formats(table, notes, bad, data):
    width, rows = table
    if data.draw(st.booleans(), label="in a note"):
        notes = notes + [("energy_unit_meV", bad)]
    else:
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, width - 1), label="column")
        rows[i] = rows[i][:j] + (bad,) + rows[i][j + 1:]
    out = _output(width, rows, notes)
    for render in (to_csv, to_json):
        with pytest.raises(ValueError):
            render(out)
