"""The renderers against the plain encoders they replace.

`to_json` and `to_csv` encode the table rows in bulk; the references
below encode them cell by cell, as json's indenting encoder and `_fmt`
do, and the two must agree byte for byte.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiral_vacuum.output import TOOL_NAME, Column, SweepOutput, _fmt, to_csv, to_json
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


def reference_csv(out):
    lines = [f"# {TOOL_NAME} {__version__}", f"# command = {out.command}"]
    lines += [f"# config: {key} = {value}" for key, value in out.config_echo]
    lines += [f"# note: {key} = {_fmt(value) if not isinstance(value, str) else value}"
              for key, value in out.notes]
    lines += [f"# column {i}: {c.name} [{c.unit}]" for i, c in enumerate(out.columns, 1)]
    lines += [",".join(_fmt(v) for v in row) for row in out.rows]
    return "\n".join(lines) + "\n"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(
    finite_floats,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    finite_floats.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
tables = st.integers(1, 7).flatmap(
    lambda width: st.lists(st.tuples(*[cells] * width), max_size=6).map(
        lambda rows: (width, rows)))


def _output(width, rows):
    echo = [("output.format", "json"), ("rows", "[]"), ("sweep.z_list", "0.5, 1")]
    columns = tuple(Column(f"c{i}", "dimensionless") for i in range(width))
    return SweepOutput("test", echo, columns, rows, [("energy_unit_meV", 1.5), ("rows", 3)])


@settings(max_examples=100, deadline=None)
@given(table=tables)
@example(table=(2, []))
@example(table=(3, [(1.0, 2, np.float64(0.1)), (-0.0, 5e-324, 1e308)]))
@example(table=(1, [(None,), (math.nan,)]))  # nan in CSV, ValueError in JSON
@example(table=(0, [(), ()]))  # empty rows keep json's own layout
def test_renderers_equal_the_cell_by_cell_encoders(table):
    out = _output(*table)
    assert to_csv(out) == reference_csv(out)
    if any(isinstance(v, float) and not math.isfinite(v) for row in out.rows for v in row):
        with pytest.raises(ValueError):
            reference_json(out)
        with pytest.raises(ValueError):
            to_json(out)
    else:
        assert to_json(out) == reference_json(out)

