"""The CLI's output contract: each command's output, byte for byte.

Each case runs through ``cli.main`` in-process and writes to a relative
``--output.path``, so the echoed path is the golden file's own name.
The exit code must be 0, stdout empty and the file equal to
``tests/golden/<name>``.  A change that moves output bytes on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says which columns moved and by how much.
"""

import os
import pathlib
import sys

import pytest

from chiral_vacuum import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the default argv of each command; pasteur at kappa = 0.4 on 5 points,
# since its default kappa = 0 writes zeros, and one resonant cavity
ARGVS = {
    "pasteur": ["pasteur", "--material.kappa", "0.4", "--sweep.z_points", "5"],
    "cavity": ["cavity"],
    "cavity_resonant": ["cavity", "--cavity.modes", "1.0,2.5"],
    "debye": ["debye"],
    "selectivity": ["selectivity"],
    "tst": ["tst"],
    "verify": ["verify"],
}
CASES = {}
for _name, _argv in ARGVS.items():
    CASES[f"{_name}.csv"] = _argv + ["--output.path", f"{_name}.csv"]
    CASES[f"{_name}.json"] = _argv + ["--output.format", "json", "--output.path", f"{_name}.json"]


@pytest.mark.parametrize("name", CASES)
def test_output_matches_its_golden_file(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def regenerate() -> None:
    """Rewrite every golden file from the current program."""
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        code = cli.main(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        print(name)


if __name__ == "__main__":
    regenerate()
