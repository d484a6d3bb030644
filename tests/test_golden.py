"""The CLI's output contract: each command's output, byte for byte.

Each case runs through ``cli.main`` in-process and writes to a relative
``--output.path``, so the echoed path is the golden file's own name.
The exit code must be 0, stdout empty and the file equal to
``tests/golden/<name>``, and the ``pasteur`` cases keep their bytes in a
child with numpy's CPU-specific loops switched off, and in one with
OpenBLAS's kernels for another CPU.  A change that moves
output bytes on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says which columns moved and by how much.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chiral_vacuum import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# the default argv of each command; pasteur at kappa = 0.4 on 5 points,
# since its default kappa = 0 writes zeros, and on the default 50-point
# log grid; and one resonant cavity
ARGVS = {
    "pasteur": ["pasteur", "--material.kappa", "0.4", "--sweep.z_points", "5"],
    "pasteur_log": ["pasteur", "--material.kappa", "0.4", "--sweep.z_scale", "log"],
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


def _above_baseline_targets() -> list:
    """The SIMD targets above its build's baseline that numpy found on this CPU and picks
    its loops for, such as ``X86_V3`` or ``AVX512_SKX``."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = getattr(umath, "__cpu_features__", {})
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if found.get(t)]


def _pasteur_cases_keep_their_bytes_in_a_child(env, tmp_path):
    """Write the CSV ``pasteur`` cases in a child with ``env`` added to its environment,
    and compare each with its golden file; the JSON cases print the same floats."""
    names = ["pasteur.csv", "pasteur_log.csv"]
    env = {**os.environ, **env, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    script = ("import json, sys; from chiral_vacuum import cli; "
              "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
    subprocess.run([sys.executable, "-c", script, json.dumps([CASES[n] for n in names])],
                   cwd=tmp_path, env=env, check=True)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_pasteur_cases_keep_their_bytes_without_numpys_cpu_specific_loops(tmp_path):
    # numpy's exp, log, power and hypot loops round differently per SIMD
    # target; identical configurations must still give identical files
    targets = _above_baseline_targets()
    if not targets:
        pytest.skip("numpy found no SIMD target above its baseline on this CPU")
    _pasteur_cases_keep_their_bytes_in_a_child({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
                                               tmp_path)


def test_pasteur_cases_keep_their_bytes_under_openblas_prescott_kernels(tmp_path):
    # OpenBLAS picks its kernels per CPU, and its dot products round differently
    # per kernel (a 7-element x @ x moves its last bit under Prescott); so no
    # output path may call BLAS, as @ on vectors does
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
    _pasteur_cases_keep_their_bytes_in_a_child({"OPENBLAS_CORETYPE": "Prescott"}, tmp_path)


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
