import ast
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import chiral_vacuum


def test_all_lists_each_public_name_once():
    names = chiral_vacuum.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(chiral_vacuum, name), name
    public = {name for name, value in vars(chiral_vacuum).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public | {"__version__"}


def _imports(node, in_function=False):
    """(top-level package, inside a function body?, line) for each absolute import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name.partition(".")[0], in_function, child.lineno
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.partition(".")[0], in_function, child.lineno
        yield from _imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_numpy_and_scipy_load_only_where_needed():
    # numpy at import time only in config, for the linear z grid, and the
    # acceptance suite, and nowhere in cli; pasteur loads it at the first
    # array, and scipy loads at the first quadrature, inside a function body
    numpy_at_top, numpy_in_cli = set(), []
    for path in sorted(pathlib.Path(chiral_vacuum.__file__).parent.glob("*.py")):
        for name, in_function, line in _imports(ast.parse(path.read_text())):
            if name == "numpy" and not in_function:
                numpy_at_top.add(path.stem)
            if name == "numpy" and path.name == "cli.py":
                numpy_in_cli.append(f"cli.py:{line}")
            assert not (name == "scipy" and not in_function), path.name
    assert not numpy_in_cli, numpy_in_cli
    assert numpy_at_top == {"config", "acceptance"}


def test_closed_form_calls_load_neither_numpy_nor_scipy():
    # in a fresh interpreter: the package and every closed-form call run on
    # math alone; the first ndarray then loads numpy and gets the scalar bits
    code = textwrap.dedent("""
        import sys
        import chiral_vacuum as cv
        mol = cv.MoleculeSpectrum.from_lists([2.0, 3.5], [0.1, -0.04])
        mat = cv.PasteurMaterial(2.0, 1.5, 0.6)
        modes = cv.CavityModeSet.uniform([0.2, 0.3], 0.5, 0.1)
        thermal = cv.Thermal(300.0)
        profile = cv.ReactionProfile(0.5, 0.1, 1e-4)
        cv.london_shift(modes, mol)
        cv.cavity_shift_report(modes, mol, thermal=thermal)
        cv.debye_shift_per_molecule(modes, cv.PolarizedEnsemble((1.0, 0, 0), (0, 1.0, 0), 10))
        cv.thermal_ratio_london(0.2, 2.0, thermal)
        cv.thermal_ratio_debye(0.2, thermal)
        cv.bose_occupation(0.2, thermal)
        cv.selectivity(5.0, thermal)
        cv.selectivity_sweep([0.0, 5.0], [300.0], profile)
        cv.selectivity_tst(5.0, profile, thermal)
        cv.tst_activation(profile)
        cv.zero_point_frequency_shift(profile)
        cv.chiral_shift_nonretarded(0.5, mol, mat)
        cv.energy_unit_mev(mol)
        cv.length_unit_nm(mol)
        cv.reflection_limit(mat)
        scalars = [cv.reflection_cross(c, mat) for c in (1.7, 3)]
        loaded = sorted({"numpy", "scipy"} & set(sys.modules))
        assert not loaded, loaded
        import numpy as np
        array = cv.reflection_cross(np.array([1.7, 3.0]), mat)
        assert [float(v).hex() for v in array] == [v.hex() for v in scalars]
    """)
    src_dir = os.path.dirname(os.path.dirname(chiral_vacuum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# README's byte contract: besides + - * /, the library calls only these numpy
# functions, whose bits do not depend on the CPU's SIMD loops, and no `@`, whose
# bits depend on the BLAS.  acceptance.py prints its oracle values to 3 digits.
_NUMPY_CALLS = {"linspace", "sqrt", "errstate", "array"}


def _dotted(node):
    return f"{_dotted(node.value)}.{node.attr}" if isinstance(node, ast.Attribute) \
        else getattr(node, "id", "")


def _numpy_outside_the_set(source):
    """(line, what) for each ``@`` and each numpy call or import outside _NUMPY_CALLS."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"numpy.{alias.name}") for alias in node.names
                      if alias.name not in _NUMPY_CALLS]
        elif isinstance(node, ast.Call):
            root, _, name = _dotted(node.func).partition(".")
            if root in aliases and name not in _NUMPY_CALLS:
                found.append((node.lineno, f"{root}.{name}"))
    return found


def test_numpy_calls_stay_in_the_host_independent_set():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(pathlib.Path(chiral_vacuum.__file__).parent.glob("*.py"))
             if path.name != "acceptance.py"
             for line, what in _numpy_outside_the_set(path.read_text())]
    assert not found, found


def test_the_numpy_check_refuses_exp_and_matmul():
    source = textwrap.dedent("""
        import numpy as np
        from numpy import sqrt, log

        def f(x):
            y = np.sqrt(x)
            y @= x
            return np.exp(y) @ np.linalg.norm(x)
    """)
    assert sorted(_numpy_outside_the_set(source)) == [
        (3, "numpy.log"), (7, "@"), (8, "@"), (8, "np.exp"), (8, "np.linalg.norm")]


def test_readme_quick_start_runs():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
