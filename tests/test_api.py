import ast
import pathlib
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
    """(top-level package, inside a function body?) for each absolute import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name.partition(".")[0], in_function
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.partition(".")[0], in_function
        yield from _imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_numpy_and_scipy_load_only_where_needed():
    # numpy at import time only in the modules with array code; scipy
    # only at the first quadrature, inside a function body
    numpy_at_top = set()
    for path in sorted(pathlib.Path(chiral_vacuum.__file__).parent.glob("*.py")):
        for name, in_function in _imports(ast.parse(path.read_text())):
            if name == "numpy" and not in_function:
                numpy_at_top.add(path.stem)
            assert not (name == "scipy" and not in_function), path.name
    assert numpy_at_top == {"pasteur", "cli", "acceptance"}
