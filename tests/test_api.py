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
