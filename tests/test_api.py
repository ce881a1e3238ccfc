import types

import stfactor


def test_all_lists_resolvable_non_module_names():
    assert isinstance(stfactor.__all__, list)
    assert len(set(stfactor.__all__)) == len(stfactor.__all__)
    for name in stfactor.__all__:
        assert hasattr(stfactor, name), name
        assert not isinstance(getattr(stfactor, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stfactor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stfactor.__all__)
