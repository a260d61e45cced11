import types

import ftplane


def test_all_is_importable_and_holds_no_module():
    namespace: dict = {}
    exec("from ftplane import *", namespace)  # raises if a listed name is missing
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(ftplane.__all__))
    assert [name for name, obj in namespace.items()
            if isinstance(obj, types.ModuleType)] == []
