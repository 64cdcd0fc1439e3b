import importlib

import quditcorr

MODULES = ["bench", "bloch", "discord", "gellmann", "linalg", "matfile", "states"]


def test_root_reexports_every_module_all():
    names = quditcorr.__all__
    assert len(names) == len(set(names))
    assert not [name for name in names if name.startswith("_")]
    submodules = [importlib.import_module(f"quditcorr.{m}") for m in MODULES]
    assert set(names) == {name for mod in submodules for name in mod.__all__}
    for mod in submodules:
        for name in mod.__all__:
            assert getattr(quditcorr, name) is getattr(mod, name), name
    assert quditcorr.gellmann is importlib.import_module("quditcorr.gellmann").gellmann
