import importlib
import inspect
import re
from pathlib import Path

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


def test_readme_entry_point_table_lists_public_names():
    # Both directions: every public function is in the table, and every name in it is public.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Main entry points:", 1)[1].split("\n\n", 2)[1]
    names = set(re.findall(r"`(\w+)`", table))
    functions = {name for name in quditcorr.__all__ if inspect.isfunction(getattr(quditcorr, name))}
    assert functions
    assert sorted(functions - names) == []
    assert sorted(names - set(quditcorr.__all__)) == []
