"""Every name a ckn4 module exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import ckn4

MODULES = [importlib.import_module(f"ckn4.{info.name}") for info in pkgutil.iter_modules(ckn4.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_exporting_modules_are_found():
    names = {m.__name__ for m in EXPORTING}
    assert {"ckn4.calculus", "ckn4.emden", "ckn4.forms", "ckn4.params", "ckn4.profiles",
            "ckn4.reduction", "ckn4.spectrum"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_are_exported_by_their_module():
    # what ckn4/__init__.py re-exports is each in its module's __all__
    exported = {name for m in EXPORTING for name in m.__all__}
    public = {name for name, value in vars(ckn4).items()
              if not name.startswith("_") and not isinstance(value, type(ckn4))}
    assert public - exported == set()
