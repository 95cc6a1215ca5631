"""Every name a ckn4 module exports resolves, so a deletion leaves no stale export."""

import importlib
import inspect
import pkgutil
import typing

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
    # each name ckn4.__all__ lists resolves through the package, on first
    # access, to the object of the module whose __all__ exports it
    owners = {name: m for m in EXPORTING for name in m.__all__}
    assert len(set(ckn4.__all__)) == len(ckn4.__all__) == 31
    assert [name for name in ckn4.__all__ if name not in owners] == []
    for name in ckn4.__all__:
        assert ckn4.__getattr__(name) is getattr(owners[name], name), name
        assert getattr(ckn4, name) is getattr(owners[name], name), name
    assert set(ckn4.__all__) <= set(dir(ckn4))


def test_package_resolves_each_module():
    # ckn4.<module> resolves to the module itself through the package's
    # __getattr__, the path an access takes before the module is imported
    for m in MODULES:
        name = m.__name__.rpartition(".")[2]
        assert ckn4.__getattr__(name) is m
        assert getattr(ckn4, name) is m
        assert name in dir(ckn4)
    with pytest.raises(AttributeError):
        ckn4.__getattr__("no_such_name")


def _annotated(module):
    """(qualified name, object) of each class, function and method a module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                # a method, or the function a property, a cached_property or a
                # static or class method wraps
                for fn in (member, *(getattr(member, a, None) for a in ("fget", "func", "__func__"))):
                    if inspect.isfunction(fn):
                        yield f"{name}.{attr}", fn


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_annotations_resolve(module):
    # every annotation names something the module can resolve, as
    # typing.get_type_hints does, although `from __future__ import
    # annotations` keeps them as strings that nothing else evaluates
    unresolved = []
    for name, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
