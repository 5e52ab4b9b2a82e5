"""The package namespace carries exactly the public names of the library
modules, as each module's ``__all__`` declares them."""

import importlib
import pkgutil
import types

import pytest

import screwalg

# The command-line front end is not part of the library.
_LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(screwalg.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", _LIBRARY_MODULES)
def test_every_public_name_is_exported_by_the_package(name):
    module = importlib.import_module(f"screwalg.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if getattr(screwalg, n, None) is not getattr(module, n)]
    assert missing == []


def test_the_package_exports_only_the_modules_public_names():
    declared = set()
    for name in _LIBRARY_MODULES:
        declared.update(importlib.import_module(f"screwalg.{name}").__all__)
    public = {
        name for name, value in vars(screwalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared
