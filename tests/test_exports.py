"""The package namespace carries every public name of the library modules."""

import importlib
import pkgutil

import pytest

import screwalg

# The command-line front end is not part of the library.
_LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(screwalg.__path__) if m.name != "cli")


def _public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    # A module without __all__ (errors) exports the classes it defines.
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    ]


@pytest.mark.parametrize("name", _LIBRARY_MODULES)
def test_every_public_name_is_exported_by_the_package(name):
    module = importlib.import_module(f"screwalg.{name}")
    names = _public_names(module)
    assert names
    missing = [n for n in names if getattr(screwalg, n, None) is not getattr(module, n)]
    assert missing == []
