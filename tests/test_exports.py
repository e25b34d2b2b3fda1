"""Every name a module exports exists, so a removal leaves no stale export behind."""

import importlib
import pkgutil

import pytest

import geotri

MODULES = ["geotri"] + [
    f"geotri.{info.name}" for info in pkgutil.iter_modules(geotri.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []
