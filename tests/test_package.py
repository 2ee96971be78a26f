"""Every name a module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import marketcast

MODULES = sorted(info.name for info in pkgutil.iter_modules(marketcast.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"marketcast.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
