"""Tests for the package's public surface."""

import importlib
import pkgutil

import weightcomb


def test_every_public_name_resolves():
    modules = [weightcomb] + [
        importlib.import_module(f"weightcomb.{info.name}")
        for info in pkgutil.iter_modules(weightcomb.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 6
    for module in exporting:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
