"""Every name a module of the package lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import ratelab
import ratelab.policy

MODULES = ["ratelab"] + sorted(
    f"{package.__name__}.{info.name}"
    for package in (ratelab, ratelab.policy)
    for info in pkgutil.iter_modules(package.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
