"""Every name a ``repro`` package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
