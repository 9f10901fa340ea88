"""Library-wide public-API contract checks.

Every package's ``__all__`` must resolve, and every public class and
function must carry a docstring — documentation is part of the API.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.admission",
    "repro.analysis",
    "repro.annotations",
    "repro.collab",
    "repro.core",
    "repro.distribution",
    "repro.fault",
    "repro.library",
    "repro.net",
    "repro.obs",
    "repro.qa",
    "repro.rdb",
    "repro.replication",
    "repro.sharding",
    "repro.storage",
    "repro.tiers",
    "repro.util",
    "repro.workloads",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_symbols_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), (
            f"{package_name}.__all__ lists {name!r} but it is missing"
        )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_symbols_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name}: public symbols without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_docstring_present(package_name):
    package = importlib.import_module(package_name)
    assert (package.__doc__ or "").strip(), f"{package_name} lacks a docstring"


def test_public_methods_documented_on_key_classes():
    """The facade classes users touch first must document every public
    method."""
    from repro.core import WebDocumentDatabase
    from repro.rdb import Database
    from repro.net import Network

    for cls in (WebDocumentDatabase, Database, Network):
        missing = [
            name
            for name, member in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_") and not (member.__doc__ or "").strip()
        ]
        assert not missing, f"{cls.__name__}: undocumented methods {missing}"
