"""The examples in the package's docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import triality


def test_package_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(triality.__path__):
        result = doctest.testmod(importlib.import_module(f"triality.{info.name}"))
        assert not result.failed, f"triality.{info.name}: {result.failed} doctest failures"
        attempted += result.attempted
    assert attempted
