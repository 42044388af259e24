"""The docstring examples in ``invperm`` run, and pass."""

import doctest
import importlib
import pkgutil

import invperm


def test_docstring_examples_pass():
    modules = [invperm] + [
        importlib.import_module(f"invperm.{info.name}") for info in pkgutil.iter_modules(invperm.__path__)
    ]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 5
