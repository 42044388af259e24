"""The benchmark in ``perfbench/`` wraps package functions by name.

Its tracer and its per-call timer look each ``(owner, attribute)`` up in
the owner's ``__dict__``; a rename in ``src/`` would otherwise surface only
as a ``KeyError`` in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("checks", "layers", "tracing", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in ("tracing", "workloads")}
    for name in names:
        sys.modules.pop(name, None)


def test_traced_and_timed_names_exist(perfbench):
    targets = [(owner, attr) for owner, attr, *_ in perfbench["tracing"]._TARGETS]
    pieces = list(perfbench["workloads"]._PIECES)
    assert targets and pieces
    for owner, attr in targets + pieces:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])
