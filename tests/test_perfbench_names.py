"""The benchmark in ``perfbench/`` wraps package functions by name.

Its tracer and its per-call timer look each ``(owner, attribute)`` up in
the owner's ``__dict__``, and its workloads call package functions with
fixed signatures; a rename or a changed signature in ``src/`` would
otherwise surface only as an error in a benchmark run.
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


def test_every_workload_runs_one_round_and_passes_its_checks(perfbench, tmp_path):
    """One set-up and one pass of tasks per workload, untraced and untimed
    beyond what the tasks time themselves: a changed signature of a call the
    benchmark makes fails here rather than in a benchmark run."""
    workloads, tracing = perfbench["workloads"], perfbench["tracing"]
    for name, workload in workloads.WORKLOADS.items():
        run = workloads.Run(seed=0, seconds=0.0, tracer=None, workdir=tmp_path)
        done = workload.tasks(run, workload.setup(), tracing.NULL)
        assert done and all(ops > 0 for ops, _ in done), name
        assert run.tally.attempted > 0 and run.tally.failed == 0, (name, run.tally.failures)
