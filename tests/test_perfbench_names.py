"""The benchmark in ``perfbench/`` wraps package functions by name.

Its tracer and its per-call timer look each ``(owner, attribute)`` up in
the owner's ``__dict__``, and its workloads call package functions with
fixed signatures; a rename or a changed signature in ``src/`` would
otherwise surface only as an error in a benchmark run.
"""

import importlib
import sys
from collections import Counter
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


def test_traced_census_pass_records_every_layer(perfbench, tmp_path):
    """One traced pass of the census workload records a span for each call
    of every hook the census path reaches: 3 census calls, each with one
    sampler set-up and one parameter lookup, and 100 trials with one draw
    and one decomposition each.  A hook bound locally in ``src/`` would skip
    its wrapper and leave its layer metric at zero."""
    workloads, tracing = perfbench["workloads"], perfbench["tracing"]
    workload = workloads.WORKLOADS["census-n1e5"]
    tracer = tracing.Tracer()
    run = workloads.Run(seed=0, seconds=0.0, tracer=tracer, workdir=tmp_path)
    state = workload.setup()
    with tracer.installed():
        workload.tasks(run, state, tracer)
    assert run.tally.failed == 0, run.tally.failures
    counts = Counter(name for name, *_ in tracer.all_spans())
    calls = len(workloads.CENSUS_MU)
    trials = calls * workloads.CENSUS_TRIALS
    assert [counts[name] for name in ("census", "worker_init", "params", "decomp")] == [
        calls, calls, calls, trials
    ]
    assert min(counts[name] for name in ("sample", "tail", "walk")) >= trials


def test_traced_chain_pass_records_every_step(perfbench, tmp_path):
    """One traced pass of the chain workload records a ``step`` span for
    each of its 780 ``chain_step`` calls and counts at least one Bernoulli
    draw per step: a ``run_chain`` that skips ``chain_step``, or a walk that
    draws without ``SamplerContext.bernoulli_fraction``, leaves its layer
    metrics short."""
    workloads, tracing = perfbench["workloads"], perfbench["tracing"]
    workload = workloads.WORKLOADS["chain-full-n40"]
    tracer = tracing.Tracer()
    run = workloads.Run(seed=0, seconds=0.0, tracer=tracer, workdir=tmp_path)
    state = workload.setup()
    with tracer.installed():
        workload.tasks(run, state, tracer)
    assert run.tally.failed == 0, run.tally.failures
    steps = Counter(name for name, *_ in tracer.all_spans())["step"]
    assert steps == workloads.CHAIN_M == 780
    assert tracer.counts["bernoulli"][0] >= steps
