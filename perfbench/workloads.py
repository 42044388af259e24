"""The benchmark workloads: a census, a chain and a table.

Each workload is a closed loop driven by one process.  It runs a fixed
number of rounds, sized so that the seed code takes about ``--seconds``
(``round_s`` is its nominal round time), and at least ``MIN_ROUNDS``.
The count does not depend on how fast the code under test is, so every
commit times the same work.  Only when the machine is so slow that the
next round would end past ``OVERRUN`` times ``--seconds`` does a run stop
early, after at least ``MIN_ROUNDS``; that bounds the time a run takes.
One round:

1. sets up (``setup_s``) ``setups`` times: builds what the first result
   needs;
2. for ``table-n500`` only, round-trips the table through the binary
   cache (the per-layer ``counting.cache_write_s`` and
   ``counting.cache_read_s``) and checks the loaded table row by row;
3. runs a fixed list of tasks (census calls, a chain trajectory, walker
   draws), each followed by its correctness checks, which are not timed;
   ``passes`` times over when the tasks are short beside the set-up.

The tasks and their inputs are the same in every round; inputs depend only
on ``--seed``.  On a shared 2-vCPU virtual machine the CPU was seen to
alternate, every few seconds, between full speed and a contended speed
up to 1.5 times slower, so a median over a run mostly measured the
neighbours.  (At times it also stayed slower for tens of minutes, which
no statistic within a run removes.)  Every timing therefore takes the
fastest repetition of each repeated piece of work, and the pieces are
small: while a set-up or task runs, every call it makes to one of the
top-level functions in ``_PIECES`` (a sampler build, a draw, a
decomposition, a chain step) is timed on its own.  The best time of the
set-up or task is the sum, over its calls, of each call's fastest
repetition across the rounds, plus the fastest remainder (its wall time
minus its timed calls).  ``setup_s`` is that best time of the set-up;
``ops_per_s`` is the operations of one pass over the tasks over the sum
of the best times of the tasks.

In a traced run every round also runs its tasks once more with the
tracer installed, on the same inputs, so traced wall minus the untraced
wall of one pass is the tracing overhead on identical work.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from invperm import counting, coupling, experiments, limits, permutations, sampling
from invperm.rng import SamplerContext

import checks
from layers import layer_metrics
from tracing import NULL, Tracer

_perf = time.perf_counter

MIN_ROUNDS = 3
OVERRUN = 1.2

# Top-level calls timed one by one inside set-ups and tasks; none of them
# calls another.  A wrapper costs well under a microsecond per call, against
# milliseconds for the calls themselves.
_PIECES = [
    (sampling.SplitSampler, "__init__"),
    (sampling.SplitSampler, "sample"),
    (experiments, "decomposition_points"),
    (coupling, "chain_step"),
]

CENSUS_N = 100_000
CENSUS_MU = (-1.0, 0.0, 1.0)
CENSUS_M = [limits.alpha_for_mu(CENSUS_N, mu)[1] for mu in CENSUS_MU]
CENSUS_TRIALS = 100  # per census call; one call per point
SIDE_DRAWS = 2  # validated draws per point after each census call

CHAIN_N = 40
CHAIN_M = counting.max_inversions(CHAIN_N)  # the full trajectory, 780 steps

TABLE_N = 500
TABLE_M = 2120  # mu = 0 at n = 500
TABLE_DRAWS = 30  # per pass


@dataclass
class Run:
    """One benchmark invocation: inputs, tracer and accumulated results."""

    seed: int
    seconds: float
    tracer: Tracer | None
    workdir: Path
    tally: checks.Tally = field(default_factory=checks.Tally)
    end_to_end: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """What one round does, and how long the seed code takes for it."""

    setup: Callable  # () -> state
    tasks: Callable  # (run, state, tracer) -> [(ops, Timing)], same inputs every round
    setups: int  # set-ups per round
    round_s: float  # nominal seconds per round, which sizes the run
    cache: bool = False  # round-trip the set-up table through the binary cache
    passes: int = 1  # runs of the task list per round, all on the same set-up

    def rounds(self, seconds: float) -> int:
        return max(MIN_ROUNDS, round(seconds / self.round_s))


@dataclass(frozen=True)
class Timing:
    """Wall time of one repetition, and of each ``_PIECES`` call in it."""

    wall: float
    pieces: tuple[float, ...]


def _timed(fn):
    """Run ``fn()`` with its ``_PIECES`` calls timed; returns (Timing, result)."""
    pieces: list[float] = []

    def timer(original):
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            t0 = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                pieces.append(_perf() - t0)

        return wrapped

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in _PIECES]
    for owner, attr, original in originals:
        setattr(owner, attr, timer(original))
    try:
        t0 = _perf()
        out = fn()
        wall = _perf() - t0
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return Timing(wall, tuple(pieces)), out


def best_time(timings: list[Timing]) -> float:
    """Best time of a repeated piece of work: the fastest repetition of each
    timed call in it plus the fastest remainder, or the fastest wall time
    when the repetitions did not make the same number of calls."""
    if len({len(t.pieces) for t in timings}) != 1:
        return min(t.wall for t in timings)
    rest = min(t.wall - sum(t.pieces) for t in timings)
    return rest + sum(min(calls) for calls in zip(*(t.pieces for t in timings)))


def _cache_roundtrip(run: Run, table: counting.InversionTable):
    """One save and load of ``table``; returns the two wall times."""
    path = str(run.workdir / "table.ivtb")
    write, _ = _timed(lambda: counting.save_table(table, path))
    read, loaded = _timed(lambda: counting.load_table(path))
    for ok in checks.table_rows_equal(table, loaded):
        run.tally.check("cache row", ok)
    run.details["cache_bytes"] = os.path.getsize(path)
    os.remove(path)
    return write.wall, read.wall


def _rounds(run: Run, wl: Workload) -> None:
    setups: list[Timing] = []
    tasks: list[list[Timing]] = []  # per task, one Timing per pass
    samples = {"cache_write_s": [], "cache_read_s": [], "pass_busy_s": []}
    traced_ops = 0
    traced_busy = 0.0
    rounds = 0
    start = _perf()
    while rounds < wl.rounds(run.seconds):
        elapsed = _perf() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > OVERRUN * run.seconds:
            break
        rounds += 1
        for _ in range(wl.setups):
            state = None  # release the previous state first
            with run.tracer.installed() if run.tracer else contextlib.nullcontext():
                timing, state = _timed(wl.setup)
            setups.append(timing)
        if wl.cache:
            write_s, read_s = _cache_roundtrip(run, state)
            samples["cache_write_s"].append(write_s)
            samples["cache_read_s"].append(read_s)
        busy = 0.0
        for _ in range(wl.passes):
            done = wl.tasks(run, state, NULL)
            tasks = tasks or [[] for _ in done]
            for timings, (_, timing) in zip(tasks, done):
                timings.append(timing)
            busy += sum(t.wall for _, t in done)
        samples["pass_busy_s"].append(busy / wl.passes)
        if run.tracer is not None:
            with run.tracer.installed():
                traced = wl.tasks(run, state, run.tracer)
            traced_ops += sum(ops for ops, _ in traced)
            traced_busy += sum(t.wall for _, t in traced)
    ops = sum(o for o, _ in done)
    run.end_to_end.update(
        setup_s=best_time(setups),
        ops_per_s=ops / sum(map(best_time, tasks)),
    )
    samples["setup_s"] = [t.wall for t in setups]
    run.details.update(
        cache_write_s=min(samples["cache_write_s"], default=0.0),
        cache_read_s=min(samples["cache_read_s"], default=0.0),
        cells=checks.table_cells(state) if wl.cache else 0,
        cache_bytes=run.details.get("cache_bytes", 0),
        rounds=rounds,
        ops_per_pass=ops,
        tasks=len(tasks),
        timed_calls_per_pass=sum(len(timings[0].pieces) for timings in tasks),
        samples=samples,
    )
    if run.tracer is not None:
        untraced = sum(samples["pass_busy_s"])
        run.details.update(
            traced_ops=traced_ops,
            traced_busy_s=traced_busy,
            trace_overhead_s=traced_busy - untraced,
        )


# -- workloads ----------------------------------------------------------


def _census_tasks(run: Run, samplers, tr):
    """One ``run_component_census`` call per mu, each followed by validated
    side draws from the set-up samplers."""
    out = []
    for key, (mu, m, sampler) in enumerate(zip(CENSUS_MU, CENSUS_M, samplers)):
        cfg = experiments.ExperimentConfig(
            n=CENSUS_N,
            mode="components",
            trials=CENSUS_TRIALS,
            seed=run.seed * len(CENSUS_M) + key,
            mu_list=[mu],
            parallelism=1,
        )
        timing, report = _timed(lambda: experiments.run_component_census(cfg))
        with tr.paused():
            (point,) = report.points
            run.tally.check(
                "census histogram",
                point.m == m and checks.histogram_ok(point.histogram, cfg.trials),
            )
            for j in range(SIDE_DRAWS):
                x = sampler.sample(SamplerContext(None, run.seed, (key, j)))
                run.tally.check("side draw", checks.inversion_sequence_ok(x, m))
        out.append((cfg.trials, timing))
    return out


def _chain_tasks(run: Run, table, tr):
    """One full ``run_chain`` trajectory from the empty state, with the
    fresh BetaTable that run_chain builds by default.  Its steps are
    replayed from the box list it records, and each is checked."""
    ctx = SamplerContext(table, run.seed, (0,))
    boxes: list[int] = []
    timing, state = _timed(lambda: coupling.run_chain(CHAIN_N, CHAIN_M, ctx, trace=boxes))
    with tr.paused():
        x = (0,) * CHAIN_N
        for box in boxes:
            prev, x = x, x[: box - 1] + (x[box - 1] + 1,) + x[box:]
            run.tally.check("chain step", 1 <= box <= CHAIN_N and checks.step_ok(prev, x))
        run.tally.check(
            "chain final state",
            len(boxes) == CHAIN_M and state.t == CHAIN_M and tuple(state.x) == x,
        )
    return [(CHAIN_M, timing)]


def _table_tasks(run: Run, table, tr):
    """Walker draws, each with its bijection round trip and decomposition."""
    out = []
    for k in range(TABLE_DRAWS):
        ctx = SamplerContext(table, run.seed, (k,))
        t0 = _perf()
        x = sampling.sample_inversion_sequence(TABLE_N, TABLE_M, ctx)
        with tr.span("bijection"):
            perm = permutations.permutation_from_inversion_sequence(x)
            back = permutations.inversion_sequence(perm)
        decomposition = permutations.blocks_from_inversion_sequence(x)
        out.append((1, Timing(_perf() - t0, ())))
        with tr.paused():
            run.tally.check("walker draw", checks.inversion_sequence_ok(x, TABLE_M))
            run.tally.check("bijection round trip", back == x)
            run.tally.check("decomposition", decomposition == permutations.blocks(perm))
    return out


WORKLOADS = {
    "census-n1e5": Workload(
        setup=lambda: [sampling.SplitSampler(CENSUS_N, m) for m in CENSUS_M],
        tasks=_census_tasks,
        setups=1,
        round_s=5.5,
    ),
    "chain-full-n40": Workload(
        setup=lambda: counting.build_table(CHAIN_N),
        tasks=_chain_tasks,
        setups=20,
        round_s=4.5,
    ),
    "table-n500": Workload(
        setup=lambda: counting.build_table(TABLE_N, m_cap=TABLE_M),
        tasks=_table_tasks,
        setups=2,
        round_s=8.5,
        cache=True,
        passes=10,
    ),
}


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    tracer = Tracer() if trace else None
    run = Run(seed=seed, seconds=seconds, tracer=tracer, workdir=workdir)
    _rounds(run, WORKLOADS[name])
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        run.details["layers"] = layer_metrics(tracer, run.details)
    return run
